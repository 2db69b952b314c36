import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings, strategies as st

from qmit import noise
from qmit.noise import (
    DEFAULT_DEPTHS,
    PauliLindbladModel,
    UnidentifiableModelError,
    anticommutation_matrix,
    apply_exact,
    apply_stochastic,
    default_probes,
    dumps,
    insertion_table,
    learn_rates,
    learn_rates_from_model,
    line_edges,
    loads,
    nnls,
    pauli_fidelity,
    sample_insertions,
    stochastic_insertions,
    synthesize_decay_data,
    virtual_distillation_expectation,
)
from qmit.pauli import Observable, PauliString, parse_pauli
from qmit.simulator import DensityMatrix, Statevector, pauli_gather, pauli_matrix, philox_rng


def planted_model():
    labels = ["XIII", "IYII", "IIZI", "IIIX", "XXII", "IYYI",
              "IIZZ", "IXZI", "IIXZ", "ZIII", "IIIY", "YYII"]
    rng = np.random.default_rng(5)
    return PauliLindbladModel(4, tuple(
        (parse_pauli(l), float(rng.uniform(0.001, 0.02))) for l in labels))


def dense_superoperator(model, dim):
    """Column-stacked superoperator of the channel (brute force)."""
    sup = np.zeros((dim * dim, dim * dim), dtype=complex)
    for k in range(dim * dim):
        e = np.zeros((dim, dim), dtype=complex)
        e[k % dim, k // dim] = 1.0
        out = model.apply_to_matrix(e)
        sup[:, k] = out.reshape(-1, order="F")
    return sup


def test_model_normalization():
    p = parse_pauli("XY")
    m = PauliLindbladModel(2, ((p, 0.1), (p, 0.2)))
    assert len(m.generators) == 1
    assert m.generators[0][1] == pytest.approx(0.3)
    assert m.total_rate == pytest.approx(0.3)


def test_model_validation():
    with pytest.raises(ValueError):
        PauliLindbladModel(2, ((parse_pauli("XY"), -0.1),))
    with pytest.raises(ValueError):
        PauliLindbladModel(2, ((PauliString.identity(2), 0.1),))
    with pytest.raises(ValueError):
        PauliLindbladModel(3, ((parse_pauli("XY"), 0.1),))


@pytest.mark.parametrize("rate", [np.nan, np.inf, -np.inf])
def test_non_finite_rates_are_rejected(rate):
    with pytest.raises(ValueError, match="finite"):
        PauliLindbladModel(2, ((parse_pauli("XY"), rate),))
    with pytest.raises(ValueError, match="finite"):
        loads("qubits 2\nXI %r\n" % float(rate))
    with pytest.raises(ValueError):
        PauliLindbladModel(2, ((parse_pauli("XY"), 0.1),)).scaled(rate)


def reference_apply_to_matrix(model, mat):
    """The out-of-place mix w * vec + (1 - w) * P vec P, one new array per
    generator."""
    n = model.n_qubits
    vec = mat.reshape(-1)
    for p, lam in model.generators:
        w = (1.0 + np.exp(-2.0 * lam)) / 2.0
        vec = w * vec + (1.0 - w) * pauli_gather(
            vec, p.x_mask | p.x_mask << n, p.z_mask | p.z_mask << n)
    return vec.reshape(mat.shape)


def test_in_place_channel_is_bit_identical_and_leaves_its_input():
    m = planted_model()
    rng = np.random.default_rng(9)
    mat = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    before = mat.copy()
    out = m.apply_to_matrix(mat)
    assert out.tobytes() == reference_apply_to_matrix(m, mat).tobytes()
    assert mat.tobytes() == before.tobytes()
    assert not np.shares_memory(out, mat)
    empty = PauliLindbladModel(4, ())
    assert not np.shares_memory(empty.apply_to_matrix(mat), mat)


def test_pauli_fidelity_formula():
    m = PauliLindbladModel(2, ((parse_pauli("XI"), 0.05), (parse_pauli("ZZ"), 0.02)))
    # Q = ZI anticommutes with XI only
    assert pauli_fidelity(m, parse_pauli("ZI")) == pytest.approx(np.exp(-2 * 0.05))
    # Q = XI commutes with XI but anticommutes with ZZ on qubit 0
    assert pauli_fidelity(m, parse_pauli("XI")) == pytest.approx(np.exp(-2 * 0.02))
    # Q = II commutes with everything
    assert pauli_fidelity(m, parse_pauli("II")) == pytest.approx(1.0)
    # Q = YZ anticommutes with both XI and ZZ (one anticommuting site each)
    assert pauli_fidelity(m, parse_pauli("YZ")) == pytest.approx(np.exp(-2 * 0.07))


def test_channel_is_trace_preserving_and_factorizes():
    m = PauliLindbladModel(2, ((parse_pauli("XY"), 0.08), (parse_pauli("ZI"), 0.03)))
    sup = dense_superoperator(m, 4)
    # trace preservation: conjugate-transpose action on identity
    rho = np.array([[0.5, 0.2j, 0, 0], [-0.2j, 0.25, 0, 0],
                    [0, 0, 0.15, 0], [0, 0, 0, 0.1]], dtype=complex)
    out = m.apply_to_matrix(rho)
    assert np.trace(out) == pytest.approx(np.trace(rho))
    # superoperator equals the product of per-generator superoperators
    m1 = PauliLindbladModel(2, ((parse_pauli("XY"), 0.08),))
    m2 = PauliLindbladModel(2, ((parse_pauli("ZI"), 0.03),))
    assert np.abs(sup - dense_superoperator(m1, 4) @ dense_superoperator(m2, 4)).max() < 1e-12


def test_channel_eigenvalues_are_pauli_fidelities():
    m = PauliLindbladModel(2, ((parse_pauli("XY"), 0.08), (parse_pauli("ZI"), 0.03)))
    for label in ("IX", "ZY", "XX", "YI"):
        q = parse_pauli(label)
        out = m.apply_to_matrix(pauli_matrix(q))
        assert np.abs(out - pauli_fidelity(m, q) * pauli_matrix(q)).max() < 1e-12


def test_apply_stochastic_insertion_probability():
    lam = 0.3
    m = PauliLindbladModel(1, ((parse_pauli("X"), lam),))
    rng = philox_rng(42)
    state = Statevector.zero(1)
    hits = sum(bool(apply_stochastic(state, m, rng)[1]) for _ in range(20000))
    expected = (1 - np.exp(-2 * lam)) / 2
    assert abs(hits / 20000 - expected) < 0.01


@pytest.mark.parametrize("rows, g", [(1, 0), (5, 0), (1, 1), (1, 6), (40, 6)])
def test_sample_insertions_matches_a_per_generator_loop(rows, g):
    rng = np.random.default_rng(rows * 10 + g)
    n = 5
    table = (rng.integers(0, 2 ** n, size=g), rng.integers(0, 2 ** n, size=g),
             rng.uniform(0.0, 0.5, size=g))
    uniforms = rng.random((rows, g))
    x, z, count = sample_insertions(table, uniforms)
    assert x.shape == z.shape == count.shape == (rows,)
    for b in range(rows):
        xb = zb = k = 0
        for i in range(g):
            if uniforms[b, i] < table[2][i]:
                xb ^= int(table[0][i])
                zb ^= int(table[1][i])
                k += 1
        assert (x[b], z[b], count[b]) == (xb, zb, k)


def test_insertion_table_of_a_model():
    m = PauliLindbladModel(3, ((parse_pauli("XYI"), 0.1), (parse_pauli("IZZ"), 0.0)))
    x_masks, z_masks, q = insertion_table(m)
    assert [(int(x), int(z)) for x, z in zip(x_masks, z_masks)] == [
        (p.x_mask, p.z_mask) for p, _ in m.generators]
    assert q[0] == pytest.approx((1 - np.exp(-0.2)) / 2, rel=1e-15)
    assert q[1] == 0.0


def scalar_stochastic_insertions(model, rng):
    """One scalar draw per generator: the reference the block draw must
    reproduce."""
    inserted = []
    for p, lam in model.generators:
        if rng.random() < (1.0 - np.exp(-2.0 * lam)) / 2.0:
            inserted.append(p)
    return inserted


@pytest.mark.parametrize("n", [3, 70])
def test_stochastic_insertions_match_the_scalar_loop(n):
    labels = ["X", "Y", "Z", "XX", "YY", "ZX", "XYZ", "YZY"]
    m = PauliLindbladModel(n, tuple(
        (parse_pauli("I" * (n - len(l)) + l), 0.05 * (k + 1)) for k, l in enumerate(labels)))
    block, scalar = philox_rng(5), philox_rng(5)
    draws = [stochastic_insertions(m, block) for _ in range(200)]
    assert draws == [scalar_stochastic_insertions(m, scalar) for _ in range(200)]
    assert 0 < sum(map(len, draws)) < 200 * len(labels)
    assert block.random() == scalar.random()  # the same numbers were consumed


def test_apply_exact_caps():
    m = PauliLindbladModel(7, ((PauliString.single(7, 0, "X"), 0.1),))
    rho = np.zeros((128, 128), dtype=complex)
    rho[0, 0] = 1.0
    with pytest.raises(ValueError):
        apply_exact(DensityMatrix(7, rho), m)


def test_virtual_distillation_suppresses_mixture():
    # rho = (1-p)|psi><psi| + p * junk: distilled expectation approaches psi's
    psi = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
    junk = np.array([0.0, 1.0], dtype=complex)
    p = 0.1
    rho = (1 - p) * np.outer(psi, psi.conj()) + p * np.outer(junk, junk.conj())
    dm = DensityMatrix(1, rho)
    obs = Observable.from_label("X")
    plain = dm.expectation(obs)
    distilled = virtual_distillation_expectation(dm, obs)
    assert abs(distilled - 1.0) < abs(plain - 1.0)
    # exact value: Tr(X rho^2) / Tr(rho^2)
    expected = np.trace(pauli_matrix(parse_pauli("X")) @ rho @ rho).real / np.trace(rho @ rho).real
    assert distilled == pytest.approx(expected)


def test_default_probes_count():
    probes = default_probes(4, line_edges(4))
    assert len(probes) == 3 * 4 + 5 * 3
    assert len(set((p.x_mask, p.z_mask) for p in probes)) == len(probes)


def test_decay_data_is_exact_powers():
    m = planted_model()
    probes = default_probes(4, line_edges(4))[:5]
    data = synthesize_decay_data(m, probes)
    for q, points in data.items():
        f = pauli_fidelity(m, q)
        for d, v in points:
            assert v == pytest.approx(f ** d)
    assert tuple(d for d, _ in data[probes[0]]) == DEFAULT_DEPTHS


def test_learning_round_trip_exact():
    m = planted_model()
    learned, residuals = learn_rates_from_model(m)
    got = {p.to_label(): lam for p, lam in learned.generators}
    for p, lam in m.generators:
        assert abs(got.get(p.to_label(), 0.0) - lam) < 1e-8
    assert max(abs(v) for v in residuals.values()) < 1e-8


def test_learning_round_trip_with_shots():
    m = planted_model()
    learned, _ = learn_rates_from_model(m, shots=10 ** 5, seed=9)
    got = {p.to_label(): lam for p, lam in learned.generators}
    for p, lam in m.generators:
        assert abs(got.get(p.to_label(), 0.0) - lam) / lam < 0.15


def test_learning_deterministic():
    m = planted_model()
    a, _ = learn_rates_from_model(m, shots=1000, seed=4)
    b, _ = learn_rates_from_model(m, shots=1000, seed=4)
    assert a.generators == b.generators


def random_paulis(rng, n, count):
    """Random Paulis on n qubits with a repeat and a weight-n Pauli among them."""
    full = (1 << n) - 1

    def mask():
        return int.from_bytes(rng.bytes(n // 8 + 1), "little") & full

    paulis = [PauliString(n, mask(), mask()) for _ in range(count)]
    paulis.append(PauliString(n, full, mask()))
    paulis.append(paulis[0])
    return [p for p in paulis if not p.is_identity] + [PauliString.identity(n)]


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 10), st.integers(0, 2 ** 32 - 1))
def test_anticommutation_matrix_matches_the_commutes_loop(n, seed):
    rng = np.random.default_rng(seed)
    probes = random_paulis(rng, n, int(rng.integers(0, 12)))
    candidates = random_paulis(rng, n, int(rng.integers(0, 12)))
    loop = np.array([[0.0 if p.commutes(q) else 1.0 for p in candidates] for q in probes])
    a = anticommutation_matrix(probes, candidates)
    assert a.dtype == float and a.shape == (len(probes), len(candidates))
    assert np.array_equal(a, loop)


@pytest.mark.parametrize("n", [63, 64, 65, 130])
def test_anticommutation_matrix_beyond_one_mask_word(n):
    paulis = random_paulis(np.random.default_rng(n), n, 20)
    loop = np.array([[0.0 if p.commutes(q) else 1.0 for p in paulis] for q in paulis])
    assert np.array_equal(anticommutation_matrix(paulis, paulis), loop)


def test_anticommutation_matrix_edge_cases():
    x = parse_pauli("XI")
    assert anticommutation_matrix([], [x]).shape == (0, 1)
    assert anticommutation_matrix([x], []).shape == (1, 0)
    with pytest.raises(ValueError):
        anticommutation_matrix([x], [parse_pauli("Z")])


def assert_matches_scipy(a, b):
    x, norm = nnls(a, b)
    expected, expected_norm = scipy.optimize.nnls(a, b)
    assert np.all(x >= 0.0)
    assert np.abs(x - expected).max(initial=0.0) <= 1e-12 * max(1.0, np.abs(expected).max(initial=0.0))
    assert norm == pytest.approx(np.linalg.norm(a @ x - b), rel=1e-12, abs=1e-300)
    assert norm == pytest.approx(expected_norm, rel=1e-12, abs=1e-12)
    return x


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 60), st.integers(0, 60), st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_nnls_matches_scipy_on_full_column_rank_problems(k, extra_rows, consistent, seed):
    # a = U diag(s) V^T with singular values in [1, 10]: full column rank and
    # well enough conditioned for the normal equations to keep 1e-12
    rng = np.random.default_rng(seed)
    m = k + extra_rows
    u, _ = np.linalg.qr(rng.normal(size=(m, k)))
    v, _ = np.linalg.qr(rng.normal(size=(k, k)))
    a = u * rng.uniform(1.0, 10.0, size=k) @ v.T
    if consistent:
        # planted exact zeros: the bound variables' multipliers are 0 up to rounding
        x_true = np.where(rng.random(k) < 0.5, 0.0, rng.uniform(0.0, 2.0, size=k))
        b = a @ x_true
    else:
        b = rng.normal(size=m)
    assert_matches_scipy(a, b)


def test_nnls_converges_on_consistent_data_with_exact_zeros():
    # pivoting on exact signs cycles here: the zero rates come out near -1e-18
    probes = default_probes(4, line_edges(4))
    a = anticommutation_matrix(probes, probes)
    x_true = np.zeros(len(probes))
    x_true[::3] = np.linspace(0.001, 0.02, x_true[::3].size)
    x = assert_matches_scipy(a, a @ x_true)
    assert np.abs(x - x_true).max() < 1e-12


@pytest.mark.parametrize("a, b", [
    ([[-1.249, 2.744, -2.944], [-0.676, 0.506, -2.552], [0.078, 0.939, 1.675]], [0.838, 1.011, 1.85]),
    ([[-0.961, 2.526, -0.559], [-0.875, -1.517, -0.079], [-0.904, 1.285, -0.518]], [0.616, -0.7, 0.557]),
])
def test_nnls_terminates_where_exchanging_every_infeasible_variable_cycles(a, b):
    # exchanging the whole infeasible set every time revisits a passive set on
    # these problems; the one-variable exchanges after three tries finish them
    assert_matches_scipy(np.array(a), np.array(b))


def test_nnls_of_no_columns():
    x, norm = nnls(np.zeros((3, 0)), np.array([3.0, 0.0, 4.0]))
    assert x.shape == (0,) and norm == 5.0


def planted_on_probes(n, seed):
    rng = np.random.default_rng(seed)
    probes = default_probes(n, line_edges(n))
    chosen = rng.choice(len(probes), size=max(2, len(probes) // 3), replace=False)
    return PauliLindbladModel(n, tuple(
        (probes[i], float(rng.uniform(0.001, 0.02))) for i in sorted(chosen)))


@pytest.mark.parametrize("n", [2, 4, 8])
@pytest.mark.parametrize("shots", [None, 10 ** 3, 10 ** 5])
def test_nnls_matches_scipy_on_learning_systems(n, shots, monkeypatch):
    systems = []

    def capture(a, b):
        systems.append((a, b))
        return scipy.optimize.nnls(a, b)

    monkeypatch.setattr(noise, "nnls", capture)
    learn_rates_from_model(planted_on_probes(n, n), shots=shots, seed=n)
    (a, b), = systems
    assert a.shape == (8 * n - 5, 8 * n - 5)
    assert_matches_scipy(a, b)


@pytest.mark.parametrize("n", [2, 4, 8])
def test_exact_data_learning_returns_the_planted_rates(n):
    model = planted_on_probes(n, n)
    learned, residuals = learn_rates_from_model(model)
    planted = {(p.x_mask, p.z_mask): lam for p, lam in model.generators}
    for p, lam in learned.generators:
        assert abs(lam - planted.get((p.x_mask, p.z_mask), 0.0)) < 1e-12
    assert max(abs(v) for v in residuals.values()) < 1e-12


def test_unidentifiable_model_raises_with_null_space():
    # single probe Z cannot distinguish candidates X and Y on one qubit
    probes = [parse_pauli("Z")]
    candidates = [parse_pauli("X"), parse_pauli("Y")]
    m = PauliLindbladModel(1, ((parse_pauli("X"), 0.05),))
    data = synthesize_decay_data(m, probes)
    with pytest.raises(UnidentifiableModelError) as exc:
        learn_rates(data, candidates, 1)
    null = exc.value.null_space
    assert null.shape == (2, 1)
    a = anticommutation_matrix(probes, candidates)
    assert np.abs(a @ null).max() < 1e-12


def test_learning_rejects_dead_probe():
    # huge rates drive every depth's expectation to ~0 -> unusable probe
    m = PauliLindbladModel(1, ((parse_pauli("X"), 20.0),))
    data = synthesize_decay_data(m, [parse_pauli("Z")], shots=100, seed=0)
    if all(v <= 0 for _, v in data[parse_pauli("Z")]):
        with pytest.raises(ValueError):
            learn_rates(data, [parse_pauli("X")], 1)


def test_dumps_loads_round_trip():
    m = planted_model()
    again = loads(dumps(m))
    assert again.n_qubits == m.n_qubits
    assert again.generators == m.generators


def test_loads_errors():
    with pytest.raises(ValueError):
        loads("XI 0.1\n")
    with pytest.raises(ValueError):
        loads("qubits 2\nXI\n")
    with pytest.raises(ValueError):
        loads("qubits 2\nXII 0.1\n")


def test_scaled():
    m = PauliLindbladModel(2, ((parse_pauli("XY"), 0.1),))
    assert m.scaled(2.5).generators[0][1] == pytest.approx(0.25)
    with pytest.raises(ValueError):
        m.scaled(-1.0)
