import math
import re

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings, strategies as st

from conftest import multi_mask_observable
from dense import observable_matrix, pauli_matrix
from qmit import MAX_SHOTS, noise
from qmit.circuit_io import parse
from qmit.noise import (
    DEFAULT_DEPTHS,
    MAX_LEARNING_QUBITS,
    PauliLindbladModel,
    UnidentifiableModelError,
    anticommutation_matrix,
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
    synthesize_decay_data,
    virtual_distillation_expectation,
)
from qmit.pauli import Observable, PauliString, format_pauli, parse_pauli
from qmit.simulator import DensityMatrix, Statevector, pauli_gather, philox_rng, run


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


@pytest.mark.parametrize("n", [0, -2])
def test_a_model_on_fewer_than_one_qubit_is_refused(n):
    # it used to be built, and noise learning then failed on an empty max()
    with pytest.raises(ValueError, match="^n_qubits must be positive$"):
        PauliLindbladModel(n, ())
    with pytest.raises(ValueError, match="^n_qubits must be positive$"):
        loads("qubits %d\n" % n)


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


@pytest.mark.parametrize("n", [3, 6])
def test_apply_stochastic_matches_the_scalar_loop(n):
    labels = ["X", "Y", "Z", "XX", "YY", "ZX", "XYZ", "YZY"]
    m = PauliLindbladModel(n, tuple(
        (parse_pauli("I" * (n - len(l)) + l), 0.05 * (k + 1)) for k, l in enumerate(labels)))
    amps = [1.0, 1j] @ np.random.default_rng(n).normal(size=(2, 2 ** n))
    state = Statevector(n, amps / np.linalg.norm(amps))
    block, scalar = philox_rng(5), philox_rng(5)
    total = 0
    for _ in range(200):
        out, count = apply_stochastic(state, m, block)
        inserted = scalar_stochastic_insertions(m, scalar)
        expected = state.amplitudes
        for p in inserted:
            expected = pauli_matrix(p) @ expected
        assert count == len(inserted)
        phase = np.vdot(expected, out.amplitudes)  # equal up to a global phase
        assert abs(abs(phase) - 1.0) < 1e-12
        assert np.abs(out.amplitudes - phase * expected).max() < 1e-12
        total += count
    assert 0 < total < 200 * len(labels)
    assert block.random() == scalar.random()  # the same numbers were consumed


@pytest.mark.parametrize("lam", [0.0, 0.01])
def test_apply_stochastic_refuses_a_state_of_another_size(lam):
    # checked before the draw, so a mismatch fails even when nothing is inserted
    m = PauliLindbladModel(3, ((parse_pauli("XII"), lam),))
    rng = philox_rng(0)
    for _ in range(20):
        with pytest.raises(ValueError, match="state and model sizes differ"):
            apply_stochastic(Statevector.zero(2), m, rng)


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


@pytest.mark.parametrize("n", range(1, 8))
def test_virtual_distillation_matches_the_dense_formula(n):
    # a rank-3 mixture (rank 2 at n = 1) of random orthonormal states
    rng = np.random.default_rng(500 + n)
    dim, rank = 2 ** n, min(3, 2 ** n)
    basis, _ = np.linalg.qr(rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank)))
    rho = (basis * rng.dirichlet(np.ones(rank))) @ basis.conj().T
    dm = DensityMatrix(n, (rho + rho.conj().T) / 2)
    squared = dm.matrix @ dm.matrix
    for diagonal in (True, False):
        obs = multi_mask_observable(rng, n, diagonal)
        expected = np.trace(observable_matrix(obs) @ squared).real / np.trace(squared).real
        assert abs(virtual_distillation_expectation(dm, obs) - expected) < 1e-12


def test_virtual_distillation_scales_exactly_with_a_large_observable_coefficient():
    # <XY> = -0.54...; its imaginary rounding times 2^40 used to be refused
    # as a "non-negligible imaginary part"
    circuit = parse("qubits 2;\nry 0 : 0.3;\nrx 1 : 0.7;\n\ncx 0, 1;\n\n"
                    "rx 0 : 0.2;\nrz 1 : 0.5;\n\ncx 1, 0;\n")
    psi = run(circuit).amplitudes
    dm = DensityMatrix(2, 0.9 * np.outer(psi, psi.conj()) + 0.025 * np.eye(4))
    unit = virtual_distillation_expectation(dm, Observable.from_label("XY"))
    scaled = virtual_distillation_expectation(dm, Observable.from_label("XY", 2.0 ** 40))
    assert unit != 0.0
    assert scaled == 2 ** 40 * unit


def test_default_probes_count():
    probes = default_probes(4, line_edges(4))
    assert len(probes) == 3 * 4 + 5 * 3
    assert len(set((p.x_mask, p.z_mask) for p in probes)) == len(probes)


def test_learning_over_the_qubit_cap_is_refused_before_anything_is_built(monkeypatch):
    # a 100000-qubit model used to build 8n - 5 probes for 9 s and then run
    # out of memory in the anticommutation matrix
    assert len(default_probes(MAX_LEARNING_QUBITS, [])) == 3 * MAX_LEARNING_QUBITS
    n = MAX_LEARNING_QUBITS + 1
    wide = PauliString.single(n, 0, "X")
    model = PauliLindbladModel(n, ((wide, 0.01),))

    def built(*args):
        raise AssertionError("probes built before the size was checked")

    class NoNumpy:
        def __getattr__(self, name):
            raise AssertionError("numpy called before the size was checked")

    monkeypatch.setattr(noise, "_default_probes", built)
    monkeypatch.setattr(noise, "np", NoNumpy())
    message = "^noise learning capped at %d qubits, got %d$" % (MAX_LEARNING_QUBITS, n)
    with pytest.raises(ValueError, match=message):
        default_probes(n, line_edges(n))
    with pytest.raises(ValueError, match=message):
        anticommutation_matrix([wide], [wide])
    for probes in (None, [wide]):
        with pytest.raises(ValueError, match=message):
            learn_rates_from_model(model, probes=probes, candidates=probes)


def test_default_probes_are_a_new_list_of_the_same_probes_on_each_call():
    first = default_probes(4, line_edges(4))
    expected = list(first)
    first[0] = parse_pauli("ZZZZ")
    first.append(parse_pauli("XXXX"))
    second = default_probes(4, line_edges(4))
    assert second is not first and second == expected
    second.clear()
    assert default_probes(4, iter([[0, 1], (1, 2), [2, 3]])) == expected
    # the edges are part of the key: another graph gets its own probes
    assert default_probes(4, [(0, 2)]) == expected[:12] + [
        parse_pauli(label) for label in ("XIXI", "YIYI", "ZIZI", "XIZI", "ZIXI")]


def test_decay_data_is_exact_powers():
    m = planted_model()
    probes = default_probes(4, line_edges(4))[:5]
    data = synthesize_decay_data(m, probes)
    for q, points in data.items():
        f = pauli_fidelity(m, q)
        for d, v in points:
            assert v == pytest.approx(f ** d)
    assert tuple(d for d, _ in data[probes[0]]) == DEFAULT_DEPTHS


@pytest.mark.parametrize("shots", [None, 200])
def test_decay_data_reads_a_one_shot_depths_iterator_for_every_probe(shots):
    # a one-shot iterator of depths reaches every probe, not just the first
    probes = default_probes(4, line_edges(4))[:3]
    data = synthesize_decay_data(planted_model(), probes, iter((1, 2, 4)), shots, seed=3)
    assert data == synthesize_decay_data(planted_model(), probes, (1, 2, 4), shots, seed=3)
    assert all([d for d, _ in data[q]] == [1, 2, 4] for q in probes)


@pytest.mark.parametrize("shots", [0, -5])
def test_decay_data_refuses_fewer_than_one_shot(shots):
    # shots=0 used to be read as "no shots" and gave exact data
    with pytest.raises(ValueError, match="shots must be >= 1"):
        synthesize_decay_data(planted_model(), [parse_pauli("ZIII")], shots=shots)


def test_decay_data_refuses_more_shots_than_numpy_can_draw():
    # numpy's binomial takes a C long; above it, it raised OverflowError
    probes = [parse_pauli("ZIII")]
    with pytest.raises(ValueError, match="shots capped at %d" % MAX_SHOTS):
        synthesize_decay_data(planted_model(), probes, shots=MAX_SHOTS + 1)
    data = synthesize_decay_data(planted_model(), probes, shots=MAX_SHOTS)
    assert all(-1.0 <= value <= 1.0 for _, value in data[probes[0]])


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


# --- reference: the per-probe decay loop and slope fit ---

def reference_decay_data(model, probes, depths=DEFAULT_DEPTHS, shots=None, seed=0):
    """Probe by probe: pauli_fidelity and one scalar binomial draw per depth,
    every draw from one philox_rng(seed)."""
    rng = philox_rng(seed) if shots is not None else None
    data = {}
    for q in probes:
        f = pauli_fidelity(model, q)
        points = []
        for d in depths:
            value = f ** d
            if shots is not None:
                k = rng.binomial(shots, (1.0 + value) / 2.0)
                value = 2.0 * k / shots - 1.0
            points.append((d, value))
        data[q] = points
    return data


def reference_slopes(decay_data):
    """-1/2 times each probe's least-squares slope ds @ logs / ds @ ds over
    its usable (positive) points; the first probe with fewer than two is an
    error."""
    b = []
    for q, points in decay_data.items():
        usable = [(d, v) for d, v in points if v > 0.0]
        if len(usable) < 2:
            raise ValueError("probe %s has fewer than 2 usable depths" % format_pauli(q))
        ds = np.array([d for d, _ in usable], dtype=float)
        logs = np.log([v for _, v in usable])
        b.append(-0.5 * (float(ds @ logs) / float(ds @ ds)))
    return np.array(b)


def reference_learn_rates(decay_data, candidates, n_qubits):
    a = anticommutation_matrix(list(decay_data), candidates)
    b = reference_slopes(decay_data)
    rates, _ = nnls(a, b)
    misfit = a @ rates - b
    model = PauliLindbladModel(
        n_qubits, tuple((p, float(lam)) for p, lam in zip(candidates, rates)))
    return model, {q: float(misfit[i]) for i, q in enumerate(decay_data)}


def exact_points(data):
    """Each point as (depth, float bits, type name), so equal means bit for bit."""
    return {q: [(d, float(v).hex(), type(v).__name__) for d, v in points]
            for q, points in data.items()}


@pytest.mark.parametrize("n", [1, 2, 4, 8])
@pytest.mark.parametrize("shots", [None, 1, 10 ** 5, MAX_SHOTS])
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_decay_data_and_learned_rates_equal_the_per_probe_loop(n, shots, seed):
    probes = default_probes(n, line_edges(n))
    for model in (planted_on_probes(n, seed), PauliLindbladModel(n, ())):
        data = synthesize_decay_data(model, probes, shots=shots, seed=seed)
        expected = reference_decay_data(model, probes, shots=shots, seed=seed)
        assert list(data) == list(expected)
        assert exact_points(data) == exact_points(expected)
        try:
            reference = reference_learn_rates(expected, probes, n)
        except ValueError as error:  # shots=1 leaves probes with no usable depths
            with pytest.raises(ValueError, match=re.escape(str(error))):
                learn_rates(data, probes, n)
            continue
        learned, residuals = learn_rates(data, probes, n)
        assert learned.generators == reference[0].generators
        assert residuals == reference[1]
        assert learn_rates_from_model(model, probes, probes, shots=shots, seed=seed) == (
            learned, residuals)


@pytest.mark.parametrize("shots", [None, 1, MAX_SHOTS])
def test_decay_data_of_empty_and_single_point_blocks_equal_the_per_probe_loop(shots):
    model = planted_on_probes(2, 3)
    probe = model.generators[0][0]
    assert synthesize_decay_data(model, [], shots=shots, seed=4) == {}
    data = synthesize_decay_data(model, [probe, parse_pauli("ZZ")], depths=(), shots=shots, seed=4)
    assert data == {probe: [], parse_pauli("ZZ"): []}
    data = synthesize_decay_data(model, [probe], depths=(3,), shots=shots, seed=4)
    expected = reference_decay_data(model, [probe], depths=(3,), shots=shots, seed=4)
    assert exact_points(data) == exact_points(expected)
    assert [type(v) for _, v in data[probe]] == [float]


def test_decay_data_refuses_a_probe_of_another_size_without_generators():
    for model in (PauliLindbladModel(2, ()), planted_on_probes(2, 0)):
        with pytest.raises(ValueError, match="wrong number of qubits"):
            synthesize_decay_data(model, [parse_pauli("XI"), parse_pauli("XYZ")])


def test_shot_limited_decay_points_have_binomial_mean_and_variance():
    # a point is 2k / shots - 1 with k ~ Binomial(shots, (1 + m) / 2) and
    # m = f^d: mean m and variance (1 - m^2) / shots. Over N independent
    # points the mean z-score has standard deviation 1 / sqrt(N), and the
    # mean z^2 has sqrt(sum(E z^4 - 1)) / N with E z^4 = 3 + (1 - 6pq) / (shots pq)
    shots = 10 ** 5
    z, fourth = [], []
    for seed in range(5):
        model = planted_on_probes(8, seed)
        probes = default_probes(8, line_edges(8))
        data = synthesize_decay_data(model, probes, shots=shots, seed=seed)
        for q in probes:
            f = pauli_fidelity(model, q)
            for d, value in data[q]:
                m = f ** d
                if m == 1.0:
                    continue  # a probe that commutes with every generator is never flipped
                z.append((value - m) / np.sqrt((1.0 - m * m) / shots))
                pq = (1.0 - m * m) / 4.0
                fourth.append(3.0 + (1.0 - 6.0 * pq) / (shots * pq))
    z = np.array(z)
    count = z.size
    assert count > 1000
    assert abs(z.mean()) < 5.0 / np.sqrt(count)
    assert abs((z * z).mean() - 1.0) < 5.0 * np.sqrt(np.sum(np.array(fourth) - 1.0)) / count


def test_learned_slopes_are_the_least_squares_fit_over_every_usable_depth(monkeypatch):
    # not exponential, ragged, unsorted, with nonpositive points: each slope
    # uses every positive point, so fitting a subset of them moves it
    x, y, z = parse_pauli("X"), parse_pauli("Y"), parse_pauli("Z")
    data = {
        x: [(1, 0.9), (2, -0.1), (3, 0.7), (5, 0.2)],
        y: [(1, 0.95), (4, 0.0), (2, 0.8)],
        z: [(2, 0.5), (1, 0.99), (6, 0.3), (3, -0.2), (9, 0.05), (4, 0.4)],
    }
    systems = []

    def capture(a, b):
        systems.append(b.copy())
        return nnls(a, b)

    monkeypatch.setattr(noise, "nnls", capture)
    model, residuals = learn_rates(data, [x, y, z], 1)
    (b,), expected = systems, reference_slopes(data)
    assert b.tobytes() == expected.tobytes()
    for got, points in zip(b, data.values()):
        usable = [(d, v) for d, v in points if v > 0.0]
        slope = math.fsum(d * math.log(v) for d, v in usable) / math.fsum(d * d for d, _ in usable)
        assert got == pytest.approx(-0.5 * slope, rel=1e-14)
    assert (model, residuals) == reference_learn_rates(data, [x, y, z], 1)


def test_learning_names_the_first_probe_without_two_usable_depths():
    x, y, z = parse_pauli("X"), parse_pauli("Y"), parse_pauli("Z")
    data = {x: [(1, 0.9), (2, 0.8)], y: [(1, 0.9), (2, -0.1)], z: [(1, 0.0)]}
    with pytest.raises(ValueError, match="probe Y has fewer than 2 usable depths"):
        learn_rates(data, [x, y, z], 1)
    # the rank check comes first
    with pytest.raises(UnidentifiableModelError):
        learn_rates(data, [x, x], 1)


def test_learning_refuses_a_probe_whose_usable_depths_are_all_0():
    # its slope would be 0 / 0; the per-probe fit raised ZeroDivisionError
    x, y = parse_pauli("X"), parse_pauli("Y")
    data = {x: [(1, 0.9), (2, 0.8)], y: [(0, 0.9), (0, 0.8), (3, -0.5)]}
    with pytest.raises(ValueError, match="probe Y has no usable depth but 0"):
        learn_rates(data, [x, y], 1)


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
    a = anticommutation_matrix([x], [x, parse_pauli("ZI")])
    a[0, 0] = 5.0  # a new writable array on every call
    assert anticommutation_matrix([x], [x, parse_pauli("ZI")]).tolist() == [[0.0, 1.0]]
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


def test_rank_deficient_candidates_after_a_full_rank_fit_are_refused_with_the_svd_null_space():
    # the rank is kept per (probes, candidates) system, never per length
    probes = default_probes(2, line_edges(2))
    data = synthesize_decay_data(planted_on_probes(2, 0), probes)
    learn_rates(data, probes, 2)
    deficient = probes[:-1] + [probes[0]]
    a = anticommutation_matrix(probes, deficient)
    rank = np.linalg.matrix_rank(a)
    _, _, vt = np.linalg.svd(a)
    assert rank < len(deficient)
    for _ in range(2):
        with pytest.raises(UnidentifiableModelError) as exc:
            learn_rates(data, deficient, 2)
        assert np.array_equal(exc.value.null_space, vt[rank:].T)
    learn_rates(data, probes, 2)


def test_learning_reads_one_shot_probe_and_candidate_iterators_once():
    # len() of a one-shot iterator raised TypeError; a system keyed on an
    # iterator that zip() then found empty would learn a model with no
    # generators
    model = planted_on_probes(4, 2)
    probes = default_probes(4, line_edges(4))
    data = synthesize_decay_data(model, probes, shots=1000, seed=2)
    expected = learn_rates(data, probes, 4)
    assert len(expected[0].generators) == len(probes)
    assert learn_rates(data, iter(probes), 4) == expected
    assert learn_rates_from_model(model, iter(probes), iter(probes), shots=1000, seed=2) == expected
    assert np.array_equal(anticommutation_matrix(iter(probes), iter(probes[:5])),
                          anticommutation_matrix(probes, probes[:5]))


def test_both_halves_of_a_fit_share_one_cached_system():
    # synthesis reads the (probes, generators) system and the fit the
    # (probes, candidates) one, from the same cache
    model = planted_on_probes(4, 6)
    probes = default_probes(4, line_edges(4))
    generators = [p for p, _ in model.generators]
    first = learn_rates_from_model(model, shots=1000, seed=6)
    before = noise._learning_system.cache_info()
    assert learn_rates_from_model(model, shots=1000, seed=6) == first
    after = noise._learning_system.cache_info()
    assert (after.hits - before.hits, after.misses - before.misses) == (2, 0)
    for paulis in (generators, probes):
        a, rank = noise._learning_system(noise._pauli_keys(probes), noise._pauli_keys(paulis))
        fresh = anticommutation_matrix(probes, paulis)
        assert not a.flags.writeable and fresh.flags.writeable
        assert np.array_equal(a, fresh) and rank == len(paulis)
        with pytest.raises(ValueError):
            a[0, 0] = 1.0 - a[0, 0]


def test_learned_model_equals_a_model_of_fresh_pauli_strings():
    learned, _ = learn_rates_from_model(planted_on_probes(4, 1), shots=10 ** 4, seed=1)
    fresh = PauliLindbladModel(4, tuple(
        (PauliString(4, p.x_mask, p.z_mask), lam) for p, lam in learned.generators))
    assert learned == fresh and learned.generators == fresh.generators
    assert all(type(p) is PauliString for p, _ in learned.generators)
    # merging keeps the first Pauli seen for each key, in first-seen order
    xy, z = parse_pauli("XY"), parse_pauli("ZI")
    merged = PauliLindbladModel(2, ((xy, 0.1), (z, 0.05), (parse_pauli("XY"), 0.2)))
    assert [p for p, _ in merged.generators] == [xy, z]
    assert merged.generators[0][0] is xy and merged.generators[0][1] == 0.1 + 0.2


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
