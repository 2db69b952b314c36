import numpy as np
import pytest
from scipy.linalg import expm

from conftest import bell_circuit, multi_mask_observable, random_circuit
from dense import observable_matrix, pauli_matrix
from qmit.circuits import PARAMETRIC_GATES, Gate, Layer, QuantumCircuit
from qmit.hamiltonian import _bond_template, build, trotter_circuit
from qmit.noise import PauliLindbladModel, virtual_distillation_expectation
from qmit.pauli import Observable, PauliString, parse_pauli
from qmit import simulator
from qmit.simulator import (
    MAX_EXACT_EVOLUTION_STEPS,
    MAX_FUSED_QUBITS,
    WIDE_FUSION_QUBITS,
    DensityMatrix,
    Statevector,
    _apply_unitary,
    apply_pauli_array,
    apply_pauli_sum,
    compile_ops,
    density_run,
    evolve_exact,
    exact_evolution_steps,
    expectation,
    expectation_array,
    gate_matrix,
    pauli_gather,
    pauli_sum,
    pauli_transfer,
    philox_rng,
    run,
    run_array,
    sample_counts,
)


def dense_gate(gate: Gate, n: int) -> np.ndarray:
    """Brute-force 2^n x 2^n matrix for one gate (qubit k = bit k)."""
    mat = gate_matrix(gate)
    dim = 2 ** n
    out = np.zeros((dim, dim), dtype=complex)
    m = len(gate.qubits)
    for col in range(dim):
        local_in = 0
        for j, q in enumerate(gate.qubits):
            local_in |= ((col >> q) & 1) << j
        base = col
        for q in gate.qubits:
            base &= ~(1 << q)
        for local_out in range(2 ** m):
            row = base
            for j, q in enumerate(gate.qubits):
                row |= ((local_out >> j) & 1) << q
            out[row, col] = mat[local_out, local_in]
    return out


def dense_circuit(circuit: QuantumCircuit) -> np.ndarray:
    u = np.eye(2 ** circuit.n_qubits, dtype=complex)
    for layer in circuit.layers:
        for gate in layer.gates:
            u = dense_gate(gate, circuit.n_qubits) @ u
    return u


@pytest.mark.parametrize("seed", range(5))
def test_run_matches_dense_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    circuit = random_circuit(rng, n, 6)
    state = run(circuit)
    expected = dense_circuit(circuit)[:, 0]
    assert np.abs(state.amplitudes - expected).max() < 1e-10


def test_bell_state():
    state = run(bell_circuit())
    expected = np.zeros(4)
    expected[0] = expected[3] = 1 / np.sqrt(2)
    assert np.allclose(state.amplitudes, expected)


def test_inverse_round_trip():
    rng = np.random.default_rng(7)
    circuit = random_circuit(rng, 4, 8)
    state = run(circuit.concat(circuit.inverse()))
    assert abs(state.amplitudes[0] - 1.0) < 1e-9
    assert np.abs(state.amplitudes[1:]).max() < 1e-9


def test_apply_pauli_matches_dense():
    rng = np.random.default_rng(3)
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    amps /= np.linalg.norm(amps)
    for label in ("XYZ", "IYI", "ZZX", "YYY"):
        p = parse_pauli(label)
        assert np.allclose(apply_pauli_array(amps, p), pauli_matrix(p) @ amps)


def test_expectation_trivial():
    z = Observable.from_label("Z")
    assert expectation(Statevector.zero(1), z) == pytest.approx(1.0)
    bell = run(bell_circuit())
    assert expectation(bell, Observable.from_label("ZZ")) == pytest.approx(1.0)
    assert expectation(bell, Observable.from_label("ZI")) == pytest.approx(0.0, abs=1e-12)


def test_expectation_size_mismatch():
    with pytest.raises(ValueError):
        expectation(Statevector.zero(2), Observable.from_label("Z"))


def test_statevector_norm_check():
    with pytest.raises(ValueError):
        Statevector(1, np.array([1.0, 1.0], dtype=complex))


def test_qubit_bit_convention():
    # X on qubit 0 of |00> flips basis bit 0
    state = run(QuantumCircuit(2, [Layer([Gate("x", (0,))])]))
    assert abs(state.amplitudes[0b01] - 1.0) < 1e-12


def test_evolve_exact_matches_expm():
    obs = Observable.from_terms(2, [(1.0, parse_pauli("XX")),
                                    (0.7, parse_pauli("ZI")),
                                    (-0.3, parse_pauli("YZ"))])
    psi = run(bell_circuit())
    got = evolve_exact(obs, psi, 0.83)
    expected = expm(-1j * 0.83 * observable_matrix(obs)) @ psi.amplitudes
    assert np.abs(got.amplitudes - expected).max() < 1e-10


@pytest.mark.parametrize("hamiltonian, t, message", [
    (Observable.from_label("ZZ", 1e300), 1e10, "capped at %d" % MAX_EXACT_EVOLUTION_STEPS),
    (Observable.from_label("ZZ", 1.0), MAX_EXACT_EVOLUTION_STEPS * 1.5, "capped"),
    (Observable.from_label("ZZ", 1.0), float("nan"), "must be finite, got nan"),
    (Observable.from_label("ZZ", 1.0), float("inf"), "must be finite, got inf"),
    (Observable.from_label("ZZ", 1.0), -float("inf"), "must be finite, got -inf"),
    (Observable.from_label("Z" * 13), 1.0, "exact evolution capped at 12 qubits"),
    (Observable.from_label("ZZZ"), 1.0, "state and Hamiltonian sizes differ"),
])
def test_evolve_exact_refuses_a_step_count_over_the_cap_before_any_step(
        monkeypatch, hamiltonian, t, message):
    # 1e300 * 1e10 overflowed to inf and raised OverflowError; a large finite
    # |t| * bound ran that many Taylor steps
    def no_step(*args):
        raise AssertionError("a Taylor step ran before the step check")

    monkeypatch.setattr(simulator, "apply_pauli_sum", no_step)
    with pytest.raises(ValueError, match=message):
        evolve_exact(hamiltonian, Statevector.zero(2), t)


def test_exact_evolution_step_cap_admits_the_largest_step_count():
    h = Observable.from_label("ZZ", 0.5)
    assert exact_evolution_steps(h, 2.0 * MAX_EXACT_EVOLUTION_STEPS) == MAX_EXACT_EVOLUTION_STEPS
    assert exact_evolution_steps(h, -3.0) == 2
    with pytest.raises(ValueError, match="capped"):
        exact_evolution_steps(h, np.nextafter(2.0 * MAX_EXACT_EVOLUTION_STEPS, np.inf))


def test_sample_counts_convergence():
    state = run(bell_circuit())
    shots = 10 ** 6
    counts = sample_counts(state, shots, seed=5)
    assert set(counts) <= {"00", "11"}
    for b, p in (("00", 0.5), ("11", 0.5)):
        tol = 5 * np.sqrt(p * (1 - p) / shots)
        assert abs(counts.get(b, 0) / shots - p) <= tol


def test_sample_counts_deterministic():
    state = run(bell_circuit())
    assert sample_counts(state, 1000, seed=9) == sample_counts(state, 1000, seed=9)


def test_sample_counts_draws_from_philox_stream_0():
    state = run(random_circuit(np.random.default_rng(3), 3, 4))
    probs = np.abs(state.amplitudes) ** 2
    draws = philox_rng(11).multinomial(1000, probs / probs.sum())
    expected = {format(b, "03b")[::-1]: int(c) for b, c in enumerate(draws) if c}
    assert len(expected) > 2
    assert sample_counts(state, 1000, seed=11) == expected


def test_sample_counts_refuses_more_shots_than_numpy_can_draw():
    from qmit import MAX_SHOTS

    state = run(bell_circuit())
    with pytest.raises(ValueError, match="shots capped at %d" % MAX_SHOTS):
        sample_counts(state, MAX_SHOTS + 1, seed=9)
    assert sum(sample_counts(state, MAX_SHOTS, seed=9).values()) == MAX_SHOTS


def test_philox_streams_independent():
    a = philox_rng(1, 0).random(4)
    b = philox_rng(1, 1).random(4)
    assert not np.allclose(a, b)
    assert np.allclose(a, philox_rng(1, 0).random(4))


def test_density_matrix_checks():
    with pytest.raises(ValueError):
        DensityMatrix(1, np.array([[0.5, 0.5], [0.1, 0.5]], dtype=complex))
    with pytest.raises(ValueError):
        DensityMatrix(1, np.array([[0.9, 0], [0, 0.9]], dtype=complex))


def test_nan_fails_every_state_check():
    with pytest.raises(ValueError, match="normalized"):
        Statevector(1, [np.nan, 0])
    with pytest.raises(ValueError, match="normalized"):
        Statevector(1, [np.inf, 0])
    for entry in (np.nan, np.inf):
        with pytest.raises(ValueError, match="Hermitian"), np.errstate(invalid="ignore"):
            DensityMatrix(1, np.full((2, 2), entry))
        with pytest.raises(ValueError, match="Hermitian"), np.errstate(invalid="ignore"):
            DensityMatrix(1, np.diag([entry, 0.5]))
    rho = DensityMatrix.from_statevector(run(bell_circuit()))
    with pytest.raises(ValueError, match="preserve the trace"):
        density_run(bell_circuit(), rho, {0: lambda mat: np.full(mat.shape, np.nan, complex)})


def matrix_with_smallest_eigenvalue(n, smallest):
    """A Hermitian, trace-1 matrix with eigenvalues `smallest`, then equal
    shares of the rest, in a random eigenbasis."""
    dim = 2 ** n
    rng = np.random.default_rng(n)
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    eigenvalues = np.full(dim, (1.0 - smallest) / (dim - 1))
    eigenvalues[0] = smallest
    mat = (q * eigenvalues) @ q.conj().T
    return (mat + mat.conj().T) / 2


@pytest.mark.parametrize("n", [1, 3, 6])
def test_psd_bound_is_minus_1e_9(n):
    bad = matrix_with_smallest_eigenvalue(n, -2e-9)
    assert np.linalg.eigvalsh(bad).min() < -1.5e-9
    with pytest.raises(ValueError, match="density matrix has a negative eigenvalue"):
        DensityMatrix(n, bad)
    good = matrix_with_smallest_eigenvalue(n, -5e-10)
    assert -1e-9 < np.linalg.eigvalsh(good).min() < 0
    DensityMatrix(n, good)


@pytest.mark.parametrize("n", range(1, 11))
def test_pure_states_pass_the_psd_check(n):
    rng = np.random.default_rng(n)
    DensityMatrix.from_statevector(Statevector(n, random_state(rng, (2 ** n,))))
    DensityMatrix.from_statevector(Statevector.basis(n, 2 ** n - 1))


def pauli_coefficients(rho, n):
    """c_Q = Tr(Q rho) for every Q, indexed x | z << n, from dense Paulis."""
    return np.array([np.trace(pauli_matrix(PauliString(n, code & 2 ** n - 1, code >> n)) @ rho).real
                     for code in range(4 ** n)])


@pytest.mark.parametrize("seed", range(3))
def test_pauli_transfer_matches_dense_matrices(seed):
    rng = np.random.default_rng(seed)
    n = 3
    a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    rho = a @ a.conj().T / np.trace(a @ a.conj().T).real
    coeffs = pauli_coefficients(rho, n)
    for qubits in [(1,), (2, 0), (0, 1)]:
        gate = random_gate(rng, "u", qubits)
        u = dense_gate(gate, n)
        r = pauli_transfer(gate.matrix)
        assert r.dtype == float and r.shape == (4 ** len(qubits),) * 2
        moved = _apply_unitary(coeffs, r, (*qubits, *(q + n for q in qubits)), 2 * n)
        assert np.abs(moved - pauli_coefficients(u @ rho @ u.conj().T, n)).max() < 1e-13


def test_density_run_pure_matches_statevector():
    rng = np.random.default_rng(11)
    circuit = random_circuit(rng, 3, 5)
    psi = run(circuit).amplitudes
    rho0 = np.zeros((8, 8), dtype=complex)
    rho0[0, 0] = 1.0
    rho = density_run(circuit, DensityMatrix(3, rho0), {})
    assert np.abs(rho.matrix - np.outer(psi, psi.conj())).max() < 1e-10


def test_depolarizing_channel_gives_maximally_mixed():
    # equal-rate X, Y, Z on qubit 0 with large rates ~ full depolarization
    lam = 8.0
    model = PauliLindbladModel(2, tuple(
        (PauliString.single(2, 0, k), lam) for k in "XYZ"
    ))
    circuit = QuantumCircuit(2, [Layer([Gate("cx", (0, 1))])])
    rho0 = np.zeros((4, 4), dtype=complex)
    rho0[0, 0] = 1.0
    rho = density_run(circuit, DensityMatrix(2, rho0), {0: model.apply_to_matrix})
    # reduced state of qubit 0 (basis bit 0)
    m = rho.matrix.reshape(2, 2, 2, 2)  # (q1, q0, q1', q0')
    reduced = np.trace(m, axis1=0, axis2=2)
    assert np.abs(reduced - np.eye(2) / 2).max() < 1e-10


def test_zero_rate_channel_is_identity():
    model = PauliLindbladModel(2, ((parse_pauli("XY"), 0.0),))
    circuit = bell_circuit()
    rho0 = np.zeros((4, 4), dtype=complex)
    rho0[0, 0] = 1.0
    with_channel = density_run(circuit, DensityMatrix(2, rho0),
                               {1: model.apply_to_matrix})
    without = density_run(circuit, DensityMatrix(2, rho0), {})
    assert np.abs(with_channel.matrix - without.matrix).max() < 1e-12


def test_density_path_matches_dense_oracles():
    # full-rank 3-qubit rho; Y in the generators and the observable makes
    # the Pauli phases matter
    n, dim = 3, 8
    rng = np.random.default_rng(23)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    model = PauliLindbladModel(n, ((parse_pauli("YXI"), 0.07), (parse_pauli("IYZ"), 0.04),
                                   (parse_pauli("YIY"), 0.11), (parse_pauli("ZZX"), 0.02)))
    obs = Observable.from_terms(n, [(0.6, parse_pauli("XYZ")), (-0.3, parse_pauli("YIY")),
                                    (0.2, parse_pauli("ZZI")), (0.5, parse_pauli("IYI"))])

    def dense_channel(mat):
        for p, lam in model.generators:
            w = (1.0 + np.exp(-2.0 * lam)) / 2.0
            pm = pauli_matrix(p)
            mat = w * mat + (1.0 - w) * (pm @ mat @ pm.conj().T)
        return mat

    assert np.abs(model.apply_to_matrix(rho) - dense_channel(rho)).max() < 1e-12
    dm = DensityMatrix(n, rho)
    o = observable_matrix(obs)
    purity = np.trace(rho @ rho).real
    assert abs(dm.expectation(obs) - np.trace(o @ rho).real) < 1e-12
    assert abs(dm.purity() - purity) < 1e-12
    assert abs(virtual_distillation_expectation(dm, obs)
               - np.trace(o @ rho @ rho).real / purity) < 1e-12
    # density_run with the channel after every layer against U rho U^dag
    circuit = random_circuit(rng, n, 5)
    channels = {i: model.apply_to_matrix for i in range(len(circuit.layers))}
    expected = rho
    for layer in circuit.layers:
        u = run_array(QuantumCircuit(n, [layer]), np.eye(dim, dtype=complex))
        expected = dense_channel(u @ expected @ u.conj().T)
    assert np.abs(density_run(circuit, dm, channels).matrix - expected).max() < 1e-12
    u = run_array(circuit, np.eye(dim, dtype=complex))
    assert np.abs(density_run(circuit, dm).matrix - u @ rho @ u.conj().T).max() < 1e-12


def test_size_mismatches_are_validation_errors():
    # the Pauli kernel is a gather, so a wrong-sized operand would not fail
    # by itself: every entry point checks sizes
    rho = DensityMatrix.from_statevector(run(bell_circuit()))
    for obs in (Observable.from_label("Z"), Observable.from_label("ZZZ")):
        with pytest.raises(ValueError):
            rho.expectation(obs)
        with pytest.raises(ValueError):
            virtual_distillation_expectation(rho, obs)
        with pytest.raises(ValueError):
            apply_pauli_array(rho.matrix, obs.terms[0][1])
        with pytest.raises(ValueError):
            apply_pauli_sum(rho.matrix[:, 0], pauli_sum(obs))
        for amps in (rho.matrix, rho.matrix[:, 0]):
            with pytest.raises(ValueError):
                expectation_array(amps, obs)
    # an observable without terms reads nothing, so only the size check can
    # refuse a vector of the wrong size
    with pytest.raises(ValueError, match="array and observable sizes differ"):
        expectation_array(np.ones(4) / 2, Observable(3, ()))
    for model in (PauliLindbladModel(1, ((parse_pauli("Z"), 0.1),)),
                  PauliLindbladModel(3, ((parse_pauli("ZZZ"), 0.1),))):
        with pytest.raises(ValueError):
            model.apply_to_matrix(rho.matrix)


def test_block_expectation_checks_the_size_before_it_reads(monkeypatch):
    def no_read(*args):
        raise AssertionError("the block was read")

    monkeypatch.setattr(simulator, "_row_flip", no_read)
    block = np.eye(4, dtype=complex)
    for obs in (Observable.from_label("X"), Observable.from_label("XXX"), Observable(3, ())):
        with pytest.raises(ValueError, match="array and observable sizes differ"):
            expectation_array(block, obs)


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("diagonal", [True, False])
def test_block_expectation_matches_the_dense_trace(n, diagonal):
    rng = np.random.default_rng(400 + n)
    obs = multi_mask_observable(rng, n, diagonal)
    assert len({p.x_mask for _, p in obs.terms}) >= min(3, 2 ** n - (not diagonal))
    o = observable_matrix(obs)
    for columns in (1, 3, 2 ** n):
        block = random_state(rng, (2 ** n, columns))
        expected = np.trace(block.conj().T @ o @ block).real
        assert abs(expectation_array(block, obs) - expected) < 1e-12


def test_hermitian_check_reads_every_row_block():
    n = 7
    assert 2 ** n >= 3 * simulator._DENSITY_ROW_BLOCK
    good = matrix_with_smallest_eigenvalue(n, 1e-3)
    DensityMatrix(n, good)
    # a pair and an entry that only the last row block holds
    for (row, col), entry in [((126, 127), good[126, 127] + 1e-6),
                              ((127, 126), good[127, 126] * 1j), ((127, 127), np.nan)]:
        bad = good.copy()
        bad[row, col] = entry
        with pytest.raises(ValueError, match="density matrix is not Hermitian"), \
                np.errstate(invalid="ignore"):
            DensityMatrix(n, bad)


def random_observable(rng, n, n_terms):
    """A single Y (complex matrix entries) plus terms drawn from three X
    masks, so that several terms share one."""
    xs = [0] + [int(x) for x in rng.integers(1, 2 ** n, size=2)]
    terms = [(float(rng.normal()), PauliString.single(n, int(rng.integers(n)), "Y"))]
    for _ in range(n_terms - 1):
        x = xs[int(rng.integers(3))]
        terms.append((float(rng.normal()), PauliString(n, x, int(rng.integers(2 ** n)))))
    return Observable.from_terms(n, terms)


def random_state(rng, shape):
    amps = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return amps / np.linalg.norm(amps, axis=0)


@pytest.mark.parametrize("seed", range(4))
def test_pauli_sum_matches_dense_oracle(seed):
    rng = np.random.default_rng(100 + seed)
    n = 3 + seed % 3
    obs = random_observable(rng, n, 12)
    groups = pauli_sum(obs)
    assert sorted(x for x, _ in groups) == sorted({p.x_mask for _, p in obs.terms})
    o = observable_matrix(obs)
    for shape in ((2 ** n,), (2 ** n, 5)):
        amps = random_state(rng, shape)
        assert np.abs(apply_pauli_sum(amps, groups) - o @ amps).max() < 1e-12
    amps = random_state(rng, (2 ** n,))
    assert abs(expectation_array(amps, obs) - np.vdot(amps, o @ amps).real) < 1e-12
    # a (2^n, B) block: the sum over columns, as virtual distillation uses it
    block = random_state(rng, (2 ** n, 5))
    assert abs(expectation_array(block, obs) - np.trace(block.conj().T @ o @ block).real) < 1e-12


def test_pauli_sum_is_compiled_once_per_observable():
    rng = np.random.default_rng(121)
    obs = random_observable(rng, 4, 9)
    groups = pauli_sum(obs)
    assert pauli_sum(obs) is groups
    assert all(not d.flags.writeable for _, d in groups)
    with pytest.raises(ValueError):
        groups[0][1][0] = 1.0
    # an equal observable built anew compiles to the same bits
    fresh = pauli_sum(Observable(obs.n_qubits, obs.terms))
    assert fresh is not groups
    assert all(x == y and np.array_equal(d, e) for (x, d), (y, e) in zip(groups, fresh))


def test_density_expectation_with_shared_x_masks():
    rng = np.random.default_rng(31)
    n = 4
    a = rng.normal(size=(2 ** n,) * 2) + 1j * rng.normal(size=(2 ** n,) * 2)
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    obs = random_observable(rng, n, 14)
    got = DensityMatrix(n, rho).expectation(obs)
    assert abs(got - np.trace(observable_matrix(obs) @ rho).real) < 1e-12


@pytest.mark.parametrize("seed", range(4))
def test_evolve_exact_matches_expm_on_random_hamiltonians(seed):
    rng = np.random.default_rng(200 + seed)
    n = 3 + seed
    h = random_observable(rng, n, 10)
    assert np.abs(observable_matrix(h).imag).max() > 0
    psi = Statevector(n, random_state(rng, (2 ** n,)))
    long_t = 20.5 / h.bound()  # |t| * bound >= 20: many Taylor steps
    for t in (0.0, -0.37, 0.81, long_t, -long_t):
        got = evolve_exact(h, psi, t).amplitudes
        expected = expm(-1j * t * observable_matrix(h)) @ psi.amplitudes
        assert np.abs(got - expected).max() < 1e-12


# -- fused ops against the gate-by-gate reference -----------------------------

def gate_by_gate(n, layers, amps):
    """Unfused reference: one gate_matrix and one _apply_unitary per gate."""
    for layer in layers:
        for g in layer.gates:
            amps = _apply_unitary(amps, gate_matrix(g), g.qubits, n)
    return amps


def apply_ops(n, ops, amps):
    for mat, qubits in ops:
        assert mat.shape == (2 ** len(qubits),) * 2
        amps = _apply_unitary(amps, mat, qubits, n)
    return amps


def random_unitary(rng, dim):
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_gate(rng, name, qubits):
    if name == "u":
        return Gate("u", qubits, matrix=random_unitary(rng, 2 ** len(qubits)))
    if name in PARAMETRIC_GATES:
        return Gate(name, qubits, float(rng.uniform(-np.pi, np.pi)))
    return Gate(name, qubits)


def fusion_circuit(rng, n, n_layers):
    """Every gate kind. Two-qubit gates sit on a few pairs, in both qubit
    orders, so that runs on one pair, reversed pairs and pending 1q gates
    all occur; qubit n - 1 only ever gets 1q gates."""
    one_q = ["h", "s", "sdg", "x", "y", "z", "rx", "ry", "rz", "u"]
    two_q = ["cx", "swap", "rxx", "ryy", "rzz", "u"]
    pairs = [(0, 1), (1, 0), (1, 2), (2, 1), (2, 0)]
    layers = []
    for _ in range(n_layers):
        gates, used = [], ()
        if rng.random() < 0.6:
            used = pairs[int(rng.integers(len(pairs)))]
            gates.append(random_gate(rng, str(rng.choice(two_q)), used))
        for q in range(n):
            if q not in used and rng.random() < 0.5:
                gates.append(random_gate(rng, str(rng.choice(one_q)), (q,)))
        layers.append(Layer(gates))
    return QuantumCircuit(n, layers)


@pytest.mark.parametrize("seed", range(8))
def test_fused_run_matches_gate_by_gate(seed):
    rng = np.random.default_rng(300 + seed)
    n = 4
    circuit = fusion_circuit(rng, n, 20)
    (ops,) = compile_ops(circuit, ())
    assert len(ops) < circuit.gate_count()
    assert any(len(q) == 1 and q[0] == n - 1 for _, q in ops)  # never meets a 2q gate
    for shape in ((2 ** n,), (2 ** n, 3)):
        amps = random_state(rng, shape)
        expected = gate_by_gate(n, circuit.layers, amps)
        assert np.abs(run_array(circuit, amps) - expected).max() < 1e-12
        assert np.abs(apply_ops(n, ops, amps) - expected).max() < 1e-12


@pytest.mark.parametrize("seed", range(4))
def test_compile_ops_never_fuses_across_a_stop(seed):
    rng = np.random.default_rng(400 + seed)
    n = 4
    circuit = fusion_circuit(rng, n, 16)
    stops = sorted(int(i) for i in rng.choice(16, size=5, replace=False))
    segments = compile_ops(circuit, stops)
    assert len(segments) == len(stops) + 1
    amps = random_state(rng, (2 ** n, 2))
    fused = amps
    for ops, end in zip(segments, stops + [len(circuit.layers) - 1]):
        fused = apply_ops(n, ops, fused)
        expected = gate_by_gate(n, circuit.layers[:end + 1], amps)
        assert np.abs(fused - expected).max() < 1e-12


def test_bond_template_fuses_into_one_op():
    theta = 0.37
    circuit = QuantumCircuit(2, [Layer(g) for g in _bond_template(0, 1, theta)])
    ((mat, qubits),) = compile_ops(circuit, ())[0]
    assert qubits == (1, 0)  # the template's first 2q gate is cx(1, 0)
    expected = gate_by_gate(2, circuit.layers, np.eye(4, dtype=complex))
    swap = [0, 2, 1, 3]
    assert np.abs(mat[swap][:, swap] - expected).max() < 1e-12
    # order 2, two steps: the even bonds, the odd bonds, then step 2's odd
    # bonds fold into step 1's and its even bonds open new ops
    chain = build(6, seed=3)
    (ops,) = compile_ops(trotter_circuit(chain, 1.0, 2, 2), ())
    assert len(ops) == 3 + 2 + 3


def test_density_channel_at_a_stop_sees_the_unfused_rho():
    rng = np.random.default_rng(41)
    n, dim = 3, 8
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    circuit = fusion_circuit(rng, n, 14)
    model = PauliLindbladModel(n, ((parse_pauli("YXI"), 0.07), (parse_pauli("IZZ"), 0.04)))
    stops = [2, 3, 9, 12]
    seen = []

    def channel(mat):
        seen.append(mat.copy())
        return model.apply_to_matrix(mat)

    final = density_run(circuit, DensityMatrix(n, rho), {i: channel for i in stops}).matrix
    expected = rho
    for i, layer in enumerate(circuit.layers):
        # U rho U^dag gate by gate: U on the columns of rho, then of its adjoint
        expected = gate_by_gate(n, [layer], expected)
        expected = gate_by_gate(n, [layer], expected.conj().T).conj().T
        if i in stops:
            assert np.abs(seen[stops.index(i)] - expected).max() < 1e-12
            expected = model.apply_to_matrix(expected)
    assert len(seen) == len(stops)
    assert np.abs(final - expected).max() < 1e-12


# -- wide fusion into blocks of up to MAX_FUSED_QUBITS qubits ------------------

def wide_fusion_circuit(rng, n, n_layers):
    """Every gate kind on n qubits: each layer has up to two two-qubit gates
    on pairs drawn from the whole register, so pairs are spread out,
    reversed and non-adjacent, and 1q gates on about half the rest."""
    one_q = ["h", "s", "sdg", "x", "y", "z", "rx", "ry", "rz", "u"]
    two_q = ["cx", "swap", "rxx", "ryy", "rzz", "u"]
    layers = []
    for _ in range(n_layers):
        free = [int(q) for q in rng.permutation(n)]
        gates = []
        for _ in range(int(rng.integers(3))):
            pair = (free.pop(), free.pop())
            gates.append(random_gate(rng, str(rng.choice(two_q)), pair))
        for q in free:
            if rng.random() < 0.5:
                gates.append(random_gate(rng, str(rng.choice(one_q)), (q,)))
        layers.append(Layer(gates))
    return QuantumCircuit(n, layers)


@pytest.mark.parametrize("n, seed", [(8, 0), (8, 1), (9, 2), (10, 3)])
def test_wide_fused_run_matches_gate_by_gate(n, seed):
    rng = np.random.default_rng(500 + seed)
    circuit = wide_fusion_circuit(rng, n, 24)
    (ops,) = compile_ops(circuit, ())
    assert all(len(qubits) <= MAX_FUSED_QUBITS for _, qubits in ops)
    assert any(len(qubits) > 2 for _, qubits in ops)
    for shape in ((2 ** n,), (2 ** n, 2)):
        amps = random_state(rng, shape)
        expected = gate_by_gate(n, circuit.layers, amps)
        assert np.abs(run_array(circuit, amps) - expected).max() < 1e-12
        assert np.abs(apply_ops(n, ops, amps) - expected).max() < 1e-12


def test_wide_fused_trotter_and_brickwork_op_counts():
    # the 18-qubit order-2 Trotter circuit of 514 gates: 26 pair ops, then
    # 8 blocks of 4 qubits; 4-qubit blocks, not wider, on an 8-qubit brickwork
    (ops,) = compile_ops(trotter_circuit(build(18, seed=3), 1.0, 2, 2), ())
    assert [len(qubits) for _, qubits in ops] == [4] * 8
    rng = np.random.default_rng(7)
    circuit = random_circuit(rng, 8, 12)
    (ops,) = compile_ops(circuit, ())
    assert max(len(qubits) for _, qubits in ops) == MAX_FUSED_QUBITS


@pytest.mark.parametrize("seed", range(3))
def test_wide_fusion_never_fuses_across_a_stop(seed):
    rng = np.random.default_rng(600 + seed)
    n = WIDE_FUSION_QUBITS
    circuit = wide_fusion_circuit(rng, n, 16)
    stops = sorted(int(i) for i in rng.choice(16, size=5, replace=False))
    segments = compile_ops(circuit, stops)
    assert len(segments) == len(stops) + 1
    assert any(len(qubits) > 2 for ops in segments for _, qubits in ops)
    amps = random_state(rng, (2 ** n, 2))
    fused = amps
    for ops, end in zip(segments, stops + [len(circuit.layers) - 1]):
        assert all(len(qubits) <= MAX_FUSED_QUBITS for _, qubits in ops)
        fused = apply_ops(n, ops, fused)
        expected = gate_by_gate(n, circuit.layers[:end + 1], amps)
        assert np.abs(fused - expected).max() < 1e-12


def test_wide_fused_density_run_matches_dense_oracles():
    n = WIDE_FUSION_QUBITS
    dim = 2 ** n
    rng = np.random.default_rng(43)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    model = PauliLindbladModel(n, ((parse_pauli("YXIIIIIZ"), 0.07), (parse_pauli("IIIYZIII"), 0.04),
                                   (parse_pauli("IXIIIIYI"), 0.05)))

    def dense_channel(mat):
        for p, lam in model.generators:
            w = (1.0 + np.exp(-2.0 * lam)) / 2.0
            pm = pauli_matrix(p)
            mat = w * mat + (1.0 - w) * (pm @ mat @ pm.conj().T)
        return mat

    circuit = wide_fusion_circuit(rng, n, 10)
    stops = [2, 5, 6]
    assert any(len(qubits) > 2 for ops in compile_ops(circuit, stops) for _, qubits in ops)
    expected = rho
    for i, layer in enumerate(circuit.layers):
        u = dense_circuit(QuantumCircuit(n, [layer]))
        expected = u @ expected @ u.conj().T
        if i in stops:
            expected = dense_channel(expected)
    got = density_run(circuit, DensityMatrix(n, rho), {i: model.apply_to_matrix for i in stops})
    assert np.abs(got.matrix - expected).max() < 1e-12


@pytest.mark.parametrize("n", [4, 5, WIDE_FUSION_QUBITS - 1])
def test_compile_ops_below_the_size_rule_keeps_pair_ops(n, monkeypatch):
    # below WIDE_FUSION_QUBITS the pair pass's ops are returned as they are,
    # so small registers (PEC at n = 4, knitting's fragments) keep their ops
    def refuse(ops):
        raise AssertionError("wide fusion below the size rule")

    monkeypatch.setattr(simulator, "_fuse_blocks", refuse)
    rng = np.random.default_rng(700 + n)
    segments = compile_ops(wide_fusion_circuit(rng, n, 20), [3, 9])
    assert all(len(qubits) <= 2 for ops in segments for _, qubits in ops)
    with pytest.raises(AssertionError, match="size rule"):
        compile_ops(wide_fusion_circuit(rng, WIDE_FUSION_QUBITS, 2), ())


def test_pec_benchmark_layout_compiles_to_pair_ops():
    # the 4-qubit PEC layout: its segments end at the four two-qubit layers
    ry = [Gate("ry", (q,), 0.3 + q) for q in range(4)]
    circuit = QuantumCircuit(4, [
        Layer(ry), Layer([Gate("cx", (0, 1)), Gate("cx", (2, 3))]),
        Layer([Gate("rz", (0,), 0.4), Gate("ry", (2,), 0.5)]), Layer([Gate("cx", (1, 2))]),
        Layer([Gate("rx", (1,), 0.6), Gate("rz", (3,), 0.7)]),
        Layer([Gate("cx", (0, 1)), Gate("cx", (2, 3))]), Layer([Gate("cx", (1, 2))]),
    ])
    segments = compile_ops(circuit, circuit.two_qubit_layer_indices())
    assert [[q for _, q in ops] for ops in segments] == [
        [(0, 1), (2, 3)], [(0,), (1, 2)], [(0, 1), (2, 3)], [(1, 2)], []]


# -- the strided Pauli gather against the index formula ------------------------

def reference_pauli_gather(arr, x, z):
    """The index formula: out[j] = (-1)^popcount((j ^ x) & z) * arr[j ^ x],
    with the sign vector multiplied into every entry along axis 0."""
    src = np.arange(arr.shape[0]) ^ x
    signs = 1.0 - 2.0 * (np.bitwise_count(src & z) & 1)
    return signs.reshape((-1,) + (1,) * (arr.ndim - 1)) * arr[src]


def signed_zero_array(rng, shape):
    """Random complex entries, about a third of the real and of the imaginary
    parts replaced by +0.0 or -0.0: multiplying by (1 + 0j) changes some of
    their signs, so a kernel that skips that multiply differs in tobytes."""
    arr = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    for part in (arr.real, arr.imag):
        mask = rng.random(shape) < 0.3
        part[mask] = rng.choice([0.0, -0.0], size=int(mask.sum()))
    return arr


def assert_gather_matches(arr, x, z, expected):
    out = pauli_gather(arr, x, z)
    assert out.dtype == expected.dtype and out.shape == arr.shape
    assert out.tobytes() == expected.tobytes()
    assert out.flags.c_contiguous
    assert not np.shares_memory(out, arr)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pauli_gather_matches_the_index_formula_for_every_pauli(n):
    rng = np.random.default_rng(n)
    for shape in ((2 ** n,), (2 ** n, 5)):
        arr = signed_zero_array(rng, shape)
        for x in range(2 ** n):
            for z in range(2 ** n):
                assert_gather_matches(arr, x, z, reference_pauli_gather(arr, x, z))


@pytest.mark.parametrize("n", [6, 16])
def test_pauli_gather_matches_the_index_formula_on_random_masks(n):
    rng = np.random.default_rng(60 + n)
    for shape in ((2 ** n,), (2 ** n, 3)):
        arr = signed_zero_array(rng, shape)
        for _ in range(8):
            x, z = (int(m) for m in rng.integers(2 ** n, size=2))
            assert_gather_matches(arr, x, z, reference_pauli_gather(arr, x, z))
        for x, z in ((0, 0), (2 ** n - 1, 0), (0, 2 ** n - 1), (2 ** n - 1, 2 ** n - 1)):
            assert_gather_matches(arr, x, z, reference_pauli_gather(arr, x, z))


@pytest.mark.parametrize("n", [1, 2, 4])
def test_pauli_gather_signs_go_on_axis_0_for_any_trailing_shape(n):
    rng = np.random.default_rng(70 + n)
    arr = signed_zero_array(rng, (2 ** n, 2, 3))
    for x in range(2 ** n):
        for z in range(2 ** n):
            expected = np.empty_like(arr)
            for i in range(2):
                for j in range(3):
                    expected[:, i, j] = reference_pauli_gather(arr[:, i, j], x, z)
            assert_gather_matches(arr, x, z, expected)
    # Z on qubit 0 of a (2, 2, 5) array negates arr[1], not arr[:, 1, :]
    arr = np.ones((2, 2, 5))
    out = pauli_gather(arr, 0, 1)
    assert (out[0] == 1).all() and (out[1] == -1).all()


def test_pauli_gather_of_a_view_is_a_new_array():
    arr = np.arange(8.0).reshape(4, 2)[:, 0].astype(complex)[::-1]
    for x, z in ((0, 0), (1, 0), (0, 1), (3, 3)):
        assert_gather_matches(arr, x, z, reference_pauli_gather(arr, x, z))
    single = np.array([1.0 + 2.0j, -0.0 - 0.0j])
    assert_gather_matches(single, 1, 0, reference_pauli_gather(single, 1, 0))
