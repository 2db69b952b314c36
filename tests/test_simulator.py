import numpy as np
import pytest
from scipy.linalg import expm

from conftest import bell_circuit, random_circuit
from qmit.circuits import Gate, Layer, QuantumCircuit
from qmit.noise import PauliLindbladModel, virtual_distillation_expectation
from qmit.pauli import Observable, PauliString, parse_pauli
from qmit.simulator import (
    DensityMatrix,
    Statevector,
    apply_pauli_array,
    apply_pauli_sum,
    density_run,
    evolve_exact,
    expectation,
    expectation_array,
    gate_matrix,
    observable_matrix,
    pauli_matrix,
    pauli_sum,
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
    for model in (PauliLindbladModel(1, ((parse_pauli("Z"), 0.1),)),
                  PauliLindbladModel(3, ((parse_pauli("ZZZ"), 0.1),))):
        with pytest.raises(ValueError):
            model.apply_to_matrix(rho.matrix)


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
