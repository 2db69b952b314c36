import numpy as np
import pytest

from qmit import varqte
from qmit.circuits import Gate
from qmit.pauli import Observable, PauliString, parse_pauli
from qmit.varqte import (
    Ansatz,
    FixedElement,
    RotationElement,
    compute_M,
    compute_V,
    compute_mclachlan,
    evolve,
    hardware_efficient_ansatz,
    state_and_derivatives,
)


def rx_ansatz():
    return Ansatz(1, (RotationElement(parse_pauli("X"), 0),))


def zz_ansatz():
    return Ansatz(2, (FixedElement(Gate("h", (0,))), FixedElement(Gate("h", (1,))),
                      RotationElement(parse_pauli("ZZ"), 0)))


def bloch_ansatz():
    return Ansatz(1, (RotationElement(parse_pauli("X"), 0),
                      RotationElement(parse_pauli("Z"), 1)))


def random_ansatz(rng, n_qubits=2, n_params=4):
    labels = [''.join(rng.choice(list("IXYZ"), size=n_qubits)) for _ in range(n_params)]
    elements = []
    for k, lab in enumerate(labels):
        if set(lab) == {"I"}:
            lab = "X" + lab[1:]
        elements.append(RotationElement(parse_pauli(lab), k))
        if rng.random() < 0.5 and n_qubits >= 2:
            elements.append(FixedElement(Gate("cx", (0, 1))))
    return Ansatz(n_qubits, tuple(elements))


def finite_difference(ansatz, theta, h=1e-5):
    derivs = []
    for p in range(ansatz.n_params):
        up = np.array(theta, dtype=float)
        dn = up.copy()
        up[p] += h
        dn[p] -= h
        su, _ = state_and_derivatives(ansatz, up)
        sd, _ = state_and_derivatives(ansatz, dn)
        derivs.append((su.amplitudes - sd.amplitudes) / (2 * h))
    return derivs


def test_single_qubit_derivative_norm():
    _, derivs = state_and_derivatives(rx_ansatz(), [0.7])
    assert np.vdot(derivs[0], derivs[0]).real == pytest.approx(0.25)


def test_derivatives_match_finite_differences():
    rng = np.random.default_rng(2)
    for _ in range(5):
        ansatz = random_ansatz(rng)
        theta = rng.uniform(-np.pi, np.pi, size=ansatz.n_params)
        _, derivs = state_and_derivatives(ansatz, theta)
        fd = finite_difference(ansatz, theta)
        for d, f in zip(derivs, fd):
            assert np.abs(d - f).max() < 1e-8


def test_tied_parameter_chain_rule():
    # same generator twice, sharing one parameter
    ansatz = Ansatz(1, (RotationElement(parse_pauli("X"), 0),
                        RotationElement(parse_pauli("Z"), 1),
                        RotationElement(parse_pauli("X"), 0)))
    theta = np.array([0.4, -0.9])
    _, derivs = state_and_derivatives(ansatz, theta)
    fd = finite_difference(ansatz, theta)
    for d, f in zip(derivs, fd):
        assert np.abs(d - f).max() < 1e-8


def test_fixed_gate_contributes_no_derivative():
    ansatz = zz_ansatz()
    assert ansatz.n_params == 1


def test_parameter_count_mismatch():
    with pytest.raises(ValueError):
        state_and_derivatives(rx_ansatz(), [0.1, 0.2])


def test_ansatz_validation():
    with pytest.raises(ValueError):
        Ansatz(1, (FixedElement(Gate("h", (0,))),))  # no rotations
    with pytest.raises(ValueError):
        Ansatz(1, (RotationElement(parse_pauli("X"), 1),))  # index gap
    with pytest.raises(ValueError):
        Ansatz(1, (RotationElement(PauliString.identity(1), 0),))


def test_rx_system_degenerate_example():
    state, derivs = state_and_derivatives(rx_ansatz(), [0.3])
    m = compute_M(derivs)
    v = compute_V(derivs, state, Observable.from_label("X"))
    assert np.abs(m).max() < 1e-12
    assert np.abs(v).max() < 1e-12


def test_mclachlan_analytic_example():
    state, derivs = state_and_derivatives(rx_ansatz(), [0.3])
    a, c = compute_mclachlan(derivs, state, Observable.from_label("X"))
    assert a[0, 0] == pytest.approx(0.25)
    assert c[0] == pytest.approx(0.5)


def test_m_antisymmetric_a_psd_random():
    rng = np.random.default_rng(7)
    for _ in range(100):
        ansatz = random_ansatz(rng)
        theta = rng.uniform(-np.pi, np.pi, size=ansatz.n_params)
        state, derivs = state_and_derivatives(ansatz, theta)
        m = compute_M(derivs)
        assert np.abs(m + m.T).max() < 1e-10
        a, _ = compute_mclachlan(derivs, state, Observable.from_label("Z" + "I" * (ansatz.n_qubits - 1)))
        assert np.abs(a - a.T).max() < 1e-12
        assert np.linalg.eigvalsh(a).min() > -1e-10


def test_mclachlan_single_qubit_trajectory():
    traj = evolve(rx_ansatz(), [0.0], Observable.from_label("X"), 1.0, 1e-3)
    assert np.max(np.abs(traj.thetas[:, 0] - 2 * traj.times)) < 1e-3
    assert traj.fidelities.min() > 1 - 1e-6


def test_mclachlan_two_qubit_trajectory():
    traj = evolve(zz_ansatz(), [0.0], Observable.from_label("ZZ"), 1.0, 1e-3,
                  regularization=0.0)
    assert np.max(np.abs(traj.thetas[:, 0] - 2 * traj.times)) < 1e-6


def test_zero_time_trajectory():
    traj = evolve(rx_ansatz(), [0.4], Observable.from_label("X"), 0.0, 0.1)
    assert traj.times.shape == (1,)
    assert traj.thetas[0, 0] == pytest.approx(0.4)
    assert traj.fidelities[0] == pytest.approx(1.0)


def test_rk4_order():
    # Bloch-sphere ansatz under a tilted field: theta-dot varies, so the
    # integrator order is visible against a fine-step reference
    ansatz = bloch_ansatz()
    h = Observable.from_terms(1, [(1.0, parse_pauli("X")), (0.5, parse_pauli("Z"))])
    ref = evolve(ansatz, [0.9, 0.2], h, 1.0, 0.0005, regularization=0.0)

    def err(dt):
        tr = evolve(ansatz, [0.9, 0.2], h, 1.0, dt, regularization=0.0)
        stride = int(round(dt / 0.0005))
        return np.max(np.abs(tr.thetas - ref.thetas[::stride]))

    assert err(0.08) / err(0.04) >= 8.0


def test_state_norm_preserved_along_trajectory():
    rng = np.random.default_rng(1)
    ansatz = hardware_efficient_ansatz(3, 2)
    theta0 = rng.uniform(-0.5, 0.5, size=ansatz.n_params)
    h = Observable.from_terms(3, [(1.0, parse_pauli("XXI")), (0.7, parse_pauli("IZZ"))])
    traj = evolve(ansatz, theta0, h, 0.2, 0.02)
    for th in traj.thetas:
        state, _ = state_and_derivatives(ansatz, th)
        assert abs(np.linalg.norm(state.amplitudes) - 1) < 1e-9


def test_heisenberg_heuristic_run():
    from qmit.hamiltonian import build
    chain = build(4, seed=11)
    ansatz = hardware_efficient_ansatz(4, 3)
    traj = evolve(ansatz, np.zeros(ansatz.n_params), chain.observable(), 0.5, 0.05)
    assert np.all(np.isfinite(traj.residuals))
    assert traj.fidelities is not None
    assert np.all((traj.fidelities >= 0) & (traj.fidelities <= 1 + 1e-9))


def test_fidelity_tracking_builds_no_derivatives(monkeypatch):
    # only the 4 RK4 stages per step need derivative vectors
    calls = []
    original = varqte.state_and_derivatives

    def counting(ansatz, theta):
        calls.append(1)
        return original(ansatz, theta)

    monkeypatch.setattr(varqte, "state_and_derivatives", counting)
    ansatz = hardware_efficient_ansatz(2, 1)
    h = Observable.from_terms(2, [(1.0, parse_pauli("XX")), (0.5, parse_pauli("ZI"))])
    traj = evolve(ansatz, np.full(ansatz.n_params, 0.3), h, 0.03, 0.01)
    assert traj.fidelities is not None and traj.fidelities[0] == pytest.approx(1.0)
    assert len(calls) == 4 * 3


def test_evolve_validation():
    with pytest.raises(ValueError):
        evolve(rx_ansatz(), [0.0], Observable.from_label("X"), 1.0, 0.0)
    with pytest.raises(ValueError):
        evolve(rx_ansatz(), [0.0], Observable.from_label("X"), 1.0, 0.1,
               regularization=-1.0)
    with pytest.raises(ValueError):
        evolve(rx_ansatz(), [0.0], Observable.from_label("X"), 1.0, 0.1,
               method="euler")


@pytest.mark.parametrize("t_final, dt, regularization, named", [
    (float("inf"), 0.01, 1e-6, "t_final"),
    (float("nan"), 0.01, 1e-6, "t_final"),
    (1.0, float("nan"), 1e-6, "dt"),
    (1.0, 0.01, float("nan"), "regularization"),
    (1.0, 0.01, float("inf"), "regularization"),
    (1e9, 0.01, 1e-6, "t_final / dt"),
])
def test_evolve_refuses_bad_inputs_before_any_stage(monkeypatch, t_final, dt, regularization,
                                                    named):
    def no_stage(*args):
        raise AssertionError("a stage ran before the input check")

    monkeypatch.setattr(varqte, "state_and_derivatives", no_stage)
    with pytest.raises(ValueError, match=named):
        evolve(rx_ansatz(), [0.0], Observable.from_label("X"), t_final, dt,
               regularization=regularization)


def test_step_cap_admits_the_largest_step_count(monkeypatch):
    monkeypatch.setattr(varqte, "MAX_VARQTE_STEPS", 4)
    with pytest.raises(ValueError, match="capped at 4"):
        evolve(rx_ansatz(), [0.0], Observable.from_label("Z"), 0.5, 0.1)
    traj = evolve(rx_ansatz(), [0.0], Observable.from_label("Z"), 0.4, 0.1)
    assert len(traj.times) == 5


# --- reference: the per-vector derivative loop and double-loop Gram systems ---

def reference_state_and_derivatives(ansatz, theta):
    """Each derivative vector pushed through the rest of the ansatz on its
    own, one element application at a time; tied parameters summed."""
    from math import cos, sin

    from qmit.simulator import _apply_unitary, apply_pauli_array, gate_matrix

    n = ansatz.n_qubits

    def apply(amps, element):
        if isinstance(element, FixedElement):
            g = element.gate
            return _apply_unitary(amps, gate_matrix(g), g.qubits, n)
        t = theta[element.param_index]
        return cos(t / 2) * amps - 1j * sin(t / 2) * apply_pauli_array(amps, element.generator)

    amps = np.zeros(2 ** n, dtype=complex)
    amps[0] = 1.0
    prefixes = [amps]
    for element in ansatz.elements:
        amps = apply(amps, element)
        prefixes.append(amps)
    derivs = [np.zeros(2 ** n, dtype=complex) for _ in range(ansatz.n_params)]
    for j, element in enumerate(ansatz.elements):
        if not isinstance(element, RotationElement):
            continue
        vec = -0.5j * apply_pauli_array(prefixes[j + 1], element.generator)
        for rest in ansatz.elements[j + 1:]:
            vec = apply(vec, rest)
        derivs[element.param_index] += vec
    return prefixes[-1], derivs


def reference_systems(derivs, amps, hamiltonian):
    from qmit.simulator import observable_matrix

    k = len(derivs)
    h_phi = observable_matrix(hamiltonian) @ amps
    energy = np.vdot(amps, h_phi).real
    b = np.array([np.vdot(d, amps).imag for d in derivs])
    m = np.zeros((k, k))
    a = np.zeros((k, k))
    for p in range(k):
        for q in range(k):
            gram = np.vdot(derivs[p], derivs[q])
            m[p, q] = gram.imag
            a[p, q] = gram.real - b[p] * b[q]
    v = np.array([-np.vdot(d, h_phi).real for d in derivs])
    c = np.array([np.vdot(d, h_phi).imag - b[p] * energy for p, d in enumerate(derivs)])
    return m, v, a, c


_FIXED_GATES = [("h", 1), ("x", 1), ("y", 1), ("s", 1), ("sdg", 1), ("rx", 1),
                ("rz", 1), ("cx", 2), ("swap", 2), ("rzz", 2), ("rxx", 2)]


def rich_random_ansatz(rng, n_qubits, n_elements):
    """Multi-qubit generators, fixed gates of every arity on ordered pairs in
    both orders, and tied parameters (indices drawn with repetition)."""
    n_params = max(1, n_elements // 2)
    indices = list(range(n_params)) + list(rng.integers(0, n_params, size=n_elements))
    rng.shuffle(indices)
    elements = []
    for p in indices:
        if rng.random() < 0.4:
            name, arity = _FIXED_GATES[rng.integers(len(_FIXED_GATES))]
            if arity <= n_qubits:
                qubits = tuple(int(q) for q in rng.choice(n_qubits, size=arity, replace=False))
                param = float(rng.uniform(-np.pi, np.pi)) if name.startswith("r") else None
                elements.append(FixedElement(Gate(name, qubits, param)))
        label = "".join(rng.choice(list("IXYZ"), size=n_qubits))
        if set(label) == {"I"}:
            label = "Y" + label[1:]
        elements.append(RotationElement(parse_pauli(label), int(p)))
    return Ansatz(n_qubits, tuple(elements))


def random_hamiltonian(rng, n_qubits, n_terms=5):
    terms = []
    for _ in range(n_terms):
        label = "".join(rng.choice(list("IXYZ"), size=n_qubits))
        terms.append((float(rng.normal()), parse_pauli(label)))
    return Observable.from_terms(n_qubits, terms)


def with_reversed_cx(ansatz):
    """The ansatz with a CX on the reversed pair (1, 0) before its last
    rotation, when it has two qubits or more."""
    if ansatz.n_qubits < 2:
        return ansatz
    e = ansatz.elements
    return Ansatz(ansatz.n_qubits, e[:-1] + (FixedElement(Gate("cx", (1, 0))),) + e[-1:])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("layers", [0, 1, 2])
def test_block_derivatives_bit_identical_on_hardware_efficient(n, layers):
    rng = np.random.default_rng(100 * n + layers)
    ansatz = with_reversed_cx(hardware_efficient_ansatz(n, layers))
    theta = rng.uniform(-np.pi, np.pi, size=ansatz.n_params)
    state, derivs = state_and_derivatives(ansatz, theta)
    ref_state, ref_derivs = reference_state_and_derivatives(ansatz, theta)
    assert derivs.shape == (ansatz.n_params, 2 ** n)
    assert len(derivs) == ansatz.n_params
    assert np.array_equal(state.amplitudes, ref_state)
    for d, r in zip(derivs, ref_derivs):
        assert np.array_equal(d, r)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_block_derivatives_match_reference_on_random_ansatz(n):
    rng = np.random.default_rng(40 + n)
    for _ in range(6):
        ansatz = rich_random_ansatz(rng, n, int(rng.integers(2, 14)))
        theta = rng.uniform(-np.pi, np.pi, size=ansatz.n_params)
        state, derivs = state_and_derivatives(ansatz, theta)
        ref_state, ref_derivs = reference_state_and_derivatives(ansatz, theta)
        assert np.abs(state.amplitudes - ref_state).max() < 1e-12
        # the fidelity pass applies each element to the state column alone
        assert np.array_equal(varqte._forward(ansatz, theta, 0)[:, 0], ref_state)
        assert len(derivs) == len(ref_derivs)
        for p in range(ansatz.n_params):
            assert np.abs(derivs[p] - ref_derivs[p]).max() < 1e-12


def test_rich_random_ansatz_ties_parameters():
    # the random family above really exercises tied parameters and fixed gates
    rng = np.random.default_rng(3)
    ansatz = rich_random_ansatz(rng, 3, 12)
    rotations = [e.param_index for e in ansatz.elements if isinstance(e, RotationElement)]
    assert len(rotations) > ansatz.n_params
    assert any(isinstance(e, FixedElement) for e in ansatz.elements)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_gram_systems_match_double_loop_oracle(n):
    rng = np.random.default_rng(70 + n)
    for _ in range(4):
        ansatz = rich_random_ansatz(rng, n, int(rng.integers(2, 14)))
        theta = rng.uniform(-np.pi, np.pi, size=ansatz.n_params)
        h = random_hamiltonian(rng, n)
        state, derivs = state_and_derivatives(ansatz, theta)
        m_ref, v_ref, a_ref, c_ref = reference_systems(list(derivs), state.amplitudes, h)
        m = compute_M(derivs)
        v = compute_V(derivs, state, h)
        a, c = compute_mclachlan(derivs, state, h)
        assert np.abs(m - m_ref).max() < 1e-12
        assert np.abs(v - v_ref).max() < 1e-12
        assert np.abs(a - a_ref).max() < 1e-12
        assert np.abs(c - c_ref).max() < 1e-12


def test_gram_systems_accept_a_list_of_vectors():
    rng = np.random.default_rng(5)
    ansatz = rich_random_ansatz(rng, 3, 8)
    theta = rng.uniform(-np.pi, np.pi, size=ansatz.n_params)
    h = random_hamiltonian(rng, 3)
    state, derivs = state_and_derivatives(ansatz, theta)
    rows = [np.array(d) for d in derivs]
    assert np.abs(compute_M(rows) - compute_M(derivs)).max() < 1e-14
    assert np.abs(compute_V(rows, state, h) - compute_V(derivs, state, h)).max() < 1e-14
    for x, y in zip(compute_mclachlan(rows, state, h), compute_mclachlan(derivs, state, h)):
        assert np.abs(x - y).max() < 1e-14


def test_a_exactly_symmetric_m_antisymmetric():
    # odd parameter counts included: a BLAS Gram product need not come out
    # exactly symmetric there
    rng = np.random.default_rng(11)
    ansaetze = [hardware_efficient_ansatz(n, layers) for n in (2, 4, 6) for layers in (1, 2)]
    ansaetze += [rich_random_ansatz(rng, n, size) for n in (3, 5) for size in (10, 14, 26)]
    assert any(a.n_params % 2 for a in ansaetze)
    for ansatz in ansaetze:
        n = ansatz.n_qubits
        theta = rng.uniform(-np.pi, np.pi, size=ansatz.n_params)
        state, derivs = state_and_derivatives(ansatz, theta)
        a, _ = compute_mclachlan(derivs, state, random_hamiltonian(rng, n))
        m = compute_M(derivs)
        assert np.array_equal(a, a.T)
        assert np.abs(m + m.T).max() < 1e-10


def test_derivative_block_cost_checked_before_allocation(monkeypatch):
    # (K + 1) * 2^n amplitudes may not exceed one capped statevector
    monkeypatch.setattr(varqte, "MAX_STATEVECTOR_QUBITS", 6)
    allowed = hardware_efficient_ansatz(3, 0)  # K = 6: 7 * 8 = 56 <= 64
    state_and_derivatives(allowed, np.zeros(allowed.n_params))
    rejected = hardware_efficient_ansatz(3, 1)  # K = 12: 13 * 8 = 104 > 64
    theta = np.zeros(rejected.n_params)

    def no_allocation(*args, **kwargs):
        raise AssertionError("allocated before the cost check")

    monkeypatch.setattr(varqte.np, "zeros", no_allocation)
    with pytest.raises(ValueError, match="amplitudes"):
        state_and_derivatives(rejected, theta)


def test_derivative_block_cap_at_default_size():
    # at two entangling layers K = 6n, so n = 18 needs 109 * 2^18 > 2^24
    ansatz = hardware_efficient_ansatz(18, 2)
    with pytest.raises(ValueError):
        state_and_derivatives(ansatz, np.zeros(ansatz.n_params))


def test_fidelity_tracking_matches_the_reference_states():
    rng = np.random.default_rng(9)
    ansatz = hardware_efficient_ansatz(3, 1)
    h = random_hamiltonian(rng, 3)
    traj = evolve(ansatz, rng.uniform(-0.5, 0.5, size=ansatz.n_params), h, 0.04, 0.01)
    from qmit.simulator import Statevector, evolve_exact

    exact = Statevector(3, reference_state_and_derivatives(ansatz, traj.thetas[0])[0])
    previous = 0.0
    for t, th, fid in zip(traj.times, traj.thetas, traj.fidelities):
        exact = evolve_exact(h, exact, t - previous)
        previous = t
        state = reference_state_and_derivatives(ansatz, th)[0]
        assert fid == min(1.0, abs(np.vdot(exact.amplitudes, state)) ** 2)


@pytest.mark.parametrize("n, layers", [(1, 0), (2, 1), (3, 2), (5, 1), (8, 2)])
def test_fidelity_pass_returns_the_derivative_pass_state(n, layers):
    # bit for bit where the fixed gates are real, as on the hardware-efficient
    # ansatz: BLAS may round a complex gate matrix (rz, rzz) differently on
    # one column and on several, so on the random ansaetze the state of
    # state_and_derivatives is held to the reference within 1e-12 only
    rng = np.random.default_rng(n)
    ansatz = with_reversed_cx(hardware_efficient_ansatz(n, layers))
    for _ in range(3):
        theta = rng.uniform(-np.pi, np.pi, size=ansatz.n_params)
        state, _ = state_and_derivatives(ansatz, theta)
        assert np.array_equal(varqte._forward(ansatz, theta, 0)[:, 0], state.amplitudes)


@pytest.mark.parametrize("n", [4, 8])
def test_mclachlan_system_same_on_contiguous_copies(n):
    # the state is a column of the derivative block; read as a strided view,
    # BLAS rounds C differently, and the pinv solve carries that into theta
    from qmit.hamiltonian import build
    from qmit.simulator import Statevector

    rng = np.random.default_rng(n)
    ansatz = hardware_efficient_ansatz(n, 2)
    theta = rng.uniform(-np.pi, np.pi, size=ansatz.n_params)
    h = build(n, seed=n).observable()
    state, derivs = state_and_derivatives(ansatz, theta)
    # the derivative vectors as the columns of a C-contiguous (2^n, K) array
    copies = (np.ascontiguousarray(derivs.T).T,
              Statevector(n, np.ascontiguousarray(state.amplitudes)))
    for x, y in zip(compute_mclachlan(derivs, state, h), compute_mclachlan(*copies, h)):
        assert np.array_equal(x, y)
