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
