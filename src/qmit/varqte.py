"""Variational quantum time evolution.

The ansatz is an ordered list of parameterized Pauli rotations
exp(-i theta_p G_p / 2) interleaved with fixed gates.  One pass over it
yields |phi> and the K derivative vectors d_p = d|phi>/d theta_p as the
columns of one (2^n, K + 1) block, |phi> in column 0 and d_p in column
1 + p: every element is applied once to the block, and the rotation with
index p then adds (-i G_p/2) times column 0 to column 1 + p.  Fidelity
tracking runs the same pass on the state column alone.  The block is
capped like one statevector: (K + 1) 2^n amplitudes at most.

Projecting the Schroedinger equation onto the ansatz manifold gives a
linear system in theta-dot.  With D the (K, 2^n) array whose rows are the
d_p, both variants are Gram products:

* ``tdvp``: M theta-dot = V with M = Im(conj(D) D^T), i.e.
  M_pq = Im<d_p|d_q>, and V = -Re(conj(D) H|phi>).  M is antisymmetric,
  hence singular for odd parameter counts and degenerate on simple real
  ansaetze.
* ``mclachlan`` (default): A theta-dot = C obtained by minimizing the
  norm of the projected residual (1 - |phi><phi|)(d/dt + iH)|phi>, which
  fixes the global-phase gauge:

      A = Re(conj(D) D^T) - b b^T,     b = Im(conj(D) |phi>),
      C = Im(conj(D) H|phi>) - b <H>.

  A is the real Gram matrix of the projected derivative vectors, so it is
  symmetric positive semidefinite.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from math import cos, isfinite, sin

import numpy as np

from .circuits import Gate
from .pauli import Observable, PauliString
from .simulator import (
    MAX_STATEVECTOR_QUBITS,
    Statevector,
    _apply_unitary,
    apply_pauli_array,
    apply_pauli_sum,
    evolve_exact,
    gate_matrix,
    pauli_sum,
)

MAX_VARQTE_STEPS = 2 ** 16  # RK4 steps per evolve call, 4 derivative passes each


@dataclass(frozen=True)
class RotationElement:
    """exp(-i theta[param_index] * generator / 2)."""

    generator: PauliString
    param_index: int


@dataclass(frozen=True)
class FixedElement:
    gate: Gate


@dataclass(frozen=True)
class Ansatz:
    """Ordered rotation/fixed elements on ``n_qubits`` qubits.

    Parameters may be tied: several rotations can share a param_index, in
    which case derivatives follow the chain rule (insertion sums).
    """

    n_qubits: int
    elements: tuple

    def __post_init__(self):
        indices = sorted({e.param_index for e in self.elements
                          if isinstance(e, RotationElement)})
        if not indices:
            raise ValueError("ansatz has no rotation elements")
        if indices != list(range(len(indices))):
            raise ValueError("parameter indices must be 0..k-1 with no gaps")
        for e in self.elements:
            if isinstance(e, RotationElement):
                if e.generator.n_qubits != self.n_qubits:
                    raise ValueError("generator acts on wrong number of qubits")
                if e.generator.is_identity:
                    raise ValueError("identity generator has no effect")
            elif isinstance(e, FixedElement):
                if any(q >= self.n_qubits for q in e.gate.qubits):
                    raise ValueError("fixed gate qubit out of range")
            else:
                raise ValueError("unknown ansatz element %r" % (e,))

    @property
    def n_params(self) -> int:
        return 1 + max(e.param_index for e in self.elements
                       if isinstance(e, RotationElement))


def _apply_element(amps: np.ndarray, element, theta, n: int) -> np.ndarray:
    """One ansatz element on axis 0 of amps (length 2**n); trailing axes are
    a batch."""
    if isinstance(element, FixedElement):
        g = element.gate
        return _apply_unitary(amps, gate_matrix(g), g.qubits, n)
    t = theta[element.param_index]
    return cos(t / 2) * amps - 1j * sin(t / 2) * apply_pauli_array(amps, element.generator)


def _forward(ansatz: Ansatz, theta, k: int) -> np.ndarray:
    """One pass over the ansatz on a (2^n, 1 + k) block whose column 0 is
    |phi(theta)> and column 1 + p the derivative d_p so far; k is n_params,
    or 0 for the state alone. Each element is applied once, to the columns
    reached so far (later ones are still zero), and the rotation with index
    p then adds (-i G/2) times the state to column 1 + p, so the
    contributions of a tied parameter sum."""
    n = ansatz.n_qubits
    block = np.zeros((2 ** n, 1 + k), dtype=complex)
    block[0, 0] = 1.0
    w = 1
    for element in ansatz.elements:
        block[:, :w] = _apply_element(block[:, :w], element, theta, n)
        if k and isinstance(element, RotationElement):
            col = element.param_index + 1
            w = max(w, col + 1)
            block[:, col] += -0.5j * apply_pauli_array(block[:, 0], element.generator)
    return block


def state_and_derivatives(ansatz: Ansatz, theta):
    """|phi(theta)> and the exact derivative vectors d|phi>/d theta_p as the
    rows of a (K, 2^n) array, from one `_forward` pass.

    The state is a C-contiguous copy of the block's column 0: on a strided
    view, the products in `compute_mclachlan` round differently.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (ansatz.n_params,):
        raise ValueError(
            "expected %d parameters, got shape %r" % (ansatz.n_params, theta.shape)
        )
    n, k = ansatz.n_qubits, ansatz.n_params
    if (k + 1) << n > 1 << MAX_STATEVECTOR_QUBITS:
        raise ValueError(
            "state and %d derivative vectors need %d amplitudes; capped at 2^%d"
            % (k, (k + 1) << n, MAX_STATEVECTOR_QUBITS)
        )
    block = _forward(ansatz, theta, k)
    return Statevector(n, block[:, 0].copy()), block[:, 1:].T


def compute_M(derivs) -> np.ndarray:
    """M_pq = Im<d_p phi | d_q phi>; antisymmetric."""
    d = np.asarray(derivs)
    return (d.conj() @ d.T).imag


def compute_V(derivs, state: Statevector, hamiltonian: Observable) -> np.ndarray:
    """V_p = -Re<d_p phi | H | phi>."""
    h_phi = apply_pauli_sum(state.amplitudes, pauli_sum(hamiltonian))
    return -(np.asarray(derivs).conj() @ h_phi).real


def compute_mclachlan(derivs, state: Statevector, hamiltonian: Observable):
    """Global-phase-corrected real-time McLachlan system (A, C)."""
    d = np.asarray(derivs)
    d_bar = d.conj()
    amps = state.amplitudes
    b = (d_bar @ amps).imag
    gram = (d_bar @ d.T).real
    # averaged with its transpose, A is symmetric whatever order the BLAS sums in
    a = 0.5 * (gram + gram.T) - np.outer(b, b)
    h_phi = apply_pauli_sum(amps, pauli_sum(hamiltonian))
    energy = np.vdot(amps, h_phi).real
    c = (d_bar @ h_phi).imag - b * energy
    return a, c


@dataclass
class VarQTETrajectory:
    times: np.ndarray
    thetas: np.ndarray  # shape (len(times), n_params)
    residuals: np.ndarray  # per-step ||A theta_dot - C|| at the step start
    fidelities: np.ndarray | None = None  # vs exact evolution, n <= 12

    def __post_init__(self):
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("time grid must be strictly increasing")
        if self.fidelities is not None and np.any(
            (self.fidelities < 0) | (self.fidelities > 1 + 1e-9)
        ):
            raise ValueError("fidelity outside [0, 1]")


def _theta_dot(ansatz, theta, hamiltonian, method, regularization):
    state, derivs = state_and_derivatives(ansatz, theta)
    if method == "tdvp":
        lhs = compute_M(derivs)
        rhs = compute_V(derivs, state, hamiltonian)
    else:
        lhs, rhs = compute_mclachlan(derivs, state, hamiltonian)
    solve = np.linalg.pinv(lhs + regularization * np.eye(len(rhs)), rcond=1e-10)
    dot = solve @ rhs
    residual = float(np.linalg.norm(lhs @ dot - rhs))
    return dot, residual


def evolve(
    ansatz: Ansatz,
    theta0,
    hamiltonian: Observable,
    t_final: float,
    dt: float,
    method: str = "mclachlan",
    regularization: float = 1e-6,
) -> VarQTETrajectory:
    """Fixed-step RK4 integration of the variational equations of motion.

    The per-step linear system is solved by Tikhonov-regularized least
    squares (ridge on the diagonal, pseudo-inverse cutoff 1e-10). More
    than MAX_VARQTE_STEPS steps are refused before the first one runs.
    """
    for name, value in (("t_final", t_final), ("dt", dt), ("regularization", regularization)):
        if not isfinite(value):
            raise ValueError("%s must be finite, got %s" % (name, value))
    if dt <= 0:
        raise ValueError("dt must be positive")
    if regularization < 0:
        raise ValueError("regularization must be nonnegative")
    if method not in ("mclachlan", "tdvp"):
        raise ValueError("method must be 'mclachlan' or 'tdvp'")
    theta = np.array(theta0, dtype=float)
    if theta.shape != (ansatz.n_params,):
        raise ValueError("theta0 has wrong length")
    quotient = t_final / dt
    if quotient > MAX_VARQTE_STEPS:
        raise ValueError("t_final / dt = %g steps; capped at %d" % (quotient, MAX_VARQTE_STEPS))
    steps = max(0, int(round(quotient)))
    times = [0.0]
    thetas = [theta.copy()]
    residuals = []
    for step in range(steps):
        k1, res = _theta_dot(ansatz, theta, hamiltonian, method, regularization)
        k2, _ = _theta_dot(ansatz, theta + 0.5 * dt * k1, hamiltonian, method, regularization)
        k3, _ = _theta_dot(ansatz, theta + 0.5 * dt * k2, hamiltonian, method, regularization)
        k4, _ = _theta_dot(ansatz, theta + dt * k3, hamiltonian, method, regularization)
        theta = theta + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if not np.all(np.isfinite(theta)):
            raise RuntimeError("NaN in parameter vector at step %d" % step)
        times.append((step + 1) * dt)
        thetas.append(theta.copy())
        residuals.append(res)
    residuals.append(0.0 if not residuals else residuals[-1])
    fidelities = None
    if ansatz.n_qubits <= 12:
        # the exact state is carried from one time point to the next, so the
        # Taylor work grows with t_final, not with its square; only the states
        # are needed, so no derivative vectors are built
        fids = []
        exact = Statevector(ansatz.n_qubits, _forward(ansatz, thetas[0], 0)[:, 0])
        previous = 0.0
        for t, th in zip(times, thetas):
            state = _forward(ansatz, th, 0)[:, 0]
            exact = evolve_exact(hamiltonian, exact, t - previous)
            previous = t
            fids.append(min(1.0, abs(np.vdot(exact.amplitudes, state)) ** 2))
        fidelities = np.array(fids)
    return VarQTETrajectory(
        times=np.array(times),
        thetas=np.array(thetas),
        residuals=np.array(residuals),
        fidelities=fidelities,
    )


def hardware_efficient_ansatz(n_qubits: int, entangling_layers: int) -> Ansatz:
    """RY/RZ rotation layers separated by CNOT chains; every rotation has
    its own parameter."""
    if n_qubits < 1 or entangling_layers < 0:
        raise ValueError("bad ansatz shape")
    elements = []
    index = 0
    for layer in range(entangling_layers + 1):
        for q in range(n_qubits):
            elements.append(RotationElement(PauliString.single(n_qubits, q, "Y"), index))
            index += 1
        for q in range(n_qubits):
            elements.append(RotationElement(PauliString.single(n_qubits, q, "Z"), index))
            index += 1
        if layer < entangling_layers:
            for q in range(n_qubits - 1):
                elements.append(FixedElement(Gate("cx", (q, q + 1))))
    return Ansatz(n_qubits, tuple(elements))
