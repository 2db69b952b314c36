"""Exact statevector and density-matrix simulation of layered circuits.

Amplitude ordering: basis index b carries qubit k in bit k of b, matching
the Pauli-mask convention. Soft caps: 24 qubits for statevectors, 10 for
density matrices.

A density matrix is read as the 2n-qubit vector rho.reshape(-1): row index
in bits n..2n-1, column index in bits 0..n-1, so U rho U^dag is U on qubits
q + n and conj(U) on qubits q through the statevector gate kernel. Every
Pauli action is the signed gather `pauli_gather`; with masks
(x | x << n, z | z << n) it is P rho P^dag, whose phases cancel. A fixed
Pauli is a strided flip: axis 0 is split at the set bits of x | z, the X
bits' axes are reversed, and one multiply by +-1 over the Z bits' axes
writes the result, with no index array. A Pauli sum is compiled once per
call by `pauli_sum` into one signed diagonal per distinct X mask, so
applying it costs one gather per mask, not per term.

Validation is written so that NaN fails it (`not err <= tol`). A density
matrix is checked Hermitian, of trace 1 and PSD to -1e-9, the last by a
Cholesky factorization of rho + 1e-9 I.

Gates are applied as fused ops: `compile_ops(circuit, stops)` multiplies, once
per call, each run of gates on one or two qubits into one 2x2 or 4x4 matrix.
The ops come in segments that end at the layer indices in `stops`, where
something other than a gate must see the state: `density_run` stops at its
channel layers, PEC at its noisy two-qubit layers, and `run_array` nowhere.
Nothing is fused across a stop.

RNG: all sampling uses the counter-based Philox generator. Independent
streams are derived from (seed, stream) key pairs; parallel workers use
their stream id as the second key word.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import ceil, cos, sin, sqrt

import numpy as np

from .circuits import Gate, QuantumCircuit
from .pauli import Observable, PauliString

MAX_STATEVECTOR_QUBITS = 24
MAX_DENSITY_QUBITS = 10

_SQ2 = 1 / sqrt(2)

_FIXED_1Q = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
    "h": np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex),
    "s": np.array([[1, 0], [0, 1j]], dtype=complex),
    "sdg": np.array([[1, 0], [0, -1j]], dtype=complex),
}

# two-qubit matrices in the local basis (bit 0 = first listed qubit)
_CX = np.eye(4, dtype=complex)[[0, 3, 2, 1]]  # control = local bit 0
_SWAP = np.eye(4, dtype=complex)[[0, 2, 1, 3]]
_XX = np.kron(_FIXED_1Q["x"], _FIXED_1Q["x"])
_YY = np.kron(_FIXED_1Q["y"], _FIXED_1Q["y"])
_ZZ = np.kron(_FIXED_1Q["z"], _FIXED_1Q["z"])


def philox_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based RNG; (seed, stream) selects an independent stream."""
    key = np.array([seed % 2**64, stream % 2**64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def gate_matrix(gate: Gate) -> np.ndarray:
    if gate.name == "u":
        return gate.matrix
    if gate.name in _FIXED_1Q:
        return _FIXED_1Q[gate.name]
    t = gate.param
    if gate.name == "rx":
        c, s = cos(t / 2), sin(t / 2)
        return np.array([[c, -1j * s], [-1j * s, c]])
    if gate.name == "ry":
        c, s = cos(t / 2), sin(t / 2)
        return np.array([[c, -s], [s, c]], dtype=complex)
    if gate.name == "rz":
        return np.array([[np.exp(-1j * t / 2), 0], [0, np.exp(1j * t / 2)]])
    if gate.name == "cx":
        return _CX
    if gate.name == "swap":
        return _SWAP
    if gate.name in ("rxx", "ryy", "rzz"):
        pp = {"rxx": _XX, "ryy": _YY, "rzz": _ZZ}[gate.name]
        return cos(t / 2) * np.eye(4) - 1j * sin(t / 2) * pp
    raise ValueError("unknown gate %r" % gate.name)


def _apply_unitary(arr: np.ndarray, mat: np.ndarray, qubits: tuple[int, ...], n: int) -> np.ndarray:
    """Apply a 1- or 2-qubit unitary to axis 0 of arr (length 2**n)."""
    m = len(qubits)
    batch = arr.shape[1:]
    tensor = arr.reshape((2,) * n + batch)
    # axis of qubit k is (n - 1 - k); local bit j of the gate is qubits[j]
    axes_in = [n - 1 - q for q in reversed(qubits)]  # gate dims MSB..LSB
    mt = mat.reshape((2,) * (2 * m))
    out = np.tensordot(mt, tensor, axes=(list(range(m, 2 * m)), axes_in))
    # tensordot puts the gate output axes first (MSB..LSB); restore positions
    out = np.moveaxis(out, list(range(m)), axes_in)
    return np.ascontiguousarray(out).reshape((2 ** n,) + batch)


_SWAPPED = [0, 2, 1, 3]  # 4x4 index with the two local bits exchanged
_EYE4 = np.eye(4, dtype=complex)


def _left(u: np.ndarray, mat: np.ndarray, bit: int) -> np.ndarray:
    """(u on local bit `bit`) @ mat for a 4x4 mat, without a kron."""
    if bit:
        return (u @ mat.reshape(2, 8)).reshape(4, 4)
    return (u @ mat.reshape(2, 2, 4)).reshape(4, 4)


def compile_ops(circuit: QuantumCircuit, stops) -> list[list[tuple[np.ndarray, tuple[int, ...]]]]:
    """The circuit's gates as fused (matrix, qubits) ops, one list per segment:
    a segment ends after each layer whose index is in `stops`, and the last
    one holds the layers after the final stop. Within a segment, a 1q gate
    folds into the last op on its qubit, a 2q gate on the pair of the last op
    on both its qubits folds into that op, and a new 2q op absorbs the 1q ops
    still pending on its qubits. Nothing is fused across a stop."""
    stops = set(stops)
    segments = []
    ops: list = []
    last: dict[int, int] = {}  # qubit -> index in ops of the last op on it
    for i, layer in enumerate(circuit.layers):
        for gate in layer.gates:
            g = gate_matrix(gate)
            qs = gate.qubits
            k = last.get(qs[0])
            if len(qs) == 1:
                if k is None:
                    last[qs[0]] = len(ops)
                    ops.append([g, qs])
                elif len(ops[k][1]) == 1:
                    ops[k][0] = g @ ops[k][0]
                else:
                    ops[k][0] = _left(g, ops[k][0], ops[k][1].index(qs[0]))
            elif k is not None and k == last.get(qs[1]):
                if ops[k][1] != qs:  # same pair, reversed local order
                    g = g[_SWAPPED][:, _SWAPPED]
                ops[k][0] = g @ ops[k][0]
            else:
                for bit, q in enumerate(qs):
                    j = last.get(q)
                    if j is not None and len(ops[j][1]) == 1:  # pending 1q op on q
                        g = g @ _left(ops[j][0], _EYE4, bit)
                        ops[j] = None
                    last[q] = len(ops)
                ops.append([g, qs])
        if i in stops:
            segments.append([tuple(op) for op in ops if op is not None])
            ops, last = [], {}
    segments.append([tuple(op) for op in ops if op is not None])
    return segments


_SIGNS = (np.array([1.0, -1.0]), np.array([-1.0, 1.0]))  # indexed by the X bit
_ALL = slice(None)
_REVERSED = slice(None, None, -1)


def pauli_gather(arr: np.ndarray, x, z) -> np.ndarray:
    """out[j] = (-1)^popcount((j ^ x) & z) * arr[j ^ x] along axis 0: the
    Pauli with masks (x, z) without its phase. Trailing axes are a batch.

    For int masks, axis 0 is split at the set bits of x | z only, each X
    bit's axis is reversed (a view), and one multiply by a broadcast +-1
    tensor over the Z bits' axes writes a new C-contiguous array: no index
    or sign vector of length 2^n. Every entry goes through the multiply, by
    +1.0 too, so complex signed zeros come out as from the index formula
    sign[j] * arr[j ^ x]. x and z may also be integer arrays holding one mask
    per column of a (2^n, B) block, applied by that index formula."""
    if isinstance(x, np.ndarray):
        src = np.arange(arr.shape[0])[:, None] ^ x
        signs = 1.0 - 2.0 * (np.bitwise_count(src & z) & 1)
        return signs * np.take_along_axis(arr, src, axis=0)
    shape, flip, signs = [], [], 1.0
    top, bits = arr.shape[0], x | z
    while bits:
        k = bits.bit_length() - 1
        bits ^= 1 << k
        shape += (top >> k + 1, 2)
        top = 1 << k
        xk = x >> k & 1
        flip += (_ALL, _REVERSED if xk else _ALL)
        if z >> k & 1:  # (-1)^(source bit), the source bit being j_k ^ x_k
            signs = signs * _SIGNS[xk].reshape((2,) + (1,) * (2 * bits.bit_count() + arr.ndim))
    # the product is allocated in the view's axis order with its strides
    # made positive, i.e. C order, so the final reshape copies nothing
    out = np.multiply(arr.reshape((*shape, top, *arr.shape[1:]))[tuple(flip)], signs)
    return out.reshape(arr.shape)


def apply_pauli_array(arr: np.ndarray, p: PauliString) -> np.ndarray:
    """P|psi> including the canonical phase i^(popcount(x & z))."""
    if arr.shape[0] != 1 << p.n_qubits:
        raise ValueError("array and Pauli sizes differ")
    out = pauli_gather(arr, p.x_mask, p.z_mask)
    k = (p.x_mask & p.z_mask).bit_count() % 4
    return out if k == 0 else 1j ** k * out


def pauli_sum(obs: Observable) -> list[tuple[int, np.ndarray]]:
    """Compile obs into [(x, d_x)], one entry per distinct X mask, such that
    (O psi)[j] = sum_x d_x[j ^ x] * psi[j ^ x]. d_x[k] sums
    c * i^popcount(x & z) * (-1)^popcount(k & z) over the terms with X mask x."""
    idx = np.arange(1 << obs.n_qubits)
    groups: dict[int, np.ndarray] = {}
    for coeff, p in obs.terms:
        signs = 1.0 - 2.0 * (np.bitwise_count(idx & p.z_mask) & 1)
        d = groups.setdefault(p.x_mask, np.zeros(idx.size, dtype=complex))
        d += coeff * 1j ** ((p.x_mask & p.z_mask).bit_count() % 4) * signs
    return list(groups.items())


def apply_pauli_sum(arr: np.ndarray, groups: list[tuple[int, np.ndarray]]) -> np.ndarray:
    """O arr along axis 0 for O compiled by `pauli_sum`; trailing axes are a
    batch. The x = 0 group is a diagonal and needs no gather."""
    idx = np.arange(arr.shape[0])
    out = None
    for x, d in groups:
        if d.size != arr.shape[0]:
            raise ValueError("array and observable sizes differ")
        term = d.reshape((-1,) + (1,) * (arr.ndim - 1)) * arr
        if x:
            term = term[idx ^ x]
        if out is None:
            out = term
        else:
            out += term
    return np.zeros(arr.shape, dtype=complex) if out is None else out


def pauli_matrix(p: PauliString) -> np.ndarray:
    n = p.n_qubits
    idx = np.arange(2 ** n)
    signs = 1.0 - 2.0 * (np.bitwise_count(idx & p.z_mask) & 1)
    phase = 1j ** ((p.x_mask & p.z_mask).bit_count() % 4)
    mat = np.zeros((2 ** n, 2 ** n), dtype=complex)
    mat[idx ^ p.x_mask, idx] = phase * signs
    return mat


def observable_matrix(obs: Observable) -> np.ndarray:
    mat = np.zeros((2 ** obs.n_qubits,) * 2, dtype=complex)
    for coeff, p in obs.terms:
        mat += coeff * pauli_matrix(p)
    return mat


def _check_statevector_size(n_qubits: int) -> None:
    """Reject oversized statevectors before any amplitude is allocated."""
    if n_qubits > MAX_STATEVECTOR_QUBITS:
        raise ValueError("statevector capped at %d qubits" % MAX_STATEVECTOR_QUBITS)


def _check_density_size(n_qubits: int) -> None:
    """Reject oversized density matrices before any entry is allocated."""
    if n_qubits > MAX_DENSITY_QUBITS:
        raise ValueError("density matrix capped at %d qubits" % MAX_DENSITY_QUBITS)


@dataclass(frozen=True)
class Statevector:
    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        _check_statevector_size(self.n_qubits)
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (2 ** self.n_qubits,):
            raise ValueError("amplitude vector has wrong length")
        if not abs(np.linalg.norm(amps) - 1.0) <= 1e-10:
            raise ValueError("state is not normalized")
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def zero(cls, n_qubits: int) -> "Statevector":
        return cls.basis(n_qubits, 0)

    @classmethod
    def basis(cls, n_qubits: int, index: int) -> "Statevector":
        _check_statevector_size(n_qubits)
        amps = np.zeros(2 ** n_qubits, dtype=complex)
        amps[index] = 1.0
        return cls(n_qubits, amps)


def run_array(circuit: QuantumCircuit, amps: np.ndarray) -> np.ndarray:
    """Gate application on a raw amplitude array (no per-gate norm checks)."""
    n = circuit.n_qubits
    (ops,) = compile_ops(circuit, ())
    for mat, qubits in ops:
        amps = _apply_unitary(amps, mat, qubits, n)
    return amps


def run(circuit: QuantumCircuit, initial: Statevector | None = None) -> Statevector:
    if initial is None:
        initial = Statevector.zero(circuit.n_qubits)
    if initial.n_qubits != circuit.n_qubits:
        raise ValueError("state and circuit sizes differ")
    return Statevector(circuit.n_qubits, run_array(circuit, initial.amplitudes))


def expectation(state: Statevector, obs: Observable) -> float:
    if state.n_qubits != obs.n_qubits:
        raise ValueError("state and observable sizes differ")
    return expectation_array(state.amplitudes, obs)


def expectation_array(amps: np.ndarray, obs: Observable) -> float:
    """<amps|O|amps>; for a (2^n, B) block, the sum over its columns."""
    total = np.vdot(amps, apply_pauli_sum(amps, pauli_sum(obs)))
    if abs(total.imag) > 1e-10:
        raise ValueError("expectation has non-negligible imaginary part")
    return float(total.real)


def evolve_exact(hamiltonian: Observable, state: Statevector, t: float) -> Statevector:
    if hamiltonian.n_qubits > 12:
        raise ValueError("exact evolution capped at 12 qubits")
    if state.n_qubits != hamiltonian.n_qubits:
        raise ValueError("state and Hamiltonian sizes differ")
    # ceil(|t| * bound) steps keep ||H t / steps|| <= 1, so the Taylor terms
    # of each step fall like 1 / k! and are summed until negligible
    h = pauli_sum(hamiltonian)
    steps = ceil(abs(t) * hamiltonian.bound())
    amps = state.amplitudes
    for _ in range(steps):
        term, k = amps, 0
        while np.linalg.norm(term) > 1e-17:
            k += 1
            term = apply_pauli_sum(term, h) * (-1j * t / (steps * k))
            amps = amps + term
    return Statevector(state.n_qubits, amps)


def sample_counts(state: Statevector, shots: int, seed: int, stream: int = 0) -> dict[str, int]:
    """Multinomial bitstring sample; qubit 0 is the leftmost character."""
    if shots <= 0:
        raise ValueError("shots must be positive")
    probs = np.abs(state.amplitudes) ** 2
    probs = probs / probs.sum()
    rng = philox_rng(seed, stream)
    draws = rng.multinomial(shots, probs)
    n = state.n_qubits
    counts = {}
    for b in np.nonzero(draws)[0]:
        key = "".join(str((int(b) >> k) & 1) for k in range(n))
        counts[key] = int(draws[b])
    return counts


@dataclass(frozen=True)
class DensityMatrix:
    n_qubits: int
    matrix: np.ndarray

    def __post_init__(self):
        _check_density_size(self.n_qubits)
        mat = np.asarray(self.matrix, dtype=complex)
        dim = 2 ** self.n_qubits
        if mat.shape != (dim, dim):
            raise ValueError("density matrix has wrong shape")
        if not np.abs(mat - mat.conj().T).max() <= 1e-10:
            raise ValueError("density matrix is not Hermitian")
        if not abs(np.trace(mat).real - 1.0) <= 1e-10:
            raise ValueError("density matrix trace is not 1")
        # smallest eigenvalue > -1e-9 iff rho + 1e-9 I is positive definite
        shifted = mat.copy()
        shifted.flat[::dim + 1] += 1e-9
        try:
            np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            raise ValueError("density matrix has a negative eigenvalue") from None
        object.__setattr__(self, "matrix", mat)

    @classmethod
    def from_statevector(cls, state: Statevector) -> "DensityMatrix":
        _check_density_size(state.n_qubits)
        return cls(state.n_qubits, np.outer(state.amplitudes, state.amplitudes.conj()))

    def purity(self) -> float:
        return float(np.vdot(self.matrix, self.matrix).real)

    def expectation(self, obs: Observable) -> float:
        """Tr(O rho) = sum_x sum_k d_x[k] rho[k, k ^ x]: O(2^n) per X mask."""
        if obs.n_qubits != self.n_qubits:
            raise ValueError("density matrix and observable sizes differ")
        idx = np.arange(1 << self.n_qubits)
        total = 0j
        for x, d in pauli_sum(obs):
            total += d @ self.matrix[idx, idx ^ x]
        if abs(total.imag) > 1e-10:
            raise ValueError("expectation has non-negligible imaginary part")
        return float(total.real)


def density_run(circuit: QuantumCircuit, rho0: DensityMatrix, channels=None) -> DensityMatrix:
    """Run unitary layers on a density matrix; `channels` maps a layer index
    to a callable applied to the raw matrix after that layer."""
    if circuit.n_qubits != rho0.n_qubits:
        raise ValueError("state and circuit sizes differ")
    n = circuit.n_qubits
    mat = rho0.matrix
    channels = channels or {}
    stops = [i for i in range(len(circuit.layers)) if i in channels]
    for ops, stop in zip(compile_ops(circuit, stops), stops + [None]):
        for u, qubits in ops:  # U on the row qubits q + n, conj(U) on the columns
            vec = _apply_unitary(mat.reshape(-1), u, tuple(q + n for q in qubits), 2 * n)
            mat = _apply_unitary(vec, u.conj(), qubits, 2 * n).reshape(mat.shape)
        if stop is not None:
            mat = channels[stop](mat)
            if not abs(np.trace(mat).real - 1.0) <= 1e-10:
                raise ValueError("channel did not preserve the trace")
    return DensityMatrix(n, mat)
