"""Exact statevector, density-matrix and Pauli-basis simulation of layered
circuits.

Amplitude ordering: basis index b carries qubit k in bit k of b, matching
the Pauli-mask convention. Soft caps: 24 qubits for statevectors, 10 for
density matrices, 12 for exact time evolution, which also takes at most
MAX_EXACT_EVOLUTION_STEPS (2^16) Taylor steps per call.

A density matrix is read as the 2n-qubit vector rho.reshape(-1): row index
in bits n..2n-1, column index in bits 0..n-1, so U rho U^dag is U on qubits
q + n and conj(U) on qubits q through the statevector gate kernel. Every
Pauli action is the signed gather `pauli_gather`; with masks
(x | x << n, z | z << n) it is P rho P^dag, whose phases cancel. A fixed
Pauli is a strided flip: axis 0 is split at the set bits of x | z, the X
bits' axes are reversed, and one multiply by +-1 over the Z bits' axes
writes the result, with no index array. A Pauli sum is compiled once per
Observable by `pauli_sum` into one signed diagonal per distinct X mask, so
applying it costs one gather per mask, not per term.

A state can also be held as its 4^n real Pauli coefficients
c_Q = Tr(Q rho), indexed x | z << n, where Q = i^popcount(x & z) X^x Z^z as
in `apply_pauli_array`. A 1q or 2q op's `pauli_transfer` matrix, real and
4^m x 4^m, is applied by the gate kernel to qubits (q..., q + n...) of that
2n-qubit vector. `pec.noisy_expectation` runs there, and never builds rho.

An expectation over a (2^n, B) block A, such as rho read column by column,
is Tr(A^dag O A) = Re sum_x <r_x, d_x> over `pauli_sum`'s groups, where the
row products r_x[j] = sum_b conj(A[j, b]) A[j ^ x, b] are one `np.vecdot` of
A with its row-flipped view: axis 0 split at x's bits and reversed, with no
copy. So A is read once per X mask and no block-sized temporary is made;
r_0 also gives the squared norm sum |A|^2 that virtual distillation divides
by.

Validation is written so that NaN fails it (`not err <= tol`). A density
matrix is checked Hermitian, a block of _DENSITY_ROW_BLOCK (32) rows at a
time against the matching column block, so no full-size temporary is made;
then of trace 1 and PSD to -1e-9, the last by a Cholesky factorization of
rho + 1e-9 I.

Gates are applied as fused ops: `compile_ops(circuit, stops)` multiplies, once
per call, each run of gates on one or two qubits into one 2x2 or 4x4 matrix
(`_fold_ops`). On registers of WIDE_FUSION_QUBITS (8) or more qubits it then
fuses those ops greedily, in program order, into blocks of at most
MAX_FUSED_QUBITS (4) qubits, because there an op's cost is mostly the
kernel's transpose and copy of the whole state, not its arithmetic; on
smaller registers building the wider matrices costs about as much as it
saves. The Pauli basis takes `_fold_ops`' ops unfused at every size: a 4q
block's transfer matrix is 256 x 256, and building and applying those cost
more than the wider blocks save. The ops come in segments that end at the
layer indices in `stops`, where something other than a gate must see the
state: `density_run` stops at its channel layers, PEC and
`pec.noisy_expectation` at their noisy two-qubit layers, and `run_array`
nowhere. Nothing is fused across a stop.

RNG: all sampling uses the counter-based Philox generator. Independent
streams are derived from (seed, stream) key pairs; parallel workers use
their stream id as the second key word.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import ceil, cos, isfinite, sin, sqrt

import numpy as np

from . import MAX_SHOTS
from .circuits import Gate, QuantumCircuit
from .pauli import Observable, PauliString

MAX_STATEVECTOR_QUBITS = 24
MAX_DENSITY_QUBITS = 10
MAX_EXACT_EVOLUTION_QUBITS = 12
MAX_EXACT_EVOLUTION_STEPS = 2 ** 16  # Taylor steps per evolve_exact call
MAX_FUSED_QUBITS = 4  # widest fused op on a register of WIDE_FUSION_QUBITS or more
WIDE_FUSION_QUBITS = 8  # smaller registers keep 1q and 2q ops only
_DENSITY_ROW_BLOCK = 32  # rows per step of the Hermitian check

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
    # `Gate` admits no other name: the rest are the rotation pairs
    pp = {"rxx": _XX, "ryy": _YY, "rzz": _ZZ}[gate.name]
    return cos(t / 2) * np.eye(4) - 1j * sin(t / 2) * pp


def _apply_unitary(arr: np.ndarray, mat: np.ndarray, qubits: tuple[int, ...], n: int) -> np.ndarray:
    """Apply an m-qubit unitary (2^m x 2^m, local bit j on qubits[j]) to
    axis 0 of arr (length 2**n); trailing axes are a batch. Fused ops have m
    up to MAX_FUSED_QUBITS, and building a fused matrix applies its ops to
    an identity through this same kernel. The Pauli basis passes real
    transfer matrices on real coefficients: any 2^m x 2^m matrix works."""
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
    `_fold_ops`' 1q and 2q ops, which on a register of WIDE_FUSION_QUBITS or
    more `_fuse_blocks` then fuses, segment by segment, into blocks of up to
    MAX_FUSED_QUBITS qubits. Nothing is fused across a stop."""
    segments = _fold_ops(circuit, stops)
    if circuit.n_qubits >= WIDE_FUSION_QUBITS:
        segments = [_fuse_blocks(ops) for ops in segments]
    return segments


def _fold_ops(circuit: QuantumCircuit, stops) -> list[list[tuple[np.ndarray, tuple[int, ...]]]]:
    """The circuit's gates as (matrix, qubits) ops on one or two qubits, one
    list per segment: a segment ends after each layer whose index is in
    `stops`, and the last one holds the layers after the final stop. Within a
    segment, a 1q gate folds into the last op on its qubit, a 2q gate on the
    pair of the last op on both its qubits folds into that op, and a new 2q
    op absorbs the 1q ops still pending on its qubits."""
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


def _fuse_blocks(ops):
    """One segment's ops fused greedily, in program order, into blocks of at
    most MAX_FUSED_QUBITS qubits. An op joins the latest block that holds
    the last op on one of its qubits, if their union fits, and opens a new
    block if not; an op that is the first on all its qubits commutes with
    every block so far and joins the latest one it fits in. A block of one
    op is that op unchanged; a wider one is built by applying its ops, in
    order, to the identity on its qubits in ascending order."""
    blocks: list[tuple[set, list]] = []  # (qubits, ops) in application order
    last: dict[int, int] = {}  # qubit -> index in blocks of the last block on it
    for op in ops:
        qs = set(op[1])
        near = [last[q] for q in qs if q in last]
        candidates = [max(near)] if near else range(len(blocks))
        t = next((b for b in reversed(candidates)
                  if len(blocks[b][0] | qs) <= MAX_FUSED_QUBITS), len(blocks))
        if t == len(blocks):
            blocks.append((set(), []))
        blocks[t][0].update(qs)
        blocks[t][1].append(op)
        for q in qs:
            last[q] = t
    fused = []
    for qubits, members in blocks:
        if len(members) == 1:
            fused.append(members[0])
            continue
        qubits = tuple(sorted(qubits))
        mat = np.eye(2 ** len(qubits), dtype=complex)
        for g, qs in members:
            mat = _apply_unitary(mat, g, tuple(qubits.index(q) for q in qs), len(qubits))
        fused.append((mat, qubits))
    return fused


_SIGNS = (np.array([1.0, -1.0]), np.array([-1.0, 1.0]))  # indexed by the X bit
_ALL = slice(None)
_REVERSED = slice(None, None, -1)


def _row_flip(arr: np.ndarray, x: int, z: int = 0):
    """(view, flipped, signs): arr with axis 0 split at the set bits of x | z,
    that view with the X bits' axes reversed, so flipped[j] = arr[j ^ x] in
    the split indexing (both views: nothing is copied), and the +-1 tensor
    (-1)^popcount((j ^ x) & z) over the Z bits' axes, 1.0 when z is 0."""
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
    view = arr.reshape((*shape, top, *arr.shape[1:]))
    return view, view[tuple(flip)], signs


def pauli_gather(arr: np.ndarray, x, z) -> np.ndarray:
    """out[j] = (-1)^popcount((j ^ x) & z) * arr[j ^ x] along axis 0: the
    Pauli with masks (x, z) without its phase. Trailing axes are a batch.

    For int masks, `_row_flip` splits axis 0 at the set bits of x | z only
    and reverses each X bit's axis (a view), and one multiply by its +-1
    tensor over the Z bits' axes writes a new C-contiguous array: no index
    or sign vector of length 2^n. Every entry goes through the multiply, by
    +1.0 too, so complex signed zeros come out as from the index formula
    sign[j] * arr[j ^ x]. x and z may also be integer arrays holding one mask
    per column of a (2^n, B) block, applied by that index formula."""
    if isinstance(x, np.ndarray):
        src = np.arange(arr.shape[0])[:, None] ^ x
        signs = 1.0 - 2.0 * (np.bitwise_count(src & z) & 1)
        return signs * np.take_along_axis(arr, src, axis=0)
    _, flipped, signs = _row_flip(arr, x, z)
    # the product is allocated in the view's axis order with its strides
    # made positive, i.e. C order, so the final reshape copies nothing
    return np.multiply(flipped, signs).reshape(arr.shape)


def apply_pauli_array(arr: np.ndarray, p: PauliString) -> np.ndarray:
    """P|psi> including the canonical phase i^(popcount(x & z))."""
    if arr.shape[0] != 1 << p.n_qubits:
        raise ValueError("array and Pauli sizes differ")
    out = pauli_gather(arr, p.x_mask, p.z_mask)
    k = (p.x_mask & p.z_mask).bit_count() % 4
    return out if k == 0 else 1j ** k * out


def pauli_sum(obs: Observable) -> tuple[tuple[int, np.ndarray], ...]:
    """Compile obs into ((x, d_x), ...), one entry per distinct X mask, such
    that (O psi)[j] = sum_x d_x[j ^ x] * psi[j ^ x]. d_x[k] sums
    c * i^popcount(x & z) * (-1)^popcount(k & z) over the terms with X mask x.
    The compiled form is built on the first call for obs and kept on it,
    with read-only diagonals; later calls return that same tuple."""
    cached = obs.__dict__.get("_pauli_sum")
    if cached is not None:
        return cached
    idx = np.arange(1 << obs.n_qubits)
    groups: dict[int, np.ndarray] = {}
    for coeff, p in obs.terms:
        signs = 1.0 - 2.0 * (np.bitwise_count(idx & p.z_mask) & 1)
        d = groups.setdefault(p.x_mask, np.zeros(idx.size, dtype=complex))
        d += coeff * 1j ** ((p.x_mask & p.z_mask).bit_count() % 4) * signs
    for d in groups.values():
        d.flags.writeable = False
    compiled = tuple(groups.items())
    object.__setattr__(obs, "_pauli_sum", compiled)  # Observable is frozen
    return compiled


def apply_pauli_sum(arr: np.ndarray, groups: tuple[tuple[int, np.ndarray], ...]) -> np.ndarray:
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


def _block_expectation(block: np.ndarray, obs: Observable, norm: bool = False):
    """(Tr(A^dag O A), sum |A|^2 or None) for a (2^n, B) block A: Re sum_x
    <r_x, d_x> over O's groups, where r_x[j] = sum_b conj(A[j, b]) A[j ^ x, b]
    is one `np.vecdot` of A with its `_row_flip` view. The sum over k of
    d_x[k] conj(r_x[k]) is that of d_x[j ^ x] r_x[j], so d_x needs no flip.
    With `norm`, the squared norm is sum_j r_0[j], taken from the x = 0 group
    when O has one. The gather cannot catch a wrong size, so it is checked
    here before A is read."""
    if block.shape[0] != 1 << obs.n_qubits:
        raise ValueError("array and observable sizes differ")
    value, squared = 0j, None
    for x, d in pauli_sum(obs):
        rows = np.vecdot(*_row_flip(block, x)[:2]).reshape(-1)
        value += np.vdot(rows, d)
        if x == 0:
            squared = float(rows.sum().real)
    if norm and squared is None:
        squared = float(np.vecdot(block, block).sum().real)
    return float(value.real), squared


def _local_paulis(m: int) -> np.ndarray:
    """The 4^m Paulis on m qubits as a (4^m, 2^m, 2^m) stack, index
    x | z << m, each with its phase i^popcount(x & z), so all are Hermitian."""
    d = 1 << m
    eye = np.eye(d, dtype=complex)
    return np.array([1j ** ((x & z).bit_count() % 4) * pauli_gather(eye, x, z)
                     for z in range(d) for x in range(d)])


_LOCAL_PAULIS = {m: _local_paulis(m) for m in (1, 2)}


def pauli_transfer(u: np.ndarray) -> np.ndarray:
    """The real Pauli-transfer matrix R[Q, P] = Tr(Q U P U^dag) / 2^m of a
    1q or 2q op, indices x | z << m: R maps the coefficients c_P = Tr(P rho)
    of the op's qubits to those of U rho U^dag. Applied by `_apply_unitary`
    to qubits (q..., q + n...) of the coefficient vector."""
    paulis = _LOCAL_PAULIS[u.shape[0].bit_length() - 1]
    moved = (u @ paulis @ u.conj().T).reshape(len(paulis), -1)
    # Tr(Q A) = sum_ab conj(Q)[a, b] A[a, b], since Q^T = conj(Q)
    return (paulis.reshape(len(paulis), -1).conj() @ moved.T).real / u.shape[0]


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


def run(circuit: QuantumCircuit) -> Statevector:
    """The circuit applied to |0...0>."""
    return Statevector(circuit.n_qubits,
                       run_array(circuit, Statevector.zero(circuit.n_qubits).amplitudes))


def expectation(state: Statevector, obs: Observable) -> float:
    if state.n_qubits != obs.n_qubits:
        raise ValueError("state and observable sizes differ")
    return expectation_array(state.amplitudes, obs)


def expectation_array(amps: np.ndarray, obs: Observable) -> float:
    """<amps|O|amps>; for a (2^n, B) block, the sum over its columns, from
    `_block_expectation`'s row products. A vector takes `apply_pauli_sum` and
    one `vdot`, which is faster for a single column. O has real
    coefficients, so it is Hermitian and the imaginary part is rounding."""
    if amps.ndim > 1:
        return _block_expectation(amps, obs)[0]
    if amps.shape != (1 << obs.n_qubits,):
        raise ValueError("array and observable sizes differ")
    return float(np.vdot(amps, apply_pauli_sum(amps, pauli_sum(obs))).real)


def exact_evolution_steps(hamiltonian: Observable, t: float) -> int:
    """The Taylor steps `evolve_exact` takes for time t: ceil(|t| * bound),
    which keeps ||H t / steps|| <= 1, so the terms of each step fall like
    1 / k!. A non-finite t, or more than MAX_EXACT_EVOLUTION_STEPS steps, is
    refused."""
    if not isfinite(t):
        raise ValueError("evolution time must be finite, got %s" % t)
    scaled = abs(t) * hamiltonian.bound()
    if scaled > MAX_EXACT_EVOLUTION_STEPS:
        raise ValueError("exact evolution needs |t| * bound = %g Taylor steps; capped at %d"
                         % (scaled, MAX_EXACT_EVOLUTION_STEPS))
    return ceil(scaled)


def evolve_exact(hamiltonian: Observable, state: Statevector, t: float) -> Statevector:
    if hamiltonian.n_qubits > MAX_EXACT_EVOLUTION_QUBITS:
        raise ValueError("exact evolution capped at %d qubits" % MAX_EXACT_EVOLUTION_QUBITS)
    if state.n_qubits != hamiltonian.n_qubits:
        raise ValueError("state and Hamiltonian sizes differ")
    steps = exact_evolution_steps(hamiltonian, t)
    h = pauli_sum(hamiltonian)
    amps = state.amplitudes
    for _ in range(steps):
        term, k = amps, 0
        while np.linalg.norm(term) > 1e-17:
            k += 1
            term = apply_pauli_sum(term, h) * (-1j * t / (steps * k))
            amps = amps + term
    return Statevector(state.n_qubits, amps)


def sample_counts(state: Statevector, shots: int, seed: int) -> dict[str, int]:
    """Multinomial bitstring sample drawn from `philox_rng(seed)`; qubit 0 is
    the leftmost character."""
    if shots <= 0:
        raise ValueError("shots must be positive")
    if shots > MAX_SHOTS:
        raise ValueError("shots capped at %d, got %d" % (MAX_SHOTS, shots))
    probs = np.abs(state.amplitudes) ** 2
    probs = probs / probs.sum()
    draws = philox_rng(seed).multinomial(shots, probs)
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
        for i in range(0, dim, _DENSITY_ROW_BLOCK):
            rows = slice(i, i + _DENSITY_ROW_BLOCK)
            if not np.abs(mat[rows] - mat[:, rows].T.conj()).max() <= 1e-10:
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
