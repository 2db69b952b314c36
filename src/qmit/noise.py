"""Sparse Pauli-Lindblad noise channels: construction, exact and stochastic
application, Pauli fidelities, decay-based rate learning, and virtual
distillation.

The channel factorizes over generators because each generator acts
diagonally in the Pauli basis: generator (P, lam) maps
rho -> w rho + (1 - w) P rho P with w = (1 + exp(-2 lam)) / 2. P rho P is
the signed gather `pauli_gather` on rho read as a 2n-qubit vector, a
strided flip with no index array; `apply_to_matrix` copies rho once and
mixes each generator's P rho P into that copy in place. It is the dense
oracle the tests hold the Pauli basis to: there the channel is its diagonal,
the 4^n `pauli_fidelities` exp(-2 sum of the rates of the generators that
anticommute with Q), and `pec.noisy_expectation` multiplies a noisy layer's
Pauli coefficients by it. Rates must be finite and nonnegative.

Every sampler inserts P_i independently with probability
q_i = 1 - w_i = (1 - exp(-2 lam_i)) / 2 through `sample_insertions`:
`apply_stochastic` here, and PEC's noise realization and signed inverse
sample in `pec`. `insertion_table` computes q from the model's rates and
gives its (x_masks, z_masks, q) arrays, and `sample_insertions` maps a
(B, g) block of uniforms to each row's product of insertions and count.

Virtual distillation reads rho once: Tr(O rho^2) and Tr(rho^2) come from
one pass of row products over rho's rows (`simulator._block_expectation`),
with no rho-sized temporary.

Rate learning runs in one pass over arrays. `synthesize_decay_data` takes
every probe's fidelity from one probe-generator anticommutation matrix,
adding the rates column by column in generator order, so each equals
`pauli_fidelity` bit for bit. With shots every point comes from one
binomial call over the (probes, depths) block, drawn from one Philox stream
per call. `learn_rates` pads the decay points into (probes, depths) arrays,
masks the nonpositive ones, and fits every slope -1/2 sum d log v / sum d^2
in one expression. It then solves A lam = b for lam >= 0, where A is the
probe-candidate anticommutation matrix, built in one broadcast over the
Pauli masks. `nnls` solves it in numpy, so no command imports scipy. A
register wider than MAX_LEARNING_QUBITS is refused before `default_probes`
builds a probe and before any anticommutation matrix is allocated.

What a fit does not read from its data is built once per process.
`default_probes` keeps one tuple of probes per (n_qubits, edges) and returns
a new list of it. One small LRU cache, keyed on each Pauli's (n_qubits,
x_mask, z_mask), holds each (probes, Paulis) system's read-only
anticommutation matrix and its rank, and both halves of a fit read it: the
SVD behind the identifiability check runs once per system, and a
rank-deficient system is refused with its null space at every fit.
`anticommutation_matrix` builds a fresh array, the same way for every
register size. A cold `qmit noise-learn` runs one fit and pays each
of these costs once.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from operator import index

import numpy as np

from . import MAX_SHOTS
from .pauli import Observable, PauliString, format_pauli, parse_pauli
from .simulator import (
    DensityMatrix,
    Statevector,
    _block_expectation,
    _check_density_size,
    apply_pauli_array,  # unused here; qbench/layers.py patches noise.apply_pauli_array
    pauli_gather,
    philox_rng,
)


class UnidentifiableModelError(ValueError):
    """Probe set cannot distinguish all candidate generators."""

    def __init__(self, null_space: np.ndarray):
        self.null_space = null_space
        super().__init__(
            "anticommutation matrix is rank deficient; %d unidentifiable direction(s)"
            % null_space.shape[1]
        )


@dataclass(frozen=True)
class PauliLindbladModel:
    """Generators (P_i, lam_i) with lam_i >= 0; duplicates merged by summing.
    `insertion_table` computes each generator's insertion probability
    q_i = (1 - exp(-2 lam_i)) / 2."""

    n_qubits: int
    generators: tuple[tuple[PauliString, float], ...]

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError("n_qubits must be positive")
        # key -> (first PauliString seen for it, summed rate), in first-seen order
        merged: dict[tuple[int, int], tuple[PauliString, float]] = {}
        for p, lam in self.generators:
            if p.n_qubits != self.n_qubits:
                raise ValueError("generator acts on wrong number of qubits")
            if p.is_identity:
                raise ValueError("identity generator is not allowed")
            if not math.isfinite(lam):
                raise ValueError("rates must be finite")
            if lam < 0:
                raise ValueError("rates must be nonnegative")
            key = (p.x_mask, p.z_mask)
            first, total = merged.get(key, (p, 0.0))
            merged[key] = (first, total + float(lam))
        object.__setattr__(self, "generators", tuple(merged.values()))

    @property
    def total_rate(self) -> float:
        return sum(lam for _, lam in self.generators)

    def scaled(self, factor: float) -> "PauliLindbladModel":
        if factor < 0:
            raise ValueError("scale factor must be nonnegative")
        return PauliLindbladModel(
            self.n_qubits, tuple((p, lam * factor) for p, lam in self.generators)
        )

    def apply_to_matrix(self, mat: np.ndarray) -> np.ndarray:
        """Exact channel action on a raw density matrix."""
        n = self.n_qubits
        if mat.shape != (1 << n, 1 << n):
            raise ValueError("density matrix and model sizes differ")
        vec = mat.reshape(-1).copy()  # row qubits q + n, column qubits q
        for p, lam in self.generators:
            w = (1.0 + np.exp(-2.0 * lam)) / 2.0
            flipped = pauli_gather(vec, p.x_mask | p.x_mask << n, p.z_mask | p.z_mask << n)
            # w * vec + (1 - w) * flipped, in place: the same operations in the same order
            flipped *= 1.0 - w
            vec *= w
            vec += flipped
        return vec.reshape(mat.shape)


def pauli_fidelity(model: PauliLindbladModel, q: PauliString) -> float:
    """Channel eigenvalue on Pauli q: exp(-2 sum of anticommuting rates)."""
    if q.n_qubits != model.n_qubits:
        raise ValueError("Pauli acts on wrong number of qubits")
    exponent = sum(lam for p, lam in model.generators if not p.commutes(q))
    return float(np.exp(-2.0 * exponent))


def pauli_fidelities(model: PauliLindbladModel) -> np.ndarray:
    """Every Pauli's `pauli_fidelity`, as one vector of 4^n floats indexed
    x | z << n: the channel's diagonal in the Pauli basis. The rates are added
    one generator at a time, in order, so each entry is pauli_fidelity's
    float. A register too wide for a density matrix is refused first."""
    n = model.n_qubits
    _check_density_size(n)
    codes = np.arange(1 << 2 * n, dtype=np.uint32)
    exponent = np.zeros(codes.size)
    for p, lam in model.generators:
        # Q anticommutes with P iff popcount(x_Q & z_P ^ z_Q & x_P) is odd
        anticommutes = (np.bitwise_count(codes & (p.z_mask | p.x_mask << n)) & 1).view(bool)
        np.add(exponent, lam, out=exponent, where=anticommutes)
    return np.exp(-2.0 * exponent)


def insertion_table(model: PauliLindbladModel):
    """(x_masks, z_masks, q): generator i's X and Z masks as the int64 that
    pauli_gather indexes with, and its insertion probability
    q_i = (1 - exp(-2 lam_i)) / 2."""
    x_masks = np.array([p.x_mask for p, _ in model.generators], dtype=np.int64)
    z_masks = np.array([p.z_mask for p, _ in model.generators], dtype=np.int64)
    rates = np.array([lam for _, lam in model.generators], dtype=float)
    return x_masks, z_masks, (1.0 - np.exp(-2.0 * rates)) / 2.0


def sample_insertions(table, uniforms: np.ndarray):
    """Row b of the (B, g) `uniforms` inserts generator i when
    uniforms[b, i] < q_i. Returns (x, z, count), one entry per row: the XOR
    of the inserted X masks, of the inserted Z masks, and the number of
    insertions. The Pauli with masks (x, z) is the row's product of
    insertions up to a global phase."""
    x_masks, z_masks, q = table
    # one row per generator: reducing over whole rows is about twice as fast
    # as over a short inner axis
    inserted = np.ascontiguousarray((uniforms < q).T)
    x = np.bitwise_xor.reduce(np.where(inserted, x_masks[:, None], 0), axis=0)
    z = np.bitwise_xor.reduce(np.where(inserted, z_masks[:, None], 0), axis=0)
    return x, z, inserted.sum(axis=0)


def apply_stochastic(
    state: Statevector, model: PauliLindbladModel, rng: np.random.Generator
) -> tuple[Statevector, int]:
    """One channel realization: one row of uniforms through
    `sample_insertions`, applied as one `pauli_gather`. Returns the state,
    up to a global phase, and the number of insertions."""
    if state.n_qubits != model.n_qubits:
        raise ValueError("state and model sizes differ")
    (x,), (z,), (count,) = sample_insertions(
        insertion_table(model), rng.random((1, len(model.generators))))
    amps = pauli_gather(state.amplitudes, int(x), int(z))
    return Statevector(state.n_qubits, amps), int(count)


def virtual_distillation_expectation(rho: DensityMatrix, obs: Observable) -> float:
    """Tr(O rho^2) / Tr(rho^2) (Huggins et al., PRX 11, 041036 (2021)). For
    Hermitian rho, Tr(O rho^2) = Tr(rho^dag O rho), the expectation over
    rho's columns, and Tr(rho^2) = sum_j r_0[j], the x = 0 row products of
    that same pass: for a total-Z observable rho is read once."""
    value, purity = _block_expectation(rho.matrix, obs, norm=True)
    if purity < 1e-12:
        raise ValueError("state purity too small for virtual distillation")
    return value / purity


# ---------------------------------------------------------------------------
# rate learning from decay data

DEFAULT_DEPTHS = (1, 2, 4, 8, 16)
# widest register a fit takes: the default system of 8n - 5 probes holds
# (8n - 5)^2 ceil(n / 64) mask words per temporary, about 2^24 at the cap
MAX_LEARNING_QUBITS = 256

_TWO_QUBIT_LABELS = (("X", "X"), ("Y", "Y"), ("Z", "Z"), ("X", "Z"), ("Z", "X"))


def default_probes(n_qubits: int, edges) -> list[PauliString]:
    """Weight-1 Paulis on every qubit plus weight-2 Paulis
    {XX, YY, ZZ, XZ, ZX} on every coupling-graph edge: a new list of the
    cached probe set of (n_qubits, edges)."""
    # as ints: a numpy integer hashes like the int it equals, and would
    # otherwise put its own type into the masks of the shared entry
    n_qubits = index(n_qubits)
    _check_learning_size(n_qubits)
    return list(_default_probes(n_qubits, tuple((index(a), index(b)) for a, b in edges)))


def _check_learning_size(n_qubits: int) -> None:
    if n_qubits > MAX_LEARNING_QUBITS:
        raise ValueError("noise learning capped at %d qubits, got %d"
                         % (MAX_LEARNING_QUBITS, n_qubits))


@functools.lru_cache(maxsize=32)
def _default_probes(n_qubits: int, edges: tuple[tuple[int, int], ...]) -> tuple[PauliString, ...]:
    probes = []
    for q in range(n_qubits):
        for kind in "XYZ":
            probes.append(PauliString.single(n_qubits, q, kind))
    for a, b in edges:
        for ka, kb in _TWO_QUBIT_LABELS:
            pa = PauliString.single(n_qubits, a, ka)
            pb = PauliString.single(n_qubits, b, kb)
            pab, _ = pa.multiply(pb)
            probes.append(pab)
    return tuple(probes)


def line_edges(n_qubits: int) -> list[tuple[int, int]]:
    return [(j, j + 1) for j in range(n_qubits - 1)]


def synthesize_decay_data(
    model: PauliLindbladModel,
    probes,
    depths=DEFAULT_DEPTHS,
    shots: int | None = None,
    seed: int = 0,
):
    """Decay curves <Q>_d for each probe: prepare a +1 eigenstate of Q and
    apply the channel d times, so <Q>_d = f(Q)^d exactly. With `shots` the
    +-1 measurement outcomes are sampled binomially, every point from one
    Philox stream `philox_rng(seed)`, probe by probe and depth by depth.
    """
    if shots is not None and shots < 1:
        raise ValueError("shots must be >= 1, got %r" % shots)
    if shots is not None and shots > MAX_SHOTS:
        raise ValueError("shots capped at %d, got %d" % (MAX_SHOTS, shots))
    depths = tuple(depths)  # read once: every probe walks the same depths
    probes = tuple(probes)
    if any(q.n_qubits != model.n_qubits for q in probes):
        raise ValueError("Pauli acts on wrong number of qubits")
    a, _ = _learning_system(_pauli_keys(probes), _pauli_keys(p for p, _ in model.generators))
    # one rate column at a time, in generator order: the additions of
    # pauli_fidelity's sum, so every fidelity is the same float (a @ lam
    # would add in another order)
    exponent = np.zeros(len(probes))
    for j, (_, lam) in enumerate(model.generators):
        exponent += a[:, j] * lam
    fidelities = np.exp(-2.0 * exponent).tolist()
    # float ** int, not np.power, which rounds some powers differently
    values = [[f ** d for d in depths] for f in fidelities]
    if shots is not None:
        # one (probes, depths) block from one stream: probe-major, so it
        # draws what scalar calls probe by probe, depth by depth would draw
        k = philox_rng(seed).binomial(shots, (1.0 + np.array(values)) / 2.0)
        values = (2.0 * k / shots - 1.0).tolist()
    return {q: list(zip(depths, row)) for q, row in zip(probes, values)}


def _pauli_keys(paulis) -> tuple[tuple[int, int, int], ...]:
    """Each Pauli as its hashable (n_qubits, x_mask, z_mask), read once."""
    return tuple((p.n_qubits, p.x_mask, p.z_mask) for p in paulis)


def anticommutation_matrix(probes, candidates) -> np.ndarray:
    """a[i, j] = 1.0 where probe i and candidate j anticommute, else 0.0: the
    parity of the symplectic product (x_q & z_p) ^ (z_q & x_p), as in
    `PauliString.commutes`, for all pairs in one broadcast."""
    return _anticommutation(_pauli_keys(probes), _pauli_keys(candidates))


def _anticommutation(probe_keys, candidate_keys) -> np.ndarray:
    sizes = {n for n, _, _ in (*probe_keys, *candidate_keys)}
    if len(sizes) > 1:
        raise ValueError("Pauli strings act on different numbers of qubits")
    _check_learning_size(max(sizes, default=0))
    # each key's X and Z masks as (len(keys), 2, words) uint64: 64-bit
    # words, lowest qubits first
    words = range(-(-max(sizes, default=1) // 64))
    low = (1 << 64) - 1
    q, p = (np.array([m >> 64 * w & low for _, x, z in keys for m in (x, z) for w in words],
                     dtype=np.uint64).reshape(len(keys), 2, len(words))
            for keys in (probe_keys, candidate_keys))
    product = (q[:, None, 0] & p[None, :, 1]) ^ (q[:, None, 1] & p[None, :, 0])
    return (np.bitwise_count(product).sum(axis=-1) & 1).astype(float)


@functools.lru_cache(maxsize=16)
def _learning_system(probe_keys, candidate_keys) -> tuple[np.ndarray, int]:
    """(a, rank of a) for one (probes, Paulis) system, built once and shared
    read-only by both halves of a fit: the SVD behind the rank runs once per
    system. An empty system has rank 0 without an SVD, which some numpy
    versions cannot take of a zero-size matrix."""
    a = _anticommutation(probe_keys, candidate_keys)
    a.flags.writeable = False
    return a, int(np.linalg.matrix_rank(a)) if a.size else 0


def nnls(a, b):
    """min ||a x - b|| subject to x >= 0, for `a` of full column rank.
    Returns (x, ||a x - b||), as scipy.optimize.nnls does.

    Block principal pivoting on the normal equations a^T a x - a^T b = y,
    x >= 0, y >= 0, x_i y_i = 0 (Kim & Park, SIAM J. Sci. Comput. 33, 3261
    (2011)): solve for x on the passive set, then exchange every infeasible
    variable between the passive and the active set. After three exchanges
    that do not shrink the infeasible set, move only the highest-index one
    until the set shrinks, which guarantees termination (Portugal, Judice &
    Vicente, Math. Comp. 63 (1994)). A variable is infeasible only below
    -tol, so exact data, where the zero rates come out near -1e-18, does not
    cycle; x is clipped at 0 on return.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = a.shape
    ata = a.T @ a
    atb = a.T @ b
    tol = 10 * max(m, n) * np.finfo(float).eps * max(1.0, np.abs(ata).max(initial=0.0))
    passive = np.zeros(n, dtype=bool)
    x = np.zeros(n)
    y = -atb
    fewest, full_exchanges = n + 1, 3
    for _ in range(10 * n + 10):
        infeasible = np.where(passive, x < -tol, y < -tol)
        count = int(infeasible.sum())
        if count == 0:
            x = np.maximum(x, 0.0)
            return x, float(np.linalg.norm(a @ x - b))
        if count < fewest:
            fewest, full_exchanges = count, 3
        elif full_exchanges > 0:
            full_exchanges -= 1
        else:
            infeasible[:np.flatnonzero(infeasible)[-1]] = False
        passive ^= infeasible
        x = np.zeros(n)
        x[passive] = np.linalg.solve(ata[np.ix_(passive, passive)], atb[passive])
        y = ata @ x - atb
    raise RuntimeError("nnls did not converge")


def learn_rates(decay_data, candidates, n_qubits: int):
    """Fit per-probe decays log<Q>_d = d log f by least squares, then solve
    -1/2 log f = A lam by nonnegative least squares.

    Returns (model, residuals) where residuals maps each probe to the
    per-probe misfit A lam - b. Depths with nonpositive expectations are
    dropped; a probe with fewer than two usable depths, or with no usable
    depth but 0, is an error.
    """
    probes = tuple(decay_data)
    candidates = tuple(candidates)  # read once: the system and the model share it
    a, rank = _learning_system(_pauli_keys(probes), _pauli_keys(candidates))
    if rank < len(candidates):
        _, _, vt = np.linalg.svd(a)
        raise UnidentifiableModelError(vt[rank:].T)
    # one flat list of depths and values, probe by probe: ragged rows are
    # padded with (0, 0.0) points, which are unusable like every nonpositive
    # value
    rows = []
    for points in decay_data.values():
        row = []
        for d, v in points:
            row.append(d)
            row.append(v)
        rows.append(row)
    width = max(map(len, rows), default=0)
    pad = [0, 0.0] * (width // 2)
    flat = []
    for row in rows:
        flat += row
        flat += pad[len(row):]
    table = np.array(flat, dtype=float).reshape(len(probes), width // 2, 2)
    usable = table[:, :, 1] > 0.0
    short = np.flatnonzero(usable.sum(axis=1) < 2)
    if short.size:
        raise ValueError(
            "probe %s has fewer than 2 usable depths" % format_pauli(probes[short[0]])
        )
    # unusable points enter each row's dot products as exact zeros, which
    # leave an in-order sum unchanged; vecdot calls the BLAS dot that a
    # per-probe ds @ logs calls, so each slope is that fit's float. (A BLAS
    # that blocks long dots, as OpenBLAS does from 16 entries, may round
    # rows of 16 or more depths differently.)
    ds = np.where(usable, table[:, :, 0], 0.0)
    logs = np.log(np.where(usable, table[:, :, 1], 1.0))
    denominators = np.vecdot(ds, ds)
    flat = np.flatnonzero(denominators == 0.0)
    if flat.size:
        raise ValueError("probe %s has no usable depth but 0" % format_pauli(probes[flat[0]]))
    b = -0.5 * (np.vecdot(ds, logs) / denominators)
    rates, _ = nnls(a, b)
    misfit = a @ rates - b
    residuals = dict(zip(probes, misfit.tolist()))
    model = PauliLindbladModel(n_qubits, tuple(zip(candidates, rates.tolist())))
    return model, residuals


def learn_rates_from_model(
    model: PauliLindbladModel,
    probes=None,
    candidates=None,
    shots: int | None = None,
    seed: int = 0,
):
    """End-to-end learning round trip against a planted model, at the
    default depths."""
    n = model.n_qubits
    if probes is None or candidates is None:
        defaults = default_probes(n, line_edges(n))
        probes = defaults if probes is None else probes
        candidates = defaults if candidates is None else candidates
    data = synthesize_decay_data(model, probes, shots=shots, seed=seed)
    return learn_rates(data, candidates, n)


# ---------------------------------------------------------------------------
# noise model files

def dumps(model: PauliLindbladModel) -> str:
    """Serialize as one `<label> <rate>` record per generator; rates are
    shortest round-trip decimals."""
    lines = ["qubits %d" % model.n_qubits]
    for p, lam in model.generators:
        lines.append("%s %r" % (format_pauli(p), lam))
    return "\n".join(lines) + "\n"


def loads(text: str) -> PauliLindbladModel:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or not lines[0].startswith("qubits "):
        raise ValueError("noise model file must start with 'qubits <n>'")
    try:
        n = int(lines[0].split()[1])
    except (IndexError, ValueError):
        raise ValueError("bad qubit count in noise model header") from None
    generators = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError("bad noise model record: %r" % ln)
        p = parse_pauli(parts[0], n)
        generators.append((p, float(parts[1])))
    return PauliLindbladModel(n, tuple(generators))
