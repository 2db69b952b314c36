"""Sparse Pauli-Lindblad noise channels: construction, exact and stochastic
application, Pauli fidelities, decay-based rate learning, and virtual
distillation.

The channel factorizes over generators because each generator acts
diagonally in the Pauli basis: generator (P, lam) maps
rho -> w rho + (1 - w) P rho P with w = (1 + exp(-2 lam)) / 2. P rho P is
the signed gather `pauli_gather` on rho read as a 2n-qubit vector, a
strided flip with no index array; `apply_to_matrix` copies rho once and
mixes each generator's P rho P into that copy in place. Rates must be
finite and nonnegative.

Every sampler inserts P_i independently with probability
q_i = 1 - w_i = (1 - exp(-2 lam_i)) / 2: stochastic noise here, and PEC's
noise realization and signed inverse sample in `pec`. q is the model's
`insertion_probabilities`; `insertion_table` gives its
(x_masks, z_masks, q) arrays, and `sample_insertions` maps a (B, g) block of
uniforms to each row's product of insertions and count.

Rate learning fits each probe's decay and solves A lam = b for lam >= 0,
where A is the probe-candidate anticommutation matrix, built in one
broadcast over the Pauli masks. `nnls` solves it in numpy, so no command
imports scipy.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .pauli import Observable, PauliString, format_pauli, parse_pauli
from .simulator import (
    DensityMatrix,
    Statevector,
    apply_pauli_array,
    expectation_array,
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
    `insertion_probabilities` holds q_i = (1 - exp(-2 lam_i)) / 2 per
    generator."""

    n_qubits: int
    generators: tuple[tuple[PauliString, float], ...]
    insertion_probabilities: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        merged: dict[tuple[int, int], float] = {}
        order = []
        for p, lam in self.generators:
            if p.n_qubits != self.n_qubits:
                raise ValueError("generator acts on wrong number of qubits")
            if p.is_identity:
                raise ValueError("identity generator is not allowed")
            if not np.isfinite(lam):
                raise ValueError("rates must be finite")
            if lam < 0:
                raise ValueError("rates must be nonnegative")
            key = (p.x_mask, p.z_mask)
            if key not in merged:
                merged[key] = 0.0
                order.append(key)
            merged[key] += float(lam)
        normalized = tuple(
            (PauliString(self.n_qubits, k[0], k[1]), merged[k]) for k in order
        )
        object.__setattr__(self, "generators", normalized)
        lam = np.array([merged[k] for k in order], dtype=float)
        q = (1.0 - np.exp(-2.0 * lam)) / 2.0
        q.flags.writeable = False
        object.__setattr__(self, "insertion_probabilities", q)

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


def insertion_table(model: PauliLindbladModel):
    """(x_masks, z_masks, q): generator i's X and Z masks as the int64 that
    pauli_gather indexes with, and its insertion probability q_i."""
    x_masks = np.array([p.x_mask for p, _ in model.generators], dtype=np.int64)
    z_masks = np.array([p.z_mask for p, _ in model.generators], dtype=np.int64)
    return x_masks, z_masks, model.insertion_probabilities


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


def stochastic_insertions(model: PauliLindbladModel, rng: np.random.Generator) -> list[PauliString]:
    """One channel realization: generator i is inserted when the i-th of
    len(generators) uniforms is below its insertion probability q_i."""
    hits = rng.random(len(model.generators)) < model.insertion_probabilities
    return [p for (p, _), hit in zip(model.generators, hits) if hit]


def apply_stochastic(
    state: Statevector, model: PauliLindbladModel, rng: np.random.Generator
) -> tuple[Statevector, list[PauliString]]:
    inserted = stochastic_insertions(model, rng)
    amps = state.amplitudes
    for p in inserted:
        amps = apply_pauli_array(amps, p)
    return Statevector(state.n_qubits, amps), inserted


def apply_exact(rho: DensityMatrix, model: PauliLindbladModel) -> DensityMatrix:
    if rho.n_qubits > 6:
        raise ValueError("exact channel application capped at 6 qubits")
    if rho.n_qubits != model.n_qubits:
        raise ValueError("state and model sizes differ")
    return DensityMatrix(rho.n_qubits, model.apply_to_matrix(rho.matrix))


def virtual_distillation_expectation(rho: DensityMatrix, obs: Observable) -> float:
    """Tr(O rho^2) / Tr(rho^2); for Hermitian rho, Tr(P rho^2) = <rho|P rho>."""
    purity = rho.purity()
    if purity < 1e-12:
        raise ValueError("state purity too small for virtual distillation")
    return expectation_array(rho.matrix, obs) / purity


# ---------------------------------------------------------------------------
# rate learning from decay data

DEFAULT_DEPTHS = (1, 2, 4, 8, 16)

_TWO_QUBIT_LABELS = (("X", "X"), ("Y", "Y"), ("Z", "Z"), ("X", "Z"), ("Z", "X"))


def default_probes(n_qubits: int, edges) -> list[PauliString]:
    """Weight-1 Paulis on every qubit plus weight-2 Paulis
    {XX, YY, ZZ, XZ, ZX} on every coupling-graph edge."""
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
    return probes


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
    +-1 measurement outcomes are sampled binomially (per-probe RNG stream).
    """
    data = {}
    for idx, q in enumerate(probes):
        f = pauli_fidelity(model, q)
        rng = philox_rng(seed, idx) if shots else None
        points = []
        for d in depths:
            value = f ** d
            if shots:
                k = rng.binomial(shots, (1.0 + value) / 2.0)
                value = 2.0 * k / shots - 1.0
            points.append((d, value))
        data[q] = points
    return data


def _mask_words(paulis, words: int) -> np.ndarray:
    """(len(paulis), 2, words) uint64: each Pauli's X and Z masks cut into
    64-bit words, lowest qubits first."""
    low = (1 << 64) - 1
    return np.array(
        [m >> 64 * w & low for p in paulis for m in (p.x_mask, p.z_mask) for w in range(words)],
        dtype=np.uint64,
    ).reshape(len(paulis), 2, words)


def anticommutation_matrix(probes, candidates) -> np.ndarray:
    """a[i, j] = 1.0 where probe i and candidate j anticommute, else 0.0: the
    parity of the symplectic product (x_q & z_p) ^ (z_q & x_p), as in
    `PauliString.commutes`, for all pairs in one broadcast."""
    sizes = {p.n_qubits for p in (*probes, *candidates)}
    if len(sizes) > 1:
        raise ValueError("Pauli strings act on different numbers of qubits")
    words = -(-max(sizes, default=1) // 64)
    q = _mask_words(probes, words)[:, None]
    p = _mask_words(candidates, words)[None, :]
    product = (q[:, :, 0] & p[:, :, 1]) ^ (q[:, :, 1] & p[:, :, 0])
    return (np.bitwise_count(product).sum(axis=-1) & 1).astype(float)


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
    dropped; a probe with fewer than two usable depths is an error.
    """
    probes = list(decay_data.keys())
    a = anticommutation_matrix(probes, candidates)
    rank = np.linalg.matrix_rank(a)
    if rank < len(candidates):
        _, sv, vt = np.linalg.svd(a)
        null = vt[rank:].T
        raise UnidentifiableModelError(null)
    b = np.zeros(len(probes))
    for i, q in enumerate(probes):
        usable = [(d, v) for d, v in decay_data[q] if v > 0.0]
        if len(usable) < 2:
            raise ValueError(
                "probe %s has fewer than 2 usable depths" % format_pauli(q)
            )
        ds = np.array([d for d, _ in usable], dtype=float)
        logs = np.log([v for _, v in usable])
        slope = float(ds @ logs) / float(ds @ ds)
        b[i] = -0.5 * slope
    rates, _ = nnls(a, b)
    misfit = a @ rates - b
    residuals = {q: float(misfit[i]) for i, q in enumerate(probes)}
    model = PauliLindbladModel(
        n_qubits,
        tuple((p, float(lam)) for p, lam in zip(candidates, rates)),
    )
    return model, residuals


def learn_rates_from_model(
    model: PauliLindbladModel,
    probes=None,
    candidates=None,
    depths=DEFAULT_DEPTHS,
    shots: int | None = None,
    seed: int = 0,
):
    """End-to-end learning round trip against a planted model."""
    n = model.n_qubits
    if probes is None or candidates is None:
        defaults = default_probes(n, line_edges(n))
        probes = defaults if probes is None else probes
        candidates = defaults if candidates is None else candidates
    data = synthesize_decay_data(model, probes, depths, shots=shots, seed=seed)
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
