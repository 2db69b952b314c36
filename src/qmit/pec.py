"""Probabilistic error cancellation: quasi-probability channel inversion,
the sampled estimator, its sampling overhead, and zero-noise extrapolation.
The closed-form instance and runtime cost models live in `resources`, which
needs no numpy, and are re-exported here.

ZNE's exact noisy expectation, `noisy_expectation`, runs once per scale
factor in the Pauli basis of `simulator`: a noisy layer is one multiply of
the 4^n Pauli coefficients by the channel's `pauli_fidelities`, and a gate is
its 4x4 or 16x16 Pauli-transfer matrix, not two passes over a 2^n x 2^n rho.
It checks the channels it applies, not a rebuilt rho. `simulator.density_run`
with `apply_to_matrix` stays as the tests' oracle.

Sampling is deterministic and worker-count independent: samples are split
into fixed-size chunks, chunk c draws from Philox stream (seed, c), and
chunk results are merged in chunk order.

A chunk is sampled as a whole. Every sample consumes a fixed number of
uniforms, so the chunk draws them as one (count, draws) Philox block whose
rows are exactly the numbers a sample-by-sample loop would draw. A row holds,
for each noisy layer in circuit order, one uniform per generator for the
noise realization and then one per generator for the signed inverse sample,
and in shot mode one more per observable term at the end. Both halves of a
layer go through `noise.sample_insertions` on the layer's
`noise.insertion_table`; their XOR is the Pauli the sample applies, and the
inverse half's insertion count fixes its sign. A sample's state depends
only on the Paulis it applied so far, and most samples share them, so a
block of B samples evolves one column per distinct insertion prefix. It
draws every layer's Paulis first and sorts the samples once by history,
first noisy layer first, so samples that share a prefix are contiguous at
every layer. Starting from one column, at each noisy layer each new prefix
becomes a column of the next (2^n, <= B) amplitude array, in (parent
column, Pauli) order, made by one signed gather. The observable is read
once per final column. B is set by AMPLITUDE_BUDGET; a wider chunk is
processed in consecutive row slices of the same uniform block. The columns
are a function of the slice's uniforms alone, so which worker runs a chunk
changes nothing in its result.

`enumerate_signed` runs the same `_sample_block` on rows that are not
random: one row per insertion pattern, with 0.0 where the pattern inserts
the generator and 1.0 where it does not. Weighing each record by its
pattern's probability gives the estimator's exact mean, which is the
noiseless value when the sampler's insertions and signs are right. Patterns
whose insertions multiply to the same Paulis share their columns there too.

Pooled calls (workers > 1 and more than one chunk) run the chunks on a
thread pool opened and closed inside the call. A chunk's numpy calls
release the GIL, so threads overlap without starting processes or pickling
the compiled circuit. Each running thread holds one block of up to
AMPLITUDE_BUDGET amplitudes, so `workers` is capped at MAX_WORKERS. A chunk
that raises fails the call with its own exception, and the chunks not yet
started are cancelled.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import MAX_SAMPLES, MAX_WORKERS
from .circuits import QuantumCircuit
from .noise import PauliLindbladModel, insertion_table, pauli_fidelities, sample_insertions
from .pauli import Observable, PauliString
from .resources import overhead_table, runtime_estimate  # re-exported
from .resources import pec_instances
from .simulator import (
    _apply_unitary,
    _check_density_size,
    _check_statevector_size,
    _fold_ops,
    apply_pauli_array,
    compile_ops,
    density_run,  # unused here; qbench/layers.py patches pec.density_run
    pauli_gather,
    pauli_transfer,
    philox_rng,
)

CHUNK_SIZE = 1024
AMPLITUDE_BUDGET = 2 ** 20  # amplitudes evolved at once: 16 MiB of complex128
MAX_ENUMERATED_GENERATORS = 10  # enumerate_signed runs 4^generators patterns: 2^20


@dataclass(frozen=True)
class QuasiProbabilityDecomposition:
    """Signed inverse of a Pauli-Lindblad channel.

    Per generator: weight a_i = (1 + e^{2 lam}) / 2 for "do nothing" and
    b_i = (1 - e^{2 lam}) / 2 <= 0 for "insert P_i"; a_i + b_i = 1 and
    gamma_i = |a_i| + |b_i| = e^{2 lam}.
    """

    model: PauliLindbladModel
    entries: tuple[tuple[PauliString, float, float], ...]  # (pauli, a, b)

    @property
    def gamma_total(self) -> float:
        return gamma_total([self.model])


def invert_channel(model: PauliLindbladModel) -> QuasiProbabilityDecomposition:
    entries = []
    for p, lam in model.generators:
        e = np.exp(2.0 * lam)
        entries.append((p, (1.0 + e) / 2.0, (1.0 - e) / 2.0))
    return QuasiProbabilityDecomposition(model, tuple(entries))


def gamma_total(per_layer_models) -> float:
    """e^(2 x the models' summed total rate); inf beyond the float range."""
    with np.errstate(over="ignore"):
        return float(np.exp(2.0 * sum(m.total_rate for m in per_layer_models)))


def _finite_gamma(models: list) -> float:
    """`gamma_total` of models, refused where it is beyond the float range:
    the estimate would be inf or nan however many samples were drawn."""
    gamma = gamma_total(models)
    if gamma == np.inf:
        raise ValueError("gamma_total = e^(2 x total rate) is beyond the float range")
    return gamma


@dataclass(frozen=True)
class MitigatedEstimate:
    value: float
    std_error: float
    samples: int
    gamma_total: float
    mode: str


def per_layer(circuit: QuantumCircuit, per_layer_models) -> list:
    """One model per two-qubit layer of the circuit; a single
    PauliLindbladModel applies to every two-qubit layer, and its size is
    checked even when the circuit has none."""
    count = len(circuit.two_qubit_layer_indices())
    single = isinstance(per_layer_models, PauliLindbladModel)
    models = [per_layer_models] if single else list(per_layer_models)
    if not single and len(models) != count:
        raise ValueError("expected %d per-layer models, got %d" % (count, len(models)))
    if any(m.n_qubits != circuit.n_qubits for m in models):
        raise ValueError("circuit and noise model sizes differ")
    return models * count if single else models


def _checked_models(circuit, per_layer_models, observable: Observable, check_size) -> list:
    """Every estimator's input checks, in this order: `check_size` on the
    qubit count, the observable's size, then `per_layer`, whose list it returns."""
    check_size(circuit.n_qubits)
    if observable.n_qubits != circuit.n_qubits:
        raise ValueError("circuit and observable sizes differ")
    return per_layer(circuit, per_layer_models)


def _compile(circuit: QuantumCircuit, models: list):
    """[(ops, table)]: the fused gate ops of each segment that ends at a
    two-qubit (noisy) layer, with that layer's `insertion_table`; the last
    segment, after the final noisy layer, has table None. `models` is the
    list `per_layer` returns."""
    tables = [insertion_table(model) for model in models]
    return list(zip(compile_ops(circuit, circuit.two_qubit_layer_indices()), tables + [None]))


def _column_expectations(amps, p):
    """<psi_s|P|psi_s> for every column s of amps."""
    return np.einsum("ij,ij->j", amps.conj(), apply_pauli_array(amps, p))


def _sample_block(compiled, n, obs, mode, uniforms):
    """Signed records of len(uniforms) samples; row s of uniforms holds
    sample s's draws. The block evolves a prefix tree: one column per
    distinct history of (x, z) masks so far, never more than the samples.
    The samples are sorted once by history, so those that share a prefix
    are contiguous at every noisy layer."""
    width = len(uniforms)
    sign = np.ones(width)
    # row l: each sample's XOR'd Pauli at noisy layer l, as the code
    # x | z << n, which needs 2n <= 48 bits (n <= MAX_STATEVECTOR_QUBITS)
    codes = np.empty((len(compiled) - 1, width), dtype=np.int64)
    col = 0
    for l, (_, table) in enumerate(compiled[:-1]):
        g = len(table[2])
        xn, zn, _ = sample_insertions(table, uniforms[:, col:col + g])  # noise realization
        xi, zi, count = sample_insertions(table, uniforms[:, col + g:col + 2 * g])  # signed inverse
        col += 2 * g
        sign *= 1.0 - 2.0 * (count & 1)
        codes[l] = (xn ^ xi) | (zn ^ zi) << n
    # np.lexsort's last key is its primary one, and it refuses zero keys
    order = np.lexsort(codes[::-1]) if len(codes) else np.arange(width)
    amps = np.zeros((2 ** n, 1), dtype=complex)
    amps[0] = 1.0
    column = np.zeros(width, dtype=np.int64)  # sorted sample i evolves in column[i]
    new = np.zeros(width, dtype=bool)  # sorted sample i starts a prefix
    new[0] = True
    for l, (ops, table) in enumerate(compiled):
        for mat, qubits in ops:
            amps = _apply_unitary(amps, mat, qubits, n)
        if table is None:
            continue
        # the prefixes come out in (parent column, code) order
        s = codes[l][order]
        new[1:] |= s[1:] != s[:-1]
        first = np.flatnonzero(new)
        code = s[first]
        # phase i^popcount(x & z) is global per column
        amps = pauli_gather(amps[:, column[first]], code & (1 << n) - 1, code >> n)
        column = np.cumsum(new) - 1
    leaf = np.empty(width, dtype=np.int64)  # sample s evolves in column leaf[s]
    leaf[order] = column
    total = np.zeros(width)
    for t, (coeff, p) in enumerate(obs.terms):
        ev = _column_expectations(amps, p)[leaf]
        if mode == "shot":  # one +-1 eigenvalue draw per sample and observable term
            ev = np.where(uniforms[:, col + t] < (1.0 + ev.real) / 2.0, 1.0, -1.0)
        total += coeff * ev.real  # O is Hermitian: the imaginary part is rounding
    return sign * total


def _pec_chunk(args):
    compiled, n, obs, mode, seed, chunk_index, count = args
    rng = philox_rng(seed, chunk_index)
    draws = sum(2 * len(table[2]) for _, table in compiled if table is not None)
    if mode == "shot":
        draws += len(obs.terms)
    uniforms = rng.random((count, draws))
    width = max(1, AMPLITUDE_BUDGET >> n)
    out = np.empty(count)
    for start in range(0, count, width):
        stop = min(start + width, count)
        out[start:stop] = _sample_block(compiled, n, obs, mode, uniforms[start:stop])
    return out


def pec_estimate(
    circuit: QuantumCircuit,
    per_layer_models,
    observable: Observable,
    samples: int,
    seed: int,
    mode: str = "analytic",
    workers: int = 1,
) -> MitigatedEstimate:
    """Unbiased PEC estimator: gamma_total times the mean of signed
    per-sample observable records. `per_layer_models` follows `per_layer`."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if samples > MAX_SAMPLES:
        raise ValueError("samples capped at %d, got %d" % (MAX_SAMPLES, samples))
    if not 1 <= workers <= MAX_WORKERS:
        raise ValueError("workers must be >= 1 and <= %d, got %r" % (MAX_WORKERS, workers))
    if mode not in ("analytic", "shot"):
        raise ValueError("mode must be 'analytic' or 'shot'")
    n = circuit.n_qubits
    models = _checked_models(circuit, per_layer_models, observable, _check_statevector_size)
    gamma = _finite_gamma(models)
    compiled = _compile(circuit, models)
    chunks = [(compiled, n, observable, mode, seed, start // CHUNK_SIZE,
               min(CHUNK_SIZE, samples - start))
              for start in range(0, samples, CHUNK_SIZE)]
    if workers > 1 and len(chunks) > 1:
        from concurrent.futures import ThreadPoolExecutor  # only pooled runs pay its import
        # numpy loads numpy.random lazily, and it imports hashlib, which starts
        # OpenSSL; loaded from a worker, OpenSSL's exit handler for that thread
        # can hold its lock after this call returns, and a fork then copies the
        # lock held, so the forked child hangs in exit()
        import numpy.random  # noqa: F401

        with ThreadPoolExecutor(min(workers, len(chunks))) as pool:
            values = np.concatenate(list(pool.map(_pec_chunk, chunks)))  # in chunk order
    else:
        values = np.concatenate([_pec_chunk(c) for c in chunks])
    mean = float(values.mean())
    if samples > 1:
        std = float(values.std(ddof=1))
        std_error = float(gamma * std / np.sqrt(samples))
    else:
        std_error = 0.0
    return MitigatedEstimate(
        value=gamma * mean,
        std_error=std_error,
        samples=samples,
        gamma_total=gamma,
        mode=mode,
    )


def enumerate_signed(
    circuit: QuantumCircuit, per_layer_models, observable: Observable
) -> float:
    """Exact mean of `pec_estimate`'s analytic estimator: gamma_total times
    `_sample_block`'s records over every noise/inverse insertion pattern,
    each weighted by its probability. Equals the noiseless expectation
    (estimator unbiasedness). The 4^generators patterns are fed in blocks of
    up to CHUNK_SIZE rows, each evolving one column per distinct Pauli
    prefix; the pattern count is still exponential in generator count, so it
    is capped at MAX_ENUMERATED_GENERATORS over all noisy layers."""
    n = circuit.n_qubits
    models = _checked_models(circuit, per_layer_models, observable, _check_statevector_size)
    gamma = _finite_gamma(models)
    compiled = _compile(circuit, models)
    # the insertion probability of each uniform in a row: per noisy layer,
    # the noise half and then the inverse half
    q = np.array([qi for _, table in compiled if table is not None
                  for qi in (*table[2], *table[2])])
    if len(q) > 2 * MAX_ENUMERATED_GENERATORS:
        raise ValueError("enumerate_signed capped at %d generators (4^generators branches)"
                         % MAX_ENUMERATED_GENERATORS)
    patterns = 1 << len(q)
    width = min(CHUNK_SIZE, max(1, AMPLITUDE_BUDGET >> n))
    total = 0.0
    for start in range(0, patterns, width):
        # bit j set: uniform j is 0.0, which inserts its generator
        bits = np.arange(start, min(start + width, patterns))[:, None] >> np.arange(len(q)) & 1
        weights = np.where(bits, q, 1.0 - q).prod(axis=1)
        total += weights @ _sample_block(compiled, n, observable, "analytic", 1.0 - bits)
    return float(gamma * total)


def sampling_overhead(per_layer_models, eps: float) -> float:
    """Circuit instances needed for precision eps: `pec_instances` of
    gamma_total^2, which is inf beyond the float range."""
    try:
        gamma_squared = gamma_total(per_layer_models) ** 2
    except OverflowError:
        gamma_squared = np.inf
    return pec_instances(gamma_squared, eps)


def noisy_expectation(
    circuit: QuantumCircuit, per_layer_models, observable: Observable
) -> float:
    """Exact expectation with the channel applied after every two-qubit
    layer. `per_layer_models` follows `per_layer`.

    The state is held as its 4^n real Pauli coefficients c_Q = Tr(Q rho),
    indexed x | z << n, from |0><0|, where c_Q = 1 for every Q with x = 0.
    Each 1q or 2q op (`simulator._fold_ops`, never wider) applies its
    `pauli_transfer` matrix through `_apply_unitary`, and each noisy layer
    multiplies c by its model's `pauli_fidelities`, built once per distinct
    model. Tr(O rho) is the sum of coeff * c_Q over O's terms, in term order.
    Real coefficients make rho Hermitian, and the final c_I must be 1 within
    1e-10. Each channel must be completely positive: its Pauli error
    probabilities, the eigenvalues of its Choi state, must be >= -1e-9 (the
    `DensityMatrix` PSD bound). They are the Walsh-Hadamard transform of its
    fidelities over the 2n index bits, over 4^n, with the x and z halves of
    the index swapped, which leaves their minimum as it is. No rho is built."""
    n = circuit.n_qubits
    models = _checked_models(circuit, per_layer_models, observable, _check_density_size)
    fidelities: dict = {}
    coeffs = np.zeros(1 << 2 * n)
    coeffs[::1 << n] = 1.0
    for ops, model in zip(_fold_ops(circuit, circuit.two_qubit_layer_indices()),
                          models + [None]):
        for u, qubits in ops:
            coeffs = _apply_unitary(coeffs, pauli_transfer(u),
                                    (*qubits, *(q + n for q in qubits)), 2 * n)
        if model is not None:
            if model not in fidelities:
                fidelities[model] = pauli_fidelities(model)
            coeffs *= fidelities[model]
    if not abs(coeffs[0] - 1.0) <= 1e-10:
        raise ValueError("noisy state trace is not 1")
    for f in fidelities.values():
        probabilities = np.array(f, dtype=float)  # transformed in place: 2n butterflies
        for k in range(2 * n):
            v = probabilities.reshape(-1, 2, 1 << k)
            diff = v[:, 0] - v[:, 1]
            v[:, 0] += v[:, 1]
            v[:, 1] = diff
        if not probabilities.min() / 4 ** n >= -1e-9:
            raise ValueError("noise channel is not completely positive: "
                             "its Choi density matrix has a negative eigenvalue")
    return float(sum(coeff * coeffs[p.x_mask | p.z_mask << n] for coeff, p in observable.terms))


def zne_estimate(
    circuit: QuantumCircuit,
    model: PauliLindbladModel,
    observable: Observable,
    scale_factors=(1.0, 2.0, 3.0),
    order: int = 1,
) -> float:
    """Richardson-style extrapolation: evaluate the noisy expectation with
    all rates scaled by c, fit a degree-`order` polynomial in c, return the
    c = 0 intercept."""
    return _zne(circuit, model, observable, scale_factors, order)[2]


def _zne(circuit, model, observable, scale_factors, order: int):
    """(factors, values, intercept) of `zne_estimate`: one `noisy_expectation` per factor."""
    cs = _zne_factors(scale_factors, order)
    values = [noisy_expectation(circuit, model.scaled(c), observable) for c in cs]
    return cs, values, _zne_intercept(cs, values, order)


def _zne_factors(scale_factors, order: int) -> list[float]:
    """The scale factors as floats, checked before any simulation."""
    if order < 0:
        raise ValueError("order %r must be >= 0" % order)
    cs = [float(c) for c in scale_factors]
    if len(set(cs)) != len(cs):
        raise ValueError("scale factors must be distinct")
    # np.polyfit divides each Vandermonde column by its norm, sqrt(sum c^(2 order))
    limit = (np.finfo(float).max / len(cs)) ** (0.5 / order) if order > 0 else np.inf
    for c in cs:
        if not (np.isfinite(c) and c >= 1.0):
            raise ValueError("scale factor %r must be finite and >= 1" % c)
        if c > limit:
            raise ValueError("scale factor %r overflows a degree-%d fit" % (c, order))
    if 1.0 not in cs:
        raise ValueError("scale factors must include 1")
    if len(cs) < order + 1:
        raise ValueError("need at least order + 1 scale factors")
    # np.polyfit's own rank test: its column-scaled Vandermonde matrix at its rcond
    lhs = np.vander(cs, order + 1)
    lhs /= np.sqrt((lhs * lhs).sum(axis=0))
    if np.linalg.lstsq(lhs, np.zeros(len(cs)), len(cs) * np.finfo(float).eps)[2] <= order:
        raise ValueError("scale factors %s make a rank-deficient degree-%d fit" % (cs, order))
    return cs


def _zne_intercept(cs, values, order: int) -> float:
    """c = 0 value of the degree-`order` polynomial fitted to (cs, values)."""
    coeffs = np.polyfit(cs, values, order)
    return float(np.polyval(coeffs, 0.0))
