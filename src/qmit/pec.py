"""Probabilistic error cancellation: quasi-probability channel inversion,
the sampled estimator, overhead and runtime cost models, and zero-noise
extrapolation.

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
inverse half's insertion count fixes its sign. The samples are evolved
together as the columns of one (2^n, B) amplitude array, with each layer's
insertions applied as one signed gather. B is set by AMPLITUDE_BUDGET; a
wider chunk is processed in consecutive row slices of the same uniform
block. Which worker runs a chunk therefore changes nothing in its result.

Pooled calls (workers > 1 and more than one chunk) share one process pool.
It starts on the first pooled call and then stays alive, so a process keeps
`workers` idle worker processes until it exits or a call asks for a
different worker count, which replaces the pool. Calls from several
threads take turns on it. A pool broken by a dead worker is dropped, and
the call that finds it broken runs once more on a fresh pool (chunks are
pure, so the values are the same); if that pool breaks too, the call fails.
A forked child drops the pool it inherits unused.
"""
from __future__ import annotations

import atexit
import os
import sys
import threading
from dataclasses import dataclass

import numpy as np

from .circuits import QuantumCircuit
from .noise import PauliLindbladModel, insertion_table, sample_insertions
from .pauli import Observable, PauliString
from .simulator import (
    DensityMatrix,
    Statevector,
    _apply_unitary,
    _check_statevector_size,
    apply_pauli_array,
    compile_ops,
    density_run,
    expectation_array,
    pauli_gather,
    philox_rng,
)

CHUNK_SIZE = 1024
AMPLITUDE_BUDGET = 2 ** 20  # amplitudes evolved at once: 16 MiB of complex128
MAX_ENUMERATED_GENERATORS = 10  # enumerate_signed walks 4^generators leaves: 2^20


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
        return float(np.exp(2.0 * self.model.total_rate))


def invert_channel(model: PauliLindbladModel) -> QuasiProbabilityDecomposition:
    entries = []
    for p, lam in model.generators:
        e = np.exp(2.0 * lam)
        entries.append((p, (1.0 + e) / 2.0, (1.0 - e) / 2.0))
    return QuasiProbabilityDecomposition(model, tuple(entries))


def gamma_total(per_layer_models) -> float:
    return float(np.exp(2.0 * sum(m.total_rate for m in per_layer_models)))


@dataclass(frozen=True)
class MitigatedEstimate:
    value: float
    std_error: float
    samples: int
    gamma_total: float
    mode: str


def per_layer(circuit: QuantumCircuit, per_layer_models) -> list:
    """One model per two-qubit layer of the circuit; a single
    PauliLindbladModel applies to every two-qubit layer."""
    count = len(circuit.two_qubit_layer_indices())
    if isinstance(per_layer_models, PauliLindbladModel):
        models = [per_layer_models] * count
    else:
        models = list(per_layer_models)
    if len(models) != count:
        raise ValueError("expected %d per-layer models, got %d" % (count, len(models)))
    if any(m.n_qubits != circuit.n_qubits for m in models):
        raise ValueError("circuit and noise model sizes differ")
    return models


def _compile(circuit: QuantumCircuit, per_layer_models):
    """[(ops, table)]: the fused gate ops of each segment that ends at a
    two-qubit (noisy) layer, with that layer's `insertion_table`; the last
    segment, after the final noisy layer, has table None."""
    tables = [insertion_table(model) for model in per_layer(circuit, per_layer_models)]
    return list(zip(compile_ops(circuit, circuit.two_qubit_layer_indices()), tables + [None]))


def _column_expectations(amps, p):
    """<psi_s|P|psi_s> for every column s of amps."""
    return np.einsum("ij,ij->j", amps.conj(), apply_pauli_array(amps, p))


def _sample_block(compiled, n, obs, mode, uniforms):
    """Signed records of len(uniforms) samples, evolved as the columns of
    one (2^n, B) array; row s of uniforms holds sample s's draws."""
    width = len(uniforms)
    amps = np.zeros((2 ** n, width), dtype=complex)
    amps[0] = 1.0
    sign = np.ones(width)
    col = 0
    for ops, table in compiled:
        for mat, qubits in ops:
            amps = _apply_unitary(amps, mat, qubits, n)
        if table is None:
            continue
        g = len(table[2])
        xn, zn, _ = sample_insertions(table, uniforms[:, col:col + g])  # noise realization
        xi, zi, count = sample_insertions(table, uniforms[:, col + g:col + 2 * g])  # signed inverse
        col += 2 * g
        sign *= 1.0 - 2.0 * (count & 1)
        amps = pauli_gather(amps, xn ^ xi, zn ^ zi)  # phase i^popcount(x & z) is global per sample
    total = np.zeros(width, dtype=complex)
    for t, (coeff, p) in enumerate(obs.terms):
        ev = _column_expectations(amps, p)
        if mode == "shot":  # one +-1 eigenvalue draw per observable term
            ev = np.where(uniforms[:, col + t] < (1.0 + ev.real) / 2.0, 1.0, -1.0)
        total += coeff * ev
    if np.any(np.abs(total.imag) > 1e-10):
        raise ValueError("expectation has non-negligible imaginary part")
    return sign * total.real


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


_pool = None  # (workers, ProcessPoolExecutor) shared by pooled calls
_pool_lock = threading.Lock()


def _pooled_map(chunks, workers: int):
    """_pec_chunk of every chunk on the shared pool, in chunk order."""
    global _pool
    from concurrent.futures import ProcessPoolExecutor  # only pooled runs pay its import
    from concurrent.futures.process import BrokenProcessPool

    with _pool_lock:
        if _pool is not None and _pool[0] != workers:
            _pool[1].shutdown()
            _pool = None
        for retry in (False, True):
            if _pool is None:
                _pool = (workers, ProcessPoolExecutor(max_workers=workers))
            try:
                return list(_pool[1].map(_pec_chunk, chunks))  # yielded in chunk order
            except BrokenProcessPool:
                # a worker died, perhaps while the pool sat idle
                _pool[1].shutdown()
                _pool = None
                if retry:
                    raise


def _shutdown_pool():
    """Stop the shared pool's workers at exit, while the modules its
    clean-up uses are still loaded."""
    global _pool
    with _pool_lock:
        pool, _pool = _pool, None
    if pool is not None:
        pool[1].shutdown()


def _forget_pool():
    """In a forked child: the inherited pool's threads and processes are
    the parent's, so drop the pool without a call on it, and the lock with
    it, which another parent thread may have held at the fork. Its workers
    also leave multiprocessing's list of this process's children, as in
    every child multiprocessing starts itself; its exit handler would
    otherwise try to join them."""
    global _pool, _pool_lock
    if _pool is not None:
        sys.modules["multiprocessing.process"]._children.clear()
    _pool, _pool_lock = None, threading.Lock()


atexit.register(_shutdown_pool)
os.register_at_fork(after_in_child=_forget_pool)


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
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if mode not in ("analytic", "shot"):
        raise ValueError("mode must be 'analytic' or 'shot'")
    n = circuit.n_qubits
    _check_statevector_size(n)
    per_layer_models = per_layer(circuit, per_layer_models)
    compiled = _compile(circuit, per_layer_models)
    gamma = gamma_total(per_layer_models)
    chunks = [(compiled, n, observable, mode, seed, start // CHUNK_SIZE,
               min(CHUNK_SIZE, samples - start))
              for start in range(0, samples, CHUNK_SIZE)]
    if workers > 1 and len(chunks) > 1:
        values = np.concatenate(_pooled_map(chunks, workers))
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
    """Exhaustive signed enumeration of every noise/inverse insertion
    pattern, weighted by its signed probability. Equals the noiseless
    expectation (estimator unbiasedness); exponential in generator count,
    so capped at MAX_ENUMERATED_GENERATORS over all noisy layers."""
    n = circuit.n_qubits
    _check_statevector_size(n)
    compiled = _compile(circuit, per_layer_models)
    if sum(len(table[2]) for _, table in compiled if table is not None) > MAX_ENUMERATED_GENERATORS:
        raise ValueError("enumerate_signed capped at %d generators (4^generators branches)"
                         % MAX_ENUMERATED_GENERATORS)

    def recurse(layer_idx, amps, weight):
        if layer_idx == len(compiled):
            return weight * expectation_array(amps, observable)
        ops, table = compiled[layer_idx]
        for mat, qubits in ops:
            amps = _apply_unitary(amps, mat, qubits, n)
        if table is None:
            return recurse(layer_idx + 1, amps, weight)
        x_masks, z_masks, q = table

        # branch over (noise inserted?, inverse inserted?) per generator;
        # inserting P twice is the identity, so each node applies P once
        def gen_branch(k, amps_k, w_k):
            if k == len(q):
                return recurse(layer_idx + 1, amps_k, w_k)
            q_ins = q[k]
            e2l = 1.0 - 2.0 * q_ins  # e^{-2 lam}
            a = (1.0 + 1.0 / e2l) / 2.0  # signed inverse weight, "do nothing"
            b = (1.0 - 1.0 / e2l) / 2.0  # signed inverse weight, "insert P"
            flipped = apply_pauli_array(
                amps_k, PauliString(n, int(x_masks[k]), int(z_masks[k])))
            sub = 0.0
            for noise_p, noise_amp, inverse_amp in ((1.0 - q_ins, amps_k, flipped),
                                                    (q_ins, flipped, amps_k)):
                sub += gen_branch(k + 1, noise_amp, w_k * noise_p * a)
                sub += gen_branch(k + 1, inverse_amp, w_k * noise_p * b)
            return sub

        return gen_branch(0, amps, weight)

    initial = np.zeros(2 ** n, dtype=complex)
    initial[0] = 1.0
    return float(recurse(0, initial, 1.0))


def sampling_overhead(per_layer_models, eps: float) -> float:
    """Circuit instances needed for precision eps: gamma_total^2 / eps^2."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    return gamma_total(per_layer_models) ** 2 / eps ** 2


def runtime_estimate(n: int, d: int, lambda_bar: float, beta: float) -> float:
    """Total runtime d * (e^{4 lambda_bar})^{d n} * beta in units of beta."""
    if n < 0 or d < 0 or lambda_bar < 0 or beta < 0:
        raise ValueError("inputs must be nonnegative")
    if beta == 0:
        return 0.0  # not inf * 0 = nan where the overhead factor overflows
    with np.errstate(over="ignore"):  # a cost beyond the float range is inf
        return float(d * np.exp(4.0 * lambda_bar) ** (d * n) * beta)


def overhead_table(
    n: int,
    trotter_steps_list,
    lambda_grid,
    eps: float = 1.0,
    layers_per_step: int = 2,
):
    """Required circuit instances per (steps, lambda) cell; lambda is the
    per-qubit per-layer average rate."""
    steps_list = list(trotter_steps_list)
    grid = list(lambda_grid)
    if not steps_list or not grid:
        raise ValueError("grids must be nonempty")
    if eps <= 0:
        raise ValueError("eps must be positive")
    rows = []
    for steps in steps_list:
        for lam in grid:
            d = layers_per_step * steps
            with np.errstate(over="ignore"):  # a count beyond the float range is inf
                instances = float(np.exp(4.0 * lam * d * n)) / eps ** 2
            rows.append({"lambda": lam, "steps": steps, "layers": d, "instances": instances})
    return rows


def noisy_expectation(
    circuit: QuantumCircuit, per_layer_models, observable: Observable
) -> float:
    """Exact (density-matrix) expectation with the channel applied after
    every two-qubit layer. `per_layer_models` follows `per_layer`."""
    channels = {
        i: model.apply_to_matrix
        for i, model in zip(circuit.two_qubit_layer_indices(),
                            per_layer(circuit, per_layer_models))
    }
    rho0 = DensityMatrix.from_statevector(Statevector.zero(circuit.n_qubits))
    rho = density_run(circuit, rho0, channels)
    return rho.expectation(observable)


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
    cs = _zne_factors(scale_factors, order)
    values = [noisy_expectation(circuit, model.scaled(c), observable) for c in cs]
    return _zne_intercept(cs, values, order)


def _zne_factors(scale_factors, order: int) -> list[float]:
    """The scale factors as floats, checked before any simulation."""
    cs = [float(c) for c in scale_factors]
    if len(set(cs)) != len(cs):
        raise ValueError("scale factors must be distinct")
    for c in cs:
        if not (np.isfinite(c) and c >= 1.0):
            raise ValueError("scale factor %r must be finite and >= 1" % c)
    if 1.0 not in cs:
        raise ValueError("scale factors must include 1")
    if len(cs) < order + 1:
        raise ValueError("need at least order + 1 scale factors")
    return cs


def _zne_intercept(cs, values, order: int) -> float:
    """c = 0 value of the degree-`order` polynomial fitted to (cs, values)."""
    coeffs = np.polyfit(cs, values, order)
    return float(np.polyval(coeffs, 0.0))
