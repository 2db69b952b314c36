import itertools
import multiprocessing
import os
import subprocess
import sys
import threading
import warnings
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from conftest import (
    bell_circuit,
    benchmark_circuit,
    benchmark_model,
    benchmark_observable,
)
from qmit.circuits import Gate, Layer, QuantumCircuit
from qmit.noise import PauliLindbladModel, insertion_table, sample_insertions
from qmit.pauli import Observable, PauliString, parse_pauli
from qmit import pec
from qmit.pec import (
    enumerate_signed,
    gamma_total,
    invert_channel,
    noisy_expectation,
    overhead_table,
    pec_estimate,
    runtime_estimate,
    sampling_overhead,
    zne_estimate,
)
from qmit.simulator import (
    _apply_unitary,
    apply_pauli_array,
    expectation,
    expectation_array,
    gate_matrix,
    pauli_gather,
    philox_rng,
    run,
)


def two_layer_instance():
    circuit = QuantumCircuit(2, [
        Layer([Gate("ry", (0,), 0.8), Gate("ry", (1,), -0.3)]),
        Layer([Gate("cx", (0, 1))]),
        Layer([Gate("rz", (0,), 0.5)]),
        Layer([Gate("cx", (1, 0))]),
    ])
    model = PauliLindbladModel(2, ((parse_pauli("XI"), 0.05),
                                   (parse_pauli("ZY"), 0.03)))
    return circuit, [model, model]


def test_invert_channel_weights():
    model = PauliLindbladModel(2, ((parse_pauli("XI"), 0.05),))
    decomp = invert_channel(model)
    (p, a, b), = decomp.entries
    e = np.exp(2 * 0.05)
    assert a == pytest.approx((1 + e) / 2)
    assert b == pytest.approx((1 - e) / 2)
    assert a + b == pytest.approx(1.0)
    assert abs(a) + abs(b) == pytest.approx(e)
    assert decomp.gamma_total == pytest.approx(e)


def test_inverse_composed_with_channel_is_identity():
    """Dense superoperator check: applying the channel then its signed
    inverse (expanded exactly) reproduces any input matrix."""
    model = PauliLindbladModel(2, ((parse_pauli("XY"), 0.07),
                                   (parse_pauli("ZI"), 0.04)))
    decomp = invert_channel(model)
    rng = np.random.default_rng(0)
    mat = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    out = model.apply_to_matrix(mat)
    # signed inverse: per generator, a * id + b * conjugation by P
    from qmit.simulator import pauli_matrix
    for p, a, b in decomp.entries:
        pm = pauli_matrix(p)
        out = a * out + b * (pm @ out @ pm.conj().T)
    assert np.abs(out - mat).max() < 1e-10


def test_gamma_total_law():
    models = [benchmark_model(0.05)] * 4
    assert gamma_total(models) == pytest.approx(np.exp(2 * 0.2), abs=1e-12)


def test_enumerate_signed_unbiased():
    circuit, models = two_layer_instance()
    obs = Observable.from_label("ZZ")
    ideal = expectation(run(circuit), obs)
    assert abs(enumerate_signed(circuit, models, obs) - ideal) < 1e-10


def test_zero_noise_single_sample_is_exact():
    circuit = bell_circuit()
    model = PauliLindbladModel(2, ((parse_pauli("XI"), 0.0),))
    est = pec_estimate(circuit, [model], Observable.from_label("ZZ"),
                       samples=1, seed=3)
    assert est.value == pytest.approx(1.0)
    assert est.gamma_total == pytest.approx(1.0)


def test_model_count_mismatch():
    circuit = bell_circuit()
    with pytest.raises(ValueError):
        pec_estimate(circuit, [], Observable.from_label("ZZ"), samples=10, seed=0)


def test_pec_deterministic_across_workers():
    circuit, models = two_layer_instance()
    obs = Observable.from_label("ZZ")
    a = pec_estimate(circuit, models, obs, samples=3000, seed=7, workers=1)
    b = pec_estimate(circuit, models, obs, samples=3000, seed=7, workers=4)
    assert a == b


def test_pec_shot_mode_runs():
    circuit, models = two_layer_instance()
    obs = Observable.from_label("ZZ")
    est = pec_estimate(circuit, models, obs, samples=5000, seed=1, mode="shot")
    ideal = expectation(run(circuit), obs)
    assert abs(est.value - ideal) < 5 * est.std_error + 0.05


def noisy_trajectory_values(circuit, model, obs, samples, seed):
    """Monte-Carlo analytic values of the *noisy* circuit (no inverse). Row s
    of one Philox block holds sample s's uniforms, one per generator of each
    noisy layer in circuit order; the samples are evolved together as the
    columns of one (2^n, samples) block."""
    compiled = pec._compile(circuit, model)
    n = circuit.n_qubits
    draws = sum(len(table[2]) for _, table in compiled if table is not None)
    uniforms = philox_rng(seed).random((samples, draws))
    amps = np.zeros((2 ** n, samples), dtype=complex)
    amps[0] = 1.0
    col = 0
    for ops, table in compiled:
        for mat, qubits in ops:
            amps = _apply_unitary(amps, mat, qubits, n)
        if table is None:
            continue
        g = len(table[2])
        x, z, _ = sample_insertions(table, uniforms[:, col:col + g])
        col += g
        amps = pauli_gather(amps, x, z)  # the dropped phase is global per sample
    values = sum(coeff * pec._column_expectations(amps, p) for coeff, p in obs.terms)
    return values.real


def test_noisy_expectation_matches_stochastic_average():
    circuit, models = two_layer_instance()
    obs = Observable.from_label("ZZ")
    noisy = noisy_expectation(circuit, models, obs)
    vals = noisy_trajectory_values(circuit, models[0], obs, 20000, seed=123)
    assert abs(vals.mean() - noisy) < 5 * vals.std(ddof=1) / np.sqrt(len(vals))


def test_noisy_expectation_broadcast_single_model():
    circuit, models = two_layer_instance()
    obs = Observable.from_label("ZZ")
    assert noisy_expectation(circuit, models[0], obs) == pytest.approx(
        noisy_expectation(circuit, models, obs))
    assert pec_estimate(circuit, models[0], obs, samples=500, seed=2) == pec_estimate(
        circuit, models, obs, samples=500, seed=2)
    with pytest.raises(ValueError, match="per-layer models"):
        noisy_expectation(circuit, models[:1], obs)


# -- batched chunk sampler against the sample-by-sample reference -------------

def reference_sample(compiled, n, obs, mode, rng):
    """One PEC sample drawn and evolved on its own: the sampler the batched
    chunk must reproduce."""
    amps = np.zeros(2 ** n, dtype=complex)
    amps[0] = 1.0
    sign = 1.0
    for ops, table in compiled:
        for mat, qubits in ops:
            amps = _apply_unitary(amps, mat, qubits, n)
        if table is None:
            continue
        x_masks, z_masks, q = table
        g = len(q)
        draws = rng.random(2 * g)
        x = z = 0
        for k in range(g):
            if draws[k] < q[k]:  # stochastic noise realization
                x ^= int(x_masks[k])
                z ^= int(z_masks[k])
            if draws[g + k] < q[k]:  # signed inverse sample
                x ^= int(x_masks[k])
                z ^= int(z_masks[k])
                sign = -sign
        if x or z:
            amps = apply_pauli_array(amps, PauliString(n, x, z))
    if mode == "analytic":
        return sign * expectation_array(amps, obs)
    value = 0.0
    for coeff, p in obs.terms:
        ev = float(np.vdot(amps, apply_pauli_array(amps, p)).real)
        outcome = 1.0 if rng.random() < (1.0 + ev) / 2.0 else -1.0
        value += coeff * outcome
    return sign * value


def reference_values(circuit, models, obs, samples, seed, mode, compiler=pec._compile):
    compiled = compiler(circuit, models)
    values = []
    for start in range(0, samples, pec.CHUNK_SIZE):
        rng = philox_rng(seed, start // pec.CHUNK_SIZE)
        for _ in range(min(pec.CHUNK_SIZE, samples - start)):
            values.append(reference_sample(compiled, circuit.n_qubits, obs, mode, rng))
    return np.array(values)


def unfused_compile(circuit, models):
    """Per-layer gate ops, one gate_matrix per gate, with each noisy layer's
    insertion table: the compile before fusion, as an independent reference."""
    model_for_layer = dict(zip(circuit.two_qubit_layer_indices(),
                               pec.per_layer(circuit, models)))
    compiled = []
    for i, layer in enumerate(circuit.layers):
        table = insertion_table(model_for_layer[i]) if i in model_for_layer else None
        compiled.append(([(gate_matrix(g), g.qubits) for g in layer.gates], table))
    return compiled


def batched_values(circuit, models, obs, samples, seed, mode):
    compiled = pec._compile(circuit, models)
    chunks = [pec._pec_chunk((compiled, circuit.n_qubits, obs, mode, seed, c,
                              min(pec.CHUNK_SIZE, samples - start)))
              for c, start in enumerate(range(0, samples, pec.CHUNK_SIZE))]
    return np.concatenate(chunks)


def wide_instance(n):
    """Layered brickwork on n qubits with weight-1 and weight-2 generators
    (including Y factors, so insertions carry phases) and a two-term
    observable."""
    rng = np.random.default_rng(n)
    layers = []
    for r in range(3):
        layers.append(Layer([Gate("ry", (q,), float(rng.uniform(-np.pi, np.pi)))
                             for q in range(n)]))
        layers.append(Layer([Gate("cx", (q, q + 1)) for q in range(r % 2, n - 1, 2)]))
    circuit = QuantumCircuit(n, layers)
    labels = ["X", "Y", "Z"]
    gens = []
    for q in range(n - 1):
        a, b = labels[q % 3], labels[(q + 1) % 3]
        gens.append((parse_pauli("I" * q + a + "I" * (n - q - 1)), 0.03))
        gens.append((parse_pauli("I" * q + a + b + "I" * (n - q - 2)), 0.02))
    model = PauliLindbladModel(n, tuple(gens))
    obs = Observable.from_terms(n, [
        (0.75, parse_pauli("Z" + "I" * (n - 2) + "Z")),
        (-0.5, parse_pauli("X" + "Y" + "I" * (n - 2))),
    ])
    return circuit, [model] * len(circuit.two_qubit_layer_indices()), obs


@pytest.mark.parametrize("n, samples", [
    (4, pec.CHUNK_SIZE + 37),  # a full chunk and a partial one
    (12, 300),  # the amplitude budget splits the chunk into row slices
])
def test_batched_chunks_match_reference(n, samples):
    assert n < 12 or pec.AMPLITUDE_BUDGET >> n < samples
    circuit, models, obs = wide_instance(n)
    shot = batched_values(circuit, models, obs, samples, 17, "shot")
    assert np.array_equal(shot, reference_values(circuit, models, obs, samples, 17, "shot"))
    analytic = batched_values(circuit, models, obs, samples, 17, "analytic")
    reference = reference_values(circuit, models, obs, samples, 17, "analytic")
    assert np.abs(analytic - reference).max() < 1e-12
    assert np.unique(analytic).size > 1  # insertions actually happened


@pytest.mark.parametrize("n", [3, 5])
def test_fused_samples_match_the_unfused_compile(n):
    circuit, models, obs = wide_instance(n)
    # a 1q layer absorbed by a reversed cx in one more noisy layer, then 1q
    # gates after the last noisy layer
    circuit = circuit.concat(QuantumCircuit(n, [
        Layer([Gate("rx", (q,), 0.3 + q) for q in range(n)]),
        Layer([Gate("cx", (1, 0))]),
        Layer([Gate("h", (0,)), Gate("s", (1,))]),
    ]))
    models = models + models[:1]
    compiled = pec._compile(circuit, models)
    assert sum(len(ops) for ops, _ in compiled) < circuit.gate_count()
    assert [table is not None for _, table in compiled] == [True] * len(models) + [False]
    samples = 300
    fused = batched_values(circuit, models, obs, samples, 5, "analytic")
    unfused = reference_values(circuit, models, obs, samples, 5, "analytic",
                               compiler=unfused_compile)
    assert np.abs(fused - unfused).max() < 1e-12
    assert np.unique(unfused).size > 1


def test_batched_estimate_matches_reference():
    circuit, models, obs = wide_instance(4)
    samples = pec.CHUNK_SIZE + 5
    gamma = gamma_total(models)
    for mode in ("analytic", "shot"):
        est = pec_estimate(circuit, models, obs, samples, seed=29, mode=mode)
        values = reference_values(circuit, models, obs, samples, 29, mode)
        assert est.value == pytest.approx(gamma * values.mean(), abs=1e-12)
        assert est.std_error == pytest.approx(
            gamma * values.std(ddof=1) / np.sqrt(samples), abs=1e-12)
        if mode == "shot":
            assert est.value == gamma * float(values.mean())


def test_pec_rejects_oversized_circuit_before_allocating():
    circuit = QuantumCircuit(40, [Layer([Gate("cx", (0, 1))])])
    model = PauliLindbladModel(40, ((PauliString.single(40, 0, "X"), 0.01),))
    with pytest.raises(ValueError, match="capped"):
        pec_estimate(circuit, model, Observable.from_label("Z" * 40), samples=1, seed=0)


def test_pooled_chunks_are_merged_in_chunk_order(monkeypatch):
    # chunks of 5 samples: the rounding of the mean and standard deviation
    # then tells every merge order of the 4 chunks apart
    monkeypatch.setattr(pec, "CHUNK_SIZE", 5)
    circuit, models, obs = wide_instance(3)
    samples, seed = 19, 1
    compiled = pec._compile(circuit, models)
    chunks = [pec._pec_chunk((compiled, 3, obs, "analytic", seed, c, min(5, samples - start)))
              for c, start in enumerate(range(0, samples, 5))]

    def stats(order):
        values = np.concatenate([chunks[c] for c in order])
        return float(values.mean()), float(values.std(ddof=1))

    in_order = stats((0, 1, 2, 3))
    assert all(stats(order) != in_order
               for order in itertools.permutations(range(4)) if order != (0, 1, 2, 3))
    pooled = pec_estimate(circuit, models, obs, samples, seed, workers=4)
    assert pooled == pec_estimate(circuit, models, obs, samples, seed, workers=1)
    gamma = gamma_total(models)
    assert pooled.value == gamma * in_order[0]
    assert pooled.std_error == float(gamma * in_order[1] / np.sqrt(samples))


def test_enumerate_signed_rejects_oversized_circuit_before_allocating():
    circuit = QuantumCircuit(40, [Layer([Gate("cx", (0, 1))])])
    model = PauliLindbladModel(40, ((PauliString.single(40, 0, "X"), 0.01),))
    with pytest.raises(ValueError, match="statevector capped"):
        enumerate_signed(circuit, model, Observable.from_label("Z" * 40))


def test_sampling_overhead():
    models = [benchmark_model(0.05)] * 4
    g = gamma_total(models)
    assert sampling_overhead(models, 0.01) == pytest.approx(g * g / 1e-4)
    with pytest.raises(ValueError):
        sampling_overhead(models, 0.0)


def test_runtime_estimate_values():
    # d * e^(4 lambda d n) * beta
    assert runtime_estimate(100, 100, 1e-4, 1e-3) == pytest.approx(
        100 * np.exp(4.0) * 1e-3, rel=1e-3)
    assert runtime_estimate(50, 20, 0.0, 2.0) == pytest.approx(40.0)
    with pytest.raises(ValueError):
        runtime_estimate(-1, 1, 0.1, 1.0)


def test_cost_models_overflow_to_inf_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert runtime_estimate(10 ** 8, 10 ** 8, 1e-3, 1.0) == np.inf
        assert runtime_estimate(10 ** 8, 10 ** 8, 1e-3, 0.0) == 0.0
        (row,) = overhead_table(10 ** 8, [10 ** 8], [1e-3])
        assert row["instances"] == np.inf
        (row,) = overhead_table(10 ** 8, [10 ** 8], [0.0], eps=1e-3)
        assert row["instances"] == pytest.approx(1e6)


def test_overhead_table_crossing():
    rows = overhead_table(100, [100], [1e-4, 2.3e-4, 3e-4])
    by_lam = {r["lambda"]: r["instances"] for r in rows}
    assert by_lam[1e-4] < 1e8
    assert by_lam[3e-4] > 1e8
    assert all(r["layers"] == 200 for r in rows)


def test_zne_validations():
    circuit, models = two_layer_instance()
    obs = Observable.from_label("ZZ")
    model = models[0]
    with pytest.raises(ValueError):
        zne_estimate(circuit, model, obs, scale_factors=(1.0, 1.0, 2.0))
    with pytest.raises(ValueError):
        zne_estimate(circuit, model, obs, scale_factors=(0.5, 1.0, 2.0))
    with pytest.raises(ValueError):
        zne_estimate(circuit, model, obs, scale_factors=(2.0, 3.0))
    with pytest.raises(ValueError):
        zne_estimate(circuit, model, obs, scale_factors=(1.0, 2.0), order=2)


def test_zne_improves_over_unmitigated():
    circuit = benchmark_circuit()
    model = benchmark_model(0.02)
    obs = benchmark_observable()
    ideal = expectation(run(circuit), obs)
    noisy = noisy_expectation(circuit, model, obs)
    mitigated = zne_estimate(circuit, model, obs)
    assert abs(mitigated - ideal) < abs(noisy - ideal)


@pytest.mark.parametrize("factor", [float("nan"), float("inf"), float("-inf")])
def test_zne_rejects_non_finite_scale_factor_before_simulating(monkeypatch, factor):
    def no_simulation(*args):
        raise AssertionError("simulated before the factors were checked")

    monkeypatch.setattr(pec, "noisy_expectation", no_simulation)
    circuit, models = two_layer_instance()
    with pytest.raises(ValueError, match="scale factor %r must be finite and >= 1" % factor):
        zne_estimate(circuit, models[0], Observable.from_label("ZZ"), (1.0, 2.0, factor))


@pytest.mark.parametrize("workers", [0, -3])
def test_pec_rejects_fewer_than_one_worker(workers):
    circuit, models = two_layer_instance()
    with pytest.raises(ValueError, match="workers must be >= 1"):
        pec_estimate(circuit, models, Observable.from_label("ZZ"), 3000, 7, workers=workers)


def pooled_instance():
    """Three chunks on two qubits: a pooled call costs little beyond the pool."""
    circuit, models = two_layer_instance()
    return circuit, models, Observable.from_label("ZZ"), 3 * pec.CHUNK_SIZE


def test_pooled_calls_reuse_one_executor():
    circuit, models, obs, samples = pooled_instance()
    first = pec_estimate(circuit, models, obs, samples, 5, workers=2)
    executor = pec._pool[1]
    assert pec_estimate(circuit, models, obs, samples, 5, workers=2) == first
    assert pec._pool[1] is executor
    assert len(multiprocessing.active_children()) == 2


def test_new_worker_count_replaces_the_pool():
    circuit, models, obs, samples = pooled_instance()
    serial = pec_estimate(circuit, models, obs, samples, 8, workers=1)
    executors = []
    for workers in (2, 3, 2):
        assert pec_estimate(circuit, models, obs, samples, 8, workers=workers) == serial
        assert pec._pool[0] == workers
        executors.append(pec._pool[1])
        # the replaced pool's workers have stopped
        assert len(multiprocessing.active_children()) == workers
    assert len({id(e) for e in executors}) == 3


def test_threads_share_the_pool_safely():
    # more workers than cores, and thread switches between most bytecodes:
    # a replacement racing another thread's call would fail or leak a pool
    circuit, models, obs, samples = pooled_instance()
    serial = pec_estimate(circuit, models, obs, samples, 3, workers=1)
    results, errors = [], []

    def calls(first):
        try:
            for k in range(3):
                workers = 2 + (first + k) % 2
                results.append(pec_estimate(circuit, models, obs, samples, 3, workers=workers))
        except Exception as exc:  # reported below; a thread's exception is otherwise lost
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=calls, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert results == [serial] * 12
    assert len(multiprocessing.active_children()) == pec._pool[0]


def _kill_worker(args):
    os._exit(1)


def test_killed_worker_fails_that_call_and_the_next_starts_a_fresh_pool(monkeypatch):
    circuit, models, obs, samples = pooled_instance()
    expected = pec_estimate(circuit, models, obs, samples, 9, workers=2)
    broken = pec._pool[1]
    with monkeypatch.context() as patch:
        patch.setattr(pec, "_pec_chunk", _kill_worker)  # looked up by name in the worker
        with pytest.raises(BrokenProcessPool) as info:
            pec_estimate(circuit, models, obs, samples, 9, workers=2)
    assert isinstance(info.value, RuntimeError)  # the CLI's numeric error, exit 4
    assert pec._pool is None
    assert pec_estimate(circuit, models, obs, samples, 9, workers=2) == expected
    assert pec._pool[1] is not broken


SUBPROCESS_PRELUDE = (
    "import multiprocessing, os, sys\n"
    "from qmit import circuit_io, noise, pec\n"
    "from qmit.pauli import Observable\n"
    "circuit = circuit_io.parse('qubits 2;\\nh 0;\\n\\ncx 0, 1;\\n')\n"
    "models = noise.loads('qubits 2\\nXI 0.05\\nZY 0.03\\n')\n"
    "obs, samples = Observable.from_label('ZZ'), 3 * pec.CHUNK_SIZE\n"
)


def run_python(code):
    # Python 3.12 warns on every fork of a process with threads running, as
    # the parent with a live pool is; that warning is not under test here
    return subprocess.run([sys.executable, "-W", "ignore::DeprecationWarning", "-c",
                           SUBPROCESS_PRELUDE + code], capture_output=True, text=True,
                          timeout=120)


def test_forked_child_starts_its_own_pool():
    result = run_python(
        "parent = pec.pec_estimate(circuit, models, obs, samples, 4, workers=2)\n"
        "inherited = pec._pool[1]\n"
        "pid = os.fork()\n"
        "if pid == 0:\n"
        "    assert pec._pool is None\n"
        "    assert pec.pec_estimate(circuit, models, obs, samples, 4, workers=2) == parent\n"
        "    assert pec._pool[1] is not inherited\n"
        "    assert len(multiprocessing.active_children()) == 2\n"
        "    sys.exit(0)\n"
        "_, status = os.waitpid(pid, 0)\n"
        "assert os.waitstatus_to_exitcode(status) == 0\n"
        "assert pec._pool[1] is inherited\n"
        "assert pec.pec_estimate(circuit, models, obs, samples, 4, workers=2) == parent\n"
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""


def test_process_with_pooled_calls_exits_cleanly():
    result = run_python(
        "pec.pec_estimate(circuit, models, obs, samples, 6, workers=1)\n"
        "print('concurrent.futures.process' in sys.modules)\n"
        "for _ in range(2):\n"
        "    pec.pec_estimate(circuit, models, obs, samples, 6, workers=2)\n"
        "print('concurrent.futures.process' in sys.modules)\n"
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""  # no exception from the pool's clean-up at exit
    assert result.stdout.split() == ["False", "True"]
