import itertools
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (
    bell_circuit,
    benchmark_circuit,
    benchmark_model,
    benchmark_observable,
    random_circuit,
)
from qmit.circuits import Gate, Layer, QuantumCircuit
from qmit.noise import (
    PauliLindbladModel,
    insertion_table,
    pauli_fidelities,
    pauli_fidelity,
    sample_insertions,
)
from qmit.pauli import Observable, PauliString, parse_pauli
from qmit import MAX_SAMPLES, MAX_WORKERS, pec
from qmit.pec import (
    MAX_ENUMERATED_GENERATORS,
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
    MAX_FUSED_QUBITS,
    WIDE_FUSION_QUBITS,
    DensityMatrix,
    Statevector,
    _apply_unitary,
    apply_pauli_array,
    density_run,
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


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=7))
def test_sampled_insertion_probabilities_are_the_inverse_weights(rates):
    # the sampler draws the inverse half with insertion_table's q; the API
    # exports invert_channel's (a, b), and q_i must be |b_i| / gamma_i
    model = PauliLindbladModel(3, tuple(
        (PauliString(3, k + 1, k), lam) for k, lam in enumerate(rates)))
    x_masks, z_masks, q = insertion_table(model)
    entries = invert_channel(model).entries
    assert [p for p, _, _ in entries] == [p for p, _ in model.generators]
    assert list(zip(x_masks.tolist(), z_masks.tolist())) == [
        (p.x_mask, p.z_mask) for p, _, _ in entries]
    for q_i, (_, a, b) in zip(q, entries):
        assert abs(q_i - abs(b) / (abs(a) + abs(b))) <= 1e-15


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
    from dense import pauli_matrix
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
    compiled = pec._compile(circuit, pec.per_layer(circuit, model))
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


@pytest.mark.parametrize("n", [3, 5, 8])  # n = 8 takes the wide-fusion path
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
    widest = max(len(qubits) for ops, _ in compiled for _, qubits in ops)
    assert widest == (MAX_FUSED_QUBITS if n >= WIDE_FUSION_QUBITS else 2)
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


# -- prefix-tree block against the column-per-sample block --------------------

def column_per_sample_block(compiled, n, obs, mode, uniforms):
    """The records `pec._sample_block` must reproduce, with every sample
    evolved as its own column of one (2^n, B) array."""
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
        xn, zn, _ = sample_insertions(table, uniforms[:, col:col + g])
        xi, zi, count = sample_insertions(table, uniforms[:, col + g:col + 2 * g])
        col += 2 * g
        sign *= 1.0 - 2.0 * (count & 1)
        amps = pauli_gather(amps, xn ^ xi, zn ^ zi)
    total = np.zeros(width, dtype=complex)
    for t, (coeff, p) in enumerate(obs.terms):
        ev = np.einsum("ij,ij->j", amps.conj(), apply_pauli_array(amps, p))
        if mode == "shot":
            ev = np.where(uniforms[:, col + t] < (1.0 + ev.real) / 2.0, 1.0, -1.0)
        total += coeff * ev
    return sign * total.real


def chunk_uniforms(compiled, obs, mode, seed, count):
    """Chunk 0's uniform block, as `pec._pec_chunk` draws it."""
    draws = sum(2 * len(table[2]) for _, table in compiled if table is not None)
    return philox_rng(seed, 0).random((count, draws + (len(obs.terms) if mode == "shot" else 0)))


def random_unitary(rng, dim):
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def y_carrying_model(rng, n):
    """A weight-1 Y, a weight-2 generator with a Y, and up to three random
    weight-1 or weight-2 generators, at rates up to 0.15."""
    a, b = (int(q) for q in rng.choice(n, size=2, replace=False))
    labels = [{a: "Y"}, {a: str(rng.choice(list("XYZ"))), b: "Y"}]
    for _ in range(int(rng.integers(0, 4))):
        qubits = rng.choice(n, size=int(rng.integers(1, 3)), replace=False)
        labels.append({int(q): str(rng.choice(list("XYZ"))) for q in qubits})
    gens = {parse_pauli("".join(label.get(n - 1 - q, "I") for q in range(n))): None
            for label in labels}
    return PauliLindbladModel(n, tuple((p, float(rng.uniform(0.01, 0.15))) for p in gens))


def tree_instance(seed, n):
    """A random circuit with custom 1- and 2-qubit `u` gates appended, a
    `y_carrying_model` per noisy layer and a random 1-3 term observable."""
    rng = np.random.default_rng(seed)
    circuit = random_circuit(rng, n, int(rng.integers(2, 6)))
    a, b = (int(q) for q in rng.choice(n, size=2, replace=False))
    circuit = circuit.concat(QuantumCircuit(n, [
        Layer([Gate("u", (a, b), matrix=random_unitary(rng, 4))]),
        Layer([Gate("u", (a,), matrix=random_unitary(rng, 2))]),
    ]))
    models = [y_carrying_model(rng, n) for _ in circuit.two_qubit_layer_indices()]
    obs = Observable.from_terms(n, [(float(rng.normal()), random_pauli(n, rng.integers(4 ** n)))
                                    for _ in range(int(rng.integers(1, 4)))])
    return circuit, models, obs


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.sampled_from([2, 3, 4, 5, 12]),
       count=st.integers(1, 600), mode=st.sampled_from(["analytic", "shot"]))
@example(seed=11, n=12, count=600, mode="analytic")  # three row slices
@example(seed=11, n=12, count=300, mode="shot")
def test_prefix_tree_records_equal_the_column_per_sample_block(seed, n, count, mode):
    circuit, models, obs = tree_instance(seed, n)
    compiled = pec._compile(circuit, models)
    uniforms = chunk_uniforms(compiled, obs, mode, seed, count)
    width = max(1, pec.AMPLITUDE_BUDGET >> n)  # n = 12: slices of 256 rows
    reference = np.concatenate([column_per_sample_block(compiled, n, obs, mode,
                                                        uniforms[start:start + width])
                                for start in range(0, count, width)])
    records = pec._pec_chunk((compiled, n, obs, mode, seed, 0, count))
    if n >= 4:
        assert records.tobytes() == reference.tobytes()
    else:
        # below 4 qubits a gate's BLAS product rounds by its column count
        assert np.abs(records - reference).max() < 1e-12


def sample_histories(compiled, n, uniforms):
    """Each sample's Pauli per noisy layer as the code x | z << n, worked
    out one sample and generator at a time."""
    histories = [[] for _ in uniforms]
    col = 0
    for _, table in compiled[:-1]:
        x_masks, z_masks, q = table
        g = len(q)
        for row, history in zip(uniforms, histories):
            x = z = 0
            for k in range(2 * g):
                if row[col + k] < q[k % g]:
                    x ^= int(x_masks[k % g])
                    z ^= int(z_masks[k % g])
            history.append(x | z << n)
        col += 2 * g
    return histories


def test_block_evolves_one_column_per_distinct_prefix(monkeypatch):
    circuit, models, obs = wide_instance(4)
    circuit = circuit.concat(QuantumCircuit(4, [Layer([Gate("rx", (q,), 0.3) for q in range(4)])]))
    compiled = pec._compile(circuit, models)
    assert len(compiled[0][0]) > 0 and len(compiled[-1][0]) > 0  # ops before and after
    uniforms = chunk_uniforms(compiled, obs, "analytic", 3, pec.CHUNK_SIZE)
    histories = sample_histories(compiled, 4, uniforms)
    distinct = [len({tuple(h[:layer]) for h in histories}) for layer in range(len(compiled))]
    assert distinct[0] == 1 and 1 < distinct[-1] < len(uniforms)
    widths = []

    def spy(arr, mat, qubits, n):
        widths.append(arr.shape[1])
        return _apply_unitary(arr, mat, qubits, n)

    monkeypatch.setattr(pec, "_apply_unitary", spy)
    pec._sample_block(compiled, 4, obs, "analytic", uniforms)
    assert widths == [d for (ops, _), d in zip(compiled, distinct) for _ in ops]


def test_block_gathers_each_prefix_in_parent_column_then_code_order(monkeypatch):
    circuit, models, obs = wide_instance(4)
    compiled = pec._compile(circuit, models)
    assert len(compiled) > 2  # at least two noisy layers, so key order matters
    uniforms = chunk_uniforms(compiled, obs, "analytic", 5, pec.CHUNK_SIZE)
    histories = sample_histories(compiled, 4, uniforms)
    gathered = []

    def spy(arr, x, z):
        # a column's norm tells its index: the spy scales column j to norm
        # j + 1, and gates and gathers keep norms
        norms = np.linalg.norm(arr, axis=0)
        parents = np.rint(norms).astype(int) - 1
        gathered.append(list(zip(parents.tolist(), (x | z << 4).tolist())))
        return pauli_gather(arr, x, z) / norms * np.arange(1, arr.shape[1] + 1)

    monkeypatch.setattr(pec, "pauli_gather", spy)
    pec._sample_block(compiled, 4, obs, "analytic", uniforms)
    assert len(gathered) == len(compiled) - 1
    columns = [()]  # the distinct prefixes before the first noisy layer
    for layer, pairs in enumerate(gathered):
        assert all(a < b for a, b in zip(pairs, pairs[1:]))
        prefixes = sorted({tuple(h[:layer + 1]) for h in histories})
        assert pairs == [(columns.index(p[:-1]), p[-1]) for p in prefixes]
        columns = prefixes
    assert 1 < len(columns) < len(uniforms)


def test_circuit_without_a_noisy_layer_gives_the_noiseless_value():
    # no two-qubit layer: no noisy layer, no generator, gamma_total 1
    circuit = QuantumCircuit(2, [Layer([Gate("h", (0,)), Gate("h", (1,))])])
    obs = Observable.from_label("XX")
    ideal = expectation(run(circuit), obs)
    assert ideal == pytest.approx(1.0, abs=1e-12)
    for mode in ("analytic", "shot"):
        for workers in (1, 2):
            est = pec_estimate(circuit, [], obs, 2 * pec.CHUNK_SIZE + 1, 3, mode=mode,
                               workers=workers)
            assert est.gamma_total == 1.0
            assert est.value == pytest.approx(ideal, abs=1e-12)
    assert enumerate_signed(circuit, [], obs) == pytest.approx(ideal, abs=1e-12)


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


@pytest.mark.parametrize("n_generators, error, message", [
    (10, AssertionError, "passed the cap"),
    (11, ValueError, "capped"),
])
def test_enumerate_signed_caps_generators_before_evolving(monkeypatch, n_generators, error,
                                                          message):
    # the 15 non-identity 2-qubit Paulis; 11 of them would walk 4^11 leaves
    labels = ["".join(p) for p in itertools.product("IXYZ", repeat=2)][1:]
    model = PauliLindbladModel(2, tuple((parse_pauli(label), 0.01)
                                        for label in labels[:n_generators]))

    def evolved(*args):
        raise AssertionError("passed the cap")

    monkeypatch.setattr(pec, "_apply_unitary", evolved)
    with pytest.raises(error, match=message):
        enumerate_signed(bell_circuit(), model, Observable.from_label("ZZ"))


def test_enumerate_signed_runs_the_reduced_benchmark_instance():
    # the first two noisy layers of the benchmark circuit, two generators
    # each: G = 4, under the cap
    circuit = QuantumCircuit(4, benchmark_circuit().layers[:4])
    gens = benchmark_model(0.05).generators[:2]
    models = [PauliLindbladModel(4, gens)] * 2
    obs = benchmark_observable()
    value = enumerate_signed(circuit, models, obs)
    assert type(value) is float
    assert abs(value - expectation(run(circuit), obs)) < 1e-10


def test_enumerate_signed_reads_the_samplers_signs(monkeypatch):
    # one noisy layer: an odd count parity flips every record's sign
    def wrong_parity(table, uniforms):
        x, z, count = sample_insertions(table, uniforms)
        return x, z, count + 1

    monkeypatch.setattr(pec, "sample_insertions", wrong_parity)
    circuit, models = two_layer_instance()
    circuit = QuantumCircuit(2, circuit.layers[:2])
    obs = Observable.from_label("ZZ")
    ideal = expectation(run(circuit), obs)
    assert abs(ideal) > 0.5
    assert enumerate_signed(circuit, models[:1], obs) == pytest.approx(-ideal, abs=1e-10)


def random_pauli(n, code):
    """The Pauli whose X mask is the low n bits of code, its Z mask the rest."""
    return PauliString(n, int(code) & (2 ** n - 1), int(code) >> n)


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 4), n_layers=st.integers(1, 4),
       n_generators=st.integers(0, MAX_ENUMERATED_GENERATORS), n_terms=st.integers(1, 3))
@example(seed=1, n=4, n_layers=4, n_generators=MAX_ENUMERATED_GENERATORS, n_terms=2)
def test_enumerate_signed_equals_the_noiseless_value(seed, n, n_layers, n_generators,
                                                     n_terms):
    rng = np.random.default_rng(seed)
    circuit = random_circuit(rng, n, n_layers)
    noisy = len(circuit.two_qubit_layer_indices())
    # n_generators distinct non-identity generators spread over the noisy layers
    per_layer = np.bincount(rng.integers(noisy, size=n_generators if noisy else 0),
                            minlength=noisy)
    models = [PauliLindbladModel(n, tuple(
        (random_pauli(n, code), float(rng.uniform(0.0, 0.2)))
        for code in rng.choice(np.arange(1, 4 ** n), size=k, replace=False)))
        for k in per_layer]
    obs = Observable.from_terms(n, [(float(rng.normal()), random_pauli(n, rng.integers(4 ** n)))
                                    for _ in range(n_terms)])
    assert abs(enumerate_signed(circuit, models, obs) - expectation(run(circuit), obs)) < 1e-10


# -- the Pauli-basis noisy expectation against the dense density oracle -------

def dense_noisy_expectation(circuit, per_layer_models, obs):
    """The noisy expectation on a 2^n x 2^n density matrix: `density_run`
    with `apply_to_matrix` after every two-qubit layer."""
    models = pec.per_layer(circuit, per_layer_models)
    channels = {i: model.apply_to_matrix
                for i, model in zip(circuit.two_qubit_layer_indices(), models)}
    rho0 = DensityMatrix.from_statevector(Statevector.zero(circuit.n_qubits))
    return density_run(circuit, rho0, channels).expectation(obs)


def pauli_path_instance(seed, n):
    """A random circuit with custom 1q `u` gates (and a 2q one on n >= 2)
    between random layers, a `y_carrying_model` per noisy layer and a random
    1-4 term observable."""
    rng = np.random.default_rng(seed)
    custom = [Layer([Gate("u", (int(rng.integers(n)),), matrix=random_unitary(rng, 2))])]
    if n >= 2:
        a, b = (int(q) for q in rng.choice(n, size=2, replace=False))
        custom.append(Layer([Gate("u", (a, b), matrix=random_unitary(rng, 4))]))
    circuit = random_circuit(rng, n, int(rng.integers(1, 4))).concat(
        QuantumCircuit(n, custom)).concat(random_circuit(rng, n, int(rng.integers(1, 4))))
    models = [y_carrying_model(rng, n) for _ in circuit.two_qubit_layer_indices()]
    obs = Observable.from_terms(n, [(float(rng.normal()), random_pauli(n, rng.integers(4 ** n)))
                                    for _ in range(int(rng.integers(1, 5)))])
    return circuit, models, obs


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("n", range(1, 7))
def test_noisy_expectation_equals_the_dense_oracle(seed, n):
    circuit, models, obs = pauli_path_instance(seed, n)
    assert n == 1 or models  # every register of 2 or more qubits carries noise
    got = noisy_expectation(circuit, models, obs)
    assert abs(got - dense_noisy_expectation(circuit, models, obs)) < 1e-12


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("n", [2, 4, 6])
def test_zne_estimate_is_the_intercept_of_the_dense_oracle(seed, n):
    circuit, models, obs = pauli_path_instance(seed, n)
    factors, order = (1.0, 2.0, 3.0), 2
    dense = [dense_noisy_expectation(circuit, models[0].scaled(c), obs) for c in factors]
    estimate = zne_estimate(circuit, models[0], obs, factors, order)
    assert abs(estimate - pec._zne_intercept(factors, dense, order)) < 1e-12


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_pauli_fidelities_are_each_paulis_fidelity(seed, n):
    rng = np.random.default_rng(seed)
    model = y_carrying_model(rng, n) if n >= 2 else PauliLindbladModel(1, (
        (parse_pauli("Y"), 0.1), (parse_pauli("Z"), 0.03)))
    fidelities = pauli_fidelities(model)
    assert fidelities.shape == (4 ** n,)
    assert fidelities.tolist() == [pauli_fidelity(model, random_pauli(n, code))
                                   for code in range(4 ** n)]


def test_pauli_fidelities_of_a_noiseless_model_are_one():
    assert pauli_fidelities(PauliLindbladModel(3, ())).tolist() == [1.0] * 4 ** 3


def test_noisy_expectation_refuses_eleven_qubits_before_allocating(monkeypatch):
    class NoNumpy:
        def __getattr__(self, name):
            raise AssertionError("pec used numpy.%s before the size check" % name)

    n = 11
    circuit = QuantumCircuit(n, [Layer([Gate("cx", (0, 1))])])
    model = PauliLindbladModel(n, ((PauliString.single(n, 0, "X"), 0.01),))
    monkeypatch.setattr(pec, "np", NoNumpy())
    with pytest.raises(ValueError, match="density matrix capped at 10 qubits"):
        noisy_expectation(circuit, model, Observable.from_label("Z" * n))
    with pytest.raises(ValueError, match="density matrix capped at 10 qubits"):
        pauli_fidelities(model)


@pytest.mark.parametrize("fidelities, message", [
    (lambda size: np.full(size, np.nan), "noisy state trace is not 1"),
    (lambda size: np.full(size, 0.5), "noisy state trace is not 1"),
    # c_I stays 1, but every other coefficient doubles: no state has them
    (lambda size: np.where(np.arange(size) == 0, 1.0, 2.0),
     "density matrix has a negative eigenvalue"),
], ids=["nan", "trace_halved", "not_psd"])
def test_noisy_expectation_checks_the_state_it_reads(monkeypatch, fidelities, message):
    circuit, models = two_layer_instance()
    monkeypatch.setattr(pec, "pauli_fidelities", lambda model: fidelities(4 ** model.n_qubits))
    with pytest.raises(ValueError, match=message):
        noisy_expectation(circuit, models, Observable.from_label("ZZ"))


CHANNEL_NOT_CP = ("^noise channel is not completely positive: "
                  "its Choi density matrix has a negative eigenvalue$")


def test_noisy_expectation_refuses_a_channel_that_is_not_completely_positive(monkeypatch):
    # f_I = 1 and f_Q = -0.2 elsewhere is rho -> -0.2 rho + 0.3 I on 2 qubits:
    # it maps every state to a state, so the final rho passes the density
    # matrix checks, but its error probability on I is (1 - 0.2 * 15) / 16
    circuit, models = two_layer_instance()
    obs = Observable.from_label("ZZ")
    channels = {i: lambda mat: -0.2 * mat + 0.3 * np.eye(4)
                for i in circuit.two_qubit_layer_indices()}
    final = density_run(circuit, DensityMatrix.from_statevector(Statevector.zero(2)), channels)
    assert np.linalg.eigvalsh(final.matrix).min() > 0
    monkeypatch.setattr(pec, "pauli_fidelities",
                        lambda model: np.where(np.arange(16) == 0, 1.0, -0.2))
    with pytest.raises(ValueError, match=CHANNEL_NOT_CP):
        noisy_expectation(circuit, models, obs)


@pytest.mark.parametrize("smallest", [-2e-9, -5e-10])
def test_channel_check_bound_is_minus_1e_9(monkeypatch, smallest):
    # the Pauli channel with error probabilities p: f_Q = sum_P p_P (-1)^<P, Q>,
    # with the symplectic product <P, Q> = popcount(x_P & z_Q ^ z_P & x_Q)
    probabilities = np.full(16, (1.0 - smallest) / 15)
    probabilities[6] = smallest
    codes = np.arange(16)
    x, z = codes & 3, codes >> 2
    signs = 1.0 - 2.0 * (np.bitwise_count(x[:, None] & z ^ z[:, None] & x) & 1)
    fidelities = probabilities @ signs
    circuit, models = two_layer_instance()
    monkeypatch.setattr(pec, "pauli_fidelities", lambda model: fidelities)
    if smallest < -1e-9:
        with pytest.raises(ValueError, match=CHANNEL_NOT_CP):
            noisy_expectation(circuit, models, Observable.from_label("ZZ"))
    else:
        assert np.isfinite(noisy_expectation(circuit, models, Observable.from_label("ZZ")))


def test_a_single_model_of_another_size_is_refused_without_a_noisy_layer():
    # no layer takes the model, so it used to be broadcast to no layer unchecked
    circuit = QuantumCircuit(2, [Layer([Gate("h", (0,))])])
    obs = Observable.from_label("ZZ")
    wide = PauliLindbladModel(3, ((parse_pauli("ZZZ"), 0.1),))
    calls = [lambda model: pec_estimate(circuit, model, obs, 10, 0),
             lambda model: enumerate_signed(circuit, model, obs),
             lambda model: noisy_expectation(circuit, model, obs),
             lambda model: zne_estimate(circuit, model, obs)]
    for call in calls:
        with pytest.raises(ValueError, match="^circuit and noise model sizes differ$"):
            call(wide)
        assert call(PauliLindbladModel(2, ((parse_pauli("ZZ"), 0.1),))) is not None


def test_noisy_expectation_refuses_an_observable_of_another_size(monkeypatch):
    circuit, models = two_layer_instance()
    obs = Observable.from_label("ZZZ")
    with pytest.raises(ValueError, match="circuit and observable sizes differ"):
        noisy_expectation(circuit, models, obs)

    # PEC refuses it too, before any chunk or block is sampled
    def sampled(*args):
        raise AssertionError("sampled before the size check")

    monkeypatch.setattr(pec, "_pec_chunk", sampled)
    monkeypatch.setattr(pec, "_sample_block", sampled)
    for mode, workers in itertools.product(("analytic", "shot"), (1, 2)):
        with pytest.raises(ValueError, match="circuit and observable sizes differ"):
            pec_estimate(circuit, models, obs, 2 * pec.CHUNK_SIZE, 0, mode=mode, workers=workers)
    with pytest.raises(ValueError, match="circuit and observable sizes differ"):
        enumerate_signed(circuit, models, obs)


def test_sampling_overhead():
    models = [benchmark_model(0.05)] * 4
    g = gamma_total(models)
    assert sampling_overhead(models, 0.01) == pytest.approx(g * g / 1e-4)
    with pytest.raises(ValueError):
        sampling_overhead(models, 0.0)


def test_a_gamma_beyond_the_float_range_is_inf_and_refused_before_sampling(monkeypatch):
    circuit, _ = two_layer_instance()
    huge = PauliLindbladModel(2, ((parse_pauli("XI"), 400.0),))  # gamma = e^800
    half = PauliLindbladModel(2, ((parse_pauli("XI"), 100.0),))  # gamma = e^200
    with np.errstate(over="ignore"):
        decomposition = invert_channel(huge)  # its weights (1 +- e^800) / 2 overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert gamma_total([huge]) == np.inf
        assert decomposition.gamma_total == np.inf
        # gamma = e^400 is finite, and its square is not: this used to raise OverflowError
        assert sampling_overhead([half, half], 1.0) == np.inf
        assert sampling_overhead([huge], 1.0) == np.inf

    def sampled(*args):
        raise AssertionError("sampled before the gamma check")

    monkeypatch.setattr(pec, "_pec_chunk", sampled)
    monkeypatch.setattr(pec, "_sample_block", sampled)
    obs = Observable.from_label("ZZ")
    for mode in ("analytic", "shot"):
        with pytest.raises(ValueError, match="^gamma_total .* beyond the float range"):
            pec_estimate(circuit, huge, obs, 100, 0, mode=mode)
    with pytest.raises(ValueError, match="^gamma_total .* beyond the float range"):
        enumerate_signed(circuit, huge, obs)


@pytest.mark.parametrize("eps", [0.0, -1.0, np.nan, np.inf])
def test_sampling_overhead_refuses_an_eps_that_is_not_finite_and_positive(eps):
    # nan used to return nan, and inf 0.0
    with pytest.raises(ValueError, match="^eps must be finite and positive, got %r$" % eps):
        sampling_overhead([benchmark_model(0.05)] * 4, eps)


@pytest.mark.parametrize("eps", [1e-200, 5e-324])
def test_sampling_overhead_is_inf_where_eps_squared_underflows(eps):
    assert sampling_overhead([benchmark_model(0.05)] * 4, eps) == np.inf


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


@pytest.mark.parametrize("cs, order", [
    ((1.0, 3.0), 0),
    ((1.0, 2.0), 1),
    ((1.0, 1.5, 2.0, 3.0), 1),
    ((1.0, 2.0, 3.0), 2),
    ((1.0, 1.5, 2.5, 4.0, 5.0), 3),
])
def test_zne_intercept_is_the_constant_term_of_exact_polynomial_data(cs, order):
    rng = np.random.default_rng(10 * order + len(cs))
    for _ in range(20):
        coeffs = rng.uniform(-1.0, 1.0, size=order + 1)  # highest degree first
        values = [float(np.polyval(coeffs, c)) for c in cs]
        assert abs(pec._zne_intercept(cs, values, order) - coeffs[-1]) < 1e-12


@pytest.mark.parametrize("factors", [(1.0, 2.0), (1.0, 2.0, 3.0), (1.0, 1.5, 3.0, 4.0)])
def test_zne_estimate_is_the_lagrange_extrapolation_of_the_noisy_values(factors):
    circuit, models = two_layer_instance()
    obs = Observable.from_terms(2, [(1.0, parse_pauli("ZZ")), (0.5, parse_pauli("XY"))])
    values = [noisy_expectation(circuit, models[0].scaled(c), obs) for c in factors]
    # sum_i v_i L_i(0), with L_i(0) = prod over j != i of c_j / (c_j - c_i)
    lagrange = sum(v * np.prod([cj / (cj - ci) for cj in factors if cj != ci])
                   for ci, v in zip(factors, values))
    estimate = zne_estimate(circuit, models[0], obs, factors, order=len(factors) - 1)
    assert abs(estimate - lagrange) < 1e-12
    assert abs(estimate - values[0]) > 1e-3  # the extrapolation moves the value


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


@pytest.mark.parametrize("factors, order, named", [
    ((1.0, 1e308), 1, 1e308),
    ((1.0, 9.5e153), 1, 9.5e153),  # 1 + c^2 overflows
    ((1.0, 2.0, 1.1e77), 2, 1.1e77),  # c^4 overflows
])
def test_zne_rejects_a_factor_that_overflows_the_fit_before_simulating(monkeypatch, factors,
                                                                      order, named):
    def no_simulation(*args):
        raise AssertionError("simulated before the factors were checked")

    monkeypatch.setattr(pec, "noisy_expectation", no_simulation)
    circuit, models = two_layer_instance()
    message = "scale factor %r overflows a degree-%d fit" % (named, order)
    with pytest.raises(ValueError, match=re.escape(message)):
        zne_estimate(circuit, models[0], Observable.from_label("ZZ"), factors, order)


def test_zne_rejects_an_order_below_zero_before_simulating(monkeypatch):
    def no_simulation(*args):
        raise AssertionError("simulated before the order was checked")

    monkeypatch.setattr(pec, "noisy_expectation", no_simulation)
    circuit, models = two_layer_instance()
    with pytest.raises(ValueError, match="order -1 must be >= 0"):
        zne_estimate(circuit, models[0], Observable.from_label("ZZ"), (1.0, 2.0, 3.0), -1)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), extra=st.lists(st.floats(1.0, 1e80, exclude_min=True), min_size=1,
                                      max_size=4, unique=True))
@example(data=None, extra=[2.0, 1e76])
def test_zne_factors_refuse_exactly_what_polyfit_warns_on(data, extra):
    cs = [1.0] + extra
    order = 2 if data is None else data.draw(st.integers(0, len(cs) - 1))
    try:
        pec._zne_factors(cs, order)
        refused = False
    except ValueError as exc:
        if "overflows" in str(exc):
            return
        assert str(exc) == "scale factors %s make a rank-deficient degree-%d fit" % (cs, order)
        refused = True
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        np.polyfit(cs, np.arange(len(cs), dtype=float), order)
    assert refused == bool(caught)


def test_zne_fits_the_largest_first_order_factor_without_warnings():
    circuit, models = two_layer_instance()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = zne_estimate(circuit, models[0], Observable.from_label("ZZ"), (1.0, 9.4e153))
    assert np.isfinite(value)


@pytest.mark.parametrize("workers", [0, -3])
def test_pec_rejects_fewer_than_one_worker(workers):
    circuit, models = two_layer_instance()
    with pytest.raises(ValueError, match="workers must be >= 1"):
        pec_estimate(circuit, models, Observable.from_label("ZZ"), 3000, 7, workers=workers)


def pooled_instance():
    """Three chunks on two qubits: a pooled call costs little beyond its threads."""
    circuit, models = two_layer_instance()
    return circuit, models, Observable.from_label("ZZ"), 3 * pec.CHUNK_SIZE


def test_threads_share_the_pool_safely():
    # concurrent callers, more workers than cores, and thread switches between
    # most bytecodes: each call's own pool still gives the serial result
    circuit, models, obs, samples = pooled_instance()
    serial = pec_estimate(circuit, models, obs, samples, 3, workers=1)
    results, errors = [], []
    threads_before = threading.active_count()

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
    assert multiprocessing.active_children() == []  # threads only, no worker processes
    assert threading.active_count() == threads_before  # every call closed its pool


def test_pec_rejects_more_than_max_workers_before_any_chunk(monkeypatch):
    def no_chunk(args):
        raise AssertionError("a chunk ran before the worker count was checked")

    monkeypatch.setattr(pec, "_pec_chunk", no_chunk)
    circuit, models, obs, samples = pooled_instance()
    with pytest.raises(ValueError, match="workers must be >= 1 and <= %d" % MAX_WORKERS):
        pec_estimate(circuit, models, obs, samples, 7, workers=MAX_WORKERS + 1)


@pytest.mark.parametrize("samples", [MAX_SAMPLES + 1, 10 ** 11])
def test_pec_rejects_more_than_max_samples_before_any_chunk(monkeypatch, samples):
    def no_chunk(args):
        raise AssertionError("a chunk ran before the sample count was checked")

    monkeypatch.setattr(pec, "_pec_chunk", no_chunk)
    circuit, models, obs, _ = pooled_instance()
    with pytest.raises(ValueError, match="samples capped at %d, got %d" % (MAX_SAMPLES, samples)):
        pec_estimate(circuit, models, obs, samples, 7)


SUBPROCESS_PRELUDE = (
    "import os, sys\n"
    "from qmit import circuit_io, noise, pec\n"
    "from qmit.pauli import Observable\n"
    "circuit = circuit_io.parse('qubits 2;\\nh 0;\\n\\ncx 0, 1;\\n')\n"
    "models = noise.loads('qubits 2\\nXI 0.05\\nZY 0.03\\n')\n"
    "obs, samples = Observable.from_label('ZZ'), 3 * pec.CHUNK_SIZE\n"
)


def run_python(code):
    """Run the prelude and code in a new session. On a timeout the whole
    process group is killed, forked children too, so none outlives the test."""
    with subprocess.Popen([sys.executable, "-c", SUBPROCESS_PRELUDE + code], text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          start_new_session=True) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            stdout, stderr = proc.communicate()
            pytest.fail("timed out after 120 s; stderr:\n" + stderr)
    return subprocess.CompletedProcess(proc.args, proc.returncode, stdout, stderr)


def test_forked_child_starts_its_own_pool():
    # no pool outlives its call, so the fork copies no running thread and
    # Python 3.12 has nothing to warn about
    result = run_python(
        "import faulthandler\n"
        "parent = pec.pec_estimate(circuit, models, obs, samples, 4, workers=2)\n"
        "pid = os.fork()\n"
        "if pid == 0:\n"
        "    faulthandler.dump_traceback_later(100, exit=True)  # a hang fails with its stack\n"
        "    assert pec.pec_estimate(circuit, models, obs, samples, 4, workers=2) == parent\n"
        "    sys.exit(0)\n"
        "_, status = os.waitpid(pid, 0)\n"
        "assert os.waitstatus_to_exitcode(status) == 0\n"
        "assert pec.pec_estimate(circuit, models, obs, samples, 4, workers=2) == parent\n"
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""


def test_pooled_call_imports_no_module_in_a_worker():
    # numpy.random, loaded lazily, starts OpenSSL through hashlib; started in a
    # worker, OpenSSL's lock can be held when the call returns (pec_estimate)
    result = run_python(
        "import threading\n"
        "class Spy:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if threading.current_thread() is not threading.main_thread():\n"
        "            print(name)\n"
        "sys.meta_path.insert(0, Spy())\n"
        "pec.pec_estimate(circuit, models, obs, samples, 4, workers=2)\n"
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == ""


def test_process_with_pooled_calls_exits_cleanly():
    result = run_python(
        "pec.pec_estimate(circuit, models, obs, samples, 6, workers=1)\n"
        "print('concurrent.futures.thread' in sys.modules)\n"
        "for _ in range(2):\n"
        "    pec.pec_estimate(circuit, models, obs, samples, 6, workers=2)\n"
        "print('concurrent.futures.thread' in sys.modules)\n"
        "print(sorted(m for m in ('multiprocessing', 'concurrent.futures.process')"
        " if m in sys.modules))\n"
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    assert result.stdout.split("\n") == ["False", "True", "[]", ""]
