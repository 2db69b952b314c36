"""Layer boundaries the traced run wraps, and the per-layer metrics derived
from the spans recorded there.

Each target is a function one qmit module calls in another (or a method
called across modules), patched where the caller looks it up. The layers
are the package's modules; a span is named ``<layer>.<what>``.
"""
from __future__ import annotations

import numpy as np

import spans
from stats import median

BYTES_PER_AMPLITUDE = 16  # complex128


def _gate_bytes(arr, mat, qubits, n):
    """Computed, not measured: one read and one write of the array."""
    return 2.0 * BYTES_PER_AMPLITUDE * arr.size


def _one(*args, **kwargs):
    return 1.0


def targets():
    from qmit import circuit_io, hamiltonian, knit, noise, pec, simulator, varqte

    return [
        (simulator, "_apply_unitary", "simulator.gate", _gate_bytes),
        (pec, "_apply_unitary", "simulator.gate", _gate_bytes),
        (varqte, "_apply_unitary", "simulator.gate", _gate_bytes),
        (simulator, "apply_pauli_array", "simulator.pauli", None),
        # calls bound in pec are the sampled insertions (work = 1 marks them)
        (pec, "apply_pauli_array", "simulator.pauli", _one),
        (varqte, "apply_pauli_array", "simulator.pauli", None),
        (knit, "apply_pauli_array", "simulator.pauli", None),
        (noise, "apply_pauli_array", "simulator.pauli", None),
        (pec, "density_run", "simulator.density_run", None),
        (simulator.DensityMatrix, "__post_init__", "simulator.dm_validate", None),
        (simulator.DensityMatrix, "expectation", "simulator.dm_expectation", None),
        (simulator, "evolve_exact", "simulator.evolve_exact", None),
        (varqte, "evolve_exact", "simulator.evolve_exact", None),
        (pec, "_pec_chunk", "pec.chunk", None),
        (noise.PauliLindbladModel, "apply_to_matrix", "noise.channel", None),
        (noise, "virtual_distillation_expectation", "noise.vd", None),
        (noise, "synthesize_decay_data", "noise.synth", None),
        (noise, "learn_rates", "noise.fit", None),
        (noise, "nnls", "noise.nnls", None),
        (knit, "execute_plan", "knit.execute", None),
        (knit, "_fragment_value", "knit.fragment_value", None),
        (knit, "_fragment_state", "knit.fragment_state", None),
        (knit, "run_array", "knit.fragment_run", None),
        (varqte, "evolve", "varqte.evolve", None),
        (varqte, "_theta_dot", "varqte.theta_dot", None),
        (varqte, "state_and_derivatives", "varqte.derivative", None),
        (varqte, "compute_mclachlan", "varqte.system", None),
        (hamiltonian, "trotter_circuit", "hamiltonian.trotter_build", None),
        (hamiltonian, "trotter_bound_order1", "hamiltonian.bound", None),
        (circuit_io, "parse", "circuit_io.parse", None),
    ]


class RoundTotals:
    """Per-span-name totals of one traced round, optionally for one task."""

    def __init__(self, table, names):
        self._table = table
        self._index = {name: i for i, name in enumerate(names)}

    def _get(self, column, name, task=None):
        i = self._index.get(name)
        if i is None:
            return 0.0
        rows = self._table[column]
        if task is None:
            return float(sum(row[i] for row in rows.values()))
        row = rows.get(task)
        return 0.0 if row is None else float(row[i])

    def count(self, name, task=None):
        return self._get("count", name, task)

    def total(self, name, task=None):
        return self._get("total", name, task)

    def own(self, name, task=None):
        return self._get("own", name, task)

    def work(self, name, task=None):
        return self._get("work", name, task)


def round_totals(tracer: spans.Tracer, calls: list[tuple[str, int, str]]):
    """Totals keyed by (workload, round) from the tracer's spans; ``calls``
    maps each run id to (workload, round, task)."""
    arr = tracer.arrays()
    own = spans.self_times(arr["start"], arr["end"], arr["parent"])
    dur = arr["end"] - arr["start"]
    n_names = len(tracer.names)
    tables: dict[tuple[str, int], dict] = {}
    keep = arr["run"] >= 0
    run_ids = arr["run"][keep]
    name_ids = arr["name_id"][keep]
    columns = {"count": np.ones(run_ids.size), "total": dur[keep], "own": own[keep],
               "work": arr["work"][keep]}
    for column, values in columns.items():
        grid = np.zeros((len(calls), n_names))
        np.add.at(grid, (run_ids, name_ids), values)
        for run_id, (workload, rnd, task) in enumerate(calls):
            table = tables.setdefault((workload, rnd), {c: {} for c in columns})
            table[column][task] = table[column].get(task, 0.0) + grid[run_id]
    return {key: RoundTotals(table, tracer.names) for key, table in tables.items()}


def _varqte_metrics():
    return [
        ("varqte.derivative_calls", "count", "lower", lambda t: t.count("varqte.derivative")),
        ("varqte.derivative_self_s", "s", "lower", lambda t: t.own("varqte.derivative")),
        ("varqte.system_self_s", "s", "lower", lambda t: t.own("varqte.system")),
        # what evolve spends outside its RK4 stages: the fidelity tracking
        ("varqte.fidelity_s", "s", "lower",
         lambda t: t.total("varqte.evolve") - t.total("varqte.theta_dot")),
    ]


# (metric, unit, better, value of one round's totals); per workload
SPAN_METRICS = {
    "pec_sampling": [
        ("simulator.gate_calls", "count", "lower", lambda t: t.count("simulator.gate")),
        ("simulator.gate_self_s", "s", "lower", lambda t: t.own("simulator.gate")),
        ("simulator.pauli_calls", "count", "lower", lambda t: t.count("simulator.pauli")),
        ("simulator.pauli_self_s", "s", "lower", lambda t: t.own("simulator.pauli")),
        ("pec.chunks", "count", "lower", lambda t: t.count("pec.chunk")),
        ("pec.chunk_self_s", "s", "lower", lambda t: t.own("pec.chunk")),
        ("pec.insertion_calls", "count", "lower",
         lambda t: t.work("simulator.pauli", "pec_analytic_w1")),
        ("noise.synth_s", "s", "lower", lambda t: t.total("noise.synth")),
        ("noise.fit_s", "s", "lower", lambda t: t.total("noise.fit")),
        ("noise.nnls_s", "s", "lower", lambda t: t.total("noise.nnls")),
        ("knit.fragment_value_calls", "count", "lower", lambda t: t.count("knit.fragment_value")),
        ("knit.fragment_value_self_s", "s", "lower", lambda t: t.own("knit.fragment_value")),
        ("knit.fragment_runs", "count", "lower", lambda t: t.count("knit.fragment_run")),
        ("knit.cache_hit_ratio", "ratio", "higher",
         lambda t: 1.0 - t.count("knit.fragment_run") / max(1.0, t.count("knit.fragment_state"))),
        ("knit.execute_self_s", "s", "lower", lambda t: t.own("knit.execute")),
    ],
    "exact_oracles": [
        ("simulator.gate_calls", "count", "lower", lambda t: t.count("simulator.gate")),
        ("simulator.gate_self_s", "s", "lower", lambda t: t.own("simulator.gate")),
        ("simulator.gate_bytes", "B", "lower", lambda t: t.work("simulator.gate")),
        ("simulator.pauli_calls", "count", "lower", lambda t: t.count("simulator.pauli")),
        ("simulator.pauli_self_s", "s", "lower", lambda t: t.own("simulator.pauli")),
        ("simulator.density_run_self_s", "s", "lower", lambda t: t.own("simulator.density_run")),
        ("simulator.dm_validate_s", "s", "lower", lambda t: t.total("simulator.dm_validate")),
        ("simulator.dm_expectation_s", "s", "lower",
         lambda t: t.total("simulator.dm_expectation")),
        ("simulator.evolve_exact_calls", "count", "lower",
         lambda t: t.count("simulator.evolve_exact")),
        ("simulator.evolve_exact_s", "s", "lower", lambda t: t.total("simulator.evolve_exact")),
        ("noise.channel_calls", "count", "lower", lambda t: t.count("noise.channel")),
        ("noise.channel_self_s", "s", "lower", lambda t: t.own("noise.channel")),
        ("noise.vd_self_s", "s", "lower", lambda t: t.own("noise.vd")),
    ] + _varqte_metrics(),
    "cli_cold": [
        ("hamiltonian.trotter_build_s", "s", "lower",
         lambda t: t.total("hamiltonian.trotter_build")),
        ("hamiltonian.bound_s", "s", "lower", lambda t: t.total("hamiltonian.bound")),
        ("circuit_io.parse_s", "s", "lower", lambda t: t.total("circuit_io.parse")),
    ] + _varqte_metrics(),
}

# metrics a workload measures outside the spans: (metric, unit, better)
OTHER_METRICS = {
    "pec_sampling": [("pec.parallel_eff", "ratio", "higher")],
    "exact_oracles": [],
    "cli_cold": [("cli.interp_s", "s", "lower"), ("cli.import_s", "s", "lower"),
                 ("cli.scipy_import_s", "s", "lower")],
}
OVERHEAD = ("trace.overhead_s", "s", "lower")


def per_layer_names():
    """Every per-layer metric as (name, unit, better), in report order."""
    out = []
    for workload, specs in SPAN_METRICS.items():
        rows = [s[:3] for s in specs] + OTHER_METRICS[workload] + [OVERHEAD]
        out.extend(("%s.%s" % (workload, name), unit, better) for name, unit, better in rows)
    return out


def span_metrics(workload: str, totals: list[RoundTotals]) -> dict[str, float]:
    """Median over the workload's traced rounds of each span metric."""
    return {"%s.%s" % (workload, name): median([fn(t) for t in totals])
            for name, _, _, fn in SPAN_METRICS[workload]}
