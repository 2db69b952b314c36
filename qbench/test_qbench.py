"""Self-tests of the benchmark: python3 -m pytest qbench"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402

workloads.load_qmit()
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# -- percentile rule ---------------------------------------------------------

def test_tail_is_highest_percentile_with_ten_beyond():
    value, pct, beyond = stats.tail(list(range(1, 31)))
    assert (value, beyond) == (20, 10)
    assert pct == pytest.approx(100 * 20 / 30)


def test_tail_needs_more_than_ten_samples():
    assert stats.tail(list(range(10))) is None
    value, pct, beyond = stats.tail(list(range(11, 0, -1)))
    assert (value, beyond) == (1, 10)
    assert pct == pytest.approx(100 / 11)


def test_describe_states_sample_count_and_tail():
    text = stats.describe([0.5] * 20 + [2.0] * 5, "s")
    assert "over 25" in text and "10 beyond" in text and "p60.0" in text
    assert "no percentile" in stats.describe([1.0] * 3, "s")


# -- self time ---------------------------------------------------------------

def test_self_time_subtracts_child_durations():
    # parent [0, 10] with children [1, 3], [3, 5] and [8, 9.5]; [3.5, 4] is a
    # grandchild inside [3, 5]; a second root [11, 12] has no children
    start = [0.0, 1.0, 3.0, 8.0, 3.5, 11.0]
    end = [10.0, 3.0, 5.0, 9.5, 4.0, 12.0]
    parent = [-1, 0, 0, 0, 2, -1]
    own = spans.self_times(start, end, parent)
    assert own.tolist() == pytest.approx([10 - 2 - 2 - 1.5, 2.0, 1.5, 1.5, 0.5, 1.0])


def test_tracer_records_parent_run_id_and_work():
    tracer = spans.Tracer()

    def inner(x):
        return x + 1

    wrapped_inner = tracer.wrap("inner", inner, work=lambda x: float(x))
    outer = tracer.wrap("outer", lambda: wrapped_inner(2) + wrapped_inner(5))
    tracer.run_id = 7
    assert outer() == 9
    arr = tracer.arrays()
    assert [tracer.names[i] for i in arr["name_id"]] == ["outer", "inner", "inner"]
    assert arr["parent"].tolist() == [-1, 0, 0]
    assert arr["run"].tolist() == [7, 7, 7]
    assert arr["work"].tolist() == [0.0, 2.0, 5.0]
    assert np.all(arr["end"] >= arr["start"])


def test_install_patches_and_restores():
    tracer = spans.Tracer()
    original = workloads.simulator.apply_pauli_array
    tracer.install([(workloads.simulator, "apply_pauli_array", "simulator.pauli", None)])
    assert workloads.simulator.apply_pauli_array is not original
    tracer.uninstall()
    assert workloads.simulator.apply_pauli_array is original


# -- correctness gate --------------------------------------------------------

def _task(prepared, name):
    return next(t for t in prepared.tasks if t.name == name)


def test_perturbed_pec_estimate_trips_the_gate():
    prepared = workloads.prepare_pec_sampling(3)
    task = _task(prepared, "pec_analytic_w1")
    est = task.call()
    assert all(ok for _, ok in task.check(est))
    off = type(est)(est.value + 10 * est.std_error, est.std_error, est.samples,
                    est.gamma_total, est.mode)
    assert not all(ok for _, ok in task.check(off))
    w2 = _task(prepared, "pec_analytic_w2")
    nudged = type(est)(np.nextafter(est.value, 2.0), est.std_error, est.samples,
                       est.gamma_total, est.mode)
    task.check(est)
    assert not all(ok for _, ok in w2.check(nudged))


def test_perturbed_learned_rates_trip_the_gate():
    task = _task(workloads.prepare_pec_sampling(3), "learn_fit")
    fits = task.call()
    assert all(ok for _, ok in task.check(fits))
    scaled = [type(m)(m.n_qubits, tuple((p, 1.2 * lam) for p, lam in m.generators))
              for m in fits]
    assert not all(ok for _, ok in task.check(scaled))


def test_perturbed_vd_value_trips_the_gate():
    prepared = workloads.prepare_exact_oracles(3)
    prepared.references()
    task = _task(prepared, "virtual_distillation")
    value = task.call()
    assert all(ok for _, ok in task.check(value))
    assert not all(ok for _, ok in task.check(value + 1e-6))


def test_cli_traceback_or_changed_stdout_trips_the_gate(tmp_path):
    prepared = workloads.prepare_cli_cold(3, tmp_path, "cli", in_process=True)
    task = _task(prepared, "scale")
    good = workloads.CliResult(0, b"out\n", b"")
    assert all(ok for _, ok in task.check(good))
    assert not all(ok for _, ok in task.check(workloads.CliResult(0, b"other\n", b"")))
    assert not all(ok for _, ok in task.check(
        workloads.CliResult(0, b"out\n", b"Traceback (most recent call last):")))
    assert not all(ok for _, ok in task.check(workloads.CliResult(3, b"out\n", b"")))


# -- names against BENCHMARK.json -------------------------------------------

def test_per_layer_names_match_benchmark_json():
    declared = [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]]
    assert layers.per_layer_names() == declared


def test_printed_end_to_end_names_match_benchmark_json():
    proc = subprocess.run(
        [sys.executable, "qbench/run.py", "--workload", "pec_sampling", "--seed", "2",
         "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    workload_names = {w["name"] for w in SPEC["workloads"]}
    assert workload_names == {"pec_sampling", "exact_oracles", "cli_cold"}


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "qbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "qbench/run.py", "--workload", "pec_sampling", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
