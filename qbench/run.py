"""qmit benchmark: closed-loop workloads with exact-oracle checks.

Run from the repository root:

    python3 qbench/run.py --workload pec_sampling --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off. ``--trace 1``
runs the named workload for ``--seconds`` with traced and untraced rounds
alternating, then one untraced and one traced round of each other workload,
and reports every per-layer metric and the tracing overhead. ``--workload
all`` runs the three workloads one after another in this process.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it name every metric with its
unit and sample count. A result file with an environment stamp is written
under ``qbench/out/``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
CLI_WORKDIR = "qbench/out/cli"
WORKLOADS = ("pec_sampling", "exact_oracles", "cli_cold")
SETUP_REPEATS = 3
IMPORT_REPEATS = 3
# a cli_cold set-up is one cold ``qmit --version``, so it takes more repeats
CLI_SETUP_REPEATS = 7
MIN_ROUNDS = 3
PEC_WORKERS = 2
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _now() -> float:
    return time.perf_counter()


def calibrator(workload: str):
    """The calibration timed around each call of ``workload``, and its time
    on the machine the benchmark was tuned on."""
    import calibrate

    if workload == "cli_cold":
        return calibrate.cold_start_s, calibrate.COLD_REFERENCE_S
    return calibrate.calibration_s, calibrate.REFERENCE_S


def calibrated(call, repeats: int, cal_s):
    """Call ``call()`` ``repeats`` times. Returns the last result, the wall
    times, and the times over ``cal_s()`` timed just before and after each."""
    times, rel = [], []
    cal = cal_s()
    for _ in range(repeats):
        t0 = _now()
        result = call()
        times.append(_now() - t0)
        after = cal_s()
        rel.append(times[-1] / (0.5 * (cal + after)))
        cal = after
    return result, times, rel


def cold_imports() -> tuple[list[float], list[float]]:
    """The benchmark's imports (numpy, scipy, qmit) in fresh interpreters:
    wall times and the times over the cold-start calibration."""
    from calibrate import cold_start_s

    code = ("import sys; sys.path[:0] = [%r, %r]; import workloads; workloads.load_qmit()"
            % (str(HERE), str(ROOT / "src")))
    argv = [sys.executable, "-c", code]
    return calibrated(lambda: subprocess.run(argv, cwd=ROOT, capture_output=True, check=True,
                                             timeout=120),
                      IMPORT_REPEATS, cold_start_s)[1:]


class Run:
    """State of one benchmark invocation: check counts and the tracer."""

    def __init__(self, seed: int):
        self.seed = seed
        self.attempted = 0
        self.failures: list[str] = []
        self.tracer = None
        self.calls: list[tuple[str, int, str]] = []  # run id -> (workload, round, task)

    def record(self, checks) -> None:
        for label, passed in checks:
            self.attempted += 1
            if not passed:
                self.failures.append(label)

    def prepare(self, name: str, in_process: bool):
        import workloads as w

        if name == "pec_sampling":
            prepared = w.prepare_pec_sampling(self.seed)
            w.warmup_pec_sampling()
        elif name == "exact_oracles":
            prepared = w.prepare_exact_oracles(self.seed)
            w.warmup_exact_oracles()
        else:
            prepared = w.prepare_cli_cold(self.seed, ROOT, CLI_WORKDIR, in_process)
            w.warmup_cli_cold(ROOT)
        return prepared

    def setup(self, name: str, in_process: bool):
        """Set up ``SETUP_REPEATS`` times (``CLI_SETUP_REPEATS`` for cli_cold);
        keep the last inputs. Returns the wall times and the times over the
        calibration timed around each."""
        prepared, times, rel = calibrated(
            lambda: self.prepare(name, in_process),
            CLI_SETUP_REPEATS if name == "cli_cold" else SETUP_REPEATS, calibrator(name)[0])
        try:
            self.record(prepared.references())
        except Exception as exc:  # an oracle that raises is a failed check
            self.record([("%s references raised %s: %s" % (name, type(exc).__name__, exc), False)])
        return prepared, times, rel

    def round(self, workload: str, index: int, prepared, traced: bool):
        """One call of every task, in order. Returns the call times by task
        and the same times over the calibration timed around each call."""
        cal_s = calibrator(workload)[0]
        times, rel = {}, {}
        cal = cal_s()
        for task in prepared.tasks:
            call = task.call
            if traced:
                self.tracer.run_id = len(self.calls)
                self.calls.append((workload, index, task.name))
                call = self.tracer.wrap("task." + task.name, task.call)
            t0 = _now()
            try:
                result = call()
            except Exception as exc:  # counted as a failed check, timing kept
                result, checks = None, [("%s raised %s: %s" % (task.name, type(exc).__name__, exc),
                                         False)]
            times[task.name] = _now() - t0
            after = cal_s()
            rel[task.name] = times[task.name] / (0.5 * (cal + after))
            cal = after
            self.record(checks if result is None else task.check(result))
        if traced:
            self.tracer.run_id = -1
        return times, rel


def _round_s(rounds) -> list[float]:
    return [sum(r.values()) for r in rounds]


def task_cal(rel_rounds) -> tuple[float, dict[str, float]]:
    """Geometric mean, over the workload's tasks, of each task's median call
    time in calibration units, and those medians: every task weighs the same,
    whatever its share of the round."""
    from stats import median

    per_task = {task: median([r[task] for r in rel_rounds]) for task in rel_rounds[0]}
    return math.exp(sum(math.log(t) for t in per_task.values()) / len(per_task)), per_task


def task_metrics(prepared, rounds, rel_rounds) -> dict[str, tuple]:
    """The workload's named end-to-end metrics: (value, unit, call times,
    call times over the calibration loop)."""
    from stats import median, tail

    out = {}
    for task in prepared.tasks:
        if not task.metric:
            continue
        times = [r[task.name] for r in rounds]
        rel = [r[task.name] for r in rel_rounds]
        value = task.work / median(times) if task.work else median(times)
        out[task.metric] = (value, task.unit, times, rel)
    if prepared.pooled:
        times = [t for r in rounds for t in r.values()]
        rel = [t for r in rel_rounds for t in r.values()]
        found = tail(times)
        out["cli_p50_s"] = (median(times), "s", times, rel)
        out["cli_tail_s"] = (found[0] if found else max(times), "s", times, rel)
    return out


def untraced(run: Run, name: str, seconds: float, imports, lines: list) -> dict:
    """``imports`` is ``cold_imports()``, or ``None`` where the client imports
    no qmit code (cli_cold)."""
    from calibrate import COLD_REFERENCE_S
    from stats import describe, median

    prepared, setup_times, setup_rel = run.setup(name, in_process=False)
    import_s, import_rel = (median(imports[0]), median(imports[1])) if imports else (0.0, 0.0)
    setup_s = COLD_REFERENCE_S * import_rel + calibrator(name)[1] * median(setup_rel)
    rounds, rel_rounds = [], []
    t_end = _now() + seconds
    while len(rounds) < MIN_ROUNDS or _now() < t_end:
        times, rel = run.round(name, len(rounds), prepared, traced=False)
        rounds.append(times)
        rel_rounds.append(rel)
    round_s, round_cal = _round_s(rounds), _round_s(rel_rounds)
    gated, per_task = task_cal(rel_rounds)
    named = task_metrics(prepared, rounds, rel_rounds)
    lines.append("%s: %d rounds, one client, closed loop" % (name, len(rounds)))
    lines.append("  setup_s %.6g s at the reference speed; wall: median of %d cold imports %.4g s "
                 "+ median of %d set-ups %s"
                 % (setup_s, len(imports[0]) if imports else 0, import_s, len(setup_times),
                    ", ".join("%.4g s" % t for t in setup_times)))
    lines.append("  round_s %s" % describe(round_s, "s"))
    lines.append("  round_cal %s" % describe(round_cal, "cal"))
    lines.append("  task_cal %.6g cal, geometric mean of %d task medians: %s"
                 % (gated, len(per_task), ", ".join("%s %.4g" % kv for kv in per_task.items())))
    for metric, (value, unit, times, rel) in named.items():
        lines.append("  %s %.6g %s; call time %s; %.6g cal" % (metric, value, unit,
                                                             describe(times, "s"), median(rel)))
    return {"setup_s": (setup_s, "s"), "task_cal": (gated, "cal"),
            "named": {k: v[:2] for k, v in named.items()}}


def traced(run: Run, name: str, seconds: float, own: bool, lines: list) -> dict[str, float]:
    """Alternate untraced and traced rounds of one workload, for ``seconds``
    if ``own`` is set and otherwise for one pair of rounds."""
    import layers
    import workloads as w
    from stats import median

    prepared = run.setup(name, in_process=True)[0]
    plain, traced_rounds = [], []
    t_end = _now() + (seconds if own else 0.0)
    while not traced_rounds or _now() < t_end:
        plain.append(run.round(name, len(plain), prepared, traced=False)[0])
        run.tracer.install(layers.targets())
        try:
            traced_rounds.append(run.round(name, len(traced_rounds), prepared, traced=True)[0])
        finally:
            run.tracer.uninstall()
    plain_s, traced_s = _round_s(plain), _round_s(traced_rounds)
    metrics = {}
    overhead = median(traced_s) - median(plain_s)
    metrics["%s.trace.overhead_s" % name] = overhead
    if name == "pec_sampling":
        w1 = median([r["pec_analytic_w1"] for r in plain])
        w2 = median([r["pec_analytic_w2"] for r in plain])
        metrics["pec_sampling.pec.parallel_eff"] = w1 / (PEC_WORKERS * w2)
    if name == "cli_cold":
        probes = [w.import_probe(ROOT) for _ in range(SETUP_REPEATS)]
        for key in probes[0]:
            metrics["cli_cold.cli.%s" % key] = median([p[key] for p in probes])
    lines.append("%s: %d untraced and %d traced rounds; tracing overhead %.4g s per round "
                 "(%.1f%% of %.4g s)" % (name, len(plain), len(traced_rounds), overhead,
                                        100.0 * overhead / median(plain_s), median(plain_s)))
    return metrics


def run_traced(run: Run, names, seconds: float, label: str, lines: list) -> dict:
    """Every per-layer metric: the named workloads run for ``seconds`` each,
    the others for one pair of rounds."""
    import layers
    import spans

    run.tracer = spans.Tracer()
    metrics = {}
    for workload in list(names) + [x for x in WORKLOADS if x not in names]:
        metrics.update(traced(run, workload, seconds, workload in names, lines))
    totals = layers.round_totals(run.tracer, run.calls)
    for workload in WORKLOADS:
        rounds = [t for (wl, _), t in sorted(totals.items()) if wl == workload]
        metrics.update(layers.span_metrics(workload, rounds))
    OUT.mkdir(parents=True, exist_ok=True)
    span_path = OUT / ("spans_%s_seed%d.npz" % (label, run.seed))
    run.tracer.save(span_path)
    lines.append("%d spans written to %s" % (len(run.tracer.start), span_path.relative_to(ROOT)))
    units = {n: u for n, u, _ in layers.per_layer_names()}
    for metric, unit in units.items():
        lines.append("  %s %.6g %s" % (metric, metrics[metric], unit))
    return {metric: (metrics[metric], unit) for metric, unit in units.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qmit" / "__init__.py").is_file():
        sys.stderr.write("qbench: no qmit sources under %s; run from a qmit checkout\n" % ROOT)
        return 2
    # one BLAS thread for this process and the CLI calls it starts, whatever
    # the caller's environment says; see RATIONALE.md ("Resources and environment")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    workloads.load_qmit()
    import envstamp

    env = envstamp.stamp(ROOT)
    threads = env["blas"]["threads"]
    if env["nproc"] < PEC_WORKERS:
        sys.stderr.write("qbench: needs %d CPUs for the 2-worker PEC task, found %d\n"
                         % (PEC_WORKERS, env["nproc"]))
        return 2
    if threads is not None and threads > env["nproc"]:
        sys.stderr.write("qbench: BLAS uses %d threads on %d CPUs\n"
                         % (threads, env["nproc"]))
        return 2

    run = Run(args.seed)
    lines: list[str] = []
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics: dict[str, tuple[float, str]] = {}
    if args.trace:
        metrics = run_traced(run, names, args.seconds, args.workload, lines)
    else:
        imports = cold_imports() if set(names) - {"cli_cold"} else None
        for name in names:
            # the cli_cold client imports nothing of qmit; its calls pay their own imports
            result = untraced(run, name, args.seconds, None if name == "cli_cold" else imports,
                              lines)
            prefix = "%s." % name if args.workload == "all" else ""
            metrics[prefix + "setup_s"] = result["setup_s"]
            metrics[prefix + "task_cal"] = result["task_cal"]
            if args.workload == "all":
                metrics.update({prefix + k: v for k, v in result["named"].items()})
    failed = len(run.failures)
    lines.append("fail_frac %d/%d = %.6g" % (failed, run.attempted, failed / max(1, run.attempted)))
    for label in sorted(set(run.failures)):
        lines.append("  FAILED: %s" % label)

    OUT.mkdir(parents=True, exist_ok=True)
    result_path = OUT / ("BENCH_%s_seed%d_trace%d.json" % (args.workload, args.seed, args.trace))
    result = {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "env": env, "failures": run.failures,
                   "report": lines, **result}, fh, indent=1)
    for line in lines:
        print(line)
    print("result file: %s" % result_path.relative_to(ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
