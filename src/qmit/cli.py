"""Command-line interface: one executable, one subcommand per workflow.

Every run prints a metadata header (tool version, seed, config echo)
followed by results in the selected format: an aligned table, CSV, or
line-oriented ``key=value`` records.  The config echo lists every option
of the subcommand except ``--seed``, which has its own header line, and
``--workers``: output is deterministic under a fixed config and seed, and
the worker count never changes results.

Unless the environment already sets them, ``main`` sets
``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS`` to 1
before numpy is first imported, so stdout does not depend on the BLAS
thread count.

Environment overrides: ``QMIT_SEED`` for the default seed and
``QMIT_WORKERS`` for the default number of ``qmit pec`` worker threads
(otherwise the CPU count, at most ``MAX_WORKERS``). A value that is not an
integer (or, for the worker count, is outside 1 to ``MAX_WORKERS``) is a
usage error, exit 2, and so is such a ``--workers`` value, a ``--shots``
below 1, or a ``--cut`` that is not QUBIT:BOUNDARY.
"""
from __future__ import annotations

import argparse
import os
import sys

from . import MAX_SHOTS, MAX_WORKERS, ParseError, __version__


def _integer(text: str, minimum=None, maximum=None) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("must be an integer, got %r" % text) from None
    if minimum is not None and value < minimum:
        raise argparse.ArgumentTypeError("must be >= %d, got %r" % (minimum, text))
    if maximum is not None and value > maximum:
        raise argparse.ArgumentTypeError("must be <= %d, got %r" % (maximum, text))
    return value


def _worker_count(text: str) -> int:
    return _integer(text, minimum=1, maximum=MAX_WORKERS)


def _shot_count(text: str) -> int:
    return _integer(text, minimum=1, maximum=MAX_SHOTS)


def _cut_point(text: str) -> str:
    """`text` itself once it reads as QUBIT:BOUNDARY, two integers, so the
    config echo is unchanged; `_cmd_cut` splits it."""
    try:
        qubit, boundary = text.split(":")
        int(qubit), int(boundary)
    except ValueError:
        raise argparse.ArgumentTypeError(
            "must be QUBIT:BOUNDARY, two integers, got %r" % text) from None
    return text


def _env_default(parser, name, convert, default):
    """convert(value) of environment variable `name`, or `default` if it is
    unset or empty; a value convert refuses is a usage error (exit 2)."""
    text = os.environ.get(name)
    if not text:
        return default
    try:
        return convert(text)
    except argparse.ArgumentTypeError as exc:
        parser.error("environment variable %s: %s" % (name, exc))


def _fmt(value) -> str:
    # a numpy scalar exists only if some command has imported numpy
    np = sys.modules.get("numpy")
    if np is not None and isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _emit(out, columns, rows, fmt):
    if fmt == "csv":
        out.write(",".join(columns) + "\n")
        for row in rows:
            out.write(",".join(_fmt(row[c]) for c in columns) + "\n")
    elif fmt == "records":
        for row in rows:
            out.write(" ".join("%s=%s" % (c, _fmt(row[c])) for c in columns) + "\n")
    else:
        cells = [[_fmt(row[c]) for c in columns] for row in rows]
        widths = [max([len(c)] + [len(r[i]) for r in cells])
                  for i, c in enumerate(columns)]
        out.write("  ".join(c.ljust(w) for c, w in zip(columns, widths)).rstrip() + "\n")
        for r in cells:
            out.write("  ".join(v.ljust(w) for v, w in zip(r, widths)).rstrip() + "\n")


_NOT_ECHOED = ("command", "func", "seed", "workers")


def _header(out, args):
    out.write("# qmit %s\n" % __version__)
    out.write("# seed: %d\n" % args.seed)
    parts = ["%s=%s" % (k.replace("_", "-"), v)
             for k, v in vars(args).items() if k not in _NOT_ECHOED]
    out.write("# config: %s %s\n" % (args.command, " ".join(parts)))


def _parse_observable(text: str, n_qubits: int):
    from .pauli import Observable, parse_pauli
    terms = []
    for piece in text.split(","):
        piece = piece.strip()
        if "*" in piece:
            coeff_text, label = piece.split("*", 1)
            coeff = float(coeff_text)
        else:
            coeff, label = 1.0, piece
        terms.append((coeff, parse_pauli(label.strip(), n_qubits)))
    return Observable.from_terms(n_qubits, terms)


def _load_circuit(path: str):
    from . import circuit_io
    with open(path, "r", encoding="utf-8") as fh:
        return circuit_io.parse(fh.read())


def _load_noise(path: str):
    from . import noise
    with open(path, "r", encoding="utf-8") as fh:
        return noise.loads(fh.read())


# ---------------------------------------------------------------------------
# subcommands

def _cmd_trotter(args, out):
    from . import hamiltonian
    chain = hamiltonian.build(args.n, seed=args.seed if args.random_fields else None)
    cnots, gates, layers = hamiltonian.trotter_counts(args.n, args.steps, args.order)
    row = {
        "n": args.n,
        "steps": args.steps,
        "order": args.order,
        "cnots": cnots,
        "gates": gates,
        "layers": layers,
        "bound": hamiltonian.trotter_bound_order1(chain, args.t, args.steps),
    }
    _emit(out, list(row.keys()), [row], args.format)
    if args.emit_circuit:
        from . import circuit_io
        circuit = hamiltonian.trotter_circuit(chain, args.t, args.steps, args.order)
        with open(args.emit_circuit, "w", encoding="utf-8") as fh:
            fh.write(circuit_io.serialize(circuit))


def _cmd_noise_learn(args, out):
    from . import noise
    model = _load_noise(args.noise)
    learned, residuals = noise.learn_rates_from_model(
        model, shots=args.shots, seed=args.seed
    )
    learned_by_key = {(p.x_mask, p.z_mask): lam for p, lam in learned.generators}
    rows = []
    for p, lam in model.generators:
        rows.append({
            "generator": p.to_label(),
            "true_rate": lam,
            "learned_rate": learned_by_key.get((p.x_mask, p.z_mask), 0.0),
        })
    _emit(out, ["generator", "true_rate", "learned_rate"], rows, args.format)
    out.write("# max_probe_misfit: %r\n" % max(abs(v) for v in residuals.values()))


def _cmd_pec(args, out):
    from . import pec
    circuit = _load_circuit(args.circuit)
    model = _load_noise(args.noise)
    obs = _parse_observable(args.observable, circuit.n_qubits)
    estimate = pec.pec_estimate(
        circuit,
        model,
        obs,
        samples=args.samples,
        seed=args.seed,
        mode=args.mode,
        workers=args.workers,
    )
    row = {
        "value": estimate.value,
        "std_error": estimate.std_error,
        "samples": estimate.samples,
        "gamma_total": estimate.gamma_total,
        "mode": estimate.mode,
    }
    _emit(out, list(row.keys()), [row], args.format)


def _cmd_zne(args, out):
    from . import pec
    circuit = _load_circuit(args.circuit)
    model = _load_noise(args.noise)
    obs = _parse_observable(args.observable, circuit.n_qubits)
    factors, values, extrapolated = pec._zne(circuit, model, obs, args.factors.split(","),
                                             args.order)
    rows = [{"scale": c, "value": v} for c, v in zip(factors, values)]
    _emit(out, ["scale", "value"], rows, args.format)
    out.write("# extrapolated: %r\n" % extrapolated)


def _cmd_cut(args, out):
    from . import knit
    circuit = _load_circuit(args.circuit)
    cut_points = [tuple(map(int, text.split(":"))) for text in args.cut]
    plan = knit.plan_wire_cut(circuit, cut_points)
    obs = _parse_observable(args.observable, circuit.n_qubits)
    result = knit.execute_plan(
        plan, obs, mode=args.mode, samples=args.samples, seed=args.seed
    )
    row = {
        "value": result["value"],
        "std_error": result["std_error"] if result["std_error"] is not None else "",
        "terms": result["terms"],
        "gamma_cut": result["gamma_cut"],
        "fragments": len(plan.fragments),
    }
    _emit(out, list(row.keys()), [row], args.format)


def _cmd_varqte(args, out):
    from . import hamiltonian, simulator, varqte
    chain = hamiltonian.build(args.n, seed=args.seed if args.random_fields else None)
    ansatz = varqte.hardware_efficient_ansatz(args.n, args.layers)
    # |0...0> is an eigenstate of the chain, so start away from it; stream 1
    # leaves --random-fields' stream 0 untouched
    theta0 = simulator.philox_rng(args.seed, 1).uniform(-0.5, 0.5, size=ansatz.n_params)
    trajectory = varqte.evolve(
        ansatz, theta0, chain.observable(), args.t_final, args.dt,
        method=args.method, regularization=args.regularization,
    )
    columns = ["t"] + ["theta%d" % p for p in range(ansatz.n_params)] + ["residual"]
    has_fid = trajectory.fidelities is not None
    if has_fid:
        columns.append("fidelity")
    rows = []
    for i, t in enumerate(trajectory.times):
        row = {"t": t, "residual": trajectory.residuals[i]}
        for p in range(ansatz.n_params):
            row["theta%d" % p] = trajectory.thetas[i, p]
        if has_fid:
            row["fidelity"] = trajectory.fidelities[i]
        rows.append(row)
    _emit(out, columns, rows, args.format)


def _cmd_estimate_ft(args, out):
    from . import resources
    report = resources.ft_report(args.n_cnot, args.n_t, args.circuit_size)
    row = {
        "circuit_size": report.circuit_size,
        "cnot_volume": report.cnot_volume,
        "t_volume": report.t_volume,
        "total_cnot_volume": report.total_cnot_volume,
        "total_t_volume": report.total_t_volume,
        "total_volume": report.total_volume,
    }
    _emit(out, list(row.keys()), [row], args.format)
    out.write(
        "# note: fits assume default logical error budgets; tighter circuit"
        " fidelity targets raise these volumes\n"
    )


def _cmd_scale(args, out):
    from . import resources
    system = resources.ModularSystem(args.q, args.m, args.l, args.t, args.p)
    row = {"q": args.q, "m": args.m, "l": args.l, "t": args.t, "p": args.p,
           "n": resources.modular_scale(system)}
    _emit(out, list(row.keys()), [row], args.format)


def _cmd_overhead_table(args, out):
    from . import resources
    steps_list = [int(s) for s in args.steps.split(",")]
    lambdas = [float(v) for v in args.lambdas.split(",")]
    rows = resources.overhead_table(args.n, steps_list, lambdas, eps=args.eps)
    _emit(out, ["lambda", "steps", "layers", "instances"], rows, args.format)


def _cmd_simulate(args, out):
    from . import simulator
    circuit = _load_circuit(args.circuit)
    state = simulator.run(circuit)
    if args.observable:
        obs = _parse_observable(args.observable, circuit.n_qubits)
        row = {"observable": args.observable, "value": simulator.expectation(state, obs)}
        _emit(out, ["observable", "value"], [row], args.format)
    if args.shots:
        counts = simulator.sample_counts(state, args.shots, args.seed)
        rows = [{"bitstring": b, "count": c} for b, c in sorted(counts.items())]
        _emit(out, ["bitstring", "count"], rows, args.format)
    if not args.observable and not args.shots:
        rows = [{"basis_state": i, "amplitude": a}
                for i, a in enumerate(state.amplitudes.tolist())]
        _emit(out, ["basis_state", "amplitude"], rows, args.format)


# ---------------------------------------------------------------------------

def _add_common(p, seed=None, workers=None):
    """--format, and --seed / --workers with these defaults where given."""
    p.add_argument("--format", choices=["table", "csv", "records"], default="table")
    if seed is not None:
        p.add_argument("--seed", type=int, default=seed)
    if workers is not None:
        p.add_argument("--workers", type=_worker_count, default=workers)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmit",
        description="Quantum error-mitigation testbed: Trotter benchmarks, "
                    "Pauli-Lindblad noise, PEC/ZNE, wire cutting, variational "
                    "time evolution and fault-tolerance cost models.",
    )
    parser.add_argument("--version", action="version", version="qmit %s" % __version__)
    seed = _env_default(parser, "QMIT_SEED", _integer, 0)
    workers = _env_default(parser, "QMIT_WORKERS", _worker_count,
                           min(os.cpu_count() or 1, MAX_WORKERS))
    parser.set_defaults(seed=seed)  # the header's seed for commands without --seed
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("trotter", help="build a Trotter circuit and report costs")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--order", type=int, choices=[1, 2], default=1)
    p.add_argument("--random-fields", action="store_true")
    p.add_argument("--emit-circuit", default=None)
    _add_common(p, seed)
    p.set_defaults(func=_cmd_trotter)

    p = sub.add_parser("noise-learn", help="learn rates of a planted model")
    p.add_argument("--noise", required=True)
    p.add_argument("--shots", type=_shot_count, default=None)
    _add_common(p, seed)
    p.set_defaults(func=_cmd_noise_learn)

    p = sub.add_parser("pec", help="probabilistic error cancellation estimate")
    p.add_argument("--circuit", required=True)
    p.add_argument("--noise", required=True)
    p.add_argument("--observable", required=True)
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--mode", choices=["analytic", "shot"], default="analytic")
    _add_common(p, seed, workers)
    p.set_defaults(func=_cmd_pec)

    p = sub.add_parser("zne", help="zero-noise extrapolation")
    p.add_argument("--circuit", required=True)
    p.add_argument("--noise", required=True)
    p.add_argument("--observable", required=True)
    p.add_argument("--factors", default="1,2,3")
    p.add_argument("--order", type=int, default=1)
    _add_common(p)
    p.set_defaults(func=_cmd_zne)

    p = sub.add_parser("cut", help="wire-cut a circuit and recombine")
    p.add_argument("--circuit", required=True)
    p.add_argument("--cut", type=_cut_point, action="append", required=True,
                   metavar="QUBIT:BOUNDARY")
    p.add_argument("--observable", required=True)
    p.add_argument("--mode", choices=["exact", "sampled"], default="exact")
    p.add_argument("--samples", type=int, default=None)
    _add_common(p, seed)
    p.set_defaults(func=_cmd_cut)

    p = sub.add_parser("varqte", help="variational time evolution trajectory")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--layers", type=int, default=3)
    p.add_argument("--t-final", type=float, default=0.5)
    p.add_argument("--dt", type=float, default=0.01)
    p.add_argument("--method", choices=["mclachlan", "tdvp"], default="mclachlan")
    p.add_argument("--regularization", type=float, default=1e-6)
    p.add_argument("--random-fields", action="store_true")
    _add_common(p, seed)
    p.set_defaults(func=_cmd_varqte)

    p = sub.add_parser("estimate-ft", help="fault-tolerance space-time volumes")
    p.add_argument("--n-cnot", type=float, required=True)
    p.add_argument("--n-t", type=float, required=True)
    p.add_argument("--circuit-size", type=float, default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_estimate_ft)

    p = sub.add_parser("scale", help="modular system scale n = q*m*l*t*p")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_scale)

    p = sub.add_parser("overhead-table", help="PEC circuit-instance overhead grid")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--steps", required=True, help="comma-separated step counts")
    p.add_argument("--lambdas", required=True, help="comma-separated rates")
    p.add_argument("--eps", type=float, default=1.0)
    _add_common(p)
    p.set_defaults(func=_cmd_overhead_table)

    p = sub.add_parser("simulate", help="run a circuit file exactly")
    p.add_argument("circuit")
    p.add_argument("--observable", default=None)
    p.add_argument("--shots", type=_shot_count, default=None)
    _add_common(p, seed)
    p.set_defaults(func=_cmd_simulate)

    return parser


def main(argv=None) -> int:
    if "numpy" not in sys.modules:
        # one BLAS thread unless the user chose otherwise: tdvp's pinv, for
        # one, differs in its last bits between thread counts. Only a fresh
        # interpreter is touched; an in-process caller keeps its environment.
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ.setdefault(var, "1")
    parser = build_parser()
    args = parser.parse_args(argv)
    out = sys.stdout
    try:
        _header(out, args)
        args.func(args, out)
    except ParseError as exc:
        sys.stderr.write("parse error: %s\n" % exc)
        return 2
    except (ValueError, OSError, MemoryError) as exc:
        sys.stderr.write("validation error: %s\n" % exc)
        return 3
    except (ArithmeticError, RuntimeError) as exc:
        sys.stderr.write("numeric error: %s\n" % exc)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
