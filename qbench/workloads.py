"""Inputs, tasks and correctness checks of the three benchmark workloads.

Each workload is a closed loop with one client: a round calls every task once,
in a fixed order, and waits for each result before the next call. Inputs come
from the workload seed only. Every call of a task in a run gets the same
inputs and the same estimator seed, so per-call work counts repeat exactly for
a fixed seed, and each result must also equal the task's first result bit for
bit (the determinism contract).

Checks compare results with the exact oracles the tests use, at the tests'
tolerances. A check is a ``(label, passed)`` pair; a call that raises fails
the task's checks.
"""
from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

# the qmit modules are imported by ``load_qmit`` once ``src/`` is on the path
circuit_io = cli = hamiltonian = knit = noise = pec = simulator = varqte = None
Gate = Layer = QuantumCircuit = Observable = PauliString = None

PEC_SAMPLES = 2048  # two chunks of pec.CHUNK_SIZE, one per worker at 2 workers
KNIT_SAMPLES = 1024
LEARN_SHOTS = 10 ** 5
LEARN_FITS_PER_CALL = 16
SIGMAS = 5.0


def load_qmit() -> None:
    """Import the qmit modules the workloads call; run with ``src/`` on sys.path."""
    global circuit_io, cli, hamiltonian, knit, noise, pec, simulator, varqte
    global Gate, Layer, QuantumCircuit, Observable, PauliString
    from qmit import circuit_io, cli, hamiltonian, knit, noise, pec, simulator, varqte
    from qmit.circuits import Gate, Layer, QuantumCircuit
    from qmit.pauli import Observable, PauliString


@dataclass
class Task:
    name: str
    call: Callable[[], Any]
    check: Callable[[Any], list]
    metric: str = ""  # end-to-end metric fed by this task's call times
    unit: str = "s"
    work: float = 0.0  # work per call; a rate metric reports work / median time


@dataclass
class Prepared:
    tasks: list[Task]
    references: Callable[[], list]  # oracle checks made once, before timing
    pooled: bool = False  # cli_p50_s and cli_tail_s over every call of the run


class FirstResult:
    """Remembers a task's first result; later results must equal it exactly."""

    def __init__(self):
        self.key = None

    def same(self, key) -> bool:
        if self.key is None:
            self.key = key
        return key == self.key


def _within(value: float, target: float, sigma: float) -> bool:
    return bool(np.isfinite(value)) and abs(value - target) <= SIGMAS * sigma


def _total_z(amps: np.ndarray, n: int) -> float:
    """Sum of <Z_k> over all qubits, straight from the probabilities."""
    idx = np.arange(amps.size)
    ones = np.zeros(amps.size)
    for k in range(n):
        ones += (idx >> k) & 1
    return float(np.dot(np.abs(amps) ** 2, n - 2 * ones))


def _neel(n: int) -> int:
    return sum(1 << k for k in range(0, n, 2))


# ---------------------------------------------------------------------------
# pec_sampling: many calls on 4-qubit states (16 amplitudes)

def pec_circuit(rng) -> "QuantumCircuit":
    """Seven layers, four of them two-qubit layers: the gate layout of the
    test suite's PEC benchmark circuit with angles drawn from ``rng``."""
    def a():
        return float(rng.uniform(-np.pi, np.pi))

    return QuantumCircuit(4, [
        Layer([Gate("ry", (q,), a()) for q in range(4)]),
        Layer([Gate("cx", (0, 1)), Gate("cx", (2, 3))]),
        Layer([Gate("rz", (0,), a()), Gate("ry", (2,), a())]),
        Layer([Gate("cx", (1, 2))]),
        Layer([Gate("rx", (1,), a()), Gate("rz", (3,), a())]),
        Layer([Gate("cx", (0, 1)), Gate("cx", (2, 3))]),
        Layer([Gate("cx", (1, 2))]),
    ])


def layer_model(rng, n: int = 4, count: int = 5):
    """``count`` distinct weight-1/weight-2 line generators with rates in
    [0.002, 0.01]."""
    candidates = noise.default_probes(n, noise.line_edges(n))
    chosen = rng.choice(len(candidates), size=count, replace=False)
    return noise.PauliLindbladModel(n, tuple(
        (candidates[int(i)], float(rng.uniform(0.002, 0.01))) for i in chosen))


def knit_circuit(rng) -> "QuantumCircuit":
    """Three 3-qubit blocks joined by two gates; cutting qubit 2 before the
    first joint and qubit 5 before the second leaves fragments of 3, 4 and 4
    qubits."""
    def ry_all():
        return Layer([Gate("ry", (q,), float(rng.uniform(-np.pi, np.pi))) for q in range(9)])

    return QuantumCircuit(9, [
        ry_all(),
        Layer([Gate("cx", (0, 1)), Gate("cx", (3, 4)), Gate("cx", (6, 7))]),
        Layer([Gate("cx", (1, 2)), Gate("cx", (4, 5)), Gate("cx", (7, 8))]),
        Layer([Gate("cx", (2, 3))]),
        Layer([Gate("cx", (5, 6))]),
        ry_all(),
    ])


KNIT_CUTS = ((2, 3), (5, 4))


def prepare_pec_sampling(seed: int) -> Prepared:
    rng = np.random.default_rng([seed, 1])
    circuit = pec_circuit(rng)
    models = [layer_model(rng) for _ in circuit.two_qubit_layer_indices()]
    obs = Observable.from_label("ZIIZ")
    pec_seed = int(rng.integers(2 ** 31))

    kcircuit = knit_circuit(rng)
    kobs = Observable.from_label("ZIIIZIIIZ")
    plan = knit.plan_wire_cut(kcircuit, KNIT_CUTS)
    knit_seed = int(rng.integers(2 ** 31))

    n_learn = 8
    candidates = noise.default_probes(n_learn, noise.line_edges(n_learn))
    planted = rng.choice(len(candidates), size=12, replace=False)
    learn_model = noise.PauliLindbladModel(n_learn, tuple(
        (candidates[int(i)], float(rng.uniform(0.005, 0.02))) for i in planted))
    learn_seed = int(rng.integers(2 ** 31))

    state = {"ideal": simulator.expectation(simulator.run(circuit), obs)}
    first = {name: FirstResult() for name in ("w1", "shot", "knit", "learn")}

    def estimate(mode, workers):
        return lambda: pec.pec_estimate(circuit, models, obs, PEC_SAMPLES, pec_seed,
                                        mode=mode, workers=workers)

    def check_w1(est):
        state["w1"] = est
        return [("pec analytic within 5 sigma of the noiseless value",
                 _within(est.value, state["ideal"], est.std_error)),
                ("pec analytic repeats bit for bit", first["w1"].same((est.value, est.std_error)))]

    def check_shot(est):
        return [("pec shot within 5 sigma of the noiseless value",
                 _within(est.value, state["ideal"], est.std_error)),
                ("pec shot repeats bit for bit", first["shot"].same((est.value, est.std_error)))]

    def check_w2(est):
        w1 = state.get("w1")
        return [("pec 2-worker within 5 sigma of the noiseless value",
                 _within(est.value, state["ideal"], est.std_error)),
                ("pec 2-worker equals 1-worker bit for bit",
                 w1 is not None and (est.value, est.std_error) == (w1.value, w1.std_error))]

    def check_knit(result):
        return [("sampled cutting within 5 sigma of exact mode",
                 _within(result["value"], state["knit_exact"], result["std_error"])),
                ("sampled cutting repeats bit for bit",
                 first["knit"].same((result["value"], result["std_error"])))]

    def learn():
        return [noise.learn_rates_from_model(learn_model, shots=LEARN_SHOTS, seed=learn_seed + k)[0]
                for k in range(LEARN_FITS_PER_CALL)]

    def check_learn(models_out):
        # the tests' 15% tolerance, on the mean of the call's independent fits:
        # single fits of this 8-qubit instance have a shot-noise tail past 15%
        learned = [{(p.x_mask, p.z_mask): lam for p, lam in m.generators} for m in models_out]
        worst = max(abs(np.mean([r.get((p.x_mask, p.z_mask), 0.0) for r in learned]) - lam) / lam
                    for p, lam in learn_model.generators)
        key = tuple(tuple(lam for _, lam in m.generators) for m in models_out)
        return [("mean learned rates within 15% of the planted rates", worst < 0.15),
                ("noise learning repeats bit for bit", first["learn"].same(key))]

    def references():
        # the reduced instance: the first two two-qubit layers, two generators each
        reduced = QuantumCircuit(4, circuit.layers[:4])
        reduced_models = [noise.PauliLindbladModel(4, m.generators[:2]) for m in models[:2]]
        ideal = simulator.expectation(simulator.run(reduced), obs)
        signed = pec.enumerate_signed(reduced, reduced_models, obs)
        exact = knit.execute_plan(plan, kobs, mode="exact")
        uncut = simulator.expectation(simulator.run(kcircuit), kobs)
        state["knit_exact"] = exact["value"]
        fragments = sorted(f.circuit.n_qubits for f in plan.fragments)
        return [("enumerate_signed equals the noiseless value (reduced instance)",
                 abs(signed - ideal) < 1e-10),
                ("exact cutting equals the uncut value", abs(exact["value"] - uncut) < 1e-10),
                ("cut plan has 64 terms and fragments of 3, 4, 4 qubits",
                 exact["terms"] == 64 and fragments == [3, 4, 4])]

    tasks = [
        Task("pec_analytic_w1", estimate("analytic", 1), check_w1,
             "pec_samples_per_s", "1/s", PEC_SAMPLES),
        Task("pec_shot_w1", estimate("shot", 1), check_shot,
             "pec_shot_samples_per_s", "1/s", PEC_SAMPLES),
        Task("pec_analytic_w2", estimate("analytic", 2), check_w2,
             "pec_w2_samples_per_s", "1/s", PEC_SAMPLES),
        Task("knit_sampled", lambda: knit.execute_plan(plan, kobs, mode="sampled",
                                                        samples=KNIT_SAMPLES, seed=knit_seed),
             check_knit, "knit_samples_per_s", "1/s", KNIT_SAMPLES),
        Task("learn_fit", learn, check_learn, "learn_fits_per_s", "1/s", LEARN_FITS_PER_CALL),
    ]
    return Prepared(tasks, references)


def warmup_pec_sampling() -> None:
    """Small calls of every task so lazy set-up and the process pool's first
    start are paid before timing."""
    rng = np.random.default_rng(0)
    circuit = pec_circuit(rng)
    models = [layer_model(rng) for _ in circuit.two_qubit_layer_indices()]
    obs = Observable.from_label("ZIIZ")
    pec.pec_estimate(circuit, models, obs, 64, 0, mode="analytic")
    pec.pec_estimate(circuit, models, obs, 64, 0, mode="shot")
    pec.pec_estimate(circuit, models, obs, pec.CHUNK_SIZE + 1, 0, workers=2)
    plan = knit.plan_wire_cut(knit_circuit(rng), KNIT_CUTS)
    knit.execute_plan(plan, Observable.from_label("ZIIIZIIIZ"), mode="sampled", samples=16, seed=0)
    noise.learn_rates_from_model(layer_model(rng, 4, 3), shots=1000, seed=0)


# ---------------------------------------------------------------------------
# exact_oracles: few calls on large states and dense density matrices

TROTTER_N, VD_N, ZNE_N, VARQTE_N, EXACT_N = 18, 10, 8, 8, 10


def _chain(rng, n):
    return hamiltonian.build(n, fields=rng.uniform(-1.0, 1.0, size=n))


def _vd_mixture(rng, n):
    """Rank-3 mixture of Trotter-evolved basis states (orthonormal, since the
    circuit is unitary) with weights from ``rng``, and the total-Z observable
    (one dense n-qubit Pauli product per term)."""
    chain = _chain(rng, n)
    circuit = hamiltonian.trotter_circuit(chain, 0.5, 1, 1)
    indices = rng.choice(2 ** n, size=3, replace=False)
    weights = rng.dirichlet(np.ones(3))
    states = []
    for index in indices:
        basis = np.zeros(2 ** n, dtype=complex)
        basis[int(index)] = 1.0
        states.append(simulator.run_array(circuit, basis))
    rho = sum(w * np.outer(s, s.conj()) for w, s in zip(weights, states))
    total_z = Observable.from_terms(n, [(1.0, PauliString.single(n, q, "Z")) for q in range(n)])
    return total_z, simulator.DensityMatrix(n, rho), weights, states


def _zne_instance(rng, n):
    chain = _chain(rng, n)
    circuit = hamiltonian.trotter_circuit(chain, 0.5, 1, 1)
    singles = [PauliString.single(n, q, k) for q in range(n) for k in "XYZ"]
    chosen = rng.choice(len(singles), size=16, replace=False)
    model = noise.PauliLindbladModel(n, tuple(
        (singles[int(i)], float(rng.uniform(0.001, 0.005))) for i in chosen))
    return circuit, model, chain.observable()


def prepare_exact_oracles(seed: int) -> Prepared:
    rng = np.random.default_rng([seed, 2])
    trotter = hamiltonian.trotter_circuit(_chain(rng, TROTTER_N), 1.0, 2, 2)
    neel = np.zeros(2 ** TROTTER_N, dtype=complex)
    neel[_neel(TROTTER_N)] = 1.0

    zne_circuit, zne_model, zne_obs = _zne_instance(rng, ZNE_N)
    vd_obs, vd_rho, vd_weights, vd_states = _vd_mixture(rng, VD_N)

    ansatz = varqte.hardware_efficient_ansatz(VARQTE_N, 2)
    theta0 = rng.uniform(-0.5, 0.5, size=ansatz.n_params)
    varqte_h = _chain(rng, VARQTE_N).observable()

    exact_h = _chain(rng, EXACT_N).observable()
    exact_psi = simulator.Statevector.basis(EXACT_N, _neel(EXACT_N))
    exact_t = float(rng.uniform(0.5, 1.5))

    state: dict = {}
    first = {name: FirstResult() for name in ("trotter", "zne", "vd", "varqte", "exact")}

    def check_trotter(amps):
        return [("trotter keeps the norm", abs(np.linalg.norm(amps) - 1.0) < 1e-10),
                ("trotter keeps total Z",
                 abs(_total_z(amps, TROTTER_N) - _total_z(neel, TROTTER_N)) < 1e-9),
                ("trotter repeats bit for bit", first["trotter"].same(amps.tobytes()))]

    def check_zne(value):
        ideal, noisy = state["zne_ideal"], state["zne_noisy"]
        return [("zne closer to the noiseless value than the unmitigated one",
                 abs(value - ideal) < abs(noisy - ideal)),
                ("zne repeats bit for bit", first["zne"].same(value))]

    def check_vd(value):
        target = state["vd_oracle"]
        return [("vd equals sum p^2 <O> / sum p^2 of the mixture",
                 abs(value - target) < 1e-9 * max(1.0, abs(target))),
                ("vd repeats bit for bit", first["vd"].same(value))]

    def check_varqte(traj):
        fids = traj.fidelities
        return [("varqte starts at fidelity 1 and stays in [0, 1]",
                 fids is not None and abs(fids[0] - 1.0) < 1e-9
                 and bool(np.all((fids >= 0) & (fids <= 1 + 1e-9)))),
                ("varqte repeats bit for bit", first["varqte"].same(traj.thetas.tobytes()))]

    def check_exact(out):
        amps = out.amplitudes
        energy = simulator.expectation_array(amps, exact_h)
        return [("evolve_exact keeps the norm", abs(np.linalg.norm(amps) - 1.0) < 1e-10),
                ("evolve_exact keeps <H>", abs(energy - state["exact_energy"]) < 1e-8),
                ("evolve_exact keeps total Z",
                 abs(_total_z(amps, EXACT_N) - _total_z(exact_psi.amplitudes, EXACT_N)) < 1e-8),
                ("evolve_exact repeats bit for bit", first["exact"].same(amps.tobytes()))]

    def references():
        state["zne_ideal"] = simulator.expectation(simulator.run(zne_circuit), zne_obs)
        state["zne_noisy"] = pec.noisy_expectation(zne_circuit, zne_model, zne_obs)
        values = [simulator.expectation_array(s, vd_obs) for s in vd_states]
        squares = vd_weights ** 2
        state["vd_oracle"] = float(np.dot(squares, values) / squares.sum())
        gram = np.array([[np.vdot(a, b) for b in vd_states] for a in vd_states])
        state["exact_energy"] = simulator.expectation_array(exact_psi.amplitudes, exact_h)
        return [("vd mixture states are orthonormal", np.abs(gram - np.eye(3)).max() < 1e-10),
                ("trotter circuit has 514 gates", trotter.gate_count() == 514)]

    tasks = [
        Task("trotter_run_array", lambda: simulator.run_array(trotter, neel), check_trotter,
             "trotter_gates_per_s", "1/s", trotter.gate_count()),
        Task("zne", lambda: pec.zne_estimate(zne_circuit, zne_model, zne_obs, (1.0, 2.0, 3.0)),
             check_zne, "zne_s", "s"),
        Task("virtual_distillation",
             lambda: noise.virtual_distillation_expectation(vd_rho, vd_obs), check_vd, "vd_s", "s"),
        Task("varqte_evolve",
             lambda: varqte.evolve(ansatz, theta0, varqte_h, 0.05, 0.01), check_varqte,
             "varqte_s", "s"),
        Task("evolve_exact",
             lambda: simulator.evolve_exact(exact_h, exact_psi, exact_t), check_exact,
             "evolve_exact_s", "s"),
    ]
    return Prepared(tasks, references)


def warmup_exact_oracles() -> None:
    """Every task once on a 4-qubit instance: loads BLAS/LAPACK code paths
    without paying for the full sizes."""
    rng = np.random.default_rng(0)
    chain = _chain(rng, 4)
    amps = np.zeros(16, dtype=complex)
    amps[0] = 1.0
    simulator.run_array(hamiltonian.trotter_circuit(chain, 1.0, 1, 2), amps)
    model = noise.PauliLindbladModel(4, tuple(
        (PauliString.single(4, q, "X"), 0.001) for q in range(4)))
    pec.zne_estimate(hamiltonian.trotter_circuit(chain, 0.5, 1, 1), model, chain.observable())
    obs, rho, _, _ = _vd_mixture(rng, 4)
    noise.virtual_distillation_expectation(rho, obs)
    small = varqte.hardware_efficient_ansatz(2, 1)
    varqte.evolve(small, np.full(small.n_params, 0.1), _chain(rng, 2).observable(), 0.01, 0.01)
    simulator.evolve_exact(chain.observable(), simulator.Statevector.zero(4), 0.5)


# ---------------------------------------------------------------------------
# cli_cold: every README subcommand in a fresh interpreter

def cli_commands(seed: int, workdir: str) -> list[tuple[str, list[str]]]:
    circuit = workdir + "/bell.qc"
    model = workdir + "/model.noise"
    s = str(seed)
    return [
        ("simulate", ["simulate", circuit, "--observable", "ZZ"]),
        ("trotter", ["trotter", "--n", "100", "--steps", "100", "--order", "1", "--t", "1.0"]),
        ("noise-learn", ["noise-learn", "--noise", model, "--shots", "100000", "--seed", s]),
        ("pec_w1", ["pec", "--circuit", circuit, "--noise", model, "--observable", "ZZ",
                    "--samples", str(PEC_SAMPLES), "--seed", s, "--workers", "1"]),
        ("pec_w2", ["pec", "--circuit", circuit, "--noise", model, "--observable", "ZZ",
                    "--samples", str(PEC_SAMPLES), "--seed", s, "--workers", "2"]),
        ("zne", ["zne", "--circuit", circuit, "--noise", model, "--observable", "ZZ"]),
        ("cut", ["cut", "--circuit", circuit, "--cut", "0:1", "--observable", "ZZ"]),
        ("varqte", ["varqte", "--n", "4", "--layers", "2", "--t-final", "0.1", "--dt", "0.01",
                    "--seed", s]),
        ("estimate-ft", ["estimate-ft", "--n-cnot", "1e7", "--n-t", "1e9"]),
        ("overhead-table", ["overhead-table", "--n", "100", "--steps", "100",
                            "--lambdas", "1e-4,3e-4,1e-3"]),
        ("scale", ["scale", "--q", "100", "--m", "4", "--l", "3", "--t", "2", "--p", "5"]),
    ]


def write_cli_inputs(seed: int, root: Path, workdir: str) -> None:
    rng = np.random.default_rng([seed, 3])
    path = root / workdir
    path.mkdir(parents=True, exist_ok=True)
    (path / "bell.qc").write_text("qubits 2;\nh 0;\n\ncx 0, 1;\n", encoding="utf-8")
    rates = rng.uniform(0.005, 0.03, size=3)
    (path / "model.noise").write_text(
        "qubits 2\nXI %r\nIZ %r\nYY %r\n" % tuple(float(r) for r in rates), encoding="utf-8")


def cli_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


@dataclass
class CliResult:
    returncode: int
    stdout: bytes
    stderr: bytes


def cli_subprocess(root: Path, argv: list[str], env: dict) -> CliResult:
    proc = subprocess.run([sys.executable, "-m", "qmit.cli", *argv], cwd=root, env=env,
                          capture_output=True, timeout=120, check=False)
    return CliResult(proc.returncode, proc.stdout, proc.stderr)


def cli_in_process(argv: list[str]) -> CliResult:
    """The same argv through ``qmit.cli.main`` in this interpreter."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return CliResult(code, out.getvalue().encode(), err.getvalue().encode())


def prepare_cli_cold(seed: int, root: Path, workdir: str, in_process: bool) -> Prepared:
    write_cli_inputs(seed, root, workdir)
    env = cli_env(root)
    first: dict[str, FirstResult] = {}
    state: dict = {}

    def make(name, argv):
        first[name] = FirstResult()

        def call():
            cwd = os.getcwd()
            if not in_process:
                return cli_subprocess(root, argv, env)
            os.chdir(root)
            try:
                return cli_in_process(argv)
            finally:
                os.chdir(cwd)

        def check(result):
            state[name] = result.stdout
            checks = [("%s exits 0" % name, result.returncode == 0),
                      ("%s prints no traceback" % name, b"Traceback" not in result.stderr),
                      ("%s stdout repeats byte for byte" % name, first[name].same(result.stdout))]
            if name == "pec_w2":
                checks.append(("pec stdout is the same at 1 and 2 workers",
                               result.stdout == state.get("pec_w1")))
            return checks

        return Task(name, call, check)

    tasks = [make(name, argv) for name, argv in cli_commands(seed, workdir)]
    return Prepared(tasks, lambda: [], pooled=True)


def warmup_cli_cold(root: Path) -> None:
    proc = subprocess.run([sys.executable, "-m", "qmit.cli", "--version"], cwd=root,
                          env=cli_env(root), capture_output=True, timeout=120, check=False)
    if proc.returncode != 0:
        raise RuntimeError("qmit --version failed: %s" % proc.stderr.decode(errors="replace"))


def import_probe(root: Path) -> dict[str, float]:
    """Interpreter start, ``import qmit.cli`` and the ``scipy.optimize`` share
    of it, from ``-X importtime`` in fresh interpreters (seconds)."""
    env = cli_env(root)
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=env, check=True, timeout=60)
    interp = time.perf_counter() - t0
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import qmit.cli"],
                          env=env, cwd=root, capture_output=True, text=True, check=True,
                          timeout=120)
    cumulative = {}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            cumulative[parts[2].strip()] = int(parts[1]) * 1e-6
    return {"interp_s": interp, "import_s": cumulative.get("qmit.cli", 0.0),
            "scipy_import_s": cumulative.get("scipy.optimize", 0.0)}
