"""Acceptance suite: twelve go/no-go checks, one printed verdict line each."""
import subprocess
import sys

import numpy as np
import pytest
from scipy.linalg import expm

from conftest import (
    bell_circuit,
    benchmark_circuit,
    benchmark_model,
    benchmark_observable,
    random_circuit,
)
from dense import observable_matrix
from qmit.circuit_io import ParseError, parse, serialize
from qmit.circuits import Gate, Layer, QuantumCircuit
from qmit.hamiltonian import build, trotter_bound_order1, trotter_circuit
from qmit.knit import CUT_TERMS, execute_plan, plan_wire_cut
from qmit.noise import PauliLindbladModel, learn_rates_from_model
from qmit.pauli import Observable, parse_pauli
from qmit.pec import (
    enumerate_signed,
    gamma_total,
    noisy_expectation,
    pec_estimate,
    runtime_estimate,
    zne_estimate,
)
from qmit.resources import cnot_volume, t_volume
from qmit.simulator import expectation, run, run_array
from qmit.varqte import (
    Ansatz,
    FixedElement,
    RotationElement,
    compute_M,
    compute_mclachlan,
    evolve,
    state_and_derivatives,
)
from test_pec import noisy_trajectory_values
from test_varqte import finite_difference, random_ansatz


def verdict(number: int, ok: bool, text: str) -> None:
    line = "ACCEPTANCE %02d %s - %s" % (number, "PASS" if ok else "FAIL", text)
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def pec_benchmark():
    """Shared 10^5-sample PEC run on the 4-qubit benchmark (shared by two checks)."""
    circuit = benchmark_circuit()
    model = benchmark_model(0.05)
    models = [model] * 4
    obs = benchmark_observable()
    ideal = expectation(run(circuit), obs)
    noisy = noisy_expectation(circuit, models, obs)
    estimate = pec_estimate(circuit, models, obs, samples=10 ** 5, seed=11, workers=4)
    return circuit, model, models, obs, ideal, noisy, estimate


def test_criterion_01_ft_volume_golden_values():
    vc, vt = cnot_volume(1e9), t_volume(1e9)
    ok = 2.0e4 <= vc <= 2.2e4 and 3.5e6 <= vt <= 3.8e6
    verdict(1, ok, "cnot_volume(1e9)=%.4g, t_volume(1e9)=%.4g (roughly 2e4 / 4e6)"
            % (vc, vt))


def test_criterion_02_pec_unbiasedness_statistical(pec_benchmark):
    _, _, _, _, ideal, noisy, est = pec_benchmark
    mitigated_sigmas = abs(est.value - ideal) / est.std_error
    unmitigated_sigmas = abs(noisy - ideal) / est.std_error
    ok = mitigated_sigmas <= 3.0 and unmitigated_sigmas > 5.0
    verdict(2, ok, "PEC lands %.2f sigma from oracle; unmitigated off by %.0f sigma"
            % (mitigated_sigmas, unmitigated_sigmas))


def test_criterion_03_pec_unbiasedness_exact():
    circuit = QuantumCircuit(2, [
        Layer([Gate("ry", (0,), 0.8), Gate("ry", (1,), -0.3)]),
        Layer([Gate("cx", (0, 1))]),
        Layer([Gate("rz", (0,), 0.5)]),
        Layer([Gate("cx", (1, 0))]),
    ])
    model = PauliLindbladModel(2, ((parse_pauli("XI"), 0.05),
                                   (parse_pauli("ZY"), 0.03)))
    obs = Observable.from_label("ZZ")
    ideal = expectation(run(circuit), obs)
    value = enumerate_signed(circuit, [model, model], obs)
    gap = abs(value - ideal)
    verdict(3, gap < 1e-10,
            "exhaustive signed enumeration off by %.2e (< 1e-10)" % gap)


def test_criterion_04_gamma_law_and_variance(pec_benchmark):
    circuit, model, models, obs, _, _, est = pec_benchmark
    gamma_gap = abs(gamma_total(models) - np.exp(2 * 0.05 * 4))
    pec_sample_var = (est.std_error ** 2) * est.samples / est.gamma_total ** 2
    base = noisy_trajectory_values(circuit, model, obs, 20000, seed=123)
    ratio = pec_sample_var / base.var(ddof=1)
    ok = gamma_gap < 1e-12 and 0.25 <= ratio <= 4.0
    verdict(4, ok, "gamma_total off by %.1e; variance ratio %.2f in [1/4, 4]"
            % (gamma_gap, ratio))


def test_criterion_05_noise_learning_round_trip():
    labels = ["XIII", "IYII", "IIZI", "IIIX", "XXII", "IYYI",
              "IIZZ", "IXZI", "IIXZ", "ZIII", "IIIY", "YYII"]
    rng = np.random.default_rng(5)
    model = PauliLindbladModel(4, tuple(
        (parse_pauli(l), float(rng.uniform(0.001, 0.02))) for l in labels))
    exact, _ = learn_rates_from_model(model)
    exact_rates = {p.to_label(): lam for p, lam in exact.generators}
    exact_err = max(abs(exact_rates.get(p.to_label(), 0.0) - lam)
                    for p, lam in model.generators)
    shots, _ = learn_rates_from_model(model, shots=10 ** 5, seed=9)
    shot_rates = {p.to_label(): lam for p, lam in shots.generators}
    shot_rel = max(abs(shot_rates.get(p.to_label(), 0.0) - lam) / lam
                   for p, lam in model.generators)
    ok = exact_err < 1e-8 and shot_rel < 0.15
    verdict(5, ok, "shot-free recovery err %.1e; 1e5-shot worst relative err %.1f%%"
            % (exact_err, 100 * shot_rel))


def test_criterion_06_runtime_formula():
    value = runtime_estimate(100, 100, 1e-4, 1e-3)
    target = 100 * np.exp(4.0) * 1e-3
    ok = abs(value - target) / target < 1e-3 and \
        runtime_estimate(100, 100, 0.0, 1e-3) == 100 * 1e-3
    verdict(6, ok, "runtime_estimate(100,100,1e-4,1ms)=%.4f s (=100 e^4 ms); "
            "zero-rate gives exactly d*beta" % value)


def test_criterion_07_trotter_counts_and_bound():
    chain100 = build(100)
    cnots = trotter_circuit(chain100, 1.0, 100, 1).cnot_count()
    chain = build(6, seed=3)
    exact = expm(-1j * observable_matrix(chain.observable()))
    ok = cnots == 29700
    prev, detail = np.inf, []
    for r in (2, 4, 8, 16):
        u = run_array(trotter_circuit(chain, 1.0, r, 1), np.eye(64, dtype=complex))
        err = np.linalg.norm(u - exact, 2)
        bound = trotter_bound_order1(chain, 1.0, r)
        ok = ok and err <= bound and err < prev
        prev = err
        detail.append("r=%d: %.3f<=%.3f" % (r, err, bound))
    verdict(7, ok, "cnot_count(n=100,r=100)=%d; %s, monotone" % (cnots, "; ".join(detail)))


def test_criterion_08_knitting_exactness():
    plan = plan_wire_cut(bell_circuit(), [(0, 1)])
    result = execute_plan(plan, Observable.from_label("ZZ"))
    gap = abs(result["value"] - 1.0)
    coeff_sum = sum(abs(c) for _, _, c in CUT_TERMS)
    ok = gap < 1e-10 and result["terms"] == 8 and coeff_sum == 4.0
    verdict(8, ok, "Bell wire cut: 8 terms recombine to ZZ=1 within %.1e; "
            "sum|coeff|=%g" % (gap, coeff_sum))


def test_criterion_09_varqte_analytic_cases():
    one_q = Ansatz(1, (RotationElement(parse_pauli("X"), 0),))
    traj1 = evolve(one_q, [0.0], Observable.from_label("X"), 1.0, 1e-3)
    err1 = np.max(np.abs(traj1.thetas[:, 0] - 2 * traj1.times))
    two_q = Ansatz(2, (FixedElement(Gate("h", (0,))), FixedElement(Gate("h", (1,))),
                       RotationElement(parse_pauli("ZZ"), 0)))
    traj2 = evolve(two_q, [0.0], Observable.from_label("ZZ"), 1.0, 1e-3)
    err2 = np.max(np.abs(traj2.thetas[:, 0] - 2 * traj2.times))
    rng = np.random.default_rng(7)
    struct_ok = True
    for _ in range(100):
        ansatz = random_ansatz(rng)
        theta = rng.uniform(-np.pi, np.pi, size=ansatz.n_params)
        state, derivs = state_and_derivatives(ansatz, theta)
        m = compute_M(derivs)
        a, _ = compute_mclachlan(derivs, state,
                                 Observable.from_label("Z" * ansatz.n_qubits))
        struct_ok = struct_ok and np.abs(m + m.T).max() < 1e-10 \
            and np.linalg.eigvalsh(a).min() > -1e-10
        fd = finite_difference(ansatz, theta)
        struct_ok = struct_ok and all(
            np.abs(d - f).max() < 1e-8 for d, f in zip(derivs, fd))
    ok = err1 < 1e-3 and err2 < 1e-3 and struct_ok
    verdict(9, ok, "theta(t)=2t errors %.1e / %.1e (< 1e-3); M/A structure and "
            "finite-difference checks on 100 random instances" % (err1, err2))


def test_criterion_10_zne_improvement():
    circuit = benchmark_circuit()
    model = benchmark_model(0.02)
    obs = benchmark_observable()
    ideal = expectation(run(circuit), obs)
    noisy = noisy_expectation(circuit, model, obs)
    mitigated = zne_estimate(circuit, model, obs)
    ok = abs(mitigated - ideal) < abs(noisy - ideal)
    verdict(10, ok, "|ZNE - ideal| = %.4f < |noisy - ideal| = %.4f"
            % (abs(mitigated - ideal), abs(noisy - ideal)))


def test_criterion_11_cli_determinism(tmp_path):
    bell = tmp_path / "bell.qc"
    bell.write_text("qubits 2;\nh 0;\n\ncx 0, 1;\n")
    noise = tmp_path / "model.noise"
    noise.write_text("qubits 2\nXI 0.01\nIY 0.02\n")

    def run_cli(*args):
        proc = subprocess.run([sys.executable, "-m", "qmit.cli", *args],
                              capture_output=True)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    commands = [
        ("pec", "--circuit", str(bell), "--noise", str(noise),
         "--observable", "ZZ", "--samples", "4000", "--seed", "7"),
        ("cut", "--circuit", str(bell), "--cut", "0:1", "--observable", "ZZ",
         "--mode", "sampled", "--samples", "2000", "--seed", "3"),
        ("noise-learn", "--noise", str(noise), "--shots", "1000", "--seed", "5"),
        ("simulate", str(bell), "--shots", "1000", "--seed", "2"),
        ("varqte", "--n", "2", "--layers", "1", "--t-final", "0.1",
         "--dt", "0.05", "--seed", "1"),
    ]
    ok = True
    for args in commands:
        ok = ok and run_cli(*args) == run_cli(*args)
    pec_args = commands[0]
    ok = ok and run_cli(*pec_args, "--workers", "1") == \
        run_cli(*pec_args, "--workers", "4")
    verdict(11, ok, "seeded subcommands byte-identical across reruns and "
            "worker pools {1, 4}")


def test_criterion_12_parser_round_trip_and_errors():
    ok = True
    for seed in range(100):
        rng = np.random.default_rng(seed)
        circuit = random_circuit(rng, int(rng.integers(1, 7)), int(rng.integers(1, 6)))
        again = parse(serialize(circuit))
        ok = ok and serialize(again) == serialize(circuit)
    located = 0
    for bad in ("qubits 2;\ncx 0;", "qubits 2;\nh 9;", "qubits 1;\nrx 0;"):
        try:
            parse(bad)
        except ParseError as exc:
            located += 1 if (exc.line == 2 and exc.column >= 1) else 0
    ok = ok and located == 3
    verdict(12, ok, "100 random circuits round-trip; 3 malformed inputs "
            "produce located errors")
