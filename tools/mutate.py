"""Mutation census: run the tests against deliberately broken copies of qmit.

Each entry of MUTANTS is (file, old text, new text, test files), keyed by a
short name. The old text must occur exactly once in the file. Every mutant
runs in its own temporary copy of src/ and tests/, with
`python -m pytest -x -q` on its test files under a timeout, and the script
prints one line per mutant:

    KILLED    a test failed, or the run hit the timeout
    SURVIVED  every test passed: no test can tell the mutant from qmit

Run it from anywhere with `python tools/mutate.py` (stdlib only). CI runs
it on Python 3.11, after the tier-1 tests. Exit status 0 if every mutant
was killed, 1 if one survived, 2 if an entry no longer matches the source
or its test files collect no tests.
"""
from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 600  # per mutant; the slowest test file list runs in about 10 s

# VarQTE's RK4 update, which the fidelity at each step's start precedes
_RK4_UPDATE = (
    "        k2, _, _ = _theta_dot(ansatz, theta + 0.5 * dt * k1, hamiltonian, method, regularization)\n"
    "        k3, _, _ = _theta_dot(ansatz, theta + 0.5 * dt * k2, hamiltonian, method, regularization)\n"
    "        k4, _, _ = _theta_dot(ansatz, theta + dt * k3, hamiltonian, method, regularization)\n"
    "        theta = theta + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)\n"
)

MUTANTS = {
    # PEC's signed inverse: a sample's sign is the parity of its inverse insertions
    "sign_line": (
        "src/qmit/pec.py",
        "        sign *= 1.0 - 2.0 * (count & 1)\n",
        "",
        ["tests/test_pec.py", "tests/test_acceptance.py"],
    ),
    # every insertion drawn with q = (1 - exp(-lam)) / 2, as if each rate were halved
    "insertion_q_of_half_rate": (
        "src/qmit/noise.py",
        "np.exp(-2.0 * rates)",
        "np.exp(-rates)",
        ["tests/test_noise.py", "tests/test_pec.py", "tests/test_acceptance.py"],
    ),
    # every prefix-tree child gathered from column 0, not from its parent
    "gather_from_column_0": (
        "src/qmit/pec.py",
        "amps = pauli_gather(amps[:, column[first]], ",
        "amps = pauli_gather(amps[:, 0 * column[first]], ",
        ["tests/test_pec.py"],
    ),
    # the printed scale factors each paired with another factor's value
    "zne_driver_values_reversed": (
        "src/qmit/pec.py",
        "    return cs, values, _zne_intercept(cs, values, order)\n",
        "    return cs, values[::-1], _zne_intercept(cs, values, order)\n",
        ["tests/test_cli.py"],
    ),
    # an observable of another size reaches the estimators unchecked
    "inputs_skip_observable_check": (
        "src/qmit/pec.py",
        "    if observable.n_qubits != circuit.n_qubits:\n"
        "        raise ValueError(\"circuit and observable sizes differ\")\n",
        "",
        ["tests/test_pec.py"],
    ),
    "zne_intercept_at_1e-3": (
        "src/qmit/pec.py",
        "    return float(np.polyval(coeffs, 0.0))\n",
        "    return float(np.polyval(coeffs, 1e-3))\n",
        ["tests/test_pec.py"],
    ),
    # the Pauli basis without its phase i^popcount(x & z): Y read as XZ,
    # which is not Hermitian, in every transfer matrix
    "pauli_basis_without_phase": (
        "src/qmit/simulator.py",
        "    return np.array([1j ** ((x & z).bit_count() % 4) * pauli_gather(eye, x, z)\n",
        "    return np.array([pauli_gather(eye, x, z)\n",
        ["tests/test_pec.py"],
    ),
    # the noisy layer multiplies by exp(-lam), not exp(-2 lam), per anticommuting rate
    "pauli_fidelities_of_half_rate": (
        "src/qmit/noise.py",
        "    return np.exp(-2.0 * exponent)\n",
        "    return np.exp(-exponent)\n",
        ["tests/test_pec.py"],
    ),
    # ZNE's channel check reads the fidelities untransformed, not the error
    # probabilities, so a channel that is not completely positive passes
    "choi_check_reads_fidelities": (
        "src/qmit/pec.py",
        "        for k in range(2 * n):\n",
        "        for k in range(0):\n",
        ["tests/test_pec.py"],
    ),
    # the Heisenberg-picture map R^T applied to the state's coefficients
    "walk_applies_transposed_transfer": (
        "src/qmit/pec.py",
        "coeffs = _apply_unitary(coeffs, pauli_transfer(u),",
        "coeffs = _apply_unitary(coeffs, pauli_transfer(u).T,",
        ["tests/test_pec.py"],
    ),
    # ||A theta_dot|| reported as the residual, without the right-hand side C
    "residual_without_c": (
        "src/qmit/varqte.py",
        "    residual = float(np.linalg.norm(lhs @ dot - rhs))\n",
        "    residual = float(np.linalg.norm(lhs @ dot))\n",
        ["tests/test_varqte.py"],
    ),
    # each step's fidelity taken of the state after the step, not of its k1 state
    "fidelity_after_the_step": (
        "src/qmit/varqte.py",
        "        if track_fidelity:\n            track(state)\n" + _RK4_UPDATE,
        _RK4_UPDATE + "        if track_fidelity:\n"
        "            track(Statevector(ansatz.n_qubits, _forward(ansatz, theta, 0)[:, 0]))\n",
        ["tests/test_varqte.py"],
    ),
    # the exact reference restarted from the variational state at every time
    # point instead of carried from the last one
    "exact_restarted_at_every_point": (
        "src/qmit/varqte.py",
        "evolve_exact(hamiltonian, state if exact is None else exact, lag)",
        "evolve_exact(hamiltonian, state, lag)",
        ["tests/test_varqte.py"],
    ),
    "shots_drawn_with_p_times_0.999": (
        "src/qmit/noise.py",
        "binomial(shots, (1.0 + np.array(values)) / 2.0)",
        "binomial(shots, (1.0 + np.array(values)) / 2.0 * 0.999)",
        ["tests/test_noise.py"],
    ),
    # the same distribution, drawn depth by depth instead of probe by probe
    "depth_major_block": (
        "src/qmit/noise.py",
        "binomial(shots, (1.0 + np.array(values)) / 2.0)",
        "binomial(shots, (1.0 + np.array(values).T) / 2.0).T",
        ["tests/test_noise.py"],
    ),
    "two_depth_fit": (
        "src/qmit/noise.py",
        "    usable = table[:, :, 1] > 0.0\n",
        "    usable = table[:, :, 1] > 0.0\n    usable &= np.cumsum(usable, axis=1) <= 2\n",
        ["tests/test_noise.py"],
    ),
    # a cached system that one caller could change under every later fit
    "writable_cached_system": (
        "src/qmit/noise.py",
        "    a.flags.writeable = False\n",
        "",
        ["tests/test_noise.py"],
    ),
    # masks of 65 or more qubits read as their lowest 64 bits
    "first_mask_word_only": (
        "src/qmit/noise.py",
        "    words = range(-(-max(sizes, default=1) // 64))\n",
        "    words = range(min(1, -(-max(sizes, default=1) // 64)))\n",
        ["tests/test_noise.py"],
    ),
    # --workers and QMIT_WORKERS above MAX_WORKERS reach pec_estimate: exit 3, not 2
    "worker_count_without_maximum": (
        "src/qmit/cli.py",
        "    return _integer(text, minimum=1, maximum=MAX_WORKERS)\n",
        "    return _integer(text, minimum=1)\n",
        ["tests/test_cli.py"],
    ),
    # a --cut such as a:1 passes argparse and fails later as a validation error
    "cut_point_without_integer_check": (
        "src/qmit/cli.py",
        "        int(qubit), int(boundary)\n",
        "",
        ["tests/test_cli.py"],
    ),
    # the closed-form commands load numpy
    "resources_imports_numpy": (
        "src/qmit/resources.py",
        "import math\n",
        "import math\n\nimport numpy\n",
        ["tests/test_cli.py"],
    ),
    # `varqte --t-final 1e9 --dt 0.01` runs 1e11 RK4 steps until the CLI
    # test's timeout stops it
    "varqte_without_step_cap": (
        "src/qmit/varqte.py",
        "    if quotient > MAX_VARQTE_STEPS:\n        raise ValueError(",
        "    if False:\n        raise ValueError(",
        ["tests/test_cli.py"],
    ),
    # a layer may use a qubit twice: the parser must still refuse it
    "layer_overlap_allowed": (
        "src/qmit/circuits.py",
        "            if q in used:\n"
        "                raise ValueError(\"qubit %d used twice within a layer\" % q)\n",
        "",
        ["tests/test_circuit_io.py"],
    ),
    # a gate may name one qubit twice: the parser must still refuse it
    "gate_qubits_not_distinct": (
        "src/qmit/circuits.py",
        "        if len(set(self.qubits)) != len(self.qubits):\n"
        "            raise ValueError(\"gate qubits must be distinct\")\n",
        "",
        ["tests/test_circuit_io.py"],
    ),
    # the planner never joins a gate's segments: every segment its own fragment
    "plan_without_joins": (
        "src/qmit/knit.py",
        "                parent[find(seg)] = find(segs[0])\n",
        "                pass\n",
        ["tests/test_knit.py"],
    ),
    # a cut whose two sides stay connected is planned, not refused
    "plan_without_disconnect_check": (
        "src/qmit/knit.py",
        "        if find(down) == find((cut.qubit, down[1] - 1)):\n",
        "        if False:\n",
        ["tests/test_knit.py"],
    ),
    # row products sum A[j, b] A[j ^ x, b], without conj(A[j, b])
    "row_products_without_conjugate": (
        "src/qmit/simulator.py",
        "        rows = np.vecdot(*_row_flip(block, x)[:2]).reshape(-1)\n",
        "        rows = np.sum(np.multiply(*_row_flip(block, x)[:2]), axis=-1).reshape(-1)\n",
        ["tests/test_simulator.py", "tests/test_noise.py"],
    ),
    # the Pauli split without its Z signs: every Pauli applied as its X part
    "row_flip_without_signs": (
        "src/qmit/simulator.py",
        "        if z >> k & 1:  # (-1)^(source bit), the source bit being j_k ^ x_k\n",
        "        if False:\n",
        ["tests/test_simulator.py"],
    ),
    # the Hermitian check never reads the last row block
    "hermitian_check_skips_last_block": (
        "src/qmit/simulator.py",
        "        for i in range(0, dim, _DENSITY_ROW_BLOCK):\n",
        "        for i in range(0, dim - _DENSITY_ROW_BLOCK, _DENSITY_ROW_BLOCK):\n",
        ["tests/test_simulator.py"],
    ),
}


def apply(copy: Path, file: str, old: str, new: str) -> None:
    path = copy / file
    text = path.read_text(encoding="utf-8")
    count = text.count(old)
    if count != 1:
        raise LookupError("%s holds the old text %d times, not once" % (file, count))
    path.write_text(text.replace(old, new), encoding="utf-8")


def run(name: str) -> str:
    """The mutant's verdict: KILLED, SURVIVED, or ERROR with the reason."""
    file, old, new, tests = MUTANTS[name]
    with tempfile.TemporaryDirectory(prefix="qmit-mutant-") as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=ignore)
        shutil.copy2(ROOT / "pyproject.toml", copy / "pyproject.toml")
        try:
            apply(copy, file, old, new)
        except LookupError as error:
            return "ERROR (%s)" % error
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(copy / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
        # a session of its own, so a timeout also stops the tests' subprocesses
        proc = subprocess.Popen(argv, cwd=copy, env=env, stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT, text=True, start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return "KILLED (timeout)"
    if proc.returncode == 0:
        return "SURVIVED"
    if proc.returncode in (4, 5):  # usage error, or no tests collected
        return "ERROR (pytest exit %d: %s)" % (proc.returncode, out.strip().splitlines()[-1])
    failed = [ln for ln in out.splitlines() if ln.startswith(("FAILED", "ERROR"))]
    return "KILLED" + (" (%s)" % failed[0] if failed else "")


def main() -> int:
    verdicts = []
    for name in MUTANTS:
        start = time.perf_counter()
        verdict = run(name)
        print("%-8s  %-32s  %5.1f s  %s" % (verdict.split()[0], name,
                                           time.perf_counter() - start,
                                           verdict.partition(" ")[2]), flush=True)
        verdicts.append(verdict.split()[0])
    print("%d of %d mutants killed" % (verdicts.count("KILLED"), len(verdicts)))
    if "ERROR" in verdicts:
        return 2
    return 1 if "SURVIVED" in verdicts else 0


if __name__ == "__main__":
    sys.exit(main())
