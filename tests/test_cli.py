import importlib
import os
import re
import resource
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

import qmit
from qmit import MAX_WORKERS, circuit_io, cli, knit, noise, pec, simulator

BELL = "qubits 2;\nh 0;\n\ncx 0, 1;\n"
NOISE = "qubits 2\nXI 0.01\nIY 0.02\n"


def run_cli(*args, env=None):
    # a cap that stops refusing fails its test here instead of hanging the suite
    return subprocess.run(
        [sys.executable, "-m", "qmit.cli", *args],
        capture_output=True, text=True, env=env, timeout=60,
    )


@pytest.fixture
def bell_file(tmp_path):
    path = tmp_path / "bell.qc"
    path.write_text(BELL)
    return str(path)


@pytest.fixture
def noise_file(tmp_path):
    path = tmp_path / "model.noise"
    path.write_text(NOISE)
    return str(path)


def test_estimate_ft_values():
    result = run_cli("estimate-ft", "--n-cnot", "1e7", "--n-t", "1e9",
                     "--format", "records")
    assert result.returncode == 0
    record = [ln for ln in result.stdout.splitlines() if ln.startswith("circuit_size")][0]
    fields = dict(kv.split("=") for kv in record.split())
    assert 2.0e4 <= float(fields["cnot_volume"]) <= 2.2e4
    assert 3.5e6 <= float(fields["t_volume"]) <= 3.8e6


def test_header_metadata():
    result = run_cli("scale", "--q", "2", "--m", "2", "--l", "1", "--t", "1", "--p", "1")
    lines = result.stdout.splitlines()
    assert lines[0].startswith("# qmit ")
    assert lines[1].startswith("# seed: ")
    assert lines[2].startswith("# config: scale ")


def test_simulate_bell(bell_file):
    result = run_cli("simulate", bell_file, "--observable", "ZZ", "--format", "records")
    assert result.returncode == 0
    assert "value=0.9999999999999998" in result.stdout or "value=1.0" in result.stdout


def test_simulate_parse_error(tmp_path):
    bad = tmp_path / "bad.qc"
    bad.write_text("qubits 2;\ncx 0;\n")
    result = run_cli("simulate", str(bad))
    assert result.returncode == 2
    assert "parse error" in result.stderr


def test_validation_error(bell_file):
    result = run_cli("simulate", bell_file, "--observable", "ZZZ")
    assert result.returncode == 3
    assert "validation error" in result.stderr


def test_oversized_circuit_is_a_validation_error(tmp_path):
    big = tmp_path / "big.qc"
    big.write_text("qubits 40;\nh 0;\n")
    result = run_cli("simulate", str(big))
    assert result.returncode == 3
    assert "validation error" in result.stderr
    assert "Traceback" not in result.stderr


def test_pec_deterministic(bell_file, noise_file):
    args = ("pec", "--circuit", bell_file, "--noise", noise_file,
            "--observable", "ZZ", "--samples", "2000", "--seed", "7")
    a = run_cli(*args, "--workers", "1")
    b = run_cli(*args, "--workers", "1")
    c = run_cli(*args, "--workers", "4")
    assert a.returncode == 0
    assert a.stdout == b.stdout == c.stdout


def test_seed_env_override(bell_file):
    import os
    env = dict(os.environ, QMIT_SEED="123")
    result = run_cli("simulate", bell_file, "--observable", "ZZ", env=env)
    assert "# seed: 123" in result.stdout


def test_cut_exact(bell_file):
    result = run_cli("cut", "--circuit", bell_file, "--cut", "0:1",
                     "--observable", "ZZ", "--format", "records")
    assert result.returncode == 0
    assert "gamma_cut=4.0" in result.stdout
    assert "terms=8" in result.stdout


def test_overhead_table_csv():
    result = run_cli("overhead-table", "--n", "100", "--steps", "100",
                     "--lambdas", "1e-4", "--format", "csv")
    assert result.returncode == 0
    body = [ln for ln in result.stdout.splitlines() if not ln.startswith("#")]
    assert body[0] == "lambda,steps,layers,instances"
    assert body[1].startswith("0.0001,100,200,")


def test_overhead_table_overflow_prints_inf_quietly():
    result = run_cli("overhead-table", "--n", "100000000", "--steps", "100000000",
                     "--lambdas", "1e-3", "--format", "csv")
    assert result.returncode == 0
    assert result.stderr == ""
    assert result.stdout.splitlines()[-1] == "0.001,100000000,200000000,inf"


def test_overhead_table_eps_whose_square_underflows_prints_inf():
    # 1e-200 ** 2 is 0.0; the count used to divide by it and exit 4
    result = run_cli("overhead-table", "--n", "4", "--steps", "3", "--lambdas", "0.01",
                     "--eps", "1e-200", "--format", "csv")
    assert result.returncode == 0
    assert result.stderr == ""
    assert result.stdout.splitlines()[-1] == "0.01,3,6,inf"


def test_overhead_table_values_unchanged():
    result = run_cli("overhead-table", "--n", "100", "--steps", "50,100",
                     "--lambdas", "1e-4,2.3e-4,3e-4", "--eps", "0.01", "--format", "csv")
    assert result.returncode == 0 and result.stderr == ""
    assert result.stdout.splitlines()[3:] == [
        "lambda,steps,layers,instances",
        "0.0001,50,100,545981.5003314423",
        "0.00023,50,100,98971290.58743909",
        "0.0003,50,100,1627547914.1900392",
        "0.0001,100,200,29809579.870417282",
        "0.00023,100,200,979531636054.3308",
        "0.0003,100,200,264891221298434.7",
    ]


def test_varqte_csv_schema():
    result = run_cli("varqte", "--n", "2", "--layers", "0", "--t-final", "0.1",
                     "--dt", "0.05", "--format", "csv")
    assert result.returncode == 0
    body = [ln for ln in result.stdout.splitlines() if not ln.startswith("#")]
    header = body[0].split(",")
    assert header[0] == "t" and header[-1] == "fidelity"
    assert len(body) == 1 + 3  # t = 0, 0.05, 0.1


def test_varqte_trajectory_moves():
    # |0...0> is an eigenstate of the chain, so theta0 is drawn away from 0
    argv = ("varqte", "--n", "3", "--layers", "1", "--t-final", "0.05",
            "--dt", "0.01", "--seed", "7", "--format", "csv")
    result = run_cli(*argv)
    assert result.returncode == 0
    body = [ln for ln in result.stdout.splitlines() if not ln.startswith("#")]
    header = body[0].split(",")
    first = dict(zip(header, map(float, body[1].split(","))))
    last = dict(zip(header, map(float, body[-1].split(","))))
    thetas = [c for c in header if c.startswith("theta")]
    assert any(first[c] != last[c] for c in thetas)
    assert first["fidelity"] == pytest.approx(1.0, abs=1e-12)
    assert run_cli(*argv).stdout == result.stdout


# 8 qubits: noise-learn fits 59 default probes and candidates
NOISE_8 = "qubits 8\nXIIIIIII 0.01\nIZZIIIII 0.02\nIIIYIIII 0.015\nIIIIXZII 0.01\nIIIIIIZZ 0.02\n"
# 65 qubits: 515 probes, whose Pauli masks span two 64-bit words
NOISE_65 = "qubits 65\n%s 0.01\n%s 0.02\n%s 0.015\n" % (
    "X" + "I" * 64, "I" * 63 + "ZZ", "I" * 32 + "Y" + "I" * 32)
# 10 qubits, 4 brickwork rounds: compiles to fused blocks of 4 qubits
BRICK_10 = "qubits 10;\n" + "".join(
    "".join("ry %d : 0.%d%d;\n" % (q, r, q) for q in range(10)) + "\n"
    + "".join("cx %d, %d;\n" % (q, q + 1) for q in range(r % 2, 9, 2)) + "\n"
    for r in range(4))
# 8 qubits, two noisy layers: PEC on a register that compiles to fused blocks
CIRCUIT_8 = (
    "qubits 8;\nry 0 : 0.3;\nry 1 : -0.7;\nrx 2 : 0.4;\nry 3 : 1.1;\nry 4 : -0.2;\n"
    "rx 5 : 0.9;\nry 6 : 0.5;\nry 7 : -1.3;\n\ncx 0, 1;\ncx 2, 3;\ncx 4, 5;\ncx 6, 7;\n\n"
    "rz 1 : 0.6;\nry 4 : 0.8;\n\ncx 1, 2;\ncx 3, 4;\ncx 5, 6;\n\nrx 0 : -0.4;\nry 7 : 0.2;\n"
)
# 4 qubits, 3 noisy layers of generators that carry Y: PEC samples evolve as
# many distinct columns
CHAIN_4 = (
    "qubits 4;\nry 0 : 0.4;\nry 1 : -1.1;\nrx 2 : 0.7;\nry 3 : 2.3;\n\ncx 0, 1;\ncx 2, 3;\n\n"
    "rz 1 : 0.9;\nrx 2 : -0.6;\n\ncx 1, 2;\n\nry 0 : 1.3;\nrz 3 : -0.8;\n\ncx 0, 1;\ncx 2, 3;\n\n"
    "rx 1 : 0.5;\nry 2 : -0.2;\n"
)
NOISE_4 = "qubits 4\nYIII 0.02\nIYII 0.03\nIIXI 0.01\nIIIZ 0.02\nYYII 0.015\nIIZY 0.02\nIXYI 0.01\n"
NO_CX = "qubits 2;\nh 0;\nh 1;\n"  # no two-qubit layer, so no noisy layer
INPUTS = {"bell": BELL, "noise": NOISE, "noise_8": NOISE_8, "circuit_8": CIRCUIT_8,
          "noise_65": NOISE_65, "brick_10": BRICK_10, "chain_4": CHAIN_4, "noise_4": NOISE_4,
          "no_cx": NO_CX}


def with_inputs(tmp_path, argv):
    """argv with each {name} replaced by the path of a file holding INPUTS[name]."""
    paths = {}
    for name, text in INPUTS.items():
        paths[name] = str(tmp_path / name)
        (tmp_path / name).write_text(text)
    return [arg.format(**paths) for arg in argv]


@pytest.mark.parametrize("argv", [
    ("simulate", "{bell}", "--observable", "ZZ"),
    ("noise-learn", "--noise", "{noise_8}", "--shots", "100000", "--seed", "3"),
    ("noise-learn", "--noise", "{noise_65}", "--shots", "100000", "--seed", "3"),
    ("simulate", "{brick_10}", "--observable", "ZIIIIIIIIZ,0.5*XXIIIIIIII"),
    ("pec", "--circuit", "{bell}", "--noise", "{noise}", "--observable", "ZZ", "--seed", "3",
     "--workers", "1"),
    ("pec", "--circuit", "{bell}", "--noise", "{noise}", "--observable", "ZZ", "--seed", "3",
     "--workers", "2"),
    ("zne", "--circuit", "{bell}", "--noise", "{noise}", "--observable", "ZZ"),
    ("cut", "--circuit", "{bell}", "--cut", "0:1", "--observable", "ZZ"),
    # on a transposed view of the derivative block, d.conj() @ v ran a BLAS
    # product whose rounding moved these thetas between 1 and 2 threads
    ("varqte", "--n", "10", "--layers", "4", "--t-final", "0.04", "--dt", "0.02", "--seed", "3"),
    ("pec", "--circuit", "{circuit_8}", "--noise", "{noise_8}", "--observable", "ZIIIIIIZ",
     "--seed", "3", "--workers", "2"),
    ("varqte", "--n", "4", "--layers", "2", "--t-final", "0.1", "--dt", "0.01"),
    ("trotter", "--n", "100", "--steps", "100", "--order", "1", "--t", "1.0"),
    ("estimate-ft", "--n-cnot", "1e7", "--n-t", "1e9"),
    ("overhead-table", "--n", "100", "--steps", "100", "--lambdas", "1e-4,3e-4,1e-3"),
    ("scale", "--q", "100", "--m", "4", "--l", "3", "--t", "2", "--p", "5"),
], ids=["simulate", "noise-learn", "noise-learn_65", "simulate_10", "pec_w1", "pec_w2", "zne",
        "cut", "varqte", "pec_8_w2", "varqte_4", "trotter", "estimate-ft", "overhead-table",
        "scale"])
def test_stdout_does_not_depend_on_the_blas_thread_count(tmp_path, argv):
    argv = with_inputs(tmp_path, argv)
    outs = []
    for threads in ("1", "2"):
        result = run_cli(*argv, env=dict(os.environ, OPENBLAS_NUM_THREADS=threads))
        assert result.returncode == 0 and result.stderr == "", result.stderr
        outs.append(result.stdout)
    assert outs[0] == outs[1]


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TDVP = ("varqte", "--n", "9", "--layers", "6", "--t-final", "0.04", "--dt", "0.02", "--seed", "5",
        "--method", "tdvp")


def test_tdvp_stdout_with_blas_threads_unset_equals_one_thread():
    # the pinv of tdvp's 126 x 126 system differs in its last bits between
    # BLAS thread counts, and theta-dot amplifies that: the CLI's default of
    # one thread is what keeps this stdout stable on a multi-core machine
    unset = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    outs = []
    for env in (unset, dict(unset, **{var: "1" for var in BLAS_THREAD_VARS})):
        result = run_cli(*TDVP, env=env)
        assert result.returncode == 0 and result.stderr == "", result.stderr
        outs.append(result.stdout)
    assert outs[0] == outs[1]


def test_blas_thread_default_is_set_only_before_numpy_and_never_over_the_user(monkeypatch,
                                                                              capsys):
    argv = ["scale", "--q", "2", "--m", "2", "--l", "1", "--t", "1", "--p", "1"]
    for var in BLAS_THREAD_VARS:
        monkeypatch.setenv(var, "")  # so that teardown restores each variable
        monkeypatch.delenv(var)
    # numpy is loaded here, as for any in-process caller: nothing is set
    assert cli.main(argv) == 0
    assert not any(var in os.environ for var in BLAS_THREAD_VARS)
    # as in a fresh interpreter (`scale` never imports numpy): unset ones
    # become 1, and a value the user set stays
    monkeypatch.delitem(sys.modules, "numpy")
    monkeypatch.setenv("MKL_NUM_THREADS", "3")
    assert cli.main(argv) == 0
    assert [os.environ[var] for var in BLAS_THREAD_VARS] == ["1", "1", "3"]
    capsys.readouterr()


def test_brickwork_10_compiles_to_the_widest_fused_blocks():
    (ops,) = simulator.compile_ops(circuit_io.parse(BRICK_10), ())
    assert max(len(qubits) for _, qubits in ops) == simulator.MAX_FUSED_QUBITS


def test_cli_import_leaves_scipy_and_process_pool_unloaded():
    # no command starts a process pool, and none, noise learning included,
    # loads scipy
    code = (
        "import sys, qmit.cli\n"
        "print(sorted(m for m in ('scipy', 'concurrent.futures.process')"
        " if m in sys.modules))\n"
        "from qmit import noise\n"
        "model = noise.loads(%r)\n"
        "learned, _ = noise.learn_rates_from_model(model, shots=2000, seed=3)\n"
        "print([lam for _, lam in learned.generators])\n"
        "print('scipy' in sys.modules)\n" % NOISE
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    loaded, rates, scipy_after_learning = result.stdout.splitlines()
    assert loaded == "[]"
    learned, _ = noise.learn_rates_from_model(noise.loads(NOISE), shots=2000, seed=3)
    assert rates == repr([lam for _, lam in learned.generators])
    assert scipy_after_learning == "False"


@pytest.mark.parametrize("shots", [[], ["--shots", "1000", "--seed", "1"]])
def test_noise_learn_runs_with_scipy_blocked(noise_file, shots):
    # sys.modules[name] = None makes every `import scipy...` raise ImportError;
    # every qmit module still imports, and noise-learn prints the same bytes
    argv = ["noise-learn", "--noise", noise_file, *shots]
    code = (
        "import importlib, pkgutil, sys\n"
        "sys.modules['scipy'] = None\n"
        "import qmit\n"
        "for module in pkgutil.iter_modules(qmit.__path__):\n"
        "    importlib.import_module('qmit.' + module.name)\n"
        "from qmit import cli\n"
        "sys.exit(cli.main(%r))\n" % argv
    )
    blocked = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert blocked.returncode == 0, blocked.stderr
    assert blocked.stderr == ""
    plain = run_cli(*argv)
    assert plain.returncode == 0 and plain.stderr == "", plain.stderr
    assert blocked.stdout == plain.stdout


def test_package_all_is_derived_from_the_export_table():
    assert qmit.__all__ == ["__version__", "ParseError", *qmit._SUBMODULE]


def test_package_exports_resolve_to_their_submodules():
    assert set(qmit.__all__) == {"__version__", "ParseError", *qmit._SUBMODULE}
    namespace = {}
    exec("from qmit import *", namespace)
    for name, module in qmit._SUBMODULE.items():
        expected = getattr(importlib.import_module("qmit." + module), name)
        assert namespace[name] is expected
        assert getattr(qmit, name) is expected
    assert namespace["ParseError"] is circuit_io.ParseError is qmit.ParseError
    assert not hasattr(qmit, "no_such_name")
    assert qmit.__getattr__("knit") is knit  # the submodule lookup, run in this process too
    # a bare `import qmit` still reaches every submodule as an attribute
    code = "import qmit; print(qmit.knit.__name__, qmit.varqte.evolve.__module__)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.stdout == "qmit.knit qmit.varqte\n", result.stderr


@pytest.mark.parametrize("argv", [
    ["--version"],
    ["scale", "--q", "100", "--m", "4", "--l", "3", "--t", "2", "--p", "5"],
    ["estimate-ft", "--n-cnot", "1e7", "--n-t", "1e9"],
    ["estimate-ft", "--n-cnot", "1e7", "--n-t", "1e9", "--format", "csv"],
    ["trotter", "--n", "100", "--steps", "100", "--order", "1", "--t", "1.0"],
    ["trotter", "--n", "7", "--steps", "3", "--order", "2", "--t", "0.7", "--format", "csv"],
    ["overhead-table", "--n", "100", "--steps", "100", "--lambdas", "1e-4,3e-4,1e-3"],
    ["overhead-table", "--n", "100", "--steps", "50,100", "--lambdas", "1e-4,2.3e-4,3e-4",
     "--eps", "0.01", "--format", "csv"],
])
def test_numpy_free_commands_run_with_numpy_blocked(argv):
    # sys.modules["numpy"] = None makes every `import numpy` raise ImportError
    code = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from qmit import cli\n"
        "sys.exit(cli.main(%r))\n" % argv
    )
    blocked = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert blocked.returncode == 0, blocked.stderr
    assert blocked.stderr == ""
    assert blocked.stdout == run_cli(*argv).stdout


def test_trotter_emits_the_same_circuit_with_numpy_blocked(tmp_path, capsys):
    argv = ["trotter", "--n", "5", "--steps", "2", "--order", "2", "--emit-circuit"]
    code = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from qmit import cli\n"
        "sys.exit(cli.main(%r))\n" % (argv + [str(tmp_path / "blocked.qc")])
    )
    blocked = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert blocked.returncode == 0, blocked.stderr
    assert blocked.stderr == ""
    assert cli.main(argv + [str(tmp_path / "plain.qc")]) == 0
    assert blocked.stdout.replace("blocked.qc", "plain.qc") == capsys.readouterr().out
    assert (tmp_path / "blocked.qc").read_bytes() == (tmp_path / "plain.qc").read_bytes()


def test_circuit_modules_import_without_numpy():
    # numpy is loaded only to check a custom unitary, which is still refused
    # when it is not unitary
    code = (
        "import sys\n"
        "import qmit.hamiltonian, qmit.circuits, qmit.circuit_io\n"
        "print('numpy' in sys.modules)\n"
        "qmit.hamiltonian.trotter_circuit(qmit.hamiltonian.build(3), 0.5, 2, 2)\n"
        "print('numpy' in sys.modules)\n"
        "from qmit.circuits import Gate\n"
        "try:\n"
        "    Gate('u', (0,), matrix=[[1, 0], [0, 2]])\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
        "print(Gate('u', (0,), matrix=[[0, 1], [1, 0]]).matrix.dtype)\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        "False", "False", "custom gate matrix is not unitary", "complex128"]


def test_capped_trotter_is_refused_before_the_observable_is_built(monkeypatch, capsys):
    from qmit import hamiltonian

    def observable(self):
        raise AssertionError("observable built")

    monkeypatch.setattr(hamiltonian.SpinChainHamiltonian, "observable", observable)
    # order 2 on 3 qubits: 32 gates per step, so 2^17 + 1 steps exceed the cap
    code = cli.main(["trotter", "--n", "3", "--steps", str(2 ** 17 + 1), "--order", "2"])
    assert code == 3
    assert capsys.readouterr().err == (
        "validation error: Trotter circuit capped at %d gates, got %d\n"
        % (hamiltonian.MAX_TROTTER_GATES, 32 * (2 ** 17 + 1)))


@pytest.mark.parametrize("argv, message", [
    (["estimate-ft", "--n-cnot", "nan", "--n-t", "1"], "n_cnot must be finite and >= 0, got nan"),
    (["estimate-ft", "--n-cnot", "1e7", "--n-t", "1e9", "--circuit-size", "inf"],
     "circuit_size must be finite and >= 0, got inf"),
    (["overhead-table", "--n", "100", "--steps", "100", "--lambdas", "nan"],
     "lambda must be finite and >= 0, got nan"),
    (["overhead-table", "--n", "100", "--steps", "100", "--lambdas", "1e-4", "--eps", "nan"],
     "eps must be finite and positive, got nan"),
    (["overhead-table", "--n", "100", "--steps", "-1", "--lambdas", "1e-4"],
     "steps must be finite and >= 0, got -1"),
    (["overhead-table", "--n", "-4", "--steps", "10", "--lambdas", "-0.01"],
     "n must be finite and >= 0, got -4"),
    (["trotter", "--n", "4", "--steps", "2", "--t", "nan"], "t must be finite, got nan"),
    (["estimate-ft", "--n-cnot", "1", "--n-t", "1", "--circuit-size", "-5"],
     "circuit_size must be finite and >= 0, got -5.0"),
    (["estimate-ft", "--n-cnot", "1", "--n-t", "1", "--circuit-size", "0.5"],
     "circuit size N must be >= 1"),
])
def test_closed_form_commands_refuse_non_finite_and_negative_input(argv, message):
    # each used to exit 0 and print nan, inf or a negative layer count
    result = run_cli(*argv)
    assert result.returncode == 3
    assert result.stderr == "validation error: %s\n" % message
    assert result.stdout.count("\n") == 3  # the header alone


@pytest.mark.parametrize("argv", [
    ["simulate", "{bell}", "--shots", "100000000000000000000"],
    ["simulate", "{bell}", "--shots", "9223372036854775808"],
    ["noise-learn", "--noise", "{noise}", "--shots", "100000000000000000000"],
])
def test_more_shots_than_numpy_can_draw_is_a_usage_error(bell_file, noise_file, argv):
    # numpy's samplers take a C long: these used to exit 4 with
    # "Python int too large to convert to C long"
    result = run_cli(*[arg.format(bell=bell_file, noise=noise_file) for arg in argv])
    assert result.returncode == 2
    assert "argument --shots: must be <= %d" % qmit.MAX_SHOTS in result.stderr
    assert "Traceback" not in result.stderr
    assert result.stdout == ""


def test_shot_cap_is_the_largest_count_numpy_draws(bell_file):
    assert qmit.MAX_SHOTS == np.iinfo(np.int64).max
    result = run_cli("simulate", bell_file, "--shots", str(qmit.MAX_SHOTS), "--format", "csv")
    assert result.returncode == 0, result.stderr
    counts = [int(ln.split(",")[1]) for ln in result.stdout.splitlines()[4:]]
    assert sum(counts) == qmit.MAX_SHOTS


@pytest.mark.parametrize("argv, unused", [
    (["simulate", "{bell}", "--observable", "ZZ"],
     ["qmit.pec", "qmit.knit", "qmit.varqte", "qmit.noise", "qmit.hamiltonian"]),
    (["cut", "--circuit", "{bell}", "--cut", "0:1", "--observable", "ZZ"],
     ["qmit.pec", "qmit.varqte", "qmit.noise", "qmit.hamiltonian"]),
    (["trotter", "--n", "4", "--steps", "2"],
     ["qmit.circuit_io", "qmit.pec", "qmit.knit", "qmit.varqte", "qmit.noise"]),
    # a pooled run opens threads, never a process pool
    (["pec", "--circuit", "{bell}", "--noise", "{noise}", "--observable", "ZZ", "--samples",
      "2048", "--workers", "2"], ["multiprocessing", "concurrent.futures.process"]),
])
def test_command_leaves_modules_it_does_not_use_unloaded(bell_file, noise_file, argv, unused):
    argv = [arg.format(bell=bell_file, noise=noise_file) for arg in argv]
    code = (
        "import contextlib, io, sys\n"
        "from qmit import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(%r) == 0\n"
        "print(sorted(m for m in %r if m in sys.modules))\n" % (argv, unused)
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def test_fmt_prints_numpy_scalars_as_python_values():
    for x in (0.1, 1e-300, -2.5e17, float("inf")):
        assert cli._fmt(np.float64(x)) == repr(x)
    assert cli._fmt(np.int64(7)) == "7"
    assert cli._fmt(np.complex128(1 - 2j)) == str(1 - 2j)


@pytest.mark.parametrize("argv", [
    ["simulate", "{bell}", "--shots", "0"],
    ["simulate", "{bell}", "--shots", "-1"],
    ["noise-learn", "--noise", "{noise}", "--shots", "0"],
    ["noise-learn", "--noise", "{noise}", "--shots", "-5"],
])
def test_fewer_than_one_shot_is_a_usage_error(bell_file, noise_file, argv):
    # --shots 0 used to be ignored: simulate printed amplitudes and
    # noise-learn fitted exact data under a shots=0 header
    result = run_cli(*[arg.format(bell=bell_file, noise=noise_file) for arg in argv])
    assert result.returncode == 2
    assert "argument --shots: must be >= 1" in result.stderr
    assert result.stdout == ""


def test_linalg_error_is_a_validation_error(bell_file, noise_file, monkeypatch, capsys):
    # LinAlgError subclasses ValueError, so main reports it with exit 3
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(pec, "noisy_expectation", no_convergence)
    code = cli.main(["zne", "--circuit", bell_file, "--noise", noise_file,
                     "--observable", "ZZ"])
    assert code == 3
    assert "validation error: SVD did not converge" in capsys.readouterr().err


def test_noise_learn(noise_file):
    result = run_cli("noise-learn", "--noise", noise_file, "--format", "records")
    assert result.returncode == 0
    assert "generator=XI" in result.stdout


def test_noise_learn_over_the_qubit_cap_exits_3_at_once(tmp_path):
    # a 100000-qubit model used to build 8n - 5 probes for seconds and then
    # run out of memory; the address-space limit keeps a cap that stops
    # refusing from taking the machine's memory before the timeout
    model = tmp_path / "wide.noise"
    model.write_text("qubits 100000\nX%s 0.01\n" % ("I" * 99999))

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2 ** 31, 2 ** 31))

    result = subprocess.run(
        [sys.executable, "-m", "qmit.cli", "noise-learn", "--noise", str(model)],
        capture_output=True, text=True, timeout=60, preexec_fn=limit_memory,
        env=dict(os.environ, OPENBLAS_NUM_THREADS="1"),
    )
    assert result.returncode == 3
    assert result.stderr == ("validation error: noise learning capped at %d qubits, got 100000\n"
                             % noise.MAX_LEARNING_QUBITS)


def test_noise_learn_exits_4_when_nnls_does_not_converge(noise_file, monkeypatch, capsys):
    def no_convergence(a, b):
        raise RuntimeError("nnls did not converge")

    monkeypatch.setattr(noise, "nnls", no_convergence)
    assert cli.main(["noise-learn", "--noise", noise_file]) == 4
    err = capsys.readouterr().err
    assert "did not converge" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["pec", "--observable", "ZZ", "--samples", "100"],
    ["zne", "--observable", "ZZ"],
    ["noise-learn"],
])
def test_noise_model_without_generators_runs(bell_file, tmp_path, argv, capsys):
    empty = tmp_path / "empty.noise"
    empty.write_text("qubits 2\n")
    circuit = [] if argv[0] == "noise-learn" else ["--circuit", bell_file]
    assert cli.main(argv[:1] + circuit + ["--noise", str(empty)] + argv[1:]) == 0
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("rate", ["nan", "inf"])
@pytest.mark.parametrize("argv", [
    ["pec", "--observable", "ZZ", "--samples", "100"],
    ["zne", "--observable", "ZZ"],
    ["noise-learn"],
])
def test_non_finite_noise_rate_is_a_validation_error(bell_file, tmp_path, argv, rate, capsys):
    model = tmp_path / "bad.noise"
    model.write_text("qubits 2\nXI %s\nIZ 0.01\n" % rate)
    circuit = [] if argv[0] == "noise-learn" else ["--circuit", bell_file]
    assert cli.main(argv[:1] + circuit + ["--noise", str(model)] + argv[1:]) == 3
    captured = capsys.readouterr()
    assert "validation error: rates must be finite" in captured.err
    assert "Traceback" not in captured.err
    assert all(line.startswith("#") for line in captured.out.splitlines())  # no result rows


def test_zne_simulates_each_scale_factor_once(bell_file, noise_file, monkeypatch, capsys):
    factors = [1.0, 1.5, 2.0, 3.0]
    circuit = cli._load_circuit(bell_file)
    model = cli._load_noise(noise_file)
    obs = cli._parse_observable("ZZ", 2)
    # what a separate simulation per printed row and `zne_estimate` print
    expected = "".join(
        "scale=%r value=%r\n" % (c, pec.noisy_expectation(circuit, model.scaled(c), obs))
        for c in factors) + "# extrapolated: %r\n" % pec.zne_estimate(circuit, model, obs, factors)
    calls = []
    simulate = pec.noisy_expectation

    def counted(*args):
        calls.append(args)
        return simulate(*args)

    monkeypatch.setattr(pec, "noisy_expectation", counted)
    code = cli.main(["zne", "--circuit", bell_file, "--noise", noise_file, "--observable", "ZZ",
                     "--factors", "1,1.5,2,3", "--format", "records"])
    assert code == 0
    assert len(calls) == len(factors)
    out = capsys.readouterr().out
    assert out.split("\n", 3)[3] == expected


def test_oversized_density_matrix_is_a_validation_error(tmp_path):
    # 20 qubits fit a statevector but not a 4^20-entry density matrix
    big = tmp_path / "big.qc"
    big.write_text("qubits 20;\nh 0;\n\ncx 0, 1;\n")
    model = tmp_path / "big.noise"
    model.write_text("qubits 20\n%s 0.01\n" % ("X" + "I" * 19))
    result = run_cli("zne", "--circuit", str(big), "--noise", str(model),
                     "--observable", "Z" + "I" * 19)
    assert result.returncode == 3
    assert "validation error" in result.stderr
    assert "Traceback" not in result.stderr


def test_memory_error_is_a_validation_error(bell_file, noise_file, monkeypatch, capsys):
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 16.0 TiB")

    monkeypatch.setattr(pec, "noisy_expectation", out_of_memory)
    code = cli.main(["zne", "--circuit", bell_file, "--noise", noise_file,
                     "--observable", "ZZ"])
    assert code == 3
    assert "validation error: Unable to allocate" in capsys.readouterr().err


@pytest.mark.parametrize("model", ["qubits 1\nZ 0.1\n", "qubits 3\nZZZ 0.1\n"])
@pytest.mark.parametrize("command", ["zne", "pec"])
def test_noise_model_size_mismatch_is_a_validation_error(bell_file, tmp_path, model, command):
    noise = tmp_path / "mismatch.noise"
    noise.write_text(model)
    code = cli.main([command, "--circuit", bell_file, "--noise", str(noise),
                     "--observable", "XX"])
    assert code == 3


@pytest.mark.parametrize("command", ["zne", "pec"])
def test_noise_model_size_mismatch_without_a_noisy_layer_is_a_validation_error(
        tmp_path, command, capsys):
    # a circuit with no two-qubit layer applies no model; this used to exit 0
    circuit = tmp_path / "h.qc"
    circuit.write_text("qubits 2;\nh 0;\n")
    noise = tmp_path / "wide.noise"
    noise.write_text("qubits 3\nZZZ 0.1\n")
    code = cli.main([command, "--circuit", str(circuit), "--noise", str(noise),
                     "--observable", "ZZ"])
    assert code == 3
    assert capsys.readouterr().err == "validation error: circuit and noise model sizes differ\n"


@pytest.mark.parametrize("n", [0, -2])
def test_noise_learn_on_fewer_than_one_qubit_is_a_validation_error(tmp_path, n, capsys):
    noise = tmp_path / "empty.noise"
    noise.write_text("qubits %d\n" % n)
    assert cli.main(["noise-learn", "--noise", str(noise)]) == 3
    assert capsys.readouterr().err == "validation error: n_qubits must be positive\n"


@pytest.mark.parametrize("fmt", ["table", "csv", "records"])
def test_std_error_prints_as_a_float(bell_file, noise_file, fmt, capsys):
    # a numpy scalar would print as np.float64(...) under numpy 2
    for command in (["pec", "--circuit", bell_file, "--noise", noise_file],
                    ["cut", "--circuit", bell_file, "--cut", "0:1", "--mode", "sampled"]):
        code = cli.main(command + ["--observable", "ZZ", "--samples", "300", "--seed", "5",
                                   "--format", fmt])
        out = capsys.readouterr().out
        assert code == 0
        assert "np.float64(" not in out


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_sampled_cut_with_fewer_than_one_sample_is_a_validation_error(bell_file, samples):
    result = run_cli("cut", "--circuit", bell_file, "--cut", "0:1", "--observable", "ZZ",
                     "--mode", "sampled", "--samples", samples, "--seed", "1")
    assert result.returncode == 3
    assert "samples" in result.stderr
    assert "RuntimeWarning" not in result.stderr and "Traceback" not in result.stderr


@pytest.mark.parametrize("fmt", ["table", "csv", "records"])
def test_simulate_prints_amplitudes_as_python_complex(tmp_path, fmt, capsys):
    # a numpy scalar would print as np.complex128(...) under numpy 2
    path = tmp_path / "phase.qc"
    path.write_text("qubits 2;\nh 0;\n\ns 0;\n\ncx 0, 1;\n")
    assert cli.main(["simulate", str(path), "--format", fmt]) == 0
    out = capsys.readouterr().out
    assert "np." not in out
    lines = [ln for ln in out.splitlines() if not ln.startswith("#")]
    if fmt == "table":
        cells = [ln.split()[1] for ln in lines[1:]]
    elif fmt == "csv":
        cells = [ln.split(",")[1] for ln in lines[1:]]
    else:
        cells = [ln.split()[1].removeprefix("amplitude=") for ln in lines]
    amplitudes = [complex(cell) for cell in cells]
    assert len(amplitudes) == 4
    assert amplitudes[3] == pytest.approx(1j / np.sqrt(2))


def test_varqte_derivative_block_too_large_is_a_validation_error():
    # K = 120 derivative vectors of 2^20 amplitudes: rejected before allocation
    result = run_cli("varqte", "--n", "20", "--layers", "2", "--t-final", "0.01", "--dt", "0.01")
    assert result.returncode == 3
    assert "validation error" in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("option, value, named", [
    ("--t-final", "1e9", "t_final / dt"),
    ("--t-final", "inf", "t_final"),
    ("--t-final", "nan", "t_final"),
    ("--dt", "nan", "dt"),
    ("--regularization", "nan", "regularization"),
    ("--regularization", "inf", "regularization"),
    ("--t-final", "-1", "t_final must be nonnegative, got -1.0"),
])
def test_varqte_bad_input_is_a_validation_error(option, value, named):
    # 1e9 / 0.01 = 1e11 RK4 steps: refused before the first one runs
    result = run_cli("varqte", "--n", "2", "--layers", "1", "--dt", "0.01", option, value)
    assert result.returncode == 3
    assert "validation error: %s" % named in result.stderr
    assert "Warning" not in result.stderr and "Traceback" not in result.stderr


def test_varqte_fidelity_reference_over_the_exact_step_cap_is_a_validation_error():
    # one RK4 step whose exact reference needs about 1e300 Taylor steps: it
    # ran until killed; now it is refused before the first RK4 step
    result = run_cli("varqte", "--n", "2", "--layers", "1", "--t-final", "1e300", "--dt", "1e300")
    assert result.returncode == 3
    assert "validation error: exact evolution needs" in result.stderr
    assert "Traceback" not in result.stderr


def test_oversized_trotter_circuit_is_a_validation_error():
    # 2.8e10 gates: refused from the closed-form count, before any is built
    result = run_cli("trotter", "--n", "2000000", "--steps", "1000")
    assert result.returncode == 3
    assert "capped" in result.stderr
    assert "Traceback" not in result.stderr


def chain_with_eight_cuts(tmp_path):
    """9 two-qubit blocks joined in a chain; each joining wire is cut just
    before its joint."""
    lines = ["qubits 18;"] + ["h %d;" % q for q in range(18)]
    lines += [""] + ["cx %d, %d;" % (q, q + 1) for q in range(0, 18, 2)]
    for b in range(8):
        lines += ["", "cx %d, %d;" % (2 * b + 1, 2 * b + 2)]
    path = tmp_path / "chain8.qc"
    path.write_text("\n".join(lines) + "\n")
    cuts = []
    for b in range(8):
        cuts += ["--cut", "%d:%d" % (2 * b + 1, 2 + b)]
    return ["cut", "--circuit", str(path), *cuts, "--observable", "Z" * 18]


def test_exact_cut_over_seven_cuts_is_a_validation_error(tmp_path, capsys):
    argv = chain_with_eight_cuts(tmp_path)
    assert cli.main(argv) == 3
    err = capsys.readouterr().err
    assert "capped" in err and "Traceback" not in err
    assert cli.main(argv + ["--mode", "sampled", "--samples", "100"]) == 0
    assert "terms" in capsys.readouterr().out


def test_cut_whose_fragment_exceeds_the_statevector_cap_is_a_validation_error(
        tmp_path, monkeypatch, capsys):
    # a 35-qubit chain cut after its first gate leaves a fragment of 35 qubits
    def no_state(*args):
        raise AssertionError("a fragment ran before its size was checked")

    monkeypatch.setattr(knit, "_fragment_state", no_state)
    path = tmp_path / "chain35.qc"
    path.write_text("qubits 35;\nh 0;\n" + "".join("\ncx %d, %d;\n" % (q, q + 1)
                                                   for q in range(34)))
    argv = ["cut", "--circuit", str(path), "--cut", "0:1", "--observable", "Z" + "I" * 34]
    assert cli.main(argv) == 3
    assert capsys.readouterr().err == ("validation error: statevector capped at %d qubits\n"
                                       % simulator.MAX_STATEVECTOR_QUBITS)


@pytest.mark.parametrize("base, a, b", [
    (["cut", "--circuit", "BELL", "--cut", "0:1", "--observable", "ZZ", "--mode", "sampled"],
     ["--samples", "100"], ["--samples", "200"]),
    (["varqte", "--n", "2", "--layers", "1", "--t-final", "0.02", "--dt", "0.01"],
     ["--regularization", "1e-6"], ["--regularization", "1e-1"]),
    (["simulate", "BELL"], ["--shots", "10"], ["--shots", "20"]),
    (["trotter", "--n", "3", "--steps", "1"], [], ["--random-fields"]),
    (["estimate-ft", "--n-cnot", "1e7", "--n-t", "1e9"],
     ["--circuit-size", "1e8"], ["--circuit-size", "1e12"]),
    (["overhead-table", "--n", "100", "--steps", "100", "--lambdas", "1e-4"],
     ["--eps", "1"], ["--eps", "0.01"]),
    (["noise-learn", "--noise", "NOISE"], ["--shots", "1000"], ["--shots", "2000"]),
])
def test_config_line_tells_apart_options_that_change_results(bell_file, noise_file, capsys,
                                                             base, a, b):
    outputs = []
    for extra in (a, b):
        argv = [{"BELL": bell_file, "NOISE": noise_file}.get(arg, arg) for arg in base] + extra
        assert cli.main(argv) == 0
        outputs.append(capsys.readouterr().out.splitlines())
    assert outputs[0][3:] != outputs[1][3:]  # the option changes the results
    assert outputs[0][2] != outputs[1][2]  # and the config line says so


def test_worker_count_leaves_stdout_unchanged(bell_file, noise_file, capsys):
    argv = ["pec", "--circuit", bell_file, "--noise", noise_file, "--observable", "ZZ",
            "--samples", str(2 * pec.CHUNK_SIZE), "--seed", "3"]
    outputs = []
    for workers in ("1", "2"):
        assert cli.main(argv + ["--workers", workers]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert "workers" not in outputs[0]


@pytest.mark.parametrize("argv, gamma_total", [
    (["--circuit", "{bell}", "--noise", "{noise}", "--observable", "ZZ", "--samples", "2048"],
     None),
    # two full chunks and a partial one, in both modes
    (["--circuit", "{chain_4}", "--noise", "{noise_4}", "--observable", "ZIIZ",
      "--samples", "3000", "--seed", "5", "--mode", "shot"], None),
    (["--circuit", "{chain_4}", "--noise", "{noise_4}", "--observable", "ZIIZ",
      "--samples", "3000", "--seed", "5", "--mode", "analytic"], None),
    (["--circuit", "{no_cx}", "--noise", "{noise}", "--observable", "XX", "--samples", "3000"],
     "1.0"),
], ids=["bell", "chain_4_shot", "chain_4_analytic", "no_cx"])
def test_pec_stdout_and_stderr_do_not_depend_on_the_worker_count(tmp_path, argv, gamma_total):
    argv = with_inputs(tmp_path, ["pec", *argv])
    outs = []
    for workers in ("1", "2"):
        result = run_cli(*argv, "--workers", workers)
        assert result.returncode == 0 and result.stderr == "", result.stderr
        outs.append(result.stdout)
    assert outs[0] == outs[1]
    if gamma_total is not None:
        assert outs[0].splitlines()[-1].split()[3] == gamma_total


@pytest.mark.parametrize("name, value", [("QMIT_WORKERS", "abc"), ("QMIT_SEED", "x"),
                                         ("QMIT_WORKERS", "0")])
def test_bad_environment_default_is_a_usage_error(name, value):
    result = run_cli("--version", env=dict(os.environ, **{name: value}))
    assert result.returncode == 2
    assert "environment variable %s" % name in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("argv, message", [
    (["pec", "--circuit", "{bell}", "--noise", "{noise}", "--observable", "ZZ",
      "--workers", "two"], "argument --workers: must be an integer, got 'two'"),
    (["simulate", "{bell}", "--shots", "0"], "argument --shots: must be >= 1, got '0'"),
    (["simulate", "{bad}"],
     "parse error: line 2, column 1: gate 'cx' is missing its second operand\n"),
], ids=["workers_not_an_integer", "shots_below_1", "parse_error"])
def test_usage_and_parse_errors_exit_2_in_process(bell_file, noise_file, tmp_path, capsys, argv,
                                                  message):
    bad = tmp_path / "bad.qc"
    bad.write_text("qubits 2;\ncx 0;\n")
    argv = [arg.format(bell=bell_file, noise=noise_file, bad=bad) for arg in argv]
    try:
        code = cli.main(argv)
    except SystemExit as exit:  # argparse's usage errors
        code = exit.code
    assert code == 2
    assert message in capsys.readouterr().err


def test_pec_with_a_gamma_beyond_the_float_range_is_a_validation_error(bell_file, tmp_path):
    # gamma_total = e^800 used to print value inf and gamma_total inf, with
    # numpy's overflow warning on stderr, and exit 0
    noise = tmp_path / "huge.noise"
    noise.write_text("qubits 2\nXI 400\n")
    result = run_cli("pec", "--circuit", bell_file, "--noise", str(noise), "--observable", "ZZ")
    assert result.returncode == 3
    assert result.stderr == "validation error: gamma_total = e^(2 x total rate) is beyond the " \
                            "float range\n"
    assert result.stdout.count("\n") == 3  # the header alone


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_fewer_than_one_worker_is_a_usage_error(bell_file, noise_file, workers):
    result = run_cli("pec", "--circuit", bell_file, "--noise", noise_file,
                     "--observable", "ZZ", "--workers", workers)
    assert result.returncode == 2
    assert "argument --workers: must be >= 1" in result.stderr
    assert result.stdout == ""


@pytest.mark.parametrize("factor", ["nan", "inf"])
def test_non_finite_zne_factor_is_named_before_any_simulation(bell_file, tmp_path, factor):
    # without generators nothing else rejects the factor: the fit used to get it
    model = tmp_path / "empty.noise"
    model.write_text("qubits 2\n")
    result = run_cli("zne", "--circuit", bell_file, "--noise", str(model),
                     "--observable", "ZZ", "--factors", "1,2," + factor)
    assert result.returncode == 3
    assert "scale factor %s must be finite and >= 1" % factor in result.stderr
    assert "DLASCL" not in result.stderr
    assert "Traceback" not in result.stderr


def test_zne_factor_that_overflows_the_fit_is_named_before_any_simulation(bell_file,
                                                                         noise_file):
    result = run_cli("zne", "--circuit", bell_file, "--noise", noise_file,
                     "--observable", "ZZ", "--factors", "1,1e308")
    assert result.returncode == 3
    assert result.stderr == "validation error: scale factor 1e+308 overflows a degree-1 fit\n"
    assert [ln for ln in result.stdout.splitlines() if not ln.startswith("#")] == []


@pytest.mark.parametrize("command, observable", [("simulate", "nan*ZZ"), ("pec", "inf*ZZ"),
                                                 ("zne", "ZZ, -inf*XX")])
def test_non_finite_observable_coefficient_is_a_validation_error(bell_file, noise_file,
                                                                 command, observable):
    args = [bell_file] if command == "simulate" else ["--circuit", bell_file,
                                                      "--noise", noise_file]
    result = run_cli(command, *args, "--observable", observable)
    assert result.returncode == 3
    coeff = observable.split(",")[-1].split("*")[0].strip()
    assert result.stderr == "validation error: observable coefficient %s is not finite\n" % coeff
    assert [ln for ln in result.stdout.splitlines() if not ln.startswith("#")] == []


# <XY> = -0.54...; its imaginary rounding, times 2^40, exceeds 1e-10
SKEWED = "qubits 2;\nry 0 : 0.3;\nrx 1 : 0.7;\n\ncx 0, 1;\n\nrx 0 : 0.2;\nrz 1 : 0.5;\n\ncx 1, 0;\n"


@pytest.mark.parametrize("argv", [
    ["simulate", "{circuit}"],
    ["pec", "--circuit", "{circuit}", "--noise", "{noise}", "--samples", "500", "--seed", "3"],
    ["pec", "--circuit", "{circuit}", "--noise", "{noise}", "--samples", "500", "--seed", "3",
     "--mode", "shot"],
    ["zne", "--circuit", "{circuit}", "--noise", "{noise}"],
    ["zne", "--circuit", "{circuit}", "--noise", "{noise}", "--order", "2"],
    ["cut", "--circuit", "{circuit}", "--cut", "0:1"],
], ids=["simulate", "pec_analytic", "pec_shot", "zne_order_1", "zne_order_2", "cut"])
def test_values_scale_exactly_with_a_large_observable_coefficient(tmp_path, noise_file, capsys,
                                                                   argv):
    # simulate, analytic pec and zne used to exit 3: "expectation has
    # non-negligible imaginary part", an absolute bound on a scaled value
    circuit = tmp_path / "skewed.qc"
    circuit.write_text(SKEWED)
    argv = [arg.format(circuit=circuit, noise=noise_file) for arg in argv]
    values = []
    for observable in ("XY", "%d*XY" % 2 ** 40):
        assert cli.main(argv + ["--observable", observable, "--format", "records"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        values.append([float(v) for v in re.findall(r"(?:value=|extrapolated: )(\S+)",
                                                    captured.out)])
    unit, scaled = values
    assert unit and all(v != 0.0 for v in unit)
    assert scaled == [2 ** 40 * v for v in unit]


def test_chunk_error_passes_through_and_cancels_the_queued_chunks(bell_file, noise_file,
                                                                  monkeypatch, capsys):
    started = []

    def chunk(args):
        started.append(args[5])
        if args[5] == 0:
            raise MemoryError("Unable to allocate chunk 0")
        time.sleep(0.05)  # the other thread is busy when chunk 0's error arrives
        return np.zeros(args[6])

    monkeypatch.setattr(pec, "CHUNK_SIZE", 1)
    monkeypatch.setattr(pec, "_pec_chunk", chunk)
    argv = ["pec", "--circuit", bell_file, "--noise", noise_file, "--observable", "ZZ",
            "--samples", "16", "--workers", "2"]
    assert cli.main(argv) == 3  # a MemoryError, not a wrapper around it
    assert capsys.readouterr().err == "validation error: Unable to allocate chunk 0\n"
    assert len(started) < 16


@pytest.mark.parametrize("env, argv", [({}, ["--workers", str(MAX_WORKERS + 1)]),
                                       ({"QMIT_WORKERS": str(MAX_WORKERS + 1)}, [])])
def test_more_workers_than_the_cap_is_a_usage_error(bell_file, noise_file, monkeypatch, capsys,
                                                    env, argv):
    def no_chunk(args):
        raise AssertionError("a chunk ran before the worker count was checked")

    monkeypatch.setattr(pec, "_pec_chunk", no_chunk)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    with pytest.raises(SystemExit) as info:
        cli.main(["pec", "--circuit", bell_file, "--noise", noise_file, "--observable", "ZZ",
                  "--samples", str(2 * pec.CHUNK_SIZE), *argv])
    assert info.value.code == 2
    assert "must be <= %d, got '%d'" % (MAX_WORKERS, MAX_WORKERS + 1) in capsys.readouterr().err


def test_default_worker_count_is_capped(monkeypatch):
    monkeypatch.delenv("QMIT_WORKERS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 4 * MAX_WORKERS)
    args = cli.build_parser().parse_args(["pec", "--circuit", "c.qc", "--noise", "m.noise",
                                          "--observable", "ZZ"])
    assert args.workers == MAX_WORKERS


def test_zne_fit_that_polyfit_would_warn_on_is_refused_before_any_simulation(
        bell_file, noise_file, monkeypatch, capsys):
    def no_simulation(*args):
        raise AssertionError("simulated before the factors were checked")

    monkeypatch.setattr(pec, "noisy_expectation", no_simulation)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["zne", "--circuit", bell_file, "--noise", noise_file,
                         "--observable", "ZZ", "--factors", "1,2,1e76", "--order", "2"])
    assert code == 3
    assert capsys.readouterr().err == ("validation error: scale factors [1.0, 2.0, 1e+76] make"
                                       " a rank-deficient degree-2 fit\n")


def test_zne_order_below_zero_is_refused_before_any_simulation(bell_file, noise_file,
                                                               monkeypatch, capsys):
    def no_simulation(*args):
        raise AssertionError("simulated before the order was checked")

    monkeypatch.setattr(pec, "noisy_expectation", no_simulation)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["zne", "--circuit", bell_file, "--noise", noise_file,
                         "--observable", "ZZ", "--order", "-1"])
    assert code == 3
    assert capsys.readouterr().err == "validation error: order -1 must be >= 0\n"


def test_seed_env_default_reaches_the_header_of_commands_without_seed(bell_file, noise_file,
                                                                       monkeypatch, capsys):
    monkeypatch.setenv("QMIT_SEED", "123")
    assert cli.main(["zne", "--circuit", bell_file, "--noise", noise_file,
                     "--observable", "ZZ"]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "# seed: 123"


def test_overflowing_observable_bound_is_a_validation_error(bell_file):
    # each coefficient is finite, but XX and YY share one compiled diagonal
    result = run_cli("simulate", bell_file, "--observable", "ZZ,1e308*XX,1e308*YY")
    assert result.returncode == 3
    assert result.stderr == ("validation error: observable bound (sum of |coefficients|)"
                             " overflows to inf\n")
    assert [ln for ln in result.stdout.splitlines() if not ln.startswith("#")] == []


@pytest.mark.parametrize("cut", ["1", "0:1:2", "a:1", "0:", ""])
def test_malformed_cut_is_a_usage_error_naming_the_option(bell_file, capsys, cut):
    with pytest.raises(SystemExit) as info:
        cli.main(["cut", "--circuit", bell_file, "--cut", cut, "--observable", "ZZ"])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "argument --cut: must be QUBIT:BOUNDARY, two integers, got %r" % cut in err


def test_valid_cut_keeps_its_config_echo_and_output(bell_file, capsys):
    assert cli.main(["cut", "--circuit", bell_file, "--cut", "0:1", "--observable", "ZZ,0.5*XX",
                     "--mode", "sampled", "--samples", "3001", "--seed", "4"]) == 0
    assert capsys.readouterr().out.splitlines()[2:] == [
        "# config: cut circuit=%s cut=['0:1'] observable=ZZ,0.5*XX mode=sampled samples=3001"
        " format=table" % bell_file,
        "value               std_error             terms  gamma_cut  fragments",
        "1.4355214928357207  0.046962345463844514  8      4.0        2",
    ]


def test_exact_cut_with_samples_is_a_validation_error(bell_file, capsys):
    assert cli.main(["cut", "--circuit", bell_file, "--cut", "0:1", "--observable", "ZZ",
                     "--samples", "5"]) == 3
    assert capsys.readouterr().err == "validation error: exact mode takes no samples, got 5\n"


@pytest.mark.parametrize("argv", [
    ["pec", "--noise", "NOISE", "--samples", "100000000000"],
    ["pec", "--noise", "NOISE", "--samples", str(qmit.MAX_SAMPLES + 1), "--workers", "1"],
    ["cut", "--cut", "0:1", "--mode", "sampled", "--samples", "300000000"],
    ["cut", "--cut", "0:1", "--mode", "sampled", "--samples", str(qmit.MAX_SAMPLES + 1)],
])
def test_sample_count_over_the_cap_is_refused_before_any_sampling(bell_file, noise_file,
                                                                  monkeypatch, capsys, argv):
    def no_work(*args):
        raise AssertionError("sampling started before the sample count was checked")

    monkeypatch.setattr(pec, "_pec_chunk", no_work)
    monkeypatch.setattr(knit, "_fragment_state", no_work)
    argv = [noise_file if arg == "NOISE" else arg for arg in argv]
    assert cli.main(argv + ["--circuit", bell_file, "--observable", "ZZ"]) == 3
    err = capsys.readouterr().err
    assert "capped at %d" % qmit.MAX_SAMPLES in err


def test_pec_over_the_sample_cap_exits_3_at_the_default_worker_count(bell_file, noise_file):
    result = run_cli("pec", "--circuit", bell_file, "--noise", noise_file, "--observable", "ZZ",
                     "--samples", "100000000000")
    assert result.returncode == 3
    assert result.stderr == ("validation error: samples capped at %d, got 100000000000\n"
                             % qmit.MAX_SAMPLES)
