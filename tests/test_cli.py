import os
import subprocess
import sys

import pytest

from qmit import cli, noise, pec

BELL = "qubits 2;\nh 0;\n\ncx 0, 1;\n"
NOISE = "qubits 2\nXI 0.01\nIY 0.02\n"


def run_cli(*args, env=None):
    return subprocess.run(
        [sys.executable, "-m", "qmit.cli", *args],
        capture_output=True, text=True, env=env,
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


def test_cli_import_leaves_scipy_and_process_pool_unloaded():
    # a cold start pays for scipy only when noise learning runs
    code = (
        "import sys, qmit.cli\n"
        "print(sorted(m for m in ('scipy', 'concurrent.futures.process')"
        " if m in sys.modules))\n"
        "from qmit import noise\n"
        "model = noise.loads(%r)\n"
        "learned, _ = noise.learn_rates_from_model(model, shots=2000, seed=3)\n"
        "print([lam for _, lam in learned.generators])\n" % NOISE
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    loaded, rates = result.stdout.splitlines()
    assert loaded == "[]"
    learned, _ = noise.learn_rates_from_model(noise.loads(NOISE), shots=2000, seed=3)
    assert rates == repr([lam for _, lam in learned.generators])


def test_noise_learn(noise_file):
    result = run_cli("noise-learn", "--noise", noise_file, "--format", "records")
    assert result.returncode == 0
    assert "generator=XI" in result.stdout


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


def test_varqte_derivative_block_too_large_is_a_validation_error():
    # K = 120 derivative vectors of 2^20 amplitudes: rejected before allocation
    result = subprocess.run(
        [sys.executable, "-m", "qmit.cli", "varqte", "--n", "20", "--layers", "2",
         "--t-final", "0.01", "--dt", "0.01"],
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 3
    assert "validation error" in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("base, a, b", [
    (["cut", "--circuit", "BELL", "--cut", "0:1", "--observable", "ZZ", "--mode", "sampled"],
     ["--samples", "100"], ["--samples", "200"]),
    (["varqte", "--n", "2", "--layers", "1", "--t-final", "0.02", "--dt", "0.01"],
     ["--regularization", "1e-6"], ["--regularization", "1e-1"]),
    (["simulate", "BELL"], ["--shots", "10"], ["--shots", "20"]),
    (["trotter", "--n", "3", "--steps", "1"], [], ["--random-fields"]),
    (["estimate-ft", "--n-cnot", "1e7", "--n-t", "1e9"],
     ["--circuit-size", "1e8"], ["--circuit-size", "1e12"]),
])
def test_config_line_tells_apart_options_that_change_results(bell_file, capsys, base, a, b):
    outputs = []
    for extra in (a, b):
        argv = [bell_file if arg == "BELL" else arg for arg in base] + extra
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


@pytest.mark.parametrize("name, value", [("QMIT_WORKERS", "abc"), ("QMIT_SEED", "x"),
                                         ("QMIT_WORKERS", "0")])
def test_bad_environment_default_is_a_usage_error(name, value):
    result = run_cli("--version", env=dict(os.environ, **{name: value}))
    assert result.returncode == 2
    assert "environment variable %s" % name in result.stderr
    assert "Traceback" not in result.stderr


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


def _kill_worker(args):
    os._exit(1)


def test_killed_worker_is_a_numeric_error(bell_file, noise_file, monkeypatch, capsys):
    argv = ["pec", "--circuit", bell_file, "--noise", noise_file, "--observable", "ZZ",
            "--samples", str(2 * pec.CHUNK_SIZE), "--workers", "2"]
    monkeypatch.setattr(pec, "_pec_chunk", _kill_worker)  # looked up by name in the worker
    assert cli.main(argv) == 4
    assert "numeric error" in capsys.readouterr().err


def test_seed_env_default_reaches_the_header_of_commands_without_seed(bell_file, noise_file,
                                                                       monkeypatch, capsys):
    monkeypatch.setenv("QMIT_SEED", "123")
    assert cli.main(["zne", "--circuit", bell_file, "--noise", noise_file,
                     "--observable", "ZZ"]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "# seed: 123"
