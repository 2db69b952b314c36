import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_circuit
from qmit.circuit_io import ParseError, parse, serialize
from qmit.circuits import Gate, Layer, QuantumCircuit
from qmit.hamiltonian import SpinChainHamiltonian
from qmit.noise import PauliLindbladModel, loads, pauli_fidelity
from qmit.pauli import Observable, PauliString, parse_pauli
from qmit.pec import pec_estimate
from qmit.resources import overhead_table
from qmit.simulator import DensityMatrix, Statevector, density_run, sample_counts


def circuits_equal(a: QuantumCircuit, b: QuantumCircuit) -> bool:
    if a.n_qubits != b.n_qubits or len(a.layers) != len(b.layers):
        return False
    for la, lb in zip(a.layers, b.layers):
        if [(g.name, g.qubits, g.param) for g in la.gates] != \
           [(g.name, g.qubits, g.param) for g in lb.gates]:
            return False
    return True


def test_bell_example():
    circuit = parse("qubits 2;\nh 0;\n\ncx 0, 1;")
    assert circuit.n_qubits == 2
    assert len(circuit.layers) == 2
    assert circuit.layers[0].gates[0].name == "h"
    assert circuit.layers[1].gates[0].qubits == (0, 1)


def test_rz_parameter():
    circuit = parse("qubits 1;\nrz 0 : 1.5707963267948966;")
    gate = circuit.layers[0].gates[0]
    assert gate.name == "rz"
    assert gate.param == pytest.approx(np.pi / 2)


def test_comments_and_crlf():
    circuit = parse("qubits 2;\r\n# a comment\r\nh 0;  # trailing\r\n")
    assert len(circuit.layers) == 1


def test_missing_operand_location():
    with pytest.raises(ParseError) as exc:
        parse("qubits 2;\ncx 0;")
    assert exc.value.line == 2
    assert "second operand" in str(exc.value)


def test_unknown_gate_location():
    with pytest.raises(ParseError) as exc:
        parse("qubits 2;\nfoo 0;")
    assert exc.value.line == 2


def test_out_of_range_location():
    with pytest.raises(ParseError) as exc:
        parse("qubits 2;\nh 5;")
    assert exc.value.line == 2
    assert "out of range" in str(exc.value)


def test_missing_rotation_parameter():
    with pytest.raises(ParseError) as exc:
        parse("qubits 1;\nrx 0;")
    assert "requires" in str(exc.value)


def test_overlap_within_layer():
    with pytest.raises(ParseError) as exc:
        parse("qubits 2;\nh 0;\nx 0;")
    assert "twice" in str(exc.value)


def test_missing_header():
    with pytest.raises(ParseError):
        parse("h 0;\n")


def test_empty_circuit_serializes_to_header():
    assert serialize(QuantumCircuit(3, [])) == "qubits 3;\n"
    assert circuits_equal(parse("qubits 3;"), QuantumCircuit(3, []))


def test_layer_boundaries_preserved():
    circuit = QuantumCircuit(2, [
        Layer([Gate("h", (0,))]),
        Layer([Gate("h", (1,))]),
        Layer([Gate("cx", (0, 1))]),
    ])
    text = serialize(circuit)
    assert text.count("\n\n") == 2
    assert circuits_equal(parse(text), circuit)


def test_custom_unitary_not_serializable():
    circuit = QuantumCircuit(1, [Layer([Gate("u", (0,), matrix=np.eye(2))])])
    with pytest.raises(ValueError):
        serialize(circuit)


@pytest.mark.parametrize("seed", range(100))
def test_round_trip_random_circuits(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 7))
    circuit = random_circuit(rng, n, int(rng.integers(1, 6)))
    assert circuits_equal(parse(serialize(circuit)), circuit)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_round_trip_property(seed):
    rng = np.random.default_rng(seed)
    circuit = random_circuit(rng, int(rng.integers(1, 5)), int(rng.integers(0, 4)))
    assert circuits_equal(parse(serialize(circuit)), circuit)


@pytest.mark.parametrize("param", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("name, qubits", [("rz", (0,)), ("rxx", (0, 1))])
def test_gate_refuses_a_non_finite_parameter(name, qubits, param):
    # such a gate would serialize to text that parse refuses
    with pytest.raises(ValueError, match="gate %r parameter %s is not finite" % (name, param)):
        Gate(name, qubits, param)


@pytest.mark.parametrize("text, line, column, message", [
    ("", 1, 1, "expected 'qubits <n>;' header"),
    ("# no header\n\n", 3, 1, "expected 'qubits <n>;' header"),
    ("h 0;", 1, 1, "expected 'qubits <n>;' header"),
    ("qubits 0;", 1, 8, "qubit count must be positive"),
    ("qubits 2;\ncx 0 1;", 2, 3, "gate 'cx' is missing its second operand"),
    ("qubits 2;\nh 0 1;", 2, 1, "malformed statement 'h 0 1;'"),
    ("qubits 2;\nrx  1 : -inf;", 2, 1, "malformed statement 'rx  1 : -inf;'"),
    ("qubits 2;\nfoo 0;", 2, 1, "unknown gate 'foo'"),
    ("qubits 2;\nu 0;", 2, 1, "unknown gate 'u'"),
    ("qubits 2;\nrx 0 : 1.2.3;", 2, 7, "bad parameter literal '1.2.3'"),
    ("qubits 2;\n  cx 0;", 2, 3, "gate 'cx' is missing its second operand"),
    ("qubits 2;\nh 0, 1;", 2, 1, "gate 'h' takes 1 qubit(s)"),
    ("qubits 1;\nrx 0;", 2, 1, "rotation gate 'rx' requires an angle"),
    ("qubits 2;\nrzz 0, 1;", 2, 1, "rotation gate 'rzz' requires an angle"),
    ("qubits 2;\nh 0 : 0.5;", 2, 1, "gate 'h' takes no parameter"),
    ("qubits 2;\nrx 0 : 1e999;", 2, 1, "gate 'rx' parameter inf is not finite"),
    ("qubits 2;\ncx 0, 0;", 2, 1, "gate qubits must be distinct"),
    ("qubits 2;\nh 5;", 2, 1, "qubit index 5 out of range (qubits 2)"),
    ("qubits 2;\nh 0;\ncx 1, 7;", 3, 1, "qubit index 7 out of range (qubits 2)"),
    ("qubits 2;\nh 0;\nx 0;", 2, 1, "qubit 0 used twice within a layer"),
    ("qubits 3;\n\nh 0;\nh 1;\ncx 2, 1;", 3, 1, "qubit 1 used twice within a layer"),
], ids=["empty", "comment_only", "no_header", "zero_qubits", "no_comma", "extra_operand",
        "inf_literal", "unknown_name", "u_in_text", "bad_literal", "indented_one_operand",
        "two_operands", "no_angle", "no_angle_2q", "unexpected_angle", "overflowing_angle",
        "same_operand_twice", "out_of_range", "out_of_range_later", "overlap",
        "overlap_after_blank"])
def test_malformed_text_is_refused_at_its_location(text, line, column, message):
    # the gate and layer rules are `circuits`'s; the parser only locates them
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert (exc.value.line, exc.value.column) == (line, column)
    assert str(exc.value) == "line %d, column %d: %s" % (line, column, message)


@pytest.mark.parametrize("build, message", [
    (lambda: Gate("u", (0,)), "custom gate requires a matrix"),
    (lambda: Gate("u", (0,), matrix=np.eye(4)), "custom gate matrix has wrong shape"),
    (lambda: Gate("u", (0,), matrix=[[1, 0], [0, 2]]), "custom gate matrix is not unitary"),
    (lambda: Gate("foo", (0,)), "unknown gate 'foo'"),
    (lambda: QuantumCircuit(2, [Layer([Gate("h", (-1,))])]),
     "qubit index -1 out of range (qubits 2)"),
    (lambda: QuantumCircuit(1).concat(QuantumCircuit(2)),
     "circuits act on different numbers of qubits"),
    (lambda: Statevector(1, np.ones(4) / 2), "amplitude vector has wrong length"),
    (lambda: DensityMatrix(1, np.eye(4) / 4), "density matrix has wrong shape"),
    (lambda: sample_counts(Statevector.zero(1), 0, seed=0), "shots must be positive"),
    (lambda: density_run(QuantumCircuit(2), DensityMatrix.from_statevector(Statevector.zero(1))),
     "state and circuit sizes differ"),
    (lambda: PauliString(0, 0, 0), "n_qubits must be positive"),
    (lambda: parse_pauli("X").commutes(parse_pauli("XX")),
     "Pauli strings act on different numbers of qubits"),
    (lambda: parse_pauli("X").multiply(parse_pauli("XX")),
     "Pauli strings act on different numbers of qubits"),
    (lambda: Observable.from_label("X") + Observable.from_label("XX"),
     "observables act on different numbers of qubits"),
    (lambda: pauli_fidelity(PauliLindbladModel(2, ()), parse_pauli("X")),
     "Pauli acts on wrong number of qubits"),
    (lambda: loads("qubits two\n"), "bad qubit count in noise model header"),
    (lambda: SpinChainHamiltonian(3, (0.0, 0.0)), "need one field per site"),
    (lambda: pec_estimate(QuantumCircuit(1), [], Observable.from_label("Z"), 0, 0),
     "samples must be >= 1"),
    (lambda: pec_estimate(QuantumCircuit(1), [], Observable.from_label("Z"), 1, 0, mode="exact"),
     "mode must be 'analytic' or 'shot'"),
    (lambda: overhead_table(4, [], [0.01]), "grids must be nonempty"),
], ids=["u_without_matrix", "u_wrong_shape", "u_not_unitary", "unknown_name",
        "negative_qubit", "concat_sizes", "amplitudes_wrong_length", "density_wrong_shape",
        "zero_shots", "density_run_sizes", "pauli_on_no_qubits", "commutes_sizes",
        "multiply_sizes", "observable_sum_sizes", "fidelity_sizes", "noise_header_count",
        "chain_fields", "pec_no_samples", "pec_mode", "overhead_empty_grid"])
def test_circuit_api_refuses_what_no_text_can_say(build, message):
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        build()


@pytest.mark.parametrize("build, message", [
    (lambda: Gate("h", (0.5,)), "qubit index 0.5 is not an integer"),
    (lambda: Gate("cx", (0, np.float64(1.0))), "qubit index np.float64(1.0) is not an integer"),
    (lambda: Gate("h", (True,)), "qubit index True is not an integer"),
    (lambda: Gate("h", (np.True_,)), "qubit index np.True_ is not an integer"),
    (lambda: QuantumCircuit(2, [Layer([Gate("h", ("0",))])]), "qubit index '0' is not an integer"),
    (lambda: Gate("u", (0,), 3.0, np.eye(2)), "gate 'u' takes no parameter"),
    (lambda: Gate("u", (0, 1, 2), matrix=np.eye(8)), "custom gate takes 1 or 2 qubits, got 3"),
    (lambda: Gate("u", (), matrix=np.eye(1)), "custom gate takes 1 or 2 qubits, got 0"),
], ids=["float", "numpy_float", "bool", "numpy_bool", "str", "u_with_param", "u_on_3",
        "u_on_0"])
def test_gate_refuses_a_non_integer_qubit_and_a_u_that_no_kernel_takes(build, message):
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        build()


def test_numpy_integer_qubits_are_indices():
    circuit = QuantumCircuit(2, [Layer([Gate("h", (np.int64(0),))]),
                                 Layer([Gate("cx", (np.int32(0), np.uint8(1)))])])
    assert circuit.two_qubit_layer_indices() == [1]


def test_inverse_of_a_custom_unitary_is_its_adjoint():
    s = np.array([[1, 0], [0, 1j]])
    inverse = Gate("u", (0,), matrix=s).inverse()
    assert inverse.name == "u" and inverse.qubits == (0,)
    assert np.array_equal(inverse.matrix, s.conj().T)
