import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_circuit
from qmit.circuit_io import ParseError, parse, serialize
from qmit.circuits import Gate, Layer, QuantumCircuit


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
