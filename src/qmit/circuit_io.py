"""Plain-text circuit format: a strict OpenQASM-like subset.

Grammar::

    qubits <n>;
    <gate> <q>[, <q2>][ : <param>];   # one statement per line
                                       # blank line = layer boundary
    # comments run to end of line

Gate names: h, s, sdg, x, y, z, rx, ry, rz, cx, rxx, ryy, rzz, swap.
Angles are radians, decimal literals only.  ``parse(serialize(c))``
structurally equals ``c``; the serializer is canonical (one space after
commas, shortest round-trip decimals, LF line endings).
"""
from __future__ import annotations

import re

from .circuits import GATE_ARITY, PARAMETRIC_GATES, Gate, Layer, QuantumCircuit


class ParseError(ValueError):
    """Syntax or validation error with a 1-based source location."""

    def __init__(self, message: str, line: int, column: int):
        self.line = line
        self.column = column
        super().__init__("line %d, column %d: %s" % (line, column, message))


_HEADER_RE = re.compile(r"qubits\s+(\d+)\s*;\s*$")
_STMT_RE = re.compile(
    r"(?P<gate>[a-z]+)\s+(?P<q0>\d+)"
    r"(?:\s*,\s*(?P<q1>\d+))?"
    r"(?:\s*:\s*(?P<param>[-+0-9.eE]+))?"
    r"\s*;\s*$"
)


def _strip_comment(line: str) -> str:
    cut = line.find("#")
    return line if cut < 0 else line[:cut]


def parse(text: str) -> QuantumCircuit:
    lines = text.replace("\r\n", "\n").split("\n")
    n_qubits = None
    layers: list[Layer] = []
    pending: list[Gate] = []
    pending_start = None

    def flush():
        nonlocal pending, pending_start
        if pending:
            used = set()
            for g in pending:
                for q in g.qubits:
                    if q in used:
                        raise ParseError(
                            "qubit %d used twice within a layer" % q,
                            pending_start, 1,
                        )
                    used.add(q)
            layers.append(Layer(pending))
            pending = []
            pending_start = None

    for line_no, raw in enumerate(lines, start=1):
        stripped = _strip_comment(raw).strip()
        if not stripped:
            if n_qubits is not None:
                flush()
            continue
        if n_qubits is None:
            m = _HEADER_RE.match(stripped)
            if not m:
                raise ParseError("expected 'qubits <n>;' header", line_no, 1)
            n_qubits = int(m.group(1))
            if n_qubits < 1:
                raise ParseError("qubit count must be positive", line_no, 8)
            continue
        m = _STMT_RE.match(stripped)
        if not m:
            word = stripped.split()[0].rstrip(";")
            if word in GATE_ARITY and GATE_ARITY[word] == 2 and "," not in stripped:
                raise ParseError(
                    "gate '%s' is missing its second operand" % word,
                    line_no, raw.find(word) + 1 + len(word),
                )
            raise ParseError("malformed statement %r" % stripped, line_no, 1)
        name = m.group("gate")
        col = raw.find(name) + 1
        if name not in GATE_ARITY:
            raise ParseError("unknown gate %r" % name, line_no, col)
        qubits = [int(m.group("q0"))]
        if m.group("q1") is not None:
            qubits.append(int(m.group("q1")))
        if len(qubits) != GATE_ARITY[name]:
            if GATE_ARITY[name] == 2:
                message = "gate '%s' is missing its second operand" % name
            else:
                message = "gate '%s' takes one operand" % name
            raise ParseError(message, line_no, col)
        for q in qubits:
            if q >= n_qubits:
                raise ParseError(
                    "qubit index %d out of range (qubits %d)" % (q, n_qubits),
                    line_no, raw.find(str(q), col) + 1,
                )
        if len(qubits) == 2 and qubits[0] == qubits[1]:
            raise ParseError("gate operands must be distinct", line_no, col)
        param = None
        if m.group("param") is not None:
            if name not in PARAMETRIC_GATES:
                raise ParseError("gate '%s' takes no parameter" % name, line_no, col)
            try:
                param = float(m.group("param"))
            except ValueError:
                raise ParseError(
                    "bad parameter literal %r" % m.group("param"), line_no,
                    raw.find(":") + 2,
                ) from None
            if param != param or param in (float("inf"), float("-inf")):
                raise ParseError("parameter must be finite", line_no, raw.find(":") + 2)
        elif name in PARAMETRIC_GATES:
            raise ParseError(
                "rotation gate '%s' requires ': <angle>'" % name, line_no, col
            )
        if pending_start is None:
            pending_start = line_no
        pending.append(Gate(name, tuple(qubits), param))
    if n_qubits is None:
        raise ParseError("expected 'qubits <n>;' header", max(1, len(lines)), 1)
    flush()
    return QuantumCircuit(n_qubits, layers)


def serialize(circuit: QuantumCircuit) -> str:
    out = ["qubits %d;" % circuit.n_qubits]
    for k, layer in enumerate(circuit.layers):
        if k > 0:
            out.append("")
        for g in layer.gates:
            if g.name == "u":
                raise ValueError("custom-unitary gates have no text form")
            stmt = "%s %s" % (g.name, ", ".join(str(q) for q in g.qubits))
            if g.param is not None:
                stmt += " : %r" % g.param
            out.append(stmt + ";")
    return "\n".join(out) + "\n"
