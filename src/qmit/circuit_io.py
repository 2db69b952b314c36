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

The parser checks the syntax only.  The rules of a valid gate and layer
(arity, angle, distinct qubits in range, no qubit twice in a layer) are
`qmit.circuits`'s; a broken rule is reported as a ParseError at the
gate's name, or for an overlap at the layer's first line.
"""
from __future__ import annotations

import re

from . import ParseError
from .circuits import GATE_ARITY, Gate, Layer, QuantumCircuit, _check_layer


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
            layer = Layer(pending)
            try:
                _check_layer(layer, n_qubits)
            except ValueError as error:
                raise ParseError(str(error), pending_start, 1) from None
            layers.append(layer)
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
        qubits = tuple(int(q) for q in m.group("q0", "q1") if q is not None)
        param = m.group("param")
        if param is not None:
            try:
                param = float(param)
            except ValueError:
                raise ParseError(
                    "bad parameter literal %r" % param, line_no, raw.find(":") + 2,
                ) from None
        try:
            gate = Gate(name, qubits, param)
            _check_layer(Layer([gate]), n_qubits)
        except ValueError as error:
            raise ParseError(str(error), line_no, col) from None
        if pending_start is None:
            pending_start = line_no
        pending.append(gate)
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
