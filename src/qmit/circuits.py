"""Layered quantum circuits with explicit two-qubit-gate layers."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

GATE_ARITY = {
    "x": 1, "y": 1, "z": 1, "h": 1, "s": 1, "sdg": 1,
    "rx": 1, "ry": 1, "rz": 1,
    "cx": 2, "rxx": 2, "ryy": 2, "rzz": 2, "swap": 2,
}
PARAMETRIC_GATES = {"rx", "ry", "rz", "rxx", "ryy", "rzz"}

_INVERSE_FIXED = {"x": "x", "y": "y", "z": "z", "h": "h", "s": "sdg", "sdg": "s",
                  "cx": "cx", "swap": "swap"}


@dataclass(frozen=True)
class Gate:
    """One gate application: a named gate or a custom unitary ('u').

    Custom unitaries are validated here, at insertion time.
    """

    name: str
    qubits: tuple[int, ...]
    param: float | None = None
    matrix: np.ndarray | None = None

    def __post_init__(self):
        if self.name == "u":
            if self.matrix is None:
                raise ValueError("custom gate requires a matrix")
            dim = 2 ** len(self.qubits)
            m = np.asarray(self.matrix, dtype=complex)
            if m.shape != (dim, dim):
                raise ValueError("custom gate matrix has wrong shape")
            if np.abs(m @ m.conj().T - np.eye(dim)).max() > 1e-8:
                raise ValueError("custom gate matrix is not unitary")
            object.__setattr__(self, "matrix", m)
        else:
            if self.name not in GATE_ARITY:
                raise ValueError("unknown gate %r" % self.name)
            if GATE_ARITY[self.name] != len(self.qubits):
                raise ValueError("gate %r takes %d qubit(s)" % (self.name, GATE_ARITY[self.name]))
            if (self.name in PARAMETRIC_GATES) != (self.param is not None):
                raise ValueError("gate %r parameter mismatch" % self.name)
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError("gate qubits must be distinct")

    def inverse(self) -> "Gate":
        if self.name == "u":
            return Gate("u", self.qubits, matrix=self.matrix.conj().T)
        if self.name in PARAMETRIC_GATES:
            return Gate(self.name, self.qubits, -self.param)
        return Gate(_INVERSE_FIXED[self.name], self.qubits)


@dataclass
class Layer:
    """A group of gates acting on pairwise disjoint qubits."""

    gates: list[Gate] = field(default_factory=list)

    @property
    def kind(self) -> str:
        return "2q" if any(len(g.qubits) == 2 for g in self.gates) else "1q"


@dataclass
class QuantumCircuit:
    n_qubits: int
    layers: list[Layer] = field(default_factory=list)

    def __post_init__(self):
        for layer in self.layers:
            _check_layer(layer, self.n_qubits)

    def two_qubit_layer_indices(self) -> list[int]:
        return [i for i, layer in enumerate(self.layers) if layer.kind == "2q"]

    def cnot_count(self) -> int:
        return sum(1 for layer in self.layers for g in layer.gates if g.name == "cx")

    def gate_count(self) -> int:
        return sum(len(layer.gates) for layer in self.layers)

    def inverse(self) -> "QuantumCircuit":
        layers = [Layer([g.inverse() for g in reversed(layer.gates)])
                  for layer in reversed(self.layers)]
        return QuantumCircuit(self.n_qubits, layers)

    def concat(self, other: "QuantumCircuit") -> "QuantumCircuit":
        if self.n_qubits != other.n_qubits:
            raise ValueError("circuits act on different numbers of qubits")
        return QuantumCircuit(self.n_qubits, list(self.layers) + list(other.layers))


def _check_layer(layer: Layer, n_qubits: int) -> None:
    used: set[int] = set()
    for g in layer.gates:
        for q in g.qubits:
            if not 0 <= q < n_qubits:
                raise ValueError("qubit index %d out of range" % q)
            if q in used:
                raise ValueError("qubit %d used twice within a layer" % q)
            used.add(q)
