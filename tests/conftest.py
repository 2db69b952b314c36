import numpy as np
import pytest

from qmit.circuits import Gate, Layer, QuantumCircuit
from qmit.noise import PauliLindbladModel
from qmit.pauli import Observable, PauliString, parse_pauli


def benchmark_circuit() -> QuantumCircuit:
    """4 qubits, 4 two-qubit layers, with a well-polarized ZIIZ observable."""
    return QuantumCircuit(4, [
        Layer([Gate("ry", (0,), 0.3), Gate("ry", (1,), 0.4),
               Gate("ry", (2,), 0.2), Gate("ry", (3,), 0.5)]),
        Layer([Gate("cx", (0, 1)), Gate("cx", (2, 3))]),
        Layer([Gate("rz", (0,), 0.3), Gate("ry", (2,), -0.5)]),
        Layer([Gate("cx", (1, 2))]),
        Layer([Gate("rx", (1,), 0.2), Gate("rz", (3,), 1.1)]),
        Layer([Gate("cx", (0, 1)), Gate("cx", (2, 3))]),
        Layer([Gate("cx", (1, 2))]),
    ])


def benchmark_model(total_rate: float) -> PauliLindbladModel:
    gens = ["XIII", "IYII", "IIXI", "IIIX", "XXII"]
    lam = total_rate / len(gens)
    return PauliLindbladModel(4, tuple((parse_pauli(g), lam) for g in gens))


def benchmark_observable() -> Observable:
    return Observable.from_label("ZIIZ")


def bell_circuit() -> QuantumCircuit:
    return QuantumCircuit(2, [Layer([Gate("h", (0,))]),
                              Layer([Gate("cx", (0, 1))])])


def random_circuit(rng: np.random.Generator, n_qubits: int,
                   n_layers: int) -> QuantumCircuit:
    one_q = ["h", "s", "sdg", "x", "y", "z"]
    rot_1q = ["rx", "ry", "rz"]
    rot_2q = ["rxx", "ryy", "rzz"]
    layers = []
    for _ in range(n_layers):
        free = list(range(n_qubits))
        rng.shuffle(free)
        gates = []
        while free:
            if len(free) >= 2 and rng.random() < 0.4:
                a, b = free.pop(), free.pop()
                name = rng.choice(["cx", "swap"] + rot_2q)
                param = float(rng.uniform(-np.pi, np.pi)) if name in rot_2q else None
                gates.append(Gate(name, (a, b), param))
            else:
                q = free.pop()
                if rng.random() < 0.5:
                    gates.append(Gate(str(rng.choice(one_q)), (q,)))
                else:
                    gates.append(Gate(str(rng.choice(rot_1q)), (q,),
                                      float(rng.uniform(-np.pi, np.pi))))
        layers.append(Layer(gates))
    return QuantumCircuit(n_qubits, layers)


def multi_mask_observable(rng: np.random.Generator, n_qubits: int,
                          diagonal: bool = True) -> Observable:
    """Two terms on each of min(3, 2^n - 1) distinct nonzero X masks, a Y on
    every qubit, and with `diagonal` two terms on X mask 0; without it, no
    term is diagonal."""
    dim = 2 ** n_qubits
    xs = [int(x) for x in rng.choice(np.arange(1, dim), size=min(3, dim - 1), replace=False)]
    xs += [0] * diagonal
    terms = [(float(rng.normal()), PauliString(n_qubits, x, int(rng.integers(dim))))
             for x in xs for _ in range(2)]
    terms += [(float(rng.normal()), PauliString.single(n_qubits, q, "Y"))
              for q in range(n_qubits)]
    return Observable.from_terms(n_qubits, terms)
