"""Heisenberg spin-chain benchmark: Hamiltonian, Trotter circuits, CNOT
accounting and a first-order commutator error bound.

Each bond exponential exp(-i theta (XX+YY+ZZ)) is compiled to an exact
3-CNOT template (no global-phase residue), so circuit unitaries can be
compared directly against exact evolution.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .circuits import Gate, Layer, QuantumCircuit
from .pauli import Observable, PauliString
from .simulator import philox_rng

MAX_TROTTER_GATES = 2 ** 22


@dataclass(frozen=True)
class SpinChainHamiltonian:
    """Chain with unit-coupling bond terms and per-site Z fields in [-1, 1]."""

    n: int
    fields: tuple[float, ...]

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("chain needs at least 2 sites")
        if len(self.fields) != self.n:
            raise ValueError("need one field per site")
        if any(abs(h) > 1 for h in self.fields):
            raise ValueError("fields must lie in [-1, 1]")

    def observable(self) -> Observable:
        """Pauli expansion: XX, YY, ZZ per bond plus Z per site with h != 0."""
        terms = []
        for j in range(self.n - 1):
            for kind in "XYZ":
                p = PauliString.single(self.n, j, kind)
                q = PauliString.single(self.n, j + 1, kind)
                pq, _ = p.multiply(q)
                terms.append((1.0, pq))
        for j, h in enumerate(self.fields):
            if h != 0.0:
                terms.append((h, PauliString.single(self.n, j, "Z")))
        return Observable.from_terms(self.n, terms)


def build(n: int, fields=None, seed: int | None = None) -> SpinChainHamiltonian:
    if fields is None:
        if seed is None:
            fields = (0.0,) * n
        else:
            rng = philox_rng(seed)
            fields = tuple(float(v) for v in rng.uniform(-1.0, 1.0, size=n))
    return SpinChainHamiltonian(n, tuple(float(h) for h in fields))


def _bond_template(a: int, b: int, theta: float) -> list[list[Gate]]:
    """exp(-i theta (X_aX_b + Y_aY_b + Z_aZ_b)) as 9 layers with 3 CNOTs."""
    return [
        [Gate("h", (a,)), Gate("h", (b,))],
        [Gate("sdg", (a,)), Gate("s", (b,))],
        [Gate("cx", (b, a))],
        [Gate("s", (a,)), Gate("h", (b,))],
        [Gate("rz", (b,), -2 * theta)],
        [Gate("cx", (a, b))],
        [Gate("rz", (a,), 2 * theta), Gate("rz", (b,), 2 * theta)],
        [Gate("h", (a,))],
        [Gate("cx", (a, b))],
    ]


def _bond_block(bonds: list[int], theta: float) -> list[Layer]:
    """Disjoint bonds share the 9 template layers."""
    layers = [[] for _ in range(9)]
    for j in bonds:
        for slot, gates in enumerate(_bond_template(j, j + 1, theta)):
            layers[slot].extend(gates)
    return [Layer(gates) for gates in layers]


def _field_layer(fields, theta: float) -> Layer:
    gates = [Gate("rz", (j,), 2 * theta * h) for j, h in enumerate(fields)]
    return Layer(gates)


def trotter_circuit(chain: SpinChainHamiltonian, t: float, steps: int, order: int = 1) -> QuantumCircuit:
    """Product-formula circuit. Order 1: even bonds, odd bonds, fields per
    step. Order 2: symmetric arrangement with field rotations split around
    the bond blocks and the bond order alternating (even-odd, odd-even)
    between steps, so consecutive step pairs form a palindrome; bond blocks
    appear once per step and the CNOT count is unchanged. A circuit of more
    than MAX_TROTTER_GATES gates is refused before any is built."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if order not in (1, 2):
        raise ValueError("unsupported order %d" % order)
    n = chain.n
    # 13 gates per bond template, n field rotations per field layer
    gates = (13 * (n - 1) + order * n) * steps
    if gates > MAX_TROTTER_GATES:
        raise ValueError("Trotter circuit capped at %d gates, got %d" % (MAX_TROTTER_GATES, gates))
    dt = t / steps
    # dt is fixed, so every step repeats the same blocks: build them once
    even = _bond_block(list(range(0, n - 1, 2)), dt)
    odd = _bond_block(list(range(1, n - 1, 2)), dt) if n > 2 else []
    if order == 1:
        patterns = [even + odd + [_field_layer(chain.fields, dt)]]
    else:
        half = [_field_layer(chain.fields, dt / 2)]
        patterns = [half + even + odd + half, half + odd + even + half]
    # fresh Layer objects per step, sharing the immutable Gates
    layers = [Layer(list(layer.gates))
              for step in range(steps) for layer in patterns[step % len(patterns)]]
    return QuantumCircuit(n, layers)


def trotter_bound_order1(chain: SpinChainHamiltonian, t: float, steps: int) -> float:
    """(t^2 / 2r) * sum over term pairs of the commutator spectral norm."""
    return commutator_norm_sum(chain.observable()) * t * t / (2 * steps)


def commutator_norm_sum(obs: Observable) -> float:
    """Sum over term pairs of ||[c_i P_i, c_j P_j]||. Anticommuting Pauli
    strings give [P, Q] = 2PQ with PQ unitary, so such a pair adds
    2|c_i c_j|; commuting pairs add nothing. Disjoint pairs always commute,
    so only pairs that share a qubit are visited, in the all-pairs order
    (i, then j > i), which keeps the sum bit for bit the same."""
    terms = obs.terms
    supports = []
    on_qubit: dict[int, list[int]] = {}  # one-bit qubit mask -> terms on that qubit
    for i, (_, p) in enumerate(terms):
        support, mask = [], p.x_mask | p.z_mask
        while mask:
            low = mask & -mask
            support.append(low)
            on_qubit.setdefault(low, []).append(i)
            mask ^= low
        supports.append(support)
    total = 0.0
    for i, (ci, pi) in enumerate(terms):
        for j in sorted({j for q in supports[i] for j in on_qubit[q] if j > i}):
            cj, pj = terms[j]
            if not pi.commutes(pj):
                total += 2 * abs(ci * cj)
    return total


def choose_steps(chain: SpinChainHamiltonian, t: float, eps: float) -> int:
    """Minimal step count with trotter_bound_order1 <= eps."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    k = commutator_norm_sum(chain.observable())
    if k == 0.0:
        return 1
    r = max(1, math.ceil(k * t * t / (2 * eps) - 1e-12))
    return r
