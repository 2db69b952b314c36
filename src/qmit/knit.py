"""Wire-cut circuit knitting: expand a cut wire into eight signed
measure-and-prepare sub-experiments per cut and recombine expectations.

Per cut the identity channel is replaced by the eight terms below; their
absolute coefficients sum to 4, so the sampling-overhead base is 4 per cut
(16 in variance).
"""
from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass, field
from math import sqrt

import numpy as np

from .circuits import Gate, Layer, QuantumCircuit
from .pauli import _CHAR_TO_XZ, Observable, PauliString
from .simulator import _check_statevector_size, apply_pauli_array, philox_rng, run_array

_SQ2 = 1 / sqrt(2)

PREP_STATES = {
    "0": np.array([1, 0], dtype=complex),
    "1": np.array([0, 1], dtype=complex),
    "+": np.array([_SQ2, _SQ2], dtype=complex),
    "-": np.array([_SQ2, -_SQ2], dtype=complex),
    "+i": np.array([_SQ2, 1j * _SQ2], dtype=complex),
    "-i": np.array([_SQ2, -1j * _SQ2], dtype=complex),
}

# (measurement basis on the upstream end, prepared state downstream, coeff)
CUT_TERMS = (
    ("I", "0", 0.5),
    ("I", "1", 0.5),
    ("Z", "0", 0.5),
    ("Z", "1", -0.5),
    ("X", "+", 0.5),
    ("X", "-", -0.5),
    ("Y", "+i", 0.5),
    ("Y", "-i", -0.5),
)


@dataclass(frozen=True)
class WireCut:
    qubit: int
    boundary: int  # cut sits between layers boundary-1 and boundary


@dataclass
class Fragment:
    segments: list[tuple[int, int]]  # (qubit, segment index), sorted
    circuit: QuantumCircuit = None
    local: dict = field(default_factory=dict)  # segment -> local qubit
    in_cuts: list[tuple[int, int]] = field(default_factory=list)  # (cut idx, local)
    out_cuts: list[tuple[int, int]] = field(default_factory=list)
    final_local: dict = field(default_factory=dict)  # original qubit -> local


@dataclass
class CutPlan:
    circuit: QuantumCircuit
    cuts: tuple[WireCut, ...]
    fragments: list[Fragment]

    @property
    def gamma_cut(self) -> float:
        return 4.0 ** len(self.cuts)

    @property
    def n_terms(self) -> int:
        return 8 ** len(self.cuts)


class _UnionFind:
    def __init__(self, items):
        self.parent = {item: item for item in items}

    def find(self, a):
        while self.parent[a] != a:
            self.parent[a] = self.parent[self.parent[a]]
            a = self.parent[a]
        return a

    def union(self, a, b):
        self.parent[self.find(a)] = self.find(b)


def plan_wire_cut(circuit: QuantumCircuit, cut_points) -> CutPlan:
    """Split wires at the given (qubit, layer boundary) points and group the
    resulting wire segments into disconnected fragments."""
    cuts = tuple(WireCut(q, b) for q, b in cut_points)
    if len(set(cuts)) != len(cuts):
        raise ValueError("duplicate cut points")
    n_layers = len(circuit.layers)
    for cut in cuts:
        if not 0 <= cut.qubit < circuit.n_qubits:
            raise ValueError("cut qubit out of range")
        if not 1 <= cut.boundary <= n_layers - 1:
            raise ValueError(
                "cut boundary %d must lie strictly between layers" % cut.boundary
            )
    boundaries: dict[int, list[int]] = {}
    for cut in cuts:
        boundaries.setdefault(cut.qubit, []).append(cut.boundary)
    for q in boundaries:
        boundaries[q].sort()

    def segment_of(q: int, layer: int) -> tuple[int, int]:
        return (q, bisect_right(boundaries.get(q, []), layer))

    nodes = []
    for q in range(circuit.n_qubits):
        for i in range(len(boundaries.get(q, [])) + 1):
            nodes.append((q, i))
    uf = _UnionFind(nodes)
    for layer_idx, layer in enumerate(circuit.layers):
        for gate in layer.gates:
            segs = [segment_of(q, layer_idx) for q in gate.qubits]
            for s in segs[1:]:
                uf.union(segs[0], s)

    groups: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for node in nodes:
        groups.setdefault(uf.find(node), []).append(node)

    cut_index = {(c.qubit, c.boundary): k for k, c in enumerate(cuts)}
    for cut in cuts:
        up = (cut.qubit, boundaries[cut.qubit].index(cut.boundary))
        down = (cut.qubit, up[1] + 1)
        if uf.find(up) == uf.find(down):
            raise ValueError(
                "cut at qubit %d boundary %d does not disconnect the circuit"
                % (cut.qubit, cut.boundary)
            )

    fragments = []
    for members in groups.values():
        frag = Fragment(segments=sorted(members))
        frag.local = {seg: i for i, seg in enumerate(frag.segments)}
        layers = []
        for layer_idx, layer in enumerate(circuit.layers):
            gates = []
            for gate in layer.gates:
                segs = [segment_of(q, layer_idx) for q in gate.qubits]
                if segs[0] in frag.local:
                    gates.append(
                        Gate(gate.name, tuple(frag.local[s] for s in segs),
                             gate.param, gate.matrix)
                    )
            if gates:
                layers.append(Layer(gates))
        frag.circuit = QuantumCircuit(len(frag.segments), layers)
        for q, i in frag.segments:
            bs = boundaries.get(q, [])
            if i > 0:
                frag.in_cuts.append((cut_index[(q, bs[i - 1])], frag.local[(q, i)]))
            if i < len(bs):
                frag.out_cuts.append((cut_index[(q, bs[i])], frag.local[(q, i)]))
            else:
                frag.final_local[q] = frag.local[(q, i)]
        fragments.append(frag)
    fragments.sort(key=lambda f: f.segments[0])
    return CutPlan(circuit, cuts, fragments)


def _fragment_state(frag: Fragment, preps: dict[int, str], cache: dict) -> np.ndarray:
    key = (id(frag), tuple(sorted((local, preps[cut]) for cut, local in frag.in_cuts)))
    if key not in cache:
        n = frag.circuit.n_qubits
        # qubit k occupies bit k of the basis index, so later locals go on
        # the left of the kron product
        amps = np.array([1.0 + 0j])
        for local in range(n):
            vec = PREP_STATES["0"]
            for cut, loc in frag.in_cuts:
                if loc == local:
                    vec = PREP_STATES[preps[cut]]
            amps = np.kron(vec, amps)
        cache[key] = run_array(frag.circuit, amps)
    return cache[key]


def _fragment_value(
    frag: Fragment,
    term_pauli: PauliString,
    measures: dict[int, str],
    preps: dict[int, str],
    cache: dict,
) -> float:
    # every factor acts on its own local qubit, so the product's masks are
    # the OR of the factors' masks, and its coefficient is 1
    x = z = 0
    for q, local in frag.final_local.items():
        x |= (term_pauli.x_mask >> q & 1) << local
        z |= (term_pauli.z_mask >> q & 1) << local
    for cut, local in frag.out_cuts:
        xb, zb = _CHAR_TO_XZ[measures[cut]]
        x |= xb << local
        z |= zb << local
    amps = _fragment_state(frag, preps, cache)
    value = np.vdot(amps, apply_pauli_array(amps, PauliString(frag.circuit.n_qubits, x, z)))
    return float(value.real)


def _term_value(plan: CutPlan, observable: Observable, assignment, cache) -> float:
    """Signed contribution of one cut-term assignment (one term per cut)."""
    coeff = 1.0
    measures = {}
    preps = {}
    for cut_idx, (basis, prep, c) in enumerate(assignment):
        coeff *= c
        measures[cut_idx] = basis
        preps[cut_idx] = prep
    total = 0.0
    for obs_coeff, pauli in observable.terms:
        prod = 1.0
        for frag in plan.fragments:
            prod *= _fragment_value(frag, pauli, measures, preps, cache)
        total += obs_coeff * prod
    return coeff * total


def execute_plan(
    plan: CutPlan,
    observable: Observable,
    mode: str = "exact",
    samples: int | None = None,
    seed: int | None = None,
):
    """Recombine sub-circuit expectations.

    Exact mode enumerates all 8^cuts terms; sampled mode draws terms with
    probability |coeff| / 4^cuts and rescales.
    Returns {value, std_error, terms, gamma_cut}.
    """
    if observable.n_qubits != plan.circuit.n_qubits:
        raise ValueError("observable and circuit sizes differ")
    for frag in plan.fragments:
        _check_statevector_size(frag.circuit.n_qubits)
    cache: dict = {}
    n_cuts = len(plan.cuts)
    if mode == "exact":
        value = 0.0
        for assignment in itertools.product(CUT_TERMS, repeat=n_cuts):
            value += _term_value(plan, observable, assignment, cache)
        std_error = None
    elif mode == "sampled":
        if samples is None or seed is None:
            raise ValueError("sampled mode requires samples and seed")
        rng = philox_rng(seed)
        weights = np.array([abs(c) for _, _, c in CUT_TERMS])
        picks = rng.choice(len(CUT_TERMS), size=(samples, n_cuts), p=weights / weights.sum())
        distinct, which = np.unique(picks, axis=0, return_inverse=True)
        # record of a sample: its term's value over prod |c|, i.e. sign * total;
        # the remaining factor gamma_cut is applied to the mean
        records = np.array([
            _term_value(plan, observable, [CUT_TERMS[k] for k in row], cache)
            / np.prod(weights[row])
            for row in distinct
        ])
        values = records[which.reshape(-1)]
        value = plan.gamma_cut * float(values.mean())
        std_error = (float(plan.gamma_cut * values.std(ddof=1) / np.sqrt(samples))
                     if samples > 1 else 0.0)
    else:
        raise ValueError("mode must be 'exact' or 'sampled'")
    return {
        "value": value,
        "std_error": std_error,
        "terms": plan.n_terms,
        "gamma_cut": plan.gamma_cut,
    }
