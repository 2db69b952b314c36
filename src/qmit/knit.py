"""Wire-cut circuit knitting: expand a cut wire into eight signed
measure-and-prepare sub-experiments per cut and recombine expectations.

Per cut the identity channel is replaced by the eight terms below; their
absolute coefficients sum to 4, so the sampling-overhead base is 4 per cut
(16 in variance).

A fragment's factor of an observable term depends only on its own cuts: the
state prepared on each in-cut and the basis measured on each out-cut. So
each fragment runs once, on a block holding all 6^in preparations, and each
term reads one table per fragment with one axis of 8 cut terms per cut
(the per-subcircuit decomposition of Peng, Harrow, Ozols & Wu, PRL 125,
150504 (2020), and of CutQC, Tang et al., ASPLOS 2021). Exact mode sums the
records of all 8^cuts cut-term assignments; sampled mode averages each draw's.

Planning splits each wire at its cuts into segments, numbered along the wire
from 0, and joins the segments that each gate touches. The fragments are the
components, in the order of their first (qubit, segment) pair, and a
fragment's local qubits follow its segments in sorted order.
"""
from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass
from math import sqrt

import numpy as np

from . import MAX_SAMPLES
from .circuits import Gate, Layer, QuantumCircuit, _is_index
from .pauli import _CHAR_TO_XZ, Observable, PauliString
from .simulator import (MAX_STATEVECTOR_QUBITS, _check_statevector_size, apply_pauli_array,
                        philox_rng, run_array)

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


@dataclass(frozen=True)
class Fragment:
    circuit: QuantumCircuit
    in_cuts: list[tuple[int, int]]  # (cut idx, local qubit)
    out_cuts: list[tuple[int, int]]
    final_local: dict[int, int]  # original qubit -> local


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


def plan_wire_cut(circuit: QuantumCircuit, cut_points) -> CutPlan:
    """Split wires at the given (qubit, layer boundary) points and group the
    resulting wire segments into disconnected fragments."""
    cuts = tuple(WireCut(q, b) for q, b in cut_points)
    for cut in cuts:
        if not (_is_index(cut.qubit) and _is_index(cut.boundary)):
            raise ValueError("cut qubit and boundary must be integers, got %r" % (cut,))
        if not 0 <= cut.qubit < circuit.n_qubits:
            raise ValueError("cut qubit out of range")
        if not 1 <= cut.boundary < len(circuit.layers):
            raise ValueError("cut boundary %d must lie strictly between layers" % cut.boundary)
    if len(set(cuts)) != len(cuts):
        raise ValueError("duplicate cut points")
    boundaries: dict[int, list[int]] = {q: [] for q in range(circuit.n_qubits)}
    for q, b in sorted((cut.qubit, cut.boundary) for cut in cuts):
        boundaries[q].append(b)
    parent = {(q, i): (q, i) for q, bs in boundaries.items() for i in range(len(bs) + 1)}

    def find(seg):
        while parent[seg] != seg:
            parent[seg] = parent[parent[seg]]
            seg = parent[seg]
        return seg

    placed = []  # (layer index, gate, its segments) in circuit order
    for layer_idx, layer in enumerate(circuit.layers):
        for gate in layer.gates:
            segs = [(q, bisect_right(boundaries[q], layer_idx)) for q in gate.qubits]
            for seg in segs[1:]:
                parent[find(seg)] = find(segs[0])
            placed.append((layer_idx, gate, segs))
    for cut in cuts:
        down = (cut.qubit, bisect_right(boundaries[cut.qubit], cut.boundary))
        if find(down) == find((cut.qubit, down[1] - 1)):
            raise ValueError("cut at qubit %d boundary %d does not disconnect the circuit"
                             % (cut.qubit, cut.boundary))
    groups: dict[tuple[int, int], list[tuple[int, int]]] = {}  # root -> its segments, sorted
    for seg in parent:
        groups.setdefault(find(seg), []).append(seg)
    where = {seg: (f, local) for f, members in enumerate(groups.values())
             for local, seg in enumerate(members)}  # segment -> (fragment, local qubit)
    layers: list[dict[int, list[Gate]]] = [{} for _ in groups]  # per fragment: layer -> gates
    for layer_idx, gate, segs in placed:
        layers[where[segs[0]][0]].setdefault(layer_idx, []).append(
            Gate(gate.name, tuple(where[s][1] for s in segs), gate.param, gate.matrix))
    cut_index = {(c.qubit, c.boundary): k for k, c in enumerate(cuts)}
    fragments = []
    for members, frag_layers in zip(groups.values(), layers):
        # per local qubit: its wire, its segment there and that wire's last segment
        ends = [(q, i, len(boundaries[q]), local) for local, (q, i) in enumerate(members)]
        fragments.append(Fragment(
            QuantumCircuit(len(members), [Layer(gates) for gates in frag_layers.values()]),
            [(cut_index[q, boundaries[q][i - 1]], local) for q, i, _, local in ends if i > 0],
            [(cut_index[q, boundaries[q][i]], local) for q, i, last, local in ends if i < last],
            {q: local for q, i, last, local in ends if i == last},
        ))
    return CutPlan(circuit, cuts, fragments)


MAX_EXACT_CUTS = 7  # exact mode sums 8^cuts records: 2^21 at 7 cuts
MAX_TABLE_ENTRIES = 2 ** 24  # all tables of one call together: 128 MiB

_COEFFS = np.array([c for _, _, c in CUT_TERMS])
# per cut term: the index of its prepared state in PREP_STATES and of its
# measured basis in "IXYZ", the value axes of `_fragment_value`
_TERM_PREP = [list(PREP_STATES).index(prep) for _, prep, _ in CUT_TERMS]
_TERM_BASIS = ["IXYZ".index(basis) for basis, _, _ in CUT_TERMS]


def _check_plan_size(plan: CutPlan, observable: Observable, mode: str) -> None:
    """Reject a plan whose records, fragment blocks or tables exceed the
    caps, before any fragment runs. A block holds at most the amplitudes of
    one statevector at the cap."""
    if mode == "exact" and len(plan.cuts) > MAX_EXACT_CUTS:
        raise ValueError("exact mode capped at %d cuts (8^cuts terms)" % MAX_EXACT_CUTS)
    for frag in plan.fragments:
        _check_statevector_size(frag.circuit.n_qubits)
        if 6 ** len(frag.in_cuts) << frag.circuit.n_qubits > 1 << MAX_STATEVECTOR_QUBITS:
            raise ValueError("fragment block of 6^in preparations capped at %d amplitudes"
                             % (1 << MAX_STATEVECTOR_QUBITS))
    entries = sum(8 ** (len(f.in_cuts) + len(f.out_cuts)) for f in plan.fragments)
    if len(observable.terms) * entries > MAX_TABLE_ENTRIES:
        raise ValueError("knitting tables capped at %d entries" % MAX_TABLE_ENTRIES)


def _fragment_state(frag: Fragment) -> np.ndarray:
    """The fragment run once on a (2^n, 6^in) block: column j prepares |0>
    on every qubit but the in-cuts, and on those the PREP_STATES named by the
    base-6 digits of j, the first in-cut's digit the most significant."""
    preps = np.array(list(PREP_STATES.values())).T  # (2, 6), one state per column
    in_locals = {local for _, local in frag.in_cuts}
    block = np.ones((1, 1), dtype=complex)
    # qubit k occupies bit k of the basis index, so a later local is a more
    # significant row bit, and a later in-cut a less significant column digit
    for local in range(frag.circuit.n_qubits):
        vec = preps if local in in_locals else preps[:, :1]
        block = (vec[:, None, None, :] * block[None, :, :, None]).reshape(2 * len(block), -1)
    return run_array(frag.circuit, block)


def _fragment_value(frag: Fragment, block: np.ndarray, pauli: PauliString) -> np.ndarray:
    """The fragment's factor of one observable term for every cut-term
    assignment of its cuts, one axis of 8 per in-cut, then per out-cut: the
    6^in * 4^out values <psi_j|P|psi_j>, psi_j a block column and P the
    term's factor times one basis per out-cut, expanded to those axes."""
    n, n_in, n_out = frag.circuit.n_qubits, len(frag.in_cuts), len(frag.out_cuts)
    # every factor acts on its own local qubit, so the product's masks are
    # the OR of the factors' masks, and its coefficient is 1
    x = z = 0
    for q, local in frag.final_local.items():
        x |= (pauli.x_mask >> q & 1) << local
        z |= (pauli.z_mask >> q & 1) << local
    # one contiguous row per state: np.vecdot then takes the BLAS dot that
    # np.vdot takes on a lone statevector, so the values match it bit for bit
    bras = np.ascontiguousarray(block.T)
    values = []
    for bases in itertools.product("IXYZ", repeat=n_out):
        bx, bz = x, z
        for basis, (_, local) in zip(bases, frag.out_cuts):
            bx |= _CHAR_TO_XZ[basis][0] << local
            bz |= _CHAR_TO_XZ[basis][1] << local
        kets = apply_pauli_array(block, PauliString(n, bx, bz))
        values.append(np.vecdot(bras, np.ascontiguousarray(kets.T)).real)
    values = np.stack(values, axis=-1).reshape((6,) * n_in + (4,) * n_out)
    return values[np.ix_(*[_TERM_PREP] * n_in, *[_TERM_BASIS] * n_out)]


def _records(plan: CutPlan, observable: Observable, tables, rows: np.ndarray) -> np.ndarray:
    """Signed contribution of each cut-term assignment, one per row of an
    (m, cuts) array of CUT_TERMS indices: the product of its cut coefficients
    times the sum over terms t of coeff_t times the product over fragments f
    of the entries of tables[t][f], multiplied in that order."""
    coeff = np.ones(len(rows))
    for k in range(rows.shape[1]):
        coeff *= _COEFFS[rows[:, k]]
    total = 0.0
    for (obs_coeff, _), term_tables in zip(observable.terms, tables):
        prod = 1.0
        for frag, table in zip(plan.fragments, term_tables):
            prod = prod * table[tuple(rows[:, cut] for cut, _ in frag.in_cuts + frag.out_cuts)]
        total = total + obs_coeff * prod
    return coeff * total


def execute_plan(
    plan: CutPlan,
    observable: Observable,
    mode: str = "exact",
    samples: int | None = None,
    seed: int | None = None,
):
    """Recombine sub-circuit expectations.

    Each fragment runs once, and each observable term reads one table per
    fragment. Exact mode sums the records of all 8^cuts cut-term
    assignments; sampled mode draws assignments with probability
    |coeff| / 4^cuts, reads each draw's record and rescales. Exact mode
    takes no `samples`; sampled mode takes at most MAX_SAMPLES samples x cuts.
    Returns {value, std_error, terms, gamma_cut}.
    """
    if observable.n_qubits != plan.circuit.n_qubits:
        raise ValueError("observable and circuit sizes differ")
    if mode not in ("exact", "sampled"):
        raise ValueError("mode must be 'exact' or 'sampled'")
    if mode == "exact" and samples is not None:
        raise ValueError("exact mode takes no samples, got %r" % samples)
    if mode == "sampled" and (samples is None or seed is None):
        raise ValueError("sampled mode requires samples and seed")
    if mode == "sampled" and samples < 1:
        raise ValueError("samples must be >= 1")
    if mode == "sampled" and samples * max(1, len(plan.cuts)) > MAX_SAMPLES:
        raise ValueError("sampled mode capped at %d samples x cuts, got %d x %d"
                         % (MAX_SAMPLES, samples, len(plan.cuts)))
    _check_plan_size(plan, observable, mode)
    blocks = [_fragment_state(frag) for frag in plan.fragments]
    tables = [[_fragment_value(frag, block, pauli) for frag, block in zip(plan.fragments, blocks)]
              for _, pauli in observable.terms]
    n_cuts = len(plan.cuts)
    if mode == "exact":
        rows = np.indices((8,) * n_cuts, dtype=np.uint8).reshape(n_cuts, 8 ** n_cuts).T
        value = float(_records(plan, observable, tables, rows).sum())
        std_error = None
    else:
        # every |c| is 1/2, so each term has probability 1/8: floor(8 u) picks
        # it, as inverse-CDF sampling over |c| / 4^cuts would
        picks = (philox_rng(seed).random((samples, n_cuts)) * 8).astype(np.intp)
        # record of a sample: its term's value over prod |c| = 2^-cuts, i.e.
        # sign * total; the remaining factor gamma_cut is applied to the mean
        values = _records(plan, observable, tables, picks) * 2.0 ** n_cuts
        value = plan.gamma_cut * float(values.mean())
        std_error = (float(plan.gamma_cut * values.std(ddof=1) / np.sqrt(samples))
                     if samples > 1 else 0.0)
    return {
        "value": value,
        "std_error": std_error,
        "terms": plan.n_terms,
        "gamma_cut": plan.gamma_cut,
    }
