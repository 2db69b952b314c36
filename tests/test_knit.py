import itertools

import numpy as np
import pytest

from conftest import bell_circuit, random_circuit
from qmit import knit
from qmit.circuits import Gate, Layer, QuantumCircuit
from qmit.knit import CUT_TERMS, PREP_STATES, execute_plan, plan_wire_cut
from qmit.pauli import _CHAR_TO_XZ, Observable, PauliString, parse_pauli
from qmit.simulator import apply_pauli_array, expectation, philox_rng, run, run_array


def test_cut_terms_table():
    # per cut the absolute coefficients sum to 4
    assert sum(abs(c) for _, _, c in CUT_TERMS) == pytest.approx(4.0)
    assert len(CUT_TERMS) == 8
    for _, prep, _ in CUT_TERMS:
        assert prep in PREP_STATES


def test_bell_single_cut_exact():
    plan = plan_wire_cut(bell_circuit(), [(0, 1)])
    assert len(plan.fragments) == 2
    assert plan.gamma_cut == pytest.approx(4.0)
    result = execute_plan(plan, Observable.from_label("ZZ"))
    assert result["terms"] == 8
    assert abs(result["value"] - 1.0) < 1e-10


@pytest.mark.parametrize("label", ["ZZ", "XX", "YY", "ZI", "IZ", "XY"])
def test_bell_cut_all_observables(label):
    circuit = bell_circuit()
    plan = plan_wire_cut(circuit, [(0, 1)])
    obs = Observable.from_label(label)
    uncut = expectation(run(circuit), obs)
    cut = execute_plan(plan, obs)["value"]
    assert abs(cut - uncut) < 1e-10


def chain_circuit():
    return QuantumCircuit(3, [
        Layer([Gate("h", (0,)), Gate("ry", (2,), 0.7)]),
        Layer([Gate("cx", (0, 1))]),
        Layer([Gate("rz", (1,), 0.4)]),
        Layer([Gate("cx", (1, 2))]),
    ])


def test_chain_cut_matches_uncut():
    circuit = chain_circuit()
    plan = plan_wire_cut(circuit, [(1, 3)])
    for label in ("ZZZ", "ZIZ", "XXI", "IYY"):
        obs = Observable.from_label(label)
        uncut = expectation(run(circuit), obs)
        cut = execute_plan(plan, obs)["value"]
        assert abs(cut - uncut) < 1e-10


def test_two_cuts():
    circuit = QuantumCircuit(3, [
        Layer([Gate("h", (0,))]),
        Layer([Gate("cx", (0, 1))]),
        Layer([Gate("cx", (1, 2))]),
        Layer([Gate("ry", (2,), 0.3)]),
    ])
    plan = plan_wire_cut(circuit, [(0, 1), (1, 2)])
    assert plan.gamma_cut == pytest.approx(16.0)
    assert plan.n_terms == 64
    for label in ("ZZZ", "ZZI", "XXX"):
        obs = Observable.from_label(label)
        uncut = expectation(run(circuit), obs)
        cut = execute_plan(plan, obs)["value"]
        assert abs(cut - uncut) < 1e-10


def test_weighted_observable():
    circuit = chain_circuit()
    plan = plan_wire_cut(circuit, [(1, 3)])
    obs = Observable.from_terms(3, [(0.5, parse_pauli("ZZZ")),
                                    (-1.5, parse_pauli("XIZ"))])
    uncut = expectation(run(circuit), obs)
    assert abs(execute_plan(plan, obs)["value"] - uncut) < 1e-10


def test_non_disconnecting_cut_rejected():
    # cutting wire 1 between its two CNOTs leaves fragments joined via wires 0/2?
    # build a circuit where the two sides stay connected through another qubit
    circuit = QuantumCircuit(2, [
        Layer([Gate("cx", (0, 1))]),
        Layer([Gate("cx", (0, 1))]),
    ])
    with pytest.raises(ValueError, match="does not disconnect"):
        plan_wire_cut(circuit, [(1, 1)])


def test_cut_validation():
    circuit = bell_circuit()
    with pytest.raises(ValueError):
        plan_wire_cut(circuit, [(0, 0)])  # boundary before first layer
    with pytest.raises(ValueError):
        plan_wire_cut(circuit, [(0, 2)])  # boundary after last layer
    with pytest.raises(ValueError):
        plan_wire_cut(circuit, [(5, 1)])  # qubit out of range
    with pytest.raises(ValueError, match="duplicate"):
        plan_wire_cut(circuit, [(0, 1), (0, 1)])


def test_observable_size_mismatch():
    plan = plan_wire_cut(bell_circuit(), [(0, 1)])
    with pytest.raises(ValueError):
        execute_plan(plan, Observable.from_label("ZZZ"))


def test_sampled_mode_deterministic_and_converges():
    plan = plan_wire_cut(bell_circuit(), [(0, 1)])
    obs = Observable.from_label("ZZ")
    a = execute_plan(plan, obs, mode="sampled", samples=20000, seed=5)
    b = execute_plan(plan, obs, mode="sampled", samples=20000, seed=5)
    assert a == b
    assert abs(a["value"] - 1.0) < 5 * a["std_error"]


def test_sampled_mode_requires_arguments(monkeypatch):
    plan = plan_wire_cut(bell_circuit(), [(0, 1)])
    obs = Observable.from_label("ZZ")
    refuse_fragment_runs(monkeypatch)
    with pytest.raises(ValueError):
        execute_plan(plan, obs, mode="sampled")
    with pytest.raises(ValueError):
        execute_plan(plan, obs, mode="bogus")
    for samples in (0, -5):
        with pytest.raises(ValueError, match="samples must be >= 1"):
            execute_plan(plan, obs, mode="sampled", samples=samples, seed=1)


def test_fragment_sizes_respect_partition():
    plan = plan_wire_cut(chain_circuit(), [(1, 3)])
    sizes = sorted(f.circuit.n_qubits for f in plan.fragments)
    assert sizes == [2, 2]  # {q0, q1-upstream} and {q1-downstream, q2}
    assert sum(sizes) == 3 + len(plan.cuts)


def reference_fragment_value(frag, pauli, measures, preps):
    """One fragment's factor of one observable term for one cut-term
    assignment, the fragment run on its own statevector: `preps` names the
    state prepared on each in-cut and `measures` the basis on each out-cut."""
    n = frag.circuit.n_qubits
    # qubit k occupies bit k of the basis index, so later locals go on the
    # left of the kron product
    amps = np.array([1.0 + 0j])
    for local in range(n):
        vec = PREP_STATES["0"]
        for cut, loc in frag.in_cuts:
            if loc == local:
                vec = PREP_STATES[preps[cut]]
        amps = np.kron(vec, amps)
    amps = run_array(frag.circuit, amps)
    x = z = 0
    for q, local in frag.final_local.items():
        x |= (pauli.x_mask >> q & 1) << local
        z |= (pauli.z_mask >> q & 1) << local
    for cut, local in frag.out_cuts:
        xb, zb = _CHAR_TO_XZ[measures[cut]]
        x |= xb << local
        z |= zb << local
    return float(np.vdot(amps, apply_pauli_array(amps, PauliString(n, x, z))).real)


def reference_exact(plan, observable):
    """Exact recombination one cut-term assignment at a time, every fragment
    evaluated afresh for each of the 8^cuts assignments."""
    value = 0.0
    for assignment in itertools.product(CUT_TERMS, repeat=len(plan.cuts)):
        coeff, measures, preps = 1.0, {}, {}
        for cut, (basis, prep, c) in enumerate(assignment):
            coeff *= c
            measures[cut], preps[cut] = basis, prep
        total = 0.0
        for obs_coeff, pauli in observable.terms:
            prod = 1.0
            for frag in plan.fragments:
                prod *= reference_fragment_value(frag, pauli, measures, preps)
            total += obs_coeff * prod
        value += coeff * total
    return value


def fragment_tables(plan, observable):
    """tables[t][f]: fragment f's table of observable term t, as
    `execute_plan` builds them."""
    blocks = [knit._fragment_state(frag) for frag in plan.fragments]
    return [[knit._fragment_value(frag, block, pauli)
             for frag, block in zip(plan.fragments, blocks)]
            for _, pauli in observable.terms]


def table_index(frag, picks):
    """The table entry of a fragment for the CUT_TERMS index picked per cut."""
    return tuple(picks[cut] for cut, _ in frag.in_cuts + frag.out_cuts)


def reference_sampled(plan, observable, samples, seed):
    """Sampled recombination one sample at a time: one scalar term draw per
    cut and a fresh recombination of the fragments' table entries per
    sample."""
    rng = philox_rng(seed)
    probs = np.array([abs(c) for _, _, c in CUT_TERMS])
    probs = probs / probs.sum()
    tables = fragment_tables(plan, observable)
    values = np.empty(samples)
    for s in range(samples):
        picks, sign = [], 1.0
        for cut in range(len(plan.cuts)):
            k = int(rng.choice(len(CUT_TERMS), p=probs))
            sign *= 1.0 if CUT_TERMS[k][2] > 0 else -1.0
            picks.append(k)
        total = 0.0
        for (obs_coeff, _), term_tables in zip(observable.terms, tables):
            prod = 1.0
            for frag, table in zip(plan.fragments, term_tables):
                prod *= table[table_index(frag, picks)]
            total += obs_coeff * prod
        values[s] = sign * total
    scale = plan.gamma_cut
    std_error = scale * float(values.std(ddof=1)) / np.sqrt(samples) if samples > 1 else 0.0
    return scale * float(values.mean()), std_error


@pytest.mark.parametrize("cuts, samples, seed", [
    ([(0, 1)], 1, 3),
    ([(1, 2)], 777, 8),
    ([(1, 2), (2, 3)], 1500, 21),  # 64 assignments, most drawn many times
    ([(1, 2), (2, 3), (3, 4)], 1, 13),  # a chain of four fragments
    ([(1, 2), (2, 3), (3, 4)], 12000, 34),  # 512 assignments, most drawn many times
])
def test_sampled_mode_matches_reference(cuts, samples, seed):
    def ry_all(angles):
        return Layer([Gate("ry", (q,), a) for q, a in enumerate(angles)])

    circuit = QuantumCircuit(4, [
        ry_all([0.3, -1.2, 0.7, 2.1]),
        Layer([Gate("cx", (0, 1))]),
        Layer([Gate("cx", (1, 2))]),
        Layer([Gate("cx", (2, 3))]),
        ry_all([0.5, 0.9, -0.4, 1.1]),
    ])
    plan = plan_wire_cut(circuit, cuts)
    obs = Observable.from_terms(4, [(0.5, parse_pauli("ZZZZ")),
                                    (-1.5, parse_pauli("XIYZ"))])
    result = execute_plan(plan, obs, mode="sampled", samples=samples, seed=seed)
    value, std_error = reference_sampled(plan, obs, samples, seed)
    assert result["value"] == value
    assert result["std_error"] == std_error


def random_rotations(rng, n):
    return Layer([Gate(str(rng.choice(["rx", "ry", "rz"])), (q,),
                       float(rng.uniform(-np.pi, np.pi))) for q in range(n)])


def random_coupler(rng, a, b):
    name = str(rng.choice(["cx", "rxx", "ryy", "rzz"]))
    return Gate(name, (a, b), None if name == "cx" else float(rng.uniform(-np.pi, np.pi)))


def random_chain_circuit(rng):
    """Random rotations on 4 qubits around a 0-1, 1-2, 2-3 chain of random
    two-qubit gates. Cuts on wire 1 at boundary 2 or 3 and on wire 2 at
    boundary 4 or 5 split it into three 2-qubit fragments; the middle one
    has both an incoming and an outgoing cut."""
    layers = [random_rotations(rng, 4)]
    for a in range(3):
        layers += [Layer([random_coupler(rng, a, a + 1)]), random_rotations(rng, 4)]
    return QuantumCircuit(4, layers)


def observable_with_y(rng, n, n_terms=3):
    terms = []
    for _ in range(n_terms):
        label = list(rng.choice(list("IXYZ"), size=n))
        label[int(rng.integers(n))] = "Y"
        terms.append((float(rng.uniform(-1.0, 1.0)), parse_pauli("".join(label))))
    return Observable.from_terms(n, terms)


@pytest.mark.parametrize("seed", range(6))
def test_two_cuts_on_random_circuits_with_y_observables(seed):
    rng = np.random.default_rng(seed)
    circuit = random_chain_circuit(rng)
    plan = plan_wire_cut(circuit, [(1, int(rng.integers(2, 4))), (2, int(rng.integers(4, 6)))])
    assert sorted(f.circuit.n_qubits for f in plan.fragments) == [2, 2, 2]
    obs = observable_with_y(rng, 4)
    uncut = expectation(run(circuit), obs)
    assert abs(execute_plan(plan, obs)["value"] - uncut) < 1e-10


def refuse_fragment_runs(monkeypatch):
    def fragment_state(*args):
        raise AssertionError("a fragment ran before the size check")

    monkeypatch.setattr(knit, "_fragment_state", fragment_state)


def test_oversized_fragment_is_rejected_before_any_fragment_runs(monkeypatch):
    # a 1-qubit upstream fragment, then all 35 qubits joined by a CNOT chain
    n = 35
    layers = [Layer([Gate("h", (0,))])]
    layers += [Layer([Gate("cx", (q, q + 1))]) for q in range(n - 1)]
    plan = plan_wire_cut(QuantumCircuit(n, layers), [(0, 1)])
    assert [f.circuit.n_qubits for f in plan.fragments] == [1, n]
    refuse_fragment_runs(monkeypatch)
    obs = Observable.from_label("Z" * n)
    for kwargs in ({}, {"mode": "sampled", "samples": 10, "seed": 0}):
        with pytest.raises(ValueError, match="statevector capped"):
            execute_plan(plan, obs, **kwargs)


def cut_chain(rng, n_cuts):
    """Blocks of 2 qubits, each coupled inside, then joined in a chain by one
    gate from each block's second qubit to the next block's first. Each
    joining wire is cut just before its joint, so the plan has n_cuts + 1
    fragments and each fragment but the ends has one in-cut and one out-cut."""
    n = 2 * (n_cuts + 1)
    layers = [random_rotations(rng, n),
              Layer([random_coupler(rng, q, q + 1) for q in range(0, n, 2)]),
              random_rotations(rng, n)]
    layers += [Layer([random_coupler(rng, 2 * b + 1, 2 * b + 2)]) for b in range(n_cuts)]
    layers.append(random_rotations(rng, n))
    return QuantumCircuit(n, layers), [(2 * b + 1, 3 + b) for b in range(n_cuts)]


def two_cuts_on_one_wire(rng, own_fragment):
    """Wire 1 cut twice on 3 qubits. With own_fragment the segment between
    the cuts holds one rotation and is a 1-qubit fragment with an in-cut and
    an out-cut; otherwise it is coupled to qubit 2, and the segments before
    and after it both join qubit 0, whose fragment sends one cut and
    receives the other."""
    def rot():
        return random_rotations(rng, 3)

    if own_fragment:
        layers = [rot(), Layer([random_coupler(rng, 0, 1)]), rot(),
                  Layer([random_coupler(rng, 1, 2)]), rot()]
        return QuantumCircuit(3, layers), [(1, 2), (1, 3)]
    layers = [rot(), Layer([random_coupler(rng, 0, 1)]), rot(), Layer([random_coupler(rng, 1, 2)]),
              rot(), Layer([random_coupler(rng, 1, 0)]), rot()]
    return QuantumCircuit(3, layers), [(1, 2), (1, 5)]


def fan_in_and_out(rng):
    """Qubits 0 and 1 rotated alone, cut, coupled to each other and to
    qubit 2, then cut again and rotated alone: a 3-qubit fragment with two
    in-cuts and two out-cuts between four 1-qubit fragments."""
    layers = [random_rotations(rng, 3), Layer([random_coupler(rng, 0, 1)]),
              Layer([random_coupler(rng, 1, 2)]), Layer([random_coupler(rng, 2, 0)]),
              random_rotations(rng, 3)]
    return QuantumCircuit(3, layers), [(0, 1), (1, 1), (0, 4), (1, 4)]


def small_cases():
    rng = np.random.default_rng(7)
    cases = [(bell_circuit(), [(0, 1)])]
    cases += [cut_chain(rng, k) for k in (1, 2, 3)]
    cases += [two_cuts_on_one_wire(rng, own) for own in (True, False)]
    cases.append(fan_in_and_out(rng))
    return [(circuit, cuts, observable_with_y(rng, circuit.n_qubits)) for circuit, cuts in cases]


@pytest.mark.parametrize("case", range(7))
def test_every_table_entry_matches_the_per_assignment_oracle(case):
    circuit, cuts, obs = small_cases()[case]
    plan = plan_wire_cut(circuit, cuts)
    for (_, pauli), term_tables in zip(obs.terms, fragment_tables(plan, obs)):
        for frag, table in zip(plan.fragments, term_tables):
            n_in = len(frag.in_cuts)
            assert table.shape == (len(CUT_TERMS),) * (n_in + len(frag.out_cuts))
            for idx in np.ndindex(table.shape):
                preps = {cut: CUT_TERMS[k][1] for (cut, _), k in zip(frag.in_cuts, idx)}
                measures = {cut: CUT_TERMS[k][0] for (cut, _), k in zip(frag.out_cuts, idx[n_in:])}
                oracle = reference_fragment_value(frag, pauli, measures, preps)
                assert abs(table[idx] - oracle) < 1e-12


@pytest.mark.parametrize("case", [0, 1, 2, 4, 5])
def test_exact_matches_the_per_assignment_oracle(case):
    circuit, cuts, obs = small_cases()[case]
    plan = plan_wire_cut(circuit, cuts)
    assert abs(execute_plan(plan, obs)["value"] - reference_exact(plan, obs)) < 1e-12


UNCUT_CASES = {
    **{"chain-%d" % k: (lambda rng, k=k: cut_chain(rng, k)) for k in (1, 2, 3, 4, 5, 7)},
    "one-wire-own-fragment": lambda rng: two_cuts_on_one_wire(rng, True),
    "one-wire-loop": lambda rng: two_cuts_on_one_wire(rng, False),
    "fan-in-and-out": fan_in_and_out,
}


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("name", UNCUT_CASES)
def test_exact_matches_uncut(name, seed):
    rng = np.random.default_rng(seed)
    circuit, cuts = UNCUT_CASES[name](rng)
    obs = observable_with_y(rng, circuit.n_qubits)
    uncut = expectation(run(circuit), obs)
    assert abs(execute_plan(plan_wire_cut(circuit, cuts), obs)["value"] - uncut) < 1e-10


def test_cut_cases_have_the_fragments_they_describe():
    rng = np.random.default_rng(0)

    def shapes(circuit, cuts):
        return sorted((f.circuit.n_qubits, len(f.in_cuts), len(f.out_cuts))
                      for f in plan_wire_cut(circuit, cuts).fragments)

    assert shapes(*cut_chain(rng, 3)) == [(2, 0, 1), (3, 1, 0), (3, 1, 1), (3, 1, 1)]
    assert shapes(*two_cuts_on_one_wire(rng, True)) == [(1, 1, 1), (2, 0, 1), (2, 1, 0)]
    assert shapes(*two_cuts_on_one_wire(rng, False)) == [(2, 1, 1), (3, 1, 1)]
    assert shapes(*fan_in_and_out(rng)) == [(1, 0, 1), (1, 0, 1), (1, 1, 0), (1, 1, 0), (3, 2, 2)]


def test_each_fragment_runs_once_per_call(monkeypatch):
    rng = np.random.default_rng(3)
    circuit, cuts = cut_chain(rng, 3)
    plan = plan_wire_cut(circuit, cuts)
    obs = observable_with_y(rng, circuit.n_qubits)
    runs = []

    def counting_run_array(frag_circuit, amps):
        runs.append(frag_circuit)
        return run_array(frag_circuit, amps)

    monkeypatch.setattr(knit, "run_array", counting_run_array)
    for kwargs in ({}, {"mode": "sampled", "samples": 3000, "seed": 1}):
        runs.clear()
        execute_plan(plan, obs, **kwargs)
        assert sorted(map(id, runs)) == sorted(id(f.circuit) for f in plan.fragments)


def test_exact_mode_over_seven_cuts_is_rejected_before_any_fragment_runs(monkeypatch):
    circuit, cuts = cut_chain(np.random.default_rng(0), 8)
    plan = plan_wire_cut(circuit, cuts)
    obs = Observable.from_label("Z" * circuit.n_qubits)
    refuse_fragment_runs(monkeypatch)
    with pytest.raises(ValueError, match="exact mode capped at 7 cuts"):
        execute_plan(plan, obs)
    monkeypatch.undo()
    result = execute_plan(plan, obs, mode="sampled", samples=100, seed=0)
    assert result["terms"] == 8 ** 8 and np.isfinite(result["value"])


def star(n_leaves):
    """Qubit 0 meets each leaf once, and each leaf is cut right after: one
    fragment with n_leaves out-cuts and n_leaves 1-qubit fragments."""
    n = n_leaves + 1
    layers = [random_rotations(np.random.default_rng(0), n)]
    layers += [Layer([Gate("cx", (0, q))]) for q in range(1, n)]
    layers.append(Layer([Gate("h", (q,)) for q in range(n)]))
    return plan_wire_cut(QuantumCircuit(n, layers), [(q, q + 1) for q in range(1, n)])


def test_oversized_tables_are_rejected_before_any_fragment_runs(monkeypatch):
    refuse_fragment_runs(monkeypatch)
    sampled = {"mode": "sampled", "samples": 10, "seed": 0}
    # one 8^9-entry table
    with pytest.raises(ValueError, match="tables capped at %d entries" % 2 ** 24):
        execute_plan(star(9), Observable.from_label("Z" * 10), **sampled)
    # (8^7 + 7 * 8) entries per term: 7 terms fit in 2^24, 8 do not
    plan = star(7)
    for n_terms, error in ((8, ValueError), (7, AssertionError)):
        obs = Observable.from_terms(8, [(1.0, parse_pauli("I" * q + "Z" + "I" * (7 - q)))
                                        for q in range(n_terms)])
        assert len(obs.terms) == n_terms
        with pytest.raises(error, match="capped|ran before"):
            execute_plan(plan, obs, **sampled)


def test_oversized_block_is_rejected_before_any_fragment_runs(monkeypatch):
    # a 22-qubit fragment behind one in-cut: a block of 6 * 2^22 amplitudes,
    # each column within the statevector cap
    n = 22
    layers = [Layer([Gate("h", (0,))])]
    layers += [Layer([Gate("cx", (q, q + 1))]) for q in range(n - 1)]
    plan = plan_wire_cut(QuantumCircuit(n, layers), [(0, 1)])
    assert [f.circuit.n_qubits for f in plan.fragments] == [1, n]
    refuse_fragment_runs(monkeypatch)
    obs = Observable.from_label("Z" * n)
    for kwargs in ({}, {"mode": "sampled", "samples": 10, "seed": 0}):
        with pytest.raises(ValueError, match="block of 6\\^in preparations capped"):
            execute_plan(plan, obs, **kwargs)
