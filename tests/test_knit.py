import numpy as np
import pytest

from conftest import bell_circuit, random_circuit
from qmit import knit
from qmit.circuits import Gate, Layer, QuantumCircuit
from qmit.knit import CUT_TERMS, PREP_STATES, _fragment_value, execute_plan, plan_wire_cut
from qmit.pauli import Observable, parse_pauli
from qmit.simulator import expectation, philox_rng, run


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


def test_sampled_mode_requires_arguments():
    plan = plan_wire_cut(bell_circuit(), [(0, 1)])
    obs = Observable.from_label("ZZ")
    with pytest.raises(ValueError):
        execute_plan(plan, obs, mode="sampled")
    with pytest.raises(ValueError):
        execute_plan(plan, obs, mode="bogus")


def test_fragment_sizes_respect_partition():
    plan = plan_wire_cut(chain_circuit(), [(1, 3)])
    sizes = sorted(f.circuit.n_qubits for f in plan.fragments)
    assert sizes == [2, 2]  # {q0, q1-upstream} and {q1-downstream, q2}
    assert sum(sizes) == 3 + len(plan.cuts)


def reference_sampled(plan, observable, samples, seed):
    """Sampled recombination one sample at a time: one scalar term draw per
    cut and a fresh fragment recombination per sample."""
    rng = philox_rng(seed)
    probs = np.array([abs(c) for _, _, c in CUT_TERMS])
    probs = probs / probs.sum()
    cache = {}
    values = np.empty(samples)
    for s in range(samples):
        measures, preps, sign = {}, {}, 1.0
        for cut in range(len(plan.cuts)):
            basis, prep, c = CUT_TERMS[int(rng.choice(len(CUT_TERMS), p=probs))]
            sign *= 1.0 if c > 0 else -1.0
            measures[cut], preps[cut] = basis, prep
        total = 0.0
        for obs_coeff, pauli in observable.terms:
            prod = 1.0
            for frag in plan.fragments:
                prod *= _fragment_value(frag, pauli, measures, preps, cache)
            total += obs_coeff * prod
        values[s] = sign * total
    scale = plan.gamma_cut
    std_error = scale * float(values.std(ddof=1)) / np.sqrt(samples) if samples > 1 else 0.0
    return scale * float(values.mean()), std_error


@pytest.mark.parametrize("cuts, samples, seed", [
    ([(0, 1)], 1, 3),
    ([(1, 2)], 777, 8),
    ([(1, 2), (2, 3)], 1500, 21),  # 64 assignments, most drawn many times
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


def random_chain_circuit(rng):
    """Random rotations on 4 qubits around a 0-1, 1-2, 2-3 chain of random
    two-qubit gates. Cuts on wire 1 at boundary 2 or 3 and on wire 2 at
    boundary 4 or 5 split it into three 2-qubit fragments; the middle one
    has both an incoming and an outgoing cut."""
    def rotations():
        return Layer([Gate(str(rng.choice(["rx", "ry", "rz"])), (q,),
                           float(rng.uniform(-np.pi, np.pi))) for q in range(4)])

    def coupler(a, b):
        name = str(rng.choice(["cx", "rxx", "ryy", "rzz"]))
        param = None if name == "cx" else float(rng.uniform(-np.pi, np.pi))
        return Layer([Gate(name, (a, b), param)])

    return QuantumCircuit(4, [rotations(), coupler(0, 1), rotations(), coupler(1, 2),
                              rotations(), coupler(2, 3), rotations()])


@pytest.mark.parametrize("seed", range(6))
def test_two_cuts_on_random_circuits_with_y_observables(seed):
    rng = np.random.default_rng(seed)
    circuit = random_chain_circuit(rng)
    plan = plan_wire_cut(circuit, [(1, int(rng.integers(2, 4))), (2, int(rng.integers(4, 6)))])
    assert sorted(f.circuit.n_qubits for f in plan.fragments) == [2, 2, 2]
    terms = []
    for _ in range(3):
        label = list(rng.choice(list("IXYZ"), size=4))
        label[int(rng.integers(4))] = "Y"
        terms.append((float(rng.uniform(-1.0, 1.0)), parse_pauli("".join(label))))
    obs = Observable.from_terms(4, terms)
    uncut = expectation(run(circuit), obs)
    assert abs(execute_plan(plan, obs)["value"] - uncut) < 1e-10


def test_oversized_fragment_is_rejected_before_any_fragment_runs(monkeypatch):
    # a 1-qubit upstream fragment, then all 35 qubits joined by a CNOT chain
    n = 35
    layers = [Layer([Gate("h", (0,))])]
    layers += [Layer([Gate("cx", (q, q + 1))]) for q in range(n - 1)]
    plan = plan_wire_cut(QuantumCircuit(n, layers), [(0, 1)])
    assert [f.circuit.n_qubits for f in plan.fragments] == [1, n]

    def fragment_state(*args):
        raise AssertionError("a fragment ran before the size check")

    monkeypatch.setattr(knit, "_fragment_state", fragment_state)
    obs = Observable.from_label("Z" * n)
    for kwargs in ({}, {"mode": "sampled", "samples": 10, "seed": 0}):
        with pytest.raises(ValueError, match="statevector capped"):
            execute_plan(plan, obs, **kwargs)
