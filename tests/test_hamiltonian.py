import numpy as np
import pytest
from scipy.linalg import expm

from qmit import hamiltonian
from qmit.circuits import Layer, QuantumCircuit
from qmit.hamiltonian import (
    MAX_TROTTER_GATES,
    SpinChainHamiltonian,
    _bond_block,
    _bond_template,
    _field_layer,
    build,
    choose_steps,
    commutator_norm_sum,
    trotter_bound_order1,
    trotter_circuit,
)
from qmit.pauli import Observable, PauliString, parse_pauli
from qmit.simulator import observable_matrix, run_array


def circuit_unitary(circuit: QuantumCircuit) -> np.ndarray:
    return run_array(circuit, np.eye(2 ** circuit.n_qubits, dtype=complex))


def heisenberg_bond() -> np.ndarray:
    return sum(observable_matrix(
        Observable.from_label(lab)) for lab in ("XX", "YY", "ZZ"))


@pytest.mark.parametrize("theta", [0.0, 0.3, -0.7, 1.9, np.pi])
def test_bond_template_exact(theta):
    circuit = QuantumCircuit(2, [Layer(g) for g in _bond_template(0, 1, theta)])
    u = circuit_unitary(circuit)
    expected = expm(-1j * theta * heisenberg_bond())
    # exact including global phase
    assert np.abs(u - expected).max() < 1e-12


def test_build_field_terms():
    chain = build(2, fields=(0.0, 0.0))
    assert len(chain.observable()) == 3  # zero fields dropped
    chain = build(3, seed=4)
    assert len(chain.observable()) == 2 * 3 + 3  # 3 bond kinds per bond + fields
    assert all(abs(h) <= 1 for h in chain.fields)


def test_build_deterministic():
    assert build(5, seed=9).fields == build(5, seed=9).fields


def test_chain_validation():
    with pytest.raises(ValueError):
        SpinChainHamiltonian(1, (0.0,))
    with pytest.raises(ValueError):
        SpinChainHamiltonian(2, (0.0, 1.5))


def test_cnot_count_formula():
    # 3 CNOTs per bond exponential, n-1 bonds, once per step
    chain = build(100)
    circuit = trotter_circuit(chain, 1.0, 100, order=1)
    assert circuit.cnot_count() == 3 * 99 * 100 == 29700
    chain = build(5, seed=1)
    for r in (1, 3):
        for order in (1, 2):
            assert trotter_circuit(chain, 1.0, r, order).cnot_count() == 3 * 4 * r


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("steps", [1, 3])
@pytest.mark.parametrize("n", [2, 3, 4, 7, 10])
def test_gate_count_formula_matches_built_circuit(n, steps, order):
    # the closed form the size cap checks: 13 gates per bond, n per field layer
    circuit = trotter_circuit(build(n, seed=n), 0.7, steps, order)
    assert circuit.gate_count() == (13 * (n - 1) + order * n) * steps


def test_oversized_trotter_circuit_is_rejected_before_building(monkeypatch):
    def bond_block(*args):
        raise AssertionError("built")

    monkeypatch.setattr(hamiltonian, "_bond_block", bond_block)
    chain = build(3)
    # order 2 on 3 qubits: 32 gates per step, so 2^17 steps sit exactly at the cap
    assert (13 * 2 + 2 * 3) * 2 ** 17 == MAX_TROTTER_GATES
    with pytest.raises(AssertionError, match="built"):
        trotter_circuit(chain, 1.0, 2 ** 17, 2)
    with pytest.raises(ValueError, match="capped at %d gates" % MAX_TROTTER_GATES):
        trotter_circuit(chain, 1.0, 2 ** 17 + 1, 2)
    with pytest.raises(ValueError, match="capped"):
        trotter_circuit(build(2_000_000), 1.0, 1000, 1)


def test_trotter_error_below_bound_and_monotone():
    chain = build(6, seed=3)
    exact = expm(-1j * observable_matrix(chain.observable()))
    prev = np.inf
    for r in (2, 4, 8, 16):
        u = circuit_unitary(trotter_circuit(chain, 1.0, r, order=1))
        err = np.linalg.norm(u - exact, 2)
        assert err <= trotter_bound_order1(chain, 1.0, r)
        assert err < prev
        prev = err


def test_order2_beats_order1():
    chain = build(5, seed=8)
    exact = expm(-1j * observable_matrix(chain.observable()))
    for r in (8, 16):
        e1 = np.linalg.norm(circuit_unitary(trotter_circuit(chain, 1.0, r, 1)) - exact, 2)
        e2 = np.linalg.norm(circuit_unitary(trotter_circuit(chain, 1.0, r, 2)) - exact, 2)
        assert e2 <= e1


def test_order2_second_order_convergence():
    chain = build(5, seed=8)
    exact = expm(-1j * observable_matrix(chain.observable()))
    errs = [np.linalg.norm(circuit_unitary(trotter_circuit(chain, 1.0, r, 2)) - exact, 2)
            for r in (16, 32)]
    assert errs[0] / errs[1] > 3.0  # ~4x per step doubling


def test_bound_scales_inverse_in_steps():
    chain = build(4, seed=2)
    b2 = trotter_bound_order1(chain, 1.0, 2)
    b4 = trotter_bound_order1(chain, 1.0, 4)
    assert b4 == pytest.approx(b2 / 2)


def test_choose_steps_minimal():
    chain = build(4, seed=2)
    eps = 0.5
    r = choose_steps(chain, 1.0, eps)
    assert trotter_bound_order1(chain, 1.0, r) <= eps
    if r > 1:
        assert trotter_bound_order1(chain, 1.0, r - 1) > eps


def test_commutator_sum_skips_disjoint_and_commuting():
    # ZZ terms all commute with each other and the fields
    chain = build(3, fields=(0.0, 0.0, 0.0))
    obs = Observable.from_terms(
        3, [(1.0, parse_pauli("ZZI")), (1.0, parse_pauli("IZZ"))])
    assert commutator_norm_sum(obs) == 0.0


def test_invalid_args():
    chain = build(3)
    with pytest.raises(ValueError):
        trotter_circuit(chain, 1.0, 0)
    with pytest.raises(ValueError):
        trotter_circuit(chain, 1.0, 1, order=3)
    with pytest.raises(ValueError):
        choose_steps(chain, 1.0, 0.0)


def reference_trotter_circuit(chain, t, steps, order):
    """Per-step builder: every block rebuilt inside the step loop."""
    n = chain.n
    dt = t / steps
    even = [j for j in range(n - 1) if j % 2 == 0]
    odd = [j for j in range(n - 1) if j % 2 == 1]
    layers = []
    for step in range(steps):
        if order == 1:
            layers.extend(_bond_block(even, dt))
            if odd:
                layers.extend(_bond_block(odd, dt))
            layers.append(_field_layer(chain.fields, dt))
        else:
            blocks = [even, odd] if step % 2 == 0 else [odd, even]
            layers.append(_field_layer(chain.fields, dt / 2))
            for bonds in blocks:
                if bonds:
                    layers.extend(_bond_block(bonds, dt))
            layers.append(_field_layer(chain.fields, dt / 2))
    return QuantumCircuit(n, layers)


def gate_tuples(circuit):
    return [[(g.name, g.qubits, g.param) for g in layer.gates] for layer in circuit.layers]


@pytest.mark.parametrize("n", [2, 3, 6])
@pytest.mark.parametrize("order", [1, 2])
def test_trotter_circuit_matches_per_step_builder(n, order):
    chain = build(n, seed=5)
    for steps in (1, 2, 3):
        circuit = trotter_circuit(chain, 0.7, steps, order)
        assert gate_tuples(circuit) == gate_tuples(
            reference_trotter_circuit(chain, 0.7, steps, order))
        # steps share Gates but no Layer object or gate list
        assert len({id(layer) for layer in circuit.layers}) == len(circuit.layers)
        assert len({id(layer.gates) for layer in circuit.layers}) == len(circuit.layers)


def dense_commutator_norm_sum(obs):
    """Spectral norm of each overlapping pair's commutator, from dense
    matrices on the pair's joint support."""
    def restrict(p, support):
        x = z = 0
        for local, q in enumerate(support):
            x |= ((p.x_mask >> q) & 1) << local
            z |= ((p.z_mask >> q) & 1) << local
        return PauliString(len(support), x, z)

    terms = obs.terms
    total = 0.0
    for i, (ci, pi) in enumerate(terms):
        for cj, pj in terms[i + 1:]:
            joint = pi.x_mask | pi.z_mask | pj.x_mask | pj.z_mask
            if not (pi.x_mask | pi.z_mask) & (pj.x_mask | pj.z_mask):
                continue
            support = [q for q in range(obs.n_qubits) if (joint >> q) & 1]
            a = observable_matrix(Observable.from_terms(
                len(support), [(ci, restrict(pi, support))]))
            b = observable_matrix(Observable.from_terms(
                len(support), [(cj, restrict(pj, support))]))
            total += float(np.linalg.norm(a @ b - b @ a, 2))
    return total


@pytest.mark.parametrize("seed", range(6))
def test_commutator_norm_sum_matches_dense_svd(seed):
    rng = np.random.default_rng(seed)
    n = 4
    labels = ["".join(rng.choice(list("IXYZ"), size=n)) for _ in range(10)]
    # overlapping commuting (XXII/YYII) and anticommuting (XIII/ZIII) pairs
    labels += ["XXII", "YYII", "XIII", "ZIII"]
    terms = [(rng.normal(), parse_pauli(lab)) for lab in labels if set(lab) != {"I"}]
    obs = Observable.from_terms(n, terms)
    assert commutator_norm_sum(obs) == pytest.approx(dense_commutator_norm_sum(obs),
                                                     abs=1e-12, rel=0)


def all_pairs_commutator_norm_sum(obs):
    """Every term pair, i then j > i: the loop the overlap index must
    reproduce bit for bit."""
    terms = obs.terms
    total = 0.0
    for i, (ci, pi) in enumerate(terms):
        for cj, pj in terms[i + 1:]:
            if not pi.commutes(pj):
                total += 2 * abs(ci * cj)
    return total


@pytest.mark.parametrize("n", range(2, 41))
def test_commutator_norm_sum_equals_the_all_pairs_loop(n):
    for chain in (build(n), build(n, seed=n), build(n, seed=1000 + n)):
        obs = chain.observable()
        assert commutator_norm_sum(obs) == all_pairs_commutator_norm_sum(obs)
    # random observables, identity and repeated terms included
    rng = np.random.default_rng(n)
    labels = ["".join(rng.choice(list("IXYZ"), size=n, p=[0.7, 0.1, 0.1, 0.1]))
              for _ in range(3 * n)] + ["I" * n, "X" + "I" * (n - 1)] * 2
    obs = Observable.from_terms(n, [(rng.normal(), parse_pauli(lab)) for lab in labels])
    assert commutator_norm_sum(obs) == all_pairs_commutator_norm_sum(obs)


def test_commutator_norm_sum_visits_only_overlapping_pairs(monkeypatch):
    obs = build(100, seed=5).observable()
    calls = []
    commutes = PauliString.commutes
    monkeypatch.setattr(PauliString, "commutes",
                        lambda self, other: calls.append(1) or commutes(self, other))
    expected = all_pairs_commutator_norm_sum(obs)
    calls.clear()
    assert commutator_norm_sum(obs) == expected
    # each term shares a qubit with at most 13 later ones; all pairs would be 78,606
    assert len(obs.terms) == 397 and len(calls) <= 13 * len(obs.terms)
