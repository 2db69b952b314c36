import numpy as np
import pytest
from hypothesis import given, strategies as st

from dense import pauli_matrix
from qmit.pauli import Observable, PauliString, format_pauli, parse_pauli

_I = np.eye(2)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]])
_Z = np.diag([1.0, -1.0]).astype(complex)
_DENSE = {"I": _I, "X": _X, "Y": _Y, "Z": _Z}


def dense(label: str) -> np.ndarray:
    """Kron with qubit 0 in the least significant bit of the basis index."""
    mat = np.eye(1, dtype=complex)
    for ch in label:
        mat = np.kron(_DENSE[ch], mat)
    return mat


labels = st.text(alphabet="IXYZ", min_size=1, max_size=5)


@given(labels)
def test_parse_format_round_trip(label):
    assert format_pauli(parse_pauli(label)) == label == str(parse_pauli(label))


@given(labels)
def test_pauli_matrix_matches_dense(label):
    p = parse_pauli(label)
    assert np.allclose(pauli_matrix(p), dense(label))


@given(labels, labels)
def test_multiply_matches_dense(a, b):
    n = max(len(a), len(b))
    a, b = a.ljust(n, "I"), b.ljust(n, "I")
    pa, pb = parse_pauli(a), parse_pauli(b)
    prod, phase = pa.multiply(pb)
    assert phase in (1, 1j, -1, -1j)
    assert np.allclose(phase * pauli_matrix(prod), dense(a) @ dense(b))


@given(labels, labels)
def test_commutes_matches_dense(a, b):
    n = max(len(a), len(b))
    a, b = a.ljust(n, "I"), b.ljust(n, "I")
    pa, pb = parse_pauli(a), parse_pauli(b)
    ma, mb = dense(a), dense(b)
    assert pa.commutes(pb) == np.allclose(ma @ mb, mb @ ma)


def test_label_orientation():
    # leftmost label character is qubit 0, which lives in mask bit 0
    p = parse_pauli("XIZ")
    assert p.x_mask == 0b001 and p.z_mask == 0b100


def test_weight_and_identity():
    assert parse_pauli("IXYZ").weight == 3
    assert PauliString.identity(3).is_identity
    assert not parse_pauli("IYI").is_identity


def test_single():
    assert PauliString.single(4, 2, "Y").to_label() == "IIYI"
    with pytest.raises(ValueError):
        PauliString.single(2, 2, "X")


def test_parse_errors():
    with pytest.raises(ValueError):
        parse_pauli("XQ")
    with pytest.raises(ValueError):
        parse_pauli("")
    with pytest.raises(ValueError):
        parse_pauli("XX", 3)


def test_mask_bounds():
    with pytest.raises(ValueError):
        PauliString(2, 4, 0)


def test_observable_merges_duplicates():
    p = parse_pauli("XZ")
    obs = Observable.from_terms(2, [(1.0, p), (0.5, p), (2.0, parse_pauli("YY"))])
    assert len(obs) == 2
    coeffs = {q.to_label(): c for c, q in obs.terms}
    assert coeffs["XZ"] == pytest.approx(1.5)
    assert coeffs["YY"] == pytest.approx(2.0)
    # a duplicate that comes after another term merges into the first one,
    # and the terms keep the order in which their labels first appear
    later = Observable.from_terms(2, [(1.0, p), (2.0, parse_pauli("YY")), (0.5, p),
                                      (3.0, parse_pauli("ZI")), (-2.0, parse_pauli("YY"))])
    assert [(c, q.to_label()) for c, q in later.terms] == [(1.5, "XZ"), (0.0, "YY"),
                                                           (3.0, "ZI")]


def test_observable_normalization_idempotent():
    obs = Observable.from_terms(2, [(1.0, parse_pauli("XZ")), (0.5, parse_pauli("XZ"))])
    again = Observable(obs.n_qubits, obs.terms)
    assert again.terms == obs.terms


def test_observable_add_and_bound():
    a = Observable.from_label("XZ", 1.0)
    b = Observable.from_label("XZ", -0.25) + Observable.from_label("ZZ", 2.0)
    total = a + b
    coeffs = {q.to_label(): c for c, q in total.terms}
    assert coeffs["XZ"] == pytest.approx(0.75)
    assert total.bound() == pytest.approx(2.75)


@pytest.mark.parametrize("terms, named", [
    ([(float("nan"), "ZZ")], "nan"),
    ([(float("inf"), "ZZ")], "inf"),
    ([(1.0, "XI"), (float("-inf"), "ZZ")], "-inf"),
    ([(1e308, "ZZ"), (1e308, "ZZ")], "inf"),  # merged past the float range
])
def test_observable_refuses_a_non_finite_coefficient(terms, named):
    with pytest.raises(ValueError, match="observable coefficient %s is not finite" % named):
        Observable.from_terms(2, [(c, parse_pauli(label)) for c, label in terms])


@pytest.mark.parametrize("coeffs", [(1.0, 1e308, 1e308), (-1e308, 1.0, -1e308)])
def test_observable_refuses_a_bound_that_overflows(coeffs):
    # each coefficient is finite, but XX and YY share one compiled diagonal
    terms = [(c, parse_pauli(label)) for c, label in zip(coeffs, ("XX", "ZZ", "YY"))]
    with pytest.raises(ValueError, match=r"observable bound \(sum of \|coefficients\|\)"
                                         " overflows to inf"):
        Observable.from_terms(2, terms)


def test_observable_admits_the_largest_finite_bound():
    obs = Observable.from_terms(2, [(1e308, parse_pauli("XX")), (-7.9e307, parse_pauli("YY"))])
    assert obs.bound() == 1.79e308


def test_observable_size_mismatch():
    with pytest.raises(ValueError):
        Observable.from_terms(2, [(1.0, parse_pauli("XXX"))])
