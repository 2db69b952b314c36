"""Phase-free n-qubit Pauli strings and real-weighted Pauli observables.

Conventions used throughout the package:

* qubit ``k`` lives in bit ``k`` of the X/Z masks (bit 0 = qubit 0),
* in text labels the leftmost character is qubit 0,
* a Pauli string stores no phase; ``multiply`` returns the phase separately.
"""
from __future__ import annotations

from dataclasses import dataclass

_CHAR_TO_XZ = {"I": (0, 0), "X": (1, 0), "Z": (0, 1), "Y": (1, 1)}
_XZ_TO_CHAR = {v: k for k, v in _CHAR_TO_XZ.items()}

# phase of the single-qubit product written as i^k, indexed below
_PHASES = (1, 1j, -1, -1j)


@dataclass(frozen=True)
class PauliString:
    """Tensor product of single-qubit Paulis encoded as X/Z bit masks.

    Qubit k is I/X/Z/Y according to (x_k, z_k) = (0,0)/(1,0)/(0,1)/(1,1).
    """

    n_qubits: int
    x_mask: int
    z_mask: int

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError("n_qubits must be positive")
        full = (1 << self.n_qubits) - 1
        if not 0 <= self.x_mask <= full or not 0 <= self.z_mask <= full:
            raise ValueError("mask does not fit in %d bits" % self.n_qubits)

    @classmethod
    def identity(cls, n_qubits: int) -> "PauliString":
        return cls(n_qubits, 0, 0)

    @classmethod
    def single(cls, n_qubits: int, qubit: int, kind: str) -> "PauliString":
        """Weight-1 Pauli of the given kind ('X', 'Y' or 'Z') on one qubit."""
        if not 0 <= qubit < n_qubits:
            raise ValueError("qubit index out of range")
        x, z = _CHAR_TO_XZ[kind]
        return cls(n_qubits, x << qubit, z << qubit)

    def to_label(self) -> str:
        return format_pauli(self)

    @property
    def weight(self) -> int:
        return (self.x_mask | self.z_mask).bit_count()

    @property
    def is_identity(self) -> bool:
        return self.x_mask == 0 and self.z_mask == 0

    def commutes(self, other: "PauliString") -> bool:
        """Symplectic inner product: even parity of locally anticommuting sites."""
        if self.n_qubits != other.n_qubits:
            raise ValueError("Pauli strings act on different numbers of qubits")
        parity = (self.x_mask & other.z_mask).bit_count() ^ (self.z_mask & other.x_mask).bit_count()
        return parity % 2 == 0

    def multiply(self, other: "PauliString") -> tuple["PauliString", complex]:
        """Product self*other as (PauliString, phase), phase in {1, i, -1, -i}."""
        if self.n_qubits != other.n_qubits:
            raise ValueError("Pauli strings act on different numbers of qubits")
        x3 = self.x_mask ^ other.x_mask
        z3 = self.z_mask ^ other.z_mask
        # each canonical Pauli carries i^(x*z); composing and reordering Z past X
        # leaves the exponent below (mod 4)
        k = (
            (self.x_mask & self.z_mask).bit_count()
            + (other.x_mask & other.z_mask).bit_count()
            - (x3 & z3).bit_count()
            + 2 * (self.z_mask & other.x_mask).bit_count()
        ) % 4
        return PauliString(self.n_qubits, x3, z3), _PHASES[k]

    def __str__(self) -> str:
        return self.to_label()


def parse_pauli(label: str, n_qubits: int | None = None) -> PauliString:
    """Parse a label over {I,X,Y,Z}; leftmost character is qubit 0."""
    if n_qubits is not None and len(label) != n_qubits:
        raise ValueError("label %r has length %d, expected %d" % (label, len(label), n_qubits))
    if not label:
        raise ValueError("empty Pauli label")
    x = z = 0
    for k, ch in enumerate(label):
        try:
            xb, zb = _CHAR_TO_XZ[ch]
        except KeyError:
            raise ValueError("bad character %r in Pauli label %r" % (ch, label)) from None
        x |= xb << k
        z |= zb << k
    return PauliString(len(label), x, z)


def format_pauli(p: PauliString) -> str:
    chars = []
    for k in range(p.n_qubits):
        chars.append(_XZ_TO_CHAR[((p.x_mask >> k) & 1, (p.z_mask >> k) & 1)])
    return "".join(chars)


@dataclass(frozen=True)
class Observable:
    """Real linear combination of Pauli strings on a fixed register.

    Duplicate Pauli strings are merged by summing coefficients at
    construction; normalization is idempotent.
    """

    n_qubits: int
    terms: tuple[tuple[float, PauliString], ...]

    def __post_init__(self):
        merged: dict[tuple[int, int], float] = {}
        order: list[tuple[int, int]] = []
        for coeff, p in self.terms:
            if p.n_qubits != self.n_qubits:
                raise ValueError("observable term acts on wrong number of qubits")
            key = (p.x_mask, p.z_mask)
            if key not in merged:
                merged[key] = 0.0
                order.append(key)
            merged[key] += float(coeff)
        normalized = tuple(
            (merged[key], PauliString(self.n_qubits, key[0], key[1])) for key in order
        )
        object.__setattr__(self, "terms", normalized)

    @classmethod
    def from_label(cls, label: str, coeff: float = 1.0) -> "Observable":
        p = parse_pauli(label)
        return cls(p.n_qubits, ((coeff, p),))

    @classmethod
    def from_terms(cls, n_qubits: int, terms) -> "Observable":
        return cls(n_qubits, tuple((float(c), p) for c, p in terms))

    def __add__(self, other: "Observable") -> "Observable":
        if self.n_qubits != other.n_qubits:
            raise ValueError("observables act on different numbers of qubits")
        return Observable(self.n_qubits, self.terms + other.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def bound(self) -> float:
        """Sum of |coefficients|; upper bound on the spectral norm."""
        return sum(abs(c) for c, _ in self.terms)
