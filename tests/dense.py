"""Dense 2^n x 2^n operators, for test oracles only."""
import numpy as np

from qmit.pauli import Observable, PauliString


def pauli_matrix(p: PauliString) -> np.ndarray:
    n = p.n_qubits
    idx = np.arange(2 ** n)
    signs = 1.0 - 2.0 * (np.bitwise_count(idx & p.z_mask) & 1)
    phase = 1j ** ((p.x_mask & p.z_mask).bit_count() % 4)
    mat = np.zeros((2 ** n, 2 ** n), dtype=complex)
    mat[idx ^ p.x_mask, idx] = phase * signs
    return mat


def observable_matrix(obs: Observable) -> np.ndarray:
    mat = np.zeros((2 ** obs.n_qubits,) * 2, dtype=complex)
    for coeff, p in obs.terms:
        mat += coeff * pauli_matrix(p)
    return mat

