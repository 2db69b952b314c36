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


def pauli_to_density_by_4x4_maps(coeffs: np.ndarray, n: int) -> np.ndarray:
    """rho from its 4^n Pauli coefficients c_Q = Tr(Q rho), indexed
    x | z << n, by n passes of the gate kernel, each applying one qubit's 4x4
    map from its (x, z) bits at (q, q + n) to rho's (column, row) bits there:
    column x | z << 1 of the map is that 1q Pauli's entries, halved."""
    from qmit.simulator import _apply_unitary

    local = np.array([pauli_matrix(PauliString(1, code & 1, code >> 1)).reshape(4)
                      for code in range(4)]).T / 2
    vec = coeffs.astype(complex)
    for q in range(n):
        vec = _apply_unitary(vec, local, (q, q + n), 2 * n)
    return vec.reshape(1 << n, 1 << n)
