"""Dense complex linear algebra for 2x2 and 4x4 operators.

Basis ordering is fixed as |00>, |01>, |10>, |11> with the system qubit as
the first tensor factor; |0> is the sigma_z (+1) eigenstate. Every other
module inherits these conventions.
"""

from __future__ import annotations

import numpy as np

from .tolerances import TOL

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
SIGMA_PLUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)   # |0><1|
SIGMA_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)  # |1><0|
IDENTITY_2 = np.eye(2, dtype=complex)
IDENTITY_4 = np.eye(4, dtype=complex)


def _as_square(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] not in (2, 4):
        raise ValueError(f"only dimensions 2 and 4 are supported, got {a.shape[0]}")
    return a


def require_hermitian(a: np.ndarray) -> np.ndarray:
    """Validate A = A^dag entrywise within TOL.hermitian; returns the array."""
    a = _as_square(a)
    dev = np.max(np.abs(a - a.conj().T))
    if dev > TOL.hermitian:
        raise ValueError(f"matrix is not Hermitian: max |A - A^dag| = {dev:.3e}")
    return a


def partial_trace_bath(rho: np.ndarray) -> np.ndarray:
    """Trace out the second tensor factor of a 4x4 operator."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"partial trace expects a 4x4 operator, got {rho.shape}")
    return np.einsum("ikjk->ij", rho.reshape(2, 2, 2, 2))


def partial_trace_system(rho: np.ndarray) -> np.ndarray:
    """Trace out the first tensor factor of a 4x4 operator."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"partial trace expects a 4x4 operator, got {rho.shape}")
    return np.einsum("kikj->ij", rho.reshape(2, 2, 2, 2))


def hermitian_eig(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending, real) and unitary eigenvector matrix of a Hermitian operator."""
    a = require_hermitian(a)
    evals, evecs = np.linalg.eigh(a)
    return evals, evecs


def matrix_exp_skewhermitian(h: np.ndarray, s: float) -> np.ndarray:
    """exp(-i * s * h) for Hermitian h, via eigendecomposition."""
    evals, evecs = hermitian_eig(h)
    return (evecs * np.exp(-1j * s * evals)) @ evecs.conj().T
