"""Matrix validation and small Hermitian / singular-value helpers.

Everything operates on plain numpy arrays: operators are 2-D complex
matrices with both dimensions capped at four (two qubits).  The 2x2
eigenvalue problem, which every qubit state and POVM element check hits,
keeps its closed form because it beats a LAPACK call at this size; every
other size goes to numpy's ``eigvalsh`` and ``svd``.
"""

from __future__ import annotations

import math

import numpy as np

MAX_DIM = 4
DEFAULT_TOL = 1e-10


def as_matrix(m) -> np.ndarray:
    """Validate and return a 2-D complex matrix with both dims 1..4."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {a.shape}")
    if not (1 <= a.shape[0] <= MAX_DIM and 1 <= a.shape[1] <= MAX_DIM):
        raise ValueError(f"matrix shape {a.shape} outside 1..{MAX_DIM}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def _eig2(h: np.ndarray) -> np.ndarray:
    a, d = h[0, 0].real, h[1, 1].real
    mid = 0.5 * (a + d)
    rad = math.hypot(0.5 * (a - d), abs(h[0, 1]))
    return np.array([mid + rad, mid - rad])


def hermitian_eigenvalues(m, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, sorted descending.

    Closed form for 2x2; other sizes are delegated to LAPACK.
    """
    a = as_matrix(m)
    n, nc = a.shape
    if n != nc:
        raise ValueError("eigenvalues require a square matrix")
    if np.abs(a - a.conj().T).max() > tol:
        raise ValueError("matrix is not Hermitian within tolerance")
    h = 0.5 * (a + a.conj().T)
    if n == 2:
        return _eig2(h)
    return np.linalg.eigvalsh(h)[::-1]


def spectral_norm(m) -> float:
    """Largest singular value."""
    return float(np.linalg.svd(as_matrix(m), compute_uv=False)[0])


def is_unitary(m, tol: float = DEFAULT_TOL) -> bool:
    """True iff conj-transpose(m) @ m deviates from identity by <= tol."""
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise ValueError("unitarity requires a square matrix")
    resid = a.conj().T @ a - np.eye(a.shape[0])
    return bool(np.abs(resid).max() <= tol)
