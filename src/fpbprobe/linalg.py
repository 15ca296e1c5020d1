"""Boundary checks for matrices passed in from outside the package.

Operators are plain 2-D complex numpy arrays with both dimensions capped
at four (two qubits).  Eigenvalues and singular values come straight
from numpy at their call sites.
"""

from __future__ import annotations

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


def is_unitary(m, tol: float = DEFAULT_TOL) -> bool:
    """True iff conj-transpose(m) @ m deviates from identity by <= tol."""
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise ValueError("unitarity requires a square matrix")
    resid = a.conj().T @ a - np.eye(a.shape[0])
    return bool(np.abs(resid).max() <= tol)
