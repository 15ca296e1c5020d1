"""Boundary checks for matrices passed in from outside the package.

Operators are plain 2-D complex numpy arrays with both dimensions capped
at MAX_DIM = 4 (two qubits); as_matrix checks one.  Other properties
(squareness, unitarity, hermiticity) are checked where they are needed,
and eigenvalues and singular values come straight from numpy at their
call sites.
"""

from __future__ import annotations

import numpy as np

MAX_DIM = 4


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
