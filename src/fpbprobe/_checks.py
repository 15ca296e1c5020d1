"""The package's one policy for numeric parameters.

A real parameter is an int, a float, a numpy integer or floating scalar,
or an array of int or float dtype; an integer parameter is an int or a
numpy integer.  Bools (Python counts them as ints), strings and every
other type are rejected, and so is any value outside the closed bounds
the caller passes, nan included, since it fails every comparison.  Each
rejection is one ValueError that names the parameter and its bounds.
Functions that take one number check it with scalar, which also rejects
arrays; classes that hold one number wrap the result of real in float(),
which raises TypeError for an array.  Every array a caller gives (grids,
probability vectors, zeta sequences) goes through real, so
complex, bool and object arrays fail the same way everywhere.
"""

from __future__ import annotations

import math
import sys

import numpy as np

TINY = math.ulp(0.0)  # as a lower bound: x > 0
HUGE = sys.float_info.max  # as an upper bound: x < inf


def real(name: str, x, lo: float, hi: float):
    """x as a Python float, or a float array for array input, if lo <= x <= hi.

    The bounds are checked on the converted value, the one returned.
    """
    t = type(x)
    if t is float or t is int or (t is not bool and isinstance(x, (int, float, np.integer, np.floating))):
        v = float(x)
        if lo <= v <= hi:
            return v
    else:
        try:
            a = np.asarray(x)
        except ValueError:  # a ragged nested sequence
            raise ValueError(f"{name} must be a real number or a rectangular array of them, got {x!r}") from None
        if a.dtype.kind in "iuf":
            a = np.asarray(a, dtype=float)
            bad = ~((a >= lo) & (a <= hi))
            if not bad.any():
                return float(a) if a.ndim == 0 else a
            x = a[bad][0].item()
    raise ValueError(f"{name} must be a real number in [{lo}, {hi}], got {x!r}")


def scalar(name: str, x, lo: float, hi: float) -> float:
    """real(name, x, lo, hi) for a parameter that takes one number: arrays fail."""
    v = real(name, x, lo, hi)
    if type(v) is float:
        return v
    raise ValueError(f"{name} must be one real number in [{lo}, {hi}], got an array of shape {v.shape}")


def integer(name: str, x, lo, hi) -> int:
    """x as a Python int if it is an int or a numpy integer with lo <= x <= hi."""
    t = type(x)
    if t is int or (t is not bool and isinstance(x, (int, np.integer))):
        v = int(x)
        if lo <= v <= hi:
            return v
    raise ValueError(f"{name} must be an integer in [{lo}, {hi}], got {x!r}")


def trusted(cls, *values):
    """cls(*values) for a dataclass, without __post_init__: for values computed from checked inputs."""
    obj = object.__new__(cls)
    for name, v in zip(cls.__match_args__, values, strict=True):
        object.__setattr__(obj, name, v)
    return obj
