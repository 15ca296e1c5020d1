"""Geometry of the CNOT entangling probe attached to a BB84 carrier.

The target (probe) qubit is expressed in the {|+>, |->} basis throughout;
carrier kets are written in whichever polarization basis Alice used for
the round, with component 0 holding the bit-0 ket of that basis.  A
two-qubit output ket is stored as a length-4 vector indexed by
2*carrier + probe_component.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._checks import integer, real

RECTILINEAR = "rectilinear"
DIAGONAL = "diagonal"
BASES = (RECTILINEAR, DIAGONAL)

MAX_ERROR_RATE = 1.0 / 3.0


@dataclass(frozen=True)
class ProbeConfig:
    """Attack strength, parametrized by the induced bit error rate."""

    error_rate: float

    def __post_init__(self):
        object.__setattr__(self, "error_rate", float(real("error_rate", self.error_rate, 0.0, MAX_ERROR_RATE)))

    @property
    def amplitudes(self) -> tuple[float, float]:
        """(c, s) amplitudes of the probe input ket in the {|+>,|->} basis."""
        p = self.error_rate
        return math.sqrt(1.0 - 2.0 * p), math.sqrt(2.0 * p)


@dataclass(frozen=True)
class ProbeGeometry:
    """Probe output geometry for a given error rate.

    t_plus/t_minus are the subnormalized probe states tagged to the two
    carrier bit values; t_err is the subnormalized state tagged to a
    flipped carrier.  All are in the {|+>,|->} basis.  theta is half the
    angle between the normalized outputs, overlap = cos(2*theta).
    """

    theta: float
    overlap: float
    t_plus: np.ndarray
    t_minus: np.ndarray
    t_err: np.ndarray


def probe_input(cfg: ProbeConfig) -> np.ndarray:
    """Unit ket c|+> + s|-> that Eve feeds into the gate's target port."""
    c, s = cfg.amplitudes
    return np.array([c, s], dtype=complex)


def theta_from_error_rate(cfg: ProbeConfig) -> float:
    """Half-angle between the normalized probe outputs, in [0, pi/4]."""
    return float(theta_grid(cfg.error_rate))


def theta_grid(p):
    """theta_from_error_rate for a float or an ndarray of error rates.

    cos(2 theta) = (1 - 3 p) / (1 - p) and
    sin(2 theta) = sqrt(4 p (1 - 2 p)) / (1 - p); atan2 of the two
    numerators avoids branch trouble at both endpoints.  The range
    [0, 1/3] is not checked here; callers validate it once for the whole
    array.
    """
    return 0.5 * np.arctan2(np.sqrt(4.0 * p * (1.0 - 2.0 * p)), 1.0 - 3.0 * p)


def probe_geometry(cfg: ProbeConfig) -> ProbeGeometry:
    """Subnormalized probe outputs and their separation angle."""
    p = cfg.error_rate
    c, s = cfg.amplitudes
    se = s / math.sqrt(2.0)
    return ProbeGeometry(
        theta=theta_from_error_rate(cfg),
        overlap=(1.0 - 3.0 * p) / (1.0 - p),
        t_plus=np.array([c, se], dtype=complex),
        t_minus=np.array([c, -se], dtype=complex),
        t_err=np.array([0.0, se], dtype=complex),
    )


def cnot_action(basis: str, bit: int, cfg: ProbeConfig) -> np.ndarray:
    """Two-qubit output ket of the probe gate for one carrier input.

    Returns a unit-norm length-4 vector: the carrier stays in its sending
    basis, the probe in {|+>,|->}.  The flipped-carrier branch carries the
    error state t_err, with a minus sign in the diagonal basis.
    """
    if basis not in BASES:
        raise ValueError(f"unknown basis {basis!r}")
    bit = integer("bit", bit, 0, 1)
    c, s = cfg.amplitudes
    se = s / math.sqrt(2.0)
    keep = np.array([c, se if bit == 0 else -se], dtype=complex)
    flip = np.array([0.0, se], dtype=complex)
    if basis == DIAGONAL:
        flip = -flip
    out = np.zeros(4, dtype=complex)
    if bit == 0:
        out[0:2] = keep
        out[2:4] = flip
    else:
        out[0:2] = flip
        out[2:4] = keep
    return out
