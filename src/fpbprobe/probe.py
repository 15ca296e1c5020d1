"""The entangling probe, through the one angle every result reads from it.

The probe qubit meets each carrier in a controlled flip.  Tuned to an
induced bit error rate P_E in [0, 1/3], it leaves the probe in one of two
states tagged to the carrier bit, (cos theta, +/- sin theta) once
normalized in the {|+>, |->} basis, with
cos(2 theta) = (1 - 3 P_E) / (1 - P_E).  The measurement family, the
information measures and the bounds see the probe only through theta;
the session's eight post-measurement probe states are written in closed
form in simulator._cell_probabilities.
"""

from __future__ import annotations

import numpy as np

from ._checks import real

MAX_ERROR_RATE = 1.0 / 3.0


def theta_grid(error_rate):
    """Half-angle theta in [0, pi/4] between the normalized probe outputs.

    Takes one error rate or an array of them, each checked to lie in
    [0, 1/3], and returns theta of the same shape: a Python float for
    one error rate.
    """
    p = real("error_rate", error_rate, 0.0, MAX_ERROR_RATE)
    return float(_theta(p)) if type(p) is float else _theta(p)


def _theta(p):
    """theta_grid for a checked P_E or array of them.

    cos(2 theta) = (1 - 3 p) / (1 - p) and
    sin(2 theta) = sqrt(4 p (1 - 2 p)) / (1 - p); atan2 of the two
    numerators avoids branch trouble at both endpoints.
    """
    return 0.5 * np.arctan2(np.sqrt(4.0 * p * (1.0 - 2.0 * p)), 1.0 - 3.0 * p)
