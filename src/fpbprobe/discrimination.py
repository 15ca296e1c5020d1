"""Three-outcome discrimination of the two probe output states.

The measurement interpolates between minimum-error (Helstrom) and
unambiguous (IDP) discrimination of the symmetric pair
|theta_+/-> = (cos theta, +/- sin theta).  It is parametrized by an
auxiliary angle phi in [0, pi/4 - theta]; gamma = theta + phi and
eta = cos(2 gamma) control the inconclusive-outcome weight.  Priors are
fixed at 1/2 each; the measurement is optimal only for that symmetric
case and the API does not accept priors.

build_povm returns the three operators as one (3, 2, 2) array, rows
(M_+, M_-, M_?) in the order of the OutcomeProbs fields.  The outcome
triple has one kernel, _outcome_triple: outcome_probs runs it on one
configuration and outcome_probs_grid on broadcast arrays, with the same
bits point for point.

The geometry has one definition per quantity: _phi(theta, xi) writes
phi = xi (pi/4 - theta), and _eta(theta, phi) and
_measurement_vectors(theta, phi) take the two angles, never a gamma that
a caller has summed.  DiscriminationConfig, xi_to_phi, build_povm,
outcome_probs_grid, uncertainty.naimark_basis (at (gamma, 0)) and the
simulator's cell probabilities all read them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._checks import real, scalar, trusted
from .probe import MAX_ERROR_RATE, _theta

QUARTER_PI = 0.25 * math.pi
PHI_SLACK = 1e-12


@dataclass(frozen=True)
class DiscriminationConfig:
    """Angles (theta, phi) selecting one measurement of the family.

    theta = 0 (identical inputs) is allowed: the formulas stay well
    defined (success equals error at the Helstrom end, the inconclusive
    weight reaches 1 at the unambiguous end).
    """

    theta: float
    phi: float

    def __post_init__(self):
        th = float(real("theta", self.theta, 0.0, QUARTER_PI + PHI_SLACK))
        object.__setattr__(self, "theta", th)
        object.__setattr__(self, "phi", float(real("phi", self.phi, 0.0, QUARTER_PI - th + PHI_SLACK)))

    @classmethod
    def from_error_rate(cls, error_rate: float, xi: float) -> "DiscriminationConfig":
        """Measurement for a probe of given error rate at ratio xi."""
        theta = float(_theta(real("error_rate", error_rate, 0.0, MAX_ERROR_RATE)))
        return trusted(cls, theta, _phi(theta, scalar("xi", xi, 0.0, 1.0)))

    @property
    def gamma(self) -> float:
        return self.theta + self.phi

    @property
    def eta(self) -> float:
        return float(_eta(self.theta, self.phi))


@dataclass(frozen=True)
class OutcomeProbs:
    """Average success / error / inconclusive probabilities.

    The fields are floats for one measurement, or arrays of one shape
    holding one triple per grid point.  A triple built by hand may have
    entries down to -1e-12 and up to 1 + 1e-12, and a sum within 1e-12
    of 1; each field is stored clipped to [0, 1], broadcast against the
    others, so no measure ever sees the slack.  The triples the package
    computes are squares over 1 + eta and lie in [0, 1] already.
    """

    q_success: float | np.ndarray
    q_error: float | np.ndarray
    q_inconclusive: float | np.ndarray

    def __post_init__(self):
        fields = np.broadcast_arrays(self.q_success, self.q_error, self.q_inconclusive)
        q = real("outcome probability", fields, -1e-12, 1.0 + 1e-12)
        total = q.sum(axis=0)
        off = np.abs(total - 1.0) > 1e-12
        if off.any():
            raise ValueError(f"outcome probabilities sum to {total[off][0]}, not 1")
        # Stored clipped to [0, 1]; np.maximum, unlike np.clip, turns -0.0 into 0.0.
        for name, v in zip(self.__match_args__, np.minimum(np.maximum(q, 0.0), 1.0)):
            object.__setattr__(self, name, float(v) if v.ndim == 0 else v)


def _phi(theta, xi):
    """The angle phi = xi (pi/4 - theta) of ratio xi at probe angle theta."""
    return xi * (QUARTER_PI - theta)


def _eta(theta, phi):
    # The phi slack can push gamma = theta + phi epsilon past pi/4; clamp cos(2 gamma).
    return np.maximum(np.cos(2.0 * (theta + phi)), 0.0)


def _measurement_vectors(theta: float, phi: float) -> tuple[np.ndarray, float]:
    """Real vectors v_k and eta of the measurement at angles (theta, phi).

    Rows are (plus, minus, inconclusive) = (sin gamma, +/- cos gamma) and
    (sqrt(2 eta), 0), gamma = theta + phi; each element is
    M_k = v_k v_k^T / (1 + eta).
    """
    eta = float(_eta(theta, phi))
    s, c = math.sin(theta + phi), math.cos(theta + phi)
    return np.array([[s, c], [s, -c], [math.sqrt(2.0 * eta), 0.0]]), eta


def _outcome_triple(theta, phi, eta) -> tuple:
    # Squares as products: a numpy scalar's ** 2 calls libm pow, whose last
    # bit can differ from the exact square an array's ** 2 takes.
    s, e, c = np.sin(2.0 * theta + phi), np.sin(phi), np.cos(theta)
    denom = 1.0 + eta
    return s * s / denom, e * e / denom, 2.0 * eta * (c * c) / denom


def xi_to_phi(xi: float, theta: float) -> float:
    """Map the characteristic ratio xi in [0, 1] to the angle phi.

    xi = 0 is the unambiguous (IDP) scheme, xi = 1 the Helstrom scheme.
    A theta in the slack past pi/4 gives phi = 0.
    """
    return _phi(min(scalar("theta", theta, 0.0, QUARTER_PI + PHI_SLACK), QUARTER_PI), scalar("xi", xi, 0.0, 1.0))


def build_povm(cfg: DiscriminationConfig) -> np.ndarray:
    """Measurement operators for one (theta, phi) configuration.

    A (3, 2, 2) real array whose rows are (M_+, M_-, M_?), the order of
    the OutcomeProbs fields: M_k = v_k v_k^T / (1 + eta).
    """
    v, eta = _measurement_vectors(cfg.theta, cfg.phi)
    return v[:, :, None] * v[:, None, :] / (1.0 + eta)


def outcome_probs(cfg: DiscriminationConfig) -> OutcomeProbs:
    """Equal-prior averages (Q_S, Q_E, Q_?) for one configuration."""
    return trusted(OutcomeProbs, *(float(v) for v in _outcome_triple(cfg.theta, cfg.phi, cfg.eta)))


def outcome_probs_grid(error_rate, xi) -> tuple[OutcomeProbs, np.ndarray]:
    """Outcome triples and eta over broadcastable P_E and xi arrays.

    Point for point the bits of outcome_probs and .eta of
    DiscriminationConfig.from_error_rate(error_rate, xi); one P_E and one
    xi give Python floats, as those do.  Both arrays are checked once,
    before anything is computed: P_E in [0, 1/3], xi in [0, 1], all
    finite.
    """
    p, x = np.broadcast_arrays(real("error_rate", error_rate, 0.0, MAX_ERROR_RATE), real("xi", xi, 0.0, 1.0))
    theta = _theta(p)
    phi = _phi(theta, x)
    eta = _eta(theta, phi)
    q = _outcome_triple(theta, phi, eta)
    if p.ndim == 0:
        return trusted(OutcomeProbs, *map(float, q)), float(eta)
    return trusted(OutcomeProbs, *q), eta


def error_lower_bound(theta: float, q_inconclusive: float) -> float:
    """Least possible error probability at a given inconclusive rate.

    The family built by build_povm saturates this bound for every valid
    (theta, phi).
    """
    theta = scalar("theta", theta, 0.0, QUARTER_PI + PHI_SLACK)
    q_inconclusive = scalar("q_inconclusive", q_inconclusive, 0.0, 1.0)
    cos_sq = math.cos(theta) ** 2
    radicand = 1.0 - q_inconclusive / cos_sq
    if radicand < -1e-12:
        raise ValueError("inconclusive rate too large for this theta")
    radicand = max(radicand, 0.0)
    return 0.5 * (
        1.0 - q_inconclusive - math.sin(2.0 * theta) * math.sqrt(radicand)
    )

