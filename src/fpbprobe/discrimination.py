"""Three-outcome discrimination of the two probe output states.

The measurement interpolates between minimum-error (Helstrom) and
unambiguous (IDP) discrimination of the symmetric pair
|theta_+/-> = (cos theta, +/- sin theta).  It is parametrized by an
auxiliary angle phi in [0, pi/4 - theta]; gamma = theta + phi and
eta = cos(2 gamma) control the inconclusive-outcome weight.  Priors are
fixed at 1/2 each; the measurement is optimal only for that symmetric
case and the API does not accept priors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
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
        return _from_error_rate(float(real("error_rate", error_rate, 0.0, MAX_ERROR_RATE)), scalar("xi", xi, 0.0, 1.0))

    @property
    def gamma(self) -> float:
        return self.theta + self.phi

    @property
    def eta(self) -> float:
        return float(_eta(self.gamma))


@dataclass(frozen=True)
class Povm:
    """The three measurement operators {M_+, M_-, M_?} on a qubit."""

    m_plus: np.ndarray
    m_minus: np.ndarray
    m_inconclusive: np.ndarray

    @property
    def elements(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (self.m_plus, self.m_minus, self.m_inconclusive)

    def completeness_residual(self) -> float:
        """Max-entry deviation of the element sum from the identity."""
        total = self.m_plus + self.m_minus + self.m_inconclusive
        return float(np.abs(total - np.eye(2)).max())

    def psd_floor(self) -> float:
        """Smallest eigenvalue over all three elements."""
        m = np.array([linalg.as_matrix(e) for e in self.elements])
        if np.abs(m - m.conj().swapaxes(1, 2)).max() > 1e-10:
            raise ValueError("POVM element is not Hermitian within tolerance")
        return float(np.linalg.eigvalsh(m).min())


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


def _from_error_rate(error_rate: float, xi: float) -> DiscriminationConfig:
    """DiscriminationConfig.from_error_rate for a checked P_E and xi."""
    theta = float(_theta(error_rate))
    return trusted(DiscriminationConfig, theta, xi * (QUARTER_PI - theta))


def _eta(gamma):
    # The phi slack can push gamma epsilon past pi/4; clamp cos(2 gamma).
    return np.maximum(np.cos(2.0 * gamma), 0.0)


def _measurement_vectors(gamma: float) -> tuple[np.ndarray, float]:
    """Real vectors v_k and eta of the measurement at angle gamma.

    Rows are (plus, minus, inconclusive) = (sin gamma, +/- cos gamma) and
    (sqrt(2 eta), 0); each element is M_k = v_k v_k^T / (1 + eta).
    """
    eta = float(_eta(gamma))
    s, c = math.sin(gamma), math.cos(gamma)
    return np.array([[s, c], [s, -c], [math.sqrt(2.0 * eta), 0.0]]), eta


def _outcome_triple(theta, phi, eta) -> tuple:
    denom = 1.0 + eta
    return (
        np.sin(2.0 * theta + phi) ** 2 / denom,
        np.sin(phi) ** 2 / denom,
        2.0 * eta * np.cos(theta) ** 2 / denom,
    )


def xi_to_phi(xi: float, theta: float) -> float:
    """Map the characteristic ratio xi in [0, 1] to the angle phi.

    xi = 0 is the unambiguous (IDP) scheme, xi = 1 the Helstrom scheme.
    A theta in the slack past pi/4 gives phi = 0.
    """
    return scalar("xi", xi, 0.0, 1.0) * max(QUARTER_PI - scalar("theta", theta, 0.0, QUARTER_PI + PHI_SLACK), 0.0)


def build_povm(cfg: DiscriminationConfig) -> Povm:
    """Measurement operators for one (theta, phi) configuration."""
    v, eta = _measurement_vectors(cfg.gamma)
    return Povm(*(np.outer(k, k) / (1.0 + eta) for k in v))


def outcome_probs(cfg: DiscriminationConfig) -> OutcomeProbs:
    """Equal-prior averages (Q_S, Q_E, Q_?) for one configuration."""
    return trusted(OutcomeProbs, *(float(v) for v in _outcome_triple(cfg.theta, cfg.phi, cfg.eta)))


def outcome_probs_grid(error_rate, xi) -> tuple[OutcomeProbs, np.ndarray]:
    """Outcome triples and eta over broadcastable P_E and xi arrays.

    Point for point the same as outcome_probs and .eta of
    DiscriminationConfig.from_error_rate(error_rate, xi).  Both arrays are
    checked once, before anything is computed: P_E in [0, 1/3], xi in
    [0, 1], all finite.
    """
    p, x = np.broadcast_arrays(real("error_rate", error_rate, 0.0, MAX_ERROR_RATE), real("xi", xi, 0.0, 1.0))
    theta = _theta(p)
    phi = x * (QUARTER_PI - theta)
    eta = _eta(theta + phi)
    return trusted(OutcomeProbs, *_outcome_triple(theta, phi, eta)), eta


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

