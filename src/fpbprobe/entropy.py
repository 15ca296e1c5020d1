"""Shannon and Renyi information measures over small discrete tables.

All entropies are in bits.  Conditional Renyi entropies come in three
variants (1, 2, 4); each induces an alpha-mutual-information measure
R_alpha(X) - R_alpha(X|Y).  The joint table of interest is the 2x3
distribution over (Bob's error-free sifted bit b', Eve's outcome e') built
from the discrimination triple (Q_S, Q_E, Q_?).

Every measure reduces over the last axes: a stack of tables or vectors along
leading axes gives an array, a single one a Python float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .discrimination import OutcomeProbs

SHANNON_WINDOW = 1e-9
DIST_TOL = 1e-10
_TINY = np.finfo(float).smallest_subnormal

B_GIVEN_E = "b_given_e"
E_GIVEN_B = "e_given_b"
_DIRECTIONS = (B_GIVEN_E, E_GIVEN_B)
_VARIANTS = (1, 2, 4)


@dataclass(frozen=True)
class Order:
    """Entropic order: finite alpha > 0, with alpha ~ 1 meaning Shannon.

    Values within 1e-9 of 1 take the Shannon branch, which avoids the
    catastrophic cancellation of the generic formula near alpha = 1.
    math.inf selects the min-entropy.
    """

    value: float

    def __post_init__(self):
        v = float(self.value)
        if math.isnan(v) or v <= 0.0:
            raise ValueError(f"order must be positive or inf, got {self.value!r}")
        object.__setattr__(self, "value", v)

    @property
    def is_shannon(self) -> bool:
        return abs(self.value - 1.0) <= SHANNON_WINDOW

    @property
    def is_infinite(self) -> bool:
        return math.isinf(self.value)

    @classmethod
    def shannon(cls) -> "Order":
        return cls(1.0)

    @classmethod
    def min_entropy(cls) -> "Order":
        return cls(math.inf)

    @classmethod
    def coerce(cls, a) -> "Order":
        return a if isinstance(a, cls) else cls(float(a))

    @classmethod
    def parse(cls, token: str) -> "Order":
        t = token.strip().lower()
        if t in ("inf", "infinity"):
            return cls.min_entropy()
        return cls(float(t))

    def __str__(self) -> str:
        if self.is_infinite:
            return "inf"
        return f"{self.value:g}"


def _checked(x, ndim: int, what: str) -> np.ndarray:
    """x as floats: probability vectors (ndim 1) or tables (ndim 2) on its last axes.

    Leading axes index a stack; every member must be finite, nonnegative
    within 1e-12 and sum to 1 within DIST_TOL.
    """
    p = np.asarray(x, dtype=float)
    if p.ndim < ndim or p.size == 0:
        raise ValueError(f"{what} must be a nonempty array with at least {ndim} dimension(s)")
    if not np.isfinite(p).all():
        raise ValueError(f"{what} must be finite")
    if p.min() < -1e-12:
        raise ValueError(f"negative entry {p.min()} in {what}")
    sums = p.sum(axis=-1) if ndim == 1 else p.sum(axis=(-2, -1))
    off = abs(sums - 1.0) > DIST_TOL
    if off.any():
        raise ValueError(f"{what} sum to {np.ravel(sums)[np.ravel(off)][0]}, not 1")
    return np.maximum(p, 0.0)


@dataclass(frozen=True)
class Distribution:
    """Probability vector along the last axis; leading axes form a stack."""

    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "probs", _checked(self.probs, 1, "probabilities"))


@dataclass(frozen=True)
class JointDistribution:
    """Joint table over (b', e'): rows index b', columns index e'.

    The canonical table is 2x3 with e' in (0, 1, ?), but any 2-D shape is
    accepted so transposes and generic tables work in the same machinery.
    Leading axes, if any, form a stack of tables that is checked once.
    """

    table: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "table", _checked(self.table, 2, "joint probabilities"))

    def marginal_b(self) -> np.ndarray:
        return self.table.sum(axis=-1)

    def marginal_e(self) -> np.ndarray:
        return self.table.sum(axis=-2)

    def transposed(self) -> "JointDistribution":
        return JointDistribution(np.swapaxes(self.table, -1, -2))


def _float_or_array(x):
    """A Python float for a 0-d result, the array otherwise."""
    return float(x) if getattr(x, "ndim", 0) == 0 else x


def _probs(d) -> np.ndarray:
    return d.probs if isinstance(d, Distribution) else Distribution(d).probs


def _table(j) -> np.ndarray:
    return j.table if isinstance(j, JointDistribution) else JointDistribution(j).table


def _oriented(j, direction: str) -> np.ndarray:
    """Table with the conditioned variable along axis -2."""
    if direction not in _DIRECTIONS:
        raise ValueError(f"direction must be one of {_DIRECTIONS}, got {direction!r}")
    t = _table(j)
    return t if direction == B_GIVEN_E else np.swapaxes(t, -1, -2)


def _xlog2x(p: np.ndarray) -> np.ndarray:
    """p log2 p elementwise for p >= 0, with 0 log 0 = 0.

    log2 of the smallest subnormal is finite (-1074), so p = 0 gives 0.
    """
    return p * np.log2(np.maximum(p, _TINY))


def _shannon(p: np.ndarray) -> np.ndarray:
    return -_xlog2x(p).sum(axis=-1) + 0.0  # +0.0 avoids -0.0


def _renyi(p: np.ndarray, order: Order) -> np.ndarray:
    """Renyi entropy over the last axis of nonzero probability vectors."""
    if order.is_shannon:
        return _shannon(p)
    m = p.max(axis=-1)
    if order.is_infinite:
        return -np.log2(m) + 0.0
    a = order.value
    # Factor out the peak so p**a never underflows the whole sum.
    s = ((p / m[..., None]) ** a).sum(axis=-1)
    return (a * np.log2(m) + np.log2(s)) / (1.0 - a) + 0.0


def _columns(t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Column weights, per-column conditionals along the last axis, empty-column mask.

    An empty column gets a point mass as its conditional: every entropy of
    it is 0, and its weight is 0 anyway.
    """
    py = t.sum(axis=-2)
    empty = py <= 0.0
    cond = np.swapaxes(t / np.where(empty, 1.0, py)[..., None, :], -1, -2)
    cond[..., 0] += empty
    return py, cond, empty


def _check_variant(variant: int) -> None:
    if variant not in _VARIANTS:
        raise ValueError(f"variant must be one of {_VARIANTS}, got {variant!r}")


def _conditional(t: np.ndarray, o: Order, variant: int) -> np.ndarray:
    """Conditional entropy of axis -2 given axis -1, stacked over leading axes."""
    _check_variant(variant)
    if variant == 1 or o.is_shannon:
        py, cond, _ = _columns(t)
        return (py * _renyi(cond, o)).sum(axis=-1)
    if o.is_infinite:
        raise ValueError(f"variant {variant} is undefined at infinite order")
    if variant == 2:
        return _renyi(t.reshape(t.shape[:-2] + (-1,)), o) - _renyi(t.sum(axis=-2), o)
    # Variant 4: factor out the largest conditional so the inner powers
    # cannot underflow collectively.
    alpha = o.value
    py, cond, empty = _columns(t)
    peak = np.where(empty[..., None], 0.0, cond).max(axis=(-2, -1))
    inner = (py * ((cond / peak[..., None, None]) ** alpha).sum(axis=-1)).sum(axis=-1)
    return (alpha * np.log2(peak) + np.log2(inner)) / (1.0 - alpha)


def shannon_entropy(d) -> float | np.ndarray:
    """-sum p log2 p with 0 log 0 = 0, over the last axis."""
    return _float_or_array(_shannon(_probs(d)))


def renyi_entropy(d, a) -> float | np.ndarray:
    """Renyi entropy of the given order; Shannon at 1, min-entropy at inf."""
    return _float_or_array(_renyi(_probs(d), Order.coerce(a)))


def binary_entropy(p) -> float | np.ndarray:
    """h(p) in bits, zero at both endpoints; p may be an array."""
    x = np.asarray(p, dtype=float)
    if not np.all(np.isfinite(x) & (x >= 0.0) & (x <= 1.0)):
        raise ValueError(f"p {p} outside [0, 1]")
    return _float_or_array(_shannon(np.stack([x, 1.0 - x], axis=-1)))


def conditional_std(j, direction: str = B_GIVEN_E) -> float | np.ndarray:
    """Standard conditional entropy H(X|Y), conditioning on columns."""
    return _float_or_array(_conditional(_oriented(j, direction), Order.shannon(), 1))


def conditional_renyi(j, a, variant: int, direction: str = B_GIVEN_E) -> float | np.ndarray:
    """Conditional Renyi entropy, one of the three variants.

    Variant 1 averages per-column Renyi entropies and also supports the
    infinite order.  Variant 2 is R_a(X,Y) - R_a(Y), which satisfies the
    chain rule by construction.  Variant 4 moves the column average
    inside the logarithm.  Variants 2 and 4 are undefined at infinite
    order; every variant reduces to the standard conditional entropy at
    order one.  A stack of tables gives an array of values.
    """
    return _float_or_array(_conditional(_oriented(j, direction), Order.coerce(a), variant))


def _mutual_information(t: np.ndarray) -> np.ndarray:
    """H(X) + H(Y) - H(X,Y) over the last two axes, with one log2 pass."""
    m, n = t.shape[-2:]
    parts = np.concatenate([t.sum(axis=-1), t.sum(axis=-2), t.reshape(t.shape[:-2] + (m * n,))], axis=-1)
    h = -np.add.reduceat(_xlog2x(parts), [0, m, m + n], axis=-1) + 0.0
    return h[..., 0] + h[..., 1] - h[..., 2]


def mutual_information(j) -> float | np.ndarray:
    """H(X) + H(Y) - H(X,Y)."""
    return _float_or_array(_mutual_information(_table(j)))


def alpha_mutual_information(j, a, variant: int, direction: str = B_GIVEN_E) -> float | np.ndarray:
    """R_a(X) - R_a^(variant)(X|Y) with X the conditioned variable."""
    o = Order.coerce(a)
    _check_variant(variant)
    t = _oriented(j, direction)
    if o.is_shannon:
        return _float_or_array(_mutual_information(t))
    return _float_or_array(_renyi(t.sum(axis=-1), o) - _conditional(t, o, variant))


def joint_from_outcome_probs(q: OutcomeProbs) -> JointDistribution:
    """2x3 joint over (b', e') for a uniform bit and outcome triple q.

    Array fields in q give a stack of tables, one per grid point.
    """
    qs, qe, qq = np.broadcast_arrays(q.q_success, q.q_error, q.q_inconclusive)
    rows = (np.stack([qs, qe, qq], axis=-1), np.stack([qe, qs, qq], axis=-1))
    return JointDistribution(0.5 * np.stack(rows, axis=-2))


def closed_form_i1(a, q: OutcomeProbs) -> float | np.ndarray:
    """Variant-1 alpha-mutual information of the (b', e') table, closed form.

    Accepts finite orders other than 1 and the infinite order (which uses
    the analytic large-alpha limit).  The Shannon order is rejected; use
    closed_form_i_std.  A fully inconclusive measurement gives 0.
    """
    o = Order.coerce(a)
    if o.is_shannon:
        raise ValueError("order 1 has no variant-specific closed form; use closed_form_i_std")
    qs, qe, qq = (np.asarray(v, dtype=float) for v in (q.q_success, q.q_error, q.q_inconclusive))
    rem = 1.0 - qq
    hi, lo = np.maximum(qs, qe), np.minimum(qs, qe)
    with np.errstate(divide="ignore", invalid="ignore"):
        if o.is_infinite:
            value = rem - rem * np.log2(rem) + rem * np.log2(hi)
        else:
            alpha = o.value
            # log2(qs**a + qe**a) without underflow.
            tail = np.where(lo > 0.0, (lo / hi) ** alpha, 0.0)
            log_pow = alpha * np.log2(hi) + np.log2(1.0 + tail)
            value = rem * (1.0 - log_pow / (1.0 - alpha) + alpha * np.log2(rem) / (1.0 - alpha))
    return _float_or_array(np.where(rem > 0.0, value, 0.0))


def closed_form_i_std(q: OutcomeProbs) -> float | np.ndarray:
    """Standard mutual information of the (b', e') table, closed form."""
    qs, qe, qq = (np.asarray(v, dtype=float) for v in (q.q_success, q.q_error, q.q_inconclusive))
    rem = 1.0 - qq
    x_rem, x_s, x_e = (_xlog2x(np.maximum(v, 0.0)) for v in (rem, qs, qe))
    return _float_or_array(rem - x_rem + x_s + x_e)


def shor_preskill_rate(delta: float) -> float:
    """Asymptotic one-way secure-key rate max(1 - 2 h(delta), 0)."""
    if not (math.isfinite(delta) and 0.0 <= delta <= 0.5):
        raise ValueError(f"delta {delta} outside [0, 1/2]")
    return max(1.0 - 2.0 * binary_entropy(delta), 0.0)
