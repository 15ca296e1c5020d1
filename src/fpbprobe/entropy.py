"""Shannon and Renyi information measures over small discrete tables.

All entropies are in bits.  Conditional Renyi entropies come in three
variants (1, 2, 4); each induces an alpha-mutual-information measure
R_alpha(X) - R_alpha(X|Y).  The joint table of interest is the 2x3
distribution over (Bob's error-free sifted bit b', Eve's outcome e') built
from the discrimination triple (Q_S, Q_E, Q_?).

Every measure reduces over the last axes: a stack of tables or vectors along
leading axes gives an array, a single one a Python float.

On that table every measure is also a closed form in (Q_S, Q_E, Q_?):
closed_form_i_std, closed_form_i1, closed_form_i2 and closed_form_i4,
whose docstrings give the formulas.  They take an OutcomeProbs of arrays
and an order that is a scalar or an array broadcasting against it, and
build no table.  They avoid two cancellations of the table path: the
difference of O(1) entropies that leaves a small variant-2 value as
noise, and the O(1) numerator over 1 - a near order 1.  At order 1 each
gives closed_form_i_std, the limit of every variant (Fehr and Berens,
IEEE TIT 60, 2014).  The generic table path stays for arbitrary tables
and the simulator's empirical one.

The table axes are short (2, 3 or 6), and numpy runs a reduction over such
an axis as one inner loop per stack member: on the (501, 3) vectors of
`bounds`, .sum(axis=-1) takes 13.2 us and .max(axis=-1) 30.9 us, against
6.6 us and 4.9 us for one ufunc call per slice (numpy 2.4.6, 2-core
Xeon, best of 7 timeit runs).  The measures therefore fold those axes
slice by slice (`_fold`), in the order numpy reduces them, so the bits
do not change.  `_checked` and `_mutual_information` keep numpy's
reductions: the simulator runs them on one table per session, where a
fold's extra ufunc calls cost more than the loop they save.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._checks import TINY, integer, real, scalar
from .discrimination import OutcomeProbs

SHANNON_WINDOW = 1e-9
DIST_TOL = 1e-10

_VARIANTS = (1, 2, 4)
_LN2 = math.log(2.0)


@dataclass(frozen=True)
class Order:
    """Entropic order: alpha > 0, with math.inf selecting the min-entropy.

    On the table path, orders within SHANNON_WINDOW of 1 take the Shannon
    branch, which avoids the catastrophic cancellation of the generic
    formula near alpha = 1.  The closed forms need no such window.
    """

    value: float

    def __post_init__(self):
        object.__setattr__(self, "value", float(real("order", self.value, TINY, math.inf)))

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
        return a if isinstance(a, cls) else cls(a)

    @classmethod
    def parse(cls, token: str) -> "Order":
        t = token.strip().lower()
        if t in ("inf", "infinity"):
            return cls.min_entropy()
        return cls(float(t))

    def __str__(self) -> str:
        """'%g' when it reads back as this order, else the shortest repr.

        '%g' keeps six digits, so it would print 2.0000001 as '2' and
        1.0000001 as '1', the Shannon order's label.
        """
        if self.is_infinite:
            return "inf"
        short = f"{self.value:g}"
        return short if float(short) == self.value else repr(self.value)


def _fold(ufunc, x: np.ndarray) -> np.ndarray:
    """ufunc.reduce over the last axis of x, one ufunc call per slice.

    Left to right, as numpy reduces axes shorter than its pairwise-sum
    block of 8; an add starts from +0.0 as numpy's does, so a sum of -0.0
    terms gives 0.0.  The same bits as .sum(axis=-1) or .max(axis=-1).
    """
    r = x[..., 0] + 0.0 if ufunc is np.add else x[..., 0].copy()
    for i in range(1, x.shape[-1]):
        r = ufunc(r, x[..., i])
    return r


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


def _xlog2x(p: np.ndarray) -> np.ndarray:
    """p log2 p elementwise for p >= 0, with 0 log 0 = 0.

    log2 of the smallest subnormal is finite (-1074), so p = 0 gives 0.
    """
    return p * np.log2(np.maximum(p, TINY))


def _shannon(p: np.ndarray) -> np.ndarray:
    return -_fold(np.add, _xlog2x(p)) + 0.0  # +0.0 avoids -0.0


def _renyi(p: np.ndarray, order: Order) -> np.ndarray:
    """Renyi entropy over the last axis of nonzero probability vectors."""
    if order.is_shannon:
        return _shannon(p)
    m = _fold(np.maximum, p)
    if order.is_infinite:
        return -np.log2(m) + 0.0
    a = order.value
    # Factor out the peak so p**a never underflows the whole sum.
    s = _fold(np.add, (p / m[..., None]) ** a)
    return (a * np.log2(m) + np.log2(s)) / (1.0 - a) + 0.0


def _columns(t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Column weights, per-column conditionals along the last axis, empty-column mask.

    An empty column gets a point mass as its conditional: every entropy of
    it is 0, and its weight is 0 anyway.
    """
    py = _fold(np.add, np.swapaxes(t, -1, -2))
    empty = py <= 0.0
    cond = np.swapaxes(t / np.where(empty, 1.0, py)[..., None, :], -1, -2)
    cond[..., 0] += empty
    return py, cond, empty


def _check_variant(variant: int) -> None:
    if integer("variant", variant, 1, 4) not in _VARIANTS:
        raise ValueError(f"variant must be one of {_VARIANTS}, got {variant!r}")


def _conditional(t: np.ndarray, o: Order, variant: int) -> np.ndarray:
    """Conditional entropy of axis -2 given axis -1, stacked over leading axes."""
    _check_variant(variant)
    if variant == 1 or o.is_shannon:
        py, cond, _ = _columns(t)
        return _fold(np.add, py * _renyi(cond, o))
    if o.is_infinite:
        raise ValueError(f"variant {variant} is undefined at infinite order")
    if variant == 2:
        return _renyi(t.reshape(t.shape[:-2] + (-1,)), o) - _renyi(_fold(np.add, np.swapaxes(t, -1, -2)), o)
    # Variant 4: factor out the largest conditional so the inner powers
    # cannot underflow collectively.  Empty columns are zeroed, so they add
    # nothing at any order (their point mass over the peak would overflow).
    alpha = o.value
    py, cond, empty = _columns(t)
    live = np.where(empty[..., None], 0.0, cond)
    peak = _fold(np.maximum, _fold(np.maximum, live))
    inner = _fold(np.add, py * _fold(np.add, (live / peak[..., None, None]) ** alpha))
    return (alpha * np.log2(peak) + np.log2(inner)) / (1.0 - alpha)


def shannon_entropy(d) -> float | np.ndarray:
    """-sum p log2 p with 0 log 0 = 0, over the last axis."""
    return _float_or_array(_shannon(_probs(d)))


def renyi_entropy(d, a) -> float | np.ndarray:
    """Renyi entropy of the given order; Shannon at 1, min-entropy at inf."""
    return _float_or_array(_renyi(_probs(d), Order.coerce(a)))


def binary_entropy(p) -> float | np.ndarray:
    """h(p) in bits, zero at both endpoints; p may be an array."""
    x = real("p", p, 0.0, 1.0)
    return _float_or_array(_shannon(np.stack([x, 1.0 - x], axis=-1)))


def conditional_std(j) -> float | np.ndarray:
    """Standard conditional entropy H(X|Y) of rows X given columns Y.

    For H(Y|X), pass the transposed table (`JointDistribution.transposed`).
    """
    return _float_or_array(_conditional(_table(j), Order.shannon(), 1))


def conditional_renyi(j, a, variant: int) -> float | np.ndarray:
    """Conditional Renyi entropy, one of the three variants.

    Variant 1 averages per-column Renyi entropies and also supports the
    infinite order.  Variant 2 is R_a(X,Y) - R_a(Y), which satisfies the
    chain rule by construction.  Variant 4 moves the column average
    inside the logarithm.  Variants 2 and 4 are undefined at infinite
    order; every variant reduces to the standard conditional entropy at
    order one.  A stack of tables gives an array of values.
    """
    return _float_or_array(_conditional(_table(j), Order.coerce(a), variant))


def _mutual_information(t: np.ndarray) -> np.ndarray:
    """H(X) + H(Y) - H(X,Y) over the last two axes, with one log2 pass."""
    m, n = t.shape[-2:]
    parts = np.concatenate([t.sum(axis=-1), t.sum(axis=-2), t.reshape(t.shape[:-2] + (m * n,))], axis=-1)
    h = -np.add.reduceat(_xlog2x(parts), [0, m, m + n], axis=-1) + 0.0
    return h[..., 0] + h[..., 1] - h[..., 2]


def mutual_information(j) -> float | np.ndarray:
    """H(X) + H(Y) - H(X,Y)."""
    return _float_or_array(_mutual_information(_table(j)))


def alpha_mutual_information(j, a, variant: int) -> float | np.ndarray:
    """R_a(X) - R_a^(variant)(X|Y) of rows X given columns Y."""
    o = Order.coerce(a)
    _check_variant(variant)
    t = _table(j)
    if o.is_shannon:
        return _float_or_array(_mutual_information(t))
    return _float_or_array(_renyi(_fold(np.add, t), o) - _conditional(t, o, variant))


def joint_from_outcome_probs(q: OutcomeProbs) -> JointDistribution:
    """2x3 joint over (b', e') for a uniform bit and outcome triple q.

    Array fields in q give a stack of tables, one per grid point.
    """
    qs, qe, qq = np.broadcast_arrays(q.q_success, q.q_error, q.q_inconclusive)
    rows = (np.stack([qs, qe, qq], axis=-1), np.stack([qe, qs, qq], axis=-1))
    return JointDistribution(0.5 * np.stack(rows, axis=-2))


def _operands(a, q: OutcomeProbs, variant: int) -> tuple[np.ndarray, tuple[np.ndarray, ...], tuple]:
    """The orders of a closed form, its triple (Q_S, Q_E, Q_?), and what `_result` needs.

    `a` is an Order, a scalar or an array; variants 2 and 4 reject the
    infinite order.  Order 1 becomes a placeholder 2, replaced in `_result`.
    The triple is clipped at 0 (OutcomeProbs allows -1e-12) and keeps its
    own shape; each closed form computes what depends on it alone in that
    shape.  The orders come back laid out in full in the result's shape.
    Both have at least one dimension, and `_result` reshapes: numpy runs
    its transcendental functions through other code, with other last
    bits, on 0-d operands.
    """
    alpha = np.asarray(real("order", a.value if isinstance(a, Order) else a, TINY, math.inf))
    if variant != 1 and (alpha == math.inf).any():
        raise ValueError(f"variant {variant} is undefined at infinite order")
    at_one = alpha == 1.0
    triple = np.maximum(np.broadcast_arrays(q.q_success, q.q_error, q.q_inconclusive), 0.0, dtype=float)
    shape = np.broadcast_shapes(alpha.shape, triple.shape[1:])
    alpha = _pow_base(np.where(at_one, 2.0, alpha), shape).reshape(shape or (1,))
    return alpha, tuple(triple.reshape((3,) + (triple.shape[1:] or (1,)))), (shape, at_one, q)


def _result(value: np.ndarray, ends: tuple) -> float | np.ndarray:
    """A closed form's values in the result's shape, closed_form_i_std where the order is 1."""
    shape, at_one, q = ends
    value = value.reshape(shape)
    return _float_or_array(np.where(at_one, closed_form_i_std(q), value) if at_one.any() else value)


def _pow_base(x: np.ndarray, shape: tuple) -> np.ndarray:
    """x broadcast to `shape` as a C-ordered array, copied unless it is one already.

    numpy's power takes other code paths, with other last bits, for a
    broadcast operand, so both of its operands are laid out in full: an
    order array then gives, element for element, the bits of one call per
    order.  Arithmetic rounds alike in every path, and its results, which
    feed the other functions of the order, come out laid out in full.
    """
    return x if x.shape == shape and x.flags.c_contiguous else np.array(np.broadcast_to(x, shape))


def _log(x: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(x)  # -inf at 0


def _pow_gap(y: np.ndarray, ln_y: np.ndarray, alpha: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """y**a, and y**a - y without cancellation at any order a, for y = e**ln_y in [0, 1].

    Where |a - 1| |ln y| <= 1 the two terms are within a factor e of each
    other, and the difference is y expm1((a - 1) ln y); elsewhere they
    differ enough to subtract.  The closed forms below are written in
    these gaps, so that their numerators, O(a - 1) as the order nears 1,
    keep full relative accuracy there.
    """
    power = _pow_base(y, alpha.shape) ** alpha
    with np.errstate(invalid="ignore", over="ignore"):  # inf * 0 at y = 0 or 1, and the dropped branch
        x = (alpha - 1.0) * ln_y
        return power, np.where(np.abs(x) <= 1.0, y * np.expm1(x), power - y)


def _split(qs: np.ndarray, qe: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """r = Q_S + Q_E, and t = min/max of (Q_S, Q_E) in [0, 1], 0 where r = 0."""
    hi = np.maximum(qs, qe)
    return qs + qe, np.minimum(qs, qe) / np.where(hi > 0.0, hi, 1.0)


def closed_form_i1(a, q: OutcomeProbs) -> float | np.ndarray:
    """Variant-1 alpha-mutual information of the (b', e') table, closed form.

    With r = Q_S + Q_E and t = min(Q_S, Q_E) / max(Q_S, Q_E) this is
    r (1 - R_a(Q_S/r, Q_E/r)).  Since log1p(t**a) = log1p(t) + G with
    G = log1p((t**a - t) / (1 + t)), it is evaluated as
    r (1 - (log1p(t) - G / (a - 1)) / ln 2), which is also the limit
    r (1 - log2(1 + t)) at the infinite order.  The order `a` is a scalar
    or an array that broadcasts against the triple; every order must be
    positive.  Order 1 gives closed_form_i_std, the limit of the formula.
    A fully inconclusive measurement gives 0.
    """
    alpha, (qs, qe, _), ends = _operands(a, q, 1)
    r, t = _split(qs, qe)
    g = np.log1p(_pow_gap(t, _log(t), alpha)[1] / (1.0 + t))
    return _result(r * (1.0 - (np.log1p(t) - g / (alpha - 1.0)) / _LN2), ends)


def closed_form_i2(a, q: OutcomeProbs) -> float | np.ndarray:
    """Variant-2 alpha-mutual information R_a(X) + R_a(Y) - R_a(X, Y), closed form.

    With r = Q_S + Q_E, m = max(Q_S, Q_E, Q_?) and x_k = (q_k / m)**a:
    S = x_S + x_E + x_?, D = 2**(1-a) x_r - x_S - x_E and
    N = 2**(1-a) x_r + x_?, so that I_2 = ln(N / S) / ((1 - a) ln 2).
    D is summed directly, never as N - S, in one of two ways: from the
    powers, 2 (r / 2m)**a - x_S - x_E, or from the gaps y**a - y,
    2 gap(r / 2m) - gap(Q_S / m) - gap(Q_E / m), whichever sums smaller
    terms.  Near order 1 the powers cancel to O(a - 1) and the gaps do
    not; far from it, a tiny y has y**a << y and the gaps cancel.  Where
    |D| < S / 2, log1p(D / S) replaces ln(N / S), so a small I_2 keeps its
    relative accuracy, where the difference of entropies in
    alpha_mutual_information keeps only an absolute one.  ln N comes from
    logs, since both of its terms underflow at orders in the thousands.
    The order `a` is as for closed_form_i1 (order 1 included), but finite.
    """
    alpha, (qs, qe, qq), ends = _operands(a, q, 2)
    m = np.maximum(np.maximum(qs, qe), qq)
    ys, ye, yr, yq = qs / m, qe / m, (qs + qe) / (2.0 * m), qq / m
    ls, le, lr, lq = _log(ys), _log(ye), _log(yr), _log(yq)
    (ps, gs), (pe, ge), (pr, gr) = _pow_gap(ys, ls, alpha), _pow_gap(ye, le, alpha), _pow_gap(yr, lr, alpha)
    pr, gr, pq = 2.0 * pr, 2.0 * gr, _pow_base(yq, alpha.shape) ** alpha
    d = np.where(np.abs(gr) + np.abs(gs) + np.abs(ge) < pr + ps + pe, gr - gs - ge, pr - ps - pe)
    s = ps + pe + pq
    with np.errstate(divide="ignore", invalid="ignore"):  # -inf * a at y = 0, and the branch np.where drops
        ln_n = np.logaddexp(_LN2 + alpha * lr, alpha * lq)
        ln = np.where(np.abs(d) < 0.5 * s, np.log1p(d / s), ln_n - np.log(s))
    return _result(ln / ((1.0 - alpha) * _LN2) + 0.0, ends)  # +0.0 avoids -0.0


def closed_form_i4(a, q: OutcomeProbs) -> float | np.ndarray:
    """Variant-4 alpha-mutual information of the (b', e') table, closed form.

    I_4 = -log2(2**(a-1) r ((Q_S/r)**a + (Q_E/r)**a) + Q_?) / (1 - a) with
    r = Q_S + Q_E.  The argument of log2 is 1 + r (c - 1), where
    ln c = a log1p(u) + log1p(t**a) - ln 2 with u = |Q_S - Q_E| / r and t
    as for closed_form_i1.  Since log1p(u) + log1p(t) = ln 2, that is
    ln c = (a - 1) log1p(u) + log1p((t**a - t) / (1 + t)), and the
    argument's log is log1p(r expm1(ln c)); where c is large, it is
    ln c + ln(r + Q_? / c).  r is never raised to a power, so r = 0, the
    fully inconclusive case, gives 0 at every order.  The order `a` is as
    for closed_form_i2, order 1 included.
    """
    alpha, (qs, qe, qq), ends = _operands(a, q, 4)
    r, t = _split(qs, qe)
    rr = np.where(r > 0.0, r, 1.0)
    ln_c = (alpha - 1.0) * np.log1p(np.abs(qs - qe) / rr) + np.log1p(_pow_gap(t, _log(t), alpha)[1] / (1.0 + t))
    with np.errstate(over="ignore"):  # exp in the branch np.where drops
        ln_arg = np.where(ln_c < 1.0, np.log1p(rr * np.expm1(ln_c)), ln_c + np.log(rr + qq / np.exp(ln_c)))
    return _result(np.where(r > 0.0, ln_arg / ((alpha - 1.0) * _LN2), 0.0), ends)


def closed_form_i_std(q: OutcomeProbs) -> float | np.ndarray:
    """Standard mutual information of the (b', e') table, closed form."""
    qs, qe, qq = (np.asarray(v, dtype=float) for v in (q.q_success, q.q_error, q.q_inconclusive))
    rem = 1.0 - qq
    x_rem, x_s, x_e = (_xlog2x(np.maximum(v, 0.0)) for v in (rem, qs, qe))
    return _float_or_array(rem - x_rem + x_s + x_e)


def shor_preskill_rate(delta: float) -> float:
    """Asymptotic one-way secure-key rate max(1 - 2 h(delta), 0)."""
    return max(1.0 - 2.0 * binary_entropy(scalar("delta", delta, 0.0, 0.5)), 0.0)
