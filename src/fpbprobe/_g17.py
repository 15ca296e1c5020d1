"""Exact ``'%.17g' % v`` for whole float64 arrays.

`format_g17(values)` returns one row of `WIDTH` bytes per value.  With
its NUL bytes dropped, a row reads exactly as ``'%.17g' % v``; the NULs
sit where that text has no character, so the rows need no shifting and
a writer drops them all in one pass.

The 17 significant digits of v are the integer D = round(|v| * 10**k)
in [10**16, 10**17), with k = 16 - floor(log10 |v|).  For decimal
exponents -6 to 16, 0 <= k <= 22 and 10**k is itself a double P.
Dekker's two-product (Veltkamp split, no fused multiply-add, no long
double) gives |v| * P = h + l exactly.  h lies above 2**53, so it is an
even integer, and D = h + rint(l) rounds half to even as C's printf
does.  An exponent estimate that is one off (log10 rounds, or errs by
an ulp or so, next to a power of ten) is corrected by a second pass
over those values.  In this range the double nearest below a power of
ten is more than 5e-18 (relative) away from it, so no D rounds up to
10**17: D >= 10**17 always means the estimate is one too small.

The digits come from a 10 000-entry table of four ASCII digits.
Trailing zeros are masked out, and the fixed or exponent layout follows
the ``g`` rules: fixed for decimal exponents -4 to 16, else
``d.ddde±XX``.  Zero, inf, nan and |v| outside [1e-6, 1e17) go through
``'%.17g' %`` one at a time.
"""

from __future__ import annotations

import numpy as np

# A row: '-', the prefix '0.000', 17 digits with a point slot between
# each two, and 'e-XX'.  Dropping the NUL bytes of a row leaves its text.
WIDTH = 1 + 5 + 17 + 16 + 4
_LONGEST = 24  # len('-2.2250738585072014e-308'), the longest '%.17g' of a float64
E_MIN, E_MAX = -6, 16  # decimal exponents the array path prints

_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitting constant
_ZERO, _POINT, _MINUS, _E = (ord(c) for c in "0.-e")

_P = np.array([float(10**k) for k in range(16 - E_MIN + 1)])  # 10**k, exact for k <= 22
_P_HI = _P * _SPLIT - (_P * _SPLIT - _P)
_P_LO = _P - _P_HI


def _digit_tables() -> tuple[np.ndarray, np.ndarray]:
    """_DIGITS4[n]: the four ASCII digits of n (0 <= n < 10**4) as one
    uint32 in memory order, so a gather viewed as bytes reads left to
    right on any byte order.  _SIG4[n]: how many of them run up to the
    last nonzero one (0 for n = 0)."""
    d = np.indices((10, 10, 10, 10), dtype=np.uint8).reshape(4, -1)  # digits of 0..9999
    digits = np.ascontiguousarray((d + _ZERO).T).view(np.uint32).ravel()
    sig = np.where(d[3] > 0, 4, np.where(d[2] > 0, 3, np.where(d[1] > 0, 2, np.where(d[0] > 0, 1, 0))))
    return digits, sig.astype(np.uint8)


_DIGITS4, _SIG4 = _digit_tables()

# Row templates: every byte but the digits, one row per sign and form.
# Forms 0-3: fixed notation, exponent -4 to -1 ('0.' and zeros ahead of
# the digits); 4-19: fixed, exponent 0 to 15, with the point after digit
# form - 4; 20: fixed, no point; 21-22: exponent notation, with and
# without a point.  Only exponents -6 and -5 print that way here, so
# the exponent sign is always '-'.
_FORMS = 23
_TEMPLATES = np.zeros((2, _FORMS, WIDTH), dtype=np.uint8)
_TEMPLATES[1, :, 0] = _MINUS
_TEMPLATES[:, :4, 1:6] = (np.arange(-4, 0)[:, None] <= [-1, -1, -2, -3, -4]) * np.frombuffer(b"0.000", np.uint8)
_TEMPLATES[:, np.arange(4, 20), 7 + 2 * np.arange(16)] = _POINT
_TEMPLATES[:, 21, 7] = _POINT
_TEMPLATES[:, 21:, 39:41] = _E, _MINUS
_TEMPLATES = _TEMPLATES.reshape(2 * _FORMS, WIDTH)
# _KEEP[k] masks the 16 digits after the leading one down to the first k - 1.
_KEEP = np.where(np.arange(1, 17) < np.arange(18)[:, None], 255, 0).astype(np.uint8)


def _scaled(a: np.ndarray, e10: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """D = round(a * 10**(16 - e10)) as int64, and where a * 10**(16 - e10)
    < 10**16, i.e. e10 is one too big.  E_MIN <= e10 <= E_MAX."""
    i = 16 - e10.astype(np.intp)
    h = a * _P[i]
    c = a * _SPLIT
    a_hi = c - (c - a)
    a_lo = a - a_hi
    p_hi, p_lo = _P_HI[i], _P_LO[i]
    l = ((a_hi * p_hi - h) + a_hi * p_lo + a_lo * p_hi) + a_lo * p_lo
    return h.astype(np.int64) + np.rint(l).astype(np.int64), (h - 1e16) + l < 0.0


def format_g17(values) -> np.ndarray:
    """``'%.17g' % v`` of every value, as an (n, WIDTH) uint8 matrix with NULs to drop."""
    x = np.asarray(values, dtype=np.float64).ravel()
    a = np.abs(x)
    ok = (a > 0.0) & (a < np.inf)
    e10 = np.floor(np.log10(np.where(ok, a, 1.0))).astype(np.int16)
    ok &= (e10 >= E_MIN) & (e10 <= E_MAX)
    a = np.where(ok, a, 1.0)
    e10[~ok] = 0

    d, low = _scaled(a, e10)
    off = np.flatnonzero(low | (d >= 10**17))
    if off.size:
        e10[off] += np.where(low[off], -1, 1).astype(np.int16)
        inside = (e10[off] >= E_MIN) & (e10[off] <= E_MAX)
        ok[off[~inside]] = False
        off = off[inside]
        d[off] = _scaled(a[off], e10[off])[0]

    # The 17 digits in four-digit groups after the leading one, and how
    # many of them print: trailing zeros go, except those left of the
    # point in fixed notation.
    n = x.size
    lead = d // 10**16
    rest = d - lead * 10**16
    upper = (rest // 10**8).astype(np.uint32)
    lower = (rest - upper * 10**8).astype(np.uint32)
    groups = np.empty((n, 4), dtype=np.uint32)
    groups[:, 0], groups[:, 1] = np.divmod(upper, 10**4)
    groups[:, 2], groups[:, 3] = np.divmod(lower, 10**4)
    g0, g1, g2, g3 = groups.T
    last = np.where(g3 > 0, g3, np.where(g2 > 0, g2, np.where(g1 > 0, g1, g0)))
    ahead = np.where(g3 > 0, 13, np.where(g2 > 0, 9, np.where(g1 > 0, 5, 1)))
    nd = np.where(last > 0, ahead + _SIG4[last], 1)
    fixed = (e10 >= -4) & (e10 < 17)
    keep = np.where(fixed, np.maximum(nd, e10 + 1), nd)
    form = np.where(
        fixed,
        np.where((e10 < 0) | (keep > e10 + 1), e10 + 4, 20),
        21 + (nd == 1),
    )

    out = _TEMPLATES[form + _FORMS * np.signbit(x)]
    out[:, 6] = lead + _ZERO
    out[:, 8:39:2] = _DIGITS4[groups].view(np.uint8) & _KEEP[keep]
    exp = np.flatnonzero(~fixed)
    out[exp, 41:43] = _DIGITS4[np.abs(e10[exp])].view(np.uint8).reshape(-1, 4)[:, 2:]

    fallback = np.flatnonzero(~ok)
    if fallback.size:
        text = [b"%.17g" % v for v in x[fallback].tolist()]
        out[fallback] = 0
        out[fallback, :_LONGEST] = np.array(text, dtype=f"S{_LONGEST}").view(np.uint8).reshape(-1, _LONGEST)
    return out
