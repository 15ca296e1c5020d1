"""Exact ``'%.17g' % v`` for whole float64 arrays.

`format_g17(values, out)` writes one row of `WIDTH` bytes per value into
`out`, which may be a strided view of the caller's line buffer.  With
its NUL bytes dropped, a row reads exactly as ``'%.17g' % v``; the NULs
sit where that text has no character, so the rows need no shifting and
a writer drops them all in one pass.

The 17 significant digits of v are the integer D = round(|v| * 10**k)
in [10**16, 10**17), with k = 16 - floor(log10 |v|).  The array path
takes decimal exponents -4 to 0, magnitudes in [1e-4, 10): there
16 <= k <= 20 and 10**k is itself a double P.  Dekker's two-product
(Veltkamp split, no fused multiply-add, no long double) gives
|v| * P = h + l exactly.  h lies above 2**53, so it is an even integer,
and D = h + rint(l) rounds half to even as C's printf does.  An exponent
estimate that is one off (log10 rounds, or errs by an ulp or so, next
to a power of ten) leaves D outside [10**16, 10**17), and a second pass
over those values corrects it.  In this range the double nearest below
a power of ten is more than 5e-17 (relative) away from it, so D falls
below 10**16 exactly when the estimate is one too big, and no D rounds
up to 10**17.

A row is the sign, the prefix '0.000', the leading digit, one slot for
the point and the 16 other digits; the form of the value keeps the
bytes it prints and leaves the rest NUL.  The row is six uint32 words,
gathered by one `np.take` from one table: two head words (sign, prefix,
leading digit and point, by form and leading digit), then the other 16
digits as four groups of four.  A group after which no other digit is
nonzero comes from the part of the table that prints its trailing
zeros as NUL, and the point only prints when a digit follows it, so the
row needs no mask.  The ``g`` rules give fixed notation for exponents
-4 to 0.  Zero prints from the row of 1 with its leading digit 0, so
0.0 and -0.0 print '0' and '-0'.  Only inf, nan and nonzero magnitudes
below 1e-4 or from 10 up go through `_fallback`, one ``'%.17g' %`` per
value, ~0.5 us each.  On the benchmark's `curves_grid` inputs they are
1.7 % of the values, on `bounds_certify` 0.07 %; the default
``bounds --variable p-e`` sends 1 670 of its 3 340 cells there, values
of ~1e-16 that an exact eta would make zeros.
"""

from __future__ import annotations

import numpy as np

# A row: '-', the prefix '0.000', the leading digit, a point slot and 16
# digits.  It is also len('-2.2250738585072014e-308'), the longest
# '%.17g' of a float64, so a `_fallback` text fits a row.  Dropping the
# NUL bytes of a row leaves its text.
WIDTH = 1 + 5 + 1 + 1 + 16
E_MIN, E_MAX = -4, 0  # decimal exponents the array path prints
_FORMS = E_MAX - E_MIN + 1  # forms per sign: exponent E_MIN + j, for j < _FORMS

_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitting constant
_TINY = 5e-324  # the least double, whose log10 stands in for that of zero and nan
_ZERO, _POINT, _MINUS = b"0.-"

# _PS[:, s]: 10**(16 - E_MIN - j), an exact double, and its Veltkamp
# halves, for the form s = j + _FORMS * (v < 0) of either sign.
_P = np.tile([1e20, 1e19, 1e18, 1e17, 1e16], 2)
_P_HI = _P * _SPLIT - (_P * _SPLIT - _P)
_PS = np.stack([_P, _P_HI, _P - _P_HI])


def _table() -> np.ndarray:
    """The words a row of `format_g17` gathers, little-endian uint32 so
    that a gather viewed as bytes reads left to right on any byte order.

    At n < 10**4: the four ASCII digits of n, with its trailing zeros NUL;
    at 10**4 + n: all four.  From 2 * 10**4: the first halves of the eight
    head bytes, at 10 s + c + 100 p for form s, leading digit c and p = 1
    when a point follows that digit; 200 further on, the second halves.
    """
    d = np.arange(10, dtype="<u4")
    full = 0x30303030 + (d << 24) + (d << 16)[:, None] + (d << 8)[:, None, None] + d[:, None, None, None]
    trimmed = full.copy()
    for zeros in range(1, 5):  # the last `zeros` digits are 0: their bytes are NUL
        trimmed[(...,) + (0,) * zeros] &= 0xFFFFFFFF >> 8 * zeros

    head = np.zeros((2, 2, _FORMS, 10, 8), dtype=np.uint8)  # (point, sign, form, leading digit, byte)
    head[:, 1, ..., 0] = _MINUS
    prefix = np.arange(E_MIN, E_MAX)[:, None] <= [-1, -1, -2, -3, -4]  # '0.000' up to the exponent
    head[:, :, :-1, :, 1:6] = (prefix * np.frombuffer(b"0.000", np.uint8))[:, None]
    head[..., 6] = np.arange(_ZERO, _ZERO + 10)
    head[1, :, -1, :, 7] = _POINT
    halves = head.reshape(-1, 2, 4).view("<u4")
    return np.concatenate([trimmed.ravel(), full.ravel(), halves[:, 0, 0], halves[:, 1, 0]])


_TABLE = _table()
_HEAD_AT = (2 * 10**4, 2 * 10**4 + 200)  # where the two head halves start in _TABLE


def _scaled(a: np.ndarray, s: np.ndarray) -> np.ndarray:
    """D = round(a * _PS[0, s]) as int64."""
    p, p_hi, p_lo = np.take(_PS, s, axis=1)
    h = a * p
    a_hi = a * _SPLIT
    a_hi -= a_hi - a
    a_lo = a - a_hi
    l = a_hi * p_hi - h  # then the other three products, in Dekker's order
    l += a_hi * p_lo
    l += a_lo * p_hi
    l += a_lo * p_lo
    return h.astype(np.int64) + np.rint(l).astype(np.int64)


def _fallback(values: list) -> np.ndarray:
    """``'%.17g' % v`` of each float in `values`, one NUL-padded row of WIDTH bytes each."""
    return np.array([b"%.17g" % v for v in values], dtype=f"S{WIDTH}").view(np.uint8).reshape(-1, WIDTH)


def format_g17(values, out: np.ndarray | None = None) -> np.ndarray:
    """``'%.17g' % v`` of every value, one row of WIDTH bytes with NULs to drop per value.

    The rows go to `out`, a uint8 array of shape (..., WIDTH) with one
    row per value in C order; it may be a strided view, and no byte
    outside its rows is written.  Without `out`, a new (n, WIDTH) array.
    Returns `out`.
    """
    x = np.asarray(values, dtype=np.float64)
    flat = x.ravel()
    a = np.abs(flat)
    neg = np.signbit(flat)
    zero = a == 0.0
    e = np.log10(np.where(a > 0.0, a, _TINY))  # a signaling nan would raise in some log10 kernels
    e -= E_MIN
    ok = (e >= 0.0) & (e <= _FORMS)  # nan, inf and zero fail; log10 can round up to 1 below 10
    e = np.where(ok, e, _FORMS - 1)
    np.minimum(e, _FORMS - 1, out=e)
    np.add(e, _FORMS, out=e, where=neg)
    s = e.astype(np.intp)  # the form; zero and the fallback values scale 1.0 in form 4
    a = np.where(ok, a, 1.0)

    d = _scaled(a, s)
    off = np.flatnonzero((d - 10**16).view(np.uint64) >= 9 * 10**16)
    if off.size:  # a value whose form moves off the array path takes any index, and prints as a fallback
        j = s[off] - _FORMS * neg[off] + np.where(d[off] < 10**16, -1, 1)
        ok[off] &= (j >= 0) & (j < _FORMS)
        s[off] = np.clip(j, 0, _FORMS - 1) + _FORMS * neg[off]
        d[off] = _scaled(a[off], s[off])

    # The table index of each of the row's six words: the two head halves,
    # then the four groups of four digits after the leading one, each in
    # full (10**4 on) when a later group is nonzero, else trimmed.  np.take
    # with mode="wrap" skips the bounds check: each index is in range but
    # those of fallback rows, which the fallback overwrites.
    idx = np.empty((x.size, 6), dtype=np.intp)
    upper = d // 10**8  # the leading digit and the first two groups
    lower = d - upper * 10**8
    top = upper // 10**4
    lead = top // 10**4
    g0 = top - lead * 10**4
    g1 = upper - top * 10**4
    g2 = lower // 10**4
    g3 = np.subtract(lower, g2 * 10**4, out=idx[:, 5])
    np.add(g2, (g3 != 0) * 10**4, out=idx[:, 4])
    later = lower != 0
    np.add(g1, later * 10**4, out=idx[:, 3])
    later |= g1 != 0
    np.add(g0, later * 10**4, out=idx[:, 2])
    later |= g0 != 0  # a point follows the leading digit
    lead -= zero
    lead += 10 * s + 100 * later
    np.add(lead, _HEAD_AT[0], out=idx[:, 0])
    np.add(lead, _HEAD_AT[1], out=idx[:, 1])
    out = np.empty((x.size, WIDTH), dtype=np.uint8) if out is None else out
    out[...] = np.take(_TABLE, idx, mode="wrap").view(np.uint8).reshape(out.shape)

    fallback = np.flatnonzero(~(ok | zero))
    if fallback.size:
        out[np.unravel_index(fallback, out.shape[:-1])] = _fallback(flat[fallback].tolist())
    return out
