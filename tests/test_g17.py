"""The array kernel behind the CSV writer against Python's own '%.17g'."""

import math

import numpy as np
import pytest

from fpbprobe import _g17
from fpbprobe._g17 import E_MAX, E_MIN, WIDTH, format_g17


def texts(values):
    rows = format_g17(values)
    assert rows.shape == (np.size(values), WIDTH) and rows.dtype == np.uint8
    return [row.tobytes().replace(b"\0", b"").decode("ascii") for row in rows]


def assert_matches_python(values):
    values = np.asarray(values, dtype=float)
    want = ["%.17g" % v for v in values.tolist()]
    got = texts(values)
    bad = [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
    assert not bad, f"{len(bad)} of {len(want)} differ, e.g. {bad[:5]}"


def ulp_neighbours(x, k=4):
    """x and its k nearest doubles on each side."""
    out, lo, hi = [x], x, x
    for _ in range(k):
        lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
        out += [lo, hi]
    return out


def adversarial():
    vals = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e-310, 2.2250738585072009e-308,
            2.2250738585072014e-308, 1.7976931348623157e308, 2.0**53 - 1, 2.0**53, 2.0**53 + 1,
            2.0**53 + 2, 1e17, 1e-99, 1e-100, 9.9999999999999999e99, 1e100]
    for j in range(-30, 23):
        vals += ulp_neighbours(10.0**j if j >= 0 else float(f"1e{j}"))
    # fixed/exponent switches: 1e-4 (fixed) vs below it, and 1e16 vs 1e17
    for edge in (1e-4, 1e-5, 1e16, 1e17, 9.99999999999999995e-5, 9.9999999999999998e16):
        vals += ulp_neighbours(edge)
    # dyadic values with a 5 in the 18th significant digit: exact ties
    m = np.arange(1, 4000)
    for j in (1, 2, 5, 10, 30, 52, 60, 80):
        vals += list((m + 0.5) / 2.0**j)
    vals += [2.0**e for e in range(-80, 80)]
    vals = np.array(vals, dtype=float)
    return np.concatenate([vals, -vals])


def test_adversarial_list():
    assert_matches_python(adversarial())


@pytest.mark.parametrize("skew", [-1e-12, 1e-12])
def test_exponent_estimate_one_off(monkeypatch, skew):
    # A log10 that errs by a few ulp puts floor(log10 |v|) one off next to
    # a power of ten, in either direction; the second pass must catch it.
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: log10(a) + skew)
    assert_matches_python(adversarial())


def test_random_bit_patterns():
    bits = np.random.default_rng(20181018).integers(0, 2**64, size=100_000, dtype=np.uint64)
    assert_matches_python(bits.view(np.float64))


def decimal_exponents(values):
    """The decimal exponent each value prints with at 17 digits."""
    return {int(("%.16e" % v).split("e")[1]) for v in np.asarray(values, dtype=float).tolist()}


def test_random_magnitudes_through_the_array_path():
    rng = np.random.default_rng(7)
    x = rng.uniform(1.0, 10.0, 50_000) * 10.0 ** rng.integers(E_MIN, E_MAX + 1, 50_000)
    assert decimal_exponents(x) == set(range(E_MIN, E_MAX + 1))
    assert_matches_python(x)


def test_random_magnitudes_above_the_array_path():
    # [10, 1e17), both signs: these go through Python's '%' one at a time.
    rng = np.random.default_rng(17)
    x = rng.uniform(1.0, 10.0, 50_000) * 10.0 ** rng.integers(E_MAX + 1, 17, 50_000)
    assert decimal_exponents(x) == set(range(E_MAX + 1, 17))
    assert_matches_python(x * rng.choice([-1.0, 1.0], x.size))


def test_near_ties():
    # (2D + 1) / 2 * 10**-k rounded to a double sits within an ulp of a
    # 17-digit tie.  For 16 <= k <= 22 it takes the array path, where
    # 10**k is exact; other k go through Python.
    rng = np.random.default_rng(11)
    vals = []
    for k_lo, k_hi in ((-80, 110), (16 - E_MAX, 17 - E_MIN)):
        for _ in range(3000):
            d, k = int(rng.integers(10**16, 10**17)), int(rng.integers(k_lo, k_hi))
            num, den = (2 * d + 1, 2 * 10**k) if k >= 0 else ((2 * d + 1) * 10**-k, 2)
            vals += ulp_neighbours(num / den, 1)
    assert set(range(E_MIN, E_MAX + 1)) <= decimal_exponents(vals)
    assert_matches_python(vals)


def test_shapes():
    assert format_g17([]).shape == (0, WIDTH)
    assert texts([0.0, -0.0]) == ["0", "-0"]
    assert texts(np.array([[0.5, -2.0], [1e-7, math.pi]])) == ["0.5", "-2", "9.9999999999999995e-08",
                                                             "3.1415926535897931"]


def test_property_against_python():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @hypothesis.given(st.lists(st.floats(), min_size=1, max_size=50))
    def check(values):
        assert_matches_python(values)

    check()


# Values of every form the kernel prints: both signs of zero, each decimal
# exponent of the array path, and the fallback's inf, nan, subnormals and
# magnitudes past either end.
INSIDE = [0.0, -0.0, 1e-4, -1e-4, 0.001, 0.5, -1.0, 1.0, 3.0, np.nextafter(10.0, 0.0), -7.125, 5e-3]
OUTSIDE = [np.inf, -np.inf, np.nan, 5e-324, -2.2250738585072014e-308, np.nextafter(1e-4, 0.0), 1e-9, 10.0,
           -123456.75, 1e17, 1e300]


def test_only_values_outside_the_array_path_reach_the_fallback(monkeypatch):
    seen = []
    fallback = _g17._fallback
    monkeypatch.setattr(_g17, "_fallback", lambda values: seen.append(list(values)) or fallback(values))
    rng = np.random.default_rng(29)
    inside = INSIDE + list(rng.uniform(1.0, 10.0, 2000) * 10.0 ** rng.integers(E_MIN, E_MAX + 1, 2000)
                           * rng.choice([-1.0, 1.0], 2000))
    assert_matches_python(inside)
    assert seen == []  # zeros too: they print from the row of 1
    assert_matches_python(inside + OUTSIDE + inside)
    assert [repr(v) for v in seen[0]] == [repr(float(v)) for v in OUTSIDE]


@pytest.mark.parametrize("shape", [(7, 5), (3, 4, 5)])
def test_writes_into_a_strided_view(shape):
    # The rows land in a view of a wider buffer, as `cli._write_csv`
    # passes them; fallback rows sit among the others.  Every byte
    # outside the view keeps its value.
    rng = np.random.default_rng(31)
    values = rng.choice(INSIDE + OUTSIDE, shape) * rng.uniform(0.5, 1.5, shape)
    gap = 3  # bytes between rows, as the ',' is

    def view(a):
        return a[..., 2:2 + shape[-1] * (WIDTH + gap)].reshape(shape + (WIDTH + gap,))[..., :WIDTH]

    buf = rng.integers(1, 256, shape[:-1] + (shape[-1] * (WIDTH + gap) + 4,), dtype=np.uint8)
    before = buf.copy()
    inside = np.zeros(buf.shape, dtype=bool)
    view(inside)[...] = True
    out = view(buf)
    assert not out.flags.c_contiguous
    assert format_g17(values, out=out) is out
    assert np.array_equal(out.reshape(-1, WIDTH), format_g17(values))
    assert np.array_equal(buf[~inside], before[~inside])
    assert [row.tobytes().replace(b"\0", b"").decode() for row in out.reshape(-1, WIDTH)] == \
        ["%.17g" % v for v in values.ravel().tolist()]
