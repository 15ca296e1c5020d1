"""Output oracles for the benchmark, kept apart from the code paths it times.

The analytic outcome triple is recomputed here from the paper's formulas
rather than taken from ``fpbprobe.discrimination``, so a change to the
program's geometry shows up as a failed check instead of moving the
oracle with it.  Monte-Carlo tallies are judged by one pooled Pearson
test per run, sized so that a correct simulator fails with p < 1e-6.
"""

from __future__ import annotations

import math

import numpy as np

# Upper-tail standard-normal quantile for p = 1e-6.
Z_1E6 = 4.753424308822899


def analytic_q(p_e: float, xi: float) -> tuple[float, float, float]:
    """(Q_S, Q_E, Q_?) of the interpolating measurement at (P_E, xi)."""
    theta = 0.5 * math.atan2(math.sqrt(4.0 * p_e * (1.0 - 2.0 * p_e)), 1.0 - 3.0 * p_e)
    phi = xi * (0.25 * math.pi - theta)
    eta = max(math.cos(2.0 * (theta + phi)), 0.0)
    denom = 1.0 + eta
    return (
        math.sin(2.0 * theta + phi) ** 2 / denom,
        math.sin(phi) ** 2 / denom,
        2.0 * eta * math.cos(theta) ** 2 / denom,
    )


def rel_close(value: float, ref: float, rtol: float) -> bool:
    return abs(value - ref) <= rtol * abs(ref)


def plugin_mutual_information(counts) -> float:
    """Plug-in mutual information in bits of a 2-D contingency table."""
    t = np.asarray(counts, dtype=float)
    t = t / t.sum()

    def h(p):
        p = p[p > 0.0]
        return float(-(p * np.log2(p)).sum())

    return h(t.sum(axis=1)) + h(t.sum(axis=0)) - h(t.ravel())


class PearsonPool:
    """Sum of Pearson statistics over many multinomial samples.

    Each sample adds its exact null mean (k - 1) and variance
    2(k - 1) + (sum 1/p - k^2 - 2k + 2)/n, which stays honest when some
    expected counts are small.  The pooled statistic is rescaled to that
    variance and compared with the Wilson-Hilferty chi-square quantile.
    """

    def __init__(self):
        self.stat = 0.0
        self.mean = 0.0
        self.var = 0.0
        self.samples = 0

    def add(self, counts, probs) -> list[str]:
        c = np.asarray(counts, dtype=float).ravel()
        p = np.asarray(probs, dtype=float).ravel()
        live = p > 0.0
        if c[~live].any():
            return [f"counts {c[~live].tolist()} in cells of probability 0"]
        c, p = c[live], p[live]
        n = c.sum()
        k = c.size
        if n == 0 or k < 2:
            return []
        self.stat += float(((c - n * p) ** 2 / (n * p)).sum())
        self.mean += k - 1
        self.var += 2.0 * (k - 1) + (float((1.0 / p).sum()) - k * k - 2 * k + 2) / n
        self.samples += 1
        return []

    def verdict(self) -> tuple[bool, dict]:
        if self.samples == 0:
            return True, {"samples": 0}
        k = self.mean
        scaled = k + (self.stat - k) * math.sqrt(2.0 * k / self.var)
        limit = k * (1.0 - 2.0 / (9.0 * k) + Z_1E6 * math.sqrt(2.0 / (9.0 * k))) ** 3
        detail = {"samples": self.samples, "dof": k, "statistic": scaled, "limit_p1e-6": limit}
        return scaled <= limit, detail


def tally_components(counts, p_e: float, q) -> list[tuple[np.ndarray, list[float]]]:
    """Multinomial pieces of one (basis_match, bob_correct, bit, eve) tally.

    Sifting keeps half the rounds, Bob's sifted bit is wrong with
    probability P_E, and the error-free sifted rounds follow the (b', e')
    table 0.5 [[Q_S, Q_E, Q_?], [Q_E, Q_S, Q_?]].
    """
    c = np.asarray(counts, dtype=np.int64)
    qs, qe, qq = q
    matched = int(c[1].sum())
    correct = int(c[1, 1].sum())
    return [
        (np.array([c.sum() - matched, matched]), [0.5, 0.5]),
        (np.array([matched - correct, correct]), [p_e, 1.0 - p_e]),
        (c[1, 1], [0.5 * qs, 0.5 * qe, 0.5 * qq, 0.5 * qe, 0.5 * qs, 0.5 * qq]),
    ]


def tail_latency(latencies_ns) -> tuple[float, float, int]:
    """(value, percentile, ops beyond) for the tail op latency.

    The tail is the 99th percentile, or, when that leaves fewer than 10
    ops beyond it (runs of under 1 100 ops), the highest percentile with
    10 ops beyond it, i.e. the 11th-largest latency.  With fewer than 11
    ops the maximum is returned with its true count beyond (0).  In runs
    of many short ops the last few largest latencies are single stalls of
    a shared machine's scheduler; 1 % of the ops is beyond their reach.
    """
    lat = sorted(latencies_ns)
    n = len(lat)
    if n < 11:
        return float(lat[-1]), 100.0, 0
    beyond = max(10, n // 100)
    return float(lat[n - beyond - 1]), 100.0 * (n - beyond) / n, beyond
