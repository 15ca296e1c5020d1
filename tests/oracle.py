"""50-digit reference values for the (b', e') table and its information measures.

Test-only.  Everything here is evaluated in mpmath at DPS digits, from the
definitions, so that it shares no code with the package:

* `born_joint_mp` builds the 2x3 table by the Born rule on the probe
  states, from (P_E, xi) alone, without `outcome_probs`;
* `table_mp` builds the table from a float triple (Q_S, Q_E, Q_?) taken
  exactly, so that a closed form and its reference see the same input;
* `measure` evaluates std, v1, v2, v4 or v1_inf on any table, as
  R_a(X) - R_a(X|Y) of rows X given columns Y with the variant's
  conditional entropy, and `measure_grid` does so over arrays of triples;
* `mu_mp` is the phase-optimized factor mu(eta) of the uncertainty
  bounds, from the extension bases at gamma = acos(eta) / 2.

`grid` gives the (P_E, xi) box that the accuracy gates sweep, and
`assert_exact` is their one gate.  Importing this module skips the
importing test module when mpmath is not installed.
"""

from __future__ import annotations

import numpy as np
import pytest

mp = pytest.importorskip("mpmath")

DPS = 50
# The parameter box of the accuracy gates: both ends of P_E, tiny values
# near 0, and xi at both schemes, near 0 and inside.
PE_BOX = (0.0, 1e-12, 1e-6, 0.001, 0.01, 0.05, 0.1, 0.2, 0.3, 1.0 / 3.0)
XI_BOX = (0.0, 1e-5, 1.0 / 3.0, 0.5, 1.0)


def grid(p_e=PE_BOX, xi=XI_BOX) -> tuple[np.ndarray, np.ndarray]:
    """The (P_E, xi) mesh as two float arrays of shape (len(p_e), len(xi))."""
    return np.meshgrid(np.asarray(p_e, dtype=float), np.asarray(xi, dtype=float), indexing="ij")


def born_joint_mp(p_e, xi) -> list[list]:
    """2x3 (b', e') table from the Born rule, in mpmath arithmetic.

    Probe states (cos theta, +/- sin theta) with
    cos(2 theta) = (1 - 3 P_E) / (1 - P_E), measured by
    M_+/- = |k_+/-><k_+/-| / (1 + eta) with k_+/- = (sin gamma, +/- cos gamma)
    and M_? = 2 eta / (1 + eta) |0><0|, where phi = xi (pi/4 - theta),
    gamma = theta + phi and eta = cos(2 gamma).
    """
    p = mp.mpf(p_e)
    theta = mp.acos((1 - 3 * p) / (1 - p)) / 2
    gamma = theta + mp.mpf(xi) * (mp.pi / 4 - theta)
    eta = max(mp.cos(2 * gamma), mp.mpf(0))
    rows = []
    for sign in (1, -1):
        c, s = mp.cos(theta), sign * mp.sin(theta)
        rows.append([
            (mp.sin(gamma) * c + mp.cos(gamma) * s) ** 2 / (2 * (1 + eta)),
            (mp.sin(gamma) * c - mp.cos(gamma) * s) ** 2 / (2 * (1 + eta)),
            eta * c ** 2 / (1 + eta),
        ])
    return rows


def table_mp(q_s, q_e, q_q) -> list[list]:
    """The 2x3 (b', e') table of a uniform bit and one float triple.

    Rows are (Q_S, Q_E, Q_?) / 2 and (Q_E, Q_S, Q_?) / 2, each float taken
    exactly and the table scaled to sum to 1.
    """
    qs, qe, qq = (mp.mpf(float(v)) for v in (q_s, q_e, q_q))
    half = 1 / (2 * (qs + qe + qq))
    return [[qs * half, qe * half, qq * half], [qe * half, qs * half, qq * half]]


def renyi(ps, a):
    """Renyi entropy in bits of a probability vector: Shannon at 1, min-entropy at inf."""
    ps = [p for p in ps if p > 0]
    if a == 1:
        return -mp.fsum(p * mp.ln(p) for p in ps) / mp.ln2
    if mp.isinf(a):
        return -mp.ln(max(ps)) / mp.ln2
    return mp.ln(mp.fsum(p ** a for p in ps)) / ((1 - a) * mp.ln2)


def conditional(rows, a, variant):
    """Conditional Renyi entropy of the rows given the columns, by its definition.

    Variant 1 averages the per-column entropies, variant 2 is
    R_a(X, Y) - R_a(Y), and variant 4 averages inside the logarithm.
    """
    cols = [list(c) for c in zip(*rows)]
    weights = [mp.fsum(c) for c in cols]
    live = [(w, [x / w for x in c]) for w, c in zip(weights, cols) if w > 0]
    if variant == 1:
        return mp.fsum(w * renyi(c, a) for w, c in live)
    if variant == 2:
        return renyi([x for row in rows for x in row], a) - renyi(weights, a)
    if variant == 4:
        return mp.ln(mp.fsum(w * mp.fsum(x ** a for x in c) for w, c in live)) / ((1 - a) * mp.ln2)
    raise ValueError(f"unknown variant {variant}")


def symmetric_measure_mp(rows, a):
    """R_a(B) + R_a(E) - R_a(B, E), the variant-2 measure, in bits."""
    cols = [rows[0][k] + rows[1][k] for k in range(3)]
    return renyi([mp.fsum(r) for r in rows], a) + renyi(cols, a) - renyi(rows[0] + rows[1], a)


def measure(name: str, rows, a=None):
    """std, v1, v2, v4 (at order a) or v1_inf of a table: R_a(X) - R_a^(v)(X|Y)."""
    if name in ("std", "v1_inf"):
        a, variant = (1 if name == "std" else mp.inf), 1
    else:
        a, variant = mp.mpf(float(a)), int(name[1])
    return renyi([mp.fsum(r) for r in rows], a) - conditional(rows, a, variant)


def measure_grid(name: str, q, orders=None) -> np.ndarray:
    """`measure` at DPS digits over arrays of triples, rounded to floats.

    `q` is an OutcomeProbs of arrays; `orders`, for v1, v2 and v4, is a
    sequence of orders that becomes a new last axis.
    """
    fields = np.broadcast_arrays(q.q_success, q.q_error, q.q_inconclusive)
    orders = [None] if orders is None else list(orders)
    out = np.empty(fields[0].shape + (len(orders),))
    with mp.workdps(DPS):
        for idx in np.ndindex(fields[0].shape):
            rows = table_mp(*(f[idx] for f in fields))
            for k, a in enumerate(orders):
                out[idx + (k,)] = float(measure(name, rows, a))
    return out if name in ("v1", "v2", "v4") else out[..., 0]


def mu_mp(eta):
    """mu(eta), the reciprocal of the smallest peak overlap of two extension bases.

    At phase 0 the basis rows are (sin gamma, +/- cos gamma, sqrt(eta)) and
    (sqrt(2 eta), 0, -sqrt(1 - eta)), over sqrt(1 + eta).  The other basis
    carries e^{i delta} on its third column, so each squared overlap modulus
    is a line a + b cos(delta), and the squared peak is the upper envelope
    of nine lines on [-1, 1].  Its minimum is at an end or where two lines
    cross; the envelope is evaluated there, at DPS digits.
    """
    with mp.workdps(DPS):
        e = mp.mpf(float(eta))
        gamma = mp.acos(e) / 2
        root = mp.sqrt(1 + e)
        rows = [
            [mp.sin(gamma) / root, mp.cos(gamma) / root, mp.sqrt(e) / root],
            [mp.sin(gamma) / root, -mp.cos(gamma) / root, mp.sqrt(e) / root],
            [mp.sqrt(2 * e) / root, mp.mpf(0), -mp.sqrt(1 - e) / root],
        ]
        lines = []
        for wi in rows:
            for wj in rows:
                head, c = wi[0] * wj[0] + wi[1] * wj[1], wi[2] * wj[2]
                lines.append((head ** 2 + c ** 2, 2 * head * c))
        points = [mp.mpf(-1), mp.mpf(1)]
        for k, (a1, b1) in enumerate(lines):
            for a2, b2 in lines[k + 1:]:
                if b1 != b2 and abs(a2 - a1) <= abs(b1 - b2):
                    points.append((a2 - a1) / (b1 - b2))
        peak = min(max(a + b * u for a, b in lines) for u in points)
        return float(1 / mp.sqrt(peak))


def assert_exact(got, truth, rel: float, floor: float, what: str = "value") -> None:
    """|got - truth| <= max(rel |truth|, floor) everywhere, or fail naming the worst cell."""
    got, truth = np.broadcast_arrays(np.asarray(got, dtype=float), np.asarray(truth, dtype=float))
    err = np.abs(got - truth)
    excess = err / np.maximum(rel * np.abs(truth), floor)
    if not (excess <= 1.0).all():  # nan fails too
        worst = np.unravel_index(np.nanargmax(np.where(np.isnan(excess), np.inf, excess)), excess.shape)
        raise AssertionError(
            f"{what}: {int((~(excess <= 1.0)).sum())} of {excess.size} cells off; worst at {worst}: "
            f"{got[worst]!r} vs {truth[worst]!r}, error {err[worst]:.3g} > max({rel:g} |truth|, {floor:g})"
        )
