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
  `measure` is also the accurate reference for the tables that no closed
  form covers, such as a post-processing of Eve's outcome;
* `envelope_mp` writes the squared overlaps of two extension bases at
  gamma = acos(eta) / 2 as lines in u = cos(delta) and finds the u that
  minimizes their peak, cos(delta*); `mu_mp` and `zeta_mp` read the
  phase-optimized mu(eta) and zeta(eta) off it;
* `helstrom_std_mp`, `helstrom_order2_mp` and `unambiguous_std_mp` are
  the probe's known optima at the two ends of the family, as formulas in
  P_E alone: they check the whole chain probe -> measurement -> table ->
  measure from outside it;
* `bounds_row_mp` evaluates every value column of `bounds` at one float
  eta, and at one float triple for the two P_E-sweep columns, from each
  bound's definition.  It takes mu(eta) and zeta_2(eta) from their
  derived closed forms at DPS digits; `mu_mp` and `zeta_mp` gate those.

`grid` gives the (P_E, xi) box that the accuracy gates sweep, and
`assert_exact` is their one gate.  Importing this module skips the
importing test module when mpmath is not installed.
"""

from __future__ import annotations

from itertools import combinations

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
    if a == 1:
        variant = 1  # every variant is the standard conditional entropy there; variant 4's formula divides by 0
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


def sin_2theta_mp(p_e):
    """s = sin(2 theta) = sqrt(4 P_E (1 - 2 P_E)) / (1 - P_E), with cos(2 theta) = (1 - 3 P_E) / (1 - P_E)."""
    p = mp.mpf(float(p_e))
    return mp.sqrt(4 * p * (1 - 2 * p)) / (1 - p)


def helstrom_std_mp(p_e) -> float:
    """The standard mutual information at xi = 1 (Helstrom): 1 - h((1 - s) / 2)."""
    with mp.workdps(DPS):
        s = sin_2theta_mp(p_e)
        return float(1 - renyi([(1 - s) / 2, (1 + s) / 2], 1))


def helstrom_order2_mp(p_e) -> float:
    """Every variant's order-2 measure at xi = 1: log2(1 + 4 P_E (1 - 2 P_E) / (1 - P_E)^2).

    The most Renyi (collision) information an individual attack gets at
    error rate P_E (Slutsky, Rao, Sun and Fainman, PRA 57, 2383, 1998),
    which the FPB probe attains (Brandt, PRA 71, 042312, 2005).
    """
    with mp.workdps(DPS):
        p = mp.mpf(float(p_e))
        return float(mp.log(1 + 4 * p * (1 - 2 * p) / (1 - p) ** 2, 2))


def unambiguous_std_mp(p_e) -> float:
    """The standard mutual information at xi = 0 (unambiguous discrimination): 2 P_E / (1 - P_E)."""
    with mp.workdps(DPS):
        p = mp.mpf(float(p_e))
        return float(2 * p / (1 - p))


def criterion2_optimum_mp(dps=40) -> tuple[float, float]:
    """The P_E that maximizes helstrom_std_mp - unambiguous_std_mp, and that gap.

    The two formulas as one function of P_E; the maximizer is the root of
    its derivative, found by mp.findroot at `dps` digits.
    """
    def gap(p):
        s = mp.sqrt(4 * p * (1 - 2 * p)) / (1 - p)
        return 1 - renyi([(1 - s) / 2, (1 + s) / 2], 1) - 2 * p / (1 - p)

    with mp.workdps(dps):
        p = mp.findroot(lambda p: mp.diff(gap, p), mp.mpf("0.227"))
        return float(p), float(gap(p))


def envelope_mp(eta):
    """The nine squared overlaps of two extension bases as lines in u, and the u minimizing their peak.

    At phase 0 the basis rows are (sin gamma, +/- cos gamma, sqrt(eta)) and
    (sqrt(2 eta), 0, -sqrt(1 - eta)), over sqrt(1 + eta), with
    gamma = acos(eta) / 2.  The other basis carries e^{i delta} on its
    third column, so |W_ij|^2 = a + b u with u = cos(delta); `lines` maps
    (i, j) to (a, b).  The squared peak is the upper envelope of the nine
    lines on [-1, 1]; its minimum is at an end or where two lines cross,
    and the envelope is searched there.  Where it is flat (eta = 0 and
    eta = 1) the smallest minimizing u is returned.  The values are mpf
    at DPS digits; do arithmetic on them inside mp.workdps(DPS).
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
        lines = {}
        for i, wi in enumerate(rows):
            for j, wj in enumerate(rows):
                head, c = wi[0] * wj[0] + wi[1] * wj[1], wi[2] * wj[2]
                lines[i, j] = (head ** 2 + c ** 2, 2 * head * c)
        points = [mp.mpf(-1), mp.mpf(1)]
        coeffs = list(lines.values())
        for k, (a1, b1) in enumerate(coeffs):
            for a2, b2 in coeffs[k + 1:]:
                if b1 != b2 and abs(a2 - a1) <= abs(b1 - b2):
                    points.append((a2 - a1) / (b1 - b2))
        peaks = [max(a + b * u for a, b in coeffs) for u in points]
        low = min(peaks)
        u = min(u for u, peak in zip(points, peaks) if peak - low <= mp.mpf(10) ** (10 - DPS))
        return lines, u


def mu_mp(eta) -> float:
    """mu(eta), the reciprocal of the smallest peak overlap of two extension bases."""
    with mp.workdps(DPS):
        lines, u = envelope_mp(eta)
        return float(1 / mp.sqrt(max(a + b * u for a, b in lines.values())))


def zeta_mp(eta) -> tuple[float, float, float]:
    """(zeta_1, zeta_2, zeta_3) of the overlap matrix at the envelope's minimum.

    zeta_1 is the peak modulus.  zeta_2 is the largest spectral norm of a
    1x2 or 2x1 block, the Euclidean norm of two entries in one row or one
    column; zeta_3 = 1 by unitarity.
    """
    with mp.workdps(DPS):
        lines, u = envelope_mp(eta)
        sq = {ij: a + b * u for ij, (a, b) in lines.items()}
        pairs = [sq[i, j] + sq[i, k] for i in range(3) for j, k in combinations(range(3), 2)]
        pairs += [sq[j, i] + sq[k, i] for i in range(3) for j, k in combinations(range(3), 2)]
        return float(mp.sqrt(max(sq.values()))), float(mp.sqrt(max(pairs))), 1.0


def mu_zeta2_mp(e):
    """mu(eta) and zeta_2(eta) from their three-branch closed forms, with knots at the floats 0.2 and 0.5."""
    if e <= mp.mpf(0.2):
        return (1 + e) / (1 - e), mp.sqrt(1 + 2 * e - 3 * e * e) / (1 + e)
    if e <= mp.mpf(0.5):
        return mp.sqrt((2 - e) / (1 - e)), mp.sqrt((2 - 2 * e) / (2 - e))
    return mp.sqrt((2 - e) / e), 1 / mp.sqrt(2 - e)


def bounds_row_mp(eta, triple=None) -> list[float]:
    """The value columns of one `bounds` row, in `uncertainty.BOUNDS_COLUMNS` order.

    At the float eta, taken exactly: 2 log2 mu, the Coles-Piani bound
    log2 mu + eta / (2 (1 + eta)) log2((1 - eta) / (4 eta)) (the
    correction for 0 < eta < 0.2 only), H(omega) / 2, R_2(omega') / 2, the
    direct-sum bound -log2((1 + sum omega^2) / 2) at order 2, and H and
    R_2 of rho* = (1, 1, 2 eta) / (2 (1 + eta)), where
    omega = (zeta_1, zeta_2 - zeta_1, 1 - zeta_2) with zeta_1 = 1 / mu and
    omega' is its image under zeta -> (1 + zeta)^2 / 4.  With the float
    triple (Q_S, Q_E, Q_?), two more: the standard mutual information of
    `table_mp`, and its cap H(E') - max(Coles-Piani, H(omega) / 2), with
    H(E') the entropy of that table's column sums.
    """
    with mp.workdps(DPS):
        e = mp.mpf(float(eta))
        mu, z2 = mu_zeta2_mp(e)
        log2_mu = mp.log(mu, 2)
        coles_piani = log2_mu + (e / (2 * (1 + e)) * mp.log((1 - e) / (4 * e), 2) if 0 < e < mp.mpf(0.2) else 0)
        zeta = [1 / mu, z2, mp.mpf(1)]
        xi = [(1 + z) ** 2 / 4 for z in zeta]
        omega = [zeta[0], zeta[1] - zeta[0], 1 - zeta[1]]
        omega_prime = [xi[0], xi[1] - xi[0], 1 - xi[1]]
        rho = [1 / (2 * (1 + e)), 1 / (2 * (1 + e)), e / (1 + e)]
        maj_shannon = renyi(omega, 1) / 2
        row = [2 * log2_mu, coles_piani, maj_shannon, renyi(omega_prime, 2) / 2,
               -mp.log((1 + mp.fsum(w ** 2 for w in omega)) / 2, 2), renyi(rho, 1), renyi(rho, 2)]
        if triple is not None:
            rows = table_mp(*triple)
            h_e = renyi([rows[0][k] + rows[1][k] for k in range(3)], 1)
            row += [measure("std", rows), h_e - max(coles_piani, maj_shannon)]
        return [float(v) for v in row]


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
