"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they complete.  Every tolerance is pinned here; nothing is deferred to
later calibration.
"""

import math
import time

import numpy as np
import pytest

from conftest import alpha_mi_reference
from fpbprobe import cli
from fpbprobe.discrimination import (
    DiscriminationConfig,
    build_povm,
    error_lower_bound,
    outcome_probs,
)
from fpbprobe.entropy import (
    binary_entropy,
    closed_form_i1,
    closed_form_i2,
    closed_form_i_std,
    joint_from_outcome_probs,
    mutual_information,
    renyi_entropy,
)
from fpbprobe.simulator import SessionConfig, run_session
from fpbprobe.uncertainty import (
    coles_piani_bound,
    majorization_data,
    majorization_entropy_bound,
    mu_factor,
    naimark_basis,
    optimize_s_max,
    overlap_matrix,
    zeta_closed_form,
    zeta_coefficients,
)


def report(number, ok, elapsed, budget, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" - {detail}" if detail else ""
    print(f"criterion {number:02d}: {status} ({elapsed:.2f}s, budget {budget:.0f}s){suffix}")
    assert ok, f"criterion {number} failed: {detail}"
    assert elapsed < budget, f"criterion {number} exceeded {budget}s budget ({elapsed:.2f}s)"


def i_std_at(p_e, xi):
    return closed_form_i_std(outcome_probs(DiscriminationConfig.from_error_rate(p_e, xi)))


def i3_v2_at(p_e, xi):
    """The order-3 v2 value that `curves` prints."""
    return closed_form_i2(3.0, outcome_probs(DiscriminationConfig.from_error_rate(p_e, xi)))


def renyi_rows(table, a):
    """Row-wise Renyi entropies of a (n, k) nonnegative table."""
    p = np.asarray(table, dtype=float)
    if a == 1:
        with np.errstate(divide="ignore", invalid="ignore"):
            logs = np.where(p > 0, np.log2(np.where(p > 0, p, 1.0)), 0.0)
        return -(p * logs).sum(axis=1)
    if math.isinf(a):
        return -np.log2(p.max(axis=1))
    return np.log2((p ** a).sum(axis=1)) / (1.0 - a)


def test_criterion_01_conclusive_identity():
    start = time.perf_counter()
    worst = 0.0
    for p_e in np.linspace(0.001, 1.0 / 3.0, 50):
        q = outcome_probs(DiscriminationConfig.from_error_rate(float(p_e), 0.0))
        i_std = closed_form_i_std(q)
        table = joint_from_outcome_probs(q).table
        for a in (2.0, 10.0, math.inf):
            worst = max(worst, abs(closed_form_i1(a, q) - i_std))
            worst = max(worst, abs(alpha_mi_reference(table, a, 1) - i_std))
    elapsed = time.perf_counter() - start
    report(1, worst <= 1e-10, elapsed, 1.0, f"max |I_a^(1) - I| = {worst:.2e}")


def test_criterion_02_landmark_0227():
    start = time.perf_counter()
    grid = np.arange(1e-4, 1.0 / 3.0, 1e-4)
    gaps = np.array([i_std_at(float(p), 1.0) - i_std_at(float(p), 0.0) for p in grid])
    p_star = float(grid[int(np.argmax(gaps))])
    elapsed = time.perf_counter() - start
    report(2, abs(p_star - 0.227) <= 0.002, elapsed, 5.0, f"maximizer at P_E = {p_star:.4f}")


def test_criterion_03_landmark_0108():
    start = time.perf_counter()

    def gap(p_e):
        return i3_v2_at(p_e, 1.0) - i3_v2_at(p_e, 0.75)

    lo, hi = 0.02, 0.3
    assert gap(lo) > 0 > gap(hi), "bisection bracket must straddle the crossing"
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if gap(mid) > 0:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    elapsed = time.perf_counter() - start
    report(3, abs(root - 0.108) <= 0.003, elapsed, 1.0, f"crossing at P_E = {root:.4f}")


def test_criterion_04_shor_preskill_zero():
    start = time.perf_counter()
    lo, hi = 0.05, 0.2
    f = lambda d: 1.0 - 2.0 * binary_entropy(d)
    assert f(lo) > 0 > f(hi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    elapsed = time.perf_counter() - start
    report(4, abs(root - 0.110) <= 5e-4, elapsed, 1.0, f"rate zero at delta = {root:.5f}")


def test_criterion_05_closed_form_certification():
    start = time.perf_counter()
    worst_f = worst_c2 = 0.0
    for eta in np.linspace(0.0, 1.0, 21):
        eta = float(eta)
        # optimize_s_max returns 1/f by construction; the overlap matrix
        # rebuilt at its phases is what certifies the closed form
        _, (phi, phi_prime) = optimize_s_max(eta)
        gamma = 0.5 * math.acos(min(eta, 1.0))
        w = overlap_matrix(naimark_basis(gamma, phi), naimark_basis(gamma, phi_prime))
        worst_f = max(worst_f, abs(np.abs(w).max() - 1.0 / mu_factor(eta)))
        z = zeta_coefficients(w)
        worst_c2 = max(worst_c2, abs(z[1] - zeta_closed_form(eta)[1]))
    # branch junctions: adjacent closed forms agree to double precision
    f_knots = (
        abs((1 + 0.2) / (1 - 0.2) - math.sqrt((2 - 0.2) / (1 - 0.2))),
        abs(math.sqrt((2 - 0.5) / (1 - 0.5)) - math.sqrt((2 - 0.5) / 0.5)),
    )
    c2_knots = (
        abs(math.sqrt(1 + 2 * 0.2 - 3 * 0.2**2) / (1 + 0.2) - math.sqrt((2 - 2 * 0.2) / (2 - 0.2))),
        abs(math.sqrt((2 - 2 * 0.5) / (2 - 0.5)) - 1 / math.sqrt(2 - 0.5)),
    )
    knots_ok = max(*f_knots, *c2_knots) <= 1e-12
    elapsed = time.perf_counter() - start
    ok = worst_f <= 1e-5 and worst_c2 <= 1e-5 and knots_ok
    report(
        5, ok, elapsed, 60.0,
        f"max |s* - 1/f| = {worst_f:.2e}, max |zeta2 - c2| = {worst_c2:.2e}, knots within 1e-12",
    )


def test_criterion_06_uncertainty_soundness():
    start = time.perf_counter()
    rng = np.random.default_rng(606)
    rhos = []
    for _ in range(500):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        v /= np.linalg.norm(v)
        rhos.append(np.outer(v, v.conj()))
    for _ in range(500):
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        m = g @ g.conj().T
        rhos.append(m / np.trace(m).real)
    rhos = np.array(rhos)

    pairs = ((1.0, 1.0), (2.0, 2.0 / 3.0), (math.inf, 0.5), (1.5, 0.75))
    orders = (0.5, 1.0, 2.0, 10.0, math.inf)
    worst = math.inf
    for eta in np.linspace(0.0, 1.0, 21):
        eta = float(eta)
        gamma = 0.5 * math.acos(min(eta, 1.0))
        povm = build_povm(DiscriminationConfig(theta=gamma, phi=0.0))
        probs = np.einsum("kab,nba->nk", povm, rhos).real
        probs = np.clip(probs, 0.0, None)
        entropies = {a: renyi_rows(probs, a) for a in (0.5, 2.0 / 3.0, 0.75, 1.0, 1.5, 2.0, 10.0, math.inf)}
        for a, b in pairs:
            worst = min(worst, float((entropies[a] + entropies[b]).min() - 2 * np.log2(mu_factor(eta))))
        worst = min(worst, float(entropies[1.0].min() - coles_piani_bound(eta)))
        md = majorization_data(zeta_closed_form(eta))
        for a in orders:
            worst = min(worst, float(entropies[a].min() - majorization_entropy_bound(md, a)))
    elapsed = time.perf_counter() - start
    report(6, worst >= -1e-9, elapsed, 30.0, f"minimum slack = {worst:.2e}")


def test_criterion_07_majorization_relations():
    start = time.perf_counter()
    rng = np.random.default_rng(707)
    failures = 0
    for _ in range(200):
        z = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        qmat, r = np.linalg.qr(z)
        u = qmat * (np.diagonal(r) / np.abs(np.diagonal(r))).conj()
        md = majorization_data(zeta_coefficients(u))
        g = rng.normal(size=(100, 3, 3)) + 1j * rng.normal(size=(100, 3, 3))
        rhos = np.einsum("nab,ncb->nac", g, g.conj())
        rhos /= np.trace(rhos, axis1=1, axis2=2).real[:, None, None]
        p = np.clip(np.diagonal(rhos, axis1=1, axis2=2).real, 0.0, None)
        rotated = np.einsum("ia,nab,jb->nij", u.conj().T, rhos, u.T)
        q = np.clip(np.diagonal(rotated, axis1=1, axis2=2).real, 0.0, None)

        tensor = np.sort((p[:, :, None] * q[:, None, :]).reshape(-1, 9), axis=1)[:, ::-1]
        target = np.sort(np.pad(md.omega_prime.probs, (0, 6)))[::-1]
        if not np.all(np.cumsum(target)[None, :] >= np.cumsum(tensor, axis=1) - 1e-9):
            failures += 1
        direct = np.sort(np.concatenate((p, q), axis=1), axis=1)[:, ::-1]
        target2 = np.sort(np.pad(np.concatenate(([1.0], md.omega.probs)), (0, 2)))[::-1]
        if not np.all(np.cumsum(target2)[None, :] >= np.cumsum(direct, axis=1) - 1e-9):
            failures += 1
    elapsed = time.perf_counter() - start
    report(7, failures == 0, elapsed, 30.0, f"{failures} violating (matrix, relation) pairs")


def test_criterion_08_closed_form_pipeline_agreement():
    start = time.perf_counter()
    worst = 0.0
    for p_e in np.linspace(0.001, 1.0 / 3.0, 334):
        for xi in (0.0, 0.25, 0.5, 0.75, 1.0):
            q = outcome_probs(DiscriminationConfig.from_error_rate(float(p_e), xi))
            joint = joint_from_outcome_probs(q)
            worst = max(worst, abs(closed_form_i_std(q) - mutual_information(joint)))
            for a in (2.0, 10.0, math.inf):
                worst = max(worst, abs(closed_form_i1(a, q) - alpha_mi_reference(joint.table, a, 1)))
    elapsed = time.perf_counter() - start
    report(8, worst <= 1e-10, elapsed, 5.0, f"max closed-form deviation = {worst:.2e}")


def test_criterion_09_monotonicity():
    start = time.perf_counter()
    rng = np.random.default_rng(909)
    orders = list(np.linspace(0.1, 5.0, 50)) + [8.0, 20.0, 100.0, math.inf]
    renyi_ok = True
    for _ in range(20):
        p = rng.random(4)
        p /= p.sum()
        vals = [renyi_entropy(p, a) for a in orders]
        renyi_ok &= all(x >= y - 1e-10 for x, y in zip(vals, vals[1:]))
    i1_ok = True
    i1_orders = [0.3, 0.7, 1.0, 1.5, 2.0, 4.0, 10.0, 50.0, math.inf]
    for p_e in np.linspace(0.001, 1.0 / 3.0, 12):
        for xi in (0.0, 0.25, 0.5, 0.75, 1.0):
            q = outcome_probs(DiscriminationConfig.from_error_rate(float(p_e), xi))
            vals = [closed_form_i1(a, q) for a in i1_orders]
            i1_ok &= all(x <= y + 1e-10 for x, y in zip(vals, vals[1:]))
    elapsed = time.perf_counter() - start
    report(9, renyi_ok and i1_ok, elapsed, 5.0,
           "Renyi nonincreasing in order; first-type measure nondecreasing")


def test_criterion_10_monte_carlo_oracle():
    start = time.perf_counter()
    worst_pull = 0.0
    zero_cell_violation = False
    for p_e in (0.05, 0.15, 0.25):
        for xi in (0.0, 0.5, 1.0):
            cfg = SessionConfig(rounds=10**6, error_rate=p_e, xi=xi, seed=42)
            tally = run_session(cfg)
            analytic = joint_from_outcome_probs(outcome_probs(DiscriminationConfig.from_error_rate(cfg.error_rate, cfg.xi))).table
            counts = tally.restricted_counts
            total = counts.sum()
            for idx in np.ndindex(2, 3):
                sigma = math.sqrt(total * analytic[idx] * (1.0 - analytic[idx]))
                dev = abs(counts[idx] - total * analytic[idx])
                if sigma == 0.0:
                    zero_cell_violation |= dev > 0
                else:
                    worst_pull = max(worst_pull, dev / sigma)
            sift_pull = abs(tally.matched_rounds - 0.5 * cfg.rounds) / (0.5 * math.sqrt(cfg.rounds))
            worst_pull = max(worst_pull, sift_pull)
    elapsed = time.perf_counter() - start
    ok = worst_pull <= 4.0 and not zero_cell_violation
    report(10, ok, elapsed, 60.0, f"worst pull = {worst_pull:.2f} sigma")


def test_criterion_11_povm_structural_suite():
    start = time.perf_counter()
    worst_resid = worst_psd = worst_sat = 0.0
    for theta in np.linspace(0.0, math.pi / 4.0, 100):
        for frac in np.linspace(0.0, 1.0, 100):
            cfg = DiscriminationConfig(float(theta), float(frac) * (math.pi / 4.0 - float(theta)))
            povm = build_povm(cfg)
            worst_resid = max(worst_resid, np.abs(povm.sum(axis=0) - np.eye(2)).max())
            worst_psd = max(worst_psd, -np.linalg.eigvalsh(povm).min())
            q = outcome_probs(cfg)
            bound = error_lower_bound(cfg.theta, q.q_inconclusive)
            worst_sat = max(worst_sat, abs(q.q_error - bound))
    elapsed = time.perf_counter() - start
    ok = worst_resid <= 1e-10 and worst_psd <= 1e-10 and worst_sat <= 1e-10
    report(
        11, ok, elapsed, 10.0,
        f"residual {worst_resid:.1e}, psd slack {worst_psd:.1e}, saturation gap {worst_sat:.1e}",
    )


def test_criterion_12_figure_reproduction_smoke(tmp_path):
    start = time.perf_counter()
    curves_path = tmp_path / "curves.csv"
    assert cli.main(["curves", "--out", str(curves_path)]) == 0
    header, *rows = curves_path.read_text().strip().split("\n")
    assert header == "p_e,xi,measure,order,value"
    values = {}
    for row in rows:
        p_e, xi, measure, order, value = row.split(",")
        values.setdefault((p_e, measure, order), {})[xi] = float(value)
    spreads = {"std": [], "v1": []}
    for (p_e, measure, order), by_xi in values.items():
        if measure in spreads and len(by_xi) == 5:
            spreads[measure].append(max(by_xi.values()) - min(by_xi.values()))
    v1_spread = np.array(spreads["v1"])
    std_spread = np.array(spreads["std"])
    divergence_ok = bool(
        np.all(v1_spread >= std_spread - 1e-12)
        and (v1_spread - std_spread).mean() > 0.005
    )

    bounds_eta = tmp_path / "bounds_eta.csv"
    assert cli.main(["bounds", "--out", str(bounds_eta)]) == 0
    header_eta, *eta_rows = bounds_eta.read_text().strip().split("\n")
    assert header_eta.startswith("x,mu_bound,coles_piani,maj_shannon")
    cp_beats_maj_somewhere = False
    maj_dominates_above = True
    for row in eta_rows:
        cols = row.split(",")
        x, cp, maj = float(cols[0]), float(cols[2]), float(cols[3])
        if x < 0.6 and cp > maj:
            cp_beats_maj_somewhere = True
        if 0.62 <= x <= 0.96 and maj <= cp:
            maj_dominates_above = False

    bounds_pe = tmp_path / "bounds_pe.csv"
    assert cli.main(["bounds", "--variable", "p-e", "--xi", "0.5", "--out", str(bounds_pe)]) == 0
    _, *pe_rows = bounds_pe.read_text().strip().split("\n")
    upper_dominates = all(
        float(r.split(",")[9]) >= float(r.split(",")[8]) - 1e-10 for r in pe_rows
    )

    elapsed = time.perf_counter() - start
    ok = divergence_ok and cp_beats_maj_somewhere and maj_dominates_above and upper_dominates
    report(
        12, ok, elapsed, 10.0,
        "schema valid; v1 spreads exceed std; bound orderings match the figure statements",
    )
