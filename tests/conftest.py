import json
import math

import numpy as np
import pytest

from fpbprobe.discrimination import DiscriminationConfig, outcome_probs
from fpbprobe.entropy import closed_form_i_std, joint_from_outcome_probs
from fpbprobe.simulator import EVE_OUTCOMES, TALLY_AXES, SessionConfig, run_session
from fpbprobe.uncertainty import majorization_bound_direct_sum, majorization_bound_tensor


def haar_unitary(n, rng):
    """Haar-distributed n x n unitary via QR with phase correction."""
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d)).conj()


def random_density(n, rng, rank=None):
    """Random density matrix from a Wishart-like construction."""
    k = rank or n
    g = rng.normal(size=(n, k)) + 1j * rng.normal(size=(n, k))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_pure_density(n, rng):
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def renyi_bits(p, a):
    """Renyi entropy in bits over the last axis: Shannon at order 1 (0 log 0 = 0), min-entropy at inf."""
    p = np.asarray(p, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        if a == 1:
            return -np.where(p > 0, p * np.log2(p), 0.0).sum(axis=-1)
        if np.isinf(a):
            return -np.log2(p.max(axis=-1))
        return np.log2((p ** a).sum(axis=-1)) / (1 - a)


def mutual_information(table):
    """H(X) + H(Y) - H(X, Y) in bits over the last two axes, rows X and columns Y.

    The table is taken as it is, neither checked nor normalized.  The
    marginals and the joint take one log2 pass and one np.add.reduceat,
    the order in which simulator._cells_mutual_information sums, so on an
    empirical table it gives that function's bits.  A single table gives
    a Python float.
    """
    t = np.asarray(table, dtype=float)
    m, n = t.shape[-2:]
    parts = np.concatenate([t.sum(axis=-1), t.sum(axis=-2), t.reshape(t.shape[:-2] + (m * n,))], axis=-1)
    h = -np.add.reduceat(parts * np.log2(np.maximum(parts, math.ulp(0.0))), [0, m, m + n], axis=-1) + 0.0
    i = h[..., 0] + h[..., 1] - h[..., 2]
    return float(i) if i.ndim == 0 else i


def majorization_bound_reference(md, a):
    """The stronger majorization bound at order a: the direct-sum bound at
    orders up to 1, the larger of the tensor-product and direct-sum bounds
    above (at the infinite order the direct-sum bound is 0)."""
    direct = majorization_bound_direct_sum(md, a)
    return direct if a <= 1.0 else np.maximum(majorization_bound_tensor(md, a), direct)


def alpha_mi_reference(table, a, variant):
    """R_a(X) - R_a(X|Y) in bits, rows X given columns Y, by the definitions in plain floats.

    Variant 1 averages the columns' conditional entropies, variant 2 is
    R_a(X, Y) - R_a(Y), and variant 4 averages inside the logarithm; at
    order 1 each is the mutual information.  Leading axes of `table` index
    a stack.  It is numpy only, so a module that uses it needs no mpmath,
    and it subtracts O(1) entropies, so it is a float-speed reference away
    from order 1 and for values that are not small; `oracle.measure` is
    the accurate one.
    """
    t = np.asarray(table, dtype=float)
    py = t.sum(axis=-2)
    hx = renyi_bits(t.sum(axis=-1), a)
    if variant == 2 and a != 1:
        return hx + renyi_bits(py, a) - renyi_bits(t.reshape(t.shape[:-2] + (-1,)), a)
    cond = np.swapaxes(t / np.where(py > 0, py, 1.0)[..., None, :], -1, -2)  # an empty column gives zeros
    if variant == 4 and a != 1:
        return hx - np.log2((py * (cond ** a).sum(axis=-1)).sum(axis=-1)) / (1 - a)
    with np.errstate(invalid="ignore"):  # 0 * inf at an empty column, which np.where drops
        return hx - np.where(py > 0, py * renyi_bits(cond, a), 0.0).sum(axis=-1)


def probe_states_reference(error_rate, theta):
    """(2, 8) table: column k is the real, normalized probe state after Bob's
    carrier measurement in case k = bit*4 + basis_match*2 + bob_correct;
    theta is theta_grid(error_rate).

    Matched and correct leaves (cos theta, +/- sin theta), matched and
    flipped |->, mismatched outcomes (c, +/- sqrt(2) s) / sqrt(1 + 2 P_E)
    (correct bit) or |+> (flipped bit), with c = sqrt(1 - 2 P_E) and
    s = sqrt(2 P_E); the sign is + for bit 0.  This and the two functions
    below are the array construction the simulator used before it computed
    its cells in Python floats, kept as the reference for those bits.
    """
    c, s = math.sqrt(1.0 - 2.0 * error_rate), math.sqrt(2.0 * error_rate)
    norm = math.sqrt(1.0 + 2.0 * error_rate)
    tagged = math.sqrt(2.0) * s / norm
    sin_t = math.sin(theta)
    return np.array([
        [1.0, c / norm, 0.0, math.cos(theta)] * 2,
        [0.0, tagged, 1.0, sin_t, 0.0, -tagged, 1.0, -sin_t],
    ])


def case_probabilities_reference(error_rate, xi):
    """Eve's (plus, minus, inconclusive) probabilities per case as an (8, 3)
    array, one square (v_k . tau)^2 / (1 + eta) per measurement vector
    v_k = (sin gamma, +/- cos gamma) and (sqrt(2 eta), 0), and Bob's hit
    rates on (mismatched, matched) bases.  theta, gamma and eta are those
    of the analytic pipeline's configuration; the vectors are written here."""
    disc = DiscriminationConfig.from_error_rate(error_rate, xi)
    eta = disc.eta
    s, c = math.sin(disc.gamma), math.cos(disc.gamma)
    v = np.array([[s, c], [s, -c], [math.sqrt(2.0 * eta), 0.0]])
    a, b = probe_states_reference(error_rate, disc.theta)[:, :, None]
    eve = (a * v[:, 0] + b * v[:, 1]) ** 2 / (1.0 + eta)
    p_correct = np.array([(1.0 + 2.0 * error_rate) / 2.0, 1.0 - error_rate])
    return eve, p_correct


def cell_probabilities_reference(error_rate, xi):
    """The 24 tally-cell probabilities in tally order, assembled from the arrays above."""
    eve, p_correct = case_probabilities_reference(error_rate, xi)
    bob = np.stack([1.0 - p_correct, p_correct], axis=1)  # (basis_match, bob_correct)
    return (0.25 * bob[:, :, None, None] * eve.reshape(2, 2, 2, 3).transpose(1, 2, 0, 3)).ravel()


def simulate_report_reference(rounds, p_e, xi, seed):
    """`simulate` stdout for these flags, by the array recipe the command used
    before it computed its report in Python floats: the analytic table from
    joint_from_outcome_probs, the empirical one as the restricted counts over
    their total and its mutual information from mutual_information, the cell
    pulls over arrays, and json.dumps plus LF."""
    tally = run_session(SessionConfig(rounds, p_e, xi, seed))
    q = outcome_probs(DiscriminationConfig.from_error_rate(p_e, xi))
    analytic = joint_from_outcome_probs(q)
    counts = tally.restricted_counts
    restricted = int(counts.sum())
    joint = counts / restricted if restricted else None
    expected = restricted * analytic
    sigma = np.sqrt(expected * (1.0 - analytic))
    deviation = np.abs(counts - expected)
    pulls = np.divide(deviation, sigma, out=np.where(deviation > 0, np.inf, 0.0), where=sigma > 0)
    max_pull = float(pulls.max())
    matched = tally.matched_rounds
    report = {
        "config": {"rounds": rounds, "error_rate": p_e, "xi": xi, "seed": seed},
        "tally": {"rounds": tally.rounds, "index_order": list(TALLY_AXES), "eve_outcomes": list(EVE_OUTCOMES),
                  "counts": tally.counts.tolist()},
        "sift": {
            "matched_rounds": matched,
            "fraction": matched / rounds,
            "expected_fraction": 0.5,
            "pull_sigma": abs(matched - 0.5 * rounds) / (0.5 * math.sqrt(rounds)),
        },
        "restricted_rounds": restricted,
        "empirical_joint": None if joint is None else joint.tolist(),
        "analytic_joint": analytic.tolist(),
        "max_cell_pull_sigma": max_pull,
        "cells_within_4_sigma": max_pull <= 4.0,
        "mutual_information": {
            "empirical": None if joint is None else mutual_information(joint),
            "analytic": closed_form_i_std(q),
        },
    }
    return json.dumps(report, indent=2, sort_keys=True) + "\n"
