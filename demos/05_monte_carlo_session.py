"""Run a seeded Monte-Carlo session and check it against the analytics.

Every probability in the analytic pipeline is also observable as a
frequency in simulated sessions; this script draws the tally of one
million rounds and compares the empirical (b', e') table against the
closed forms, cell by cell, in multinomial standard errors.
"""

import math

import numpy as np

from fpbprobe import (
    DiscriminationConfig,
    SessionConfig,
    closed_form_i_std,
    empirical_mutual_information,
    joint_from_outcome_probs,
    outcome_probs,
    run_session,
)

cfg = SessionConfig(rounds=10**6, error_rate=0.15, xi=0.5, seed=42)
print(f"session: {cfg.rounds} rounds, P_E = {cfg.error_rate}, xi = {cfg.xi}, seed = {cfg.seed}")

tally = run_session(cfg)
matched = tally.matched_rounds
print(f"\nbasis-matched rounds: {matched} ({matched / cfg.rounds:.4f}, expect 0.5)")
errors = tally.sifted_error_rounds
print(f"sifted errors: {errors} ({errors / matched:.4f}, expect {cfg.error_rate})")

q = outcome_probs(DiscriminationConfig.from_error_rate(cfg.error_rate, cfg.xi))
analytic = joint_from_outcome_probs(q)
counts = tally.restricted_counts
total = counts.sum()
print(f"error-free sifted rounds feeding the (b', e') table: {total}")

print("\ncell-by-cell comparison (empirical vs analytic, pull in sigmas):")
labels = [("b'=0", 0), ("b'=1", 1)]
cols = ("e'=0", "e'=1", "e'=?")
for name, b in labels:
    parts = []
    for e in range(3):
        p = analytic[b, e]
        emp = counts[b, e] / total
        sigma = math.sqrt(total * p * (1 - p))
        pull = abs(counts[b, e] - total * p) / sigma if sigma > 0 else 0.0
        parts.append(f"{cols[e]}: {emp:.5f}/{p:.5f} ({pull:.2f}s)")
    print(f"  {name}  " + "  ".join(parts))

emp_mi = empirical_mutual_information(tally)
ana_mi = closed_form_i_std(q)
print(f"\nmutual information: empirical {emp_mi:.6f}, analytic {ana_mi:.6f}")
print(f"difference: {abs(emp_mi - ana_mi):.2e} bits")

rerun = run_session(cfg)
print(f"\nbit-exact reproducibility: {np.array_equal(rerun.counts, tally.counts)}")
