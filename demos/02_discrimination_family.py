"""Sweep the discrimination family from unambiguous to minimum-error.

The ratio xi in [0, 1] interpolates between the unambiguous scheme
(xi = 0: no wrong answers, many inconclusive ones) and the Helstrom
scheme (xi = 1: always an answer, smallest possible error).  Every
member saturates the error floor at its own inconclusive rate.
"""

import numpy as np

from fpbprobe import (
    DiscriminationConfig,
    build_povm,
    error_lower_bound,
    outcome_probs,
)

P_E = 0.15
print(f"=== outcome triple across the family (P_E = {P_E}) ===")
print(f"{'xi':>5} {'Q_S':>9} {'Q_E':>9} {'Q_?':>9} {'error floor':>12} {'gap':>9}")
for xi in np.linspace(0.0, 1.0, 11):
    cfg = DiscriminationConfig.from_error_rate(P_E, float(xi))
    q = outcome_probs(cfg)
    floor = error_lower_bound(cfg.theta, q.q_inconclusive)
    print(
        f"{xi:5.2f} {q.q_success:9.5f} {q.q_error:9.5f} {q.q_inconclusive:9.5f}"
        f" {floor:12.5f} {q.q_error - floor:9.2e}"
    )

print("\nthe gap column shows saturation: the family achieves the least")
print("possible error at every inconclusive rate.")

print("\n=== measurement operators at xi = 0.5 ===")
cfg = DiscriminationConfig.from_error_rate(P_E, 0.5)
povm = build_povm(cfg)  # one (3, 2, 2) array: M_+, M_-, M_?
for name, m in zip(("M_+", "M_-", "M_?"), povm):
    print(f"{name} =")
    print(np.round(m, 5))
print(f"completeness residual: {np.abs(povm.sum(axis=0) - np.eye(2)).max():.2e}")
print(f"smallest eigenvalue over elements: {np.linalg.eigvalsh(povm).min():.2e}")

print("\n=== endpoints ===")
hel = outcome_probs(DiscriminationConfig.from_error_rate(P_E, 1.0))
idp = outcome_probs(DiscriminationConfig.from_error_rate(P_E, 0.0))
print(f"Helstrom: Q_? = {hel.q_inconclusive:.2e}, Q_E = {hel.q_error:.5f}")
print(f"unambiguous: Q_E = {idp.q_error:.2e}, Q_? = {idp.q_inconclusive:.5f}")
