"""Compare the standard mutual information with its Renyi-type rivals.

The eavesdropper's haul over the error-free sifted bits can be scored
with the standard mutual information or with alpha-measures built from
three conditional Renyi entropy variants.  The alpha-measures reorder
the discrimination schemes, which is exactly why they are unreliable
performance scores: curves that stay close (or never cross) under the
standard measure spread out or intersect under the alternatives.

Every number comes from the closed forms over whole grids: one call per
measure covers every (P_E, xi) point, and for v2 and v4 every order too.
"""

import numpy as np

from fpbprobe import (
    closed_form_i1,
    closed_form_i2,
    closed_form_i4,
    closed_form_i_std,
    outcome_probs_grid,
    shor_preskill_rate,
)

XIS = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
ORDERS = np.array([2.0, 3.0])  # the last axis of the v2 and v4 grids


def measures(p_e, xi):
    """Every measure over broadcast P_E and xi arrays.

    v2 and v4 carry one more axis, over ORDERS.
    """
    q, _ = outcome_probs_grid(np.asarray(p_e)[..., None], np.asarray(xi)[..., None])
    return {
        "std": closed_form_i_std(q)[..., 0],
        "v1_a2": closed_form_i1(2.0, q)[..., 0],
        "v1_inf": closed_form_i1(np.inf, q)[..., 0],
        "v2": closed_form_i2(ORDERS, q),
        "v4": closed_form_i4(ORDERS, q),
    }


print("=== information measures at P_E = 0.1 ===")
print(f"{'xi':>5} {'std':>8} {'v1 a=2':>8} {'v1 inf':>8} {'v2 a=2':>8} {'v4 a=2':>8}")
m = measures(0.1, XIS)
for k, xi in enumerate(XIS):
    print(
        f"{xi:5.2f} {m['std'][k]:8.5f} {m['v1_a2'][k]:8.5f} {m['v1_inf'][k]:8.5f}"
        f" {m['v2'][k, 0]:8.5f} {m['v4'][k, 0]:8.5f}"
    )

print("\nthe std column barely moves with xi; the first-type columns fan out.")

print("\n=== spread over xi (max - min), std vs first-type order 2 ===")
print(f"{'P_E':>6} {'std spread':>11} {'v1 spread':>10}")
p_es = np.array([0.02, 0.05, 0.1, 0.2, 0.3])
m = measures(p_es[:, None], XIS)
for p_e, std_spread, v1_spread in zip(p_es, np.ptp(m["std"], axis=1), np.ptp(m["v1_a2"], axis=1)):
    print(f"{p_e:6.3f} {std_spread:11.5f} {v1_spread:10.5f}")

print("\n=== landmark: largest Helstrom-vs-unambiguous gap (std measure) ===")
grid = np.arange(1e-4, 1 / 3, 1e-4)
std = measures(grid[:, None], [0.0, 1.0])["std"]
gaps = std[:, 1] - std[:, 0]
best = float(grid[int(np.argmax(gaps))])
print(f"gap maximal at P_E = {best:.4f} (gap = {gaps.max():.5f} bits)")

print("\n=== crossing of the symmetric measure, xi = 1 vs 0.75 ===")
# One bisection for every order at once: row k of the grid is order k.
lo, hi = np.full(len(ORDERS), 0.02), np.full(len(ORDERS), 0.3)
for _ in range(60):
    mid = 0.5 * (lo + hi)
    q, _ = outcome_probs_grid(mid[:, None], [1.0, 0.75])
    v2 = closed_form_i2(ORDERS[:, None], q)
    above = v2[:, 0] > v2[:, 1]
    lo, hi = np.where(above, mid, lo), np.where(above, hi, mid)
for a, p_e in zip(ORDERS, 0.5 * (lo + hi)):
    print(f"order {a:g}: curves cross at P_E = {p_e:.4f}")
print("the order-3 crossing is the quoted P_E ~ 0.108 landmark; the crossing")
print("moves to lower P_E as the order rises.")
print("under the standard measure these curves never cross; the symmetric")
print("order-2 measure already inverts the scheme ranking beyond its crossing.")

print("\n=== one-way key-rate context ===")
for delta in (0.0, 0.05, 0.11, 0.2):
    print(f"rate at delta = {delta:4.2f}: {shor_preskill_rate(delta):.5f}")
