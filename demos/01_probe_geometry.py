"""Walk through the probe geometry: the tagged outputs and their angle.

The attack couples a probe qubit to each intercepted carrier through a
controlled flip tuned to an induced bit error rate P_E.  Afterwards the
probe holds, once normalized, one of two states (cos theta, +/- sin theta)
tagged to the carrier bit, and every analytic result reads the probe
through theta alone: cos(2 theta) = (1 - 3 P_E) / (1 - P_E).
"""

import math

import numpy as np

from fpbprobe import theta_grid

print("=== tagged outputs and separation angle ===")
print(f"{'P_E':>6} {'theta':>9} {'cos2theta':>10} {'(1-3P_E)/(1-P_E)':>17}   tagged states (cos theta, +/- sin theta)")
p_e = np.linspace(0.0, 1 / 3, 9)
for p, theta in zip(p_e, theta_grid(p_e)):
    c, s = math.cos(theta), math.sin(theta)
    print(
        f"{p:6.3f} {theta:9.5f} {math.cos(2 * theta):10.5f} {(1 - 3 * p) / (1 - p):17.5f}"
        f"   ({c:.5f}, +/-{s:.5f})"
    )

print("\nnote: the overlap cos 2theta of the tagged states reaches 0 at P_E = 1/3,")
print("the domain edge, where theta = pi/4 and the two states are orthogonal.")

theta = theta_grid(0.2)
print(f"\ndisturbance P_E = 0.2 maps to separation angle theta = {theta:.6f} rad (cos 2theta = {math.cos(2 * theta):.6f})")

try:
    theta_grid(0.4)
except ValueError as exc:
    print(f"P_E beyond 1/3 is refused: {exc}")
