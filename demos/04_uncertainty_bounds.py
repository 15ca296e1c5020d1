"""Certify the closed-form uncertainty bounds and cap Eve's information.

The three-outcome measurement lifts to a projective qutrit measurement
with one free phase per lift.  Minimizing the largest overlap between
two lifts gives a closed form in eta = cos(2 gamma); submatrix norms of
the optimized overlap matrix feed majorization bounds.  Together the
bounds floor the measurement entropy and hence cap the standard mutual
information from above.
"""

import math

import numpy as np

from fpbprobe import (
    DiscriminationConfig,
    build_povm,
    closed_form_i_std,
    coles_piani_bound,
    majorization_bound_direct_sum,
    majorization_bound_tensor,
    majorization_data,
    mu_factor,
    mutual_info_upper_bound,
    naimark_basis,
    optimize_s_max,
    outcome_probs,
    overlap_matrix,
    renyi_entropy,
    shannon_entropy,
    zeta_closed_form,
    zeta_coefficients,
)

print("=== the overlap matrix at the closed-form phase optimum delta* certifies the closed forms ===")
print(f"{'eta':>5} {'delta*':>9} {'max|W_ij|':>11} {'1/f (closed)':>13} {'zeta2':>9} {'c2 (closed)':>12}")
for eta in (0.0, 0.1, 0.2, 0.35, 0.5, 0.75, 1.0):
    _, (phi, phip) = optimize_s_max(eta)
    gamma = 0.5 * math.acos(eta)
    w = overlap_matrix(naimark_basis(gamma, phi), naimark_basis(gamma, phip))
    z = zeta_coefficients(w)
    print(
        f"{eta:5.2f} {phip - phi:9.6f} {np.abs(w).max():11.8f} {1 / mu_factor(eta):13.8f}"
        f" {z[1]:9.6f} {zeta_closed_form(eta)[1]:12.8f}"
    )

print("\n=== entropy floors vs eta ===")
print(f"{'eta':>5} {'pair bound':>11} {'improved H':>11} {'half H(omega)':>14} {'strongest':>10}")
for eta in np.linspace(0.0, 1.0, 11):
    eta = float(eta)
    md = majorization_data(zeta_closed_form(eta))
    cp = coles_piani_bound(eta)
    maj = 0.5 * shannon_entropy(md.omega)
    strongest = "majorize" if maj > cp else "improved"
    print(f"{eta:5.2f} {2 * np.log2(mu_factor(eta)):11.5f} {cp:11.5f} {maj:14.5f} {strongest:>10}")

print("\nthe improved bound wins in the mid range; above eta ~ 0.6 the")
print("direct-sum majorization floor takes over.")

print("\n=== order 2: the outcome entropy of the maximally mixed state against its floors ===")
print(f"{'eta':>5} {'R_2(outcomes)':>14} {'tensor':>9} {'direct sum':>11}")
for eta in (0.1, 0.3, 0.5, 0.7, 0.9):
    md = majorization_data(zeta_closed_form(eta))
    povm = build_povm(DiscriminationConfig(theta=0.5 * math.acos(eta), phi=0.0))
    outcomes = [np.trace(m).real / 2.0 for m in povm]  # Born rule on I/2
    print(f"{eta:5.2f} {renyi_entropy(outcomes, 2.0):14.5f} {majorization_bound_tensor(md, 2.0):9.5f}"
          f" {majorization_bound_direct_sum(md, 2.0):11.5f}")

print("\n=== capping the standard mutual information (xi = 0.5) ===")
header_i = "I(B';E')"
print(f"{'P_E':>6} {header_i:>10} {'upper bound':>12}")
for p_e in (0.01, 0.05, 0.1, 0.2, 0.3):
    cfg = DiscriminationConfig.from_error_rate(p_e, 0.5)
    q = outcome_probs(cfg)
    print(f"{p_e:6.3f} {closed_form_i_std(q):10.5f} {mutual_info_upper_bound(q, cfg.eta):12.5f}")
