import math
from itertools import combinations

import numpy as np
import pytest

from fpbprobe.discrimination import DiscriminationConfig, OutcomeProbs, build_povm, outcome_probs, outcome_probs_grid
from fpbprobe.entropy import binary_entropy, renyi_entropy, shannon_entropy
from fpbprobe.uncertainty import (
    BOUNDS_COLUMNS,
    bounds_table,
    coles_piani_bound,
    majorization_bound_direct_sum,
    majorization_bound_tensor,
    majorization_data,
    majorization_entropy_bound,
    mu_factor,
    mutual_info_upper_bound,
    naimark_basis,
    optimize_s_max,
    overlap_matrix,
    zeta_closed_form,
    zeta_coefficients,
)
from fpbprobe.entropy import closed_form_i_std, Order

from conftest import haar_unitary, random_density, random_pure_density

ETA_GRID = np.linspace(0.0, 1.0, 11)


def povm_probs_for_state(eta, rho):
    gamma = 0.5 * math.acos(min(max(eta, 0.0), 1.0))
    povm = build_povm(DiscriminationConfig(theta=gamma, phi=0.0))
    return np.array([np.trace(m @ rho).real for m in povm])


class TestNaimarkBasis:
    def test_orthonormal_on_random_parameters(self, rng):
        for _ in range(20):
            gamma = rng.uniform(0.0, math.pi / 4)
            ext = naimark_basis(gamma, rng.uniform(0, 2 * math.pi))
            gram = ext.basis.conj() @ ext.basis.T
            np.testing.assert_allclose(gram, np.eye(3), atol=1e-10)

    def test_eta_zero_ancilla_component(self):
        ext = naimark_basis(math.pi / 4, 0.7)
        assert abs(ext.basis[2, 2]) == pytest.approx(1.0, abs=1e-12)

    def test_projection_recovers_povm(self, rng):
        for _ in range(10):
            gamma = rng.uniform(0.01, math.pi / 4)
            ext = naimark_basis(gamma, rng.uniform(0, 2 * math.pi))
            povm = build_povm(DiscriminationConfig(theta=gamma, phi=0.0))
            for row, element in zip(ext.basis, povm):
                head = row[:2]
                np.testing.assert_allclose(np.outer(head, head.conj()), element, atol=1e-10)

    def test_phase_only_in_third_components(self):
        a = naimark_basis(0.5, 0.0).basis
        b = naimark_basis(0.5, 1.3).basis
        np.testing.assert_allclose(a[:, :2], b[:, :2], atol=1e-15)
        assert np.abs(a[:, 2] - b[:, 2]).max() > 0.1

    def test_rejects_gamma_out_of_range(self):
        with pytest.raises(ValueError):
            naimark_basis(-0.1, 0.0)
        with pytest.raises(ValueError):
            naimark_basis(1.0, 0.0)


class TestOverlapMatrix:
    def test_equal_phases_identity(self):
        ext = naimark_basis(0.4, 1.0)
        np.testing.assert_allclose(overlap_matrix(ext, ext), np.eye(3), atol=1e-12)

    def test_unitary_for_random_phases(self, rng):
        for _ in range(20):
            gamma = rng.uniform(0.01, math.pi / 4)
            w = overlap_matrix(
                naimark_basis(gamma, rng.uniform(0, 2 * math.pi)),
                naimark_basis(gamma, rng.uniform(0, 2 * math.pi)),
            )
            np.testing.assert_allclose(w.conj().T @ w, np.eye(3), atol=1e-10)

    def test_rejects_mismatched_gamma(self):
        with pytest.raises(ValueError):
            overlap_matrix(naimark_basis(0.3, 0.0), naimark_basis(0.4, 0.0))

    def test_conjugate_symmetry(self, rng):
        # overlaps are inner products: swapping the two bases conjugates them
        for _ in range(20):
            gamma = rng.uniform(0.0, math.pi / 4)
            a = naimark_basis(gamma, rng.uniform(0, 2 * math.pi))
            b = naimark_basis(gamma, rng.uniform(0, 2 * math.pi))
            np.testing.assert_allclose(overlap_matrix(a, b), overlap_matrix(b, a).conj().T, atol=1e-12)

    def test_moduli_depend_only_on_phase_difference(self, rng):
        # optimize_s_max's derivation fixes the first phase at 0 on the strength of this
        for eta in (0.0, 0.1, 0.3, 0.5, 0.8, 1.0):
            gamma = 0.5 * math.acos(eta)
            for _ in range(60):
                phi, phi_prime, shift = rng.uniform(-2 * math.pi, 2 * math.pi, 3)
                w = overlap_matrix(naimark_basis(gamma, phi), naimark_basis(gamma, phi_prime))
                shifted = overlap_matrix(
                    naimark_basis(gamma, phi + shift), naimark_basis(gamma, phi_prime + shift)
                )
                assert np.abs(np.abs(shifted) - np.abs(w)).max() <= 1e-14

    def test_squared_moduli_affine_in_cos_delta(self, rng):
        # optimize_s_max's derivation starts here: |W_ij(delta)|^2 = a_ij + b_ij cos(delta),
        # with a + b and a - b read off at delta = 0 and delta = pi
        for eta in (0.0, 0.1, 0.3, 0.5, 0.8, 1.0):
            gamma = 0.5 * math.acos(eta)
            origin = naimark_basis(gamma, 0.0)
            at_0 = np.abs(overlap_matrix(origin, naimark_basis(gamma, 0.0))) ** 2
            at_pi = np.abs(overlap_matrix(origin, naimark_basis(gamma, math.pi))) ** 2
            for delta in rng.uniform(0.0, 2 * math.pi, 20):
                w = np.abs(overlap_matrix(origin, naimark_basis(gamma, delta))) ** 2
                line = 0.5 * (at_0 + at_pi) + 0.5 * (at_0 - at_pi) * math.cos(delta)
                assert np.abs(w - line).max() <= 1e-15

    def test_peak_overlap_never_beats_optimum(self, rng):
        for eta in (0.05, 0.2, 0.4, 0.7, 0.95):
            gamma = 0.5 * math.acos(eta)
            for _ in range(40):
                w = overlap_matrix(
                    naimark_basis(gamma, rng.uniform(0, 2 * math.pi)),
                    naimark_basis(gamma, rng.uniform(0, 2 * math.pi)),
                )
                assert np.abs(w).max() >= 1 / mu_factor(eta) - 1e-12


class TestOptimizeSMax:
    def test_knot_point_two_tenths(self):
        val, _ = optimize_s_max(0.2)
        assert val == pytest.approx(1 / 1.5, abs=1e-6)

    def test_knot_point_half(self):
        val, _ = optimize_s_max(0.5)
        assert val == pytest.approx(1 / math.sqrt(3), abs=1e-6)

    def test_tiny_eta_oracle_settles_limit(self):
        # the optimum degenerates towards 1 as eta -> 0 (bound -> 0)
        eta = 1e-6
        val, _ = optimize_s_max(eta)
        assert val == pytest.approx((1 - eta) / (1 + eta), abs=1e-6)

    def test_matches_closed_form_on_grid(self):
        for eta in np.linspace(0.0, 1.0, 9):
            val, _ = optimize_s_max(float(eta))
            assert val == pytest.approx(1 / mu_factor(float(eta)), abs=1e-6)

    def test_minimizer_phases_reproduce_value(self):
        eta = 0.35
        val, (phi, phi_prime) = optimize_s_max(eta)
        gamma = 0.5 * math.acos(eta)
        w = overlap_matrix(naimark_basis(gamma, phi), naimark_basis(gamma, phi_prime))
        assert np.abs(w).max() == pytest.approx(val, abs=1e-12)

    @pytest.mark.parametrize("eta", [0.0, 0.2, 0.5, 1.0])
    def test_first_phase_zero_and_value_rebuilds(self, eta):
        val, (phi, phi_prime) = optimize_s_max(eta)
        assert phi == 0.0
        assert 0.0 <= phi_prime < 2 * math.pi
        gamma = 0.5 * math.acos(eta)
        w = overlap_matrix(naimark_basis(gamma, phi), naimark_basis(gamma, phi_prime))
        assert np.abs(w).max() == pytest.approx(val, abs=1e-12)

    def test_rejects_bad_arguments(self):
        # the full input policy for eta is in test_checks
        with pytest.raises(ValueError, match=r"\beta\b"):
            optimize_s_max(1.5)

    def test_exact_over_the_default_eta_grid(self):
        # The value is the closed form and the phases rebuild it, both to
        # 1e-15 over the 501 eta of `bounds`; a dense delta scan, which
        # shares nothing with the envelope, never finds a lower peak.
        for eta in np.linspace(0.0, 1.0, 501):
            eta = float(eta)
            val, (phi, phi_prime) = optimize_s_max(eta)
            assert abs(val - 1.0 / mu_factor(eta)) <= 1e-15, eta
            gamma = 0.5 * math.acos(eta)
            w = overlap_matrix(naimark_basis(gamma, phi), naimark_basis(gamma, phi_prime))
            assert abs(np.abs(w).max() - val) <= 1e-15, eta
        deltas = np.arange(2 ** 16) * (2 * math.pi / 2 ** 16)
        for eta in (0.0, 0.05, 0.2, 0.5, 0.7, 1.0):
            origin = naimark_basis(0.5 * math.acos(eta), 0.0).basis
            turned = np.repeat(origin[None], deltas.size, axis=0)
            turned[:, :, 2] *= np.exp(1j * deltas)[:, None]  # the phase enters only the third column
            peaks = np.abs(np.einsum("ik,njk->nij", origin.conj(), turned)).max(axis=(1, 2))
            assert peaks.min() >= optimize_s_max(eta)[0] - 1e-15, eta

    def test_derivation(self):
        # The closed form in optimize_s_max's docstring, symbolically: its
        # nine lines (1 + eta)^2 |W_ij|^2 are those of the phase-0 basis rows,
        # each named pair crosses at u*, where u* + 1 has the sign of
        # 5 eta - 1, the crossing is mu_factor's branch there, and below
        # eta = 0.2 the rising peak line starts from mu_factor^-2 at u = -1.
        sp = pytest.importorskip("sympy")
        eta, u = sp.symbols("eta", positive=True), sp.Symbol("u", real=True)
        s, c = sp.sqrt(1 - eta) / sp.sqrt(2), sp.sqrt(1 + eta) / sp.sqrt(2)
        rows = ((s, c, sp.sqrt(eta)), (s, -c, sp.sqrt(eta)), (sp.sqrt(2 * eta), 0, -sp.sqrt(1 - eta)))
        table = {
            (0, 0): 1 + eta**2 + 2 * eta * u,
            (0, 1): 2 * eta**2 * (1 - u),
            (0, 2): 2 * eta * (1 - eta) * (1 - u),
            (2, 2): 4 * eta**2 + (1 - eta) ** 2 + 4 * eta * (1 - eta) * u,
        }
        table.update({(1, 1): table[0, 0], (1, 0): table[0, 1], (1, 2): table[0, 2],
                      (2, 0): table[0, 2], (2, 1): table[0, 2]})
        for (i, j), line in table.items():
            head, tail = rows[i][0] * rows[j][0] + rows[i][1] * rows[j][1], rows[i][2] * rows[j][2]
            assert sp.expand(head**2 + tail**2 + 2 * head * tail * u - line) == 0, (i, j)
        u_star = -(3 * eta**2 - 2 * eta + 1) / (2 * eta * (2 - eta))
        assert sp.cancel(u_star + 1 - (1 - eta) * (5 * eta - 1) / (2 * eta * (2 - eta))) == 0
        for rising, falling, mu_squared in (((0, 0), (0, 2), (2 - eta) / (1 - eta)),
                                            ((2, 2), (0, 1), (2 - eta) / eta)):
            (cross,) = sp.solve(table[rising] - table[falling], u)
            assert sp.cancel(cross - u_star) == 0
            assert sp.cancel(table[rising].subs(u, u_star) / (1 + eta) ** 2 - 1 / mu_squared) == 0
        assert sp.cancel(table[0, 0].subs(u, -1) / (1 + eta) ** 2 - ((1 - eta) / (1 + eta)) ** 2) == 0

    def test_s_max_invariant_under_global_rephasing(self, rng):
        gamma = 0.5 * math.acos(0.3)
        e1 = naimark_basis(gamma, 0.4)
        e2 = naimark_basis(gamma, 2.1)
        w = overlap_matrix(e1, e2)
        for _ in range(5):
            chi = rng.uniform(0, 2 * math.pi)
            rephased = type(e2)(e2.gamma, e2.phase, e2.basis * np.exp(1j * chi))
            w2 = overlap_matrix(e1, rephased)
            assert np.abs(w2).max() == pytest.approx(np.abs(w).max(), abs=1e-12)


class TestMuBound:
    def test_branch_junctions_agree(self):
        lo, hi = (1 + 0.2) / (1 - 0.2), math.sqrt((2 - 0.2) / (1 - 0.2))
        assert abs(lo - hi) <= 1e-12
        lo2, hi2 = math.sqrt((2 - 0.5) / (1 - 0.5)), math.sqrt((2 - 0.5) / 0.5)
        assert abs(lo2 - hi2) <= 1e-12

    def test_trivial_endpoints(self):
        assert 2 * np.log2(mu_factor(1.0)) == pytest.approx(0.0, abs=1e-12)
        assert 2 * np.log2(mu_factor(0.0)) == pytest.approx(0.0, abs=1e-12)

    def test_peak_near_half(self):
        etas = np.linspace(0.01, 0.99, 99)
        vals = [2 * np.log2(mu_factor(float(e))) for e in etas]
        assert abs(etas[int(np.argmax(vals))] - 0.5) < 0.02

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            mu_factor(1.2)


class TestColesPiani:
    def test_no_correction_above_knot(self):
        assert coles_piani_bound(0.3) == pytest.approx(math.log2(mu_factor(0.3)), abs=1e-15)
        assert coles_piani_bound(0.2) == pytest.approx(math.log2(1.5), abs=1e-15)

    def test_correction_positive_below_knot(self):
        assert coles_piani_bound(0.1) > math.log2(mu_factor(0.1)) + 1e-3

    def test_eta_zero_limit(self):
        assert coles_piani_bound(0.0) == pytest.approx(0.0, abs=1e-15)

    def test_dominates_generic_form_at_optimal_phases(self):
        # with the second-largest modulus counted with duplicates the generic correction vanishes
        # (the two diagonal overlaps always tie), so the closed form with
        # its below-knot correction can only be stronger
        for eta in (0.05, 0.1, 0.15, 0.3, 0.7):
            val, (phi, phi_prime) = optimize_s_max(eta)
            gamma = 0.5 * math.acos(eta)
            w = overlap_matrix(naimark_basis(gamma, phi), naimark_basis(gamma, phi_prime))
            peak, second = np.sort(np.abs(w), axis=None)[[-1, -2]]
            generic = -math.log2(peak) + 0.5 * (1 - peak) * math.log2(peak / second)
            assert coles_piani_bound(eta) >= generic - 1e-9


class TestZetaCoefficients:
    def test_identity(self):
        np.testing.assert_allclose(zeta_coefficients(np.eye(3)), [1.0, 1.0, 1.0], atol=1e-12)

    def test_first_coefficient_is_peak_entry(self, rng):
        for _ in range(10):
            u = haar_unitary(3, rng)
            z = zeta_coefficients(u)
            assert z[0] == pytest.approx(np.abs(u).max(), abs=1e-10)

    def test_nondecreasing_and_final_one(self, rng):
        for _ in range(10):
            z = zeta_coefficients(haar_unitary(3, rng))
            assert np.all(np.diff(z) >= -1e-12)
            assert z[-1] == 1.0

    def test_optimized_overlap_matches_closed_forms(self):
        for eta in (0.05, 0.2, 0.35, 0.5, 0.8):
            val, (phi, phi_prime) = optimize_s_max(eta)
            gamma = 0.5 * math.acos(eta)
            w = overlap_matrix(naimark_basis(gamma, phi), naimark_basis(gamma, phi_prime))
            z = zeta_coefficients(w)
            assert z[0] == pytest.approx(1 / mu_factor(eta), abs=1e-6)
            assert z[1] == pytest.approx(zeta_closed_form(eta)[..., 1], abs=1e-6)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_batched_norms_match_reference_loop(self, d, rng):
        for _ in range(10):
            u = haar_unitary(d, rng)
            ref = []
            for k in range(1, d + 1):
                best = 0.0
                for r in range(max(1, k + 1 - d), min(d, k) + 1):
                    for rows in combinations(range(d), r):
                        for cols in combinations(range(d), k + 1 - r):
                            best = max(best, np.linalg.norm(u[np.ix_(rows, cols)], 2))
                ref.append(min(best, 1.0))
            ref = np.maximum.accumulate(ref)
            ref[-1] = 1.0
            np.testing.assert_allclose(zeta_coefficients(u), ref, rtol=0, atol=1e-12)

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            zeta_coefficients(np.ones((3, 3)))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            zeta_coefficients(np.eye(3)[:2])

    def test_unitarity_window_leaves_zeta_d_at_one(self, rng):
        # (1 + e) U has residual (1 + e)^2 - 1 ~ 2e against UNITARY_TOL = 1e-8:
        # accepted up to e ~ 0.5e-8, where zeta_d is 1 exactly, rejected beyond.
        u = haar_unitary(3, rng)
        for sign in (1, -1):
            assert zeta_coefficients((1 + sign * 0.4e-8) * u)[-1] == 1.0
            with pytest.raises(ValueError, match="unitary"):
                zeta_coefficients((1 + sign * 0.6e-8) * u)


class TestMajorizationData:
    def test_degenerate(self):
        md = majorization_data([1.0, 1.0, 1.0])
        np.testing.assert_allclose(md.omega.probs, [1.0, 0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(md.omega_prime.probs, [1.0, 0.0, 0.0], atol=1e-15)

    def test_reference_arithmetic(self):
        md = majorization_data([0.5, 0.75, 1.0])
        np.testing.assert_allclose(md.omega.probs, [0.5, 0.25, 0.25], atol=1e-15)
        np.testing.assert_allclose(
            md.omega_prime.probs, [9 / 16, 49 / 64 - 9 / 16, 1 - 49 / 64], atol=1e-15
        )

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_stack_matches_numpy_reductions_bit_for_bit(self, d, rng):
        # Nondecreasing stacks with ties, dips within the 1e-9 slack and a
        # last entry near 1, against numpy's accumulate and diff.
        z = np.sort(rng.uniform(0.0, 1.0, (300, d)), axis=-1)
        z[::3, :-1] = z[::3, :1]  # ties
        z[1::3, 1:-1] = z[1::3, :1] - rng.uniform(0.0, 1e-9, (100, 1))  # dips below the first entry
        z[2::3, :-1] = 1.0  # ones ahead of a last entry just below 1
        z[:, -1] = 1.0 + rng.uniform(-1e-9, 1e-8, 300)
        md = majorization_data(z)
        ref = np.minimum(np.maximum.accumulate(z, axis=-1), 1.0)
        ref[..., -1] = 1.0
        assert np.array_equal(md.zeta, ref)
        assert np.array_equal(md.omega.probs, np.diff(ref, axis=-1, prepend=0.0))
        assert np.array_equal(md.omega_prime.probs, np.diff((1.0 + ref) ** 2 / 4.0, axis=-1, prepend=0.0))

    def test_one_eta_gives_an_array(self):
        # As zeta_coefficients does: no tuple for one sequence.
        z = zeta_closed_form(0.3)
        assert type(z) is np.ndarray and z.shape == (3,)
        assert z.tobytes() == zeta_closed_form(np.array([0.3]))[0].tobytes()
        md = majorization_data(z)
        assert type(md.zeta) is np.ndarray and md.zeta.tobytes() == z.tobytes()

    def test_zeta2_branch_junctions_agree(self):
        at_02 = (math.sqrt(1 + 2 * 0.2 - 3 * 0.04) / 1.2, math.sqrt((2 - 0.4) / 1.8))
        assert abs(at_02[0] - at_02[1]) <= 1e-12
        at_05 = (math.sqrt((2 - 1.0) / 1.5), 1 / math.sqrt(1.5))
        assert abs(at_05[0] - at_05[1]) <= 1e-12

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            majorization_data([0.9, 0.5, 1.0])
        with pytest.raises(ValueError):
            majorization_data([0.3, 0.5, 0.9])
        with pytest.raises(ValueError, match="nonempty"):
            majorization_data([])
        with pytest.raises(ValueError, match=r"\bzeta\b"):
            majorization_data([0.5, math.nan, 1.0])

    def test_omega_majorizes_omega_prime_for_low_orders(self, rng):
        # the ordering is a property of unitary-derived zeta sequences
        for _ in range(20):
            md = majorization_data(zeta_coefficients(haar_unitary(3, rng)))
            for a in (0.3, 0.6, 1.0):
                assert renyi_entropy(md.omega, a) >= renyi_entropy(md.omega_prime, a) - 1e-10
        for eta in np.linspace(0.0, 1.0, 11):
            md = majorization_data(zeta_closed_form(float(eta)))
            for a in (0.3, 0.6, 1.0):
                assert renyi_entropy(md.omega, a) >= renyi_entropy(md.omega_prime, a) - 1e-10


class TestMajorizationBounds:
    def test_degenerate_zeta_gives_zero(self):
        md = majorization_data([1.0, 1.0, 1.0])
        for a in (0.5, 1.0, 2.0, 10.0, math.inf):
            assert majorization_entropy_bound(md, a) == pytest.approx(0.0, abs=1e-12)

    def test_order_two_takes_larger_branch(self):
        md = majorization_data(zeta_closed_form(0.4))
        combined = majorization_entropy_bound(md, 2.0)
        assert combined == pytest.approx(
            max(majorization_bound_tensor(md, 2.0), majorization_bound_direct_sum(md, 2.0)),
            abs=1e-15,
        )

    def test_order_two_tensor_branch_wins_across_family(self):
        # at order 2 the tensor-product form is the (slightly) stronger one
        for eta in np.linspace(0.0, 1.0, 21):
            md = majorization_data(zeta_closed_form(float(eta)))
            assert majorization_bound_tensor(md, 2.0) >= (
                majorization_bound_direct_sum(md, 2.0) - 1e-12
            )

    def test_infinite_order_limits(self):
        md = majorization_data(zeta_closed_form(0.4))
        assert majorization_bound_direct_sum(md, math.inf) == 0.0
        expected = 0.5 * renyi_entropy(md.omega_prime, math.inf)
        assert majorization_entropy_bound(md, math.inf) == pytest.approx(expected, abs=1e-15)
        # numeric validation of both analytic limits at alpha = 1e6
        assert majorization_bound_direct_sum(md, 1e6) == pytest.approx(0.0, abs=1e-4)
        assert majorization_bound_tensor(md, 1e6) == pytest.approx(expected, abs=1e-4)

    def test_zero_direct_sum_bound_is_positive_zero(self):
        # At eta in {0, 1}, order 2, the bound is a zero over 1 - 2; `bounds` printed it as -0.
        for eta in (0.0, 1.0):
            v = majorization_bound_direct_sum(majorization_data(zeta_closed_form(eta)), 2.0)
            assert v == 0.0 and math.copysign(1.0, v) == 1.0, eta

    def test_eta_grid_equals_each_eta_alone_bit_for_bit(self):
        eta = np.linspace(0.0, 1.0, 41)
        md = majorization_data(zeta_closed_form(eta))
        for a in (0.5, 1.0, 1.0 + 1e-9, 1.5, 2.0, 3.0, 10.0, math.inf):
            for bound in (majorization_bound_direct_sum, majorization_entropy_bound):
                grid = np.asarray(bound(md, a), dtype=float)
                alone = [bound(majorization_data(zeta_closed_form(float(e))), a) for e in eta]
                assert grid.view(np.uint64).tolist() == np.asarray(alone).view(np.uint64).tolist(), (bound, a)

    def test_half_order_bound_sound_on_random_states(self, rng):
        for eta in (0.1, 0.4, 0.8):
            md = majorization_data(zeta_closed_form(eta))
            bound = majorization_entropy_bound(md, 0.5)
            for _ in range(200):
                rho = random_density(2, rng) if rng.random() < 0.5 else random_pure_density(2, rng)
                assert renyi_entropy(povm_probs_for_state(eta, rho), 0.5) >= bound - 1e-9


class TestUncertaintySoundness:
    CONJUGATE_PAIRS = ((1.0, 1.0), (2.0, 2.0 / 3.0), (math.inf, 0.5), (1.5, 0.75))

    def test_conjugate_pair_sums_dominated(self, rng):
        for eta in (0.05, 0.25, 0.5, 0.75, 0.95):
            bound = 2 * np.log2(mu_factor(eta))
            for _ in range(100):
                rho = random_density(2, rng) if rng.random() < 0.5 else random_pure_density(2, rng)
                probs = povm_probs_for_state(eta, rho)
                for a, b in self.CONJUGATE_PAIRS:
                    total = renyi_entropy(probs, a) + renyi_entropy(probs, b)
                    assert total >= bound - 1e-9

    def test_coles_piani_sound(self, rng):
        for eta in (0.02, 0.1, 0.19, 0.3, 0.6, 0.9):
            bound = coles_piani_bound(eta)
            for _ in range(100):
                rho = random_density(2, rng) if rng.random() < 0.5 else random_pure_density(2, rng)
                assert shannon_entropy(povm_probs_for_state(eta, rho)) >= bound - 1e-9

    def test_majorization_sound_across_orders(self, rng):
        for eta in (0.1, 0.5, 0.9):
            md = majorization_data(zeta_closed_form(eta))
            for _ in range(50):
                rho = random_density(2, rng)
                probs = povm_probs_for_state(eta, rho)
                for a in (0.5, 1.0, 2.0, 10.0, math.inf):
                    assert renyi_entropy(probs, a) >= majorization_entropy_bound(md, a) - 1e-9


def majorizes(dominating, dominated):
    """Partial-sum check after descending sort, padding with zeros."""
    x = np.sort(np.asarray(dominated, dtype=float))[::-1]
    y = np.sort(np.asarray(dominating, dtype=float))[::-1]
    n = max(x.size, y.size)
    x = np.pad(x, (0, n - x.size))
    y = np.pad(y, (0, n - y.size))
    if abs(x.sum() - y.sum()) > 1e-9:
        return False
    return bool(np.all(np.cumsum(y) >= np.cumsum(x) - 1e-9))


class TestMajorizationRelations:
    def test_tensor_and_direct_sum_relations_on_random_bases(self, rng):
        for _ in range(30):
            w = haar_unitary(3, rng)
            md = majorization_data(zeta_coefficients(w))
            for _ in range(20):
                rho = random_density(3, rng)
                p = np.clip(np.diag(rho).real, 0.0, None)
                q = np.clip(np.diag(w.conj().T @ rho @ w).real, 0.0, None)
                assert majorizes(md.omega_prime.probs, np.outer(p, q).ravel())
                assert majorizes(
                    np.concatenate(([1.0], md.omega.probs)), np.concatenate((p, q))
                )


class TestMutualInfoUpperBound:
    def test_dominates_standard_mutual_information(self):
        for p_e in np.linspace(0.001, 1 / 3, 18):
            for xi in (0.0, 0.25, 0.5, 0.75, 1.0):
                cfg = DiscriminationConfig.from_error_rate(float(p_e), xi)
                q = outcome_probs(cfg)
                assert mutual_info_upper_bound(q, cfg.eta) >= closed_form_i_std(q) - 1e-10

    def test_zero_disturbance_bound_nonnegative(self):
        cfg = DiscriminationConfig.from_error_rate(0.0, 1.0)
        q = outcome_probs(cfg)
        assert mutual_info_upper_bound(q, cfg.eta) >= 0.0

    def test_uses_strongest_floor(self):
        cfg = DiscriminationConfig.from_error_rate(0.05, 0.0)   # IDP, large eta
        q = outcome_probs(cfg)
        eta = cfg.eta
        md = majorization_data(zeta_closed_form(eta))
        h_e = 1 - q.q_inconclusive + binary_entropy(q.q_inconclusive)
        floor = max(coles_piani_bound(eta), 0.5 * shannon_entropy(md.omega))
        assert mutual_info_upper_bound(q, eta) == pytest.approx(h_e - floor, abs=1e-12)

    def test_broadcasts_like_per_point_calls(self):
        """q fields and an eta array of different shapes that broadcast
        together: each value has the bits of its own one-point call."""
        etas = np.array([0.05, 0.3, 0.7])
        one = outcome_probs(DiscriminationConfig.from_error_rate(0.1, 0.5))
        values = mutual_info_upper_bound(one, etas)
        assert values.shape == (3,)
        for j, eta in enumerate(etas):
            assert values[j] == mutual_info_upper_bound(one, float(eta)), eta
        q, _ = outcome_probs_grid(np.array([[0.02], [0.2]]), 0.5)  # (2, 1) fields
        etas = np.array([[0.1, 0.6]])
        values = mutual_info_upper_bound(q, etas)
        assert values.shape == (2, 2)
        for i in range(2):
            point = OutcomeProbs(q.q_success[i, 0], q.q_error[i, 0], q.q_inconclusive[i, 0])
            for j in range(2):
                assert values[i, j] == mutual_info_upper_bound(point, float(etas[0, j])), (i, j)


class TestBoundsTable:
    """The one-pass table against each public closed form, bit for bit.

    coles_piani_bound and mutual_info_upper_bound are column reads, so those
    two columns are checked against their formulas instead."""

    # Both ends and both knots of mu(eta), with points to either side of each knot.
    ETAS = np.unique(np.concatenate([np.linspace(0.0, 1.0, 101), [0.2 - 1e-9, 0.2 + 1e-9, 0.5 - 1e-9, 0.5 + 1e-9]]))

    @staticmethod
    def columns(eta):
        """The seven eta columns from the public closed forms; coles_piani_bound
        reads its column from bounds_table, so its formula is written here."""
        md = majorization_data(zeta_closed_form(eta))
        half = 0.5 / (1.0 + eta)
        rho_star = np.stack([half, half, eta / (1.0 + eta)], axis=-1)
        e = np.asarray(eta, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            correction = (e / (2.0 * (1.0 + e))) * np.log2((1.0 - e) / (4.0 * e))
        return [
            2 * np.log2(mu_factor(eta)),
            np.log2(mu_factor(eta)) + np.where((e > 0.0) & (e < 0.2), correction, 0.0),
            0.5 * shannon_entropy(md.omega),
            majorization_bound_tensor(md, 2.0),
            majorization_bound_direct_sum(md, 2.0),
            shannon_entropy(rho_star),
            renyi_entropy(rho_star, 2.0),
        ]

    @staticmethod
    def assert_same_bits(table, columns):
        assert table.shape[-1] == len(columns)
        for k, column in enumerate(columns):
            assert np.array_equal(table[..., k], column), BOUNDS_COLUMNS[k]

    def test_eta_grid(self):
        assert {0.0, 0.2, 0.5, 1.0} <= set(self.ETAS.tolist())
        self.assert_same_bits(bounds_table(self.ETAS), self.columns(self.ETAS))

    @pytest.mark.parametrize("xi", [0.0, 0.5, 1.0])
    def test_pe_sweep(self, xi):
        q, eta = outcome_probs_grid(np.linspace(0.0, 1.0 / 3.0, 41), xi)
        columns = self.columns(eta)
        h_e = 1.0 - q.q_inconclusive + binary_entropy(q.q_inconclusive)
        columns += [closed_form_i_std(q), h_e - np.maximum(columns[1], columns[2])]
        self.assert_same_bits(bounds_table(eta, q), columns)
        assert np.array_equal(mutual_info_upper_bound(q, eta), columns[-1])

    def test_i_upper_is_h_e_minus_the_stronger_floor(self):
        q, eta = outcome_probs_grid(np.linspace(0.0, 1.0 / 3.0, 41), 0.5)
        table = bounds_table(eta, q)
        h_e = 1.0 - q.q_inconclusive + binary_entropy(q.q_inconclusive)
        assert np.array_equal(table[:, 8], h_e - np.maximum(table[:, 1], table[:, 2]))

    def test_one_eta_gives_one_row(self):
        for eta in (0.0, 0.1, 0.2, 0.3, 0.5, 0.7, 1.0):
            row = bounds_table(eta)
            assert row.shape == (len(BOUNDS_COLUMNS) - 2,)
            assert np.array_equal(row, self.columns(eta)), eta

    @pytest.mark.parametrize("eta", [-0.1, 1.5, math.nan, [0.5, 2.0]])
    def test_rejects_bad_eta(self, eta):
        with pytest.raises(ValueError, match=r"\beta\b"):
            bounds_table(eta)
