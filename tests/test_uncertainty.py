import math
from itertools import combinations

import numpy as np
import pytest

from fpbprobe.discrimination import DiscriminationConfig, born_probs, build_povm, outcome_probs
from fpbprobe.entropy import binary_entropy, renyi_entropy, shannon_entropy
from fpbprobe.uncertainty import (
    coles_piani_bound,
    majorization_bound_direct_sum,
    majorization_bound_tensor,
    majorization_data,
    majorization_entropy_bound,
    mu_bound,
    mu_factor,
    mutual_info_upper_bound,
    naimark_basis,
    optimize_s_max,
    overlap_matrix,
    s_max,
    s_second,
    zeta2_closed_form,
    zeta_closed_form,
    zeta_coefficients,
)
from fpbprobe.entropy import closed_form_i_std, Order

from conftest import haar_unitary, random_density, random_pure_density

ETA_GRID = np.linspace(0.0, 1.0, 11)


def povm_probs_for_state(eta, rho):
    gamma = 0.5 * math.acos(min(max(eta, 0.0), 1.0))
    povm = build_povm(DiscriminationConfig(theta=gamma, phi=0.0))
    return born_probs(povm, rho)


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
            for row, element in zip(ext.basis, povm.elements):
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
        # optimize_s_max fixes the first phase at 0 on the strength of this invariance
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
        # optimize_s_max rests on this: |W_ij(delta)|^2 = a_ij + b_ij cos(delta),
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
                assert s_max(w) >= 1 / mu_factor(eta) - 1e-12


class TestEntryStatistics:
    def test_identity(self):
        assert s_max(np.eye(3)) == 1.0
        assert s_second(np.eye(3)) == 1.0

    def test_equal_moduli(self):
        w = np.full((2, 2), 0.5) * np.exp(1j * np.arange(4).reshape(2, 2))
        assert s_max(w) == pytest.approx(0.5)
        assert s_second(w) == pytest.approx(0.5)

    def test_s_second_needs_two_entries(self):
        with pytest.raises(ValueError):
            s_second(np.array([[0.3]]))


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
        assert s_max(w) == pytest.approx(val, abs=1e-12)

    @pytest.mark.parametrize("eta", [0.0, 0.2, 0.5, 1.0])
    def test_first_phase_zero_and_value_rebuilds(self, eta):
        val, (phi, phi_prime) = optimize_s_max(eta)
        assert phi == 0.0
        assert 0.0 <= phi_prime < 2 * math.pi
        gamma = 0.5 * math.acos(eta)
        w = overlap_matrix(naimark_basis(gamma, phi), naimark_basis(gamma, phi_prime))
        assert s_max(w) == pytest.approx(val, abs=1e-12)

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
            assert abs(s_max(w) - val) <= 1e-15, eta
        deltas = np.arange(2 ** 16) * (2 * math.pi / 2 ** 16)
        for eta in (0.0, 0.05, 0.2, 0.5, 0.7, 1.0):
            origin = naimark_basis(0.5 * math.acos(eta), 0.0).basis
            turned = np.repeat(origin[None], deltas.size, axis=0)
            turned[:, :, 2] *= np.exp(1j * deltas)[:, None]  # the phase enters only the third column
            peaks = np.abs(np.einsum("ik,njk->nij", origin.conj(), turned)).max(axis=(1, 2))
            assert peaks.min() >= optimize_s_max(eta)[0] - 1e-15, eta

    def test_s_max_invariant_under_global_rephasing(self, rng):
        gamma = 0.5 * math.acos(0.3)
        e1 = naimark_basis(gamma, 0.4)
        e2 = naimark_basis(gamma, 2.1)
        w = overlap_matrix(e1, e2)
        for _ in range(5):
            chi = rng.uniform(0, 2 * math.pi)
            rephased = type(e2)(e2.gamma, e2.phase, e2.basis * np.exp(1j * chi))
            w2 = overlap_matrix(e1, rephased)
            assert s_max(w2) == pytest.approx(s_max(w), abs=1e-12)


class TestMuBound:
    def test_branch_junctions_agree(self):
        lo, hi = (1 + 0.2) / (1 - 0.2), math.sqrt((2 - 0.2) / (1 - 0.2))
        assert abs(lo - hi) <= 1e-12
        lo2, hi2 = math.sqrt((2 - 0.5) / (1 - 0.5)), math.sqrt((2 - 0.5) / 0.5)
        assert abs(lo2 - hi2) <= 1e-12

    def test_trivial_endpoints(self):
        assert mu_bound(1.0) == pytest.approx(0.0, abs=1e-12)
        assert mu_bound(0.0) == pytest.approx(0.0, abs=1e-12)

    def test_peak_near_half(self):
        etas = np.linspace(0.01, 0.99, 99)
        vals = [mu_bound(float(e)) for e in etas]
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
        # with duplicate-counting s_second the generic correction vanishes
        # (the two diagonal overlaps always tie), so the closed form with
        # its below-knot correction can only be stronger
        for eta in (0.05, 0.1, 0.15, 0.3, 0.7):
            val, (phi, phi_prime) = optimize_s_max(eta)
            gamma = 0.5 * math.acos(eta)
            w = overlap_matrix(naimark_basis(gamma, phi), naimark_basis(gamma, phi_prime))
            generic = -math.log2(s_max(w)) + 0.5 * (1 - s_max(w)) * math.log2(
                s_max(w) / s_second(w)
            )
            assert coles_piani_bound(eta) >= generic - 1e-9


class TestZetaCoefficients:
    def test_identity(self):
        np.testing.assert_allclose(zeta_coefficients(np.eye(3)), [1.0, 1.0, 1.0], atol=1e-12)

    def test_first_coefficient_is_peak_entry(self, rng):
        for _ in range(10):
            u = haar_unitary(3, rng)
            z = zeta_coefficients(u)
            assert z[0] == pytest.approx(s_max(u), abs=1e-10)

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
            assert z[1] == pytest.approx(zeta2_closed_form(eta), abs=1e-6)

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
        for a in (0.5, 1.0, 2.0, 3.0, 10.0, math.inf):
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
            bound = mu_bound(eta)
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
