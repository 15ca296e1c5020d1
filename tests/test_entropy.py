import math

import numpy as np
import pytest

from fpbprobe.discrimination import DiscriminationConfig, OutcomeProbs, outcome_probs
from fpbprobe.entropy import (
    B_GIVEN_E,
    E_GIVEN_B,
    Distribution,
    JointDistribution,
    Order,
    alpha_mutual_information,
    binary_entropy,
    closed_form_i1,
    closed_form_i_std,
    conditional_renyi,
    conditional_std,
    joint_from_outcome_probs,
    mutual_information,
    renyi_entropy,
    shannon_entropy,
    shor_preskill_rate,
)

PE_GRID = np.linspace(0.001, 1.0 / 3.0, 23)
XI_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)


def fpb_joint(p_e, xi):
    return joint_from_outcome_probs(outcome_probs(DiscriminationConfig.from_error_rate(p_e, xi)))


def random_joint(rng, shape=(2, 3)):
    t = rng.random(shape)
    return JointDistribution(t / t.sum())


def renyi_bruteforce(p, a):
    """Direct double-precision evaluation, no max factoring."""
    p = np.asarray(p, dtype=float)
    p = p[p > 0]
    if a == 1:
        return float(-(p * np.log2(p)).sum())
    if math.isinf(a):
        return float(-np.log2(p.max()))
    return float(np.log2((p ** a).sum()) / (1 - a))


class TestOrder:
    def test_parse(self):
        assert Order.parse("inf").is_infinite
        assert Order.parse("1").is_shannon
        assert Order.parse("2.5").value == 2.5

    def test_near_one_takes_shannon_branch(self):
        assert Order(1.0 + 1e-12).is_shannon
        assert Order(1.0 - 1e-12).is_shannon
        assert not Order(1.0 + 1e-6).is_shannon

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Order(0.0)
        with pytest.raises(ValueError):
            Order(-2.0)


class TestDistributions:
    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            Distribution(np.array([0.5, 0.4]))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Distribution(np.array([1.2, -0.2]))

    def test_joint_marginals(self):
        j = JointDistribution(np.array([[0.2, 0.1, 0.2], [0.1, 0.3, 0.1]]))
        np.testing.assert_allclose(j.marginal_b(), [0.5, 0.5])
        np.testing.assert_allclose(j.marginal_e(), [0.3, 0.4, 0.3])


class TestShannonEntropy:
    def test_uniform_binary(self):
        assert shannon_entropy([0.5, 0.5]) == 1.0

    def test_point_mass(self):
        assert shannon_entropy([1.0, 0.0]) == 0.0

    def test_half_quarter_quarter(self):
        assert shannon_entropy([0.5, 0.25, 0.25]) == pytest.approx(1.5, abs=1e-14)


class TestRenyiEntropy:
    def test_uniform_any_order(self):
        for a in (0.3, 1.0, 2.0, 10.0, math.inf):
            assert renyi_entropy([0.5, 0.5], a) == pytest.approx(1.0, abs=1e-12)
        for a in (0.5, 2.0, 7.0):
            assert renyi_entropy([0.25] * 4, a) == pytest.approx(2.0, abs=1e-12)

    def test_three_quarters_order_two(self):
        assert renyi_entropy([0.75, 0.25], 2.0) == pytest.approx(math.log2(8 / 5), abs=1e-14)

    def test_near_one_orders_agree_with_shannon(self, rng):
        for _ in range(10):
            p = rng.random(4)
            p = p / p.sum()
            h = shannon_entropy(p)
            assert renyi_entropy(p, 1.0 + 1e-12) == pytest.approx(h, abs=1e-9)
            assert renyi_entropy(p, 1.0 - 1e-12) == pytest.approx(h, abs=1e-9)

    def test_matches_bruteforce(self, rng):
        for _ in range(20):
            p = rng.random(5)
            p = p / p.sum()
            for a in (0.2, 0.7, 2.0, 5.0, math.inf):
                assert renyi_entropy(p, a) == pytest.approx(renyi_bruteforce(p, a), abs=1e-11)

    def test_huge_order_approaches_min_entropy(self, rng):
        p = np.array([0.6, 0.25, 0.15])
        assert renyi_entropy(p, 1e6) == pytest.approx(renyi_entropy(p, math.inf), abs=1e-4)

    def test_nonincreasing_in_order(self, rng):
        orders = list(np.linspace(0.1, 8.0, 60)) + [20.0, 100.0, math.inf]
        for _ in range(10):
            p = rng.random(4)
            p = p / p.sum()
            vals = [renyi_entropy(p, a) for a in orders]
            assert all(x >= y - 1e-10 for x, y in zip(vals, vals[1:]))


class TestBinaryEntropy:
    def test_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_half(self):
        assert binary_entropy(0.5) == 1.0

    def test_near_half_rate_point(self):
        assert binary_entropy(0.11) == pytest.approx(0.49992, abs=5e-5)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            binary_entropy(1.1)


class TestConditionalStd:
    def test_independent_gives_marginal_entropy(self):
        j = JointDistribution(np.outer([0.5, 0.5], [0.2, 0.3, 0.5]))
        assert conditional_std(j) == pytest.approx(1.0, abs=1e-12)

    def test_deterministic_given_y(self):
        j = JointDistribution(np.array([[0.5, 0.0], [0.0, 0.5]]))
        assert conditional_std(j) == pytest.approx(0.0, abs=1e-15)

    def test_chain_rule(self, rng):
        for _ in range(30):
            j = random_joint(rng)
            joint_h = shannon_entropy(j.table.ravel())
            assert joint_h == pytest.approx(
                conditional_std(j, B_GIVEN_E) + shannon_entropy(j.marginal_e()), abs=1e-12
            )
            assert joint_h == pytest.approx(
                conditional_std(j, E_GIVEN_B) + shannon_entropy(j.marginal_b()), abs=1e-12
            )

    def test_conditioning_reduces_entropy(self, rng):
        for _ in range(30):
            j = random_joint(rng)
            assert conditional_std(j) <= shannon_entropy(j.marginal_b()) + 1e-12


class TestConditionalRenyi:
    def test_independent_reduces_to_marginal(self, rng):
        px = np.array([0.3, 0.7])
        py = np.array([0.2, 0.5, 0.3])
        j = JointDistribution(np.outer(px, py))
        for variant in (1, 2, 4):
            for a in (0.5, 2.0, 9.0):
                assert conditional_renyi(j, a, variant) == pytest.approx(
                    renyi_entropy(px, a), abs=1e-12
                )
        assert conditional_renyi(j, math.inf, 1) == pytest.approx(
            renyi_entropy(px, math.inf), abs=1e-12
        )

    def test_variant2_identity(self, rng):
        for _ in range(20):
            j = random_joint(rng)
            for a in (0.5, 2.0, 5.0):
                expected = renyi_entropy(j.table.ravel(), a) - renyi_entropy(j.marginal_e(), a)
                assert conditional_renyi(j, a, 2) == pytest.approx(expected, abs=1e-12)

    def test_order_one_reduces_to_standard(self, rng):
        for _ in range(10):
            j = random_joint(rng)
            h = conditional_std(j)
            for variant in (1, 2, 4):
                assert conditional_renyi(j, 1.0, variant) == pytest.approx(h, abs=1e-9)
                assert conditional_renyi(j, 1.0 + 1e-12, variant) == pytest.approx(h, abs=1e-9)

    def test_variant1_infinite_order(self, rng):
        for _ in range(10):
            j = random_joint(rng)
            t = j.table
            py = t.sum(axis=0)
            expected = sum(
                py[y] * -math.log2(t[:, y].max() / py[y]) for y in range(t.shape[1]) if py[y] > 0
            )
            assert conditional_renyi(j, math.inf, 1) == pytest.approx(expected, abs=1e-12)

    def test_variants_2_and_4_reject_infinite_order(self, rng):
        j = random_joint(rng)
        for variant in (2, 4):
            with pytest.raises(ValueError):
                conditional_renyi(j, math.inf, variant)

    def test_unknown_variant_rejected(self, rng):
        with pytest.raises(ValueError):
            conditional_renyi(random_joint(rng), 2.0, 3)

    def test_jensen_direction_variant1_vs_variant4_at_order_two(self, rng):
        """-log2 is convex, so averaging inside the log can only lower it."""
        for _ in range(40):
            j = random_joint(rng)
            v1 = conditional_renyi(j, 2.0, 1)
            v4 = conditional_renyi(j, 2.0, 4)
            assert v1 >= v4 - 1e-12

    def test_variants_1_and_4_agree_when_columns_match(self):
        # constant conditional distribution across columns
        t = np.outer([0.25, 0.75], [0.5, 0.3, 0.2])
        j = JointDistribution(t)
        assert conditional_renyi(j, 2.0, 1) == pytest.approx(
            conditional_renyi(j, 2.0, 4), abs=1e-12
        )

    def test_variant1_breaks_chain_rule_witness(self):
        j = JointDistribution(np.array([[0.5, 0.1], [0.1, 0.3]]))
        a = 2.0
        lhs = renyi_entropy(j.table.ravel(), a)
        rhs = conditional_renyi(j, a, 1) + renyi_entropy(j.marginal_e(), a)
        assert abs(lhs - rhs) > 1e-6

    def test_direction_matters_on_asymmetric_table(self, rng):
        j = JointDistribution(np.array([[0.5, 0.1, 0.05], [0.05, 0.1, 0.2]]))
        assert conditional_renyi(j, 2.0, 1, B_GIVEN_E) != pytest.approx(
            conditional_renyi(j, 2.0, 1, E_GIVEN_B), abs=1e-6
        )


class TestMutualInformation:
    def test_independent_is_zero(self):
        j = JointDistribution(np.outer([0.4, 0.6], [0.2, 0.3, 0.5]))
        assert mutual_information(j) == pytest.approx(0.0, abs=1e-12)

    def test_perfectly_correlated_uniform_bits(self):
        j = JointDistribution(np.array([[0.5, 0.0], [0.0, 0.5]]))
        assert mutual_information(j) == pytest.approx(1.0, abs=1e-15)

    def test_symmetric_under_transpose(self, rng):
        for _ in range(20):
            j = random_joint(rng)
            assert mutual_information(j) == pytest.approx(
                mutual_information(j.transposed()), abs=1e-12
            )

    def test_equals_entropy_reductions(self, rng):
        for _ in range(20):
            j = random_joint(rng)
            i = mutual_information(j)
            assert i == pytest.approx(
                shannon_entropy(j.marginal_b()) - conditional_std(j, B_GIVEN_E), abs=1e-12
            )
            assert i == pytest.approx(
                shannon_entropy(j.marginal_e()) - conditional_std(j, E_GIVEN_B), abs=1e-12
            )

    def test_fpb_table_matches_closed_form(self):
        for p_e in PE_GRID:
            for xi in XI_GRID:
                q = outcome_probs(DiscriminationConfig.from_error_rate(p_e, xi))
                assert mutual_information(joint_from_outcome_probs(q)) == pytest.approx(
                    closed_form_i_std(q), abs=1e-10
                )


class TestAlphaMutualInformation:
    def test_order_one_is_standard(self, rng):
        for _ in range(10):
            j = random_joint(rng)
            i = mutual_information(j)
            for variant in (1, 2, 4):
                assert alpha_mutual_information(j, 1.0, variant) == pytest.approx(i, abs=1e-9)
                assert alpha_mutual_information(j, 1.0 + 5e-10, variant) == pytest.approx(
                    i, abs=1e-9
                )

    def test_unknown_variant_rejected_at_order_one(self):
        # the order-1 shortcut to the mutual information must not skip the variant check
        q = OutcomeProbs(0.6, 0.1, 0.3)
        j = joint_from_outcome_probs(q)
        for a in (1.0, 1.0 + 5e-10, 2.0):
            with pytest.raises(ValueError):
                alpha_mutual_information(j, a, 3)

    def test_variant2_symmetric(self, rng):
        for _ in range(20):
            j = random_joint(rng)
            for a in (0.5, 2.0, 10.0):
                assert alpha_mutual_information(j, a, 2, B_GIVEN_E) == pytest.approx(
                    alpha_mutual_information(j.transposed(), a, 2, B_GIVEN_E), abs=1e-12
                )

    def test_conclusive_case_variant1_equals_standard(self):
        for p_e in PE_GRID:
            j = fpb_joint(p_e, 0.0)
            i = mutual_information(j)
            for a in (0.7, 2.0, 10.0, math.inf):
                assert alpha_mutual_information(j, a, 1) == pytest.approx(i, abs=1e-10)

    def test_variant1_nondecreasing_in_order_on_fpb_tables(self):
        orders = [0.3, 0.7, 1.0, 1.5, 2.0, 4.0, 10.0, 50.0, math.inf]
        for p_e in PE_GRID[::4]:
            for xi in XI_GRID:
                j = fpb_joint(p_e, xi)
                vals = [alpha_mutual_information(j, a, 1) for a in orders]
                assert all(x <= y + 1e-10 for x, y in zip(vals, vals[1:]))


class TestJointFromOutcomeProbs:
    def test_cell_layout(self):
        q = OutcomeProbs(0.6, 0.1, 0.3)
        j = joint_from_outcome_probs(q)
        np.testing.assert_allclose(
            j.table, [[0.3, 0.05, 0.15], [0.05, 0.3, 0.15]], atol=1e-15
        )

    def test_eve_marginal(self):
        q = OutcomeProbs(0.6, 0.1, 0.3)
        j = joint_from_outcome_probs(q)
        np.testing.assert_allclose(j.marginal_e(), [0.35, 0.35, 0.3], atol=1e-15)

    def test_eve_entropy_identity(self):
        for p_e in PE_GRID:
            for xi in XI_GRID:
                q = outcome_probs(DiscriminationConfig.from_error_rate(p_e, xi))
                j = joint_from_outcome_probs(q)
                expected = 1 - q.q_inconclusive + binary_entropy(q.q_inconclusive)
                assert shannon_entropy(j.marginal_e()) == pytest.approx(expected, abs=1e-12)

    def test_helstrom_orthogonal_inputs_perfect_correlation(self):
        j = fpb_joint(1.0 / 3.0, 1.0)
        assert mutual_information(j) == pytest.approx(1.0, abs=1e-7)

    def test_idp_inconclusive_column_is_unbiased(self):
        j = fpb_joint(0.2, 0.0)
        t = j.table
        col = t[:, 2] / t[:, 2].sum()
        np.testing.assert_allclose(col, [0.5, 0.5], atol=1e-12)

    def test_conditionals_match_closed_expressions(self):
        q = outcome_probs(DiscriminationConfig.from_error_rate(0.15, 0.5))
        t = joint_from_outcome_probs(q).table
        pe = t.sum(axis=0)
        rem = 1 - q.q_inconclusive
        assert t[0, 0] / pe[0] == pytest.approx(q.q_success / rem, abs=1e-12)
        assert t[1, 0] / pe[0] == pytest.approx(q.q_error / rem, abs=1e-12)


class TestClosedForms:
    def test_i1_conclusive_is_remainder(self):
        for p_e in PE_GRID:
            q = outcome_probs(DiscriminationConfig.from_error_rate(p_e, 0.0))
            for a in (2.0, 7.0, math.inf):
                assert closed_form_i1(a, q) == pytest.approx(1 - q.q_inconclusive, abs=1e-12)

    def test_i1_matches_pipeline_order_two(self):
        q = outcome_probs(DiscriminationConfig.from_error_rate(0.1, 1.0))
        j = joint_from_outcome_probs(q)
        assert closed_form_i1(2.0, q) == pytest.approx(
            alpha_mutual_information(j, 2.0, 1), abs=1e-10
        )

    def test_i1_infinite_order_form(self):
        q = outcome_probs(DiscriminationConfig.from_error_rate(0.12, 0.6))
        rem = 1 - q.q_inconclusive
        expected = rem - rem * math.log2(rem) + rem * math.log2(q.q_success)
        assert closed_form_i1(math.inf, q) == pytest.approx(expected, abs=1e-14)
        j = joint_from_outcome_probs(q)
        assert closed_form_i1(math.inf, q) == pytest.approx(
            alpha_mutual_information(j, math.inf, 1), abs=1e-10
        )

    def test_i1_large_order_approaches_infinite_form(self):
        q = outcome_probs(DiscriminationConfig.from_error_rate(0.12, 0.6))
        assert closed_form_i1(1e6, q) == pytest.approx(closed_form_i1(math.inf, q), abs=1e-4)

    def test_i1_degenerate_inconclusive(self):
        assert closed_form_i1(2.0, OutcomeProbs(0.0, 0.0, 1.0)) == 0.0

    def test_i1_rejects_shannon_order(self):
        q = OutcomeProbs(0.6, 0.1, 0.3)
        with pytest.raises(ValueError):
            closed_form_i1(1.0, q)

    def test_i_std_endpoints(self):
        q0 = outcome_probs(DiscriminationConfig.from_error_rate(0.0, 1.0))
        assert closed_form_i_std(q0) == pytest.approx(0.0, abs=1e-12)
        q1 = outcome_probs(DiscriminationConfig.from_error_rate(1.0 / 3.0, 1.0))
        assert closed_form_i_std(q1) == pytest.approx(1.0, abs=1e-7)

    def test_closed_forms_agree_with_pipeline_on_grid(self):
        for p_e in PE_GRID:
            for xi in XI_GRID:
                q = outcome_probs(DiscriminationConfig.from_error_rate(p_e, xi))
                j = joint_from_outcome_probs(q)
                assert closed_form_i_std(q) == pytest.approx(
                    mutual_information(j), abs=1e-10
                )
                for a in (2.0, 10.0):
                    assert closed_form_i1(a, q) == pytest.approx(
                        alpha_mutual_information(j, a, 1), abs=1e-10
                    )
                assert closed_form_i1(math.inf, q) == pytest.approx(
                    alpha_mutual_information(j, math.inf, 1), abs=1e-10
                )


def born_joint_mp(mp, p_e, xi):
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


def symmetric_measure_mp(mp, rows, a):
    """R_a(B) + R_a(E) - R_a(B, E), the variant-2 measure, in bits."""

    def renyi(ps):
        return mp.log(mp.fsum(x ** a for x in ps if x > 0), 2) / (1 - a)

    cols = [rows[0][k] + rows[1][k] for k in range(3)]
    return renyi([mp.fsum(r) for r in rows]) + renyi(cols) - renyi(rows[0] + rows[1])


class TestBornRuleOracle:
    """The symmetric measure and its xi = 1 vs 0.75 crossings at 50 digits.

    At order 3 the crossing is the P_E ~ 0.108 landmark of acceptance
    criterion 3; order 2 puts it at 0.1305.
    """

    def test_symmetric_measure_and_crossings(self):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(50):
            for p_e in np.linspace(0.02, 0.3, 15):
                for xi in (0.75, 1.0):
                    rows = born_joint_mp(mp, float(p_e), xi)
                    j = fpb_joint(float(p_e), xi)
                    for a in (2, 3):
                        ref = float(symmetric_measure_mp(mp, rows, a))
                        assert alpha_mutual_information(j, a, 2) == pytest.approx(
                            ref, rel=1e-12
                        )

            for a, quoted in ((2, 0.130521334793), (3, 0.107993720717)):
                oracle_root = float(mp.findroot(
                    lambda p: symmetric_measure_mp(mp, born_joint_mp(mp, p, 1.0), a)
                    - symmetric_measure_mp(mp, born_joint_mp(mp, p, 0.75), a),
                    (0.02, 0.3),
                    solver="anderson",
                ))
                assert oracle_root == pytest.approx(quoted, abs=1e-12)

                def gap(p_e):
                    return alpha_mutual_information(
                        fpb_joint(p_e, 1.0), a, 2
                    ) - alpha_mutual_information(fpb_joint(p_e, 0.75), a, 2)

                lo, hi = 0.02, 0.3
                assert gap(lo) > 0 > gap(hi)
                for _ in range(60):
                    mid = 0.5 * (lo + hi)
                    if gap(mid) > 0:
                        lo = mid
                    else:
                        hi = mid
                assert 0.5 * (lo + hi) == pytest.approx(oracle_root, abs=1e-9)


class TestShorPreskill:
    def test_zero_error_full_rate(self):
        assert shor_preskill_rate(0.0) == 1.0

    def test_high_error_zero_rate(self):
        assert shor_preskill_rate(0.25) == 0.0

    def test_root_location_by_bisection(self):
        lo, hi = 0.05, 0.2
        f = lambda d: 1 - 2 * binary_entropy(d)
        assert f(lo) > 0 > f(hi)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if f(mid) > 0:
                lo = mid
            else:
                hi = mid
        root = 0.5 * (lo + hi)
        assert abs(root - 0.110) <= 5e-4
        assert shor_preskill_rate(root) == pytest.approx(0.0, abs=1e-10)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            shor_preskill_rate(0.6)
