import math
import sys

import numpy as np
import pytest

from conftest import alpha_mi_reference
from fpbprobe.discrimination import DiscriminationConfig, OutcomeProbs, outcome_probs, outcome_probs_grid
from fpbprobe.entropy import (
    Distribution,
    JointDistribution,
    Order,
    _fold,
    binary_entropy,
    closed_form_i1,
    closed_form_i2,
    closed_form_i4,
    closed_form_i_std,
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


def random_q(rng):
    """The outcome triple at a random (P_E, xi)."""
    return outcome_probs(DiscriminationConfig.from_error_rate(rng.uniform(0.0, 1.0 / 3.0), rng.uniform(0.0, 1.0)))


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
        # float() reads every spelling of infinity, and overflows to it
        for token in (" INF ", "Infinity", "iNfInItY", "+inf", "1e400"):
            assert Order.parse(token) == Order(math.inf), token
        assert Order.parse(" 2 ").value == 2.0
        for token in ("-inf", "nan", "0", "1e-400", "-2", "abc", ""):
            with pytest.raises(ValueError):
                Order.parse(token)

    def test_only_one_is_the_shannon_order(self):
        assert Order(1.0).is_shannon and Order(1).is_shannon
        for a in (1.0 + 1e-12, 1.0 - 1e-12, 1.0 + 2.0 ** -52, 1.0 - 2.0 ** -53, 1.0 + 1e-6):
            assert not Order(a).is_shannon, a

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Order(0.0)
        with pytest.raises(ValueError):
            Order(-2.0)

    def test_labels_read_back_as_the_order(self):
        labels = {"2": "2", "3": "3", "10": "10", "0.5": "0.5", "1": "1", "inf": "inf", "1e-07": "1e-07",
                  "2.0000001": "2.0000001", "1.0000001": "1.0000001", "1234567": "1234567.0"}
        for token, label in labels.items():
            o = Order.parse(token)
            assert str(o) == label
            assert Order.parse(str(o)) == o
        assert str(Order(2.0)) != str(Order(np.nextafter(2.0, 3.0)))


def bits(x):
    """The IEEE-754 bit patterns of x, so -0.0, 0.0 and nan payloads all count."""
    return np.asarray(x, dtype=float).view(np.uint64)


def special_filled(rng, shape):
    """Random doubles of every binade, with -0.0, 0.0, subnormals, +-inf and nan
    mixed in, and every seventh row along the last axis all -0.0."""
    x = rng.standard_normal(shape) * 2.0 ** rng.integers(-1074, 1000, shape)
    specials = np.array([-0.0, 0.0, 5e-324, -5e-324, 2.2e-310, np.inf, -np.inf, np.nan, 1.7e308])
    pick = rng.random(shape) < 0.3
    x[pick] = rng.choice(specials, size=int(pick.sum()))
    x.reshape(-1, shape[-1])[::7] = -0.0
    return x


class TestFold:
    """_fold gives numpy's .sum/.max over the last axis bit for bit."""

    @pytest.mark.parametrize("ufunc, method", [(np.add, "sum"), (np.maximum, "max")])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_numpy_reduction(self, ufunc, method, n):
        rng = np.random.default_rng(9100 + n)
        with np.errstate(all="ignore"):
            for lead in ((2,), (3,), (7, 5, 2), (7, 5, 3)):
                x = special_filled(rng, lead + (n,))
                assert bits(_fold(ufunc, x)).tolist() == bits(getattr(x, method)(axis=-1)).tolist()
                for vector in x.reshape(-1, n)[:8]:
                    assert bits(_fold(ufunc, vector)) == bits(getattr(vector, method)())
                # the same numbers laid out with the folded axis second to last
                z = np.ascontiguousarray(np.swapaxes(x, -1, -2))
                y = np.swapaxes(z, -1, -2)
                assert n == 1 or not y.flags.c_contiguous
                assert bits(_fold(ufunc, y)).tolist() == bits(getattr(y, method)(axis=-1)).tolist()
                assert bits(_fold(ufunc, y)).tolist() == bits(getattr(z, method)(axis=-2)).tolist()


def random_table_stack(rng, lead):
    """Joint tables with zero cells and empty columns, stacked along `lead`."""
    t = rng.random(lead + (2, 3)) * (rng.random(lead + (2, 3)) < 0.8)
    t[..., 0, 0] += 1e-3
    t[..., 1] *= rng.random(lead + (1,)) < 0.7
    return t / t.sum(axis=(-2, -1), keepdims=True)


class TestStackedEqualsSingle:
    """A measure over a stack of tables equals, bit for bit, the measure on each table alone."""

    ORDERS = (0.5, 1.0, 2.0, 3.0, 10.0, math.inf)

    def measures(self):
        yield "shannon_rows", lambda t: shannon_entropy(t[..., 0, :] / t[..., 0, :].sum(axis=-1, keepdims=True))
        for a in self.ORDERS:
            yield f"renyi_flat_{a}", lambda t, a=a: renyi_entropy(t.reshape(t.shape[:-2] + (6,)), a)
        yield "mutual_information", mutual_information

    def test_every_measure(self):
        rng = np.random.default_rng(9200)
        stack = random_table_stack(rng, (4, 5))
        for name, measure in self.measures():
            stacked = measure(stack)
            assert stacked.shape == (4, 5), name
            for idx in np.ndindex(4, 5):
                single = measure(stack[idx])
                assert isinstance(single, float), name
                assert bits(single) == bits(stacked[idx]), (name, idx)

    def test_fpb_tables(self):
        q, _ = outcome_probs_grid(PE_GRID[:, None], np.asarray(XI_GRID))
        stack = joint_from_outcome_probs(q).table
        for name, measure in self.measures():
            stacked = measure(stack)
            for idx in np.ndindex(stack.shape[:-2]):
                assert bits(measure(stack[idx])) == bits(stacked[idx]), (name, idx)


class TestDistributions:
    def test_rejects_empty_and_non_finite(self):
        with pytest.raises(ValueError, match="nonempty"):
            Distribution([])
        with pytest.raises(ValueError, match=r"\bprobabilities\b"):
            Distribution([math.nan, 1.0])

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            Distribution(np.array([0.5, 0.4]))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Distribution(np.array([1.2, -0.2]))

    def test_joint_marginals(self):
        j = JointDistribution(np.array([[0.2, 0.1, 0.2], [0.1, 0.3, 0.1]]))
        np.testing.assert_allclose(j.table.sum(axis=-1), [0.5, 0.5])
        np.testing.assert_allclose(j.table.sum(axis=-2), [0.3, 0.4, 0.3])


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
        # Up to the largest finite order: a log2 m overflows there once m < 1/2.
        for p in ([1.0 / 3.0] * 3, [0.4, 0.35, 0.25]):
            for a in (1e308, sys.float_info.max):
                assert renyi_entropy(p, a) == pytest.approx(renyi_entropy(p, math.inf), rel=1e-15), (p, a)

    def test_property_nonincreasing_in_order(self):
        """Random vectors of 2 to 6 entries, some down to the subnormal range,
        whose sum is off from 1 by up to the 1e-10 that a Distribution
        accepts: R_a never rises with a by more than 4 ulp of max(1, R_a),
        also at orders next to 1, where the Renyi formula meets Shannon's,
        and at order 2, where the power-sum kernel changes formula."""
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        near = [1.0 + sign * d for d in (1e-3, 1e-6, 1e-7, 2e-9, 1e-12, 1e-15) for sign in (-1, 1)]
        orders = sorted([0.05, 0.5, 1.0, 1.5, 2.0, 10.0, 50.0] + near) + [math.inf]
        entries = st.one_of(st.floats(0.0, 1.0), st.floats(5e-324, 1e-30))
        # 0.99e-10, so that the rounded sum stays inside the accepted 1e-10.
        offsets = st.floats(-0.99e-10, 0.99e-10)

        @hypothesis.settings(derandomize=True, database=None, max_examples=300, deadline=None)
        @hypothesis.given(st.lists(entries, min_size=2, max_size=6), offsets)
        def check(x, off):
            p = np.array(x)
            hypothesis.assume(p.max() > 0.0)
            p = p / p.sum() * (1.0 + off)
            values = [renyi_entropy(p, a) for a in orders]
            for a, hi, lo in zip(orders, values, values[1:]):
                assert lo <= hi + 4 * 2.0 ** -52 * max(1.0, hi), (a, hi, lo)

        check()

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


def conditional_std(t):
    """H(X|Y) of rows X given columns Y: H(X) - I(X; Y)."""
    return shannon_entropy(np.sum(t, axis=-1)) - mutual_information(t)


class TestConditionalStd:
    """The standard conditional entropy H(X|Y), spelled H(X) - I(X; Y)."""

    def test_independent_gives_marginal_entropy(self):
        j = JointDistribution(np.outer([0.5, 0.5], [0.2, 0.3, 0.5]))
        assert conditional_std(j.table) == pytest.approx(1.0, abs=1e-12)

    def test_deterministic_given_y(self):
        j = JointDistribution(np.array([[0.5, 0.0], [0.0, 0.5]]))
        assert conditional_std(j.table) == pytest.approx(0.0, abs=1e-15)

    def test_chain_rule(self, rng):
        for _ in range(30):
            j = random_joint(rng)
            joint_h = shannon_entropy(j.table.ravel())
            assert joint_h == pytest.approx(
                conditional_std(j.table) + shannon_entropy(j.table.sum(axis=-2)), abs=1e-12
            )
            assert joint_h == pytest.approx(
                conditional_std(np.swapaxes(j.table, -1, -2)) + shannon_entropy(j.table.sum(axis=-1)), abs=1e-12
            )

    def test_conditioning_reduces_entropy(self, rng):
        for _ in range(30):
            j = random_joint(rng)
            assert conditional_std(j.table) <= shannon_entropy(j.table.sum(axis=-1)) + 1e-12


class TestConditionalRenyi:
    """The three conditional Renyi entropies of b' given e', through the closed forms.

    b' is a uniform bit, so R_a(B') = 1 and R_a(B'|E') = 1 - I_a at every
    order: a fact about a conditional entropy is one about its measure.
    """

    def test_independent_reduces_to_marginal(self):
        # Q_S = Q_E: b' is independent of e', so R_a(B'|E') = R_a(B') and I_a = 0.
        for q in (OutcomeProbs(0.35, 0.35, 0.3), OutcomeProbs(0.5, 0.5, 0.0), OutcomeProbs(0.1, 0.1, 0.8)):
            for closed_form in (closed_form_i1, closed_form_i2, closed_form_i4):
                for a in (0.5, 2.0, 9.0):
                    assert closed_form(a, q) == pytest.approx(0.0, abs=1e-12)
            assert closed_form_i1(math.inf, q) == pytest.approx(0.0, abs=1e-12)

    def test_variant2_identity(self, rng):
        """R_a(B'|E') = R_a(B', E') - R_a(E'), so I_2 = R_a(B') + R_a(E') - R_a(B', E')."""
        for _ in range(20):
            q = random_q(rng)
            t = joint_from_outcome_probs(q).table
            for a in (0.5, 2.0, 5.0):
                expected = renyi_entropy(t.sum(axis=-1), a) + renyi_entropy(t.sum(axis=-2), a) - renyi_entropy(t.ravel(), a)
                assert closed_form_i2(a, q) == pytest.approx(expected, abs=1e-12)

    def test_variant1_infinite_order(self, rng):
        for _ in range(10):
            q = random_q(rng)
            t = joint_from_outcome_probs(q).table
            py = t.sum(axis=0)
            expected = sum(
                py[y] * -math.log2(t[:, y].max() / py[y]) for y in range(t.shape[1]) if py[y] > 0
            )
            assert 1.0 - closed_form_i1(math.inf, q) == pytest.approx(expected, abs=1e-12)

    def test_variants_2_and_4_reject_infinite_order(self, rng):
        q = random_q(rng)
        for closed_form in (closed_form_i2, closed_form_i4):
            with pytest.raises(ValueError):
                closed_form(math.inf, q)

    def test_jensen_direction_variant1_vs_variant4_at_order_two(self, rng):
        """-log2 is convex, so averaging inside the log can only lower the conditional entropy: I_1 <= I_4."""
        for _ in range(40):
            q = random_q(rng)
            assert closed_form_i1(2.0, q) <= closed_form_i4(2.0, q) + 1e-12

    def test_variants_1_and_4_agree_when_columns_match(self):
        # No inconclusive outcome: the two live columns are mirror images, so
        # every column has the same Renyi entropy, inside the log or out.
        for q in (OutcomeProbs(0.75, 0.25, 0.0), OutcomeProbs(0.9, 0.1, 0.0)):
            assert closed_form_i1(2.0, q) == pytest.approx(closed_form_i4(2.0, q), abs=1e-12)

    def test_variant1_breaks_chain_rule_witness(self):
        q = OutcomeProbs(0.6, 0.1, 0.3)
        t = joint_from_outcome_probs(q).table
        a = 2.0
        chain = renyi_entropy(t.sum(axis=-1), a) + renyi_entropy(t.sum(axis=-2), a) - renyi_entropy(t.ravel(), a)
        assert abs(closed_form_i1(a, q) - chain) > 1e-6


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
                mutual_information(np.swapaxes(j.table, -1, -2)), abs=1e-12
            )

    def test_equals_entropy_reductions(self, rng):
        for _ in range(20):
            j = random_joint(rng)
            i = mutual_information(j)
            joint_h = shannon_entropy(j.table.ravel())
            h_x, h_y = shannon_entropy(j.table.sum(axis=-1)), shannon_entropy(j.table.sum(axis=-2))
            assert i == pytest.approx(h_x - (joint_h - h_y), abs=1e-12)
            assert i == pytest.approx(h_y - (joint_h - h_x), abs=1e-12)

    def test_fpb_table_matches_closed_form(self):
        for p_e in PE_GRID:
            for xi in XI_GRID:
                q = outcome_probs(DiscriminationConfig.from_error_rate(p_e, xi))
                assert mutual_information(joint_from_outcome_probs(q)) == pytest.approx(
                    closed_form_i_std(q), abs=1e-10
                )


class TestShannonProperties:
    """Hypothesis properties of the mutual information of 2x3 tables, e' in (+, -, ?)."""

    # Post-processings of e': each maps Eve's outcome to a coarser one.
    MERGES = {
        "? into +": lambda t: np.stack([t[:, 0] + t[:, 2], t[:, 1]], axis=-1),
        "+ with -": lambda t: np.stack([t[:, 0] + t[:, 1], t[:, 2]], axis=-1),
    }

    def test_post_processing_and_transposition(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        @hypothesis.settings(derandomize=True, database=None, max_examples=200, deadline=None)
        @hypothesis.given(st.lists(st.floats(0.0, 1.0), min_size=6, max_size=6))
        def check(cells):
            t = np.reshape(cells, (2, 3))
            hypothesis.assume(t.sum() > 0.0)
            j = JointDistribution(t / t.sum())
            i = mutual_information(j)
            for name, merge in self.MERGES.items():
                assert mutual_information(merge(j.table)) <= i + 1e-12, name
            # The joint entropy sums the cells in another order: an ulp apart.
            assert abs(mutual_information(np.swapaxes(j.table, -1, -2)) - i) <= 1e-12

        check()


class TestAlphaMutualInformation:
    """The alpha-mutual informations of the (b', e') table, through their closed forms."""

    def test_order_one_is_standard(self, rng):
        for _ in range(10):
            q = random_q(rng)
            i = mutual_information(joint_from_outcome_probs(q))
            for closed_form in (closed_form_i1, closed_form_i2, closed_form_i4):
                assert closed_form(1.0, q) == pytest.approx(i, abs=1e-9)
                assert closed_form(1.0 + 5e-10, q) == pytest.approx(i, abs=1e-9)

    @pytest.mark.parametrize("q", [(0.0, 0.0, 1.0), (0.5, 0.5, 0.0), (0.75, 0.25, 0.0)],
                             ids=["two_empty", "one_empty", "one_empty_peak_3_4"])
    def test_variant4_empty_columns_at_high_orders(self, q):
        # Empty columns at orders where a float power of the live peak (1/2,
        # or 3/4 in the last case) or its reciprocal leaves the double range,
        # from order 1024 (or ~2467) on, against the 50-digit definition.
        oracle = pytest.importorskip("oracle")
        rows = oracle.table_mp(*q)
        q = OutcomeProbs(*q)
        for a in (2.0, 1023.0, 1024.0, 1075.0, 5000.0):
            with oracle.mp.workdps(oracle.DPS):
                truth = float(oracle.measure("v4", rows, a))
            assert closed_form_i4(a, q) == pytest.approx(truth, rel=1e-15, abs=1e-15)

    def test_conclusive_case_variant1_equals_standard(self):
        for p_e in PE_GRID:
            q = outcome_probs(DiscriminationConfig.from_error_rate(p_e, 0.0))
            i = mutual_information(joint_from_outcome_probs(q))
            for a in (0.7, 2.0, 10.0, math.inf):
                assert closed_form_i1(a, q) == pytest.approx(i, abs=1e-10)

    def test_variant1_nondecreasing_in_order_on_fpb_tables(self):
        orders = [0.3, 0.7, 1.0, 1.5, 2.0, 4.0, 10.0, 50.0, math.inf]
        for p_e in PE_GRID[::4]:
            for xi in XI_GRID:
                q = outcome_probs(DiscriminationConfig.from_error_rate(p_e, xi))
                vals = [closed_form_i1(a, q) for a in orders]
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
        np.testing.assert_allclose(j.table.sum(axis=-2), [0.35, 0.35, 0.3], atol=1e-15)

    def test_eve_entropy_identity(self):
        for p_e in PE_GRID:
            for xi in XI_GRID:
                q = outcome_probs(DiscriminationConfig.from_error_rate(p_e, xi))
                j = joint_from_outcome_probs(q)
                expected = 1 - q.q_inconclusive + binary_entropy(q.q_inconclusive)
                assert shannon_entropy(j.table.sum(axis=-2)) == pytest.approx(expected, abs=1e-12)

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
            alpha_mi_reference(j.table, 2.0, 1), abs=1e-10
        )

    def test_i1_infinite_order_form(self):
        q = outcome_probs(DiscriminationConfig.from_error_rate(0.12, 0.6))
        rem = 1 - q.q_inconclusive
        expected = rem - rem * math.log2(rem) + rem * math.log2(q.q_success)
        assert closed_form_i1(math.inf, q) == pytest.approx(expected, abs=1e-14)
        j = joint_from_outcome_probs(q)
        assert closed_form_i1(math.inf, q) == pytest.approx(
            alpha_mi_reference(j.table, math.inf, 1), abs=1e-10
        )

    def test_i1_large_order_approaches_infinite_form(self):
        q = outcome_probs(DiscriminationConfig.from_error_rate(0.12, 0.6))
        assert closed_form_i1(1e6, q) == pytest.approx(closed_form_i1(math.inf, q), abs=1e-4)

    def test_i1_degenerate_inconclusive(self):
        assert closed_form_i1(2.0, OutcomeProbs(0.0, 0.0, 1.0)) == 0.0

    def test_zero_i2_is_positive_zero(self):
        # I_2 = 0 at orders above 1 is a zero over a negative 1 - a; `curves` printed it as -0.
        for q in (OutcomeProbs(0.5, 0.5, 0.0), OutcomeProbs(0.0, 0.0, 1.0)):
            for a in (2.0, 50.0):
                v = closed_form_i2(a, q)
                assert v == 0.0 and math.copysign(1.0, v) == 1.0, (q, a)

    def test_order_one_is_the_standard_measure(self):
        """Every variant tends to the standard measure as the order tends to 1,
        and at order 1 each closed form gives closed_form_i_std's bits."""
        grid, _ = outcome_probs_grid(np.array([0.0, 1e-12, 0.1, 1.0 / 3.0])[:, None], np.array([0.0, 0.5, 1.0]))
        points = (OutcomeProbs(0.6, 0.1, 0.3), OutcomeProbs(0.0, 0.0, 1.0), OutcomeProbs(0.5, 0.5, 0.0))
        for closed_form in (closed_form_i1, closed_form_i2, closed_form_i4):
            for one in (1, 1.0, np.float64(1), Order(1.0)):
                for q in (grid,) + points:
                    std = bits(closed_form_i_std(q))
                    assert bits(closed_form(one, q)).tolist() == std.tolist(), (closed_form, one)
                    value = one.value if isinstance(one, Order) else one
                    inside = closed_form(np.array([2.0, value, 3.0]), OutcomeProbs(
                        *(np.asarray(f)[..., None] for f in (q.q_success, q.q_error, q.q_inconclusive))))
                    assert bits(inside[..., 1]).tolist() == std.tolist(), (closed_form, one)

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
                    for variant, closed_form in ((1, closed_form_i1), (2, closed_form_i2), (4, closed_form_i4)):
                        assert closed_form(a, q) == pytest.approx(
                            alpha_mi_reference(j.table, a, variant), abs=1e-10
                        )
                assert closed_form_i1(math.inf, q) == pytest.approx(
                    alpha_mi_reference(j.table, math.inf, 1), abs=1e-10
                )


class TestClosedFormOrders:
    """Orders as scalars, Order instances or arrays that broadcast against the triple."""

    CLOSED_FORMS = {1: closed_form_i1, 2: closed_form_i2, 4: closed_form_i4}
    ORDERS = np.array([0.05, 0.5, 1.0 - 1e-6, 1.0 - 1e-10, 1.0, 1.0 + 1e-10, 1.0 + 1e-6, 2.0, 3.0, 10.0, 50.0, 1e4])

    def grid(self):
        q, _ = outcome_probs_grid(np.array([0.0, 1e-12, 0.01, 0.1, 1.0 / 3.0])[:, None, None],
                                  np.array([0.0, 1e-5, 0.5, 1.0])[:, None])
        return q

    def test_array_orders_equal_scalar_calls_bit_for_bit(self):
        q = self.grid()
        for variant, closed_form in self.CLOSED_FORMS.items():
            orders = np.append(self.ORDERS, math.inf) if variant == 1 else self.ORDERS
            stacked = closed_form(orders, q)
            assert stacked.shape == (5, 4, len(orders))
            for k, a in enumerate(orders):
                single = closed_form(a, q)
                assert bits(single).tolist() == bits(stacked[..., k:k + 1]).tolist(), (variant, a)
                assert bits(closed_form(Order(a), q)).tolist() == bits(single).tolist()
                point = OutcomeProbs(*(float(f[2, 2, 0]) for f in (q.q_success, q.q_error, q.q_inconclusive)))
                assert isinstance(closed_form(a, point), float)
                assert bits(closed_form(a, point)) == bits(stacked[2, 2, k])

    def test_point_calls_equal_grid_calls_bit_for_bit(self):
        # On 0-d operands numpy's power runs another kernel: at orders 2 and
        # 0.5 about 5 % of its powers differ from the array kernel's in the
        # last bit.
        rng = np.random.default_rng(9300)
        q, _ = outcome_probs_grid(rng.uniform(0.0, 1.0 / 3.0, 100), rng.uniform(0.0, 1.0, 100))
        fields = (q.q_success, q.q_error, q.q_inconclusive)
        orders = np.array([0.5, 2.0, 3.0, 10.0])
        for variant, closed_form in self.CLOSED_FORMS.items():
            grid = closed_form(orders, OutcomeProbs(*(f[:, None] for f in fields)))
            for i in range(100):
                point = OutcomeProbs(*(float(f[i]) for f in fields))
                assert bits(closed_form(orders, point)).tolist() == bits(grid[i]).tolist(), (variant, i)
                for k, a in enumerate(orders):
                    assert bits(closed_form(a, point)) == bits(grid[i, k]), (variant, i, a)

    def test_fields_of_different_shapes_broadcast(self):
        q = OutcomeProbs(np.array([0.6, 0.5]), 0.1, np.array([[0.3, 0.4]]))
        for variant, closed_form in self.CLOSED_FORMS.items():
            v = closed_form(np.array([[2.0], [3.0]]), q)
            assert v.shape == (2, 2)
            for i, a in enumerate((2.0, 3.0)):
                for k, (qs, qq) in enumerate(((0.6, 0.3), (0.5, 0.4))):
                    assert bits(v[i, k]) == bits(closed_form(a, OutcomeProbs(qs, 0.1, qq))), (variant, a, k)

    def test_rejected_orders(self):
        q = OutcomeProbs(0.6, 0.1, 0.3)
        for closed_form in self.CLOSED_FORMS.values():
            for bad in (0.0, -1.0, np.nan, [[2.0], [np.nan]], True, "2"):
                with pytest.raises(ValueError):
                    closed_form(bad, q)
        for closed_form in (closed_form_i2, closed_form_i4):
            for bad in (math.inf, [2.0, math.inf], Order(math.inf)):
                with pytest.raises(ValueError):
                    closed_form(bad, q)

    def test_fully_inconclusive_is_zero_at_every_order(self):
        q = OutcomeProbs(0.0, 0.0, 1.0)
        for closed_form in self.CLOSED_FORMS.values():
            assert (closed_form(self.ORDERS, q) == 0.0).all()

    def test_huge_orders_stay_finite(self):
        q = self.grid()
        for closed_form in self.CLOSED_FORMS.values():
            v = closed_form(np.array([1e3, 1e6, 1e300, 1e308, sys.float_info.max]), q)
            assert np.isfinite(v).all() and (v >= 0.0).all() and (v <= 1.0).all()

    def test_i2_at_order_ten_has_no_noise_at_small_values(self):
        """A difference of O(1) entropies of the table is noise here: on this
        grid `alpha_mi_reference` gives 62 negative values and up to 24
        maxima over xi in the rows below P_E = 0.02.  The closed form gives
        none, and one maximum per row."""
        p_e = np.linspace(0.005, 1.0 / 3.0, 400)
        q, _ = outcome_probs_grid(p_e[:, None], np.linspace(0.0, 1.0, 401))
        v = closed_form_i2(10.0, q)
        assert (v >= 0.0).all()
        ends = np.full((len(p_e), 1), -np.inf)
        padded = np.concatenate([ends, v, ends], axis=1)
        maxima = (padded[:, 1:-1] > padded[:, :-2]) & (padded[:, 1:-1] >= padded[:, 2:])
        assert (maxima[p_e < 0.02].sum(axis=1) <= 1).all()

    def test_property_matches_the_table_path(self):
        """Random (P_E, xi, order): the closed forms stay within 16 ulp of the definition on the table.

        The definition is evaluated at 50 digits (`oracle.measure`) on the
        table of the same float triple.  Within 1e-3 of order 1 the bound
        is 16 ulp of max(1, |truth|); further out it grows as
        1 / |1 - order| below |1 - order| = 1.
        """
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        oracle = pytest.importorskip("oracle")
        orders = st.one_of(st.floats(0.01, 100.0), st.floats(1.0 - 1e-3, 1.0 + 1e-3))

        @hypothesis.settings(derandomize=True, database=None, max_examples=300, deadline=None)
        @hypothesis.given(st.floats(0.0, 1.0 / 3.0), st.floats(0.0, 1.0), orders, st.sampled_from((1, 2, 4)))
        def check(p_e, xi, a, variant):
            q = outcome_probs(DiscriminationConfig.from_error_rate(p_e, xi))
            with oracle.mp.workdps(oracle.DPS):
                table = float(oracle.measure(f"v{variant}", oracle.table_mp(q.q_success, q.q_error, q.q_inconclusive), a))
            bound = 16 * 2.0 ** -52 * max(1.0, abs(table))
            if abs(1.0 - a) > 1e-3:
                bound *= max(1.0, 1.0 / abs(1.0 - a))
            assert abs(self.CLOSED_FORMS[variant](a, q) - table) <= bound

        check()


class TestBornRuleOracle:
    """The symmetric measure and its xi = 1 vs 0.75 crossings at 50 digits.

    At order 3 the crossing is the P_E ~ 0.108 landmark of acceptance
    criterion 3; order 2 puts it at 0.1305.
    """

    def test_symmetric_measure_and_crossings(self):
        oracle = pytest.importorskip("oracle")
        mp = oracle.mp
        with mp.workdps(oracle.DPS):
            for p_e in np.linspace(0.02, 0.3, 15):
                for xi in (0.75, 1.0):
                    rows = oracle.born_joint_mp(float(p_e), xi)
                    q = outcome_probs(DiscriminationConfig.from_error_rate(float(p_e), xi))
                    for a in (2, 3):
                        ref = float(oracle.symmetric_measure_mp(rows, a))
                        assert closed_form_i2(float(a), q) == pytest.approx(ref, rel=1e-12)

            for a, quoted in ((2, 0.130521334793), (3, 0.107993720717)):
                oracle_root = float(mp.findroot(
                    lambda p: oracle.symmetric_measure_mp(oracle.born_joint_mp(p, 1.0), a)
                    - oracle.symmetric_measure_mp(oracle.born_joint_mp(p, 0.75), a),
                    (0.02, 0.3),
                    solver="anderson",
                ))
                assert oracle_root == pytest.approx(quoted, abs=1e-12)

                def gap(p_e):
                    def i2(xi):
                        return closed_form_i2(float(a), outcome_probs(DiscriminationConfig.from_error_rate(p_e, xi)))
                    return i2(1.0) - i2(0.75)

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
