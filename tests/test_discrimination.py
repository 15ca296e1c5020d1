import math

import numpy as np
import pytest

from fpbprobe.discrimination import (
    DiscriminationConfig,
    OutcomeProbs,
    build_povm,
    error_lower_bound,
    outcome_probs,
    outcome_probs_grid,
    xi_to_phi,
)
from fpbprobe.entropy import closed_form_i1, closed_form_i2, closed_form_i4, closed_form_i_std, joint_from_outcome_probs
from fpbprobe.uncertainty import bounds_table, mutual_info_upper_bound

QUARTER_PI = math.pi / 4

THETA_GRID = np.linspace(0.0, QUARTER_PI, 21)
XI_GRID = np.linspace(0.0, 1.0, 11)


def config_grid():
    for th in THETA_GRID:
        for xi in XI_GRID:
            yield DiscriminationConfig(th, xi_to_phi(xi, th))


def born_average_oracle(cfg):
    """Equal-prior Born averages, outcomes relabeled per input.

    Success means the outcome whose label matches the input state, so
    the rows swap their first two entries before averaging.
    """
    povm = build_povm(cfg)
    rows = []
    for sign in (1.0, -1.0):
        ket = np.array([math.cos(cfg.theta), sign * math.sin(cfg.theta)], dtype=complex)
        rows.append(np.array([np.trace(m @ np.outer(ket, ket.conj())).real for m in povm]))
    row_plus, row_minus = rows
    return 0.5 * (row_plus + row_minus[[1, 0, 2]])


class TestXiToPhi:
    def test_idp_endpoint(self):
        assert xi_to_phi(0.0, 0.3) == 0.0

    def test_helstrom_endpoint(self):
        th = 0.3
        assert xi_to_phi(1.0, th) == pytest.approx(QUARTER_PI - th, abs=1e-15)

    def test_linear_map(self):
        assert xi_to_phi(0.5, math.pi / 8) == pytest.approx(math.pi / 16, abs=1e-15)

    def test_theta_in_the_slack_past_quarter_pi_gives_phi_zero(self):
        # theta may exceed pi/4 by PHI_SLACK; phi = xi (pi/4 - theta) would be
        # negative there, and DiscriminationConfig would refuse it
        for theta in (0.78539816339795, QUARTER_PI + 1e-12):
            for xi in (0.0, 0.5, 1.0):
                phi = xi_to_phi(xi, theta)
                assert phi == 0.0 and math.copysign(1.0, phi) == 1.0, (theta, xi, phi)
                assert DiscriminationConfig(theta, phi).phi == 0.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            xi_to_phi(1.2, 0.3)
        with pytest.raises(ValueError):
            xi_to_phi(-0.1, 0.3)


class TestConfig:
    def test_rejects_phi_above_range(self):
        with pytest.raises(ValueError):
            DiscriminationConfig(theta=0.3, phi=QUARTER_PI - 0.3 + 1e-6)

    def test_allows_degenerate_theta(self):
        cfg = DiscriminationConfig(theta=0.0, phi=QUARTER_PI)
        q = outcome_probs(cfg)
        assert q.q_success == pytest.approx(q.q_error, abs=1e-12)

    def test_from_error_rate(self):
        cfg = DiscriminationConfig.from_error_rate(0.2, 1.0)
        assert math.cos(2 * cfg.theta) == pytest.approx(0.5, abs=1e-12)
        assert cfg.eta == pytest.approx(0.0, abs=1e-12)


class TestBuildPovm:
    def test_one_real_array(self):
        # Its rows are in the OutcomeProbs field order: TestOutcomeProbs::test_born_rule_oracle_agreement.
        povm = build_povm(DiscriminationConfig(0.3, 0.2))
        assert (povm.shape, povm.dtype) == ((3, 2, 2), np.float64)

    def test_helstrom_has_no_inconclusive_element(self):
        cfg = DiscriminationConfig(theta=0.3, phi=QUARTER_PI - 0.3)
        povm = build_povm(cfg)
        np.testing.assert_allclose(povm[2], 0.0, atol=1e-12)
        # the remaining two elements are orthogonal projectors
        np.testing.assert_allclose(povm[0] @ povm[0], povm[0], atol=1e-12)
        np.testing.assert_allclose(povm[0] @ povm[1], 0.0, atol=1e-12)

    def test_completeness_on_grid(self):
        for cfg in config_grid():
            assert np.abs(build_povm(cfg).sum(axis=0) - np.eye(2)).max() <= 1e-10

    def test_positivity_on_grid(self):
        for cfg in config_grid():
            assert np.linalg.eigvalsh(build_povm(cfg)).min() >= -1e-10

    def test_inconclusive_trace_at_gamma_pi_6(self):
        cfg = DiscriminationConfig(theta=math.pi / 12, phi=math.pi / 12)
        povm = build_povm(cfg)
        assert np.trace(povm[2]).real == pytest.approx(2 / 3, abs=1e-12)


class TestOutcomeProbs:
    def test_helstrom_endpoint(self):
        for th in THETA_GRID:
            q = outcome_probs(DiscriminationConfig(th, QUARTER_PI - th))
            assert q.q_inconclusive == pytest.approx(0.0, abs=1e-12)
            assert q.q_success == pytest.approx((1 + math.sin(2 * th)) / 2, abs=1e-12)
            assert q.q_error == pytest.approx((1 - math.sin(2 * th)) / 2, abs=1e-12)

    def test_idp_endpoint(self):
        for th in THETA_GRID:
            q = outcome_probs(DiscriminationConfig(th, 0.0))
            assert q.q_error == 0.0
            assert q.q_inconclusive == pytest.approx(math.cos(2 * th), abs=1e-12)
            assert q.q_success == pytest.approx(1 - math.cos(2 * th), abs=1e-12)

    def test_born_rule_oracle_agreement(self):
        for cfg in config_grid():
            q = outcome_probs(cfg)
            oracle = born_average_oracle(cfg)
            np.testing.assert_allclose(
                [q.q_success, q.q_error, q.q_inconclusive], oracle, atol=1e-12
            )

    def test_success_dominates_error(self):
        for cfg in config_grid():
            q = outcome_probs(cfg)
            assert q.q_success >= q.q_error - 1e-15

    def test_triple_sums_to_one(self):
        for cfg in config_grid():
            q = outcome_probs(cfg)
            assert q.q_success + q.q_error + q.q_inconclusive == pytest.approx(1.0, abs=1e-12)

    def test_one_point_is_the_grids_bit_for_bit(self):
        # A numpy scalar's ** 2 (libm pow) and an array's (the exact square)
        # can differ in the last bit; the triple squares by multiplication.
        rng = np.random.default_rng(5)
        edges = [(p, xi) for p in (0.0, 1e-12, 1 / 3 - 1e-12, 1 / 3) for xi in (0.0, 1e-12, 0.5, 1.0)]
        points = edges + list(zip(rng.uniform(0.0, 1 / 3, 20000).tolist(), rng.uniform(0.0, 1.0, 20000).tolist()))
        p, xi = np.array(points).T
        grid = outcome_probs_grid(p, xi)[0]
        grid = zip(grid.q_success.tolist(), grid.q_error.tolist(), grid.q_inconclusive.tolist())
        mismatches = []
        for point, want in zip(points, grid):
            q = outcome_probs(DiscriminationConfig.from_error_rate(*point))
            if [v.hex() for v in (q.q_success, q.q_error, q.q_inconclusive)] != [v.hex() for v in want]:
                mismatches.append(point)
        assert mismatches == []

    @pytest.mark.parametrize("p, xi", [(0.0, 0.0), (0.1, 0.5), (1 / 3, 1.0)])
    def test_one_point_grid_gives_python_floats(self, p, xi):
        cfg = DiscriminationConfig.from_error_rate(p, xi)
        q, eta = outcome_probs_grid(p, xi)
        want = outcome_probs(cfg)
        fields = [(type(v), v) for v in (q.q_success, q.q_error, q.q_inconclusive, eta)]
        assert fields == [(float, v) for v in (want.q_success, want.q_error, want.q_inconclusive, cfg.eta)]

    def test_invalid_triple_rejected(self):
        with pytest.raises(ValueError):
            OutcomeProbs(0.5, 0.5, 0.5)

    def test_slack_is_clipped_where_it_is_checked(self):
        # Entries in [-1e-12, 1 + 1e-12] are accepted and stored in [0, 1].
        q = OutcomeProbs(-5e-13, -5e-13, 1.0 + 1e-12)
        assert [(type(v), v) for v in (q.q_success, q.q_error, q.q_inconclusive)] == [(float, 0.0)] * 2 + [(float, 1.0)]
        assert math.copysign(1.0, OutcomeProbs(-0.0, 0.5, 0.5).q_success) == 1.0
        q = OutcomeProbs(np.array([-5e-13, 0.6]), np.array([-5e-13, 0.1]), np.array([[1.0 + 1e-12, 0.3]]))
        fields = [f.tolist() for f in (q.q_success, q.q_error, q.q_inconclusive)]
        assert fields == [[[0.0, 0.6]], [[0.0, 0.1]], [[1.0, 0.3]]]

    def test_every_measure_sees_the_clipped_triple(self):
        def bits(x):
            return type(x), np.asarray(x, dtype=float).tobytes()

        measures = {
            "i_std": closed_form_i_std,
            **{f"i{v}_{a}": lambda q, f=f, a=a: f(a, q)
               for v, f in ((1, closed_form_i1), (2, closed_form_i2), (4, closed_form_i4)) for a in (0.5, 2.0)},
            "joint": joint_from_outcome_probs,
            "i_upper": lambda q: mutual_info_upper_bound(q, 0.0),
            "bounds_table": lambda q: bounds_table(0.0, q),
        }
        slack, clipped = OutcomeProbs(-5e-13, -5e-13, 1.0 + 1e-12), OutcomeProbs(0.0, 0.0, 1.0)
        for name, measure in measures.items():
            assert bits(measure(slack)) == bits(measure(clipped)), name
        assert closed_form_i_std(slack) == 0.0 and joint_from_outcome_probs(slack).sum() == 1.0


class TestErrorLowerBound:
    def test_helstrom_error_at_zero_inconclusive(self):
        for th in THETA_GRID:
            assert error_lower_bound(th, 0.0) == pytest.approx(
                (1 - math.sin(2 * th)) / 2, abs=1e-12
            )

    def test_orthogonal_states_zero_error(self):
        assert error_lower_bound(QUARTER_PI, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_family_saturates_bound(self):
        for cfg in config_grid():
            q = outcome_probs(cfg)
            bound = error_lower_bound(cfg.theta, q.q_inconclusive)
            assert q.q_error == pytest.approx(bound, abs=1e-10)

    def test_negative_radicand_rejected(self):
        with pytest.raises(ValueError):
            error_lower_bound(0.1, 0.999999)


class TestBornProbs:
    """Born probabilities tr(M rho) of the built POVM."""

    def test_maximally_mixed_at_gamma_pi_6(self):
        povm = build_povm(DiscriminationConfig(theta=math.pi / 12, phi=math.pi / 12))
        probs = [np.trace(m @ (0.5 * np.eye(2))).real for m in povm]
        # traces are 1/(1+eta), 1/(1+eta), 2 eta/(1+eta) with eta = 1/2
        np.testing.assert_allclose(probs, [1 / 3, 1 / 3, 1 / 3], atol=1e-12)

    def test_no_inconclusive_weight_at_helstrom(self):
        povm = build_povm(DiscriminationConfig(theta=0.2, phi=QUARTER_PI - 0.2))
        ket = np.array([1.0, 0.0], dtype=complex)
        probs = [np.trace(m @ np.outer(ket, ket.conj())).real for m in povm]
        assert probs[2] == pytest.approx(0.0, abs=1e-12)

    def test_per_input_rows_reproduce_averages(self):
        for cfg in [DiscriminationConfig(0.3, 0.1), DiscriminationConfig(0.5, 0.2)]:
            povm = build_povm(cfg)
            rows = []
            for sign in (1.0, -1.0):
                ket = np.array([math.cos(cfg.theta), sign * math.sin(cfg.theta)], dtype=complex)
                rows.append(np.array([np.trace(m @ np.outer(ket, ket.conj())).real for m in povm]))
            q = outcome_probs(cfg)
            relabeled = 0.5 * (rows[0] + rows[1][[1, 0, 2]])
            np.testing.assert_allclose(
                relabeled, [q.q_success, q.q_error, q.q_inconclusive], atol=1e-12
            )
            # per-input success/error swap between the rows
            assert rows[0][0] == pytest.approx(rows[1][1], abs=1e-12)

    def test_probabilities_sum_to_one(self, rng):
        povm = build_povm(DiscriminationConfig(0.4, 0.1))
        for _ in range(20):
            g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            rho = g @ g.conj().T
            rho = rho / np.trace(rho).real
            assert sum(np.trace(m @ rho).real for m in povm) == pytest.approx(1.0, abs=1e-12)
