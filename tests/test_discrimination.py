import math

import numpy as np
import pytest

from fpbprobe.discrimination import (
    DiscriminationConfig,
    OutcomeProbs,
    born_probs,
    build_povm,
    error_lower_bound,
    outcome_probs,
    xi_to_phi,
)

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
        rows.append(born_probs(povm, np.outer(ket, ket.conj())))
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
    def test_helstrom_has_no_inconclusive_element(self):
        cfg = DiscriminationConfig(theta=0.3, phi=QUARTER_PI - 0.3)
        povm = build_povm(cfg)
        np.testing.assert_allclose(povm.m_inconclusive, 0.0, atol=1e-12)
        # the remaining two elements are orthogonal projectors
        np.testing.assert_allclose(povm.m_plus @ povm.m_plus, povm.m_plus, atol=1e-12)
        np.testing.assert_allclose(povm.m_plus @ povm.m_minus, 0.0, atol=1e-12)

    def test_completeness_on_grid(self):
        for cfg in config_grid():
            assert build_povm(cfg).completeness_residual() <= 1e-10

    def test_positivity_on_grid(self):
        for cfg in config_grid():
            assert build_povm(cfg).psd_floor() >= -1e-10

    def test_inconclusive_trace_at_gamma_pi_6(self):
        cfg = DiscriminationConfig(theta=math.pi / 12, phi=math.pi / 12)
        povm = build_povm(cfg)
        assert np.trace(povm.m_inconclusive).real == pytest.approx(2 / 3, abs=1e-12)


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

    def test_invalid_triple_rejected(self):
        with pytest.raises(ValueError):
            OutcomeProbs(0.5, 0.5, 0.5)


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
    def test_rejects_a_non_qubit_state(self):
        povm = build_povm(DiscriminationConfig(theta=math.pi / 12, phi=math.pi / 12))
        with pytest.raises(ValueError, match="2x2"):
            born_probs(povm, np.eye(3) / 3)

    def test_maximally_mixed_at_gamma_pi_6(self):
        povm = build_povm(DiscriminationConfig(theta=math.pi / 12, phi=math.pi / 12))
        probs = born_probs(povm, 0.5 * np.eye(2))
        # traces are 1/(1+eta), 1/(1+eta), 2 eta/(1+eta) with eta = 1/2
        np.testing.assert_allclose(probs, [1 / 3, 1 / 3, 1 / 3], atol=1e-12)

    def test_no_inconclusive_weight_at_helstrom(self):
        povm = build_povm(DiscriminationConfig(theta=0.2, phi=QUARTER_PI - 0.2))
        ket = np.array([1.0, 0.0], dtype=complex)
        probs = born_probs(povm, np.outer(ket, ket.conj()))
        assert probs[2] == pytest.approx(0.0, abs=1e-12)

    def test_per_input_rows_reproduce_averages(self):
        for cfg in [DiscriminationConfig(0.3, 0.1), DiscriminationConfig(0.5, 0.2)]:
            povm = build_povm(cfg)
            rows = []
            for sign in (1.0, -1.0):
                ket = np.array([math.cos(cfg.theta), sign * math.sin(cfg.theta)], dtype=complex)
                rows.append(born_probs(povm, np.outer(ket, ket.conj())))
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
            assert born_probs(povm, rho).sum() == pytest.approx(1.0, abs=1e-12)

    def test_rejects_invalid_density(self):
        povm = build_povm(DiscriminationConfig(0.4, 0.1))
        with pytest.raises(ValueError):
            born_probs(povm, np.eye(2))          # trace 2
        with pytest.raises(ValueError):
            born_probs(povm, np.array([[1.5, 0.0], [0.0, -0.5]]))   # not PSD

    def test_rejects_non_hermitian_density(self):
        # eigvalsh reads one triangle only: without the check this passes as I/2.
        povm = build_povm(DiscriminationConfig(0.4, 0.1))
        with pytest.raises(ValueError, match="Hermitian"):
            born_probs(povm, np.array([[0.5, 0.5], [0.0, 0.5]]))
