import math

import numpy as np
import pytest

from fpbprobe.probe import theta_grid

from test_simulator import BASES, RECTILINEAR, gate_basis_cnot_oracle

PE_GRID = np.linspace(0.0, 1.0 / 3.0, 41)


class TestTheta:
    def test_endpoints(self):
        assert theta_grid(0.0) == 0.0
        assert theta_grid(1.0 / 3.0) == pytest.approx(math.pi / 4, abs=1e-7)

    def test_one_error_rate_gives_a_python_float(self):
        assert type(theta_grid(0.1)) is float and type(theta_grid(np.float64(0.1))) is float
        assert theta_grid(0.1) == theta_grid(np.array([0.1]))[0]
        assert theta_grid(np.array([0.1, 0.2])).shape == (2,)

    def test_cos_two_theta_at_02(self):
        th = theta_grid(0.2)
        assert math.cos(2 * th) == pytest.approx(0.5, abs=1e-14)

    def test_both_identities_hold(self):
        for p in PE_GRID:
            th = theta_grid(p)
            assert math.cos(2 * th) == pytest.approx((1 - 3 * p) / (1 - p), abs=1e-12)
            assert math.sin(2 * th) == pytest.approx(
                math.sqrt(4 * p * (1 - 2 * p)) / (1 - p), abs=1e-12
            )
            assert math.cos(2 * th) ** 2 + math.sin(2 * th) ** 2 == pytest.approx(1.0, abs=1e-12)


def tagged_states(p):
    """(t_plus, t_minus, t_err) from the gate oracle's output in the rectilinear basis.

    t_plus and t_minus are the probe components left with the sent bit
    (0 and 1), t_err the component left with a flipped carrier.
    """
    out0 = gate_basis_cnot_oracle(RECTILINEAR, 0, p).reshape(2, 2)
    out1 = gate_basis_cnot_oracle(RECTILINEAR, 1, p).reshape(2, 2)
    return out0[0], out1[1], out0[1]


class TestProbeGeometry:
    def test_zero_error_degenerates(self):
        t_plus, t_minus, t_err = tagged_states(0.0)
        np.testing.assert_allclose(t_plus, [1, 0], atol=1e-15)
        np.testing.assert_allclose(t_minus, [1, 0], atol=1e-15)
        np.testing.assert_allclose(t_err, [0, 0], atol=1e-15)

    def test_norms_and_overlap(self):
        for p in PE_GRID:
            t_plus, t_minus, t_err = tagged_states(p)
            assert np.vdot(t_plus, t_plus).real == pytest.approx(1 - p, abs=1e-13)
            assert np.vdot(t_minus, t_minus).real == pytest.approx(1 - p, abs=1e-13)
            assert np.vdot(t_plus, t_minus).real == pytest.approx(1 - 3 * p, abs=1e-13)
            assert np.vdot(t_err, t_err).real == pytest.approx(p, abs=1e-13)

    def test_probe_states_overlap_at_pe_02(self):
        t_plus, t_minus, _ = tagged_states(0.2)
        assert np.vdot(t_plus, t_minus).real == pytest.approx(0.4, abs=1e-14)

    def test_normalized_states_match_angle(self):
        for p in PE_GRID[1:]:
            t_plus, t_minus, _ = tagged_states(p)
            theta = theta_grid(p)
            plus = t_plus / np.linalg.norm(t_plus)
            np.testing.assert_allclose(
                plus.real, [math.cos(theta), math.sin(theta)], atol=1e-12
            )
            minus = t_minus / np.linalg.norm(t_minus)
            np.testing.assert_allclose(
                minus.real, [math.cos(theta), -math.sin(theta)], atol=1e-12
            )


class TestCnotAction:
    def test_zero_error_leaves_product_state(self):
        for basis in BASES:
            for bit in (0, 1):
                out = gate_basis_cnot_oracle(basis, bit, 0.0)
                block = out.reshape(2, 2)
                # carrier amplitude concentrated on the sent ket
                np.testing.assert_allclose(np.abs(block[1 - bit]), 0.0, atol=1e-15)

    def test_flipped_branch_weight_is_error_rate(self):
        for p in PE_GRID:
            for basis in BASES:
                for bit in (0, 1):
                    out = gate_basis_cnot_oracle(basis, bit, p).reshape(2, 2)
                    flipped = np.vdot(out[1 - bit], out[1 - bit]).real
                    assert flipped == pytest.approx(p, abs=1e-13)

    def test_unit_norm(self):
        for p in PE_GRID:
            for basis in BASES:
                for bit in (0, 1):
                    out = gate_basis_cnot_oracle(basis, bit, p)
                    assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)

    def test_correct_branch_carries_tagged_probe_state(self):
        # in both sending bases the kept bit leaves sqrt(1 - P_E) (cos theta, +/- sin theta)
        for p in PE_GRID[1:]:
            theta = theta_grid(p)
            for basis in BASES:
                for bit, sign in ((0, 1.0), (1, -1.0)):
                    kept = gate_basis_cnot_oracle(basis, bit, p).reshape(2, 2)[bit]
                    tagged = math.sqrt(1 - p) * np.array([math.cos(theta), sign * math.sin(theta)])
                    np.testing.assert_allclose(kept, tagged, atol=1e-13)
