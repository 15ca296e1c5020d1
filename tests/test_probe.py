import math

import numpy as np
import pytest

from fpbprobe import probe
from fpbprobe.probe import (
    BASES,
    DIAGONAL,
    RECTILINEAR,
    ProbeConfig,
    cnot_action,
    probe_geometry,
    probe_input,
    theta_from_error_rate,
)

PE_GRID = np.linspace(0.0, 1.0 / 3.0, 41)


def gate_basis_cnot_oracle(basis, bit, p_e):
    """Expand the controlled-flip in its own gate basis, componentwise.

    The gate basis {|0>,|1>} sits at pi/8 to the rectilinear basis; the
    target flip acts in the gate basis of the probe, for which |+> and
    |-> are the +1/-1 eigenvectors.  Returns the output ket in the
    (sending-basis carrier) x ({|+>,|->} probe) coordinates.
    """
    c8, s8 = math.cos(math.pi / 8), math.sin(math.pi / 8)
    # carrier sending-basis kets written in the gate basis
    if basis == RECTILINEAR:
        carriers = {0: np.array([c8, -s8]), 1: np.array([s8, c8])}          # h, v
    else:
        carriers = {0: np.array([c8, s8]), 1: np.array([-s8, c8])}          # r, l
    c, s = math.sqrt(1 - 2 * p_e), math.sqrt(2 * p_e)
    t_in_pm = np.array([c, s])                                              # {|+>,|->}
    hadamard = np.array([[1, 1], [1, -1]]) / math.sqrt(2)                   # pm -> gate
    t_in_gate = hadamard @ t_in_pm
    cnot = np.zeros((4, 4))
    cnot[0, 0] = cnot[1, 1] = 1.0
    cnot[2, 3] = cnot[3, 2] = 1.0                                           # control 1 flips target
    out_gate = cnot @ np.kron(carriers[bit], t_in_gate)
    # back to (sending carrier) x (pm probe)
    gate_to_carrier = np.array([list(carriers[0]), list(carriers[1])])      # rows: sending kets
    full = np.kron(gate_to_carrier, hadamard)                               # inverse of orthogonal kron
    return full @ out_gate


class TestProbeConfig:
    def test_rejects_half(self):
        with pytest.raises(ValueError):
            ProbeConfig(0.5)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ProbeConfig(-0.01)

    def test_accepts_boundary(self):
        ProbeConfig(0.0)
        ProbeConfig(1.0 / 3.0)

    def test_rejects_bools(self):
        # bool is an int subclass: False would pass as an error rate of 0.
        for flag in (True, False):
            with pytest.raises(ValueError, match="error_rate"):
                ProbeConfig(flag)


class TestProbeInput:
    def test_zero_error_is_plus(self):
        np.testing.assert_allclose(probe_input(ProbeConfig(0.0)), [1.0, 0.0], atol=1e-15)

    def test_unit_norm_at_018(self):
        v = probe_input(ProbeConfig(0.18))
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)


class TestTheta:
    def test_endpoints(self):
        assert theta_from_error_rate(ProbeConfig(0.0)) == 0.0
        assert theta_from_error_rate(ProbeConfig(1.0 / 3.0)) == pytest.approx(math.pi / 4, abs=1e-7)

    def test_cos_two_theta_at_02(self):
        th = theta_from_error_rate(ProbeConfig(0.2))
        assert math.cos(2 * th) == pytest.approx(0.5, abs=1e-14)

    def test_both_identities_hold(self):
        for p in PE_GRID:
            th = theta_from_error_rate(ProbeConfig(p))
            assert math.cos(2 * th) == pytest.approx((1 - 3 * p) / (1 - p), abs=1e-12)
            assert math.sin(2 * th) == pytest.approx(
                math.sqrt(4 * p * (1 - 2 * p)) / (1 - p), abs=1e-12
            )
            assert math.cos(2 * th) ** 2 + math.sin(2 * th) ** 2 == pytest.approx(1.0, abs=1e-12)


class TestProbeGeometry:
    def test_zero_error_degenerates(self):
        g = probe_geometry(ProbeConfig(0.0))
        np.testing.assert_allclose(g.t_plus, [1, 0], atol=1e-15)
        np.testing.assert_allclose(g.t_minus, [1, 0], atol=1e-15)
        np.testing.assert_allclose(g.t_err, [0, 0], atol=1e-15)

    def test_norms_and_overlap(self):
        for p in PE_GRID:
            g = probe_geometry(ProbeConfig(p))
            assert np.vdot(g.t_plus, g.t_plus).real == pytest.approx(1 - p, abs=1e-13)
            assert np.vdot(g.t_minus, g.t_minus).real == pytest.approx(1 - p, abs=1e-13)
            assert np.vdot(g.t_plus, g.t_minus).real == pytest.approx(1 - 3 * p, abs=1e-13)
            assert np.vdot(g.t_err, g.t_err).real == pytest.approx(p, abs=1e-13)

    def test_probe_states_overlap_at_pe_02(self):
        g = probe_geometry(ProbeConfig(0.2))
        assert np.vdot(g.t_plus, g.t_minus).real == pytest.approx(0.4, abs=1e-14)

    def test_normalized_states_match_angle(self):
        for p in PE_GRID[1:]:
            g = probe_geometry(ProbeConfig(p))
            plus = g.t_plus / np.linalg.norm(g.t_plus)
            np.testing.assert_allclose(
                plus.real, [math.cos(g.theta), math.sin(g.theta)], atol=1e-12
            )
            minus = g.t_minus / np.linalg.norm(g.t_minus)
            np.testing.assert_allclose(
                minus.real, [math.cos(g.theta), -math.sin(g.theta)], atol=1e-12
            )


class TestCnotAction:
    def test_zero_error_leaves_product_state(self):
        for basis in BASES:
            for bit in (0, 1):
                out = cnot_action(basis, bit, ProbeConfig(0.0))
                block = out.reshape(2, 2)
                # carrier amplitude concentrated on the sent ket
                np.testing.assert_allclose(np.abs(block[1 - bit]), 0.0, atol=1e-15)

    def test_flipped_branch_weight_is_error_rate(self):
        for p in PE_GRID:
            for basis in BASES:
                for bit in (0, 1):
                    out = cnot_action(basis, bit, ProbeConfig(p)).reshape(2, 2)
                    flipped = np.vdot(out[1 - bit], out[1 - bit]).real
                    assert flipped == pytest.approx(p, abs=1e-13)

    def test_unit_norm(self):
        for p in PE_GRID:
            for basis in BASES:
                for bit in (0, 1):
                    out = cnot_action(basis, bit, ProbeConfig(p))
                    assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)

    def test_componentwise_against_gate_basis_oracle(self):
        for p in (0.0, 0.05, 0.18, 1.0 / 3.0):
            for basis in BASES:
                for bit in (0, 1):
                    got = cnot_action(basis, bit, ProbeConfig(p))
                    expected = gate_basis_cnot_oracle(basis, bit, p)
                    np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_correct_branch_carries_tagged_probe_state(self):
        for p in PE_GRID[1:]:
            g = probe_geometry(ProbeConfig(p))
            for basis in BASES:
                out0 = cnot_action(basis, 0, ProbeConfig(p)).reshape(2, 2)
                np.testing.assert_allclose(out0[0], g.t_plus, atol=1e-13)
                out1 = cnot_action(basis, 1, ProbeConfig(p)).reshape(2, 2)
                np.testing.assert_allclose(out1[1], g.t_minus, atol=1e-13)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            cnot_action("circular", 0, ProbeConfig(0.1))
        with pytest.raises(ValueError):
            cnot_action(RECTILINEAR, 2, ProbeConfig(0.1))
