"""The closed forms of std, v1, v2, v4, v1_inf and mu(eta) against the 50-digit oracle.

The reference is each measure's definition evaluated on the same float
triple (Q_S, Q_E, Q_?) that the closed form sees, so these gates measure
the closed forms alone, not the triple.
"""

import math

import numpy as np
import pytest

import oracle
from fpbprobe.discrimination import OutcomeProbs, outcome_probs_grid
from fpbprobe.entropy import (
    alpha_mutual_information,
    closed_form_i1,
    closed_form_i2,
    closed_form_i4,
    closed_form_i_std,
    joint_from_outcome_probs,
)
from fpbprobe.uncertainty import mu_factor, optimize_s_max

ULP16 = 16 * 2.0 ** -52
BOX_ORDERS = (0.05, 0.5, 1 - 1e-10, 1 + 1e-10, 2.0, 3.0, 10.0, 50.0)
NEAR_ONE = (1 - 1e-3, 1 - 1e-6, 1 - 1e-10, 1 - 1e-15, 1 + 1e-15, 1 + 1e-10, 1 + 1e-6, 1 + 1e-3)
# Both ends, near 0, and each knot of mu(eta) with a point 1e-9 to either side.
MU_ETAS = (0.0, 1e-6, 0.1, 0.2 - 1e-9, 0.2, 0.2 + 1e-9, 0.35, 0.5 - 1e-9, 0.5, 0.5 + 1e-9, 0.8, 1.0)
CLOSED_FORMS = {"v1": (closed_form_i1, 1), "v2": (closed_form_i2, 2), "v4": (closed_form_i4, 4)}


def triples(p_e, xi):
    """The grid's OutcomeProbs, and the same with a last axis for the orders."""
    q, _ = outcome_probs_grid(*oracle.grid(p_e, xi))
    return q, OutcomeProbs(*(np.asarray(f)[..., None] for f in (q.q_success, q.q_error, q.q_inconclusive)))


@pytest.fixture(scope="module")
def box():
    return triples(oracle.PE_BOX, oracle.XI_BOX)


class TestAccuracyGate:
    @pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
    def test_absolute_error_over_the_box(self, box, name):
        q, q_axis = box
        closed_form, _ = CLOSED_FORMS[name]
        orders = BOX_ORDERS + ((math.inf,) if name == "v1" else ())
        got = closed_form(np.array(orders), q_axis)
        oracle.assert_exact(got, oracle.measure_grid(name, q, orders), ULP16, ULP16, name)

    def test_std_and_v1_inf_over_the_box(self, box):
        q, _ = box
        oracle.assert_exact(closed_form_i_std(q), oracle.measure_grid("std", q), ULP16, ULP16, "std")
        oracle.assert_exact(closed_form_i1(math.inf, q), oracle.measure_grid("v1_inf", q), ULP16, ULP16, "v1_inf")

    def test_relative_error_on_the_default_curves_grid(self):
        # Every fifth P_E of the default 334-point grid, both ends included.
        # On the full grid the worst relative errors are 5e-14 (v1, v2, v4)
        # and 2e-13 (std).
        pe = np.linspace(0.001, 1.0 / 3.0, 334)[np.r_[0:334:5, 333]]
        q, q_axis = triples(pe, (0.0, 0.25, 0.5, 0.75, 1.0))
        orders = (0.5, 2.0, 3.0, 10.0)
        for name, (closed_form, _) in CLOSED_FORMS.items():
            truth = oracle.measure_grid(name, q, orders)
            oracle.assert_exact(closed_form(np.array(orders), q_axis), truth, 1e-12, 0.0, name)
        oracle.assert_exact(closed_form_i_std(q), oracle.measure_grid("std", q), 1e-12, 0.0, "std")

    @pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
    def test_orders_near_one_no_worse_than_the_table_path(self, box, name):
        """Each cell's error is at most the table path's, or within the 16-ulp gate."""
        q, q_axis = box
        closed_form, variant = CLOSED_FORMS[name]
        truth = oracle.measure_grid(name, q, NEAR_ONE)
        joint = joint_from_outcome_probs(q)
        table = np.stack([alpha_mutual_information(joint, a, variant) for a in NEAR_ONE], axis=-1)
        err = np.abs(closed_form(np.array(NEAR_ONE), q_axis) - truth)
        assert (err <= np.maximum(np.abs(table - truth), ULP16 * np.maximum(1.0, np.abs(truth)))).all()


class TestMuOracle:
    """mu_factor and optimize_s_max against the 50-digit nine-line envelope.

    The oracle runs the optimizer's own argument in exact arithmetic, so
    these gates check the closed form and the float rounding of both; the
    dense delta scan in test_uncertainty checks the argument itself.
    """

    @pytest.fixture(scope="class")
    def truth(self):
        return np.array([oracle.mu_mp(eta) for eta in MU_ETAS])

    def test_mu_factor(self, truth):
        oracle.assert_exact(mu_factor(np.array(MU_ETAS)), truth, 1e-15, 0.0, "mu_factor")

    def test_optimize_s_max(self, truth):
        got = [optimize_s_max(eta)[0] for eta in MU_ETAS]
        oracle.assert_exact(got, 1.0 / truth, 0.0, 1e-15, "optimize_s_max")
