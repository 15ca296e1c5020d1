"""The closed forms of the measures and of mu, delta* and zeta(eta) against the 50-digit oracle.

The reference is each measure's definition evaluated on the same float
triple (Q_S, Q_E, Q_?) that the closed form sees, so these gates measure
the closed forms alone, not the triple.  The closed forms are gated the
same way at more orders next to 1, as are the Renyi entropy of the table
and the direct-sum majorization bound, that bound also at orders up to
1e3, and every printed `bounds` column on the float eta and triple that
the program computed.
"""

import math

import numpy as np
import pytest

import oracle
from conftest import alpha_mi_reference
from fpbprobe import cli
from fpbprobe.discrimination import DiscriminationConfig, OutcomeProbs, outcome_probs, outcome_probs_grid
from fpbprobe.entropy import (
    closed_form_i1,
    closed_form_i2,
    closed_form_i4,
    closed_form_i_std,
    joint_from_outcome_probs,
    renyi_entropy,
)
from fpbprobe.uncertainty import (
    majorization_bound_direct_sum,
    majorization_data,
    mu_factor,
    optimize_s_max,
    zeta_closed_form,
)

ULP16 = 16 * 2.0 ** -52
BOX_ORDERS = (0.05, 0.5, 1 - 1e-10, 1 + 1e-10, 2.0, 3.0, 10.0, 50.0)
NEAR_ONE = (1 - 1e-3, 1 - 1e-6, 1 - 1e-10, 1 - 1e-15, 1 + 1e-15, 1 + 1e-10, 1 + 1e-6, 1 + 1e-3)
# More orders next to 1: 2e-9 sat just outside the table path's old Shannon window of 1e-9.
TABLE_NEAR_ONE = tuple(1.0 + sign * d for d in (1e-15, 1e-12, 2e-9, 1e-7, 1e-6, 1e-3) for sign in (-1, 1))
# The direct-sum bound's orders away from 1, order 2 included, up to 1e3.
DIRECT_SUM_FAR = (1.5, 2.0, 3.0, 10.0, 50.0, 1e3)
# Both ends, near 0, and each knot of mu(eta) with a point 1e-9 to either side.
MU_ETAS = (0.0, 1e-6, 0.1, 0.2 - 1e-9, 0.2, 0.2 + 1e-9, 0.35, 0.5 - 1e-9, 0.5, 0.5 + 1e-9, 0.8, 1.0)
ETA_GRID = tuple(np.linspace(0.0, 1.0, 101).tolist())
# The overlap lines |W_ij|^2 that meet at the optimum: eta <= 0.2, 0.2 < eta <= 0.5, eta > 0.5.
PEAK_LINES = (
    {(0, 0), (1, 1)},
    {(0, 0), (1, 1), (0, 2), (1, 2), (2, 0), (2, 1)},
    {(2, 2), (0, 1), (1, 0)},
)
CLOSED_FORMS = {"v1": (closed_form_i1, 1), "v2": (closed_form_i2, 2), "v4": (closed_form_i4, 4)}
# The default `curves` P_E grid, then tiny values and 1/3 approached to 1e-12.
ANCHOR_PE = np.concatenate([np.linspace(cli.DEFAULT_PE_MIN, cli.DEFAULT_PE_MAX, cli.DEFAULT_PE_STEPS),
                            [1e-12, 1e-6, 1.0 / 3.0 - 1e-12]])


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
        """Each cell's error is at most that of the definition evaluated on the table in floats, or within the 16-ulp gate."""
        q, q_axis = box
        closed_form, variant = CLOSED_FORMS[name]
        truth = oracle.measure_grid(name, q, NEAR_ONE)
        joint = joint_from_outcome_probs(q)
        table = np.stack([alpha_mi_reference(joint, a, variant) for a in NEAR_ONE], axis=-1)
        err = np.abs(closed_form(np.array(NEAR_ONE), q_axis) - truth)
        assert (err <= np.maximum(np.abs(table - truth), ULP16 * np.maximum(1.0, np.abs(truth)))).all()


class TestPeAnchors:
    """The closed forms at both ends of the family against the probe's known optima, formulas in P_E alone.

    The triple is the program's own (`outcome_probs_grid` from P_E and xi),
    so each gate checks the chain probe -> measurement -> table -> measure
    from outside it.  The worst errors on ANCHOR_PE, in units of
    2^-52 max(1, |truth|): 1.5 for std at xi = 1, at most 2.0 at order 2,
    and 11.6 for std at xi = 0, at P_E = 1e-12.
    """

    def test_helstrom_std(self):
        q, _ = outcome_probs_grid(ANCHOR_PE, 1.0)
        truth = [oracle.helstrom_std_mp(p) for p in ANCHOR_PE]
        oracle.assert_exact(closed_form_i_std(q), truth, ULP16, ULP16, "std at xi = 1")

    @pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
    def test_helstrom_order2(self, name):
        q, _ = outcome_probs_grid(ANCHOR_PE, 1.0)
        truth = [oracle.helstrom_order2_mp(p) for p in ANCHOR_PE]
        oracle.assert_exact(CLOSED_FORMS[name][0](2.0, q), truth, ULP16, ULP16, f"{name} at order 2, xi = 1")

    def test_unambiguous_std(self):
        q, _ = outcome_probs_grid(ANCHOR_PE, 0.0)
        truth = [oracle.unambiguous_std_mp(p) for p in ANCHOR_PE]
        oracle.assert_exact(closed_form_i_std(q), truth, ULP16, ULP16, "std at xi = 0")

    def test_criterion_2_maximizer(self):
        """Criterion 2's P_E, the maximizer of I(xi = 1) - I(xi = 0) (std), against the 40-digit root.

        The gap is flat at its maximum (second derivative -13.4): 2.4e-9
        from the root it falls by 3.9e-17, under two ulps of the gap, as
        much as the rounding of the program's values.  So a golden-section
        search on them stops that far off (2.4e-9 here), and the maximizer
        is pinned to 2e-8, not closer; the gap there to 16 * 2**-52.
        Criterion 2 itself keeps the paper's +/-0.002.
        """
        root, peak = oracle.criterion2_optimum_mp()
        assert (root, peak) == (0.2274451782659235, 0.14985016661575572)

        def gap(p_e):
            return float(closed_form_i_std(outcome_probs_grid(p_e, 1.0)[0])
                         - closed_form_i_std(outcome_probs_grid(p_e, 0.0)[0]))

        inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
        lo, hi = 0.2, 0.26
        c, d = hi - inv_phi * (hi - lo), lo + inv_phi * (hi - lo)
        f_c, f_d = gap(c), gap(d)
        while hi - lo > 1e-13:
            if f_c >= f_d:
                hi, d, f_d = d, c, f_c
                c = hi - inv_phi * (hi - lo)
                f_c = gap(c)
            else:
                lo, c, f_c = c, d, f_d
                d = lo + inv_phi * (hi - lo)
                f_d = gap(d)
        p_star = 0.5 * (lo + hi)
        assert abs(p_star - root) <= 2e-8, p_star
        assert abs(gap(p_star) - peak) <= ULP16 * peak


def oracle_over_tables(q, orders, f) -> np.ndarray:
    """f(rows, a) at DPS digits on the table of each triple in q, one order per entry of a new last axis."""
    fields = np.broadcast_arrays(q.q_success, q.q_error, q.q_inconclusive)
    out = np.empty(fields[0].shape + (len(orders),))
    with oracle.mp.workdps(oracle.DPS):
        for idx in np.ndindex(fields[0].shape):
            rows = oracle.table_mp(*(field[idx] for field in fields))
            for k, a in enumerate(orders):
                out[idx + (k,)] = float(f(rows, oracle.mp.mpf(a)))
    return out


class TestDataProcessing:
    """The paper's inadequacy fact on a table that no closed form covers, at 50 digits.

    Post-processing Eve's outcome must not raise a measure of her
    information (data processing).  At P_E = 0.135, xi = 0, merging "?"
    into "+" gives a 2x2 table, and there variant 2 at order 3 rises while
    the standard measure, variant 1 and variant 4 fall.
    """

    def test_v2_rises_on_a_merge_where_the_others_fall(self):
        q = outcome_probs(DiscriminationConfig.from_error_rate(0.135, 0.0))
        with oracle.mp.workdps(oracle.DPS):
            rows = oracle.table_mp(q.q_success, q.q_error, q.q_inconclusive)
            merged = [[r[0] + r[2], r[1]] for r in rows]

            def change(name, a=None):
                return float(oracle.measure(name, merged, a) - oracle.measure(name, rows, a))

            assert change("v2", 3) == pytest.approx(0.0344891, abs=1e-7)
            assert change("std") < 0.0
            for name, a, fall, tol in (("v1", 2, 0.115, 1e-3), ("v1", 10, 0.0171, 1e-4),
                                       ("v4", 3, 0.158, 1e-3), ("v4", 10, 0.107, 1e-3)):
                assert -change(name, a) == pytest.approx(fall, abs=tol), (name, a)
            truth = float(oracle.measure("v2", rows, 3))
        assert closed_form_i2(3.0, q) == 0.04778094147179765
        oracle.assert_exact(closed_form_i2(3.0, q), truth, ULP16, 0.0, "v2 at order 3")


class TestTablePathNearOne:
    """The measures of the table and the direct-sum bound within 16 ulp of max(1, |truth|) next to order 1.

    Order 1 is exactly 1 there too, so these orders take the Renyi
    formulas: the closed forms' own, and for the Renyi entropy of the
    table and the bound, the one power-sum kernel.  The direct-sum bound
    is one formula at every finite order above 1, so it is gated further
    out as well.
    """

    @pytest.fixture(scope="class")
    def joint(self, box):
        return joint_from_outcome_probs(box[0])

    def gate(self, got_at, truth, what, orders=TABLE_NEAR_ONE):
        got = np.stack([got_at(a) for a in orders], axis=-1)
        oracle.assert_exact(got, truth, ULP16, ULP16, what)

    @pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
    def test_alpha_mutual_information(self, box, name):
        closed_form, _ = CLOSED_FORMS[name]
        truth = oracle.measure_grid(name, box[0], TABLE_NEAR_ONE)
        self.gate(lambda a: closed_form(a, box[0]), truth, name)

    def test_renyi_entropy_of_the_table(self, box, joint):
        truth = oracle_over_tables(box[0], TABLE_NEAR_ONE, lambda rows, a: oracle.renyi(rows[0] + rows[1], a))
        flat = joint.reshape(joint.shape[:-2] + (6,))
        self.gate(lambda a: renyi_entropy(flat, a), truth, "renyi")

    def test_majorization_bound_direct_sum(self, box):
        # Each omega of the box sums to exactly 1, so the reference is well
        # conditioned at every order: log2(1/2 + sum omega^a / 2) / (1 - a)
        # above 1, and half the Renyi entropy of omega below it.
        mp = oracle.mp
        _, eta = outcome_probs_grid(*oracle.grid())
        md = majorization_data(zeta_closed_form(eta))
        omega = md.omega
        orders = TABLE_NEAR_ONE + DIRECT_SUM_FAR
        truth = np.empty(omega.shape[:-1] + (len(orders),))
        with mp.workdps(oracle.DPS):
            for idx in np.ndindex(omega.shape[:-1]):
                w = [mp.mpf(float(x)) for x in omega[idx]]
                assert mp.fsum(w) == 1
                for k, a in enumerate(orders):
                    a = mp.mpf(a)
                    value = (mp.log((1 + mp.fsum(x ** a for x in w if x > 0)) / 2) / ((1 - a) * mp.ln2) if a > 1
                             else oracle.renyi(w, a) / 2)
                    truth[idx + (k,)] = float(value)
        self.gate(lambda a: majorization_bound_direct_sum(md, a), truth, "direct sum", orders)


class TestBoundsAudit:
    """Every value cell that `bounds` prints against `oracle.bounds_row_mp`, within 16 ulp of max(1, |truth|).

    The oracle takes the program's own float eta and outcome triple, which
    the P_E sweeps recompute from the printed P_E, so it checks the bounds
    alone: eta itself is off by 6.1e-17 where it should be 0 (at xi = 1
    and at P_E = 1/3), and the oracle does not see that.
    """

    @pytest.mark.parametrize("argv", [["bounds"], ["bounds", "--variable", "p-e"],
                                      ["bounds", "--variable", "p-e", "--xi", "0"]], ids=" ".join)
    def test_every_cell(self, argv, capsys):
        assert cli.main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        head = lines[0].split(",")
        cells = [line.split(",") for line in lines[1:]]
        x = np.array([float(row[0]) for row in cells])
        if "p-e" in argv:
            q, eta = outcome_probs_grid(x, float(argv[argv.index("--xi") + 1]) if "--xi" in argv else 1.0)
            truth = [oracle.bounds_row_mp(*args) for args in zip(eta, zip(q.q_success, q.q_error, q.q_inconclusive))]
        else:
            truth = [oracle.bounds_row_mp(e) for e in x]
            assert all(row[8:] == ["", ""] for row in cells)
        truth = np.array(truth)
        got = np.array([[float(v) for v in row[1:1 + truth.shape[1]]] for row in cells])
        for k in range(truth.shape[1]):
            oracle.assert_exact(got[:, k], truth[:, k], ULP16, ULP16, head[1 + k])


class TestCurvesAudit:
    """Every value cell that `curves` prints, at the default xi, measures and order, against `oracle.measure_grid`.

    The gate is 16 ulp of max(1, |truth|).  As in TestBoundsAudit, the
    oracle takes the program's own float triple, recomputed from the
    printed P_E and xi, so it checks the measures alone.  The default
    334 P_E steps would take ~1.3 s of 50-digit arithmetic; 34 steps keep
    both ends of the default P_E range.
    """

    STEPS = 34

    def test_every_cell(self, capsys):
        assert cli.main(["curves", "--steps", str(self.STEPS)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "p_e,xi,measure,order,value"
        columns = {}
        for line in lines[1:]:
            p_e, xi, measure, order, value = line.split(",")
            columns.setdefault((measure, order), []).append((float(p_e), float(xi), float(value)))
        assert list(columns) == [("std", "1"), ("v1", "2"), ("v2", "2"), ("v4", "2"), ("v1_inf", "inf")]
        for (measure, order), cells in columns.items():
            p_e, xi, got = (np.array(c) for c in zip(*cells))
            assert len(got) == self.STEPS * len(cli.DEFAULT_XI) and set(xi) == set(cli.DEFAULT_XI)
            assert (p_e.min(), p_e.max()) == (cli.DEFAULT_PE_MIN, cli.DEFAULT_PE_MAX)
            q, _ = outcome_probs_grid(p_e, xi)
            if measure in CLOSED_FORMS:
                truth = oracle.measure_grid(measure, q, [float(order)])[:, 0]
            else:
                truth = oracle.measure_grid(measure, q)
            oracle.assert_exact(got, truth, ULP16, ULP16, f"{measure},{order}")


class TestMuOracle:
    """mu_factor, optimize_s_max and zeta_closed_form against the 50-digit nine-line envelope.

    The oracle searches the envelope's ends and crossings at 50 digits,
    while optimize_s_max takes delta* from its closed form, so these gates
    check the closed forms, the derivation and the float rounding; the
    dense delta scan in test_uncertainty checks the envelope argument.
    """

    @pytest.fixture(scope="class")
    def truth(self):
        return np.array([oracle.mu_mp(eta) for eta in MU_ETAS])

    def test_mu_factor(self, truth):
        oracle.assert_exact(mu_factor(np.array(MU_ETAS)), truth, 1e-15, 0.0, "mu_factor")

    def test_optimize_s_max(self, truth):
        got = [optimize_s_max(eta)[0] for eta in MU_ETAS]
        oracle.assert_exact(got, 1.0 / truth, 0.0, 1e-15, "optimize_s_max")

    @pytest.fixture(scope="class")
    def envelopes(self):
        return {eta: oracle.envelope_mp(eta) for eta in sorted(set(MU_ETAS) | set(ETA_GRID))}

    def test_optimal_phase(self, envelopes):
        got = [math.cos(optimize_s_max(eta)[1][1]) for eta in envelopes]
        truth = [float(u) for _, u in envelopes.values()]
        oracle.assert_exact(got, truth, 0.0, 1e-15, "cos delta*")

    def test_named_lines_are_the_peak_at_the_optimum(self, envelopes):
        # The lines that optimize_s_max's derivation names meet at the
        # oracle's u* as the envelope's maximum, and the other lines lie
        # strictly below it, except at eta = 0, 0.2 and 0.5, where more meet.
        tiny = oracle.mp.mpf(10) ** -40
        for eta in ETA_GRID:
            named = PEAK_LINES[0] if eta <= 0.2 else PEAK_LINES[1] if eta <= 0.5 else PEAK_LINES[2]
            with oracle.mp.workdps(oracle.DPS):
                lines, u = envelopes[eta]
                sq = {ij: a + b * u for ij, (a, b) in lines.items()}
                top = max(sq.values())
                assert all(top - sq[ij] <= tiny for ij in named), eta
                if min(abs(eta - knot) for knot in (0.0, 0.2, 0.5)) > 1e-12:
                    assert all(top - v > 1e10 * tiny for ij, v in sq.items() if ij not in named), eta

    def test_zeta_closed_form(self):
        truth = [oracle.zeta_mp(eta) for eta in MU_ETAS]
        oracle.assert_exact(zeta_closed_form(np.array(MU_ETAS)), truth, 0.0, 1e-15, "zeta_closed_form")


class TestCondProb:
    """`curves --measure cond_prob`, Q_S / (Q_S + Q_E), against the Born-rule table at 50 digits."""

    def test_edge_grid(self, capsys):
        p_e = [0.0, 1e-12, 1e-6, 0.001, 0.1, 0.2, 0.3, 1.0 / 3.0]
        argv = ["curves", "--measure", "cond_prob", "--steps", "2"]
        got, truth = [], []
        for lo, hi in zip(p_e, p_e[1:]):
            assert cli.main(argv + ["--p-e-min", repr(lo), "--p-e-max", repr(hi)]
                            + [a for xi in oracle.XI_BOX for a in ("--xi", repr(xi))]) == 0
            for line in capsys.readouterr().out.splitlines()[1:]:
                p, xi, *_, value = line.split(",")
                with oracle.mp.workdps(oracle.DPS):
                    rows = oracle.born_joint_mp(float(p), float(xi))
                    conclusive = rows[0][0] + rows[0][1]
                    truth.append(float(rows[0][0] / conclusive) if conclusive else 0.5)
                got.append(float(value))
        oracle.assert_exact(got, truth, 4 * 2.0 ** -52, 0.0, "cond_prob")
