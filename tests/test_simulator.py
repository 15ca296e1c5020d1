import json
import math
from pathlib import Path

import numpy as np
import pytest

from fpbprobe.discrimination import DiscriminationConfig, born_probs, build_povm, outcome_probs
from fpbprobe.entropy import joint_from_outcome_probs, mutual_information
from fpbprobe.probe import BASES, DIAGONAL, RECTILINEAR, ProbeConfig, cnot_action
from fpbprobe.simulator import (
    MAX_ROUNDS,
    SessionConfig,
    SessionTally,
    _case_probabilities,
    conditional_probe_state,
    empirical_joint,
    empirical_mutual_information,
    run_session,
)


def two_qubit_joint_oracle(p_e, xi, basis, bit):
    """Order-free Born rule on the full two-qubit state.

    p(bob outcome, eve outcome) = <psi| P_b (x) M_e |psi> involves only
    commuting operators on different subsystems, so it is independent of
    who measures first; the simulator's collapse-then-measure sampling
    must reproduce it exactly.
    """
    psi = cnot_action(basis, bit, ProbeConfig(p_e))
    povm = build_povm(DiscriminationConfig.from_error_rate(p_e, xi))
    out = np.zeros((2, 3))
    for b in (0, 1):
        proj = np.zeros((2, 2), dtype=complex)
        proj[b, b] = 1.0
        for e, m in enumerate(povm.elements):
            op = np.kron(proj, m)
            out[b, e] = np.vdot(psi, op @ psi).real
    return out


GOLDEN = json.loads((Path(__file__).parent / "data" / "session_tallies.json").read_text())
GOLDEN_TALLIES = GOLDEN["cases"]


def born_case_tables(cfg):
    """Eve's (plus, minus, inconclusive) probabilities per case through the POVM and the Born rule."""
    povm = build_povm(cfg.discrimination())
    probs = np.zeros((8, 3))
    for case in range(8):
        bit, matched, correct = case >> 2, bool(case >> 1 & 1), bool(case & 1)
        tau = conditional_probe_state(cfg.error_rate, bit, matched, correct)
        probs[case] = born_probs(povm, np.outer(tau, tau.conj()))
    return probs


def born_cell_probabilities(cfg):
    """The 24 tally-cell probabilities, cell by cell from the Born-rule tables.

    Alice's basis and bit are fair coins; Bob is right with probability
    (1 + 2 P_E) / 2 on mismatched bases and 1 - P_E on matched ones.
    """
    eve = born_case_tables(cfg)
    hit = ((1.0 + 2.0 * cfg.error_rate) / 2.0, 1.0 - cfg.error_rate)
    p = np.zeros((2, 2, 2, 3))
    for matched, correct, bit, outcome in np.ndindex(p.shape):
        bob = hit[matched] if correct else 1.0 - hit[matched]
        p[matched, correct, bit, outcome] = 0.25 * bob * eve[bit * 4 + matched * 2 + correct, outcome]
    return p


class TestSessionConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SessionConfig(rounds=0, error_rate=0.1, xi=0.5, seed=1)
        with pytest.raises(ValueError):
            SessionConfig(rounds=10, error_rate=0.4, xi=0.5, seed=1)
        with pytest.raises(ValueError):
            SessionConfig(rounds=10, error_rate=0.1, xi=1.5, seed=1)
        with pytest.raises(ValueError):
            SessionConfig(rounds=10, error_rate=0.1, xi=0.5, seed=-1)
        with pytest.raises(ValueError, match="rounds"):
            SessionConfig(rounds=2**63, error_rate=0.1, xi=0.5, seed=1)

    def test_tally_rejects_malformed_counts(self):
        counts = np.ones((2, 2, 2, 3), dtype=np.int64)
        with pytest.raises(ValueError, match="shape"):
            SessionTally(counts[0], 12)
        negative = counts.copy()
        negative[0, 0, 0, 0] = -1
        with pytest.raises(ValueError, match="nonnegative"):
            SessionTally(negative, 22)
        with pytest.raises(ValueError, match="sum"):
            SessionTally(counts, 23)

    def test_largest_round_count_is_drawn(self):
        assert MAX_ROUNDS == 2**63 - 1
        t = run_session(SessionConfig(rounds=MAX_ROUNDS, error_rate=0.1, xi=0.5, seed=1))
        assert t.rounds == MAX_ROUNDS and int(t.counts.sum()) == MAX_ROUNDS


class TestReproducibility:
    def test_bit_exact_repeat(self):
        cfg = SessionConfig(rounds=30000, error_rate=0.12, xi=0.6, seed=987654321)
        t1 = run_session(cfg)
        t2 = run_session(cfg)
        np.testing.assert_array_equal(t1.counts, t2.counts)

    def test_seed_changes_tally(self):
        base = dict(rounds=30000, error_rate=0.12, xi=0.6)
        t1 = run_session(SessionConfig(seed=1, **base))
        t2 = run_session(SessionConfig(seed=2, **base))
        assert (t1.counts != t2.counts).any()


class TestGoldenTallies:
    """Counts of run_session's multinomial draw, captured under the numpy
    version the file records: they depend on numpy's binomial sampler,
    which numpy may change between releases."""

    @pytest.mark.parametrize("rounds", sorted({c["rounds"] for c in GOLDEN_TALLIES}))
    def test_bit_identical_counts(self, rounds):
        cases = [c for c in GOLDEN_TALLIES if c["rounds"] == rounds]
        assert len(cases) == 18
        versions = f"captured with numpy {GOLDEN['numpy']}, running numpy {np.__version__}"
        for c in cases:
            cfg = SessionConfig(rounds=rounds, error_rate=c["error_rate"], xi=c["xi"], seed=c["seed"])
            assert run_session(cfg).counts.tolist() == c["counts"], (versions, c)

    def test_coverage(self):
        assert {c["rounds"] for c in GOLDEN_TALLIES} == {1, 1000, 65536, 65537, 196625, 266465}
        assert {c["error_rate"] for c in GOLDEN_TALLIES} == {0.0, 0.123, 1 / 3}
        assert {c["xi"] for c in GOLDEN_TALLIES} == {0.0, 0.37, 1.0}
        assert max(c["seed"] for c in GOLDEN_TALLIES) >= 2**63


class TestCaseTables:
    ERROR_RATES = (0.0, 1e-9, 0.05, 0.2, 1 / 3 - 1e-12, 1 / 3)
    XIS = (0.0, 0.25, 0.5, 1.0)

    def test_closed_form_matches_born_rule(self):
        for p_e in self.ERROR_RATES:
            for xi in self.XIS:
                cfg = SessionConfig(rounds=1, error_rate=p_e, xi=xi, seed=1)
                eve, _ = _case_probabilities(cfg)
                assert eve.shape == (8, 3)
                np.testing.assert_allclose(eve, born_case_tables(cfg), rtol=0, atol=1e-15)

    def test_flipped_bit_state_is_never_inconclusive(self):
        # matched and flipped leaves |->, orthogonal to the inconclusive
        # element: cases 2 (bit 0) and 6 (bit 1) have p_? = 0 exactly
        for p_e in self.ERROR_RATES + (0.1, 0.3):
            for xi in self.XIS + (0.2, 0.75):
                eve, p_correct = _case_probabilities(SessionConfig(rounds=1, error_rate=p_e, xi=xi, seed=1))
                assert eve[2, 2] == 0.0 and eve[6, 2] == 0.0, (p_e, xi)
                assert eve.min() >= 0.0 and p_correct.min() >= 0.0, (p_e, xi)

    def test_unambiguous_scheme_never_guesses_wrong(self):
        # matched and correct: case 3 (bit 0, wrong guess "minus") and 7 (bit 1, wrong guess "plus")
        for p_e in self.ERROR_RATES:
            eve, _ = _case_probabilities(SessionConfig(rounds=1, error_rate=p_e, xi=0.0, seed=1))
            assert eve[3, 1] == 0.0
            assert eve[7, 0] == 0.0


# Upper-tail standard-normal quantile for p = 1e-6.
Z_1E6 = 4.753424308822899


class TestSamplerGoodnessOfFit:
    """run_session's tallies against the Born-rule cell probabilities.

    One Pearson statistic per session, pooled over seeds and (P_E, xi)
    points, each with its exact null mean k - 1 and variance
    2(k - 1) + (sum 1/p - k^2 - 2k + 2)/n (k live cells, n rounds), and
    compared with the Wilson-Hilferty chi-square quantile at p = 1e-6.
    A cell is dead when its expected count is below 1e-9: probability 0,
    or a last-bit residue such as p_? ~ 1e-17 where eta rounds to 6e-17
    instead of 0.  Dead cells must count 0, which a correct sampler
    violates with probability below their summed expected count (checked
    to be under 1e-6); the live cells are then multinomial with the
    renormalized probabilities.  Left in, a dead cell adds about 1 to the
    null mean but almost never to the statistic, so a naive pool reads
    low, and its exact variance (1/p ~ 1e17) would drown every other term.
    """

    ERROR_RATES = (0.0, 0.05, 0.15, 0.25, 1 / 3)
    XIS = (0.0, 0.3, 0.7, 1.0)
    SEEDS = 20
    ROUNDS = 20000

    def test_pooled_pearson(self):
        stat = mean = var = dead_expected = 0.0
        for i, (p_e, xi) in enumerate((p_e, xi) for p_e in self.ERROR_RATES for xi in self.XIS):
            p = born_cell_probabilities(SessionConfig(rounds=1, error_rate=p_e, xi=xi, seed=1)).ravel()
            for s in range(self.SEEDS):
                cfg = SessionConfig(rounds=self.ROUNDS, error_rate=p_e, xi=xi, seed=1000 * i + s)
                counts = run_session(cfg).counts.ravel()
                dead = self.ROUNDS * p < 1e-9
                assert not counts[dead].any(), (p_e, xi, cfg.seed, counts, p)
                dead_expected += self.ROUNDS * p[dead].sum()
                c, q = counts[~dead], p[~dead] / p[~dead].sum()
                k = c.size
                stat += float(((c - self.ROUNDS * q) ** 2 / (self.ROUNDS * q)).sum())
                mean += k - 1
                var += 2.0 * (k - 1) + (float((1.0 / q).sum()) - k * k - 2 * k + 2) / self.ROUNDS
        assert dead_expected < 1e-6
        scaled = mean + (stat - mean) * math.sqrt(2.0 * mean / var)
        limit = mean * (1.0 - 2.0 / (9.0 * mean) + Z_1E6 * math.sqrt(2.0 / (9.0 * mean))) ** 3
        assert scaled <= limit, (scaled, limit, mean, var)
        # lower tail too: tallies that sit on the expected counts are not multinomial
        assert stat - mean >= -Z_1E6 * math.sqrt(var), (stat, mean, var)


class TestConditionalProbeState:
    def test_rejects_bit_outside_0_1(self):
        for bit in (2, -7, -1):
            with pytest.raises(ValueError, match="bit"):
                conditional_probe_state(0.1, bit, True, True)


class TestSessionStatistics:
    def test_zero_error_rate_has_no_sifted_errors(self):
        t = run_session(SessionConfig(rounds=50000, error_rate=0.0, xi=1.0, seed=11))
        assert t.sifted_error_rounds == 0

    def test_basis_match_fraction(self):
        n = 200000
        t = run_session(SessionConfig(rounds=n, error_rate=0.1, xi=0.5, seed=13))
        sigma = 0.5 * math.sqrt(n)
        assert abs(t.matched_rounds - 0.5 * n) <= 4 * sigma

    def test_sifted_error_fraction_matches_error_rate(self):
        n = 200000
        p = 0.18
        t = run_session(SessionConfig(rounds=n, error_rate=p, xi=0.5, seed=17))
        matched = t.matched_rounds
        sigma = math.sqrt(matched * p * (1 - p))
        assert abs(t.sifted_error_rounds - matched * p) <= 4 * sigma

    def test_counts_sum_to_rounds(self):
        t = run_session(SessionConfig(rounds=12345, error_rate=0.2, xi=0.3, seed=19))
        assert int(t.counts.sum()) == 12345


class TestEmpiricalJoint:
    def test_cells_within_four_sigma(self):
        n = 100000
        cfg = SessionConfig(rounds=n, error_rate=0.15, xi=0.5, seed=23)
        t = run_session(cfg)
        analytic = joint_from_outcome_probs(outcome_probs(cfg.discrimination())).table
        counts = t.restricted_counts
        total = counts.sum()
        for idx in np.ndindex(2, 3):
            p = analytic[idx]
            sigma = math.sqrt(total * p * (1 - p))
            if sigma == 0.0:
                assert counts[idx] == 0
            else:
                assert abs(counts[idx] - total * p) <= 4 * sigma

    def test_unambiguous_scheme_has_no_wrong_guesses(self):
        t = run_session(SessionConfig(rounds=50000, error_rate=0.2, xi=0.0, seed=29))
        counts = t.restricted_counts
        assert counts[0, 1] == 0 and counts[1, 0] == 0

    def test_inconclusive_fraction(self):
        n = 100000
        cfg = SessionConfig(rounds=n, error_rate=0.2, xi=0.25, seed=31)
        t = run_session(cfg)
        q = outcome_probs(cfg.discrimination())
        counts = t.restricted_counts
        total = counts.sum()
        inconclusive = counts[:, 2].sum()
        sigma = math.sqrt(total * q.q_inconclusive * (1 - q.q_inconclusive))
        assert abs(inconclusive - total * q.q_inconclusive) <= 4 * sigma

    def test_inconclusive_column_unbiased(self):
        cfg = SessionConfig(rounds=200000, error_rate=0.2, xi=0.25, seed=37)
        counts = run_session(cfg).restricted_counts
        col = counts[:, 2]
        total = col.sum()
        sigma = 0.5 * math.sqrt(total)
        assert abs(col[0] - 0.5 * total) <= 4 * sigma

    def test_empty_restriction_rejected(self):
        counts = np.zeros((2, 2, 2, 3), dtype=np.int64)
        counts[0, 0, 0, 0] = 7
        with pytest.raises(ValueError):
            empirical_joint(SessionTally(counts, 7))


class TestSequentialConsistency:
    def test_collapse_matches_two_qubit_born_rule(self):
        """Case-decomposed sampling probabilities vs the order-free oracle."""
        for p_e in (0.05, 0.18, 0.3):
            for xi in (0.0, 0.5, 1.0):
                cfg = SessionConfig(rounds=1, error_rate=p_e, xi=xi, seed=1)
                povm = build_povm(cfg.discrimination())
                for basis in BASES:
                    for bit in (0, 1):
                        oracle = two_qubit_joint_oracle(p_e, xi, basis, bit)
                        # simulator path: carrier branch prob x probe Born probs
                        got = np.zeros((2, 3))
                        for bob_bit in (0, 1):
                            correct = bob_bit == bit
                            branch = (1 - p_e) if correct else p_e
                            tau = conditional_probe_state(p_e, bit, True, correct)
                            probs = born_probs(povm, np.outer(tau, tau.conj()))
                            got[bob_bit] = branch * probs
                        np.testing.assert_allclose(got, oracle, atol=1e-12)

    def test_mismatched_basis_branches_match_oracle(self):
        for p_e in (0.05, 0.18):
            xi = 0.5
            cfg = SessionConfig(rounds=1, error_rate=p_e, xi=xi, seed=1)
            povm = build_povm(cfg.discrimination())
            for basis, bob_basis in ((RECTILINEAR, DIAGONAL), (DIAGONAL, RECTILINEAR)):
                for bit in (0, 1):
                    psi = cnot_action(basis, bit, ProbeConfig(p_e))
                    # express the carrier in Bob's (other) basis: Hadamard-like maps
                    if basis == RECTILINEAR:
                        # r = (h + v)/sqrt2, l = (-h + v)/sqrt2
                        rot = np.array([[1, 1], [-1, 1]]) / math.sqrt(2)
                    else:
                        # h = (r - l)/sqrt2, v = (r + l)/sqrt2
                        rot = np.array([[1, -1], [1, 1]]) / math.sqrt(2)
                    block = psi.reshape(2, 2)
                    rotated = rot @ block
                    for bob_bit in (0, 1):
                        branch = np.vdot(rotated[bob_bit], rotated[bob_bit]).real
                        correct = bob_bit == bit
                        expected_branch = (
                            (1 + 2 * p_e) / 2 if correct else (1 - 2 * p_e) / 2
                        )
                        assert branch == pytest.approx(expected_branch, abs=1e-12)
                        tau = conditional_probe_state(p_e, bit, False, correct)
                        collapsed = rotated[bob_bit] / math.sqrt(branch)
                        phase_free = np.abs(np.vdot(collapsed, tau))
                        assert phase_free == pytest.approx(1.0, abs=1e-12)


class TestEmpiricalMutualInformation:
    def test_orthogonal_helstrom_is_one_bit(self):
        # deficit from a perfect bit is ~(2/ln2)(a - 1/2)^2 with a the
        # empirical bit-0 fraction, so 1e-3 absorbs the sampling noise
        t = run_session(SessionConfig(rounds=50000, error_rate=1 / 3, xi=1.0, seed=41))
        assert empirical_mutual_information(t) == pytest.approx(1.0, abs=1e-3)

    def test_zero_disturbance_helstrom_no_information(self):
        t = run_session(SessionConfig(rounds=50000, error_rate=0.0, xi=1.0, seed=43))
        assert empirical_mutual_information(t) == pytest.approx(0.0, abs=2e-3)

    def test_converges_to_analytic_across_seeds(self):
        p_e, xi = 0.15, 0.75
        analytic = mutual_information(
            joint_from_outcome_probs(outcome_probs(DiscriminationConfig.from_error_rate(p_e, xi)))
        )
        vals = [
            empirical_mutual_information(
                run_session(SessionConfig(rounds=60000, error_rate=p_e, xi=xi, seed=s))
            )
            for s in range(10)
        ]
        mean = float(np.mean(vals))
        stderr = float(np.std(vals, ddof=1)) / math.sqrt(len(vals))
        assert abs(mean - analytic) <= 3 * max(stderr, 1e-5)
