import functools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from fpbprobe.discrimination import DiscriminationConfig, born_probs, build_povm, outcome_probs
from fpbprobe.entropy import joint_from_outcome_probs, mutual_information
from fpbprobe.probe import BASES, DIAGONAL, RECTILINEAR, ProbeConfig, cnot_action
from fpbprobe.simulator import (
    CHUNK_ROUNDS,
    DRAWS_PER_ROUND,
    SessionConfig,
    SessionTally,
    _TOP_BYTE,
    _case_probabilities,
    _case_tables,
    _run_chunk,
    _word_thresholds,
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


GOLDEN_TALLIES = json.loads((Path(__file__).parent / "data" / "session_tallies.json").read_text())["cases"]


def reference_chunk(cfg, chunk_index, n_rounds, eve_cum, p_correct):
    """The int64 tally kernel the fused _run_chunk replaced, kept as its oracle."""
    rng = np.random.Generator(np.random.Philox(key=cfg.seed, counter=[0, 0, 0, chunk_index]))
    u = rng.random((n_rounds, DRAWS_PER_ROUND))
    alice_basis = u[:, 0] >= 0.5
    alice_bit = (u[:, 1] >= 0.5).astype(np.int64)
    bob_basis = u[:, 2] >= 0.5
    matched = (alice_basis == bob_basis).astype(np.int64)
    correct = (u[:, 3] < p_correct[matched]).astype(np.int64)
    case = alice_bit * 4 + matched * 2 + correct
    eve = (u[:, 4, None] >= eve_cum[case]).sum(axis=1)
    composite = matched * 12 + correct * 6 + alice_bit * 3 + eve
    return np.bincount(composite, minlength=24).reshape(2, 2, 2, 3)


def born_case_tables(cfg):
    """Cumulative Eve thresholds per case through the POVM and the Born rule."""
    povm = build_povm(cfg.discrimination())
    cum = np.zeros((8, 2))
    for case in range(8):
        bit, matched, correct = case >> 2, bool(case >> 1 & 1), bool(case & 1)
        tau = conditional_probe_state(cfg.error_rate, bit, matched, correct)
        cum[case] = np.cumsum(born_probs(povm, np.outer(tau, tau.conj())))[:2]
    return cum


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

    def test_chunk_merge_is_order_independent(self):
        """Chunks run and merged in shuffled order give the serial session."""
        cfg = SessionConfig(rounds=3 * CHUNK_ROUNDS + 17, error_rate=0.1, xi=0.4, seed=5)
        eve_cuts, bob_cuts = _case_tables(cfg)
        sizes = [CHUNK_ROUNDS, CHUNK_ROUNDS, CHUNK_ROUNDS, 17]
        tallies = [
            SessionTally(_run_chunk(cfg, i, sizes[i], eve_cuts, bob_cuts), sizes[i]) for i in (2, 3, 0, 1)
        ]
        merged = functools.reduce(SessionTally.merged, tallies)
        session = run_session(cfg)
        assert merged.rounds == session.rounds
        np.testing.assert_array_equal(merged.counts, session.counts)


class TestGoldenTallies:
    """Counts captured from the int64 kernel before the fused one replaced it."""

    @pytest.mark.parametrize("rounds", sorted({c["rounds"] for c in GOLDEN_TALLIES}))
    def test_bit_identical_counts(self, rounds):
        cases = [c for c in GOLDEN_TALLIES if c["rounds"] == rounds]
        assert len(cases) == 18
        for c in cases:
            cfg = SessionConfig(rounds=rounds, error_rate=c["error_rate"], xi=c["xi"], seed=c["seed"])
            assert run_session(cfg).counts.tolist() == c["counts"], c

    def test_coverage(self):
        assert {c["rounds"] for c in GOLDEN_TALLIES} == {
            1, 1000, CHUNK_ROUNDS, CHUNK_ROUNDS + 1, 3 * CHUNK_ROUNDS + 17, (1 << 18) + 4321
        }
        assert {c["error_rate"] for c in GOLDEN_TALLIES} == {0.0, 0.123, 1 / 3}
        assert {c["xi"] for c in GOLDEN_TALLIES} == {0.0, 0.37, 1.0}
        assert max(c["seed"] for c in GOLDEN_TALLIES) >= 2**63


class TestFusedKernel:
    """_run_chunk on the uint64 cut-offs of float tables against the float oracle."""

    SIZES = (1, 2, 999, CHUNK_ROUNDS)

    @staticmethod
    def assert_matches_reference(cfg, eve_cum, p_correct):
        eve_cuts, bob_cuts = _word_thresholds(eve_cum), _word_thresholds(p_correct)
        for chunk, n in enumerate(TestFusedKernel.SIZES):
            np.testing.assert_array_equal(
                _run_chunk(cfg, chunk, n, eve_cuts, bob_cuts),
                reference_chunk(cfg, chunk, n, eve_cum, p_correct),
            )

    def test_random_tables(self):
        rng = np.random.default_rng(20181018)
        for seed in (7, 2**64 - 1):
            cfg = SessionConfig(rounds=1, error_rate=0.1, xi=0.5, seed=seed)
            for _ in range(3):
                eve_cum = np.sort(rng.random((8, 2)), axis=1)
                self.assert_matches_reference(cfg, eve_cum, rng.random(2))

    def test_tables_with_exact_zeros_and_ones(self):
        rng = np.random.default_rng(5)
        cfg = SessionConfig(rounds=1, error_rate=0.1, xi=0.5, seed=99)
        for p_correct in ((0.0, 1.0), (1.0, 0.0), (0.0, 0.0), (1.0, 1.0)):
            picks = rng.choice([0.0, 1.0, 0.5, rng.random()], size=(8, 2))
            eve_cum = np.sort(picks, axis=1)
            eve_cum[0], eve_cum[7] = (0.0, 0.0), (1.0, 1.0)
            self.assert_matches_reference(cfg, eve_cum, np.array(p_correct))

    def test_tables_at_the_edges(self):
        # a sum that rounds to 1 + 2**-52, values past it, a subnormal, the smallest uniform step
        above_one = np.cumsum([0.5 + 2.0**-53, 0.5 + 2.0**-53])[1]
        assert above_one == 1.0 + 2.0**-52
        edges = [0.0, 5e-324, 2.0**-53, 0.5, 1.0 - 2.0**-53, 1.0, above_one, 1.0 + 3 * 2.0**-52]
        rng = np.random.default_rng(11)
        cfg = SessionConfig(rounds=1, error_rate=0.1, xi=0.5, seed=2**63 + 1)
        for _ in range(4):
            eve_cum = np.sort(rng.choice(edges, size=(8, 2)), axis=1)
            eve_cum[1] = (0.0, above_one)
            self.assert_matches_reference(cfg, eve_cum, rng.choice(edges, size=2))

    def test_thresholds_equal_to_drawn_uniforms(self):
        """Each threshold is the uniform of a round it decides, so u == p occurs."""
        cfg = SessionConfig(rounds=1, error_rate=0.1, xi=0.5, seed=77)
        chunk = len(self.SIZES) - 1
        u = np.random.Generator(np.random.Philox(key=cfg.seed, counter=[0, 0, 0, chunk])).random(
            (self.SIZES[chunk], DRAWS_PER_ROUND)
        )
        matched = (u[:, 0] >= 0.5) == (u[:, 2] >= 0.5)
        p_correct = np.array([u[np.flatnonzero(matched == k)[0], 3] for k in (0, 1)])
        case = (u[:, 1] >= 0.5) * 4 + matched * 2 + (u[:, 3] < p_correct[matched.astype(int)])
        eve_cum = np.array([np.sort(u[np.flatnonzero(case == k)[:2], 4]) for k in range(8)])
        self.assert_matches_reference(cfg, eve_cum, p_correct)

    def test_session_tables(self):
        for p_e, xi in ((0.0, 0.0), (0.2, 0.3), (1 / 3, 1.0)):
            cfg = SessionConfig(rounds=1, error_rate=p_e, xi=xi, seed=123)
            self.assert_matches_reference(cfg, *_case_probabilities(cfg))

    def test_case_tables_are_the_converted_probabilities(self):
        for p_e, xi in ((0.0, 0.0), (0.2, 0.3), (1 / 3, 1.0)):
            cfg = SessionConfig(rounds=1, error_rate=p_e, xi=xi, seed=123)
            eve_cuts, bob_cuts = _case_tables(cfg)
            eve_cum, p_correct = _case_probabilities(cfg)
            assert eve_cuts.dtype == bob_cuts.dtype == np.uint64
            np.testing.assert_array_equal(eve_cuts, _word_thresholds(eve_cum))
            np.testing.assert_array_equal(bob_cuts, _word_thresholds(p_correct))


class TestWordThresholds:
    """u < p iff (r >> 11) < t and u >= p iff (r >> 11) >= t, for t = _word_thresholds(p)."""

    @staticmethod
    def neighbours(x):
        return [np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)]

    def edge_thresholds(self):
        ps = [0.0, 5e-324, 2.0**-1060, 2.0**-53, 0.5, 1.0 - 2.0**-53, 1.0, 1.0 + 2.0**-52]
        for k in (1, 3, 12345, 2**52 - 1, 2**52 + 1, 2**53 - 1):
            ps += self.neighbours(k * 2.0**-53)
        return [p for p in ps if p >= 0.0]

    def test_decisions_match_float_compare(self):
        rng = np.random.default_rng(2018)
        for p in self.edge_thresholds():
            cut = _word_thresholds(p)
            t = int(cut)
            m = np.array([m for m in (0, 1, t - 2, t - 1, t, t + 1, 2**52, 2**53 - 1) if 0 <= m < 2**53],
                         dtype=np.uint64)
            r = m << np.uint64(11) | rng.integers(0, 2**11, size=m.size, dtype=np.uint64)
            u = (r >> np.uint64(11)).astype(float) * 2.0**-53
            np.testing.assert_array_equal(m < cut, u < p, err_msg=repr(p))
            np.testing.assert_array_equal(m >= cut, u >= p, err_msg=repr(p))

    def test_exact_values(self):
        got = _word_thresholds([0.0, 5e-324, 2.0**-53, np.nextafter(2.0**-53, 1.0), 0.5, 1.0, 1.0 + 2.0**-52])
        assert got.dtype == np.uint64
        assert got.tolist() == [0, 1, 1, 2, 2**52, 2**53, 2**53 + 2]

    def test_generator_random_is_the_top_53_bits(self):
        """Pins numpy's mapping from Philox words to Generator.random uniforms."""
        n = 4 * CHUNK_ROUNDS + 3
        key, counter = 2**64 - 59, [0, 0, 0, 5]
        raw = np.random.Philox(key=key, counter=counter).random_raw(n)
        u = np.random.Generator(np.random.Philox(key=key, counter=counter)).random(n)
        np.testing.assert_array_equal((raw >> np.uint64(11)) * 2.0**-53, u)

    def test_top_byte_holds_bit_63(self):
        raw = np.random.Philox(key=3).random_raw(4096)
        top = raw.view(np.uint8)[_TOP_BYTE::8]
        np.testing.assert_array_equal(top >> 7, raw >> np.uint64(63))


class TestCaseTables:
    ERROR_RATES = (0.0, 1e-9, 0.05, 0.2, 1 / 3 - 1e-12, 1 / 3)
    XIS = (0.0, 0.25, 0.5, 1.0)

    def test_closed_form_matches_born_rule(self):
        for p_e in self.ERROR_RATES:
            for xi in self.XIS:
                cfg = SessionConfig(rounds=1, error_rate=p_e, xi=xi, seed=1)
                eve_cum, _ = _case_probabilities(cfg)
                np.testing.assert_allclose(eve_cum, born_case_tables(cfg), rtol=0, atol=1e-15)

    def test_unambiguous_scheme_never_guesses_wrong(self):
        # matched and correct: case 3 (bit 0, wrong guess "minus") and 7 (bit 1, wrong guess "plus")
        for p_e in self.ERROR_RATES:
            eve_cum, _ = _case_probabilities(SessionConfig(rounds=1, error_rate=p_e, xi=0.0, seed=1))
            assert eve_cum[3, 1] - eve_cum[3, 0] == 0.0
            assert eve_cum[7, 0] == 0.0


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
