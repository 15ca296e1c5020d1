import dataclasses
import json
import math
import os
import random
import threading
from pathlib import Path

import numpy as np
import pytest

from conftest import case_probabilities_reference, cell_probabilities_reference, probe_states_reference
from fpbprobe import simulator
from fpbprobe.discrimination import DiscriminationConfig, build_povm, outcome_probs
from fpbprobe.entropy import joint_from_outcome_probs, mutual_information
from fpbprobe.probe import theta_grid
from fpbprobe.simulator import (
    MAX_ROUNDS,
    SessionConfig,
    SessionTally,
    _cell_probabilities,
    _keyed_generator,
    empirical_joint,
    empirical_mutual_information,
    run_session,
)

RECTILINEAR, DIAGONAL = BASES = ("rectilinear", "diagonal")


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


# The sending basis's carrier components re-expressed in Bob's other basis.
TO_OTHER_BASIS = {
    RECTILINEAR: np.array([[1, 1], [-1, 1]]) / math.sqrt(2),  # r = (h + v)/sqrt2, l = (-h + v)/sqrt2
    DIAGONAL: np.array([[1, -1], [1, 1]]) / math.sqrt(2),     # h = (r - l)/sqrt2, v = (r + l)/sqrt2
}


def two_qubit_joint_oracle(p_e, xi, basis, bit):
    """Order-free Born rule on the full two-qubit state.

    p(bob outcome, eve outcome) = <psi| P_b (x) M_e |psi> involves only
    commuting operators on different subsystems, so it is independent of
    who measures first; the simulator's collapse-then-measure sampling
    must reproduce it exactly.
    """
    psi = gate_basis_cnot_oracle(basis, bit, p_e)
    povm = build_povm(DiscriminationConfig.from_error_rate(p_e, xi))
    out = np.zeros((2, 3))
    for b in (0, 1):
        proj = np.zeros((2, 2), dtype=complex)
        proj[b, b] = 1.0
        for e, m in enumerate(povm):
            op = np.kron(proj, m)
            out[b, e] = np.vdot(psi, op @ psi).real
    return out


GOLDEN = json.loads((Path(__file__).parent / "data" / "session_tallies.json").read_text())
GOLDEN_TALLIES = GOLDEN["cases"]


def born_case_tables(cfg):
    """Eve's (plus, minus, inconclusive) probabilities per case through the POVM and the Born rule."""
    povm = build_povm(DiscriminationConfig.from_error_rate(cfg.error_rate, cfg.xi))
    states = probe_states_reference(cfg.error_rate, float(theta_grid(cfg.error_rate)))
    probs = np.zeros((8, 3))
    for case, tau in enumerate(states.T):
        probs[case] = [np.trace(m @ np.outer(tau, tau)).real for m in povm]
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

    def test_tally_rejects_counts_whose_int64_sum_wraps(self):
        # 2 (2**63 - 1) + 3 is 1 in int64 arithmetic
        counts = np.zeros((2, 2, 2, 3), dtype=np.int64)
        counts[1, 1, 0, 0] = counts[1, 1, 1, 1] = 2**63 - 1
        counts[0, 0, 0, 0] = 3
        assert int(counts.sum()) == 1
        with pytest.raises(ValueError, match="sum"):
            SessionTally(counts, 1)

    SHAPE = (2, 2, 2, 3)

    def test_tally_rejects_fractional_counts(self):
        # 24 cells of 1.9 would truncate to 24 ones, summing to 24
        with pytest.raises(ValueError, match="integer dtype"):
            SessionTally(np.full(self.SHAPE, 1.9), 24)

    def test_tally_rejects_float_counts_of_whole_values(self):
        with pytest.raises(ValueError, match="integer dtype"):
            SessionTally(np.ones(self.SHAPE), 24)

    def test_tally_rejects_bool_counts(self):
        with pytest.raises(ValueError, match="integer dtype"):
            SessionTally(np.ones(self.SHAPE, dtype=bool), 24)

    def test_tally_rejects_counts_beyond_int64(self):
        with pytest.raises(ValueError, match="integer dtype"):
            SessionTally(np.ones(self.SHAPE, dtype=np.uint64), 24)

    def test_tally_rejects_float_rounds(self):
        with pytest.raises(ValueError, match="rounds"):
            SessionTally(np.ones(self.SHAPE, dtype=np.int64), 24.0)

    def test_tally_rejects_bool_rounds(self):
        counts = np.zeros(self.SHAPE, dtype=np.int64)
        counts[0, 0, 0, 0] = 1
        with pytest.raises(ValueError, match="rounds"):
            SessionTally(counts, True)

    def test_tally_takes_any_int64_safe_integers(self):
        for counts in (np.ones(self.SHAPE, dtype=np.int32), np.ones(self.SHAPE, dtype=np.uint8),
                       np.ones(self.SHAPE, dtype=np.int64).tolist()):
            t = SessionTally(counts, np.int64(24))
            assert t.counts.dtype == np.int64 and type(t.rounds) is int and t.rounds == 24

    def test_tally_is_frozen(self):
        # The checks hold for the tally's life, for a drawn one and a built one alike.
        drawn = run_session(SessionConfig(rounds=1000, error_rate=0.1, xi=0.5, seed=1))
        for t in (drawn, SessionTally(np.ones(self.SHAPE, dtype=np.int64), 24)):
            rounds, counts = t.rounds, t.counts
            with pytest.raises(dataclasses.FrozenInstanceError):
                t.rounds = 2.5
            with pytest.raises(dataclasses.FrozenInstanceError):
                t.counts = t.counts.astype(float) * 0.5
            assert t.rounds == rounds and t.counts is counts and t.counts.dtype == np.int64

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


def _entropy_draws_refused(monkeypatch):
    """Make every OS-entropy draw raise: os.urandom, and the copy that
    random (and so secrets and numpy's SeedSequence) took at import."""
    def refuse(n):
        raise AssertionError("OS entropy drawn")

    monkeypatch.setattr(os, "urandom", refuse)
    monkeypatch.setattr(random, "_urandom", refuse)


SPREAD = [SessionConfig(rounds=r, error_rate=p, xi=x, seed=s)
          for r, p, x, s in [(1, 0.0, 0.0, 0), (1000, 0.12, 0.37, 5), (65537, 1 / 3, 1.0, 2**63 - 1),
                             (10**9, 0.2, 0.6, 2**64 - 1), (4321, 0.05, 0.9, 2**63)]]


class TestKeyedGenerator:
    """run_session draws from Generator(Philox(key=seed)) without building one per session."""

    def test_reset_generator_is_a_fresh_keyed_philox(self):
        for seed in (0, 1, 2**63 - 1, 2**63, 2**64 - 1):
            gen = _keyed_generator(12345)
            gen.integers(0, 2**32, size=3, dtype=np.uint32)  # leaves a buffered half word
            gen.random(5)  # and part of a Philox block
            gen = _keyed_generator(seed)
            fresh = np.random.Generator(np.random.Philox(key=seed))
            state, want = gen.bit_generator.state, fresh.bit_generator.state
            assert state["state"]["key"].tolist() == want["state"]["key"].tolist() == [seed, 0]
            assert state["state"]["counter"].tolist() == want["state"]["counter"].tolist()
            assert {k: state[k] for k in ("buffer_pos", "has_uint32", "uinteger")} == \
                {k: want[k] for k in ("buffer_pos", "has_uint32", "uinteger")}
            assert gen.integers(0, 2**32, size=5, dtype=np.uint32).tolist() == \
                fresh.integers(0, 2**32, size=5, dtype=np.uint32).tolist()
            assert gen.random(7).tolist() == fresh.random(7).tolist()

    def test_spread_of_sessions_matches_a_fresh_generator(self, monkeypatch):
        expected = {}
        for cfg in SPREAD:
            expected[cfg] = run_session(cfg).counts.tolist()
        # the same sessions with a fresh Generator(Philox(key=seed)) per draw, as before the reuse
        monkeypatch.setattr(simulator, "_keyed_generator", lambda seed: np.random.Generator(np.random.Philox(key=seed)))
        for cfg in SPREAD:
            assert run_session(cfg).counts.tolist() == expected[cfg], cfg

    def test_never_draws_os_entropy(self, monkeypatch):
        _entropy_draws_refused(monkeypatch)
        with pytest.raises(AssertionError, match="OS entropy"):
            np.random.Philox(key=1)  # the refusal is in force
        expected = [c["counts"] for c in GOLDEN_TALLIES[:6]]
        got = []

        def sessions():  # a new thread builds its generator under the refusal too
            got.extend(run_session(SessionConfig(rounds=c["rounds"], error_rate=c["error_rate"], xi=c["xi"],
                                                 seed=c["seed"])).counts.tolist() for c in GOLDEN_TALLIES[:6])

        worker = threading.Thread(target=sessions)
        worker.start()
        worker.join(timeout=30)
        assert not worker.is_alive()
        sessions()
        assert got == expected * 2

    def test_threads_interleaved_give_the_serial_tallies(self, monkeypatch):
        configs = [SessionConfig(rounds=10**6 + k, error_rate=0.05 + 0.01 * k, xi=0.1 * (k % 10), seed=7919 * k)
                   for k in range(24)]
        serial = [run_session(cfg).counts.tolist() for cfg in configs]
        keyed, step = _keyed_generator, threading.Barrier(2, timeout=30)

        def keyed_then_wait(seed):
            gen = keyed(seed)
            step.wait()  # the other thread keys its generator before this one draws
            return gen

        monkeypatch.setattr(simulator, "_keyed_generator", keyed_then_wait)
        halves = (configs[0::2], configs[1::2])
        results = ([], [])

        def work(i):
            results[i].extend(run_session(cfg).counts.tolist() for cfg in halves[i])

        threads = [threading.Thread(target=work, args=(i,)) for i in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert results[0] == serial[0::2] and results[1] == serial[1::2]


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
                eve, _ = case_probabilities_reference(p_e, xi)
                assert eve.shape == (8, 3)
                np.testing.assert_allclose(eve, born_case_tables(cfg), rtol=0, atol=1e-15)

    def test_cells_match_the_array_reference_bit_for_bit(self):
        # The Python-float cells against the array construction they
        # replaced, on a grid with both ends of P_E and xi and seeded points.
        rng = np.random.default_rng(2701)
        error_rates = self.ERROR_RATES + (1e-12, 0.1, 0.3) + tuple(rng.uniform(0.0, 1 / 3, 40))
        xis = self.XIS + (1e-12, 0.75, 1.0 - 1e-12) + tuple(rng.uniform(0.0, 1.0, 20))
        for p_e in map(float, error_rates):
            for xi in map(float, xis):
                cells = _cell_probabilities(p_e, xi)
                assert type(cells) is list and len(cells) == 24 and all(type(c) is float for c in cells)
                got = np.array(cells).view(np.uint64)
                want = cell_probabilities_reference(p_e, xi).view(np.uint64)
                np.testing.assert_array_equal(got, want, err_msg=f"P_E={p_e!r}, xi={xi!r}")

    def test_probe_states_are_the_collapsed_gate_output(self):
        # Column k of the reference states is the probe state left in case k: the
        # gate oracle's output ket, its carrier read by Bob in the sending
        # basis (matched) or the other one, in both sending bases, up to a
        # global phase.  At P_E = 0 Bob never reads a flipped bit on a
        # matched basis, so those two cases leave no state.
        for p_e in self.ERROR_RATES:
            states = probe_states_reference(p_e, float(theta_grid(p_e)))
            for case, tau in enumerate(states.T):
                bit, matched, correct = case >> 2, case >> 1 & 1, case & 1
                for basis in BASES:
                    block = gate_basis_cnot_oracle(basis, bit, p_e).reshape(2, 2)
                    if not matched:
                        block = TO_OTHER_BASIS[basis] @ block
                    branch = block[bit if correct else 1 - bit]
                    weight = np.vdot(branch, branch).real
                    if p_e == 0.0 and matched and not correct:
                        assert weight == 0.0
                        continue
                    collapsed = branch / math.sqrt(weight)
                    phase = np.vdot(collapsed, tau) / abs(np.vdot(collapsed, tau))
                    np.testing.assert_allclose(phase * collapsed, tau, rtol=0, atol=1e-14,
                                               err_msg=f"P_E={p_e}, case {case}, {basis}")

    def test_flipped_bit_state_is_never_inconclusive(self):
        # matched and flipped leaves |->, orthogonal to the inconclusive
        # element: cases 2 (bit 0) and 6 (bit 1) have p_? = 0 exactly, and
        # so do their tally cells (matched, flipped, either bit, inconclusive)
        for p_e in self.ERROR_RATES + (0.1, 0.3):
            for xi in self.XIS + (0.2, 0.75):
                eve, p_correct = case_probabilities_reference(p_e, xi)
                assert eve[2, 2] == 0.0 and eve[6, 2] == 0.0, (p_e, xi)
                assert eve.min() >= 0.0 and p_correct.min() >= 0.0, (p_e, xi)
                cells = np.reshape(_cell_probabilities(p_e, xi), (2, 2, 2, 3))
                assert cells[1, 0, 0, 2] == 0.0 and cells[1, 0, 1, 2] == 0.0, (p_e, xi)
                assert cells.min() >= 0.0, (p_e, xi)

    def test_unambiguous_scheme_never_guesses_wrong(self):
        # matched and correct: case 3 (bit 0, wrong guess "minus") and 7 (bit 1,
        # wrong guess "plus") have probability 0 exactly at xi = 0, and so do
        # their tally cells
        for p_e in self.ERROR_RATES:
            eve, _ = case_probabilities_reference(p_e, 0.0)
            assert eve[3, 1] == 0.0
            assert eve[7, 0] == 0.0
            cells = np.reshape(_cell_probabilities(p_e, 0.0), (2, 2, 2, 3))
            assert cells[1, 1, 0, 1] == 0.0 and cells[1, 1, 1, 0] == 0.0


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
        analytic = joint_from_outcome_probs(outcome_probs(DiscriminationConfig.from_error_rate(cfg.error_rate, cfg.xi))).table
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
        q = outcome_probs(DiscriminationConfig.from_error_rate(cfg.error_rate, cfg.xi))
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
                povm = build_povm(DiscriminationConfig.from_error_rate(p_e, xi))
                states = probe_states_reference(p_e, float(theta_grid(p_e)))
                for basis in BASES:
                    for bit in (0, 1):
                        oracle = two_qubit_joint_oracle(p_e, xi, basis, bit)
                        # simulator path: carrier branch prob x probe Born probs
                        got = np.zeros((2, 3))
                        for bob_bit in (0, 1):
                            correct = bob_bit == bit
                            branch = (1 - p_e) if correct else p_e
                            tau = states[:, bit * 4 + 2 + correct]
                            probs = [np.trace(m @ np.outer(tau, tau)).real for m in povm]
                            got[bob_bit] = branch * np.array(probs)
                        np.testing.assert_allclose(got, oracle, atol=1e-12)

    def test_mismatched_basis_branches_match_oracle(self):
        for p_e in (0.05, 0.18):
            states = probe_states_reference(p_e, float(theta_grid(p_e)))
            for basis in BASES:
                for bit in (0, 1):
                    psi = gate_basis_cnot_oracle(basis, bit, p_e)
                    # express the carrier in Bob's (other) basis
                    rotated = TO_OTHER_BASIS[basis] @ psi.reshape(2, 2)
                    for bob_bit in (0, 1):
                        branch = np.vdot(rotated[bob_bit], rotated[bob_bit]).real
                        correct = bob_bit == bit
                        expected_branch = (
                            (1 + 2 * p_e) / 2 if correct else (1 - 2 * p_e) / 2
                        )
                        assert branch == pytest.approx(expected_branch, abs=1e-12)
                        tau = states[:, bit * 4 + correct]
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

    def test_matches_the_joint_table_measure_bit_for_bit(self):
        # The Python-float path against entropy.mutual_information on
        # empirical_joint(t): seeded tallies with zero cells, empty columns,
        # counts past 2**53 and drawn one-round sessions.
        rng = np.random.default_rng(2702)
        tallies = []
        for k in range(600):
            counts = np.zeros((2, 2, 2, 3), dtype=np.int64)
            counts[0, 0, 0, 0] = 1  # a nonempty tally even when the restriction is empty
            restricted = rng.integers(0, [2, 10, 1000, 2**40, 2**60][k % 5], size=(2, 3))
            restricted[rng.random((2, 3)) < 0.3] = 0
            if k % 4 == 0:
                restricted[:, k % 3] = 0
            counts[1, 1] = restricted
            tallies.append(SessionTally(counts, sum(counts.ravel().tolist())))
        tallies += [run_session(SessionConfig(rounds=1, error_rate=p_e, xi=xi, seed=s))
                    for p_e in (0.0, 0.1, 1 / 3) for xi in (0.0, 1.0) for s in range(20)]
        tallies += [run_session(SessionConfig(rounds=n, error_rate=0.2, xi=0.0, seed=n)) for n in (2, 3, 10, 1000)]
        empty = 0
        for t in tallies:
            if not t.restricted_counts.any():
                empty += 1
                for measure in (empirical_joint, empirical_mutual_information):
                    with pytest.raises(ValueError, match="no error-free sifted rounds"):
                        measure(t)
                continue
            joint = empirical_joint(t)
            got, want = empirical_mutual_information(t), mutual_information(joint)
            assert type(got) is float and got.hex() == want.hex(), t.counts[1, 1].tolist()
            # the Python-float cells are numpy's quotients of the counts by their total
            assert joint.table.tobytes() == (t.restricted_counts / sum(t.counts[1, 1].ravel().tolist())).tobytes()
        assert 0 < empty < len(tallies) // 2
