"""Seeded Monte-Carlo BB84 sessions with the entangling probe.

The simulator is the statistical oracle for the analytic pipeline: it
plays full rounds (random basis and bit at Alice, carrier measurement at
Bob, probe measurement at Eve) and tallies outcomes.

Randomness is counter-based for reproducibility: the bit generator is
Philox4x64 (numpy ``Philox``) keyed by the session seed, with the high
word of the 256-bit counter set to the index of a fixed-size chunk of
rounds.  Each round consumes exactly five uniforms at a deterministic
position inside its chunk, so any round's randomness is a pure function
of (seed, round index) and chunked execution in any order merges to the
same tally as a serial run.

The kernel reads the raw 64-bit words r and never forms the uniforms:
``Generator.random`` maps r to u = (r >> 11) * 2**-53, so u >= 1/2 is bit
63 of r, and u < p is (r >> 11) < ceil(p * 2**53), exactly, for every
double p >= 0 (_word_thresholds).  The contract above and every tally are
the same as with float uniforms.

A round falls into one of eight cases (Alice's bit, basis match, Bob
correct), each leaving a known real probe state.  Per session, the
outcome thresholds of every case come from the closed-form Born rule
(_case_probabilities) and become integer cut-offs once (_case_tables);
per chunk, one pass over the words builds the case index, looks both of
Eve's cut-offs up in 8-entry rows and bins the flat tally cell with one
bincount (_run_chunk).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from ._checks import integer, real
from .discrimination import DiscriminationConfig, _measurement_vectors
from .entropy import JointDistribution, mutual_information
from .probe import MAX_ERROR_RATE, ProbeConfig, theta_from_error_rate

CHUNK_ROUNDS = 1 << 16
DRAWS_PER_ROUND = 5

EVE_OUTCOMES = ("plus", "minus", "inconclusive")
TALLY_AXES = ("basis_match", "bob_correct", "alice_bit", "eve_outcome")


@dataclass(frozen=True)
class SessionConfig:
    """Parameters of one simulated key-distribution session."""

    rounds: int
    error_rate: float
    xi: float
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "rounds", integer("rounds", self.rounds, 1, math.inf))
        object.__setattr__(self, "error_rate", float(real("error_rate", self.error_rate, 0.0, MAX_ERROR_RATE)))
        object.__setattr__(self, "xi", float(real("xi", self.xi, 0.0, 1.0)))
        object.__setattr__(self, "seed", integer("seed", self.seed, 0, 2**64 - 1))

    def discrimination(self) -> DiscriminationConfig:
        return DiscriminationConfig.from_error_rate(self.error_rate, self.xi)


@dataclass
class SessionTally:
    """Counts indexed by (basis_match, bob_correct, alice_bit, eve_outcome)."""

    counts: np.ndarray
    rounds: int

    def __post_init__(self):
        c = np.asarray(self.counts, dtype=np.int64)
        if c.shape != (2, 2, 2, 3):
            raise ValueError(f"counts must have shape (2, 2, 2, 3), got {c.shape}")
        if c.min() < 0:
            raise ValueError("counts must be nonnegative")
        if int(c.sum()) != self.rounds:
            raise ValueError("counts must sum to the number of rounds")
        self.counts = c

    def merged(self, other: "SessionTally") -> "SessionTally":
        return SessionTally(self.counts + other.counts, self.rounds + other.rounds)

    @property
    def matched_rounds(self) -> int:
        return int(self.counts[1].sum())

    @property
    def sifted_error_rounds(self) -> int:
        """Basis-matched rounds in which Bob's bit flipped."""
        return int(self.counts[1, 0].sum())

    @property
    def restricted_counts(self) -> np.ndarray:
        """(alice_bit, eve_outcome) counts over error-free sifted rounds."""
        return self.counts[1, 1]

    def as_dict(self) -> dict:
        return {
            "rounds": self.rounds,
            "index_order": list(TALLY_AXES),
            "eve_outcomes": list(EVE_OUTCOMES),
            "counts": self.counts.tolist(),
        }


def _probe_states(probe: ProbeConfig, theta: float) -> np.ndarray:
    """(2, 8) table: column k is the real state (a, b) that
    conditional_probe_state gives for case k = bit*4 + basis_match*2 +
    bob_correct; theta is theta_from_error_rate(probe).
    """
    c, s = probe.amplitudes
    norm = math.sqrt(1.0 + 2.0 * probe.error_rate)
    tagged = math.sqrt(2.0) * s / norm
    sin_t = math.sin(theta)
    return np.array([
        [1.0, c / norm, 0.0, math.cos(theta)] * 2,
        [0.0, tagged, 1.0, sin_t, 0.0, -tagged, 1.0, -sin_t],
    ])


def conditional_probe_state(error_rate: float, bit: int, basis_matched: bool, bob_correct: bool) -> np.ndarray:
    """Normalized probe state after Bob's carrier measurement.

    The branch decompositions collapse to four families, none of which
    depends on the sending basis: matched and correct leaves the tagged
    probe state (cos theta, +/- sin theta), matched and flipped leaves
    |->, mismatched outcomes leave (c, +/- sqrt(2) s) / sqrt(1 + 2 P_E)
    (correct bit) or |+> (flipped bit).  The sign is + for bit 0.
    """
    case = integer("bit", bit, 0, 1) * 4 + bool(basis_matched) * 2 + bool(bob_correct)
    probe = ProbeConfig(error_rate)
    return _probe_states(probe, theta_from_error_rate(probe))[:, case].astype(complex)


# Flat tally cell matched*12 + correct*6 + bit*3 of each case bit*4 + matched*2 + correct;
# Eve's outcome (0, 1, 2) is added to it.
_CASE_CELL = np.array([12 * (k >> 1 & 1) + 6 * (k & 1) + 3 * (k >> 2) for k in range(8)], dtype=np.uint8)
_CASE_CELL.flags.writeable = False

# Offset of the most significant byte inside a uint64 in memory.
_TOP_BYTE = 7 if sys.byteorder == "little" else 0


def _word_thresholds(p) -> np.ndarray:
    """Integer cut-offs t = ceil(p * 2**53) for probability thresholds p >= 0.

    With u = (r >> 11) * 2**-53 the uniform that Generator.random makes of
    the Philox word r, u < p iff (r >> 11) < t and u >= p iff (r >> 11) >= t.
    Scaling by 2**53 is exact for every double (a subnormal p gives t = 1),
    so the decisions are those of the float compare, at p = 0, p = 1 and
    above 1 (t > 2**53 exceeds every r >> 11) included.
    """
    return np.ceil(np.asarray(p, dtype=float) * 2.0**53).astype(np.uint64)


def _case_probabilities(cfg: SessionConfig) -> tuple[np.ndarray, np.ndarray]:
    """Eve's cumulative outcome probabilities per case, and Bob's hit rates.

    Case index is bit*4 + basis_match*2 + bob_correct.  Every case leaves
    a real probe state tau = (a, b), so the Born rule on the measurement
    of build_povm is closed form:
    p_+/- = (a sin gamma +/- b cos gamma)^2 / (1 + eta), with
    gamma = theta + xi (pi/4 - theta) and eta = cos(2 gamma).  The
    cumulative table keeps (p_+, p_+ + p_-); the third threshold is 1.
    At xi = 0 (gamma = theta) the wrong guess of the tagged states is
    exactly 0.  Bob's hit rate is (1 + 2 P_E) / 2 on mismatched bases and
    1 - P_E on matched ones.
    """
    disc = cfg.discrimination()
    v, eta = _measurement_vectors(disc.gamma)
    a, b = _probe_states(ProbeConfig(cfg.error_rate), disc.theta)[:, :, None]
    cum = ((a * v[:2, 0] + b * v[:2, 1]) ** 2 / (1.0 + eta)).cumsum(axis=1)
    p_correct = np.array([(1.0 + 2.0 * cfg.error_rate) / 2.0, 1.0 - cfg.error_rate])
    return cum, p_correct


def _case_tables(cfg: SessionConfig) -> tuple[np.ndarray, np.ndarray]:
    """_case_probabilities as uint64 cut-offs on the raw Philox words.

    _run_chunk compares r >> 11 with them, which decides every round as
    comparing u = (r >> 11) * 2**-53 with the probabilities does, so the
    randomness contract and the tallies are those of the uniforms.  One
    _word_thresholds call per session gives Eve's (8, 2) and Bob's (2,)
    cut-offs.  The closed-form sum p_+ + p_- can round above 1; its
    cut-off then exceeds 2**53 and the outcome never fires, as with the
    float compare.
    """
    cum, p_correct = _case_probabilities(cfg)
    cuts = _word_thresholds(np.concatenate([cum.ravel(), p_correct]))
    return cuts[:16].reshape(8, 2), cuts[16:]


def _run_chunk(cfg: SessionConfig, chunk_index: int, n_rounds: int,
               eve_cuts: np.ndarray, bob_cuts: np.ndarray) -> np.ndarray:
    """(2, 2, 2, 3) tally of one chunk of rounds.

    Reads the n_rounds x 5 raw Philox words r in place of the uniforms
    u = (r >> 11) * 2**-53 that Generator.random would make of them; the
    randomness contract (five words per round at fixed positions, chunk
    index in the high counter word), the decisions and the tally are the
    same as with the uniforms.  Word columns: 0 Alice's basis,
    1 her bit, 2 Bob's basis (each u >= 1/2, i.e. bit 63 of r, read from
    the word's top byte), 3 Bob's hit, 4 Eve's outcome (r >> 11 against
    the uint64 cut-offs of _case_tables).  One pass over them: an intp
    case index, Bob's cut-off by basis match, Eve's two cut-offs from
    8-entry rows, and one bincount of the flat tally cell.
    """
    words = np.random.Philox(key=cfg.seed, counter=[0, 0, 0, chunk_index]).random_raw(n_rounds * DRAWS_PER_ROUND)
    r = words.reshape(n_rounds, DRAWS_PER_ROUND)
    top = r.view(np.uint8)[:, _TOP_BYTE::8]  # bit 7 of top is bit 63 of r: u >= 1/2
    # intp indices: take with any other index dtype is several times slower
    matched = (~(top[:, 0] ^ top[:, 2]) >> 7).astype(np.intp)
    case = (top[:, 1] >> 7).astype(np.intp)
    case <<= 1
    case |= matched
    case <<= 1
    case |= (r[:, 3] >> 11) < bob_cuts.take(matched)
    eve = r[:, 4] >> 11
    cell = (eve >= eve_cuts[:, 0].take(case)).view(np.uint8)
    cell += (eve >= eve_cuts[:, 1].take(case)).view(np.uint8)
    cell += _CASE_CELL.take(case)
    return np.bincount(cell, minlength=24).reshape(2, 2, 2, 3)


def run_session(cfg: SessionConfig) -> SessionTally:
    """Play cfg.rounds rounds and tally the outcomes.

    Deterministic given (config, seed); chunk tallies merge additively,
    so parallel chunk evaluation would reproduce the serial result.
    """
    eve_cuts, bob_cuts = _case_tables(cfg)
    counts = np.zeros((2, 2, 2, 3), dtype=np.int64)
    full, rest = divmod(cfg.rounds, CHUNK_ROUNDS)
    for chunk in range(full):
        counts += _run_chunk(cfg, chunk, CHUNK_ROUNDS, eve_cuts, bob_cuts)
    if rest:
        counts += _run_chunk(cfg, full, rest, eve_cuts, bob_cuts)
    return SessionTally(counts, cfg.rounds)


def empirical_joint(t: SessionTally) -> JointDistribution:
    """Normalized (b', e') table over error-free sifted rounds.

    Eve's outcomes map to bit guesses by their success/error labels:
    plus guesses 0, minus guesses 1, inconclusive stays inconclusive.
    """
    sub = t.restricted_counts
    total = int(sub.sum())
    if total == 0:
        raise ValueError("no error-free sifted rounds in the tally")
    return JointDistribution(sub / total)


def empirical_mutual_information(t: SessionTally) -> float:
    """Plug-in mutual information of the empirical (b', e') table."""
    return mutual_information(empirical_joint(t))
