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

A round falls into one of eight cases (Alice's bit, basis match, Bob
correct), each leaving a known real probe state.  Per session, the
outcome thresholds of every case come from the closed-form Born rule
(_case_tables); per chunk, one pass over the uniforms builds a uint8
case index, looks both of Eve's thresholds up in 8-entry rows and bins
the flat tally cell with one bincount (_run_chunk).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
        # bool is an int subclass: True would pass as 1 round, xi = 1.0 or seed 1.
        for name in ("rounds", "error_rate", "xi", "seed"):
            if isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be a number, not a bool")
        if not (isinstance(self.rounds, int) and self.rounds >= 1):
            raise ValueError(f"rounds must be a positive integer, got {self.rounds!r}")
        if not (
            isinstance(self.error_rate, (int, float))
            and math.isfinite(self.error_rate)
            and 0.0 <= self.error_rate <= MAX_ERROR_RATE
        ):
            raise ValueError(f"error_rate {self.error_rate!r} outside [0, 1/3]")
        if not (
            isinstance(self.xi, (int, float))
            and math.isfinite(self.xi)
            and 0.0 <= self.xi <= 1.0
        ):
            raise ValueError(f"xi {self.xi!r} outside [0, 1]")
        if not (isinstance(self.seed, int) and 0 <= self.seed < 2**64):
            raise ValueError("seed must be a 64-bit unsigned integer")
        object.__setattr__(self, "error_rate", float(self.error_rate))
        object.__setattr__(self, "xi", float(self.xi))

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
    if bit not in (0, 1):
        raise ValueError(f"bit must be 0 or 1, got {bit!r}")
    probe = ProbeConfig(error_rate)
    case = int(bit) * 4 + bool(basis_matched) * 2 + bool(bob_correct)
    return _probe_states(probe, theta_from_error_rate(probe))[:, case].astype(complex)


# Flat tally cell matched*12 + correct*6 + bit*3 of each case bit*4 + matched*2 + correct;
# Eve's outcome (0, 1, 2) is added to it.
_CASE_CELL = np.array([12 * (k >> 1 & 1) + 6 * (k & 1) + 3 * (k >> 2) for k in range(8)], dtype=np.uint8)
_CASE_CELL.flags.writeable = False


def _case_tables(cfg: SessionConfig) -> tuple[np.ndarray, np.ndarray]:
    """Eve's cumulative outcome thresholds per case, and Bob's hit rates.

    Case index is bit*4 + basis_match*2 + bob_correct.  Every case leaves
    a real probe state tau = (a, b), so the Born rule on the measurement
    of build_povm is closed form:
    p_+/- = (a sin gamma +/- b cos gamma)^2 / (1 + eta), with
    gamma = theta + xi (pi/4 - theta) and eta = cos(2 gamma).  The
    cumulative table keeps (p_+, p_+ + p_-); the third threshold is 1.
    At xi = 0 (gamma = theta) the wrong guess of the tagged states is
    exactly 0.
    """
    disc = cfg.discrimination()
    v, eta = _measurement_vectors(disc.gamma)
    a, b = _probe_states(ProbeConfig(cfg.error_rate), disc.theta)[:, :, None]
    cum = ((a * v[:2, 0] + b * v[:2, 1]) ** 2 / (1.0 + eta)).cumsum(axis=1)
    p_correct = np.array([(1.0 + 2.0 * cfg.error_rate) / 2.0, 1.0 - cfg.error_rate])
    return cum, p_correct


def _run_chunk(cfg: SessionConfig, chunk_index: int, n_rounds: int,
               eve_cum: np.ndarray, p_correct: np.ndarray) -> np.ndarray:
    """(2, 2, 2, 3) tally of one chunk of rounds.

    Uniform columns: 0 Alice's basis, 1 her bit, 2 Bob's basis, 3 Bob's
    hit, 4 Eve's outcome.  One pass over them: a uint8 case index, Bob's
    threshold by basis match, Eve's two thresholds from 8-entry rows, and
    one bincount of the flat tally cell.
    """
    rng = np.random.Generator(np.random.Philox(key=cfg.seed, counter=[0, 0, 0, chunk_index]))
    u = rng.random((n_rounds, DRAWS_PER_ROUND))
    matched = (u[:, 0] >= 0.5) == (u[:, 2] >= 0.5)
    correct = u[:, 3] < np.where(matched, p_correct[1], p_correct[0])
    case = (u[:, 1] >= 0.5).view(np.uint8) << 2
    case |= matched.view(np.uint8) << 1
    case |= correct.view(np.uint8)
    eve = u[:, 4]
    cell = (eve >= eve_cum[:, 0].take(case)).view(np.uint8)
    cell += (eve >= eve_cum[:, 1].take(case)).view(np.uint8)
    cell += _CASE_CELL.take(case)
    return np.bincount(cell, minlength=24).reshape(2, 2, 2, 3)


def run_session(cfg: SessionConfig) -> SessionTally:
    """Play cfg.rounds rounds and tally the outcomes.

    Deterministic given (config, seed); chunk tallies merge additively,
    so parallel chunk evaluation would reproduce the serial result.
    """
    eve_cum, p_correct = _case_tables(cfg)
    counts = np.zeros((2, 2, 2, 3), dtype=np.int64)
    full, rest = divmod(cfg.rounds, CHUNK_ROUNDS)
    for chunk in range(full):
        counts += _run_chunk(cfg, chunk, CHUNK_ROUNDS, eve_cum, p_correct)
    if rest:
        counts += _run_chunk(cfg, full, rest, eve_cum, p_correct)
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
