"""Seeded Monte-Carlo BB84 sessions with the entangling probe.

The simulator is the statistical oracle for the analytic pipeline: it
samples the tally of a whole session (random basis and bit at Alice,
carrier measurement at Bob, probe measurement at Eve) from its own
Born-rule probabilities, not from the outcome triple the analytic
pipeline computes.

A round falls into one of eight cases (Alice's bit, basis match, Bob
correct), each leaving a known real probe state, and Eve's measurement
splits each case into three outcomes.  So every round lands in one of 24
tally cells, with probabilities fixed per session: 1/4 for Alice's basis
and bit, Bob's hit or miss rate given the basis match, and Eve's outcome
probabilities from the closed-form Born rule on the case's probe state
(_case_probabilities).  The tally of n rounds is exactly
Multinomial(n, p_24), and run_session draws it once.

The bit generator is Philox4x64 (numpy ``Philox``) keyed by the session
seed, and a session is one ``Generator.multinomial`` draw over the 24
cells, so n is at most 2**63 - 1 (numpy takes the trial count as a C
long).  Each thread keeps one ``Philox`` and its ``Generator``.  Before
each draw the Philox state is set to key [seed, 0], counter 0 and an
empty buffer, the state ``Philox(key=seed)`` starts in, so the stream is
that of ``Generator(Philox(key=seed))``.  No generator is built per
session (and no unused OS-entropy seed drawn for it), and sessions in
different threads never share one.  A tally depends on numpy's binomial
sampler as well as on the Philox stream.  numpy guarantees only the
streams of its bit generators across releases, so seeded tallies are
pinned to the numpy version recorded with the golden tallies in
tests/data.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from ._checks import integer, real, trusted
from .discrimination import DiscriminationConfig, _from_error_rate, _measurement_vectors
from .entropy import JointDistribution, mutual_information
from .probe import MAX_ERROR_RATE

# Used only by perfbench/workloads.py philox_fill_ns, which its selftest runs traced.
CHUNK_ROUNDS = 1 << 16
DRAWS_PER_ROUND = 5

MAX_ROUNDS = 2**63 - 1  # numpy's multinomial takes the number of rounds as a C long

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
        object.__setattr__(self, "rounds", integer("rounds", self.rounds, 1, MAX_ROUNDS))
        object.__setattr__(self, "error_rate", float(real("error_rate", self.error_rate, 0.0, MAX_ERROR_RATE)))
        object.__setattr__(self, "xi", float(real("xi", self.xi, 0.0, 1.0)))
        object.__setattr__(self, "seed", integer("seed", self.seed, 0, 2**64 - 1))

    def discrimination(self) -> DiscriminationConfig:
        return _from_error_rate(self.error_rate, self.xi)


@dataclass(frozen=True)
class SessionTally:
    """Counts indexed by (basis_match, bob_correct, alice_bit, eve_outcome)."""

    counts: np.ndarray
    rounds: int

    def __post_init__(self):
        object.__setattr__(self, "rounds", integer("rounds", self.rounds, 1, MAX_ROUNDS))
        c = np.asarray(self.counts)
        if c.dtype.kind not in "iu" or not np.can_cast(c.dtype, np.int64):
            raise ValueError(f"counts must have an integer dtype that fits in int64, got {c.dtype}")
        if c.shape != (2, 2, 2, 3):
            raise ValueError(f"counts must have shape (2, 2, 2, 3), got {c.shape}")
        if c.min() < 0:
            raise ValueError("counts must be nonnegative")
        if int(c.sum()) != self.rounds:
            raise ValueError("counts must sum to the number of rounds")
        object.__setattr__(self, "counts", c.astype(np.int64, copy=False))

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


def _probe_states(error_rate: float, theta: float) -> np.ndarray:
    """(2, 8) table: column k is the real, normalized probe state after Bob's
    carrier measurement in case k = bit*4 + basis_match*2 + bob_correct;
    theta is theta_grid(error_rate).

    The branch decompositions of the gate's output collapse to four
    families, none of which depends on the sending basis: matched and
    correct leaves the tagged probe state (cos theta, +/- sin theta),
    matched and flipped leaves |->, mismatched outcomes leave
    (c, +/- sqrt(2) s) / sqrt(1 + 2 P_E) (correct bit) or |+> (flipped
    bit), where c = sqrt(1 - 2 P_E) and s = sqrt(2 P_E) are the probe's
    input amplitudes on |+> and |->.  The sign is + for bit 0.
    """
    c, s = math.sqrt(1.0 - 2.0 * error_rate), math.sqrt(2.0 * error_rate)
    norm = math.sqrt(1.0 + 2.0 * error_rate)
    tagged = math.sqrt(2.0) * s / norm
    sin_t = math.sin(theta)
    return np.array([
        [1.0, c / norm, 0.0, math.cos(theta)] * 2,
        [0.0, tagged, 1.0, sin_t, 0.0, -tagged, 1.0, -sin_t],
    ])


def _case_probabilities(cfg: SessionConfig) -> tuple[np.ndarray, np.ndarray]:
    """Eve's (plus, minus, inconclusive) probabilities per case, and Bob's hit rates.

    Case index is bit*4 + basis_match*2 + bob_correct.  Every case leaves
    a real probe state tau = (a, b), so the Born rule on the measurement
    of build_povm is closed form: one square (v_k . tau)^2 / (1 + eta) per
    row v_k of _measurement_vectors, i.e.
    p_+/- = (a sin gamma +/- b cos gamma)^2 / (1 + eta) and
    p_? = 2 eta a^2 / (1 + eta), with gamma = theta + xi (pi/4 - theta)
    and eta = cos(2 gamma).  No entry is negative; the flipped-bit state
    |-> (a = 0) has p_? exactly 0, and at xi = 0 (gamma = theta) the wrong
    guess of the tagged states is exactly 0.  Bob's hit rate is
    (1 + 2 P_E) / 2 on mismatched bases and 1 - P_E on matched ones.
    """
    disc = cfg.discrimination()
    v, eta = _measurement_vectors(disc.gamma)
    a, b = _probe_states(cfg.error_rate, disc.theta)[:, :, None]
    eve = (a * v[:, 0] + b * v[:, 1]) ** 2 / (1.0 + eta)
    p_correct = np.array([(1.0 + 2.0 * cfg.error_rate) / 2.0, 1.0 - cfg.error_rate])
    return eve, p_correct


_per_thread = threading.local()
_ZEROS = (0, 0, 0, 0)


def _keyed_generator(seed: int) -> np.random.Generator:
    """This thread's Generator, in the state Generator(Philox(key=seed)) starts in.

    Built once per thread from a fixed seed, so no OS entropy is drawn;
    the state set here replaces all of it.
    """
    gen = getattr(_per_thread, "generator", None)
    if gen is None:
        gen = _per_thread.generator = np.random.Generator(np.random.Philox(0))
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZEROS, "key": (seed, 0)},
        "buffer": _ZEROS,
        "buffer_pos": 4,  # empty: the next draw starts a new Philox block
        "has_uint32": 0,
        "uinteger": 0,
    }
    return gen


def run_session(cfg: SessionConfig) -> SessionTally:
    """Tally of cfg.rounds rounds, drawn at once from its multinomial law.

    Cell (m, c, b, e) has probability 1/4 (Alice's basis and bit) times
    Bob's hit (c = 1) or miss rate on basis match m, times Eve's
    probability of outcome e in case b*4 + m*2 + c.  The tally is
    Generator(Philox(key=cfg.seed)).multinomial(cfg.rounds, p_24): the
    same config gives the same counts under the same numpy version.
    """
    eve, p_correct = _case_probabilities(cfg)
    bob = np.stack([1.0 - p_correct, p_correct], axis=1)  # (basis_match, bob_correct)
    p24 = 0.25 * bob[:, :, None, None] * eve.reshape(2, 2, 2, 3).transpose(1, 2, 0, 3)
    counts = _keyed_generator(cfg.seed).multinomial(cfg.rounds, p24.ravel())
    return trusted(SessionTally, counts.reshape(2, 2, 2, 3), cfg.rounds)


def empirical_joint(t: SessionTally) -> JointDistribution:
    """Normalized (b', e') table over error-free sifted rounds.

    Eve's outcomes map to bit guesses by their success/error labels:
    plus guesses 0, minus guesses 1, inconclusive stays inconclusive.
    """
    sub = t.restricted_counts
    total = int(sub.sum())
    if total == 0:
        raise ValueError("no error-free sifted rounds in the tally")
    return trusted(JointDistribution, sub / total)


def empirical_mutual_information(t: SessionTally) -> float:
    """Plug-in mutual information of the empirical (b', e') table."""
    return mutual_information(empirical_joint(t))
