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
(_cell_probabilities, which computes the 24 cells in Python floats from
the measurement's angles theta and phi, with no measurement object).  The
tally of n rounds is exactly Multinomial(n, p_24), and run_session draws
it once.

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

from ._checks import TINY, integer, real, trusted
from .discrimination import _eta, _phi
from .probe import MAX_ERROR_RATE, _theta

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
        if sum(c.ravel().tolist()) != self.rounds:  # in Python ints: an int64 sum can wrap
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


def _cell_probabilities(error_rate: float, xi: float) -> list[float]:
    """The 24 tally-cell probabilities of a checked (P_E, xi), in tally order.

    Case k = bit*4 + basis_match*2 + bob_correct leaves a real, normalized
    probe state tau_k = (a_k, b_k).  The branch decompositions of the
    gate's output collapse to four families, none of which depends on the
    sending basis: matched and correct leaves the tagged probe state
    (cos theta, +/- sin theta), matched and flipped leaves |->, mismatched
    outcomes leave (c, +/- sqrt(2) s) / sqrt(1 + 2 P_E) (correct bit) or
    |+> (flipped bit), where c = sqrt(1 - 2 P_E) and s = sqrt(2 P_E) are
    the probe's input amplitudes on |+> and |->.  The sign is + for bit 0.

    Eve's measurement has the real vectors (sin gamma, +/- cos gamma) and
    (sqrt(2 eta), 0), with phi = xi (pi/4 - theta), gamma = theta + phi
    and eta = cos(2 gamma), so the Born rule is closed form:
    p_+/- = (a sin gamma +/- b cos gamma)^2 / (1 + eta) and
    p_? = 2 eta a^2 / (1 + eta), computed as (a sqrt(2 eta))^2 / (1 + eta).
    No entry is negative; the flipped-bit state |-> (a = 0) has p_?
    exactly 0, and at xi = 0 (gamma = theta) the wrong guess of the tagged
    states is exactly 0.  Bob's hit rate is (1 + 2 P_E) / 2 on mismatched
    bases and 1 - P_E on matched ones, and cell (m, c, b, e) is 1/4
    (Alice's basis and bit) times Bob's hit (c = 1) or miss rate times
    Eve's p_e in case b*4 + m*2 + c.

    Python floats throughout, except theta (np.arctan2, in probe._theta)
    and eta (np.cos, in discrimination._eta), whose last bits numpy's and
    libm's functions do not share.  theta, phi and eta come from
    probe._theta, discrimination._phi and discrimination._eta(theta, phi),
    the one geometry that DiscriminationConfig.from_error_rate(error_rate,
    xi), its .eta and the analytic pipeline read, so theta, phi, gamma and
    eta have the bits of that config's .theta, .phi, .gamma and .eta.
    """
    theta = float(_theta(error_rate))
    phi = _phi(theta, xi)
    eta = float(_eta(theta, phi))
    gamma = theta + phi
    sin_g, cos_g, root = math.sin(gamma), math.cos(gamma), math.sqrt(2.0 * eta)
    denom = 1.0 + eta
    norm = math.sqrt(1.0 + 2.0 * error_rate)
    mixed = math.sqrt(1.0 - 2.0 * error_rate) / norm
    tagged = math.sqrt(2.0) * math.sqrt(2.0 * error_rate) / norm
    eve = []  # bit 0's cases; bit 1 leaves (a, -b), which swaps p_+ and p_-
    for a, b in ((1.0, 0.0), (mixed, tagged), (0.0, 1.0), (math.cos(theta), math.sin(theta))):
        plus, minus, inconclusive = a * sin_g + b * cos_g, a * sin_g - b * cos_g, a * root
        eve.append((plus * plus / denom, minus * minus / denom, inconclusive * inconclusive / denom))
    cells = []
    for matched, hit in enumerate(((1.0 + 2.0 * error_rate) / 2.0, 1.0 - error_rate)):
        for correct, bob in enumerate((1.0 - hit, hit)):
            w = 0.25 * bob
            p_plus, p_minus, p_inconclusive = eve[matched * 2 + correct]
            cells += [w * p_plus, w * p_minus, w * p_inconclusive, w * p_minus, w * p_plus, w * p_inconclusive]
    return cells


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
    counts = _keyed_generator(cfg.seed).multinomial(cfg.rounds, _cell_probabilities(cfg.error_rate, cfg.xi))
    return trusted(SessionTally, counts.reshape(2, 2, 2, 3), cfg.rounds)


def _empirical_cells(counts: list[int]) -> list[float]:
    """The six (b', e') cells of the restricted counts, in Python floats.

    `counts` are the (alice_bit, eve_outcome) counts over error-free
    sifted rounds, flat in row-major order; each cell is float(n) /
    float(total), as numpy divides an integer array by its total.
    """
    total = sum(counts)
    if total == 0:
        raise ValueError("no error-free sifted rounds in the tally")
    total = float(total)
    return [float(n) / total for n in counts]


def empirical_mutual_information(t: SessionTally) -> float:
    """Plug-in mutual information of the empirical (b', e') table."""
    return _cells_mutual_information(_empirical_cells(t.counts[1, 1].ravel().tolist()))


def _cells_mutual_information(cells: list[float]) -> float:
    """Mutual information of the six _empirical_cells, in Python floats.

    The bits of H(B') + H(E') - H(B', E') evaluated by numpy on the (2, 3)
    table of these cells, as the tests' reference mutual_information does
    it: the row and column sums and the three entropy sums add their
    terms in the order of numpy's sum and np.add.reduceat, and only log2
    runs on numpy, whose last bits libm's math.log2 does not share.
    """
    t00, t01, t02, t10, t11, t12 = cells
    parts = [(t00 + t01) + t02, (t10 + t11) + t12, t00 + t10, t01 + t11, t02 + t12, *cells]
    x = [p * log for p, log in zip(parts, np.log2([max(p, TINY) for p in parts]).tolist())]
    h_b = -(x[0] + x[1]) + 0.0  # +0.0 avoids -0.0
    h_e = -(x[2] + (x[3] + x[4])) + 0.0
    h_be = -(x[5] + ((((x[6] + x[7]) + x[8]) + x[9]) + x[10])) + 0.0
    return h_b + h_e - h_be
