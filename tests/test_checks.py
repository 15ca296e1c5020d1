"""One input-check policy (fpbprobe._checks) at every numeric entry point.

Each row feeds one parameter a value, with every other argument valid.
Every row rejects bools, nan, the infinities, a string, a ragged nested
list and an out-of-range value with a ValueError that names the parameter,
and gives the same result for a numpy scalar as for the equal Python
number.  Integer parameters and the real parameters of functions that
take one number reject arrays the same way.
"""

from __future__ import annotations

import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest

import fpbprobe
from fpbprobe import (
    DiscriminationConfig,
    MajorizationData,
    Order,
    OutcomeProbs,
    SessionConfig,
    SessionTally,
    binary_entropy,
    bounds_table,
    closed_form_i1,
    empirical_mutual_information,
    error_lower_bound,
    majorization_data,
    mu_factor,
    mutual_info_upper_bound,
    naimark_basis,
    optimize_s_max,
    outcome_probs_grid,
    renyi_entropy,
    run_session,
    shannon_entropy,
    shor_preskill_rate,
    theta_grid,
    xi_to_phi,
)
from fpbprobe import cli

Q = OutcomeProbs(0.6, 0.1, 0.3)

# id: (parameter, call, a valid value that float32 holds exactly, a valid
# whole number, a finite value out of range or None if every finite value is valid)
REAL_ROWS = {
    "theta_grid": ("error_rate", theta_grid, 0.125, 0, 0.5),
    "DiscriminationConfig.theta": ("theta", lambda v: DiscriminationConfig(v, 0.0), 0.5, 0, 1.0),
    "DiscriminationConfig.phi": ("phi", lambda v: DiscriminationConfig(0.25, v), 0.25, 0, 0.75),
    "from_error_rate.error_rate": ("error_rate", lambda v: DiscriminationConfig.from_error_rate(v, 0.5), 0.125, 0, 0.5),
    "from_error_rate.xi": ("xi", lambda v: DiscriminationConfig.from_error_rate(0.125, v), 0.5, 1, 1.5),
    "xi_to_phi.xi": ("xi", lambda v: xi_to_phi(v, 0.25), 0.5, 1, 1.5),
    "xi_to_phi.theta": ("theta", lambda v: xi_to_phi(0.5, v), 0.25, 0, 1.0),
    "outcome_probs_grid.error_rate": ("error_rate", lambda v: outcome_probs_grid(v, 0.5), 0.125, 0, 0.5),
    "outcome_probs_grid.xi": ("xi", lambda v: outcome_probs_grid(0.125, v), 0.5, 1, 1.5),
    "error_lower_bound.theta": ("theta", lambda v: error_lower_bound(v, 0.25), 0.5, 0, 1.0),
    "error_lower_bound.q_inconclusive": ("q_inconclusive", lambda v: error_lower_bound(0.25, v), 0.25, 0, 1.5),
    "Order": ("order", Order, 2.5, 2, 0.0),
    "closed_form_i1.order": ("order", lambda v: closed_form_i1(v, Q), 2.5, 2, -1.0),
    "binary_entropy": ("p", binary_entropy, 0.125, 1, 1.5),
    "shor_preskill_rate": ("delta", shor_preskill_rate, 0.125, 0, 0.75),
    "naimark_basis.gamma": ("gamma", naimark_basis, 0.5, 0, 1.0),
    "naimark_basis.phase": ("phase", lambda v: naimark_basis(0.5, v), 2.5, 3, None),
    "optimize_s_max.eta": ("eta", optimize_s_max, 0.25, 1, 1.5),
    "mu_factor": ("eta", mu_factor, 0.25, 1, 1.5),
    "mutual_info_upper_bound": ("eta", lambda v: mutual_info_upper_bound(Q, v), 0.25, 1, -0.5),
    "bounds_table": ("eta", lambda v: bounds_table(v, Q), 0.25, 1, 1.5),
    "SessionConfig.error_rate": ("error_rate", lambda v: SessionConfig(10, v, 0.5, 1), 0.125, 0, 0.5),
    "SessionConfig.xi": ("xi", lambda v: SessionConfig(10, 0.125, v, 1), 0.5, 1, 1.5),
}
INFINITE_ORDERS = {"Order", "closed_form_i1.order"}  # inf is the min-entropy order
# Parameters that take one number, so an array fails like any bad value.  The
# config classes raise TypeError for one (test_config_fields_hold_python_numbers).
ONE_NUMBER = {
    "xi_to_phi.xi", "xi_to_phi.theta", "error_lower_bound.theta", "error_lower_bound.q_inconclusive",
    "shor_preskill_rate", "naimark_basis.gamma", "naimark_basis.phase", "optimize_s_max.eta",
}

# id: (parameter, call, a valid value, a value out of range)
INTEGER_ROWS = {
    "SessionConfig.rounds": ("rounds", lambda v: SessionConfig(v, 0.125, 0.5, 1), 10, 0),
    "SessionConfig.seed": ("seed", lambda v: SessionConfig(10, 0.125, 0.5, v), 2**64 - 1, 2**64),
}

ROWS = {**{k: ("real", *v) for k, v in REAL_ROWS.items()}, **{k: ("integer", *v) for k, v in INTEGER_ROWS.items()}}


def assert_same(a, b):
    """Equal values of the same types, through dataclasses, tuples and arrays."""
    assert type(a) is type(b), (a, b)
    if dataclasses.is_dataclass(a):
        for f in dataclasses.fields(a):
            assert_same(getattr(a, f.name), getattr(b, f.name))
    elif isinstance(a, (tuple, list)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert_same(x, y)
    elif isinstance(a, np.ndarray):
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)
    else:
        assert a == b


def numpy_twins(kind, good, whole):
    """(numpy scalar, equal Python number) pairs that the row must treat alike."""
    pairs = [(np.array(whole)[()], whole)]  # int64, or uint64 past its range
    if kind == "real":
        pairs += [(np.float32(good), good), (np.float64(good), good), (np.int32(whole), whole)]
    return pairs


def bad_values(key, kind, good, out_of_range):
    values = [True, False, np.bool_(True), np.bool_(False), math.nan, -math.inf, str(good)]
    if key not in INFINITE_ORDERS:
        values.append(math.inf)
    if out_of_range is not None:
        values.append(out_of_range)
    if kind == "integer":
        values += [float(good), np.float64(good)]
    if kind == "integer" or key in ONE_NUMBER:
        values.append(np.array([good, good]))
    values.append([[good], [good, good]])  # ragged: no parameter takes it
    return values


@pytest.mark.parametrize("key", ROWS)
class TestPolicy:
    def test_rejects(self, key):
        kind, name, call, good, *rest = ROWS[key]
        for value in bad_values(key, kind, good, rest[-1]):
            try:
                call(value)
            except ValueError as exc:
                assert re.search(rf"\b{name}\b", str(exc)), f"{value!r}: {exc}"
            else:
                pytest.fail(f"{key} accepted {value!r}")

    def test_numpy_scalars_match_python_numbers(self, key):
        kind, _, call, good, *rest = ROWS[key]
        whole = rest[0] if kind == "real" else good
        for numpy_value, value in numpy_twins(kind, good, whole):
            assert_same(call(numpy_value), call(value))


def test_config_fields_hold_python_numbers():
    cfg = SessionConfig(np.int64(10), np.float32(0.125), np.int64(1), np.uint64(2**64 - 1))
    assert [type(v) for v in dataclasses.astuple(cfg)] == [int, float, float, int]
    for make in (Order, lambda v: DiscriminationConfig(v, 0.0), lambda v: SessionConfig(10, v, 0.5, 1)):
        with pytest.raises(TypeError):
            make(np.array([0.125, 0.25]))


def test_arrays_follow_the_same_policy():
    p = np.array([0.125, 0.25])
    assert_same(outcome_probs_grid(p.astype(np.float32), np.array([0, 1])), outcome_probs_grid(list(p), [0.0, 1.0]))
    for xi in (np.array([True, False]), np.array(["0.5"]), np.array([0.5, np.nan]), [0.5, 1.5], np.array([0.5j])):
        with pytest.raises(ValueError, match=r"\bxi\b"):
            outcome_probs_grid(p, xi)
    for call in (binary_entropy, mu_factor):
        with pytest.raises(ValueError):
            call(np.array([True]))
    # Probability vectors (a stack of them too, and the vectors of a hand-built
    # MajorizationData) and zeta sequences: each valid as floats, each rejected
    # as complex, bool or object.
    stack = [[1.0, 0.0], [0.0, 1.0]]
    for name, call, good in (("probabilities", shannon_entropy, [1.0, 0.0]),
                             ("probabilities", lambda p: renyi_entropy(p, 2.0), stack),
                             ("omega", lambda p: MajorizationData(np.ones(2), p, [0.75, 0.25]), [1.0, 0.0]),
                             ("omega_prime", lambda p: MajorizationData(np.ones(2), [0.5, 0.5], p), stack),
                             ("zeta", majorization_data, [1.0, 1.0])):
        call(good)
        for bad in (np.array(good, dtype=complex), np.array(good, dtype=bool), np.array(good, dtype=object)):
            with pytest.raises(ValueError, match=rf"\b{name}\b"):
                call(bad)
    with pytest.raises(ValueError, match=r"\bzeta\b"):
        majorization_data([-0.5, 1.0])


def test_bool_checks_live_in_one_module():
    """Only _checks may test for bools, so the input policy has one home."""
    package = Path(fpbprobe.__file__).parent
    hits = [
        f"{path.name}:{n}: {line.strip()}"
        for path in sorted(package.glob("*.py")) if path.name != "_checks.py"
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if re.search(r"isinstance\(.*bool", line)
    ]
    assert hits == []


def test_computed_values_are_not_checked_again(capsys, monkeypatch):
    """What the package computes from checked input is built without a second check.

    With the checks of every class below refusing to run, the default curves,
    both default bounds sweeps, a simulate run and a session print and return
    exactly what they do unpatched.  povm takes its DiscriminationConfig from
    the caller's --theta, so that class checks there and nowhere else.
    """
    def run(argv):
        assert cli.main(argv) == 0
        return capsys.readouterr().out

    def session():
        tally = run_session(SessionConfig(1000, 0.1, 0.5, 7))
        return tally.counts.tolist(), tally.rounds, empirical_mutual_information(tally)

    argvs = [["curves"], ["bounds"], ["bounds", "--variable", "p-e"], ["simulate", "--rounds", "1000"]]
    povm = ["povm", "--theta", "0.3", "--xi", "0.5"]
    expected = [run(argv) for argv in argvs], session(), run(povm)

    def refuse(self):
        raise AssertionError(f"{type(self).__name__} checked a computed value")

    checked = DiscriminationConfig.__post_init__
    for cls in (OutcomeProbs, MajorizationData, SessionTally, DiscriminationConfig):
        monkeypatch.setattr(cls, "__post_init__", refuse)
    unchecked = [run(argv) for argv in argvs], session()
    monkeypatch.setattr(DiscriminationConfig, "__post_init__", checked)
    assert unchecked + (run(povm),) == expected
