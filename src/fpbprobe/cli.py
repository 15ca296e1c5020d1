"""Command-line front end emitting machine-readable sweep data.

Subcommands:

* ``curves``    long-format CSV of information measures over a (P_E, xi) grid
* ``bounds``    CSV of uncertainty bounds over an eta or P_E grid
* ``simulate``  JSON report of one Monte-Carlo session vs the analytic values
* ``povm``      JSON dump of one measurement (operators, outcome triple, bound)

Output is byte-identical across runs for identical flags and seed.
Numbers are printed with 17 significant digits and LF line endings.
Exit codes: 0 success, 2 argument error, 3 I/O error.

Every subcommand takes ``--config FILE`` and ``--out PATH``.  The file
holds ``key=value`` lines, one key per long flag name (``p_e_min`` or
``p-e-min`` for ``--p-e-min``).  A config value is parsed exactly like the
flag of the same name, with its type and choices; a repeatable flag takes
comma-separated values.  A flag given on the command line wins over the
file.  Keys of other subcommands are ignored; a key that no subcommand
defines is an argument error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from contextlib import contextmanager, suppress
from functools import lru_cache

import numpy as np

from ._g17 import WIDTH, format_g17
from .discrimination import (
    DiscriminationConfig,
    build_povm,
    error_lower_bound,
    outcome_probs,
    outcome_probs_grid,
    xi_to_phi,
)
from .entropy import (
    Order,
    closed_form_i1,
    closed_form_i2,
    closed_form_i4,
    closed_form_i_std,
    joint_from_outcome_probs,
    renyi_entropy,
    shannon_entropy,
)
from .probe import MAX_ERROR_RATE
from .simulator import (
    SessionConfig,
    empirical_joint,
    empirical_mutual_information,
    run_session,
)
from .uncertainty import (
    coles_piani_bound,
    majorization_bound_direct_sum,
    majorization_bound_tensor,
    majorization_data,
    mu_bound,
    mutual_info_upper_bound,
    zeta_closed_form,
)

MEASURES = ("std", "v1", "v2", "v4", "v1_inf", "cond_prob")
DEFAULT_MEASURES = ("std", "v1", "v2", "v4", "v1_inf")
DEFAULT_XI = (0.0, 0.25, 0.5, 0.75, 1.0)
DEFAULT_ORDERS = ("2",)
DEFAULT_PE_MIN = 0.001
DEFAULT_PE_MAX = MAX_ERROR_RATE
DEFAULT_PE_STEPS = 334
DEFAULT_ETA_STEPS = 501

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
BLOCK_VALUES = 4096  # float cells formatted and written per block


@contextmanager
def _open_out(path):
    """Stdout, or a file at `path` that appears only once it is complete.

    The text goes to a temporary file beside the target, which replaces
    the target on success and is removed on any error, so a failed write
    leaves a pre-existing target untouched.  Targets that exist but are
    not regular files (devices, pipes) are written in place.
    """
    if path in (None, "-"):
        yield sys.stdout
        return
    target = os.path.realpath(path)
    if os.path.exists(target) and not os.path.isfile(target):
        with open(target, "w", newline="") as fh:
            yield fh
        return
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=f".{os.path.basename(target)}.")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            mask = os.umask(0)
            os.umask(mask)
            os.chmod(tmp, 0o666 & ~mask)  # the mode a plain open() would give
            yield fh
        os.replace(tmp, target)
    except BaseException:
        with suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _key_cells(column) -> np.ndarray:
    """One row of ASCII bytes per cell, NUL-padded, then ','.

    Floats print as '%.17g', strings as given.
    """
    column = np.asarray(column)
    if column.dtype.kind == "f":
        column = np.array([b"%.17g" % v for v in column.tolist()])
    column = column.astype(bytes)
    packed = column.view(np.uint8).reshape(column.size, column.itemsize)
    return np.concatenate([packed, np.full((len(packed), 1), ord(","), np.uint8)], axis=1)


def _write_csv(fh, header: str, keys, values: np.ndarray, tail: str = "\n") -> None:
    """Write `header`, then one CSV line per point of the grid spanned by `keys`.

    `keys` are the leading columns: one sequence of floats or strings per
    axis, the last varying fastest.  `values` has shape
    ``(len(k) for k in keys) + (m,)``: the m float cells that follow the
    keys on each line.  `tail` ends each line.  Floats print as
    ``'%.17g'``.  A block of lines is whole rows of the first key axis,
    at most `BLOCK_VALUES` float cells but at least one row, built in one
    byte buffer whose NULs are dropped before the write.
    """
    key_cells = [_key_cells(key) for key in keys]
    fh.write(header + "\n")
    shape = tuple(len(c) for c in key_cells)
    m = values.shape[-1]
    values = values.reshape(shape[0], -1)
    tail_bytes = np.frombuffer(tail.encode(), np.uint8)
    col = sum(c.shape[1] for c in key_cells)  # where the values start
    line = col + m * (WIDTH + 1) - 1 + len(tail_bytes)
    step = max(1, BLOCK_VALUES // values.shape[1])  # first-axis rows per block
    for start in range(0, shape[0], step):
        rows = min(step, shape[0] - start)
        buf = bytearray(rows * math.prod(shape[1:]) * line)
        lines = np.frombuffer(buf, np.uint8).reshape(rows, *shape[1:], line)
        at = 0
        for axis, c in enumerate(key_cells):
            c = c[start:start + rows] if axis == 0 else c
            lines[..., at:at + c.shape[1]] = np.expand_dims(c, tuple(range(1, len(shape) - axis)))
            at += c.shape[1]
        flat = lines.reshape(-1, line)
        # Each value and its ','; the tail then overwrites the last ','.
        cells = flat[:, col:col + m * (WIDTH + 1)].reshape(-1, m, WIDTH + 1)
        cells[..., :WIDTH] = format_g17(values[start:start + rows]).reshape(-1, m, WIDTH)
        cells[..., WIDTH] = ord(",")
        flat[:, line - len(tail_bytes):] = tail_bytes
        fh.write(buf.translate(None, b"\0").decode("ascii"))


def _load_config_file(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = line.split("=", 1)
            out[key.strip().lower().replace("-", "_")] = value.strip()
    return out


def _apply_config(parser: argparse.ArgumentParser, args, config: dict[str, str]) -> None:
    """Fill each flag of `args.command` that the command line left unset from `config`.

    A value goes through argparse's own conversion for its flag, type and
    choices included; a repeatable flag splits it at commas.  Keys of other
    subcommands are ignored, so one file can serve them all.
    """
    subcommands = next(a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = {name: {a.dest: a for a in sub._actions if a.default is not argparse.SUPPRESS}  # not --help
             for name, sub in subcommands.items()}
    for key in config:
        if not any(key in f for f in flags.values()):
            raise ValueError(f"unknown config key {key!r}")
    sub = subcommands[args.command]
    for key, action in flags[args.command].items():
        if key not in config or getattr(args, key) is not None:
            continue
        repeatable = isinstance(action, argparse._AppendAction)
        tokens = [t.strip() for t in config[key].split(",") if t.strip()] if repeatable else [config[key]]
        try:
            values = [sub._get_values(action, [tok]) for tok in tokens]
        except argparse.ArgumentError as exc:
            raise ValueError(f"config key {key}: {exc.message}") from None
        setattr(args, key, values if repeatable else values[0])


def _path(value: str) -> str:
    """A file path; an empty one would resolve to the working directory."""
    if not value:
        raise argparse.ArgumentTypeError("empty path")
    return value


def _given(value, default):
    return default if value is None else value


def _grid(lo: float, hi: float, steps: int) -> np.ndarray:
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"grid bounds [{lo}, {hi}] invalid: need min < max")
    if steps < 2:
        raise ValueError(f"steps must be >= 2, got {steps}")
    return np.linspace(lo, hi, steps)


def cmd_curves(args) -> int:
    xis = _given(args.xi, DEFAULT_XI)
    measures = _given(args.measure, DEFAULT_MEASURES)
    orders = [Order.parse(tok) for tok in _given(args.order, DEFAULT_ORDERS)]
    if not xis:
        raise ValueError("at least one xi is needed")
    grid = _grid(_given(args.p_e_min, DEFAULT_PE_MIN), _given(args.p_e_max, DEFAULT_PE_MAX),
                 _given(args.steps, DEFAULT_PE_STEPS))

    # Every column over the whole (P_E, xi) grid first, from the closed
    # forms: bad input fails here, before the output is opened.  The grid
    # has a last axis of length 1, against which the orders broadcast.
    q, _ = outcome_probs_grid(grid[:, None, None], np.asarray(xis, dtype=float)[:, None])
    closed_forms = {"v1": closed_form_i1, "v2": closed_form_i2, "v4": closed_form_i4}
    labels, columns = [], []
    for measure in measures:
        if measure == "std":
            labels.append("std,1")
            columns.append(closed_form_i_std(q))
        elif measure == "v1_inf":
            labels.append("v1_inf,inf")
            columns.append(closed_form_i1(math.inf, q))
        elif measure == "cond_prob":
            rem = 1.0 - q.q_inconclusive
            labels.append("cond_prob,")
            columns.append(np.divide(q.q_success, rem, out=np.full_like(rem, 0.5), where=rem > 0.0))
        elif orders:
            labels += [f"{measure},{order}" for order in orders]
            columns.append(closed_forms[measure](np.array([o.value for o in orders]), q))
    if not columns:
        raise ValueError("no rows selected: give a measure, and an order for v1, v2 and v4")
    values = np.concatenate(columns, axis=-1)[..., None]

    with _open_out(args.out) as fh:
        _write_csv(fh, "p_e,xi,measure,order,value", [grid, np.asarray(xis, dtype=float), labels], values)
    return EXIT_OK


def cmd_bounds(args) -> int:
    sweep_pe = args.variable == "p-e"
    # As in cmd_curves: every column first, then the output is opened.
    grid = _grid(_given(args.min, DEFAULT_PE_MIN if sweep_pe else 0.0),
                 _given(args.max, DEFAULT_PE_MAX if sweep_pe else 1.0),
                 _given(args.steps, DEFAULT_PE_STEPS if sweep_pe else DEFAULT_ETA_STEPS))
    eta, pe_columns = grid, []
    if sweep_pe:
        q, eta = outcome_probs_grid(grid, _given(args.xi, 1.0))
        pe_columns = [closed_form_i_std(q), mutual_info_upper_bound(q, eta)]
    md = majorization_data(zeta_closed_form(eta))
    # Outcome distribution of the maximally mixed state I/2 under the
    # phi = 0 measurement at this eta.
    half = 0.5 / (1.0 + eta)
    rho_star = np.stack([half, half, eta / (1.0 + eta)], axis=-1)
    columns = [
        mu_bound(eta),
        coles_piani_bound(eta),
        0.5 * shannon_entropy(md.omega),
        majorization_bound_tensor(md, 2.0),
        majorization_bound_direct_sum(md, 2.0),
        shannon_entropy(rho_star),
        renyi_entropy(rho_star, 2.0),
    ] + pe_columns
    header = "x,mu_bound,coles_piani,maj_shannon,maj_alpha2_a,maj_alpha2_b,rho_star_H,rho_star_R2,i_std,i_upper"
    with _open_out(args.out) as fh:
        _write_csv(fh, header, [grid], np.stack(columns, axis=-1), tail="\n" if sweep_pe else ",,\n")
    return EXIT_OK


def _write_json(path, report: dict) -> None:
    with _open_out(path) as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_simulate(args) -> int:
    rounds = _given(args.rounds, 10**6)
    p_e = _given(args.p_e, 0.1)
    xi = _given(args.xi, 1.0)
    seed = _given(args.seed, 42)
    cfg = SessionConfig(rounds=rounds, error_rate=p_e, xi=xi, seed=seed)
    tally = run_session(cfg)
    q = outcome_probs(cfg.discrimination())
    analytic = joint_from_outcome_probs(q).table
    restricted = int(tally.restricted_counts.sum())

    sigma = np.sqrt(restricted * analytic * (1.0 - analytic))
    deviation = np.abs(tally.restricted_counts - restricted * analytic)
    with np.errstate(divide="ignore", invalid="ignore"):
        pulls = np.where(sigma > 0, deviation / np.where(sigma > 0, sigma, 1.0), np.where(deviation > 0, np.inf, 0.0))
    matched = tally.matched_rounds
    sift_sigma = 0.5 * math.sqrt(rounds)
    sift_pull = abs(matched - 0.5 * rounds) / sift_sigma

    report = {
        "config": {"rounds": rounds, "error_rate": p_e, "xi": xi, "seed": seed},
        "tally": tally.as_dict(),
        "sift": {
            "matched_rounds": matched,
            "fraction": matched / rounds,
            "expected_fraction": 0.5,
            "pull_sigma": sift_pull,
        },
        "restricted_rounds": restricted,
        # null when no round is sifted and error-free, as can happen in short runs
        "empirical_joint": empirical_joint(tally).table.tolist() if restricted else None,
        "analytic_joint": analytic.tolist(),
        "max_cell_pull_sigma": float(pulls.max()),
        "cells_within_4_sigma": bool(pulls.max() <= 4.0),
        "mutual_information": {
            "empirical": empirical_mutual_information(tally) if restricted else None,
            "analytic": closed_form_i_std(q),
        },
    }
    _write_json(args.out, report)
    return EXIT_OK


def _complex_matrix_json(m: np.ndarray) -> list:
    return np.stack([m.real, m.imag], -1).tolist()


def cmd_povm(args) -> int:
    theta, xi = args.theta, args.xi
    if theta is None or xi is None:
        raise ValueError("povm requires --theta and --xi")

    cfg = DiscriminationConfig(theta=theta, phi=xi_to_phi(xi, theta))
    povm = build_povm(cfg)
    q = outcome_probs(cfg)
    report = {
        "theta": theta,
        "xi": xi,
        "phi": cfg.phi,
        "gamma": cfg.gamma,
        "eta": cfg.eta,
        "m_plus": _complex_matrix_json(povm.m_plus),
        "m_minus": _complex_matrix_json(povm.m_minus),
        "m_inconclusive": _complex_matrix_json(povm.m_inconclusive),
        "q_success": q.q_success,
        "q_error": q.q_error,
        "q_inconclusive": q.q_inconclusive,
        "error_lower_bound": error_lower_bound(theta, q.q_inconclusive),
        "completeness_residual": povm.completeness_residual(),
        "psd_floor": povm.psd_floor(),
    }
    _write_json(args.out, report)
    return EXIT_OK


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every later call.

    Treat it as read-only.  Parsing leaves it unchanged (every flag
    defaults to None and each call gets a fresh namespace), so `main`
    reuses it instead of paying ~1 ms to rebuild it per call.
    """
    parser = argparse.ArgumentParser(
        prog="fpbprobe",
        description="Probe-attack information measures and uncertainty bounds for BB84.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=_path, default=None, metavar="FILE",
                        help="key=value file of flag values; flags on the command line win")
    common.add_argument("--out", type=_path, default=None, metavar="PATH",
                        help="write here instead of stdout ('-' is stdout)")

    p_curves = sub.add_parser("curves", parents=[common], help="information measures over a (P_E, xi) grid")
    p_curves.add_argument("--p-e-min", type=float, default=None)
    p_curves.add_argument("--p-e-max", type=float, default=None)
    p_curves.add_argument("--steps", type=int, default=None)
    p_curves.add_argument("--xi", type=float, action="append", default=None)
    p_curves.add_argument("--order", type=str, action="append", default=None,
                          help="Renyi order for v1/v2/v4 (repeatable; accepts 1, finite reals, inf)")
    p_curves.add_argument("--measure", type=str, action="append", choices=MEASURES, default=None,
                          help="measure to emit (repeatable)")
    p_curves.set_defaults(func=cmd_curves)

    p_bounds = sub.add_parser("bounds", parents=[common], help="uncertainty bounds over an eta or P_E grid")
    p_bounds.add_argument("--variable", type=str, choices=("eta", "p-e"), default=None)
    p_bounds.add_argument("--min", type=float, default=None)
    p_bounds.add_argument("--max", type=float, default=None)
    p_bounds.add_argument("--steps", type=int, default=None)
    p_bounds.add_argument("--xi", type=float, default=None,
                          help="discrimination ratio for P_E sweeps (default 1.0)")
    p_bounds.set_defaults(func=cmd_bounds)

    p_sim = sub.add_parser("simulate", parents=[common], help="seeded Monte-Carlo session report")
    p_sim.add_argument("--rounds", type=int, default=None)
    p_sim.add_argument("--p-e", type=float, default=None)
    p_sim.add_argument("--xi", type=float, default=None)
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.set_defaults(func=cmd_simulate)

    p_povm = sub.add_parser("povm", parents=[common], help="one measurement in JSON")
    p_povm.add_argument("--theta", type=float, default=None)
    p_povm.add_argument("--xi", type=float, default=None)
    p_povm.set_defaults(func=cmd_povm)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            _apply_config(parser, args, _load_config_file(args.config))
    except OSError as exc:
        print(f"error: cannot read config file: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
