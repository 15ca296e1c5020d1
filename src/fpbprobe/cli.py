"""Command-line front end emitting machine-readable sweep data.

Subcommands:

* ``curves``    long-format CSV of information measures over a (P_E, xi) grid
* ``bounds``    CSV of uncertainty bounds over an eta or P_E grid
* ``simulate``  JSON report of one Monte-Carlo session vs the analytic values
* ``povm``      JSON dump of one measurement (operators, outcome triple, bound)

Output is byte-identical across runs for identical flags and seed, with
LF line endings.  CSV cells are exactly ``'%.17g' % v``.  JSON output is
exactly ``json.dumps(report, indent=2, sort_keys=True)`` plus LF, so JSON
numbers are Python's shortest round-trip ``repr``; both read back to the
same float.  json writes every byte of it: ``povm`` writes its report
with ``json.dumps``, and ``simulate`` fills the texts of its leaves,
from one encode of the leaf list, into the text ``json.dumps`` wrote
once per report shape, with a marker at each leaf.
Exit codes: 0 success, 2 argument error (a grid too large to allocate
included), 3 I/O error; `main` maps each failure once.

Every subcommand takes ``--config FILE`` and ``--out PATH``.  The file
holds ``key=value`` lines, one key per long flag name (``p_e_min`` or
``p-e-min`` for ``--p-e-min``).  A config value is parsed exactly like the
flag of the same name, with its type and choices; a repeatable flag takes
comma-separated values.  A key may appear once, and a ``config`` line is
an argument error: one file cannot name another.  A flag given on the
command line wins over the file.  Keys of other subcommands are ignored;
a key that no subcommand defines is an argument error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
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
)
from .probe import MAX_ERROR_RATE
from .simulator import (
    EVE_OUTCOMES,
    TALLY_AXES,
    SessionConfig,
    _cells_mutual_information,
    _empirical_cells,
    run_session,
)
from .uncertainty import BOUNDS_COLUMNS, bounds_table

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

    The text goes to a new temporary file beside the target, created with
    mode 0o666 less the umask as open() would create it, which replaces
    the target on success and is removed on any error, so a failed write
    leaves a pre-existing target untouched.  Targets that exist but are
    not regular files (devices, pipes) are written in place.  An OSError
    names `path` as the caller gave it, not the temporary file.
    """
    if path in (None, "-"):
        yield sys.stdout
        return
    try:
        target = os.path.realpath(path)
        if os.path.exists(target) and not os.path.isfile(target):
            with open(target, "w", newline="") as fh:
                yield fh
            return
        tmp = os.path.join(os.path.dirname(target), f".{os.path.basename(target)}.{os.getpid()}.{os.urandom(4).hex()}")
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w", newline="") as fh:
                yield fh
            os.replace(tmp, target)
        except BaseException:
            with suppress(FileNotFoundError):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None


def _key_cells(keys) -> list[np.ndarray]:
    """The cells of each key column: one C-contiguous row of ASCII bytes per cell, NUL-padded, then ','.

    Every float column prints as '%.17g' from one kernel call for all of
    them, each without the byte columns that are NUL in all its rows;
    strings print as given.
    """
    keys = [np.asarray(key) for key in keys]
    floats = [key for key in keys if key.dtype.kind == "f"]
    texts = format_g17(np.concatenate(floats)) if floats else None
    cells, at = [], 0
    for key in keys:
        if key.dtype.kind == "f":
            packed = texts[at:at + key.size]
            packed = packed.compress(packed.any(axis=0), axis=1)  # C order, as a boolean index would not be
            at += key.size
        else:
            key = key.astype(bytes)
            packed = key.view(np.uint8).reshape(key.size, key.itemsize)
        cells.append(np.concatenate([packed, np.full((len(packed), 1), ord(","), np.uint8)], axis=1))
    return cells


def _write_csv(fh, header: str, keys, values: np.ndarray, tail: str = "\n") -> None:
    """Write `header`, then one CSV line per point of the grid of `values`.

    `values` has shape ``grid + (m,)``: the m float cells of each line.
    `keys` are the leading columns: for each leading axis of the grid, one
    sequence of floats or strings of its length, the last varying fastest.
    `bounds` gives none: its `x` is value column 0.  `tail` ends each line.
    Floats print as ``'%.17g'``.  What is the same in every row of the
    first axis (the cells of the other keys, the ',' after each value and
    the tail) is laid out once per call, in a row template.  A block of
    lines is whole rows of the first axis, at most `BLOCK_VALUES` float
    cells but at least one row.  All blocks are built in one byte buffer
    of template rows (a shorter last block gets its own): per block, each
    line's first key cell is copied in as one item, the kernel writes each
    value straight into its place, and the NULs are dropped before the
    write.
    """
    cells = _key_cells(keys)
    fh.write(header + "\n")
    shape, m = values.shape[:-1], values.shape[-1]
    tail_bytes = np.frombuffer(tail.encode(), np.uint8)
    col = sum(c.shape[1] for c in cells)  # where the values start
    line = col + m * (WIDTH + 1) - 1 + len(tail_bytes)
    at = lead = cells[0].shape[1] if cells else 0  # the first key's cell width
    template = np.zeros(shape[1:] + (line,), np.uint8)  # the first key's cells stay NUL
    for axis, c in enumerate(cells[1:], 1):
        template[..., at:at + c.shape[1]] = np.expand_dims(c, tuple(range(1, len(shape) - axis)))
        at += c.shape[1]
    template[..., col + WIDTH:line:WIDTH + 1] = ord(",")  # each value's ','; the tail then overwrites the last
    template[..., line - len(tail_bytes):] = tail_bytes
    first = cells[0].view(f"V{lead}").reshape((-1,) + (1,) * len(shape)) if cells else None  # one item per cell
    step = max(1, BLOCK_VALUES // (math.prod(shape[1:]) * m))  # first-axis rows per block
    buf = None
    for start in range(0, shape[0], step):
        rows = min(step, shape[0] - start)
        if buf is None or rows < step:
            buf = bytearray(rows * template.size)
            lines = np.frombuffer(buf, np.uint8).reshape((rows,) + template.shape)
            lines[...] = template
            cells_at = lines[..., col:col + m * (WIDTH + 1)].reshape(lines.shape[:-1] + (m, WIDTH + 1))[..., :WIDTH]
            key_at = lines[..., :lead].view(f"V{lead}") if cells else None
        if cells:
            key_at[...] = first[start:start + rows]
        format_g17(values[start:start + rows], out=cells_at)
        fh.write(buf.translate(None, b"\0").decode("ascii"))


def _load_config_file(path: str) -> dict[str, str]:
    """The key=value lines of a UTF-8 file; a key may appear once, and `config` not at all."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise OSError(f"cannot read config file: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text: {exc}") from None
    out: dict[str, str] = {}
    first: dict[str, int] = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        key = key.strip().lower().replace("-", "_")
        if key == "config":
            raise ValueError(f"{path}:{lineno}: a config file cannot name another, got {line!r}")
        if key in first:
            raise ValueError(f"{path}:{lineno}: key {key!r} repeats line {first[key]}")
        first[key] = lineno
        out[key] = value.strip()
    return out


def _apply_config(parser: argparse.ArgumentParser, args, config: dict[str, str]) -> None:
    """Fill each flag of `args.command` that the command line left unset from `config`.

    A value goes through argparse's own conversion for its flag, type and
    choices included; a repeatable flag splits it at commas.  Keys of other
    subcommands are ignored, so one file can serve them all.
    """
    subcommands = _subcommands(parser)
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
            # Q_S / (Q_S + Q_E) cannot exceed 1, and does not cancel where Q_? nears 1
            # or is a rounding residue, as Q_S / (1 - Q_?) would.
            conclusive = q.q_success + q.q_error
            labels.append("cond_prob,")
            columns.append(np.divide(q.q_success, conclusive, out=np.full_like(conclusive, 0.5),
                                     where=conclusive > 0.0))
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
    """The bounds_table CSV over an eta grid, or over a P_E grid at one xi.

    Every value is computed before the output opens.  The `x` column is
    value column 0 of the one block `_write_csv` gets, not a key column:
    its cells print the same, and each block takes one kernel call.  The
    eta sweep has no i_std and i_upper, so its lines end in ',,'.
    """
    sweep_pe = args.variable == "p-e"
    # As in cmd_curves: every column first, then the output is opened.
    grid = _grid(_given(args.min, DEFAULT_PE_MIN if sweep_pe else 0.0),
                 _given(args.max, DEFAULT_PE_MAX if sweep_pe else 1.0),
                 _given(args.steps, DEFAULT_PE_STEPS if sweep_pe else DEFAULT_ETA_STEPS))
    if sweep_pe:
        q, eta = outcome_probs_grid(grid, _given(args.xi, 1.0))
        table = bounds_table(eta, q)
    else:
        table = bounds_table(grid)
    values = np.concatenate([grid[:, None], table], axis=1)
    with _open_out(args.out) as fh:
        _write_csv(fh, "x," + ",".join(BOUNDS_COLUMNS), [], values, tail="\n" if sweep_pe else ",,\n")
    return EXIT_OK


def _write_text(path, text: str) -> None:
    """Write `text` and a LF; the caller builds it whole, so bad output fails before the output opens."""
    with _open_out(path) as fh:
        fh.write(text + "\n")


def _simulate_report(v: list) -> dict:
    """The simulate report of its leaves `v`.

    `v` holds 38 leaves: rounds, error_rate, xi, seed, matched rounds,
    their fraction, the sift pull, the restricted rounds, the largest cell
    pull, whether it is within 4 sigma, the analytic mutual information,
    0.5 (Q_S, Q_E, Q_?) and the 24 tally counts in tally order.  Then,
    unless no round is sifted and error-free, the 6 empirical cells and
    their mutual information follow; without them both print null.
    """
    rounds, p_e, xi, seed, matched, fraction, sift_pull, restricted, max_pull, within, mi, qs, qe, qq = v[:14]
    counts, empirical = v[14:38], v[38:]
    return {
        "config": {"rounds": rounds, "error_rate": p_e, "xi": xi, "seed": seed},
        "tally": {
            "rounds": rounds,
            "index_order": list(TALLY_AXES),
            "eve_outcomes": list(EVE_OUTCOMES),
            # nested by basis_match (12 counts each), bob_correct (6), alice_bit (3)
            "counts": [[[counts[b:b + 3] for b in range(c, c + 6, 3)] for c in range(m, m + 12, 6)] for m in (0, 12)],
        },
        "sift": {"matched_rounds": matched, "fraction": fraction, "expected_fraction": 0.5, "pull_sigma": sift_pull},
        "restricted_rounds": restricted,
        "empirical_joint": [empirical[0:3], empirical[3:6]] if empirical else None,
        "analytic_joint": [[qs, qe, qq], [qe, qs, qq]],
        "max_cell_pull_sigma": max_pull,
        "cells_within_4_sigma": within,
        "mutual_information": {"empirical": empirical[6] if empirical else None, "analytic": mi},
    }


# One JSON array of a report's leaves, with a NUL between them.
_leaf_texts = json.JSONEncoder(separators=("\0", ":")).encode


@lru_cache(maxsize=None)
def _simulate_layout(leaves: int) -> str:
    """The text of a simulate report of `leaves` leaves, as a format string with field i for leaf i.

    json.dumps writes it once per report shape, from the report whose
    leaf i is a marker string, which each field then replaces.
    """
    text = json.dumps(_simulate_report([f"\0{i}" for i in range(leaves)]), indent=2, sort_keys=True)
    return re.sub(r'"\\u0000(\d+)"', r"{\1}", text.replace("{", "{{").replace("}", "}}"))


def _simulate_text(v: list) -> str:
    """json.dumps(_simulate_report(v), indent=2, sort_keys=True), filled into the cached layout of its shape.

    The leaves' texts come from one encode of `v`, split at the NULs
    between them.  The split is exact: every leaf is a scalar, and json
    escapes a NUL inside a string.
    """
    return _simulate_layout(len(v)).format(*_leaf_texts(v)[1:-1].split("\0"))


def cmd_simulate(args) -> int:
    rounds = _given(args.rounds, 10**6)
    p_e = _given(args.p_e, 0.1)
    xi = _given(args.xi, 1.0)
    seed = _given(args.seed, 42)
    cfg = SessionConfig(rounds=rounds, error_rate=p_e, xi=xi, seed=seed)
    counts = run_session(cfg).counts.ravel().tolist()
    q = outcome_probs(DiscriminationConfig.from_error_rate(cfg.error_rate, cfg.xi))
    analytic = [0.5 * q.q_success, 0.5 * q.q_error, 0.5 * q.q_inconclusive]
    analytic += [analytic[1], analytic[0], analytic[2]]
    restricted_counts = counts[18:]  # basis matched, Bob correct
    restricted = sum(restricted_counts)
    # Each cell's pull |n - E| / sigma, as numpy computes it over the table:
    # inf where sigma is 0 and the count is not expected, 0 where it is.
    max_pull = 0.0
    for n, a in zip(restricted_counts, analytic):
        expected = float(restricted) * a
        sigma = math.sqrt(expected * (1.0 - a))
        deviation = abs(float(n) - expected)
        pull = deviation / sigma if sigma > 0 else math.inf if deviation > 0 else 0.0
        max_pull = max(max_pull, pull)
    matched = sum(counts[12:])
    sift_pull = abs(matched - 0.5 * rounds) / (0.5 * math.sqrt(rounds))

    v = [rounds, p_e, xi, seed, matched, matched / rounds, sift_pull, restricted, max_pull, max_pull <= 4.0,
         closed_form_i_std(q), *analytic[:3], *counts]
    if restricted:  # none in short runs where no round is sifted and error-free
        cells = _empirical_cells(restricted_counts)
        v += [*cells, _cells_mutual_information(cells)]
    _write_text(args.out, _simulate_text(v))
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
        "m_plus": _complex_matrix_json(povm[0]),
        "m_minus": _complex_matrix_json(povm[1]),
        "m_inconclusive": _complex_matrix_json(povm[2]),
        "q_success": q.q_success,
        "q_error": q.q_error,
        "q_inconclusive": q.q_inconclusive,
        "error_lower_bound": error_lower_bound(theta, q.q_inconclusive),
        "completeness_residual": float(np.abs(povm[0] + povm[1] + povm[2] - np.eye(2)).max()),
        "psd_floor": float(np.linalg.eigvalsh(povm).min()),
    }
    _write_text(args.out, json.dumps(report, indent=2, sort_keys=True))
    return EXIT_OK


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every later call.

    Treat it as read-only.  Parsing leaves it unchanged (every flag
    defaults to None and each call gets a fresh namespace), so `main`
    reuses it instead of paying ~1 ms to rebuild it per call.  A call
    whose first token names a subcommand is parsed by that subcommand's
    parser alone (`_parse`); this top-level parser parses every other
    call, and prints every usage, help and error text but the
    subcommands' own.
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


def _subcommands(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    """The subcommand parsers of `parser`, a `build_parser()`, by name."""
    return next(a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction))


def _parse(parser: argparse.ArgumentParser, argv) -> argparse.Namespace:
    """parser.parse_args(argv), in one parse when argv[0] names a subcommand.

    The top-level parser would hand the rest of argv to that subcommand's
    parser, with a namespace that holds only `command`; the subcommand's
    parser is called that way here directly.  When that leaves a token
    over, and when argv is empty or starts with anything else, `parser`
    parses argv, so its usage, help and error texts and exit codes stay
    argparse's own.  argv None is sys.argv[1:].
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    sub = _subcommands(parser).get(argv[0]) if argv else None
    if sub is not None:
        args, extra = sub.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if not extra:
            return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    """Run one subcommand; every failure maps to an exit code here.

    argv is parsed by its subcommand's parser alone, or, when it names
    none or leaves a token over, by `build_parser()` (see `_parse`).
    A bad value, and a grid too large to allocate, is an argument error
    (2); an OSError is an I/O error (3).  Either prints one line to stderr.
    """
    parser = build_parser()
    args = _parse(parser, argv)
    try:
        if args.config:
            _apply_config(parser, args, _load_config_file(args.config))
        return args.func(args)
    except (ValueError, TypeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
