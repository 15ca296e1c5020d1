"""Command-line front end emitting machine-readable sweep data.

Subcommands:

* ``curves``    long-format CSV of information measures over a (P_E, xi) grid
* ``bounds``    CSV of uncertainty bounds over an eta or P_E grid
* ``simulate``  JSON report of one Monte-Carlo session vs the analytic values
* ``povm``      JSON dump of one measurement (operators, outcome triple, bound)

Output is byte-identical across runs for identical flags and seed.
Numbers are printed with 17 significant digits and LF line endings.
Exit codes: 0 success, 2 argument error, 3 I/O error.

An optional ``--config FILE`` reads line-oriented ``key=value`` defaults
(keys are the long flag names with underscores, list values are
comma-separated); explicit flags override the file.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from contextlib import contextmanager, suppress

import numpy as np

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
    alpha_mutual_information,
    closed_form_i_std,
    joint_from_outcome_probs,
    mutual_information,
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


def _fmt(v: float) -> str:
    return f"{v:.17g}"


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


def _csv_list(value: str) -> list[str]:
    return [tok.strip() for tok in value.split(",") if tok.strip()]


def _resolve(args_value, config: dict[str, str], key: str, default, parse_scalar, is_list=False):
    """Precedence: explicit flag > config file entry > built-in default."""
    if args_value is not None:
        return args_value
    if key in config:
        raw = config[key]
        if is_list:
            return [parse_scalar(tok) for tok in _csv_list(raw)]
        return parse_scalar(raw)
    return default


def _grid(lo: float, hi: float, steps: int) -> np.ndarray:
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"grid bounds [{lo}, {hi}] invalid: need min < max")
    if steps < 2:
        raise ValueError(f"steps must be >= 2, got {steps}")
    return np.linspace(lo, hi, steps)


def cmd_curves(args, config: dict[str, str]) -> int:
    p_min = _resolve(args.p_e_min, config, "p_e_min", DEFAULT_PE_MIN, float)
    p_max = _resolve(args.p_e_max, config, "p_e_max", DEFAULT_PE_MAX, float)
    steps = _resolve(args.steps, config, "steps", DEFAULT_PE_STEPS, int)
    xis = _resolve(args.xi, config, "xi", list(DEFAULT_XI), float, is_list=True)
    order_tokens = _resolve(args.order, config, "order", list(DEFAULT_ORDERS), str, is_list=True)
    measures = _resolve(args.measure, config, "measure", list(DEFAULT_MEASURES), str, is_list=True)
    out_path = args.out if args.out is not None else config.get("out")

    for m in measures:
        if m not in MEASURES:
            raise ValueError(f"unknown measure {m!r}; choose from {MEASURES}")
    orders = [Order.parse(tok) for tok in order_tokens]
    if any(o.is_infinite for o in orders) and any(m in ("v2", "v4") for m in measures):
        raise ValueError("measures v2 and v4 are undefined at infinite order; drop 'inf' or the measure")
    if not xis:
        raise ValueError("at least one xi is needed")
    grid = _grid(p_min, p_max, steps)

    # Every column over the whole (P_E, xi) grid first; bad grid input
    # fails here, before the output is opened.
    q, _ = outcome_probs_grid(grid[:, None], np.asarray(xis, dtype=float))
    joint = joint_from_outcome_probs(q)
    labels, columns = [], []
    for measure in measures:
        if measure == "std":
            labels.append("std,1")
            columns.append(mutual_information(joint))
        elif measure == "v1_inf":
            labels.append("v1_inf,inf")
            columns.append(alpha_mutual_information(joint, Order.min_entropy(), 1))
        elif measure == "cond_prob":
            rem = 1.0 - q.q_inconclusive
            labels.append("cond_prob,")
            columns.append(np.divide(q.q_success, rem, out=np.full_like(rem, 0.5), where=rem > 0.0))
        else:
            variant = {"v1": 1, "v2": 2, "v4": 4}[measure]
            for order in orders:
                labels.append(f"{measure},{order}")
                columns.append(alpha_mutual_information(joint, order, variant))
    if not columns:
        raise ValueError("no rows selected: give a measure, and an order for v1, v2 and v4")
    values = np.stack(columns, axis=-1)
    xi_strs = [_fmt(xi) for xi in xis]

    with _open_out(out_path) as fh:
        fh.write("p_e,xi,measure,order,value\n")
        for p_str, at_p in zip(map(_fmt, grid.tolist()), values):
            fh.write("".join(
                f"{p_str},{xi_str},{label},{v:.17g}\n"
                for xi_str, at_point in zip(xi_strs, at_p.tolist())
                for label, v in zip(labels, at_point)
            ))
    return EXIT_OK


def cmd_bounds(args, config: dict[str, str]) -> int:
    variable = _resolve(args.variable, config, "variable", "eta", str)
    if variable not in ("eta", "p-e", "p_e"):
        raise ValueError(f"variable must be 'eta' or 'p-e', got {variable!r}")
    sweep_pe = variable in ("p-e", "p_e")
    default_lo = DEFAULT_PE_MIN if sweep_pe else 0.0
    default_hi = DEFAULT_PE_MAX if sweep_pe else 1.0
    default_steps = DEFAULT_PE_STEPS if sweep_pe else DEFAULT_ETA_STEPS
    lo = _resolve(args.min, config, "min", default_lo, float)
    hi = _resolve(args.max, config, "max", default_hi, float)
    steps = _resolve(args.steps, config, "steps", default_steps, int)
    xi = _resolve(args.xi, config, "xi", 1.0, float)
    out_path = args.out if args.out is not None else config.get("out")

    # As in cmd_curves: every column first, then the output is opened.
    grid = _grid(lo, hi, steps)
    eta, pe_columns = grid, []
    if sweep_pe:
        q, eta = outcome_probs_grid(grid, xi)
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
    values = np.stack(columns, axis=-1).tolist()
    blank = "" if sweep_pe else ",,"

    header = "x,mu_bound,coles_piani,maj_shannon,maj_alpha2_a,maj_alpha2_b,rho_star_H,rho_star_R2,i_std,i_upper"
    with _open_out(out_path) as fh:
        fh.write(header + "\n")
        fh.write("".join(
            ",".join([_fmt(x)] + [_fmt(v) for v in row]) + blank + "\n"
            for x, row in zip(grid.tolist(), values)
        ))
    return EXIT_OK


def cmd_simulate(args, config: dict[str, str]) -> int:
    rounds = _resolve(args.rounds, config, "rounds", 10**6, int)
    p_e = _resolve(args.p_e, config, "p_e", 0.1, float)
    xi = _resolve(args.xi, config, "xi", 1.0, float)
    seed = _resolve(args.seed, config, "seed", 42, int)
    out_path = args.out if args.out is not None else config.get("out")

    cfg = SessionConfig(rounds=rounds, error_rate=p_e, xi=xi, seed=seed)
    tally = run_session(cfg)
    q = outcome_probs(cfg.discrimination())
    analytic = joint_from_outcome_probs(q).table
    emp = empirical_joint(tally)
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
        "empirical_joint": emp.table.tolist(),
        "analytic_joint": analytic.tolist(),
        "max_cell_pull_sigma": float(pulls.max()),
        "cells_within_4_sigma": bool(pulls.max() <= 4.0),
        "mutual_information": {
            "empirical": empirical_mutual_information(tally),
            "analytic": closed_form_i_std(q),
        },
    }
    with _open_out(out_path) as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return EXIT_OK


def _complex_matrix_json(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, dtype=complex)]


def cmd_povm(args, config: dict[str, str]) -> int:
    theta = _resolve(args.theta, config, "theta", None, float)
    xi = _resolve(args.xi, config, "xi", None, float)
    out_path = args.out if args.out is not None else config.get("out")
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
    with _open_out(out_path) as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fpbprobe",
        description="Probe-attack information measures and uncertainty bounds for BB84.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_curves = sub.add_parser("curves", help="information measures over a (P_E, xi) grid")
    p_curves.add_argument("--p-e-min", type=float, default=None)
    p_curves.add_argument("--p-e-max", type=float, default=None)
    p_curves.add_argument("--steps", type=int, default=None)
    p_curves.add_argument("--xi", type=float, action="append", default=None)
    p_curves.add_argument("--order", type=str, action="append", default=None,
                          help="Renyi order for v1/v2/v4 (repeatable; accepts 1, finite reals, inf)")
    p_curves.add_argument("--measure", type=str, action="append", default=None,
                          help=f"measure to emit (repeatable; one of {MEASURES})")
    p_curves.add_argument("--config", type=str, default=None)
    p_curves.add_argument("--out", type=str, default=None)
    p_curves.set_defaults(func=cmd_curves)

    p_bounds = sub.add_parser("bounds", help="uncertainty bounds over an eta or P_E grid")
    p_bounds.add_argument("--variable", type=str, choices=("eta", "p-e"), default=None)
    p_bounds.add_argument("--min", type=float, default=None)
    p_bounds.add_argument("--max", type=float, default=None)
    p_bounds.add_argument("--steps", type=int, default=None)
    p_bounds.add_argument("--xi", type=float, default=None,
                          help="discrimination ratio for P_E sweeps (default 1.0)")
    p_bounds.add_argument("--config", type=str, default=None)
    p_bounds.add_argument("--out", type=str, default=None)
    p_bounds.set_defaults(func=cmd_bounds)

    p_sim = sub.add_parser("simulate", help="seeded Monte-Carlo session report")
    p_sim.add_argument("--rounds", type=int, default=None)
    p_sim.add_argument("--p-e", type=float, default=None)
    p_sim.add_argument("--xi", type=float, default=None)
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--config", type=str, default=None)
    p_sim.add_argument("--out", type=str, default=None)
    p_sim.set_defaults(func=cmd_simulate)

    p_povm = sub.add_parser("povm", help="one measurement in JSON")
    p_povm.add_argument("--theta", type=float, default=None)
    p_povm.add_argument("--xi", type=float, default=None)
    p_povm.add_argument("--config", type=str, default=None)
    p_povm.add_argument("--out", type=str, default=None)
    p_povm.set_defaults(func=cmd_povm)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config_file(args.config) if args.config else {}
    except OSError as exc:
        print(f"error: cannot read config file: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args, config)
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
