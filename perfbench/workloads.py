"""The four benchmark workloads: seeded op inputs, the timed op, output checks.

Every op goes through the public API or the CLI entry point
``fpbprobe.cli.main(argv)``.  Program functions are looked up on their
modules at call time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time

import numpy as np

from fpbprobe import cli, discrimination, entropy, simulator, uncertainty

import checks

CURVES_MEASURES = ("std", "v1", "v2", "v4", "v1_inf", "cond_prob")
CURVES_ORDERS = ("2", "3", "10")
BOUNDS_HEADER = "x,mu_bound,coles_piani,maj_shannon,maj_alpha2_a,maj_alpha2_b,rho_star_H,rho_star_R2,i_std,i_upper"
ETA_BRANCHES = ((0.01, 0.19), (0.21, 0.49), (0.51, 0.99))
SESSION_LONG_ROUNDS = (1 << 22) + 4321
SESSION_SWEEP_ROUNDS = 1000


def call_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _csv_rows(text: str, header: str, expected: int) -> tuple[list[list[str]], list[str]]:
    lines = text.split("\n")
    if lines[-1] != "":
        return [], ["output does not end with a newline"]
    lines.pop()
    if not lines or lines[0] != header:
        return [], [f"header {lines[0] if lines else ''!r} != {header!r}"]
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != expected:
        return rows, [f"{len(rows)} rows, expected {expected}"]
    return rows, []


def philox_fill_ns(seed: int, rounds: int) -> int:
    """Time the Philox fill a session of `rounds` rounds draws.

    Replays the README contract (five uniforms per round, chunk index in
    the high counter word) without running the tally.
    """
    chunk = simulator.CHUNK_ROUNDS
    full, rest = divmod(rounds, chunk)
    t0 = time.perf_counter_ns()
    for c in range(full + (1 if rest else 0)):
        n = chunk if c < full else rest
        gen = np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, 0, c]))
        gen.random((n, simulator.DRAWS_PER_ROUND))
    return time.perf_counter_ns() - t0


class Workload:
    """One closed-loop workload; subclasses define the op and its checks."""

    name = ""
    item_unit = ""
    count_ops = 1  # traced ops over which per-layer counts are taken
    argv_templates: tuple[str, ...] = ()

    def __init__(self, seed: int, index: int, smoke: bool):
        self.seed = seed
        self.index = index
        self.pool = checks.PearsonPool()

    def input(self, phase: int, k: int) -> dict:
        """Input of op `k` of a phase: a pure function of (seed, workload, phase, k)."""
        return self.make_input(np.random.default_rng([self.seed, self.index, phase, k]), k)

    def make_input(self, r: np.random.Generator, k: int) -> dict:
        raise NotImplementedError

    def run(self, inp: dict):
        raise NotImplementedError

    def check(self, inp: dict, out) -> list[str]:
        raise NotImplementedError

    def same(self, a, b) -> bool:
        return a == b

    def items(self, inp: dict) -> int:
        return 1

    def rows(self, inp: dict) -> int:
        return 1

    def sessions(self, inp: dict) -> list[tuple[int, int]]:
        """(seed, rounds) of every simulator session the op runs."""
        return []

    def out_bytes(self, out) -> int:
        return 0

    def finish(self) -> tuple[list[str], dict]:
        """Run-level checks pooled over every op."""
        return [], {}


class CurvesGrid(Workload):
    name = "curves_grid"
    item_unit = "rows"
    argv_templates = (
        "curves --p-e-min {p_min} --p-e-max {p_max} --steps {steps} --xi {xi_1} ... --xi {xi_5} "
        "--order 2 --order 3 --order 10 --measure std --measure v1 --measure v2 --measure v4 "
        "--measure v1_inf --measure cond_prob",
    )

    def __init__(self, seed, index, smoke):
        super().__init__(seed, index, smoke)
        self.steps = 8 if smoke else 334

    def make_input(self, r, k):
        xis = sorted(round(float(v), 4) for v in r.uniform(0.0, 1.0, 5))
        p_min = round(float(r.uniform(0.001, 0.02)), 6)
        p_max = round(float(r.uniform(0.25, 1.0 / 3.0)), 6)
        argv = ["curves", "--p-e-min", repr(p_min), "--p-e-max", repr(p_max), "--steps", str(self.steps)]
        for xi in xis:
            argv += ["--xi", repr(xi)]
        for order in CURVES_ORDERS:
            argv += ["--order", order]
        for measure in CURVES_MEASURES:
            argv += ["--measure", measure]
        return {"argv": argv, "n_rows": self.steps * len(xis) * 12}

    def run(self, inp):
        return call_cli(inp["argv"])

    def check(self, inp, out):
        code, text = out
        if code != 0:
            return [f"exit code {code}"]
        rows, problems = _csv_rows(text, "p_e,xi,measure,order,value", inp["n_rows"])
        if problems:
            return problems
        q_cache = {}
        for p_tok, xi_tok, measure, order, value in rows:
            if measure not in ("std", "v1", "v1_inf"):
                continue
            key = (p_tok, xi_tok)
            if key not in q_cache:
                q_cache[key] = discrimination.OutcomeProbs(*checks.analytic_q(float(p_tok), float(xi_tok)))
            q = q_cache[key]
            if measure == "std":
                ref = entropy.closed_form_i_std(q)
            else:
                ref = entropy.closed_form_i1(entropy.Order.parse(order), q)
            if not checks.rel_close(float(value), ref, 1e-12):
                return [f"{measure} order {order} at P_E={p_tok}, xi={xi_tok}: {value} != closed form {ref!r}"]
        return []

    def items(self, inp):
        return inp["n_rows"]

    rows = items

    def out_bytes(self, out):
        return len(out[1])


class BoundsCertify(Workload):
    name = "bounds_certify"
    item_unit = "tables"
    count_ops = 3
    argv_templates = (
        "bounds --variable eta --min {eta_min} --max {eta_max} --steps {steps}",
        "bounds --variable p-e --xi {xi} --steps {steps}",
        "optimize_s_max({eta}) then zeta_coefficients(overlap_matrix(naimark_basis(gamma, phase), "
        "naimark_basis(gamma, phase'))), eta cycling through (0.01, 0.19), (0.21, 0.49), (0.51, 0.99)",
    )

    def __init__(self, seed, index, smoke):
        super().__init__(seed, index, smoke)
        self.eta_steps = 21 if smoke else 501
        self.pe_steps = 11 if smoke else 334

    def make_input(self, r, k):
        eta_min = round(float(r.uniform(0.0, 0.05)), 6)
        eta_max = round(float(r.uniform(0.95, 1.0)), 6)
        xi = round(float(r.uniform(0.0, 1.0)), 4)
        lo, hi = ETA_BRANCHES[k % 3]
        eta = round(float(r.uniform(lo, hi)), 6)
        return {
            "eta_argv": ["bounds", "--variable", "eta", "--min", repr(eta_min), "--max", repr(eta_max),
                         "--steps", str(self.eta_steps)],
            "pe_argv": ["bounds", "--variable", "p-e", "--xi", repr(xi), "--steps", str(self.pe_steps)],
            "eta": eta,
        }

    def run(self, inp):
        eta_out = call_cli(inp["eta_argv"])
        pe_out = call_cli(inp["pe_argv"])
        s_opt, (phase, phase_prime) = uncertainty.optimize_s_max(inp["eta"])
        gamma = 0.5 * math.acos(inp["eta"])
        w = uncertainty.overlap_matrix(
            uncertainty.naimark_basis(gamma, phase), uncertainty.naimark_basis(gamma, phase_prime)
        )
        zeta = uncertainty.zeta_coefficients(w)
        return eta_out, pe_out, s_opt, tuple(float(z) for z in zeta)

    def check(self, inp, out):
        (eta_code, eta_text), (pe_code, pe_text), s_opt, zeta = out
        if eta_code or pe_code:
            return [f"exit codes {eta_code}, {pe_code}"]
        rows, problems = _csv_rows(eta_text, BOUNDS_HEADER, self.eta_steps)
        if problems:
            return ["eta sweep: " + p for p in problems]
        for row in rows:
            ref = 2.0 * math.log2(uncertainty.mu_factor(float(row[0])))
            if not checks.rel_close(float(row[1]), ref, 1e-12):
                return [f"eta sweep: mu_bound {row[1]} at eta={row[0]} != 2 log2 mu_factor = {ref!r}"]
        rows, problems = _csv_rows(pe_text, BOUNDS_HEADER, self.pe_steps)
        if problems:
            return ["P_E sweep: " + p for p in problems]
        # At P_E = 1/3 the cap is tight (both equal 1), so allow 1e-12 of rounding.
        for row in rows:
            if not float(row[9]) >= float(row[8]) - 1e-12:
                return [f"P_E sweep: i_upper {row[9]} < i_std {row[8]} at P_E={row[0]}"]
        eta = inp["eta"]
        target = 1.0 / uncertainty.mu_factor(eta)
        if not abs(s_opt - target) <= 1e-5:
            return [f"optimize_s_max({eta}) = {s_opt!r}, closed form {target!r}"]
        ref = uncertainty.zeta_closed_form(eta)
        if not max(abs(a - b) for a, b in zip(zeta, ref)) <= 1e-5:
            return [f"zeta_coefficients at eta={eta}: {zeta} != closed form {ref}"]
        return []

    def rows(self, inp):
        return self.eta_steps + self.pe_steps

    def out_bytes(self, out):
        return len(out[0][1]) + len(out[1][1])


class SessionLong(Workload):
    name = "session_long"
    item_unit = "rounds"
    argv_templates = ("simulate --rounds {rounds} --p-e {p_e} --xi {xi} --seed {seed}",)

    def __init__(self, seed, index, smoke):
        super().__init__(seed, index, smoke)
        self.rounds = (1 << 17) + 4321 if smoke else SESSION_LONG_ROUNDS

    def make_input(self, r, k):
        p_e = round(float(r.uniform(0.05, 0.3)), 6)
        xi = round(float(r.uniform(0.2, 0.9)), 4)
        seed = int(r.integers(0, 2**63))
        argv = ["simulate", "--rounds", str(self.rounds), "--p-e", repr(p_e), "--xi", repr(xi),
                "--seed", str(seed)]
        return {"argv": argv, "p_e": p_e, "xi": xi, "seed": seed}

    def run(self, inp):
        return call_cli(inp["argv"])

    def check(self, inp, out):
        code, text = out
        if code != 0:
            return [f"exit code {code}"]
        report = json.loads(text)
        counts = np.array(report["tally"]["counts"], dtype=np.int64)
        if counts.shape != (2, 2, 2, 3) or int(counts.sum()) != self.rounds:
            return [f"tally of shape {counts.shape} sums to {int(counts.sum())}, not {self.rounds}"]
        if report["config"] != {"rounds": self.rounds, "error_rate": inp["p_e"], "xi": inp["xi"],
                                "seed": inp["seed"]}:
            return [f"config echo {report['config']} does not match the input"]
        mi = checks.plugin_mutual_information(counts[1, 1])
        if not checks.rel_close(report["mutual_information"]["empirical"], mi, 1e-9):
            return [f"empirical mutual information {report['mutual_information']['empirical']!r} != {mi!r}"]
        return _pool_tally(self.pool, counts, inp)

    def items(self, inp):
        return self.rounds

    def sessions(self, inp):
        return [(inp["seed"], self.rounds)]

    def out_bytes(self, out):
        return len(out[1])

    def finish(self):
        return _pool_verdict(self.pool)


class SessionSweep(Workload):
    name = "session_sweep"
    item_unit = "sessions"
    count_ops = 20
    argv_templates = (
        "run_session(SessionConfig(rounds=1000, error_rate={p_e}, xi={xi}, seed={seed})) "
        "then empirical_mutual_information(tally)",
    )

    def make_input(self, r, k):
        return {
            "p_e": round(float(r.uniform(0.05, 0.3)), 6),
            "xi": round(float(r.uniform(0.2, 0.9)), 4),
            "seed": int(r.integers(0, 2**63)),
        }

    def run(self, inp):
        tally = simulator.run_session(
            simulator.SessionConfig(SESSION_SWEEP_ROUNDS, inp["p_e"], inp["xi"], inp["seed"])
        )
        return tally.counts, simulator.empirical_mutual_information(tally)

    def same(self, a, b):
        return np.array_equal(a[0], b[0]) and a[1] == b[1]

    def check(self, inp, out):
        counts, mi = out
        if int(counts.sum()) != SESSION_SWEEP_ROUNDS:
            return [f"tally sums to {int(counts.sum())}, not {SESSION_SWEEP_ROUNDS}"]
        ref = checks.plugin_mutual_information(counts[1, 1])
        if not (checks.rel_close(mi, ref, 1e-9) or abs(mi - ref) <= 1e-12):
            return [f"empirical mutual information {mi!r} != {ref!r}"]
        return _pool_tally(self.pool, counts, inp)

    def sessions(self, inp):
        return [(inp["seed"], SESSION_SWEEP_ROUNDS)]

    def finish(self):
        return _pool_verdict(self.pool)


def _pool_tally(pool: checks.PearsonPool, counts, inp) -> list[str]:
    q = checks.analytic_q(inp["p_e"], inp["xi"])
    problems = []
    for cells, probs in checks.tally_components(counts, inp["p_e"], q):
        problems += pool.add(cells, probs)
    return problems


def _pool_verdict(pool: checks.PearsonPool) -> tuple[list[str], dict]:
    ok, detail = pool.verdict()
    return ([] if ok else [f"pooled Pearson test fails at p < 1e-6: {detail}"]), detail


WORKLOADS = {cls.name: cls for cls in (CurvesGrid, BoundsCertify, SessionLong, SessionSweep)}


def make(name: str, seed: int, smoke: bool = False) -> Workload:
    index = list(WORKLOADS).index(name)
    return WORKLOADS[name](seed, index, smoke)
