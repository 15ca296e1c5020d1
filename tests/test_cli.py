import argparse
import io
import itertools
import json
import math
import os
import re
import stat
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from conftest import simulate_report_reference
import fpbprobe
from fpbprobe import cli, entropy, uncertainty
from fpbprobe.discrimination import DiscriminationConfig, outcome_probs, outcome_probs_grid, xi_to_phi
from fpbprobe.entropy import closed_form_i1, closed_form_i2, closed_form_i4, closed_form_i_std

README = Path(__file__).resolve().parent.parent / "README.md"


def run_cli(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr().out
    return code, out


def exit_and_stdout(argv, capsys):
    """Exit code and stdout of one call; argparse's own exits count as codes."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().out


def count_calls(monkeypatch, module, name):
    """Count calls to module.name, through every package module that binds it.

    Returns the list that each call appends to.
    """
    original, calls = getattr(module, name), []

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if (mod.__name__ == "fpbprobe" or mod.__name__.startswith("fpbprobe.")) and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counted)
    return calls


def subcommands():
    return cli._subcommands(cli.build_parser())


def flag_actions():
    """(subcommand, action) for every flag of every subcommand but --help."""
    return [(name, action) for name, sub in subcommands().items()
            for action in sub._actions if not isinstance(action, argparse._HelpAction)]


def parse_csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestCurves:
    ARGS = ["curves", "--p-e-min", "0.05", "--p-e-max", "0.25", "--steps", "5",
            "--xi", "0.0", "--xi", "1.0", "--order", "2"]

    def test_header_and_row_count(self, capsys):
        code, out = run_cli(self.ARGS, capsys)
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["p_e", "xi", "measure", "order", "value"]
        # 5 measures by default -> 5 rows per (p_e, xi) point
        assert len(rows) == 5 * 2 * 5

    def test_row_ordering(self, capsys):
        _, out = run_cli(self.ARGS, capsys)
        _, rows = parse_csv(out)
        p_values = [float(r[0]) for r in rows]
        assert p_values == sorted(p_values)
        first_point = [r for r in rows if r[0] == rows[0][0]]
        xi_values = [float(r[1]) for r in first_point]
        assert xi_values == sorted(xi_values)

    def test_conclusive_v1_equals_std(self, capsys):
        _, out = run_cli(self.ARGS, capsys)
        _, rows = parse_csv(out)
        by_key = {}
        for p_e, xi, measure, order, value in rows:
            by_key[(p_e, xi, measure, order)] = float(value)
        for (p_e, xi, measure, order), value in by_key.items():
            if xi == "0" and measure == "v1":
                assert value == pytest.approx(by_key[(p_e, xi, "std", "1")], abs=1e-10)

    def test_byte_identical_reruns(self, capsys):
        _, out1 = run_cli(self.ARGS, capsys)
        _, out2 = run_cli(self.ARGS, capsys)
        assert out1 == out2

    def test_cond_prob_measure(self, capsys):
        args = ["curves", "--p-e-min", "0.1", "--p-e-max", "0.2", "--steps", "2",
                "--xi", "0.5", "--measure", "cond_prob"]
        code, out = run_cli(args, capsys)
        assert code == 0
        _, rows = parse_csv(out)
        for p_e, xi, measure, order, value in rows:
            assert measure == "cond_prob" and order == ""
            q = outcome_probs(DiscriminationConfig.from_error_rate(float(p_e), float(xi)))
            assert float(value) == pytest.approx(
                q.q_success / (1 - q.q_inconclusive), abs=1e-12
            )

    def test_close_orders_get_distinct_labels(self, capsys):
        code, out = run_cli(["curves", "--steps", "2", "--xi", "1", "--measure", "v1",
                             "--order", "2", "--order", "2.0000001", "--order", "1.0000001"], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        assert [r[3] for r in rows] == ["2", "2.0000001", "1.0000001"] * 2

    def test_builds_no_joint_table(self, capsys, monkeypatch):
        """Every column comes from the closed forms, none from a 2x3 table."""
        built = count_calls(monkeypatch, entropy, "joint_from_outcome_probs")
        args = ["curves", "--steps", "5", "--xi", "0", "--xi", "0.5", "--xi", "1",
                "--order", "0.5", "--order", "1", "--order", "2", "--order", "10"]
        code, out = run_cli(args + [a for m in ("std", "v1", "v2", "v4", "v1_inf", "cond_prob")
                                    for a in ("--measure", m)], capsys)
        assert code == 0 and len(parse_csv(out)[1]) == 5 * 3 * 15
        assert built == []
        # the counter does count: the package's one table builder, by its public name
        fpbprobe.joint_from_outcome_probs(outcome_probs(DiscriminationConfig.from_error_rate(0.1, 0.5)))
        assert built

    def test_default_prints_no_value_above_one(self, capsys):
        # The table path printed std = 1.0000000000000002 at P_E = 1/3.
        _, out = run_cli(["curves"], capsys)
        _, rows = parse_csv(out)
        values = [float(r[4]) for r in rows if r[2] in ("std", "v1", "v2", "v4")]
        assert len(values) == 334 * 5 * 4 and max(values) <= 1.0
        assert {r[4] for r in rows if r[0] == "0.33333333333333331"} == {"1"}

    def test_shannon_orders_print_the_standard_measure(self, capsys):
        # Order 1 prints the standard measure, the limit of every variant; an
        # order 1e-10 away prints its own closed-form value.
        _, out = run_cli(["curves", "--steps", "4", "--xi", "0.5", "--order", "1", "--order", "1.0000000001",
                          "--order", "2"] + [a for m in ("std", "v1", "v2", "v4") for a in ("--measure", m)], capsys)
        _, rows = parse_csv(out)
        std = {r[0]: r[4] for r in rows if r[2] == "std"}
        p_es = np.array([float(p) for p in std])
        q, _ = outcome_probs_grid(p_es, 0.5)
        near = {m: dict(zip(std, f(1.0000000001, q))) for m, f in
                (("v1", closed_form_i1), ("v2", closed_form_i2), ("v4", closed_form_i4))}
        for p_e, _, measure, order, value in rows:
            if order == "1":
                assert value == std[p_e], measure
            elif order == "1.0000000001":
                assert float(value) == near[measure][p_e], (measure, p_e)
            if order != "1" and measure != "std" and float(p_e) < 0.3:  # at P_E = 1/3 every measure is 1
                assert value != std[p_e], (measure, order, p_e)

    def test_rejects_unknown_measure(self, tmp_path, capsys):
        assert exit_and_stdout(["curves", "--measure", "bogus"], capsys) == (2, "")
        # the flag's choices apply to a config value too
        conf = tmp_path / "run.conf"
        conf.write_text("measure=std,bogus\n")
        assert exit_and_stdout(["curves", "--config", str(conf)], capsys) == (2, "")

    def test_rejects_infinite_order_for_v2(self, capsys):
        code, out = run_cli(
            ["curves", "--measure", "v2", "--order", "inf", "--steps", "2"], capsys
        )
        assert code == 2
        assert out == ""  # nothing written before the validation error

    @pytest.mark.parametrize("argv", [
        ["curves", "--xi", "0.5", "--xi", "1.5", "--steps", "3"],
        ["bounds", "--variable", "p-e", "--max", "0.5"],
        ["bounds", "--variable", "eta", "--max", "1.5"],
        ["bounds", "--variable", "eta", "--min", "-0.1"],
        ["bounds", "--variable", "p-e", "--xi", "1.5"],
        ["simulate", "--rounds", str(2**63)],  # numpy's multinomial takes a C long
        ["bounds", "--min", "0.5", "--max", "0.1"],
        ["curves", "--steps", "1"],
        ["curves", "--config", "xi="],
        ["curves", "--config", "order=", "--measure", "v1"],
    ])
    def test_bad_grid_point_writes_nothing(self, argv, tmp_path, capsys):
        if "--config" in argv:  # the token after it is the file's text
            at = argv.index("--config") + 1
            conf = tmp_path / "run.conf"
            conf.write_text(argv[at] + "\n")
            argv = argv[:at] + [str(conf)] + argv[at + 1:]
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err.startswith("error: ")
        path = tmp_path / "out.csv"
        code, out = run_cli(argv + ["--out", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert not path.exists()

    def test_unwritable_path_gives_io_exit(self, capsys):
        code, _ = run_cli(self.ARGS + ["--out", "/nonexistent-dir/x.csv"], capsys)
        assert code == 3

    def test_values_are_17_digit_reproducible(self, capsys):
        # Every number, the P_E and xi columns included, must read back as
        # '%.17g' of the float it parses to.  The grid reaches P_E = 0,
        # exponent notation (v2 near P_E = 0) and both ends of xi.
        args = ["curves", "--p-e-min", "0", "--p-e-max", "0.3333333333333333", "--steps", "13",
                "--xi", "0", "--xi", "1e-05", "--xi", "0.3", "--xi", "1",
                "--order", "0.5", "--order", "2", "--order", "10"]
        args += [a for m in cli.MEASURES for a in ("--measure", m)]
        _, out = run_cli(args, capsys)
        _, rows = parse_csv(out)
        assert len(rows) == 13 * 4 * 12
        for row in rows:
            for tok in (row[0], row[1], row[4]):
                assert format(float(tok), ".17g") == tok, row


class TestCondProb:
    # P_E from 0 and from 1e-12 up to 1/3, xi at both schemes, near 0 and inside.
    EDGE_XI = ["--xi", "0", "--xi", "1e-05", "--xi", "0.3333333333333333", "--xi", "1"]

    @pytest.mark.parametrize("p_e_min", ["0", "1e-12"])
    def test_edge_grid_cells_are_probabilities(self, p_e_min, capsys):
        _, out = run_cli(["curves", "--p-e-min", p_e_min, "--steps", "41", "--measure", "cond_prob"]
                         + self.EDGE_XI, capsys)
        _, rows = parse_csv(out)
        assert len(rows) == 41 * 4
        assert all(0.0 <= float(row[4]) <= 1.0 for row in rows), [r for r in rows if not 0 <= float(r[4]) <= 1]

    def test_ends_print_exactly(self, capsys):
        # Q_S / (1 - Q_?) printed 1.0000000000000002 at P_E = 1/3 and
        # 0.49999999999999994 at P_E = 0, xi = 1: there Q_? is a rounding residue.
        _, out = run_cli(["curves", "--steps", "2", "--p-e-min", "0", "--xi", "0", "--xi", "1",
                          "--measure", "cond_prob"], capsys)
        assert [row[4] for row in parse_csv(out)[1]] == ["0.5", "0.5", "1", "1"]


def reference_csv(header, keys, values, tail):
    """What `_write_csv` writes, one Python '%' per float."""
    texts = [[k if isinstance(k, str) else "%.17g" % k for k in key] for key in keys]
    lines = [header + "\n"]
    for index in np.ndindex(*values.shape[:-1]):
        cells = [text[i] for text, i in zip(texts, index)] + ["%.17g" % v for v in values[index].tolist()]
        lines.append(",".join(cells) + tail)
    return "".join(lines)


class TestWriteCsv:
    LABELS = ["std,1", "v1_inf,inf", "v2,0.5", "cond_prob,", "v4,10"]  # unequal lengths
    # Every form the writer prints: zeros, inf, nan, subnormals, both
    # notations of the kernel, values that Python formats, and each edge.
    FORMS = [-0.5, 0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2.2250738585072014e-308, 1e-7,
             1.0, -1.0, np.nextafter(10.0, 0.0), 10.0, 12.5, -123456.75, 1e16, 1e17, 1e300,
             1e-4, 9.5e-5, 0.1, 0.25, 3.0, -7.125]
    FORMS += [v for edge in (1e-6, 1e-5, 1.0, 10.0) for v in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, np.inf))]

    @classmethod
    def values(cls, shape, seed):
        """Random values, a fifth of them drawn from FORMS."""
        rng = np.random.default_rng(seed)
        values = rng.uniform(-1.0, 1.0, shape) * 10.0 ** rng.integers(-8, 2, shape)
        pick = rng.random(shape) < 0.2
        values[pick] = rng.choice(cls.FORMS, int(pick.sum()))
        return values

    @staticmethod
    def check(keys, values, tail):
        out = io.StringIO()
        cli._write_csv(out, "a,b", keys, values, tail)
        # Compared as lists of lines: pytest reports the first line that
        # differs, where its diff of two ~1 MB strings takes minutes.
        assert out.getvalue().split("\n") == reference_csv("a,b", keys, values, tail).split("\n")

    @staticmethod
    def first_key(kind, step):
        """A first key axis of three blocks of `step` rows, the last partial."""
        n = 2 * step + 3
        if kind == "floats":
            return np.linspace(0.001, 1 / 3, n)
        if kind == "strings":
            return [f"k{i}" + "x" * (i % 7) for i in range(n)]
        # The first block's texts are at most '0.875', so its cells are
        # padded to a width that only the later blocks' texts have.
        key = (np.arange(n) % 8) / 8.0
        key[step + 1], key[-1] = -1 / 3, 1e-7
        return key

    @pytest.mark.parametrize("m", [1, 9])
    @pytest.mark.parametrize("tail", ["\n", ",,\n"])
    def test_one_two_and_three_key_axes(self, m, tail):
        xis = np.array([0.0, 1e-5, 0.3, 1.0])
        firsts, inners = ("floats", "strings", "widest later"), ([], [self.LABELS], [xis, self.LABELS])
        for seed, (first, inner) in enumerate(itertools.product(firsts, inners)):
            keys = [self.first_key(first, cli.BLOCK_VALUES // (math.prod(map(len, inner)) * m))] + inner
            self.check(keys, self.values(tuple(map(len, keys)) + (m,), seed), tail)

    @pytest.mark.parametrize("shape", ["curves", "bounds"])
    def test_one_kernel_call_for_the_float_keys_and_one_per_block(self, monkeypatch, shape):
        calls = []
        kernel = cli.format_g17
        monkeypatch.setattr(cli, "format_g17", lambda *args, **kw: calls.append(1) or kernel(*args, **kw))
        if shape == "curves":  # P_E and xi float keys, then the labels
            keys = [np.linspace(0.001, 1 / 3, 334), np.linspace(0.0, 1.0, 5), self.LABELS]
            values = self.values((334, 5, len(self.LABELS), 1), 11)
        else:  # no key axes: x is value column 0
            keys, values = [], self.values((501, 10), 12)
        blocks = -(-values.shape[0] // max(1, cli.BLOCK_VALUES // values[0].size))
        assert blocks >= 2
        self.check(keys, values, "\n")
        assert len(calls) == (1 if keys else 0) + blocks

    @pytest.mark.parametrize("axis", [0, 1])
    def test_float_keys_in_every_form(self, axis):
        # The key cells go through the same kernel as the values.
        inner = [np.array(self.FORMS), self.LABELS]
        keys = [np.array([0.5, 2.0, 1e-9])] + inner if axis else inner
        self.check(keys, self.values(tuple(map(len, keys)) + (2,), 7 + axis), "\n")

    @pytest.mark.parametrize("tail", ["\n", ",,\n"])
    def test_no_key_axes(self, tail):
        # `bounds` passes x as value column 0: its cells read as a float
        # key column's would, in the same kernel call as the other values.
        m = 8
        x = np.concatenate([self.FORMS, np.linspace(0.0, 1.0, 2 * (cli.BLOCK_VALUES // m) + 3 - len(self.FORMS))])
        values = np.concatenate([x[:, None], self.values((x.size, m - 1), 5)], axis=1)  # three blocks, the last partial
        self.check([], values, tail)
        keyed, unkeyed = io.StringIO(), io.StringIO()
        cli._write_csv(keyed, "a,b", [x], values[:, 1:], tail)
        cli._write_csv(unkeyed, "a,b", [], values, tail)
        assert unkeyed.getvalue() == keyed.getvalue()

    def test_inner_grid_larger_than_a_block(self):
        inner = (cli.BLOCK_VALUES // len(self.LABELS) + 1, len(self.LABELS))  # one row per block
        keys = [np.array([0.5, 2.0, 1e-9]), np.arange(inner[0]) / 7.0, self.LABELS]
        self.check(keys, self.values((3,) + inner + (1,), 99), "\n")


class TestBounds:
    def test_eta_sweep_columns(self, capsys):
        code, out = run_cli(["bounds", "--variable", "eta", "--steps", "11"], capsys)
        assert code == 0
        header, rows = parse_csv(out)
        assert header == [
            "x", "mu_bound", "coles_piani", "maj_shannon", "maj_alpha2_a",
            "maj_alpha2_b", "rho_star_H", "rho_star_R2", "i_std", "i_upper",
        ]
        assert len(rows) == 11
        for row in rows:
            assert row[8] == "" and row[9] == ""

    @pytest.mark.parametrize("variable", ["eta", "p-e"])
    def test_values_are_17_digit_reproducible(self, variable, capsys):
        _, out = run_cli(["bounds", "--variable", variable, "--min", "0", "--steps", "41"], capsys)
        _, rows = parse_csv(out)
        assert len(rows) == 41
        for row in rows:
            for col, tok in enumerate(row):
                if variable == "eta" and col >= 8:
                    assert tok == ""
                else:
                    assert format(float(tok), ".17g") == tok, (col, row)

    def test_no_second_check_on_either_sweep(self, capsys, monkeypatch):
        """bounds checks its grid once: no vector it builds goes through entropy._checked again."""
        checked = count_calls(monkeypatch, entropy, "_checked")
        for variable in ("eta", "p-e"):
            code, out = run_cli(["bounds", "--variable", variable], capsys)
            assert code == 0 and len(parse_csv(out)[1]) > 300
        assert checked == []
        # the counter does count: a hand-built MajorizationData checks both of its vectors
        uncertainty.MajorizationData(np.ones(2), [0.5, 0.5], [0.75, 0.25])
        assert len(checked) == 2

    def test_default_eta_grid_contains_knots(self, capsys):
        _, out = run_cli(["bounds"], capsys)
        _, rows = parse_csv(out)
        xs = {row[0] for row in rows}
        assert "0.20000000000000001" in xs or "0.2" in xs
        assert "0.5" in xs

    def test_pe_sweep_has_dominating_upper_bound(self, capsys):
        code, out = run_cli(
            ["bounds", "--variable", "p-e", "--steps", "40", "--xi", "0.5"], capsys
        )
        assert code == 0
        _, rows = parse_csv(out)
        for row in rows:
            assert float(row[9]) >= float(row[8]) - 1e-10

    def test_rho_star_entropies_bounded_by_log3(self, capsys):
        _, out = run_cli(["bounds", "--variable", "eta", "--steps", "21"], capsys)
        _, rows = parse_csv(out)
        for row in rows:
            assert 0.0 <= float(row[7]) <= float(row[6]) + 1e-12
            assert float(row[6]) <= math.log2(3) + 1e-12


class TestSimulate:
    ARGS = ["simulate", "--rounds", "20000", "--p-e", "0.1", "--xi", "0.5", "--seed", "7"]

    def test_report_fields_and_determinism(self, capsys):
        code, out1 = run_cli(self.ARGS, capsys)
        assert code == 0
        report = json.loads(out1)
        assert report["config"] == {"rounds": 20000, "error_rate": 0.1, "xi": 0.5, "seed": 7}
        assert report["tally"]["rounds"] == 20000
        assert len(report["empirical_joint"]) == 2
        _, out2 = run_cli(self.ARGS, capsys)
        assert out1 == out2

    def test_analytic_columns_match_library(self, capsys):
        _, out = run_cli(self.ARGS, capsys)
        report = json.loads(out)
        q = outcome_probs(DiscriminationConfig.from_error_rate(0.1, 0.5))
        assert report["mutual_information"]["analytic"] == pytest.approx(
            closed_form_i_std(q), abs=1e-15
        )
        analytic = np.array(report["analytic_joint"])
        assert analytic[0, 0] == pytest.approx(q.q_success / 2, abs=1e-15)

    def test_four_sigma_flag_on_healthy_run(self, capsys):
        _, out = run_cli(self.ARGS, capsys)
        report = json.loads(out)
        assert report["cells_within_4_sigma"] is True

    def test_invalid_config_exit_code(self, capsys):
        code, _ = run_cli(["simulate", "--p-e", "0.9"], capsys)
        assert code == 2

    ONE_ROUND_SEEDS = (1, 2, 3, 4)

    @staticmethod
    def one_round_report(seed, capsys):
        code, out = run_cli(["simulate", "--rounds", "1", "--seed", str(seed)], capsys)
        assert code == 0
        return json.loads(out)

    @pytest.mark.parametrize("seed", ONE_ROUND_SEEDS)
    def test_one_round_session(self, seed, capsys):
        # a round that is not sifted and error-free leaves no empirical table
        report = self.one_round_report(seed, capsys)
        _, healthy = run_cli(self.ARGS, capsys)
        assert sorted(report) == sorted(json.loads(healthy))
        empty = sum(report["tally"]["counts"][1][1], []) == [0] * 6
        assert (report["restricted_rounds"] == 0) == empty
        assert (report["empirical_joint"] is None) == empty
        assert (report["mutual_information"]["empirical"] is None) == empty

    def test_one_round_seeds_cover_both_branches(self, capsys):
        reports = [self.one_round_report(seed, capsys) for seed in self.ONE_ROUND_SEEDS]
        assert {r["empirical_joint"] is None for r in reports} == {True, False}

    # One-round sessions of both report shapes, the ends of the P_E and xi
    # boxes, and round counts past 2**53, where the counts' int-to-float
    # conversions round.
    REFERENCE_CASES = ([(1, 0.1, 1.0, seed) for seed in ONE_ROUND_SEEDS]
                       + [(20000, p_e, xi, 7) for p_e in (0.0, 1 / 3) for xi in (0.0, 1.0)]
                       + [(2**53 + 4321, 0.2, 0.5, 11), (2**63 - 1, 0.1, 0.25, 13)])

    @pytest.mark.parametrize("rounds, p_e, xi, seed", REFERENCE_CASES)
    def test_bytes_match_the_array_reference(self, rounds, p_e, xi, seed, capsys):
        argv = ["simulate", "--rounds", str(rounds), "--p-e", repr(p_e), "--xi", repr(xi), "--seed", str(seed)]
        code, out = run_cli(argv, capsys)
        assert code == 0
        assert out == simulate_report_reference(rounds, p_e, xi, seed)

    def test_reference_cases_cover_both_shapes_and_rounding_counts(self):
        shapes = {json.loads(simulate_report_reference(*case))["empirical_joint"] is None
                  for case in self.REFERENCE_CASES}
        report = json.loads(simulate_report_reference(*self.REFERENCE_CASES[-1]))
        assert shapes == {True, False} and min(sum(report["tally"]["counts"][1][1], [])) > 2**53


class TestJsonWriter:
    """simulate's cached layout and povm's report give json.dumps(v, indent=2, sort_keys=True) exactly."""

    @staticmethod
    def dumps(v):
        return json.dumps(v, indent=2, sort_keys=True)

    def test_simulate_layout_fill_matches_json_text(self):
        """The cached layout of either report shape, filled with any leaves, is json.dumps of that report."""
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        leaves = (st.none() | st.booleans() | st.integers() | st.integers(min_value=2**64 - 5, max_value=2**70)
                  | st.integers(min_value=-(2**70), max_value=-(2**64) + 5) | st.floats()
                  | st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]) | st.text()
                  | st.sampled_from(["{0}", "}{", "\x001", '"\\u00002"'])
                  | st.sampled_from([", ", "a, b", '", "', "\x00, \x00", ",", ":"]))  # separator look-alikes
        # 38 leaves without the empirical table, 45 with it
        reports = st.sampled_from([38, 45]).flatmap(lambda n: st.lists(leaves, min_size=n, max_size=n))

        @hypothesis.settings(derandomize=True, database=None, max_examples=300, deadline=None)
        @hypothesis.given(reports)
        def check(v):
            assert cli._simulate_text(v) == self.dumps(cli._simulate_report(v))

        check()

    def test_simulate_and_povm_write_json_dumps_plus_lf(self, capsys):
        for argv in (TestSimulate.ARGS, ["povm", "--theta", "0.3", "--xi", "0.5"]):
            code, out = run_cli(argv, capsys)
            assert code == 0
            assert out == self.dumps(json.loads(out)) + "\n"


class TestPovm:
    def test_helstrom_has_zero_inconclusive(self, capsys):
        code, out = run_cli(["povm", "--theta", "0.4", "--xi", "1"], capsys)
        assert code == 0
        report = json.loads(out)
        m = np.array(report["m_inconclusive"])
        assert np.abs(m).max() <= 1e-12
        assert report["completeness_residual"] <= 1e-10

    def test_q_triple_matches_library(self, capsys):
        _, out = run_cli(["povm", "--theta", "0.3", "--xi", "0.5"], capsys)
        report = json.loads(out)
        cfg = DiscriminationConfig(0.3, xi_to_phi(0.5, 0.3))
        q = outcome_probs(cfg)
        assert report["q_success"] == pytest.approx(q.q_success, abs=1e-15)
        assert report["q_error"] == pytest.approx(q.q_error, abs=1e-15)
        assert report["q_inconclusive"] == pytest.approx(q.q_inconclusive, abs=1e-15)
        assert report["error_lower_bound"] == pytest.approx(q.q_error, abs=1e-10)

    @pytest.mark.parametrize("xi", ["0", "0.5", "1"])
    def test_theta_in_the_slack_past_quarter_pi(self, xi, capsys):
        # theta up to pi/4 + 1e-12 is accepted, and its phi is 0, not -5e-13 or -0.0
        code, out = run_cli(["povm", "--theta", "0.78539816339795", "--xi", xi], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["phi"] == 0.0 and math.copysign(1.0, report["phi"]) == 1.0
        assert report["q_inconclusive"] == 0.0
        assert report["completeness_residual"] <= 1e-10

    def test_missing_arguments_rejected(self, capsys):
        code, _ = run_cli(["povm", "--theta", "0.3"], capsys)
        assert code == 2


class TestConfigFile:
    def test_config_overrides_defaults_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.conf"
        cfg.write_text("p_e_min=0.1\np_e_max=0.2\nsteps=3\nxi=0.5\nmeasure=std\n# comment\n")
        _, out1 = run_cli(["curves", "--config", str(cfg)], capsys)
        _, rows1 = parse_csv(out1)
        assert len(rows1) == 3
        assert all(r[1] == "0.5" for r in rows1)
        # explicit flag wins over the file
        _, out2 = run_cli(["curves", "--config", str(cfg), "--steps", "2"], capsys)
        _, rows2 = parse_csv(out2)
        assert len(rows2) == 2

    def test_missing_config_file(self, capsys):
        code, _ = run_cli(["curves", "--config", "/no/such/file"], capsys)
        assert code == 3

    def test_malformed_config_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.conf"
        bad.write_text("steps 3\n")
        code, _ = run_cli(["curves", "--config", str(bad)], capsys)
        assert code == 2

    def test_unknown_key_rejected_other_subcommands_keys_ignored(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.conf"
        cfg.write_text("steps=3\nmeasure=std\nxi=0.5\nrounds=7\nseed=1\ntheta=0.3\n")
        code, out = run_cli(["curves", "--config", str(cfg)], capsys)
        assert code == 0
        assert len(parse_csv(out)[1]) == 3
        cfg.write_text(cfg.read_text() + "stepz=4\n")
        code = cli.main(["curves", "--config", str(cfg)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert "stepz" in captured.err

    def test_repeated_key_is_an_argument_error(self, tmp_path, capsys):
        # Keys compare after case and '-'/'_' normalization.
        cfg = tmp_path / "sweep.conf"
        cfg.write_text("xi=0\nsteps=2\n\nXI=1\nmeasure=std\n")
        code = cli.main(["curves", "--config", str(cfg)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == f"error: {cfg}:4: key 'xi' repeats line 1\n"
        cfg.write_text("p-e-min=0.1\np_e_min=0.2\n")
        assert exit_and_stdout(["curves", "--config", str(cfg)], capsys) == (2, "")

    def test_config_line_is_an_argument_error(self, tmp_path, capsys):
        # It was silently ignored: neither followed nor rejected, exit 0.
        cfg = tmp_path / "sweep.conf"
        for key in ("config", "CONFIG "):
            cfg.write_text(f"steps=2\n{key}=other.conf\nxi=0\nmeasure=std\n")
            code = cli.main(["curves", "--config", str(cfg)])
            captured = capsys.readouterr()
            assert (code, captured.out) == (2, "")
            assert captured.err.startswith(f"error: {cfg}:2: ") and "other.conf" in captured.err, captured.err

    def test_utf8_bom_reads_like_no_bom(self, tmp_path, capsys):
        """Editors often save UTF-8 with a byte-order mark; it is not part of the first key."""
        text = "steps=2\nxi=0.5\nmeasure=std\n"
        outs = []
        for name, data in (("plain", text.encode()), ("bom", b"\xef\xbb\xbf" + text.encode()),
                           ("bom_crlf", b"\xef\xbb\xbf" + text.replace("\n", "\r\n").encode())):
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_bytes(data)
            outs.append(exit_and_stdout(["curves", "--config", str(cfg)], capsys))
        assert outs[0][0] == 0 and len(parse_csv(outs[0][1])[1]) == 2
        assert outs[1:] == [outs[0]] * 2

    def test_file_that_is_not_utf8_is_named(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.conf"
        cfg.write_bytes(b"steps=2\n\xff\n")
        code = cli.main(["curves", "--config", str(cfg)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err.startswith(f"error: {cfg}: not UTF-8 text")

    @pytest.mark.parametrize("variable", ["eta", "p-e", "p_e", "P-E"])
    def test_variable_flag_and_file_agree(self, variable, tmp_path, capsys):
        cfg = tmp_path / "bounds.conf"
        cfg.write_text(f"variable={variable}\n")
        results = []
        for argv in (["--variable", variable], ["--config", str(cfg)]):
            try:
                code = cli.main(["bounds", "--steps", "3", *argv])
            except SystemExit as exc:  # argparse rejects the flag
                code = exc.code
            results.append((code, capsys.readouterr().out))
        assert results[0] == results[1]
        assert results[0][0] == (0 if variable in ("eta", "p-e") else 2)


class TestFlagConfigParity:
    """A config value is parsed exactly like the flag of the same name."""

    # Small runs of each subcommand; the flag under test is left out.
    BASE = {
        "curves": {"--steps": "3", "--xi": "0.5", "--measure": "v1"},
        "bounds": {"--variable": "p-e", "--steps": "3"},
        "simulate": {"--rounds": "200", "--seed": "1"},
        "povm": {"--theta": "0.3", "--xi": "0.5"},
    }
    # Per flag: the value a config key gives (two for a repeatable flag),
    # and another value, given as the flag, that must win over it.
    SAMPLES = {
        ("curves", "p_e_min"): (["0.1"], "0.2"),
        ("curves", "p_e_max"): (["0.2"], "0.3"),
        ("curves", "steps"): (["2"], "4"),
        ("curves", "xi"): (["0.25", "0.75"], "1"),
        ("curves", "order"): (["3", "inf"], "2"),
        ("curves", "measure"): (["std", "v1_inf"], "cond_prob"),
        ("bounds", "variable"): (["eta"], "p-e"),
        ("bounds", "min"): (["0.1"], "0.2"),
        ("bounds", "max"): (["0.2"], "0.3"),
        ("bounds", "steps"): (["2"], "4"),
        ("bounds", "xi"): (["0.5"], "0.25"),
        ("simulate", "rounds"): (["100"], "150"),
        ("simulate", "p_e"): (["0.2"], "0.05"),
        ("simulate", "xi"): (["0.5"], "0"),
        ("simulate", "seed"): (["3"], "4"),
        ("povm", "theta"): (["0.2"], "0.4"),
        ("povm", "xi"): (["0"], "1"),
    }

    @pytest.mark.parametrize("command,action", flag_actions(),
                             ids=[f"{name}-{a.dest}" for name, a in flag_actions()])
    def test_config_value_parses_like_the_flag(self, command, action, tmp_path, capsys):
        flag = action.option_strings[-1]
        base = [command] + [tok for f, v in self.BASE[command].items() if f != flag for tok in (f, v)]
        conf = tmp_path / "run.conf"

        def run(*flags, config=None):
            argv = base + list(flags)
            if config is not None:
                conf.write_text(f"{action.dest}={config}\n")
                argv += ["--config", str(conf)]
            code, out = exit_and_stdout(argv, capsys)
            assert code == 0, argv
            return out

        if action.dest == "out":
            a, b = tmp_path / "a.out", tmp_path / "b.out"
            assert run(flag, str(a)) == ""
            want = a.read_text()
            assert want == run()
            a.unlink()
            assert run(config=str(a)) == "" and a.read_text() == want
            a.unlink()
            assert run(flag, str(b), config=str(a)) == ""
            assert b.read_text() == want and not a.exists()
        elif action.dest == "config":
            # Only the --config flag names a file: a config key in one is
            # an argument error, and the file it names is never read.
            nested, nested_out = tmp_path / "nested.conf", tmp_path / "nested.out"
            nested.write_text(f"out={nested_out}\n")
            conf.write_text(f"config={nested}\n")
            assert exit_and_stdout(base + ["--config", str(conf)], capsys) == (2, "")
            assert not nested_out.exists()
            assert run(flag, str(nested)) == "" and nested_out.read_text() == run()
        else:
            values, other = self.SAMPLES[command, action.dest]
            assert len(values) == (2 if isinstance(action, argparse._AppendAction) else 1)
            from_flags = run(*(tok for v in values for tok in (flag, v)))
            assert run(config=",".join(values)) == from_flags
            winner = run(flag, other)
            assert winner != from_flags
            assert run(flag, other, config=",".join(values)) == winner

    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_empty_out_path_is_a_usage_error(self, via, tmp_path, capsys, monkeypatch):
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        argv = ["bounds", "--steps", "3"]
        if via == "flag":
            argv += ["--out", ""]
        else:
            (tmp_path / "run.conf").write_text("out=\n")
            argv += ["--config", str(tmp_path / "run.conf")]
        assert exit_and_stdout(argv, capsys) == (2, "")
        assert list(work.iterdir()) == []


class TestReadmeSynopsis:
    def test_lists_exactly_the_parser_flags(self):
        text = README.read_text()
        block = re.search(r"```\n(fpbprobe curves.*?)```", text, re.S).group(1)
        listed, current = {}, None
        for line in block.splitlines():
            if line.startswith("fpbprobe "):
                current = line.split()[1]
            elif line.startswith("every subcommand:"):
                current = "*"
            elif not line.startswith(" "):
                continue
            listed.setdefault(current, set()).update(re.findall(r"--[a-z][a-z-]*", line))
        common = listed.pop("*")
        assert sorted(listed) == sorted(subcommands())
        for name, sub in subcommands().items():
            defined = {s for a in sub._actions for s in a.option_strings if s.startswith("--")} - {"--help"}
            assert not listed[name] & common, name
            assert listed[name] | common == defined, name


class TestOutputFiles:
    def test_writes_lf_terminated_file(self, tmp_path, capsys):
        path = tmp_path / "curves.csv"
        code, _ = run_cli(
            ["curves", "--p-e-min", "0.1", "--p-e-max", "0.2", "--steps", "2",
             "--xi", "1.0", "--measure", "std", "--out", str(path)],
            capsys,
        )
        assert code == 0
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")

    SIMULATE = ["simulate", "--rounds", "2000", "--p-e", "0.1", "--seed", "3"]

    @staticmethod
    def fail_mid_write(monkeypatch):
        """The report's one write lands half its text, then fails as a full disk does."""
        fdopen = os.fdopen

        class HalfFull:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, text):
                self.fh.write(text[: len(text) // 2])
                self.fh.flush()
                raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "fdopen", lambda fd, *args, **kwargs: HalfFull(fdopen(fd, *args, **kwargs)))

    @pytest.mark.parametrize("existing", [b"previous report\n", None], ids=["existing", "absent"])
    def test_failed_write_leaves_target_untouched(self, existing, tmp_path, capsys, monkeypatch):
        path = tmp_path / "report.json"
        if existing is not None:
            path.write_bytes(existing)
        self.fail_mid_write(monkeypatch)
        code, out = run_cli(self.SIMULATE + ["--out", str(path)], capsys)
        assert code == 3
        assert out == ""
        if existing is None:
            assert not path.exists()
        else:
            assert path.read_bytes() == existing
        assert sorted(p.name for p in tmp_path.iterdir()) == ([path.name] if existing else [])

    def test_replaces_existing_target_with_plain_open_mode(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        path.write_text("stale\n")
        reference = tmp_path / "reference"
        open(reference, "w").close()
        code, out = run_cli(self.SIMULATE + ["--out", str(path)], capsys)
        assert code == 0
        _, expected = run_cli(self.SIMULATE, capsys)
        assert path.read_text() == expected
        assert path.stat().st_mode == reference.stat().st_mode
        assert sorted(p.name for p in tmp_path.iterdir()) == ["reference", "report.json"]

    def test_symlink_target_is_written_through(self, tmp_path, capsys):
        real = tmp_path / "real.json"
        real.write_text("stale\n")
        link = tmp_path / "link.json"
        link.symlink_to(real)
        code, _ = run_cli(self.SIMULATE + ["--out", str(link)], capsys)
        assert code == 0
        _, expected = run_cli(self.SIMULATE, capsys)
        assert link.is_symlink()
        assert real.read_text() == expected

    def test_mode_follows_the_umask_without_changing_it(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "report.json"
        umask = os.umask

        def refuse(mask):
            raise AssertionError("the process-wide umask was changed")

        previous = umask(0o027)
        try:
            monkeypatch.setattr(os, "umask", refuse)
            code, _ = run_cli(self.SIMULATE + ["--out", str(path)], capsys)
        finally:
            umask(previous)
        assert code == 0
        assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~0o027
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_pipe_target_is_written_in_place(self, tmp_path, capsys):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_text()), daemon=True)
        reader.start()
        code, _ = run_cli(self.SIMULATE + ["--out", str(fifo)], capsys)
        reader.join(timeout=10)
        assert code == 0
        assert not reader.is_alive()
        _, expected = run_cli(self.SIMULATE, capsys)
        assert received == [expected]
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert [p.name for p in tmp_path.iterdir()] == ["pipe"]


class TestExitMap:
    """Every failure leaves main through its one map.

    Exit 2 or 3, nothing on stdout, no file at the --out path and no
    temporary beside it, one stderr line that starts with 'error: ', and an
    I/O error names the path as the user gave it.  {tmp} is a fresh
    directory; `config` is the text of {tmp}/run.conf.
    """

    CASES = {
        "out_of_range_value": (["curves", "--xi", "1.5"], None, 2),
        "bad_grid": (["bounds", "--min", "0.5", "--max", "0.1"], None, 2),
        # numpy refuses the 7.11 PiB grid at once, so nothing is allocated
        "curves_grid_too_large": (["curves", "--steps", "1000000000000000"], None, 2),
        "bounds_grid_too_large": (["bounds", "--steps", "1000000000000000"], None, 2),
        "unknown_config_key": (["curves", "--config", "{tmp}/run.conf"], b"stepz=3\n", 2),
        "malformed_config_line": (["curves", "--config", "{tmp}/run.conf"], b"steps 3\n", 2),
        "repeated_config_key": (["curves", "--config", "{tmp}/run.conf"], b"xi=0\nsteps=2\nxi=1\n", 2),
        "config_not_utf8": (["curves", "--config", "{tmp}/run.conf"], b"\xff\n", 2),
        "config_key_in_config": (["curves", "--config", "{tmp}/run.conf"], b"config=other.conf\n", 2),
        "missing_config_file": (["curves", "--config", "{tmp}/absent.conf"], None, 3),
        "out_into_missing_directory": (["curves", "--steps", "2", "--out", "{tmp}/work/missing/x.csv"], None, 3),
        "out_naming_a_directory": (["curves", "--steps", "2", "--out", "{tmp}/work/dir"], None, 3),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_failure_is_mapped_once(self, case, tmp_path, capsys):
        template, config, expected = self.CASES[case]
        work = tmp_path / "work"
        (work / "dir").mkdir(parents=True)
        if config is not None:
            (tmp_path / "run.conf").write_bytes(config)
        argv = [a.format(tmp=tmp_path) for a in template]
        runs = [argv] if "--out" in argv else [argv, argv + ["--out", str(work / "result.csv")]]
        for argv in runs:
            code = cli.main(argv)
            captured = capsys.readouterr()
            assert (code, captured.out) == (expected, "")
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err
            assert sorted(p.relative_to(work).as_posix() for p in work.rglob("*")) == ["dir"]
            if expected == 3:
                named = argv[argv.index("--out" if "--out" in template else "--config") + 1]
                assert captured.err.endswith(f": {named!r}\n"), captured.err
                assert f".{os.path.basename(named)}." not in captured.err  # no temporary's name


def run_child(*args):
    """Run python with `args` in a fresh interpreter that imports the same
    package as this process, installed or not."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


class TestParserReuse:
    def test_calls_in_one_process_match_fresh_processes(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.conf"
        cfg.write_text("steps=3\nxi=0.25,0.75\nmeasure=std,v1\norder=2,3\n")
        calls = [
            ["curves", "--xi", "0.5"],
            ["bounds"],
            ["curves", "--xi", "0.25", "--order", "3", "--xi", "oops"],
            ["curves", "--config", str(cfg)],
            ["curves", "--xi", "0.5"],
        ]
        got = []
        for argv in calls:
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            got.append((code, capsys.readouterr().out))
        assert [code for code, _ in got] == [0, 0, 2, 0, 0]
        assert got[4] == got[0]
        assert {row[1] for row in parse_csv(got[0][1])[1]} == {"0.5"}
        assert {(row[1], row[3]) for row in parse_csv(got[3][1])[1]} == {
            (xi, order) for xi in ("0.25", "0.75") for order in ("1", "2", "3")}
        for argv, (code, out) in zip(calls, got):
            proc = run_child("-m", "fpbprobe.cli", *argv)
            assert (proc.returncode, proc.stdout) == (code, out), argv

    def test_import_builds_no_parser(self):
        proc = run_child("-c", "import fpbprobe.cli as cli; print(cli.build_parser.cache_info().misses); "
                               "cli.main(['povm', '--theta', '0.3', '--xi', '0']); "
                               "cli.main(['povm', '--theta', '0.3', '--xi', '1']); "
                               "print(tuple(cli.build_parser.cache_info()[:2]))")
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert (lines[0], lines[-1]) == ("0", "(1, 1)")

    def test_simulate_layouts_are_built_on_first_use(self):
        # seeds 1 to 4 of one-round sessions hold both report shapes
        proc = run_child("-c", "import os, fpbprobe.cli as cli; print(cli._simulate_layout.cache_info().misses); "
                               "[cli.main(['simulate', '--rounds', '1', '--seed', s, '--out', os.devnull]) "
                               "for s in '1234']; print(tuple(cli._simulate_layout.cache_info()[:2]))")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["0", "(2, 2)"]


def parse_and_run(argv):
    """main as the top-level parser alone would run it: parse_args, the config file, the subcommand."""
    parser = cli.build_parser()
    args = parser.parse_args(argv)
    if args.config:
        cli._apply_config(parser, args, cli._load_config_file(args.config))
    return args.func(args)


class TestOneParse:
    """main parses argv as parser.parse_args(argv) does, for every kind of argv.

    {tmp} is a fresh directory holding run.conf.
    """

    VALID = {
        "curves": ["curves", "--steps", "2", "--xi", "0.5", "--order", "3"],
        "bounds": ["bounds", "--variable", "p-e", "--steps", "3"],
        "simulate": ["simulate", "--rounds", "1000", "--p-e", "0.2", "--seed", "7"],
        "povm": ["povm", "--theta", "0.3", "--xi", "0.5"],
        # steps is in the file and on the command line, which wins
        "config_and_flag": ["curves", "--config", "{tmp}/run.conf", "--steps", "3"],
        "abbreviated_flag": ["simulate", "--roun", "5"],
        "equals_value": ["simulate", "--rounds=5", "--seed", "3"],
        "repeated_flag": ["simulate", "--rounds", "5", "--rounds", "6"],
    }
    INVALID = {
        "subcommand_help": ["simulate", "-h"],
        "help": ["-h"],
        "abbreviated_help": ["--he"],
        "no_argv": [],
        "unknown_subcommand": ["bogus"],
        "abbreviated_subcommand": ["sim"],
        "extra_token": ["simulate", "extra"],
        "unknown_flag": ["simulate", "--bogus", "3"],
        "bad_value": ["simulate", "--rounds", "x"],
        "missing_value": ["simulate", "--rounds"],
        "double_dash": ["simulate", "--", "--rounds", "5"],
        "trailing_double_dash": ["simulate", "--rounds", "5", "--"],
        "leading_double_dash": ["--", "simulate"],
    }

    @staticmethod
    def outcome(run, argv, capsys):
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @pytest.mark.parametrize("case", {**VALID, **INVALID})
    def test_same_exit_code_and_output(self, case, tmp_path, capsys):
        (tmp_path / "run.conf").write_text("steps=2\nxi=0.25\nmeasure=std\n")
        argv = [a.format(tmp=tmp_path) for a in {**self.VALID, **self.INVALID}[case]]
        got = self.outcome(cli.main, argv, capsys)
        assert got == self.outcome(parse_and_run, argv, capsys)
        assert got[0] == 0 or case in self.INVALID

    @pytest.mark.parametrize("case", VALID)
    def test_same_namespace(self, case, tmp_path):
        parser = cli.build_parser()
        argv = [a.format(tmp=tmp_path) for a in self.VALID[case]]
        assert list(vars(cli._parse(parser, argv)).items()) == list(vars(parser.parse_args(argv)).items())


class TestEntryPoint:
    def test_module_invocation(self):
        proc = run_child("-m", "fpbprobe.cli", "povm", "--theta", "0.3", "--xi", "0.0")
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["q_error"] == 0.0
