import json
import math
import os
import stat
import subprocess
import sys
import threading

import numpy as np
import pytest

from fpbprobe import cli
from fpbprobe.discrimination import DiscriminationConfig, outcome_probs, xi_to_phi
from fpbprobe.entropy import closed_form_i_std


def run_cli(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr().out
    return code, out


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

    def test_rejects_unknown_measure(self, capsys):
        code, _ = run_cli(["curves", "--measure", "bogus"], capsys)
        assert code == 2

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
    ])
    def test_bad_grid_point_writes_nothing(self, argv, tmp_path, capsys):
        code, out = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        path = tmp_path / "out.csv"
        code, out = run_cli(argv + ["--out", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert not path.exists()

    def test_unwritable_path_gives_io_exit(self, capsys):
        code, _ = run_cli(self.ARGS + ["--out", "/nonexistent-dir/x.csv"], capsys)
        assert code == 3

    def test_values_are_17_digit_reproducible(self, capsys):
        _, out = run_cli(self.ARGS, capsys)
        _, rows = parse_csv(out)
        val = rows[0][4]
        assert float(val) == float(f"{float(val):.17g}")


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
        def dump(obj, fh, **kwargs):
            fh.write('{"config": ')
            fh.flush()
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli.json, "dump", dump)

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


class TestEntryPoint:
    def test_module_invocation(self):
        # the child imports the same package as this process, installed or not
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "fpbprobe.cli", "povm", "--theta", "0.3", "--xi", "0.0"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["q_error"] == 0.0
