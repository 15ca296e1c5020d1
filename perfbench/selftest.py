"""Smoke tests of the benchmark itself.

    python3 -m pytest perfbench/selftest.py

Runs every workload at tiny op sizes (``--smoke``) for one second.  The
file name keeps these tests out of the package's own test collection.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]
COUNT_SUFFIXES = ("calls_per_op", "evaluations_per_call", "chunks_per_op")


def run_bench(workload: str, trace: int, seed: int = 5, cwd: Path = ROOT, script: Path = HERE / "run.py"):
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().split("\n")
    return json.loads(lines[-2])["meta"], json.loads(lines[-1])


def test_spec_names_the_workloads_run_py_offers():
    assert NAMES == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", NAMES)
def test_every_metric_is_emitted_with_its_unit(workload):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        meta, result = result_of(run_bench(workload, trace))
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, meta["problems"]
        declared = {m["name"]: m["unit"] for m in SPEC[section]}
        assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


@pytest.mark.parametrize("workload", NAMES)
def test_same_seed_gives_identical_counts(workload):
    first = result_of(run_bench(workload, 1, seed=9))[1]["metrics"]
    second = result_of(run_bench(workload, 1, seed=9))[1]["metrics"]
    counts = [name for name in first if name.endswith(COUNT_SUFFIXES)]
    assert counts
    assert {n: first[n]["value"] for n in counts} == {n: second[n]["value"] for n in counts}


def _op(name: str):
    wl = workloads.make(name, 3, smoke=True)
    inp = wl.input(1, 0)
    out = wl.run(inp)
    assert wl.check(inp, out) == []
    return wl, inp, out


def _replace_field(text: str, match, column: int, value: str) -> str:
    lines = text.split("\n")
    for i, line in enumerate(lines):
        fields = line.split(",")
        if match(fields):
            fields[column] = value
            lines[i] = ",".join(fields)
            return "\n".join(lines)
    raise AssertionError("no row matched")


def test_checker_catches_a_corrupted_curves_row():
    wl, inp, (code, text) = _op("curves_grid")
    for measure in ("std", "v1", "v1_inf"):
        bad = _replace_field(text, lambda f, m=measure: len(f) == 5 and f[2] == m,
                             4, "0.12345678901234567")
        assert wl.check(inp, (code, bad))
    assert wl.check(inp, (code, text.rsplit("\n", 2)[0] + "\n"))  # a row missing


def test_checker_catches_a_corrupted_bounds_row():
    wl, inp, (eta_out, pe_out, s_opt, zeta) = _op("bounds_certify")
    bad_pe = _replace_field(pe_out[1], lambda f: f[0] != "x", 9, "0")  # i_upper below i_std
    assert wl.check(inp, (eta_out, (0, bad_pe), s_opt, zeta))
    bad_eta = _replace_field(eta_out[1], lambda f: f[0] != "x", 1, "1.5")  # mu_bound off
    assert wl.check(inp, ((0, bad_eta), pe_out, s_opt, zeta))
    assert wl.check(inp, (eta_out, pe_out, s_opt + 1e-3, zeta))
    assert wl.check(inp, (eta_out, pe_out, s_opt, (zeta[0], zeta[1] + 1e-3, zeta[2])))


def test_checker_catches_corrupted_tallies():
    wl, inp, (counts, mi) = _op("session_sweep")
    extra = counts.copy()
    extra[1, 1, 0, 0] += 1
    assert wl.check(inp, (extra, mi))  # no longer sums to the round count
    assert wl.check(inp, (counts, mi * 1.01))

    wl, inp, (code, text) = _op("session_long")
    report = json.loads(text)
    report["tally"]["counts"][0][0][0][0] -= 1
    assert wl.check(inp, (code, json.dumps(report)))


def test_pooled_test_rejects_a_biased_simulator():
    wl = workloads.make("session_sweep", 3, smoke=True)
    for k in range(100):
        inp = wl.input(1, k)
        counts, _ = wl.run(inp)
        # Move rounds from a mismatched-basis cell into the sifted "plus" cell:
        # the sum and every per-op check still pass, the statistics do not.
        biased = counts.copy()
        shift = min(25, int(biased[0, 1, 0, 0]))
        biased[0, 1, 0, 0] -= shift
        biased[1, 1, 0, 0] += shift
        assert wl.check(inp, (biased, checks.plugin_mutual_information(biased[1, 1]))) == []
    problems, detail = wl.finish()
    assert problems, detail


def test_a_bare_benchmark_directory_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(NAMES[0], 0, cwd=tmp_path, script=tmp_path / HERE.name / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tail_latency_has_ten_ops_beyond():
    lat = list(np.arange(100, 0, -1))
    value, pct, beyond = checks.tail_latency(lat)
    assert (value, beyond) == (90, 10) and pct == 90.0


def test_tail_latency_is_the_99th_percentile_of_long_runs():
    lat = list(np.arange(5000, 0, -1))
    value, pct, beyond = checks.tail_latency(lat)
    assert (value, beyond) == (4950, 50) and pct == 99.0
