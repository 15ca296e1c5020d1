"""`curves`, `bounds` and `povm` output against golden files in tests/data.

The golden files were written by the per-grid-point implementation that
preceded the array-native one.  The header, the row order and every
non-value column must match byte for byte.  Each value must lie within
16 * 2**-52 * max(1, |golden|) of the golden value: numpy's log2, power
and arctan2 differ from libm in the last bit on some inputs, and
differences of entropies make a relative bound meaningless near 0.

povm.json holds one `povm` JSON report per (theta, xi) pair, written by
the implementation that built each element from complex kets.  Keys and
nesting must match exactly; every number must lie within the same bound.
"""

import json
from pathlib import Path

import pytest

from fpbprobe import cli

DATA = Path(__file__).parent / "data"
ULP_GATE = 16 * 2.0 ** -52

EDGE_GRID = ["--p-e-min", "0", "--p-e-max", "0.3333333333333333", "--steps", "8",
             "--xi", "0", "--xi", "0.25", "--xi", "0.75", "--xi", "1"]
ALL_MEASURES = [arg for m in ("std", "v1", "v2", "v4", "v1_inf", "cond_prob") for arg in ("--measure", m)]
ORDERS = [arg for o in ("0.5", "1", "2", "3", "10") for arg in ("--order", o)]
CURVES_VALUE_COLUMNS = (4,)
BOUNDS_VALUE_COLUMNS = tuple(range(1, 10))

CASES = {
    "curves_edges.csv": (["curves"] + EDGE_GRID + ORDERS + ALL_MEASURES, CURVES_VALUE_COLUMNS),
    "curves_v1_inf.csv": (["curves"] + EDGE_GRID + ["--order", "inf", "--measure", "v1"], CURVES_VALUE_COLUMNS),
    "bounds_eta.csv": (["bounds", "--variable", "eta", "--steps", "41"], BOUNDS_VALUE_COLUMNS),
    "bounds_pe.csv": (["bounds", "--variable", "p-e", "--min", "0", "--steps", "34"], BOUNDS_VALUE_COLUMNS),
    "bounds_pe_xi05.csv": (["bounds", "--variable", "p-e", "--min", "0", "--steps", "34", "--xi", "0.5"],
                           BOUNDS_VALUE_COLUMNS),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_golden(name, capsys):
    argv, value_columns = CASES[name]
    assert cli.main(argv) == 0
    got = capsys.readouterr().out.split("\n")
    want = (DATA / name).read_text().split("\n")
    assert got[0] == want[0]
    assert len(got) == len(want)
    for line, (g_row, w_row) in enumerate(zip(got[1:], want[1:]), start=2):
        g_cells, w_cells = g_row.split(","), w_row.split(",")
        assert len(g_cells) == len(w_cells), f"line {line}"
        for col, (g, w) in enumerate(zip(g_cells, w_cells)):
            if col in value_columns and w != "":
                assert abs(float(g) - float(w)) <= ULP_GATE * max(1.0, abs(float(w))), \
                    f"line {line} column {col}: {g} vs golden {w}"
            else:
                assert g == w, f"line {line} column {col}"


def assert_json_close(got, want, path="report"):
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), path
        for key in want:
            assert_json_close(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_json_close(g, w, f"{path}[{i}]")
    else:
        assert type(got) is type(want), path
        assert abs(got - want) <= ULP_GATE * max(1.0, abs(want)), f"{path}: {got} vs golden {want}"


POVM_CASES = json.loads((DATA / "povm.json").read_text())


@pytest.mark.parametrize("case", POVM_CASES, ids=lambda c: f"theta={c['argv'][2]},xi={c['argv'][4]}")
def test_povm_matches_golden(case, capsys):
    assert cli.main(case["argv"]) == 0
    assert_json_close(json.loads(capsys.readouterr().out), case["report"])
