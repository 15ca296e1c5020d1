"""`curves`, `bounds` and `povm` output against golden files in tests/data.

The golden files were written by the per-grid-point implementation that
preceded the array-native one.  The header, the row order and every
non-value column must match byte for byte.  Each value must lie within
16 * 2**-52 * max(1, |golden|) of the golden value: numpy's log2, power
and arctan2 differ from libm in the last bit on some inputs, and
differences of entropies make a relative bound meaningless near 0.

cli_digests.json holds the length and SHA-256 of stdout for 16 `curves`
and `bounds` argvs (defaults, the cases above, edge grids), written by
the per-value `f"{v:.17g}"` writer that preceded the array kernel.
Those outputs must match byte for byte.  The nine `bounds` digests are
still that writer's.  The seven `curves` digests were recaptured when
`curves` moved from the 2x3 table path to the closed forms of `entropy`:
last bits of std, v1, v2, v4 and v1_inf moved, by at most 1.9e-15 at
orders away from 1 and by up to 1.1e-8 at order 1.0000001, where the
table path was that far off.  Before the recapture every moved cell was
checked against the 50-digit oracle of tests/oracle.py on the same
triple: each lies within 16 * 2**-52 * max(1, |truth|) of it, and on
the default grid within 1e-12 relative.  Seven digests (bounds01,
bounds03, bounds12, bounds14, curves06, curves08, curves10) were
recaptured once more when zero values of closed_form_i2 and
majorization_bound_direct_sum stopped printing as -0: 29 cells read 0
instead, and no other byte moved.

simulate_digests.json holds the length and SHA-256 of `simulate` stdout
for six argvs (2**22 + 4321 rounds, the four corners P_E in {0, 1/3} x
xi in {0, 1}, and seed 2**64 - 1), written by the kernel that drew float
uniforms, before the one that reads raw Philox words.  Tallies and the
report must match byte for byte.

povm.json holds one `povm` JSON report per (theta, xi) pair, written by
the implementation that built each element from complex kets.  Keys and
nesting must match exactly; every number must lie within the same bound.
"""

import hashlib
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


DIGEST_CASES = json.loads((DATA / "cli_digests.json").read_text())


@pytest.mark.parametrize("case", DIGEST_CASES, ids=[f"{c['argv'][0]}{i:02d}" for i, c in enumerate(DIGEST_CASES)])
def test_output_bytes_match_digest(case, capsys):
    """stdout byte for byte: the value gate above passes any formatting
    that parses back to a nearby float, this one passes no change at all.
    No cell reads -0: a zero measure or bound has no sign."""
    assert cli.main(case["argv"]) == 0
    text = capsys.readouterr().out
    assert "-0" not in (cell for line in text.splitlines() for cell in line.split(","))
    out = text.encode()
    assert (len(out), hashlib.sha256(out).hexdigest()) == (case["bytes"], case["sha256"])


# The benchmark's curves_grid size: 334 P_E steps, five xi, orders 2, 3
# and 10, all six measures, 20 040 values.
CURVES_GRID = (["curves", "--xi", "0", "--xi", "0.25", "--xi", "0.5", "--xi", "0.75", "--xi", "1",
                "--order", "2", "--order", "3", "--order", "10"] + ALL_MEASURES)


@pytest.mark.parametrize("argv", [c["argv"] for c in DIGEST_CASES] + [CURVES_GRID],
                         ids=[f"{c['argv'][0]}{i:02d}" for i, c in enumerate(DIGEST_CASES)] + ["curves_grid"])
def test_printed_values_stay_below_ten(argv, capsys):
    """The array path of fpbprobe._g17 prints magnitudes in [1e-6, 10);
    larger ones go through Python's '%' one at a time.  That path is sized
    to this traffic, so no printed measure or bound may reach 10."""
    assert cli.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    first = 4 if argv[0] == "curves" else 1  # the value cells follow the key columns
    values = [float(cell) for line in lines[1:] for cell in line.split(",")[first:] if cell]
    assert values and not [v for v in values if 10.0 <= abs(v) < 1e17]


SIMULATE_CASES = json.loads((DATA / "simulate_digests.json").read_text())


@pytest.mark.parametrize("case", SIMULATE_CASES, ids=[f"simulate{i:02d}" for i in range(len(SIMULATE_CASES))])
def test_simulate_bytes_match_digest(case, capsys):
    assert cli.main(case["argv"]) == 0
    out = capsys.readouterr().out.encode()
    assert (len(out), hashlib.sha256(out).hexdigest()) == (case["bytes"], case["sha256"])
