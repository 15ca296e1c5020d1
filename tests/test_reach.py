"""The reach census in tools/: every package function runs in a subcommand or a demo.

A function that neither runs is dead code or test-only code, unless it
is on ALLOWED with the reason it stays.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "reach.py"

ALLOWED = {
    "discrimination.OutcomeProbs.__post_init__":
        "checks an outcome triple a caller builds; the package builds its own through _checks.trusted; "
        "tests/test_checks.py and tests/test_discrimination.py cover it",
    "simulator.SessionTally.__post_init__":
        "checks a tally a caller builds; run_session builds its own through _checks.trusted; "
        "tests/test_simulator.py and tests/test_checks.py cover it",
    "uncertainty.MajorizationData.__post_init__":
        "checks the vectors of a hand-built MajorizationData; majorization_data builds its own through "
        "_checks.trusted; tests/test_uncertainty.py and tests/test_checks.py cover it",
    "_g17._table": "builds the power-of-ten table once, when the module is imported, before the census starts",
}


def census():
    """{qualified name: 'cli', 'demo' or 'none'} from one run of the tool, in a fresh process.

    A fresh process, so that no cached function (the parser, the class
    masks) was called before the census starts.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(TOOL)], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    *rows, summary = proc.stdout.splitlines()
    reach = {name: label for label, name in (row.split() for row in rows)}
    assert summary == ", ".join(f"{sum(v == k for v in reach.values())} {k}" for k in ("cli", "demo", "none"))
    return reach


def test_every_function_runs_in_a_subcommand_or_a_demo():
    reach = census()
    assert len(ALLOWED) <= 4 and all(ALLOWED.values())
    assert sorted(set(ALLOWED) - set(reach)) == [], "an allowed name no longer exists"
    assert sorted(name for name, label in reach.items() if label == "none" and name not in ALLOWED) == []
    # The census tells the two apart: the entry point is a subcommand's, the
    # probe's public angle a demo's, and a method of a class counts by its own name.
    assert reach["cli.main"] == "cli" and reach["cli._load_config_file"] == "cli"
    assert reach["probe.theta_grid"] == "demo" and reach["entropy.renyi_entropy"] == "demo"
    assert reach["entropy.Order.parse"] == "cli"
    assert not any(name.endswith(("__eq__", "__hash__", "__init__", "__repr__")) for name in reach)
