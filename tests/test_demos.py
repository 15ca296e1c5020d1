"""Each demo script and each README Python example runs to completion against the package in src/."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("[0-9][0-9]_*.py"))
README_EXAMPLES = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)


def run_python(*args):
    """Run python on `args` with the package in src/ first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    # -W error: a warning fails a script, as filterwarnings = error fails an in-process test
    return subprocess.run([sys.executable, "-W", "error", *args], env=env, capture_output=True, text=True,
                          timeout=120)


def test_all_five_demos_found():
    assert [d.name[:2] for d in DEMOS] == ["01", "02", "03", "04", "05"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_exits_cleanly(demo):
    proc = run_python(str(demo))
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_readme_has_the_library_and_grid_examples():
    assert [("outcome_probs(cfg)" in b, "outcome_probs_grid(" in b) for b in README_EXAMPLES] == [
        (True, False), (False, True)]


@pytest.mark.parametrize("example", README_EXAMPLES, ids=["library", "grid"][:len(README_EXAMPLES)])
def test_readme_example_runs(example):
    proc = run_python("-c", example)
    assert proc.returncode == 0, proc.stderr[-2000:]
