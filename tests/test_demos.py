"""Each demo script and each README Python example runs to completion against the package in src/,
no name in README's "Removed names" table has come back, and none is offered as another's replacement."""

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("[0-9][0-9]_*.py"))
README = (ROOT / "README.md").read_text()
README_EXAMPLES = re.findall(r"```python\n(.*?)```", README, re.S)
# Each row of the "Removed names" table: (removed, use instead).
REMOVED_ROWS = re.findall(r"^\| ([^|]*) \| ([^|]*) \|$", README.split("\n## Removed names\n", 1)[1].split("\n## ", 1)[0], re.M)
REMOVED = [name for cell, _ in REMOVED_ROWS for name in re.findall(r"`([\w.]+)`", cell)]
PUBLIC_MODULES = ("cli", "discrimination", "entropy", "linalg", "probe", "simulator", "uncertainty")


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


def test_removed_names_table_parses():
    assert {"ProbeConfig", "simulator.conditional_probe_state", "conditional_std",
            "JointDistribution.transposed"} <= set(REMOVED)


def test_replacements_name_no_removed_name():
    """No name in a row's "use instead" cell, or the last part of a dotted one, is itself removed."""
    used = {part for _, cell in REMOVED_ROWS for span in re.findall(r"`([^`]*)`", cell)
            for name in re.findall(r"[A-Za-z_][\w.]*", span) for part in (name, name.rsplit(".", 1)[-1])}
    assert "mutual_information" in used
    assert sorted(used & set(REMOVED)) == []


@pytest.mark.parametrize("name", REMOVED)
def test_removed_name_stays_gone(name):
    """The name resolves neither in fpbprobe nor, if undotted, in any public module.

    A dotted name resolves its prefix first, which must still exist.
    """
    import fpbprobe

    *prefix, last = name.split(".")
    owner = fpbprobe
    for part in prefix:
        owner = getattr(owner, part)
    owners = [owner] if prefix else [fpbprobe, *(importlib.import_module(f"fpbprobe.{m}") for m in PUBLIC_MODULES)]
    for owner in owners:
        assert not hasattr(owner, last), f"{name} resolves in {getattr(owner, '__name__', owner)}"
