"""Reach census: which functions of the fpbprobe package the CLI and the demos run.

Each function defined in src/fpbprobe is printed with where it first runs:
`cli` if one of the subcommand runs in RUNS calls it, else `demo` if one
of the demo scripts does, else `none`.  The runs take place in this
process, under sys.setprofile, after the package is imported, so what
runs only at import (a table built once) reads `none`.  Only code
objects whose file is a package module count: the methods that
dataclasses generate (__init__, __eq__, __hash__, ...) have no such file
and drop out.  Lambdas and comprehensions are not listed.

    python3 tools/reach.py
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import io
import runpy
import sys
import tempfile
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "fpbprobe"

# The subcommand runs, "{tmp}" standing for a fresh temporary directory:
# every subcommand at its defaults and in its other modes, then a config
# file and an output file.
RUNS = (
    ["curves"],
    ["curves", "--measure", "cond_prob", "--order", "inf", "--order", "0.5"],
    ["curves", "--order", "1"],
    ["bounds"],
    ["bounds", "--variable", "p-e"],
    ["simulate"],
    ["simulate", "--rounds", "1", "--seed", "3"],  # no error-free sifted round: the report's other shape
    ["povm", "--theta", "0.3", "--xi", "0.5"],
    ["curves", "--config", "{tmp}/sweep.cfg"],
    ["bounds", "--steps", "3", "--out", "{tmp}/bounds.csv"],
)
CONFIG = "steps=3\nxi=0,1\norder=2,inf\nmeasure=v1\n"


def _functions(path: str) -> dict[tuple[str, int, str], str]:
    """(file, first line, name) of every def in one module, to its qualified name."""
    found = {}

    def walk(code: types.CodeType, prefix: str) -> None:
        for const in code.co_consts:
            if not isinstance(const, types.CodeType) or const.co_name.startswith("<"):
                continue
            qualname = prefix + const.co_name
            if not const.co_flags & inspect.CO_OPTIMIZED:
                walk(const, qualname + ".")  # a class body
                continue
            found[(const.co_filename, const.co_firstlineno, const.co_name)] = qualname
            walk(const, qualname + ".<locals>.")

    walk(compile(Path(path).read_text(encoding="utf-8"), path, "exec"), "")
    return found


def census() -> dict[str, str]:
    """Each package function's qualified name, module first, to `cli`, `demo` or `none`."""
    package = importlib.import_module(PACKAGE)
    names = {}
    for path in sorted(Path(package.__file__).parent.glob("*.py")):
        module = importlib.import_module(f"{PACKAGE}.{path.stem}" if path.stem != "__init__" else PACKAGE)
        for key, qualname in _functions(module.__file__).items():
            names[key] = f"{module.__name__.removeprefix(PACKAGE + '.')}.{qualname}"
    cli = importlib.import_module(f"{PACKAGE}.cli")

    reached: dict[str, set] = {"cli": set(), "demo": set()}
    seen = reached["cli"]

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        Path(tmp, "sweep.cfg").write_text(CONFIG, encoding="utf-8")
        sys.setprofile(profile)
        try:
            for argv in RUNS:
                if cli.main([a.replace("{tmp}", tmp) for a in argv]) != 0:
                    raise RuntimeError(f"{argv} failed")
            seen = reached["demo"]
            for demo in sorted((ROOT / "demos").glob("[0-9][0-9]_*.py")):
                runpy.run_path(str(demo), run_name="__main__")
        finally:
            sys.setprofile(None)

    where = {}
    for label in ("demo", "cli"):  # cli last, so it wins
        for code in reached[label]:
            name = names.get((code.co_filename, code.co_firstlineno, code.co_name))
            if name is not None:
                where[name] = label
    return {name: where.get(name, "none") for name in names.values()}


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    result = census()
    for name, label in result.items():
        print(f"{label:4s}  {name}")
    counts = {label: sum(v == label for v in result.values()) for label in ("cli", "demo", "none")}
    print(", ".join(f"{n} {label}" for label, n in counts.items()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
