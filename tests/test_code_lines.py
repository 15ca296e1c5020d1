"""The code-line counter in tools/, on a synthetic module."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

SOURCE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment keeps its line

# a comment line


def f(x):
    """Function docstring."""
    return (x
            + 1)


class C:
    """Class docstring."""

    text = """a string that is not a docstring
over two lines"""
'''


def load_tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_code_and_skips_docstrings_comments_and_blanks():
    # import, def, the two lines of the continued return, class, the two lines of the string
    assert load_tool().code_lines(SOURCE) == 7


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE, encoding="utf-8")
    (tmp_path / "b.py").write_text("x = 1\n\n# end\n", encoding="utf-8")
    assert load_tool().main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split("\n") == ["     7  a.py", "     1  b.py", "     8  total", ""]
