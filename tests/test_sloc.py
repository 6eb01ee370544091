"""The line counter ``tools/sloc.py`` on a source whose counts are known."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "sloc.py"
_spec = importlib.util.spec_from_file_location("sloc", TOOL)
sloc = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(sloc)

SOURCE = '''"""Module docstring
over two lines."""

import os  # a trailing comment

# a comment line


class A:
    """Class docstring."""

    x = 1

    def f(self):
        """Function docstring
        over two lines."""
        s = """an assigned string,
        not a docstring"""
        return os.sep + s
'''
# code lines: import, class, x = 1, def, the two lines of the assigned string, return
CODE, RAW = 7, 19


def test_count_separates_code_from_blanks_comments_and_docstrings():
    assert sloc.count(SOURCE) == (CODE, RAW)


def test_main_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SOURCE, encoding="utf-8")
    (tmp_path / "b.py").write_text("x = 1\n\n", encoding="utf-8")
    assert sloc.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [
        ["1", "2", str(tmp_path / "b.py")],
        [str(CODE), str(RAW), str(tmp_path / "pkg" / "a.py")],
        [str(CODE + 1), str(RAW + 2), "total"],
    ]
