"""No module of the package imports a name it never uses.

No linter ships with the project, so this is pyflakes' unused-import rule
(F401) in a few lines of ``ast``: a name bound by an import at any level of
a module must be read somewhere in that module.  An import line marked
``# noqa: F401``, as the package's re-exports are, is exempt.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "graphonlab").rglob("*.py"))


def unused_imports(text: str) -> list[str]:
    """``"line: name"`` for each imported name that ``text`` never reads."""
    tree = ast.parse(text)
    lines = text.splitlines()
    imported = {}  # bound name -> line of its import
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                if not any("noqa: F401" in lines[i - 1] for i in (node.lineno, alias.lineno)):
                    imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # a name in a string annotation, such as -> "SampledGraph", is read too
    read |= {node.value for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier()}
    return [f"{line}: {name}" for name, line in sorted(imported.items(), key=lambda item: item[1])
            if name not in read]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_finds_an_unused_import():
    text = "import os\nimport sys  # noqa: F401\nfrom math import pi, tau\nfrom a import (  # noqa: F401\n    b,\n)\n"
    assert unused_imports(text + "print(tau)\n") == ["1: os", "3: pi"]
    assert unused_imports(text + "def f() -> 'os':\n    return pi + tau\n") == []
