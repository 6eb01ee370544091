"""No module of the package imports a name it never uses.

No linter ships with the project, so this is pyflakes' unused-import rule
(F401) in a few lines of ``ast``: a name bound by an import at any level of
a module must be read somewhere in that module.  An import line marked
``# noqa: F401``, as the package's re-exports are, is exempt.  Importing the
package does no work beyond its imports: no cached table is built.
"""

import ast
import os
import subprocess
import sys
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


def test_import_builds_no_table():
    """Importing the package builds none of the cached enumeration tables:
    they are built on first use, so start-up stays the imports alone."""
    script = (
        "import graphonlab\n"
        "from graphonlab import metrics\n"
        "print([f.__name__ for f in (metrics._lex_permutations, metrics._subset_bits) if f.cache_info().currsize])\n"
    )
    src = str(SOURCES[0].parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.splitlines() == ["[]"]
