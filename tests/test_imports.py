"""Every module of the package uses each name it imports.

A stdlib-`ast` check in place of a linter: it collects the names each
import statement binds and the names the module reads anywhere, and reports
the imported names never read.  `__init__.py` re-exports what it imports,
and `from __future__` imports bind nothing, so both are skipped.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "optdeg"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source):
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0]
                            for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_the_check_sees_an_unused_import():
    source = "import os\nfrom math import comb, gcd\nprint(gcd(4, 6))\n"
    assert _unused_imports(source) == ["comb", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []
