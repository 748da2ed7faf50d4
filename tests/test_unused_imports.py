"""Every name a module of the package imports is used in that module.  A
name imported only for re-export is listed in ``__all__``, or its import
line carries ``# noqa: F401``.  Standard library only: the modules are
parsed with ast, never imported."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "spreadsmith"


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each imported name the source never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and isinstance(node.value, (ast.List, ast.Tuple)) \
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(e.value for e in node.value.elts if isinstance(e, ast.Constant))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported[alias.asname or alias.name.partition(".")[0]] = alias.lineno
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_check_sees_unused_names_and_honours_noqa():
    source = ("from __future__ import annotations\n"
              "import os, sys\n"
              "import importlib.util\n"
              "from json import (\n"
              "    dumps,\n"
              "    loads,  # noqa: F401\n"
              ")\n"
              "from math import pi as tau\n"
              "__all__ = ['dumps']\n"
              "def f():\n"
              "    import itertools\n"
              "    return sys.argv, importlib.util\n")
    assert unused_imports(source) == [(2, "os"), (8, "tau"), (11, "itertools")]


def test_a_computed_all_names_nothing():
    # an __all__ that is not a literal list or tuple re-exports no import
    assert unused_imports("import os\n__all__ = list(_HOME)\n") == [(1, "os")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    unused = unused_imports(path.read_text())
    assert not unused, ", ".join(f"{path.name}:{line} {name}" for line, name in unused)
