"""Every name a module of the package imports is used in that module.  A
name imported only for re-export is listed in ``__all__``, or its import
line carries ``# noqa: F401``.  And the runtime is standard library only:
every absolute import names spreadsmith or a standard-library module.
Standard library only: the modules are parsed with ast, never imported."""

import ast
import sys
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


def _modules(node) -> list[str]:
    """The top-level modules an absolute import statement names."""
    if isinstance(node, ast.Import):
        return [alias.name.partition(".")[0] for alias in node.names]
    if isinstance(node, ast.ImportFrom) and not node.level:
        return [node.module.partition(".")[0]]
    return []


def _is_import_chain(node) -> bool:
    return isinstance(node, ast.Try) and any(
        isinstance(h.type, ast.Name) and h.type.id in ("ImportError", "ModuleNotFoundError")
        for h in node.handlers)


def _alternatives(chain) -> list[list[str]]:
    """The modules each branch of a try/except ImportError chain imports:
    its try body, then each handler, a chain nested in a handler giving
    its own branches."""
    branches = [chain.body] + [h.body for h in chain.handlers]
    out = []
    for body in branches:
        out.append([m for stmt in body for m in _modules(stmt)])
        for stmt in body:
            if _is_import_chain(stmt):
                out += _alternatives(stmt)
    return out


def _allowed(module: str) -> bool:
    return module == "spreadsmith" or module in sys.stdlib_module_names


def non_stdlib_imports(source: str) -> list[tuple[int, str]]:
    """(line, module) of each absolute import outside spreadsmith and the
    standard library.  A try/except ImportError chain passes when one of its
    branches imports only allowed modules, since the others may name
    modules of other Python versions (_sha2 is 3.12+)."""
    tree = ast.parse(source)
    chained, found = set(), []
    for node in ast.walk(tree):
        if id(node) in chained:
            continue
        if _is_import_chain(node):
            chained.update(map(id, ast.walk(node)))
            alternatives = _alternatives(node)
            if not any(all(map(_allowed, alt)) for alt in alternatives):
                found.append((node.lineno, " | ".join(m for alt in alternatives for m in alt)))
        else:
            found += [(node.lineno, m) for m in _modules(node) if not _allowed(m)]
    return sorted(found)


def test_the_stdlib_check_sees_foreign_modules_and_reads_chains():
    source = ("from __future__ import annotations\n"
              "import os.path, numpy\n"
              "from spreadsmith.goodsets import canonical\n"
              "from . import spreads\n"
              "try:\n"
              "    from _no_such_module import sha256\n"
              "except ImportError:\n"
              "    try:\n"
              "        from sympy import sha256\n"
              "    except ImportError:\n"
              "        from hashlib import sha256\n"
              "try:\n"
              "    import numpy as np\n"
              "except ModuleNotFoundError:\n"
              "    import sympy\n"
              "def f():\n"
              "    import pytest\n")
    assert non_stdlib_imports(source) == [(2, "numpy"), (12, "numpy | sympy"), (17, "pytest")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_runtime_imports_only_the_standard_library(path):
    foreign = non_stdlib_imports(path.read_text())
    assert not foreign, ", ".join(f"{path.name}:{line} {name}" for line, name in foreign)
