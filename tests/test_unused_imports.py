"""Every name a package module imports is used in that module, every
private name a module defines at its top level is read in that module,
and the modules below the engine import nothing from it.

No linter ships with the project, so this stands in for unused-import and
unused-helper checks.  ``__init__.py`` is skipped by the first: its
imports are the package's re-exports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "nwgb"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
PACKAGE = sorted(SRC.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # ``import a.b`` binds ``a``
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_the_check_sees_an_unused_import():
    assert unused_imports("import os\nfrom typing import Sequence\nos.sep\n") == [
        "line 2: Sequence"
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unread_private_names(source: str) -> list[str]:
    """Top-level ``_name`` definitions (functions, classes, assignments,
    import aliases) that nothing in the module reads; dunders are left out."""
    tree = ast.parse(source)
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.asname or alias.name for alias in node.names]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                defined.setdefault(name, node.lineno)
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [f"line {line}: {name}" for name, line in defined.items() if name not in read]


def test_the_check_sees_an_unread_private_name():
    source = (
        "import os as _os\n_LIMIT = 3\n_spare: int = 0\n"
        "def _used():\n    global _spare\n    _spare = _LIMIT\n"
        "def _helper():\n    pass\nclass _Kind:\n    pass\n_used()\n"
    )
    assert unread_private_names(source) == [
        "line 1: _os",
        "line 3: _spare",
        "line 7: _helper",
        "line 9: _Kind",
    ]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_unread_private_names(path):
    assert unread_private_names(path.read_text(encoding="utf-8")) == []


# the modules the union synthesis loads, below the Groebner engine and the suites
BELOW_ENGINE = ["permutations.py", "polynomials.py", "ideals.py", "union.py"]
ENGINE = (["nwgb", "groebner"], ["nwgb", "verify"])


def engine_imports(source: str) -> list[str]:
    """Imports, anywhere in a module of ``nwgb``, of ``nwgb.groebner`` or
    ``nwgb.verify`` or of a name from either, however spelled."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            paths = [alias.name.split(".") for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            # a relative import is from within the package
            module = ["nwgb"] * (node.level > 0) + (node.module.split(".") if node.module else [])
            paths = [module] + [module + [alias.name] for alias in node.names]
        else:
            continue
        if any(path[:2] in ENGINE for path in paths):
            found.append(node.lineno)
    return [f"line {line}" for line in sorted(found)]


def test_the_check_sees_an_engine_import():
    source = (
        "from .polynomials import Cell\nfrom .groebner import _FIELD_BITS\n"
        "def f():\n    from . import verify\nimport nwgb.groebner\n"
        "from nwgb import groebner as g\nfrom nwgb.ideals import load_spec\n"
    )
    assert engine_imports(source) == ["line 2", "line 4", "line 5", "line 6"]


@pytest.mark.parametrize("name", BELOW_ENGINE)
def test_modules_below_the_engine_do_not_import_it(name):
    assert engine_imports((SRC / name).read_text(encoding="utf-8")) == []
