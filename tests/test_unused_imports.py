"""Every name a package module imports is used in that module, every
private name a module defines at its top level is read in that module,
the modules below the engine import nothing from it, and the CLI imports
from the union check and from the suites only the names it calls.

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


# the modules the union synthesis loads, and the plain writers, below the
# Groebner engine, the union check and the suites
BELOW_ENGINE = ["permutations.py", "polynomials.py", "ideals.py", "union.py", "payloads.py"]
ENGINE = (["nwgb", "groebner"], ["nwgb", "verify"], ["nwgb", "suites"])


def engine_imports(source: str) -> list[str]:
    """Imports, anywhere in a module of ``nwgb``, of ``nwgb.groebner``,
    ``nwgb.verify`` or ``nwgb.suites`` or of a name from one, however
    spelled."""
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
        "from .suites import SUITES\n"
    )
    assert engine_imports(source) == ["line 2", "line 4", "line 5", "line 6", "line 8"]


@pytest.mark.parametrize("name", BELOW_ENGINE)
def test_modules_below_the_engine_do_not_import_it(name):
    assert engine_imports((SRC / name).read_text(encoding="utf-8")) == []


# the CLI calls the one union check and runs the suites; it does not
# compose a check out of the parts of either module
CLI_FROM_VERIFY = {"union_verdicts"}
CLI_FROM_SUITES = {"SUITES", "run_suite"}
VERIFY = ["nwgb", "verify"]
SUITES = ["nwgb", "suites"]


def imports_beyond(source: str, owner: list[str], allowed: set[str]) -> list[str]:
    """Imports, anywhere in a module of ``nwgb``, of a name from the module
    ``owner`` (``["nwgb", "verify"]``) outside ``allowed``, however
    spelled; an import of the module itself reads as ``*``, since every
    name is reachable through it."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = ["*" for alias in node.names if alias.name.split(".")[:2] == owner]
        elif isinstance(node, ast.ImportFrom):
            module = ["nwgb"] * (node.level > 0) + (node.module.split(".") if node.module else [])
            names = [
                alias.name if module[:2] == owner else "*"
                for alias in node.names
                if module[:2] == owner or module + [alias.name] == owner
            ]
        else:
            continue
        found += [(node.lineno, name) for name in names if name not in allowed]
    return [f"line {line}: {name}" for line, name in sorted(found)]


def test_the_check_sees_a_verify_import_beyond_the_allowed_names():
    source = (
        "from .verify import SUITES, spec_bases\nimport nwgb.verify\n"
        "from . import verify as v\nfrom .ideals import load_spec\n"
        "def f():\n    from nwgb.verify import membership_failures, run_suite\n"
        "from . import ideals, verify\n"
    )
    assert imports_beyond(source, VERIFY, {"SUITES", "run_suite", "union_verdicts"}) == [
        "line 1: spec_bases",
        "line 2: *",
        "line 3: *",
        "line 6: membership_failures",
        "line 7: *",
    ]
    assert imports_beyond(source, VERIFY, CLI_FROM_VERIFY) == [
        "line 1: SUITES",
        "line 1: spec_bases",
        "line 2: *",
        "line 3: *",
        "line 6: membership_failures",
        "line 6: run_suite",
        "line 7: *",
    ]


def test_the_check_sees_a_suites_import_beyond_the_allowed_names():
    source = (
        "from .suites import SUITES, _embed\nimport nwgb.suites\n"
        "def f():\n    from . import suites\n    from .suites import run_suite\n"
        "from .verify import spec_bases\n"
    )
    assert imports_beyond(source, SUITES, CLI_FROM_SUITES) == [
        "line 1: _embed",
        "line 2: *",
        "line 4: *",
    ]


def test_the_cli_imports_from_verify_only_what_it_calls():
    source = (SRC / "cli.py").read_text(encoding="utf-8")
    assert imports_beyond(source, VERIFY, CLI_FROM_VERIFY) == []


def test_the_cli_imports_from_suites_only_what_it_calls():
    source = (SRC / "cli.py").read_text(encoding="utf-8")
    assert imports_beyond(source, SUITES, CLI_FROM_SUITES) == []
