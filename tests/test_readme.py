"""The README's Python example prints what its comment says, and every
call it names is one that the package has."""

import contextlib
import importlib
import inspect
import io
import re
import sys
from pathlib import Path

import nwgb

README = Path(__file__).resolve().parent.parent / "README.md"
MODULES = (
    "cli",
    "groebner",
    "ideals",
    "payloads",
    "permutations",
    "polynomials",
    "suites",
    "union",
    "verify",
)
# a name the README calls on a local value, not on the package
LOCAL_NAMES = {"k"}


def test_readme_python_example_prints_its_comment():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    code = blocks[0]
    comment = re.search(r"#\s*(.+)$", code, re.M).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines() == comment.split(", ")


def package_callables() -> dict[str, list[object]]:
    """Each name of a module-level function or class of ``nwgb``, and of a
    method of such a class, with the objects of that name."""
    found: dict[str, list[object]] = {}
    modules = [nwgb] + [importlib.import_module(f"nwgb.{name}") for name in MODULES]
    for module in modules:
        for name, value in vars(module).items():
            if not callable(value) or not getattr(value, "__module__", "").startswith("nwgb"):
                continue
            found.setdefault(name, []).append(value)
            if inspect.isclass(value):
                for attr, member in vars(value).items():
                    if isinstance(member, (staticmethod, classmethod)) or inspect.isfunction(
                        member
                    ):
                        found.setdefault(attr, []).append(member)
    return found


def resolves(call: str, found: dict[str, list[object]]) -> bool:
    """Whether a call as the README writes it, ``name`` or
    ``Owner.name``, names a function or method of the package."""
    owner, _, name = call.rpartition(".")
    if not owner:
        return name in found
    return any(
        inspect.isclass(value) and name in vars(value) for value in found.get(owner, [])
    )


def test_every_call_the_readme_names_is_in_the_package():
    calls = set(re.findall(r"`([A-Za-z_][\w.]*)\(", README.read_text(encoding="utf-8")))
    # a call qualified by a module of the standard library or a local name
    # is not the package's
    skipped = sys.stdlib_module_names | LOCAL_NAMES
    ours = {call for call in calls if call.rpartition(".")[0] not in skipped}
    assert len(ours) >= 20  # the pattern still finds the README's calls
    found = package_callables()
    assert sorted(call for call in ours if not resolves(call, found)) == []
