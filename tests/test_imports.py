"""Every module-level import in the library and in the test modules is used
by its own module, and every private module-level function, class and
constant of the library is referenced in the library, so what a deletion
leaves behind in the import lines or in the private helpers is caught."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "medianlab"
# __init__.py only re-exports
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TESTS = Path(__file__).resolve().parent
TEST_MODULES = sorted(p.name for p in TESTS.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by a module-level import that the module never reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in read]


def test_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "from math import lcm, gcd\n"
        "print(sys.argv, gcd)\n"
    )
    assert unused_imports(source) == ["os", "lcm"]


def unreferenced_private_names(sources: list[str]) -> list[str]:
    """Names with one leading underscore that a module of `sources` binds at
    module level by def, class or assignment and that no module reads, as a
    name, an attribute or an imported name."""
    bound, read = [], set()
    for source in sources:
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                bound.append(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                bound += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
                read.add(n.id)
            elif isinstance(n, ast.Attribute):
                read.add(n.attr)
            elif isinstance(n, ast.ImportFrom):
                read.update(a.name for a in n.names)
    return [
        name for name in bound
        if name.startswith("_") and not name.startswith("__") and name not in read
    ]


def test_finds_an_unreferenced_private_name():
    sources = [
        "__version__ = '1'\n_CAP = 3\n_SPARE = 4\n"
        "def _helper():\n    return _CAP\n"
        "class _Gone:\n    pass\n",
        "from .a import _helper\nprint(_helper())\n",
    ]
    assert unreferenced_private_names(sources) == ["_SPARE", "_Gone"]


def test_library_private_names_are_referenced():
    sources = [p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))]
    assert unreferenced_private_names(sources) == []


@pytest.mark.parametrize("module", MODULES)
def test_library_imports_are_used(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("module", TEST_MODULES)
def test_test_imports_are_used(module):
    assert unused_imports((TESTS / module).read_text(encoding="utf-8")) == []
