"""Every name the README's library table gives in backticks exists, so the
table cannot go stale unnoticed when code is renamed or deleted."""

import dataclasses
import importlib
import inspect
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def library_rows() -> list[tuple[str, list[str]]]:
    """(module, backticked names of its contents) for each row of the
    "Library layout" table."""
    text = README.read_text(encoding="utf-8")
    table = text.split("## Library layout", 1)[1].split("\n\n", 2)[1]
    rows = []
    for line in table.splitlines():
        if line.startswith("| `medianlab."):
            module, contents = line.strip("|").split("|", 1)
            rows.append((module.strip(" `"), re.findall(r"`([^`]+)`", contents)))
    return rows


def _lookup(obj, dotted: str) -> bool:
    """`dotted` names an attribute chain from obj; a dataclass field counts
    as an attribute of its class."""
    parts = dotted.split(".")
    for i, part in enumerate(parts):
        if hasattr(obj, part):
            obj = getattr(obj, part)
            continue
        last = i == len(parts) - 1
        return last and dataclasses.is_dataclass(obj) and part in {
            f.name for f in dataclasses.fields(obj)
        }
    return True


def resolves(module, name: str) -> bool:
    """`name` is a dotted `medianlab` path, or an attribute of `module` or
    of a class defined in it."""
    if name.startswith("medianlab."):
        parts = name.split(".")
        for cut in range(len(parts), 0, -1):
            try:
                found = importlib.import_module(".".join(parts[:cut]))
            except ModuleNotFoundError:
                continue
            return cut == len(parts) or _lookup(found, ".".join(parts[cut:]))
    classes = [
        c for _, c in inspect.getmembers(module, inspect.isclass)
        if c.__module__ == module.__name__
    ]
    return any(_lookup(owner, name) for owner in [module, *classes])


def test_the_table_has_a_row_per_library_module():
    package = README.parent / "src" / "medianlab"
    # errors.py holds only the exception classes, and the package's
    # __init__.py and __main__.py are entry points, not modules to describe
    expected = {
        f"medianlab.{p.stem}" for p in package.glob("*.py")
        if p.stem not in ("__init__", "__main__", "errors")
    }
    assert {module for module, _ in library_rows()} == expected


def test_resolver_refuses_a_stale_name():
    graph = importlib.import_module("medianlab.graph")
    assert resolves(graph, "Graph.automorphisms") and resolves(graph, "orbit_minima")
    assert resolves(graph, "medianlab.profiles.Profile.counts")
    assert not resolves(graph, "maximum_pairing")
    assert not resolves(graph, "Graph.no_such_method")
    assert not resolves(graph, "medianlab.pairing.maximum_pairing")


@pytest.mark.parametrize(
    "module, names", [pytest.param(*row, id=row[0]) for row in library_rows()]
)
def test_library_table_names_resolve(module, names):
    assert names
    mod = importlib.import_module(module)
    assert [name for name in names if not resolves(mod, name)] == []
