"""The benchmark's tracer patches medianlab functions by name; a renamed
function or class would break it, so Tier-1 installs and removes it once."""

import argparse
import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def package_namespaces():
    """Every loaded medianlab module and class namespace, copied."""
    spaces = {}
    for name, mod in list(sys.modules.items()):
        if name == "medianlab" or name.startswith("medianlab."):
            spaces[name] = dict(vars(mod))
            for key, value in vars(mod).items():
                if isinstance(value, type) and value.__module__ == name:
                    spaces[f"{name}.{key}"] = dict(vars(value))
    return spaces


def test_tracer_hooks_install_and_uninstall(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    run = importlib.import_module("run")
    tracer = importlib.import_module("tracer")
    # the modules as already imported: nothing is dropped from sys.modules
    ns = argparse.Namespace(
        **{name: importlib.import_module(f"medianlab.{name}") for name in run.MODULES}
    )
    before = package_namespaces()
    t = tracer.Tracer()
    t.install(ns)
    try:
        assert len(t._patched) >= len(tracer.SPANS) + len(tracer.GENERATORS)
        assert package_namespaces() != before
    finally:
        t.uninstall()
    after = package_namespaces()
    assert after.keys() == before.keys()
    for space, attrs in before.items():
        assert after[space].keys() == attrs.keys(), space
        for key, value in attrs.items():
            assert after[space][key] is value, (space, key)
