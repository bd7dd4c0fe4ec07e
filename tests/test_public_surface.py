"""The public surface: every name the package and its modules export
resolves, so a deletion that leaves a stale export fails here."""

import importlib
import pkgutil

import pytest

import charstoch

# __main__ runs the CLI when imported
MODULES = ["charstoch"] + [f"charstoch.{m.name}"
                           for m in pkgutil.iter_modules(charstoch.__path__)
                           if m.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from charstoch import *", namespace)
    assert set(charstoch.__all__) <= set(namespace)
