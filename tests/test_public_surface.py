"""The public surface: every name the package and its modules export
resolves, so a deletion that leaves a stale export fails here."""

import ast
import importlib
import pkgutil
from pathlib import Path

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


def test_no_global_statement_outside_the_moments_memo():
    """Module state is written by ``representation._moments`` alone: it
    owns the one-entry memo of kernel moments, and no other function of
    the package declares a ``global``."""
    package = Path(charstoch.__file__).parent
    owners = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owners += [(path.stem, fn.name) for node in ast.walk(fn)
                           if isinstance(node, ast.Global)]
        total = sum(isinstance(node, ast.Global) for node in ast.walk(tree))
        assert total == sum(m == path.stem for m, _ in owners), path.name
    assert owners == [("representation", "_moments")]
