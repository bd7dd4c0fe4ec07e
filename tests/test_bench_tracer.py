"""The benchmark tracer wraps public names of the package by name, so
every one of its targets must exist."""

import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_targets_resolve_to_package_attributes():
    loader = importlib.util.spec_from_file_location(
        "charstoch_bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(tracer)
    assert tracer.TARGETS
    for module, path, _ in tracer.TARGETS:
        assert module.split(".")[0] == "charstoch", module
        owner = importlib.import_module(module)
        for part in path.split("."):
            assert hasattr(owner, part), f"{module}.{path}"
            owner = getattr(owner, part)
        assert callable(owner), f"{module}.{path}"
