"""The benchmark tracer wraps public names of the package by name, so
every one of its targets must exist."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import charstoch

ROOT = Path(__file__).resolve().parent.parent
BURGERS = ROOT / "configs" / "burgers_sin.json"


def load_tracer():
    loader = importlib.util.spec_from_file_location(
        "charstoch_bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(tracer)
    return tracer


def test_tracer_targets_resolve_to_package_attributes():
    tracer = load_tracer()
    assert tracer.TARGETS
    for module, path, _ in tracer.TARGETS:
        assert module.split(".")[0] == "charstoch", module
        owner = importlib.import_module(module)
        for part in path.split("."):
            assert hasattr(owner, part), f"{module}.{path}"
            owner = getattr(owner, part)
        assert callable(owner), f"{module}.{path}"


def test_traced_classical_fields_reach_solve_implicit(tmp_path):
    """Every classical field is solved through the public solve_implicit,
    which a workload's traced ``uses`` may name: a batch path that routed
    around it would read 0 there."""
    for info in pkgutil.iter_modules(charstoch.__path__, "charstoch."):
        if info.name != "charstoch.__main__":  # that one runs the CLI
            importlib.import_module(info.name)
    from charstoch import cli

    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        for i, args in enumerate((
                ("solve", "--method", "characteristics"),
                ("residuals", "--system", "pressureless", "--window", "0.2",
                 "0.4", "--resolutions", "0.08:0.032"))):
            before = tracer.metrics()["characteristics.solve_implicit.calls"]
            assert cli.main([args[0], "--config", str(BURGERS),
                             "--out", str(tmp_path / str(i)), *args[1:]]) == 0
            assert tracer.metrics()["characteristics.solve_implicit.calls"] >= before + 1
    finally:
        tracer.uninstall()
