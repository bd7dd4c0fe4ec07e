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


def assert_traced_calls_rise(tmp_path, runs):
    """Run each (argv, counters) of ``runs`` on burgers_sin through
    ``cli.main`` under the tracer; each run must raise every one of its
    counters."""
    for info in pkgutil.iter_modules(charstoch.__path__, "charstoch."):
        if info.name != "charstoch.__main__":  # that one runs the CLI
            importlib.import_module(info.name)
    from charstoch import cli

    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        for i, (args, counters) in enumerate(runs):
            before = tracer.metrics()
            assert cli.main([args[0], "--config", str(BURGERS),
                             "--out", str(tmp_path / str(i)), *args[1:]]) == 0
            after = tracer.metrics()
            for counter in counters:
                assert after[counter] >= before[counter] + 1, (args, counter)
    finally:
        tracer.uninstall()


def test_traced_classical_fields_reach_solve_implicit(tmp_path):
    """Every classical field is solved through the public solve_implicit,
    which a workload's traced ``uses`` may name: a batch path that routed
    around it would read 0 there."""
    counters = ("characteristics.solve_implicit.calls",)
    assert_traced_calls_rise(tmp_path, (
        (("solve", "--method", "characteristics"), counters),
        (("residuals", "--system", "pressureless", "--window", "0.2", "0.4",
          "--resolutions", "0.08:0.032"), counters)))


def test_traced_smoothed_fields_reach_the_public_evaluators(tmp_path):
    """The smoothed fields and I terms take point sets, but the field
    grid and the I-term paths still call the public evaluators, which
    workloads' traced ``uses`` name: a batch path that routed around
    them would read 0 there.  I_u and I_a share their kernel passes, and
    each is still asked for by its own public name."""
    i_terms = ("balance.eval_I_u_sigma.calls", "balance.eval_I_a_sigma.calls")
    assert_traced_calls_rise(tmp_path, (
        (("solve", "--method", "quadrature"), ("representation.point_eval.calls",)),
        (("iterms", "--sigmas", "0.2,0.1", "--t", "0.5"), i_terms),
        (("residuals", "--system", "sigma", "--window", "0.3", "0.5",
          "--resolutions", "0.08:0.032"), i_terms)))
