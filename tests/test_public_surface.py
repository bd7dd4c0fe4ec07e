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


# the package's names, one line per module in import order
PACKAGE_NAMES = [
    "__version__",
    "CharstochError", "ConfigError", "SchemaError", "ValidationError",
    "ExprError", "IllegalCharacter", "ExprSyntaxError", "UnknownVariable",
    "UnknownFunction", "ArityMismatch", "NumericalError", "EvalDomainError",
    "DegenerateKernel", "EmptyKernelSupport", "NoConvergence", "OutOfBracket",
    "NearBlowup", "SingularJacobian", "ZeroMass",
    "parse", "eval_expr", "expr_to_str", "variables", "diff", "numeric_partial",
    "ProblemSpec", "VelocityField", "InitialData", "Tolerances", "load_problem",
    "flow_displacement", "displacement_components", "du_displacement_components",
    "FieldGrid", "eval_rho_sigma", "eval_u_sigma", "eval_a_sigma",
    "eval_field_grid", "integrate_rho0", "integrate_rho_sigma",
    "BlowupReport", "blow_up_time", "solve_implicit", "gradient_exact",
    "invert_char_map", "eval_rho_bar", "eval_a_bar",
    "ParticleEnsemble", "FieldEstimate", "sample_initial", "evolve_exact",
    "estimate_fields", "default_bandwidth", "dump_ensemble",
    "ResidualReport", "ItermRow", "eval_I_u_sigma", "eval_I_a_sigma",
    "residual_sigma_system", "residual_pressureless", "attach_ratios",
    "i_term_persistence",
]


def test_package_surface_is_the_module_lists():
    """The package exports its 63 names, and its ``__all__`` is
    ``__version__`` and then each re-exported module's ``__all__``, in
    import order, so a module's list is the one place a name is added."""
    modules = ["errors", "expr", "problem", "representation", "characteristics",
               "montecarlo", "balance"]
    joined = ["__version__"] + [
        name for m in modules for name in importlib.import_module(f"charstoch.{m}").__all__]
    assert charstoch.__all__ == joined
    assert charstoch.__all__ == PACKAGE_NAMES and len(PACKAGE_NAMES) == 63


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
