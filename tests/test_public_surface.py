"""The public surface: every name the package and its modules export
resolves, so a deletion that leaves a stale export fails here."""

import ast
import importlib
import io
import pkgutil
import tokenize
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
    "parse", "eval_expr", "diff", "numeric_partial",
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
    """The package exports its 61 names, and its ``__all__`` is
    ``__version__`` and then each re-exported module's ``__all__``, in
    import order, so a module's list is the one place a name is added."""
    modules = ["errors", "expr", "problem", "representation", "characteristics",
               "montecarlo", "balance"]
    joined = ["__version__"] + [
        name for m in modules for name in importlib.import_module(f"charstoch.{m}").__all__]
    assert charstoch.__all__ == joined
    assert charstoch.__all__ == PACKAGE_NAMES and len(PACKAGE_NAMES) == 61


def test_no_global_statement_anywhere_in_the_package():
    """No module of the package declares a ``global``: the kernel
    moments are kept in the table slot's one entry, beside their
    table, so no function rebinds module state."""
    package = Path(charstoch.__file__).parent
    found = [(path.name, node.lineno) for path in sorted(package.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Global)]
    assert found == []


def test_only_the_csv_writer_opens_a_csv_file():
    """Every CSV artifact is written by ``problem._write_csv``: it
    is the one ``open(..., "w")`` of the package beside the writers of
    the two JSON files, ``blowup.json`` and ``manifest.json``, and no
    other file-writing call (``write_text``, ``savetxt``, ``csv.writer``
    and the like) appears."""
    package = Path(charstoch.__file__).parent
    opened, other = [], []

    def visit(node, scope, stem):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if isinstance(child, ast.Call):
                fn = child.func
                name = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)
                if name == "open":
                    mode = child.args[1] if len(child.args) > 1 else next(
                        (k.value for k in child.keywords if k.arg == "mode"), None)
                    opened.append((stem, inner, getattr(mode, "value", "r")))
                elif name in ("write_text", "write_bytes", "savetxt", "tofile", "writer"):
                    other.append((stem, inner, name))
            visit(child, inner, stem)

    for path in sorted(package.glob("*.py")):
        visit(ast.parse(path.read_text()), "", path.stem)
    assert sorted(opened) == [("cli", "_Outputs.write_manifest", "w"),
                              ("cli", "cmd_blowup", "w"),
                              ("problem", "_write_csv", "w")]
    assert other == []


def code_lines(source: str) -> int:
    """The lines of ``source`` that hold a token other than a comment,
    NL, NEWLINE, INDENT, DEDENT or ENDMARKER, less the lines of module,
    class and function docstrings."""
    docs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                docs.update(range(first.lineno, first.end_lineno + 1))
    layout = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
              tokenize.DEDENT, tokenize.ENDMARKER}
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in layout:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def test_src_code_lines_stay_within_the_budget():
    """The package's modules hold at most 2,100 code lines, so new work
    makes room for itself first."""
    package = Path(charstoch.__file__).parent
    total = sum(code_lines(path.read_text()) for path in package.glob("*.py"))
    assert total <= 2100, f"{total} code lines"
