"""Per-layer tracing of charstoch from outside the package.

``Tracer.install`` replaces each listed public function, and the listed
methods, with a timing wrapper.  A function is rebound in every charstoch
namespace that holds it (``from .x import y`` copies and the package
re-exports included), so a call is counted whichever module makes it.
Each call records a span (name, start, end, parent) in memory; a layer's
self time is its spans' durations minus the time of wrapped calls made
inside them.  ``uninstall`` restores the original bindings.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

# (module, attribute path, layer metric prefix).  Several functions may
# share one prefix; their calls and self time add up.
TARGETS = (
    ("charstoch.representation", "eval_rho_sigma", "representation.point_eval"),
    ("charstoch.representation", "eval_u_sigma", "representation.point_eval"),
    ("charstoch.representation", "eval_a_sigma", "representation.point_eval"),
    ("charstoch.representation", "eval_field_grid", "representation.eval_field_grid"),
    ("charstoch.representation", "quadrature_grid", "representation.quadrature_grid"),
    ("charstoch.representation", "FieldGrid.to_csv", "representation.FieldGrid.to_csv"),
    ("charstoch.montecarlo", "sample_initial", "montecarlo.sample_initial"),
    ("charstoch.montecarlo", "evolve_exact", "montecarlo.evolve_exact"),
    ("charstoch.montecarlo", "estimate_fields", "montecarlo.estimate_fields"),
    ("charstoch.characteristics", "solve_implicit", "characteristics.solve_implicit"),
    ("charstoch.characteristics", "invert_char_map", "characteristics.invert_char_map"),
    ("charstoch.characteristics", "eval_rho_bar", "characteristics.eval_rho_bar"),
    ("charstoch.characteristics", "eval_a_bar", "characteristics.eval_a_bar"),
    ("charstoch.characteristics", "blow_up_time", "characteristics.blow_up_time"),
    ("charstoch.balance", "residual_sigma_system", "balance.residual_sigma_system"),
    ("charstoch.balance", "residual_pressureless", "balance.residual_pressureless"),
    ("charstoch.balance", "eval_I_u_sigma", "balance.eval_I_u_sigma"),
    ("charstoch.balance", "eval_I_a_sigma", "balance.eval_I_a_sigma"),
    ("charstoch.balance", "i_term_persistence", "balance.i_term_persistence"),
    ("charstoch.problem", "load_problem", "problem.load_problem"),
    ("charstoch.problem", "displacement_components", "problem.displacement_components"),
    ("charstoch.problem", "du_displacement_components",
     "problem.du_displacement_components"),
    ("charstoch.problem", "flow_displacement", "problem.flow_displacement"),
    ("charstoch.problem", "InitialData.u0_at", "problem.InitialData.u0_at"),
    ("charstoch.problem", "InitialData.grad_u0_at", "problem.InitialData.grad_u0_at"),
    ("charstoch.expr", "eval_expr", "expr.eval_expr"),
    ("charstoch.expr", "numeric_partial", "expr.numeric_partial"),
    ("charstoch.quadrature", "panel_rule", "quadrature.panel_rule"),
    ("charstoch.cli", "main", "cli"),
)


def _count_nodes(tracer, args, kwargs, grid):
    tracer.counts["representation.quadrature_grid.nodes"] += int(
        np.prod([len(ax) for ax in grid.axis_nodes]))


def _count_invalid_grid(tracer, args, kwargs, grid):
    tracer.counts["representation.invalid_points"] += int(np.sum(~grid.valid))


def _count_particles(tracer, args, kwargs, ens):
    tracer.counts["montecarlo.particles"] += len(ens)


def _count_targets(tracer, args, kwargs, est):
    tracer.counts["montecarlo.estimate_fields.targets"] += len(est.valid)
    tracer.counts["montecarlo.estimate_fields.invalid"] += int(np.sum(~est.valid))


# work counters read off a wrapped call's result
COUNTS = ("representation.quadrature_grid.nodes", "representation.invalid_points",
          "montecarlo.particles", "montecarlo.estimate_fields.targets",
          "montecarlo.estimate_fields.invalid")
COUNTERS = {
    "representation.quadrature_grid": _count_nodes,
    "representation.eval_field_grid": _count_invalid_grid,
    "montecarlo.sample_initial": _count_particles,
    "montecarlo.estimate_fields": _count_targets,
}


class Tracer:
    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = dict.fromkeys(COUNTS, 0)
        # spans as parallel columns: name index, start, end, parent span
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self._stack: list = []    # [span index, time of wrapped children]
        self._undo: list = []     # (namespace, attribute, original)

    def wrap(self, name: str, fn):
        stack, calls, self_s = self._stack, self.calls, self.self_s
        names, starts, ends, parents = (self.span_name, self.span_start,
                                        self.span_end, self.span_parent)
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(names)
            names.append(name_id)
            parents.append(stack[-1][0] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            frame = [span, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                starts[span], ends[span] = start, end
                calls[name] += 1
                self_s[name] += (end - start) - frame[1]
                if stack:
                    stack[-1][1] += end - start
            if counter is not None:
                counter(self, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target in every charstoch namespace that binds it."""
        namespaces = [m for n, m in sys.modules.items()
                      if m is not None and (n == "charstoch" or n.startswith("charstoch."))]
        for module_name, path, name in TARGETS:
            owner = sys.modules[module_name]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            traced = self.wrap(name, original)
            if cls_path:
                self._rebind(owner, attr, traced)
                continue
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._rebind(ns, key, traced)

    def _rebind(self, ns, key: str, value) -> None:
        self._undo.append((ns, key, getattr(ns, key)))
        setattr(ns, key, value)

    def uninstall(self) -> None:
        while self._undo:
            ns, key, original = self._undo.pop()
            setattr(ns, key, original)

    def metrics(self) -> dict[str, float]:
        """Calls and self time of every traced name, plus work counters."""
        out: dict[str, float] = {}
        for name in {n for _, _, n in TARGETS}:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        out.update(self.counts)
        return out

    def write_spans(self, path) -> None:
        """Spans as a NumPy archive of parallel arrays: ``name`` (index into
        ``names``), ``start`` and ``end`` (perf_counter seconds) and
        ``parent`` (span index, -1 at the root)."""
        np.savez_compressed(
            path, names=np.array(self.names), name=np.asarray(self.span_name),
            start=np.asarray(self.span_start), end=np.asarray(self.span_end),
            parent=np.asarray(self.span_parent))
