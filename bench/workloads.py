"""Benchmark workloads: CLI call sequences on the shipped configs and the
checks their outputs must pass.

Each workload is a fixed sequence of ``charstoch`` subcommands.  Every
step is one operation: it fails when the subcommand exits nonzero or its
output check raises.  A check that cannot run (missing file, unparsable
cell) raises too, so it counts as failed and is never skipped.  Checks
use the acceptance suite's pinned bounds; the test each one mirrors is
named in its docstring.

The ``uses`` and ``bypasses`` sets list traced call counters that must be
nonzero and zero on the workload; the traced run checks them, so a
wrapper that stops reaching a layer, or a workload that stops exercising
one, shows up as a failed self-test.

Known gaps.  These paths are not workloads because today they fail or do
not fit a run; each should become one once it is fixed:

- 2D ``integrate_rho_sigma`` (mass of the smoothed density) does not
  finish: one pointwise evaluation per outer node, about 10 min or more.
- ``solve --t`` at a time that is not one of the config's time points
  exits 2 ("t=0.3 is not one of the problem's time points").
- 2D ``gaussian_bump_2d`` at sigma = 0.05 binds the quadrature panel cap
  and takes too long per pass for the run budget.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np


class CheckFailed(Exception):
    """An output violates one of the workload's pinned bounds."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Step:
    name: str                    # output subdirectory, unique per workload
    config: str                  # stem of a file under configs/
    argv: tuple[str, ...]        # subcommand and options; "{seed}" is filled
    check: Callable              # check(outs, specs) raises on a bad output
    seeded: bool = False         # outputs depend on --seed: no drift check

    @property
    def label(self) -> str:
        """Per-subcommand timing key, e.g. ``solve_quadrature``."""
        sub = self.argv[0]
        for flag in ("--method", "--system"):
            if flag in self.argv:
                return f"{sub}_{self.argv[self.argv.index(flag) + 1]}"
        return sub

    def cli_args(self, root: Path, out: Path, seed: int) -> list[str]:
        args = [a.replace("{seed}", str(seed)) for a in self.argv]
        return [args[0], "--config", str(root / "configs" / f"{self.config}.json"),
                "--out", str(out), *args[1:]]


@dataclass(frozen=True)
class Workload:
    name: str
    steps: tuple[Step, ...]
    uses: frozenset[str] = field(default_factory=frozenset)
    bypasses: frozenset[str] = field(default_factory=frozenset)

    @property
    def configs(self) -> list[str]:
        return sorted({s.config for s in self.steps})


# ---------------------------------------------------------------------------
# reading outputs


def read_table(path: Path) -> dict[str, np.ndarray]:
    """CSV columns by header name; numeric columns as float arrays
    (empty cells become NaN), other columns as lists of strings."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    require(len(rows) >= 2, f"{path.name}: no data rows")
    header, body = rows[0], rows[1:]
    cols: dict[str, np.ndarray] = {}
    for i, name in enumerate(header):
        cells = [r[i] for r in body]
        try:
            cols[name] = np.array([float(c) if c else math.nan for c in cells])
        except ValueError:
            cols[name] = cells
    return cols


def read_json(path: Path):
    with open(path) as fh:
        return json.load(fh)


def all_valid(out: Path, pattern: str) -> dict[str, dict[str, np.ndarray]]:
    """Read every CSV matching ``pattern``; each point must be valid."""
    files = sorted(out.glob(pattern))
    require(bool(files), f"no output matches {pattern}")
    tables = {}
    for f in files:
        tab = read_table(f)
        require(bool(np.all(tab["valid"] == 1)), f"{f.name}: invalid points")
        tables[f.name] = tab
    return tables


def t_star(out: Path) -> float:
    value = read_json(out / "blowup.json")["t_star"]
    return math.inf if value == "inf" else float(value)


# ---------------------------------------------------------------------------
# checks


def check_quadrature_fields(outs, specs, step):
    """Every point valid; for Burgers (every a_i = u) each a_sigma component
    equals u_sigma."""
    tabs = all_valid(outs[step], "fields_sigma_t*_*.csv")
    for name, tab in tabs.items():
        if name.endswith("_a.csv"):
            u = tabs[name.replace("_a.csv", "_u.csv")]["value"]
            comps = [tab[k] for k in tab if k.startswith("value")]
            require(all(float(np.max(np.abs(a - u))) <= 1e-12 for a in comps),
                    f"{name}: a_sigma differs from u_sigma")


def check_bump2d_char(outs, specs):
    """test_11: max |u_sigma - u_bar| <= 0.05 on the 11x11 grid."""
    q = read_table(outs["quadrature"] / "fields_sigma_t0_u.csv")
    c = read_table(outs["characteristics"] / "fields_char_t0_u.csv")
    require(np.array_equal(q["x1"], c["x1"]) and np.array_equal(q["x2"], c["x2"]),
            "quadrature and characteristics grids differ")
    worst = float(np.max(np.abs(q["value"] - c["value"])))
    require(worst <= 0.05, f"2D max |u_sigma - u_bar| {worst:.4f} > 0.05")


def check_bump2d_blowup(outs, specs):
    """test_11: t* is finite and beyond the output time 0.3."""
    ts = t_star(outs["blowup"])
    require(math.isfinite(ts) and ts > 0.3, f"t* = {ts} is not finite and > 0.3")


def check_particles(outs, specs):
    """test_05: L1(rho_hat - rho_sigma) <= 2% of mass, max |u_hat - u_sigma|
    <= 0.03, against the quadrature fields at the same time."""
    from charstoch import integrate_rho0

    mc, q = outs["montecarlo"], outs["quadrature"]
    rho_hat = read_table(mc / "fields_mc_t0_rho.csv")
    u_hat = read_table(mc / "fields_mc_t0_u.csv")["value"]
    rho_q = read_table(q / "fields_sigma_t0_rho.csv")
    u_q = read_table(q / "fields_sigma_t0_u.csv")["value"]
    require(np.array_equal(rho_hat["x1"], rho_q["x1"]), "grids differ")
    dx = float(rho_q["x1"][1] - rho_q["x1"][0])
    l1 = float(np.sum(np.abs(rho_hat["value"] - rho_q["value"])) * dx)
    mass = integrate_rho0(specs["burgers_sin"])
    require(l1 <= 0.02 * mass, f"L1 distance {l1:.4f} > 2% of mass {mass:.4f}")
    worst = float(np.max(np.abs(u_hat - u_q)))
    require(worst <= 0.03, f"max |u_hat - u_sigma| {worst:.4f} > 0.03")


def check_residuals(outs, specs, step, max_residual=math.inf):
    """test_06/test_07: every finer-level ratio in [2.8, 5.2]; test_06 also
    bounds the max residual by 1e-2."""
    tab = read_table(outs[step] / "residuals.csv")
    fine = ~np.isnan(tab["ratio"])
    require(bool(np.any(fine)), "no refinement ratios")
    for eq, ratio, r in zip(np.array(tab["equation"])[fine], tab["ratio"][fine],
                            tab["max_residual"][fine]):
        require(2.8 <= ratio <= 5.2, f"{eq}: ratio {ratio:.2f}")
        require(r <= max_residual, f"{eq}: max residual {r:.3e}")


def check_converge(outs, specs):
    """test_01 on the config grid: u_sigma -> u_bar along the ladder."""
    tab = read_table(outs["converge"] / "convergence.csv")
    require(list(tab["sigma"]) == [0.2, 0.1, 0.05], "sigma ladder changed")
    err = tab["max_err_u"]
    require(bool(err[0] > err[1] > err[2]), f"u errors not decreasing: {err}")
    require(bool(np.all(np.isfinite([tab[k] for k in tab]))), "non-finite error")


def check_iterms_before(outs, specs, step):
    """test_10: before blow-up the I_u sup decreases with sigma."""
    sup = read_table(outs[step] / "iterms.csv")["I_u_sup"]
    require(bool(np.all(np.diff(sup) < 0)), f"I_u sup not decreasing: {sup}")


def check_iterms_after(outs, specs, step):
    """test_10: past blow-up the I_u sup persists as sigma shrinks: the
    smallest sigma's sup over the next larger one's exceeds 0.5."""
    sup = read_table(outs[step] / "iterms.csv")["I_u_sup"]
    ratio = sup[-1] / sup[-2]
    require(ratio > 0.5, f"persistence ratio {ratio:.3f} <= 0.5")


def check_gaussian_identity(outs, specs):
    """test_03: zero drift, u0 = exp(-x^2), so u_sigma has the closed form
    (1 + 2 s^2 t)^(-1/2) exp(-x^2 / (1 + 2 s^2 t)); matched to 1e-6."""
    sigma = specs["gaussian_identity"].sigma
    for name in all_valid(outs["gaussian_identity"], "fields_sigma_t*_u.csv"):
        tab = read_table(outs["gaussian_identity"] / name)
        g = 1.0 + 2.0 * sigma * sigma * tab["t"]
        want = g ** -0.5 * np.exp(-tab["x1"] ** 2 / g)
        worst = float(np.max(np.abs(tab["value"] - want)))
        require(worst <= 1e-6, f"{name}: closed-form error {worst:.2e}")


# u0 and its derivative, written independently of the expression evaluator
_BURGERS_U0 = {
    "burgers_sin": (np.sin, np.cos),
    "burgers_gaussian": (lambda y: np.exp(-y * y),
                         lambda y: -2.0 * y * np.exp(-y * y)),
}


def check_classical(outs, specs, step):
    """Burgers (a = u, A = t u): u_bar solves u = u0(x - t u), rho_bar is
    1 / (1 + t u0'(y)) at the foot y = x - t u, and a_bar equals u_bar."""
    u0, du0 = _BURGERS_U0[step.removeprefix("characteristics_")]
    tabs = all_valid(outs[step], "fields_char_t*_*.csv")
    for name, tab in tabs.items():
        if not name.endswith("_u.csv"):
            continue
        t, x, u = tab["t"], tab["x1"], tab["value"]
        y = x - t * u
        res = float(np.max(np.abs(u - u0(y))))
        require(res <= 1e-9, f"{name}: implicit-relation residual {res:.2e}")
        rho = tabs[name.replace("_u.csv", "_rho.csv")]["value"]
        err = float(np.max(np.abs(rho - 1.0 / (1.0 + t * du0(y)))))
        require(err <= 1e-9, f"{name}: rho_bar error {err:.2e}")
        a = tabs[name.replace("_u.csv", "_a.csv")]["value"]
        require(bool(np.array_equal(a, u)), f"{name}: a_bar differs from u_bar")


_T_STAR = {"burgers_sin": 1.0, "burgers_gaussian": math.sqrt(math.e / 2.0),
           "burgers_tanh": math.inf}


def check_blowup(outs, specs, step):
    """test_02: t* = 1, sqrt(e/2) and infinity to 1e-3."""
    want = _T_STAR[step.removeprefix("blowup_")]
    got = t_star(outs[step])
    ok = math.isinf(got) if math.isinf(want) else abs(got - want) <= 1e-3
    require(ok, f"t* = {got}, expected {want}")


def _named(check, step: str):
    """Bind a step-parameterized check to its step name."""
    return lambda outs, specs: check(outs, specs, step)


# ---------------------------------------------------------------------------
# the workloads

_RESOLUTIONS = ("0.04:0.016", "0.02:0.008", "0.01:0.004")


def _sigma_residuals(config: str, t0: str, t1: str) -> Step:
    name = f"residuals_{config}"
    return Step(name, config, ("residuals", "--system", "sigma", "--window", t0, t1,
                               "--resolutions", *_RESOLUTIONS),
                lambda outs, specs: check_residuals(outs, specs, name, 1e-2))


def _blowup(config: str) -> Step:
    name = f"blowup_{config}"
    return Step(name, config, ("blowup",), _named(check_blowup, name))


def _iterms(config: str, sigmas: str, t: str, check) -> Step:
    name = f"iterms_t{t}"
    return Step(name, config, ("iterms", "--sigmas", sigmas, "--t", t),
                _named(check, name))


def _characteristics(config: str) -> Step:
    name = f"characteristics_{config}"
    return Step(name, config, ("solve", "--method", "characteristics"),
                _named(check_classical, name))


# BENCHMARK.json lists the gated workloads and why each exists.  sigma1d
# and classical1d are not gated: they are interpreter-bound, and their wall
# time on a shared 2-core host swings by +-30% over minutes, more than any
# regression bound can absorb.  They stay runnable by name for their checks
# and their exact per-layer call counts; bump2d carries 2D I-term steps so
# that the balance layer is still measured on a gated workload.
WORKLOADS = {w.name: w for w in (
    Workload(
        "bump2d",
        (
            Step("quadrature", "gaussian_bump_2d", ("solve", "--method", "quadrature"),
                 _named(check_quadrature_fields, "quadrature")),
            Step("characteristics", "gaussian_bump_2d",
                 ("solve", "--method", "characteristics"), check_bump2d_char),
            Step("blowup", "gaussian_bump_2d", ("blowup",), check_bump2d_blowup),
            # test_10's claims in 2D on the (0.2, 0.1) ladder; t* is about 0.82
            _iterms("gaussian_bump_2d", "0.2,0.1", "0.3", check_iterms_before),
            _iterms("gaussian_bump_2d", "0.2,0.1", "1.5", check_iterms_after),
        ),
        uses=frozenset({"representation.point_eval.calls",
                        "representation.quadrature_grid.calls",
                        "characteristics.solve_implicit.calls",
                        "characteristics.blow_up_time.calls",
                        "balance.eval_I_u_sigma.calls"}),
        bypasses=frozenset({"montecarlo.estimate_fields.calls",
                            "balance.residual_sigma_system.calls"}),
    ),
    Workload(
        "particles1d",
        (
            Step("montecarlo", "burgers_sin",
                 ("solve", "--method", "montecarlo", "--particles", "1000000",
                  "--bandwidth", "0.02", "--t", "0.5", "--seed", "{seed}"),
                 check_particles, seeded=True),
            Step("quadrature", "burgers_sin",
                 ("solve", "--method", "quadrature", "--t", "0.5"),
                 _named(check_quadrature_fields, "quadrature")),
        ),
        uses=frozenset({"montecarlo.estimate_fields.calls",
                        "montecarlo.sample_initial.calls",
                        "representation.point_eval.calls"}),
        bypasses=frozenset({"characteristics.solve_implicit.calls",
                            "characteristics.invert_char_map.calls",
                            "balance.eval_I_u_sigma.calls"}),
    ),
    Workload(
        "sigma1d",
        (
            _sigma_residuals("burgers_sin", "0.3", "0.5"),
            _sigma_residuals("burgers_gaussian", "0.2", "0.4"),
            _sigma_residuals("burgers_tanh", "0.5", "0.7"),
            Step("converge", "burgers_sin",
                 ("converge", "--sigmas", "0.2,0.1,0.05", "--t", "0.5"),
                 check_converge),
            _iterms("burgers_sin", "0.2,0.1,0.05", "0.5", check_iterms_before),
            _iterms("burgers_sin", "0.2,0.1,0.05", "1.5", check_iterms_after),
            Step("gaussian_identity", "gaussian_identity",
                 ("solve", "--method", "quadrature"), check_gaussian_identity),
        ),
        uses=frozenset({"representation.point_eval.calls",
                        "representation.quadrature_grid.calls",
                        "balance.eval_I_u_sigma.calls",
                        "balance.residual_sigma_system.calls"}),
        bypasses=frozenset({"montecarlo.estimate_fields.calls",
                            "balance.residual_pressureless.calls"}),
    ),
    Workload(
        "classical1d",
        (
            Step("residuals", "burgers_sin",
                 ("residuals", "--system", "pressureless", "--window", "0.2", "0.4",
                  "--resolutions", *_RESOLUTIONS[:2]),
                 _named(check_residuals, "residuals")),
            _characteristics("burgers_sin"),
            _characteristics("burgers_gaussian"),
            _blowup("burgers_sin"),
            _blowup("burgers_gaussian"),
            _blowup("burgers_tanh"),
        ),
        uses=frozenset({"characteristics.solve_implicit.calls",
                        "characteristics.invert_char_map.calls",
                        "balance.residual_pressureless.calls",
                        "expr.eval_expr.calls"}),
        bypasses=frozenset({"representation.point_eval.calls",
                            "representation.quadrature_grid.calls",
                            "quadrature.panel_rule.calls",
                            "montecarlo.estimate_fields.calls"}),
    ),
)}
