"""Command-line experiment runner.

Loads a problem configuration, dispatches to the computational modules
and writes deterministic CSV/JSON artifacts plus a manifest listing
every output with its content hash.  Same config and seed give the
same output bytes; only the manifest's wall-clock duration varies.

Exit codes: 0 success, 2 configuration problem, 3 numerical failure
or out of memory.
Failures, argparse usage errors included, end with a one-line JSON
object ``{"error": {"kind", "message"}}`` on stderr.  ``CHARSTOCH_LOG``
(error, warn, info, debug) controls diagnostics on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import logging
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .balance import (attach_ratios, i_term_persistence, residual_pressureless,
                      residual_sigma_system)
from .characteristics import blow_up_time, classical_fields
from .errors import ConfigError, NearBlowup, NumericalError
from .montecarlo import dump_ensemble, estimate_fields, evolve_exact, sample_initial
from .problem import _write_csv, load_problem, space_axes, tensor_points
from .representation import FieldGrid, _fields_sigma, _noise_ladder, _slot, eval_field_grid

logger = logging.getLogger(__name__)

_LOG_LEVELS = {"error": logging.ERROR, "warn": logging.WARNING,
               "info": logging.INFO, "debug": logging.DEBUG}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """Print the usage, then the JSON error line, and exit 2."""
        self.print_usage(sys.stderr)
        payload = {"error": {"kind": "UsageError", "message": f"{self.prog}: {message}"}}
        self.exit(2, json.dumps(payload) + "\n")


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(
        prog="charstoch",
        description="Stochastic-characteristics solver and diagnostics",
    )
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="subcommand", required=True)

    def common(p: argparse.ArgumentParser, run) -> None:
        p.set_defaults(run=run)
        p.add_argument("--config", required=True, help="problem JSON file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the configured RNG seed")

    p = sub.add_parser("solve", help="evaluate solution fields on the grid")
    common(p, cmd_solve)
    p.add_argument("--method", required=True,
                   choices=("quadrature", "characteristics", "montecarlo"))
    p.add_argument("--t", type=float, action="append", default=None,
                   help="evaluation time (repeatable; default: config times)")
    p.add_argument("--particles", type=int, default=200_000,
                   help="particle count for --method montecarlo")
    p.add_argument("--bandwidth", type=float, default=None,
                   help="kernel bandwidth for montecarlo field estimates")
    p.add_argument("--dump-particles", action="store_true",
                   help="also write per-time particle CSVs")

    p = sub.add_parser("blowup", help="report the classical blow-up time")
    common(p, cmd_blowup)

    p = sub.add_parser("converge", help="noise ladder vs characteristics oracle")
    common(p, cmd_converge)
    p.add_argument("--sigmas", required=True,
                   help="comma-separated decreasing noise levels")
    p.add_argument("--t", type=float, required=True)

    p = sub.add_parser("residuals", help="discrete balance-law residuals")
    common(p, cmd_residuals)
    p.add_argument("--system", required=True, choices=("sigma", "pressureless"))
    p.add_argument("--window", type=float, nargs=2, required=True,
                   metavar=("T0", "T1"))
    p.add_argument("--resolutions", nargs="+", required=True, metavar="H:DT",
                   help="one or more h:dt pairs, coarsest first")

    p = sub.add_parser("iterms", help="covariance-source persistence table")
    common(p, cmd_iterms)
    p.add_argument("--sigmas", required=True,
                   help="comma-separated decreasing noise levels")
    p.add_argument("--t", type=float, required=True)

    return top


def _setup_logging() -> None:
    level = _LOG_LEVELS.get(os.environ.get("CHARSTOCH_LOG", "").lower())
    if level is not None:
        logging.basicConfig(level=level, stream=sys.stderr,
                            format="%(levelname)s %(name)s: %(message)s")


def _load_spec(args):
    try:
        text = Path(args.config).read_text()
    except OSError as e:
        raise ConfigError(f"cannot read config {args.config!r}: {e}") from e
    spec = load_problem(text)
    if args.seed is not None:
        if args.seed < 0 or args.seed >= 2 ** 64:
            raise ConfigError("--seed must be an unsigned 64-bit integer")
        spec = dataclasses.replace(spec, rng_seed=args.seed)
    return spec


class _Outputs:
    """Collects written artifacts and finalizes the run manifest.  The
    output directory is made on the first ``path`` or
    ``write_manifest`` call, so a subcommand that refuses its arguments
    before writing leaves none behind."""

    def __init__(self, out_dir: str) -> None:
        self.dir = Path(out_dir)
        self.names: list[str] = []

    def path(self, name: str) -> Path:
        self.dir.mkdir(parents=True, exist_ok=True)
        self.names.append(name)
        return self.dir / name

    def write_manifest(self, args, spec, started: float) -> None:
        self.dir.mkdir(parents=True, exist_ok=True)
        outputs = []
        for name in sorted(self.names):
            digest = hashlib.sha256((self.dir / name).read_bytes()).hexdigest()
            outputs.append({"path": name, "sha256": digest})
        manifest = {
            "subcommand": args.subcommand,
            "config": args.config,
            "out_dir": str(self.dir),
            "spec_digest": spec.digest,
            "version": __version__,
            "duration_seconds": time.monotonic() - started,
            "outputs": outputs,
        }
        with open(self.dir / "manifest.json", "w") as fh:
            json.dump(manifest, fh, sort_keys=True, indent=2)
            fh.write("\n")


def _check_times(args) -> None:
    """Refuse a negative or non-finite ``--t``, and a non-finite
    ``--window`` end, before any output is opened."""
    t = getattr(args, "t", None)
    times = [] if t is None else t if isinstance(t, list) else [t]
    for v in times:
        if not (math.isfinite(v) and v >= 0):
            raise ConfigError(f"--t must be >= 0 and finite, got {v:g}")
    for v in getattr(args, "window", None) or []:
        if not math.isfinite(v):
            raise ConfigError(f"--window ends must be finite, got {v:g}")


def _parse_sigmas(text: str) -> list[float]:
    try:
        sigmas = [float(s) for s in text.split(",") if s.strip()]
    except ValueError as e:
        raise ConfigError(f"--sigmas: {e}") from e
    if not sigmas:
        raise ConfigError("--sigmas must list at least one value")
    return sigmas


def _parse_resolutions(items: list[str]) -> list[tuple[float, float]]:
    out = []
    for item in items:
        parts = item.split(":")
        if len(parts) != 2:
            raise ConfigError(f"--resolutions entry {item!r} is not h:dt")
        try:
            out.append((float(parts[0]), float(parts[1])))
        except ValueError as e:
            raise ConfigError(f"--resolutions entry {item!r}: {e}") from e
    return out


def cmd_solve(args, spec, out: _Outputs) -> None:
    times = args.t if args.t else list(spec.time_points)
    axes = space_axes(spec)
    pts = tensor_points(axes)
    shape = tuple(len(ax) for ax in axes)
    if args.method == "characteristics":
        t_star = blow_up_time(spec).t_star
        for t in times:
            if t >= t_star:
                raise NearBlowup(f"requested t={t:g} is not below t_star={t_star:g}")
    elif args.method == "montecarlo":
        ens0 = sample_initial(spec, args.particles)
    prefix = {"quadrature": "sigma", "characteristics": "char",
              "montecarlo": "mc"}[args.method]
    # every time's grids are built before any is written, so a time that
    # is refused leaves no fields behind
    built = []
    for j, t in enumerate(times):
        if args.method == "quadrature":
            grids = {which: eval_field_grid(spec, t, which) for which in ("rho", "u", "a")}
        elif args.method == "characteristics":
            fields = classical_fields(spec, t, pts.reshape(shape + (spec.n,)))
            valid = np.ones(shape, dtype=bool)
            grids = {which: FieldGrid(float(t), axes, values, valid)
                     for which, values in zip(("rho", "u", "a"), fields)}
        else:
            # the evolved ensemble is not bound here: estimate_fields gets
            # its only reference and frees X once X is sorted
            moved = [evolve_exact(ens0, spec, t) if t > 0 else ens0]
            if args.dump_particles:
                dump_ensemble(moved[0], out.path(f"particles_t{j}.csv"))
            est = estimate_fields(moved.pop(), spec, pts, bandwidth=args.bandwidth)
            grids = {"rho": FieldGrid(float(t), axes, est.rho_hat.reshape(shape),
                                      np.ones(shape, dtype=bool)),
                     "u": FieldGrid(float(t), axes, est.u_hat.reshape(shape),
                                    est.valid.reshape(shape))}
        built.append(grids)
    for j, grids in enumerate(built):
        for which, grid in grids.items():
            grid.to_csv(out.path(f"fields_{prefix}_t{j}_{which}.csv"))


def cmd_blowup(args, spec, out: _Outputs) -> None:
    report = blow_up_time(spec)
    with open(out.path("blowup.json"), "w") as fh:
        fh.write(report.to_json())
        fh.write("\n")


def cmd_converge(args, spec, out: _Outputs) -> None:
    sigmas = _noise_ladder(_parse_sigmas(args.sigmas))
    t = args.t
    t_star = blow_up_time(spec).t_star
    if t >= t_star:
        raise NearBlowup(f"requested t={t:g} is not below t_star={t_star:g}")
    pts = tensor_points(space_axes(spec))
    ref = classical_fields(spec, t, pts)
    rows = []
    for s in sigmas:
        er, eu, ea = (float(np.max(np.abs(v - r), initial=0.0))
                      for v, r in zip(_fields_sigma(spec.with_sigma(s), t, pts), ref))
        rows.append((s, eu, ea, er))
    _write_csv(out.path("convergence.csv"),
               ["sigma", "max_err_u", "max_err_a", "max_err_rho"], [rows])


def cmd_residuals(args, spec, out: _Outputs) -> None:
    window = (args.window[0], args.window[1])
    resolutions = _parse_resolutions(args.resolutions)
    runner = residual_sigma_system if args.system == "sigma" \
        else residual_pressureless
    batches = [runner(spec, window, res) for res in resolutions]
    for coarse, fine in zip(batches, batches[1:]):
        attach_ratios(coarse, fine)
    rows = [(r.equation, r.h, r.dt, r.max_residual, r.l1_residual,
             "" if r.ratio is None else f"{r.ratio:.12e}")
            for batch in batches for r in batch]
    _write_csv(out.path("residuals.csv"),
               ["equation", "h", "dt", "max_residual", "l1_residual", "ratio"], [rows],
               row="%s,%.12e,%.12e,%.12e,%.12e,%s")


def cmd_iterms(args, spec, out: _Outputs) -> None:
    sigmas = _parse_sigmas(args.sigmas)
    rows = i_term_persistence(spec, sigmas, args.t)
    _write_csv(out.path("iterms.csv"),
               ["sigma", "I_u_sup"] + [f"I_a_sup_{i + 1}" for i in range(spec.n)],
               [[(r.sigma, r.i_u_sup, *r.i_a_sup) for r in rows]])


def _fail(exc: Exception, code: int) -> int:
    payload = {"error": {"kind": type(exc).__name__, "message": str(exc)}}
    print(json.dumps(payload), file=sys.stderr)
    return code


def main(argv=None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    started = time.monotonic()
    try:
        spec = _load_spec(args)
        _check_times(args)
        out = _Outputs(args.out)
        args.run(args, spec, out)
        out.write_manifest(args, spec, started)
    except (ConfigError, ValueError) as e:
        return _fail(e, 2)
    except NumericalError as e:
        return _fail(e, 3)
    except MemoryError as e:  # NumPy raises a subclass of it
        return _fail(MemoryError(str(e)), 3)
    finally:
        _slot.clear()  # the command's table ends with it
    return 0


if __name__ == "__main__":
    sys.exit(main())
