"""Command-line experiment runner.

Loads a problem configuration, dispatches to the computational modules
and writes deterministic CSV/JSON artifacts plus a manifest listing
every output with its content hash.  Same config and seed give the
same output bytes; only the manifest's wall-clock duration varies.

Exit codes: 0 success, 2 configuration problem, 3 numerical failure.
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

from . import __version__
from .errors import ConfigError, NearBlowup, NumericalError

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

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, help="problem JSON file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the configured RNG seed")

    p = sub.add_parser("solve", help="evaluate solution fields on the grid")
    common(p)
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
    common(p)

    p = sub.add_parser("converge", help="noise ladder vs characteristics oracle")
    common(p)
    p.add_argument("--sigmas", required=True,
                   help="comma-separated decreasing noise levels")
    p.add_argument("--t", type=float, required=True)

    p = sub.add_parser("residuals", help="discrete balance-law residuals")
    common(p)
    p.add_argument("--system", required=True, choices=("sigma", "pressureless"))
    p.add_argument("--window", type=float, nargs=2, required=True,
                   metavar=("T0", "T1"))
    p.add_argument("--resolutions", nargs="+", required=True, metavar="H:DT",
                   help="one or more h:dt pairs, coarsest first")

    p = sub.add_parser("iterms", help="covariance-source persistence table")
    common(p)
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
    from .problem import load_problem

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
    import numpy as np

    from .problem import space_axes, tensor_points
    from .representation import FieldGrid

    times = args.t if args.t else list(spec.time_points)
    axes = space_axes(spec)
    pts = tensor_points(axes)
    shape = tuple(len(ax) for ax in axes)
    if args.method == "quadrature":
        from .representation import eval_field_grid

        for j, t in enumerate(times):
            for which in ("rho", "u", "a"):
                grid = eval_field_grid(spec, t, which)
                grid.to_csv(out.path(f"fields_sigma_t{j}_{which}.csv"))
    elif args.method == "characteristics":
        from .characteristics import blow_up_time, classical_fields

        t_star = blow_up_time(spec).t_star
        for t in times:
            if t >= t_star:
                raise NearBlowup(
                    f"requested t={t:g} is not below t_star={t_star:g}"
                )
        for j, t in enumerate(times):
            fields = classical_fields(spec, t, pts.reshape(shape + (spec.n,)))
            valid = np.ones(shape, dtype=bool)
            for which, values in zip(("rho", "u", "a"), fields):
                FieldGrid(f"{which}_bar", float(t), axes, values, valid
                          ).to_csv(out.path(f"fields_char_t{j}_{which}.csv"))
    else:
        from .montecarlo import (dump_ensemble, estimate_fields, evolve_exact,
                                 sample_initial)

        ens0 = sample_initial(spec, args.particles)
        for j, t in enumerate(times):
            # the evolved ensemble is not bound here: estimate_fields gets
            # its only reference and frees X once X is sorted
            moved = [evolve_exact(ens0, spec, t) if t > 0 else ens0]
            if args.dump_particles:
                dump_ensemble(moved[0], out.path(f"particles_t{j}.csv"))
            est = estimate_fields(moved.pop(), spec, pts, bandwidth=args.bandwidth)
            FieldGrid("rho_hat", float(t), axes, est.rho_hat.reshape(shape),
                      np.ones(shape, dtype=bool)
                      ).to_csv(out.path(f"fields_mc_t{j}_rho.csv"))
            FieldGrid("u_hat", float(t), axes, est.u_hat.reshape(shape),
                      est.valid.reshape(shape)
                      ).to_csv(out.path(f"fields_mc_t{j}_u.csv"))


def cmd_blowup(args, spec, out: _Outputs) -> None:
    from .characteristics import blow_up_time

    report = blow_up_time(spec)
    with open(out.path("blowup.json"), "w") as fh:
        fh.write(report.to_json())
        fh.write("\n")


def cmd_converge(args, spec, out: _Outputs) -> None:
    import numpy as np

    from .characteristics import blow_up_time, classical_fields
    from .problem import space_axes, tensor_points
    from .representation import _fields_sigma, _noise_ladder

    sigmas = _noise_ladder(_parse_sigmas(args.sigmas))
    t = args.t
    t_star = blow_up_time(spec).t_star
    if t >= t_star:
        raise NearBlowup(f"requested t={t:g} is not below t_star={t_star:g}")
    pts = tensor_points(space_axes(spec))
    ref = classical_fields(spec, t, pts)
    with open(out.path("convergence.csv"), "w", newline="\n") as fh:
        fh.write("sigma,max_err_u,max_err_a,max_err_rho\n")
        for s in sigmas:
            rho_s, u_s, a_s = _fields_sigma(spec.with_sigma(s), t, pts)
            er, eu, ea = (float(np.max(np.abs(v - r), initial=0.0))
                          for v, r in zip((rho_s, u_s, a_s), ref))
            fh.write(f"{s:.12e},{eu:.12e},{ea:.12e},{er:.12e}\n")


def cmd_residuals(args, spec, out: _Outputs) -> None:
    from .balance import attach_ratios, residual_pressureless, \
        residual_sigma_system

    window = (args.window[0], args.window[1])
    resolutions = _parse_resolutions(args.resolutions)
    runner = residual_sigma_system if args.system == "sigma" \
        else residual_pressureless
    batches = [runner(spec, window, res) for res in resolutions]
    for coarse, fine in zip(batches, batches[1:]):
        attach_ratios(coarse, fine)
    with open(out.path("residuals.csv"), "w", newline="\n") as fh:
        fh.write("equation,h,dt,max_residual,l1_residual,ratio\n")
        for batch in batches:
            for r in batch:
                ratio = "" if r.ratio is None else f"{r.ratio:.12e}"
                fh.write(f"{r.equation},{r.h:.12e},{r.dt:.12e},"
                         f"{r.max_residual:.12e},{r.l1_residual:.12e},{ratio}\n")


def cmd_iterms(args, spec, out: _Outputs) -> None:
    from .balance import i_term_persistence

    sigmas = _parse_sigmas(args.sigmas)
    rows = i_term_persistence(spec, sigmas, args.t)
    header = "sigma,I_u_sup," + ",".join(
        f"I_a_sup_{i + 1}" for i in range(spec.n))
    with open(out.path("iterms.csv"), "w", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            cells = [f"{row.sigma:.12e}", f"{row.i_u_sup:.12e}"]
            cells += [f"{v:.12e}" for v in row.i_a_sup]
            fh.write(",".join(cells) + "\n")


_COMMANDS = {
    "solve": cmd_solve,
    "blowup": cmd_blowup,
    "converge": cmd_converge,
    "residuals": cmd_residuals,
    "iterms": cmd_iterms,
}


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
        _COMMANDS[args.subcommand](args, spec, out)
        out.write_manifest(args, spec, started)
    except (ConfigError, ValueError) as e:
        return _fail(e, 2)
    except NumericalError as e:
        return _fail(e, 3)
    return 0


if __name__ == "__main__":
    sys.exit(main())
