"""One pass of a workload in a fresh process, as a CLI user would see it.

Usage (normally started by run.py, one pass at a time):

    python3 bench/one_pass.py --workload NAME --seed N --trace 0|1
        --started MONOTONIC --out DIR --result FILE [--spans FILE] [--freeze]

``--started`` is ``time.monotonic()`` taken by the parent just before it
started this process; set-up time is measured from it.  The pass runs
the workload's subcommands in-process through ``charstoch.cli.main``,
writing under ``--out``, then checks the outputs and writes a JSON
result to ``--result``.  With ``--trace 1`` the public functions are
wrapped during the subcommands only; checks run untraced.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import resource
import shutil
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCE = BENCH / "reference"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--started", type=float, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--result", type=Path, required=True)
    p.add_argument("--spans", type=Path, default=None)
    p.add_argument("--freeze", action="store_true",
                   help="copy the deterministic outputs into reference/")
    return p.parse_args(argv)


def manifest_outputs(out: Path) -> dict[str, str]:
    """Output name -> SHA-256 as listed in the run manifest, after
    confirming each listed file still hashes to it."""
    with open(out / "manifest.json") as fh:
        listed = {o["path"]: o["sha256"] for o in json.load(fh)["outputs"]}
    for name, digest in listed.items():
        actual = hashlib.sha256((out / name).read_bytes()).hexdigest()
        if actual != digest:
            raise ValueError(f"{name}: bytes differ from the manifest hash")
    return listed


def _cells(path: Path):
    """Flattened cells of a CSV or JSON output, in a fixed order."""
    if path.suffix == ".json":
        def walk(v):
            if isinstance(v, dict):
                for k in sorted(v):
                    yield k
                    yield from walk(v[k])
            elif isinstance(v, list):
                yield len(v)
                for item in v:
                    yield from walk(item)
            else:
                yield v
        with open(path) as fh:
            return list(walk(json.load(fh)))
    with open(path) as fh:
        return [cell for line in fh for cell in line.rstrip("\n").split(",")]


def _number(cell):
    if isinstance(cell, bool):
        return None
    if isinstance(cell, (int, float)):
        return float(cell)
    try:
        return float(cell)
    except (TypeError, ValueError):
        return None


def drift(out: Path, ref: Path, names) -> float:
    """Largest absolute difference between numeric output cells and the
    frozen reference.  Any other difference (file set, shape, text cell,
    a NaN or infinity that moved) raises ValueError."""
    expected = sorted(p.name for p in ref.iterdir())
    if sorted(names) != expected:
        raise ValueError(f"outputs {sorted(names)} differ from reference {expected}")
    worst = 0.0
    for name in expected:
        got, want = _cells(out / name), _cells(ref / name)
        if len(got) != len(want):
            raise ValueError(f"{name}: {len(got)} cells, reference has {len(want)}")
        for g, w in zip(got, want):
            gv, wv = _number(g), _number(w)
            if gv is None or wv is None or not (math.isfinite(gv) and math.isfinite(wv)):
                if not (g == w or (gv is not None and gv == wv)
                        or (gv != gv and wv != wv)):
                    raise ValueError(f"{name}: cell {g!r} differs from {w!r}")
                continue
            worst = max(worst, abs(gv - wv))
    return worst


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    import numpy
    import charstoch
    import charstoch.cli
    from charstoch.problem import load_problem

    workload = WORKLOADS[args.workload]
    specs = {name: load_problem((ROOT / "configs" / f"{name}.json").read_text())
             for name in workload.configs}
    setup_s = time.monotonic() - args.started

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    outs, steps = {}, []
    study_start = time.perf_counter()
    try:
        for step in workload.steps:
            outs[step.name] = args.out / step.name
            stderr = io.StringIO()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stderr(stderr):
                    rc = charstoch.cli.main(
                        step.cli_args(ROOT, outs[step.name], args.seed))
            except Exception as e:  # an escaped error fails this step only
                rc = f"{type(e).__name__}: {e}"
            steps.append({"name": step.name, "label": step.label, "rc": rc,
                          "seconds": time.perf_counter() - t0,
                          "stderr": stderr.getvalue()[-2000:]})
    finally:
        study_s = time.perf_counter() - study_start
        if tracer is not None:
            tracer.uninstall()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    peak_rss_mb = usage.ru_maxrss / 1024.0

    drift_max = 0.0
    for step, rec in zip(workload.steps, steps):
        rec["failures"] = failures = []
        out = outs[step.name]
        ref = REFERENCE / args.workload / step.name
        if rec["rc"] != 0:
            failures.append(f"exit code {rec['rc']}: {rec['stderr'].strip()}")
            continue
        # each check that cannot run counts as failed, never as skipped
        try:
            rec["outputs"] = manifest_outputs(out)
            rec["bytes"] = sum((out / n).stat().st_size for n in rec["outputs"])
        except (OSError, ValueError, KeyError) as e:
            failures.append(f"manifest: {type(e).__name__}: {e}")
            continue
        try:
            step.check(outs, specs)
        except Exception as e:
            failures.append(f"check: {type(e).__name__}: {e}")
        if step.seeded:
            continue
        if args.freeze:
            shutil.rmtree(ref, ignore_errors=True)
            ref.mkdir(parents=True)
            for name in rec["outputs"]:
                shutil.copyfile(out / name, ref / name)
            continue
        try:
            drift_max = max(drift_max, drift(out, ref, rec["outputs"]))
        except (OSError, ValueError) as e:
            failures.append(f"drift: {type(e).__name__}: {e}")

    result = {
        "setup_s": setup_s,
        "study_s": study_s,
        "peak_rss_mb": peak_rss_mb,
        "drift_max": drift_max,
        "rusage": {k: getattr(usage, f"ru_{k}") for k in
                   ("utime", "stime", "minflt", "majflt", "nvcsw", "nivcsw")},
        "steps": steps,
        "numpy": numpy.__version__,
        "charstoch": charstoch.__version__,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["spans"] = len(tracer.span_name)
        if args.spans is not None:
            tracer.write_spans(args.spans)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
