"""Benchmark driver for charstoch.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all           # every workload, a table
    python3 bench/run.py --freeze                 # re-freeze drift references

Run from the repository root.  One run of a workload is a series of
passes; each pass is a fresh Python process (bench/one_pass.py), so the
field-table cache starts cold as it does for a CLI user.  Passes run one
at a time with single-threaded BLAS.  A run keeps starting passes until
``--seconds`` have elapsed (at least MIN_PASSES) and reports medians.

With ``--trace 0`` the last stdout line is the JSON result carrying the
end-to-end metrics of BENCHMARK.json; with ``--trace 1`` untraced and
traced passes alternate and it carries the per-layer metrics.  The
traced run also checks itself: traced outputs must be byte-identical to
untraced ones, and each layer must be reached, or bypassed, as the
workload declares.  A full record of the run, stamped with the source
revision and machine, goes to .bench_results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS  # noqa: E402

MIN_PASSES = 3
DEADLINE_S = 165.0  # a run must end within 180 s
CLI_LABELS = ("solve_quadrature", "solve_characteristics", "solve_montecarlo",
              "blowup", "converge", "residuals_sigma", "residuals_pressureless",
              "iterms")
# single-threaded BLAS, so a pass never competes with itself for the cores,
# and a fixed hash seed, so passes differ only in what the machine does
CHILD_ENV = {"PYTHONHASHSEED": "0",
             **{v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                 "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="charstoch benchmark driver")
    p.add_argument("--workload", default="all",
                   choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None,
                   help="measuring time per run (default: BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--freeze", action="store_true",
                   help="rewrite bench/reference from one pass per workload")
    return p.parse_args(argv)


def check_checkout() -> dict:
    """The benchmark needs the package sources and configs of a checkout."""
    missing = [p for p in ("src/charstoch/cli.py", "configs", "BENCHMARK.json")
               if not (ROOT / p).exists()]
    if missing:
        sys.exit(f"error: not a charstoch checkout, missing {', '.join(missing)}")
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_sha256() -> str:
    """Digest of the package sources and configs, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "configs").glob("*.json")]):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def stamp(numpy_version: str | None) -> dict:
    return {
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


def run_pass(workload: str, seed: int, trace: int, work: Path, index: int,
             timeout: float, freeze: bool = False, spans: Path | None = None) -> dict:
    """Run one pass in a fresh process; a pass that dies or times out is
    returned as {"error": ...} and counts every step as failed."""
    out, result = work / f"pass{index}", work / f"pass{index}.json"
    cmd = [sys.executable, str(BENCH / "one_pass.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace), "--out", str(out),
           "--result", str(result)]
    if freeze:
        cmd.append("--freeze")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    env = {**os.environ, **CHILD_ENV}
    started = time.monotonic()
    try:
        proc = subprocess.run([*cmd, "--started", repr(started)], env=env, cwd=ROOT,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"pass timed out after {timeout:.0f} s"}
    finally:
        shutil.rmtree(out, ignore_errors=True)
    if proc.returncode != 0 or not result.exists():
        return {"error": f"pass exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    return json.loads(result.read_text())


def run_passes(workload: str, seed: int, seconds: float, trace: int, work: Path,
               spans_dir: Path) -> list[dict]:
    """Passes until ``seconds`` elapse; with tracing, untraced and traced
    passes alternate, an untraced one first."""
    passes, longest = [], 0.0
    begin = time.monotonic()
    while True:
        elapsed = time.monotonic() - begin
        enough = len(passes) >= (2 if trace else MIN_PASSES) and elapsed >= seconds
        if enough or elapsed + 1.5 * longest > DEADLINE_S:
            break
        traced = trace and len(passes) % 2 == 1
        t0 = time.monotonic()
        rec = run_pass(workload, seed, int(traced), work, len(passes),
                       timeout=DEADLINE_S - elapsed,
                       spans=spans_dir / f"spans-{workload}.npz" if traced else None)
        longest = max(longest, time.monotonic() - t0)
        rec["traced"] = bool(traced)
        passes.append(rec)
        if "error" in rec:
            break
    return passes


def tally(workload: str, passes: list[dict]) -> tuple[int, int, list[str]]:
    """Attempted and failed operations, with a line per failure."""
    n_steps = len(WORKLOADS[workload].steps)
    attempted = failed = 0
    notes = []
    for i, rec in enumerate(passes):
        attempted += n_steps
        if "error" in rec:
            failed += n_steps
            notes.append(f"pass {i}: {rec['error']}")
            continue
        for step in rec["steps"]:
            if step["failures"]:
                failed += 1
                notes += [f"pass {i} {step['name']}: {f}" for f in step["failures"]]
    return attempted, failed, notes


def self_test(workload: str, passes: list[dict]) -> list[str]:
    """Traced outputs equal untraced ones byte for byte (manifest SHA-256),
    and declared layers are reached or bypassed."""
    problems = []
    w = WORKLOADS[workload]
    for plain, traced in zip(passes[0::2], passes[1::2]):
        if "error" in plain or "error" in traced:
            problems.append("a pass failed, outputs not compared")
            continue
        for a, b in zip(plain["steps"], traced["steps"]):
            if a.get("outputs") is None or a.get("outputs") != b.get("outputs"):
                problems.append(f"{a['name']}: traced outputs differ from untraced")
        layers = traced["layers"]
        problems += [f"{m} is 0, the workload should reach it"
                     for m in sorted(w.uses) if not layers.get(m)]
        problems += [f"{m} is {layers.get(m)}, the workload should bypass it"
                     for m in sorted(w.bypasses) if layers.get(m) != 0]
    return problems


def median(values) -> float:
    return float(statistics.median(values))


def end_to_end(good: list[dict]) -> dict[str, float]:
    return {"setup_s": median(p["setup_s"] for p in good),
            "study_s": median(p["study_s"] for p in good),
            "peak_rss_mb": median(p["peak_rss_mb"] for p in good)}


def per_layer(passes: list[dict], attempted: int, failed: int) -> dict[str, float]:
    plain = [p for p in passes if "error" not in p and not p["traced"]]
    traced = [p for p in passes if "error" not in p and p["traced"]]
    out = {}
    for name in traced[0]["layers"]:
        out[name] = median(p["layers"][name] for p in traced)
    for label in CLI_LABELS:
        out[f"cli.{label}.s"] = median(
            sum(s["seconds"] for s in p["steps"] if s["label"] == label) for p in traced)
    out["cli.bytes_written"] = median(
        sum(s.get("bytes", 0) for s in p["steps"]) for p in traced)
    out["trace.overhead_s"] = (median(p["study_s"] for p in traced)
                               - median(p["study_s"] for p in plain))
    out["check.failed_share"] = failed / attempted
    out["check.drift_max"] = max(p["drift_max"] for p in plain + traced)
    return out


def measure(workload: str, seed: int, seconds: float, trace: int, config: dict) -> dict:
    work = ROOT / ".bench_work" / f"{workload}-{os.getpid()}"
    results = ROOT / ".bench_results"
    results.mkdir(exist_ok=True)
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        passes = run_passes(workload, seed, seconds, trace, work, results)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted, failed, notes = tally(workload, passes)
    good = [p for p in passes if "error" not in p]
    if trace:
        notes += [f"self-test: {p}" for p in self_test(workload, passes)]
    spec_key = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in config[spec_key]}
    metrics = {}
    drift_max = None
    if good and (not trace or any(p["traced"] for p in good)):
        values = per_layer(passes, attempted, failed) if trace else end_to_end(good)
        if set(values) != set(units):
            raise SystemExit(f"error: metrics {sorted(set(values) ^ set(units))} "
                             f"do not match BENCHMARK.json {spec_key}")
        metrics = {k: {"value": values[k], "unit": units[k]} for k in sorted(values)}
        drift_max = max(p["drift_max"] for p in good)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "stamp": stamp(good[0]["numpy"] if good else None),
        "correct": failed == 0 and not notes and bool(metrics),
        "attempted": attempted, "failed": failed,
        "failed_share": failed / attempted if attempted else 1.0,
        "drift_max": drift_max, "notes": notes, "metrics": metrics,
        "passes": passes,
    }
    (results / f"{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1))
    return record


def report(record: dict) -> None:
    """Human-readable lines, then the JSON result as the last line."""
    print(f"# stamp {json.dumps(record['stamp'], sort_keys=True)}")
    for note in record["notes"]:
        print(f"# FAIL {note}")
    n = len(record["passes"])
    print(f"# {record['workload']}: {n} passes, failed_share "
          f"{record['failed_share']:.4g} ({record['failed']}/{record['attempted']}), "
          f"drift_max {record['drift_max']} abs")
    for name, m in record["metrics"].items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": record["metrics"]}))


def freeze() -> int:
    """Rewrite the drift references from one untraced pass per workload."""
    sha = git_sha()
    work = ROOT / ".bench_work" / f"freeze-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        for name in WORKLOADS:
            rec = run_pass(name, 1, 0, work, 0, timeout=600.0, freeze=True)
            bad = rec.get("error") or [f for s in rec["steps"] for f in s["failures"]]
            if bad:
                print(f"{name}: not frozen: {bad}", file=sys.stderr)
                return 1
            print(f"froze {name}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (BENCH / "reference" / "SOURCE.json").write_text(json.dumps(
        {"git_sha": sha, "source_sha256": source_sha256()}, indent=1) + "\n")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    config = check_checkout()
    if args.freeze:
        return freeze()
    seconds = config["run_seconds"] if args.seconds is None else args.seconds
    if args.workload != "all":
        record = measure(args.workload, args.seed, seconds, args.trace, config)
        report(record)
        return 0
    gated = {w["name"] for w in config["workloads"]}
    rows = []
    for name in WORKLOADS:
        record = measure(name, args.seed, seconds, 0, config)
        for note in record["notes"]:
            print(f"# FAIL {name}: {note}")
        m = {k: v["value"] for k, v in record["metrics"].items()}
        rows.append((name + ("" if name in gated else " (ungated)"), m.get("setup_s"), m.get("study_s"), m.get("peak_rss_mb"),
                     record["failed_share"], record["drift_max"]))
    print(f"{'workload':<22} {'setup_s [s]':>12} {'study_s [s]':>12} "
          f"{'peak_rss_mb [MiB]':>18} {'failed_share [1]':>17} {'drift_max [abs]':>16}")
    for name, *vals in rows:
        print(f"{name:<22} " + " ".join(
            f"{v:>{w}.4g}" if v is not None else f"{'n/a':>{w}}"
            for v, w in zip(vals, (12, 12, 18, 17, 16))))
    return 0 if all(r[4] == 0 for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
