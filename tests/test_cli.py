"""End-to-end command-line runs: exit codes, artifacts, determinism."""

import itertools
import json
import logging
import math
import os
import re
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from charstoch import cli, load_problem, representation
from charstoch.cli import main

ROOT = Path(__file__).resolve().parent.parent
BURGERS = ROOT / "configs" / "burgers_sin.json"
TANH = ROOT / "configs" / "burgers_tanh.json"


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "charstoch", *args],
        capture_output=True, text=True, cwd=ROOT,
    )


def error_payload(proc):
    line = proc.stderr.strip().splitlines()[-1]
    return json.loads(line)["error"]


def test_blowup_artifacts(tmp_path):
    out = tmp_path / "run"
    proc = run_cli("blowup", "--config", str(BURGERS), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    report = json.loads((out / "blowup.json").read_text())
    assert report["t_star"] == pytest.approx(1.0, abs=1e-3)
    assert report["method"] == "conway"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["subcommand"] == "blowup"
    assert manifest["version"]
    assert len(manifest["spec_digest"]) == 64
    entries = {o["path"]: o["sha256"] for o in manifest["outputs"]}
    assert set(entries) == {"blowup.json"}
    assert all(len(h) == 64 for h in entries.values())


def test_blowup_infinite_time(tmp_path):
    out = tmp_path / "run"
    proc = run_cli("blowup", "--config", str(TANH), "--out", str(out))
    assert proc.returncode == 0
    assert json.loads((out / "blowup.json").read_text())["t_star"] == "inf"


def test_missing_config_exits_2(tmp_path):
    proc = run_cli("blowup", "--config", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path / "o"))
    assert proc.returncode == 2
    err = error_payload(proc)
    assert err["kind"] == "ConfigError"
    assert "nope.json" in err["message"]


def test_invalid_config_exits_2(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text('{"n": 1, "a": ["u"]}')
    proc = run_cli("blowup", "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert proc.returncode == 2
    assert error_payload(proc)["kind"] == "SchemaError"


def test_numerical_precondition_exits_3(tmp_path):
    proc = run_cli("converge", "--config", str(BURGERS),
                   "--out", str(tmp_path / "o"),
                   "--sigmas", "0.2,0.1", "--t", "1.5")
    assert proc.returncode == 3
    assert error_payload(proc)["kind"] == "NearBlowup"


def test_solve_characteristics_past_blowup_exits_3(tmp_path):
    proc = run_cli("solve", "--config", str(BURGERS),
                   "--out", str(tmp_path / "o"),
                   "--method", "characteristics", "--t", "1.5")
    assert proc.returncode == 3
    assert error_payload(proc)["kind"] == "NearBlowup"


def test_solve_quadrature_at_unlisted_time(tmp_path):
    out = tmp_path / "o"
    proc = run_cli("solve", "--config", str(BURGERS), "--out", str(out),
                   "--method", "quadrature", "--t", "0.33")
    assert proc.returncode == 0, proc.stderr
    for which in ("rho", "u", "a"):
        rows = (out / f"fields_sigma_t0_{which}.csv").read_text().splitlines()[1:]
        assert len(rows) == 41
        assert all(row.split(",")[0] == f"{0.33:.12e}" for row in rows)


def test_solve_quadrature_writes_field_grids(tmp_path):
    out = tmp_path / "run"
    proc = run_cli("solve", "--config", str(BURGERS), "--out", str(out),
                   "--method", "quadrature", "--t", "0.5")
    assert proc.returncode == 0, proc.stderr
    for which in ("rho", "u", "a"):
        lines = (out / f"fields_sigma_t0_{which}.csv").read_text().splitlines()
        assert lines[0] == "t,x1,value,valid"
        assert len(lines) == 42


def test_solve_characteristics_at_t0_returns_initial_profile(tmp_path):
    out = tmp_path / "run"
    proc = run_cli("solve", "--config", str(BURGERS), "--out", str(out),
                   "--method", "characteristics", "--t", "0")
    assert proc.returncode == 0, proc.stderr
    rows = (out / "fields_char_t0_u.csv").read_text().splitlines()[1:]
    for row in rows:
        cells = row.split(",")
        assert float(cells[2]) == pytest.approx(math.sin(float(cells[1])),
                                                abs=1e-12)


def test_montecarlo_solve_is_byte_deterministic(tmp_path):
    args = ("solve", "--config", str(BURGERS), "--method", "montecarlo",
            "--t", "0.5", "--particles", "20000", "--dump-particles")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli(*args, "--out", str(out1)).returncode == 0
    assert run_cli(*args, "--out", str(out2)).returncode == 0
    for name in ("fields_mc_t0_rho.csv", "fields_mc_t0_u.csv",
                 "particles_t0.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    m1 = json.loads((out1 / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    assert m1["outputs"] == m2["outputs"]


def test_seed_override_changes_samples(tmp_path):
    base = ("solve", "--config", str(BURGERS), "--method", "montecarlo",
            "--t", "0.5", "--particles", "5000")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli(*base, "--out", str(out1)).returncode == 0
    assert run_cli(*base, "--out", str(out2), "--seed", "7").returncode == 0
    a = (out1 / "fields_mc_t0_rho.csv").read_bytes()
    b = (out2 / "fields_mc_t0_rho.csv").read_bytes()
    assert a != b


def test_converge_table_decreases(tmp_path):
    out = tmp_path / "run"
    proc = run_cli("converge", "--config", str(BURGERS), "--out", str(out),
                   "--sigmas", "0.2,0.1", "--t", "0.5")
    assert proc.returncode == 0, proc.stderr
    lines = (out / "convergence.csv").read_text().splitlines()
    assert lines[0] == "sigma,max_err_u,max_err_a,max_err_rho"
    rows = [list(map(float, ln.split(","))) for ln in lines[1:]]
    assert rows[0][0] == 0.2 and rows[1][0] == 0.1
    assert rows[1][1] < rows[0][1]


def test_converge_rejects_bad_noise_ladder(tmp_path, capsys):
    """Negative, increasing, NaN and empty ladders exit 2 on both
    subcommands that run a noise ladder, and so do I terms at t = 0."""
    for command, sigmas in itertools.product(("converge", "iterms"),
                                             ("-0.1,0.05", "0.05,0.1", "nan", ",")):
        code, err = run_main(capsys, command, "--config", str(BURGERS),
                             "--out", str(tmp_path / "o"),
                             f"--sigmas={sigmas}", "--t", "0.5")
        assert code == 2, (command, sigmas)
        assert err["kind"] == ("ConfigError" if sigmas == "," else "ValueError")
    code, err = run_main(capsys, "iterms", "--config", str(BURGERS),
                         "--out", str(tmp_path / "o"), "--sigmas", "0.2,0.1", "--t", "0")
    assert code == 2
    assert err["message"] == "i_term_persistence requires t > 0"


def test_converge_refused_at_a_later_sigma_leaves_no_table(tmp_path, capsys):
    """sigma = 1 reaches every grid point, sigma = 0.05 leaves x = -8
    without kernel mass: the run exits 3 before convergence.csv is
    opened, rather than leaving the sigma = 1 row behind."""
    config = tmp_path / "narrow.json"
    config.write_text(json.dumps({
        "n": 1, "a": ["u"], "u0": "0.5", "rho0": "exp(-10*x1^2)", "sigma": 0.1,
        "box": [[-8.0, 8.0]], "space_grid": [17], "time_points": [0.5]}))
    out = tmp_path / "o"
    code, err = run_main(capsys, "converge", "--config", str(config), "--out", str(out),
                         "--sigmas", "1.0,0.05", "--t", "0.5")
    assert code == 3
    assert err == {"kind": "EmptyKernelSupport",
                   "message": "no kernel mass at t=0.5, x=[-8.0]"}
    assert not (out / "convergence.csv").exists()



def test_solve_refused_at_a_later_time_leaves_no_fields(tmp_path, capsys):
    """t = 1e-320 makes the kernel degenerate: the run exits 3 before
    any field file is written, rather than leaving the t = 0.5 grids
    behind."""
    config = tmp_path / "narrow.json"
    config.write_text(json.dumps({
        "n": 1, "a": ["u"], "u0": "0.5", "rho0": "exp(-10*x1^2)", "sigma": 0.1,
        "box": [[-8.0, 8.0]], "space_grid": [17], "time_points": [0.5]}))
    out = tmp_path / "o"
    code, err = run_main(capsys, "solve", "--config", str(config), "--out", str(out),
                         "--method", "quadrature", "--t", "0.5", "--t", "1e-320")
    assert code == 3
    assert err["kind"] == "DegenerateKernel"
    assert not out.exists()


@pytest.mark.parametrize("u0, message", [
    ("sin(é)", "illegal character 'é' (at offset 4)"),
    ("1 + ٣", "illegal character '٣' (at offset 4)"),
    ("(" * 198 + "x1" + ")" * 198, "nested deeper than 100 levels (at offset 100)"),
    ("-" * 495 + "x1", "nested deeper than 100 levels (at offset 100)"),
    (" + ".join(["sin(x1)"] * 495), "nested deeper than 100 levels"),
], ids=["non-ascii-letter", "non-ascii-digit", "parentheses", "minus", "sum"])
def test_refused_expressions_exit_2(tmp_path, capsys, u0, message):
    """A character outside the ASCII alphabet, or an expression nested
    too deep, is a configuration error with the JSON error line, not a
    traceback, and leaves no output directory."""
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({
        "n": 1, "a": ["u"], "u0": u0, "rho0": "1", "sigma": 0.1,
        "box": [[-1.0, 1.0]], "space_grid": [5], "time_points": [0.1]}))
    out = tmp_path / "o"
    code, err = run_main(capsys, "blowup", "--config", str(config), "--out", str(out))
    assert code == 2
    assert err["kind"] == "SchemaError"
    assert err["message"].startswith("'u0': ") and err["message"].endswith(message)
    assert not out.exists()

@pytest.mark.parametrize("fields, kind, message", [
    ({"n": 2, "a": ["u", "t*u"]}, "SchemaError",
     "'a[1]': unknown variable 't' (at offset 0)"),
    ({"a_u": ["t"]}, "SchemaError", "'a_u[0]': unknown variable 't' (at offset 0)"),
    ({"A": ["t*u"]}, "SchemaError", "unknown configuration field(s): A"),
    ({"tolerances": {"quad_tol_time": 1e-10}}, "SchemaError",
     "unknown tolerance field(s): quad_tol_time"),
    ({"tolerances": {"blowup_tol": 1e-3}}, "SchemaError",
     "unknown tolerance field(s): blowup_tol"),
], ids=["t-in-a", "t-in-a_u", "A-key", "quad_tol_time", "blowup_tol"])
def test_time_dependent_velocity_refused_exit_2(tmp_path, capsys, fields, kind, message):
    """The velocity is a(u): a t in a or a_u, the closed-form ``A`` key
    and the time-quadrature and bisection tolerances are configuration
    errors with the JSON error line, naming the component, and leave no
    output directory."""
    cfg = {"n": 1, "a": ["u"], "u0": "sin(x1)", "rho0": "1", "sigma": 0.1,
           "box": [[-1.0, 1.0]], "space_grid": [5], "time_points": [0.1]}
    cfg.update(fields)
    cfg.update(box=cfg["box"] * cfg["n"], space_grid=cfg["space_grid"] * cfg["n"])
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    code, err = run_main(capsys, "blowup", "--config", str(config), "--out", str(out))
    assert code == 2
    assert (err["kind"], err["message"]) == (kind, message)
    assert not out.exists()


def test_residuals_table_with_ratios(tmp_path):
    out = tmp_path / "run"
    proc = run_cli("residuals", "--config", str(BURGERS), "--out", str(out),
                   "--system", "sigma", "--window", "0.3", "0.5",
                   "--resolutions", "0.08:0.032", "0.04:0.016")
    assert proc.returncode == 0, proc.stderr
    lines = (out / "residuals.csv").read_text().splitlines()
    assert lines[0] == "equation,h,dt,max_residual,l1_residual,ratio"
    assert len(lines) == 7
    coarse = [ln for ln in lines[1:4]]
    fine = [ln for ln in lines[4:]]
    assert all(ln.endswith(",") for ln in coarse)
    for ln in fine:
        ratio = float(ln.split(",")[-1])
        assert 2.5 <= ratio <= 6.0


def test_iterms_table(tmp_path):
    out = tmp_path / "run"
    proc = run_cli("iterms", "--config", str(BURGERS), "--out", str(out),
                   "--sigmas", "0.2,0.1", "--t", "0.5")
    assert proc.returncode == 0, proc.stderr
    lines = (out / "iterms.csv").read_text().splitlines()
    assert lines[0] == "sigma,I_u_sup,I_a_sup_1"
    vals = [list(map(float, ln.split(","))) for ln in lines[1:]]
    assert vals[0][1] > vals[1][1] > 0.0


def run_main(capsys, *args):
    """``charstoch ARGS`` in this process: the exit code and the error
    payload of the last stderr line (argparse usage errors included)."""
    try:
        code = main(list(args))
    except SystemExit as e:
        code = e.code
    line = capsys.readouterr().err.strip().splitlines()[-1]
    return code, json.loads(line)["error"]


def test_bad_flag_values_exit_2(tmp_path, capsys):
    code, _ = run_main(capsys, "iterms", "--config", str(BURGERS),
                       "--out", str(tmp_path / "o"),
                       "--sigmas", "0.2,zebra", "--t", "0.5")
    assert code == 2
    code, _ = run_main(capsys, "residuals", "--config", str(BURGERS),
                       "--out", str(tmp_path / "o"),
                       "--system", "sigma", "--window", "0.3", "0.5",
                       "--resolutions", "0.08-0.032")
    assert code == 2
    code, _ = run_main(capsys, "blowup", "--config", str(BURGERS),
                       "--out", str(tmp_path / "o"), "--seed", "-1")
    assert code == 2
    for method in ("quadrature", "characteristics", "montecarlo"):
        code, err = run_main(capsys, "solve", "--config", str(BURGERS),
                             "--out", str(tmp_path / "o"), "--method", method,
                             "--t", "-0.3")
        assert code == 2
        assert "--t must be >= 0" in err["message"]
    for sub, t, extra in (("solve", "inf", ("--method", "quadrature")),
                          ("solve", "inf", ("--method", "montecarlo")),
                          ("converge", "nan", ("--sigmas", "0.2,0.1")),
                          ("converge", "-0.5", ("--sigmas", "0.2,0.1")),
                          ("iterms", "inf", ("--sigmas", "0.2,0.1")),
                          ("iterms", "nan", ("--sigmas", "0.2,0.1"))):
        out = tmp_path / f"{sub}_{t}"
        code, err = run_main(capsys, sub, "--config", str(BURGERS), "--out",
                             str(out), *extra, "--t", t)
        assert code == 2, (sub, t)
        assert "--t must be >= 0" in err["message"]
        assert not out.exists()
    for end in ("inf", "nan", "-inf"):
        out = tmp_path / f"residuals_{end}"
        code, err = run_main(capsys, "residuals", "--config", str(BURGERS),
                             "--out", str(out), "--system", "sigma",
                             "--window", "0.3", end, "--resolutions", "0.08:0.032")
        assert code == 2, end
        # argparse reads "-inf" as an option: a usage error, still in JSON
        want = "expected 2 arguments" if end == "-inf" else "--window ends must be finite"
        assert want in err["message"]
        assert not out.exists()
    for bad in (("--t", "-inf"), ("--method", "bogus")):
        out = tmp_path / "usage"
        code, err = run_main(capsys, "solve", "--config", str(BURGERS), "--out",
                             str(out), *(("--method", "quadrature")
                                         if bad[0] == "--t" else ()), *bad)
        assert code == 2, bad
        assert err["kind"] == "UsageError"
        assert f"argument {bad[0]}" in err["message"]
        assert not out.exists()


@pytest.mark.parametrize("args", [
    ("iterms", "--sigmas", "0.2,0.1", "--t", "0"),
    ("converge", "--sigmas=,", "--t", "0.5"),
    ("residuals", "--system", "sigma", "--window", "0.3", "0.5",
     "--resolutions", "0.1"),
    ("residuals", "--system", "sigma", "--window", "0.5", "0.3",
     "--resolutions", "0.08:0.032"),
    ("residuals", "--system", "pressureless", "--window", "-0.5", "0.2",
     "--resolutions", "0.1:0.05"),
    ("solve", "--method", "montecarlo", "--particles", "0"),
    ("solve", "--method", "montecarlo", "--particles", "1000", "--bandwidth", "-1"),
    ("converge", "--sigmas", "inf,0.1", "--t", "0.5"),
    ("iterms", "--sigmas", "inf", "--t", "0.5"),
], ids=["iterms-t0", "converge-empty-sigmas", "residuals-no-dt",
        "residuals-reversed-window", "residuals-pressureless-negative-t0",
        "solve-no-particles", "solve-negative-bandwidth",
        "converge-inf-sigma", "iterms-inf-sigma"])
def test_refused_arguments_leave_no_output_directory(tmp_path, capsys, args):
    """A subcommand that refuses its arguments exits 2 and leaves no
    output directory behind, however far in it finds them bad."""
    out = tmp_path / "o"
    code, _ = run_main(capsys, args[0], "--config", str(BURGERS), "--out", str(out),
                       *args[1:])
    assert code == 2
    assert not out.exists()


def test_each_command_frees_its_kernel_table(tmp_path, capsys, monkeypatch):
    """A command's kernel table ends with the command: the table slot is
    empty once ``main`` returns 0, 2 or 3 or raises, and no reference to
    a table built by ``solve --method quadrature``, in a run that ends
    well or one refused at a later time, outlives ``main``."""
    tables, build = [], representation._build_table

    def recording(spec, t):
        tables.append(weakref.ref(table := build(spec, t)))
        return table

    monkeypatch.setattr(representation, "_build_table", recording)
    assert main(["solve", "--config", str(BURGERS), "--out", str(tmp_path / "q"),
                 "--method", "quadrature", "--t", "0.5"]) == 0
    assert len(tables) == 1 and tables[0]() is None and not representation._slot
    config = tmp_path / "narrow.json"
    config.write_text(json.dumps({
        "n": 1, "a": ["u"], "u0": "0.5", "rho0": "exp(-10*x1^2)", "sigma": 0.1,
        "box": [[-8.0, 8.0]], "space_grid": [17], "time_points": [0.5]}))
    code, _ = run_main(capsys, "solve", "--config", str(config), "--out",
                       str(tmp_path / "o"), "--method", "quadrature", "--t", "0.5",
                       "--t", "1e-320")
    assert code == 3 and len(tables) == 2 and tables[1]() is None
    assert not representation._slot
    representation._table_for(load_problem(BURGERS.read_text()), 0.5)
    code, _ = run_main(capsys, "blowup", "--config", str(tmp_path / "nope.json"),
                       "--out", str(tmp_path / "b"))
    assert code == 2 and not representation._slot
    representation._table_for(load_problem(BURGERS.read_text()), 0.5)
    monkeypatch.setattr(cli, "blow_up_time", lambda spec: 1 / 0)
    with pytest.raises(ZeroDivisionError):
        main(["blowup", "--config", str(BURGERS), "--out", str(tmp_path / "z")])
    assert not representation._slot


def test_bandwidth_whose_square_underflows_exits_3(tmp_path, capsys):
    """--bandwidth 1e-200 squares to 0.0: a degenerate kernel, exit 3
    with the JSON error line, not a ZeroDivisionError traceback."""
    code, err = run_main(capsys, "solve", "--config", str(BURGERS), "--out",
                         str(tmp_path / "o"), "--method", "montecarlo",
                         "--particles", "1000", "--bandwidth", "1e-200", "--t", "0.5")
    assert code == 3
    assert err["kind"] == "DegenerateKernel"
    assert err["message"] == "bandwidth^2 = 0.000e+00 is below the representable kernel width"


@pytest.mark.parametrize("method", [["quadrature"], ["montecarlo", "--particles", "1000"]])
def test_sources_whose_span_overflows_exit_3(tmp_path, capsys, method):
    """At t = 1e308 the kernel sources of burgers_sin span more than the
    largest float: both kernel routes exit 3 with the JSON error line
    naming the axis, and leave no output directory."""
    out = tmp_path / "o"
    code, err = run_main(capsys, "solve", "--config", str(BURGERS), "--out", str(out),
                         "--method", *method, "--t", "1e308")
    assert code == 3
    assert err["kind"] == "NumericalError"
    assert "kernel sources on axis x1 span" in err["message"]
    assert not out.exists()
    # no NumPy overflow warning precedes the JSON line
    proc = run_cli("solve", "--config", str(BURGERS), "--out", str(out),
                   "--method", *method, "--t", "1e308")
    assert proc.stderr == json.dumps({"error": err}) + "\n"


def test_running_out_of_memory_exits_3(tmp_path, capsys):
    """10^15 particles ask for 7.1 PiB, past the 128 TiB of user
    address space a process is given by default, so the first allocation
    fails under any overcommit setting: exit 3 with kind MemoryError in
    the JSON error line, and no output directory."""
    out = tmp_path / "o"
    code, err = run_main(capsys, "solve", "--config", str(BURGERS), "--out", str(out),
                         "--method", "montecarlo", "--particles", str(10 ** 15),
                         "--t", "0.5")
    assert code == 3
    assert err["kind"] == "MemoryError"
    assert "Unable to allocate" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("res", ["0.08:1e-300", "0.08:nan", "0.08:inf",
                                 "nan:0.01", "inf:0.01", "0.08:1e290"])
def test_residuals_refuse_extreme_resolutions(tmp_path, capsys, res):
    """A non-finite or non-positive h or dt, or a step count that
    overflows or is past the cap (1e18 steps at 0.08:1e290), is a
    configuration error naming the resolution, before any output."""
    code = main(["residuals", "--config", str(BURGERS), "--out", str(tmp_path / "o"),
                 "--system", "sigma", "--window", "0.3", "1e308", "--resolutions", res])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
    assert err["kind"] == "ValueError"
    h, dt = (float(v) for v in res.split(":"))
    assert f"resolution ({h:g}, {dt:g})" in err["message"]
    assert not (tmp_path / "o").exists()


def assert_debug_lines(tmp_path, patterns: dict):
    """Each command ``args`` of ``patterns`` on burgers_sin prints a line
    matching its pattern on stderr under CHARSTOCH_LOG=debug and none
    without, and writes artifacts with the same bytes either way.  Each
    also reports, once, the tensor sample its problem's initial data was
    checked on and the wall time of the check."""
    loaded = r"initial data checked on a 200000 tensor sample in \d+\.\d{3} s"

    def run(args, out, log):
        env = {k: v for k, v in os.environ.items() if k != "CHARSTOCH_LOG"}
        if log:
            env["CHARSTOCH_LOG"] = "debug"
        proc = subprocess.run([sys.executable, "-m", "charstoch", args[0], "--config",
                               str(BURGERS), "--out", str(out), *args[1:]],
                              capture_output=True, text=True, cwd=ROOT, env=env)
        assert proc.returncode == 0, proc.stderr
        manifest = json.loads((out / "manifest.json").read_text())
        return proc.stderr, {o["path"]: o["sha256"] for o in manifest["outputs"]}

    for i, (args, pattern) in enumerate(patterns.items()):
        quiet_err, quiet = run(args, tmp_path / f"quiet{i}", log=False)
        debug_err, debug = run(args, tmp_path / f"debug{i}", log=True)
        assert re.search(pattern, debug_err), debug_err
        assert not re.search(pattern, quiet_err)
        assert len(re.findall(loaded, debug_err)) == 1, debug_err
        assert not re.search(loaded, quiet_err)
        assert debug == quiet and debug


def test_debug_log_times_table_builds_and_blowup_searches(tmp_path):
    """CHARSTOCH_LOG=debug reports each table build (nodes, wall time,
    and its rule: the stretch L, the order, the panel width in kernel
    widths, the panels per axis and the error target) and each blow-up
    search (grid points, chunks, refine evaluations, wall time) on
    stderr; the artifacts keep their bytes."""
    assert_debug_lines(tmp_path, {
        ("solve", "--method", "quadrature", "--t", "0.5"):
            r"kernel table at sigma=0\.1 t=0\.5: 784 nodes, 1 distinct columns, "
            r"\d+ bytes, built in \d+\.\d{3} s; stretch 1\.5, 16-node panels "
            r"3\.688 kernel widths wide, 49 panels per axis, error target 1\.35e-14",
        ("blowup",):
            r"blow-up search: 10000 grid points, 1 chunks, \d+ refine "
            r"evaluations in \d+\.\d{3} s",
    })


def test_debug_log_reports_each_kernel_sum_batch(tmp_path):
    """CHARSTOCH_LOG=debug reports each batch of kernel sums: the field
    moments of a grid and the I terms of each sigma, with the targets,
    the kept sources and the wall time; the artifacts keep their
    bytes."""
    assert_debug_lines(tmp_path, {
        ("solve", "--method", "quadrature", "--t", "0.5"):
            r"kernel moments: 41 targets, [1-9]\d* kept sources, 2 columns "
            r"in \d+\.\d{3} s",
        ("iterms", "--sigmas", "0.2,0.1", "--t", "0.5"):
            r"I terms at sigma=0\.2 t=0\.5: 41 targets, [1-9]\d* kept sources "
            r"in \d+\.\d{3} s(.|\n)*"
            r"I terms at sigma=0\.1 t=0\.5: 41 targets, [1-9]\d* kept sources "
            r"in \d+\.\d{3} s",
    })


def test_debug_log_reports_particle_ensembles(tmp_path, caplog):
    """Under debug, sample_initial and each evolve_exact log the particle
    count, whether the weights are one value, the bytes the ensemble
    holds (U of 8 N bytes and one float of weight, evolved or not) and
    the wall time; every draw of the initial positions y, by
    sample_initial, each estimate_fields and each particle dump, logs
    its count and seconds, and evolve_exact draws none; the artifacts
    keep their bytes."""
    count = 3_000
    args = ["solve", "--config", str(BURGERS), "--method", "montecarlo",
            "--particles", str(count), "--seed", "5", "--dump-particles"]

    def hashes(out):
        manifest = json.loads((out / "manifest.json").read_text())
        return {o["path"]: o["sha256"] for o in manifest["outputs"]}

    assert main([*args, "--out", str(tmp_path / "quiet")]) == 0
    assert not [r for r in caplog.records if r.name == "charstoch.montecarlo"]
    with caplog.at_level(logging.DEBUG, logger="charstoch.montecarlo"):
        assert main([*args, "--out", str(tmp_path / "debug")]) == 0
    lines = [r.getMessage() for r in caplog.records if r.name == "charstoch.montecarlo"]
    draws = [i for i, line in enumerate(lines) if line.startswith("particle positions")]
    for i in draws:
        assert re.fullmatch(rf"particle positions y drawn: {count} in "
                            rf"\d+\.\d{{3}} s", lines[i]), lines[i]
    # one draw to sample, then per time none to evolve, one to dump and
    # one to estimate
    assert draws == [0, 3, 4, 6, 7, 9, 10]
    whats = ["sampled"] + [f"evolved to t={t}" for t in (0.25, 0.5, 0.75)]
    lines = [line for i, line in enumerate(lines) if i not in draws]
    assert len(lines) == len(whats)
    for line, what in zip(lines, whats):
        assert re.fullmatch(rf"particles {what}: {count}, one-value weights, "
                            rf"{8 * count + 8} bytes in \d+\.\d{{3}} s", line), line
    assert hashes(tmp_path / "debug") == hashes(tmp_path / "quiet")
    assert len(hashes(tmp_path / "quiet")) == 9


def test_montecarlo_times_in_one_run_equal_one_run_each(tmp_path):
    """solve --method montecarlo at three times writes the field and
    particle files of three runs at one time each, byte for byte: each
    time's positions are drawn from the start of their streams, and no
    generator state passes from one time, its dump or its estimate, to
    the next."""
    args = ["solve", "--config", str(BURGERS), "--method", "montecarlo",
            "--particles", "70000", "--bandwidth", "0.05", "--dump-particles"]
    times = ("0", "0.5", "0.75")
    assert main([*args, "--out", str(tmp_path / "all"),
                 *(v for t in times for v in ("--t", t))]) == 0
    for j, t in enumerate(times):
        assert main([*args, "--out", str(tmp_path / t), "--t", t]) == 0
        for one, every in (("fields_mc_t0_rho.csv", f"fields_mc_t{j}_rho.csv"),
                           ("fields_mc_t0_u.csv", f"fields_mc_t{j}_u.csv"),
                           ("particles_t0.csv", f"particles_t{j}.csv")):
            assert ((tmp_path / t / one).read_bytes()
                    == (tmp_path / "all" / every).read_bytes()), every
