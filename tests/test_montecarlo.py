"""Particle transport: sampling, exact and Euler pushforward, KDE."""

import csv
import dataclasses
import json
import logging
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from charstoch import (
    DegenerateKernel,
    NumericalError,
    ParticleEnsemble,
    ZeroMass,
    estimate_fields,
    dump_ensemble,
    eval_u_sigma,
    evolve_exact,
    integrate_rho0,
    eval_rho_sigma,
    load_problem,
    sample_initial,
)
from charstoch.montecarlo import _KEY_EXACT, _KEY_INIT, _stream
from charstoch.problem import _BLOCK, displacement_components, space_axes, tensor_points
from charstoch.representation import _sources

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
BUMP2D = CONFIGS / "gaussian_bump_2d.json"


def make(**overrides):
    cfg = {
        "n": 1,
        "a": ["u"],
        "u0": "sin(x1)",
        "rho0": "1",
        "sigma": 0.1,
        "box": [[-2 * math.pi, 2 * math.pi]],
        "space_grid": [41],
        "time_points": [0.25, 0.5, 0.75],
        "rng_seed": 42,
    }
    cfg.update(overrides)
    return load_problem(json.dumps(cfg))


@pytest.fixture(scope="module")
def burgers():
    return make()


def test_weights_sum_to_quadrature_mass(burgers):
    ens = sample_initial(burgers, 10_000)
    assert ens.w.sum() == pytest.approx(integrate_rho0(burgers), rel=1e-12)


def test_labels_are_exact_initial_values(burgers):
    ens = sample_initial(burgers, 1000)
    np.testing.assert_array_equal(ens.U, burgers.init.u0_at(ens.y))
    np.testing.assert_array_equal(ens.X, ens.y)
    assert ens.t == 0.0


def test_sampling_is_seed_deterministic(burgers):
    a = sample_initial(burgers, 5000)
    b = sample_initial(burgers, 5000)
    np.testing.assert_array_equal(a.y, b.y)
    np.testing.assert_array_equal(a.w, b.w)
    other = dataclasses.replace(burgers, rng_seed=43)
    c = sample_initial(other, 5000)
    assert not np.array_equal(a.y, c.y)


def test_evolution_leaves_labels_and_weights_alone(burgers):
    ens = sample_initial(burgers, 2000)
    moved = evolve_exact(ens, burgers, 0.5)
    assert moved is not ens
    np.testing.assert_array_equal(moved.y, ens.y)
    np.testing.assert_array_equal(moved.U, ens.U)
    np.testing.assert_array_equal(moved.w, ens.w)
    assert moved.t == 0.5
    again = evolve_exact(ens, burgers, 0.5)
    np.testing.assert_array_equal(moved.X, again.X)


def test_weighted_position_mean_matches_law(burgers):
    """E[X] = E[y + t sin(y)] = 0 by symmetry of the box."""
    ens = evolve_exact(sample_initial(burgers, 200_000), burgers, 0.5)
    mean = float(np.sum(ens.w * ens.X[:, 0]) / np.sum(ens.w))
    sd = float(np.sqrt(np.sum(ens.w * ens.X[:, 0] ** 2) / np.sum(ens.w)))
    stderr = sd / math.sqrt(len(ens))
    assert abs(mean) <= 3.5 * stderr


def test_noise_variance_matches_sigma_squared_t():
    spec = make(a=["0"], sigma=0.3)
    ens = evolve_exact(sample_initial(spec, 1_000_000), spec, 0.5)
    jump = ens.X[:, 0] - ens.y[:, 0]
    assert float(np.var(jump)) == pytest.approx(0.09 * 0.5, rel=0.01)


def evolve_em(ens, spec, t, steps):
    """Euler-Maruyama reference for evolve_exact: the drift a(tau, U) is
    taken at the left end of each of ``steps`` equal steps, so the
    scheme's error is pure time-quadrature error of A."""
    rng = _stream(ens.seed, 0xE0777)
    dt = t / steps
    x = ens.y.astype(float)
    for m in range(steps):
        drift = np.stack(spec.velocity.a_values(m * dt, ens.U), axis=-1)
        z = rng.standard_normal((len(ens), spec.n))
        x += drift * dt + spec.sigma * math.sqrt(dt) * z
    return dataclasses.replace(ens, positions=x, t=float(t))


def test_single_euler_step_equals_exact_for_time_independent_drift():
    spec = make(sigma=0.0)
    ens = sample_initial(spec, 500)
    ex = evolve_exact(ens, spec, 0.7)
    em = evolve_em(ens, spec, 0.7, steps=1)
    np.testing.assert_array_equal(ex.X, em.X)


def test_euler_drift_error_halves_with_step_count():
    """For a = t u the Euler defect is exactly t^2 U / (2 M)."""
    spec = make(a=["t*u"], u0="0.5", sigma=0.0, box=[[-1.0, 1.0]],
                space_grid=[5], time_points=[1.0])
    ens = sample_initial(spec, 64)
    ex = evolve_exact(ens, spec, 1.0)
    errs = []
    for m in (2, 4, 8, 16):
        em = evolve_em(ens, spec, 1.0, steps=m)
        errs.append(float(np.max(np.abs(em.X - ex.X))))
        assert errs[-1] == pytest.approx(0.5 / (2 * m), rel=1e-10)
    ratios = [a / b for a, b in zip(errs, errs[1:])]
    assert all(r == pytest.approx(2.0, rel=1e-9) for r in ratios)


def test_evolve_exact_refuses_negative_time(burgers):
    ens = sample_initial(burgers, 10)
    with pytest.raises(ValueError):
        evolve_exact(ens, burgers, -0.1)


def test_kde_single_particle_peak(burgers):
    ens = ParticleEnsemble(U=np.array([0.25]), w=np.array([1.0]), t=0.5,
                           seed=0, box=((0.0, 0.0),),
                           positions=np.zeros((1, 1)))
    est = estimate_fields(ens, burgers, np.zeros((1, 1)), bandwidth=1.0)
    assert est.rho_hat[0] == pytest.approx((2 * math.pi) ** -0.5, rel=1e-12)
    assert est.u_hat[0] == 0.25
    assert est.valid[0]


def test_kde_far_point_is_invalid(burgers):
    ens = ParticleEnsemble(U=np.array([0.25]), w=np.array([1.0]), t=0.5,
                           seed=0, box=((0.0, 0.0),),
                           positions=np.zeros((1, 1)))
    # 500 is past where exp underflows; 0.1 is ten bandwidths away, past
    # the cutoff of kernel_cutoff = 8 bandwidths, so its mass is cut to 0
    est = estimate_fields(ens, burgers, np.array([[500.0], [0.1]]),
                          bandwidth=0.01)
    np.testing.assert_array_equal(est.rho_hat, [0.0, 0.0])
    assert not est.valid.any()
    assert np.isnan(est.u_hat).all()


def dense_kde(ens, pts, h, denom_floor):
    """Reference KDE: every particle against every target, the Gaussian
    zeroed past an exponent of 745."""
    rho, u = np.empty(len(pts)), np.full(len(pts), np.nan)
    for p, x in enumerate(pts):
        e = np.sum((ens.X - x) ** 2, axis=1) / (2.0 * h * h)
        wk = ens.w * np.where(e <= 745.0, np.exp(-np.minimum(e, 745.0)), 0.0)
        den = np.sum(wk)
        rho[p] = (2.0 * math.pi * h * h) ** (-pts.shape[1] / 2.0) * den
        if den >= denom_floor:
            u[p] = np.sum(wk * ens.U) / den
    return rho, u


def test_kde_matches_dense_gaussian_sum(burgers):
    bump2d = make(n=2, a=["u", "0.5*u"], u0="exp(-x1^2-x2^2)",
                  box=[[-3.0, 3.0], [-3.0, 3.0]], space_grid=[5, 5],
                  time_points=[0.3])
    cases = [(burgers, 20_000, 0.5, np.linspace(-6.0, 6.0, 13)[:, None],
              [[400.0]], 0.06),
             (bump2d, 2_000, 0.3, np.array([[0.0, 0.0], [1.0, -0.5]]),
              [[50.0, -50.0]], 0.2)]
    for spec, count, t, pts, far, h in cases:
        ens = evolve_exact(sample_initial(spec, count), spec, t)
        pts = np.vstack([pts, far])
        est = estimate_fields(ens, spec, pts, bandwidth=h)
        rho, u = dense_kde(ens, pts, h, spec.tol.denom_floor)
        np.testing.assert_allclose(est.rho_hat, rho, rtol=1e-13, atol=0)
        np.testing.assert_allclose(est.u_hat, u, rtol=1e-13, atol=0)
        np.testing.assert_array_equal(est.valid, ~np.isnan(u))
        assert est.rho_hat[-1] == 0.0 and not est.valid[-1]


def test_kde_equals_dense_sums_in_cell_order(burgers):
    bump2d = make(n=2, a=["u", "0.5*u"], u0="exp(-x1^2-x2^2)",
                  box=[[-3.0, 3.0], [-3.0, 3.0]], space_grid=[5, 5],
                  time_points=[0.3])
    cases = [(burgers, 20_000, 0.5, np.linspace(-6.0, 6.0, 13)[:, None],
              [[400.0]], 0.06),
             (bump2d, 2_000, 0.3, np.array([[0.0, 0.0], [1.0, -0.5]]),
              [[50.0, -50.0]], 0.2)]
    for spec, count, t, pts, far, h in cases:
        ens = evolve_exact(sample_initial(spec, count), spec, t)
        pts = np.vstack([pts, far])
        est = estimate_fields(ens, spec, pts, bandwidth=h)
        assert_cell_order_sums(est, ens, spec, pts, h)
        assert est.rho_hat[-1] == 0.0


def assert_cell_order_sums(est, ens, spec, pts, h):
    """The estimates equal dense sums over the sources as the estimator
    builds them: in their cell order, recovered through an index column,
    and cut where their e exceeds that object's cut."""
    src = _sources(list(ens.X.T), ens.w, [np.arange(len(ens), dtype=float)],
                   h * h, spec.tol.kernel_cutoff, 1.0)
    order = src.columns[0].astype(np.intp)
    X, w, U = ens.X[order], ens.w[order], ens.U[order]
    norm = (2.0 * math.pi * h * h) ** (-spec.n / 2.0)
    for p, x in enumerate(pts):
        e = np.zeros(len(X))
        for i in range(spec.n):
            d = X[:, i] - x[i]
            e += d * d
        e /= 2.0 * (h * h)
        keep = e <= src.cut
        wk = w[keep] * np.exp(-e[keep])
        den = float(np.sum(wk))
        assert est.rho_hat[p] == norm * den
        if den >= spec.tol.denom_floor:
            assert est.u_hat[p] == float(np.sum(wk * U[keep]) / den)
        else:
            assert np.isnan(est.u_hat[p]) and not est.valid[p]


def unit_particle_fields(spec, X, x, h, U=0.25):
    """Estimates at the targets x of unit-weight particles at X (1D)."""
    X = np.asarray(X, dtype=float)[:, None]
    ens = ParticleEnsemble(U=np.full(len(X), U), w=np.ones(len(X)), t=0.5,
                           seed=0, box=spec.box, positions=X)
    return estimate_fields(ens, spec, np.asarray(x, dtype=float)[:, None],
                           bandwidth=h)


def test_kde_cut_at_kernel_cutoff_bandwidths(burgers):
    """A particle 7.9 bandwidths from a target adds its one Gaussian term;
    one 8.1 bandwidths away (kernel_cutoff = 8) adds nothing."""
    h = 0.02
    assert burgers.tol.kernel_cutoff == 8.0
    x = 7.9 * h
    est = unit_particle_fields(burgers, [0.0, x + 8.1 * h], [x], h)
    d = 0.0 - x
    e = np.array([d * d / (2.0 * (h * h))])
    term = (2.0 * math.pi * h * h) ** -0.5 * float(np.exp(-e)[0])
    assert est.rho_hat[0] == term
    assert est.u_hat[0] == 0.25 and est.valid[0]
    # the nearer particle alone gives the same sums
    alone = unit_particle_fields(burgers, [0.0], [x], h)
    assert alone.rho_hat[0] == est.rho_hat[0]


def test_large_kernel_cutoff_restores_underflow_cut():
    """kernel_cutoff = 40 asks for e <= 800, past where exp underflows,
    so the sums run to e <= 745 and reach particles 38 bandwidths off."""
    spec = make(tolerances={"kernel_cutoff": 40})
    h = 0.06
    far = unit_particle_fields(spec, [0.0], [38.0 * h, 39.0 * h], h)
    assert far.rho_hat[0] > 0.0
    assert far.rho_hat[1] == 0.0 and not far.valid[1]
    ens = evolve_exact(sample_initial(spec, 20_000), spec, 0.5)
    pts = np.vstack([np.linspace(-6.0, 6.0, 13)[:, None], [[12.0]]])
    est = estimate_fields(ens, spec, pts, bandwidth=h)
    assert _sources(list(ens.X.T), ens.w, [], h * h, 40.0, 1.0).cut == 745.0
    assert_cell_order_sums(est, ens, spec, pts, h)


def test_tiny_bandwidth_cells_stay_bounded():
    spec = make(n=2, a=["u", "0.5*u"], u0="exp(-x1^2-x2^2)",
                box=[[-3.0, 3.0], [-3.0, 3.0]], space_grid=[5, 5],
                time_points=[0.3])
    ens = evolve_exact(sample_initial(spec, 5_000), spec, 0.3)
    cells = _sources(list(ens.X.T), ens.w, [ens.U], 1e-18, spec.tol.kernel_cutoff,
                     1.0)
    assert np.prod(cells.shape) <= len(ens)
    assert cells.starts.size == np.prod(cells.shape) + 1
    # three particles, the last particle along each axis, and an empty point
    pts = np.vstack([ens.X[:3], ens.X[np.argmax(ens.X, axis=0)], [[0.5, 0.5]]])
    est = estimate_fields(ens, spec, pts, bandwidth=1e-9)
    rho, u = dense_kde(ens, pts, 1e-9, spec.tol.denom_floor)
    np.testing.assert_array_equal(est.rho_hat, rho)
    np.testing.assert_array_equal(est.u_hat, u)
    assert est.valid[:5].all() and not est.valid[5]


def test_density_estimate_improves_with_particles(burgers):
    grid = np.linspace(-6.0, 6.0, 25)[:, None]
    rho_q = np.array([eval_rho_sigma(burgers, 0.5, x) for x in grid])
    dx = float(grid[1, 0] - grid[0, 0])
    l1 = []
    for n in (2_000, 20_000, 200_000):
        ens = evolve_exact(sample_initial(burgers, n), burgers, 0.5)
        est = estimate_fields(ens, burgers, grid, bandwidth=0.06)
        l1.append(float(np.sum(np.abs(est.rho_hat - rho_q)) * dx))
    inversions = sum(b >= a for a, b in zip(l1, l1[1:]))
    assert inversions <= 1
    assert l1[-1] < 0.5 * l1[0]


def test_particles_match_quadrature_fields_2d():
    """test_05's u bound on the 2D bump grid at t = 0.3.  With bandwidth
    0.05, max |u_hat - u_sigma| is 0.0068 at 10^6 particles (the
    bandwidth bias) and 0.0071 at the 300,000 used here; over seeds 1-8
    it ranges 0.0056-0.0119 at 300,000 and 0.0076-0.0176 at 100,000."""
    spec = load_problem(BUMP2D.read_text())
    pts = tensor_points(space_axes(spec))
    ens = evolve_exact(sample_initial(spec, 300_000), spec, 0.3)
    est = estimate_fields(ens, spec, pts, bandwidth=0.05)
    assert est.valid.all()
    assert float(np.max(np.abs(est.u_hat - eval_u_sigma(spec, 0.3, pts)))) <= 0.03


def test_estimate_validates_inputs(burgers):
    ens = sample_initial(burgers, 10)
    with pytest.raises(ValueError):
        estimate_fields(ens, burgers, np.zeros((3, 2)))
    for h in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            estimate_fields(ens, burgers, np.zeros((3, 1)), bandwidth=h)
    with pytest.raises(ValueError):
        sample_initial(burgers, 0)
    # points (..., n): a (2, 3, 1) batch equals the flat call
    ens = evolve_exact(sample_initial(burgers, 1_000), burgers, 0.5)
    pts = np.array([-3.0, -1.0, 0.0, 0.5, 2.0, 40.0]).reshape(2, 3, 1)
    flat = estimate_fields(ens, burgers, pts.reshape(6, 1), bandwidth=0.3)
    est = estimate_fields(ens, burgers, pts, bandwidth=0.3)
    assert flat.valid[:5].all() and not flat.valid[5]
    for got, want in zip(est, flat):
        assert got.shape == (2, 3)
        np.testing.assert_array_equal(got.reshape(6), want)


def test_bandwidth_whose_square_underflows_is_degenerate(burgers):
    """A bandwidth whose square is below 1e-300 is refused as a
    degenerate kernel, the rule a table applies to sigma^2 t: 1e-200
    squares to 0.0, by which the kernel norm cannot divide, and 1e-155
    to a subnormal.  1e-150 still estimates."""
    ens = evolve_exact(sample_initial(burgers, 1_000), burgers, 0.5)
    pts = np.array([[0.0], [40.0]])
    for h in (1e-200, 1e-155):
        with pytest.raises(DegenerateKernel, match=r"^bandwidth\^2 = .* kernel width$"):
            estimate_fields(ens, burgers, pts, bandwidth=h)
    est = estimate_fields(ens, burgers, pts, bandwidth=1e-150)
    assert np.array_equal(est.rho_hat, [0.0, 0.0]) and not est.valid.any()


def test_zero_density_raises():
    spec = make(rho0="0")
    with pytest.raises(ZeroMass):
        sample_initial(spec, 100)


def test_dump_ensemble_csv(tmp_path, burgers):
    ens = evolve_exact(sample_initial(burgers, 7), burgers, 0.25)
    path = tmp_path / "particles.csv"
    dump_ensemble(ens, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "y1,U,X1,w"
    assert len(lines) == 8
    cells = lines[3].split(",")
    assert float(cells[0]) == pytest.approx(ens.y[2, 0], rel=1e-12)
    assert float(cells[2]) == pytest.approx(ens.X[2, 0], rel=1e-12)
    assert all("e" in c for c in cells)


def dump_rows(ens, path):
    """Reference dump: one ``csv.writer`` row per particle."""
    y, X = ens.y, ens.X  # y is drawn on each read
    n = y.shape[1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"y{i + 1}" for i in range(n)] + ["U"]
                        + [f"X{i + 1}" for i in range(n)] + ["w"])
        for j in range(len(ens)):
            writer.writerow([f"{v:.12e}" for v in y[j]]
                            + [f"{ens.U[j]:.12e}"]
                            + [f"{v:.12e}" for v in X[j]]
                            + [f"{ens.w[j]:.12e}"])


def test_dump_ensemble_bytes_equal_row_writer(tmp_path, burgers):
    """More rows than one formatting chunk, in 1D and 2D, with signed
    zeros and non-finite values among them."""
    bump2d = make(n=2, a=["u", "0.5*u"], u0="exp(-x1^2-x2^2)",
                  box=[[-3.0, 3.0], [-3.0, 3.0]], space_grid=[5, 5],
                  time_points=[0.3])
    for spec in (burgers, bump2d):
        ens = evolve_exact(sample_initial(spec, 9_000), spec, 0.3)
        X = ens.X.copy()
        X[0, 0], X[1, -1], X[2, 0] = -0.0, np.nan, -np.inf
        ens = dataclasses.replace(ens, positions=X)
        dump_ensemble(ens, tmp_path / "fast.csv")
        dump_rows(ens, tmp_path / "rows.csv")
        got = (tmp_path / "fast.csv").read_bytes()
        assert got == (tmp_path / "rows.csv").read_bytes()
        assert got.count(b"\r\n") == len(ens) + 1
    empty = dataclasses.replace(ens, U=ens.U[:0], positions=ens.X[:0],
                                w=ens.w[:0])
    dump_ensemble(empty, tmp_path / "fast.csv")
    dump_rows(empty, tmp_path / "rows.csv")
    assert (tmp_path / "fast.csv").read_bytes() == b"y1,y2,U,X1,X2,w\r\n"
    assert (tmp_path / "rows.csv").read_bytes() == b"y1,y2,U,X1,X2,w\r\n"


def bump(**overrides):
    return make(n=2, a=["u", "0.5*u"], u0="exp(-x1^2-x2^2)",
                box=[[-3.0, 3.0], [-3.0, 3.0]], space_grid=[5, 5],
                time_points=[0.3], **overrides)


def weights_as_arrays(spec, y):
    """The weights formed per particle, as full arrays: rho0 at y times
    the box volume over N, rescaled to the quadrature mass."""
    w_raw = spec.init.rho0_at(y) * (spec.box_volume / len(y))
    return w_raw * (integrate_rho0(spec) / float(np.sum(w_raw)))


@pytest.mark.parametrize("count", [1, 7, 4_096, 100_003])
def test_constant_rho0_gives_one_value_weights(burgers, count):
    """A constant rho0 gives every particle the one weight it would get
    as a full array: a read-only (N,) view of one float, summing to
    exactly the sum of N copies of it, held as 8 bytes.  The ensemble
    holds U, and X once evolved; y is drawn when read."""
    ens = sample_initial(burgers, count)
    assert ens.w.shape == (count,) and ens.w.strides == (0,)
    assert not ens.w.flags.writeable
    assert np.array_equal(ens.w, weights_as_arrays(burgers, ens.y))
    assert np.sum(ens.w) == np.sum(np.full(count, ens.w[0]))
    assert ens.nbytes == ens.U.nbytes + 8
    moved = evolve_exact(ens, burgers, 0.5)
    assert moved.w is ens.w
    assert moved.nbytes == ens.nbytes + moved.X.nbytes


@pytest.mark.parametrize("dim", [1, 2])
def test_one_value_weights_estimate_as_a_full_array(burgers, dim):
    """The KDE of an ensemble with one-value weights equals, under ==,
    that of the same ensemble with the weights copied to a full array."""
    spec, count, t, h, pts = (
        (burgers, 20_000, 0.5, 0.06, np.linspace(-6.0, 6.0, 13)[:, None]),
        (bump(), 4_000, 0.3, 0.2, np.array([[0.0, 0.0], [1.0, -0.5]])))[dim - 1]
    pts = np.vstack([pts, np.full((1, dim), 50.0)])
    ens = evolve_exact(sample_initial(spec, count), spec, t)
    full = dataclasses.replace(ens, w=np.array(ens.w))
    assert ens.w.strides == (0,) and full.w.strides == (8,)
    got = estimate_fields(ens, spec, pts, bandwidth=h)
    want = estimate_fields(full, spec, pts, bandwidth=h)
    assert np.array_equal(got.rho_hat, want.rho_hat)
    assert np.array_equal(got.u_hat, want.u_hat, equal_nan=True)
    assert np.array_equal(got.valid, want.valid) and not got.valid[-1]


@pytest.mark.parametrize("dim", [1, 2])
def test_varying_rho0_keeps_per_particle_weights(burgers, dim, caplog):
    """A rho0 that varies gives a full, writable weight array, formed
    as before bit for bit, and the KDE on it equals dense sums in cell
    order; the debug line names the weights per-particle."""
    spec, h, pts = (
        (make(rho0="1 + 0.5*cos(x1)"), 0.06, np.linspace(-6.0, 6.0, 13)[:, None]),
        (bump(rho0="1 + 0.5*cos(x2)"), 0.2, np.array([[0.0, 0.0], [1.0, -0.5]])),
    )[dim - 1]
    with caplog.at_level(logging.DEBUG, logger="charstoch.montecarlo"):
        ens = sample_initial(spec, 5_000)
    assert ens.w.strides == (8,) and ens.w.flags.writeable
    assert np.array_equal(ens.w, weights_as_arrays(spec, ens.y))
    assert re.fullmatch(rf"particles sampled: 5000, per-particle weights, "
                        rf"{ens.nbytes} bytes in \d+\.\d{{3}} s",
                        caplog.records[-1].getMessage())
    ens = evolve_exact(ens, spec, 0.3)
    assert_cell_order_sums(estimate_fields(ens, spec, pts, bandwidth=h),
                           ens, spec, pts, h)


def test_sources_hold_one_value_weights_as_one_float(burgers, caplog):
    """_sources keeps one-value weights as a view of one float, counted
    as 8 bytes in ``nbytes`` (the view's own ``nbytes`` is 8 N), and the
    kernel-sources debug line reports that figure after the time the
    sort took."""
    ens = evolve_exact(sample_initial(burgers, 10_000), burgers, 0.5)
    h, cutoff = 0.05, burgers.tol.kernel_cutoff
    src = _sources(list(ens.X.T), ens.w, [ens.U], h * h, cutoff, 1.0)
    assert src.weights.shape == (len(ens),) and src.weights.strides == (0,)
    assert src.nbytes == (src.axes[0].nbytes + src.columns[0].nbytes + 8
                          + src.starts.nbytes)
    full = _sources(list(ens.X.T), np.array(ens.w), [ens.U], h * h, cutoff, 1.0)
    assert np.array_equal(full.weights, src.weights)
    assert full.nbytes == src.nbytes - 8 + 8 * len(ens)
    with caplog.at_level(logging.DEBUG, logger="charstoch.representation"):
        estimate_fields(ens, burgers, np.zeros((1, 1)), bandwidth=h)
    logged = [re.search(r"kernel sources: .*, sorted in \d+\.\d{3} s, (\d+) bytes$",
                        r.getMessage())
              for r in caplog.records]
    assert [int(m.group(1)) for m in logged if m] == [src.nbytes]


def route_peak(spec, t, h, count):
    """tracemalloc peak of sample_initial -> evolve_exact ->
    estimate_fields at ``count`` particles on ``spec``'s output grid,
    the evolved ensemble handed over to estimate_fields as
    ``solve --method montecarlo`` hands it."""
    pts = tensor_points(space_axes(spec))
    # the programs and rules the route compiles are built outside the window
    estimate_fields(evolve_exact(sample_initial(spec, 1_000), spec, t),
                    spec, pts, bandwidth=h)
    tracemalloc.start()
    try:
        estimate_fields(evolve_exact(sample_initial(spec, count), spec, t),
                        spec, pts, bandwidth=h)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_particle_route_peak():
    """On burgers_sin, sample_initial -> evolve_exact -> estimate_fields
    at 200,000 particles peaks at 4.01 times 8 N bytes under
    tracemalloc: in _sources the sort order, U, and the sorted X and U,
    X being freed once sorted.  With the ensemble held through the
    estimate it was 5.01; holding y as well, 6.00; with the one weight
    copied to every particle, in the ensemble and sorted, 8.00."""
    spec = load_problem((CONFIGS / "burgers_sin.json").read_text())
    count = 200_000
    assert route_peak(spec, 0.5, 0.02, count) < 4.1 * 8 * count


def test_particle_route_peak_2d():
    """On the 2D bump at t = 0.3, the same route at 200,000 particles
    peaks at 6.02 times 8 N bytes: U, X of two floats per particle, and
    in _sources the sort order and the sorted X and U.  With the
    ensemble held through the estimate and X in C order, so that
    sorting an axis first copied it, it was 7.02; holding y as well,
    9.00."""
    spec = load_problem(BUMP2D.read_text())
    count = 200_000
    assert route_peak(spec, 0.3, 0.05, count) < 6.1 * 8 * count


def test_particle_route_peak_at_a_million():
    """On burgers_sin the route at 10^6 particles peaks at 3.52 times
    8 N bytes under tracemalloc: U, X, the sorted X and a cell order of
    4 bytes per particle, built and read a block at a time.  With an
    int64 order from one global argsort it was 4.00."""
    spec = load_problem((CONFIGS / "burgers_sin.json").read_text())
    count = 1_000_000
    assert route_peak(spec, 0.5, 0.02, count) < 3.55 * 8 * count


def test_particle_route_peak_2d_at_a_million():
    """On the 2D bump at t = 0.3 the route at 10^6 particles peaks at
    5.52 times 8 N bytes: U, X of two floats per particle, the sorted X
    and U and the 4-byte cell order.  With an int64 order it was 6.00."""
    spec = load_problem(BUMP2D.read_text())
    count = 1_000_000
    assert route_peak(spec, 0.3, 0.05, count) < 5.55 * 8 * count


@pytest.mark.parametrize("case", ["1d", "1d-varying-rho0", "2d"])
@pytest.mark.parametrize("t", [0.0, 0.3])
def test_estimate_from_held_ensemble_equals_handed_over(case, t):
    """A caller that keeps the ensemble gets the estimate of one that
    hands it over, and its U, w and X are left as they were."""
    spec = {"1d": make(), "1d-varying-rho0": make(rho0="1 + 0.5*cos(x1)"),
            "2d": bump()}[case]
    pts = tensor_points(space_axes(spec))

    def ensemble():
        ens = sample_initial(spec, 20_000)
        return evolve_exact(ens, spec, t) if t > 0 else ens

    ens = ensemble()
    U, w, X = ens.U.copy(), ens.w.copy(), ens.X.copy()
    held = estimate_fields(ens, spec, pts, bandwidth=0.1)
    handed = estimate_fields(ensemble(), spec, pts, bandwidth=0.1)
    assert np.all(held.rho_hat == handed.rho_hat)
    assert np.all(held.valid == handed.valid)
    assert np.array_equal(held.u_hat, handed.u_hat, equal_nan=True)
    assert np.all(ens.U == U) and np.all(ens.w == w) and np.all(ens.X == X)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_evolved_positions_are_contiguous_per_axis(n):
    """evolve_exact holds X in Fortran order, so each axis X[:, k], which
    _sources sorts, is one contiguous array."""
    spec = make(n=n, a=["u"] * n, u0="exp(-x1^2)", box=[[-3.0, 3.0]] * n,
                space_grid=[3] * n, time_points=[0.3])
    moved = evolve_exact(sample_initial(spec, 1_000), spec, 0.3)
    assert all(x.flags.c_contiguous for x in moved.X.T)


def one_draw(spec, count, t):
    """Reference: y, U, X at t and w as one (N, n) draw of each stream
    gives them, with the arithmetic of whole arrays."""
    lo = np.array([b[0] for b in spec.box])
    hi = np.array([b[1] for b in spec.box])
    y = lo + (hi - lo) * _stream(spec.rng_seed, _KEY_INIT).random((count, spec.n))
    U = spec.init.u0_at(y)
    drift = np.stack(displacement_components(spec, t, U), axis=-1)
    z = _stream(spec.rng_seed, _KEY_EXACT).standard_normal((count, spec.n))
    X = drift + y + spec.sigma * math.sqrt(t) * z
    w = np.broadcast_to(weights_as_arrays(spec, y), count)
    return y, U, X, w


@pytest.mark.parametrize("case", ["1d", "1d-varying-rho0", "2d", "3d-varying-rho0"])
@pytest.mark.parametrize("count", [1, _BLOCK, _BLOCK + 1, 100_003])
def test_positions_redrawn_in_blocks_equal_one_draw(tmp_path, case, count):
    """y is drawn again wherever it is read, a block of rows at a time:
    y, U, w, X at t = 0 and at t > 0, and the dumps at both, equal those
    of one draw of every position, bit for bit."""
    spec, t = {
        "1d": (make(), 0.5),
        "1d-varying-rho0": (make(rho0="1 + 0.5*cos(x1)"), 0.5),
        "2d": (bump(), 0.3),
        "3d-varying-rho0": (make(n=3, a=["u", "t*u", "0.5*u"],
                                 u0="exp(-x1^2-x2^2-x3^2)",
                                 rho0="1 + x3^2*exp(-x1^2)",
                                 box=[[-3.0, 3.0], [-2.0, 2.0], [-1.0, 1.5]],
                                 space_grid=[3, 3, 3], time_points=[0.3],
                                 tolerances={"nodes_per_panel": 2}), 0.3),
    }[case]
    y, U, X, w = one_draw(spec, count, t)
    ens = sample_initial(spec, count)
    moved = evolve_exact(ens, spec, t)
    for got in (ens, moved):
        assert np.array_equal(got.y, y) and np.array_equal(got.U, U)
        assert np.array_equal(got.w, w)
    assert np.array_equal(ens.X, y) and np.array_equal(moved.X, X)
    # the one draw's arrays as dump_ensemble formats them, in one call
    # (test_dump_ensemble_bytes_equal_row_writer ties that to csv.writer)
    names = [f"y{i + 1}" for i in range(spec.n)] + ["U"] \
        + [f"X{i + 1}" for i in range(spec.n)] + ["w"]
    row = ",".join(["%.12e"] * len(names)) + "\r\n"
    for got, at_t in ((ens, y), (moved, X)):
        want = (",".join(names) + "\r\n" + (row * count) % tuple(
            np.column_stack([y, U, at_t, w]).ravel().tolist())).encode()
        dump_ensemble(got, tmp_path / "blocks.csv")
        assert (tmp_path / "blocks.csv").read_bytes() == want


def test_particles_whose_span_overflows_are_refused(burgers):
    """At t = 1e308 the particles spread over more than the largest
    float: the estimator's sort raises NumericalError naming the axis."""
    ens = evolve_exact(sample_initial(burgers, 1000), burgers, 1e308)
    with pytest.raises(NumericalError, match="axis x1"):
        estimate_fields(ens, burgers, np.array([[0.0]]))
