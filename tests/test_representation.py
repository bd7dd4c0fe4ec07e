"""Smoothed-field quadrature: kernels, moments, grids, mass."""

import dataclasses
import json
import logging
import math
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from charstoch import (
    DegenerateKernel,
    EmptyKernelSupport,
    NumericalError,
    eval_I_a_sigma,
    eval_I_u_sigma,
    eval_a_sigma,
    eval_field_grid,
    eval_rho_sigma,
    eval_u_sigma,
    integrate_rho0,
    integrate_rho_sigma,
    load_problem,
)
from charstoch import balance, representation
from charstoch.problem import (_CSV_ROWS, axis_views, displacement_components,
                               space_axes, tensor_points)
from charstoch.representation import (_NODE_BUDGET, FieldGrid, _build_table,
                                      _gather, _gaussian_pass, _kernel_means, _sources,
                                      _stretch, _NodeWeights, _table_for, _tabulate,
                                      quadrature_grid)
from test_balance import count_passes, eval_I_u_sigma_assembled
from test_problem import CSV_CELLS

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
    }
    cfg.update(overrides)
    return load_problem(json.dumps(cfg))


@pytest.fixture(scope="module")
def burgers():
    return make()


def test_quadrature_weights_sum_to_volume():
    grid = quadrature_grid([(-1.5, 2.5), (0.0, 3.0)], scale=0.3)
    assert np.sum(grid.weights) == pytest.approx(4.0 * 3.0, rel=1e-12)


def test_quadrature_exact_for_smooth_integrand():
    grid = quadrature_grid([(-2.0, 2.0)], scale=0.25)
    got = float(np.sum(grid.weights * np.exp(-tensor_points(grid.axis_nodes)[:, 0] ** 2)))
    assert got == pytest.approx(math.sqrt(math.pi) * math.erf(2.0), rel=1e-13)


def test_t0_fields_reduce_to_initial_data(burgers):
    x = np.array([0.7])
    assert eval_rho_sigma(burgers, 0.0, x) == 1.0
    assert eval_u_sigma(burgers, 0.0, x) == math.sin(0.7)
    np.testing.assert_array_equal(eval_a_sigma(burgers, 0.0, x),
                                  [math.sin(0.7)])


def test_gaussian_convolution_closed_form():
    """a = 0 makes rho_sigma an exact Gaussian convolution."""
    spec = make(a=["0"], rho0="exp(-x1^2)", u0="1", box=[[-8.0, 8.0]],
                sigma=0.4, time_points=[0.5, 1.25])
    for t in (0.5, 1.25):
        s2t = spec.sigma ** 2 * t
        for x in np.linspace(-2.0, 2.0, 10):
            want = (1.0 + 2.0 * s2t) ** -0.5 * math.exp(-x * x / (1.0 + 2.0 * s2t))
            got = eval_rho_sigma(spec, t, np.array([x]))
            assert got == pytest.approx(want, abs=1e-8)


def test_gaussian_ratio_identity():
    spec = make(a=["0"], u0="exp(-x1^2)", rho0="1", box=[[-8.0, 8.0]],
                sigma=1.0, time_points=[0.5])
    got = eval_u_sigma(spec, 0.5, np.array([0.0]))
    assert got == pytest.approx(2.0 ** -0.5, abs=1e-6)


def test_u_sigma_stays_in_initial_range(burgers):
    for t in (0.25, 0.5, 0.75):
        for x in np.linspace(-6.0, 6.0, 25):
            u = eval_u_sigma(burgers, t, np.array([x]))
            assert -1.0 - 1e-9 <= u <= 1.0 + 1e-9


def test_mass_conserved(burgers):
    m0 = integrate_rho0(burgers)
    assert m0 == pytest.approx(4 * math.pi, rel=1e-12)
    for t in (0.25, 0.75):
        m = integrate_rho_sigma(burgers, t)
        assert abs(m - m0) / m0 <= 1e-3


def test_mass_leaks_without_domain_margin(burgers):
    """Restricting the integral to the original box must lose mass."""
    m0 = integrate_rho0(burgers)
    clipped = integrate_rho_sigma(burgers, 0.75, margin=0.0)
    assert clipped < m0 - 1e-4


def dense_rho0_mass(spec):
    """Reference for integrate_rho0: ``np.sum`` of one array of every
    node's tensor weight times rho0, in node order."""
    scale = min(hi - lo for lo, hi in spec.box) / 64.0
    grid = quadrature_grid(spec.box, scale,
                           nodes_per_panel=spec.tol.nodes_per_panel)
    w = grid.weights.reshape(tuple(len(x) for x in grid.axis_nodes))
    w *= spec.init.on_columns(spec.init.rho0_program, axis_views(grid.axis_nodes))[0]
    return float(np.sum(w.ravel()))


def gaussian_bump(n, **overrides):
    return make(n=n, a=["u"] * n, u0="exp(-" + "-".join(
        f"x{i + 1}^2" for i in range(n)) + ")", space_grid=[3] * n,
        time_points=[0.3], **overrides)


@pytest.mark.parametrize("spec", [
    make(), make(rho0="1 + 0.5*cos(x1)", box=[[-2.0, 3.0]]),
    gaussian_bump(2, box=[[-3.0, 3.0], [-1.0, 2.5]]),
    gaussian_bump(2, box=[[-3.0, 3.0], [-1.0, 2.5]],
                  rho0="(1 + 0.5*cos(x2))*x1^2"),
    gaussian_bump(2, box=[[-3.0, 3.0], [-3.0, 3.0]], rho0="exp(-x1^2-x2^2)"),
    gaussian_bump(3, box=[[-3.0, 3.0], [-2.0, 2.0], [-1.0, 1.5]],
         tolerances={"nodes_per_panel": 2}),
    gaussian_bump(3, box=[[-3.0, 3.0], [-2.0, 2.0], [-1.0, 1.5]],
         rho0="exp(-x1^2)*(1 + x2^2) + x3^2", tolerances={"nodes_per_panel": 3}),
], ids=["1d", "1d-varying", "2d", "2d-varying", "2d-bump-rho0", "3d",
        "3d-varying"])
def test_rho0_mass_equals_dense_sum(spec):
    """integrate_rho0 sums blocks of rows in NumPy's pairwise order, so
    it gives the float of the dense sum, in 1D, in 2D and 3D boxes of
    unequal sides, with rho0 constant and varying."""
    assert integrate_rho0(spec) == dense_rho0_mass(spec)


def test_rho0_mass_peak_3d():
    """On the 3D bump, 512^3 nodes, integrate_rho0 gives the dense sum's
    216.00000000000003 and peaks at 0.66 MiB under tracemalloc; the
    array of every node's weight alone was 1 GiB."""
    spec = gaussian_bump(3, box=[[-3.0, 3.0]] * 3)
    integrate_rho0(make())  # the rule's compiled pieces outside the window
    tracemalloc.start()
    try:
        mass = integrate_rho0(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mass == 216.00000000000003
    assert peak < 2**20


def test_translation_covariance():
    base = make(u0="exp(-x1^2)", rho0="exp(-x1^2)", box=[[-5.0, 5.0]])
    c = 1.5
    shifted = make(u0="exp(-(x1-1.5)^2)", rho0="exp(-(x1-1.5)^2)",
                   box=[[-5.0 + c, 5.0 + c]])
    for x in np.linspace(-1.0, 1.0, 5):
        u1 = eval_u_sigma(base, 0.5, np.array([x]))
        u2 = eval_u_sigma(shifted, 0.5, np.array([x + c]))
        assert u2 == pytest.approx(u1, abs=1e-10)
        r1 = eval_rho_sigma(base, 0.5, np.array([x]))
        r2 = eval_rho_sigma(shifted, 0.5, np.array([x + c]))
        assert r2 == pytest.approx(r1, abs=1e-10)


def test_empty_kernel_support_far_from_mass():
    spec = make(rho0="exp(-400*x1^2)", box=[[-8.0, 8.0]], sigma=0.05,
                time_points=[0.1])
    x = np.array([6.0])
    assert eval_rho_sigma(spec, 0.1, x) == 0.0
    with pytest.raises(EmptyKernelSupport) as ei:
        eval_u_sigma(spec, 0.1, x)
    assert "t=0.1" in str(ei.value) and "6.0" in str(ei.value)


def test_zero_sigma_kernel_is_degenerate(burgers):
    spec = burgers.with_sigma(0.0)
    with pytest.raises(DegenerateKernel):
        eval_rho_sigma(spec, 0.5, np.array([0.0]))


def test_field_grid_matches_pointwise_bitwise(burgers):
    grid = eval_field_grid(burgers, 0.5, "u")
    xs = grid.axes[0]
    for i in (0, 10, 20, 40):
        assert grid.values[i] == eval_u_sigma(burgers, 0.5, np.array([xs[i]]))
    assert grid.valid.all()


def test_field_grid_matches_pointwise_bitwise_2d():
    spec = load_problem(BUMP2D.read_text())
    evaluators = {"rho": eval_rho_sigma, "u": eval_u_sigma, "a": eval_a_sigma}
    for which, evaluate in evaluators.items():
        grid = eval_field_grid(spec, 0.3, which)
        assert grid.valid.all()
        for i, j in ((0, 0), (0, 5), (5, 5)):  # corner, edge, centre
            x = np.array([grid.axes[0][i], grid.axes[1][j]])
            np.testing.assert_array_equal(grid.values[i, j],
                                          evaluate(spec, 0.3, x))
        # the whole 11 x 11 grid as one batch (..., 2)
        pts = np.stack(np.meshgrid(*grid.axes, indexing="ij"), axis=-1)
        np.testing.assert_array_equal(evaluate(spec, 0.3, pts), grid.values)
    pts = pts.reshape(-1, 2)
    for evaluate in (eval_I_u_sigma, eval_I_a_sigma, eval_I_u_sigma_assembled):
        batch = evaluate(spec, 0.3, pts)
        for p, x in enumerate(pts):
            np.testing.assert_array_equal(batch[p], evaluate(spec, 0.3, x))


def test_field_grid_flags_points_without_kernel_mass():
    """rho0 so narrow that at t = 0.1 only grid points 7-9 of 17 see
    kernel mass above the denominator floor: u and a are NaN and
    invalid elsewhere, and equal the pointwise evaluators bit for bit
    where valid; rho is valid everywhere."""
    spec = make(rho0="exp(-400*x1^2)", box=[[-8.0, 8.0]], sigma=0.05,
                space_grid=[17], time_points=[0.1])
    inside = np.zeros(17, dtype=bool)
    inside[7:10] = True
    for which, evaluate in (("u", eval_u_sigma), ("a", eval_a_sigma)):
        grid = eval_field_grid(spec, 0.1, which)
        np.testing.assert_array_equal(grid.valid, inside)
        assert np.all(np.isnan(grid.values[~inside]))
        assert np.all(np.isfinite(grid.values[inside]))
        for i in np.flatnonzero(inside):
            x = np.array([grid.axes[0][i]])
            assert np.all(grid.values[i] == evaluate(spec, 0.1, x))
    rho = eval_field_grid(spec, 0.1, "rho")
    assert rho.valid.all() and np.all(np.isfinite(rho.values))


def dense_pass(centers, weights, x, var, cut):
    """Reference Gaussian pass: every source against the target."""
    e = np.zeros(centers.shape[0])
    for i in range(centers.shape[1]):
        d = centers[:, i] - x[i]
        e += d * d
    e /= 2.0 * var
    idx = np.nonzero(e <= cut)[0]
    return idx, weights[idx] * np.exp(-e[idx])


def edge_targets(cells) -> np.ndarray:
    """Targets at the edges of the cell grid, one axis at a time, the
    other coordinates at the middle of the bounding box: on that axis
    the cell index is exactly -1 and exactly ``shape`` (at both ends of
    each cell), one cell further out on either side, +-inf, NaN and
    +-1e308."""
    lo, width, shape = cells.lo.tolist(), cells.width, cells.shape.tolist()
    out = []
    for i, (l, s) in enumerate(zip(lo, shape)):
        middle = [m + 0.5 * s * width for m in lo]

        def last(k):
            """The largest coordinate whose cell index is k (the index
            is monotone in the coordinate)."""
            v = l + (k + 1) * width
            while math.floor((v - l) / width) > k:
                v = math.nextafter(v, -math.inf)
            return v

        ends = []
        for k in (-2, -1, s, s + 1):
            first = math.nextafter(last(k - 1), math.inf)
            assert math.floor((first - l) / width) == k
            assert math.floor((last(k) - l) / width) == k
            ends += [first, last(k)]
        for v in (*ends, math.inf, -math.inf, math.nan, 1e308, -1e308):
            x = list(middle)
            x[i] = v
            out.append(x)
    return np.array(out)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cell_pass_equals_dense_scan(n):
    rng = np.random.default_rng(10 + n)
    var, cutoff = 1.0, 2.0  # cutoff radius exactly 2, cut e <= 2
    # a unit lattice, so sources sit exactly one radius from lattice targets
    lattice = np.stack(np.meshgrid(*[np.arange(9.0)] * n, indexing="ij"),
                       axis=-1).reshape(-1, n)
    width = _sources(list(lattice.T), np.ones(len(lattice)), [], var, cutoff, 1.0).width
    assert width > 2.0
    faces = np.stack(np.meshgrid(*[np.arange(4) * width] * n, indexing="ij"),
                     axis=-1).reshape(-1, n)
    centers = np.vstack([lattice, faces, rng.uniform(0.0, 8.0, (600, n))])
    centers[7] = np.nan
    weights = rng.random(len(centers))
    # an index column recovers the cell order of the sources
    cells = _sources(list(centers.T), weights, [np.arange(len(centers), dtype=float)],
                     var, cutoff, 1.0)
    order = cells.columns[0].astype(np.intp)
    assert cells.cut == 2.0
    assert cells.width == width  # the face sources lie on cell boundaries
    # the NaN center is left out of the cell order, so it is never scanned
    assert 7 not in order
    assert len(order) == len(centers) - 1
    np.testing.assert_array_equal(np.sort(order),
                                  np.delete(np.arange(len(centers)), 7))
    assert np.array_equal(np.stack(cells.axes, axis=1), centers[order])
    assert all(ax.flags.c_contiguous for ax in cells.axes)
    assert np.array_equal(cells.weights, weights[order])
    # sources are in cell order; the dense reference scans them all
    ordered, ordered_w = centers[order], weights[order]
    far = np.full(n, 20.0)
    targets = np.vstack([lattice[::7], faces, faces + 2.0 * np.eye(n)[0],
                         rng.uniform(-4.0, 12.0, (40, n)),  # some outside
                         [-np.eye(n)[0], np.full(n, 9.0), far,
                          np.full(n, np.nan)]])
    # -e1 and (9, ..., 9) are outside the bounding box, within reach of it
    targets = np.vstack([targets, edge_targets(cells)])
    for x in targets:
        idx, wk = _gaussian_pass(cells, x)
        with np.errstate(over="ignore"):  # the reference squares 1e308
            ref_idx, ref_wk = dense_pass(ordered, ordered_w, x, var, cells.cut)
        np.testing.assert_array_equal(idx, ref_idx)
        np.testing.assert_array_equal(wk, ref_wk)
        assert np.sum(wk) == np.sum(ref_wk)
    for x in (far, np.full(n, np.nan)):
        assert _gaussian_pass(cells, x)[0].size == 0
    # the lattice source (2, 0, ..., 0) lies exactly one radius from the origin
    near = _gaussian_pass(cells, lattice[0])[0]
    assert 2 * 9 ** (n - 1) in order[near]


def test_kernel_means_equal_dense_sums_over_table():
    spec = load_problem(BUMP2D.read_text())
    table = _table_for(spec, 0.3)[0]
    centers = np.stack(table.axes, axis=1)
    assert np.all(np.isfinite(centers))
    # a = (u, u): one column, which u0 and both a_i read
    assert len(table.columns) == 1 and table.of == (0, 0, 0)
    u0v, *avals = (table.columns[j] for j in table.of)
    for x in ([0.0, 0.0], [1.3, -0.7], [2.9, 2.9], [-3.2, 0.2]):
        x = np.array(x)
        m_idx, m_wk, m_den, rows, means = _kernel_means(
            table, x, spec.tol.denom_floor)
        m_u, *m_a = (means[j] for j in table.of)
        idx, wk = dense_pass(centers, table.weights, x, table.var, table.cut)
        np.testing.assert_array_equal(m_idx, idx)
        np.testing.assert_array_equal(m_wk, wk)
        den = float(np.sum(wk))
        assert m_den == den
        assert m_u == float(np.sum(wk * u0v[idx]) / den)
        for i in range(2):
            assert m_a[i] == float(np.sum(wk * avals[i][idx]) / den)
        for row, column in zip(rows, table.columns):
            np.testing.assert_array_equal(row, column[idx])
        assert eval_rho_sigma(spec, 0.3, x) == table.norm * den


def cell_keys(centers, var, cutoff):
    """The cut, ``lo``, width and shape of the cells of centers given as
    rows (M, n), and each center's flat C-order cell key in the
    narrowest type, a non-finite center's being the cell count: the
    rule ``_sources`` documents, written out on whole arrays."""
    cut = min(0.5 * cutoff ** 2, 745.0)
    M, n = centers.shape
    ok = np.all(np.isfinite(centers), axis=1)
    count = int(np.count_nonzero(ok))
    lo, extent = np.zeros(n), np.zeros(n)
    if count:
        lo = np.array([np.min(c, where=ok, initial=np.inf) for c in centers.T])
        extent = np.array([np.max(c, where=ok, initial=-np.inf)
                           for c in centers.T]) - lo
    per_axis = max(1, int(count ** (1.0 / n)))
    width = max(math.sqrt(2.0 * var * cut) * (1.0 + 1e-9),
                float(np.max(extent)) / per_axis, np.finfo(float).tiny)
    shape = np.minimum(np.floor(extent / width) + 1, per_axis).astype(np.int64)
    cells = int(np.prod(shape))
    key = np.zeros(M, dtype=np.min_scalar_type(cells))
    for c, l, k_max in zip(centers.T, lo, shape):
        k = np.minimum(np.floor((c - l) / width), k_max - 1)
        k[~ok] = 0
        key = key * int(k_max) + k.astype(key.dtype)
    key[~ok] = cells
    return cut, lo, width, shape, key


def sources_from_rows(centers, weights, columns, var, cutoff, norm):
    """The kernel sources of centers given as rows (M, n), built the way
    ``_sources`` built them from rows: the bounding box is always a
    min and max masked to the finite centers.  Returns the fields of a
    ``_Sources`` as a dict."""
    cut, lo, width, shape, key = cell_keys(centers, var, cutoff)
    cells = int(np.prod(shape))
    starts = np.zeros(cells + 1, dtype=np.int64)
    np.cumsum(np.bincount(key, minlength=cells + 1)[:cells], out=starts[1:])
    order = np.argsort(key, kind="stable")[:starts[-1]]
    return {"axes": tuple(np.ascontiguousarray(c[order]) for c in centers.T),
            "weights": weights[order], "columns": tuple(c[order] for c in columns),
            "var": var, "cut": cut, "norm": norm, "lo": lo, "width": width,
            "shape": shape, "starts": starts}


def test_sources_whose_span_overflows_are_refused(burgers):
    """Centers whose span on an axis overflows to inf cannot be cut into
    cells: the sort raises NumericalError naming the axis, and so does
    the burgers table at t = 1e308, whose centers reach about +-1e308."""
    centers = [np.array([0.0, 1.0, 2.0]), np.array([-1e308, 0.0, 1e308])]
    with pytest.raises(NumericalError, match=r"axis x2 span \[-1e\+308, 1e\+308\]"):
        _sources(centers, np.ones(3), [np.zeros(3)], 1.0, 8.0, 1.0)
    with pytest.raises(NumericalError, match="axis x1"):
        eval_rho_sigma(burgers, 1e308, np.array([0.0]))


def assert_same_sources(got, want: dict):
    for name, value in want.items():
        mine = getattr(got, name)
        if isinstance(value, tuple):
            assert len(mine) == len(value), name
            for a, b in zip(mine, value):
                assert a.dtype == b.dtype and np.array_equal(a, b), name
        else:
            assert np.array_equal(mine, value), name
            assert np.asarray(mine).dtype == np.asarray(value).dtype, name


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sources_from_axes_equal_the_rows_form(n):
    """Per-axis centers give the sources of the rows form field by field,
    with a plain bounding box when every center is finite and a masked
    one when some are NaN or infinite."""
    rng = np.random.default_rng(30 + n)
    centers = rng.normal(0.0, 2.0, (4000, n))
    weights = rng.random(len(centers))
    index = np.arange(len(centers), dtype=float)
    masked = centers.copy()
    masked[[3, 50, 900], 0] = [np.nan, np.inf, -np.inf]
    masked[1234, n - 1] = np.nan
    for rows in (centers, masked, centers[:0]):
        for var, cutoff in ((0.04, 8.0), (1e-18, 8.0), (0.5, 40.0)):
            got = _sources(list(rows.T), weights[:len(rows)], [index[:len(rows)]],
                           var, cutoff, 1.5)
            want = sources_from_rows(rows, weights[:len(rows)],
                                     (index[:len(rows)],), var, cutoff, 1.5)
            assert_same_sources(got, want)
    assert len(_sources(list(masked.T), weights, [], 0.04, 8.0, 1.0).weights) \
        == len(centers) - 4


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cell_order_is_the_stable_argsort_of_the_cell_keys(n):
    """The cell order of ``_sources``, read through an index column, is
    the stable argsort of the flat cell keys formed here by the
    documented rule, cut to the finite centers: at 0 and 1 sources and
    about one sort block, with NaN and inf centers on block edges, with
    more than 255 cells (uint16 keys), and with a tiny bandwidth whose
    cells are as many as the sources (uint32 keys at 100,000)."""
    rng = np.random.default_rng(40 + n)
    block = 16_384  # the rows per block of the sort, _SORT_BLOCK
    cases = [(rng.normal(0.0, 2.0, (M, n)), 0.04)
             for M in (0, 1, block - 1, block, block + 1)]
    edges = rng.normal(0.0, 2.0, (2 * block + 1, n))
    edges[[0, block - 1, block, 2 * block], [0, 0, n - 1, n - 1]] = \
        [-np.inf, np.nan, np.inf, np.nan]
    cases += [(edges, 0.04), (edges, 1e-6), (edges, 1e-18),
              (rng.normal(0.0, 2.0, (100_000, n)), 1e-18)]
    dtypes = set()
    for centers, var in cases:
        M = len(centers)
        weights = rng.random(M)
        src = _sources(list(centers.T), weights, [np.arange(M, dtype=float)],
                       var, 8.0, 1.0)
        *_, shape, key = cell_keys(centers, var, 8.0)
        count = int(np.count_nonzero(np.all(np.isfinite(centers), axis=1)))
        want = np.argsort(key, kind="stable")[:count]
        assert len(src.columns[0]) == count
        assert np.all(src.columns[0] == want)
        assert np.all(src.weights == weights[want])
        assert np.array_equal(src.shape, shape)
        if var == 1e-18 and n == 1:
            assert np.prod(src.shape) == count
        dtypes.add(key.dtype)
    assert dtypes == {np.dtype(np.uint8), np.dtype(np.uint16), np.dtype(np.uint32)}


@pytest.mark.parametrize("n, rho0", [(1, "1"), (1, "2 + sin(x1)"),
                                     (2, "exp(-x1^2/4)"), (2, "2 + sin(x1*x2)")])
def test_table_weights_are_the_node_weights_in_the_reference_cell_order(n, rho0):
    """A table of 65,536 nodes, four sort blocks, holds grid.weights *
    rho0 permuted by the stable argsort of its centers' cell keys, as
    formed here from the node rows."""
    xs = [f"x{i + 1}" for i in range(n)]
    spec = make(n=n, a=[f"u/{i + 1}" for i in range(n)], u0="exp(-(" + "+".join(
        f"{x}^2" for x in xs) + "))", rho0=rho0, sigma=0.4, box=[[-2.0, 2.0]] * n,
        space_grid=[3] * n, time_points=[0.3])
    t, per_axis = 0.3, round(65_536 ** (1.0 / n))
    grid = quadrature_grid(spec.box, 4.0 * 16 / per_axis, nodes_per_panel=16,
                           max_panels=4096)
    assert all(len(w) == per_axis for w in grid.axis_weights)
    table = _tabulate(spec, t, grid)
    points = tensor_points(grid.axis_nodes)
    u0v = spec.init.u0_at(points)
    centers = points + np.stack(displacement_components(spec, t, u0v), axis=-1)
    *_, key = cell_keys(centers, spec.sigma * spec.sigma * t, spec.tol.kernel_cutoff)
    want = np.argsort(key, kind="stable")
    assert np.all(table.weights == (grid.weights * spec.init.rho0_at(points))[want])


def rows_built_table(spec, t, monkeypatch):
    """The table of (spec, t) and the sources built for it from rows
    (M, n): tensor points, the weights as meshgrid products times rho0
    at the points, centers as points plus the stacked displacement."""
    grids = []

    def recording(*args, **kwargs):
        grids.append(quadrature_grid(*args, **kwargs))
        return grids[-1]

    monkeypatch.setattr(representation, "quadrature_grid", recording)
    table = _build_table(spec, t)
    grid, = grids
    points = np.stack([m.ravel() for m in np.meshgrid(*grid.axis_nodes,
                                                        indexing="ij")], axis=-1)
    weights = np.ones(points.shape[0])
    for m in np.meshgrid(*grid.axis_weights, indexing="ij"):
        weights = weights * m.ravel()
    u0v = spec.init.u0_at(points)
    centers = points + np.stack(displacement_components(spec, t, u0v), axis=-1)
    var = spec.sigma * spec.sigma * t
    want = sources_from_rows(centers, weights * spec.init.rho0_at(points), (u0v,),
                             var, spec.tol.kernel_cutoff,
                             (2.0 * math.pi * var) ** (-spec.n / 2.0))
    u0_sorted, = want["columns"]
    # one column per distinct array of the fields, and each field's column
    fields = (u0_sorted, *spec.velocity.a_values(u0_sorted))
    distinct = [f for i, f in enumerate(fields) if all(f is not g for g in fields[:i])]
    want["columns"] = tuple(distinct)
    want["of"] = [next(j for j, c in enumerate(distinct) if c is f) for f in fields]
    return table, want


def test_bump_table_equals_the_rows_built_reference(monkeypatch):
    """The t = 0.3 bump table, built from per-axis node, weight and
    center arrays, equals one built from rows (M, n): tensor points, the
    weights as meshgrid products, centers as points plus the stacked
    displacement."""
    table, want = rows_built_table(load_problem(BUMP2D.read_text()), 0.3, monkeypatch)
    # 8 nodes on panels one kernel width wide took 774,400 nodes
    assert len(table.weights) == 200_704 <= 0.3 * 774_400
    assert_same_sources(table, want)


@pytest.mark.parametrize("n, rho0", [
    (1, "2 + sin(x1)"), (2, "exp(-x1^2/4)"), (2, "exp(-x2^2/4)"),
    (2, "2 + sin(x1*x2)")])
def test_table_weights_with_rho0_equal_the_rows_built_reference(n, rho0, monkeypatch):
    """With rho0 in one variable or in several, weights formed in cell
    order from the axis weights and rho0 equal the node-ordered products
    sorted."""
    xs = [f"x{i + 1}" for i in range(n)]
    spec = make(n=n, a=[f"u/{i + 1}" for i in range(n)], u0="exp(-(" + "+".join(
        f"{x}^2" for x in xs) + "))", rho0=rho0, sigma=0.4, box=[[-2.0, 2.0]] * n,
        space_grid=[3] * n, time_points=[0.3])
    assert_same_sources(*rows_built_table(spec, 0.3, monkeypatch))


@pytest.mark.parametrize("rho0", [1.0, "x1", "x3", "x1x2", "x1x2x3"])
def test_node_weights_are_the_tensor_products_at_any_positions(rho0):
    """``_NodeWeights`` gathered at a permutation of a 3D grid's nodes,
    and at a repeated subset, equals taking from grid.weights * rho0."""
    rng = np.random.default_rng(7)
    grid = quadrature_grid([(-1.0, 1.0), (0.0, 2.0), (-3.0, 0.5)], 0.5,
                           nodes_per_panel=3, min_panels=2)
    shape = tuple(len(w) for w in grid.axis_weights)
    if not isinstance(rho0, float):
        rho0 = rng.random(tuple(m if f"x{i + 1}" in rho0 else 1
                                for i, m in enumerate(shape)))
    want = (grid.weights.reshape(shape) * rho0).ravel()
    for order in (rng.permutation(want.size), rng.integers(0, want.size, 50_000)):
        got = _gather(_NodeWeights(grid, rho0), order)
        assert got.tobytes() == want.take(order).tobytes()
    assert len(_NodeWeights(grid, rho0)) == want.size


def test_bump_table_build_peak():
    """The t = 0.3 bump table build peaks at 1.53 times the table's bytes
    (measured with tracemalloc): _sources permutes one array at a time
    and drops each unsorted one.  With every unsorted and sorted copy
    alive together the peak was 2.28 times."""
    spec = load_problem(BUMP2D.read_text())
    tracemalloc.start()
    try:
        table = _build_table(spec, 0.3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.6 * table.nbytes


def test_bump_table_build_peak_with_a_narrow_order():
    """With the first Gauss-Legendre rule computed outside the window,
    the t = 0.3 bump table build peaks at 1.190 times the table's bytes
    under tracemalloc: the cell order is 4 bytes per node and built a
    block at a time, and the arrays are gathered through it a block at
    a time.  With an int64 order from one global argsort it was 1.315."""
    spec = load_problem(BUMP2D.read_text())
    _build_table(spec, 0.3)
    tracemalloc.start()
    try:
        table = _build_table(spec, 0.3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.2 * table.nbytes


def test_bump_at_sigma_0p05_fits_the_node_budget(caplog):
    """The 2D bump at sigma = 0.05 needed 220 panels of 8 nodes per axis
    under the old rule, past the 176 that the node budget allows: the
    panel cap bound, with a warning.  The matched rule takes 55 panels
    of 16, and the cap binds only when max_panels is below that."""
    spec = load_problem(BUMP2D.read_text()).with_sigma(0.05)
    with caplog.at_level(logging.WARNING, logger="charstoch.representation"):
        table = _build_table(spec, 0.3)
    assert len(table.weights) == 880 ** 2
    assert not [r for r in caplog.records if "panel cap" in r.getMessage()]
    tight = make(n=2, a=["u", "u"], u0="exp(-x1^2-x2^2)", sigma=0.1,
                 box=[[-3.0, 3.0], [-3.0, 3.0]], space_grid=[11, 11],
                 time_points=[0.3], tolerances={"max_panels": 10})
    with caplog.at_level(logging.WARNING, logger="charstoch.representation"):
        table = _build_table(tight, 0.3)
    assert len(table.weights) == 160 ** 2
    assert [r for r in caplog.records if "panel cap 10 binds" in r.getMessage()]


def counted_builds(monkeypatch) -> list[int]:
    """Wrap ``_build_table`` so that each build appends its table's bytes
    to the list returned, which holds no table."""
    built, build = [], representation._build_table

    def counting(spec, t):
        table = build(spec, t)
        built.append(table.nbytes)
        return table

    monkeypatch.setattr(representation, "_build_table", counting)
    return built


def test_field_grids_at_one_time_build_one_table(monkeypatch):
    spec = load_problem(BUMP2D.read_text())
    built = counted_builds(monkeypatch)
    for which in ("rho", "u", "a"):
        eval_field_grid(spec, 0.3, which)
    assert len(built) == 1


def test_calls_at_one_time_on_other_points_build_one_table(monkeypatch, burgers):
    built = counted_builds(monkeypatch)
    eval_u_sigma(burgers, 0.5, np.array([[0.1], [0.2]]))
    eval_I_u_sigma(burgers, 0.5, np.array([[1.0], [-1.0], [2.5]]))
    assert len(built) == 1


def test_noise_ladder_builds_one_table_per_sigma(monkeypatch, burgers):
    built = counted_builds(monkeypatch)
    balance.i_term_persistence(burgers, [0.2, 0.1, 0.05], 0.5)
    assert len(built) == 3


def test_sigma_residual_run_holds_one_table(monkeypatch):
    """The 2D bump's sigma residuals over (0.2, 0.3) at dt = 0.025 build
    one table per time, five, and peak under tracemalloc at 1.18 times
    the largest one's bytes (34.6 MiB, 4.61 times, while the last six
    tables were kept): the build of the t = 0.2 table, the others
    freed."""
    spec = load_problem(BUMP2D.read_text())
    _build_table(spec, 0.3)  # the first rules and the slope bound
    built = counted_builds(monkeypatch)
    tracemalloc.start()
    try:
        balance.residual_sigma_system(spec, (0.2, 0.3), (0.2, 0.025))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(built) == 5
    assert peak < 1.2 * max(built)


def test_noise_ladder_past_its_first_table_holds_one(monkeypatch):
    """The I terms of the 2D bump at t = 0.3 on the ladder (0.2, 0.1)
    peak under tracemalloc at 1.19 times the sigma = 0.1 table's bytes
    (1.44 while the sigma = 0.2 table was kept through its build)."""
    spec = load_problem(BUMP2D.read_text())
    _build_table(spec, 0.3)
    built = counted_builds(monkeypatch)
    tracemalloc.start()
    try:
        balance.i_term_persistence(spec, [0.2, 0.1], 0.3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(built) == 2
    assert peak < 1.21 * max(built)


def test_a_held_table_outlives_the_slot():
    """The slot drops its reference only: a table that a caller holds
    keeps its arrays and its sums after the slot moves on, and the
    rebuilt table of the same (problem, t) equals it."""
    spec = load_problem(BUMP2D.read_text())
    X = np.array([[0.0, 0.0], [1.3, -0.7], [2.9, 2.9], [-0.4, 0.6]])

    def arrays(table):
        return [a.copy() for a in (*table.axes, table.weights, *table.columns,
                                   table.starts)]

    def sums(table):
        step = representation._i_term_step(spec, 0.3, table)
        return representation._kernel_moments(table, X, spec.tol.denom_floor, *step)

    table = _table_for(spec, 0.3)[0]
    held, before = arrays(table), sums(table)
    eval_u_sigma(spec, 1.5, X)  # the slot moves on to t = 1.5
    assert _table_for(spec, 1.5)[0] is not table
    after = sums(table)
    for got, want in zip(arrays(table), held):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    for got, want in zip(after, before):
        assert got.tobytes() == want.tobytes()
    rebuilt = _table_for(spec, 0.3)[0]
    assert rebuilt is not table
    for got, want in zip(arrays(rebuilt), held):
        assert got.tobytes() == want.tobytes()


def test_kept_moments_are_dropped_before_the_next_build(monkeypatch, burgers):
    """The kept moments of one (problem, t) are freed with their table,
    before the table of the next is built, and a call at the same
    (problem, t) still reads them without a pass."""
    X = np.array([[0.1], [0.2], [0.3]])
    eval_u_sigma(burgers, 0.5, X)
    entry = _table_for(burgers, 0.5)
    kept = entry[1]
    eval_a_sigma(burgers, 0.5, X)
    assert entry[1] is kept
    den, table = weakref.ref(kept[1]), weakref.ref(entry[0])
    del entry, kept
    seen, build = [], representation._build_table

    def build_seeing_the_kept_moments(spec, t):
        seen.append((den(), table()))
        return build(spec, t)

    monkeypatch.setattr(representation, "_build_table", build_seeing_the_kept_moments)
    eval_u_sigma(burgers, 0.75, X)
    assert seen == [(None, None)]
    (key, (_, kept)), = representation._slot.items()
    assert key == (burgers.digest, burgers.sigma, 0.75) and kept[0] == (X.shape, X.tobytes())


def test_a_dropped_entry_never_answers_its_rebuilt_table(monkeypatch, burgers):
    """u_sigma at t = 0.5, then 0.75, then 0.5 on the same points: the
    third call finds the t = 0.5 table rebuilt with no moments kept,
    makes one pass per point again, and equals the first bit for bit."""
    X = np.linspace(-2.0, 2.0, 7)[:, None]
    passes = count_passes(monkeypatch)
    first = eval_u_sigma(burgers, 0.5, X)
    eval_u_sigma(burgers, 0.75, X)
    passes.clear()
    again = eval_u_sigma(burgers, 0.5, X)
    assert len(passes) == len(X)
    assert again.tobytes() == first.tobytes()


def test_the_slot_follows_every_field_of_the_spec():
    """Two problems that differ only in ``u_range`` (a = u^2, whose
    stretch reads dA/du on it: 1.61 here, 3.40 on (-4, 4)) have two
    digests, so the second is served its own table: its values after
    the first's equal those from an empty slot bit for bit."""
    s = make(a=["u^2"])
    r = dataclasses.replace(s, u_range=(-4.0, 4.0))
    assert r.digest != s.digest
    assert _stretch(s, 0.3) != _stretch(r, 0.3)
    x = np.linspace(-1.0, 1.0, 5)[:, None]
    eval_u_sigma(s, 0.3, x)
    served = eval_u_sigma(r, 0.3, x)
    representation._slot.clear()
    assert served.tobytes() == eval_u_sigma(r, 0.3, x).tobytes()


def test_debug_log_reports_each_dropped_table(caplog):
    spec = load_problem(BUMP2D.read_text())
    wide = spec.with_sigma(0.2)
    with caplog.at_level("DEBUG", logger="charstoch.representation"):
        nbytes = _table_for(spec, 0.3)[0].nbytes
        wide_bytes = _table_for(wide, 0.3)[0].nbytes
        _table_for(wide, 0.3)  # the table held: nothing dropped
        _table_for(spec, 1.5)
    drops = [r.getMessage() for r in caplog.records if "dropped" in r.getMessage()]
    assert drops == [f"kernel table at sigma=0.1 t=0.3 dropped, {nbytes} bytes",
                     f"kernel table at sigma=0.2 t=0.3 dropped, {wide_bytes} bytes"]


# (config, sigma, t): each shipped config at its time points and at the
# times and noise levels the benchmark workloads ask of it
ACCURACY_CASES = (
    [("burgers_sin", 0.1, t) for t in (0.25, 0.3, 0.35, 0.4, 0.45, 0.5, 0.75, 1.5)]
    + [("burgers_sin", s, t) for s in (0.2, 0.05) for t in (0.5, 1.5)]
    + [("burgers_sin", 0.025, 0.5)]
    + [("burgers_gaussian", 0.1, t) for t in (0.2, 0.25, 0.3, 0.4, 0.5)]
    + [("burgers_tanh", 0.1, t) for t in (0.5, 0.6, 0.7, 1.0)]
    + [("gaussian_identity", 1.0, 0.5)]
    + [("gaussian_bump_2d", s, t) for s in (0.1, 0.2) for t in (0.3, 1.5)]
)

# relative errors below these are the kernel cutoff's own: a reference
# table cut at 10 kernel widths in place of 8 moved rho, u and I_u by up
# to 1.1e-14, 6.6e-15 and 5.9e-12 on these cases
ACCURACY_FLOORS = {"rho": 2e-14, "u": 1e-14, "I_u": 1e-11}


def old_rule_table(spec, t):
    """The table of the rule before stretch matching: nodes_per_panel
    nodes on panels one kernel width wide, at least 16 panels, capped
    by the node budget."""
    per_axis = int(_NODE_BUDGET ** (1.0 / spec.n))
    cap = max(16, min(spec.tol.max_panels, per_axis // spec.tol.nodes_per_panel))
    grid = quadrature_grid(spec.box, spec.sigma * math.sqrt(t),
                           nodes_per_panel=spec.tol.nodes_per_panel, max_panels=cap)
    return _tabulate(spec, t, grid)


def reference_table(spec, t):
    """16 nodes on panels 2.5 / L kernel widths wide: E(16, 2.5) < 1e-16."""
    scale = spec.sigma * math.sqrt(t) * 2.5 / _stretch(spec, t)
    return _tabulate(spec, t, quadrature_grid(spec.box, scale, nodes_per_panel=16,
                                              min_panels=8, max_panels=10 ** 6))


@pytest.mark.parametrize("name, sigma, t", ACCURACY_CASES)
def test_stretch_matched_tables_are_no_less_accurate(monkeypatch, name, sigma, t):
    """rho, u and I_u at the config's grid points, relative to their
    largest magnitude against the reference rule, are no worse on the
    stretch-matched table than on the old rule's, or below the floor."""
    spec = load_problem((CONFIGS / f"{name}.json").read_text()).with_sigma(sigma)
    X = tensor_points(space_axes(spec))

    def fields(table):
        entry = [table, None]  # the table, with no kernel moments kept
        monkeypatch.setattr(representation, "_table_for", lambda *_: entry)
        return {"rho": eval_rho_sigma(spec, t, X), "u": eval_u_sigma(spec, t, X),
                "I_u": eval_I_u_sigma(spec, t, X)}

    new = fields(_build_table(spec, t))
    old = fields(old_rule_table(spec, t))
    ref = fields(reference_table(spec, t))
    for q, floor in ACCURACY_FLOORS.items():
        size = np.max(np.abs(ref[q]))
        if size == 0:  # I_u of a constant velocity
            assert np.all(new[q] == 0) and np.all(old[q] == 0)
            continue
        err_new, err_old = (np.max(np.abs(f[q] - ref[q])) / size for f in (new, old))
        assert err_new <= max(err_old, floor), (q, err_new, err_old)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("n", [1, 2])
def test_slope_bound_of_a_nan_gradient_is_unknown(n):
    """Past x1 = 7.09, exp(100*x1) overflows: u0 = exp(-exp(100*x1)) is
    0.0 there, but its gradient is -inf * 0.0 = NaN, so the slope bound
    is unknown, inf, whatever block holds the NaN; Python's max would
    drop the NaN and with it the rest of its block."""
    spec = make(n=n, a=["u"] * n, u0="exp(-exp(100*x1))",
                box=[[-3.0, 8.0]] + [[-1.0, 1.0]] * (n - 1), space_grid=[5] * n)
    representation._slope_bound.cache_clear()
    assert representation._slope_bound(spec.init, spec.box) == math.inf


def bump(a):
    """The 2D Gaussian bump at sigma = 0.2 with velocity expressions a."""
    return make(n=2, a=a, u0="exp(-x1^2-x2^2)", sigma=0.2,
                box=[[-3.0, 3.0], [-3.0, 3.0]], space_grid=[11, 11],
                time_points=[0.3])


def distinct_arrays(table):
    return len({id(c) for c in table.columns})


def test_tables_hold_one_array_per_distinct_velocity_expression(burgers, caplog):
    table = _table_for(burgers, 0.5)[0]
    assert len(table.columns) == distinct_arrays(table) == 1 and table.of == (0, 0)
    for a, count, of in ((["u", "u"], 1, (0, 0, 0)), (["u", "u^2/2"], 2, (0, 0, 1)),
                         (["u^2/2", "u^2/2"], 2, (0, 1, 1)),
                         (["u*1", "1*u"], 3, (0, 1, 2))):
        spec = bump(a)
        with caplog.at_level("DEBUG", logger="charstoch.representation"):
            caplog.clear()
            table = _table_for(spec, 0.3)[0]
        assert distinct_arrays(table) == len(table.columns) == count
        assert table.of == of
        assert f"{count} distinct columns, {table.nbytes} bytes" in caplog.text
        u0v, *avals = (table.columns[j] for j in table.of)
        assert u0v is table.columns[0]
        for got, want in zip(avals, spec.velocity.a_values(u0v)):
            np.testing.assert_array_equal(got, want)
        # the centers are one contiguous array per axis
        assert len(table.axes) == 2
        assert all(ax.ndim == 1 and ax.flags.c_contiguous for ax in table.axes)
        # a pass gathers and averages each column once
        _, _, _, rows, means = _kernel_means(table, np.array([0.3, -0.2]),
                                             spec.tol.denom_floor)
        assert len(rows) == len(means) == count
    assert table.nbytes == sum(a.nbytes for a in (*table.axes, table.weights,
                                                  *table.columns, table.starts))


@pytest.mark.parametrize("aliased, spelled", [(["u", "u"], ["u*1", "1*u"]),
                                              (["u", "u^2/2"], ["u*1", "u^2/2"]),
                                              (["u^2/2", "u^2/2"], ["u^2/2", "0.5*u^2"])])
def test_shared_columns_give_the_values_of_distinct_ones(aliased, spelled):
    """Trees spelled differently hold arrays of their own, with the same
    values; every field and I term equals the shared columns' bit for
    bit, batch and per point."""
    evaluators = (eval_rho_sigma, eval_u_sigma, eval_a_sigma, eval_I_u_sigma,
                  eval_I_a_sigma, eval_I_u_sigma_assembled)
    pts = np.array([[0.0, 0.0], [0.3, -0.2], [1.1, 0.7], [-2.0, 1.5]])
    shared, distinct = bump(aliased), bump(spelled)
    assert distinct_arrays(_table_for(distinct, 0.3)[0]) == 3
    for t in (0.3, 1.5):
        for f in evaluators:
            want = f(shared, t, pts)
            assert np.array_equal(f(distinct, t, pts), want)
            for x, w in zip(pts, want):
                assert np.array_equal(f(shared, t, x), w)
                assert np.array_equal(f(distinct, t, x), w)


def test_field_grid_accepts_any_time(burgers):
    assert 0.3 not in burgers.time_points
    grid = eval_field_grid(burgers, 0.3, "u")
    xs = grid.axes[0]
    for i in (0, 17, 40):
        assert grid.values[i] == eval_u_sigma(burgers, 0.3, np.array([xs[i]]))
    with pytest.raises(ValueError):
        eval_field_grid(burgers, 0.5, "phi")
    for t in (-0.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="finite time"):
            eval_field_grid(burgers, t, "rho")


def test_field_grid_csv_scalar(tmp_path, burgers):
    grid = eval_field_grid(burgers, 0.25, "rho")
    out = tmp_path / "rho.csv"
    grid.to_csv(out)
    lines = out.read_text().splitlines()
    assert lines[0] == "t,x1,value,valid"
    assert len(lines) == 1 + 41
    cells = lines[1].split(",")
    assert cells[0] == f"{0.25:.12e}"
    assert float(cells[1]) == pytest.approx(-2 * math.pi)
    assert cells[3] == "1"
    # every numeric cell in scientific notation with 12 digits
    assert all("e" in c for c in cells[:3])
    # the spellings of NaN at an invalid point, -0.0 and inf
    grid.values[[0, 20, 40]] = [math.nan, -0.0, math.inf]
    grid.valid[0] = False
    grid.to_csv(out)
    lines = out.read_text().splitlines()
    assert lines[1] == "2.500000000000e-01,-6.283185307180e+00,nan,0"
    assert lines[21] == "2.500000000000e-01,0.000000000000e+00,-0.000000000000e+00,1"
    assert lines[41] == "2.500000000000e-01,6.283185307180e+00,inf,1"


def test_field_grid_csv_vector_2d(tmp_path):
    cfg = {
        "n": 2, "a": ["u", "u"], "u0": "exp(-x1^2-x2^2)", "rho0": "1",
        "sigma": 0.2, "box": [[-2.0, 2.0], [-2.0, 2.0]],
        "space_grid": [5, 5], "time_points": [0.2],
    }
    spec = load_problem(json.dumps(cfg))
    grid = eval_field_grid(spec, 0.2, "a")
    out = tmp_path / "a.csv"
    grid.to_csv(out)
    lines = out.read_text().splitlines()
    assert lines[0] == "t,x1,x2,value1,value2,valid"
    assert len(lines) == 1 + 25
    # rows in C order; NaN at an invalid point, -0.0 and +-inf
    grid.values[0, 0] = math.nan
    grid.valid[0, 0] = False
    grid.values[2, 2] = [-0.0, -math.inf]
    grid.values[4, 3, 0] = math.inf
    grid.to_csv(out)
    lines = out.read_text().splitlines()
    assert lines[1] == "2.000000000000e-01,-2.000000000000e+00,-2.000000000000e+00,nan,nan,0"
    assert lines[13] == ("2.000000000000e-01,0.000000000000e+00,0.000000000000e+00,"
                         "-0.000000000000e+00,-inf,1")
    assert lines[24].startswith("2.000000000000e-01,2.000000000000e+00,1.000000000000e+00,"
                                "inf,")
    assert lines[24].endswith(",1")


def test_field_grid_csv_crosses_a_block_edge(tmp_path):
    """A grid of ``_CSV_ROWS`` + 1 points, NaN, +-inf, -0.0 and extreme
    magnitudes among its values, is written as the whole table formatted
    in one ``%`` call."""
    count = _CSV_ROWS + 1
    axes = (np.linspace(-1.0, 1.0, count),)
    values = np.sin(np.arange(count) * 0.37) * 1e-3
    values[::613] = np.resize(CSV_CELLS, values[::613].shape)
    valid = ~np.isnan(values)
    FieldGrid(0.5, axes, values, valid).to_csv(tmp_path / "g.csv")
    table = np.column_stack([np.full(count, 0.5), axes[0], values, valid])
    want = "t,x1,value,valid\n" + ("%.12e,%.12e,%.12e,%d\n" * count) % tuple(
        table.ravel().tolist())
    assert (tmp_path / "g.csv").read_bytes() == want.encode()


def test_sigma_sweep_validates_ladder(burgers):
    """A noise ladder must be non-empty, positive and strictly decreasing,
    and the I-term sweep over it needs t > 0."""
    for bad in ([0.1, 0.2], [0.1, -0.05], [0.1, 0.1], [math.nan], []):
        with pytest.raises(ValueError):
            representation._noise_ladder(bad)
        with pytest.raises(ValueError):
            balance.i_term_persistence(burgers, bad, 0.5)
    assert representation._noise_ladder([0.2, 0.1]) == [0.2, 0.1]
    with pytest.raises(ValueError, match="t > 0"):
        balance.i_term_persistence(burgers, [0.2, 0.1], 0.0)
