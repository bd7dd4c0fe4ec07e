"""Classical characteristics: implicit solve, gradients, blow-up."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from charstoch import (
    NearBlowup,
    OutOfBracket,
    blow_up_time,
    displacement_components,
    du_displacement_components,
    eval_a_bar,
    eval_rho_bar,
    flow_displacement,
    gradient_exact,
    invert_char_map,
    load_problem,
    solve_implicit,
)
from charstoch import characteristics, representation
from charstoch.characteristics import (_condition, _condition_at, _foot,
                                      classical_fields)
from charstoch.problem import _arrays, _axis_blocks, axis_views

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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


def test_implicit_solve_against_fixed_point_iteration(burgers):
    """Independent oracle: u = sin(x - t u) by damped iteration."""
    t, x = 0.5, 1.0
    u = 0.0
    for _ in range(200):
        u = math.sin(x - t * u)
    got = solve_implicit(burgers, t, np.array([x]))
    assert got == pytest.approx(u, abs=1e-10)
    assert got == pytest.approx(0.631926686644341, abs=1e-9)
    assert abs(got - math.sin(x - t * got)) <= 1e-12


def test_implicit_solve_residual_small_everywhere(burgers):
    for t in (0.25, 0.75):
        for x in np.linspace(-6.0, 6.0, 23):
            u = solve_implicit(burgers, t, np.array([x]))
            assert abs(u - math.sin(x - t * u)) <= 1e-12


def test_implicit_solve_at_t0_returns_initial_profile(burgers):
    assert solve_implicit(burgers, 0.0, np.array([0.7])) == math.sin(0.7)


def test_out_of_bracket_when_foot_point_leaves_sampled_range():
    spec = make(u0="x1", box=[[-1.0, 1.0]], space_grid=[21])
    with pytest.raises(OutOfBracket):
        solve_implicit(spec, 0.5, np.array([5.0]))


def test_gradient_matches_finite_differences(burgers):
    rng = np.random.default_rng(7)
    h = 1e-5
    for _ in range(20):
        t = float(rng.uniform(0.05, 0.8))
        x = float(rng.uniform(-5.0, 5.0))
        g = gradient_exact(burgers, t, np.array([x]))[0]
        up = solve_implicit(burgers, t, np.array([x + h]))
        dn = solve_implicit(burgers, t, np.array([x - h]))
        fd = (up - dn) / (2 * h)
        assert g == pytest.approx(fd, rel=1e-4, abs=1e-8)


def test_gradient_near_fold_raises(burgers):
    # the folding characteristic starts at y = -pi and stays at x = -pi
    with pytest.raises(NearBlowup):
        gradient_exact(burgers, 1.0 - 1e-8, np.array([-math.pi]))


def test_blowup_sin(burgers):
    rep = blow_up_time(burgers)
    assert rep.method == "conway"
    assert rep.t_star == pytest.approx(1.0, abs=1e-3)
    assert abs(math.cos(rep.y_star[0]) + 1.0) <= 1e-3
    assert rep.min_functional == pytest.approx(-1.0, abs=1e-9)


def test_blowup_gaussian_bump():
    spec = make(u0="exp(-x1^2)", box=[[-3.0, 3.0]])
    rep = blow_up_time(spec)
    want = math.sqrt(math.e / 2.0)
    assert rep.t_star == pytest.approx(want, abs=1e-6)
    assert rep.y_star[0] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-4)


def test_blowup_tanh_never():
    spec = make(u0="tanh(x1)", box=[[-4.0, 4.0]])
    rep = blow_up_time(spec)
    assert math.isinf(rep.t_star)
    assert rep.min_functional >= 0.0


def test_blowup_2d():
    cfg = {
        "n": 2, "a": ["u", "u"], "u0": "exp(-x1^2-x2^2)", "rho0": "1",
        "sigma": 0.1, "box": [[-3.0, 3.0], [-3.0, 3.0]],
        "space_grid": [11, 11], "time_points": [0.3],
    }
    spec = load_problem(json.dumps(cfg))
    rep = blow_up_time(spec)
    assert rep.t_star == pytest.approx(math.sqrt(math.e) / 2.0, abs=1e-3)
    np.testing.assert_allclose(rep.y_star, [0.5, 0.5], atol=1e-3)


@pytest.mark.parametrize("name, want, tol", [
    ("burgers_sin", 1.0, 1e-12),
    ("burgers_gaussian", math.sqrt(math.e / 2.0), 1e-12),
    # the golden refinement of the 2D minimum leaves about 4e-11
    ("gaussian_bump_2d", math.sqrt(math.e) / 2.0, 1e-10),
])
def test_blowup_time_of_shipped_configs_is_exact(name, want, tol):
    """Exact derivatives leave only the golden refinement's error, which
    is quadratic in the foot-point error at the flat minimum."""
    spec = load_problem((CONFIGS / f"{name}.json").read_text())
    assert abs(blow_up_time(spec).t_star - want) <= tol


def test_rho_bar_is_exact_on_burgers_sin():
    """rho_bar = 1 / (1 + t cos y) at the foot point y = x - t u."""
    spec = load_problem((CONFIGS / "burgers_sin.json").read_text())
    t = 0.75
    for x in np.linspace(-6.0, 6.0, 49):
        y = x - t * solve_implicit(spec, t, [x])
        want = 1.0 / (1.0 + t * math.cos(y))
        assert abs(eval_rho_bar(spec, t, [x]) - want) <= 1e-12, x


def test_blowup_time_dependent_velocity():
    # A(t,u) = t^2/2 u gives G(t,y) = t^2/2 cos(y), first -1 at t = sqrt(2)
    spec = make(a=["t*u"])
    rep = blow_up_time(spec)
    assert rep.method == "lambda_grid"
    assert rep.t_star == pytest.approx(math.sqrt(2.0), abs=2e-3)


def test_blowup_time_dependent_bump_is_unchanged():
    """a = (t u, t u) on the bump, whose B = t^2/2 (1, 1) comes from
    one scalar time integral: the search reports what it reported when
    the integral ran on every element of the grid (values recorded from
    that version, on a 41 x 41 search grid)."""
    spec = load_problem(json.dumps({
        "n": 2, "a": ["t*u", "t*u"], "u0": "exp(-x1^2-x2^2)", "rho0": "1",
        "sigma": 0.1, "box": [[-3.0, 3.0], [-3.0, 3.0]], "space_grid": [11, 11],
        "time_points": [0.3], "tolerances": {"blowup_grid": 41}}))
    rep = blow_up_time(spec)
    assert rep.method == "lambda_grid"
    assert rep.t_star == 1.28369140625
    assert rep.y_star.tolist() == [0.5002086488136223, 0.49992921131764817]
    assert rep.min_functional == -0.9994797544684266
    u = np.linspace(-0.5, 1.5, 7)
    for B in du_displacement_components(spec, 0.9, u):
        assert np.array_equal(B, np.full(u.shape, 0.405))


@pytest.mark.parametrize("case", sorted(p.stem for p in CONFIGS.glob("*.json"))
                         + ["time_dependent", "t_times_u"])
def test_condition_equals_the_product_of_full_arrays(case):
    """G with the B_i that have no u as floats, on unexpanded jet values
    over a block of the blow-up grid, equals sum(B_i * du0/dx_i) formed
    from full arrays, the public ``du_displacement_components`` and the
    jet expanded by ``_arrays``, bit for bit."""
    spec = {"time_dependent": lambda: make(a=["cos(t)*u^2/2"]),
            "t_times_u": lambda: make(n=2, a=["t*u", "t*u"],
                                      u0="exp(-x1^2-x2^2)",
                                      box=[[-3.0, 3.0], [-3.0, 3.0]],
                                      space_grid=[11, 11])
            }.get(case, lambda: load_problem((CONFIGS / f"{case}.json").read_text()))()
    axes = [np.linspace(lo, hi, 23 + 4 * i) for i, (lo, hi) in enumerate(spec.box)]
    shape = tuple(len(ax) for ax in axes)
    program, views = spec.init.jet_program, axis_views(axes)
    for t in (0.0, 1.0, 0.37):
        got = _condition(spec, t, spec.init.on_columns(program, views))
        u0v, *grads = _arrays(spec.init.on_columns(program, views), shape, views)
        B = du_displacement_components(spec, t, u0v)
        want = sum(B[i] * grads[i] for i in range(spec.n))
        assert want.shape == shape
        assert np.array_equal(np.broadcast_to(got, shape), want), (case, t)


@pytest.mark.parametrize("case", sorted(p.stem for p in CONFIGS.glob("*.json"))
                         + ["time_dependent"])
def test_condition_at_one_point_equals_its_grid_value(case):
    """The golden refinement evaluates G at one point with the
    coordinates bound as floats; at random points of the box that value
    equals G at the same point of a batch, one coordinate array per
    axis, as the grid scan evaluated it, bit for bit."""
    spec = make(a=["cos(t)*u^2/2"]) if case == "time_dependent" \
        else load_problem((CONFIGS / f"{case}.json").read_text())
    rng = np.random.default_rng(len(case))
    lo, hi = np.array(spec.box).T
    Y = rng.uniform(lo, hi, (200, spec.n))
    for t in (1.0, 0.37):
        grid = _condition(spec, t, spec.init.on_columns(spec.init.jet_program,
                                                        list(Y.T.copy())))
        for y, want in zip(Y, grid.tolist()):
            assert _condition_at(spec, t, y) == want, (t, y)


@pytest.mark.parametrize("case", ["bump_2d", "time_dependent"])
def test_scans_do_not_depend_on_the_block_size(monkeypatch, case):
    """The blow-up grid scan (t*, y*, the minimum) and the slope sample
    (its bound) come out equal at blocks of 7 points, under one row of
    the 40-point axes, so that ``_axis_blocks`` splits the rows, and at
    the default block size."""
    bump = {"n": 2, "u0": "exp(-x1^2-x2^2)", "box": [[-3.0, 3.0], [-3.0, 3.0]],
            "space_grid": [11, 11]}
    # the time-dependent case takes the bisection in t (lambda_grid)
    spec = make(tolerances={"blowup_grid": 40}, **{
        "bump_2d": dict(bump, a=["u", "u"]),
        "time_dependent": {"a": ["t*u"]},
    }[case])

    def scans():
        representation._slope_bound.cache_clear()
        rep = blow_up_time(spec)
        bound = representation._slope_bound(spec.init, spec.box)
        return rep.t_star, rep.y_star.tolist(), rep.min_functional, bound

    want, sizes = scans(), []

    def recorded(axes, size):
        blocks = list(_axis_blocks(axes, size))
        sizes.extend(math.prod(map(len, b)) for b in blocks)
        return iter(blocks)

    for module in (characteristics, representation):
        monkeypatch.setattr(module, "_BLOCK", 7)
        monkeypatch.setattr(module, "_axis_blocks", recorded)
    assert scans() == want
    # both scans took the small blocks
    assert max(sizes) == 7 and math.isfinite(want[0]) and want[3] > 0


def test_blowup_invariant_under_state_shift():
    """For a(u) = u the functional sees only u0'; a constant shift of u0
    must not move t*."""
    t1 = blow_up_time(make()).t_star
    t2 = blow_up_time(make(u0="sin(x1)+0.3")).t_star
    assert t1 == pytest.approx(t2, abs=1e-6)


def test_blowup_report_json(burgers):
    rep = blow_up_time(burgers)
    doc = json.loads(rep.to_json())
    assert set(doc) == {"t_star", "y_star", "min_functional", "method"}
    assert doc["t_star"] == rep.t_star
    inf_doc = json.loads(blow_up_time(make(u0="tanh(x1)")).to_json())
    assert inf_doc["t_star"] == "inf"


def char_map(spec, t, y):
    """The characteristic map y -> y + A(t, u0(y)) on rows y (P, n)."""
    return y + np.stack(displacement_components(spec, t, spec.init.u0_at(y)), axis=-1)


def char_jacobian(spec, t, y):
    """(g, B, det) at rows y (P, n): the factors of the characteristic
    Jacobian C = I + B outer g and its rank-1 determinant, from ``_foot``
    of the characteristics that start at y."""
    _, _, g, B, det = _foot(spec, t, char_map(spec, t, y), spec.init.u0_at(y))
    return g, B, det


def test_char_map_det_equals_full_jacobian_determinant():
    cfg = {
        "n": 2, "a": ["u", "2*u"], "u0": "exp(-x1^2-x2^2)", "rho0": "1",
        "sigma": 0.1, "box": [[-2.0, 2.0], [-2.0, 2.0]],
        "space_grid": [9, 9], "time_points": [0.2],
    }
    spec = load_problem(json.dumps(cfg))
    y = np.random.default_rng(3).uniform(-1.5, 1.5, size=(10, 2))
    g, B, det = char_jacobian(spec, 0.2, y)
    C = np.eye(2) + B[:, :, None] * g[:, None, :]
    np.testing.assert_allclose(det, np.linalg.det(C), rtol=1e-12)
    # C is the Jacobian of the map: central differences of its columns
    h = 1e-6
    for k in range(2):
        step = np.zeros(2)
        step[k] = h
        column = (char_map(spec, 0.2, y + step) - char_map(spec, 0.2, y - step)) / (2 * h)
        np.testing.assert_allclose(column, C[:, :, k], atol=1e-8)


def test_char_map_round_trip(burgers):
    y = np.random.default_rng(11).uniform(-5.5, 5.5, size=(100, 1))
    back = invert_char_map(burgers, 0.5, char_map(burgers, 0.5, y))
    np.testing.assert_allclose(back, y, atol=1e-9)


def test_foot_point_value_agrees_with_implicit_solve(burgers):
    for x in np.linspace(-4.0, 4.0, 9):
        y0 = invert_char_map(burgers, 0.5, np.array([x]))
        u_foot = burgers.init.u0_at(y0)[0]
        u_imp = solve_implicit(burgers, 0.5, np.array([x]))
        assert u_foot == pytest.approx(u_imp, abs=1e-9)


def _foot_cases(n):
    if n == 1:
        spec = make(rho0="1+0.5*cos(x1)")
        return [(spec, 0.5, np.array([x])) for x in np.linspace(-4.0, 4.0, 9)]
    spec = load_problem(json.dumps({
        "n": 2, "a": ["u", "2*u"], "u0": "exp(-x1^2-x2^2)",
        "rho0": "exp(-0.1*(x1^2+x2^2))", "sigma": 0.1,
        "box": [[-2.0, 2.0], [-2.0, 2.0]], "space_grid": [9, 9],
        "time_points": [0.2],
    }))
    rng = np.random.default_rng(7)
    return [(spec, 0.2, rng.uniform(-1.5, 1.5, size=2)) for _ in range(8)]


@pytest.mark.parametrize("n", [1, 2])
def test_foot_point_and_density_come_from_the_implicit_root(n):
    """The foot point is x - A(t, u) at the root u of solve_implicit, and
    the density is rho0 / det C there, bit for bit."""
    for spec, t, x in _foot_cases(n):
        u = solve_implicit(spec, t, x)
        y = invert_char_map(spec, t, x)
        assert np.array_equal(y, x - flow_displacement(spec, t, u))
        g = spec.init.grad_u0_at(y)[0]
        B = np.array([float(c) for c in du_displacement_components(spec, t, u)])
        assert eval_rho_bar(spec, t, x) == spec.init.rho0_at(y)[0] / (1.0 + float(g @ B))


def test_transported_velocity_constant_along_characteristics(burgers):
    rng = np.random.default_rng(5)
    for _ in range(10):
        y = np.array([rng.uniform(-5.0, 5.0)])
        a0 = math.sin(y[0])  # a(u0(y)) for the Burgers velocity
        for t in (0.0, 0.3, 0.6):
            x = y + t * a0
            got = eval_a_bar(burgers, t, x)[0]
            assert got == pytest.approx(a0, abs=1e-8)


def test_transported_density_compensates_volume_change(burgers):
    y = np.linspace(-5.0, 5.0, 11)[:, None]
    rho = eval_rho_bar(burgers, 0.5, char_map(burgers, 0.5, y))
    # rho0 = 1, so rho_bar * det must return to 1
    np.testing.assert_allclose(rho * char_jacobian(burgers, 0.5, y)[2], 1.0, atol=1e-9)


def test_min_det_decreases_toward_blowup(burgers):
    ys = np.linspace(-2 * math.pi, 2 * math.pi, 201)[:, None]
    mins = [float(np.min(char_jacobian(burgers, t, ys)[2])) for t in (0.25, 0.5, 0.75)]
    assert mins[0] > mins[1] > mins[2] > 0.0


def _batch_case(case):
    """(spec, t, X): 1D Burgers and the 2D a = (u, 2u) case of
    _foot_cases with their points stacked, or a time-dependent a = t*u."""
    if case == "t*u":
        return make(a=["t*u"]), 0.9, np.linspace(-5.0, 5.0, 11)[:, None]
    cases = _foot_cases(1 if case == "burgers" else 2)
    return cases[0][0], cases[0][1], np.stack([x for _, _, x in cases])


@pytest.mark.parametrize("case", ["burgers", "2d", "t*u"])
def test_batch_equals_pointwise_calls(case):
    """A batch of points gives each point the value of its own call."""
    spec, t, X = _batch_case(case)
    u = solve_implicit(spec, t, X)
    rho, u_f, a = classical_fields(spec, t, X)
    assert u.shape == rho.shape == (len(X),) and a.shape == X.shape
    assert np.array_equal(u_f, u)
    for i, x in enumerate(X):
        assert solve_implicit(spec, t, x) == u[i]
        rho_i, u_i, a_i = classical_fields(spec, t, x)
        assert isinstance(rho_i, float) and isinstance(u_i, float)
        assert (rho_i, u_i) == (rho[i], u[i])
        assert np.array_equal(a_i, a[i])
    grid = X.reshape((1, len(X), spec.n))
    assert np.array_equal(classical_fields(spec, t, grid)[0], rho[None, :])


def test_out_of_bracket_names_the_failing_point_of_a_batch():
    spec = make(u0="x1", box=[[-1.0, 1.0]], space_grid=[21])
    X = np.array([[0.1], [-0.3], [5.0], [0.2], [6.0]])
    with pytest.raises(OutOfBracket, match=r"x=\[5\.0\]"):
        solve_implicit(spec, 0.5, X)
    with pytest.raises(OutOfBracket, match=r"x=\[5\.0\]"):
        classical_fields(spec, 0.5, X)
    assert np.all(np.isfinite(solve_implicit(spec, 0.5, X[[0, 1, 3]])))
