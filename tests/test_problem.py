"""Configuration loading, validation, and the velocity flow map."""

import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from charstoch import (
    SchemaError,
    Tolerances,
    ValidationError,
    displacement_components,
    du_displacement_components,
    flow_displacement,
    load_problem,
)
from charstoch import problem
from charstoch.errors import EvalDomainError
from charstoch.expr import compile_exprs, expr_to_str, parse
from charstoch.problem import (_BLOCK, _arrays, _axis_blocks, axis_views,
                               tensor_columns, tensor_points)
from charstoch.quadrature import adaptive_time_integral
from test_expr import _random_expr

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def make(**overrides):
    cfg = {
        "n": 1,
        "a": ["u"],
        "u0": "sin(x1)",
        "rho0": "1",
        "sigma": 0.1,
        "box": [[-math.pi, math.pi]],
        "space_grid": [41],
        "time_points": [0.25, 0.5],
    }
    cfg.update(overrides)
    return json.dumps(cfg)


def test_loads_shipped_configs():
    for path in sorted(CONFIGS.glob("*.json")):
        spec = load_problem(path.read_text())
        assert spec.n >= 1


def test_defaults():
    spec = load_problem(make())
    assert spec.rng_seed == 0
    assert spec.tol == Tolerances()
    assert spec.velocity.time_dependent == (False,)


def test_u_range_covers_data_with_pad():
    spec = load_problem(make())
    lo, hi = spec.u_range
    assert lo == pytest.approx(-1.02, abs=1e-9)
    assert hi == pytest.approx(1.02, abs=1e-9)


@pytest.mark.parametrize("field", ["n", "a", "u0", "rho0", "sigma", "box",
                                   "space_grid", "time_points"])
def test_missing_required_field(field):
    cfg = json.loads(make())
    del cfg[field]
    with pytest.raises(SchemaError) as ei:
        load_problem(json.dumps(cfg))
    assert field in str(ei.value)


def test_unknown_field_rejected():
    with pytest.raises(SchemaError) as ei:
        load_problem(make(velocity=["u"]))
    assert "velocity" in str(ei.value)


def test_not_json():
    with pytest.raises(SchemaError):
        load_problem("{not json")


def test_bad_expression_is_schema_error_with_location():
    with pytest.raises(SchemaError) as ei:
        load_problem(make(u0="sin(x1"))
    assert "u0" in str(ei.value)
    with pytest.raises(SchemaError) as ei:
        load_problem(make(a=["u + y"]))
    assert "a[0]" in str(ei.value)


def test_space_variables_not_allowed_in_velocity():
    with pytest.raises(SchemaError):
        load_problem(make(a=["x1"]))


def test_schema_shape_errors():
    with pytest.raises(SchemaError):
        load_problem(make(n=0))
    with pytest.raises(SchemaError):
        load_problem(make(a="u"))  # must be a list
    with pytest.raises(SchemaError):
        load_problem(make(box=[[-1.0, 1.0], [-1.0, 1.0]]))
    with pytest.raises(SchemaError):
        load_problem(make(space_grid=[41.0]))
    with pytest.raises(SchemaError):
        load_problem(make(rng_seed=-1))
    with pytest.raises(SchemaError):
        load_problem(make(rng_seed=2 ** 64))


def test_validation_errors():
    with pytest.raises(ValidationError):
        load_problem(make(sigma=-0.1))
    with pytest.raises(ValidationError):
        load_problem(make(box=[[1.0, -1.0]]))
    with pytest.raises(ValidationError):
        load_problem(make(space_grid=[1]))
    with pytest.raises(ValidationError):
        load_problem(make(time_points=[0.5, 0.25]))
    with pytest.raises(ValidationError):
        load_problem(make(time_points=[-0.5]))
    with pytest.raises(ValidationError):
        load_problem(make(rho0="0-1"))


def test_tolerance_overrides():
    spec = load_problem(make(tolerances={"newton_tol": 1e-10, "max_iter": 50}))
    assert spec.tol.newton_tol == 1e-10
    assert spec.tol.max_iter == 50
    with pytest.raises(SchemaError):
        load_problem(make(tolerances={"netwon_tol": 1e-10}))
    with pytest.raises(ValidationError):
        load_problem(make(tolerances={"blowup_tol": 0.0}))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_tolerances_refused_at_load(value):
    """json reads NaN and Infinity; a float tolerance must be finite and
    > 0, an integer one a finite positive integer."""
    with pytest.raises(ValidationError, match="kernel_cutoff"):
        load_problem(make(tolerances={"kernel_cutoff": value}))
    with pytest.raises(SchemaError, match="nodes_per_panel"):
        load_problem(make(tolerances={"nodes_per_panel": value}))


def test_analytic_derivative_validated_against_components():
    ok = make(a=["t*u"], a_u=["t"], A=["t^2/2*u"])
    spec = load_problem(ok)
    assert spec.velocity.time_dependent == (True,)
    with pytest.raises(ValidationError) as ei:
        load_problem(make(a=["t*u"], a_u=["2*t"]))
    assert "a_u[0]" in str(ei.value)
    with pytest.raises(ValidationError) as ei:
        load_problem(make(a=["t*u"], A=["t^2*u"]))
    assert "A[0]" in str(ei.value)


@pytest.mark.parametrize("grad", ["0", "-cos(x1)"])
def test_supplied_grad_u0_validated_against_exact_gradient(grad):
    cfg = json.loads((CONFIGS / "burgers_sin.json").read_text())
    with pytest.raises(ValidationError) as ei:
        load_problem(json.dumps({**cfg, "grad_u0": [grad]}))
    assert "grad_u0[0]" in str(ei.value)


def test_supplied_derivatives_are_checks_only():
    """A correct ``a_u`` or ``grad_u0`` loads, and the derived trees are
    the ones evaluated either way."""
    plain = load_problem(make(a=["u^2"]))
    checked = load_problem(make(a=["u^2"], a_u=["2*u"], grad_u0=["cos(x1)"]))
    assert checked.velocity.du_components == plain.velocity.du_components
    assert checked.init.grad_u0 == plain.init.grad_u0
    assert checked.digest == plain.digest


def test_antiderivative_must_vanish_at_zero():
    with pytest.raises(ValidationError) as ei:
        load_problem(make(a=["u"], A=["t*u+1"]))
    assert "t = 0" in str(ei.value)


def test_digest_stable_under_key_order():
    cfg = json.loads(make())
    reordered = json.dumps(dict(reversed(list(cfg.items()))))
    assert load_problem(make()).digest == load_problem(reordered).digest


def test_digest_distinguishes_content():
    base = load_problem(make())
    assert base.digest != load_problem(make(sigma=0.2)).digest
    assert base.digest != load_problem(make(u0="cos(x1)")).digest
    assert base.digest == load_problem(make()).digest


def test_with_sigma_returns_new_spec_and_digest():
    spec = load_problem(make())
    other = spec.with_sigma(0.05)
    assert other.sigma == 0.05
    assert spec.sigma == 0.1
    assert other.digest != spec.digest


def test_displacement_zero_at_t0():
    spec = load_problem(make())
    comps = displacement_components(spec, 0.0, np.array([0.3, -0.7]))
    assert np.all(comps[0] == 0.0)


def test_displacement_time_independent_shortcut():
    spec = load_problem(make())
    u = np.array([-1.0, 0.0, 0.5, 1.0])
    comps = displacement_components(spec, 2.0, u)
    np.testing.assert_allclose(comps[0], 2.0 * u, rtol=0, atol=0)


def test_displacement_analytic_vs_adaptive_quadrature():
    """Same velocity with and without a closed-form antiderivative."""
    with_a = load_problem(make(a=["t*u"], A=["t^2/2*u"]))
    without = load_problem(make(a=["t*u"]))
    u = np.linspace(-1.0, 1.0, 9)
    want = 0.5 * 0.8 ** 2 * u
    got_analytic = displacement_components(with_a, 0.8, u)[0]
    got_adaptive = displacement_components(without, 0.8, u)[0]
    np.testing.assert_allclose(got_analytic, want, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(got_adaptive, want, rtol=1e-9, atol=1e-12)


def test_flow_displacement_vector():
    cfg = {
        "n": 2, "a": ["u", "2*u"], "u0": "exp(-x1^2-x2^2)", "rho0": "1",
        "sigma": 0.1, "box": [[-2.0, 2.0], [-2.0, 2.0]],
        "space_grid": [9, 9], "time_points": [0.2],
    }
    spec = load_problem(json.dumps(cfg))
    vec = flow_displacement(spec, 0.5, 0.4)
    np.testing.assert_allclose(vec, [0.2, 0.4], rtol=1e-12)


def test_du_displacement_matches_finite_difference():
    spec = load_problem(make(a=["u^2"]))
    u = np.array([0.3, 0.9])
    got = du_displacement_components(spec, 0.7, u)[0]
    eps = 1e-6
    up = displacement_components(spec, 0.7, u + eps)[0]
    dn = displacement_components(spec, 0.7, u - eps)[0]
    np.testing.assert_allclose(got, (up - dn) / (2 * eps), rtol=1e-6)
    # closed form: d/du of t*u^2 is 2*t*u
    np.testing.assert_allclose(got, 2 * 0.7 * u, rtol=1e-9)


@pytest.mark.parametrize("t1", [1.0, 2.0])
def test_time_integral_accepts_each_element_on_its_own_error(t1):
    """Panels are accepted per element, so an element's integral does not
    depend on the rest of the array: the batch equals batches of one."""
    u = np.array([0.1, 0.7, 40.0])

    def cosine(us):
        return lambda tau: np.cos(tau * tau * us)

    batch = adaptive_time_integral(cosine(u), 0.0, t1, 1e-10)
    for i in range(len(u)):
        one = adaptive_time_integral(cosine(u[i:i + 1]), 0.0, t1, 1e-10)
        assert batch[i] == one[0], u[i]


def test_time_integral_accepts_a_non_finite_element_where_it_shows():
    """Bisection cannot make a non-finite panel estimate finite, so the
    element is accepted on the first panel where it shows instead of
    being bisected down to max_depth (about 10^10 integrand calls)."""
    calls = []

    def f(tau, bad=True):
        calls.append(tau)
        head = [np.cos(0.3 * tau)] + ([np.inf if tau > 0.71 else 1.0] if bad else [])
        return np.array(head + [np.exp(tau)])

    got = adaptive_time_integral(f, 0.0, 1.0, 1e-10)
    assert len(calls) <= 45
    assert got[1] == np.inf
    ref = adaptive_time_integral(lambda tau: f(tau, bad=False), 0.0, 1.0, 1e-10)
    assert got[0] == ref[0] and got[2] == ref[1]


@pytest.mark.parametrize("sizes", [(5,), (4, 3), (3, 2, 4)])
def test_tensor_columns_are_contiguous_columns_of_the_points(sizes):
    rng = np.random.default_rng(sum(sizes))
    axes = [np.sort(rng.uniform(-2.0, 2.0, k)) for k in sizes]
    # the points as rows, C order, built independently of tensor_columns
    rows = np.array([[ax[i] for ax, i in zip(axes, idx)]
                     for idx in np.ndindex(*sizes)])
    columns = tensor_columns(axes)
    assert len(columns) == len(axes)
    for i, c in enumerate(columns):
        assert c.ndim == 1 and c.flags.c_contiguous
        assert np.array_equal(c, rows[:, i])
    assert np.array_equal(tensor_points(axes), rows)


def test_time_integral_of_a_tree_without_u_is_one_scalar_integral():
    """da/du = t for a = t*u is integrated once, as a scalar, and
    broadcast: each element equals the elementwise integral of the
    broadcast integrand bit for bit."""
    spec = load_problem(make(a=["t*u"]))
    u = np.linspace(-1.0, 1.0, 9)
    for t in (0.3, 0.8, 2.5):
        got = du_displacement_components(spec, t, u)[0]
        want = adaptive_time_integral(lambda tau: np.full(u.shape, tau), 0.0, t,
                                      spec.tol.quad_tol_time)
        assert got.shape == u.shape and np.array_equal(got, want)
        assert du_displacement_components(spec, t, 0.4)[0] == want[0]


def test_time_integrals_unexpanded_are_scalars_without_u():
    """The time integrals return each B_i as computed: a scalar where
    the tree has no u (t for t*u, by quadrature; t for u, in closed
    form), an array where it has u, each equal to the public arrays bit
    for bit; at t = 0 each is 0.0.  The public arrays are unchanged."""
    spec = load_problem(make(n=3, a=["t*u", "u", "u^2/2"],
                             u0="sin(x1)", box=[[-1.0, 1.0]] * 3,
                             space_grid=[5, 5, 5]))
    u = np.linspace(-1.0, 1.0, 9)
    for t in (0.0, 0.3, 2.5):
        raw = spec.velocity.du_displacement(spec, t, u)
        full = du_displacement_components(spec, t, u)
        assert all(isinstance(b, np.ndarray) and b.shape == u.shape for b in full)
        if t == 0:
            assert raw == [0.0, 0.0, 0.0]
        else:
            assert [np.ndim(b) for b in raw] == [0, 0, 1]
        for b, f in zip(raw, full):
            assert np.array_equal(np.broadcast_to(b, u.shape), f)


def on_axes_outcome(init, program, axes, expand=True):
    """``on_columns`` on the ``axis_views`` of ``axes``, expanded by
    ``_arrays`` or as computed, as C-order flat arrays, or the class and
    message of the EvalDomainError it raises."""
    shape, views = tuple(len(ax) for ax in axes), axis_views(axes)
    try:
        values = init.on_columns(program, views)
    except EvalDomainError as e:
        return type(e), str(e)
    if expand:
        values = _arrays(values, shape, views)
        for v in values:
            assert v.shape == shape and v.dtype == float and v.flags.c_contiguous
    return [np.broadcast_to(v, shape).ravel() for v in values]


def columns_outcome(init, program, axes):
    """``on_columns`` on the tensor columns of ``axes``, expanded by
    ``_arrays``, or the class and message of the EvalDomainError it
    raises."""
    columns = tensor_columns(axes)
    try:
        return _arrays(init.on_columns(program, columns), columns[0].shape, columns)
    except EvalDomainError as e:
        return type(e), str(e)


def assert_on_axes_matches_columns(init, program, axes):
    """Expanded and unexpanded, ``on_columns`` on the ``axis_views``
    gives the bytes it gives on the points' columns, or raises as it
    does."""
    with np.errstate(all="ignore"):
        want = columns_outcome(init, program, axes)
        for expand in (True, False):
            got = on_axes_outcome(init, program, axes, expand)
            if isinstance(want, tuple):
                assert got == want
            else:
                assert len(got) == len(want)
                assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))
    return not isinstance(want, tuple)


def load_sample_axes(spec):
    """The axes of the sample ``load_problem`` checks u0 and rho0 on."""
    per_axis = max(201, int(round(2e5 ** (1.0 / spec.n))))
    return [np.linspace(lo, hi, max(per_axis, g))
            for (lo, hi), g in zip(spec.box, spec.space_grid)]


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.stem)
def test_on_axes_matches_columns_on_shipped_programs(path):
    """u0, rho0, the jet and the gradient a config would supply, on the
    load-time sample and on a coarse grid of the box."""
    spec = load_problem(path.read_text())
    init = spec.init
    x_vars = [f"x{i + 1}" for i in range(spec.n)]
    supplied = compile_exprs([parse(expr_to_str(g), x_vars) for g in init.grad_u0])
    coarse = [np.linspace(lo, hi, 7 + i) for i, (lo, hi) in enumerate(spec.box)]
    for axes in (load_sample_axes(spec), coarse):
        for program in (init.u0_program, init.rho0_program, init.jet_program, supplied):
            assert assert_on_axes_matches_columns(init, program, axes)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_on_axes_matches_columns_on_random_trees(n):
    """100 random trees per dimension, alone and ten to a program."""
    rng = np.random.default_rng(20261019 + n)
    names = [f"x{i + 1}" for i in range(n)]
    init = load_problem(make(n=n, a=["u"] * n, u0="+".join(names),
                             box=[[-1.0, 1.0]] * n, space_grid=[2] * n)).init
    trees = [_random_expr(rng, 5, names) for _ in range(100)]
    axes = [rng.uniform(-3.0, 3.0, k) for k in (5, 4, 3)[:n]]
    checked = sum(assert_on_axes_matches_columns(init, compile_exprs([e]), axes)
                  for e in trees)
    for k in range(0, len(trees), 10):
        assert_on_axes_matches_columns(init, compile_exprs(trees[k:k + 10]), axes)
    assert checked > 80


def test_on_axes_expands_trees_in_one_variable_and_constants():
    """Trees in fewer variables than the grid, and constant trees, on
    the ``axis_views`` and expanded by ``_arrays``, come back as new full
    C-contiguous arrays, never as the axes."""
    init = load_problem(make(n=3, a=["u"] * 3, u0="x1", box=[[-1.0, 1.0]] * 3,
                             space_grid=[2] * 3)).init
    axes = [np.linspace(-1.0, 1.0, k) for k in (3, 4, 5)]
    srcs = ["x1", "x2", "x3", "sin(x2)", "-x3", "2.5", "exp(-x1^2)", "x1*x3", "x2"]
    program = compile_exprs([parse(src, ["x1", "x2", "x3"]) for src in srcs])
    assert assert_on_axes_matches_columns(init, program, axes)
    views = axis_views(axes)
    values = _arrays(init.on_columns(program, views), (3, 4, 5), views)
    assert all(not np.shares_memory(v, ax) for v in values for ax in axes)
    assert values[1] is values[-1]  # equal trees stay one array


def test_on_axes_matches_columns_on_nan_and_inf():
    init = load_problem(make(n=2, a=["u", "u"], u0="x1", box=[[-1.0, 1.0]] * 2,
                             space_grid=[2, 2])).init
    axes = [np.array([-np.inf, -1.0, 0.5, np.nan, np.inf]),
            np.array([np.nan, -2.0, 0.25, np.inf, -np.inf])]
    srcs = ["x1 + x2", "x1 * x2", "exp(x1) - x2", "sin(x1) * cos(x2)",
            "tanh(x1 - x2)", "abs(x1) * x2", "x1^2 + x2^3", "x1 / x2"]
    for src in srcs:
        assert assert_on_axes_matches_columns(
            init, compile_exprs([parse(src, ["x1", "x2"])]), axes), src


@pytest.mark.parametrize("src, message", [
    ("log(x1 - x2)", "log of a nonpositive value"),
    ("sqrt(x1 * x2)", "sqrt of a negative value"),
    ("x1 / (x2 - 1)", "division by zero"),
    ("(x1 - x2)^0.5", "fractional power of a negative base"),
    ("(x1 * x2)^-2", "zero raised to a negative power"),
    ("x1^x2", "fractional power of a negative base"),
    ("(x1 + 1)^(x2 - 1)", "zero raised to a negative power"),
])
def test_on_axes_raises_as_columns_do(src, message):
    """Each domain check raises the same class and message on both
    paths, expanded or not."""
    init = load_problem(make(n=2, a=["u", "u"], u0="x1", box=[[-1.0, 1.0]] * 2,
                             space_grid=[2, 2])).init
    axes = [np.array([-1.0, 0.0, 2.0]), np.array([0.5, 1.0, 3.0, -0.5])]
    program = compile_exprs([parse(src, ["x1", "x2"])])
    assert not assert_on_axes_matches_columns(init, program, axes)
    assert columns_outcome(init, program, axes) == (EvalDomainError, message)


@pytest.mark.parametrize("sizes, size", [
    ((10,), 3), ((10,), 100), ((4, 5), 10), ((4, 5), 7), ((4, 5), 3),
    ((3, 4, 5), 20), ((3, 4, 5), 6), ((3, 4, 5), 2), ((2, 3, 4, 5), 30),
])
def test_check_blocks_tile_the_sample_in_c_order(sizes, size):
    """The load check's blocks, flattened and joined in order, are the
    whole tensor sample in C order; each has at most ``size`` points,
    and whole rows of the last axis where one row fits."""
    axes = [np.arange(m) + 10.0 * i for i, m in enumerate(sizes)]
    blocks = list(_axis_blocks(axes, size))
    joined = [np.concatenate(c) for c in zip(*(tensor_columns(b) for b in blocks))]
    for got, want in zip(joined, tensor_columns(axes)):
        assert np.array_equal(got, want)
    for b in blocks:
        assert math.prod(map(len, b)) <= size
        assert len(b[-1]) == sizes[-1] or sizes[-1] > size


def recorded_blocks(monkeypatch) -> list:
    """Each load's list of check blocks, recorded as it is read."""
    calls, original = [], _axis_blocks

    def record(axes, size):
        calls.append(list(original(axes, size)))
        return iter(calls[-1])

    monkeypatch.setattr(problem, "_axis_blocks", record)
    return calls


def test_shipped_configs_check_in_at_most_four_blocks(monkeypatch):
    """The 1D and 2D samples, of at most 200,000 points, take at most 4
    blocks of at most _BLOCK points: a config loaded once per
    step pays little for the blocks."""
    calls = recorded_blocks(monkeypatch)
    for path in sorted(CONFIGS.glob("*.json")):
        load_problem(path.read_text())
        blocks = calls.pop()
        assert 1 < len(blocks) <= 4, path.name
        assert all(math.prod(map(len, b)) <= _BLOCK for b in blocks)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("key, src, where, message", [
    ("u0", "exp(1e5*(x1 - 2.99))*0", -1, "'u0' is not finite everywhere on the box"),
    ("u0", "exp(-1e5*(x1 + 2.99))*0", 0, "'u0' is not finite everywhere on the box"),
    ("rho0", "2.995 - x1", -1, "'rho0' takes negative values on the box"),
    ("rho0", "x1 + 2.995", 0, "'rho0' takes negative values on the box"),
])
def test_load_check_reads_every_block(monkeypatch, key, src, where, message):
    """A non-finite u0 or a negative rho0 only in the first or only in
    the last block of the sample is refused as on the whole sample."""
    calls = recorded_blocks(monkeypatch)
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        load_problem(make(box=[[-3.0, 3.0]], **{key: src}))
    blocks = calls.pop()
    init = load_problem(make()).init
    program = compile_exprs([parse(src, ["x1"])])
    v = [init.on_columns(program, axis_views(b))[0] for b in blocks]
    faults = [bool(np.any(~np.isfinite(x) if key == "u0" else x < 0)) for x in v]
    assert faults.index(True) == where % len(blocks) and sum(faults) == 1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("overrides", [
    # a max relative error of 5.025e-3 at the box's last point
    {"grad_u0": ["cos(x1) + 0.01*exp(1000*(x1 - 3))"]},
    # NaN in the last block only: the max is NaN, as on the whole sample
    {"grad_u0": ["cos(x1) + exp(1e5*(x1 - 2.99))*0"]},
    # the second component wrong, in the last rows only
    {"n": 2, "a": ["u", "u"], "u0": "exp(-x1^2-x2^2)", "space_grid": [5, 5],
     "grad_u0": ["-2*x1*exp(-x1^2-x2^2)",
                 "-2*x2*exp(-x1^2-x2^2) + 0.01*exp(1000*(x1 - 3))"]},
])
def test_load_check_grad_message_is_the_whole_sample_one(monkeypatch, overrides):
    """A supplied grad_u0 that is wrong near the end of the box is
    refused with the message of one pass over the whole sample,
    including its max relative error."""
    n = overrides.get("n", 1)
    cfg = make(box=[[-3.0, 3.0]] * n, **overrides)
    calls = recorded_blocks(monkeypatch)
    with pytest.raises(ValidationError) as blocked:
        load_problem(cfg)
    assert len(calls.pop()) > 1
    monkeypatch.setattr(problem, "_BLOCK", 1 << 40)
    with pytest.raises(ValidationError) as whole:
        load_problem(cfg)
    assert len(calls.pop()) == 1
    assert str(blocked.value) == str(whole.value)
    assert f"'grad_u0[{n - 1}]' disagrees" in str(whole.value)


def test_load_check_domain_error_of_supplied_grad_comes_first():
    """A supplied grad_u0 whose only domain error lies in the last block
    is refused with that error, as the whole sample refused it, not with
    the exact gradient's error in the first block; a supplied grad_u0
    without one gets the exact gradient's."""
    for grad, message in (("log(3 - x1)", "log of a nonpositive value"),
                          ("1", "division by zero")):
        with pytest.raises(EvalDomainError, match=f"^{message}$"):
            load_problem(make(u0="sqrt(x1 + 3)", box=[[-3.0, 3.0]], grad_u0=[grad]))


def test_load_check_peak_3d():
    """On the 3D bump (a = (u, u, u), u0 = exp(-|x|^2), [-3, 3]^3), whose
    check reads 201^3 points, load_problem peaks at 0.99 MiB under
    tracemalloc; read in one pass, the sample peaked at 123.9 MiB."""
    cfg = make(n=3, a=["u"] * 3, u0="exp(-x1^2-x2^2-x3^2)",
               box=[[-3.0, 3.0]] * 3, space_grid=[5] * 3, time_points=[0.3])
    load_problem(cfg)
    tracemalloc.start()
    try:
        load_problem(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20
