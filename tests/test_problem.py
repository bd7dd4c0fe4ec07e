"""Configuration loading, validation, the velocity flow map, and the
shared CSV writer."""

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
from charstoch.expr import compile_exprs, parse
from charstoch.problem import (_BLOCK, _CSV_ROWS, _arrays, _axis_blocks, _write_csv,
                               axis_views, tensor_columns, tensor_points)
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
    assert spec.velocity.du_components == (parse("1", set()),)


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
        load_problem(make(tolerances={"denom_floor": 0.0}))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_tolerances_refused_at_load(value):
    """json reads NaN and Infinity; a float tolerance must be finite and
    > 0, an integer one a finite positive integer."""
    with pytest.raises(ValidationError, match="kernel_cutoff"):
        load_problem(make(tolerances={"kernel_cutoff": value}))
    with pytest.raises(SchemaError, match="nodes_per_panel"):
        load_problem(make(tolerances={"nodes_per_panel": value}))


def test_analytic_derivative_validated_against_components():
    load_problem(make(a=["u^2/2"], a_u=["u"]))
    with pytest.raises(ValidationError) as ei:
        load_problem(make(a=["u^2/2"], a_u=["2*u"]))
    assert "a_u[0]" in str(ei.value)


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


def test_digest_stable_under_key_order():
    cfg = json.loads(make())
    reordered = json.dumps(dict(reversed(list(cfg.items()))))
    assert load_problem(make()).digest == load_problem(reordered).digest


def test_digest_distinguishes_content():
    base = load_problem(make())
    assert base.digest != load_problem(make(sigma=0.2)).digest
    assert base.digest != load_problem(make(u0="cos(x1)")).digest
    assert base.digest == load_problem(make()).digest
    # the digest hashes the parsed trees, not their spelling
    gauss = load_problem(make(u0="exp(-x1^2)")).digest
    assert gauss == load_problem(make(u0="exp(-(x1^2))")).digest
    assert gauss == load_problem(make(u0=" exp( - x1 ^ 2 ) ")).digest
    # a constant one bit apart is another problem
    assert load_problem(make(u0="0.5*x1")).digest \
        != load_problem(make(u0=f"{math.nextafter(0.5, 1.0)!r}*x1")).digest


def test_with_sigma_returns_new_spec_and_digest():
    spec = load_problem(make())
    other = spec.with_sigma(0.05)
    assert other.sigma == 0.05
    assert spec.sigma == 0.1
    assert other.digest != spec.digest


def signed_velocity():
    """a = (u^2/2 - 1, -2u) on u in [-1, 1]: a_1 < 0, a_2 and da_1/du
    change sign, and da_2/du = -2 is a tree without u."""
    return load_problem(make(n=2, a=["u^2/2-1", "-2*u"], box=[[-1.0, 1.0]] * 2,
                             space_grid=[5, 5]))


def test_displacement_zero_at_t0():
    """A and B are exactly +0.0 at t = 0, also where a or da/du is
    negative, which 0.0 times the steady value would make -0.0."""
    spec = signed_velocity()
    u = np.linspace(-1.0, 1.0, 9)
    for comps in (displacement_components(spec, 0.0, u),
                  du_displacement_components(spec, 0.0, u)):
        for c in comps:
            assert c.shape == u.shape
            assert np.all(c == 0.0) and not np.signbit(c).any()


def test_displacement_time_independent_shortcut():
    """A = t * a(u) and B = t * da/du(u) bit for bit at t > 0."""
    spec = signed_velocity()
    u = np.linspace(-1.0, 1.0, 9)
    a = spec.velocity.a_values(u)
    a_u = problem._values(spec.velocity.du_program, u)
    assert (a[0] < 0).all() and (a_u[1] < 0).all()
    for t in (0.3, 2.0):
        for got, steady in ((displacement_components(spec, t, u), a),
                            (du_displacement_components(spec, t, u), a_u)):
            for g, v in zip(got, steady):
                assert g.shape == u.shape and np.array_equal(g, t * v)


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
    """B = t * da/du for a = 0.5*u is one product t * 0.5, broadcast:
    each element equals t * 0.5 bit for bit, as does B at one u."""
    spec = load_problem(make(a=["0.5*u"]))
    u = np.linspace(-1.0, 1.0, 9)
    for t in (0.3, 0.8, 2.5):
        got = du_displacement_components(spec, t, u)[0]
        assert got.shape == u.shape and np.array_equal(got, np.full(u.shape, t * 0.5))
        assert du_displacement_components(spec, t, 0.4)[0] == t * 0.5


def test_time_integrals_unexpanded_are_scalars_without_u():
    """The time integrals t * da_i/du come unexpanded from ``_times_t``,
    as computed: a scalar where the tree has no u (t / 2 for u / 2, t
    for u), an array where it has u, each equal to the public arrays bit
    for bit; at t = 0 each is 0.0.  The public arrays are unchanged."""
    spec = load_problem(make(n=3, a=["0.5*u", "u", "u^2/2"],
                             u0="sin(x1)", box=[[-1.0, 1.0]] * 3,
                             space_grid=[5, 5, 5]))
    u = np.linspace(-1.0, 1.0, 9)
    for t in (0.0, 0.3, 2.5):
        raw = problem._times_t(spec.velocity.du_program, t, u)
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
    per_axis = max(round(2e5 ** (1.0 / spec.n)), min(201, int(201 ** (3.0 / spec.n))))
    return [np.linspace(lo, hi, max(per_axis, g))
            for (lo, hi), g in zip(spec.box, spec.space_grid)]


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.stem)
def test_on_axes_matches_columns_on_shipped_programs(path):
    """u0, rho0, the jet and the gradient a config would supply, on the
    load-time sample and on a coarse grid of the box."""
    spec = load_problem(path.read_text())
    init = spec.init
    supplied = compile_exprs(init.grad_u0)
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


@pytest.mark.parametrize("n, per_axis", [(1, 200_000), (2, 447), (3, 201), (4, 53)])
def test_load_check_sample_stops_at_the_3d_one(monkeypatch, n, per_axis):
    """The load check reads about 2e5 points, at least 201 per axis, and
    no more than the 201^3 points of 3D: the 4D bump's sample is 53^4
    points, where 201 per axis read 1.6 billion in 6.8 s.  With an odd
    count per axis, the bump's u0 range is that of the box corners and
    the origin, both of them on the sample at 53 points per axis as at
    201."""
    x = [f"x{i + 1}" for i in range(n)]
    cfg = make(n=n, a=["u"] * n, u0=f"exp(-({'+'.join(v + '^2' for v in x)}))",
               box=[[-3.0, 3.0]] * n, space_grid=[5] * n, time_points=[0.3])
    calls = recorded_blocks(monkeypatch)
    spec = load_problem(cfg)
    blocks = calls.pop()
    assert sum(math.prod(map(len, b)) for b in blocks) == per_axis ** n
    if per_axis % 2:  # the origin is on the sample
        lo, hi = math.exp(-9.0 * n), 1.0
        pad = 0.01 * (hi - lo)
        assert spec.u_range == (lo - pad, hi + pad)


# cells whose spelling a CSV writer must keep: NaN, +-inf, -0.0, the
# smallest subnormal and the largest double, beside plain values
CSV_CELLS = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.7976931348623157e308,
             0.1, -2.5e-7]


@pytest.mark.parametrize("eol", ["\n", "\r\n"])
def test_write_csv_bytes_equal_the_f_string_rows(tmp_path, eol):
    """Row tuples in one block, as the convergence, residuals and iterms
    tables are written: each cell as ``f"{v:.12e}"``, and with a ``row``
    format, string cells (an empty one among them) as they are."""
    rows = [tuple(CSV_CELLS[(i + k) % len(CSV_CELLS)] for k in range(4))
            for i in range(len(CSV_CELLS))]
    path = tmp_path / "t.csv"
    _write_csv(path, ["sigma", "e_u", "e_a", "e_rho"], [rows], eol=eol)
    want = "sigma,e_u,e_a,e_rho" + eol + "".join(
        f"{a:.12e},{b:.12e},{c:.12e},{d:.12e}" + eol for a, b, c, d in rows)
    assert path.read_bytes() == want.encode()
    mixed = [("mass_sigma", *r, "" if i % 2 else f"{r[0]:.12e}")
             for i, r in enumerate(rows)]
    _write_csv(path, ["equation", "h", "dt", "max", "l1", "ratio"], [mixed],
               row="%s,%.12e,%.12e,%.12e,%.12e,%s", eol=eol)
    want = "equation,h,dt,max,l1,ratio" + eol + "".join(
        f"{e},{h:.12e},{dt:.12e},{m:.12e},{l1:.12e},{q}" + eol
        for e, h, dt, m, l1, q in mixed)
    assert path.read_bytes() == want.encode()
    _write_csv(path, ["sigma"], [[]], eol=eol)
    assert path.read_bytes() == ("sigma" + eol).encode()


@pytest.mark.parametrize("eol", ["\n", "\r\n"])
def test_write_csv_bytes_equal_the_array_blocks(tmp_path, eol):
    """Array blocks, as field grids and particle dumps are written, with
    ``_CSV_ROWS`` + 1 rows so that a block edge is crossed: the bytes of
    one ``%`` call over the whole table, a ``%d`` column included."""
    count = _CSV_ROWS + 1
    rng = np.random.default_rng(7)
    table = rng.standard_normal((count, 3)) * 10.0 ** rng.integers(-300, 300, (count, 3))
    table.ravel()[::997] = np.resize(CSV_CELLS, table.ravel()[::997].shape)
    table[-1] = CSV_CELLS[:3]
    blocks = [table[a:a + _CSV_ROWS] for a in range(0, count, _CSV_ROWS)]
    assert len(blocks) == 2
    path = tmp_path / "t.csv"
    _write_csv(path, ["y1", "U", "X1"], iter(blocks), eol=eol)
    want = "y1,U,X1" + eol + (("%.12e,%.12e,%.12e" + eol) * count) % tuple(
        table.ravel().tolist())
    assert path.read_bytes() == want.encode()
    valid = rng.integers(0, 2, count).astype(float)
    flagged = np.column_stack([table, valid])
    _write_csv(path, ["t", "x1", "value", "valid"],
               (flagged[a:a + _CSV_ROWS] for a in range(0, count, _CSV_ROWS)),
               row="%.12e,%.12e,%.12e,%d", eol=eol)
    want = "t,x1,value,valid" + eol + (("%.12e,%.12e,%.12e,%d" + eol) * count) % tuple(
        flagged.ravel().tolist())
    assert path.read_bytes() == want.encode()
    _write_csv(path, ["y1", "U", "X1"], iter([]), eol=eol)
    assert path.read_bytes() == ("y1,U,X1" + eol).encode()
