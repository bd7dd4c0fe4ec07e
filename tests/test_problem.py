"""Configuration loading, validation, and the velocity flow map."""

import json
import math
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
from charstoch.problem import tensor_columns, tensor_points
from charstoch.quadrature import adaptive_time_integral

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
