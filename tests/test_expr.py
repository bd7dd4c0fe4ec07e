"""Expression engine: tokenizer, parser, evaluator, printer, derivatives."""

import json
import math

import numpy as np
import pytest

from charstoch import (
    ArityMismatch,
    EvalDomainError,
    ExprSyntaxError,
    IllegalCharacter,
    UnknownFunction,
    UnknownVariable,
    diff,
    eval_expr,
    expr_to_str,
    load_problem,
    numeric_partial,
    parse,
    variables,
)
from charstoch.expr import BinOp, Call, Const, Neg, Var, tokenize

XU = frozenset({"x1", "x2", "t", "u"})


def ev(src, **bindings):
    return eval_expr(parse(src, XU), bindings)


def test_number_token_forms():
    for src, want in [("3", 3.0), ("3.5", 3.5), (".5", 0.5), ("2.", 2.0),
                      ("1e3", 1000.0), ("2.5E-2", 0.025), ("1.e2", 100.0)]:
        assert ev(src) == want


def test_token_positions_are_byte_offsets():
    toks = tokenize("x1 + sin(t)")
    assert [(t.text, t.pos) for t in toks] == [
        ("x1", 0), ("+", 3), ("sin", 5), ("(", 8), ("t", 9), (")", 10)]


def test_operator_precedence_and_associativity():
    assert ev("1+2*3") == 7.0
    assert ev("2*3^2") == 18.0
    assert ev("2^3^2") == 512.0  # right-associative power
    assert ev("10-3-2") == 5.0   # left-associative subtraction
    assert ev("12/3/2") == 2.0
    assert ev("(1+2)*3") == 9.0


def test_unary_minus_binds_looser_than_power():
    assert ev("-2^2") == -4.0
    assert ev("(-2)^2") == 4.0
    assert ev("-x1^2", x1=3.0) == -9.0
    assert ev("2^-1") == 0.5


def test_functions_evaluate():
    assert ev("sin(0)") == 0.0
    assert ev("cos(0)") == 1.0
    assert ev("exp(1)") == pytest.approx(math.e, rel=1e-15)
    assert ev("log(exp(2))") == pytest.approx(2.0, rel=1e-15)
    assert ev("tanh(100)") == pytest.approx(1.0)
    assert ev("sqrt(2)") == pytest.approx(math.sqrt(2), rel=1e-15)
    assert ev("abs(-3.5)") == 3.5


def test_vectorized_evaluation_broadcasts():
    e = parse("u*sin(x1)", XU)
    x = np.linspace(-1, 1, 7)
    got = eval_expr(e, {"x1": x, "u": 2.0})
    np.testing.assert_allclose(got, 2.0 * np.sin(x), rtol=1e-15)


def test_illegal_character_reports_offset():
    with pytest.raises(IllegalCharacter) as ei:
        parse("x1 @ 2", XU)
    assert "offset 3" in str(ei.value)


def test_double_dot_number_is_rejected():
    # "3..5" lexes as the number "3." followed by an illegal bare dot
    with pytest.raises(IllegalCharacter) as ei:
        parse("3..5", XU)
    assert "offset 2" in str(ei.value)


def test_syntax_errors():
    for bad in ["", "1+", "(1+2", "1 2", "*3", "sin 2", "()"]:
        with pytest.raises(ExprSyntaxError):
            parse(bad, XU)


def test_unknown_variable_mentions_name_and_offset():
    with pytest.raises(UnknownVariable) as ei:
        parse("x1 + y", XU)
    msg = str(ei.value)
    assert "y" in msg and "offset 5" in msg


def test_variable_not_allowed_in_context():
    # x1 is a space variable; velocity expressions only see t and u
    with pytest.raises(UnknownVariable):
        parse("x1", frozenset({"t", "u"}))


def test_unknown_function():
    with pytest.raises(UnknownFunction):
        parse("sinh(x1)", XU)


def test_function_arity():
    with pytest.raises(ArityMismatch):
        parse("sin(x1, x2)", XU)


def test_eval_domain_errors():
    for bad in ["1/0", "log(0)", "log(-1)", "sqrt(-1)", "0^-1", "(0-2)^0.5"]:
        with pytest.raises(EvalDomainError):
            ev(bad)


def test_domain_error_on_any_array_element():
    e = parse("log(x1)", XU)
    with pytest.raises(EvalDomainError):
        eval_expr(e, {"x1": np.array([1.0, -1.0, 2.0])})


def test_variables_reports_free_names():
    assert variables(parse("u*sin(x1)+t", XU)) == frozenset({"u", "x1", "t"})
    assert variables(parse("1+2", XU)) == frozenset()


def test_printer_output_reparses_to_same_ast():
    cases = ["-x1^2", "2^3^2", "1-(2-3)", "x1*(x2+1)", "-(x1+1)",
             "sin(x1)^2+cos(x1)^2", "2^-x1", "(x1/x2)/t", "x1-x2-t"]
    for src in cases:
        e = parse(src, XU)
        assert parse(expr_to_str(e), XU) == e


def _random_expr(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return Const(float(rng.integers(1, 5)) + round(rng.random(), 3))
        return Var(rng.choice(["x1", "x2", "t", "u"]))
    r = rng.random()
    if r < 0.15:
        return Neg(_random_expr(rng, depth - 1))
    if r < 0.35:
        fn = rng.choice(["sin", "cos", "exp", "tanh", "abs"])
        return Call(fn, _random_expr(rng, depth - 1))
    op = rng.choice(["+", "-", "*", "/"])
    return BinOp(op, _random_expr(rng, depth - 1), _random_expr(rng, depth - 1))


def test_print_parse_round_trip_is_value_exact():
    """1000 random trees: the printed form evaluates identically."""
    rng = np.random.default_rng(20240811)
    for _ in range(1000):
        e = _random_expr(rng, 4)
        back = parse(expr_to_str(e), XU)
        for _ in range(10):
            env = {v: float(rng.uniform(0.1, 3.0)) for v in ("x1", "x2", "t", "u")}
            try:
                want = eval_expr(e, env)
            except EvalDomainError:
                continue
            got = eval_expr(back, env)
            assert got == pytest.approx(want, rel=1e-12)


def test_numeric_partial_matches_analytic():
    e = parse("u^2*sin(x1)", XU)
    env = {"u": 1.3, "x1": 0.7}
    du = numeric_partial(e, "u", env)
    dx = numeric_partial(e, "x1", env)
    assert du == pytest.approx(2 * 1.3 * math.sin(0.7), rel=1e-8)
    assert dx == pytest.approx(1.3 ** 2 * math.cos(0.7), rel=1e-8)


# (source, closed-form d/du at (u, t)) with NumPy's functions, as eval_expr
DIFF_CASES = [
    ("u + t", lambda u, t: 1.0),
    ("t - u", lambda u, t: -1.0),
    ("-u", lambda u, t: -1.0),
    ("u*t", lambda u, t: t),
    ("u/t", lambda u, t: 1.0 / t),
    ("t/u", lambda u, t: -(t / u ** 2)),
    ("sin(u)/u", lambda u, t: np.cos(u) / u - np.sin(u) / u ** 2),
    ("u^3", lambda u, t: 3.0 * u ** 2),
    ("-u^2", lambda u, t: -(2.0 * u)),
    ("u^-0.5", lambda u, t: -0.5 * u ** -1.5),
    ("t^u", lambda u, t: t ** u * np.log(t)),
    ("u^u", lambda u, t: u ** u * (np.log(u) + 1.0)),
    ("(u + 1)^(2*u)", lambda u, t: (u + 1.0) ** (2.0 * u)
     * (2.0 * np.log(u + 1.0) + 2.0 * u / (u + 1.0))),
    ("sin(u)", lambda u, t: np.cos(u)),
    ("cos(u)", lambda u, t: -np.sin(u)),
    ("exp(t*u)", lambda u, t: np.exp(t * u) * t),
    ("log(u)", lambda u, t: 1.0 / u),
    ("tanh(u)", lambda u, t: 1.0 - np.tanh(u) ** 2),
    ("sqrt(u)", lambda u, t: 1.0 / (2.0 * np.sqrt(u))),
    ("abs(u - 2)", lambda u, t: np.copysign(1.0, u - 2.0)),
    ("sin(u^2)", lambda u, t: np.cos(u ** 2) * (2.0 * u)),
]


@pytest.mark.parametrize("src, want", DIFF_CASES, ids=[c[0] for c in DIFF_CASES])
def test_diff_matches_closed_form(src, want):
    d = diff(parse(src, XU), "u")
    for u in (0.3, 1.7, 2.9):
        got = eval_expr(d, {"u": u, "t": 1.3})
        assert got == pytest.approx(want(u, 1.3), rel=1e-14, abs=0), (src, u)


@pytest.mark.parametrize("src", [c[0] for c in DIFF_CASES])
def test_printed_derivative_parses_back_to_the_same_tree(src):
    d = diff(parse(src, XU), "u")
    assert parse(expr_to_str(d), XU) == d


def test_diff_folds_zero_and_one():
    assert diff(parse("t*u", XU), "u") == Var("t")
    assert diff(parse("u", XU), "u") == Const(1.0)
    assert diff(parse("exp(t)", XU), "u") == Const(0.0)
    assert diff(parse("-cos(u)", XU), "u") == Call("sin", Var("u"))
    assert diff(parse("x1^2", XU), "x1") == BinOp("*", Const(2.0), Var("x1"))


def test_derivative_refused_where_it_does_not_exist():
    with pytest.raises(EvalDomainError):
        eval_expr(diff(parse("sqrt(u)", XU), "u"), {"u": 0.0})
    spec = load_problem(json.dumps({
        "n": 1, "a": ["u"], "u0": "abs(x1)", "rho0": "1", "sigma": 0.1,
        "box": [[-1.0, 1.0]], "space_grid": [11], "time_points": [0.5]}))
    assert spec.init.grad_u0_at([[0.5]])[0, 0] == 1.0
    with pytest.raises(EvalDomainError):
        spec.init.grad_u0_at([[0.0]])


def test_diff_of_random_trees_matches_central_difference():
    """300 random trees: the derivative prints and parses back to itself
    and agrees with a central difference to its truncation error."""
    rng = np.random.default_rng(20261018)
    checked = 0
    for _ in range(300):
        e = _random_expr(rng, 4)
        d = diff(e, "u")
        assert parse(expr_to_str(d), XU) == d
        env = {v: float(rng.uniform(0.1, 3.0)) for v in ("x1", "x2", "t", "u")}
        h = 1e-5
        try:
            got = eval_expr(d, env)
            up = eval_expr(e, {**env, "u": env["u"] + h})
            dn = eval_expr(e, {**env, "u": env["u"] - h})
        except EvalDomainError:
            continue
        assert got == pytest.approx((up - dn) / (2 * h), rel=1e-5, abs=1e-5)
        checked += 1
    assert checked > 250
