"""Expression engine: tokenizer, parser, evaluator, derivatives."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from charstoch import (
    ArityMismatch,
    EvalDomainError,
    ExprError,
    ExprSyntaxError,
    IllegalCharacter,
    SchemaError,
    UnknownFunction,
    UnknownVariable,
    blow_up_time,
    diff,
    eval_expr,
    load_problem,
    numeric_partial,
    parse,
)
from charstoch.expr import BinOp, Call, Const, Neg, Var, compile_exprs, tokenize

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


def _random_expr(rng, depth, names=("x1", "x2", "t", "u")):
    """A random tree of at most ``depth`` levels over the variables
    ``names``."""
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return Const(float(rng.integers(1, 5)) + round(rng.random(), 3))
        return Var(rng.choice(list(names)))
    r = rng.random()
    if r < 0.15:
        return Neg(_random_expr(rng, depth - 1, names))
    if r < 0.35:
        fn = rng.choice(["sin", "cos", "exp", "tanh", "abs"])
        return Call(fn, _random_expr(rng, depth - 1, names))
    op = rng.choice(["+", "-", "*", "/"])
    return BinOp(op, _random_expr(rng, depth - 1, names),
                 _random_expr(rng, depth - 1, names))


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
    """300 random trees: the derivative agrees with a central difference
    to its truncation error."""
    rng = np.random.default_rng(20261018)
    checked = 0
    for _ in range(300):
        e = _random_expr(rng, 4)
        d = diff(e, "u")
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


# ---------------------------------------------------------------------------
# compiled programs against the recursive definition


def reference_eval(e, env):
    """The recursive tree evaluator the compiler replaced, kept here as
    the oracle: compiled programs must give its values bit for bit and
    raise where it raises."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        return env[e.name]
    if isinstance(e, Neg):
        return -reference_eval(e.child, env)
    if isinstance(e, BinOp):
        a = reference_eval(e.left, env)
        b = reference_eval(e.right, env)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        if e.op == "/":
            if np.any(b == 0):
                raise EvalDomainError("division by zero")
            return a / b
        with np.errstate(invalid="ignore", divide="ignore"):
            r = np.power(np.asarray(a, dtype=float), b)
        if np.any(np.isnan(r)) and not (np.any(np.isnan(a)) or np.any(np.isnan(b))):
            raise EvalDomainError("fractional power of a negative base")
        if np.any(np.isinf(r)) and np.all(np.isfinite(a)) and np.all(np.isfinite(b)):
            if np.any((np.asarray(a) == 0) & (np.asarray(b) < 0)):
                raise EvalDomainError("zero raised to a negative power")
        return r
    v = reference_eval(e.arg, env)
    if e.fn == "log":
        if np.any(np.asarray(v) <= 0):
            raise EvalDomainError("log of a nonpositive value")
        return np.log(v)
    if e.fn == "sqrt":
        if np.any(np.asarray(v) < 0):
            raise EvalDomainError("sqrt of a negative value")
        return np.sqrt(v)
    return {"sin": np.sin, "cos": np.cos, "exp": np.exp, "tanh": np.tanh,
            "abs": np.abs}[e.fn](v)


def reference_value(e, env):
    """``reference_eval`` with eval_expr's result types."""
    v = reference_eval(e, env)
    return v if isinstance(v, np.ndarray) and v.ndim > 0 else float(v)


def same_bits(got, want) -> bool:
    """Same type, shape and bytes: == elementwise, NaNs and the sign of
    zero included."""
    return type(got) is type(want) and np.shape(got) == np.shape(want) \
        and np.asarray(got).tobytes() == np.asarray(want).tobytes()


def assert_matches_reference(trees, env):
    """Each tree alone and all of them in one program give the oracle's
    value, or raise where it raises."""
    try:
        want = [reference_value(e, env) for e in trees]
    except EvalDomainError:
        with pytest.raises(EvalDomainError):
            eval_expr(compile_exprs(trees), env)
        return False
    for e, w in zip(trees, want):
        assert same_bits(eval_expr(e, env), w), e
    for e, got, w in zip(trees, eval_expr(compile_exprs(trees), env), want):
        assert same_bits(got, w), e
    return True


GRAMMAR_CASES = [
    "x1 + x2", "x1 - x2", "x1 * x2", "x1 / x2", "x1 ^ x2", "-x1", "-(x1 - x2)",
    "sin(x1)", "cos(x1)", "exp(x1)", "log(x2)", "tanh(x1)", "sqrt(x2)",
    "abs(x1)", "2^3^2", "x2^x1^0.5", "-x1^2", "x1^-1", "x2^-1.5", "x1^2.5",
    "x2^0", "(x1 - x2)^3", "x1 - x2 - u", "x1 / x2 / u", "2^-x1",
    "exp(-x1^2 - x2^2) * (x1 + u)", "t*u + sin(t)", "abs(x1)^0.5",
]


@pytest.mark.parametrize("src", GRAMMAR_CASES)
def test_compiled_grammar_matches_the_recursive_definition(src):
    e = parse(src, XU)
    scalar = {"x1": 0.7, "x2": 1.9, "t": 0.4, "u": -1.3}
    rng = np.random.default_rng(5)
    arrays = {"x1": rng.uniform(-2.0, 2.0, 50), "x2": rng.uniform(0.1, 3.0, 50),
              "t": 0.4, "u": rng.uniform(-2.0, 2.0, 50)}
    positive = {**arrays, "x1": rng.uniform(0.1, 3.0, 50)}
    checked = [assert_matches_reference([e], env)
               for env in (scalar, arrays, positive)]
    assert checked[0] and checked[2], src


def test_compiled_random_trees_match_the_recursive_definition():
    """300 random trees, alone and 30 at a time in one program, on
    scalar and array bindings."""
    rng = np.random.default_rng(20261019)
    trees = [_random_expr(rng, 5) for _ in range(300)]
    arrays = {v: rng.uniform(-3.0, 3.0, 40) for v in ("x1", "x2", "u")}
    checked = 0
    for k in range(0, len(trees), 30):
        group = trees[k:k + 30]
        for _ in range(3):
            env = {v: float(rng.uniform(-3.0, 3.0)) for v in ("x1", "x2", "t", "u")}
            checked += assert_matches_reference(group, env)
        checked += assert_matches_reference(group, {**arrays, "t": 0.6})
        for e in group:  # one tree that fails must not hide the others
            checked += assert_matches_reference([e], {**arrays, "t": 0.6})
    assert checked > 250


def test_joint_programs_share_subtrees_and_release_intermediates():
    e = parse("exp(-x1^2 - x2^2)", XU)
    program = compile_exprs([e, diff(e, "x1"), diff(e, "x2")])
    ops = [step[0] for step in program.steps]
    assert ops.count("exp") == 1 and ops.count("^") == 2
    x = np.linspace(-1.0, 1.0, 7)
    values = eval_expr(program, {"x1": x, "x2": x[::-1]})
    for tree, got in zip(program.trees, values):
        assert same_bits(got, reference_value(tree, {"x1": x, "x2": x[::-1]}))
    # every step result but the outputs is released after its last use
    released = {r for step in program.steps for r in step[-1]}
    made = {step[4] for step in program.steps}
    assert made - released == set(program.outputs)
    # equal trees share one result object
    u = parse("u", XU)
    shared = eval_expr(compile_exprs([u, parse("u*1", XU), u]), {"u": x})
    assert shared[0] is x and shared[2] is x and shared[1] is not x


def test_programs_release_each_intermediate_after_its_last_use():
    """A chain of twelve array steps holds at most two intermediates
    at a time, not all twelve."""
    program = compile_exprs([parse("-(" * 12 + "x1" + " + 1)" * 12, XU)])
    x = np.ones(200_000)
    tracemalloc.start()
    try:
        eval_expr(program, {"x1": x})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * x.nbytes


@pytest.mark.parametrize("trees, env", [
    (["sqrt(x1) + 1", "sqrt(x1) * 2"], {"x1": np.array([1.0, -1.0])}),
    (["log(x1) - x2", "x2 * log(x1)"], {"x1": 0.0, "x2": 1.0}),
    (["log(x1)", "log(x1)"], {"x1": np.array([2.0, -3.0])}),
    (["x1^-1", "x1^-1 + x2"], {"x1": 0.0, "x2": 1.0}),
    (["x1^-1", "2 * x1^-1"], {"x1": np.array([1.0, 0.0]), "x2": 1.0}),
    (["x1^0.5", "x1^0.5 - x2"], {"x1": -2.0, "x2": 1.0}),
    (["x1^2.5", "x2 + x1^2.5"], {"x1": np.array([1.0, -1.0, 2.0]), "x2": 1.0}),
    (["x2 / (x1 - x1)", "x1 - x1"], {"x1": 1.0, "x2": 1.0}),
])
def test_domain_errors_raise_from_shared_subtrees(trees, env):
    trees = [parse(s, XU) for s in trees]
    for e in trees[:1]:
        with pytest.raises(EvalDomainError):
            reference_eval(e, env)
        with pytest.raises(EvalDomainError):
            eval_expr(e, env)
    with pytest.raises(EvalDomainError):
        eval_expr(compile_exprs(trees), env)


def test_derivative_domain_errors_raise_in_the_joint_program():
    e = parse("abs(x1) + sqrt(x2)", XU)
    program = compile_exprs([e, diff(e, "x1"), diff(e, "x2")])
    eval_expr(program, {"x1": 0.5, "x2": 0.5})
    for env in ({"x1": 0.0, "x2": 0.5}, {"x1": 0.5, "x2": 0.0},
                {"x1": np.array([1.0, 0.0]), "x2": np.array([1.0, 1.0])}):
        with pytest.raises(EvalDomainError):
            eval_expr(program, env)


def test_constant_exponents_keep_only_the_checks_they_can_fail():
    """A constant exponent leaves out only checks that cannot fire: the
    values, NaN bases included, are the oracle's."""
    nan = np.array([np.nan, 2.0])
    for src in ("x1^2", "x1^-2", "x1^0.5", "x1^-0.5", "x1^x2"):
        assert assert_matches_reference([parse(src, XU)], {"x1": nan, "x2": 2.0})
    for src, base in (("x1^3", [-2.0, 0.0, 3.0]), ("x1^0", [-2.0, 0.0, 3.0]),
                      ("x1^-3", [-2.0, 3.0]), ("x1^0.5", [0.0, 4.0]),
                      ("x1^-0.5", [1.0, 4.0])):
        assert assert_matches_reference([parse(src, XU)], {"x1": np.array(base)})


def test_unbound_variables_are_refused():
    with pytest.raises(UnknownVariable):
        eval_expr(parse("x1 + u", XU), {"x1": 1.0})
    with pytest.raises(UnknownVariable):
        eval_expr(compile_exprs([parse("x1", XU), parse("u", XU)]), {"x1": 1.0})


# ---------------------------------------------------------------------------
# the front end: alphabet, depth limit, and Python's parser as an oracle

@pytest.mark.parametrize("src, pos", [("sin(é)", 4), ("٣", 0), ("x1 + ²", 5),
                                      ("x1\u00a0+ 1", 2), ("1٣", 1)])
def test_non_ascii_characters_are_illegal(src, pos):
    """Letters, digits and spaces outside ASCII are refused at their
    offset, not read as identifiers, numbers or whitespace."""
    with pytest.raises(IllegalCharacter) as ei:
        parse(src, XU)
    assert ei.value.pos == pos
    assert str(ei.value) == f"illegal character {src[pos]!r} (at offset {pos})"


# each shape at a given depth: the number of levels of its tree, with a
# pair of parentheses counted as a level
DEPTH_SHAPES = {
    "parentheses": lambda d: "(" * (d - 1) + "x1" + ")" * (d - 1),
    "minus": lambda d: "-" * (d - 1) + "x1",
    "power": lambda d: "0.5^" * (d - 1) + "x1",
    "calls": lambda d: "sin(" * (d - 1) + "x1" + ")" * (d - 1),
    "sum": lambda d: " + ".join(["sin(x1)"] * (d - 1)),
}


@pytest.mark.parametrize("shape", list(DEPTH_SHAPES))
def test_depth_limit_on_both_sides(shape):
    """The deepest accepted source of each shape loads and runs the
    blow-up search; one level more is a syntax error, in the parser
    for nesting and in the tree walk for a long sum."""
    def config(src):
        return json.dumps({"n": 1, "a": ["u"], "u0": src, "rho0": "1", "sigma": 0.1,
                           "box": [[-1.0, 1.0]], "space_grid": [5],
                           "time_points": [0.1]})

    deepest = DEPTH_SHAPES[shape](100)
    blow_up_time(load_problem(config(deepest)))
    with pytest.raises(ExprSyntaxError, match="nested deeper than 100 levels"):
        parse(DEPTH_SHAPES[shape](101), XU)
    with pytest.raises(SchemaError, match="nested deeper than 100 levels"):
        load_problem(config(DEPTH_SHAPES[shape](101)))
    with pytest.raises(ExprSyntaxError):
        parse(DEPTH_SHAPES[shape](2000), XU)


ORACLE_TOKENS = ["x1", "x2", "t", "u", "sin", "cos", "exp", "log", "tanh", "sqrt", "abs",
                 "0", "1", "2", "2.5", ".5", "3.", "1e3", "2E-2", "1.e2",
                 "+", "-", "*", "/", "^", "(", ")", "(", ")", ","]
ORACLE_ENV = {"x1": 0.7, "x2": -1.3, "t": 0.4, "u": 2.1}
PY_FUNCTIONS = {"sin": math.sin, "cos": math.cos, "exp": math.exp, "log": math.log,
                "tanh": math.tanh, "sqrt": math.sqrt, "abs": abs}


def test_accepted_sources_agree_with_pythons_parser():
    """Random space-joined token runs that ``parse`` accepts are Python
    expressions once ``^`` is ``**``; where both evaluate to finite
    floats they agree to 1e-12 relative, so the precedence and
    associativity are Python's.  Tokens lie where their offsets say."""
    rng = np.random.default_rng(20261020)
    accepted = compared = 0
    for _ in range(20000):
        src = " ".join(rng.choice(ORACLE_TOKENS, size=rng.integers(1, 9)))
        try:
            e = parse(src, XU)
        except ExprError:
            continue
        accepted += 1
        assert all(src[t.pos:t.pos + len(t.text)] == t.text for t in tokenize(src))
        code = compile(src.replace("^", "**"), "<oracle>", "eval")
        try:
            want = eval(code, {"__builtins__": {}, **PY_FUNCTIONS}, dict(ORACLE_ENV))
        except (ArithmeticError, ValueError):
            continue
        try:
            with np.errstate(all="ignore"):
                got = eval_expr(e, ORACLE_ENV)
        except EvalDomainError:
            continue
        if isinstance(want, float) and math.isfinite(want) and math.isfinite(got):
            assert got == pytest.approx(want, rel=1e-12, abs=0), src
            compared += 1
    assert accepted > 500 and compared > 300, (accepted, compared)


def test_any_string_parses_or_raises_an_expression_error():
    """Random strings over an alphabet with non-ASCII letters, digits
    and spaces, stray symbols and dots either parse, with every token
    where its offset says, or raise an ExprError subclass."""
    pieces = ["x1", "u", "sin", "(", ")", "+", "-", "*", "/", "^", ",", "1", "2.5",
              ".", "..", "e", "_", "@", "$", "é", "٣", "²", "ß", " ", "\t", " "]
    rng = np.random.default_rng(20261021)
    for _ in range(20000):
        src = "".join(rng.choice(pieces, size=rng.integers(0, 13)))
        try:
            parse(src, XU)
        except ExprError:
            continue
        assert all(src[t.pos:t.pos + len(t.text)] == t.text for t in tokenize(src))
