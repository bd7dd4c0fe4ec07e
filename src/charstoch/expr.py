"""Closed-form scalar expressions over a small variable alphabet.

Problem data (velocity components, initial profiles) arrives as strings
like ``"u"``, ``"sin(x1 - 2.0)"`` or ``"exp(-x1^2 - x2^2)"``.  This
module turns them into small immutable trees, evaluates those trees on
floats or numpy arrays, and differentiates them exactly: :func:`diff`
returns the partial derivative as another tree, so no derivative the
solvers use carries a truncation error.

Grammar, tightest first: ``^`` (right associative), unary minus,
``*`` ``/``, ``+`` ``-``.  So ``-x1^2`` is ``-(x1^2)`` and ``2^3^2``
is ``2^(3^2)``.  Functions are unary: sin, cos, exp, log, tanh, sqrt,
abs.

Evaluation is plain IEEE double precision, but domain violations
(log of a nonpositive value, division by zero, sqrt of a negative,
fractional powers of negatives) raise :class:`EvalDomainError` instead
of silently producing NaN.  The derivatives of ``abs`` and ``sqrt`` divide
by their argument, so evaluating them where they do not exist raises too.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import (
    ArityMismatch,
    EvalDomainError,
    ExprSyntaxError,
    IllegalCharacter,
    UnknownFunction,
    UnknownVariable,
)

__all__ = [
    "Token",
    "Const",
    "Var",
    "Neg",
    "BinOp",
    "Call",
    "FUNCTIONS",
    "tokenize",
    "parse_expr",
    "parse",
    "eval_expr",
    "expr_to_str",
    "variables",
    "diff",
    "numeric_partial",
]

FUNCTIONS = ("sin", "cos", "exp", "log", "tanh", "sqrt", "abs")

_NUMBER_RE = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


@dataclass(frozen=True)
class Token:
    kind: str  # "number" | "ident" | "op" | "lparen" | "rparen" | "comma"
    text: str
    pos: int   # byte offset into the source string


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    child: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str  # "+", "-", "*", "/", "^"
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    fn: str
    arg: "Expr"


Expr = Const | Var | Neg | BinOp | Call


def tokenize(source: str) -> list[Token]:
    """Split source text into tokens, tracking byte offsets.

    Raises IllegalCharacter (with the offending offset) on anything
    outside numbers, identifiers, operators, parentheses, commas and
    whitespace.
    """
    tokens: list[Token] = []
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit() or ch == ".":
            m = _NUMBER_RE.match(source, i)
            if m is None:
                raise IllegalCharacter(f"malformed number near {source[i:i+8]!r}", i)
            end = m.end()
            if end < n and (source[end] == "." or source[end].isdigit()):
                raise IllegalCharacter(
                    f"malformed number near {source[i:end + 1]!r}", end)
            tokens.append(Token("number", m.group(), i))
            i = end
            continue
        if ch.isalpha() or ch == "_":
            m = _IDENT_RE.match(source, i)
            tokens.append(Token("ident", m.group(), i))
            i = m.end()
            continue
        if ch in "+-*/^":
            tokens.append(Token("op", ch, i))
        elif ch == "(":
            tokens.append(Token("lparen", ch, i))
        elif ch == ")":
            tokens.append(Token("rparen", ch, i))
        elif ch == ",":
            tokens.append(Token("comma", ch, i))
        else:
            raise IllegalCharacter(f"illegal character {ch!r}", i)
        i += 1
    return tokens


class _Parser:
    """Recursive-descent parser over a token list."""

    def __init__(self, tokens: list[Token], allowed_vars: frozenset[str]):
        self.tokens = tokens
        self.allowed = allowed_vars
        self.i = 0

    def peek(self) -> Token | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self) -> Token | None:
        tok = self.peek()
        if tok is not None:
            self.i += 1
        return tok

    def expect(self, kind: str, text: str | None = None) -> Token:
        tok = self.next()
        if tok is None:
            raise ExprSyntaxError("unexpected end of expression")
        if tok.kind != kind or (text is not None and tok.text != text):
            raise ExprSyntaxError(f"expected {text or kind}, found {tok.text!r}", tok.pos)
        return tok

    def parse(self) -> Expr:
        e = self.sum()
        tok = self.peek()
        if tok is not None:
            raise ExprSyntaxError(f"trailing input {tok.text!r}", tok.pos)
        return e

    def sum(self) -> Expr:
        e = self.product()
        while True:
            tok = self.peek()
            if tok is not None and tok.kind == "op" and tok.text in "+-":
                self.next()
                e = BinOp(tok.text, e, self.product())
            else:
                return e

    def product(self) -> Expr:
        e = self.factor()
        while True:
            tok = self.peek()
            if tok is not None and tok.kind == "op" and tok.text in "*/":
                self.next()
                e = BinOp(tok.text, e, self.factor())
            else:
                return e

    def factor(self) -> Expr:
        tok = self.peek()
        if tok is not None and tok.kind == "op" and tok.text == "-":
            self.next()
            return Neg(self.factor())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        tok = self.peek()
        if tok is not None and tok.kind == "op" and tok.text == "^":
            self.next()
            # right associative; the exponent may carry its own unary minus
            return BinOp("^", base, self.factor())
        return base

    def atom(self) -> Expr:
        tok = self.next()
        if tok is None:
            raise ExprSyntaxError("unexpected end of expression")
        if tok.kind == "number":
            return Const(float(tok.text))
        if tok.kind == "lparen":
            e = self.sum()
            self.expect("rparen")
            return e
        if tok.kind == "ident":
            nxt = self.peek()
            if nxt is not None and nxt.kind == "lparen":
                return self.call(tok)
            if tok.text in FUNCTIONS:
                raise ExprSyntaxError(f"function {tok.text!r} used without arguments", tok.pos)
            if tok.text not in self.allowed:
                raise UnknownVariable(f"unknown variable {tok.text!r}", tok.pos)
            return Var(tok.text)
        raise ExprSyntaxError(f"unexpected token {tok.text!r}", tok.pos)

    def call(self, name: Token) -> Expr:
        if name.text not in FUNCTIONS:
            raise UnknownFunction(f"unknown function {name.text!r}", name.pos)
        self.expect("lparen")
        args = [self.sum()]
        while True:
            tok = self.peek()
            if tok is not None and tok.kind == "comma":
                self.next()
                args.append(self.sum())
            else:
                break
        self.expect("rparen")
        if len(args) != 1:
            raise ArityMismatch(
                f"function {name.text!r} takes 1 argument, got {len(args)}", name.pos
            )
        return Call(name.text, args[0])


def parse_expr(tokens: list[Token], allowed_vars) -> Expr:
    """Parse a token list into an expression tree.

    ``allowed_vars`` is the variable alphabet for this context, e.g.
    {"t", "u"} for velocity components or {"x1", "x2"} for initial data.
    """
    return _Parser(tokens, frozenset(allowed_vars)).parse()


def parse(source: str, allowed_vars) -> Expr:
    """Tokenize and parse in one step."""
    return parse_expr(tokenize(source), allowed_vars)


_FN_IMPL = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "tanh": np.tanh,
    "abs": np.abs,
}


def eval_expr(e: Expr, bindings: dict):
    """Evaluate a tree with variables bound to floats or numpy arrays.

    Returns a float for all-scalar bindings and a numpy array otherwise.
    """
    result = _eval(e, bindings)
    if isinstance(result, np.ndarray) and result.ndim == 0:
        return float(result)
    if not isinstance(result, np.ndarray):
        return float(result)
    return result


def _eval(e: Expr, env: dict):
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        try:
            return env[e.name]
        except KeyError:
            raise UnknownVariable(f"unbound variable {e.name!r}") from None
    if isinstance(e, Neg):
        return -_eval(e.child, env)
    if isinstance(e, BinOp):
        a = _eval(e.left, env)
        b = _eval(e.right, env)
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
        # "^"
        with np.errstate(invalid="ignore", divide="ignore"):
            r = np.power(np.asarray(a, dtype=float), b)
        if np.any(np.isnan(r)) and not (np.any(np.isnan(a)) or np.any(np.isnan(b))):
            raise EvalDomainError("fractional power of a negative base")
        if np.any(np.isinf(r)) and np.all(np.isfinite(a)) and np.all(np.isfinite(b)):
            if np.any((np.asarray(a) == 0) & (np.asarray(b) < 0)):
                raise EvalDomainError("zero raised to a negative power")
        return r
    # Call
    v = _eval(e.arg, env)
    if e.fn == "log":
        if np.any(np.asarray(v) <= 0):
            raise EvalDomainError("log of a nonpositive value")
        return np.log(v)
    if e.fn == "sqrt":
        if np.any(np.asarray(v) < 0):
            raise EvalDomainError("sqrt of a negative value")
        return np.sqrt(v)
    return _FN_IMPL[e.fn](v)


# Printing precedence levels; higher binds tighter.
_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _prec(e: Expr) -> int:
    if isinstance(e, BinOp):
        if e.op in "+-":
            return _PREC_ADD
        if e.op in "*/":
            return _PREC_MUL
        return _PREC_POW
    if isinstance(e, Neg):
        return _PREC_NEG
    return _PREC_ATOM


def expr_to_str(e: Expr) -> str:
    """Render a tree to source text that parses back to the same tree."""
    if isinstance(e, Const):
        return repr(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Neg):
        inner = expr_to_str(e.child)
        if _prec(e.child) <= _PREC_MUL:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(e, Call):
        return f"{e.fn}({expr_to_str(e.arg)})"
    left, right = expr_to_str(e.left), expr_to_str(e.right)
    if e.op in "+-":
        if _prec(e.left) < _PREC_ADD:
            left = f"({left})"
        if _prec(e.right) <= _PREC_ADD:
            right = f"({right})"
    elif e.op in "*/":
        if _prec(e.left) < _PREC_MUL:
            left = f"({left})"
        if _prec(e.right) <= _PREC_MUL:
            right = f"({right})"
    else:  # "^" binds tighter than unary minus and associates right
        if _prec(e.left) <= _PREC_POW:
            left = f"({left})"
        if _prec(e.right) < _PREC_NEG:
            right = f"({right})"
    return f"{left} {e.op} {right}" if e.op in "+-" else f"{left}{e.op}{right}"


def variables(e: Expr) -> frozenset[str]:
    """The set of variable names appearing in a tree."""
    if isinstance(e, Var):
        return frozenset((e.name,))
    if isinstance(e, Neg):
        return variables(e.child)
    if isinstance(e, BinOp):
        return variables(e.left) | variables(e.right)
    if isinstance(e, Call):
        return variables(e.arg)
    return frozenset()


_ZERO, _ONE, _TWO = Const(0.0), Const(1.0), Const(2.0)


def _num(e: Expr) -> float | None:
    """The value of a constant tree (a Const or a negated Const)."""
    if isinstance(e, Neg) and isinstance(e.child, Const):
        return -e.child.value
    return e.value if isinstance(e, Const) else None


def _neg(a: Expr) -> Expr:
    return a.child if isinstance(a, Neg) else _ZERO if a == _ZERO else Neg(a)


def _op(op: str, a: Expr, b: Expr) -> Expr:
    """BinOp(op, a, b) with 0 and 1 folded and constant + - * combined; a
    negative constant is Neg(Const), the tree its printed form parses to."""
    x, y = _num(a), _num(b)
    if x is not None and y is not None and op in "+-*":
        v = x + y if op == "+" else x - y if op == "-" else x * y
        if np.isfinite(v):
            return Neg(Const(-v)) if v < 0 else Const(v + 0.0)
    if op == "*" and (x == 0 or y == 0) or op == "/" and x == 0:
        return _ZERO
    if op in "+-" and y == 0 or op in "*/^" and y == 1:
        return a
    if op == "+" and x == 0 or op == "*" and x == 1:
        return b
    return _neg(b) if op == "-" and x == 0 else BinOp(op, a, b)


def diff(e: Expr, var: str) -> Expr:
    """Exact partial derivative of a tree with respect to ``var``, as a tree.

    Covers the whole grammar by the sum, product, quotient, power and
    chain rules, folding 0 and 1 as it builds, so ``diff(t*u, "u")`` is
    ``t``.  d|f| = f/|f| df and d sqrt(f) = df / (2 sqrt(f)) divide by
    zero where f = 0, so there the derivative raises EvalDomainError
    instead of returning a number.
    """
    if isinstance(e, Const):
        return _ZERO
    if isinstance(e, Var):
        return _ONE if e.name == var else _ZERO
    if isinstance(e, Neg):
        return _neg(diff(e.child, var))
    if isinstance(e, Call):
        a = e.arg
        outer = {"sin": Call("cos", a), "cos": _neg(Call("sin", a)), "exp": e,
                 "log": _op("/", _ONE, a), "tanh": _op("-", _ONE, BinOp("^", e, _TWO)),
                 "sqrt": _op("/", _ONE, _op("*", _TWO, e)), "abs": _op("/", a, e)}
        return _op("*", outer[e.fn], diff(a, var))
    f, g = e.left, e.right
    df, dg = diff(f, var), diff(g, var)
    if e.op in "+-":
        return _op(e.op, df, dg)
    if e.op == "*":
        return _op("+", _op("*", df, g), _op("*", f, dg))
    if e.op == "/":
        return _op("-", _op("/", df, g), _op("/", _op("*", f, dg), BinOp("^", g, _TWO)))
    if dg == _ZERO:  # f^c: c f^(c-1) df
        return _op("*", _op("*", g, _op("^", f, _op("-", g, _ONE))), df)
    # f^g = exp(g log f): f^g (dg log f + g df / f)
    return _op("*", e, _op("+", _op("*", dg, Call("log", f)),
                           _op("/", _op("*", g, df), f)))


def numeric_partial(e: Expr, var: str, bindings: dict):
    """Partial derivative of a tree at the bindings: ``diff`` evaluated."""
    return eval_expr(diff(e, var), bindings)
