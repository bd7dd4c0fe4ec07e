"""Closed-form scalar expressions over a small variable alphabet.

Problem data (velocity components, initial profiles) arrives as strings
like ``"u"``, ``"sin(x1 - 2.0)"`` or ``"exp(-x1^2 - x2^2)"``.  This
module turns them into small immutable trees, compiles trees into
straight-line programs that evaluate them on floats or numpy arrays, and
differentiates them exactly: :func:`diff` returns the partial derivative
as another tree, so no derivative the solvers use carries a truncation
error.

Grammar, tightest first: ``^`` (right associative), unary minus,
``*`` ``/``, ``+`` ``-``.  So ``-x1^2`` is ``-(x1^2)`` and ``2^3^2``
is ``2^(3^2)``.  Functions are unary: sin, cos, exp, log, tanh, sqrt,
abs.

Evaluation is plain IEEE double precision, but domain violations
(log of a nonpositive value, division by zero, sqrt of a negative,
fractional powers of negatives) raise :class:`EvalDomainError` instead
of silently producing NaN.  The derivatives of ``abs`` and ``sqrt`` divide
by their argument, so evaluating them where they do not exist raises too.

Every evaluation runs a :class:`Program` (:func:`compile_exprs`): one
list of steps over the union of one or more trees, such as u0 and its
gradient.  A subtree the trees share, like the ``exp`` of a Gaussian and
of its derivatives, is computed once, and each intermediate is released
after its last use.  Each step makes the NumPy call and the domain check
of the recursive definition on the same operands, so a compiled value is
bit for bit that of the tree, and it raises where the tree does; every
``^`` runs both power checks, whatever its exponent.  :func:`eval_expr`
compiles a lone tree for one call; the problem data keeps its programs,
compiled once.
"""

from __future__ import annotations

import operator
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

__all__ = ["parse", "eval_expr", "variables", "diff", "numeric_partial"]

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


def parse(source: str, allowed_vars) -> Expr:
    """Tokenize and parse source text into an expression tree.

    ``allowed_vars`` is the variable alphabet for this context, e.g.
    {"t", "u"} for velocity components or {"x1", "x2"} for initial data.
    """
    return _Parser(tokenize(source), frozenset(allowed_vars)).parse()


def _div(a, b):
    if np.any(b == 0):
        raise EvalDomainError("division by zero")
    return a / b


def _power(a, b):
    """a^b, raising where an operand is fine and the result is not: a NaN
    from non-NaN operands (a fractional power of a negative base), and
    an infinity from zero raised to a negative power."""
    with np.errstate(invalid="ignore", divide="ignore"):
        r = np.power(np.asarray(a, dtype=float), b)
    if np.any(np.isnan(r)) and not (np.any(np.isnan(a)) or np.any(np.isnan(b))):
        raise EvalDomainError("fractional power of a negative base")
    if np.any(np.isinf(r)) and np.all(np.isfinite(a)) and np.all(np.isfinite(b)):
        if np.any((np.asarray(a) == 0) & (np.asarray(b) < 0)):
            raise EvalDomainError("zero raised to a negative power")
    return r


def _log(v):
    if np.any(np.asarray(v) <= 0):
        raise EvalDomainError("log of a nonpositive value")
    return np.log(v)


def _sqrt(v):
    if np.any(np.asarray(v) < 0):
        raise EvalDomainError("sqrt of a negative value")
    return np.sqrt(v)


_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": _div,
           "^": _power}
_UNARY = {"neg": operator.neg, "sin": np.sin, "cos": np.cos, "exp": np.exp,
          "tanh": np.tanh, "abs": np.abs, "log": _log, "sqrt": _sqrt}


@dataclass(frozen=True, eq=False)
class Program:
    """A straight-line program evaluating ``trees`` together.

    Built by :func:`compile_exprs`.  Registers hold constants, bound
    variables and the results of ``steps``; a step is (name, function,
    argument registers, result register, registers released after it).
    Each structurally equal subtree has one register, so it is computed
    once however many trees hold it, and equal trees share their
    result.  A unary step's second argument register is None.
    """

    trees: tuple[Expr, ...]
    registers: tuple            # constants in place, None elsewhere
    loads: tuple[tuple[str, int], ...]
    steps: tuple[tuple, ...]
    outputs: tuple[int, ...]

    def run(self, env: dict) -> list:
        """The raw value of each tree, with variables bound by ``env``.
        An unbound variable raises before any step runs."""
        regs = list(self.registers)
        for name, r in self.loads:
            try:
                regs[r] = env[name]
            except KeyError:
                raise UnknownVariable(f"unbound variable {name!r}") from None
        for _, fn, a, b, out, dead in self.steps:
            regs[out] = fn(regs[a]) if b is None else fn(regs[a], regs[b])
            for r in dead:
                regs[r] = None
        return [regs[r] for r in self.outputs]


def compile_exprs(trees) -> Program:
    """Compile trees into one straight-line :class:`Program`.

    Steps run in the post-order of the recursive definition, left
    operand first, and each makes the NumPy call and the domain check of
    that definition on the same operands, so every value is bit for bit
    the tree's, and every domain violation raises.  Structurally equal
    subtrees are computed once (constants compare by value), and a
    register is released after its last use unless a tree returns it.
    """
    trees = tuple(trees)
    registers: list = []
    loads: list[tuple[str, int]] = []
    steps: list[tuple] = []
    seen: dict = {}

    def reg(value=None) -> int:
        registers.append(value)
        return len(registers) - 1

    def visit(e: Expr) -> int:
        r = seen.get(e)
        if r is not None:
            return r
        if isinstance(e, Const):
            r = reg(e.value)
        elif isinstance(e, Var):
            r = reg()
            loads.append((e.name, r))
        elif isinstance(e, Neg):
            a = visit(e.child)
            r = reg()
            steps.append(("neg", _UNARY["neg"], a, None, r))
        elif isinstance(e, BinOp):
            a, b = visit(e.left), visit(e.right)
            r = reg()
            steps.append((e.op, _BINARY[e.op], a, b, r))
        else:
            a = visit(e.arg)
            r = reg()
            steps.append((e.fn, _UNARY[e.fn], a, None, r))
        seen[e] = r
        return r

    outputs = tuple(visit(e) for e in trees)
    last = {}
    for i, (_, _, a, b, _) in enumerate(steps):
        last[a] = i
        if b is not None:
            last[b] = i
    keep = set(outputs)
    dead = [[] for _ in steps]
    for r, i in last.items():
        if r not in keep and registers[r] is None:
            dead[i].append(r)
    return Program(trees, tuple(registers), tuple(loads),
                   tuple((*step, tuple(d)) for step, d in zip(steps, dead)),
                   outputs)


def _result(value):
    """A float for a scalar value, else the array itself; a float is
    returned as it is."""
    if isinstance(value, np.ndarray) and value.ndim > 0:
        return value
    return float(value)


def eval_expr(e, bindings: dict):
    """Evaluate a tree, or every tree of a compiled :class:`Program`,
    with variables bound to floats or numpy arrays.

    A tree gives a float for all-scalar bindings and a numpy array
    otherwise; it is compiled for this one call.  A program gives a
    tuple of such values, one per tree, in which equal trees share one
    object where the value is an array or a constant.
    """
    if isinstance(e, Program):
        return tuple(map(_result, e.run(bindings)))
    return _result(compile_exprs((e,)).run(bindings)[0])


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
    negative constant is Neg(Const), the tree the parser makes of a
    negative literal."""
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
