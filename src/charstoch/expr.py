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

The alphabet is ASCII, read by one token pattern: numbers (``2``,
``2.``, ``.5``, ``1e-3``), identifiers (a letter or ``_``, then letters,
digits and ``_``), the operators, parentheses and the comma, each after
optional whitespace (space, tab, newline, return, form feed, vertical
tab).  Any other character, non-ASCII letters, digits and spaces
included, is an :class:`IllegalCharacter` at its offset, as is a number
that runs into a dot (``3..5``).  A source may nest at most 100 levels:
a pair of parentheses, a unary minus, a ``^``, a call and each operator
of a ``+ -`` or ``* /`` chain opens one, so neither the parser nor a
walk over the tree recurses past Python's stack.  A deeper source is an
:class:`ExprSyntaxError`.  The command line exits 2 on either.

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

__all__ = ["parse", "eval_expr", "diff", "numeric_partial"]

FUNCTIONS = ("sin", "cos", "exp", "log", "tanh", "sqrt", "abs")

# re.ASCII confines \s, \d and \w, and so the alphabet, to ASCII
_TOKEN_RE = re.compile(r"""\s*(?:(?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
                             | (?P<ident>[A-Za-z_]\w*)
                             | (?P<op>[-+*/^(),]))?""", re.ASCII | re.VERBOSE)
_LEVELS = ("+-", "*/")  # the left associative operators, loosest first
_LEVEL = {op: i for i, ops in enumerate(_LEVELS) for op in ops}
_MAX_DEPTH = 100


@dataclass(frozen=True)
class Token:
    kind: str  # "number" | "ident" | "op" (operators, parentheses, comma)
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

    Raises IllegalCharacter (with the offending offset) where no token
    of ``_TOKEN_RE`` starts, and where a number runs into a dot.
    """
    tokens: list[Token] = []
    m = _TOKEN_RE.match(source)
    while m.lastgroup is not None:
        start, end = m.span(m.lastgroup)
        tokens.append(Token(m.lastgroup, m[m.lastgroup], start))
        if m.lastgroup == "number" and source.startswith(".", end):
            raise IllegalCharacter(
                f"malformed number near {source[start:end + 1]!r}", end)
        m = _TOKEN_RE.match(source, end)
    i = m.end()
    if i < len(source):
        if source[i] == ".":
            raise IllegalCharacter(f"malformed number near {source[i:i+8]!r}", i)
        raise IllegalCharacter(f"illegal character {source[i]!r}", i)
    return tokens


class _Parser:
    """Recursive descent over a token list.  ``depth`` counts the levels
    around the part being parsed, parentheses included, so the parser's
    own recursion stops past _MAX_DEPTH."""

    def __init__(self, tokens: list[Token], allowed_vars: frozenset[str]):
        self.tokens, self.allowed, self.i = tokens, allowed_vars, 0

    def peek(self) -> str:
        """The next token's text, or "" at the end."""
        return self.tokens[self.i].text if self.i < len(self.tokens) else ""

    def take(self, text: str) -> bool:
        """Step over the next token if its text is ``text``."""
        found = self.peek() == text
        self.i += found
        return found

    def next(self, closing: bool = False) -> Token:
        """The next token; with ``closing``, it must be ")"."""
        if self.i == len(self.tokens):
            raise ExprSyntaxError("unexpected end of expression")
        self.i += 1
        tok = self.tokens[self.i - 1]
        if closing and tok.text != ")":
            raise ExprSyntaxError(f"expected rparen, found {tok.text!r}", tok.pos)
        return tok

    def binary(self, level: int, depth: int) -> Expr:
        """A left associative chain of the operators of ``_LEVELS[level:]``."""
        e = self.unary(depth)
        while _LEVEL.get(op := self.peek(), -1) >= level:
            self.i += 1
            e = BinOp(op, e, self.binary(_LEVEL[op] + 1, depth + 1))
        return e

    def unary(self, depth: int) -> Expr:
        """Unary minus, then a power whose right associative exponent may
        carry its own minus: ``-2^-x1`` is ``-(2^(-x1))``."""
        tok = self.next()
        if depth > _MAX_DEPTH:
            raise ExprSyntaxError(f"expression nested deeper than {_MAX_DEPTH} levels",
                                  tok.pos)
        if tok.text == "-":
            return Neg(self.unary(depth + 1))
        base = self.atom(tok, depth)
        return BinOp("^", base, self.unary(depth + 1)) if self.take("^") else base

    def atom(self, tok: Token, depth: int) -> Expr:
        """A number, a variable, a parenthesized expression or a call."""
        if tok.kind == "number":
            return Const(float(tok.text))
        if tok.text == "(":
            e = self.binary(0, depth + 1)
            self.next(closing=True)
            return e
        if tok.kind != "ident":
            raise ExprSyntaxError(f"unexpected token {tok.text!r}", tok.pos)
        if not self.take("("):
            if tok.text in FUNCTIONS:
                raise ExprSyntaxError(f"function {tok.text!r} used without arguments",
                                      tok.pos)
            if tok.text not in self.allowed:
                raise UnknownVariable(f"unknown variable {tok.text!r}", tok.pos)
            return Var(tok.text)
        if tok.text not in FUNCTIONS:
            raise UnknownFunction(f"unknown function {tok.text!r}", tok.pos)
        args = [self.binary(0, depth + 1)]
        while self.take(","):
            args.append(self.binary(0, depth + 1))
        self.next(closing=True)
        if len(args) != 1:
            raise ArityMismatch(
                f"function {tok.text!r} takes 1 argument, got {len(args)}", tok.pos)
        return Call(tok.text, args[0])


def parse(source: str, allowed_vars) -> Expr:
    """Tokenize and parse source text into an expression tree.

    ``allowed_vars`` is the variable alphabet for this context, e.g.
    {"u"} for velocity components or {"x1", "x2"} for initial data.
    A source nested more than _MAX_DEPTH levels deep raises
    ExprSyntaxError: the parser counts parentheses as levels, and a
    walk over the finished tree catches the depth of long chains like
    ``1 + 1 + ... + 1``, so no recursion over a tree runs out of stack.
    """
    p = _Parser(tokenize(source), frozenset(allowed_vars))
    e = p.binary(0, 1)
    if p.i < len(p.tokens):
        raise ExprSyntaxError(f"trailing input {p.peek()!r}", p.tokens[p.i].pos)
    # level by level, without recursion: a node below _MAX_DEPTH levels is too deep
    level = [e]
    for _ in range(_MAX_DEPTH):
        level = [c for node in level for c in vars(node).values() if isinstance(c, Expr)]
    if level:
        raise ExprSyntaxError(f"expression nested deeper than {_MAX_DEPTH} levels")
    return e


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
