"""Small expression language for distance formulas, maps, and gauges.

Grammar (canonical form shown by :func:`pretty`)::

    expr       = sum
    sum        = term (("+" | "-") term)*
    term       = unary (("*" | "/") unary)*
    unary      = "-" unary | atom
    atom       = NUMBER | VARIABLE | function "(" expr ("," expr)* ")"
               | "(" expr ")" | piecewise
    piecewise  = "piecewise" "(" branch ("," branch)* "," "else" ":" expr ")"
    branch     = condition ":" expr
    condition  = sum ("<" | "<=" | ">" | ">=") sum

Functions are ``abs`` (one argument) and ``min``/``max`` (two or more).
Comparisons exist only as piecewise conditions and are evaluated exactly
over rationals, with no tolerance: ``x <= 1`` at the boundary takes the
branch as written.  Numeric literals are decimal ("2", "0.75", "1e-9") and
become exact fractions; a literal longer than ``MAX_LITERAL_DIGITS``
written out is a syntax error.  Division by zero is always an evaluation
error.

A formula nests at most ``MAX_DEPTH`` (100) levels deep, counting the
whole formula as one, both in its text (parentheses, argument lists and
unary minus) and in its tree (``1 + 2 + 3`` is three levels); deeper input
is a syntax error, so no recursion over it exhausts Python's stack.
:class:`Formula` turns its tree into generated Python functions, its
kernels, each built on first use and kept: ``Formula.exact`` over exact
fractions, and :meth:`Formula.scaled` one per input scale over integers,
unless the formula divides by a variable or by 0.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator

from .numeric import format_decimal, read_number, to_fraction


class ExprError(Exception):
    """Base class for expression language failures."""


class ExprSyntaxError(ExprError):
    """Bad source text.  Carries the character offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.message = message
        self.offset = offset


class ExprEvalError(ExprError):
    """Evaluation failure: division by zero or a node that cannot compile."""


@dataclass(frozen=True)
class Num:
    value: Fraction


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    func: str
    args: "tuple[Expr, ...]"


@dataclass(frozen=True)
class Comparison:
    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Piecewise:
    branches: "tuple[tuple[Comparison, Expr], ...]"
    otherwise: "Expr"


Expr = Num | Var | Neg | BinOp | Call | Piecewise

_FUNCTIONS = {"abs": 1, "min": 2, "max": 2}  # name -> minimum arity
MAX_DEPTH = 100  # nesting levels a formula may use
_RESERVED = frozenset(_FUNCTIONS) | {"piecewise", "else"}
_COMPARISONS = frozenset({"<", "<=", ">", ">="})

_TOKEN_RE = re.compile(
    r"""
    (?P<number>(?:\d+(?:\.\d+)?|\.\d+)(?:[eE][+-]?\d+)?)
  | (?P<name>[A-Za-z_]\w*)
  | (?P<op><=|>=|<|>|[-+*/(),:])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str  # "number" | "name" | "op" | "end"
    text: str
    pos: int


def _tokenize(text: str) -> Iterator[_Token]:
    pos = 0
    n = len(text)
    while pos < n:
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ExprSyntaxError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup or "op"
        yield _Token(kind, m.group(), pos)
        pos = m.end()
    yield _Token("end", "", n)


class _Parser:
    def __init__(self, text: str, variables: frozenset[str]):
        self.tokens = list(_tokenize(text))
        self.i = 0
        self.variables = variables
        self.depth = 0  # levels open around the current token
        self.heights: dict[int, int] = {}  # id(node) -> levels, leaves 1

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str, what: str) -> None:
        tok = self.peek()
        if tok.kind == "op" and tok.text == op:
            self.advance()
            return
        raise ExprSyntaxError(f"expected {what}", tok.pos)

    def at_op(self, *ops: str) -> bool:
        tok = self.peek()
        return tok.kind == "op" and tok.text in ops

    def within(self, levels: int, tok: _Token) -> int:
        if levels > MAX_DEPTH:
            raise ExprSyntaxError(f"nested deeper than {MAX_DEPTH} levels", tok.pos)
        return levels

    def grow(self, node: Expr, tok: _Token, *children: Expr) -> Expr:
        """``node`` over ``children``, one level above the highest."""
        height = 1 + max(self.heights.get(id(c), 1) for c in children)
        self.heights[id(node)] = self.within(height, tok)
        return node

    def parse(self) -> Expr:
        node = self.sum()
        tok = self.peek()
        if tok.kind != "end":
            raise ExprSyntaxError(f"unexpected {tok.text!r}", tok.pos)
        return node

    def sum(self) -> Expr:
        self.depth = self.within(self.depth + 1, self.tokens[self.i - 1])
        node = self.term()
        while self.at_op("+", "-"):
            tok = self.advance()
            right = self.term()
            node = self.grow(BinOp(tok.text, node, right), tok, node, right)
        self.depth -= 1
        return node

    def term(self) -> Expr:
        node = self.unary()
        while self.at_op("*", "/"):
            tok = self.advance()
            right = self.unary()
            node = self.grow(BinOp(tok.text, node, right), tok, node, right)
        return node

    def unary(self) -> Expr:
        if not self.at_op("-"):
            return self.atom()
        tok = self.advance()
        self.depth = self.within(self.depth + 1, tok)
        operand = self.unary()
        self.depth -= 1
        return self.grow(Neg(operand), tok, operand)

    def atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            try:
                return Num(read_number(tok.text))
            except ValueError as e:
                raise ExprSyntaxError(f"number {e}", tok.pos) from None
        if tok.kind == "name":
            self.advance()
            if tok.text == "piecewise":
                return self.piecewise(tok)
            if self.at_op("("):
                return self.call(tok)
            if tok.text in self.variables:
                return Var(tok.text)
            raise ExprSyntaxError(f"unknown identifier {tok.text!r}", tok.pos)
        if self.at_op("("):
            self.advance()
            node = self.sum()
            self.expect_op(")", "')'")
            return node
        raise ExprSyntaxError("expected a value", tok.pos)

    def call(self, name: _Token) -> Expr:
        min_arity = _FUNCTIONS.get(name.text)
        if min_arity is None:
            raise ExprSyntaxError(f"unknown function {name.text!r}", name.pos)
        self.expect_op("(", "'('")
        args = [self.sum()]
        while self.at_op(","):
            self.advance()
            args.append(self.sum())
        self.expect_op(")", "')'")
        if name.text == "abs" and len(args) != 1:
            raise ExprSyntaxError("abs takes exactly one argument", name.pos)
        if len(args) < min_arity:
            raise ExprSyntaxError(
                f"{name.text} takes at least {min_arity} arguments", name.pos
            )
        return self.grow(Call(name.text, tuple(args)), name, *args)

    def piecewise(self, name: _Token) -> Expr:
        self.expect_op("(", "'('")
        branches: list[tuple[Comparison, Expr]] = []
        while True:
            tok = self.peek()
            if tok.kind == "name" and tok.text == "else":
                self.advance()
                break
            branches.append(self.branch())
            self.expect_op(",", "','")
        if not branches:
            raise ExprSyntaxError("piecewise needs at least one condition", name.pos)
        self.expect_op(":", "':'")
        otherwise = self.sum()
        self.expect_op(")", "')'")
        parts = [part for branch in branches for part in branch]
        node = Piecewise(tuple(branches), otherwise)
        return self.grow(node, name, *parts, otherwise)

    def branch(self) -> tuple[Comparison, Expr]:
        left = self.sum()
        tok = self.peek()
        if not (tok.kind == "op" and tok.text in _COMPARISONS):
            raise ExprSyntaxError("expected a comparison", tok.pos)
        self.advance()
        right = self.sum()
        self.expect_op(":", "':'")
        value = self.sum()
        return self.grow(Comparison(tok.text, left, right), tok, left, right), value


def parse(text: str, variables: Iterator[str] | frozenset[str]) -> Expr:
    """Parse ``text`` with the given variable names in scope.

    Raises :class:`ExprSyntaxError` (with a character offset) on bad input,
    including unknown identifiers, unknown functions, and arity mistakes.
    """
    names = frozenset(variables)
    clash = names & _RESERVED
    if clash:
        raise ValueError(f"reserved names cannot be variables: {sorted(clash)}")
    return _Parser(text, names).parse()


_LEVEL_SUM, _LEVEL_TERM, _LEVEL_UNARY, _LEVEL_ATOM = 1, 2, 3, 4


def _level(node: Expr) -> int:
    match node:
        case BinOp("+" | "-", _, _):
            return _LEVEL_SUM
        case BinOp(_, _, _):
            return _LEVEL_TERM
        case Neg(_):
            return _LEVEL_UNARY
        # format_decimal prints some numbers as "n/d", or with a sign
        case Num(value) if "/" in format_decimal(value):
            return _LEVEL_TERM
        case Num(value) if value < 0:
            return _LEVEL_UNARY
    return _LEVEL_ATOM


def pretty(node: Expr) -> str:
    """Render the canonical form.

    ``pretty(parse(s))`` is a fixed point of ``pretty . parse``, so the
    canonical text round-trips byte for byte.
    """

    def wrap(child: Expr, floor: int) -> str:
        text = pretty(child)
        return f"({text})" if _level(child) < floor else text

    match node:
        case Num(value):
            return format_decimal(value)
        case Var(name):
            return name
        case Neg(operand):
            return "-" + wrap(operand, _LEVEL_UNARY)
        case BinOp(op, left, right):
            own = _level(node)
            joint = f" {op} " if op in "+-" else op
            return wrap(left, own) + joint + wrap(right, own + 1)
        case Call(func, args):
            return f"{func}({', '.join(pretty(a) for a in args)})"
        case Comparison(op, left, right):
            return f"{pretty(left)} {op} {pretty(right)}"
        case Piecewise(branches, otherwise):
            parts = [f"{pretty(c)} : {pretty(v)}" for c, v in branches]
            parts.append(f"else : {pretty(otherwise)}")
            return f"piecewise({', '.join(parts)})"
    raise ValueError(f"cannot render node {node!r}")


def _divide_by_zero():
    raise ExprEvalError("division by zero")


class _Source:
    """The Python source of one formula, exact (``scale`` None) or at one
    scale.  Its text holds internal names only: ``v0, v1, ...`` for the
    variables, ``c...`` for constants bound in its globals, ``f...`` for
    defs and ``t...`` for divisors; no formula text and no int literal
    reaches the compiler.  A piecewise is a def of flat ``if`` lines, so
    any number of branches compiles.  Each other operation is one
    expression in parentheses.  Each level of the tree opens at most two
    (its own and a ``times`` wrap, or a divisor's two), so a formula
    within ``MAX_DEPTH`` nests at most 198, under the 200 that CPython's
    tokenizer takes."""

    def __init__(self, variables: tuple[str, ...], scale: int | None):
        self.vars = {name: f"v{i}" for i, name in enumerate(variables)}
        self.args = ", ".join(self.vars.values())
        self.scale = scale
        self.names: dict = {
            "__builtins__": {"abs": abs, "min": min, "max": max},
            "_zero": _divide_by_zero,
        }
        self.defs: list[str] = []
        self.temps = 0

    def const(self, value: object) -> str:
        name = f"c{len(self.names)}"
        self.names[name] = value
        return name

    def define(self, body: list[str], head: str | None = None) -> str:
        """A def over the variables that runs ``body``; its call."""
        name = f"f{len(self.defs)}"
        self.defs.append("\n    ".join([head or f"def {name}({self.args}):", *body]))
        return f"{name}({self.args})"

    def times(self, text: str, k: int) -> str:
        if k == 1:
            return text
        if text in self.names:  # a constant times k is one constant
            return self.const(self.names[text] * k)
        return f"({text} * {self.const(k)})"

    def common(self, *nodes: Expr) -> tuple[list[str], int]:
        """The nodes over their least common den."""
        parts = [self.code(node) for node in nodes]
        den = math.lcm(*(d for _, d in parts))
        return [self.times(text, den // d) for text, d in parts], den

    def body(self, node: Expr) -> tuple[list[str], int]:
        """Statements that return ``node``, and its den."""
        if isinstance(node, Piecewise):
            (other, *values), den = self.common(
                node.otherwise, *(value for _, value in node.branches)
            )
            tests = [self.code(cond)[0] for cond, _ in node.branches]
            lines = [f"if {c}: return {v}" for c, v in zip(tests, values)]
            return [*lines, f"return {other}"], den
        text, den = self.code(node)
        return [f"return {text}"], den

    def code(self, node: Expr) -> tuple[str, int]:
        """``node`` as an expression, and its den.  With no scale, the
        node over exact fractions, den 1: a zero divisor raises when it is
        read, before its dividend.  With a scale, the node from the values
        times scale, as ints, to its value times den, an int.  Sums,
        extrema, piecewise values and comparisons take the lcm of their
        operands' dens, products the product, and a nonzero constant
        divisor folds into it.  Any other divisor, or a name not among the
        variables, raises at once."""
        scale = self.scale
        match node:
            case Num(value) if scale is None:
                return self.const(value), 1
            case Num(value):
                return self.const(value.numerator), value.denominator
            case Var(name) if name in self.vars:
                return self.vars[name], scale or 1
            case Neg(operand):
                text, den = self.code(operand)
                if text in self.names:
                    return self.const(-self.names[text]), den
                return f"(-{text})", den
            case BinOp("/", left, right) if scale is None:
                (a, _), (b, _) = self.code(left), self.code(right)
                t = f"t{self.temps}"
                self.temps += 1
                return f"({a} / {t} if ({t} := {b}) else _zero())", 1
            case BinOp("/", left, right):
                r = 1 / _kernel(right, ())[0]()  # raises unless a nonzero constant
                text, den = self.code(left)
                return self.times(text, r.numerator), den * r.denominator
            case BinOp("*", left, right):
                (a, da), (b, db) = self.code(left), self.code(right)
                return f"({a} * {b})", da * db
            case BinOp("+" | "-" as op, left, right) | Comparison(
                "<" | "<=" | ">" | ">=" as op, left, right
            ):
                (a, b), den = self.common(left, right)
                return f"({a} {op} {b})", den
            case Call("abs", (arg,)):
                text, den = self.code(arg)
                return f"abs({text})", den
            case Call("min" | "max" as func, args):
                texts, den = self.common(*args)
                return f"{func}({', '.join(texts)})", den
            case Piecewise():
                body, den = self.body(node)
                return self.define(body), den
        raise ExprEvalError(f"cannot evaluate node {node!r}")


#: Builds so far: a kernel's filename, so a profile keeps one entry per kernel.
_builds = itertools.count(1)


def _kernel(
    node: Expr, variables: tuple[str, ...], scale: int | None = None
) -> tuple[Callable, int]:
    """(kernel, den): ``node`` compiled to one Python function.  With no
    ``scale`` it takes one exact fraction per variable and den is 1; with
    a ``scale`` it takes the tuple of the values times ``scale``, as ints
    (see :meth:`_Source.code`)."""
    source = _Source(variables, scale)
    body, den = source.body(node)
    if scale is None:
        source.define(body, f"def kernel({source.args}):")
    else:
        unpack = [f"{source.args}, = v"] if variables else []
        source.define([*unpack, *body], "def kernel(v):")
    code = compile("\n".join(source.defs), f"<kernel {next(_builds)}>", "exec")
    exec(code, source.names)
    return source.names["kernel"], den


@dataclass(frozen=True)
class Formula:
    """A parsed expression bound to an ordered variable list.  Its
    kernels, the functions generated from it, are built on first use and
    kept: ``exact`` and one per scale."""

    ast: Expr
    variables: tuple[str, ...]
    _kernels: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def parse(cls, text: str, variables: tuple[str, ...]) -> "Formula":
        return cls(parse(text, frozenset(variables)), variables)

    @functools.cached_property
    def exact(self) -> Callable[..., Fraction]:
        """The kernel over exact fractions, one argument per variable."""
        return _kernel(self.ast, self.variables)[0]

    def __call__(self, *values: object) -> Fraction:
        if len(values) != len(self.variables):
            raise ExprEvalError(
                f"expected {len(self.variables)} arguments, got {len(values)}"
            )
        return self.exact(*map(to_fraction, values))

    def scaled(self, scale: int) -> tuple[Callable, int] | None:
        """(kernel, den): the formula from the tuple of its values times
        ``scale`` to its value times den, over ints, built once per scale;
        None when it divides by a variable or by 0."""
        if scale not in self._kernels:
            try:
                self._kernels[scale] = _kernel(self.ast, self.variables, scale)
            except (ExprEvalError, ZeroDivisionError):
                self._kernels[scale] = None
        return self._kernels[scale]

    def pretty(self) -> str:
        return pretty(self.ast)
