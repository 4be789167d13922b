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
become exact fractions.  Division by zero is always an evaluation error.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping

from .numeric import format_decimal, to_fraction


class ExprError(Exception):
    """Base class for expression language failures."""


class ExprSyntaxError(ExprError):
    """Bad source text.  Carries the character offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.message = message
        self.offset = offset


class ExprEvalError(ExprError):
    """Evaluation failure: division by zero or a missing binding."""


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

    def parse(self) -> Expr:
        node = self.sum()
        tok = self.peek()
        if tok.kind != "end":
            raise ExprSyntaxError(f"unexpected {tok.text!r}", tok.pos)
        return node

    def sum(self) -> Expr:
        node = self.term()
        while self.at_op("+", "-"):
            op = self.advance().text
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> Expr:
        node = self.unary()
        while self.at_op("*", "/"):
            op = self.advance().text
            node = BinOp(op, node, self.unary())
        return node

    def unary(self) -> Expr:
        if self.at_op("-"):
            self.advance()
            return Neg(self.unary())
        return self.atom()

    def atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            return Num(Fraction(tok.text))
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
        return Call(name.text, tuple(args))

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
        return Piecewise(tuple(branches), otherwise)

    def branch(self) -> tuple[Comparison, Expr]:
        left = self.sum()
        tok = self.peek()
        if not (tok.kind == "op" and tok.text in _COMPARISONS):
            raise ExprSyntaxError("expected a comparison", tok.pos)
        op = self.advance().text
        right = self.sum()
        self.expect_op(":", "':'")
        value = self.sum()
        return Comparison(op, left, right), value


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


def evaluate(node: Expr, env: Mapping[str, Fraction]) -> Fraction:
    """Evaluate exactly over rationals.  Raises :class:`ExprEvalError`."""
    match node:
        case Num(value):
            return value
        case Var(name):
            try:
                return env[name]
            except KeyError:
                raise ExprEvalError(f"missing binding for {name!r}") from None
        case Neg(operand):
            return -evaluate(operand, env)
        case BinOp("+", left, right):
            return evaluate(left, env) + evaluate(right, env)
        case BinOp("-", left, right):
            return evaluate(left, env) - evaluate(right, env)
        case BinOp("*", left, right):
            return evaluate(left, env) * evaluate(right, env)
        case BinOp("/", left, right):
            denom = evaluate(right, env)
            if denom == 0:
                raise ExprEvalError("division by zero")
            return evaluate(left, env) / denom
        case Call("abs", (arg,)):
            return abs(evaluate(arg, env))
        case Call("min", args):
            return min(evaluate(a, env) for a in args)
        case Call("max", args):
            return max(evaluate(a, env) for a in args)
        case Piecewise(branches, otherwise):
            for cond, value in branches:
                if _holds(cond, env):
                    return evaluate(value, env)
            return evaluate(otherwise, env)
    raise ExprEvalError(f"cannot evaluate node {node!r}")


def _holds(cond: Comparison, env: Mapping[str, Fraction]) -> bool:
    left = evaluate(cond.left, env)
    right = evaluate(cond.right, env)
    match cond.op:
        case "<":
            return left < right
        case "<=":
            return left <= right
        case ">":
            return left > right
        case ">=":
            return left >= right
    raise ExprEvalError(f"bad comparison {cond.op!r}")


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


@dataclass(frozen=True)
class Formula:
    """A parsed expression bound to an ordered variable list."""

    ast: Expr
    variables: tuple[str, ...]

    @classmethod
    def parse(cls, text: str, variables: tuple[str, ...]) -> "Formula":
        return cls(parse(text, frozenset(variables)), variables)

    def __call__(self, *values: object) -> Fraction:
        if len(values) != len(self.variables):
            raise ExprEvalError(
                f"expected {len(self.variables)} arguments, got {len(values)}"
            )
        env = {
            name: to_fraction(value)
            for name, value in zip(self.variables, values)
        }
        return evaluate(self.ast, env)

    def pretty(self) -> str:
        return pretty(self.ast)
