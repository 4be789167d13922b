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
kernels: ``Formula.exact`` over exact numbers, and :meth:`Formula.scaled`
one per input scale over integers, unless the formula divides by a
variable or by 0.  Both read every node as an integer pair (numerator,
den); the exact kernel builds one ``Fraction`` per result, from the last
pair; its pair flavour, ``Formula.pairs``, returns that pair reduced.  A
kernel depends only on the tree, the variable order and the scale
(``_PAIRS`` for the pair flavour), so the process keeps the last
``MAX_KERNELS`` built, keyed by these three (``_kernel``): equal
formulas, parsed apart, share one.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import re
from dataclasses import dataclass
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


def _pair(p: int, q: int) -> tuple[int, int]:
    """p/q, q > 0, as its reduced (numerator, denominator)."""
    g = math.gcd(p, q)
    return p // g, q // g


_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
        "/": operator.truediv, "abs": abs, "min": min, "max": max}


def _value(node: Expr) -> Fraction | None:
    """The value of a node built from numbers without piecewise, when it
    divides by no 0; else None."""
    match node:
        case Num(value):
            return value
        case Neg(operand):
            value = _value(operand)
            return None if value is None else -value
        case BinOp(op, left, right):
            values = [_value(left), _value(right)]
        case Call(op, args):
            values = [_value(arg) for arg in args]
        case _:
            return None
    if None in values or (op == "/" and not values[1]):
        return None
    return _OPS[op](*values)


class _Source:
    """The Python source of one formula, exact (``scale`` None) or at one
    scale.  Each node is read as an integer pair (p, q), q > 0, worth p/q.
    A den q known when the source is written is a static int: a literal's,
    and at a scale a variable's, which is the scale.  An exact variable's
    den is dynamic, read from its argument, and a den built from dynamic
    ones is kept in a temp, so no text is written twice.  The exact kernel
    builds one ``Fraction`` per result, at ``return`` (a bare variable is
    returned as it came), and its pair flavour (``pairs``) the reduced
    pair instead; a scaled kernel returns p over one static den.
    Its text holds internal names only: ``v0, v1, ...`` for the arguments,
    ``n0, d0, ...`` for their numerators and dens, ``c...`` for int
    constants bound in its globals, ``f...`` for defs and ``t...`` for
    temps; no formula text and no formula constant reaches the compiler.
    A piecewise is a def of flat ``if`` lines, so any number of branches
    compiles.  Each other node is one expression in parentheses, after the
    statements it needs.  Each level of the tree opens at most two
    parentheses around a child, so a formula within ``MAX_DEPTH`` nests at
    most 198, under the 200 that CPython's tokenizer takes."""

    def __init__(self, variables: tuple[str, ...], scale: int | None, pairs: bool = False):
        self.index = {name: i for i, name in enumerate(variables)}
        self.args = ", ".join(f"v{i}" for i in range(len(variables)))
        self.scale, self.pairs = scale, pairs
        self.names: dict = {
            "__builtins__": {"abs": abs, "min": min, "max": max},
            "_zero": _divide_by_zero,
            "_gcd": math.gcd,
            "_fraction": Fraction,
            "_pair": _pair,
        }
        self.defs: list[str] = []
        self.temps = 0
        self.used: set[int] = set()  # the variables the current def reads

    def const(self, value: int) -> str:
        name = f"c{len(self.names)}"
        self.names[name] = value
        return name

    def temp(self) -> str:
        self.temps += 1
        return f"t{self.temps}"

    def let(self, out: list[str], text: str) -> str:
        """A temp that a statement appended to ``out`` sets to ``text``."""
        name = self.temp()
        out.append(f"{name} = {text}")
        return name

    def den(self, q: int | str) -> str:
        return self.const(q) if type(q) is int else q

    def times(self, text: str, k: int | str) -> str:
        """``text`` times ``k``, a static int or a dynamic name."""
        if k == 1:
            return text
        if type(k) is int and text in self.names:  # a constant times k
            return self.const(self.names[text] * k)
        if self.names.get(text) == 1:
            return k
        return f"({text} * {self.den(k)})"

    def product(self, out: list[str], qa: int | str, qb: int | str) -> int | str:
        if type(qa) is int and type(qb) is int:
            return qa * qb
        if qa == 1 or qb == 1:
            return qb if qa == 1 else qa
        return self.let(out, f"{self.den(qa)} * {self.den(qb)}")

    def common(self, parts: list[tuple[str, int | str]]) -> tuple[list[str], object]:
        """The parts' numerators over one den, and the den: theirs when
        they share it, else their least common static one; None when a
        den is dynamic and they differ."""
        dens = {q for _, q in parts}
        if len(dens) == 1:
            return [p for p, _ in parts], dens.pop()
        if all(type(q) is int for q in dens):
            den = math.lcm(*dens)
            return [self.times(p, den // q) for p, q in parts], den
        return [], None

    def body(self, node: Expr, top: bool = False) -> tuple[list[str], int | None]:
        """Statements that return ``node``, and its den.  Each returns p
        over one static den when every value has one, else its pair
        (p, q) and the den is None; at the top of an exact kernel each
        returns a ``Fraction`` (with ``pairs``, the reduced pair).  A
        condition, and a value, runs its own statements only when reached."""
        outer, self.used = self.used, set()
        pieces = node.branches if isinstance(node, Piecewise) else ()
        otherwise = node.otherwise if isinstance(node, Piecewise) else node
        exact_top = top and self.scale is None
        blocks = []
        for cond, value in (*pieces, (None, otherwise)):
            head: list[str] = []
            test = cond and self.code(cond, head)[0]
            block: list[str] = []
            if exact_top and isinstance(value, Var) and value.name in self.index:
                v = f"v{self.index[value.name]}"
                bare = f"{v}.numerator, {v}.denominator" if self.pairs else v
                blocks.append((head, test, block, bare, None))
            else:
                blocks.append((head, test, block, *self.code(value, block)))
        parts = [(p, q) for *_, p, q in blocks]
        if exact_top:
            top = "_pair" if self.pairs else "_fraction"
            returns, den = [p if q is None else f"{top}({p}, {self.den(q)})"
                            for p, q in parts], None
        else:  # static at a scale; a def's temps and dens stay in the def
            returns, den = self.common(parts)
            if type(den) is not int:
                returns, den = [f"{p}, {self.den(q)}" for p, q in parts], None
        used, self.used = sorted(self.used), outer
        lines = [", ".join(f"n{i}, d{i}" for i in used) + " = " + ", ".join(
            f"v{i}.numerator, v{i}.denominator" for i in used
        )] if used else []
        for (head, test, block, *_), ret in zip(blocks, returns):
            block.append(f"return {ret}")
            lines += head
            if test is None:
                lines += block
            elif len(block) == 1:
                lines.append(f"if {test}: {block[0]}")
            else:
                lines += [f"if {test}:", *(f"    {line}" for line in block)]
        return lines, den

    def define(self, body: list[str], head: str | None = None) -> str:
        """A def over the arguments that runs ``body``; its call."""
        name = f"f{len(self.defs)}"
        self.defs.append("\n    ".join([head or f"def {name}({self.args}):", *body]))
        return f"{name}({self.args})"

    def code(self, node: Expr, out: list[str]) -> tuple[str, int | str]:
        """``node`` as (p, q): p an expression, q a static int or a name,
        both readable once the statements ``node`` appends to ``out`` have
        run.  A divisor is read first: a zero raises when it is read,
        before its dividend, and a negative one gives its sign to p.  A
        divisor with a constant value (``_value``) folds into the pair; at
        a scale any other divisor, and anywhere a name not among the
        variables, raises at once.  A sum reduces by the gcd of its dens;
        comparisons, ``min`` and ``max`` read numerators over a shared den
        and cross-multiply others."""
        match node:
            case Num(value):
                return self.const(value.numerator), value.denominator
            case Var(name) if name in self.index:
                i = self.index[name]
                if self.scale is not None:
                    return f"v{i}", self.scale
                self.used.add(i)
                return f"n{i}", f"d{i}"
            case Neg(operand):
                p, q = self.code(operand, out)
                if p in self.names:
                    return self.const(-self.names[p]), q
                return f"(-{p})", q
            case BinOp("/", left, right):
                r = _value(right)
                if r is None and self.scale is not None:
                    raise ExprEvalError("a variable divisor has no scaled kernel")
                if r == 0 and self.scale is None:
                    out.append("_zero()")
                    return self.const(0), 1
                if r is not None:
                    r = 1 / r  # at a scale a zero raises here
                    pa, qa = self.code(left, out)
                    return self.times(pa, r.numerator), self.product(out, qa, r.denominator)
                pb, qb = self.code(right, out)
                if not pb.isidentifier():
                    pb = self.let(out, pb)
                out.append(f"if not {pb}: _zero()")
                pa, qa = self.code(left, out)
                qb = self.den(qb)
                sign = self.let(out, f"{qb} if {pb} > 0 else -{qb}")
                size = f"abs({pb})" if qa == 1 else f"abs({pb}) * {self.den(qa)}"
                return self.times(pa, sign), self.let(out, size)
            case BinOp("*", left, right):
                (pa, qa), (pb, qb) = self.code(left, out), self.code(right, out)
                return f"({pa} * {pb})", self.product(out, qa, qb)
            case BinOp("+" | "-" as op, left, right) | Comparison(
                "<" | "<=" | ">" | ">=" as op, left, right
            ):
                parts = [self.code(left, out), self.code(right, out)]
                summed = isinstance(node, BinOp)
                texts, den = self.common(parts)
                if den is not None:
                    return f"({texts[0]} {op} {texts[1]})", den
                (pa, qa), (pb, qb) = parts
                if not summed or 1 in (qa, qb):  # cross-multiplied
                    text = f"({self.times(pa, qb)} {op} {self.times(pb, qa)})"
                    return text, self.product(out, qa, qb) if summed else 1
                qa, qb = self.den(qa), self.den(qb)
                g = self.let(out, f"_gcd({qa}, {qb})")
                s = self.let(out, f"{qa} // {g}")
                text = f"({pa} * ({qb} // {g}) {op} {pb} * {s})"
                return text, self.let(out, f"{s} * {qb}")
            case Call("abs", (arg,)):
                p, q = self.code(arg, out)
                return f"abs({p})", q
            case Call("min" | "max" as func, args):
                parts = [self.code(arg, out) for arg in args]
                texts, den = self.common(parts)
                if den is not None:
                    return f"{func}({', '.join(texts)})", den
                (p, q), *rest = parts
                best, best_q = self.temp(), self.temp()
                out.append(f"{best}, {best_q} = {p}, {self.den(q)}")
                beats = "<" if func == "min" else ">"
                for p, q in rest:
                    if not p.isidentifier():
                        p = self.let(out, p)
                    out.append(
                        f"if {self.times(p, best_q)} {beats} {self.times(best, q)}:"
                        f" {best}, {best_q} = {p}, {self.den(q)}"
                    )
                return best, best_q
            case Piecewise():
                lines, den = self.body(node)
                call = self.define(lines)
                if den is not None:
                    return call, den
                p, q = self.temp(), self.temp()
                out.append(f"{p}, {q} = {call}")
                return p, q
        raise ExprEvalError(f"cannot evaluate node {node!r}")


#: Builds so far: a kernel's filename, so a profile keeps one entry per kernel.
_builds = itertools.count(1)
MAX_KERNELS = 32  # kernels the process keeps, the most recently used
_PAIRS = "pairs"  # the pair flavour's key in the place of a scale


@dataclass(frozen=True)
class _Tree:
    """A formula's tree and variables, the kernel cache's key with the
    scale.  The cache hashes its key on every read, so the hash is taken
    once; unlike the formula, the key keeps no exact kernel alive."""

    ast: Expr
    variables: tuple[str, ...]

    @functools.cached_property
    def _hash(self) -> int:
        return hash((self.ast, self.variables))

    def __hash__(self) -> int:
        return self._hash


@functools.lru_cache(maxsize=MAX_KERNELS)
def _kernel(tree: _Tree, scale: int | str | None) -> tuple[Callable, int] | None:
    """(kernel, den): ``tree`` compiled to one Python function of one
    argument per variable.  With no ``scale`` each is an exact number, a
    Fraction or an int, and den is 1, as with ``_PAIRS``, whose kernel
    returns a reduced pair; with a ``scale`` each is one int, the value
    times ``scale`` (see :meth:`_Source.code`), and the result is None
    when the formula divides by a variable or by 0."""
    pairs = scale == _PAIRS
    source = _Source(tree.variables, None if pairs else scale, pairs)
    try:
        body, den = source.body(tree.ast, top=True)
    except (ExprEvalError, ZeroDivisionError):
        if source.scale is None:
            raise
        return None
    source.define(body, f"def kernel({source.args}):")
    code = compile("\n".join(source.defs), f"<kernel {next(_builds)}>", "exec")
    exec(code, source.names)
    return source.names["kernel"], den or 1


@dataclass(frozen=True)
class Formula:
    """A parsed expression bound to an ordered variable list.  Its
    kernels, the functions generated from it, come from the process's
    kernel cache (``_kernel``): ``exact``, kept on the formula once read,
    and one per scale."""

    ast: Expr
    variables: tuple[str, ...]

    @classmethod
    def parse(cls, text: str, variables: tuple[str, ...]) -> "Formula":
        return cls(parse(text, frozenset(variables)), variables)

    @functools.cached_property
    def _tree(self) -> _Tree:
        return _Tree(self.ast, self.variables)

    @functools.cached_property
    def exact(self) -> Callable[..., Fraction]:
        """The kernel over exact numbers, one Fraction or int per
        variable, to a Fraction; a bare variable returns its argument."""
        return _kernel(self._tree, None)[0]

    @functools.cached_property
    def pairs(self) -> Callable[..., tuple[int, int]]:
        """``exact``'s pair flavour: the value as its reduced (numerator,
        denominator), den > 0, with no ``Fraction``; it raises where
        ``exact`` does, with the same text."""
        return _kernel(self._tree, _PAIRS)[0]

    def __call__(self, *values: object) -> Fraction:
        if len(values) != len(self.variables):
            raise ExprEvalError(
                f"expected {len(self.variables)} arguments, got {len(values)}"
            )
        return self.exact(*map(to_fraction, values))

    def scaled(self, scale: int) -> tuple[Callable, int] | None:
        """(kernel, den): the formula from one int per variable, its value
        times ``scale``, to its value times den, over ints; None when it
        divides by a variable or by 0."""
        return _kernel(self._tree, scale)

    def pretty(self) -> str:
        return pretty(self.ast)
