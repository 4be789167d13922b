"""Parser, evaluator, and canonical printer for the expression language."""

import json
import math
import numbers
import re
from fractions import Fraction

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from smetriclab import (
    ExprEvalError,
    ExprSyntaxError,
    Formula,
    parse,
    pretty,
)
from smetriclab.experiment import SequenceSpec
from smetriclab.expr import (
    MAX_DEPTH,
    BinOp,
    Call,
    Comparison,
    Neg,
    Num,
    Piecewise,
    Var,
)

from conftest import SUM_ABS, run_cli


def reference(node, env):
    """A tree-walking evaluator, kept as the oracle that the generated
    kernels, exact and scaled, are tested against."""
    match node:
        case Num(value):
            return value
        case Var(name):
            return env[name]
        case Neg(operand):
            return -reference(operand, env)
        case BinOp("+", left, right):
            return reference(left, env) + reference(right, env)
        case BinOp("-", left, right):
            return reference(left, env) - reference(right, env)
        case BinOp("*", left, right):
            return reference(left, env) * reference(right, env)
        case BinOp("/", left, right):
            denom = reference(right, env)
            if denom == 0:
                raise ExprEvalError("division by zero")
            return reference(left, env) / denom
        case Call("abs", (arg,)):
            return abs(reference(arg, env))
        case Call("min", args):
            return min(reference(a, env) for a in args)
        case Call("max", args):
            return max(reference(a, env) for a in args)
        case Piecewise(branches, otherwise):
            for cond, value in branches:
                left, right = reference(cond.left, env), reference(cond.right, env)
                holds = {
                    "<": left < right, "<=": left <= right,
                    ">": left > right, ">=": left >= right,
                }[cond.op]
                if holds:
                    return reference(value, env)
            return reference(otherwise, env)
    raise ExprEvalError(f"cannot evaluate node {node!r}")


def outcome(evaluate_it):
    """The value, or the text of the ExprEvalError raised instead."""
    try:
        return evaluate_it()
    except ExprEvalError as e:
        return f"ExprEvalError: {e}"


@pytest.mark.parametrize(
    ("text", "env", "value"),
    [
        ("1 + 2*3", {}, 7),
        ("(1 + 2)*3", {}, 9),
        ("2 - 3 - 4", {}, -5),
        ("12/4/3", {}, 1),
        ("-x + 3", {"x": 1}, 2),
        ("--x", {"x": 5}, 5),
        ("2*-3", {}, -6),
        ("0.75*x", {"x": 8}, 6),
        ("1/3 + 1/6", {}, Fraction(1, 2)),
        ("1e-2", {}, Fraction(1, 100)),
        ("abs(x - 9)", {"x": 2}, 7),
        ("min(3, x, 5)", {"x": 4}, 3),
        ("max(1, x)", {"x": 0}, 1),
        ("piecewise(x < 0 : -x, else : x)", {"x": -5}, 5),
        ("piecewise(x <= 1 : 1, else : 0)", {"x": 1}, 1),
        ("piecewise(x <= 1 : 1, else : 0)", {"x": Fraction(101, 100)}, 0),
        ("piecewise(x >= 6 : 5, else : x/2)", {"x": 6}, 5),
        ("piecewise(x > 3 : 1, x < -3 : 1, else : 0)", {"x": 3}, 0),
    ],
)
def test_evaluate(text, env, value):
    assert Formula.parse(text, ("x",))(env.get("x", 0)) == Fraction(value)


@pytest.mark.parametrize(
    ("text", "offset"),
    [
        ("1 +", 3),
        ("(1 + 2", 6),
        ("foo(1)", 0),
        ("abs(1, 2)", 0),
        ("min(1)", 0),
        ("x ? 1", 2),
        ("x < 1", 2),
        ("piecewise(x : 1, else : 2)", 12),
        ("piecewise(else : 2)", 0),
        ("bogus + 1", 0),
        ("x * " + "9" * 4301, 4),
    ],
)
def test_syntax_error_offsets(text, offset):
    with pytest.raises(ExprSyntaxError) as err:
        parse(text, ("x",))
    assert err.value.offset == offset
    assert f"at offset {offset}" in str(err.value)


def test_reserved_names_cannot_be_variables():
    with pytest.raises(ValueError, match="reserved"):
        parse("min + 1", ("min",))


def test_division_by_zero():
    formula = Formula.parse("1/(x - 1)", ("x",))
    with pytest.raises(ExprEvalError, match="division by zero"):
        formula(1)


def test_formulas_compare_and_hash_by_tree_and_variables():
    first = Formula.parse("abs(x - z) + abs(y - z)", ("x", "y", "z"))
    second = Formula.parse("abs(x - z) + abs(y - z)", ("x", "y", "z"))
    assert first == second and hash(first) == hash(second)
    assert first != Formula.parse("abs(x - z) + abs(y - z)", ("z", "y", "x"))


@pytest.mark.parametrize(
    "nest",
    [
        lambda depth: "(" * depth + "x" + ")" * depth,
        lambda depth: "-" * depth + "x",
        lambda depth: "abs(" * depth + "x" + ")" * depth,
        lambda depth: "x" + " + 1" * depth,
        lambda depth: "x" + "*2" * depth,
    ],
    ids=["parentheses", "unary minus", "arguments", "sum chain", "product chain"],
)
def test_nesting_depth_is_bounded(nest):
    # the whole formula is one level, so MAX_DEPTH - 1 more levels fit
    deepest = Formula.parse(nest(MAX_DEPTH - 1), ("x",))
    assert pretty(parse(deepest.pretty(), ("x",))) == deepest.pretty()
    kernel, den = deepest.scaled(10)
    assert Fraction(kernel(30), den) == deepest(3)
    with pytest.raises(ExprSyntaxError, match=f"nested deeper than {MAX_DEPTH}"):
        parse(nest(MAX_DEPTH), ("x",))
    with pytest.raises(ExprSyntaxError, match=f"nested deeper than {MAX_DEPTH}"):
        parse(nest(30 * MAX_DEPTH), ("x",))


def nested_piecewise(levels):
    text = "x"
    for _ in range(levels):
        text = f"piecewise(x < 1 : 1, else : {text})"
    return text


def test_nested_piecewise_is_bounded():
    # each piecewise is a level, and the innermost condition one more
    text = nested_piecewise(MAX_DEPTH - 2)
    assert Formula.parse(text, ("x",))(5) == 5
    with pytest.raises(ExprSyntaxError, match="nested deeper"):
        parse(f"piecewise(x < 1 : 1, else : {text})", ("x",))


def test_formula_checks_arity():
    formula = Formula.parse("x + y", ("x", "y"))
    assert formula(2, "0.5") == Fraction(5, 2)
    with pytest.raises(ExprEvalError, match="expected 2 arguments"):
        formula(2)


@pytest.mark.parametrize(
    ("text", "canonical"),
    [
        ("1+2 * 3", "1 + 2*3"),
        ("(1+2)*3", "(1 + 2)*3"),
        ("1 - (2 - 3)", "1 - (2 - 3)"),
        ("1 - 2 - 3", "1 - 2 - 3"),
        ("2/(3/4)", "2/(3/4)"),
        ("12/4/3", "12/4/3"),
        ("-(x + 1)", "-(x + 1)"),
        ("x - -1", "x - -1"),
        ("x*(x + 1)", "x*(x + 1)"),
        ("abs( x-1 )+abs(1-x)", "abs(x - 1) + abs(1 - x)"),
        ("piecewise(x>=6:5,else:x/2)", "piecewise(x >= 6 : 5, else : x/2)"),
        ("min(1,   2, x)", "min(1, 2, x)"),
        ("0.500*x", "0.5*x"),
    ],
)
def test_pretty_canonical_form(text, canonical):
    node = parse(text, ("x",))
    assert pretty(node) == canonical
    assert pretty(parse(canonical, ("x",))) == canonical


def _ast_strategy():
    nums = st.fractions(
        min_value=-5, max_value=5, max_denominator=30
    ).map(Num)
    leaves = st.one_of(nums, st.sampled_from([Var("x"), Var("y")]))

    def extend(children):
        comparisons = st.tuples(
            st.sampled_from(["<", "<=", ">", ">="]), children, children
        ).map(lambda t: Comparison(t[0], t[1], t[2]))
        return st.one_of(
            children.map(Neg),
            st.tuples(
                st.sampled_from(["+", "-", "*", "/"]), children, children
            ).map(lambda t: BinOp(t[0], t[1], t[2])),
            children.map(lambda a: Call("abs", (a,))),
            st.tuples(children, children).map(lambda t: Call("min", t)),
            st.tuples(children, children).map(lambda t: Call("max", t)),
            st.tuples(comparisons, children, children).map(
                lambda t: Piecewise(((t[0], t[1]),), t[2])
            ),
        )

    return st.recursive(leaves, extend, max_leaves=12)


@given(_ast_strategy())
def test_pretty_parse_is_a_fixed_point(ast):
    text = pretty(ast)
    assert pretty(parse(text, ("x", "y"))) == text


#: integers, and fractions of either sign with dens up to 12
VALUES = st.one_of(
    st.integers(-3, 3), st.fractions(min_value=-3, max_value=3, max_denominator=12)
)


def xy(text):
    return parse(text, ("x", "y"))


@given(_ast_strategy(), VALUES, VALUES)
@example(BinOp("/", Var("y"), BinOp("/", Num(Fraction(1)), Var("x"))), 0, 1)
# a negative variable divisor, read by a comparison, min, max and abs
@example(xy("piecewise(1/(x - 3) < 0 : 1, else : 0)"), 1, 0)
@example(xy("max(1/(x - 3), -1/(x - 2))"), 1, 0)
@example(xy("min(y/(x - 3), 1/(x - 2), x)"), Fraction(-5, 12), Fraction(7, 4))
@example(xy("abs(1/(x - 3)) + x/(y - x)"), Fraction(1, 2), Fraction(-2, 3))
def test_compiled_formula_matches_the_reference(ast, xv, yv):
    env = {"x": Fraction(xv), "y": Fraction(yv)}
    want = outcome(lambda: reference(ast, env))
    got = outcome(lambda: Formula(ast, ("x", "y"))(xv, yv))
    assert got == want
    assert type(got) is type(want)  # a Fraction, or the same error text


@given(_ast_strategy(), st.integers(-3, 3), st.integers(-3, 3))
@example(BinOp("/", Var("x"), Num(Fraction(1, 3))), 1, 0)
@example(Call("abs", (Neg(BinOp("/", Var("x"), Num(Fraction(1, 3)))),)), 1, 0)
@example(BinOp("/", Var("x"), Num(Fraction(-1, 3))), 1, 0)
def test_reparsing_preserves_value(ast, xv, yv):
    try:
        want = Formula(ast, ("x", "y"))(xv, yv)
    except ExprEvalError:
        assume(False)
    assert Formula.parse(pretty(ast), ("x", "y"))(xv, yv) == want


def primes(count):
    found = []
    k = 2
    while len(found) < count:
        if all(k % p for p in found):
            found.append(k)
        k += 1
    return found


def branches(count):
    """Branches ``x < k : k`` for k = 5 - count, ..., 4, else 5: an
    integer x from 4 - count to 3 maps to x + 1, any x from 4 on to 5."""
    tests = ", ".join(f"x < {k} : {k}" for k in range(5 - count, 5))
    return f"piecewise({tests}, else : 5)"


def thousand_term_sum():
    """``x + x + ...`` with 1,000 terms, grouped ten by ten so that it
    nests within ``MAX_DEPTH``."""
    tens = " + ".join(["x"] * 10)
    hundreds = " + ".join([f"({tens})"] * 10)
    return " + ".join([f"({hundreds})"] * 10)


LIMITS = {
    "3,000 branches": branches(3000),
    # each level adds a *k wrap of the sum so far in the scaled kernel
    "prime chain": "x" + "".join(f" + 1/{p}" for p in primes(MAX_DEPTH - 2)),
    "1,000-argument min": f"min({', '.join(f'x - {k}' for k in range(1000))})",
    "nested piecewise": nested_piecewise(MAX_DEPTH - 2),
    "1,000-term sum": thousand_term_sum(),
}


@pytest.mark.parametrize("text", LIMITS.values(), ids=LIMITS.keys())
def test_formulas_at_the_limits_compile_exact_and_scaled(text):
    formula = Formula.parse(text, ("x",))
    tiny = Fraction(1, 2**8191 + 1)  # a den past the lattice bound
    for x in (Fraction(-2999), Fraction(-7, 2), Fraction(0), Fraction(5, 3), 6, tiny):
        want = reference(formula.ast, {"x": x})
        assert formula(x) == want
        scale = math.lcm(6, Fraction(x).denominator)
        kernel, den = formula.scaled(scale)
        assert Fraction(kernel(int(x * scale)), den) == want


def test_a_3000_branch_map_runs_from_the_command_line(tmp_path):
    path = tmp_path / "branches.json"
    path.write_text(json.dumps({
        "name": "branches",
        "space": {"kind": "real_grid", "lo": 0, "hi": 10, "step": 1,
                  "smetric": {"kind": "formula", "expr": SUM_ABS}},
        "map": {"kind": "formula", "expr": branches(3000)},
        "checks": [{"check": "fix_set", "expect": [5]}, {"check": "solve", "x0": 0}],
    }))
    result = run_cli("run", "--input", str(path), timeout=60)
    assert (result.returncode, result.stderr) == (0, "")
    report = json.loads(result.stdout)
    assert [c["verdict"] for c in report["checks"]] == ["pass", "pass"]
    assert report["checks"][1]["points"] == ["0", "1", "2", "3", "4", "5", "5"]


def test_each_kernel_is_built_once():
    formula = Formula.parse("x/2 + 1", ("x",))
    assert formula.scaled(10) is formula.scaled(10)
    assert formula.scaled(20) is not formula.scaled(10)
    assert formula.exact is formula.exact
    assert Formula.parse("1/x", ("x",)).scaled(10) is None


def test_each_kernel_compiles_under_its_own_filename():
    formula, again = (Formula.parse("x/2 + 1", ("x",)) for _ in range(2))
    kernels = (formula.exact, again.exact, formula.scaled(10)[0])
    names = {kernel.__code__.co_filename for kernel in kernels}
    assert len(names) == 3  # a profile tells them apart
    assert all(re.fullmatch(r"<kernel \d+>", name) for name in names)


def test_a_piecewise_def_carries_its_kernels_filename():
    kernel = Formula.parse("piecewise(x < 0 : -x, else : x) + 1", ("x",)).exact
    assert kernel(Fraction(-2)) == 3
    piece = kernel.__globals__["f0"]
    assert piece.__code__.co_filename == kernel.__code__.co_filename


def test_a_den_past_4300_digits_compiles():
    formula = Formula.parse("x/3 + 1/7 + x*x*x*x", ("x",))
    scale = 2**8000
    kernel, den = formula.scaled(scale)
    assert den > 10**4300  # its repr raises ValueError on Python 3.11+
    for x in (Fraction(3, 2), Fraction(-5, 4)):
        want = reference(formula.ast, {"x": x})
        assert Fraction(kernel(int(x * scale)), den) == want


def test_a_zero_divisor_in_a_branch_not_taken_does_not_raise():
    formula = Formula.parse(
        "piecewise(x < 0 : 1/(x - x), x > 5 : x/0, else : x)", ("x",)
    )
    assert formula(2) == 2


@pytest.mark.parametrize(
    "text", ["1/(x - 1)", "x/0", "(1/0)/(x - 1)", "abs(2/(x - x))"]
)
def test_a_zero_divisor_raises_division_by_zero(text):
    with pytest.raises(ExprEvalError) as excinfo:
        Formula.parse(text, ("x",))(1)
    assert str(excinfo.value) == "division by zero"
    assert excinfo.value.__context__ is None


def test_no_formula_text_reaches_the_kernel_source():
    odd = ("__import__('os')", "x y")
    formula = Formula(BinOp("-", Var(odd[0]), Var(odd[1])), odd)
    assert formula(5, 2) == 3
    assert formula.scaled(4)[0](20, 8) == 12
    with pytest.raises(ExprEvalError, match="cannot evaluate node"):
        Formula(Call("exec", (Num(Fraction(1)), Num(Fraction(2)))), ())()


@pytest.mark.parametrize(
    "text",
    ["0.75*x + 1/3", "piecewise(x < 1/2 : x/7, else : -x)", "max(x, 1/x) - 2.5",
     "min(x/3, 1e-2) * abs(x - 2/9)", "1/(1/x - 5/4)"],
)
def test_an_exact_kernel_reads_int_pairs_and_builds_one_fraction(text, monkeypatch):
    kernel = Formula.parse(text, ("x",)).exact
    constants = [v for v in kernel.__globals__.values() if isinstance(v, numbers.Number)]
    assert constants and all(type(v) is int for v in constants)
    want = kernel(Fraction(3))
    built = []
    new = Fraction.__new__
    monkeypatch.setattr(
        Fraction, "__new__", lambda cls, *a, **k: built.append(a) or new(cls, *a, **k)
    )
    got = kernel(3)
    monkeypatch.undo()
    assert got == want and type(got) is type(want) is Fraction
    assert len(built) == 1  # at return, from the pair


def test_a_bare_variable_returns_its_argument_as_it_is():
    kernel = Formula.parse("eps", ("eps",)).exact
    for value in (Fraction(1, 3), 7):
        assert kernel(value) is value
    through_call = Formula.parse("eps", ("eps",))(7)
    assert through_call == 7 and type(through_call) is Fraction


def test_a_sequence_expands_over_int_n():
    formula = Formula.parse("1 + 1/n", ("n",))
    kernel, seen = formula.exact, []
    formula.__dict__["exact"] = lambda n: seen.append(type(n)) or kernel(n)
    terms = SequenceSpec(expr=formula, n_from=1, n_to=1000).expand()
    assert set(seen) == {int} and len(seen) == 1000  # no Fraction(n) per term
    assert terms == [1 + Fraction(1, n) for n in range(1, 1001)]
    assert {type(t) for t in terms} == {Fraction}
