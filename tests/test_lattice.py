"""Integer closures and the integer circle and fix-set kernels, each
against the Fraction code it replaced, kept here as the oracle.

Run these under more examples with ``--hypothesis-profile ci``.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smetriclab import (
    ExprEvalError,
    Formula,
    FormulaMapping,
    FormulaSMetric,
    Mapping,
    SMetric,
    Space,
    check_fixed_circle,
    fix_set,
    verify_zamfirescu_x0,
)
from smetriclab.circles import CircleReport
from smetriclab.contraction import ContractionParams
from smetriclab.expr import BinOp, Call, Comparison, Neg, Num, Piecewise, Var
from smetriclab.mapping import on_lattice
from smetriclab.numeric import DEFAULT_TOL, to_fraction


# -- the Fraction kernels, as they were before the integer pass ----------


@dataclass
class _Row:
    point: object
    image: object
    moved: Fraction
    dist: Fraction | None = None
    image_dist: Fraction | None = None


def reference_rows(space, mapping, a, b, center, pts, tol, every_dist):
    weights = ContractionParams(a, b, 0)
    s = space.smetric.triple
    t_center = mapping.apply(space, center)
    half_b = weights.b / 2
    rows, violations = [], []
    for p in pts:
        image = mapping.apply(space, p)
        row = _Row(p, image, s(image, image, p))
        if every_dist or row.moved > tol:
            row.dist = s(p, p, center)
        if row.moved > tol:
            back = s(t_center, t_center, p)
            row.image_dist = s(image, image, center)
            bound = max(weights.a * row.dist, half_b * (back + row.image_dist))
            if row.moved > bound + tol:
                violations.append((p, row.moved, bound))
        rows.append(row)
    return rows, violations


def reference_zamfirescu(space, mapping, a, b, x0, sample=None, tol=DEFAULT_TOL):
    tol = to_fraction(tol)
    _, violations = reference_rows(
        space, mapping, a, b, space.resolve(x0), space.sampled(sample), tol,
        every_dist=False,
    )
    return violations


def reference_circle(
    space, mapping, a, b, x0, sample=None, tol=DEFAULT_TOL, tol_circle=None
):
    tol = to_fraction(tol)
    center = space.resolve(x0)
    rows, zam = reference_rows(
        space, mapping, a, b, center, space.sampled(sample), tol,
        every_dist=True,
    )
    radius = min((r.moved for r in rows if r.moved > tol), default=Fraction(0))
    if tol_circle is not None:
        margin = to_fraction(tol_circle)
    elif space.kind == "real_grid":
        by_value = sorted({r.point.value: r.dist for r in rows}.items())
        slopes = [
            abs(d1 - d0) / (c1 - c0)
            for (c0, d0), (c1, d1) in itertools.pairwise(by_value)
        ]
        margin = max(tol, max(slopes, default=0) * (space.step / 2))
    else:
        margin = tol
    circle = [r for r in rows if abs(r.dist - radius) <= margin]
    reach, limit = radius + margin, radius + tol
    disc = [r for r in rows if r.dist <= reach]
    s = space.smetric.triple
    for r in disc:
        if r.image_dist is None:
            r.image_dist = s(r.image, r.image, center)
    hypothesis_violations = [
        (r.point, r.image_dist) for r in disc if r.image_dist > limit
    ]
    nonfixed = [r.point for r in disc if r.moved > tol]
    circle_fixed = all(r.moved <= tol for r in circle)
    hyp_ok_on_circle = all(r.image_dist <= limit for r in circle)
    inconsistent = not zam and (
        (hyp_ok_on_circle and not circle_fixed)
        or (not hypothesis_violations and bool(nonfixed))
    )
    return CircleReport(
        rho=radius,
        circle_points=[r.point for r in circle],
        disc_points=[r.point for r in disc],
        zamfirescu_violations=zam,
        hypothesis_violations=hypothesis_violations,
        circle_fixed=circle_fixed,
        disc_fixed=not nonfixed,
        nonfixed_witnesses=nonfixed,
        inconsistent=inconsistent,
        tol_circle=margin,
    )


def reference_fix_set(space, mapping):
    return [p for p in space.points if mapping.apply(space, p) == p]


# -- formulas ------------------------------------------------------------

# literals whose denominators divide the scales below, so that a variable
# often lands exactly on a piecewise boundary
LITERALS = st.fractions(min_value=-2, max_value=2, max_denominator=6)
SCALES = st.sampled_from([1, 2, 3, 6, 10, 60])


def _divisors():
    """Mostly nonzero literals; sometimes a constant expression, or 0."""
    constant = st.recursive(
        LITERALS.map(Num),
        lambda inner: st.tuples(
            st.sampled_from(["+", "-", "*", "/"]), inner, inner
        ).map(lambda t: BinOp(*t)),
        max_leaves=3,
    )
    return st.one_of(
        LITERALS.filter(bool).map(Num),
        LITERALS.filter(bool).map(lambda q: Neg(Num(abs(q)))),
        constant,
    )


@st.composite
def scalable_formulas(draw):
    """Formulas in x and y that divide only by constants."""
    leaves = st.one_of(LITERALS.map(Num), st.sampled_from([Var("x"), Var("y")]))

    def extend(children):
        comparisons = st.tuples(
            st.sampled_from(["<", "<=", ">", ">="]), children, children
        ).map(lambda t: Comparison(*t))
        return st.one_of(
            children.map(Neg),
            st.tuples(st.sampled_from(["+", "-", "*"]), children, children).map(
                lambda t: BinOp(*t)
            ),
            st.tuples(children, _divisors()).map(
                lambda t: BinOp("/", *t)
            ),
            children.map(lambda c: Call("abs", (c,))),
            st.lists(children, min_size=2, max_size=3).map(
                lambda cs: Call("min", tuple(cs))
            ),
            st.lists(children, min_size=2, max_size=3).map(
                lambda cs: Call("max", tuple(cs))
            ),
            st.tuples(
                st.lists(st.tuples(comparisons, children), min_size=1, max_size=2),
                children,
            ).map(lambda t: Piecewise(tuple(t[0]), t[1])),
        )

    return Formula(draw(st.recursive(leaves, extend, max_leaves=10)), ("x", "y"))


def _divides_by_zero(node):
    """Whether some divisor in the tree is 0 or fails to evaluate."""
    match node:
        case BinOp("/", left, right):
            try:
                if Formula(right, ())() == 0:
                    return True
            except ExprEvalError:
                return True
            return _divides_by_zero(left) or _divides_by_zero(right)
        case BinOp(_, left, right) | Comparison(_, left, right):
            return _divides_by_zero(left) or _divides_by_zero(right)
        case Neg(operand):
            return _divides_by_zero(operand)
        case Call(_, args):
            return any(map(_divides_by_zero, args))
        case Piecewise(branches, otherwise):
            return any(_divides_by_zero(x) for branch in branches for x in branch) \
                or _divides_by_zero(otherwise)
    return False


@settings(deadline=None)
@given(scalable_formulas(), SCALES, st.integers(-130, 130), st.integers(-130, 130))
@example(Formula.parse("piecewise(x <= 1/2 : y/3, else : -x)", ("x", "y")), 6, 3, 1)
@example(Formula.parse("piecewise(x < 1/2 : 1, x >= 1/2 : 2, else : 3)", ("x", "y")),
         2, 1, 0)
@example(Formula.parse("max(x/(1/3), y*x) - min(x, -y/-2)", ("x", "y")), 10, 7, -3)
@example(Formula.parse("x/(2/0)", ("x", "y")), 1, 1, 1)
def test_scaled_closure_matches_the_fraction_closure(formula, scale, xn, yn):
    compiled = formula.scaled(scale)
    if compiled is None:
        assert _divides_by_zero(formula.ast)
        return
    closure, den = compiled
    value = closure((xn, yn))
    assert type(value) is int and type(den) is int and den > 0
    assert Fraction(value, den) == formula(Fraction(xn, scale), Fraction(yn, scale))


@pytest.mark.parametrize(
    ("text", "x", "error"),
    [
        ("1/x", 0, "division by zero"),
        ("x/(x - x)", 1, "division by zero"),
        ("x/0", 1, "division by zero"),
        ("x/(1 - 1)", 1, "division by zero"),
        ("piecewise(x < 0 : 1/x, else : x)", 0, None),
        ("piecewise(x < 0 : x/0, else : x)", 0, None),
        ("piecewise(x < 0 : x/0, else : x)", -1, "division by zero"),
    ],
)
def test_variable_or_zero_divisors_get_no_integer_closure(text, x, error):
    formula = Formula.parse(text, ("x",))
    assert formula.scaled(10) is None
    if error is None:
        assert formula(x) == x
    else:
        with pytest.raises(ExprEvalError) as excinfo:
            formula(x)
        assert str(excinfo.value) == error


def test_scaled_closure_carries_its_den():
    image, den = Formula.parse("x/2 + 1", ("x",)).scaled(10)
    assert den == 20
    assert image((30,)) == 50  # x = 3 maps to 5/2, times 20


def test_kernels_keep_the_error_of_a_dividing_map():
    space = Space.finite([0, 1, 2], FormulaSMetric(Formula.parse(
        "abs(x - z) + abs(y - z)", ("x", "y", "z"))))
    mapping = FormulaMapping(Formula.parse("2/x", ("x",)))
    for kernel in (check_fixed_circle, verify_zamfirescu_x0):
        with pytest.raises(ExprEvalError) as excinfo:
            kernel(space, mapping, 0, 0, 1)
        assert str(excinfo.value) == "division by zero"
    with pytest.raises(ExprEvalError, match="^division by zero$"):
        fix_set(space, mapping)


# -- the circle and fix-set kernels --------------------------------------

S_FORMULAS = (
    "abs(x - z) + abs(y - z)",
    "abs(x - z) + abs(x + z - 2*y)",
    "max(abs(x - z), abs(y - z)) / 3",
    "abs(x - y) / 7 + abs(y - z) / 2 + abs(z - x)",
    "(x - z) * (y - z) + 1/10",
)
MAP_FORMULAS = (
    "x/2 + 1",
    "x",
    "piecewise(x < -3 : x + 1, x > 3 : x + 1, else : x)",
    "piecewise(x <= 1/3 : x/3, else : 1 - x)",
    "-x/3 + 1/5",
    "min(x, 1) * 2 - max(x, 0)",
    "x*x/4",
    "abs(x - 1/2) / (2/3)",
)
STEPS = [Fraction(1, 10), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), 1]
COEFFICIENTS = st.sampled_from(
    [Fraction(0), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(3, 4)]
)
TOLERANCES = st.sampled_from(
    [Fraction(0), DEFAULT_TOL, Fraction(1, 7), Fraction(1, 2), Fraction(-1, 9)]
)
COORDINATES = st.fractions(min_value=-3, max_value=3, max_denominator=12)


@st.composite
def circle_instances(draw):
    """A grid or a finite numeric universe, formula S and T, a center and
    a sample: None, or points of the universe and off it, in any order
    and with repeats."""
    s = FormulaSMetric(
        Formula.parse(draw(st.sampled_from(S_FORMULAS)), ("x", "y", "z"))
    )
    if draw(st.booleans()):
        step = draw(st.sampled_from(STEPS))
        lo = draw(st.integers(-3, 1)) * Fraction(1, 2)
        space = Space.real_grid(lo, lo + step * draw(st.integers(0, 24)), step, s)
    else:
        points = draw(st.lists(COORDINATES, min_size=1, max_size=8, unique=True))
        space = Space.finite(points, s)
    mapping = FormulaMapping(
        Formula.parse(draw(st.sampled_from(MAP_FORMULAS)), ("x",))
    )
    universe = st.sampled_from([p.value for p in space.points])
    x0 = draw(universe)
    sample = draw(st.none() | st.lists(universe | COORDINATES, min_size=1, max_size=10))
    return space, mapping, x0, sample


def _exactly(value):
    """``value`` with every number tagged by its type."""
    return value, repr(value)


class RecordingSMetric(SMetric):
    """S behind an interface the integer pass does not read; each call is
    logged."""

    def __init__(self, base, log):
        self.base, self.log = base, log

    def triple(self, x, y, z):
        self.log.append(("S", x, y, z))
        return self.base.triple(x, y, z)


class RecordingMapping(Mapping):
    def __init__(self, base, log):
        self.base, self.log = base, log

    def apply(self, space, x):
        self.log.append(("T", x))
        return self.base.apply(space, x)


def _recorded(space, mapping):
    log = []
    recording = RecordingSMetric(space.smetric, log)
    return Space(space.kind, space.points, recording, space.step), \
        RecordingMapping(mapping, log), log


CIRCLE_ARGUMENTS = (
    circle_instances(),
    COEFFICIENTS,
    COEFFICIENTS,
    TOLERANCES,
    st.none() | st.fractions(min_value=0, max_value=2, max_denominator=20),
)


@settings(deadline=None)
@given(*CIRCLE_ARGUMENTS)
def test_integer_circle_pass_matches_the_fraction_kernels(
    instance, a, b, tol, tol_circle
):
    space, mapping, x0, sample = instance
    assert _exactly(
        check_fixed_circle(space, mapping, a, b, x0, sample, tol, tol_circle)
    ) == _exactly(reference_circle(space, mapping, a, b, x0, sample, tol, tol_circle))
    assert _exactly(
        verify_zamfirescu_x0(space, mapping, a, b, x0, sample, tol)
    ) == _exactly(reference_zamfirescu(space, mapping, a, b, x0, sample, tol))
    assert _exactly(fix_set(space, mapping)) == _exactly(
        reference_fix_set(space, mapping)
    )
    # the integer pass ran: both formulas compile on the universe's lattice
    lattice = on_lattice(mapping, space.points)
    assert lattice and space.smetric.formula.scaled(lattice[0])


@settings(deadline=None)
@given(*CIRCLE_ARGUMENTS)
def test_fraction_fallback_reads_s_and_t_in_the_old_order(
    instance, a, b, tol, tol_circle
):
    # an S or a map that raises on some point therefore aborts there
    space, mapping, x0, sample = instance
    for kernel, reference, extra in (
        (check_fixed_circle, reference_circle, (tol_circle,)),
        (verify_zamfirescu_x0, reference_zamfirescu, ()),
    ):
        new_space, new_map, new = _recorded(space, mapping)
        old_space, old_map, old = _recorded(space, mapping)
        got = kernel(new_space, new_map, a, b, x0, sample, tol, *extra)
        want = reference(old_space, old_map, a, b, x0, sample, tol, *extra)
        assert _exactly(got) == _exactly(want)
        assert new == old
    new_space, new_map, new = _recorded(space, mapping)
    old_space, old_map, old = _recorded(space, mapping)
    assert fix_set(new_space, new_map) == reference_fix_set(old_space, old_map)
    assert new == old
