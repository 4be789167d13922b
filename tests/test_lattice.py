"""Integer closures, the integer circle, fix-set, condition (i)/(ii),
discontinuity and Picard kernels, the integer grid labels and the grid
lookups, each against the code it replaced, kept here as the oracle.

Run these under more examples with ``--hypothesis-profile oracle``.
"""

import functools
import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import sum_abs_smetric
from smetriclab import (
    ExprError,
    ExprEvalError,
    Formula,
    FormulaMapping,
    FormulaMetric,
    FormulaSMetric,
    GaugeDomainError,
    GaugeSpec,
    GeneratedSMetric,
    Mapping,
    Point,
    SMetric,
    Space,
    SpaceError,
    TableMapping,
    TableSMetric,
    UnknownPointError,
    check_fixed_circle,
    condition_ii_probe,
    discontinuity_criterion,
    eps_grid,
    fix_set,
    m_z_s,
    picard,
    verify_condition_i,
    verify_zamfirescu_x0,
)
from smetriclab.circles import CircleReport
from smetriclab.contraction import ContractionParams
from smetriclab.expr import BinOp, Call, Comparison, Neg, Num, Piecewise, Var
from smetriclab.experiment import SequenceSpec
from smetriclab.numeric import (
    DEFAULT_TOL, MAX_LATTICE_BITS, format_decimal, lattice_scale, to_fraction,
)
from smetriclab import (
    ConfigError, as_point, build_experiment, cli, expr, fixture_path,
    load_experiment, run, runner,
)
from smetriclab.mapping import MappingRangeError
from smetriclab.solver import DiscontinuityVerdict, SequenceLimit, _land
from smetriclab.space import _read, on_lattice


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

    def contradicts(members):  # only members within tol of the sets count
        return (all(r.image_dist <= limit for r in members)
                and any(r.moved > tol for r in members))

    on_circle = [r for r in circle if abs(r.dist - radius) <= tol]
    in_disc = [r for r in disc if r.dist <= limit]
    inconsistent = not zam and (contradicts(on_circle) or contradicts(in_disc))
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
        circle_fixed_within_tol=all(r.moved <= tol for r in on_circle),
        disc_fixed_within_tol=all(r.moved <= tol for r in in_disc),
    )


def reference_fix_set(space, mapping):
    return [p for p in space.points if mapping.apply(space, p) == p]


def _m_value(s, params, px, py, tx, ty):
    """M(x, y) from the pair, its images and the distance ``s``; a weight
    of exactly 0 makes its term exactly 0, so the S values under it are
    not evaluated."""
    a, b, c = params.a, params.b, params.c
    half, zero = Fraction(1, 2), Fraction(0)
    return max(
        a * s(px, px, py) if a else zero,
        b * half * (s(px, px, tx) + s(py, py, ty)) if b else zero,
        c * half * (s(px, px, ty) + s(py, py, tx)) if c else zero,
    )


def reference_m_z_s(space, mapping, params, x, y):
    px, py = space.coerce(x), space.coerce(y)
    tx, ty = mapping.apply(space, px), mapping.apply(space, py)
    return _m_value(space.smetric.triple, params, px, py, tx, ty)


def reference_pair_rows(space, mapping, pairs, params):
    if pairs is None:
        pairs = itertools.product(space.points, repeat=2)
    else:
        pairs = [(space.coerce(x), space.coerce(y)) for x, y in pairs]
    s = space.smetric.triple
    rows = []
    for px, py in pairs:
        tx, ty = mapping.apply(space, px), mapping.apply(space, py)
        if params is None:
            reference = s(px, px, py)
        else:
            reference = _m_value(s, params, px, py, tx, ty)
        rows.append((px, py, reference, s(tx, tx, ty)))
    return rows


def reference_condition_i(
    space, mapping, params, gauge=None, pairs=None, mode="full", tol=DEFAULT_TOL
):
    tol = to_fraction(tol)
    rows = reference_pair_rows(
        space, mapping, pairs, None if mode == "simple" else params
    )
    violations = []
    for px, py, ref, s_t in rows:
        if mode != "strict":
            bound = gauge.phi(ref)
        elif ref <= tol:
            continue
        else:
            bound = ref - 2 * tol
        if s_t > bound + tol:
            violations.append((px, py, ref, s_t))
    return violations


def reference_condition_ii(
    space, mapping, params, gauge, pairs=None, eps_values=None, tol=DEFAULT_TOL
):
    tol = to_fraction(tol)
    rows = reference_pair_rows(space, mapping, pairs, params)
    grid = eps_grid([m for _, _, m, _ in rows], eps_values, tol)
    violations = []
    for eps in grid:
        width = gauge.delta(eps)
        if width <= 0:
            raise GaugeDomainError(f"delta({eps}) = {width} is not positive")
        upper, cap = eps + width, eps + tol
        for px, py, m, s_t in rows:
            if eps < m < upper and s_t > cap:
                violations.append((px, py, eps, m, s_t))
    return grid, violations


def reference_discontinuity(
    space, mapping, params, u, sequences, limit_tol=DEFAULT_TOL, conv_tol=None,
    tail_start=None, window=None, tol=DEFAULT_TOL,
):
    tol = to_fraction(tol)
    limit_tol = to_fraction(limit_tol)
    conv = limit_tol if conv_tol is None else to_fraction(conv_tol)
    target = space.resolve(u)
    image = mapping.apply(space, target)
    s = space.smetric.triple
    if s(target, target, image) > tol:
        raise ValueError(f"{target.label} is not a fixed point of the map")

    per_sequence = []
    tails_at_u = True
    for index, raw_seq in enumerate(sequences):
        seq = [space.coerce(x) for x in raw_seq]
        if not seq:
            raise ValueError(f"sequence {index} is empty")
        start = len(seq) // 2 if tail_start is None else tail_start
        if start >= len(seq):
            raise ValueError(f"tail_start {start} is past the end of sequence {index}")
        if any(s(x, x, target) > conv for x in seq[start:]):
            raise ValueError(f"sequence {index} does not converge to u")
        w = window if window is not None else max(1, len(seq) // 4)
        tail = seq[-w:]
        tails_at_u = tails_at_u and all(x == target for x in tail)
        values = [
            _m_value(s, params, x, target, mapping.apply(space, x), image)
            for x in tail
        ]
        estimate = sum(values) / len(values)
        spread = max(values) - min(values)
        per_sequence.append(
            SequenceLimit(
                index, estimate, spread, spread <= 10 * limit_tol, len(tail)
            )
        )

    conclusive = [sl.estimate for sl in per_sequence if sl.conclusive]
    limsup = max(conclusive) if conclusive else None
    note = ""
    if limsup is not None and limsup > limit_tol:
        classification = "discontinuous_at_u"
    elif len(conclusive) == len(per_sequence) and per_sequence:
        classification = "continuous_at_u"
        if space.kind == "finite":
            classification = "inconclusive"
            note = (
                "no nontrivial approach sequences"
                if tails_at_u
                else "continuity not claimed on a finite universe"
            )
    else:
        classification = "inconclusive"
    return DiscontinuityVerdict(per_sequence, limsup, classification, note)


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


@functools.cache
def scalable_formulas(variables=("x", "y")):
    """Formulas in ``variables`` that divide only by constants, each draw
    a new ``Formula``.  The strategy is built once per variable tuple, so
    that Hypothesis validates it once rather than on every draw."""
    leaves = st.one_of(
        LITERALS.map(Num), st.sampled_from([Var(name) for name in variables])
    )

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

    return st.recursive(leaves, extend, max_leaves=10).map(
        lambda ast: Formula(ast, variables))


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
    value = closure(xn, yn)
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
    assert image(30) == 50  # x = 3 maps to 5/2, times 20


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


#: formulas in n from the grammar, and quotients of two, which divide by n
SEQUENCE_FORMULAS = scalable_formulas(("n",)) | st.builds(
    lambda top, bottom: Formula(BinOp("/", top.ast, bottom.ast), ("n",)),
    scalable_formulas(("n",)), scalable_formulas(("n",)),
)


def _fraction_expansion(spec):
    """``SequenceSpec.expand`` as it was: one Fraction (or int) per term."""
    return [spec.expr.exact(n) for n in range(spec.n_from, spec.n_to + 1)]


@settings(deadline=None)
@given(SEQUENCE_FORMULAS, st.integers(-6, 6), st.integers(0, 8))
@example(Formula.parse("1/(n - 5)", ("n",)), 1, 8)
@example(Formula.parse("1 + 1/n", ("n",)), 0, 3)
@example(Formula.parse("1 - 1/n", ("n",)), -3, 8)
@example(Formula.parse("n", ("n",)), -2, 5)
@example(Formula.parse("6/(4*n)", ("n",)), -2, 5)
def test_the_pair_kernel_gives_the_reduced_pair_of_the_exact_kernel(
    formula, n_from, count
):
    for n in range(n_from, n_from + count):
        want = _outcome(formula.exact, n)
        got = _outcome(formula.pairs, n)
        if want[0] is ExprEvalError:
            assert got == want  # the same text at the same n
            continue
        (p, q), _ = got
        assert type(p) is type(q) is int and q > 0 and math.gcd(p, q) == 1
        assert Fraction(p, q) == want[0]
    spec = SequenceSpec(expr=formula, n_from=n_from, n_to=n_from + count - 1)
    got, want = _outcome(spec.expand), _outcome(_fraction_expansion, spec)
    if want[0] is ExprEvalError:
        assert got == want
    else:
        assert [Fraction(*pair) for pair in got[0]] == want[0]


@pytest.mark.parametrize(("text", "n_from"), [("1/(n - 5)", 1), ("1 + 1/n", 0),
                                              ("1 - 1/n", -4)])
def test_a_term_that_divides_by_zero_aborts_the_check(text, n_from, tmp_path):
    doc = json.loads(fixture_path("discontinuity_0_2.json").read_text())
    check = doc["checks"][2]
    check["sequences"][0].update(expr=text, n_from=n_from)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({**doc, "checks": [check]}))
    outcome = run(load_experiment(path))
    assert outcome.exit_code == 2
    record, = outcome.report["checks"]
    assert record["verdict"] == "aborted"
    assert record["error"] == "ExprEvalError: division by zero"


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


def _formula_space(draw, max_steps):
    """A grid of at most ``max_steps`` + 1 nodes or a finite numeric
    universe, with a formula S."""
    s = FormulaSMetric(
        Formula.parse(draw(st.sampled_from(S_FORMULAS)), ("x", "y", "z"))
    )
    if draw(st.booleans()):
        step = draw(st.sampled_from(STEPS))
        lo = draw(st.integers(-3, 1)) * Fraction(1, 2)
        hi = lo + step * draw(st.integers(0, max_steps))
        return Space.real_grid(lo, hi, step, s)
    points = draw(st.lists(COORDINATES, min_size=1, max_size=8, unique=True))
    return Space.finite(points, s)


def _formula_map(draw):
    return FormulaMapping(
        Formula.parse(draw(st.sampled_from(MAP_FORMULAS)), ("x",))
    )


@st.composite
def circle_instances(draw):
    """A grid or a finite numeric universe, formula S and T, a center and
    a sample: None, or points of the universe and off it, in any order
    and with repeats."""
    space = _formula_space(draw, 24)
    mapping = _formula_map(draw)
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
    assert fix_set(space, mapping, labels=True) == [
        p.label for p in reference_fix_set(space, mapping)
    ]
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
    assert fix_set(new_space, new_map, labels=True) == [
        p.label for p in reference_fix_set(space, mapping)
    ]


# -- the condition (i) and (ii) kernels ----------------------------------

QUARTERS = st.sampled_from([Fraction(k, 4) for k in range(4)])
C_QUARTERS = st.sampled_from([Fraction(k, 4) for k in range(3)])
MODES = st.sampled_from(["full", "simple", "strict"])
PHIS = st.sampled_from([
    "2*t/3", "t/2", "t", "t - 1/10", "abs(t - 1)/2", "t/(t + 1)",
    "piecewise(t <= 1 : t/2, else : t - 1/4)",
])
DELTAS = st.sampled_from([
    "eps", "eps/2", "1/4", "2 - eps", "piecewise(eps < 1 : 1 - eps, else : eps/3)",
])
USER_EPS = st.none() | st.lists(
    st.fractions(min_value=-1, max_value=6, max_denominator=8), min_size=1, max_size=3
)
CONDITION_TOLERANCES = st.sampled_from(
    [Fraction(0), DEFAULT_TOL, Fraction(1, 7), Fraction(1, 2), Fraction(-1, 9)]
)


@st.composite
def pair_instances(draw):
    """A grid or finite universe with formula S and T, and the pairs: None,
    or pairs of points of the universe and off it, with repeats."""
    space = _formula_space(draw, 10)
    mapping = _formula_map(draw)
    coordinate = st.sampled_from([p.value for p in space.points]) | COORDINATES
    pairs = draw(
        st.none() | st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=12)
    )
    return space, mapping, pairs


def _line(points, map_text, s_text="abs(x - z) + abs(y - z)"):
    """``points`` with S (|x - z| + |y - z| by default) and a formula map;
    pairs None."""
    s = FormulaSMetric(Formula.parse(s_text, ("x", "y", "z")))
    mapping = FormulaMapping(Formula.parse(map_text, ("x",)))
    return Space.finite(points, s), mapping, None


def _outcome(kernel, *args, **kwargs):
    """The kernel's result with its numbers' types, or its error."""
    try:
        return _exactly(kernel(*args, **kwargs))
    except (ExprError, SpaceError, ValueError) as error:
        return type(error), str(error)


CONDITION_KERNELS = (verify_condition_i, condition_ii_probe)
REFERENCE_KERNELS = (reference_condition_i, reference_condition_ii)


def _conditions(kernels, space, mapping, pairs, a, b, c, mode, phi, delta,
                user_eps, tol):
    """The outcomes of condition (i) and (ii) under ``kernels``."""
    params = ContractionParams(a, b, c)
    gauge = GaugeSpec(Formula.parse(phi, ("t",)), Formula.parse(delta, ("eps",)))
    first, second = kernels
    return (
        _outcome(first, space, mapping, params, gauge, pairs, mode, tol),
        _outcome(second, space, mapping, params, gauge, pairs, user_eps, tol),
    )


def _m_values(m, space, mapping, pairs, a, b, c):
    """The outcomes of ``m`` on each pair, or on the pairs of the first
    four points of the universe when there are none."""
    params = ContractionParams(a, b, c)
    pairs = pairs or itertools.product(space.points[:4], repeat=2)
    return [_outcome(m, space, mapping, params, x, y) for x, y in pairs]


CONDITION_ARGUMENTS = (
    pair_instances(), QUARTERS, QUARTERS, C_QUARTERS, MODES, PHIS, DELTAS,
    USER_EPS, CONDITION_TOLERANCES,
)
HALF = Fraction(1, 2)


@settings(deadline=None)
@given(*CONDITION_ARGUMENTS)
# M = |x - y| and S(Tx, Tx, Ty) = 2M: eps = 2 has M = eps and, with
# delta = eps/2, M = eps + delta(eps) on its window's two ends
@example(_line([0, 1, 2, 3], "x"), HALF, 0, 0, "full", "t/2", "eps/2", [2], 0)
# S(Tx, Tx, Ty) = M = phi(M): eps = 3/2 with tol = 1/2 has S = eps + tol
# at M = 2, and condition (i) holds with equality
@example(_line([0, 1, 2, 3], "x/2"), HALF, 0, 0, "full", "t", "eps",
         [Fraction(3, 2)], HALF)
@example(_line([0, 1, 2, 3], "x/2"), HALF, 0, 0, "full", "t", "eps", None, 0)
# strict skips M = tol = 1 and flags M = 2, where S(Tx, Tx, Ty) = 2 > M - tol
@example(_line([0, 1, 2, 3], "x/2"), HALF, 0, 0, "strict", "t", "eps", None, 1)
# strict with a = 3/4 flags M - S(Tx, Tx, Ty) = 1/2 < tol = 1/2 + 1e-9
@example(_line([0, 1, 2, 3], "x/2"), Fraction(3, 4), 0, 0, "strict", "t", "eps",
         None, HALF + DEFAULT_TOL)
# an S that goes negative: M = max(a * S(x, x, y), 0) under b = c = 0, so
# the terms of the zero weights still enter the max as 0
@example(_line([0, 1, 2, 3], "-x", "z - x"), HALF, 0, 0, "full", "t/2", "eps",
         None, 0)
def test_integer_condition_kernels_match_the_fraction_kernels(
    instance, a, b, c, mode, phi, delta, user_eps, tol
):
    space, mapping, pairs = instance
    checks = (a, b, c, mode, phi, delta, user_eps, tol)
    assert _conditions(CONDITION_KERNELS, space, mapping, pairs, *checks) \
        == _conditions(REFERENCE_KERNELS, space, mapping, pairs, *checks)
    assert _m_values(m_z_s, space, mapping, pairs, a, b, c) \
        == _m_values(reference_m_z_s, space, mapping, pairs, a, b, c)
    # the integer rows ran: both formulas compile on the pairs' lattice
    points = space.points if pairs is None else [
        space.coerce(x) for x in itertools.chain.from_iterable(pairs)]
    assert _read(space, mapping, list(points)).scale


@st.composite
def fallback_instances(draw):
    """A pair instance whose values the integer rows cannot read: a table
    map, a map that divides by x, or an S that divides by a variable."""
    space, mapping, pairs = draw(pair_instances())
    kind = draw(st.sampled_from(["table map", "dividing map", "dividing S"]))
    if kind == "table map":
        labels = [p.label for p in space.points]
        mapping = TableMapping({x: draw(st.sampled_from(labels)) for x in labels})
    elif kind == "dividing map":
        text = draw(st.sampled_from(["1/(x*x + 1) - x/2", "2/x"]))
        mapping = FormulaMapping(Formula.parse(text, ("x",)))
    else:
        s = Formula.parse("abs(x - z)/(1 + abs(y)) + abs(y - z)", ("x", "y", "z"))
        space = Space(space.kind, space.points, FormulaSMetric(s), space.step)
    return space, mapping, pairs


@settings(deadline=None)
@given(fallback_instances(), *CONDITION_ARGUMENTS[1:])
def test_condition_fallback_reads_s_and_t_in_the_old_order(
    instance, a, b, c, mode, phi, delta, user_eps, tol
):
    # an S or a map that raises on some pair therefore aborts there
    space, mapping, pairs = instance
    assert _read(space, mapping, list(space.points)).scale is None
    checks = (a, b, c, mode, phi, delta, user_eps, tol)
    assert _conditions(CONDITION_KERNELS, space, mapping, pairs, *checks) \
        == _conditions(REFERENCE_KERNELS, space, mapping, pairs, *checks)
    assert _m_values(m_z_s, space, mapping, pairs, a, b, c) \
        == _m_values(reference_m_z_s, space, mapping, pairs, a, b, c)
    new_space, new_map, new = _recorded(space, mapping)
    old_space, old_map, old = _recorded(space, mapping)
    assert _conditions(CONDITION_KERNELS, new_space, new_map, pairs, *checks) \
        == _conditions(REFERENCE_KERNELS, old_space, old_map, pairs, *checks)
    assert new == old


# -- the discontinuity criterion -----------------------------------------


def _fixing(formula, u):
    """The map x -> F(x) - F(u) + u, which fixes u; F itself when F(u)
    does not evaluate."""
    try:
        shift = formula(u) - u
    except ExprEvalError:
        return FormulaMapping(formula)
    return FormulaMapping(Formula(BinOp("-", formula.ast, Num(shift)), ("x",)))


LIMIT_TOLERANCES = st.sampled_from(
    [Fraction(0), DEFAULT_TOL, Fraction(1, 10), Fraction(1), Fraction(5)]
)
CONV_TOLERANCES = st.none() | st.sampled_from(
    [Fraction(0), Fraction(1, 10), Fraction(1), Fraction(100)]
)
FIXED_TOLERANCES = st.sampled_from([Fraction(0), DEFAULT_TOL, Fraction(1, 2)])


@st.composite
def discontinuity_instances(draw, grammar=True):
    """A grid or finite universe with a formula S (from the list above, or
    drawn from the grammar), a formula map (drawn from the grammar, or from
    the list) that mostly fixes u, u, and up to three sequences (some
    empty) of terms approaching u, on the universe and off it."""
    space = _formula_space(draw, 12)
    if grammar and draw(st.booleans()):
        s = FormulaSMetric(draw(scalable_formulas(("x", "y", "z"))))
        space = Space(space.kind, space.points, s, space.step)
    u = draw(st.sampled_from([p.value for p in space.points]))
    if grammar:
        formula = draw(scalable_formulas(("x",)))
    else:
        formula = Formula.parse(draw(st.sampled_from(MAP_FORMULAS)), ("x",))
    # three in four maps fix u
    fixes = draw(st.integers(0, 3))
    mapping = _fixing(formula, u) if fixes else FormulaMapping(formula)
    approach = st.builds(
        lambda r, n: u + Fraction(r, n), st.integers(-3, 3), st.integers(1, 40)
    )
    universe = st.sampled_from([p.value for p in space.points])
    term = approach | COORDINATES | universe
    sequences = draw(st.lists(st.lists(term, max_size=8), max_size=3))
    return space, mapping, u, sequences


def _criterion_options(draw):
    return {
        "limit_tol": draw(LIMIT_TOLERANCES),
        "conv_tol": draw(CONV_TOLERANCES),
        "tail_start": draw(st.none() | st.integers(0, 9)),
        "window": draw(st.none() | st.integers(0, 9)),
        "tol": draw(FIXED_TOLERANCES),
    }


criterion_options = st.composite(_criterion_options)


def _criteria(space, mapping, params, u, sequences, options):
    """The new kernel's and the reference's outcomes."""
    return (
        _outcome(discontinuity_criterion, space, mapping, params, u, sequences,
                 *options.values()),
        _outcome(reference_discontinuity, space, mapping, params, u, sequences,
                 *options.values()),
    )


JUMP = "piecewise(x <= 1 : 1, else : 0)"


def _jump(map_text):
    """The jump map's instance on a quarter grid of [0, 2]: u = 1 and the
    sequences 1 + 1/n and 1 - 1/n, n up to 12."""
    s = FormulaSMetric(Formula.parse("abs(x - z) + abs(y - z)", ("x", "y", "z")))
    sequences = [[1 + sign * Fraction(1, n) for n in range(1, 13)] for sign in (1, -1)]
    return (Space.real_grid(0, 2, Fraction(1, 4), s),
            FormulaMapping(Formula.parse(map_text, ("x",))), Fraction(1), sequences)


_JUMP_OPTIONS = {"limit_tol": Fraction(1, 10), "conv_tol": Fraction(1),
                 "tail_start": None, "window": None, "tol": DEFAULT_TOL}


@settings(deadline=None)
@given(discontinuity_instances(), QUARTERS, QUARTERS, C_QUARTERS, criterion_options())
# discontinuous from the right, where M(x, 1) tends to 1/2
@example(_jump(JUMP), 0, HALF, 0, _JUMP_OPTIONS)
@example(_jump(JUMP), Fraction(3, 4), Fraction(1, 4), Fraction(1, 4), _JUMP_OPTIONS)
# continuous under the identity; u = 1 is an exact fixed point at tol = 0
@example(_jump("x"), 0, HALF, 0, {**_JUMP_OPTIONS, "tol": 0})
def test_integer_discontinuity_matches_the_fraction_kernel(instance, a, b, c, options):
    space, mapping, u, sequences = instance
    params = ContractionParams(a, b, c)
    new, old = _criteria(space, mapping, params, u, sequences, options)
    assert new == old
    # the lattice read exactly the instances whose formulas compile
    compiles = all(f.scaled(1) for f in (space.smetric.formula, mapping.formula))
    read = _read(space, mapping, [u, *itertools.chain(*sequences)])
    assert (read.scale is not None) == compiles


def _pairs(sequences):
    """Each term of ``sequences`` as its (numerator, denominator) pair."""
    return [[(x.numerator, x.denominator) for x in seq] for seq in sequences]


@settings(deadline=None)
@given(discontinuity_instances(), QUARTERS, QUARTERS, C_QUARTERS, criterion_options())
@example(_jump(JUMP), 0, HALF, 0, _JUMP_OPTIONS)
def test_the_criterion_reads_pairs_as_the_equal_fractions(instance, a, b, c, options):
    space, mapping, u, sequences = instance
    params = ContractionParams(a, b, c)

    def outcomes():
        return [_outcome(discontinuity_criterion, space, mapping, params, u, terms,
                         *options.values()) for terms in (sequences, _pairs(sequences))]

    fractions, pairs = outcomes()
    assert pairs == fractions
    # and on the Fraction path, where a pair is coerced to a point
    with mock.patch.object(Formula, "scaled", lambda self, scale: None):
        fractions, pairs = outcomes()
    assert pairs == fractions


@st.composite
def discontinuity_fallback_instances(draw):
    """A discontinuity instance the lattice cannot read: a table map, a map
    that divides by x, an S that divides by a variable, a generated S, or a
    universe of labels with table S and T and label terms."""
    space, mapping, u, sequences = draw(discontinuity_instances(grammar=False))
    kind = draw(st.sampled_from(
        ["table map", "dividing map", "dividing S", "generated S", "labels"]
    ))
    if kind == "table map":
        labels = [p.label for p in space.points]
        mapping = TableMapping({x: draw(st.sampled_from(labels)) for x in labels})
    elif kind == "dividing map":
        text = draw(st.sampled_from(["1/(x*x + 1) - x/2", "2/x", "x*x/(1 + x*x)"]))
        mapping = FormulaMapping(Formula.parse(text, ("x",)))
    elif kind in ("dividing S", "generated S"):
        if kind == "dividing S":
            s = FormulaSMetric(Formula.parse(
                "abs(x - z)/(1 + abs(y)) + abs(y - z)", ("x", "y", "z")))
        else:
            s = GeneratedSMetric(FormulaMetric(Formula.parse("abs(x - y)", ("x", "y"))))
        space = Space(space.kind, space.points, s, space.step)
    else:
        labels = ["p", "q", "r"]
        values = st.integers(0, 4).map(Fraction)
        table = {xyz: draw(values) for xyz in itertools.product(labels, repeat=3)}
        space = Space.finite(labels, TableSMetric(table))
        mapping = TableMapping({x: draw(st.sampled_from(labels)) for x in labels})
        u = draw(st.sampled_from(labels))
        sequences = draw(st.lists(st.lists(st.sampled_from(labels), max_size=6),
                                  max_size=3))
    return space, mapping, u, sequences


@settings(deadline=None)
@given(discontinuity_fallback_instances(), QUARTERS, QUARTERS, C_QUARTERS,
       criterion_options())
def test_discontinuity_fallback_reads_s_and_t_in_the_old_order(
    instance, a, b, c, options
):
    # an S or a map that raises on some term therefore aborts there
    space, mapping, u, sequences = instance
    assert _read(space, mapping, [u, *itertools.chain(*sequences)]).scale is None
    params = ContractionParams(a, b, c)
    new_space, new_map, new = _recorded(space, mapping)
    old_space, old_map, old = _recorded(space, mapping)
    got = _outcome(discontinuity_criterion, new_space, new_map, params, u,
                   sequences, *options.values())
    want = _outcome(reference_discontinuity, old_space, old_map, params, u,
                    sequences, *options.values())
    assert got == want
    assert new == old


@pytest.mark.parametrize("lattice", [True, False])
@pytest.mark.parametrize(
    ("u", "sequences", "options", "error"),
    [
        # u is checked first, before any sequence
        (Fraction(3, 2), [[]], {}, "1.5 is not a fixed point of the map"),
        (1, [[1, 1], []], {}, "sequence 1 is empty"),
        (1, [[1, 1], [0] * 3, []], {}, "sequence 1 does not converge to u"),
        (1, [[1] * 4, [1] * 3], {"tail_start": 3},
         "tail_start 3 is past the end of sequence 1"),
        (1, [[1] * 4, [5, 1, 1]], {"tail_start": 0},
         "sequence 1 does not converge to u"),
        (1, [[1] * 4, [5, 1, 1], [1]], {"tail_start": 1},
         "tail_start 1 is past the end of sequence 2"),
        (1, [[1 + Fraction(1, 10)] * 2], {"conv_tol": Fraction(1, 5)}, None),
        (1, [[1 + Fraction(1, 10)] * 2], {"conv_tol": Fraction(1, 5) - DEFAULT_TOL},
         "sequence 0 does not converge to u"),
    ],
)
def test_discontinuity_errors_come_in_the_old_order(
    lattice, u, sequences, options, error
):
    s = FormulaSMetric(Formula.parse("abs(x - z) + abs(y - z)", ("x", "y", "z")))
    space = Space.real_grid(0, 2, Fraction(1, 2), s)
    mapping = FormulaMapping(Formula.parse(JUMP, ("x",)))
    if not lattice:
        mapping = TableMapping(
            {p.label: "1" if p.value <= 1 else "0" for p in space.points}
        )
        sequences = [[space.coerce(x) for x in seq] for seq in sequences]
    params = ContractionParams(0, HALF, 0)
    got = _outcome(discontinuity_criterion, space, mapping, params, u, sequences,
                   **options)
    assert got == _outcome(reference_discontinuity, space, mapping, params, u,
                           sequences, **options)
    assert (_read(space, mapping, [u]).scale is not None) == lattice
    if error is not None:
        assert got == (ValueError, error)


@pytest.mark.parametrize(
    ("sequences", "options", "classification", "note"),
    [
        ([[1, 1, 1]], {}, "inconclusive", "no nontrivial approach sequences"),
        ([[0, 2, 1, 1]], {"conv_tol": 5}, "inconclusive",
         "no nontrivial approach sequences"),
        ([[2, Fraction(3, 2), 1]], {"conv_tol": 5, "window": 2, "limit_tol": 1},
         "inconclusive", "continuity not claimed on a finite universe"),
        ([[1, 2, 2]], {"conv_tol": 5, "limit_tol": Fraction(1, 10)},
         "discontinuous_at_u", ""),
        ([[1, 2, 0, 1]], {"conv_tol": 5, "window": 3}, "inconclusive", ""),
    ],
)
def test_discontinuity_finite_universe_note(sequences, options, classification, note):
    s = FormulaSMetric(Formula.parse("abs(x - z) + abs(y - z)", ("x", "y", "z")))
    space = Space.finite([0, 1, 2], s)
    mapping = FormulaMapping(Formula.parse("piecewise(x < 2 : 1, else : 0)", ("x",)))
    params = ContractionParams(HALF, 0, 0)
    verdict = discontinuity_criterion(space, mapping, params, 1, sequences, **options)
    assert _exactly(verdict) == _exactly(
        reference_discontinuity(space, mapping, params, 1, sequences, **options)
    )
    assert (verdict.classification, verdict.note) == (classification, note)


# -- Picard on node positions -------------------------------------------

#: affine and piecewise maps whose images fall between nodes and past the
#: ends of a grid, with fixed points, snap stalls and cycles among them
PICARD_MAPS = (
    "x/2 + 1",
    "-x/3 + 1/5",
    "x + 1/7",
    "2*x - 1/3",
    "1/2 - x",
    "x",
    "piecewise(x < -1 : -3 - x, x > 1 : 2*x, else : x/2 + 1/4)",
    "piecewise(x <= 1/3 : x/3, else : 1 - x)",
    "piecewise(x < 0 : x + 1/10, else : x/3 + 2/3)",
)
#: int, decimal and thirds dens
PICARD_STEPS = st.sampled_from([
    Fraction(1), Fraction(2), Fraction(1, 10), Fraction(1, 4), Fraction(1, 20),
    Fraction(1, 3), Fraction(2, 3), Fraction(1, 6),
])


@st.composite
def picard_instances(draw):
    """A grid, or a finite universe of drawn points closed under a few
    rounds of the map, so that an orbit moves before it may leave it; a
    formula S and map, a start, max_iter and tol."""
    s = FormulaSMetric(
        Formula.parse(draw(st.sampled_from(S_FORMULAS)), ("x", "y", "z"))
    )
    formula = Formula.parse(draw(st.sampled_from(PICARD_MAPS)), ("x",))
    mapping = FormulaMapping(formula)
    if draw(st.booleans()):
        step = draw(PICARD_STEPS)
        lo = draw(st.fractions(min_value=-3, max_value=1, max_denominator=6))
        space = Space.real_grid(lo, lo + step * draw(st.integers(0, 30)), step, s)
    else:
        values = set(draw(st.lists(COORDINATES, min_size=1, max_size=6)))
        for _ in range(draw(st.integers(0, 4))):
            values |= {formula(v) for v in values}
        space = Space.finite(sorted(values), s)
    x0 = draw(st.sampled_from([p.value for p in space.points]))
    tol = draw(TOLERANCES | st.fractions(min_value=0, max_value=2, max_denominator=8))
    return space, mapping, x0, draw(st.integers(0, 12)), tol


def _refused(*args):
    raise AssertionError("evaluated on points")


@settings(deadline=None)
@given(picard_instances())
@example((Space.real_grid(-4, 4, Fraction(1, 2), FormulaSMetric(
    Formula.parse("abs(x - z) + abs(y - z)", ("x", "y", "z")))),
    FormulaMapping(Formula.parse(PICARD_MAPS[6], ("x",))),
    Fraction(0), 10, DEFAULT_TOL))  # snaps 1.25 onto 1, then leaves the grid
@example((Space.real_grid(0, 0, 1, FormulaSMetric(
    Formula.parse(S_FORMULAS[2], ("x", "y", "z")))),
    FormulaMapping(Formula.parse("x + 1/7", ("x",))),
    Fraction(0), 1, Fraction(0)))  # stalls on S(0, 0, 1/7) = 1/21, one unit past 0
def test_lattice_picard_matches_the_fraction_path(instance):
    space, mapping, x0, max_iter, tol = instance
    # the orbit runs on node positions: it evaluates neither S nor T on points
    with mock.patch.object(FormulaSMetric, "triple", _refused), \
            mock.patch.object(FormulaMapping, "apply", _refused):
        got = _outcome(picard, space, mapping, x0, max_iter, tol)
    with mock.patch.object(Formula, "scaled", lambda self, scale: None):
        want = _outcome(picard, space, mapping, x0, max_iter, tol)
    assert got == want


# -- the lattice bound ---------------------------------------------------


def test_lattice_declines_past_its_bound_with_the_same_answers():
    s = FormulaSMetric(Formula.parse("abs(x - z) + abs(y - z)", ("x", "y", "z")))
    mapping = FormulaMapping(Formula.parse("x/2", ("x",)))
    params = ContractionParams(0, HALF, 0)
    for bits, read in ((MAX_LATTICE_BITS, True), (MAX_LATTICE_BITS + 1, False)):
        small = Fraction(1, 2 ** (bits - 1) + 1)  # a denominator of ``bits`` bits
        space = Space.finite([0, small, 1], s)
        assert (on_lattice(mapping, space.points) is not None) == read
        assert _exactly(fix_set(space, mapping)) == _exactly(
            reference_fix_set(space, mapping)
        )
        sequences = [[small, 2 * small, 0], [3 * small, 0]]
        assert (_read(space, mapping, [0, *sequences[0], *sequences[1]]).scale
                is not None) == read
        assert (_read(space, mapping, [0, *_pairs(sequences)[0]]).scale
                is not None) == read
        kwargs = {"conv_tol": Fraction(1, 2), "window": 2}
        want = _exactly(
            reference_discontinuity(space, mapping, params, 0, sequences, **kwargs)
        )
        for terms in (sequences, _pairs(sequences)):
            assert _exactly(
                discontinuity_criterion(space, mapping, params, 0, terms, **kwargs)
            ) == want


def _sequential_lcm(dens):
    scale = 1
    for den in dens:
        scale = math.lcm(scale, den)
    return scale


@settings(deadline=None)
@given(st.lists(st.integers(1, 3000) | st.integers(1, 2 ** 600)
                | st.integers(2 ** (MAX_LATTICE_BITS - 40), 2 ** MAX_LATTICE_BITS),
                max_size=300))
@example(range(1, 5683))  # 8,189 bits
@example(range(1, 5684))  # 8,202 bits
@example([2 ** (MAX_LATTICE_BITS - 1)])
@example([2 ** MAX_LATTICE_BITS])
@example([])
def test_the_lattice_scale_is_the_lcm_within_its_bound(dens):
    want = _sequential_lcm(dens)
    got = lattice_scale(dens)
    assert got == (want if want.bit_length() <= MAX_LATTICE_BITS else None)


# -- the grid labels -----------------------------------------------------

GRID_STEPS = st.sampled_from(
    [Fraction(1, 3), Fraction(1, 8), Fraction(1, 10), Fraction(2, 3), Fraction(5, 4),
     Fraction(1, 7), Fraction(3, 40), Fraction(1), Fraction(7)]
) | st.fractions(min_value=Fraction(1, 50), max_value=5, max_denominator=60)


@settings(deadline=None)
@given(
    st.fractions(min_value=-5, max_value=5, max_denominator=40),
    GRID_STEPS,
    st.integers(0, 40),
    st.fractions(min_value=0, max_value=1, max_denominator=9),
)
@example(Fraction(-1), Fraction(1, 3), 6, 0)
@example(Fraction(-7, 8), Fraction(1, 8), 14, Fraction(1, 2))
@example(Fraction(-3, 10), Fraction(1, 10), 6, 0)
def test_grid_labels_are_format_decimal(lo, step, steps, extra):
    hi = lo + step * steps + step * extra
    space = Space.real_grid(lo, hi, step, FormulaSMetric(
        Formula.parse("abs(x - z)", ("x", "y", "z"))))
    values = [lo + i * step for i in range(steps + 1)]
    if extra == 1:
        values.append(hi)
    assert [(p.label, p.value) for p in space.points] == [
        (format_decimal(v), v) for v in values
    ]
    assert all(type(p.value) is Fraction for p in space.points)


# -- the grid lookups, against the per-node dicts they replaced ---------


class DictGrid:
    """A grid's nodes held as they were: a tuple of points and two dicts
    over every node, with ``_land``'s nearest node taken over Fractions."""

    def __init__(self, lo, step, count):
        self.step = step
        self.points = tuple(
            Point(format_decimal(lo + i * step), lo + i * step)
            for i in range(count)
        )
        self._by_label = {p.label: p for p in self.points}
        self._by_value = {p.value: p for p in self.points}

    def resolve(self, ref):
        if isinstance(ref, Point):
            ref = ref.label if ref.value is None else ref.value
        if isinstance(ref, str):
            try:
                return self._by_label[ref]
            except KeyError:
                raise UnknownPointError(f"unknown point label {ref!r}") from None
        try:
            return self._by_value[ref]
        except KeyError:
            raise UnknownPointError(
                f"no point at coordinate {format_decimal(to_fraction(ref))}"
            ) from None

    def coerce(self, ref):
        if isinstance(ref, Point):
            return self._by_label.get(ref.label, ref)
        if isinstance(ref, str):
            return self.resolve(ref)
        return self._by_value.get(ref) or as_point(ref)

    def land(self, origin, image):
        try:
            return self.resolve(image)
        except UnknownPointError:
            pass
        offset = (image.value - self.points[0].value) / self.step
        i = min(max(math.ceil(offset - Fraction(1, 2)), 0), len(self.points) - 1)
        if abs(image.value - self.points[i].value) < self.step:
            return self.points[i]
        raise MappingRangeError(
            f"image {image.label} of {origin.label} leaves the grid"
        )


def _looked_up(call):
    """A lookup's point with its coordinate's type, or its error's text."""
    try:
        point = call()
    except (UnknownPointError, MappingRangeError, IndexError) as e:
        return type(e).__name__, str(e) if not isinstance(e, IndexError) else ""
    return point.label, point.value, type(point.value)


#: int steps, decimal steps and thirds
LOOKUP_STEPS = st.sampled_from([
    Fraction(1), Fraction(2), Fraction(7), Fraction(1, 10), Fraction(1, 4),
    Fraction(3, 40), Fraction(5, 4), Fraction(1, 100), Fraction(1, 3),
    Fraction(2, 3), Fraction(1, 6),
])


@st.composite
def grid_lookups(draw):
    """A grid with lo mostly negative and hi mostly off a node, the old
    dicts over it, and references to look up: canonical and other labels,
    coordinates on and off the grid as ints, Fractions and floats, and
    points."""
    step = draw(LOOKUP_STEPS)
    lo = draw(st.fractions(min_value=-5, max_value=2, max_denominator=10))
    steps = draw(st.integers(0, 30))
    hi = lo + step * steps + step * draw(
        st.fractions(min_value=0, max_value=Fraction(19, 20), max_denominator=20))
    space = Space.real_grid(lo, hi, step, FormulaSMetric(
        Formula.parse("abs(x - z) + abs(y - z)", ("x", "y", "z"))))
    old = DictGrid(lo, step, steps + 1)
    node = st.sampled_from(old.points)
    value = node.map(lambda p: p.value)
    label = node.map(lambda p: p.label)
    written = st.sampled_from([
        "{}0", "{}.0", "+{}", "{}e0", " {}", "{} ", "0{}", "{}/1", "{}_0",
    ])
    other = st.tuples(written, label).map(lambda wl: wl[0].format(wl[1]))
    off = st.fractions(min_value=-8, max_value=8, max_denominator=30)
    exact = (
        value | off | st.integers(-12, 12)
        | value.map(lambda v: v.numerator if v.denominator == 1 else v)
    )
    number = exact | value.map(float) | st.sampled_from([0.5, -1.25, 2.0, 0.1])
    text = label | other | off.map(format_decimal) | st.sampled_from(
        ["p", "", "1/0", "nan", "1e5000", "-0", "0.0"])
    points = st.builds(Point, text, st.none() | exact.map(to_fraction))
    refs = draw(st.lists(number | text | points | node, min_size=1, max_size=12))
    images = draw(st.lists(
        off | value.map(lambda v: v + step / 2) | st.tuples(
            value, st.fractions(min_value=-1, max_value=1, max_denominator=12)
        ).map(lambda vf: vf[0] + vf[1] * step),
        min_size=1, max_size=6))
    return space, old, refs, images


@settings(deadline=None)
@given(grid_lookups())
@example((
    Space.real_grid(Fraction(-3, 2), Fraction(13, 10), Fraction(1, 3), FormulaSMetric(
        Formula.parse("abs(x - z)", ("x", "y", "z")))),
    DictGrid(Fraction(-3, 2), Fraction(1, 3), 9),
    ["-0.5", "-1/2", "1.50", "+1", "1e0", Fraction(-7, 6), Fraction(-1, 6), 1, 2,
     Point("-7/6", Fraction(-7, 6)), Point("-1.5", None)],
    [Fraction(-4, 3), Fraction(-3, 2) + Fraction(1, 6), Fraction(3, 2), -2, 2],
))
def test_grid_lookups_match_the_per_node_dicts(instance):
    space, old, refs, images = instance
    assert len(space) == len(space.points) == len(old.points)
    assert list(space.points) == list(old.points)
    for i in range(-len(old.points) - 1, len(old.points) + 1):
        assert _looked_up(lambda: space.points[i]) == _looked_up(
            lambda: old.points[i])
    for ref in refs:
        assert _looked_up(lambda: space.resolve(ref)) == _looked_up(
            lambda: old.resolve(ref))
        assert _looked_up(lambda: space.coerce(ref)) == _looked_up(
            lambda: old.coerce(ref))
        assert (ref in space) == (_looked_up(lambda: old.resolve(ref))[0]
                                  != "UnknownPointError")
        if isinstance(ref, Point):
            assert (ref in space.points) == (ref in old.points)
    origin = old.points[0]
    for value in images:
        image = as_point(value)
        assert _looked_up(lambda: _land(space, origin, image)) == _looked_up(
            lambda: old.land(origin, image))


def test_a_grid_lands_an_image_on_a_tie_on_the_lower_node():
    space = Space.real_grid(-1, 1, Fraction(1, 3), FormulaSMetric(
        Formula.parse("abs(x - z)", ("x", "y", "z"))))
    origin = space.points[0]
    assert _land(space, origin, as_point(Fraction(-1, 2))).label == "-2/3"
    assert _land(space, origin, as_point(Fraction(-1, 2) + Fraction(
        1, 10**9))).label == "-1/3"


def test_example_3_3_makes_a_point_only_for_a_node_it_names(monkeypatch):
    # building its grid makes none; its report names a disc of 201, a
    # circle of 2 and a sample of 7 of the 2,001 nodes as points, and its
    # 601 fixed nodes by their labels alone
    built = []
    init = Point.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Point, "__init__", counting)
    Space.real_grid(-10, 10, Fraction(1, 100), FormulaSMetric(
        Formula.parse("abs(x - z) + abs(y - z)", ("x", "y", "z"))))
    assert not built
    report = run(load_experiment(fixture_path("example_3_3.json"))).report
    monkeypatch.undo()
    checks = {r["check"]: r for r in report["checks"]}
    assert [len(checks["fix_set"]["fixed"]), len(checks["fixed_circle"]["disc"]),
            len(checks["fixed_circle"]["circle"])] == [601, 201, 2]
    assert len(built) < 300


def test_example_2_2_solves_with_no_exact_kernel_of_s_or_the_map(monkeypatch):
    # its three orbits run on the lattice, so S and the map are read at
    # scale 1 for the integer sweeps and never as exact kernels; each
    # kernel asked for is recorded once, however often it is asked for
    spec = load_experiment(fixture_path("example_2_2.json"))
    ours = {spec.space.smetric.formula.ast, spec.mapping.formula.ast}
    asked = set()
    kernel = expr._kernel

    def recording(tree, scale):
        if tree.ast in ours:
            asked.add((tree.ast, scale))
        return kernel(tree, scale)

    monkeypatch.setattr(expr, "_kernel", recording)
    report = run(spec).report
    monkeypatch.undo()
    solves = [r for r in report["checks"] if r["check"] == "solve"]
    assert [r["outcome"]["status"] for r in solves] == ["converged"] * 3
    assert sorted(scale for _, scale in asked) == [1, 1]


def test_grid_conditions_read_phi_and_delta_with_no_exact_kernel(monkeypatch):
    # the grid_verify benchmark's shape: phi is read at the pair rows' den
    # and delta at the probes' den, so neither is built as an exact kernel
    spec = build_experiment({
        "space": {"kind": "real_grid", "lo": -10, "hi": 10, "step": 1,
                  "smetric": {"kind": "formula", "expr": "abs(x - z) + abs(y - z)"}},
        "map": {"kind": "formula", "expr": "x / 2 + 1"},
        "params": {"a": Fraction(3, 4), "b": 0, "c": 0},
        "gauge": {"phi": "2 * t / 3", "delta": "eps"},
        "checks": [{"check": "condition_i", "mode": "full"},
                   {"check": "condition_ii"}],
    })
    gauges = {spec.gauge.phi.ast: "phi", spec.gauge.delta.ast: "delta"}
    built = []
    kernel = expr._kernel

    def recording(tree, scale):
        if tree.ast in gauges:
            built.append((gauges[tree.ast], scale is None))
        return kernel(tree, scale)

    monkeypatch.setattr(expr, "_kernel", recording)
    report = run(spec).report
    monkeypatch.undo()
    assert [r["verdict"] for r in report["checks"]] == ["pass", "fail"]
    assert built == [("phi", False), ("delta", False)]


def _counted_reads(monkeypatch, names):
    """Count each call of a scaled kernel of a formula in ``names``, a
    dict from the formula's id to its name, under that name."""
    calls = dict.fromkeys(names.values(), 0)
    scaled = Formula.scaled

    def counting(self, scale):
        compiled = scaled(self, scale)
        if compiled is None or id(self) not in names:
            return compiled
        kernel, den = compiled

        def counted(*values):
            calls[names[id(self)]] += 1
            return kernel(*values)

        return counted, den

    monkeypatch.setattr(Formula, "scaled", counting)
    return calls


def test_the_conditions_read_one_set_of_rows_on_the_lattice(monkeypatch):
    # 5 nodes, 25 pairs: T once per point, S(x, x, y) and S(Tx, Tx, Ty)
    # once per pair under a = 3/4, b = c = 0
    space = Space.real_grid(0, 4, 1, sum_abs_smetric())
    mapping = FormulaMapping(Formula.parse("x / 2 + 1", ("x",)))
    params = ContractionParams(Fraction(3, 4), 0, 0)
    gauge = GaugeSpec(Formula.parse("2 * t / 3", ("t",)),
                      Formula.parse("eps", ("eps",)))
    calls = _counted_reads(monkeypatch, {
        id(space.smetric.formula): "S", id(mapping.formula): "T"})

    def reads(condition, *args, mapping=mapping):
        before = dict(calls)
        if condition == "i":
            verify_condition_i(space, mapping, params, gauge, *args)
        else:
            condition_ii_probe(space, mapping, params, gauge, *args)
        return {k: calls[k] - before[k] for k in calls}

    one_set = {"S": 50, "T": 5}
    assert reads("i", None, "full") == one_set
    assert reads("ii") == {"S": 0, "T": 0}
    assert reads("i", None, "strict") == {"S": 0, "T": 0}
    assert reads("i", None, "simple") == one_set  # its rows weigh S(x, x, y) alone
    pairs = [(0, 1), (2, 3), (0, 1)]
    assert reads("ii", pairs) == {"S": 6, "T": 4}
    assert reads("i", pairs, "full") == {"S": 0, "T": 0}
    assert reads("ii", [(0, 1), (2, 4)]) == {"S": 4, "T": 4}
    other = FormulaMapping(Formula.parse("x / 2 + 1", ("x",)))
    assert reads("ii", mapping=other) == {"S": 50, "T": 0}  # its own T
    # the space keeps only the last rows read
    assert reads("ii") == one_set


@pytest.mark.parametrize(("name", "checks", "counts"), [
    # one pass for the pair: T at x0 and on 2,001 nodes; S(Tx, Tx, x) and
    # S(x, x, x0) on each, the x0-bound's two terms on the 1,400 moved
    # nodes and S(Tx, Tx, x0) on the 201 unmoved nodes of the disc
    ("example_3_3", ("zamfirescu", "fixed_circle"), {"S": 7_003, "T": 2_002}),
    ("example_3_3", ("fix_set",), {"S": 0, "T": 2_001}),
    # T at u and on two tails of 250; S at u, on two tails of 800 past
    # tail_start and twice per tail term under b alone
    ("discontinuity_0_2", ("discontinuity",), {"S": 2_601, "T": 501}),
])
def test_each_value_is_read_once_on_the_lattice(name, checks, counts, monkeypatch):
    spec = load_experiment(fixture_path(f"{name}.json"))
    spec.checks = [c for c in spec.checks if c.name in checks]
    calls = _counted_reads(monkeypatch, {
        id(spec.space.smetric.formula): "S", id(spec.mapping.formula): "T"})
    report = run(spec).report
    assert [r["check"] for r in report["checks"]] == list(checks)
    assert report["summary"]["status"] == "pass"
    assert calls == counts


@pytest.mark.parametrize("name", ["example_2_2", "example_2_2_corrected"])
def test_example_2_2_condition_ii_reuses_condition_i_rows(name, monkeypatch):
    spec = load_experiment(fixture_path(f"{name}.json"))
    calls = _counted_reads(monkeypatch, {
        id(spec.space.smetric.formula): "S", id(spec.mapping.formula): "T"})
    golden = json.loads(
        (Path(__file__).parent / "golden" / f"{name}.run.json").read_text())
    for check, record in zip(spec.checks, golden["checks"]):
        if not check.name.startswith("condition_"):
            continue
        before = dict(calls)
        passed, details = runner.CHECKS[check.name].execute(
            spec, check.options, spec.tolerance)
        read = {k: calls[k] - before[k] for k in calls}
        # 4 points, 16 pairs; condition (ii) reads nothing of its own
        assert read == ({"S": 32, "T": 4} if check.name == "condition_i"
                        else {"S": 0, "T": 0})
        assert json.loads(json.dumps(details, default=list)) == {
            k: v for k, v in record.items()
            if k not in ("check", "label", "verdict")}
        assert record["verdict"] == ("pass" if passed else "fail")


# -- whole documents on both paths ---------------------------------------

DOCUMENT_TOLERANCES = st.sampled_from([DEFAULT_TOL, Fraction(1, 7), Fraction(1, 2)])
CIRCLE_MARGINS = st.none() | st.sampled_from([Fraction(0), Fraction(1, 10), 1])
EPS = st.fractions(min_value=Fraction(1, 8), max_value=6, max_denominator=8)


def _substitute(node, trees):
    """``node`` with each variable named in ``trees`` replaced by its tree."""
    match node:
        case Var(name):
            return trees.get(name, node)
        case Neg(operand):
            return Neg(_substitute(operand, trees))
        case BinOp(op, left, right) | Comparison(op, left, right):
            return type(node)(op, _substitute(left, trees), _substitute(right, trees))
        case Call(func, args):
            return Call(func, tuple(_substitute(arg, trees) for arg in args))
        case Piecewise(branches, otherwise):
            return Piecewise(
                tuple((_substitute(c, trees), _substitute(v, trees)) for c, v in branches),
                _substitute(otherwise, trees),
            )
    return node


def _differences(formula):
    """S(x, y, z) = F(x - y, y - z, z - x): an S that reads only differences."""
    def minus(a, b):
        return BinOp("-", Var(a), Var(b))
    return Formula(_substitute(formula.ast, {
        "x": minus("x", "y"), "y": minus("y", "z"), "z": minus("z", "x")}),
        formula.variables)


@st.composite
def documents(draw, differences=False):
    """A whole grid or finite document: a formula S and a formula map from
    the grammar (S from the list above half the time, the map mostly
    fixing u), params, gauges and a mix of checks with drawn options and
    samples.  ``solve`` and ``discontinuity``, which abort on a map that
    leaves the grid or moves u, come after the others, since an aborted
    check ends the run.  A sequence lists values, or is a formula in n,
    u + r/n or from the grammar.  With ``differences`` S reads only the
    differences of its arguments (the list's S always does)."""
    if draw(st.booleans()):
        step = draw(st.sampled_from(STEPS))
        lo = draw(st.integers(-3, 1)) * Fraction(1, 2)
        count = draw(st.integers(1, 9))
        space = {"kind": "real_grid", "lo": lo, "hi": lo + (count - 1) * step,
                 "step": step}
        coordinates = [lo + i * step for i in range(count)]
    else:
        coordinates = draw(st.lists(COORDINATES, min_size=1, max_size=6, unique=True))
        space = {"kind": "finite", "points": coordinates}
    if draw(st.booleans()):
        s_text = draw(st.sampled_from(S_FORMULAS))
    else:
        s_formula = draw(scalable_formulas(("x", "y", "z")))
        s_text = (_differences(s_formula) if differences else s_formula).pretty()
    space["smetric"] = {"kind": "formula", "expr": s_text}
    universe = st.sampled_from(coordinates)
    sample = st.none() | st.lists(universe, min_size=1, max_size=5)
    u = draw(universe)
    formula = draw(scalable_formulas(("x",)))
    if draw(st.integers(0, 3)):  # three in four maps fix u
        formula = _fixing(formula, u).formula
    approach = st.builds(lambda r, n: u + Fraction(r, n),
                         st.integers(-3, 3), st.integers(1, 40))
    in_n = scalable_formulas(("n",)) | st.builds(
        lambda r: Formula(BinOp("+", Num(u), BinOp("/", Num(r), Var("n"))), ("n",)),
        st.integers(-3, 3).map(Fraction))
    formula_sequence = st.builds(
        lambda f, first, count: {"expr": f.pretty(), "n_from": first,
                                 "n_to": first + count},
        in_n, st.integers(-1, 6), st.integers(0, 7))

    def center():
        return {"x0": draw(universe), "a": draw(COEFFICIENTS),
                "b": draw(COEFFICIENTS), "sample": draw(sample)}

    options = {
        "axioms": lambda: {"sample": draw(sample)},
        "zamfirescu": center,
        "fixed_circle": lambda: {**center(), "tol_circle": draw(CIRCLE_MARGINS)},
        "fix_set": dict,
        "condition_i": lambda: {"mode": draw(MODES), "sample": draw(sample)},
        "condition_ii": lambda: {
            "eps": draw(st.none() | st.lists(EPS, min_size=1, max_size=3)),
            "sample": draw(sample)},
        "solve": lambda: {"x0": draw(universe), "max_iter": draw(st.integers(1, 30))},
        "discontinuity": lambda: {
            "u": u,
            "sequences": draw(st.lists(
                st.lists(approach | universe, min_size=1, max_size=8) | formula_sequence,
                min_size=1, max_size=3)),
            "limit_tol": draw(LIMIT_TOLERANCES),
            "conv_tol": draw(CONV_TOLERANCES)},
    }
    last = ["solve", "discontinuity"]
    names = draw(st.lists(st.sampled_from([k for k in options if k not in last]),
                          min_size=1, max_size=4))
    names += draw(st.permutations(last))[:draw(st.integers(0, 2))]
    checks = [
        {"check": name, **{k: v for k, v in options[name]().items() if v is not None}}
        for name in names
    ]
    return {
        "tolerance": draw(DOCUMENT_TOLERANCES),
        "space": space,
        "map": {"kind": "formula", "expr": formula.pretty()},
        "params": {"a": draw(QUARTERS), "b": draw(QUARTERS), "c": draw(C_QUARTERS)},
        "gauge": {"phi": draw(PHIS), "delta": draw(DELTAS)},
        "checks": checks,
    }


def _whole_run(doc):
    """(exit code, JSON report without its timing block) of one document."""
    try:
        outcome = run(build_experiment(doc))
    except ConfigError as e:
        return 2, str(e)
    report = dict(outcome.report)
    del report["timing"]
    pieces = []
    cli.write_json(report, pieces.append)
    return outcome.exit_code, "".join(pieces)


@settings(deadline=None)
@given(documents())
def test_a_whole_document_reads_alike_on_both_paths(doc):
    # the report bytes and the exit code, with every kernel built afresh,
    # again with every kernel from the cache, and with no formula compiled
    # on a lattice, so that every check takes its Fraction path
    expr._kernel.cache_clear()
    lattice = _whole_run(doc)
    assert _whole_run(doc) == lattice
    with mock.patch.object(Formula, "scaled", lambda self, scale: None):
        assert _whole_run(doc) == lattice


def _verdicts_and_totals(doc, labels=True):
    """The exit code and, per check, its label (unless not ``labels``),
    verdict, numbers and flags and the length of each list it reports."""
    code, text = _whole_run(doc)
    if not text.startswith("{"):
        return code, text if labels else None  # a ConfigError
    return code, [
        {key: len(value) if isinstance(value, list) else value
         for key, value in record.items()
         if key == "verdict" or key == "label" and labels
         or key != "label" and isinstance(value, (int, float, list))}
        for record in json.loads(text)["checks"]
    ]


@settings(deadline=None)
@given(documents(), st.data())
def test_permuting_each_sample_keeps_every_verdict_and_total(doc, data):
    permuted = {**doc, "checks": [
        {**check, "sample": data.draw(st.permutations(check["sample"]))}
        if "sample" in check else check
        for check in doc["checks"]
    ]}
    assert _verdicts_and_totals(permuted) == _verdicts_and_totals(doc)


def _shifted(doc, h):
    """``doc`` moved by h: its grid or points, its map conjugated,
    T'(x) = T(x - h) + h, and every point, sample, u, x0 and sequence
    (a formula's value at each n) moved by h."""
    def moved(text, variable):
        formula = Formula.parse(text, (variable,))
        ast = _substitute(formula.ast, {"x": BinOp("-", Var("x"), Num(h))})
        return Formula(BinOp("+", ast, Num(h)), formula.variables).pretty()

    def sequence(seq):
        if isinstance(seq, list):
            return [x + h for x in seq]
        return {**seq, "expr": moved(seq["expr"], "n")}

    space = dict(doc["space"])
    if space["kind"] == "real_grid":
        space["lo"], space["hi"] = space["lo"] + h, space["hi"] + h
    else:
        space["points"] = [x + h for x in space["points"]]
    checks = []
    for check in doc["checks"]:
        check = dict(check)
        for key in ("x0", "u"):
            if key in check:
                check[key] += h
        if "sample" in check:
            check["sample"] = [x + h for x in check["sample"]]
        if "sequences" in check:
            check["sequences"] = [sequence(seq) for seq in check["sequences"]]
        checks.append(check)
    return {**doc, "space": space, "checks": checks,
            "map": {**doc["map"], "expr": moved(doc["map"]["expr"], "x")}}


@settings(deadline=None)
@given(documents(differences=True),
       st.sampled_from([Fraction(1), Fraction(-2), Fraction(1, 2), Fraction(-1, 4)]))
def test_shifting_a_document_keeps_every_verdict_and_total(doc, h):
    # S reads only differences, so moving everything by h moves nothing
    # it measures, while the scale of every lattice read may change
    assert _verdicts_and_totals(_shifted(doc, h), labels=False) == \
        _verdicts_and_totals(doc, labels=False)
