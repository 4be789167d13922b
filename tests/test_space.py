"""Point universes, S-metric axioms, and the generated-metric machinery."""

import contextlib
import io
import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    CountingSMetric, closure_metric, identity_mapping, sum_abs_smetric,
)

from smetriclab import (
    DEFAULT_TOL,
    AxiomReport,
    ContractionParams,
    Formula,
    FormulaMetric,
    FormulaSMetric,
    GeneratedCheck,
    GeneratedSMetric,
    MetricAxiomError,
    Point,
    SMetric,
    Space,
    SpaceError,
    TableMetric,
    TableSMetric,
    TriangleReport,
    UnknownPointError,
    UnsupportedSpaceError,
    as_point,
    check_axioms,
    check_symmetry,
    check_triangle,
    discontinuity_criterion,
    generating_metric_check,
    s_from_metric,
)
from smetriclab import cli
from smetriclab.numeric import format_decimal, to_fraction


def test_as_point_labels():
    assert as_point(Fraction(1, 4)).label == "0.25"
    assert as_point("p").value is None
    p = Point("4", Fraction(4))
    assert as_point(p) is p


def test_finite_space_resolution(four_space):
    assert len(four_space) == 4
    p = four_space.resolve("4")
    assert p.value == 4
    assert four_space.resolve(Fraction(4)) is p
    assert four_space.resolve(p) is p
    with pytest.raises(UnknownPointError):
        four_space.resolve("5")
    with pytest.raises(UnknownPointError):
        four_space.resolve(5)
    assert "8" in four_space
    assert 3 not in four_space


def test_duplicate_labels_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        Space.finite(["p", "p"], sum_abs_smetric())


def test_grid_generation():
    space = Space.real_grid(0, 1, Fraction(1, 4), sum_abs_smetric())
    assert [p.label for p in space.points] == ["0", "0.25", "0.5", "0.75", "1"]
    big = Space.real_grid(-10, 10, Fraction(1, 100), sum_abs_smetric())
    assert len(big) == 2001
    assert big.resolve(Fraction(-257, 100)).label == "-2.57"


def test_grid_nearest_and_coerce():
    space = Space.real_grid(0, 1, Fraction(1, 4), sum_abs_smetric())
    point, gap = space.nearest(Fraction(3, 10))
    assert (point.label, gap) == ("0.25", Fraction(1, 20))
    point, gap = space.nearest(Fraction(6, 5))
    assert (point.label, gap) == ("1", Fraction(1, 5))
    loose = space.coerce(Fraction(9, 8))
    assert loose.value == Fraction(9, 8)
    assert loose.label not in space
    with pytest.raises(UnsupportedSpaceError):
        Space.finite([0], sum_abs_smetric()).nearest(Fraction(1))


def test_eval_s_accepts_raw_coordinates(four_space):
    assert four_space.s(0, 0, 4) == 8
    assert four_space.s("4", "4", "8") == 8
    assert four_space.s(0, 1, 2) == 3  # 1 is not a universe point


def test_axioms_pass_for_sum_abs(four_space):
    report = check_axioms(four_space)
    assert report.passed
    assert (report.triples_checked, report.quadruples_checked) == (64, 256)
    assert check_symmetry(four_space) == []


def _two_point_table(forward):
    entries = {}
    for x in "pq":
        for y in "pq":
            for z in "pq":
                diagonal = x == y == z
                entries[(x, y, z)] = Fraction(0) if diagonal else Fraction(1)
    entries[("p", "p", "q")] = forward
    return TableSMetric(entries)


def test_axioms_catch_s2_and_symmetry_breaks():
    space = Space.finite(["p", "q"], _two_point_table(Fraction(5)))
    report = check_axioms(space)
    assert not report.passed
    assert report.s1_violations == []
    quads = {tuple(p.label for p in q) for q, _, _ in report.s2_violations}
    assert ("p", "p", "q", "p") in quads
    bad = check_symmetry(space)
    assert [(x.label, y.label) for (x, y), _, _ in bad] == [("p", "q")]


def test_axioms_catch_negative_and_nonzero_diagonal():
    space = Space.finite(["p", "q"], _two_point_table(Fraction(-1)))
    triples = {
        tuple(p.label for p in t)
        for t, _ in check_axioms(space).s1_violations
    }
    assert ("p", "p", "q") in triples

    entries = {}
    for x in "pq":
        for y in "pq":
            for z in "pq":
                diagonal = x == y == z
                entries[(x, y, z)] = Fraction(0) if diagonal else Fraction(1)
    entries[("q", "q", "q")] = Fraction(2)
    space = Space.finite(["p", "q"], TableSMetric(entries))
    triples = {
        tuple(p.label for p in t)
        for t, _ in check_axioms(space).s1_violations
    }
    assert ("q", "q", "q") in triples


@pytest.mark.parametrize(
    ("entries", "fragment"),
    [
        ({("p", "p"): Fraction(1), ("p", "q"): Fraction(1)}, "not 0"),
        ({("p", "q"): Fraction(0)}, "strictly positive"),
        (
            {("p", "q"): Fraction(1), ("q", "p"): Fraction(2)},
            "asymmetry",
        ),
        (
            {
                ("p", "q"): Fraction(1),
                ("q", "r"): Fraction(1),
                ("p", "r"): Fraction(5),
            },
            "triangle",
        ),
    ],
)
def test_s_from_metric_rejects_bad_tables(entries, fragment):
    with pytest.raises(MetricAxiomError, match=fragment):
        s_from_metric(TableMetric(entries))


def test_s_from_metric_formula_needs_points():
    metric = FormulaMetric(Formula.parse("abs(x - y)", ("x", "y")))
    with pytest.raises(ValueError, match="points"):
        s_from_metric(metric)


def test_generated_smetric_round_trip():
    rng = random.Random(7)
    labels = ["a", "b", "c", "d", "e"]
    metric = closure_metric(rng, labels)
    space = Space.finite(labels, s_from_metric(metric))
    assert check_axioms(space).passed
    assert check_symmetry(space) == []
    check = generating_metric_check(space)
    assert check.generated and check.witness is None
    for x in labels:
        for y in labels:
            assert space.s(x, x, y) / 2 == metric.distance(Point(x), Point(y))


def test_sum_abs_is_generated(four_space):
    check = generating_metric_check(four_space)
    assert check.generated
    assert check.triples_checked == 64


def test_bent_formula_is_not_generated():
    smetric = FormulaSMetric(
        Formula.parse("abs(x - z) + abs(x + z - 2*y)", ("x", "y", "z"))
    )
    space = Space.finite([0, 1, 2], smetric)
    check = generating_metric_check(space)
    assert not check.generated
    (x, y, z), actual, expected = check.witness
    assert (x.label, y.label, z.label) == ("0", "1", "2")
    assert (actual, expected) == (2, 3)


def test_induced_distance_symmetric_with_zero_diagonal(four_space):
    # a negative margin reports every triple, with lhs the induced
    # distance S(x, x, y) + S(y, y, x) of its first two points
    report = check_triangle(four_space, tol=-1000)
    assert len(report.violations) == report.triples_checked == 64
    induced = {
        (x.label, y.label): lhs for (x, y, _), lhs, _ in report.violations
    }
    for p in four_space.points:
        assert induced[p.label, p.label] == 0
        for q in four_space.points:
            assert induced[p.label, q.label] == induced[q.label, p.label]
    assert induced["0", "8"] == 32


def test_triangle_holds_for_sum_abs(four_space):
    report = check_triangle(four_space)
    assert report.passed
    assert report.triples_checked == 64


def test_triangle_violation_is_reported():
    entries = {}
    for x in "pqr":
        for y in "pqr":
            for z in "pqr":
                diagonal = x == y == z
                entries[(x, y, z)] = Fraction(0) if diagonal else Fraction(3)
    for x, y in (("p", "r"), ("r", "p")):
        entries[(x, x, y)] = Fraction(9)
    space = Space.finite(["p", "q", "r"], TableSMetric(entries))
    report = check_triangle(space)
    assert not report.passed
    labels = {tuple(p.label for p in t) for t, _, _ in report.violations}
    assert ("p", "r", "q") in labels


def test_tail_convergence_surrogates():
    space = Space.real_grid(0, 2, Fraction(1, 100), sum_abs_smetric())
    seq = [1 + Fraction(1, n) for n in range(1, 201)]

    def converges(conv_tol, tail_start=None):
        """Whether the discontinuity criterion admits ``seq`` towards 1:
        S(x_n, x_n, 1) <= conv_tol on the whole tail."""
        try:
            discontinuity_criterion(
                space, identity_mapping(), ContractionParams(0, 0, 0), 1, [seq],
                conv_tol=conv_tol, tail_start=tail_start,
            )
        except ValueError as e:
            assert str(e) == "sequence 0 does not converge to u"
            return False
        return True

    assert converges(Fraction(1, 50))
    assert not converges(Fraction(1, 200))
    assert converges(Fraction(1, 100), tail_start=199)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 6))
def test_closure_metrics_generate_axiom_clean_spaces(seed, size):
    rng = random.Random(seed)
    labels = [f"p{i}" for i in range(size)]
    space = Space.finite(labels, s_from_metric(closure_metric(rng, labels)))
    assert check_axioms(space).passed
    assert check_symmetry(space) == []
    assert generating_metric_check(space).generated


# The Fraction loops that the integer kernels replaced, kept as the oracle
# the kernels are tested against.


def reference_axioms(space, sample=None, tol=DEFAULT_TOL):
    tol = to_fraction(tol)
    pts = space.sampled(sample)
    cache = {}

    def s(i, j, k):
        key = (i, j, k)
        if key not in cache:
            cache[key] = space.smetric.triple(pts[i], pts[j], pts[k])
        return cache[key]

    n = len(pts)
    s1 = []
    for i, j, k in itertools.product(range(n), repeat=3):
        v = s(i, j, k)
        diagonal = i == j == k
        if diagonal and abs(v) > tol:
            s1.append(((pts[i], pts[j], pts[k]), v))
        elif not diagonal and v < tol:
            s1.append(((pts[i], pts[j], pts[k]), v))

    s2 = []
    for i, j, k, a in itertools.product(range(n), repeat=4):
        lhs = s(i, j, k)
        rhs = s(i, i, a) + s(j, j, a) + s(k, k, a)
        if lhs > rhs + tol:
            s2.append(((pts[i], pts[j], pts[k], pts[a]), lhs, rhs))

    return AxiomReport(s1, s2, n**3, n**4)


def reference_triangle(space, sample=None, tol=DEFAULT_TOL):
    tol = to_fraction(tol)
    pts = space.sampled(sample)
    pair = {}

    def ds(i, j):
        key = (i, j) if i <= j else (j, i)
        if key not in pair:
            a, b = pts[key[0]], pts[key[1]]
            pair[key] = space.smetric.triple(a, a, b) + space.smetric.triple(
                b, b, a
            )
        return pair[key]

    n = len(pts)
    bad = []
    for i, j, k in itertools.product(range(n), repeat=3):
        lhs = ds(i, j)
        rhs = ds(i, k) + ds(k, j)
        if lhs > rhs + tol:
            bad.append(((pts[i], pts[j], pts[k]), lhs, rhs))
    return TriangleReport(bad, n**3)


def reference_generated(space, sample=None, tol=DEFAULT_TOL):
    tol = to_fraction(tol)
    pts = space.sampled(sample)
    n = len(pts)
    half = {}

    def candidate(i, j):
        if (i, j) not in half:
            half[(i, j)] = space.smetric.triple(pts[i], pts[i], pts[j]) / 2
        return half[(i, j)]

    everything = itertools.product(range(n), repeat=3)
    distinct, degenerate = [], []
    for i, j, k in everything:
        (distinct if len({i, j, k}) == 3 else degenerate).append((i, j, k))

    for i, j, k in distinct + degenerate:
        actual = space.smetric.triple(pts[i], pts[j], pts[k])
        expected = candidate(i, k) + candidate(j, k)
        if abs(actual - expected) > tol:
            return GeneratedCheck(
                False, ((pts[i], pts[j], pts[k]), actual, expected), n**3
            )
    return GeneratedCheck(True, None, n**3)


def reference_s_from_metric(metric, points=None, tol=DEFAULT_TOL):
    tol = to_fraction(tol)
    if points is None:
        labels = sorted({x for pair in metric.entries for x in pair})
        pts = [Point(lbl) for lbl in labels]
    else:
        pts = [as_point(p) for p in points]

    d = metric.distance
    for x in pts:
        if abs(d(x, x)) > tol:
            raise MetricAxiomError(
                f"d({x.label}, {x.label}) = {format_decimal(d(x, x))}, not 0"
            )
    for x, y in itertools.permutations(pts, 2):
        if d(x, y) < tol:
            raise MetricAxiomError(
                f"d({x.label}, {y.label}) = {format_decimal(d(x, y))} "
                "is not strictly positive"
            )
        if abs(d(x, y) - d(y, x)) > tol:
            raise MetricAxiomError(
                f"asymmetry: d({x.label}, {y.label}) != d({y.label}, {x.label})"
            )
    for x, y, z in itertools.product(pts, repeat=3):
        if d(x, z) > d(x, y) + d(y, z) + tol:
            raise MetricAxiomError(
                f"triangle inequality fails at "
                f"({x.label}, {y.label}, {z.label})"
            )
    return GeneratedSMetric(metric)


class RecordingSMetric(SMetric):
    """An S-metric that records the label triples it is evaluated on."""

    def __init__(self, base):
        self.base, self.calls = base, []

    def triple(self, x, y, z):
        self.calls.append((x.label, y.label, z.label))
        return self.base.triple(x, y, z)


FRACTIONS = st.builds(
    Fraction, st.integers(-4, 12), st.sampled_from((1, 2, 3, 4, 6, 7, 10))
)
POSITIVE = st.builds(Fraction, st.integers(1, 12), st.sampled_from((1, 2, 3, 5)))
TOLERANCES = st.sampled_from(
    (Fraction(0), Fraction(1, 10**9), Fraction(1, 3), Fraction(-1, 10**9),
     Fraction(-2))
)
FORMULAS = (
    "abs(x - z) + abs(y - z)",
    "abs(x - z) + abs(x + z - 2*y)",
    "max(abs(x - z), abs(y - z)) / 3",
    "abs(x - y) / 7 + abs(y - z) / 2 + abs(z - x)",
    "(x - z) * (y - z) + 1/10",
)


@st.composite
def smetrics(draw, labels):
    """A random table S, a generated S (perhaps with one entry changed),
    or, on numeric labels, a formula S."""
    kinds = ["table", "generated"]
    if all(isinstance(label, Fraction) for label in labels):
        kinds.append("formula")
    kind = draw(st.sampled_from(kinds))
    if kind == "formula":
        formula = Formula.parse(draw(st.sampled_from(FORMULAS)), ("x", "y", "z"))
        return FormulaSMetric(formula)
    names = [as_point(label).label for label in labels]
    triples = list(itertools.product(names, repeat=3))
    if kind == "table":
        return TableSMetric({t: draw(FRACTIONS) for t in triples})
    rng = random.Random(draw(st.integers(0, 10**6)))
    d = closure_metric(rng, names).entries  # no diagonal for one point
    entries = {
        (x, y, z): d.get((x, z), 0) + d.get((y, z), 0) for x, y, z in triples
    }
    if draw(st.booleans()):
        entries[draw(st.sampled_from(triples))] = draw(FRACTIONS)
    return TableSMetric(entries)


@st.composite
def sampled_spaces(draw):
    """A space of one to four points and a sample of it: None, or up to
    five of its points in any order, repeats allowed."""
    if draw(st.booleans()):
        labels = draw(st.lists(FRACTIONS, min_size=1, max_size=4, unique=True))
    else:
        labels = [f"p{i}" for i in range(draw(st.integers(1, 4)))]
    space = Space.finite(labels, draw(smetrics(labels)))
    sample = draw(st.none() | st.lists(
        st.sampled_from([p.label for p in space.points]), min_size=1, max_size=5
    ))
    return space, sample


def _exactly(value):
    """``value`` with every number tagged by its type, so that equal
    values of different types do not compare equal."""
    return value, repr(value)


def _outcome(call):
    try:
        return _exactly(call())
    except SpaceError as e:  # a failed axiom, or a table missing an entry
        return f"{type(e).__name__}: {e}"


@settings(max_examples=300, deadline=None)
@given(sampled_spaces(), TOLERANCES)
def test_sweeps_match_the_fraction_loops(space_and_sample, tol):
    space, sample = space_and_sample
    for kernel, reference in (
        (check_axioms, reference_axioms),
        (check_triangle, reference_triangle),
        (generating_metric_check, reference_generated),
    ):
        assert _exactly(kernel(space, sample, tol)) == _exactly(
            reference(space, sample, tol)
        ), kernel.__name__


@settings(max_examples=300, deadline=None)
@given(sampled_spaces(), TOLERANCES)
def test_sweeps_evaluate_s_in_the_order_of_the_fraction_loops(
    space_and_sample, tol
):
    # an S that raises on some triple therefore aborts at the same triple
    space, sample = space_and_sample
    for kernel, reference in (
        (check_axioms, reference_axioms),
        (check_triangle, reference_triangle),
    ):
        new, old = RecordingSMetric(space.smetric), RecordingSMetric(space.smetric)
        kernel(Space("finite", space.points, new), sample, tol)
        reference(Space("finite", space.points, old), sample, tol)
        assert list(dict.fromkeys(new.calls)) == list(dict.fromkeys(old.calls))


@st.composite
def metrics(draw):
    """A formula metric with its points, or a table metric: symmetric
    positive weights, with or without the shortest-path closure that makes
    them a metric, and perhaps with a few entries changed."""
    if draw(st.booleans()):
        points = draw(st.lists(FRACTIONS, min_size=1, max_size=4, unique=True))
        expr = draw(st.sampled_from(
            ("abs(x - y)", "abs(x - y) / 3 + 1/2", "(x - y) * (x - y)",
             "x - y", "max(x, y) - min(x, y)")
        ))
        return FormulaMetric(Formula.parse(expr, ("x", "y"))), points
    labels = [f"p{i}" for i in range(draw(st.integers(1, 4)))]
    if draw(st.booleans()):
        rng = random.Random(draw(st.integers(0, 10**6)))
        entries = dict(closure_metric(rng, labels).entries)
    else:
        entries = {
            pair: draw(POSITIVE) for pair in itertools.combinations(labels, 2)
        }
    pairs = list(itertools.product(labels, repeat=2))
    for pair in draw(st.lists(st.sampled_from(pairs), max_size=2)):
        entries[pair] = draw(FRACTIONS)
    entries.setdefault((labels[0], labels[-1]), Fraction(0))
    return TableMetric(entries), None


@settings(max_examples=300, deadline=None)
@given(metrics(), TOLERANCES)
def test_metric_validation_matches_the_fraction_loops(metric_and_points, tol):
    metric, points = metric_and_points
    new = _outcome(lambda: s_from_metric(metric, points, tol))
    old = _outcome(lambda: reference_s_from_metric(metric, points, tol))
    if isinstance(old, str):
        assert new == old
    else:
        assert type(new[0]) is GeneratedSMetric and new[0].metric is metric


@pytest.mark.parametrize(
    ("kernel", "evaluations"),
    [
        (check_axioms, lambda n: n**3),
        (generating_metric_check, lambda n: n**3),
        (check_triangle, lambda n: n**2),
    ],
)
@pytest.mark.parametrize("n", [1, 3, 4])
def test_sweeps_evaluate_each_s_value_once(four_space, kernel, evaluations, n):
    counting = CountingSMetric(four_space.smetric)
    space = Space("finite", four_space.points, counting)
    kernel(space, [p.label for p in four_space.points[:n]])
    assert counting.calls == evaluations(n)


# S divides by zero on the triple (1, 1, 1) only: the base-3 digits of
# x, y, z identify each triple of {0, 1, 2}
_RAISING_S = "abs(x - z) + abs(y - z) + 0 / (x + 3*y + 9*z - 13)"


@pytest.mark.parametrize("check", ["axioms", "triangle", "generated"])
def test_sweeps_abort_when_s_raises(tmp_path, check):
    doc = {
        "space": {
            "kind": "finite",
            "points": [0, 1, 2],
            "smetric": {"kind": "formula", "expr": _RAISING_S},
        },
        "checks": [{"check": check}],
    }
    path = tmp_path / "raising.json"
    path.write_text(json.dumps(doc))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["run", "--input", str(path)])
    assert code == 2
    assert json.loads(out.getvalue())["checks"] == [{
        "check": check,
        "label": check,
        "verdict": "aborted",
        "error": "ExprEvalError: division by zero",
    }]
