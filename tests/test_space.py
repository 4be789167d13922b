"""Point universes, S-metric axioms, and the generated-metric machinery."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import closure_metric, sum_abs_smetric

from smetriclab import (
    Formula,
    FormulaMetric,
    FormulaSMetric,
    MetricAxiomError,
    Point,
    Space,
    TableMetric,
    TableSMetric,
    UnknownPointError,
    UnsupportedSpaceError,
    as_point,
    check_axioms,
    check_symmetry,
    check_triangle,
    generating_metric_check,
    s_converges,
    s_from_metric,
)


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
    assert s_converges(space, seq, 1, Fraction(1, 50))
    assert not s_converges(space, seq, 1, Fraction(1, 200))
    assert s_converges(space, seq, 1, Fraction(1, 100), tail_start=199)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 6))
def test_closure_metrics_generate_axiom_clean_spaces(seed, size):
    rng = random.Random(seed)
    labels = [f"p{i}" for i in range(size)]
    space = Space.finite(labels, s_from_metric(closure_metric(rng, labels)))
    assert check_axioms(space).passed
    assert check_symmetry(space) == []
    assert generating_metric_check(space).generated
