"""Least displacement, circle membership, and the fixed-circle theorem."""

from fractions import Fraction

import pytest

from conftest import identity_mapping

from smetriclab import build_experiment, circles, run
from smetriclab import (
    Space,
    TableMapping,
    TableSMetric,
    check_fixed_circle,
    fixture_path,
    load_experiment,
    verify_zamfirescu_x0,
)


def test_rho_is_the_least_moved_displacement(four_space, four_map):
    assert check_fixed_circle(four_space, four_map, 0, 0, 4).rho == 4
    assert check_fixed_circle(four_space, identity_mapping(), 0, 0, 4).rho == 0
    assert check_fixed_circle(four_space, four_map, 0, 0, 4, [4]).rho == 0


def test_rho_on_the_line_is_exact(line_space, tail_shift_map):
    assert check_fixed_circle(line_space, tail_shift_map, 0, 0, 0).rho == 2


def test_circle_tolerance_tracks_the_grid_slope(line_space, four_space, four_map):
    margin = check_fixed_circle(
        line_space, identity_mapping(), 0, 0, 0, tol=Fraction(1, 10**9)
    ).tol_circle
    assert margin == Fraction(1, 100)
    flat = check_fixed_circle(
        four_space, four_map, 0, 0, 4, tol=Fraction(1, 7)
    ).tol_circle
    assert flat == Fraction(1, 7)


@pytest.mark.parametrize(
    "sample",
    [[-10, -2, 0, 2, 10], [-10, 0, 10, -2, 2], [2, 10, -2, 0, -10]],
)
def test_grid_margin_does_not_depend_on_sample_order(sample):
    """Sample entries far apart must not widen the margin past one grid
    step's change of S(x, x, 0) = 2|x|, whatever their order."""
    spec = load_experiment(fixture_path("example_3_3.json"))
    report = check_fixed_circle(
        spec.space, spec.mapping, Fraction(1, 2), 0, 0, sample
    )
    assert report.rho == 2
    assert report.tol_circle == Fraction(1, 100)
    assert report.circle_points == []


def test_circle_and_disc_membership(four_space, four_map):
    report = check_fixed_circle(four_space, four_map, 0, 0, 4)
    assert [p.label for p in report.circle_points] == ["2"]
    assert [p.label for p in report.disc_points] == ["2", "4"]


def test_zamfirescu_parameter_ranges(four_space, four_map):
    with pytest.raises(ValueError, match="a must lie in"):
        verify_zamfirescu_x0(four_space, four_map, 1, 0, 4)
    with pytest.raises(ValueError, match="b must lie in"):
        verify_zamfirescu_x0(four_space, four_map, 0, 1, 4)


def test_band_instance_fails_the_x0_bound(four_space, four_map):
    bad = verify_zamfirescu_x0(
        four_space, four_map, Fraction(3, 4), 0, 4
    )
    assert [(p.label, lhs, rhs) for p, lhs, rhs in bad] == [
        ("0", 8, 6),
        ("2", 4, 3),
        ("8", 12, 6),
    ]


def test_band_instance_circle_report(four_space, four_map):
    report = check_fixed_circle(four_space, four_map, Fraction(3, 4), 0, 4)
    assert report.rho == 4
    assert [p.label for p in report.circle_points] == ["2"]
    assert [p.label for p in report.disc_points] == ["2", "4"]
    assert len(report.zamfirescu_violations) == 3
    assert not report.hypotheses_hold
    assert report.circle_fixed is False
    assert report.disc_fixed is False
    # the theorem is not contradicted: its hypotheses already failed
    assert report.inconsistent is False


def test_line_instance_circle_report(line_space, tail_shift_map):
    report = check_fixed_circle(
        line_space, tail_shift_map, Fraction(1, 2), 0, 0
    )
    assert report.rho == 2
    assert report.tol_circle == Fraction(1, 100)
    assert sorted(p.label for p in report.circle_points) == ["-1", "1"]
    assert len(report.disc_points) == 201
    assert report.zamfirescu_violations == []
    assert report.hypothesis_violations == []
    assert report.hypotheses_hold
    assert report.circle_fixed is True
    assert report.disc_fixed is True
    assert report.inconsistent is False


def _swap_instance():
    """Hand-built table whose swap map satisfies every hypothesis yet
    moves a circle point; the checker must call that out, not hide it."""
    labels = ("o", "u", "v")
    entries = {
        (x, y, z): Fraction(4) for x in labels for y in labels for z in labels
    }
    for x in labels:
        entries[(x, x, x)] = Fraction(0)
    entries[("u", "u", "v")] = entries[("v", "v", "u")] = Fraction(1)
    entries[("u", "u", "o")] = Fraction(1)
    entries[("v", "v", "o")] = Fraction(1, 5)
    space = Space.finite(list(labels), TableSMetric(entries))
    mapping = TableMapping({"o": "o", "u": "v", "v": "u"})
    return space, mapping


def test_moved_circle_point_under_clean_hypotheses_is_inconsistent():
    space, mapping = _swap_instance()
    report = check_fixed_circle(
        space, mapping, Fraction(9, 10), Fraction(9, 10), "o"
    )
    assert report.rho == 1
    assert [p.label for p in report.circle_points] == ["u"]
    assert [p.label for p in report.disc_points] == ["o", "u", "v"]
    assert report.hypotheses_hold
    assert report.circle_fixed is False
    assert [p.label for p in report.nonfixed_witnesses] == [
        "u",
        "v",
    ]
    assert report.inconsistent is True


def test_a_moved_point_in_the_margin_alone_is_no_inconsistency():
    # rho = 1/2, so the theorem's circle {2|x| = 1/2} holds no node; the
    # grid margin 1/2 reports [-0.5, 0, 0.5], whose ends move under clean
    # hypotheses, and only the unmoved 0 is within tol of the disc
    spec = build_experiment({
        "space": {"kind": "real_grid", "lo": -2, "hi": 2, "step": Fraction(1, 2),
                  "smetric": {"kind": "formula",
                              "expr": "abs(x - z) + abs(y - z)"}},
        "map": {"kind": "formula", "expr": "x/2"},
        "checks": [{"check": "fixed_circle", "x0": 0, "a": Fraction(1, 2),
                    "b": 0}],
    })
    report = check_fixed_circle(spec.space, spec.mapping, Fraction(1, 2), 0, 0)
    assert report.rho == report.tol_circle == Fraction(1, 2)
    assert [p.label for p in report.circle_points] == ["-0.5", "0", "0.5"]
    assert report.hypotheses_hold and report.circle_fixed is False
    assert [p.label for p in report.nonfixed_witnesses] == ["-0.5", "0.5"]
    assert report.inconsistent is False
    [record] = run(spec).report["checks"]
    assert (record["inconsistent"], record["verdict"]) == (False, "pass")


def _halving_document(map_text, expect):
    """The grid [-2, 2], step 1/2, under S = |x - z| + |y - z|, with one
    ``fixed_circle`` at 0 that expects its circle and disc fixed."""
    return {
        "space": {"kind": "real_grid", "lo": -2, "hi": 2, "step": Fraction(1, 2),
                  "smetric": {"kind": "formula",
                              "expr": "abs(x - z) + abs(y - z)"}},
        "map": {"kind": "formula", "expr": map_text},
        "checks": [{"check": "fixed_circle", "x0": 0, "a": Fraction(1, 2), "b": 0,
                    "expect_circle_fixed": expect, "expect_disc_fixed": expect}],
    }


def test_the_expectations_are_judged_within_tol_not_on_the_margin():
    # under x/2 the theorem's disc is {0}, which is fixed, and its circle
    # {2|x| = 1/2} holds no node; the margin's moved ends -0.5 and 0.5
    # are reported but decide neither expectation
    outcome = run(build_experiment(_halving_document("x/2", True)))
    [record] = outcome.report["checks"]
    assert record["circle"] == record["disc"] == ["-0.5", "0", "0.5"]
    assert (record["circle_fixed"], record["disc_fixed"]) == (False, False)
    assert (record["verdict"], outcome.exit_code) == ("pass", 0)
    outcome = run(build_experiment(_halving_document("x/2", False)))
    assert (outcome.report["checks"][0]["verdict"], outcome.exit_code) == ("fail", 1)


def test_a_moved_member_within_tol_still_fails_the_expectations():
    # x + 1 moves every node by rho = 2, so the disc within tol, |x| <= 1,
    # moves; the x0-bound fails, so this is no inconsistency, only a fail
    spec = build_experiment(_halving_document("x + 1", True))
    circle = check_fixed_circle(spec.space, spec.mapping, Fraction(1, 2), 0, 0)
    assert circle.circle_fixed_within_tol is circle.disc_fixed_within_tol is False
    outcome = run(spec)
    [record] = outcome.report["checks"]
    assert (record["rho"], record["inconsistent"]) == (2, False)
    assert (record["verdict"], outcome.exit_code) == ("fail", 1)


def _circle_records(path, names):
    spec = load_experiment(path)
    spec.checks = [c for c in spec.checks if c.name in names]
    return run(spec).report["checks"]


def test_a_fixed_circle_after_a_zamfirescu_reuses_its_lattice_pass(monkeypatch):
    path = fixture_path("example_3_3.json")
    fresh = [
        *_circle_records(path, {"zamfirescu"}),
        *_circle_records(path, {"fixed_circle"}),
    ]
    reads, read = [], circles._read
    monkeypatch.setattr(circles, "_read", lambda *a: reads.append(a) or read(*a))
    shared = _circle_records(path, {"zamfirescu", "fixed_circle"})
    assert len(reads) == 1
    assert shared == fresh


def test_off_the_lattice_each_circle_check_reads_its_own_pass(four_space, monkeypatch):
    table = TableMapping({"0": "4", "2": "4", "4": "4", "8": "2"})  # no int kernel
    reads, read = [], circles._read
    monkeypatch.setattr(circles, "_read", lambda *a: reads.append(a) or read(*a))
    verify_zamfirescu_x0(four_space, table, 0, 0, 4)
    check_fixed_circle(four_space, table, 0, 0, 4)
    assert len(reads) == 2
