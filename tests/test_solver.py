"""Orbit iteration, fixed-point sets, powers, and the limit criterion."""

import contextlib
import io
import json
from fractions import Fraction

import pytest

from conftest import CountingMapping, identity_mapping

from smetriclab import (
    ContractionParams,
    Formula,
    FormulaMapping,
    FormulaSMetric,
    MappingRangeError,
    Space,
    TableMapping,
    cli,
    discontinuity_criterion,
    fix_set,
    picard,
    solve_power,
)

from conftest import sum_abs_smetric


def labels(trace):
    return [p.label for p in trace.points]


@pytest.mark.parametrize(
    ("x0", "expected_labels", "expected_alphas", "steps"),
    [
        (0, ["0", "4", "4"], [8, 0], 1),
        (2, ["2", "4", "4"], [4, 0], 1),
        (8, ["8", "2", "4", "4"], [12, 4, 0], 2),
        (4, ["4", "4"], [0], 0),
    ],
)
def test_band_orbits(
    four_space, four_map, x0, expected_labels, expected_alphas, steps
):
    trace = picard(four_space, four_map, x0)
    assert labels(trace) == expected_labels
    assert trace.alphas == expected_alphas
    assert trace.outcome.status == "converged"
    assert trace.outcome.u == four_space.resolve(4)
    assert trace.outcome.steps == steps


def test_swap_orbit_reports_the_cycle():
    space = Space.finite([0, 1], sum_abs_smetric())
    swap = TableMapping({"0": "1", "1": "0"})
    trace = picard(space, swap, 0)
    assert labels(trace) == ["0", "1", "0"]
    assert trace.alphas == [2, 2]
    assert trace.outcome.status == "cycle_detected"
    assert trace.outcome.period == 2
    assert trace.outcome.u is None


def test_iteration_budget_is_respected():
    space = Space.real_grid(0, 10, 1, sum_abs_smetric())
    shift = FormulaMapping(Formula.parse("x + 1", ("x",)))
    trace = picard(space, shift, 0, max_iter=3)
    assert trace.outcome.status == "max_iter_reached"
    assert labels(trace) == ["0", "1", "2", "3"]


def test_orbit_leaving_the_grid_fails_loudly():
    space = Space.real_grid(0, 10, 1, sum_abs_smetric())
    shift = FormulaMapping(Formula.parse("x + 1", ("x",)))
    with pytest.raises(MappingRangeError, match="leaves the grid"):
        picard(space, shift, 8, max_iter=20)


def test_near_images_snap_to_the_grid():
    space = Space.real_grid(0, 1, Fraction(1, 4), sum_abs_smetric())
    halve = FormulaMapping(Formula.parse("x / 2", ("x",)))
    trace = picard(space, halve, 1)
    assert labels(trace) == ["1", "0.5", "0.25", "0", "0"]
    assert trace.alphas == [1, Fraction(1, 2), Fraction(1, 2), 0]
    assert trace.outcome.status == "converged"
    assert trace.outcome.u == space.resolve(0)
    assert trace.outcome.steps == 3


def test_images_past_the_grid_ends_snap_within_a_step():
    space = Space.real_grid(0, 1, Fraction(1, 4), sum_abs_smetric())
    for expr, x0, orbit in (
        ("x + 0.2", "0.5", ["0.5", "0.75", "1", "1"]),
        ("x - 0.2", "0.5", ["0.5", "0.25", "0", "0"]),
    ):
        push = FormulaMapping(Formula.parse(expr, ("x",)))
        trace = picard(space, push, x0)
        # 1.2 and -0.2 land on the ends, which the raw map does not fix
        assert labels(trace) == orbit
        assert trace.outcome.status == "snap_stalled"
        assert trace.outcome.image.value == Fraction(orbit[-1]) + push.formula(0)


def test_finite_universe_images_never_snap():
    space = Space.finite([0, 1], sum_abs_smetric())
    nudge = FormulaMapping(Formula.parse("x + 0.1", ("x",)))
    with pytest.raises(MappingRangeError, match="outside the universe"):
        picard(space, nudge, 0)


def test_snapping_cannot_invent_a_fixed_point():
    space = Space.real_grid(0, 5, 1, sum_abs_smetric())
    creep = FormulaMapping(Formula.parse("x + 0.4", ("x",)))
    trace = picard(space, creep, 0)
    # the image 0.4 snaps back onto 0, but 0 is not fixed by the raw map
    assert trace.outcome.status == "snap_stalled"
    assert trace.outcome.image.label == "0.4"
    assert trace.outcome.period is None and trace.outcome.u is None
    assert labels(trace) == ["0", "0"]
    assert trace.alphas == [0]


def test_a_fixed_point_past_tol_is_a_cycle_not_a_stall():
    # S(x, x, x) = 1 is past tol, yet the raw map fixes x, so nothing snapped
    s = FormulaSMetric(Formula.parse("abs(x - z) + abs(y - z) + 1", ("x", "y", "z")))
    for space, mapping in (
        (Space.real_grid(0, 2, 1, s), FormulaMapping(Formula.parse("x", ("x",)))),
        (Space.finite([0, 1, 2], s), TableMapping({"1": "1"})),
    ):
        trace = picard(space, mapping, 1)
        assert labels(trace) == ["1", "1"]
        assert trace.outcome.status == "cycle_detected"
        assert trace.outcome.period == 1


def test_fix_set_in_universe_order(four_space, four_map):
    assert [p.label for p in fix_set(four_space, four_map)] == ["4"]
    everyone = fix_set(four_space, identity_mapping())
    assert [p.label for p in everyone] == ["0", "2", "4", "8"]


def test_power_orbit_verifies_against_the_base(four_space, four_map):
    result = solve_power(four_space, four_map, 2, 8)
    assert labels(result.trace) == ["8", "4", "4"]
    assert result.trace.outcome.steps == 1
    assert result.fixed_by_base is True


def test_power_fix_need_not_be_a_base_fix():
    space = Space.finite([0, 1], sum_abs_smetric())
    swap = TableMapping({"0": "1", "1": "0"})
    result = solve_power(space, swap, 2, 0)
    assert result.trace.outcome.status == "converged"
    assert result.trace.outcome.steps == 0
    assert result.fixed_by_base is False


@pytest.fixture
def drop_space():
    return Space.real_grid(0, 2, Fraction(1, 100), sum_abs_smetric())


@pytest.fixture
def drop_map():
    return FormulaMapping(
        Formula.parse("piecewise(x <= 1 : 1, else : 0)", ("x",))
    )


@pytest.fixture
def drop_params():
    return ContractionParams(0, Fraction(1, 2), 0)


def approach(sign):
    return [1 + sign * Fraction(1, n) for n in range(1, 1001)]


def test_limit_criterion_flags_the_jump(drop_space, drop_map, drop_params):
    verdict = discontinuity_criterion(
        drop_space,
        drop_map,
        drop_params,
        1,
        [approach(+1), approach(-1)],
        limit_tol=Fraction(1, 100),
        conv_tol=Fraction(1, 50),
        tail_start=200,
    )
    above, below = verdict.per_sequence
    assert (above.window, below.window) == (250, 250)
    assert above.conclusive and below.conclusive
    assert abs(above.estimate - Fraction(1, 2)) < Fraction(1, 100)
    assert below.estimate < Fraction(1, 100)
    assert verdict.overall_limsup == above.estimate
    assert verdict.classification == "discontinuous_at_u"
    assert verdict.note == ""


def test_limit_criterion_maps_u_once(drop_space, drop_map, drop_params):
    counting = CountingMapping(drop_map)
    discontinuity_criterion(
        drop_space,
        counting,
        drop_params,
        1,
        [approach(+1), approach(-1)],
        limit_tol=Fraction(1, 100),
        conv_tol=Fraction(1, 50),
        tail_start=200,
    )
    assert counting.calls == 1 + 250 + 250  # u once, then each tail point


def test_limit_criterion_requires_a_fixed_center(
    drop_space, drop_map, drop_params
):
    with pytest.raises(ValueError, match="not a fixed point"):
        discontinuity_criterion(
            drop_space, drop_map, drop_params, Fraction(3, 2), [approach(-1)]
        )


def test_limit_criterion_rejects_stray_sequences(
    drop_space, drop_map, drop_params
):
    with pytest.raises(ValueError, match="does not converge"):
        discontinuity_criterion(
            drop_space,
            drop_map,
            drop_params,
            1,
            [[0] * 10],
            limit_tol=Fraction(1, 100),
        )
    with pytest.raises(ValueError, match="is empty"):
        discontinuity_criterion(
            drop_space, drop_map, drop_params, 1, [[]]
        )


def test_limit_criterion_rejects_a_tail_start_past_the_end(tmp_path):
    """An empty tail would admit the sequence without a convergence test."""
    space = Space.finite([0, 1, 2, 5], sum_abs_smetric())
    jump = FormulaMapping(Formula.parse("piecewise(x < 2 : 1, else : 5)", ("x",)))
    params = ContractionParams(Fraction(1, 2), 0, 0)
    for start in (4, 10):
        with pytest.raises(ValueError) as excinfo:
            discontinuity_criterion(
                space, jump, params, 1, [[1] * 12, [5, 5, 5, 5]], tail_start=start
            )
        assert str(excinfo.value) == (
            f"tail_start {start} is past the end of sequence 1"
        )
    last = discontinuity_criterion(
        space, jump, params, 1, [[5, 5, 5, 1]], tail_start=3
    )
    assert last.classification == "inconclusive"

    doc = {
        "space": {"kind": "finite", "points": [0, 1, 2, 5],
                  "smetric": {"kind": "formula", "expr": "abs(x - z) + abs(y - z)"}},
        "map": {"kind": "formula", "expr": "piecewise(x < 2 : 1, else : 5)"},
        "params": {"a": 0.5},
        "checks": [{"check": "discontinuity", "u": 1,
                    "sequences": [[5, 5, 5, 5]], "tail_start": 10}],
    }
    path = tmp_path / "tail.json"
    path.write_text(json.dumps(doc))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["solve", "--input", str(path), "--format", "text"])
    assert code == 2
    assert "[ABORTED] discontinuity[u=1]: ValueError: tail_start 10 is past " \
        "the end of sequence 0" in out.getvalue()


def test_limit_criterion_clears_the_identity(drop_space, drop_params):
    verdict = discontinuity_criterion(
        drop_space,
        identity_mapping(),
        drop_params,
        1,
        [approach(+1)],
        limit_tol=Fraction(1, 100),
        conv_tol=Fraction(1, 50),
        tail_start=200,
    )
    assert verdict.classification == "continuous_at_u"
    assert verdict.overall_limsup == 0


def test_finite_universe_never_claims_continuity(
    four_space, four_map, four_params
):
    trivial = discontinuity_criterion(
        four_space, four_map, four_params, 4, [[4, 4, 4]]
    )
    assert trivial.classification == "inconclusive"
    assert trivial.note == "no nontrivial approach sequences"
    assert trivial.overall_limsup == 0

    coarse = discontinuity_criterion(
        four_space,
        four_map,
        four_params,
        4,
        [[2, 2, 2]],
        limit_tol=10,
        conv_tol=4,
    )
    assert coarse.classification == "inconclusive"
    assert coarse.note == "continuity not claimed on a finite universe"
    assert coarse.overall_limsup == 3


def test_unsettled_window_is_inconclusive(drop_space, drop_map, drop_params):
    wobble = [Fraction(3, 2), Fraction(1, 2)] * 50
    verdict = discontinuity_criterion(
        drop_space,
        drop_map,
        drop_params,
        1,
        [wobble],
        limit_tol=Fraction(1, 100),
        conv_tol=1,
        window=20,
    )
    (only,) = verdict.per_sequence
    assert only.conclusive is False
    assert only.estimate == Fraction(1, 2)
    assert verdict.overall_limsup is None
    assert verdict.classification == "inconclusive"
