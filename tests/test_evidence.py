"""Evidence as columns: the condition kernels' ``Rows``, their cap and
totals, and the bytes the report writer makes of them.

The property test compares the bytes written from the kernels' int rows
with ``json.dumps(indent=2)`` of records built the way reports were built
before, one ``describe`` call per value, from the Fraction reference
kernels of ``test_lattice``; run it under more examples with
``--hypothesis-profile oracle``.
"""

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SUM_ABS, sum_abs_smetric
from smetriclab import (
    ContractionParams,
    ExprError,
    Formula,
    FormulaMapping,
    GaugeSpec,
    Point,
    Space,
    SpaceError,
    TableMapping,
    build_experiment,
    cli,
    condition_ii_probe,
    render_text,
    run,
    runner,
    verify_condition_i,
)
from smetriclab.evidence import Rows
from test_lattice import (
    C_QUARTERS,
    CONDITION_TOLERANCES,
    DELTAS,
    MODES,
    PHIS,
    QUARTERS,
    USER_EPS,
    reference_condition_i,
    reference_condition_ii,
)

ROOT = Path(__file__).resolve().parent.parent


def old_describe(value):
    """How a report made a kernel value JSON-ready, one value at a time."""
    if isinstance(value, (int, Fraction)):
        return float(value)
    if isinstance(value, Point):
        return value.label
    if isinstance(value, (list, tuple)):
        return [old_describe(v) for v in value]
    return value


def old_records(keys, rows):
    return [{k: old_describe(v) for k, v in zip(keys, row)} for row in rows]


def _written(value):
    pieces = []
    cli.write_json(value, pieces.append)
    return "".join(pieces)


@st.composite
def finite_instances(draw):
    """2 to 5 integer points with S = |x - z| + |y - z|, and a table map,
    read off the lattice, or a formula map, read on it."""
    values = draw(st.lists(st.integers(-6, 6), min_size=2, max_size=5, unique=True))
    space = Space.finite(values, sum_abs_smetric())
    if draw(st.booleans()):
        labels = [p.label for p in space.points]
        mapping = TableMapping({x: draw(st.sampled_from(labels)) for x in labels})
    else:
        text = draw(st.sampled_from(["x / 2", "x / 2 + 1", "-x / 3", "abs(x) - 1"]))
        mapping = FormulaMapping(Formula.parse(text, ("x",)))
    return space, mapping


def _result(kernel, *args, **kwargs):
    try:
        return kernel(*args, **kwargs)
    except (ExprError, SpaceError, ValueError) as error:
        return type(error), str(error)


I_KEYS = ("x", "y", "m", "s_t")
II_KEYS = ("x", "y", "eps", "m", "s_t")


@settings(deadline=None)
@given(finite_instances(), QUARTERS, QUARTERS, C_QUARTERS, MODES, PHIS, DELTAS,
       USER_EPS, CONDITION_TOLERANCES, st.integers(1, 6), st.integers(1, 4))
def test_int_rows_write_the_bytes_of_the_old_records(
    instance, a, b, c, mode, phi, delta, user_eps, tol, cap, batch
):
    # records per batch from 1 to 4, so a Rows is written across batches
    with mock.patch.object(cli, "_BATCH", batch):
        _check_int_rows(instance, a, b, c, mode, phi, delta, user_eps, tol, cap)


def _check_int_rows(instance, a, b, c, mode, phi, delta, user_eps, tol, cap):
    space, mapping = instance
    params = ContractionParams(a, b, c)
    gauge = GaugeSpec(Formula.parse(phi, ("t",)), Formula.parse(delta, ("eps",)))

    reference = _result(reference_condition_i, space, mapping, params, gauge,
                        None, mode, tol)
    rows = _result(verify_condition_i, space, mapping, params, gauge, None, mode, tol)
    capped = _result(verify_condition_i, space, mapping, params, gauge, None, mode,
                     tol, max_evidence=cap)
    if isinstance(reference, tuple):  # an error, raised by every kernel alike
        assert rows == capped == reference
    else:
        assert rows == reference and rows.total == len(reference)
        assert _written({"violations": rows.named(I_KEYS)}) == json.dumps(
            {"violations": old_records(I_KEYS, reference)}, indent=2) + "\n"
        assert (list(capped), capped.total) == (reference[:cap], len(reference))

    reference = _result(reference_condition_ii, space, mapping, params, gauge,
                        None, user_eps, tol)
    probe = _result(condition_ii_probe, space, mapping, params, gauge, None,
                    user_eps, tol)
    capped = _result(condition_ii_probe, space, mapping, params, gauge, None,
                     user_eps, tol, max_evidence=cap)
    if isinstance(reference[0], type):
        assert probe == capped == reference
        return
    (grid, violations), (_, rows), (capped_grid, capped) = reference, probe, capped
    assert probe[0] == capped_grid == grid
    assert rows == violations and rows.total == len(violations)
    assert _written({"violations": rows.named(II_KEYS)}) == json.dumps(
        {"violations": old_records(II_KEYS, violations)}, indent=2) + "\n"
    # the reference scans every probe against every pair
    assert (list(capped), capped.total) == (violations[:cap], len(violations))


def _grid_doc():
    """Condition (ii) on the 21-node grid of ``grid_verify``: 1,230
    violations."""
    return {
        "space": {"kind": "real_grid", "lo": -10, "hi": 10, "step": 1,
                  "smetric": {"kind": "formula", "expr": SUM_ABS}},
        "map": {"kind": "formula", "expr": "x / 2 + 1"},
        "params": {"a": Fraction(3, 4), "b": 0, "c": 0},
        "gauge": {"phi": "2 * t / 3", "delta": "eps"},
        "checks": [{"check": "condition_i", "mode": "strict"},
                   {"check": "condition_ii"}],
    }


def test_a_capped_record_keeps_the_first_records_and_gives_the_total(monkeypatch):
    whole = run(build_experiment(_grid_doc())).report["checks"]
    monkeypatch.setattr(runner, "MAX_EVIDENCE", 7)
    report = run(build_experiment(_grid_doc())).report
    capped = report["checks"]
    assert "violations_total" not in whole[1] and "truncated" not in whole[1]
    assert len(whole[1]["violations"]) == 1230
    assert capped[1]["violations"] == whole[1]["violations"][:7]
    assert list(capped[1])[-3:] == ["violations", "violations_total", "truncated"]
    assert (capped[1]["violations_total"], capped[1]["truncated"]) == (1230, True)
    # strict condition (i) holds here, so nothing is cut and nothing added
    assert capped[0] == whole[0] and capped[0]["violations"] == []
    assert "[FAIL] condition_ii: 1230 violations; first pair (-10, -7) at eps 2.7" in (
        render_text(report)
    )


def test_a_condition_value_past_float_range_aborts_its_check():
    # the identity breaks strict condition (i) on the pair (0, 1e400),
    # whose M of 1e400 has no float
    spec = build_experiment({
        "space": {"kind": "finite", "points": [0, Fraction("1e400")],
                  "smetric": {"kind": "formula", "expr": SUM_ABS}},
        "map": {"kind": "formula", "expr": "x"},
        "params": {"a": Fraction(1, 2), "b": 0, "c": 0},
        "checks": [{"check": "condition_i", "mode": "strict"}, {"check": "xi"}],
    })
    outcome = run(spec)
    assert outcome.exit_code == 2
    assert outcome.report["checks"] == [{
        "check": "condition_i", "label": "condition_i[strict]",
        "verdict": "aborted",
        "error": "OverflowError: integer division result too large for a float",
    }]


@pytest.mark.parametrize("check", [
    {"check": "condition_i", "mode": "strict"}, {"check": "condition_ii"},
])
def test_a_value_past_float_range_after_the_cap_aborts_its_check(check, monkeypatch):
    # with M = |x - y|, the check fails first on the pair (0, 1), in range,
    # and later on pairs with 3, whose image 10^400 has no float
    spec = build_experiment({
        "space": {"kind": "finite", "points": [0, 1, 2, 3],
                  "smetric": {"kind": "formula", "expr": SUM_ABS}},
        "map": {"kind": "formula",
                "expr": f"piecewise(x <= 0 : 0, x <= 2 : 5, else : {10 ** 400})"},
        "params": {"a": Fraction(1, 2), "b": 0, "c": 0},
        "gauge": {"delta": "eps"},
        "checks": [check],
    })
    monkeypatch.setattr(runner, "MAX_EVIDENCE", 1)
    outcome = run(spec)
    assert outcome.exit_code == 2
    assert outcome.report["checks"][0]["error"] == (
        "OverflowError: integer division result too large for a float"
    )


def test_a_value_past_float_range_in_no_violation_does_not_abort(monkeypatch):
    # the pair (0, 10^400) has an M past float range, but T sends both to
    # 0, so only pairs among 0, 1 and 2 fail
    spec = build_experiment({
        "space": {"kind": "finite", "points": [0, 1, 2, 10 ** 400],
                  "smetric": {"kind": "formula", "expr": SUM_ABS}},
        "map": {"kind": "formula", "expr": "piecewise(x <= 0 : 0, x <= 2 : 5, else : 0)"},
        "params": {"a": Fraction(1, 2), "b": 0, "c": 0},
        "checks": [{"check": "condition_i", "mode": "strict"}],
    })
    monkeypatch.setattr(runner, "MAX_EVIDENCE", 1)
    outcome = run(spec)
    record = outcome.report["checks"][0]
    assert (outcome.exit_code, record["violations_total"]) == (1, 4)
    assert record["violations"] == [{"x": "0", "y": "1", "m": 1.0, "s_t": 10.0}]


def test_rows_read_like_the_lists_they_stand_for():
    keys = ("x", "m")
    space = Space.finite([0, 1, 2], sum_abs_smetric())
    bad = verify_condition_i(space, FormulaMapping(Formula.parse("x", ("x",))),
                             ContractionParams(Fraction(1, 2), 0, 0), mode="strict")
    exact = [(x, y, m, s) for x, y, m, s in bad]
    assert isinstance(bad, Rows) and bad == exact and exact == bad
    assert bad[-1] == exact[-1] and bad[1:3] == exact[1:3] and len(bad) == 6
    assert repr(bad) == repr(exact) and bad != exact[:-1] and bad != tuple(exact)
    with pytest.raises(IndexError):
        bad[6]
    named = Rows(bad.columns[::2], total=bad.total).named(keys)
    assert named == old_records(keys, [(x, m) for x, _, m, _ in exact])
    assert _written(named) == json.dumps(named[:], indent=2) + "\n"
    assert _written(named) == json.dumps(named, indent=2, default=list) + "\n"
    assert _written(Rows([], keys)) == "[]\n"


def test_scale_run_reports_a_small_grid():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "scale_run.py"), "jump",
         "--step", "0.5"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    assert (result["exit_code"], result["violations_total"]) == (
        1, {"condition_i[full]": 12, "condition_ii": 78}
    )
    assert result["probes"] == {"condition_ii": 22}
    assert result["report_bytes"] > 0 and result["peak_rss_mb"] > 0

    # with --runs, a line per run, then the median wall time and the
    # largest peak RSS in the same shape
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "scale_run.py"), "jump",
         "--step", "0.5", "--format", "text", "--runs", "3"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    *runs, last = map(json.loads, done.stdout.splitlines())
    assert len(runs) == 3 and last.keys() == runs[0].keys()
    assert last["wall_s"] == sorted(r["wall_s"] for r in runs)[1]
    assert last["peak_rss_mb"] == max(r["peak_rss_mb"] for r in runs)
    for r in (*runs, last):
        assert (r["exit_code"], r["violations_total"]) == (
            1, {"condition_i[full]": 12, "condition_ii": 78})
