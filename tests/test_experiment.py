"""Experiment schema validation, execution semantics, and the CLI."""

import contextlib
import copy
import io
import json
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smetriclab import (
    ConfigError,
    DEFAULT_TOL,
    Formula,
    SequenceSpec,
    build_experiment,
    fixture_path,
    load_experiment,
    render_text,
    run,
)
from smetriclab import cli

from conftest import SUM_ABS, run_cli
from test_golden import EXTRA as GOLDEN_EXTRA, FIXTURES as GOLDEN_FIXTURES
from test_golden import GOLDEN
from test_golden import _input as golden_input

BAND_DOC = {
    "space": {
        "kind": "finite",
        "points": [0, 2, 4, 8],
        "smetric": {"kind": "formula", "expr": SUM_ABS},
    },
    "map": {"kind": "formula", "expr": "piecewise(x <= 4 : 4, else : 2)"},
    "params": {"a": Fraction(3, 4), "b": 0, "c": 0},
    "gauge": {
        "phi": "piecewise(t >= 6 : 5, else : t / 2)",
        "delta": "piecewise(eps < 4 : 6 - eps, else : 6)",
    },
}


def band_doc(**overrides):
    doc = copy.deepcopy(BAND_DOC)
    doc.update(overrides)
    return doc


def test_band_fixture_loads_exactly():
    spec = load_experiment(fixture_path("example_2_2.json"))
    assert spec.name == "example_2_2"
    assert spec.tolerance == DEFAULT_TOL
    assert spec.params.a == Fraction(3, 4)
    assert isinstance(spec.params.a, Fraction)
    assert [p.label for p in spec.space.points] == ["0", "2", "4", "8"]
    assert [c.label for c in spec.checks] == [
        "axioms",
        "symmetry",
        "generated",
        "xi",
        "phi_gauge",
        "condition_i[full]",
        "condition_ii",
        "solve[x0=0]",
        "solve[x0=2]",
        "solve[x0=8]",
        "fix_set",
    ]
    assert len(spec.digest) == 64


def test_line_fixture_reads_the_step_exactly():
    spec = load_experiment(fixture_path("example_3_3.json"))
    assert spec.space.step == Fraction(1, 100)
    assert len(spec.space.points) == 2001
    assert spec.params is None


@pytest.mark.parametrize(
    ("doc", "fragment"),
    [
        ({}, "space: is required"),
        ({"space": {"kind": "banach"}}, "space.kind"),
        (band_doc(tolerance=0), "tolerance: must be positive"),
        (band_doc(surprise=1), "surprise: unknown field"),
        (
            {
                "space": {
                    "kind": "real_grid",
                    "lo": 0,
                    "hi": 1,
                    "step": 0,
                    "smetric": {"kind": "formula", "expr": SUM_ABS},
                }
            },
            "space.step: grid step must be positive",
        ),
        (band_doc(checks=[{"check": "levitate"}]), "checks[0].check"),
        (
            band_doc(map=None, checks=[{"check": "solve", "x0": 0}]),
            "map: must be an object",
        ),
        (band_doc(checks=[{"check": "solve"}]), "checks[0].x0: is required"),
        (
            band_doc(checks=[{"check": "solve", "x0": 3}]),
            "no point at coordinate 3",
        ),
        (
            band_doc(
                checks=[
                    {"check": "zamfirescu", "x0": 4, "a": Fraction(3, 2), "b": 0}
                ]
            ),
            "checks[0].a: must lie in [0, 1)",
        ),
        (
            band_doc(params={"a": 2, "b": 0, "c": 0}),
            "params: a must lie in",
        ),
        (
            {
                "space": {
                    "kind": "finite",
                    "points": ["p", "q"],
                    "smetric": {
                        "kind": "table",
                        "entries": [["p", "p", "p", 0]],
                    },
                }
            },
            "missing entry",
        ),
    ],
)
def test_invalid_documents_name_the_field(doc, fragment):
    with pytest.raises(ConfigError) as excinfo:
        build_experiment(doc)
    assert fragment in str(excinfo.value)


def test_checks_without_declared_map_are_rejected():
    doc = band_doc(checks=[{"check": "fix_set"}])
    del doc["map"]
    with pytest.raises(ConfigError, match="fix_set needs a map"):
        build_experiment(doc)


def test_nonfinite_numbers_are_rejected(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"space": {"kind": "finite"}, "tolerance": Infinity}')
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_experiment(bad)
    with pytest.raises(ConfigError, match="cannot read file"):
        load_experiment(tmp_path / "missing.json")


def test_deeply_nested_json_is_invalid_json(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text('{"space": ' + "[" * 100_000 + "]" * 100_000 + "}")
    assert cli.main(["run", "--input", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: invalid JSON: ")


HUGE = "1e99999999"  # 10**99999999 is far too slow to build
TOO_LONG = "has more than 1000 digits when written out"
DIGITS_1001 = "1" + "0" * 1000
# past Python's 4300-digit limit for int(); written into the file text
# directly, as str() of such an int fails too
DIGITS_5000 = "9" * 5000


def _with_point(raw):
    return json.dumps({**BAND_DOC["space"], "points": [0, "@"]}).replace('"@"', raw)


def _with_check(entry, raw):
    return json.dumps([entry]).replace('"@"', raw)


@pytest.mark.parametrize(
    ("field", "raw", "message"),
    [
        ("tolerance", "1e400", "tolerance: is too large for a float"),
        ("map", json.dumps({"kind": "formula", "expr": "(" * 250 + "x" + ")" * 250}),
         "map.expr: nested deeper than 100 levels at offset 99"),
        ("tolerance", HUGE, f"tolerance: {TOO_LONG}"),
        ("space", _with_point(HUGE), f"space.points[1]: {TOO_LONG}"),
        pytest.param("space", _with_point(DIGITS_1001),
                     f"space.points[1]: {TOO_LONG}", id="1001-digit point"),
        pytest.param("space", _with_point(DIGITS_5000),
                     f"space.points[1]: {TOO_LONG}", id="5000-digit point"),
        pytest.param(
            "checks", _with_check({"check": "solve", "x0": 0, "max_iter": "@"},
                                  DIGITS_1001),
            f"checks[0].max_iter: {TOO_LONG}", id="1001-digit max_iter"),
        pytest.param(
            "checks", _with_check({"check": "discontinuity", "u": 4, "sequences": [
                {"expr": "4", "n_to": "@"}]}, DIGITS_1001),
            f"checks[0].sequences[0].n_to: {TOO_LONG}", id="1001-digit n_to"),
        ("map", json.dumps({"kind": "formula", "expr": f"x + {HUGE}"}),
         f"map.expr: number {TOO_LONG} at offset 4"),
        ("map", json.dumps({"kind": "formula", "expr": "x + " + "9" * 4301}),
         f"map.expr: number {TOO_LONG} at offset 4"),
    ],
)
def test_cli_rejects_inputs_past_the_limits(tmp_path, field, raw, message):
    doc = json.loads(json.dumps(band_doc(checks=[{"check": "axioms"}]), default=float))
    doc[field] = "@"
    path = tmp_path / "limits.json"
    path.write_text(json.dumps(doc).replace('"@"', raw))
    result = run_cli("run", "--input", str(path), timeout=30)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == f"error: {message}\n"


def test_a_1000_digit_integer_point_still_loads(tmp_path):
    path = tmp_path / "long.json"
    doc = json.dumps(band_doc(), default=float)
    path.write_text(doc.replace("[0, 2, 4, 8]", f"[0, 2, 4, {'9' * 1000}]"))
    spec = load_experiment(path)
    assert spec.space.points[3].value == 10**1000 - 1
    assert spec.echo["space"]["points"][3] == 10**1000 - 1  # an int, as given


@pytest.mark.parametrize(
    ("tolerance", "message"),
    [
        (HUGE, f"tolerance {TOO_LONG}"),
        ("1e400", "tolerance is too large for a float"),
    ],
)
def test_cli_tolerance_past_the_limits_is_an_argument_error(tolerance, message):
    path = str(fixture_path("example_2_2.json"))
    result = run_cli("run", "--input", path, "--tolerance", tolerance, timeout=30)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.endswith(f"error: argument --tolerance: {message}\n")


#: Each ``--tolerance`` error: the flag's text, its message, and the
#: file's ``tolerance`` literal that gives the same rule (None when the
#: text is no JSON number).
TOLERANCE_ERRORS = {
    "word": ("abc", "not a number: 'abc'", None),
    "zero divisor": ("1/0", "not a number: '1/0'", None),
    "zero": ("0", "tolerance must be positive", "0"),
    "negative": ("-1", "tolerance must be positive", "-1"),
    "1001 digits": (DIGITS_1001, f"tolerance {TOO_LONG}", DIGITS_1001),
    "past float range": ("1e400", "tolerance is too large for a float", "1e400"),
}


@pytest.mark.parametrize("case", TOLERANCE_ERRORS)
def test_the_flag_and_the_file_read_a_tolerance_alike(tmp_path, capsys, case):
    text, message, literal = TOLERANCE_ERRORS[case]
    with pytest.raises(SystemExit) as flag:
        cli.main(["run", "--input", str(fixture_path("example_2_2.json")),
                  "--tolerance", text])
    assert flag.value.code == 2
    assert capsys.readouterr().err.endswith(
        f"error: argument --tolerance: {message}\n"
    )
    if literal is not None:  # the file's message: the same words, a colon
        path = tmp_path / "tolerance.json"
        doc = json.dumps(band_doc(checks=[{"check": "axioms"}]), default=float)
        path.write_text(doc[:-1] + f', "tolerance": {literal}}}')
        assert cli.main(["run", "--input", str(path)]) == 2
        path_, reason = message.split(" ", 1)
        assert capsys.readouterr().err == f"error: {path_}: {reason}\n"


def test_a_tolerance_flag_of_one_third_is_read_exactly(capsys):
    assert cli._tolerance_arg("1/3") == Fraction(1, 3)
    path = str(fixture_path("example_2_2.json"))
    assert cli.main(["axioms", "--input", path, "--tolerance", "1/3"]) == 0
    assert json.loads(capsys.readouterr().out)["tolerance"] == 1 / 3


def test_the_echo_keeps_each_literal_as_written(tmp_path):
    path = tmp_path / "literals.json"
    doc = json.dumps(band_doc(), default=float)
    path.write_text(doc.replace("[0, 2, 4, 8]", "[1, 1.5e0, 2.0, -0]"))
    spec = load_experiment(path)
    points = spec.echo["space"]["points"]
    assert json.dumps(points) == (
        '[1, {"num": 3, "den": 2}, {"num": 2, "den": 1}, 0]'
    )
    assert [type(p.value) for p in spec.space.points] == [int, Fraction, Fraction, int]
    assert [p.label for p in spec.space.points] == ["1", "1.5", "2", "0"]


def test_integer_literals_load_without_a_fraction(tmp_path):
    # a table S on integer points, so that the document holds only
    # integer literals and loading it validates nothing at a default tol
    xs = [0, 3]
    entries = [[x, y, z, abs(x - z) + abs(y - z)] for x in xs for y in xs for z in xs]
    path = tmp_path / "ints.json"
    path.write_text(json.dumps({
        "tolerance": 1,
        "space": {"kind": "finite", "points": xs,
                  "smetric": {"kind": "table", "entries": entries}},
        "checks": [{"check": "axioms", "sample": [3, 0]}, {"check": "triangle"}],
    }))
    built, new = [], vars(Fraction)["__new__"]

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new.__func__(cls, *args, **kwargs)

    Fraction.__new__ = staticmethod(counting)
    try:
        spec = load_experiment(path)
    finally:
        Fraction.__new__ = new
    assert built == []
    assert [type(p.value) for p in spec.space.points] == [int, int]
    assert spec.tolerance == 1 and type(spec.tolerance) is int
    report = run(spec).report
    assert report["tolerance"] == 1.0
    assert [c["verdict"] for c in report["checks"]] == ["pass", "pass"]


def test_a_repeated_sample_point_changes_no_sweep_record():
    def records(sample):
        return run(build_experiment({
            "space": {"kind": "finite", "points": [0, 2, 5],
                      "smetric": {"kind": "formula", "expr": SUM_ABS}},
            "checks": [{"check": name, "sample": sample}
                       for name in ("axioms", "symmetry", "triangle", "generated")],
        })).report["checks"]

    once = records([0, 2])
    assert once == records([0, 0, 2, 0])
    assert [c["verdict"] for c in once] == ["pass"] * 4
    assert once[2]["triples_checked"] == 8


def test_the_sweep_cap_counts_the_points_each_check_sweeps():
    # the axiom family sweeps a sample's distinct points; the contraction
    # conditions sweep every ordered pair of the sample as listed
    repeated = {"check": "axioms", "sample": [0, 2] * 24}
    spec = build_experiment(band_doc(checks=[repeated]))
    assert run(spec).report["checks"][0]["triples_checked"] == 8
    repeated = {"check": "condition_i", "mode": "strict", "sample": [0, 2] * 159}
    with pytest.raises(ConfigError, match="sweeps 101124 pairs, over the cap"):
        build_experiment(band_doc(checks=[repeated]))


def test_sequence_specs_expand_exactly():
    # each term as its reduced (numerator, denominator) int pair
    listed = SequenceSpec(values=[Fraction(1), Fraction(-1, 2), 3])
    assert listed.expand() == [(1, 1), (-1, 2), (3, 1)]
    ramp = SequenceSpec(
        expr=Formula.parse("2/n - 1", ("n",)), n_from=2, n_to=5
    )
    terms = ramp.expand()
    assert terms == [(0, 1), (-1, 3), (-1, 2), (-3, 5)]
    assert {type(part) for term in terms for part in term} == {int}


def test_duplicate_check_labels_get_numbered():
    doc = band_doc(
        checks=[
            {"check": "solve", "x0": 0},
            {"check": "solve", "x0": 0},
            {"check": "solve", "x0": 2},
            {"check": "solve", "x0": 0},
        ]
    )
    spec = build_experiment(doc)
    assert [c.label for c in spec.checks] == [
        "solve[x0=0]",
        "solve[x0=0]#2",
        "solve[x0=2]",
        "solve[x0=0]#3",
    ]


def test_empty_checks_give_an_echo_only_pass():
    outcome = run(build_experiment(band_doc()))
    assert outcome.status == "pass"
    assert outcome.exit_code == 0
    assert outcome.report["checks"] == []
    assert outcome.report["config"]["space"]["points"] == [0, 2, 4, 8]


def test_digest_tracks_the_resolved_config():
    first = build_experiment(band_doc())
    again = build_experiment(band_doc())
    moved = build_experiment(band_doc(tolerance=Fraction(1, 2)))
    assert first.digest == again.digest
    assert first.digest != moved.digest


def test_digest_tells_apart_steps_that_floats_would_merge():
    def grid(step):
        return build_experiment(band_doc(space={
            "kind": "real_grid", "lo": 0, "hi": 1, "step": Fraction(step),
            "smetric": {"kind": "formula", "expr": SUM_ABS},
        }))

    coarse, fine = grid("0.1"), grid("0.10000000000000000001")
    assert (len(coarse.space), len(fine.space)) == (11, 10)
    assert coarse.digest != fine.digest


def test_digest_tells_a_numeric_point_from_its_label():
    def single(point):
        return build_experiment({"space": {
            "kind": "finite", "points": [point],
            "smetric": {"kind": "table", "entries": [["0.5", "0.5", "0.5", 0]]},
        }})

    numeric, labelled = single(Fraction(1, 2)), single("0.5")
    assert numeric.space.points[0].value == Fraction(1, 2)
    assert labelled.space.points[0].value is None
    assert numeric.digest != labelled.digest


def _decimals_read_back(node):
    if isinstance(node, dict):
        if node.keys() == {"num", "den"}:
            return Fraction(node["num"], node["den"])
        return {key: _decimals_read_back(value) for key, value in node.items()}
    if isinstance(node, list):
        return [_decimals_read_back(value) for value in node]
    return node


@pytest.mark.parametrize(
    "name", ["discontinuity_0_2", "example_2_2", "example_2_2_corrected", "example_3_3"]
)
def test_config_echoes_every_decimal_exactly(name):
    path = fixture_path(f"{name}.json")
    doc = json.loads(path.read_text(), parse_float=Fraction)
    config = load_experiment(path).echo  # the report's "config"
    assert _decimals_read_back(config) == {
        "name": name, "tolerance": DEFAULT_TOL, **doc
    }
    assert json.loads(json.dumps(config)) == config


def test_run_filters_by_check_name():
    spec = load_experiment(fixture_path("example_2_2.json"))
    family = ("solve", "solve_power", "fix_set", "discontinuity")
    spec.checks = [c for c in spec.checks if c.name in family]
    solves = run(spec)
    assert solves.status == "pass"
    assert solves.exit_code == 0
    assert [r["check"] for r in solves.report["checks"]] == [
        "solve",
        "solve",
        "solve",
        "fix_set",
    ]


def test_full_run_reports_the_window_failure():
    spec = load_experiment(fixture_path("example_2_2.json"))
    outcome = run(spec)
    assert outcome.status == "fail"
    assert outcome.exit_code == 1
    summary = outcome.report["summary"]
    assert (summary["total"], summary["passed"], summary["failed"]) == (11, 10, 1)
    failing = [r for r in outcome.report["checks"] if r["verdict"] == "fail"]
    assert [r["check"] for r in failing] == ["condition_ii"]
    assert len(failing[0]["violations"]) == 10
    text = render_text(outcome.report)
    assert "[FAIL] condition_ii: 10 violations; first pair (4, 8) at eps 3.0" in text
    assert "status: fail (10 passed, 1 failed, 0 aborted)" in text


def test_corrected_window_passes():
    spec = load_experiment(fixture_path("example_2_2_corrected.json"))
    outcome = run(spec)
    assert outcome.status == "pass"
    assert outcome.report["summary"]["failed"] == 0


def test_evaluation_error_aborts_and_keeps_the_partial_report():
    doc = band_doc(
        gauge={"delta": "eps - 10"},
        checks=[{"check": "xi"}, {"check": "condition_ii"}, {"check": "fix_set"}],
    )
    outcome = run(build_experiment(doc))
    assert outcome.status == "aborted"
    assert outcome.exit_code == 2
    records = outcome.report["checks"]
    assert [r["verdict"] for r in records] == ["pass", "aborted"]
    assert "GaugeDomainError" in records[1]["error"]
    assert outcome.report["summary"]["total"] == 3
    assert "[ABORTED] condition_ii" in render_text(outcome.report)


def test_cli_exit_codes_follow_the_verdicts(tmp_path):
    flawed = run_cli("run", "--input", str(fixture_path("example_2_2.json")))
    assert flawed.returncode == 1
    report = json.loads(flawed.stdout)
    assert report["summary"]["status"] == "fail"

    clean = run_cli(
        "run", "--input", str(fixture_path("example_2_2_corrected.json"))
    )
    assert clean.returncode == 0

    garbled = tmp_path / "garbled.json"
    garbled.write_text("not an experiment")
    broken = run_cli("run", "--input", str(garbled))
    assert broken.returncode == 2
    assert broken.stdout == ""
    assert "invalid JSON" in broken.stderr


def test_cli_reports_are_deterministic():
    path = str(fixture_path("example_2_2.json"))
    first = run_cli("run", "--input", path)
    second = run_cli("run", "--input", path)
    a, b = json.loads(first.stdout), json.loads(second.stdout)
    assert a.pop("timing") and b.pop("timing")
    assert a == b


def _check_timings(report):
    """The labels of ``timing.checks``, each entry a label and a wall time
    that together stay within the run's."""
    timing = report["timing"]
    entries = timing["checks"]
    assert all(e.keys() == {"label", "elapsed_seconds"} for e in entries)
    assert all(e["elapsed_seconds"] >= 0 for e in entries)
    assert sum(e["elapsed_seconds"] for e in entries) <= timing["elapsed_seconds"]
    return [e["label"] for e in entries]


def test_timing_gives_each_executed_check_its_wall_time():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["run", "--input", str(fixture_path("example_2_2.json"))]) == 1
    report = json.loads(out.getvalue())
    assert _check_timings(report) == [r["label"] for r in report["checks"]]
    assert len(report["checks"]) == report["summary"]["total"] == 11

    # an aborted run times the checks up to the aborted one, and no other
    report = run(load_experiment(golden_input("aborted"))).report
    assert [r["verdict"] for r in report["checks"]] == ["pass", "fail", "aborted"]
    assert _check_timings(report) == ["xi", "condition_i[full]", "condition_ii"]
    assert report["summary"]["total"] == 4


def _golden_records(name):
    return json.loads((GOLDEN / f"{name}.run.json").read_text())["checks"]


# the documents whose golden run executes every check, so that any order
# of their checks runs them all
_UNABORTED = [
    name for name in GOLDEN_FIXTURES + GOLDEN_EXTRA
    if all(r["verdict"] != "aborted" for r in _golden_records(name))
]


@pytest.mark.parametrize("name", _UNABORTED)
def test_checks_in_any_order_give_their_golden_records(name):
    # a space keeps one read between checks: the checks run reversed,
    # forward and reversed again in one run replace and reuse what it
    # keeps in every order, and each record stays its golden record
    spec = load_experiment(golden_input(name))
    checks = spec.checks
    spec.checks = checks[::-1] + checks + checks[::-1]
    pieces = []
    cli.write_json(run(spec).report, pieces.append)
    records = json.loads("".join(pieces))["checks"]
    golden = {r["label"]: r for r in _golden_records(name)}
    assert len(records) == 3 * len(checks)
    for record in records:
        assert record == golden[record["label"]]


def _traced_peak(doc):
    """The tracemalloc peak, in bytes, of a run of ``doc``."""
    spec = build_experiment(doc)
    tracemalloc.start()
    try:
        run(spec)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(("hi", "check"), [
    (30, lambda i: {"check": "axioms", "sample": list(range(i, i + 16))}),
    (5000, lambda i: {"check": "zamfirescu", "x0": i, "a": Fraction(1, 2),
                      "b": 0}),
], ids=["axioms", "zamfirescu"])
def test_checks_with_distinct_reads_keep_the_peak_of_one(hi, check):
    # ten checks on distinct samples or centers: the space keeps the last
    # read alone, so the run peaks below three times a one-check run
    doc = {
        "space": {"kind": "real_grid", "lo": 0, "hi": hi, "step": 1,
                  "smetric": {"kind": "formula", "expr": SUM_ABS}},
        "map": {"kind": "formula", "expr": "x"},
    }
    one = _traced_peak({**doc, "checks": [check(0)]})
    ten = _traced_peak({**doc, "checks": [check(i) for i in range(10)]})
    assert ten < 3 * one


def test_cli_family_and_output_options(tmp_path):
    path = str(fixture_path("discontinuity_0_2.json"))
    solved = run_cli("solve", "--input", path)
    assert solved.returncode == 0
    names = [r["check"] for r in json.loads(solved.stdout)["checks"]]
    assert names == ["solve", "fix_set", "discontinuity"]

    no_circle = run_cli("circle", "--input", path)
    assert no_circle.returncode == 2
    assert "no circle checks are declared" in no_circle.stderr

    out = tmp_path / "report.txt"
    rendered = run_cli(
        "run", "--input", path, "--format", "text", "--output", str(out)
    )
    assert rendered.returncode == 0
    assert rendered.stdout == ""
    assert out.read_text().startswith("experiment discontinuity_0_2")

    bad_tol = run_cli("run", "--input", path, "--tolerance", "-1")
    assert bad_tol.returncode == 2
    assert "tolerance must be positive" in bad_tol.stderr


def test_the_reused_parser_reads_each_call_afresh(capsys):
    # main builds its parser once: an earlier call's arguments or errors
    # must not leak into a later one, and usage errors stay the same
    path = str(fixture_path("example_2_2.json"))
    for argv in (["axioms"], ["run", "--input", path, "--format", "xml"]):
        with pytest.raises(SystemExit) as reused:
            cli.main(argv)
        error = capsys.readouterr().err
        with pytest.raises(SystemExit) as fresh:
            cli.build_parser().parse_args(argv)
        assert reused.value.code == fresh.value.code == 2
        assert capsys.readouterr().err == error != ""
    declared = float(load_experiment(path).tolerance)
    for argv, tolerance in ((["--tolerance", "0.5"], 0.5), ([], declared)):
        cli.main(["axioms", "--input", path, *argv])
        assert json.loads(capsys.readouterr().out)["tolerance"] == tolerance
    cli.main(["axioms", "--input", path, "--format", "text"])
    assert capsys.readouterr().out.startswith("experiment ")


def test_an_unwritable_output_exits_2_without_a_traceback(tmp_path):
    target = tmp_path / "missing" / "report.json"
    path = str(fixture_path("example_2_2.json"))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(["run", "--input", path, "--output", str(target)])
    assert code == 2
    assert err.getvalue().startswith(f"error: {target}: cannot write report: ")
    assert not target.parent.exists()


# the second case's id names the bytes that the report's writer sends
@pytest.mark.parametrize(
    "target", ["run", pytest.param("write_json", id="json.dumps")]
)
def test_running_out_of_memory_exits_2_without_a_traceback(monkeypatch, target):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, target, exhausted)
    path = str(fixture_path("example_2_2.json"))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["run", "--input", path])
    assert (code, out.getvalue(), err.getvalue()) == (2, "", "error: out of memory\n")


@pytest.mark.parametrize("nodes", [25, 46, 47, 201, 2001])
def test_synthesized_sweeps_keep_24_grid_nodes_with_both_ends(nodes):
    doc = band_doc(space={
        "kind": "real_grid", "lo": 0, "hi": nodes - 1, "step": 1,
        "smetric": {"kind": "formula", "expr": SUM_ABS},
    })
    axioms = cli._synthesize(build_experiment(doc), "axioms")[0]
    sample = [p.label for p in axioms.options["sample"]]
    assert len(sample) == len(set(sample)) == 24
    assert (sample[0], sample[-1]) == ("0", str(nodes - 1))


def _every_command_exits_0_1_or_2(path):
    for command in ("axioms", "verify", "solve", "circle", "run"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = cli.main([command, "--input", str(path)])
        assert code in (0, 1, 2), (command, out.getvalue())


def _formula_text(variables):
    """Formula text for one slot: grammar-shaped over the slot's
    variables, or arbitrary text."""
    atoms = st.sampled_from([*variables, "0", "1", "2", "0.5", "1e-9", "-3"])

    def extend(inner):
        return st.one_of(
            st.tuples(inner, st.sampled_from((" + ", " - ", " * ", " / ")), inner)
            .map("".join),
            inner.map("abs({})".format),
            inner.map("-({})".format),
            st.tuples(inner, inner).map(lambda p: "min({}, {})".format(*p)),
            st.tuples(inner, st.sampled_from(("<", "<=", ">", ">=")), inner,
                      inner, inner)
            .map(lambda p: "piecewise({} {} {} : {}, else : {})".format(*p)),
        )

    return st.one_of(st.recursive(atoms, extend, max_leaves=8), st.text(max_size=20))


@settings(max_examples=40, deadline=None)
@given(
    s=_formula_text("xyz"), image=_formula_text("x"), phi=_formula_text("t"),
    delta=_formula_text(["eps"]), term=_formula_text("n"),
)
def test_every_command_exits_0_1_or_2_on_any_formula_text(
    tmp_path_factory, s, image, phi, delta, term
):
    doc = {
        "space": {"kind": "finite", "points": [0, 1, 2],
                  "smetric": {"kind": "formula", "expr": s}},
        "map": {"kind": "formula", "expr": image},
        "params": {"a": 0.5},
        "gauge": {"phi": phi, "delta": delta},
        "checks": [
            {"check": "solve", "x0": 0},
            {"check": "discontinuity", "u": 1,
             "sequences": [{"expr": term, "n_to": 8}]},
            {"check": "fixed_circle", "x0": 1},
        ],
    }
    path = tmp_path_factory.getbasetemp() / "formula_slots.json"
    path.write_text(json.dumps(doc))
    _every_command_exits_0_1_or_2(path)


def _integer_option(past_cap):
    """Small values, a value past the option's cap, and integers of 1,000
    and 1,001 digits.  Values just under a cap are slow by design; the
    golden error table holds those."""
    return st.one_of(
        st.integers(-3, 100), st.sampled_from((past_cap, 10**999, 10**1000))
    )


@settings(max_examples=60, deadline=None)
@given(
    # past the caps on three points: m * (3 + 1) map applications, and
    # n_to - n_from + 1 terms; max_iter, tail_start and window have none
    m=_integer_option(250_001), max_iter=_integer_option(10**6),
    n_from=_integer_option(200_000), n_to=_integer_option(200_000),
    tail_start=_integer_option(10**6), window=_integer_option(10**6),
)
def test_every_command_exits_0_1_or_2_on_any_integer_option(
    tmp_path_factory, m, max_iter, n_from, n_to, tail_start, window
):
    doc = {
        "space": {"kind": "finite", "points": [0, 1, 2],
                  "smetric": {"kind": "formula", "expr": SUM_ABS}},
        "map": {"kind": "formula", "expr": "piecewise(x < 1 : x + 1, else : 1)"},
        "params": {"a": 0.5},
        "checks": [
            {"check": "solve", "x0": 0, "max_iter": max_iter},
            {"check": "solve_power", "x0": 0, "m": m, "max_iter": max_iter},
            {"check": "discontinuity", "u": 1, "conv_tol": 10,
             "sequences": [{"expr": "1 + 1/n", "n_from": n_from, "n_to": n_to}],
             "tail_start": tail_start, "window": window},
        ],
    }
    path = tmp_path_factory.getbasetemp() / "integer_options.json"
    path.write_text(json.dumps(doc))
    _every_command_exits_0_1_or_2(path)


#: The golden inputs small enough to run every subcommand per example:
#: those whose universe has at most 61 nodes.
MUTATION_SEEDS = [
    json.loads(path.read_text())
    for path in map(golden_input, GOLDEN_FIXTURES + GOLDEN_EXTRA)
    if len(load_experiment(path).space) <= 61
]

#: What a mutation puts in place of a subtree.
MUTATION_POOL = (
    None, True, False, 0, -1, 2, 0.5, "", "x", "p", [], {}, [0, 1],
    {"kind": "formula"}, {"kind": "table", "entries": []},
)


def _subtrees(node, at=()):
    """The key paths of every subtree below ``node``."""
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict)
                           else enumerate(node)):
            yield at + (key,)
            yield from _subtrees(child, at + (key,))


@settings(deadline=None)
@given(seed=st.sampled_from(MUTATION_SEEDS), data=st.data())
def test_every_command_exits_0_1_or_2_on_any_document_mutation(
    tmp_path_factory, seed, data
):
    doc = copy.deepcopy(seed)
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        subtrees = list(_subtrees(doc))
        if not subtrees:
            break
        *at, key = data.draw(st.sampled_from(subtrees), label="subtree")
        parent = doc
        for step in at:
            parent = parent[step]
        if data.draw(st.booleans(), label="delete"):
            del parent[key]  # an object key or a list item
        else:
            parent[key] = copy.deepcopy(
                data.draw(st.sampled_from(MUTATION_POOL), label="value")
            )
    path = tmp_path_factory.getbasetemp() / "mutated.json"
    path.write_text(json.dumps(doc))
    _every_command_exits_0_1_or_2(path)
