"""Golden reports and golden configuration errors.

Every bundled fixture, plus the documents under ``golden/inputs``, goes
through every subcommand in both formats.  The exit code, stderr and the
report (JSON without its ``timing`` block, or the text rendering) must
match the files under ``golden/`` byte for byte.  Beside it, a table of
malformed check entries, and of documents past the input limits (among
them every kind of number too large for the floats of evidence and of
the report's tolerance), pins the exact ``ConfigError`` text.

Regenerate the golden files with ``PYTHONPATH=src python
tests/test_golden.py`` only when a report change is intended.
"""

import contextlib
import copy
import io
import json
from fractions import Fraction
from pathlib import Path

import pytest

from smetriclab import ConfigError, Formula, build_experiment, cli, fixture_path

GOLDEN = Path(__file__).parent / "golden"
FIXTURES = (
    "discontinuity_0_2",
    "example_2_2",
    "example_2_2_corrected",
    "example_3_3",
)
EXTRA = (
    "aborted", "evidence", "fix_set_default", "lattice", "lattice_fallback",
    "lattice_thirds", "long_sequences", "no_map", "overflow", "picard_finite",
    "picard_grid", "snap", "swap", "table",
)
COMMANDS = ("axioms", "verify", "solve", "circle", "run")
FORMATS = ("json", "text")
CASES = [
    (name, command, fmt)
    for name in FIXTURES + EXTRA
    for command in COMMANDS
    for fmt in FORMATS
]


def _input(name):
    if name in FIXTURES:
        return fixture_path(f"{name}.json")
    return GOLDEN / "inputs" / f"{name}.json"


def _outcome(name, command, fmt):
    """(exit code, stdout without timing, stderr) of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(
            [command, "--input", str(_input(name)), "--format", fmt]
        )
    text = out.getvalue()
    if fmt == "json" and text:
        report = json.loads(text)
        del report["timing"]
        text = json.dumps(report, indent=2) + "\n"
    return code, text, err.getvalue()


def _key(name, command, fmt):
    return f"{name}.{command}.{fmt}"


@pytest.fixture(scope="module")
def exits():
    return json.loads((GOLDEN / "exits.json").read_text())


@pytest.mark.parametrize(("name", "command", "fmt"), CASES)
def test_report_matches_golden(name, command, fmt, exits):
    code, text, stderr = _outcome(name, command, fmt)
    key = _key(name, command, fmt)
    assert [code, stderr] == exits[key]
    assert text == (GOLDEN / key).read_text()


@pytest.mark.parametrize(("name", "command", "fmt"), CASES)
def test_the_fraction_path_gives_the_golden_reports(
    name, command, fmt, exits, monkeypatch
):
    # no formula compiles on a lattice, so every reader and kernel takes
    # its Fraction path, with the values it reads scaled to ints after
    monkeypatch.setattr(Formula, "scaled", lambda self, scale: None)
    code, text, stderr = _outcome(name, command, fmt)
    key = _key(name, command, fmt)
    assert [code, stderr] == exits[key]
    assert text == (GOLDEN / key).read_text()


@pytest.mark.parametrize(
    ("name", "command"),
    [(name, command) for name, command, fmt in CASES if fmt == "json"],
)
def test_the_cli_writes_the_golden_bytes(name, command):
    # the test above compares a re-dumped report; this one cuts the
    # timing block out of the CLI's own text
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        cli.main([command, "--input", str(_input(name))])
    raw = out.getvalue()
    text = raw and raw[:raw.rfind(',\n  "timing": {')] + "\n}\n"
    assert text == (GOLDEN / _key(name, command, "json")).read_text()


BASE = {
    "space": {
        "kind": "finite",
        "points": [0, 2, 4, 8],
        "smetric": {"kind": "formula", "expr": "abs(x - z) + abs(y - z)"},
    },
    "map": {"kind": "formula", "expr": "piecewise(x <= 4 : 4, else : 2)"},
    "params": {"a": Fraction(3, 4), "b": 0, "c": 0},
    "gauge": {
        "phi": "piecewise(t >= 6 : 5, else : t / 2)",
        "delta": "piecewise(eps < 4 : 6 - eps, else : 6)",
    },
}


def _doc(entry, drop=(), **overrides):
    doc = copy.deepcopy(BASE)
    for key in drop:
        del doc[key]
    doc.update(overrides)
    doc["checks"] = [entry]
    return doc


ERRORS = [
    ("not an object", _doc("axioms"), "checks[0]: must be an object"),
    ("unknown check", _doc({"check": "levitate"}),
     "checks[0].check: unknown check 'levitate'"),
    # axioms
    ("axioms unknown option", _doc({"check": "axioms", "bogus": 1}),
     "checks[0].bogus: unknown option"),
    ("axioms unknown point", _doc({"check": "axioms", "sample": [0, 5]}),
     "checks[0].sample[1]: no point at coordinate 5"),
    ("axioms bad sample", _doc({"check": "axioms", "sample": []}),
     "checks[0].sample: must be a nonempty list"),
    # symmetry
    ("symmetry unknown option", _doc({"check": "symmetry", "mode": "full"}),
     "checks[0].mode: unknown option"),
    ("symmetry unknown label", _doc({"check": "symmetry", "sample": ["p"]}),
     "checks[0].sample[0]: unknown point label 'p'"),
    ("symmetry bad sample", _doc({"check": "symmetry", "sample": 4}),
     "checks[0].sample: must be a nonempty list"),
    # triangle
    ("triangle unknown option", _doc({"check": "triangle", "expect": True}),
     "checks[0].expect: unknown option"),
    ("triangle unknown point", _doc({"check": "triangle", "sample": [3]}),
     "checks[0].sample[0]: no point at coordinate 3"),
    ("triangle bad point", _doc({"check": "triangle", "sample": [None]}),
     "checks[0].sample[0]: point references must be numbers or strings"),
    # generated
    ("generated unknown option", _doc({"check": "generated", "eps": [1]}),
     "checks[0].eps: unknown option"),
    ("generated unknown point", _doc({"check": "generated", "sample": [9]}),
     "checks[0].sample[0]: no point at coordinate 9"),
    ("generated bad expect", _doc({"check": "generated", "expect": "yes"}),
     "checks[0].expect: must be a boolean"),
    # xi
    ("xi unknown option", _doc({"check": "xi", "sample": [0]}),
     "checks[0].sample: unknown option"),
    ("xi without params", _doc({"check": "xi"}, drop=["params"]),
     "checks[0]: xi needs params"),
    # phi_gauge
    ("phi_gauge unknown option",
     _doc({"check": "phi_gauge", "t_values": [1], "t": 1}),
     "checks[0].t: unknown option"),
    ("phi_gauge without phi",
     _doc({"check": "phi_gauge", "t_values": [1]}, gauge={"delta": "eps"}),
     "checks[0]: phi_gauge needs gauge.phi"),
    ("phi_gauge without t_values", _doc({"check": "phi_gauge"}),
     "checks[0].t_values: must be a nonempty list"),
    ("phi_gauge bad t", _doc({"check": "phi_gauge", "t_values": [1, "2"]}),
     "checks[0].t_values[1]: must be a number"),
    # condition_i
    ("condition_i unknown option",
     _doc({"check": "condition_i", "eps": [1]}),
     "checks[0].eps: unknown option"),
    ("condition_i without map", _doc({"check": "condition_i"}, drop=["map"]),
     "checks[0]: condition_i needs a map"),
    ("condition_i without params",
     _doc({"check": "condition_i"}, drop=["params"]),
     "checks[0]: condition_i needs params"),
    ("condition_i mode without phi",
     _doc({"check": "condition_i", "mode": "simple"}, gauge={"delta": "eps"}),
     "checks[0]: mode 'simple' needs gauge.phi"),
    ("condition_i bad mode", _doc({"check": "condition_i", "mode": "loose"}),
     "checks[0].mode: must be 'full', 'simple', or 'strict'"),
    ("condition_i bad pair", _doc({"check": "condition_i", "pairs": [[0]]}),
     "checks[0].pairs[0]: must be a two-point pair"),
    ("condition_i bad pairs", _doc({"check": "condition_i", "pairs": []}),
     "checks[0].pairs: must be a nonempty list"),
    # condition_ii
    ("condition_ii unknown option",
     _doc({"check": "condition_ii", "mode": "full"}),
     "checks[0].mode: unknown option"),
    ("condition_ii without delta",
     _doc({"check": "condition_ii"}, gauge={"phi": "t / 2"}),
     "checks[0]: condition_ii needs gauge.delta"),
    ("condition_ii without params",
     _doc({"check": "condition_ii"}, drop=["params"]),
     "checks[0]: condition_ii needs params"),
    ("condition_ii bad eps", _doc({"check": "condition_ii", "eps": []}),
     "checks[0].eps: must be a nonempty list"),
    ("condition_ii bad eps entry",
     _doc({"check": "condition_ii", "eps": [1, True]}),
     "checks[0].eps[1]: must be a number"),
    ("condition_ii unknown pair point",
     _doc({"check": "condition_ii", "pairs": [[0, 5]]}),
     "checks[0].pairs[0]: no point at coordinate 5"),
    ("condition_ii zero eps", _doc({"check": "condition_ii", "eps": [1, 0]}),
     "checks[0].eps[1]: must be positive"),
    ("condition_ii negative eps",
     _doc({"check": "condition_ii", "eps": [-1, 0]}),
     "checks[0].eps[0]: must be positive"),
    ("condition_ii pairs and sample",
     _doc({"check": "condition_ii", "pairs": [[0, 2]], "sample": [0, 2, 4, 8]}),
     "checks[0]: takes pairs or sample, not both"),
    ("condition_i pairs and sample",
     _doc({"check": "condition_i", "pairs": [[0, 2]], "sample": [0, 2, 4, 8]}),
     "checks[0]: takes pairs or sample, not both"),
    # solve
    ("solve unknown option", _doc({"check": "solve", "x0": 0, "m": 2}),
     "checks[0].m: unknown option"),
    ("solve without map", _doc({"check": "solve", "x0": 0}, drop=["map"]),
     "checks[0]: solve needs a map"),
    ("solve without x0", _doc({"check": "solve"}),
     "checks[0].x0: is required"),
    ("solve bad max_iter", _doc({"check": "solve", "x0": 0, "max_iter": 0}),
     "checks[0].max_iter: must be a positive integer"),
    ("solve bool max_iter",
     _doc({"check": "solve", "x0": 0, "max_iter": True}),
     "checks[0].max_iter: must be a positive integer"),
    ("solve bad tol", _doc({"check": "solve", "x0": 0, "tol": "small"}),
     "checks[0].tol: must be a number"),
    ("solve negative tol", _doc({"check": "solve", "x0": 0, "tol": -1}),
     "checks[0].tol: must not be negative"),
    # solve_power
    ("solve_power unknown option",
     _doc({"check": "solve_power", "x0": 0, "m": 2, "u": 4}),
     "checks[0].u: unknown option"),
    ("solve_power without map",
     _doc({"check": "solve_power", "x0": 0, "m": 2}, drop=["map"]),
     "checks[0]: solve_power needs a map"),
    ("solve_power without m", _doc({"check": "solve_power", "x0": 0}),
     "checks[0].m: must be a positive integer"),
    ("solve_power bad m",
     _doc({"check": "solve_power", "x0": 0, "m": Fraction(3, 2)}),
     "checks[0].m: must be a positive integer"),
    ("solve_power null x0",
     _doc({"check": "solve_power", "x0": None, "m": 2}),
     "checks[0].x0: point references must be numbers or strings"),
    # fix_set
    ("fix_set unknown option", _doc({"check": "fix_set", "x0": 0}),
     "checks[0].x0: unknown option"),
    ("fix_set without map", _doc({"check": "fix_set"}, drop=["map"]),
     "checks[0]: fix_set needs a map"),
    ("fix_set bad expect", _doc({"check": "fix_set", "expect": 4}),
     "checks[0].expect: must be a list"),
    ("fix_set unknown point", _doc({"check": "fix_set", "expect": [4, 6]}),
     "checks[0].expect[1]: no point at coordinate 6"),
]

def _grid(hi, step=1, lo=0):
    return {"kind": "real_grid", "lo": lo, "hi": hi, "step": step,
            "smetric": BASE["space"]["smetric"]}


def _table_space(smetric):
    return {"kind": "finite", "points": ["p", "q"], "smetric": smetric}


_TABLE_METRIC = {"kind": "generated", "metric": {
    "kind": "table", "entries": [["p", "q", 1]]}}


def _table_map(entries):
    return {"kind": "table", "entries": entries}


_DISCONTINUITY = {"check": "discontinuity", "u": 4, "sequences": [[4, 4]]}


def _discontinuity(**changes):
    entry = dict(_DISCONTINUITY, **changes)
    return {k: v for k, v in entry.items() if v is not None}


ERRORS += [
    ("discontinuity unknown option", _doc(_discontinuity(sample=[0])),
     "checks[0].sample: unknown option"),
    ("discontinuity without params",
     _doc(_discontinuity(), drop=["params"]),
     "checks[0]: discontinuity needs params"),
    ("discontinuity without u", _doc(_discontinuity(u=None)),
     "checks[0].u: is required"),
    ("discontinuity without sequences", _doc(_discontinuity(sequences=None)),
     "checks[0].sequences: must be a nonempty list"),
    ("discontinuity empty sequence", _doc(_discontinuity(sequences=[[]])),
     "checks[0].sequences[0]: must not be empty"),
    ("discontinuity bad sequence", _doc(_discontinuity(sequences=[4])),
     "checks[0].sequences[0]: must be a list of values or an object"),
    ("discontinuity empty values",
     _doc(_discontinuity(sequences=[{"values": []}])),
     "checks[0].sequences[0].values: unknown field"),
    ("discontinuity bad value",
     _doc(_discontinuity(sequences=[[1, "a"]])),
     "checks[0].sequences[0][1]: must be a number"),
    ("discontinuity bad range",
     _doc(_discontinuity(sequences=[{"expr": "4", "n_from": 3, "n_to": 2}])),
     "checks[0].sequences[0].n_to: must be at least n_from"),
    ("discontinuity bad limit_tol", _doc(_discontinuity(limit_tol=[1])),
     "checks[0].limit_tol: must be a number"),
    ("discontinuity negative limit_tol", _doc(_discontinuity(limit_tol=-1)),
     "checks[0].limit_tol: must not be negative"),
    ("discontinuity negative conv_tol", _doc(_discontinuity(conv_tol=-1)),
     "checks[0].conv_tol: must not be negative"),
    ("discontinuity bad window", _doc(_discontinuity(window=0)),
     "checks[0].window: must be a positive integer"),
    ("discontinuity bad expect", _doc(_discontinuity(expect="jumpy")),
     "checks[0].expect: is not a known classification"),
    # zamfirescu
    ("zamfirescu unknown option",
     _doc({"check": "zamfirescu", "x0": 4, "tol_circle": 1}),
     "checks[0].tol_circle: unknown option"),
    ("zamfirescu without map",
     _doc({"check": "zamfirescu", "x0": 4}, drop=["map"]),
     "checks[0]: zamfirescu needs a map"),
    ("zamfirescu without x0", _doc({"check": "zamfirescu"}),
     "checks[0].x0: is required"),
    ("zamfirescu without coefficients",
     _doc({"check": "zamfirescu", "x0": 4, "a": 0}, drop=["params"]),
     "checks[0].b: is required when no params are declared"),
    ("zamfirescu bad a", _doc({"check": "zamfirescu", "x0": 4, "a": 1}),
     "checks[0].a: must lie in [0, 1)"),
    # fixed_circle
    ("fixed_circle unknown option",
     _doc({"check": "fixed_circle", "x0": 4, "expect": True}),
     "checks[0].expect: unknown option"),
    ("fixed_circle without map",
     _doc({"check": "fixed_circle", "x0": 4}, drop=["map"]),
     "checks[0]: fixed_circle needs a map"),
    ("fixed_circle without coefficients",
     _doc({"check": "fixed_circle", "x0": 4}, drop=["params"]),
     "checks[0].a: is required when no params are declared"),
    ("fixed_circle bad b", _doc({"check": "fixed_circle", "x0": 4, "b": -1}),
     "checks[0].b: must lie in [0, 1)"),
    ("fixed_circle bad tol_circle",
     _doc({"check": "fixed_circle", "x0": 4, "tol_circle": "wide"}),
     "checks[0].tol_circle: must be a number"),
    ("fixed_circle negative tol_circle",
     _doc({"check": "fixed_circle", "x0": 4, "tol_circle": -1}),
     "checks[0].tol_circle: must not be negative"),
    ("fixed_circle center off the grid",
     _doc({"check": "fixed_circle", "x0": Fraction("0.05")}, space={
         "kind": "real_grid", "lo": 0, "hi": 1, "step": Fraction("0.1"),
         "smetric": BASE["space"]["smetric"]}),
     "checks[0].x0: no point at coordinate 0.05"),
    ("fixed_circle bad expectation",
     _doc({"check": "fixed_circle", "x0": 4, "expect_disc_fixed": 1}),
     "checks[0].expect_disc_fixed: must be a boolean"),
    # the universe and its tables
    ("point neither number nor string",
     _doc({"check": "axioms"}, space={**BASE["space"], "points": [0, True]}),
     "space.points[1]: must be a number or string"),
    ("table S-metric unknown label",
     _doc({"check": "axioms"}, space=_table_space(
         {"kind": "table", "entries": [["p", "p", "p", 0], ["p", "r", "q", 1]]})),
     "space.smetric.entries[1]: unknown point label 'r'"),
    ("table S-metric missing entry",
     _doc({"check": "axioms"}, space=_table_space(
         {"kind": "table", "entries": [["p", "p", "p", 0], ["q", "q", "q", 0]]})),
     "space.smetric.entries: missing entry for (p, p, q)"),
    ("no points", _doc({"check": "axioms"}, space={**BASE["space"], "points": []}),
     "space.points: must be a nonempty list"),
    ("duplicate points",
     _doc({"check": "axioms"}, space={**BASE["space"], "points": [1, 1]}),
     "space.points: duplicate point labels in universe"),
    ("formula S-metric on labels",
     _doc({"check": "axioms"}, space=_table_space(BASE["space"]["smetric"])),
     "space.points: a formula S-metric needs numeric points"),
    ("formula metric on labels",
     _doc({"check": "axioms"}, space=_table_space({
         "kind": "generated", "metric": {"kind": "formula", "expr": "abs(x - y)"}})),
     "space.points: a formula metric needs numeric points"),
    ("formula map on labels",
     _doc({"check": "axioms"}, space=_table_space(_TABLE_METRIC)),
     "map.expr: a formula map needs numeric points"),
    ("table map without entries",
     _doc({"check": "axioms"}, space=_table_space(_TABLE_METRIC),
          map=_table_map({})),
     "map.entries: must be a nonempty object"),
    ("table map unknown label",
     _doc({"check": "axioms"}, space=_table_space(_TABLE_METRIC),
          map=_table_map({"p": "q", "z": "p"})),
     "map.entries: unknown point label 'z'"),
    ("table map image off the universe",
     _doc({"check": "axioms"}, space=_table_space(_TABLE_METRIC),
          map=_table_map({"p": "r", "q": "p"})),
     "map.entries: image of 'p' is not a universe label"),
    ("table map missing entry",
     _doc({"check": "axioms"}, space=_table_space(_TABLE_METRIC),
          map=_table_map({"p": "q"})),
     "map.entries: no entry for point 'q'"),
    ("grid hi below lo", _doc({"check": "axioms"}, space=_grid(0, lo=1)),
     "space.hi: must be at least lo"),
    ("table metric unknown label",
     _doc({"check": "axioms"}, space=_table_space(
         {"kind": "generated", "metric": {
             "kind": "table", "entries": [["p", "q", 1], ["q", "r", 1]]}})),
     "space.smetric.metric.entries[1]: unknown point label 'r'"),
    ("generated metric wrong only at the grid's last node",
     _doc({"check": "axioms"}, space={
         "kind": "real_grid", "lo": 0, "hi": 49, "step": 1, "smetric": {
             "kind": "generated", "metric": {"kind": "formula", "expr":
                 "abs(x - y) * piecewise(x > 48 : 0, y > 48 : 0, else : 1)"}}}),
     "space.smetric.metric: d(0, 49) = 0 is not strictly positive"),
    ("generated table metric without an entry",
     _doc({"check": "generated"}, space={
         "kind": "finite", "points": ["p", "q", "r"], "smetric": {
             "kind": "generated", "metric": {"kind": "table", "entries": [
                 ["q", "r", 1], ["p", "r", 2]]}}}),
     "space.smetric.metric: no metric entry for (p, q)"),
    ("generated formula metric that raises",
     _doc({"check": "axioms"}, space={
         "kind": "finite", "points": [0, 1, 2], "smetric": {
             "kind": "generated", "metric": {
                 "kind": "formula", "expr": "abs(x - y) / (x - 1)"}}}),
     "space.smetric.metric: division by zero"),
    # every object of the document names its fields
    ("finite space unknown field",
     _doc({"check": "axioms"}, space={**BASE["space"], "step": 1}),
     "space.step: unknown field"),
    ("grid space unknown field",
     _doc({"check": "axioms"}, space={
         "kind": "real_grid", "lo": 0, "hi": 1, "step": 1, "points": [0],
         "smetric": BASE["space"]["smetric"]}),
     "space.points: unknown field"),
    ("S-metric unknown field",
     _doc({"check": "axioms"}, space={**BASE["space"], "smetric": {
         **BASE["space"]["smetric"], "entries": []}}),
     "space.smetric.entries: unknown field"),
    ("metric unknown field",
     _doc({"check": "axioms"}, space={**BASE["space"], "smetric": {
         "kind": "generated", "metric": {
             "kind": "formula", "expr": "abs(x - y)", "weight": 2}}}),
     "space.smetric.metric.weight: unknown field"),
    ("map unknown field",
     _doc({"check": "axioms"}, map={**BASE["map"], "entries": {}}),
     "map.entries: unknown field"),
    ("value sequence unknown field",
     _doc(_discontinuity(sequences=[{"values": [4], "expr": "4"}])),
     "checks[0].sequences[0].values: unknown field"),
    ("formula sequence unknown field",
     _doc(_discontinuity(sequences=[{"expr": "4", "n_to": 2, "step": 1}])),
     "checks[0].sequences[0].step: unknown field"),
    # limits of the document itself
    ("tolerance too large for a float",
     _doc({"check": "axioms"}, tolerance=Fraction("1e400")),
     "tolerance: is too large for a float"),
    ("formula nested too deep",
     _doc({"check": "axioms"},
          map={"kind": "formula", "expr": "(" * 100 + "x" + ")" * 100}),
     "map.expr: nested deeper than 100 levels at offset 99"),
    # the work a document asks for, one past each cap
    ("grid one node past the cap",
     _doc({"check": "axioms"}, space={
         "kind": "real_grid", "lo": 0, "hi": 100_000, "step": 1,
         "smetric": BASE["space"]["smetric"]}),
     "space.step: gives 100001 grid nodes, over the cap of 100000"),
    ("sequence one term past the cap",
     _doc(_discontinuity(sequences=[{"expr": "4", "n_to": 100_001}])),
     "checks[0].sequences[0].n_to: gives 100001 terms, over the cap of 100000"),
    ("sequences past the cap together",
     _doc(_discontinuity(sequences=[{"expr": "4", "n_to": 100_000}] * 2)),
     "checks[0].sequences: gives 200000 terms, over the cap of 100000"),
    ("condition_i sweep one row past the pair cap",
     _doc({"check": "condition_i", "mode": "strict"}, space=_grid(316)),
     "checks[0]: sweeps 100489 pairs, over the cap of 100000"),
    ("condition_ii sample one row past the pair cap",
     _doc({"check": "condition_ii", "sample": list(range(317))},
          space=_grid(400)),
     "checks[0]: sweeps 100489 pairs, over the cap of 100000"),
    ("symmetry sweep one row past the pair cap",
     _doc({"check": "symmetry"}, space=_grid(316)),
     "checks[0]: sweeps 100489 pairs, over the cap of 100000"),
    ("axioms sweep one point past the triple cap",
     _doc({"check": "axioms"}, space=_grid(46)),
     "checks[0]: sweeps 103823 triples, over the cap of 100000"),
    ("axioms sweep of a 1,001-node grid",
     _doc({"check": "axioms"}, space=_grid(1000)),
     "checks[0]: sweeps 1003003001 triples, over the cap of 100000"),
    ("triangle sample one point past the triple cap",
     _doc({"check": "triangle", "sample": list(range(47))}, space=_grid(100)),
     "checks[0]: sweeps 103823 triples, over the cap of 100000"),
    ("generated sweep one point past the triple cap",
     _doc({"check": "generated"}, space=_grid(46)),
     "checks[0]: sweeps 103823 triples, over the cap of 100000"),
    ("solve_power m one past the cap",
     _doc({"check": "solve_power", "x0": 0, "m": 200_001}),
     "checks[0].m: gives up to 1000005 map applications, "
     "over the cap of 1000000"),
    # every number read must fit in a float, as evidence and the report's
    # tolerance are floats
    ("table S-metric entry too large for a float",
     _doc({"check": "axioms"}, space=_table_space(
         {"kind": "table", "entries": [["p", "p", "p", 0],
                                       ["p", "p", "q", Fraction("1e400")]]})),
     "space.smetric.entries[1]: is too large for a float"),
    ("table metric entry too large for a float",
     _doc({"check": "axioms"}, space=_table_space(
         {"kind": "generated", "metric": {
             "kind": "table", "entries": [["p", "q", Fraction("1e400")]]}})),
     "space.smetric.metric.entries[0]: is too large for a float"),
    ("grid bound too large for a float",
     _doc({"check": "axioms"}, space={
         "kind": "real_grid", "lo": 0, "hi": Fraction("1e400"),
         "step": Fraction("1e399"), "smetric": BASE["space"]["smetric"]}),
     "space.hi: is too large for a float"),
    ("grid step too large for a float",
     _doc({"check": "axioms"}, space={
         "kind": "real_grid", "lo": 0, "hi": 1,
         "step": Fraction("1e400"), "smetric": BASE["space"]["smetric"]}),
     "space.step: is too large for a float"),
    ("check option too large for a float",
     _doc({"check": "fixed_circle", "x0": 4, "tol_circle": Fraction("1e400")}),
     "checks[0].tol_circle: is too large for a float"),
    ("integer option too large for a float",
     _doc({"check": "solve", "x0": 0, "max_iter": 10**400}),
     "checks[0].max_iter: is too large for a float"),
    ("sequence value too large for a float",
     _doc(_discontinuity(sequences=[[4, Fraction("-1e400")]])),
     "checks[0].sequences[0][1]: is too large for a float"),
]


@pytest.mark.parametrize(
    ("doc", "message"),
    [pytest.param(doc, message, id=case) for case, doc, message in ERRORS],
)
def test_check_errors_keep_their_text(doc, message):
    with pytest.raises(ConfigError) as excinfo:
        build_experiment(doc)
    assert str(excinfo.value) == message


def test_a_file_whose_top_level_is_not_an_object_exits_2(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(["run", "--input", str(path)])
    assert (code, err.getvalue()) == (
        2, f"error: {path}: top level must be an object\n"
    )


AT_THE_CAPS = {
    "grid": _doc({"check": "axioms", "sample": [0, 99_999]}, space={
        "kind": "real_grid", "lo": 0, "hi": 99_999, "step": 1,
        "smetric": BASE["space"]["smetric"]}),
    "sequence": _doc(_discontinuity(sequences=[{"expr": "4", "n_to": 100_000}])),
    "sequences": _doc(_discontinuity(sequences=[{"expr": "4", "n_to": 50_000}] * 2)),
    # 200,000 applications per step, for up to 4 + 1 steps on 4 points
    "solve_power": _doc({"check": "solve_power", "x0": 0, "m": 200_000}),
    # 316 * 316 = 99,856 pairs
    "pairs": _doc({"check": "condition_ii"}, space=_grid(315)),
    "symmetry": _doc({"check": "symmetry"}, space=_grid(315)),
    # 46 ** 3 = 97,336 triples
    "axioms": _doc({"check": "axioms"}, space=_grid(45)),
    "triangle": _doc(
        {"check": "triangle", "sample": list(range(46))}, space=_grid(100)
    ),
    "generated": _doc({"check": "generated"}, space=_grid(45)),
    # the 201-node grid of 40,401 pairs
    "scaled grid": _doc(
        {"check": "condition_i"}, space=_grid(10, Fraction("0.1"), -10)
    ),
}


@pytest.mark.parametrize("doc", AT_THE_CAPS.values(), ids=AT_THE_CAPS)
def test_documents_at_each_cap_still_load(doc):
    build_experiment(doc)


def _regenerate():
    codes = {}
    for case in CASES:
        code, text, stderr = _outcome(*case)
        key = _key(*case)
        codes[key] = [code, stderr]
        (GOLDEN / key).write_text(text)
    lines = [f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in codes.items()]
    (GOLDEN / "exits.json").write_text("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    _regenerate()
