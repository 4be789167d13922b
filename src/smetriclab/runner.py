"""The check table, check execution and report assembly.

``CHECKS`` has one entry per check: its name and family, the options an
experiment entry may give and how each is read, what the check needs
from the experiment, the power of its sample's size that it sweeps, its
label, the function that executes it and its one-line text summary.
Each entry is made by the ``_check`` decorator on its execute function.
The loader, ``run``, ``render_text`` and the command line all read from
the table.

``run`` executes the declared checks in order.  A failing check never
stops the run; only an evaluation error does, in which case the partial
report is kept and marked aborted.  Reports are plain dicts that
``cli.write_json`` streams with the bytes of ``json.dumps(indent=2)``,
and are deterministic except for the top-level ``timing`` block: running
the same experiment twice must give byte-identical output once that
block is dropped.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Callable

from .circles import check_fixed_circle, verify_zamfirescu_x0
from .contraction import (
    condition_ii_probe,
    verify_condition_i,
    verify_phi_gauge,
    xi,
)
from .evidence import describe, records
from .experiment import (
    MAX_EVIDENCE,
    ExperimentSpec,
    boolean,
    coefficient,
    default,
    list_of,
    not_negative,
    number,
    one_of,
    optional,
    pair,
    point,
    positive,
    positive_int,
    power,
    sequences,
)
from .expr import ExprError
from .solver import discontinuity_criterion, fix_set, picard, solve_power
from .space import (
    SpaceError,
    check_axioms,
    check_symmetry,
    check_triangle,
    generating_metric_check,
)
from .version import __version__

_EXIT_BY_STATUS = {"pass": 0, "fail": 1, "aborted": 2}


@dataclass
class RunReport:
    report: dict
    status: str  # "pass" | "fail" | "aborted"

    @property
    def exit_code(self) -> int:
        return _EXIT_BY_STATUS[self.status]


def run(spec: ExperimentSpec) -> RunReport:
    """Execute the experiment's checks at the experiment's tolerance.

    The report's ``timing`` block gives the run's wall time and, under
    ``checks``, each executed check's label and wall time, an aborted
    check being the last."""
    started = time.perf_counter()
    records, timings = [], []
    counts = {"pass": 0, "fail": 0, "aborted": 0}
    for check in spec.checks:
        begun = time.perf_counter()
        try:
            passed, details = CHECKS[check.name].execute(
                spec, check.options, spec.tolerance
            )
            verdict = "pass" if passed else "fail"
        except (ExprError, SpaceError, ValueError, ZeroDivisionError,
                OverflowError) as e:
            verdict, details = "aborted", {"error": f"{type(e).__name__}: {e}"}
        records.append(
            {"check": check.name, "label": check.label, "verdict": verdict,
             **details}
        )
        timings.append({"label": check.label,
                        "elapsed_seconds": time.perf_counter() - begun})
        counts[verdict] += 1
        if verdict == "aborted":
            break
    elapsed = time.perf_counter() - started

    if counts["aborted"]:
        status = "aborted"
    elif counts["fail"]:
        status = "fail"
    else:
        status = "pass"

    report = {
        "tool": {"name": "smetriclab", "version": __version__},
        "experiment": {"name": spec.name, "hash": spec.digest},
        "tolerance": float(spec.tolerance),
        "config": spec.echo,
        "checks": records,
        "summary": {
            "total": len(spec.checks),
            "passed": counts["pass"],
            "failed": counts["fail"],
            "aborted": counts["aborted"],
            "status": status,
        },
        "timing": {"elapsed_seconds": elapsed, "checks": timings},
    }
    return RunReport(report, status)


def render_text(report: dict) -> str:
    """Human-oriented plain text rendering of a report."""
    lines = [
        f"experiment {report['experiment']['name']} "
        f"(hash {report['experiment']['hash'][:12]})"
    ]
    for record in report["checks"]:
        verdict = record["verdict"]
        if verdict in ("pass", "fail"):
            check = CHECKS.get(record["check"])
            summary = check.summary(record) if check else ""
        else:
            summary = record["error"]
        suffix = f": {summary}" if summary else ""
        lines.append(f"[{verdict.upper()}] {record['label']}{suffix}")
    s = report["summary"]
    lines.append(
        f"status: {s['status']} "
        f"({s['passed']} passed, {s['failed']} failed, {s['aborted']} aborted)"
    )
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Check:
    """One entry of the check table."""

    name: str
    family: str  # the subcommand that runs it
    #: option key -> reader (see ``experiment``), in the order reports list them
    options: dict[str, Callable]
    #: (spec, options, tol) -> (passed, JSON-ready evidence); a condition
    #: check's evidence list is an ``evidence.Rows`` of records
    execute: Callable
    #: JSON-ready record of a passed or failed run -> one line of text
    summary: Callable[[dict], str]
    #: what the experiment must declare, as ``experiment._NEEDS`` names it
    needs: tuple[str, ...] = ()
    #: options -> (subject, need) pairs that the chosen options add
    option_needs: Callable[[dict], tuple] = lambda options: ()
    #: k when the check sweeps every k-tuple of its sample, or else of the
    #: universe, unless it lists its pairs; 0 when it sweeps none
    sweep: int = 0
    #: ``str.format`` template over the options; None means the name
    label: str | None = None


CHECKS: dict[str, Check] = {}


def _check(name, family, options, summary, **rest):
    """Enter the decorated execute function in ``CHECKS``."""

    def enter(execute):
        CHECKS[name] = Check(name, family, options, execute, summary, **rest)
        return execute

    return enter


# Execute functions call the kernels through this module's names and
# return evidence made JSON-ready with ``describe``, or, for the
# conditions, as ``Rows`` that the report writer reads column by column.
# Either way a value that overflows a float aborts its check.

_SAMPLE = {"sample": optional(list_of(point))}
_PAIRS = {"pairs": optional(list_of(pair)), **_SAMPLE}
_ITERATION = {
    "x0": point,
    "max_iter": default(1000, positive_int),
    "tol": optional(not_negative),
}
_CENTER = {
    "x0": point,
    "a": coefficient("a"),
    "b": coefficient("b"),
    **_SAMPLE,
}


def _violations(record):
    total = record.get("violations_total", len(record["violations"]))
    return f"{total} violations"


def _fields(result, keys):
    """Evidence record of the named fields of a kernel's result; an int
    there is a count (a step, a period, an index), kept as it is."""
    fields = {key: getattr(result, key) for key in keys}
    return {k: v if type(v) is int else describe(v) for k, v in fields.items()}


def _meets(options, key, actual, details):
    """Whether ``actual`` is what the optional ``options[key]`` expects;
    a given expectation is recorded in the evidence."""
    expect = options[key]
    if expect is None:
        return True
    details[key] = expect
    return expect == actual


def _axiom_violations(record):
    s2 = record.get("s2_violations_total", len(record["s2_violations"]))
    return f"{len(record['s1_violations']) + s2} violations"


@_check("axioms", "axioms", _SAMPLE, _axiom_violations, sweep=3)
def _run_axioms(spec, options, tol):
    report = check_axioms(spec.space, options["sample"], tol, MAX_EVIDENCE)
    details = {
        "s1_violations": records(("triple", "value"), report.s1_violations),
        "s2_violations": records(
            ("quadruple", "lhs", "rhs"), report.s2_violations
        ),
    }
    if report.s2_total > len(report.s2_violations):
        details.update(s2_violations_total=report.s2_total, truncated=True)
    return report.passed, {
        **details,
        "triples_checked": report.triples_checked,
        "quadruples_checked": report.quadruples_checked,
    }


@_check("symmetry", "axioms", _SAMPLE, _violations, sweep=2)
def _run_symmetry(spec, options, tol):
    bad = check_symmetry(spec.space, options["sample"], tol)
    return not bad, {
        "violations": records(("x", "y", "forward", "backward"), bad)
    }


@_check("triangle", "axioms", _SAMPLE, _violations, sweep=3)
def _run_triangle(spec, options, tol):
    bad = check_triangle(spec.space, options["sample"], tol)
    return not bad, {
        "violations": records(("triple", "lhs", "rhs"), bad),
        "triples_checked": len(set(options["sample"] or spec.space.points)) ** 3,
    }


@_check(
    "generated", "axioms", {**_SAMPLE, "expect": optional(boolean)},
    lambda r: "generated" if r["generated"] else "not generated", sweep=3,
)
def _run_generated(spec, options, tol):
    report = generating_metric_check(spec.space, options["sample"], tol)
    details = {
        "generated": report.generated,
        "witness": None if report.witness is None else dict(zip(
            ("triple", "s_value", "candidate_value"), describe(report.witness)
        )),
        "triples_checked": report.triples_checked,
    }
    return _meets(options, "expect", report.generated, details), details


@_check("xi", "verify", {}, lambda r: f"xi = {r['xi']}", needs=("params",))
def _run_xi(spec, options, tol):
    value = xi(spec.params)
    return value < 1, {
        "xi": describe(value), **_fields(spec.params, ("a", "b", "c"))
    }


@_check(
    "phi_gauge", "verify", {"t_values": list_of(number)}, _violations,
    needs=("gauge.phi",),
)
def _run_phi_gauge(spec, options, tol):
    bad = verify_phi_gauge(spec.gauge, options["t_values"], tol)
    return not bad, {
        "t_values": describe(options["t_values"]),
        "violations": records(("t", "phi"), bad),
    }


def _explicit_pairs(spec, options):
    """The pairs to check and how many there are."""
    pairs = options["pairs"]
    if options["sample"] is not None:
        pairs = list(itertools.product(options["sample"], repeat=2))
    return pairs, len(pairs) if pairs is not None else len(spec.space) ** 2


_MODES = ("full", "simple", "strict")


def _capped(keys, rows):
    """The ``violations`` of a condition kernel's ``Rows`` under ``keys``,
    with their total and a truncation flag when the cap cut them."""
    details = {"violations": rows.named(keys)}
    if rows.total > len(rows):
        details.update(violations_total=rows.total, truncated=True)
    return details


def _mode_needs(options):
    """Every mode of condition (i) but strict compares against phi."""
    mode = options["mode"]
    return () if mode == "strict" else ((f"mode {mode!r}", "gauge.phi"),)


@_check(
    "condition_i", "verify",
    {
        "mode": default(
            "full", one_of(_MODES, "must be 'full', 'simple', or 'strict'")
        ),
        **_PAIRS,
    },
    _violations, needs=("a map", "params"), option_needs=_mode_needs,
    label="condition_i[{mode}]", sweep=2,
)
def _run_condition_i(spec, options, tol):
    pairs, checked = _explicit_pairs(spec, options)
    violations = verify_condition_i(
        spec.space, spec.mapping, spec.params, spec.gauge,
        pairs, options["mode"], tol, MAX_EVIDENCE,
    )
    return not violations, {
        "mode": options["mode"],
        "pairs_checked": checked,
        **_capped(("x", "y", "m", "s_t"), violations),
    }


def _first_window_violation(record):
    text = _violations(record)
    if record["violations"]:
        first = record["violations"][0]
        text += f"; first pair ({first['x']}, {first['y']}) at eps {first['eps']}"
    return text


@_check(
    "condition_ii", "verify",
    {"eps": optional(list_of(positive)), **_PAIRS},
    _first_window_violation, needs=("a map", "params", "gauge.delta"),
    sweep=2,
)
def _run_condition_ii(spec, options, tol):
    pairs, checked = _explicit_pairs(spec, options)
    grid, violations = condition_ii_probe(
        spec.space, spec.mapping, spec.params, spec.gauge,
        pairs, options["eps"], tol, MAX_EVIDENCE,
    )
    return not violations, {
        "pairs_checked": checked,
        "eps_grid": describe(grid),
        **_capped(("x", "y", "eps", "m", "s_t"), violations),
    }


def _orbit_summary(record):
    outcome = record["outcome"]
    if outcome["status"] == "converged":
        return f"converged to {outcome['u']} in {outcome['steps']} steps"
    if outcome["status"] == "snap_stalled":
        return (
            f"snap_stalled: the image {outcome['image']} of "
            f"{record['points'][-1]} snaps back onto it"
        )
    return outcome["status"]


def _power_summary(record):
    text = _orbit_summary(record)
    if record["fixed_by_base"] is False:
        text += "; the limit is not fixed by the map"
    return text


def _orbit(trace):
    keys = ("status", "u", "steps", "period")
    if trace.outcome.image is not None:
        keys += ("image",)
    return {
        "points": describe(trace.points),
        "alphas": describe(trace.alphas),
        "outcome": _fields(trace.outcome, keys),
    }


def _local(options, key, tol):
    return tol if options[key] is None else options[key]


@_check(
    "solve", "solve", _ITERATION, _orbit_summary, needs=("a map",),
    label="solve[x0={x0.label}]",
)
def _run_solve(spec, options, tol):
    trace = picard(
        spec.space, spec.mapping, options["x0"], options["max_iter"],
        _local(options, "tol", tol),
    )
    converged = trace.outcome.status == "converged"
    return converged, {"x0": describe(options["x0"]), **_orbit(trace)}


@_check(
    "solve_power", "solve", {**_ITERATION, "m": power}, _power_summary,
    needs=("a map",), label="solve_power[m={m}, x0={x0.label}]",
)
def _run_solve_power(spec, options, tol):
    result = solve_power(
        spec.space, spec.mapping, options["m"], options["x0"],
        options["max_iter"], _local(options, "tol", tol),
    )
    converged = result.trace.outcome.status == "converged"
    return converged and result.fixed_by_base is True, {
        "x0": describe(options["x0"]),
        "m": options["m"],
        **_orbit(result.trace),
        "fixed_by_base": result.fixed_by_base,
    }


@_check(
    "fix_set", "solve", {"expect": optional(list_of(point, may_be_empty=True))},
    lambda r: f"{len(r['fixed'])} fixed points", needs=("a map",),
)
def _run_fix_set(spec, options, tol):
    fixed = fix_set(spec.space, spec.mapping, labels=True)
    details = {"fixed": fixed}
    expect = options["expect"]
    if expect is not None:
        details["expect"] = describe(expect)
    # labels are canonical and unique within a space, so they compare as
    # the points do
    return expect is None or set(details["expect"]) == set(fixed), details


_CLASSIFICATIONS = ("continuous_at_u", "discontinuous_at_u", "inconclusive")


@_check(
    "discontinuity", "solve",
    {
        "u": point,
        "sequences": sequences,
        "limit_tol": optional(not_negative),
        "conv_tol": optional(not_negative),
        "tail_start": optional(positive_int),
        "window": optional(positive_int),
        "expect": optional(
            one_of(_CLASSIFICATIONS, "is not a known classification")
        ),
    },
    lambda r: r["classification"] + (f" ({r['note']})" if r["note"] else ""),
    needs=("a map", "params"), label="discontinuity[u={u.label}]",
)
def _run_discontinuity(spec, options, tol):
    verdict = discontinuity_criterion(
        spec.space, spec.mapping, spec.params, options["u"],
        [s.expand() for s in options["sequences"]],
        limit_tol=_local(options, "limit_tol", tol),
        conv_tol=options["conv_tol"],
        tail_start=options["tail_start"],
        window=options["window"],
        tol=tol,
    )
    details = {
        "u": describe(options["u"]),
        "classification": verdict.classification,
        "note": verdict.note,
        "overall_limsup": describe(verdict.overall_limsup),
        "sequences": [
            _fields(limit, ("index", "estimate", "spread", "conclusive", "window"))
            for limit in verdict.per_sequence
        ],
    }
    return _meets(options, "expect", verdict.classification, details), details


def _center(options):
    return {key: describe(options[key]) for key in ("x0", "a", "b")}


@_check(
    "zamfirescu", "circle", _CENTER, _violations, needs=("a map",),
    label="zamfirescu[x0={x0.label}]",
)
def _run_zamfirescu(spec, options, tol):
    sample = options["sample"]
    violations = verify_zamfirescu_x0(
        spec.space, spec.mapping, options["a"], options["b"],
        options["x0"], sample, tol,
    )
    return not violations, {
        **_center(options),
        "points_checked": len(sample) if sample else len(spec.space),
        "violations": records(("x", "lhs", "rhs"), violations),
    }


@_check(
    "fixed_circle", "circle",
    {
        **_CENTER,
        "tol_circle": optional(not_negative),
        "expect_circle_fixed": optional(boolean),
        "expect_disc_fixed": optional(boolean),
    },
    lambda r: f"rho = {r['rho']}, circle {len(r['circle'])} points, "
    f"disc {len(r['disc'])} points",
    needs=("a map",), label="fixed_circle[x0={x0.label}]",
)
def _run_fixed_circle(spec, options, tol):
    report = check_fixed_circle(
        spec.space, spec.mapping, options["a"], options["b"],
        options["x0"], options["sample"], tol, options["tol_circle"],
    )
    details = {
        **_center(options),
        "rho": describe(report.rho),
        "tol_circle": describe(report.tol_circle),
        "circle": describe(report.circle_points),
        "disc": describe(report.disc_points),
        "zamfirescu_violations": records(
            ("x", "lhs", "rhs"), report.zamfirescu_violations
        ),
        "hypothesis_violations": records(
            ("x", "s_t_x0"), report.hypothesis_violations
        ),
        "hypotheses_hold": report.hypotheses_hold,
        **_fields(report, ("circle_fixed", "disc_fixed", "nonfixed_witnesses")),
        "inconsistent": report.inconsistent,
    }
    circle_ok = _meets(
        options, "expect_circle_fixed", report.circle_fixed_within_tol, details
    )
    disc_ok = _meets(options, "expect_disc_fixed", report.disc_fixed_within_tol, details)
    return not report.inconsistent and circle_ok and disc_ok, details


#: Which subcommand runs which checks.
CHECK_FAMILIES = {
    family: tuple(c.name for c in CHECKS.values() if c.family == family)
    for family in dict.fromkeys(c.family for c in CHECKS.values())
}
