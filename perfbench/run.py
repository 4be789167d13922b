"""End-to-end and per-layer benchmark of the smetriclab CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

All three workloads, end to end:

    for w in fixtures grid_verify axioms_table; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 30 --trace 0
    done

Run from the root of a checkout.  smetriclab is imported from ``src/`` and
driven in process through ``smetriclab.cli.main(["run", ...])``, one
experiment file per call, with the report written by ``--output`` to a
scratch file.  One client runs a closed loop in one thread: the next op
starts when the previous one has been checked.  An op is one ``cli.main``
call, or for ``fixtures`` one pass over the four bundled fixtures.

End-to-end metrics (``--trace 0``):

    setup_s      median over fresh interpreters of importing smetriclab
                 and loading every input, before the timed loop
    op_p50_ms    median op time
    op_tail_ms   the highest percentile of op time with at least ten ops
                 beyond it; the percentile and op count are printed
    ops_per_s    ops per second of time spent inside ``cli.main``
    peak_rss_mb  peak resident memory of the benchmark process

The error rate, failed ops over attempted ops, is printed and carried by
``failed`` and ``attempted``.  An op fails when it raises, when its exit
code differs from the workload's expected answer, or when its report
without the ``timing`` block differs from the first op's report for the
same input; that first report is checked against the expected verdicts
(see ``workloads.py``).  One warm-up op runs untimed.

Every time is calibrated (see ``calibration.py``): each ``cli.main`` call
is scaled by the calibrations run just before and after it, and each
set-up probe by calibrations run right after it in the same interpreter.
Times therefore read as times on the reference host; the uncalibrated op
median is printed too.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced ops and prints the per-layer metrics (``PER_LAYER``):
counts and times are means per traced op, ``*self_ms`` times and
``cli.serialize_ms`` exclude child spans while other ``_ms`` times include
them, ratios are taken over all traced ops, and ``trace.overhead_ratio`` is
the traced op median over the untraced one.  The spans of the first traced op are
written under ``.perfbench_work/`` (summarise them with ``spans.py``).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit code 2 means
the benchmark could not run; no result is printed then.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workloads
from calibration import Calibrated
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_RUNS = 11
SETUP_TIMEOUT_S = 60


def _ms(seconds: float) -> float:
    return seconds * 1000


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# name -> (unit, value from the tracer's totals over all traced ops); every
# value but a ratio is divided by the number of traced ops
PER_LAYER = {
    "expr.formula_calls": ("count", lambda t: t.calls["expr.formula"]),
    "expr.formula_self_ms": ("ms", lambda t: _ms(t.self_time["expr.formula"])),
    "experiment.load_ms": ("ms", lambda t: _ms(t.total["experiment.load"])),
    "experiment.grid_nodes": ("count", lambda t: t.counts["experiment.grid_nodes"]),
    "space.s_evals": ("count", lambda t: t.calls["space.s"]),
    "space.s_self_ms": ("ms", lambda t: _ms(t.self_time["space.s"])),
    "space.resolve_calls": ("count", lambda t: t.calls["space.resolve"]),
    "space.axioms_ms": ("ms", lambda t: _ms(t.total["space.axioms"])),
    "space.axioms.quadruples": ("count", lambda t: t.counts["space.axioms.quadruples"]),
    "space.triangle_ms": ("ms", lambda t: _ms(t.total["space.triangle"])),
    "space.generated_ms": ("ms", lambda t: _ms(t.total["space.generated"])),
    "space.symmetry_ms": ("ms", lambda t: _ms(t.total["space.symmetry"])),
    "mapping.applies": ("count", lambda t: t.calls["mapping.apply"]),
    "mapping.self_ms": ("ms", lambda t: _ms(t.self_time["mapping.apply"])),
    "contraction.condition_i_ms": (
        "ms", lambda t: _ms(t.total["contraction.condition_i"])),
    "contraction.condition_i.pairs": (
        "count", lambda t: t.counts["contraction.condition_i.pairs"]),
    "contraction.condition_i.applies_per_pair": ("ratio", lambda t: _ratio(
        t.calls_in["contraction.condition_i", "mapping.apply"],
        t.counts["contraction.condition_i.pairs"])),
    "contraction.condition_ii_ms": (
        "ms", lambda t: _ms(t.total["contraction.condition_ii"])),
    "contraction.condition_ii.window_tests": (
        "count", lambda t: t.counts["contraction.condition_ii.window_tests"]),
    "contraction.condition_ii.violations": (
        "count", lambda t: t.counts["contraction.condition_ii.violations"]),
    "contraction.condition_ii.violations_per_window_test": ("ratio", lambda t: _ratio(
        t.counts["contraction.condition_ii.violations"],
        t.counts["contraction.condition_ii.window_tests"])),
    "solver.picard_ms": ("ms", lambda t: _ms(t.total["solver.picard"])),
    "solver.picard_steps": ("count", lambda t: t.counts["solver.picard_steps"]),
    "solver.fix_set_ms": ("ms", lambda t: _ms(t.total["solver.fix_set"])),
    "solver.discontinuity_ms": ("ms", lambda t: _ms(t.total["solver.discontinuity"])),
    "circles.fixed_circle_ms": ("ms", lambda t: _ms(t.total["circles.fixed_circle"])),
    "circles.fixed_circle.s_evals_per_point": ("ratio", lambda t: _ratio(
        t.calls_in["circles.fixed_circle", "space.s"],
        t.counts["circles.fixed_circle.points"])),
    "circles.zamfirescu_ms": ("ms", lambda t: _ms(t.total["circles.zamfirescu"])),
    "runner.run_ms": ("ms", lambda t: _ms(t.total["runner.run"])),
    "runner.self_ms": ("ms", lambda t: _ms(t.self_time["runner.run"])),
    "runner.report_bytes": ("B", lambda t: t.counts["runner.report_bytes"]),
    "cli.main_ms": ("ms", lambda t: _ms(t.total["cli.main"])),
    "cli.serialize_ms": ("ms", lambda t: _ms(t.self_time["cli.main"])),
}


def _strip_timing(text: str) -> str | None:
    """The report text before its final ``timing`` block."""
    cut = text.rfind('\n  "timing": {')
    return text[:cut] if cut >= 0 else None


class Checker:
    """Checks each report against the workload's answer and the first op."""

    def __init__(self, workload: workloads.Workload):
        self.workload = workload
        self.reference: dict[Path, str] = {}

    def problems(self, path: Path, code: int, text: str) -> list[str]:
        want = self.workload.expected_exit[path]
        problems = [] if code == want else [f"exit code {code}, expected {want}"]
        body = _strip_timing(text)
        if body is None:
            return problems + ["report has no timing block"]
        if path not in self.reference:
            self.reference[path] = body
            return problems + self.workload.problems(path, json.loads(text))
        if body != self.reference[path]:
            problems.append("report differs from the first op's report")
        return problems


def run_op(cli_main, order, checker, output: Path, calibrated, tracer=None):
    """One op over the inputs in ``order``.

    Each ``cli.main`` call is timed between two calibrations.  Returns the
    calibrated and the raw seconds inside ``cli.main``, and the problems.
    """
    seconds, raw, problems = 0.0, 0.0, []
    for path in order:
        output.unlink(missing_ok=True)
        started = perf_counter()
        try:
            code = cli_main(["run", "--input", str(path), "--output", str(output)])
        except Exception as e:  # an op that raises is a failed op, not a crash
            problems.append(f"{path.name}: {type(e).__name__}: {e}")
            continue
        elapsed = perf_counter() - started
        factor = calibrated.scale()
        if tracer is not None:
            tracer.fold(factor)
        seconds += elapsed * factor
        raw += elapsed
        if not output.exists():
            problems.append(f"{path.name}: exit code {code} and no report")
            continue
        text = output.read_text()
        if tracer is not None:  # timing varies in length; the rest repeats
            tracer.counts["runner.report_bytes"] += len(_strip_timing(text) or text)
        problems += [f"{path.name}: {p}" for p in checker.problems(path, code, text)]
    return seconds, raw, problems


def measure_setup(inputs: list[Path]) -> float:
    """Median calibrated seconds of import plus load in fresh interpreters."""
    probe = Path(__file__).with_name("setup_probe.py")
    command = [sys.executable, str(probe), str(SRC), *map(str, inputs)]
    times = []
    for _ in range(SETUP_RUNS):
        done = subprocess.run(
            command, capture_output=True, text=True, check=True,
            timeout=SETUP_TIMEOUT_S,
        )
        times.append(float(done.stdout))
    return statistics.median(times)


def tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten ops beyond it, and its value."""
    ordered = sorted(times)
    if len(ordered) < 11:
        return 100.0, ordered[-1]
    rank = len(ordered) - 11
    return 100 * (rank + 1) / len(ordered), ordered[rank]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "smetriclab" / "__init__.py").is_file():
        print(f"error: no smetriclab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from smetriclab import cli

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        workload = workloads.build(args.workload, args.seed, SRC, work)
        setup_s = None if args.trace else measure_setup(workload.inputs)
        output = work / "report.json"
        checker = Checker(workload)
        tracer = Tracer() if args.trace else None

        calibrated = Calibrated()
        *_, failures = run_op(
            cli.main, workload.op_order(), checker, output, calibrated)
        attempted, failed = 1, int(bool(failures))
        plain, traced, raw, spanned_inputs = [], [], [], []
        started = perf_counter()
        # at least one timed op, and in a traced run one of each kind
        while (perf_counter() - started < args.seconds or not plain
               or (tracer and not traced)):
            order = workload.op_order()
            spanned = tracer is not None and attempted % 2 == 0
            if spanned:
                tracer.recording = not traced
                if tracer.recording:
                    spanned_inputs = [path.name for path in order]
                with tracer.installed():
                    seconds, _, problems = run_op(
                        tracer.span("cli.main", cli.main), order, checker,
                        output, calibrated, tracer)
                traced.append(seconds)
            else:
                seconds, raw_seconds, problems = run_op(
                    cli.main, order, checker, output, calibrated)
                plain.append(seconds)
                raw.append(raw_seconds)
            attempted += 1
            failed += bool(problems)
            failures += problems
    finally:
        shutil.rmtree(work)

    print(f"workload {args.workload}  seed {args.seed}  python "
          f"{platform.python_version()}  cpus {os.cpu_count()}")
    for problem in dict.fromkeys(failures):
        print(f"FAILED {problem}")
    print(f"error_rate {failed / attempted:.6g} ratio ({failed} failed of {attempted} ops)")
    print(f"host speed factor median {statistics.median(calibrated.factors):.4f}; "
          f"uncalibrated op p50 {_ms(statistics.median(raw)):.6g} ms")

    if tracer is None:
        share, tail_s = tail(plain)
        values = {
            "setup_s": (setup_s, "s"),
            "op_p50_ms": (_ms(statistics.median(plain)), "ms"),
            "op_tail_ms": (_ms(tail_s), "ms"),
            "ops_per_s": (len(plain) / sum(plain), "1/s"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        print(f"op_tail_ms is p{share:.1f} of {len(plain)} timed ops")
    else:
        values = {
            name: (value(tracer) / (1 if unit == "ratio" else len(traced)), unit)
            for name, (unit, value) in PER_LAYER.items()
        }
        values["trace.overhead_ratio"] = (
            statistics.median(traced) / statistics.median(plain), "ratio")
        spans_file = WORK / f"spans-{args.workload}-{args.seed}.json"
        spans_file.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "inputs": spanned_inputs,
            "fields": ["id", "parent", "name", "start_s", "end_s"],
            "spans": tracer.spans,
        }))
        print(f"{len(traced)} traced and {len(plain)} untraced ops; "
              f"spans of the first traced op in {spans_file.relative_to(ROOT)}")
    for name, (value, unit) in values.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in values.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
