"""Run the CLI on a scaled experiment and report what the run cost.

    python3 tools/scale_run.py {grid,jump} [--step STEP] [--format json|text]
                               [--limit-mb MB] [--runs N]

``grid`` is the 201-node grid: [-10, 10] at step 0.1, S = |x - z| + |y - z|,
map x/2 + 1, a = 3/4, phi = 2t/3 and delta = eps, checked by condition (i)
in ``full`` mode and condition (ii) over all 40,401 pairs.  ``jump`` is
the jump map of the bundled ``discontinuity_0_2`` fixture on its grid
[0, 2] at step 0.01, with phi = t/2 and delta = eps, checked by the same
two conditions; its condition (ii) finds 6,073,452 violations.  ``--step``
sets another grid step, for example a coarse one for a quick run.

The document is written to a temporary directory, and ``smetriclab run``
runs on it in a child process from this checkout's ``src``.  With
``--limit-mb``, the child alone runs under that address-space limit
(``RLIMIT_AS``).  The last line printed is one JSON object: the child's
exit code, its wall time, its peak resident set size, the report's size
in bytes and each condition check's violation total (``violations_total``
when the report gives one, else the number of records it lists); in the
JSON format also each ``condition_ii`` check's probe count (``probes``,
the length of its ``eps_grid``).  With ``--runs N`` the document runs N
times: each run prints its own line, and the last line, in the same
shape, gives the median wall time and the largest peak RSS over the runs,
with the other fields of the first run; it exits 1 when a run's exit
code, totals or probe counts differ from the first's.  Stdlib only; the
limit and the peak RSS need a POSIX system.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

_S = {"kind": "formula", "expr": "abs(x - z) + abs(y - z)"}
_CONDITIONS = [{"check": "condition_i", "mode": "full"}, {"check": "condition_ii"}]


def document(name: str, step: str | None) -> tuple[dict, str]:
    """The experiment document ``name``, with its grid step left as a
    placeholder, and the step: ``step`` or the document's own."""
    if name == "grid":
        return {
            "name": "scaled_grid",
            "space": {"kind": "real_grid", "lo": -10, "hi": 10,
                      "step": "@STEP@", "smetric": _S},
            "map": {"kind": "formula", "expr": "x / 2 + 1"},
            "params": {"a": 0.75, "b": 0, "c": 0},
            "gauge": {"phi": "2 * t / 3", "delta": "eps"},
            "checks": _CONDITIONS,
        }, step or "0.1"
    return {
        "name": "jump_grid",
        "space": {"kind": "real_grid", "lo": 0, "hi": 2, "step": "@STEP@",
                  "smetric": _S},
        "map": {"kind": "formula", "expr": "piecewise(x <= 1 : 1, else : 0)"},
        "params": {"a": 0, "b": 0.5, "c": 0},
        "gauge": {"phi": "t / 2", "delta": "eps"},
        "checks": _CONDITIONS,
    }, step or "0.01"


def write_document(name: str, step: str | None, directory: Path) -> Path:
    doc, step = document(name, step)
    path = directory / f"{doc['name']}.json"
    path.write_text(json.dumps(doc, indent=2).replace('"@STEP@"', step))
    return path


def _decimal(text: str) -> str:
    """A decimal literal, written into the document as it is."""
    if Fraction(text) <= 0:
        raise argparse.ArgumentTypeError(f"not a positive step: {text!r}")
    return text


def _count(text: str) -> int:
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"not a positive count: {text!r}")
    return int(text)


def _limit(megabytes: int):
    def apply():
        size = megabytes * 2**20
        resource.setrlimit(resource.RLIMIT_AS, (size, size))
    return apply


def counts(report: Path, fmt: str) -> dict[str, dict[str, int]]:
    """Each condition check's violation total, read from the report, and
    in the JSON format each ``condition_ii`` check's probe count."""
    if fmt == "text":
        found = re.findall(r"^\[\w+\] (condition_\S+): (\d+) violations",
                           report.read_text(), re.MULTILINE)
        return {"violations_total": {label: int(count) for label, count in found}}
    checks = json.loads(report.read_text())["checks"]
    return {
        "violations_total": {
            r["label"]: r.get("violations_total", len(r["violations"]))
            for r in checks if r["check"].startswith("condition_")
            and "violations" in r
        },
        "probes": {
            r["label"]: len(r["eps_grid"]) for r in checks if "eps_grid" in r
        },
    }


def run_once(args: argparse.Namespace, path: Path, report: Path) -> dict:
    """One ``smetriclab run`` of ``path`` in a child process, writing
    ``report``: the result line of the module docstring, without the
    report's counts.  The child's stderr is passed on."""
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"}
    started = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, "-m", "smetriclab", "run", "--input", str(path),
         "--output", str(report), "--format", args.format],
        env=env, stderr=subprocess.PIPE,
        preexec_fn=None if args.limit_mb is None else _limit(args.limit_mb),
    )
    stderr = child.stderr.read().decode()
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - started
    child.stderr.close()
    child.returncode = code = os.waitstatus_to_exitcode(status)
    size = report.stat().st_size if report.exists() else 0
    result = {
        "document": args.document,
        "format": args.format,
        "exit_code": code,
        "wall_s": round(wall, 3),
        "peak_rss_mb": round(usage.ru_maxrss / 1024, 1),  # KB on Linux
        "report_bytes": size,
        "violations_total": {},
    }
    if stderr:
        print(stderr, end="", file=sys.stderr)
    return result


def summary(results: list[dict]) -> dict:
    """The first result, with the median wall time and the largest peak
    RSS of them all."""
    return {
        **results[0],
        "wall_s": round(statistics.median(r["wall_s"] for r in results), 3),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
    }


def _outcome(result: dict) -> tuple:
    """What every run of one document must agree on; the report's size
    varies with its timing block."""
    return (result["exit_code"], result["violations_total"],
            result.get("probes"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("document", choices=("grid", "jump"))
    parser.add_argument("--step", type=_decimal, default=None,
                        help="grid step as a decimal (default 0.1 or 0.01)")
    parser.add_argument("--format", choices=("json", "text"), default="json")
    parser.add_argument("--limit-mb", type=int, default=None,
                        help="address-space limit of the child, in MB")
    parser.add_argument("--runs", type=_count, default=1,
                        help="how many times to run the document (default 1)")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        path = write_document(args.document, args.step, work)
        reports = [work / f"report{k}.out" for k in range(args.runs)]
        results = [run_once(args, path, report) for report in reports]
        # read only after every run: a child's peak RSS counts this
        # process's resident size when it was started
        for result, report in zip(results, reports):
            if result["report_bytes"]:
                result.update(counts(report, args.format))
            print(json.dumps(result))
    if len(results) == 1:
        return 0
    print(json.dumps(summary(results)))
    if any(_outcome(r) != _outcome(results[0]) for r in results[1:]):
        print("error: the runs' outcomes differ", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
