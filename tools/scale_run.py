"""Run the CLI on a scaled experiment and report what the run cost.

    python3 tools/scale_run.py {grid,jump} [--step STEP] [--format json|text]
                               [--limit-mb MB]

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
the length of its ``eps_grid``).  Stdlib only; the limit and the peak RSS
need a POSIX system.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("document", choices=("grid", "jump"))
    parser.add_argument("--step", type=_decimal, default=None,
                        help="grid step as a decimal (default 0.1 or 0.01)")
    parser.add_argument("--format", choices=("json", "text"), default="json")
    parser.add_argument("--limit-mb", type=int, default=None,
                        help="address-space limit of the child, in MB")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        path = write_document(args.document, args.step, work)
        report = work / "report.out"
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
        if size:
            result.update(counts(report, args.format))
    if stderr:
        print(stderr, end="", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
