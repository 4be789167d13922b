"""Compare the end-to-end benchmark of two checkouts in alternating pairs.

    python3 tools/ab_bench.py PARENT CHANGE [--pairs 10] [--seconds 30]
                              [--workloads fixtures,grid_verify,axioms_table]
                              [--seed 1]

PARENT and CHANGE are the roots of two checkouts of this repository.  For
each pair and workload, both sides run ``perfbench/run.py --trace 0`` with
the same seed, one after the other; the side that goes first alternates
from pair to pair, so that a slow spell on the host falls on both.
Before every run the ``__pycache__`` directories under the side's ``src``
and ``perfbench`` are deleted, and the run gets PYTHONDONTWRITEBYTECODE=1,
so that neither side's ``setup_s`` depends on bytecode left by an earlier
run.

For each workload and end-to-end metric (the ``end_to_end`` list of
CHANGE's ``BENCHMARK.json``) it prints both medians over the pairs, the
interquartile range of the parent's runs, the change's relative delta, the
pairs the change won (strictly better, in the direction the metric names)
out of those run, a verdict, and the failed and attempted ops of each
side.  The verdict (``verdict``) is ``gain`` when at least ten pairs ran,
the change won at least nine tenths of them and the medians differ by
more than the parent's IQR; ``regression`` when the change's median is worse by more than the
metric's ``bound`` in ``BENCHMARK.json``; ``unresolved`` when the parent's
IQR is wider than that bound and not every run of the change is better
than every run of the parent; else ``same``.  The last line is the same
summary as one JSON object.  Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("fixtures", "grid_verify", "axioms_table")


def clear_bytecode(root: Path) -> None:
    for part in ("src", "perfbench"):
        for cache in (root / part).rglob("__pycache__"):
            shutil.rmtree(cache, ignore_errors=True)


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run in ``root``: its final JSON line."""
    clear_bytecode(root)
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, env=env, capture_output=True, text=True,
    )
    if done.returncode != 0:
        raise SystemExit(
            f"error: {root}: {workload} exited {done.returncode}:\n{done.stderr}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def verdict(row: dict, metric: dict) -> str:
    """``gain``, ``regression``, ``unresolved`` or ``same`` for one
    summary row of ``metric`` (a ``BENCHMARK.json`` entry)."""
    old, new, iqr = row["parent_median"], row["change_median"], row["parent_iqr"]
    better = old - new if metric["better"] == "lower" else new - old
    if row["pairs"] >= 10 and 10 * row["wins"] >= 9 * row["pairs"] and better > iqr:
        return "gain"
    if -better > metric["bound"] * abs(old):
        return "regression"
    if iqr > metric["bound"] * abs(old) and not row["all_better"]:
        return "unresolved"
    return "same"


def summarize(metrics: list[dict], runs: dict) -> dict:
    """Per workload and metric: medians, the parent's IQR and the wins."""
    summary = {}
    for workload, sides in runs.items():
        parent, change = sides["parent"], sides["change"]
        rows = {}
        for metric in metrics:
            name, lower = metric["name"], metric["better"] == "lower"
            old = [r["metrics"][name]["value"] for r in parent]
            new = [r["metrics"][name]["value"] for r in change]
            q1, q3 = quartiles(old)
            wins = sum((b < a) if lower else (b > a) for a, b in zip(old, new))
            row = rows[name] = {
                "parent_median": statistics.median(old),
                "change_median": statistics.median(new),
                "parent_iqr": q3 - q1,
                "wins": wins,
                "pairs": len(new),
                "all_better": max(new) < min(old) if lower else min(new) > max(old),
            }
            row["verdict"] = verdict(row, metric)
        summary[workload] = {
            "metrics": rows,
            "failed": {side: sum(r["failed"] for r in sides[side]) for side in sides},
            "attempted": {
                side: sum(r["attempted"] for r in sides[side]) for side in sides
            },
        }
    return summary


def report(summary: dict) -> None:
    print(f"{'workload':<13}{'metric':<13}{'parent':>12}{'change':>12}"
          f"{'parent IQR':>12}{'delta':>9}{'wins':>8}  verdict")
    for workload, result in summary.items():
        for name, row in result["metrics"].items():
            old, new = row["parent_median"], row["change_median"]
            delta = f"{100 * (new - old) / old:+.1f}%" if old else "n/a"
            print(f"{workload:<13}{name:<13}{old:>12.6g}{new:>12.6g}"
                  f"{row['parent_iqr']:>12.4g}{delta:>9}"
                  f"{row['wins']:>5}/{row['pairs']}  {row['verdict']}")
        failed, attempted = result["failed"], result["attempted"]
        print(f"{workload:<13}failed/attempted  parent "
              f"{failed['parent']}/{attempted['parent']}  change "
              f"{failed['change']}/{attempted['change']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    metrics = json.loads((sides["change"] / "BENCHMARK.json").read_text())["end_to_end"]
    workloads = args.workloads.split(",")
    runs = {w: {"parent": [], "change": []} for w in workloads}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for workload in workloads:
            for side in order:
                result = run_once(sides[side], workload, args.seed + pair, args.seconds)
                runs[workload][side].append(result)
                print(f"pair {pair + 1}/{args.pairs} {workload} {side}: "
                      f"{json.dumps(result['metrics'])}", file=sys.stderr, flush=True)
    summary = summarize(metrics, runs)
    report(summary)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
