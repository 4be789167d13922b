"""Benchmark workloads: seeded experiment files and their expected answers.

Every workload turns a seed into the experiment files smetriclab reads and
carries the answer each report must give.  The answers are derived from the
mathematics of the instance (see each class), never from smetriclab's own
output, so a wrong verdict counts as a failed op.  The seed changes values
only, never sizes, so every seed does the same amount of work.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

# Tolerance smetriclab applies when an experiment file names none (1e-9).
DEFAULT_TOL = Fraction(1, 10**9)


class Workload:
    """Inputs, per-op order and expected answers of one workload."""

    inputs: list[Path]
    expected_exit: dict[Path, int]

    def op_order(self) -> list[Path]:
        """Inputs of the next op, in the order they are run."""
        return list(self.inputs)

    def problems(self, path: Path, report: dict) -> list[str]:
        """Ways ``report`` (for ``path``) differs from the expected answer."""
        raise NotImplementedError


def _verdict_problems(
    report: dict, expected_checks: int, failing: set[str]
) -> list[str]:
    """Every check must run; those named in ``failing`` fail, others pass."""
    problems = []
    records = report["checks"]
    if len(records) != expected_checks:
        problems.append(f"{len(records)} check records, expected {expected_checks}")
    for record in records:
        want = "fail" if record["check"] in failing else "pass"
        if record["verdict"] != want:
            problems.append(f"{record['label']} is {record['verdict']}, expected {want}")
    return problems


def _record(report: dict, check: str) -> dict:
    return next(r for r in report["checks"] if r["check"] == check)


class Fixtures(Workload):
    """The four bundled fixtures, one pass over all four per op.

    Exit codes and failing checks follow the README table: Example 2.2 as
    printed has a condition (ii) window too wide just above eps = 3 and
    fails with exactly 10 violations; the corrected window, Example 3.3's
    fixed circle and the jump map's discontinuity at 1 all pass.
    """

    ANSWERS = {  # fixture -> (exit code, checks that fail)
        "example_2_2": (1, {"condition_ii"}),
        "example_2_2_corrected": (0, set()),
        "example_3_3": (0, set()),
        "discontinuity_0_2": (0, set()),
    }

    def __init__(self, seed: int, fixture_dir: Path):
        self.rng = random.Random(seed)
        self.inputs = [fixture_dir / f"{name}.json" for name in self.ANSWERS]
        self.expected_exit = {
            path: self.ANSWERS[path.stem][0] for path in self.inputs
        }
        self.declared = {
            path: len(json.loads(path.read_text())["checks"])
            for path in self.inputs
        }

    def op_order(self) -> list[Path]:
        return self.rng.sample(self.inputs, len(self.inputs))

    def problems(self, path: Path, report: dict) -> list[str]:
        failing = self.ANSWERS[path.stem][1]
        problems = _verdict_problems(report, self.declared[path], failing)
        if path.stem == "example_2_2":
            found = len(_record(report, "condition_ii")["violations"])
            if found != 10:
                problems.append(f"{found} condition_ii violations, expected 10")
        return problems


class GridVerify(Workload):
    """Contraction conditions (i) and (ii) on a decimal grid over [-10, 10].

    With S(x, y, z) = |x - z| + |y - z| and T x = x/2 + c, S(x, x, y) is
    2|x - y| and S(Tx, Tx, Ty) is |x - y|, so with a = 3/4 and b = c = 0
    M(x, y) = 3/2 |x - y|.  Condition (i) with phi(t) = 2t/3 then holds
    with equality on every pair.  Condition (ii) with delta(eps) = eps fails:
    a pair with M in (3/2 eps, 2 eps) lies in the window (eps, 2 eps) but
    has S(Tx, Tx, Ty) = M / (3/2) > eps.  The expected violation count is
    summed below over the probe grid the report documents (0.9 m,
    m - tol and gap midpoints of the realised M values m).
    """

    NODES = 21  # step 1; condition (ii) is the largest share of an op

    def __init__(self, seed: int, work: Path):
        # An integer offset keeps the same 11 images on the grid for every
        # seed, so the seed moves values but not work.
        offset = random.Random(seed).randint(-5, 5)
        sign = "+" if offset >= 0 else "-"
        step = Fraction(20, self.NODES - 1)
        doc = {
            "name": "grid_verify",
            "space": {
                "kind": "real_grid", "lo": -10, "hi": 10, "step": int(step),
                "smetric": {"kind": "formula", "expr": "abs(x - z) + abs(y - z)"},
            },
            "map": {"kind": "formula", "expr": f"x / 2 {sign} {abs(offset)}"},
            "params": {"a": 0.75, "b": 0, "c": 0},
            "gauge": {"phi": "2 * t / 3", "delta": "eps"},
            "checks": [
                {"check": "condition_i", "mode": "full"},
                {"check": "condition_ii"},
            ],
        }
        path = work / "grid_verify.json"
        path.write_text(json.dumps(doc))
        self.inputs = [path]
        self.expected_exit = {path: 1}
        self.pairs = self.NODES**2
        self.probes, self.violations = self._condition_ii_answer(step)

    def _condition_ii_answer(self, step: Fraction) -> tuple[int, int]:
        n, tol = self.NODES, DEFAULT_TOL
        # distance k steps apart: 2 (n - k) ordered pairs, M = 3/2 k step
        m = {k: Fraction(3, 2) * k * step for k in range(1, n)}
        probes = set()
        for k in range(1, n):
            probes.update((m[k] * Fraction(9, 10), m[k] - tol))
            if k + 1 < n:
                probes.add((m[k] + m[k + 1]) / 2)
        violations = sum(
            2 * (n - k)
            for eps in probes
            for k in range(1, n)
            if eps < m[k] < 2 * eps and m[k] * Fraction(2, 3) > eps + tol
        )
        return len(probes), violations

    def problems(self, path: Path, report: dict) -> list[str]:
        problems = _verdict_problems(report, 2, {"condition_ii"})
        first, second = _record(report, "condition_i"), _record(report, "condition_ii")
        for name, got, want in (
            ("condition_i pairs", first["pairs_checked"], self.pairs),
            ("condition_i violations", len(first["violations"]), 0),
            ("condition_ii pairs", second["pairs_checked"], self.pairs),
            ("condition_ii probes", len(second["eps_grid"]), self.probes),
            ("condition_ii violations", len(second["violations"]), self.violations),
        ):
            if got != want:
                problems.append(f"{name}: {got}, expected {want}")
        return problems


class AxiomsTable(Workload):
    """The distance-structure checks on a finite space with a table metric.

    S is generated from d(p_i, p_j) = |x_i - x_j|, a true metric on
    distinct integers x_i, so S satisfies S1 and S2, is symmetric, its
    induced distance 4d satisfies the triangle inequality, and S is
    generated by d.  All four checks pass.
    """

    POINTS = 12

    def __init__(self, seed: int, work: Path):
        n = self.POINTS
        xs = random.Random(seed).sample(range(-1000, 1001), n)
        labels = [f"p{i}" for i in range(n)]
        entries = [
            [labels[i], labels[j], abs(xs[i] - xs[j])]
            for i in range(n)
            for j in range(i + 1, n)
        ]
        doc = {
            "name": "axioms_table",
            "space": {
                "kind": "finite",
                "points": labels,
                "smetric": {
                    "kind": "generated",
                    "metric": {"kind": "table", "entries": entries},
                },
            },
            "checks": [
                {"check": "axioms"},
                {"check": "symmetry"},
                {"check": "triangle"},
                {"check": "generated", "expect": True},
            ],
        }
        path = work / "axioms_table.json"
        path.write_text(json.dumps(doc))
        self.inputs = [path]
        self.expected_exit = {path: 0}

    def problems(self, path: Path, report: dict) -> list[str]:
        n = self.POINTS
        problems = _verdict_problems(report, 4, set())
        axioms = _record(report, "axioms")
        if (axioms["triples_checked"], axioms["quadruples_checked"]) != (n**3, n**4):
            problems.append("axioms did not sweep every triple and quadruple")
        if not _record(report, "generated")["generated"]:
            problems.append("S is not reported as generated")
        return problems


def build(name: str, seed: int, src: Path, work: Path) -> Workload:
    if name == "fixtures":
        return Fixtures(seed, src / "smetriclab" / "fixtures")
    if name == "grid_verify":
        return GridVerify(seed, work)
    if name == "axioms_table":
        return AxiomsTable(seed, work)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("fixtures", "grid_verify", "axioms_table")
