"""Point universes and the distance structures defined on them.

A space is a finite list of points (either bare labels or exact rational
coordinates) or a closed decimal grid [lo, hi] with a fixed step.  On top
of the universe sits a three-argument distance S(x, y, z), given by an
explicit table, by a formula in x, y, z, or generated from an ordinary
two-argument metric d via

    S_d(x, y, z) = d(x, z) + d(y, z).

The two defining laws checked here, over every sampled triple/quadruple:

    S1: S(x, y, z) = 0  iff  x = y = z
    S2: S(x, y, z) <= S(x, x, a) + S(y, y, a) + S(z, z, a)

All checks take a strictness margin ``tol``: a strict inequality must
clear its bound by at least ``tol`` to count as satisfied.

The exhaustive sweeps evaluate each value of S (or d) once and compare
exact integers over one common denominator of the values and ``tol``.
Per outer tuple, the least right-hand side over the inner index certifies
it at once; only tuples that fail it are scanned, reporting exact values.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add, sub

from .expr import Formula
from .numeric import DEFAULT_TOL, format_decimal, to_fraction


class SpaceError(Exception):
    """Base class for universe and distance-structure failures."""


class UnknownPointError(SpaceError):
    """A label or coordinate does not resolve inside the universe."""


class MetricAxiomError(SpaceError):
    """A claimed metric failed validation; the message names a witness."""


class UnsupportedSpaceError(SpaceError):
    """The operation requires a space kind other than the one given."""


@dataclass(frozen=True)
class Point:
    """A universe element: a label, plus its coordinate when numeric."""

    label: str
    value: Fraction | None = None

    def __repr__(self) -> str:  # keep test output short
        return f"Point({self.label})"


def as_point(ref: object) -> Point:
    """Build a point from a label, a number, or an existing point."""
    if isinstance(ref, Point):
        return ref
    if isinstance(ref, str):
        return Point(ref)
    value = to_fraction(ref)
    return Point(format_decimal(value), value)


class Metric:
    """Two-argument distance interface."""

    def distance(self, x: Point, y: Point) -> Fraction:
        raise NotImplementedError


class TableMetric(Metric):
    """Metric given by explicit entries keyed on point labels.

    Missing mirror entries are filled by symmetry and missing diagonal
    entries by zero; explicitly supplied values always win so that a bad
    table is still caught by validation.
    """

    def __init__(self, entries: dict[tuple[str, str], Fraction]):
        full = dict(entries)
        for (x, y), v in entries.items():
            full.setdefault((y, x), v)
        for x, y in list(full):
            full.setdefault((x, x), Fraction(0))
            full.setdefault((y, y), Fraction(0))
        self.entries = full

    def distance(self, x: Point, y: Point) -> Fraction:
        try:
            return self.entries[(x.label, y.label)]
        except KeyError:
            raise UnknownPointError(
                f"no metric entry for ({x.label}, {y.label})"
            ) from None


class FormulaMetric(Metric):
    """Metric computed from a formula in x and y."""

    def __init__(self, formula: Formula):
        self.formula = formula

    def distance(self, x: Point, y: Point) -> Fraction:
        return self.formula(_coordinate(x), _coordinate(y))


class SMetric:
    """Three-argument distance interface."""

    def triple(self, x: Point, y: Point, z: Point) -> Fraction:
        raise NotImplementedError


class TableSMetric(SMetric):
    """S given by explicit entries for every ordered triple of labels."""

    def __init__(self, entries: dict[tuple[str, str, str], Fraction]):
        self.entries = dict(entries)

    def triple(self, x: Point, y: Point, z: Point) -> Fraction:
        try:
            return self.entries[(x.label, y.label, z.label)]
        except KeyError:
            raise UnknownPointError(
                f"no S entry for ({x.label}, {y.label}, {z.label})"
            ) from None


class FormulaSMetric(SMetric):
    """S computed from a formula in x, y, z."""

    def __init__(self, formula: Formula):
        self.formula = formula

    def triple(self, x: Point, y: Point, z: Point) -> Fraction:
        return self.formula(_coordinate(x), _coordinate(y), _coordinate(z))


class GeneratedSMetric(SMetric):
    """S built from an ordinary metric: S(x, y, z) = d(x, z) + d(y, z)."""

    def __init__(self, metric: Metric):
        self.metric = metric

    def triple(self, x: Point, y: Point, z: Point) -> Fraction:
        d = self.metric.distance
        return d(x, z) + d(y, z)


class GridBoundError(ValueError):
    """A grid bound out of range: ``bound`` names it, ``reason`` says why."""

    def __init__(self, bound: str, reason: str):
        super().__init__(f"{bound}: {reason}")
        self.bound, self.reason = bound, reason


def grid_steps(lo: Fraction, hi: Fraction, step: Fraction) -> int:
    """Steps from lo to the last grid node lo + i * step <= hi."""
    if step <= 0:
        raise GridBoundError("step", "grid step must be positive")
    if hi < lo:
        raise GridBoundError("hi", "must be at least lo")
    span = (hi - lo) / step
    return span.numerator // span.denominator


#: Nodes of a larger grid's subsample: the nodes a generated metric is
#: validated on, and the sample of the command line's synthesized sweeps.
SUBSAMPLE_NODES = 24


def subsample(count: int) -> range | list[int]:
    """Indices of ``SUBSAMPLE_NODES`` evenly spaced items out of ``count``,
    both ends included; every index when there are no more than that."""
    last = count - 1
    if last < SUBSAMPLE_NODES:
        return range(count)
    return [i * last // (SUBSAMPLE_NODES - 1) for i in range(SUBSAMPLE_NODES)]


def _coordinate(p: Point) -> Fraction:
    if p.value is None:
        raise UnknownPointError(f"point {p.label!r} has no numeric coordinate")
    return p.value


class Space:
    """A universe of points with an S-metric attached.

    ``kind`` is "finite" for an explicit point list and "real_grid" for the
    uniform decimal grid.  A grid universe is still a finite collection;
    the kind controls grid-specific behavior such as snapping map images
    and the default circle-membership tolerance.
    """

    def __init__(
        self,
        kind: str,
        points: tuple[Point, ...],
        smetric: SMetric,
        lo: Fraction | None = None,
        hi: Fraction | None = None,
        step: Fraction | None = None,
    ):
        self.kind = kind
        self.points = points
        self.smetric = smetric
        self.lo = lo
        self.hi = hi
        self.step = step
        self._by_label = {p.label: p for p in points}
        if len(self._by_label) != len(points):
            raise ValueError("duplicate point labels in universe")
        self._by_value = {p.value: p for p in points if p.value is not None}

    @classmethod
    def finite(cls, points: list[object], smetric: SMetric) -> "Space":
        return cls("finite", tuple(as_point(p) for p in points), smetric)

    @classmethod
    def real_grid(
        cls, lo: object, hi: object, step: object, smetric: SMetric
    ) -> "Space":
        lo_f, hi_f, step_f = to_fraction(lo), to_fraction(hi), to_fraction(step)
        points = tuple(
            as_point(lo_f + i * step_f)
            for i in range(grid_steps(lo_f, hi_f, step_f) + 1)
        )
        return cls("real_grid", points, smetric, lo_f, hi_f, step_f)

    def __len__(self) -> int:
        return len(self.points)

    def __contains__(self, ref: object) -> bool:
        try:
            self.resolve(ref)
        except UnknownPointError:
            return False
        return True

    def resolve(self, ref: object) -> Point:
        """Return the universe point for a label, coordinate, or point."""
        if isinstance(ref, Point):
            ref = ref.label if ref.value is None else ref.value
        if isinstance(ref, str):
            try:
                return self._by_label[ref]
            except KeyError:
                raise UnknownPointError(f"unknown point label {ref!r}") from None
        value = to_fraction(ref)
        try:
            return self._by_value[value]
        except KeyError:
            raise UnknownPointError(
                f"no point at coordinate {format_decimal(value)}"
            ) from None

    def coerce(self, ref: object) -> Point:
        """Like :meth:`resolve`, but coordinates off the universe are kept
        as free-standing points so formula distances can still evaluate."""
        if isinstance(ref, Point):
            return self._by_label.get(ref.label, ref)
        if isinstance(ref, str):
            return self.resolve(ref)
        value = to_fraction(ref)
        return self._by_value.get(value) or as_point(value)

    def sampled(self, sample: list[object] | None) -> list[Point]:
        """The sample's points, or the whole universe when none is given."""
        return [self.coerce(p) for p in sample] if sample else list(self.points)

    def s(self, x: object, y: object, z: object) -> Fraction:
        """S(x, y, z) for universe points, labels, or raw coordinates."""
        return self.smetric.triple(self.coerce(x), self.coerce(y), self.coerce(z))

    def nearest(self, value: Fraction) -> tuple[Point, Fraction]:
        """Closest grid point to ``value`` and the distance to it."""
        if self.kind != "real_grid":
            raise UnsupportedSpaceError("nearest() needs a real_grid space")
        assert self.lo is not None and self.step is not None
        offset = (value - self.lo) / self.step
        i = offset.numerator // offset.denominator
        if offset - i > Fraction(1, 2):
            i += 1
        i = min(max(i, 0), len(self.points) - 1)
        point = self.points[i]
        assert point.value is not None
        return point, abs(value - point.value)


@dataclass
class AxiomReport:
    """Outcome of the S1/S2 sweep with every violating tuple listed."""

    s1_violations: list[tuple[tuple[Point, Point, Point], Fraction]]
    s2_violations: list[
        tuple[tuple[Point, Point, Point, Point], Fraction, Fraction]
    ]
    triples_checked: int
    quadruples_checked: int

    @property
    def passed(self) -> bool:
        return not self.s1_violations and not self.s2_violations


def _scaled(values: list[Fraction]) -> list[int]:
    """Exact ``values`` as integers over one common denominator."""
    den = math.lcm(*{v.denominator for v in values})
    return [v.numerator * (den // v.denominator) for v in values]


def check_axioms(
    space: Space,
    sample: list[object] | None = None,
    tol: object = DEFAULT_TOL,
) -> AxiomReport:
    """Exhaustively test S1 and S2 over a sample (default: the universe).

    S1 demands S = 0 on diagonal triples and S >= tol off the diagonal,
    which also rejects negative values.  S2 is tested over all ordered
    quadruples with additive slack tol.  S is evaluated once per triple,
    in ``itertools.product`` order; S2 is certified per triple over all a.
    """
    tol = to_fraction(tol)
    pts = space.sampled(sample)
    n = len(pts)
    triples = list(itertools.product(range(n), repeat=3))
    values = [space.smetric.triple(pts[i], pts[j], pts[k]) for i, j, k in triples]
    t, *scaled = _scaled([tol, *values])

    s1 = [
        ((pts[i], pts[j], pts[k]), v)
        for (i, j, k), v, w in zip(triples, values, scaled)
        if (abs(w) > t if i == j == k else w < t)
    ]

    start = [(i * n + i) * n for i in range(n)]  # of the values S(i, i, .)
    rows, exact = ([v[at:at + n] for at in start] for v in (scaled, values))
    s2: list[tuple[tuple[Point, Point, Point, Point], Fraction, Fraction]] = []
    for i, j in itertools.product(range(n), repeat=2):
        ij = list(map(add, rows[i], rows[j]))
        base = (i * n + j) * n
        for k, rk in enumerate(rows):
            bound = scaled[base + k] - t
            if bound > min(map(add, ij, rk)):
                s2 += [
                    ((pts[i], pts[j], pts[k], pts[a]), values[base + k],
                     exact[i][a] + exact[j][a] + exact[k][a])
                    for a, rhs in enumerate(map(add, ij, rk)) if bound > rhs
                ]
    return AxiomReport(s1, s2, n**3, n**4)


def check_symmetry(
    space: Space,
    sample: list[object] | None = None,
    tol: object = DEFAULT_TOL,
) -> list[tuple[tuple[Point, Point], Fraction, Fraction]]:
    """Pairs where S(x, x, y) and S(y, y, x) disagree beyond tol.

    Any space satisfying S1 and S2 has none; this probes that directly.
    """
    tol = to_fraction(tol)
    pts = space.sampled(sample)
    bad = []
    for x, y in itertools.combinations(pts, 2):
        forward = space.smetric.triple(x, x, y)
        backward = space.smetric.triple(y, y, x)
        if abs(forward - backward) > tol:
            bad.append(((x, y), forward, backward))
    return bad


def s_from_metric(
    metric: Metric,
    points: list[object] | None = None,
    tol: object = DEFAULT_TOL,
) -> GeneratedSMetric:
    """Validate ``metric`` on ``points`` and wrap it as an S-metric.

    Raises :class:`MetricAxiomError` naming the first witness when the
    table or formula is not actually a metric.  For table metrics the
    sample defaults to every label in the table.  Each distance is
    evaluated once, and the triangle is certified per pair over all z.
    """
    tol = to_fraction(tol)
    if points is None:
        if not isinstance(metric, TableMetric):
            raise ValueError("points are required for a formula metric")
        labels = sorted({x for pair in metric.entries for x in pair})
        pts = [Point(lbl) for lbl in labels]
    else:
        pts = [as_point(p) for p in points]

    d = functools.cache(metric.distance)
    for x in pts:
        if abs(d(x, x)) > tol:
            raise MetricAxiomError(
                f"d({x.label}, {x.label}) = {format_decimal(d(x, x))}, not 0"
            )
    for x, y in itertools.permutations(pts, 2):
        if d(x, y) < tol:
            raise MetricAxiomError(
                f"d({x.label}, {y.label}) = {format_decimal(d(x, y))} "
                "is not strictly positive"
            )
        if abs(d(x, y) - d(y, x)) > tol:
            raise MetricAxiomError(
                f"asymmetry: d({x.label}, {y.label}) != d({y.label}, {x.label})"
            )
    n = len(pts)
    t, *scaled = _scaled([tol, *(d(x, y) for x in pts for y in pts)])
    rows = [scaled[i * n:(i + 1) * n] for i in range(n)]
    for i, j in itertools.product(range(n), repeat=2):
        # d(x, z) - d(y, z) <= d(x, y) + tol for every z at once
        bound = rows[i][j] + t
        if max(map(sub, rows[i], rows[j])) > bound:
            k = next(k for k in range(n) if rows[i][k] - rows[j][k] > bound)
            raise MetricAxiomError(
                f"triangle inequality fails at "
                f"({pts[i].label}, {pts[j].label}, {pts[k].label})"
            )
    return GeneratedSMetric(metric)


@dataclass
class TriangleReport:
    violations: list[tuple[tuple[Point, Point, Point], Fraction, Fraction]]
    triples_checked: int

    @property
    def passed(self) -> bool:
        return not self.violations


def check_triangle(
    space: Space,
    sample: list[object] | None = None,
    tol: object = DEFAULT_TOL,
) -> TriangleReport:
    """Test the induced distance for the triangle inequality on triples,
    certified per pair (x, y) over all z, with each S(x, x, y) evaluated once."""
    tol = to_fraction(tol)
    pts = space.sampled(sample)
    n = len(pts)
    s = functools.cache(space.smetric.triple)  # first calls in pair order
    dist = [[s(x, x, y) + s(y, y, x) for y in pts] for x in pts]
    t, *scaled = _scaled([tol, *itertools.chain.from_iterable(dist)])
    rows = [scaled[i * n:(i + 1) * n] for i in range(n)]
    bad = []
    for i, j in itertools.product(range(n), repeat=2):
        bound = rows[i][j] - t
        if bound > min(map(add, rows[i], rows[j])):
            bad += [
                ((pts[i], pts[j], pts[k]), dist[i][j], dist[i][k] + dist[k][j])
                for k, rhs in enumerate(map(add, rows[i], rows[j]))
                if bound > rhs
            ]
    return TriangleReport(bad, n**3)


@dataclass
class GeneratedCheck:
    generated: bool
    witness: tuple[tuple[Point, Point, Point], Fraction, Fraction] | None
    triples_checked: int


def generating_metric_check(
    space: Space,
    sample: list[object] | None = None,
    tol: object = DEFAULT_TOL,
) -> GeneratedCheck:
    """Decide whether S agrees with some metric d via S = d(x,z) + d(y,z).

    Any such d is forced to be d(x, z) = S(x, x, z) / 2, so the check
    reconstructs that candidate and compares it against S on every ordered
    triple of the sample.  Triples with three distinct entries are scanned
    first (in sample order) so the reported witness is an informative one;
    degenerate triples are still checked afterwards.  S is evaluated once
    per triple, in product order; pairs (x, y) are certified over all z.
    """
    tol = to_fraction(tol)
    pts = space.sampled(sample)
    n = len(pts)
    values = [space.smetric.triple(*xyz) for xyz in itertools.product(pts, repeat=3)]
    t, *scaled = _scaled([tol, *values])
    # twice the gap S(x, y, z) - d(x, z) - d(y, z) against twice tol
    start = [(i * n + i) * n for i in range(n)]  # of the values S(i, i, .)
    rows = [scaled[at:at + n] for at in start]
    bad = []
    for i, j in itertools.product(range(n), repeat=2):
        actual = scaled[(i * n + j) * n:(i * n + j + 1) * n]
        gaps = list(map(sub, map(add, actual, actual), map(add, rows[i], rows[j])))
        if max(map(abs, gaps)) > 2 * t:
            bad += [(i, j, k) for k, gap in enumerate(gaps) if abs(gap) > 2 * t]
    if not bad:
        return GeneratedCheck(True, None, n**3)
    i, j, k = min(bad, key=lambda triple: len(set(triple)) < 3)
    candidate = values[start[i] + k] / 2 + values[start[j] + k] / 2
    witness = ((pts[i], pts[j], pts[k]), values[(i * n + j) * n + k], candidate)
    return GeneratedCheck(False, witness, n**3)

