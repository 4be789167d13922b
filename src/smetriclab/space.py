"""Point universes and the distance structures defined on them.

A space is a finite list of points (either bare labels or exact rational
coordinates) or a closed decimal grid [lo, hi] with a fixed step.  A grid
is kept as four ints (first, stride, count, den), node i being
(first + i * stride) / den (``Grid``); it looks nodes up by arithmetic and
makes a node's ``Point`` only when the node is indexed or named.  On top
of the universe sits a three-argument distance S(x, y, z), given by an
explicit table, by a formula in x, y, z, or generated from an ordinary
two-argument metric d via

    S_d(x, y, z) = d(x, z) + d(y, z).

The two defining laws checked here, over every sampled triple/quadruple:

    S1: S(x, y, z) = 0  iff  x = y = z
    S2: S(x, y, z) <= S(x, x, a) + S(y, y, a) + S(z, z, a)

All checks take a strictness margin ``tol``: a strict inequality must
clear its bound by at least ``tol`` to count as satisfied.

The exhaustive sweeps compare exact integers: S (or d) over one common
denominator D, and ``tol`` by its cut floor(tol * D).  A space keeps one
read, the last one kept (``Space.reuse``), so the four sweeps (axioms,
symmetry, triangle, generated) in a row on one sample share S read on
it: a generated S from the n^2 values of d, any other S through
``_read``, triple by triple, in the order the sweeps ask for it.  Per
outer tuple, the least right-hand side over the inner index certifies it
at once; only tuples that fail it are scanned, reporting exact values.

``_read`` is the one reader of points, their images under a map and S,
for these sweeps and the map kernels: as ints on one lattice when S and
the map have int kernels there (``scaled``), else as points of the
space (README, "Tolerance semantics").
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add, sub
from typing import Callable

from .expr import ExprError, Formula
from .numeric import (
    DEFAULT_TOL, MAX_LATTICE_BITS, decimal_writer, format_decimal,
    lattice_scale, read_number, to_fraction,
)


class SpaceError(Exception):
    """Base class for universe and distance-structure failures."""


class UnknownPointError(SpaceError):
    """A label or coordinate does not resolve inside the universe."""


class MetricAxiomError(SpaceError):
    """A claimed metric failed validation; the message names a witness."""


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
    value = ref if type(ref) is int else to_fraction(ref)  # an int stays one
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
            full.setdefault((x, x), 0)
            full.setdefault((y, y), 0)
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

    def scaled(self, scale: int) -> tuple[Callable, int] | None:
        """(kernel, den): S from one int per variable, x, y and z times
        ``scale``, to its value times den, over ints; None when it has
        none."""
        return None


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

    def scaled(self, scale: int) -> tuple[Callable, int] | None:
        return self.formula.scaled(scale)


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
    return (hi - lo) // step


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


class Grid(Sequence):
    """The nodes (first + i * stride) / den of a grid, for i < count, as
    ints; indexing or iterating makes a node's ``Point``, labelled by
    ``decimal_writer(den)``.  ``count``, the number of nodes, stands in
    for ``Sequence.count``, a tally that is 1 for every node."""

    def __init__(self, first: int, stride: int, count: int, den: int):
        self.first, self.stride, self.count, self.den = first, stride, count, den
        self.label = decimal_writer(den)

    def __len__(self) -> int:
        return self.count

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(self.count)[index]]
        k = self.first + range(self.count)[index] * self.stride
        return Point(self.label(k), Fraction(k, self.den))

    def __iter__(self):
        label, den = self.label, self.den
        for k in self.over(self.den):
            yield Point(label(k), Fraction(k, den))

    def index(self, point: object) -> int:
        """The position of the node equal to ``point``; ValueError when
        no node is."""
        i = None
        if isinstance(point, Point) and point.value is not None:
            i = self.position(point.value)
        if i is None or self[i] != point:
            raise ValueError(f"{point!r} is not a grid node")
        return i

    def position(self, value: object) -> int | None:
        """The index of the node at coordinate ``value``, or None."""
        q = value if type(value) is int else to_fraction(value)
        k, off = divmod(q.numerator * self.den, q.denominator)
        i, off_stride = divmod(k - self.first, self.stride)
        if off or off_stride or not 0 <= i < self.count:
            return None
        return i

    def at(self, value: object) -> Point | None:
        """The node at coordinate ``value``, or None."""
        i = self.position(value)
        return None if i is None else self[i]

    def labelled(self, label: str) -> Point | None:
        """The node whose canonical label is ``label``, or None: "1.50"
        and "1e0" name no node, though they read as one's coordinate."""
        try:
            value = read_number(label)
        except (ValueError, ZeroDivisionError):
            return None
        node = self.at(value)
        return node if node is not None and node.label == label else None

    def snap(self, value: object) -> int | None:
        """The index of the node nearest ``value``, the lower one on a tie,
        when it lies less than one step away; else None."""
        q = to_fraction(value)
        # value - node i is (a - i * b) / (den * q.denominator), a step b
        a = q.numerator * self.den - self.first * q.denominator
        b = self.stride * q.denominator
        i = min(max(-((b - 2 * a) // (2 * b)), 0), self.count - 1)
        return i if abs(a - i * b) < b else None

    @property
    def scale(self) -> int:
        """The least common denominator of the nodes' coordinates."""
        return self.den // math.gcd(
            self.den, self.first, self.stride if self.count > 1 else 0
        )

    def over(self, scale: int) -> range:
        """The nodes as ints ``scale`` times their coordinates, for a
        ``scale`` that is a multiple of ``self.scale``."""
        start = self.first * scale // self.den
        step = self.stride * scale // self.den or 1  # 0 only for one node
        return range(start, start + self.count * step, step)


class Space:
    """A universe of points with an S-metric attached.

    ``kind`` is "finite" for an explicit point list and "real_grid" for the
    uniform decimal grid, whose ``points`` are a ``Grid``.  A grid universe
    is still a finite collection; the kind controls grid-specific behavior
    such as snapping map images and the default circle-membership
    tolerance.
    """

    def __init__(
        self,
        kind: str,
        points: tuple[Point, ...] | Grid,
        smetric: SMetric,
        step: Fraction | None = None,
    ):
        self.kind = kind
        self.points = points
        self.smetric = smetric
        self.step = step
        # label -> point and coordinate -> point, or None where there is none
        if isinstance(points, Grid):
            self._labelled, self._at = points.labelled, points.at
        else:
            by_label = {p.label: p for p in points}
            if len(by_label) != len(points):
                raise ValueError("duplicate point labels in universe")
            self._labelled = by_label.get
            self._at = {p.value: p for p in points if p.value is not None}.get
        self._kept = None, None  # (key, value), the key led by its kind

    @classmethod
    def finite(cls, points: list[object], smetric: SMetric) -> "Space":
        return cls("finite", tuple(as_point(p) for p in points), smetric)

    @classmethod
    def real_grid(
        cls, lo: object, hi: object, step: object, smetric: SMetric
    ) -> "Space":
        """The nodes lo + i * step up to hi, read as ints k over the least
        den of lo and step: each node is k/den, labelled from k."""
        lo_f, hi_f, step_f = to_fraction(lo), to_fraction(hi), to_fraction(step)
        count = grid_steps(lo_f, hi_f, step_f) + 1
        den = math.lcm(lo_f.denominator, step_f.denominator)
        first = lo_f.numerator * (den // lo_f.denominator)
        stride = step_f.numerator * (den // step_f.denominator)
        return cls("real_grid", Grid(first, stride, count, den), smetric, step_f)

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
            point = self._labelled(ref)
            if point is None:
                raise UnknownPointError(f"unknown point label {ref!r}")
            return point
        point = self._at(ref)  # equal numbers hash alike, whatever their type
        if point is None:
            raise UnknownPointError(
                f"no point at coordinate {format_decimal(to_fraction(ref))}"
            )
        return point

    def coerce(self, ref: object) -> Point:
        """Like :meth:`resolve`, but coordinates off the universe are kept
        as free-standing points so formula distances can still evaluate."""
        if isinstance(ref, Point):
            return self._labelled(ref.label) or ref
        if isinstance(ref, str):
            return self.resolve(ref)
        return self._at(ref) or as_point(ref)

    def labels(self, indices: list[int]) -> list[str]:
        """The labels of the universe's nodes at ``indices``; a grid writes
        them from its ints, with no ``Point``."""
        points = self.points
        if isinstance(points, Grid):
            first, stride, label = points.first, points.stride, points.label
            return [label(first + i * stride) for i in indices]
        return [points[i].label for i in indices]

    def sampled(self, sample: list[object] | None) -> list[Point]:
        """The sample's points, or the whole universe when none is given."""
        return [self.coerce(p) for p in sample] if sample else list(self.points)

    def s(self, x: object, y: object, z: object) -> Fraction:
        """S(x, y, z) for universe points, labels, or raw coordinates."""
        return self.smetric.triple(self.coerce(x), self.coerce(y), self.coerce(z))

    def reuse(self, key: tuple, read: Callable) -> object:
        """The value kept under ``key``, else ``read()``'s: it returns
        (value, keep), and a kept value replaces the one before, so that a
        space holds one read (S and the map are taken not to change)."""
        kept, value = self._kept
        if kept != key:
            value, keep = read()
            if keep:
                self._kept = key, value
        return value

    def _s_on(
        self, sample: list[object] | None
    ) -> tuple[tuple[Point, ...], _Memo | _FromMetric]:
        """The sample's distinct points, in first-seen order, and S read on
        them, always kept, so that the distance-structure checks in a row
        on one sample read each value of S once between them."""
        pts = tuple(dict.fromkeys(self.sampled(sample)))
        return pts, self.reuse(("s", pts), lambda: (_read_s(self, pts), True))


@dataclass
class AxiomReport:
    """Outcome of the S1/S2 sweep with every violating tuple listed, but
    for S2 past a cap: ``s2_total`` counts every S2 violation found."""

    s1_violations: list[tuple[tuple[Point, Point, Point], Fraction]]
    s2_violations: list[
        tuple[tuple[Point, Point, Point, Point], Fraction, Fraction]
    ]
    triples_checked: int
    quadruples_checked: int
    s2_total: int | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.s2_total is None:
            self.s2_total = len(self.s2_violations)

    @property
    def passed(self) -> bool:
        return not self.s1_violations and not self.s2_total


def _scaled(values: list[Fraction]) -> list[int]:
    """Exact ``values`` as integers over one common denominator."""
    den = math.lcm(*{v.denominator for v in values})
    return [v.numerator * (den // v.denominator) for v in values]


def _cut(tol: Fraction, den: int) -> int:
    """floor(tol * den): an int exceeds tol * den exactly when it exceeds
    this cut, and falls below tol * den exactly when it falls below
    -_cut(-tol, den)."""
    return tol.numerator * den // tol.denominator


class _Memo:
    """S on a sample, each index triple (i, j, k) read once, in the order
    the checks first ask for it.  ``value`` reads one triple: S itself, or,
    with a ``den``, S times den as an int."""

    def __init__(self, value: Callable, den: int | None = None):
        self.value, self.den, self.read = value, den, {}

    def ints(self, triples: list[tuple[int, int, int]]) -> tuple[int, list[int]]:
        """(den, S times den on each of ``triples``)."""
        read, value = self.read, self.value
        for t in triples:
            if t not in read:
                read[t] = value(*t)
        if self.den is not None:
            return self.den, [read[t] for t in triples]
        den, *values = _scaled([1, *(read[t] for t in triples)])
        return den, values

    def exact(self, i: int, j: int, k: int) -> Fraction:
        """S(i, j, k) as S gives it, for a triple already read."""
        v = self.read[i, j, k]
        return v if self.den is None else Fraction(v, self.den)


class _FromMetric:
    """A generated S on a sample, read from d's n^2 values:
    S(i, j, k) = d(i, k) + d(j, k)."""

    def __init__(self, metric: Metric, pts: tuple[Point, ...]):
        self.d = [[metric.distance(x, y) for y in pts] for x in pts]
        self.den, *flat = _scaled([1, *itertools.chain.from_iterable(self.d)])
        n = len(pts)
        self.rows = [flat[i * n:(i + 1) * n] for i in range(n)]

    def ints(self, triples: list[tuple[int, int, int]]) -> tuple[int, list[int]]:
        rows = self.rows
        return self.den, [rows[i][k] + rows[j][k] for i, j, k in triples]

    def exact(self, i: int, j: int, k: int) -> Fraction:
        return self.d[i][k] + self.d[j][k]


def on_lattice(mapping, points) -> tuple | None:
    """``(scale, xs, t)``: the points' coordinates as ints over the least
    scale that holds them and their images under ``mapping`` exactly, and
    ``t``, the map on such ints (None when ``mapping`` is None).  A point
    is a ``Point``, its coordinate, or that as a reduced (numerator, den)
    pair, den > 0; each int is numerator * (scale // den), one quotient
    per distinct den.  A ``Grid`` gives its scale from its ints, and its
    coordinates as a ``range``.  None for a map without an int kernel
    (``Mapping.scaled``), a point without a coordinate, or a scale past
    ``numeric.MAX_LATTICE_BITS``."""
    if isinstance(points, Grid):
        lattice = points.scale
        if lattice.bit_length() > MAX_LATTICE_BITS:
            lattice = None
    else:
        values = [p.value if isinstance(p, Point) else p for p in points]
        try:
            pairs = [v if type(v) is tuple else (v.numerator, v.denominator)
                     for v in values]
        except AttributeError:  # a point without a coordinate
            return None
        dens = {q for _, q in pairs}
        lattice = lattice_scale(dens)
    compiled = lattice and (mapping is None or mapping.scaled(lattice))
    if not compiled:
        return None
    t = None
    if mapping is not None:
        image, den = compiled
        scale, lattice = lattice, math.lcm(lattice, den)
        up, image_up = lattice // scale, lattice // den
        t = image if up == image_up == 1 else (lambda x: image(x // up) * image_up)

    if isinstance(points, Grid):
        return lattice, points.over(lattice), t
    per_den = {q: lattice // q for q in dens}
    return lattice, [p * per_den[q] for p, q in pairs], t


@dataclass
class _Reading:
    """How one call reads its points, their images and S: on a lattice, as
    ints ``scale`` times the coordinates, and S as ``den`` times its value;
    else as points of the space, T and S evaluated as they are read."""

    points: list
    t: Callable | None  # a read point -> its image, read the same way
    s: Callable  # (x, y, z) -> S(x, y, z) times den, one argument each
    den: int = 1
    scale: int | None = None

    def cut(self, t: Fraction):
        """t for a read value v to meet in ``v > cut`` or ``v <= cut``."""
        return t if self.scale is None else _cut(t, self.den)

    def exact(self, value, weight=1) -> Fraction:
        return Fraction(value, self.den * weight)


def _read(space: Space, mapping, points) -> _Reading:
    """The one reader: ``points``, each a ``Point``, a coordinate or its
    (numerator, den) pair (see ``on_lattice``), or the space's ``Grid``,
    their images under ``mapping`` (S alone when it is None) and S, on the
    lattice when the map and S both have int kernels there; else each
    point coerced to a point of the space, a pair as ``Fraction(p, q)``."""
    return _lattice_read(space, mapping, points) or _Reading(
        list(points) if isinstance(points, Grid)
        else [space.coerce(Fraction(*p) if type(p) is tuple else p) for p in points],
        mapping and functools.partial(mapping.apply, space),
        space.smetric.triple,
    )


def _lattice_read(space: Space, mapping, points) -> _Reading | None:
    """``_read`` on the lattice, or None where it reads points of the
    space."""
    lattice = on_lattice(mapping, points)
    compiled = lattice and space.smetric.scaled(lattice[0])
    if not compiled:
        return None
    scale, xs, t = lattice
    return _Reading(xs, t, *compiled, scale)


def _read_s(space: Space, pts: tuple[Point, ...]) -> _Memo | _FromMetric:
    """How S is read on ``pts``: from d's values when generated, else
    through ``_read``, triple by triple.  A d that raises on some pair is
    read through ``triple`` too, so that a check raises where S does."""
    if isinstance(space.smetric, GeneratedSMetric):
        try:
            return _FromMetric(space.smetric.metric, pts)
        except (ExprError, SpaceError, ArithmeticError, ValueError):
            pass  # the triple loop below raises it where S first does
    read = _read(space, None, pts)
    xs, s = read.points, read.s
    return _Memo(lambda i, j, k: s(xs[i], xs[j], xs[k]),
                 read.den if read.scale else None)


def check_axioms(
    space: Space,
    sample: list[object] | None = None,
    tol: object = DEFAULT_TOL,
    max_evidence: int | None = None,
) -> AxiomReport:
    """Exhaustively test S1 and S2 over a sample (default: the universe).

    S1 demands S = 0 on diagonal triples and S >= tol off the diagonal,
    which also rejects negative values.  S2 is tested over all ordered
    quadruples with additive slack tol.  S is read once per triple, in
    ``itertools.product`` order; S2 is certified per triple over all a,
    whose least right-hand side is taken once per unordered triple.
    Every S2 violation is counted, and the first ``max_evidence`` of them,
    when given, are listed; a value of any of them past float range
    raises OverflowError, as listing it would.
    """
    tol = to_fraction(tol)
    pts, reads = space._s_on(sample)
    n = len(pts)
    triples = list(itertools.product(range(n), repeat=3))
    den, scaled = reads.ints(triples)
    t, low = _cut(tol, den), -_cut(-tol, den)
    s1 = [
        ((pts[i], pts[j], pts[k]), reads.exact(i, j, k))
        for (i, j, k), w in zip(triples, scaled)
        if (abs(w) > t if i == j == k else w < low)
    ]

    rows = [scaled[(i * n + i) * n:(i * n + i + 1) * n] for i in range(n)]
    # the least right-hand side over a is symmetric in i, j, k: take it
    # once per triple i <= j <= k and file it under each ordering
    least = [0] * n**3
    for i, j in itertools.combinations_with_replacement(range(n), 2):
        ij = list(map(add, rows[i], rows[j]))
        for k in range(j, n):
            m = min(map(add, ij, rows[k]))
            for p, q, r in ((i, j, k), (i, k, j), (j, i, k), (j, k, i),
                            (k, i, j), (k, j, i)):
                least[(p * n + q) * n + r] = m
    s2: list[tuple[tuple[Point, Point, Point, Point], Fraction, Fraction]] = []
    room = n**4 if max_evidence is None else max_evidence
    total = largest = 0  # largest: |lhs| or |rhs| of the violations not listed
    for (i, j, k), w, m in zip(triples, scaled, least):
        if w - t > m:
            rhs = list(map(add, map(add, rows[i], rows[j]), rows[k]))
            failing = [a for a, v in enumerate(rhs) if w - t > v]
            total += len(failing)
            kept = failing[:room - len(s2)]
            s2 += [
                ((pts[i], pts[j], pts[k], pts[a]), reads.exact(i, j, k),
                 reads.exact(i, i, a) + reads.exact(j, j, a)
                 + reads.exact(k, k, a))
                for a in kept
            ]
            if len(kept) < len(failing):
                largest = max(largest, abs(w),
                              *(abs(rhs[a]) for a in failing[len(kept):]))
    if total > len(s2):
        largest / den  # past float range: OverflowError, as a listed one raises
    return AxiomReport(s1, s2, n**3, n**4, total)


def _pair_reads(reads: _Memo | _FromMetric, pairs: list[tuple[int, int]]):
    """(den, S(i, i, j) and S(j, j, i) times den) for each pair, in turn."""
    den, w = reads.ints([t for i, j in pairs for t in ((i, i, j), (j, j, i))])
    return den, w[::2], w[1::2]


def check_symmetry(
    space: Space,
    sample: list[object] | None = None,
    tol: object = DEFAULT_TOL,
) -> list[tuple[Point, Point, Fraction, Fraction]]:
    """Pairs (x, y) where S(x, x, y) and S(y, y, x) disagree beyond tol.

    Any space satisfying S1 and S2 has none; this probes that directly.
    """
    tol = to_fraction(tol)
    pts, reads = space._s_on(sample)
    pairs = list(itertools.combinations(range(len(pts)), 2))
    den, forward, backward = _pair_reads(reads, pairs)
    t = _cut(tol, den)
    return [
        (pts[i], pts[j], reads.exact(i, i, j), reads.exact(j, j, i))
        for (i, j), f, b in zip(pairs, forward, backward)
        if abs(f - b) > t
    ]


def s_from_metric(
    metric: Metric,
    points: list[object],
    tol: object = DEFAULT_TOL,
) -> GeneratedSMetric:
    """Validate ``metric`` on ``points`` and wrap it as an S-metric.

    Raises :class:`MetricAxiomError` naming the first witness when the
    table or formula is not actually a metric.  The diagonal is checked
    before any other distance is read; then d is read once into ints, and
    the triangle is certified per pair over all z.
    """
    tol = to_fraction(tol)
    pts = [as_point(p) for p in points]
    for x in pts:
        v = metric.distance(x, x)
        if abs(v) > tol:
            raise MetricAxiomError(
                f"d({x.label}, {x.label}) = {format_decimal(v)}, not 0"
            )
    read = _FromMetric(metric, pts)
    n, rows = len(pts), read.rows
    t, low = _cut(tol, read.den), -_cut(-tol, read.den)
    for i, j in itertools.permutations(range(n), 2):
        x, y = pts[i].label, pts[j].label
        if rows[i][j] < low:
            raise MetricAxiomError(
                f"d({x}, {y}) = {format_decimal(read.d[i][j])} "
                "is not strictly positive"
            )
        if abs(rows[i][j] - rows[j][i]) > t:
            raise MetricAxiomError(f"asymmetry: d({x}, {y}) != d({y}, {x})")
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


def check_triangle(
    space: Space,
    sample: list[object] | None = None,
    tol: object = DEFAULT_TOL,
) -> list[tuple[tuple[Point, Point, Point], Fraction, Fraction]]:
    """Triples (x, y, z) where the induced distance breaks the triangle
    inequality beyond tol, with its two sides; certified per pair (x, y)
    over all z, with S(x, x, y) read for the pairs x <= y in turn."""
    tol = to_fraction(tol)
    pts, reads = space._s_on(sample)
    n = len(pts)
    pairs = list(itertools.combinations_with_replacement(range(n), 2))
    den, forward, backward = _pair_reads(reads, pairs)
    t = _cut(tol, den)
    rows = [[0] * n for _ in range(n)]
    for (i, j), f, b in zip(pairs, forward, backward):
        rows[i][j] = rows[j][i] = f + b

    def dist(i, j):
        return reads.exact(i, i, j) + reads.exact(j, j, i)

    bad = []
    for i, j in itertools.product(range(n), repeat=2):
        bound = rows[i][j] - t
        if bound > min(map(add, rows[i], rows[j])):
            bad += [
                ((pts[i], pts[j], pts[k]), dist(i, j), dist(i, k) + dist(k, j))
                for k, rhs in enumerate(map(add, rows[i], rows[j]))
                if bound > rhs
            ]
    return bad


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
    degenerate triples are still checked afterwards.  S is read once per
    triple, in product order; pairs (x, y) are certified over all z.
    """
    tol = to_fraction(tol)
    pts, reads = space._s_on(sample)
    n = len(pts)
    den, scaled = reads.ints(list(itertools.product(range(n), repeat=3)))
    t = _cut(2 * tol, den)
    # twice the gap S(x, y, z) - d(x, z) - d(y, z) against twice tol
    rows = [scaled[(i * n + i) * n:(i * n + i + 1) * n] for i in range(n)]
    bad = []
    for i, j in itertools.product(range(n), repeat=2):
        actual = scaled[(i * n + j) * n:(i * n + j + 1) * n]
        gaps = list(map(sub, map(add, actual, actual), map(add, rows[i], rows[j])))
        if max(map(abs, gaps)) > t:
            bad += [(i, j, k) for k, gap in enumerate(gaps) if abs(gap) > t]
    if not bad:
        return GeneratedCheck(True, None, n**3)
    i, j, k = min(bad, key=lambda triple: len(set(triple)) < 3)
    candidate = Fraction(reads.exact(i, i, k) + reads.exact(j, j, k), 2)
    witness = ((pts[i], pts[j], pts[k]), reads.exact(i, j, k), candidate)
    return GeneratedCheck(False, witness, n**3)
