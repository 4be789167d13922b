"""Orbit iteration and fixed-point search.

The iteration driver records the orbit x0, Tx0, T^2 x0, ... together with
the displacement sequence alpha_n = S(x_n, x_n, x_{n+1}).  Under the
contraction conditions the alphas decay by at least the factor xi per
step, which the tests assert on recorded traces.

On grid spaces a map image may fall between nodes; it is snapped to the
nearest node only when strictly less than one step away, otherwise the
orbit has genuinely left the universe and iteration stops with an error.
Convergence is always confirmed against the raw (pre-snap) image so that
snapping can never invent a fixed point; an image that only snaps back
onto the point it came from stalls the orbit there.

``picard``, the discontinuity criterion and ``fix_set`` read through
``space._read`` and ``space.on_lattice`` (README, "Tolerance
semantics").  On the lattice an orbit runs on node positions and makes
a ``Point`` only for an orbit node and a stall's raw image; ``fix_set``
can give a report its nodes' labels with no ``Point``.  Any other case,
``solve_power``'s m-fold composition among them, iterates over points.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction

from .contraction import ContractionParams, _folded, _m_folded
from .mapping import Mapping, MappingRangeError, PowerMapping
from .numeric import DEFAULT_TOL, to_fraction
from .space import (
    Point, Space, UnknownPointError, _lattice_read, _read, _Reading, as_point,
    on_lattice,
)


@dataclass
class Outcome:
    status: str  # "converged" | "max_iter_reached" | "cycle_detected" | "snap_stalled"
    u: Point | None = None
    steps: int | None = None
    period: int | None = None
    image: Point | None = None  # the raw image of a snap stall


@dataclass
class IterationTrace:
    """Orbit with displacements; alphas[n] = S(points[n], points[n], points[n+1])."""

    points: list[Point]
    alphas: list[Fraction]
    outcome: Outcome


def picard(
    space: Space,
    mapping: Mapping,
    x0: object,
    max_iter: int = 1000,
    tol: object = DEFAULT_TOL,
) -> IterationTrace:
    """Iterate the map from ``x0`` until the displacement drops to tol.

    The converged point u is the first orbit point with
    S(u, u, Tu) <= tol; the verifying application of T is still recorded,
    so a trace ends with the near-fixed point repeated.  ``steps`` counts
    the applications of T needed to reach u; a fixed starting point
    converges in 0 steps.  An image that is not within tol yet snaps
    back onto the point it came from reports a snap stall with that raw
    image; revisiting an earlier orbit point otherwise reports a cycle
    with its period.
    """
    tol = to_fraction(tol)
    start = space.resolve(x0)
    walk = _walk(space, mapping, start)
    read = walk.read
    t, s, cut, value = read.t, read.s, read.cut(tol), walk.value
    nodes = [walk.start]
    alphas = []
    visited = {walk.start: 0}
    outcome = Outcome("max_iter_reached")
    for n in range(max_iter):
        i = nodes[-1]
        x = value(i)
        y = t(x)
        j = walk.land(i, y)
        landed = value(j)
        alpha = s(x, x, landed)
        nodes.append(j)
        alphas.append(alpha)
        # confirm against the raw image so snapping cannot fake a fix
        if alpha <= cut and (landed == y or s(x, x, y) <= cut):
            outcome = Outcome("converged", steps=n)
            break
        if j == i and y != x:
            outcome = Outcome("snap_stalled", image=walk.image(y))
            break
        if j in visited:
            outcome = Outcome("cycle_detected", period=(n + 1) - visited[j])
            break
        visited[j] = n + 1
    points = [start, *map(walk.point, nodes[1:])]
    if outcome.status == "converged":
        outcome.u = points[-2]
    return IterationTrace(points, [read.exact(a) for a in alphas], outcome)


@dataclass
class _Walk:
    """How ``picard`` reads an orbit.  On the lattice a node is its
    position in the universe and its value the int ``read`` reads there;
    else a node and its value are both the point itself."""

    read: _Reading  # t, s, cut and exact, on values
    start: object  # the start's node
    value: Callable  # node -> its value
    land: Callable  # (node, raw image) -> the node the image lands on
    point: Callable  # node -> its Point
    image: Callable  # raw image -> a Point, for a stall's report


def _walk(space: Space, mapping: Mapping, start: Point) -> _Walk:
    """The orbit read on the lattice when ``space._lattice_read`` reads
    the universe there, else over points.  Read per call: O(1) on a grid,
    whose ints are a ``range``, and O(n) on a finite universe of n."""
    # an m-fold composition has no int kernel, so its read is not tried
    read = not isinstance(mapping, PowerMapping) and _lattice_read(
        space, mapping, space.points
    )
    if not read:
        def same(p):
            return p
        read = _Reading([], functools.partial(mapping.apply, space),
                        space.smetric.triple)
        return _Walk(read, start, same, functools.partial(_land, space),
                     same, same)
    xs, scale = read.points, read.scale
    if isinstance(xs, range):  # a grid's nodes
        def where(y):
            return xs.index(y) if y in xs else None
    else:
        where = {x: i for i, x in enumerate(xs)}.get

    def image(y):
        return as_point(Fraction(y, scale))

    def land(i, y):
        j = where(y)
        return _snapped(space, space.points[i], image(y)) if j is None else j

    v = start.value
    return _Walk(read, where(v.numerator * (scale // v.denominator)),
                 xs.__getitem__, land, space.points.__getitem__, image)


def _land(space: Space, origin: Point, image: Point) -> Point:
    """Force an orbit step back onto the universe, or fail loudly.

    A grid image lands on its nearest node, the lower one on a tie.
    """
    try:
        return space.resolve(image)
    except UnknownPointError:
        pass
    return space.points[_snapped(space, origin, image)]


def _snapped(space: Space, origin: Point, image: Point) -> int:
    """The position of the grid node an image off the universe snaps to."""
    if space.kind == "real_grid" and image.value is not None:
        i = space.points.snap(image.value)
        if i is not None:
            return i
        raise MappingRangeError(
            f"image {image.label} of {origin.label} leaves the grid"
        )
    raise MappingRangeError(
        f"image {image.label} of {origin.label} is outside the universe"
    )


def fix_set(
    space: Space, mapping: Mapping, labels: bool = False
) -> list[Point] | list[str]:
    """All universe points fixed by the map, in universe order.

    ``labels`` exists for the report, which names the fixed nodes only:
    it returns their labels instead, written from their positions with
    no ``Point`` made (``Space.labels``).

    The comparison T(x) = x is exact, over integers when the map is a
    formula that compiles on the universe's lattice; images that leave
    the universe are simply not fixed.
    """
    if lattice := on_lattice(mapping, space.points):
        _, xs, t = lattice
        nodes = [i for i, x in enumerate(xs) if t(x) == x]
    else:
        nodes = [i for i, p in enumerate(space.points)
                 if mapping.apply(space, p) == p]
    return space.labels(nodes) if labels else [space.points[i] for i in nodes]


@dataclass
class PowerSolveResult:
    """Orbit of T^m plus whether its limit is fixed by T itself."""

    trace: IterationTrace
    fixed_by_base: bool | None


def solve_power(
    space: Space,
    mapping: Mapping,
    m: int,
    x0: object,
    max_iter: int = 1000,
    tol: object = DEFAULT_TOL,
) -> PowerSolveResult:
    """Iterate the m-fold composition, then test the limit under T.

    A point fixed by T^m need not be fixed by T (a swap has T^2 = id), so
    the result records the base-map verdict instead of assuming it.
    """
    tol = to_fraction(tol)
    trace = picard(space, PowerMapping(mapping, m), x0, max_iter, tol)
    verified: bool | None = None
    if trace.outcome.status == "converged":
        u = trace.outcome.u
        assert u is not None
        image = mapping.apply(space, u)
        verified = space.smetric.triple(u, u, image) <= tol
    return PowerSolveResult(trace, verified)


@dataclass
class SequenceLimit:
    index: int
    estimate: Fraction
    spread: Fraction
    conclusive: bool
    window: int


@dataclass
class DiscontinuityVerdict:
    per_sequence: list[SequenceLimit]
    overall_limsup: Fraction | None
    classification: str  # "continuous_at_u" | "discontinuous_at_u" | "inconclusive"
    note: str = ""


def discontinuity_criterion(
    space: Space,
    mapping: Mapping,
    params: ContractionParams,
    u: object,
    sequences: list[list[object]],
    limit_tol: object = DEFAULT_TOL,
    conv_tol: object = None,
    tail_start: int | None = None,
    window: int | None = None,
    tol: object = DEFAULT_TOL,
) -> DiscontinuityVerdict:
    """Estimate lim M(x_n, u) along approach sequences at a fixed point u.

    The map is discontinuous at u exactly when that limit is nonzero for
    some approach sequence, so each admitted sequence contributes a
    tail-window mean of M(x_n, u) as its limit estimate.  A window whose
    max-min spread exceeds 10 * limit_tol has not settled and the
    sequence is marked inconclusive.  Classification:

      * some conclusive estimate above limit_tol -> discontinuous_at_u
      * all sequences conclusive and at or below it -> continuous_at_u
      * otherwise inconclusive

    On a finite universe every approach sequence is eventually constant,
    so instead of claiming continuity the verdict carries the note
    "no nontrivial approach sequences".

    Sequences must converge to u: S(x_n, x_n, u) <= ``conv_tol`` (default:
    limit_tol) from index ``tail_start`` (default: halfway) on; a sequence
    that does not, or ends before that index, is rejected by index.
    ``u`` itself must be fixed within ``tol``.

    A term is a point, a coordinate or its reduced (numerator, den) pair,
    as ``SequenceSpec.expand`` gives it.  u and every term are read at once
    by ``space._read``; off the lattice T and S are evaluated in the order
    of the checks above, so an evaluation error aborts with the same text.
    """
    tol = to_fraction(tol)
    limit_tol = to_fraction(limit_tol)
    conv = limit_tol if conv_tol is None else to_fraction(conv_tol)
    target = space.resolve(u)
    sequences = [list(seq) for seq in sequences]
    read = _read(space, mapping, [target, *itertools.chain(*sequences)])
    s, (c, *terms) = read.s, read.points
    tc = read.t(c)
    if s(c, c, tc) > read.cut(tol):
        raise ValueError(f"{target.label} is not a fixed point of the map")

    weights, conv_cut = _folded(params), read.cut(conv)
    per_sequence = []
    tails_at_u = True
    end = 0
    for index, raw in enumerate(sequences):
        seq = terms[end:end + len(raw)]
        end += len(raw)
        if not seq:
            raise ValueError(f"sequence {index} is empty")
        start = len(seq) // 2 if tail_start is None else tail_start
        if start >= len(seq):
            raise ValueError(f"tail_start {start} is past the end of sequence {index}")
        if any(s(x, x, c) > conv_cut for x in seq[start:]):
            raise ValueError(f"sequence {index} does not converge to u")
        w = window if window is not None else max(1, len(seq) // 4)
        tail = seq[-w:]
        tails_at_u = tails_at_u and all(x == c for x in tail)
        values = [_m_folded(s, weights, x, c, read.t(x), tc) for x in tail]
        estimate = read.exact(sum(values), weights[0] * len(values))
        spread = read.exact(max(values) - min(values), weights[0])
        per_sequence.append(
            SequenceLimit(index, estimate, spread, spread <= 10 * limit_tol, len(tail))
        )

    conclusive = [sl.estimate for sl in per_sequence if sl.conclusive]
    limsup = max(conclusive) if conclusive else None
    note = ""
    if limsup is not None and limsup > limit_tol:
        classification = "discontinuous_at_u"
    elif len(conclusive) == len(per_sequence) and per_sequence:
        classification = "continuous_at_u"
        if space.kind == "finite":
            # a finite universe has no genuine approach sequences, so a
            # sampled continuity claim would be vacuous there
            classification = "inconclusive"
            note = (
                "no nontrivial approach sequences"
                if tails_at_u
                else "continuity not claimed on a finite universe"
            )
    else:
        classification = "inconclusive"
    return DiscontinuityVerdict(per_sequence, limsup, classification, note)
