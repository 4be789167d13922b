"""Fixed circles and discs around a chosen center.

For a center x0 the circle of radius r collects the points with
S(x, x, x0) = r and the disc those with S(x, x, x0) <= r.  The radius of
interest is

    rho = inf { S(Tx, Tx, x) : x in the sample, S(Tx, Tx, x) > tol }

with rho = 0 when nothing moves.  The theorem under test: if T satisfies
the pointwise bound

    S(Tx, Tx, x) > 0  implies
    S(Tx, Tx, x) <= max( a * S(x, x, x0),
                         b/2 * (S(Tx0, Tx0, x) + S(Tx, Tx, x0)) )

with a, b in [0, 1), and S(Tx, Tx, x0) <= rho on the circle (disc), then
T fixes the circle (disc) pointwise.  The report tracks each hypothesis
separately; when every hypothesis verifies but a point of the circle
(disc) still moves, that is flagged as a hard inconsistency rather than
a plain failure, since it contradicts the theorem itself.

One pass over the sample evaluates each of these values at most once per
point, one kernel call each on the lattice, into parallel lists; there
the space keeps the last pass for the next check (``_rows``).  On a
grid, membership has its own margin: half the steepest slope of
S(., ., x0) between neighbouring sample coordinates, times the step.
Finite universes use the plain margin tol.  The margin widens what is
reported, not what the theorem speaks of: only the members within tol
of the circle (disc) can make an inconsistency.

The sample, the center and their images are read through
``space._read`` (README, "Tolerance semantics"), in the same order on and
off the lattice.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .contraction import ContractionParams, _folded
from .mapping import Mapping
from .numeric import DEFAULT_TOL, to_fraction
from .space import Point, Space, _read


@dataclass
class _Pass:
    """One pass over the sample, in parallel lists: index k holds the
    values of ``points[k]``, read by ``read`` as ``xs[k]``, with None
    where a value is not read; ``center`` is x0 read the same way.
    ``points`` is the universe's own when there is no sample, so a grid
    node's ``Point`` is made only for a reported one."""

    read: object
    center: object
    points: object
    xs: object
    images: list  # Tx
    moved: list  # S(Tx, Tx, x)
    dist: list  # S(x, x, x0)
    image_dist: list  # S(Tx, Tx, x0)
    violations: list


def _rows(space, mapping, a, b, center, sample, tol, every_dist):
    """The ``_Pass`` of the sample, in sample order, with the
    (point, lhs, rhs) violations of the x0-bound.

    A point that moves gets every term of the x0-bound; S(x, x, x0) is
    taken on the others only when ``every_dist`` asks for it, or when the
    pass is read on the lattice.  There the int kernels cannot raise, so
    reading it on every point is not observable, and the space keeps the
    pass under these options (``Space.reuse``) for the next check to
    reuse.  Off the lattice each call reads its own.  Without a sample
    the universe is read whole and x0 taken from it.
    """
    # the x0-bound times w, so that a and b/2 become integers
    w, wa, wb, _ = _folded(ContractionParams(a, b, 0))  # checks a and b
    points = space.sampled(sample) if sample else space.points
    def read_pass():
        if sample:
            read = _read(space, mapping, [center, *points])
            c, *xs = read.points
        else:
            read = _read(space, mapping, points)
            xs = read.points
            c = xs[points.index(center)]
        every = every_dist or read.scale is not None
        t, s = read.t, read.s
        tc = t(c)
        moves, slack = read.cut(tol), read.cut(tol * w)
        images, moved, violations = [], [], []
        dist, image_dist = [None] * len(xs), [None] * len(xs)
        for k, x in enumerate(xs):
            images.append(image := t(x))
            moved.append(m := s(image, image, x))
            if every or m > moves:
                dist[k] = s(x, x, c)
            if m > moves:
                back = s(tc, tc, x)
                image_dist[k] = s(image, image, c)
                bound = max(wa * dist[k], wb * (back + image_dist[k]))
                if m * w > bound + slack:
                    violations.append((points[k], read.exact(m), read.exact(bound, w)))
        done = _Pass(read, c, points, xs, images, moved, dist, image_dist, violations)
        return done, read.scale is not None
    key = ("pass", mapping, a, b, center.label, tol,
           tuple(p.label for p in points) if sample else None)
    return space.reuse(key, read_pass)


def _grid_margin(space, done, tol):
    """Half the steepest slope of S(., ., x0) between neighbouring sample
    coordinates, times the grid step; never below tol."""
    read = done.read
    xs = done.xs if read.scale else [x.value for x in done.xs]
    by_value = sorted(dict(zip(xs, done.dist)).items())
    rise, run = 0, 1
    for (c0, d0), (c1, d1) in itertools.pairwise(by_value):
        if abs(d1 - d0) * run > rise * (c1 - c0):
            rise, run = abs(d1 - d0), c1 - c0
    slope = read.exact(rise * (read.scale or 1), run)
    return max(tol, slope * (space.step / 2))


def verify_zamfirescu_x0(
    space: Space,
    mapping: Mapping,
    a: object,
    b: object,
    x0: object,
    sample: list[object] | None = None,
    tol: object = DEFAULT_TOL,
) -> list[tuple[Point, Fraction, Fraction]]:
    """Check the pointwise x0-bound on every sampled point that moves.

    Returns (point, lhs, rhs) for each x with S(Tx, Tx, x) > tol where
    lhs = S(Tx, Tx, x) exceeds rhs + tol.
    """
    tol = to_fraction(tol)
    done = _rows(
        space, mapping, a, b, space.resolve(x0), sample, tol, every_dist=False
    )
    return list(done.violations)


@dataclass
class CircleReport:
    rho: Fraction
    circle_points: list[Point]
    disc_points: list[Point]
    zamfirescu_violations: list[tuple[Point, Fraction, Fraction]]
    hypothesis_violations: list[tuple[Point, Fraction]]
    circle_fixed: bool
    disc_fixed: bool
    nonfixed_witnesses: list[Point]
    inconsistent: bool
    tol_circle: Fraction
    circle_fixed_within_tol: bool  # judged like ``inconsistent``
    disc_fixed_within_tol: bool

    @property
    def hypotheses_hold(self) -> bool:
        return not self.zamfirescu_violations and not self.hypothesis_violations


def check_fixed_circle(
    space: Space,
    mapping: Mapping,
    a: object,
    b: object,
    x0: object,
    sample: list[object] | None = None,
    tol: object = DEFAULT_TOL,
    tol_circle: object | None = None,
) -> CircleReport:
    """Full verification pass for the circle of radius rho around x0.

    Computes rho over the sample, collects circle and disc membership
    (within ``tol_circle`` when given, else the default margin), checks
    the two hypotheses (the pointwise x0-bound everywhere, and
    S(Tx, Tx, x0) <= rho on the disc), then tests fixedness of every
    circle and disc point directly.  Verdicts never assume the theorem:
    when the x0-bound holds, the members within tol of the circle (disc)
    all meet S(Tx, Tx, x0) <= rho + tol and one of them moves, that is
    reported as an inconsistency.  A member within the margin alone
    makes none, since the theorem does not speak of it; the same members
    decide ``circle_fixed_within_tol`` and ``disc_fixed_within_tol``, and
    an empty set of them counts as fixed.
    """
    tol = to_fraction(tol)
    center = space.resolve(x0)
    done = _rows(space, mapping, a, b, center, sample, tol, every_dist=True)
    read, points = done.read, done.points
    moved, dist, image_dist = done.moved, done.dist, done.image_dist
    moves = read.cut(tol)
    radius = min((m for m in moved if m > moves), default=0)
    if tol_circle is not None:
        margin = to_fraction(tol_circle)
    elif space.kind == "real_grid":
        margin = _grid_margin(space, done, tol)
    else:
        margin = tol
    width = read.cut(margin)
    reach, limit = radius + width, radius + moves
    disc = [k for k, d in enumerate(dist) if d <= reach]
    circle = [k for k in disc if abs(dist[k] - radius) <= width]

    s, c = read.s, done.center
    for k in disc:
        if image_dist[k] is None:
            image = done.images[k]
            image_dist[k] = s(image, image, c)
    disc_points = {k: points[k] for k in disc}
    hypothesis_violations = [
        (disc_points[k], read.exact(image_dist[k]))
        for k in disc if image_dist[k] > limit
    ]
    nonfixed = [disc_points[k] for k in disc if moved[k] > moves]

    def fixed(members):
        return all(moved[k] <= moves for k in members)

    def contradicts(members):
        """The theorem's hypothesis S(Tx, Tx, x0) <= rho holds on every
        member, and yet some member moves."""
        return all(image_dist[k] <= limit for k in members) and not fixed(members)

    # the theorem speaks of the circle and disc themselves, so only the
    # members within tol of them can contradict it or decide whether they
    # are fixed, never the margin alone
    on_circle = [k for k in circle if abs(dist[k] - radius) <= moves]
    in_disc = [k for k in disc if dist[k] <= limit]
    inconsistent = not done.violations and (
        contradicts(on_circle) or contradicts(in_disc)
    )
    return CircleReport(
        rho=read.exact(radius),
        circle_points=[disc_points[k] for k in circle],
        disc_points=list(disc_points.values()),
        zamfirescu_violations=list(done.violations),
        hypothesis_violations=hypothesis_violations,
        circle_fixed=fixed(circle),
        disc_fixed=not nonfixed,
        nonfixed_witnesses=nonfixed,
        inconsistent=inconsistent,
        circle_fixed_within_tol=fixed(on_circle),
        disc_fixed_within_tol=fixed(in_disc),
        tol_circle=margin,
    )
