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
separately; when every hypothesis verifies but a circle point still
moves, that is flagged as a hard inconsistency rather than a plain
failure, since it contradicts the theorem itself.

One pass over the sample evaluates each of these values at most once per
point; on the lattice the space keeps the last pass for the next check
(``_rows``).  On a grid, membership has its own margin: half the
steepest slope of S(., ., x0) between neighbouring sample coordinates,
times the step.  Finite universes use the plain margin tol.

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


@dataclass(slots=True)
class _Row:
    """The values the verdicts read for one sampled point."""

    image: object  # Tx
    moved: object  # S(Tx, Tx, x)
    dist: object = None  # S(x, x, x0)
    image_dist: object = None  # S(Tx, Tx, x0)


@dataclass
class _Pass:
    """One pass over the sample: ``rows[k]`` holds the values of
    ``points[k]``, read by ``read`` as ``xs[k]``; ``center`` is x0 read
    the same way.  ``points`` is the universe's own when there is no
    sample, so a grid node's ``Point`` is made only for a reported row."""

    read: object
    center: object
    points: object
    xs: object
    rows: list
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
        s = read.s
        tc = read.t(c)
        moves, slack = read.cut(tol), read.cut(tol * w)
        rows, violations = [], []
        for k, x in enumerate(xs):
            image = read.t(x)
            row = _Row(image, s((image, image, x)))
            if every or row.moved > moves:
                row.dist = s((x, x, c))
            if row.moved > moves:
                back = s((tc, tc, x))
                row.image_dist = s((image, image, c))
                bound = max(wa * row.dist, wb * (back + row.image_dist))
                if row.moved * w > bound + slack:
                    violations.append((points[k], read.exact(row.moved),
                                       read.exact(bound, w)))
            rows.append(row)
        done = _Pass(read, c, points, xs, rows, violations)
        return done, read.scale is not None
    key = ("pass", mapping, a, b, center.label, tol,
           tuple(p.label for p in points) if sample else None)
    return space.reuse(key, read_pass)


def _grid_margin(space, done, tol):
    """Half the steepest slope of S(., ., x0) between neighbouring sample
    coordinates, times the grid step; never below tol."""
    read = done.read
    xs = done.xs if read.scale else [x.value for x in done.xs]
    by_value = sorted(dict(zip(xs, (r.dist for r in done.rows))).items())
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
    a moved circle point under fully verified hypotheses is reported as
    an inconsistency.
    """
    tol = to_fraction(tol)
    center = space.resolve(x0)
    done = _rows(space, mapping, a, b, center, sample, tol, every_dist=True)
    read, rows, points = done.read, done.rows, done.points
    moves = read.cut(tol)
    radius = min((r.moved for r in rows if r.moved > moves), default=0)
    if tol_circle is not None:
        margin = to_fraction(tol_circle)
    elif space.kind == "real_grid":
        margin = _grid_margin(space, done, tol)
    else:
        margin = tol
    width = read.cut(margin)
    reach, limit = radius + width, radius + moves
    disc = [k for k, r in enumerate(rows) if r.dist <= reach]
    circle = [k for k in disc if abs(rows[k].dist - radius) <= width]

    s, c = read.s, done.center
    for k in disc:
        r = rows[k]
        if r.image_dist is None:
            r.image_dist = s((r.image, r.image, c))
    disc_points = {k: points[k] for k in disc}
    hypothesis_violations = [
        (disc_points[k], read.exact(rows[k].image_dist))
        for k in disc if rows[k].image_dist > limit
    ]
    nonfixed = [disc_points[k] for k in disc if rows[k].moved > moves]
    circle_fixed = all(rows[k].moved <= moves for k in circle)
    hyp_ok_on_circle = all(rows[k].image_dist <= limit for k in circle)
    inconsistent = not done.violations and (
        (hyp_ok_on_circle and not circle_fixed)
        or (not hypothesis_violations and bool(nonfixed))
    )
    return CircleReport(
        rho=read.exact(radius),
        circle_points=[disc_points[k] for k in circle],
        disc_points=list(disc_points.values()),
        zamfirescu_violations=list(done.violations),
        hypothesis_violations=hypothesis_violations,
        circle_fixed=circle_fixed,
        disc_fixed=not nonfixed,
        nonfixed_witnesses=nonfixed,
        inconsistent=inconsistent,
        tol_circle=margin,
    )
