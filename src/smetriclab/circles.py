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

One pass over the sample evaluates each of these values at most once
per point, and on the lattice the two checks share it (``_rows``).  On a grid, membership has its own margin: half the steepest
slope of S(., ., x0) between neighbouring sample coordinates, times the
step.  Finite universes use the plain margin tol.

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
    """One sampled point and the values the verdicts read."""

    point: Point
    image: object  # Tx
    moved: object  # S(Tx, Tx, x)
    dist: object = None  # S(x, x, x0)
    image_dist: object = None  # S(Tx, Tx, x0)


def _rows(space, mapping, a, b, center, sample, tol, every_dist):
    """How the call reads its values, the row of each sampled point, in
    sample order, and the (point, lhs, rhs) violations of the x0-bound.

    A point that moves gets every term of the x0-bound; S(x, x, x0) is
    taken on the others only when ``every_dist`` asks for it, or when the
    pass is read on the lattice.  There the int kernels cannot raise, so
    reading it on every point is not observable, and the space keeps the
    pass under these options for the next check to reuse (the map and S
    are taken not to change).  Off the lattice each call reads its own.
    """
    # the x0-bound times w, so that a and b/2 become integers
    w, wa, wb, _ = _folded(ContractionParams(a, b, 0))  # checks a and b
    pts = space.sampled(sample)
    key = (mapping, a, b, center.label, tol,
           tuple(p.label for p in pts) if sample else None)
    if key in space._passes:
        return space._passes[key]
    read = _read(space, mapping, [center, *pts])
    every_dist = every_dist or read.scale is not None
    s, (c, *xs) = read.s, read.points
    tc = read.t(c)
    moves, slack = read.cut(tol), read.cut(tol * w)
    rows, violations = [], []
    for p, x in zip(pts, xs):
        image = read.t(x)
        row = _Row(p, image, s((image, image, x)))
        if every_dist or row.moved > moves:
            row.dist = s((x, x, c))
        if row.moved > moves:
            back = s((tc, tc, x))
            row.image_dist = s((image, image, c))
            bound = max(wa * row.dist, wb * (back + row.image_dist))
            if row.moved * w > bound + slack:
                violations.append((p, read.exact(row.moved), read.exact(bound, w)))
        rows.append(row)
    if read.scale is not None:
        space._passes[key] = read, rows, violations
    return read, rows, violations


def _grid_margin(space, read, rows, tol):
    """Half the steepest slope of S(., ., x0) between neighbouring sample
    coordinates, times the grid step; never below tol."""
    xs = read.points[1:] if read.scale else [r.point.value for r in rows]
    by_value = sorted(dict(zip(xs, (r.dist for r in rows))).items())
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
    _, _, violations = _rows(
        space, mapping, a, b, space.resolve(x0), sample, tol, every_dist=False
    )
    return list(violations)


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
    read, rows, zam = _rows(
        space, mapping, a, b, center, sample, tol, every_dist=True
    )
    moves = read.cut(tol)
    radius = min((r.moved for r in rows if r.moved > moves), default=0)
    if tol_circle is not None:
        margin = to_fraction(tol_circle)
    elif space.kind == "real_grid":
        margin = _grid_margin(space, read, rows, tol)
    else:
        margin = tol
    width = read.cut(margin)
    circle = [r for r in rows if abs(r.dist - radius) <= width]
    reach, limit = radius + width, radius + moves
    disc = [r for r in rows if r.dist <= reach]

    s, c = read.s, read.points[0]
    for r in disc:
        if r.image_dist is None:
            r.image_dist = s((r.image, r.image, c))
    hypothesis_violations = [
        (r.point, read.exact(r.image_dist)) for r in disc if r.image_dist > limit
    ]
    nonfixed = [r.point for r in disc if r.moved > moves]
    circle_fixed = all(r.moved <= moves for r in circle)
    hyp_ok_on_circle = all(r.image_dist <= limit for r in circle)
    inconsistent = not zam and (
        (hyp_ok_on_circle and not circle_fixed)
        or (not hypothesis_violations and bool(nonfixed))
    )
    return CircleReport(
        rho=read.exact(radius),
        circle_points=[r.point for r in circle],
        disc_points=[r.point for r in disc],
        zamfirescu_violations=list(zam),
        hypothesis_violations=hypothesis_violations,
        circle_fixed=circle_fixed,
        disc_fixed=not nonfixed,
        nonfixed_witnesses=nonfixed,
        inconsistent=inconsistent,
        tol_circle=margin,
    )
