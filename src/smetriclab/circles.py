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
per point.  On a grid, membership has its own margin: half the steepest
slope of S(., ., x0) between neighbouring sample coordinates, times the
step.  Finite universes use the plain margin tol.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .contraction import ContractionParams
from .mapping import Mapping
from .numeric import DEFAULT_TOL, to_fraction
from .space import Point, Space


@dataclass(slots=True)
class _Row:
    """One sampled point and the values the verdicts read."""

    point: Point
    image: Point  # Tx
    moved: Fraction  # S(Tx, Tx, x)
    dist: Fraction | None = None  # S(x, x, x0)
    image_dist: Fraction | None = None  # S(Tx, Tx, x0)


def _rows(space, mapping, a, b, center, pts, tol, every_dist):
    """The row of each sampled point, in sample order, and the
    (point, lhs, rhs) violations of the x0-bound.

    A point that moves gets every term of the x0-bound; S(x, x, x0) is
    taken on the others only when ``every_dist`` asks for it.
    """
    weights = ContractionParams(a, b, 0)  # checks a and b
    s = space.smetric.triple
    t_center = mapping.apply(space, center)
    half_b = weights.b / 2
    rows, violations = [], []
    for p in pts:
        image = mapping.apply(space, p)
        row = _Row(p, image, s(image, image, p))
        if every_dist or row.moved > tol:
            row.dist = s(p, p, center)
        if row.moved > tol:
            back = s(t_center, t_center, p)
            row.image_dist = s(image, image, center)
            bound = max(weights.a * row.dist, half_b * (back + row.image_dist))
            if row.moved > bound + tol:
                violations.append((p, row.moved, bound))
        rows.append(row)
    return rows, violations


def _grid_margin(space, rows, tol):
    """Half the steepest slope of S(., ., x0) between neighbouring sample
    coordinates, times the grid step; never below tol."""
    by_value = sorted({r.point.value: r.dist for r in rows}.items())
    slopes = [
        abs(d1 - d0) / (c1 - c0)
        for (c0, d0), (c1, d1) in itertools.pairwise(by_value)
    ]
    return max(tol, max(slopes, default=0) * (space.step / 2))


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
    _, violations = _rows(
        space, mapping, a, b, space.resolve(x0), space.sampled(sample), tol,
        every_dist=False,
    )
    return violations


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
    rows, zam = _rows(
        space, mapping, a, b, center, space.sampled(sample), tol,
        every_dist=True,
    )
    radius = min((r.moved for r in rows if r.moved > tol), default=Fraction(0))
    if tol_circle is not None:
        margin = to_fraction(tol_circle)
    elif space.kind == "real_grid":
        margin = _grid_margin(space, rows, tol)
    else:
        margin = tol
    circle = [r for r in rows if abs(r.dist - radius) <= margin]
    reach, limit = radius + margin, radius + tol
    disc = [r for r in rows if r.dist <= reach]

    s = space.smetric.triple
    for r in disc:
        if r.image_dist is None:
            r.image_dist = s(r.image, r.image, center)
    hypothesis_violations = [
        (r.point, r.image_dist) for r in disc if r.image_dist > limit
    ]
    nonfixed = [r.point for r in disc if r.moved > tol]
    circle_fixed = all(r.moved <= tol for r in circle)
    hyp_ok_on_circle = all(r.image_dist <= limit for r in circle)
    inconsistent = not zam and (
        (hyp_ok_on_circle and not circle_fixed)
        or (not hypothesis_violations and bool(nonfixed))
    )
    return CircleReport(
        rho=radius,
        circle_points=[r.point for r in circle],
        disc_points=[r.point for r in disc],
        zamfirescu_violations=zam,
        hypothesis_violations=hypothesis_violations,
        circle_fixed=circle_fixed,
        disc_fixed=not nonfixed,
        nonfixed_witnesses=nonfixed,
        inconsistent=inconsistent,
        tol_circle=margin,
    )
