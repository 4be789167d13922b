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

Grid membership uses its own tolerance: half of (max local slope of
S(., ., x0)) * step, so that at most the nearest node on each side of the
true radius qualifies.  Finite universes use the plain margin tol.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .mapping import Mapping
from .numeric import DEFAULT_TOL, to_fraction
from .space import Point, Space


@dataclass(frozen=True)
class CircleSpec:
    """Center and radius; the radius must be nonnegative."""

    center: Point
    radius: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "radius", to_fraction(self.radius))
        if self.radius < 0:
            raise ValueError("radius must be nonnegative")


def rho(
    space: Space,
    mapping: Mapping,
    sample: list[object] | None = None,
    tol: object = DEFAULT_TOL,
) -> Fraction:
    """Least displacement among sampled points that actually move.

    Points count as moved when S(Tx, Tx, x) > tol.  With no moved point
    the infimum is empty and the value is 0, matching the degenerate
    circle {x0}.  On a grid this is an upper estimate of the true
    infimum over the continuum.
    """
    tol = to_fraction(tol)
    pts = space.sampled(sample)
    s = space.smetric.triple
    best: Fraction | None = None
    for p in pts:
        image = mapping.apply(space, p)
        moved = s(image, image, p)
        if moved > tol and (best is None or moved < best):
            best = moved
    return best if best is not None else Fraction(0)


def circle_tolerance(
    space: Space,
    center: Point,
    sample: list[Point],
    tol: Fraction,
) -> Fraction:
    """Membership tolerance for circle and disc scans.

    Finite universes keep the plain margin.  On a grid, S(., ., center)
    moves by at most (max local slope) * step between nodes, so half of
    that bounds how far the nearest node can sit from the true radius.
    """
    if space.kind != "real_grid" or len(sample) < 2:
        return tol
    s = space.smetric.triple
    values = [s(p, p, center) for p in sample]
    steepest = max(
        abs(b - a) for a, b in zip(values, values[1:])
    )
    return max(tol, steepest / 2)


def circle_points(
    space: Space,
    spec: CircleSpec,
    sample: list[object] | None = None,
    tol_circle: object | None = None,
    tol: object = DEFAULT_TOL,
) -> list[Point]:
    """Sampled points with |S(x, x, x0) - r| within the membership tolerance."""
    rows, margin = _distances(space, spec, sample, tol_circle, tol)
    return [p for p, v in rows if abs(v - spec.radius) <= margin]


def disc_points(
    space: Space,
    spec: CircleSpec,
    sample: list[object] | None = None,
    tol_circle: object | None = None,
    tol: object = DEFAULT_TOL,
) -> list[Point]:
    """Sampled points with S(x, x, x0) <= r plus the membership tolerance."""
    rows, margin = _distances(space, spec, sample, tol_circle, tol)
    return [p for p, v in rows if v <= spec.radius + margin]


def _margin(space, center, pts, tol, tol_circle):
    if tol_circle is None:
        return circle_tolerance(space, center, pts, to_fraction(tol))
    return to_fraction(tol_circle)


def _distances(space, spec, sample, tol_circle, tol):
    """(x, S(x, x, x0)) over the sample, and the membership margin."""
    pts = space.sampled(sample)
    center = space.coerce(spec.center)
    margin = _margin(space, center, pts, tol, tol_circle)
    s = space.smetric.triple
    return [(p, s(p, p, center)) for p in pts], margin


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
    a, b = to_fraction(a), to_fraction(b)
    if not 0 <= a < 1:
        raise ValueError(f"a must lie in [0, 1), got {a}")
    if not 0 <= b < 1:
        raise ValueError(f"b must lie in [0, 1), got {b}")
    tol = to_fraction(tol)
    pts = space.sampled(sample)
    center = space.resolve(x0)
    s = space.smetric.triple
    t_center = mapping.apply(space, center)
    violations = []
    for p in pts:
        image = mapping.apply(space, p)
        lhs = s(image, image, p)
        if lhs <= tol:
            continue
        rhs = max(
            a * s(p, p, center),
            b / 2 * (s(t_center, t_center, p) + s(image, image, center)),
        )
        if lhs > rhs + tol:
            violations.append((p, lhs, rhs))
    return violations


@dataclass
class FixedVerdict:
    circle_fixed: bool
    disc_fixed: bool
    nonfixed_witnesses: list[Point]


@dataclass
class CircleReport:
    rho: Fraction
    circle_points: list[Point]
    disc_points: list[Point]
    zamfirescu_violations: list[tuple[Point, Fraction, Fraction]]
    hypothesis_violations: list[tuple[Point, Fraction]]
    fixed_verdict: FixedVerdict
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

    Computes rho over the sample, collects circle and disc membership,
    checks the two hypotheses (the pointwise x0-bound everywhere, and
    S(Tx, Tx, x0) <= rho on the disc), then tests fixedness of every
    circle and disc point directly.  Verdicts never assume the theorem:
    a moved circle point under fully verified hypotheses is reported as
    an inconsistency.
    """
    tol = to_fraction(tol)
    pts = space.sampled(sample)
    center = space.resolve(x0)
    s = space.smetric.triple

    radius = rho(space, mapping, pts, tol)
    spec = CircleSpec(center, radius)
    margin = _margin(space, center, pts, tol, tol_circle)
    circle = circle_points(space, spec, pts, margin, tol)
    disc = disc_points(space, spec, pts, margin, tol)

    zam = verify_zamfirescu_x0(space, mapping, a, b, center, pts, tol)

    hypothesis_violations = []
    nonfixed: list[Point] = []
    for p in disc:
        image = mapping.apply(space, p)
        if s(image, image, center) > radius + tol:
            hypothesis_violations.append((p, s(image, image, center)))
        if s(image, image, p) > tol:
            nonfixed.append(p)

    circle_labels = {p.label for p in circle}
    bad_on_circle = [p for p in nonfixed if p.label in circle_labels]
    hyp_bad_on_circle = [
        p for p, _ in hypothesis_violations if p.label in circle_labels
    ]
    verdict = FixedVerdict(
        circle_fixed=not bad_on_circle,
        disc_fixed=not nonfixed,
        nonfixed_witnesses=nonfixed,
    )
    zam_ok = not zam
    inconsistent = (
        zam_ok and not hyp_bad_on_circle and bool(bad_on_circle)
    ) or (zam_ok and not hypothesis_violations and bool(nonfixed))
    return CircleReport(
        rho=radius,
        circle_points=circle,
        disc_points=disc,
        zamfirescu_violations=zam,
        hypothesis_violations=hypothesis_violations,
        fixed_verdict=verdict,
        inconsistent=inconsistent,
        tol_circle=margin,
    )
