"""Orbit iteration and fixed-point search.

The iteration driver records the orbit x0, Tx0, T^2 x0, ... together with
the displacement sequence alpha_n = S(x_n, x_n, x_{n+1}).  Under the
contraction conditions the alphas decay by at least the factor xi per
step, which the tests assert on recorded traces.

On grid spaces a map image may fall between nodes; it is snapped to the
nearest node only when strictly less than one step away, otherwise the
orbit has genuinely left the universe and iteration stops with an error.
Convergence is always confirmed against the raw (pre-snap) image so that
snapping can never invent a fixed point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .contraction import ContractionParams, _m_value
from .mapping import Mapping, MappingRangeError, PowerMapping, is_fixed
from .numeric import DEFAULT_TOL, to_fraction
from .space import Point, Space


@dataclass
class Outcome:
    status: str  # "converged" | "max_iter_reached" | "cycle_detected"
    u: Point | None = None
    steps: int | None = None
    period: int | None = None


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
    converges in 0 steps.  Revisiting an earlier orbit point without
    converging reports a cycle with its period.
    """
    tol = to_fraction(tol)
    start = space.resolve(x0)
    points = [start]
    alphas: list[Fraction] = []
    visited = {start: 0}
    s = space.smetric.triple

    for n in range(max_iter):
        current = points[-1]
        image = mapping.apply(space, current)
        landed = _land(space, current, image)
        alpha = s(current, current, landed)
        points.append(landed)
        alphas.append(alpha)
        if alpha <= tol:
            # confirm against the raw image so snapping cannot fake a fix
            if landed == image or s(current, current, image) <= tol:
                return IterationTrace(
                    points, alphas, Outcome("converged", u=current, steps=n)
                )
        if landed in visited:
            period = (n + 1) - visited[landed]
            return IterationTrace(
                points, alphas, Outcome("cycle_detected", period=period)
            )
        visited[landed] = n + 1
    return IterationTrace(points, alphas, Outcome("max_iter_reached"))


def _land(space: Space, origin: Point, image: Point) -> Point:
    """Force an orbit step back onto the universe, or fail loudly."""
    if image in space:
        return space.resolve(image)
    if space.kind == "real_grid" and image.value is not None:
        nearest, gap = space.nearest(image.value)
        assert space.step is not None
        if gap < space.step:
            return nearest
        raise MappingRangeError(
            f"image {image.label} of {origin.label} leaves the grid"
        )
    raise MappingRangeError(
        f"image {image.label} of {origin.label} is outside the universe"
    )


def fix_set(space: Space, mapping: Mapping) -> list[Point]:
    """All universe points fixed by the map, in universe order.

    The comparison T(x) = x is exact; images that leave the universe are
    simply not fixed.
    """
    return [p for p in space.points if is_fixed(space, mapping, p)]


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
    that does not is rejected by index.
    ``u`` itself must be fixed within ``tol``.
    """
    tol = to_fraction(tol)
    limit_tol = to_fraction(limit_tol)
    conv = limit_tol if conv_tol is None else to_fraction(conv_tol)
    target = space.resolve(u)
    image = mapping.apply(space, target)
    s = space.smetric.triple
    if s(target, target, image) > tol:
        raise ValueError(f"{target.label} is not a fixed point of the map")

    per_sequence = []
    tails_at_u = True
    for index, raw_seq in enumerate(sequences):
        seq = [space.coerce(x) for x in raw_seq]
        if not seq:
            raise ValueError(f"sequence {index} is empty")
        start = len(seq) // 2 if tail_start is None else tail_start
        if any(s(x, x, target) > conv for x in seq[start:]):
            raise ValueError(f"sequence {index} does not converge to u")
        w = window if window is not None else max(1, len(seq) // 4)
        tail = seq[-w:]
        tails_at_u = tails_at_u and all(x == target for x in tail)
        values = [
            _m_value(s, params, x, target, mapping.apply(space, x), image)
            for x in tail
        ]
        estimate = sum(values) / len(values)
        spread = max(values) - min(values)
        per_sequence.append(
            SequenceLimit(
                index, estimate, spread, spread <= 10 * limit_tol, len(tail)
            )
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
