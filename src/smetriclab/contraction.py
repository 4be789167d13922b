"""Contraction-style bounds on a self-map and their verification.

The central quantity for a pair (x, y) is the weighted displacement
maximum

    M(x, y) = max( a * S(x, x, y),
                   b/2 * (S(x, x, Tx) + S(y, y, Ty)),
                   c/2 * (S(x, x, Ty) + S(y, y, Tx)) )

with a, b in [0, 1) and c in [0, 1/2].  Two conditions are checked over a
pair sample:

  (i)  S(Tx, Tx, Ty) <= phi(M(x, y)) for a gauge phi with phi(t) < t on
       t > 0, and
  (ii) for each probe eps > 0 with window width delta(eps) > 0:
       eps < M(x, y) < eps + delta(eps) implies S(Tx, Tx, Ty) <= eps.

Window membership in (ii) is compared exactly; only the final inequality
gets the additive tolerance.  The derived contraction factor

    xi = max(a, b / (2 - b), c / (2 - 2c))

is strictly below 1 for admissible parameters and bounds the step-to-step
decay of displacements along an orbit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .expr import Formula
from .mapping import Mapping
from .numeric import DEFAULT_TOL, to_fraction
from .space import Space

_HALF = Fraction(1, 2)
_ZERO = Fraction(0)


class GaugeDomainError(ValueError):
    """A gauge value left its admissible range (for example delta <= 0)."""


@dataclass(frozen=True)
class ContractionParams:
    """Weights (a, b, c) with the admissibility ranges enforced."""

    a: Fraction
    b: Fraction
    c: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", to_fraction(self.a))
        object.__setattr__(self, "b", to_fraction(self.b))
        object.__setattr__(self, "c", to_fraction(self.c))
        if not 0 <= self.a < 1:
            raise ValueError(f"a must lie in [0, 1), got {self.a}")
        if not 0 <= self.b < 1:
            raise ValueError(f"b must lie in [0, 1), got {self.b}")
        if not 0 <= self.c <= _HALF:
            raise ValueError(f"c must lie in [0, 1/2], got {self.c}")


@dataclass(frozen=True)
class GaugeSpec:
    """Optional gauge functions: phi in the variable t, delta in eps."""

    phi: Formula | None = None
    delta: Formula | None = None


def xi(params: ContractionParams) -> Fraction:
    """Contraction factor; strictly below 1 for admissible parameters."""
    return max(
        params.a,
        params.b / (2 - params.b),
        params.c / (2 - 2 * params.c),
    )


def _m_value(s, params, px, py, tx, ty):
    """M(x, y) from the pair, its images and the distance ``s``.

    A weight of exactly 0 makes its term exactly 0, so the S values under
    it are not evaluated.
    """
    a, b, c = params.a, params.b, params.c
    return max(
        a * s(px, px, py) if a else _ZERO,
        b * _HALF * (s(px, px, tx) + s(py, py, ty)) if b else _ZERO,
        c * _HALF * (s(px, px, ty) + s(py, py, tx)) if c else _ZERO,
    )


def m_z_s(
    space: Space,
    mapping: Mapping,
    params: ContractionParams,
    x: object,
    y: object,
) -> Fraction:
    """The displacement maximum M(x, y) under the three-argument distance."""
    px, py = space.coerce(x), space.coerce(y)
    tx, ty = mapping.apply(space, px), mapping.apply(space, py)
    return _m_value(space.smetric.triple, params, px, py, tx, ty)


def verify_phi_gauge(
    gauge: GaugeSpec,
    t_values: list[object],
    tol: object = DEFAULT_TOL,
) -> list[tuple[Fraction, Fraction]]:
    """Check phi(t) < t at each positive probe, with strictness margin.

    Returns the violating (t, phi(t)) pairs; nonpositive probes are
    skipped since the gauge law only constrains t > 0.
    """
    if gauge.phi is None:
        raise ValueError("gauge has no phi to verify")
    tol = to_fraction(tol)
    bad = []
    for t in map(to_fraction, t_values):
        if t <= 0:
            continue
        phi_t = gauge.phi(t)
        if phi_t > t - tol:
            bad.append((t, phi_t))
    return bad


def _pair_rows(space, mapping, pairs, params):
    """(x, y, reference, S(Tx, Tx, Ty)) per pair, in sample order.

    T is applied once to each point of a pair.  The reference is M(x, y)
    under ``params``, or S(x, x, y) when ``params`` is None.
    """
    if pairs is None:
        pairs = itertools.product(space.points, repeat=2)
    else:
        pairs = [(space.coerce(x), space.coerce(y)) for x, y in pairs]
    s = space.smetric.triple
    rows = []
    for px, py in pairs:
        tx, ty = mapping.apply(space, px), mapping.apply(space, py)
        if params is None:
            reference = s(px, px, py)
        else:
            reference = _m_value(s, params, px, py, tx, ty)
        rows.append((px, py, reference, s(tx, tx, ty)))
    return rows


def verify_condition_i(
    space: Space,
    mapping: Mapping,
    params: ContractionParams,
    gauge: GaugeSpec | None = None,
    pairs: list[tuple[object, object]] | None = None,
    mode: str = "full",
    tol: object = DEFAULT_TOL,
) -> list[tuple]:
    """Check the pointwise bound (i) over a pair sample.

    Modes: "full" compares S(Tx, Tx, Ty) against phi(M(x, y)); "simple"
    against phi(S(x, x, y)); "strict" against M(x, y) itself with margin
    tol, skipping pairs where M(x, y) <= tol (nothing is claimed there).
    Returns the (x, y, reference, S(Tx, Tx, Ty)) rows of the violating
    pairs, in sample order.
    """
    if mode not in ("full", "simple", "strict"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode in ("full", "simple") and (gauge is None or gauge.phi is None):
        raise ValueError(f"mode {mode!r} needs a phi gauge")
    tol = to_fraction(tol)
    rows = _pair_rows(
        space, mapping, pairs, None if mode == "simple" else params
    )
    violations = []
    for px, py, ref, s_t in rows:
        if mode != "strict":
            bound = gauge.phi(ref)
        elif ref <= tol:
            continue
        else:
            bound = ref - 2 * tol  # s_t <= M - tol, checked with slack
        if s_t > bound + tol:
            violations.append((px, py, ref, s_t))
    return violations


def eps_grid(
    m_values: list[object],
    user_eps: list[object] | None = None,
    tol: object = DEFAULT_TOL,
) -> list[Fraction]:
    """Probe values for condition (ii) from the realized M values.

    For the distinct realized values m_1 < m_2 < ... the grid contains
    0.9 * m_i, m_i - tol, and the midpoint of each consecutive gap, plus
    any caller-supplied probes, all filtered to be positive.
    """
    tol = to_fraction(tol)
    realized = sorted({to_fraction(m) for m in m_values if to_fraction(m) > 0})
    probes: set[Fraction] = set()
    for m in realized:
        probes.add(m * Fraction(9, 10))
        probes.add(m - tol)
    for lower, upper in itertools.pairwise(realized):
        probes.add((lower + upper) / 2)
    for e in user_eps or []:
        probes.add(to_fraction(e))
    return sorted(p for p in probes if p > 0)


def condition_ii_probe(
    space: Space,
    mapping: Mapping,
    params: ContractionParams,
    gauge: GaugeSpec,
    pairs: list[tuple[object, object]] | None = None,
    eps_values: list[object] | None = None,
    tol: object = DEFAULT_TOL,
) -> tuple[list[Fraction], list[tuple]]:
    """Check the window condition (ii) over the eps probe grid.

    For each probe eps the window is (eps, eps + delta(eps)), membership
    exact; every pair whose M value falls inside must have
    S(Tx, Tx, Ty) <= eps + tol.  A probe with delta(eps) <= 0 is a
    configuration error.  Returns the probe grid and the violations as
    (x, y, eps, M(x, y), S(Tx, Tx, Ty)), ordered by eps, then by pair
    position.
    """
    if gauge.delta is None:
        raise ValueError("condition (ii) needs a delta gauge")
    tol = to_fraction(tol)
    rows = _pair_rows(space, mapping, pairs, params)
    grid = eps_grid([m for _, _, m, _ in rows], eps_values, tol)
    violations = []
    for eps in grid:
        width = gauge.delta(eps)
        if width <= 0:
            raise GaugeDomainError(
                f"delta({eps}) = {width} is not positive"
            )
        upper, cap = eps + width, eps + tol
        for px, py, m, s_t in rows:
            if eps < m < upper and s_t > cap:
                violations.append((px, py, eps, m, s_t))
    return grid, violations

