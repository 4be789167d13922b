"""Self-maps of a space: lookup tables, formulas, and their powers.

A map image may leave the declared universe (a formula on a grid can land
between nodes or past an endpoint).  ``apply`` therefore returns the
canonical universe point when the image resolves and a free-standing
point otherwise; callers that need the orbit to stay inside the universe
(the iteration driver) decide how strict to be.

``_read`` is how the circle pass, the condition (i)/(ii) pair rows and the
discontinuity criterion read points, images and S: as ints on one lattice
when ``on_lattice`` and S compile there.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .expr import Formula
from .numeric import lattice_scale
from .space import FormulaSMetric, Point, Space, SpaceError


class MappingRangeError(SpaceError):
    """The image of a point cannot be used where it is required."""


class Mapping:
    def apply(self, space: Space, x: Point) -> Point:
        raise NotImplementedError


class TableMapping(Mapping):
    """Map given by an explicit label -> label table."""

    def __init__(self, entries: dict[str, str]):
        self.entries = dict(entries)

    def apply(self, space: Space, x: Point) -> Point:
        try:
            target = self.entries[x.label]
        except KeyError:
            raise MappingRangeError(f"map has no entry for {x.label!r}") from None
        return space.resolve(target)


class FormulaMapping(Mapping):
    """Map computed from a formula in x."""

    def __init__(self, formula: Formula):
        self.formula = formula

    def apply(self, space: Space, x: Point) -> Point:
        if x.value is None:
            raise MappingRangeError(
                f"point {x.label!r} has no numeric coordinate"
            )
        return space.coerce(self.formula(x.value))


class PowerMapping(Mapping):
    """The m-fold composition of a base map."""

    def __init__(self, base: Mapping, m: int):
        if m < 1:
            raise ValueError("power must be at least 1")
        self.base = base
        self.m = m

    def apply(self, space: Space, x: Point) -> Point:
        for _ in range(self.m):
            x = self.base.apply(space, x)
        return x


def on_lattice(mapping: Mapping, points: list) -> tuple | None:
    """``(scale, xs, t)``: the points' coordinates as ints over the least
    scale that holds them and their images under a formula map exactly,
    and ``t``, the map on such ints.  A point is a ``Point`` or its
    coordinate.  None for another map, a formula that divides by a
    variable or by 0, a point without a coordinate, or a scale past
    ``numeric.MAX_LATTICE_BITS``."""
    if not isinstance(mapping, FormulaMapping):
        return None
    values = [p.value if isinstance(p, Point) else p for p in points]
    scale = lattice_scale(values)
    if scale is None:
        return None
    compiled = mapping.formula.scaled(scale)
    if compiled is None:
        return None
    image, den = compiled
    lattice = math.lcm(scale, den)
    up, image_up = lattice // scale, lattice // den

    def t(x):
        return image((x // up,)) * image_up

    return lattice, [v.numerator * (lattice // v.denominator) for v in values], t


@dataclass
class _Reading:
    """How one call reads its points, their images and S: on a lattice, as
    ints ``scale`` times the coordinates, and S as ``den`` times its value;
    else as points of the space, T and S evaluated as they are read."""

    points: list
    t: Callable  # a read point -> its image, read the same way
    s: Callable  # (x, y, z) -> S(x, y, z) times den
    den: int = 1
    scale: int | None = None

    def cut(self, t: Fraction):
        """t for a read value v to meet in ``v > cut`` or ``v <= cut``."""
        return t if self.scale is None else math.floor(t * self.den)

    def exact(self, value, weight=1) -> Fraction:
        return Fraction(value, self.den * weight)


def _read(space, mapping, points):
    """The reading of ``points``, each a ``Point`` or a coordinate; off
    the lattice each is coerced to a point of the space."""
    smetric = space.smetric
    if isinstance(smetric, FormulaSMetric):
        lattice = on_lattice(mapping, points)
        compiled = lattice and smetric.formula.scaled(lattice[0])
        if compiled:
            scale, xs, t = lattice
            return _Reading(xs, t, *compiled, scale)
    return _Reading(
        [space.coerce(p) for p in points],
        functools.partial(mapping.apply, space),
        lambda xyz: smetric.triple(*xyz),
    )
