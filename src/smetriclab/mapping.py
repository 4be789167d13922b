"""Self-maps of a space: lookup tables, formulas, and their powers.

A map image may leave the declared universe (a formula on a grid can land
between nodes or past an endpoint).  ``apply`` therefore returns the
canonical universe point when the image resolves and a free-standing
point otherwise; callers that need the orbit to stay inside the universe
(the iteration driver) decide how strict to be.

``Mapping.scaled`` is the map's int kernel, generated once per scale,
through which ``space._read`` reads images on a lattice (README,
"Tolerance semantics").
"""

from __future__ import annotations

from typing import Callable

from .expr import Formula
from .space import Point, Space, SpaceError


class MappingRangeError(SpaceError):
    """The image of a point cannot be used where it is required."""


class Mapping:
    def apply(self, space: Space, x: Point) -> Point:
        raise NotImplementedError

    def scaled(self, scale: int) -> tuple[Callable, int] | None:
        """(kernel, den): the map from one int per variable, the
        coordinate times ``scale``, to its image times den, over ints;
        None when it has none."""
        return None


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

    def scaled(self, scale: int) -> tuple[Callable, int] | None:
        return self.formula.scaled(scale)


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

