"""Self-maps: tables, formulas, powers, and exact fixedness."""

from fractions import Fraction

import pytest

from conftest import identity_mapping, sum_abs_smetric

from smetriclab import (
    Formula,
    FormulaMapping,
    MappingRangeError,
    PowerMapping,
    Space,
    TableMapping,
    TableSMetric,
)


def _label_space():
    entries = {}
    for x in "pq":
        for y in "pq":
            for z in "pq":
                diagonal = x == y == z
                entries[(x, y, z)] = Fraction(0) if diagonal else Fraction(1)
    return Space.finite(["p", "q"], TableSMetric(entries))


def test_table_mapping_resolves_targets():
    space = _label_space()
    swap = TableMapping({"p": "q", "q": "p"})
    assert swap.apply(space, space.resolve("p")).label == "q"
    with pytest.raises(MappingRangeError, match="no entry"):
        TableMapping({"p": "q"}).apply(space, space.resolve("q"))


def test_formula_mapping_needs_coordinates():
    space = _label_space()
    double = FormulaMapping(Formula.parse("2*x", ("x",)))
    with pytest.raises(MappingRangeError, match="coordinate"):
        double.apply(space, space.resolve("p"))


def test_formula_mapping_off_grid_image_is_free_standing():
    space = Space.real_grid(0, 1, Fraction(1, 4), sum_abs_smetric())
    shift = FormulaMapping(Formula.parse("x + 0.1", ("x",)))
    image = shift.apply(space, space.resolve(Fraction(1, 2)))
    assert image.value == Fraction(3, 5)
    assert image.label == "0.6"
    assert image.label not in space


def test_power_mapping_composes():
    space = _label_space()
    swap = TableMapping({"p": "q", "q": "p"})
    assert PowerMapping(swap, 2).apply(space, space.resolve("p")).label == "p"
    assert PowerMapping(swap, 3).apply(space, space.resolve("p")).label == "q"
    with pytest.raises(ValueError, match="at least 1"):
        PowerMapping(swap, 0)


def test_is_fixed_is_exact():
    space = Space.real_grid(0, 1, Fraction(1, 4), sum_abs_smetric())
    point = space.resolve(Fraction(3, 4))
    assert identity_mapping().apply(space, point) == point
    shift = FormulaMapping(Formula.parse("x + 0.1", ("x",)))
    point = space.resolve(Fraction(1, 2))
    assert shift.apply(space, point) != point


def test_band_map_images(four_space, four_map):
    images = {
        p.label: four_map.apply(four_space, p).label
        for p in four_space.points
    }
    assert images == {"0": "4", "2": "4", "4": "4", "8": "2"}
