"""Exact value model: coercions and canonical decimal rendering."""

from fractions import Fraction

import pytest

from smetriclab import DEFAULT_TOL, format_decimal, to_fraction
from smetriclab.numeric import LiteralBoundError, read_number


def test_default_margin_is_exact():
    assert DEFAULT_TOL == Fraction(1, 10**9)


@pytest.mark.parametrize(
    ("value", "expected"),
    [
        (3, Fraction(3)),
        ("0.75", Fraction(3, 4)),
        ("1e-2", Fraction(1, 100)),
        (Fraction(5, 7), Fraction(5, 7)),
    ],
)
def test_to_fraction_exact_paths(value, expected):
    assert to_fraction(value) == expected


def test_to_fraction_float_is_binary_exact():
    assert to_fraction(0.5) == Fraction(1, 2)
    assert to_fraction(0.1) != Fraction(1, 10)  # the double, not the decimal


def test_to_fraction_rejects_non_numbers():
    with pytest.raises(TypeError):
        to_fraction(object())


@pytest.mark.parametrize(
    ("q", "text"),
    [
        (Fraction(0), "0"),
        (Fraction(3), "3"),
        (Fraction(-3), "-3"),
        (Fraction(1, 4), "0.25"),
        (Fraction(-1, 8), "-0.125"),
        (Fraction(301, 100), "3.01"),
        (Fraction(1, 2), "0.5"),
        (Fraction(1, 3), "1/3"),
        (Fraction(-22, 7), "-22/7"),
        (Fraction(1, 10**9), "0.000000001"),
    ],
)
def test_format_decimal(q, text):
    assert format_decimal(q) == text


@pytest.mark.parametrize(
    ("text", "expected"),
    [
        ("0.01", Fraction(1, 100)),
        ("-2.5E+2", Fraction(-250)),
        ("1e400", Fraction(10**400)),
        ("1e-999", Fraction(1, 10**999)),  # 1 + 999 digits: at the bound
        ("9" * 1000, Fraction(10**1000 - 1)),
        ("1/3", Fraction(1, 3)),
    ],
)
def test_read_number_is_exact_within_the_bound(text, expected):
    assert read_number(text) == expected


@pytest.mark.parametrize(
    "text", ["1e-1000", "1e99999999", "1e" + "9" * 5000, "9" * 1001, "0." + "1" * 1000]
)
def test_read_number_rejects_literals_past_the_bound(text):
    for reader in (read_number, to_fraction):
        with pytest.raises(LiteralBoundError, match="more than 1000 digits"):
            reader(text)
