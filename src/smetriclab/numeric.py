"""Exact rational value model shared by every module.

All quantities (S-values, tolerances, grid coordinates, map images) are
carried as `fractions.Fraction` internally.  Floats appear only at the
reporting boundary.  This is what lets verdicts like "the infimum equals 2"
or "these two reports are byte-identical" hold exactly instead of up to
rounding noise: decimal inputs such as 0.01 are read as 1/100, not as the
nearest binary double.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterable

#: Default strictness margin for inequality checks.
DEFAULT_TOL = Fraction(1, 10**9)

#: Most digits a number literal may have when written out: its mantissa's
#: digits plus its exponent's magnitude (1e400 has 401).
MAX_LITERAL_DIGITS = 1000


#: Most bits the scale of one lattice read may take.  Each new distinct
#: denominator widens every int a read carries, and past about this many
#: bits (the points 1/n for n <= 5,682) ``fix_set`` runs faster over
#: Fractions, so ``lattice_scale`` declines a larger scale.
MAX_LATTICE_BITS = 8192


class LiteralBoundError(ValueError):
    """A number literal longer than ``MAX_LITERAL_DIGITS`` written out."""


def read_number(text: str, kind: type = Fraction) -> int | Fraction:
    """The exact value of a number literal such as "0.01" or "1e-9", read
    as ``kind``: ``int`` reads an integer literal without a Fraction.

    Past the bound it raises LiteralBoundError before building any integer,
    so "1e99999999" fails at once; text that is not a number raises
    ValueError (ZeroDivisionError for "1/0").
    """
    mantissa, _, exponent = text.lower().partition("e")
    magnitude = exponent.strip().lstrip("+-").lstrip("0")
    if (
        len(magnitude) > len(str(MAX_LITERAL_DIGITS))
        or sum(map(str.isdigit, mantissa)) + int(magnitude or 0)
        > MAX_LITERAL_DIGITS
    ):
        raise LiteralBoundError(
            f"has more than {MAX_LITERAL_DIGITS} digits when written out"
        )
    return kind(text)


def to_fraction(x: object) -> Fraction:
    """Coerce a number to an exact Fraction.

    Fractions pass through.  Strings are read as exact decimals
    by :func:`read_number` ("0.75" -> 3/4).  Floats convert via their
    exact binary value, so pass decimal strings (or go through the JSON
    loader) when the literal decimal matters.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, str):
        return read_number(x)
    if isinstance(x, (int, float)):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as a rational number")


def lattice_scale(dens: Iterable[int]) -> int | None:
    """The least common multiple of the denominators ``dens``; None when
    it takes more than ``MAX_LATTICE_BITS`` bits.  It folds in the lcm of
    each run of 64 dens, so that most lcms are of small ints."""
    scale, dens = 1, sorted(dens, reverse=True)  # past the bound sooner
    for i in range(0, len(dens), 64):
        scale = math.lcm(scale, math.lcm(*dens[i:i + 64]))
        if scale.bit_length() > MAX_LATTICE_BITS:
            return None
    return scale


def _places(d: int) -> int | None:
    """The least k with d dividing 10**k, or None when there is none."""
    twos = fives = 0
    while d % 2 == 0:
        d //= 2
        twos += 1
    while d % 5 == 0:
        d //= 5
        fives += 1
    return max(twos, fives) if d == 1 else None


def _decimal(n: int, places: int) -> str:
    """n / 10**places for n >= 0, with no trailing zeros."""
    whole, frac = divmod(n, 10**places)
    if frac == 0:
        return str(whole)
    return f"{whole}.{str(frac).rjust(places, '0').rstrip('0')}"


def format_decimal(q: int | Fraction) -> str:
    """Canonical short string for a rational.

    Values with a finite decimal expansion print as plain decimals with no
    trailing zeros ("3", "-0.5", "3.01").  Anything else falls back to the
    "n/d" form, which the expression grammar reads back as a division.
    """
    sign = "-" if q < 0 else ""
    n, d = abs(q.numerator), q.denominator
    places = _places(d)
    if places is None:
        return f"{sign}{n}/{d}"
    return sign + _decimal(n * 10**places // d, places)


def decimal_writer(den: int) -> Callable[[int], str]:
    """``k -> format_decimal(Fraction(k, den))``; over ints alone when den
    divides a power of 10."""
    places = _places(den)
    if places is None:
        return lambda k: format_decimal(Fraction(k, den))
    up = 10**places // den
    return lambda k: ("-" if k < 0 else "") + _decimal(abs(k) * up, places)
