"""Exact rational value model shared by every module.

All quantities (S-values, tolerances, grid coordinates, map images) are
carried as `fractions.Fraction` internally.  Floats appear only at the
reporting boundary.  This is what lets verdicts like "the infimum equals 2"
or "these two reports are byte-identical" hold exactly instead of up to
rounding noise: decimal inputs such as 0.01 are read as 1/100, not as the
nearest binary double.
"""

from __future__ import annotations

from fractions import Fraction

#: Default strictness margin for inequality checks.
DEFAULT_TOL = Fraction(1, 10**9)


def to_fraction(x: object) -> Fraction:
    """Coerce a number to an exact Fraction.

    Ints and Fractions pass through.  Strings are parsed as exact decimals
    ("0.75" -> 3/4).  Floats convert via their exact binary value, so pass
    decimal strings (or go through the JSON loader) when the literal
    decimal matters.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as a rational number")


def format_decimal(q: Fraction) -> str:
    """Canonical short string for a rational.

    Values with a finite decimal expansion print as plain decimals with no
    trailing zeros ("3", "-0.5", "3.01").  Anything else falls back to the
    "n/d" form, which the expression grammar reads back as a division.
    """
    q = Fraction(q)
    sign = "-" if q < 0 else ""
    n, d = abs(q.numerator), q.denominator
    twos = fives = 0
    rest = d
    while rest % 2 == 0:
        rest //= 2
        twos += 1
    while rest % 5 == 0:
        rest //= 5
        fives += 1
    if rest != 1:
        return f"{sign}{n}/{d}"
    k = max(twos, fives)
    scaled = n * 10**k // d
    whole, frac = divmod(scaled, 10**k)
    if k == 0 or frac == 0:
        return f"{sign}{whole}"
    digits = str(frac).rjust(k, "0").rstrip("0")
    return f"{sign}{whole}.{digits}"
