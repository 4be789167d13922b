"""Evidence records, held as columns until the report is written.

A condition check's evidence list is a ``Rows``: one column per field,
each holding one raw value per record.  The condition kernels keep their
raw values as ints: a point or a probe as its index into the kernel's
list, a number as an int over the kernel's den.  ``cli.write_json`` turns
each raw value into text as it writes it, once per distinct value of a
column, so a float is ``p / den``: CPython divides ints with correct
rounding, as ``Fraction.__float__`` does.  Indexing builds one record
when asked: a tuple of the kernel's exact values, or, once ``named``, a
dict of JSON-ready values, so that a ``Rows`` compares equal to the list
the kernel or the report held before.  Other checks' evidence lists are
plain lists of such dicts (``records``).
"""

from __future__ import annotations

import functools
import operator
from collections.abc import Sequence
from fractions import Fraction

from .space import Point


def describe(value: object) -> object:
    """JSON-ready form of a check option or evidence value.

    Points become their labels and exact numbers floats, a Fraction or
    an int as its literal was read; lists and tuples are converted element
    by element; anything else (bools, strings, None) is kept as is.
    """
    kind = type(value)  # exact types first: reports convert many values
    if kind is Fraction or kind is int:
        # what float(value) computes, without its Python-level method call
        return value.numerator / value.denominator
    if kind is Point:
        return value.label
    if kind is list or kind is tuple:
        return [describe(v) for v in value]
    return value


class Indexed:
    """A column of indices into ``items``, a kernel's points or probes."""

    def __init__(self, values: list[int], items: list):
        self.values, self.items = values, items

    def exact(self, i):
        return self.items[i]

    def leaf(self, i):
        return self.leaves[i]

    def check(self) -> None:
        """Make every item JSON-ready; one past float range raises here."""
        self.leaves = list(map(describe, self.items))


class Scaled:
    """A column of ints over ``den``.  ``largest`` bounds |v| over every
    record found, kept or not, and is past float range over ``den`` when
    one of them is; by default it is the largest |v| of ``values``."""

    def __init__(self, values: list[int], den: int, largest: int | None = None):
        self.values, self.den = values, den
        self.largest = max(map(abs, values), default=0) if largest is None else largest

    def exact(self, v):
        return Fraction(v, self.den)

    def leaf(self, v):
        return v / self.den

    def check(self) -> None:
        """Raise OverflowError when a value's float is past float range:
        the largest |v| gives the largest float."""
        self.largest / self.den


class Rows(Sequence):
    """Records held as columns; ``total`` counts every record found, of
    which the first ``len(rows)`` were kept."""

    def __init__(self, columns: list, keys: tuple[str, ...] | None = None,
                 total: int | None = None):
        self.columns, self.keys = columns, keys
        self.total = len(self) if total is None else total

    def named(self, keys: tuple[str, ...]) -> Rows:
        """The same records as dicts over ``keys`` of JSON-ready values;
        a value past float range raises OverflowError here."""
        for column in self.columns:
            column.check()
        return Rows(self.columns, keys, self.total)

    def __len__(self) -> int:
        return len(self.columns[0].values) if self.columns else 0

    def __iter__(self):
        if self.keys is None:
            return zip(*(map(c.exact, c.values) for c in self.columns))
        rows = zip(*(map(c.leaf, c.values) for c in self.columns))
        return map(dict, map(functools.partial(zip, self.keys), rows))

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(len(self))[index]]
        i = range(len(self))[index]
        if self.keys is None:
            return tuple(c.exact(c.values[i]) for c in self.columns)
        return {k: c.leaf(c.values[i]) for k, c in zip(self.keys, self.columns)}

    def __eq__(self, other):
        if not isinstance(other, (list, Rows)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    def __repr__(self) -> str:
        return repr(list(self))


def records(keys: tuple[str, ...], rows: list[tuple]) -> list[dict]:
    """Records of a kernel's result tuples under ``keys``, each value made
    JSON-ready now, so that one past float range raises here."""
    return [dict(zip(keys, map(describe, row))) for row in rows]
