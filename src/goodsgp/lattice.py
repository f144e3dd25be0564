"""Points of Z^n with the componentwise partial order.

Python compares tuples lexicographically.  That total order is what we use for
deterministic sorting of output, but it is NOT the semigroup order.  Order
tests in this package compare componentwise, inline.

Every reader of points, of one point or of a list, reports a point of the
wrong dimension by one message (_wrong_dimension).
"""

from __future__ import annotations

from .errors import DimensionMismatch

__all__ = [
    "Point",
    "join",
    "ones",
]


class Point(tuple):
    """An immutable point of Z^n, its coordinates read by _integers.
    Addition and subtraction are componentwise."""

    __slots__ = ()

    def __new__(cls, coords):
        p = tuple.__new__(
            cls, _integers(tuple(coords), "point %(values)s has a non-integral coordinate"))
        if not p:
            raise ValueError("a point needs at least one coordinate")
        return p

    @property
    def dim(self) -> int:
        return len(self)

    def __add__(self, other):
        _check_dims(self, other)
        return Point(a + b for a, b in zip(self, other))

    __radd__ = __add__

    def __sub__(self, other):
        _check_dims(self, other)
        return Point(a - b for a, b in zip(self, other))

    def __repr__(self):
        return "Point(%s)" % (tuple(self),)


def _integers(values: tuple, error="%(value)r is not an integer") -> tuple:
    """The tuple values read by int(), each of which must equal what it
    reads as: ints, bools and integral floats such as 2.0 are read, while
    2.5 or "3" raises ValueError(error % {"values": values, "value": v}),
    v the first such value."""
    ints = tuple(map(int, values))
    if ints != values:
        bad = next(v for v, i in zip(values, ints) if i != v)
        raise ValueError(error % {"values": values, "value": bad})
    return ints


def _wrong_dimension(p, n, noun="point") -> DimensionMismatch:
    """The error for a point p read where points of n coordinates are
    expected, the noun naming what p stands for."""
    return DimensionMismatch("%s %s has %d coordinates, not %d" % (noun, tuple(p), len(p), n))


def _check_dims(a, b):
    if len(a) != len(b):
        raise _wrong_dimension(b, len(a))


def join(a: Point, b: Point) -> Point:
    """Componentwise maximum (supremum in the product order)."""
    _check_dims(a, b)
    return Point(max(x, y) for x, y in zip(a, b))


def ones(n: int) -> Point:
    return Point((1,) * n)
