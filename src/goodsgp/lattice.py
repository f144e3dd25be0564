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
    """An immutable point of Z^n.  Addition and subtraction are componentwise.

    Each coordinate is read by int() and must equal what it reads as: ints,
    bools and integral floats such as 2.0 are read, 2.5 raises ValueError.
    """

    __slots__ = ()

    def __new__(cls, coords):
        coords = tuple(coords)
        p = super().__new__(cls, map(int, coords))
        if not p:
            raise ValueError("a point needs at least one coordinate")
        if p != coords:
            raise ValueError("point %s has a non-integral coordinate" % (coords,))
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
