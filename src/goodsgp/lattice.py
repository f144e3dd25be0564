"""Points of Z^n with the componentwise partial order.

Python compares tuples lexicographically.  That total order is what we use for
deterministic sorting of output, but it is NOT the semigroup order.  Order
tests in this package compare componentwise, through geq below or inline.
"""

from __future__ import annotations

from .errors import DimensionMismatch

__all__ = [
    "Point",
    "meet",
    "join",
    "geq",
    "ones",
]


class Point(tuple):
    """An immutable point of Z^n.  Addition and subtraction are componentwise."""

    __slots__ = ()

    def __new__(cls, coords):
        p = super().__new__(cls, (int(c) for c in coords))
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


def _check_dims(a, b):
    if len(a) != len(b):
        raise DimensionMismatch(
            "dimension mismatch: %d vs %d" % (len(a), len(b))
        )


def meet(a: Point, b: Point) -> Point:
    """Componentwise minimum (infimum in the product order)."""
    _check_dims(a, b)
    return Point(min(x, y) for x, y in zip(a, b))


def join(a: Point, b: Point) -> Point:
    """Componentwise maximum (supremum in the product order)."""
    _check_dims(a, b)
    return Point(max(x, y) for x, y in zip(a, b))


def geq(a, b) -> bool:
    """a >= b in every coordinate."""
    _check_dims(a, b)
    return all(x >= y for x, y in zip(a, b))


def ones(n: int) -> Point:
    return Point((1,) * n)
