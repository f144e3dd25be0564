"""Point arithmetic and the componentwise order."""

from __future__ import annotations

import random

import pytest

from goodsgp import DimensionMismatch, Point, gs_contains, join, ones, small_set

from _corpus import meet


def _geq(a, b):
    """a >= b in the componentwise order, read off the join."""
    return join(a, b) == a


def test_point_is_a_tuple_of_ints():
    p = Point((2.0, 3))
    assert isinstance(p, tuple)
    assert p == (2, 3)
    assert all(isinstance(c, int) for c in p)


def test_point_refuses_non_integral_coordinates(dup_example):
    # int() would truncate each of these to a point that exists
    for p in ((2.5, 3), (3, 2.5), (3.9, 3.2)):
        with pytest.raises(ValueError, match=r"point \(.*\) has a non-integral coordinate"):
            Point(p)
    with pytest.raises(ValueError, match=r"point \(3\.9, 3\.2\)"):
        gs_contains(dup_example, (3.9, 3.2))
    with pytest.raises(ValueError, match=r"point \(2\.5, 2\)"):
        small_set([(0, 0), (2.5, 2)])
    assert Point((True, 2.0)) == (1, 2)


def test_point_needs_a_coordinate():
    with pytest.raises(ValueError):
        Point(())


def test_point_repr_round_trips():
    p = Point((4, 7))
    assert repr(p) == "Point((4, 7))"
    assert eval(repr(p)) == p


def test_point_arithmetic():
    a = Point((2, 5))
    b = Point((1, 3))
    assert a + b == Point((3, 8))
    assert a - b == Point((1, 2))
    with pytest.raises(DimensionMismatch):
        a + Point((1, 2, 3))
    with pytest.raises(DimensionMismatch):
        a - Point((1,))


def test_meet_join_are_componentwise():
    a = Point((2, 7))
    b = Point((5, 3))
    assert meet(a, b) == Point((2, 3))
    assert join(a, b) == Point((5, 7))


def test_order_predicates():
    a = Point((2, 3))
    b = Point((2, 5))
    assert _geq(b, a) and not _geq(a, b)
    assert _geq(a, a)
    # incomparable pairs fail both directions
    c = Point((3, 1))
    assert not _geq(c, a) and not _geq(a, c)
    with pytest.raises(DimensionMismatch):
        _geq(a, Point((1, 2, 3)))


def test_constant_points():
    assert ones(2) == Point((1, 1))


def test_lattice_laws_hold_on_random_points():
    rng = random.Random(1104)
    for _ in range(200):
        n = rng.randint(1, 4)
        a = Point(rng.randrange(12) for _ in range(n))
        b = Point(rng.randrange(12) for _ in range(n))
        c = Point(rng.randrange(12) for _ in range(n))
        assert meet(a, b) == meet(b, a)
        assert join(a, b) == join(b, a)
        assert meet(a, meet(b, c)) == meet(meet(a, b), c)
        assert join(a, meet(a, b)) == a  # absorption
        assert _geq(a, meet(a, b)) and _geq(join(a, b), a)
        assert _geq(b, a) == (meet(a, b) == a)
