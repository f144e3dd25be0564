"""Factories: duplication, amalgamation, products, and maximal-element data."""

from __future__ import annotations

import collections
import itertools
import random
import tracemalloc

import pytest

from goodsgp import (
    ConstructionError,
    GoodSgpError,
    amalgamation,
    cartesian,
    duplication,
    from_maximal_elements,
    gs_contains,
    ideal_contains,
    ideal_from_generators,
    ideal_preimage_scale,
    maximal_elements,
    ns_contains,
    ns_from_generators,
    validate_small_set,
)

import _data as data
from _corpus import (
    amalgamation_args,
    construction_by_membership,
    duplication_args,
    random_amalgamation,
    random_duplication,
    random_numerical,
)


def test_duplication_golden(dup_example):
    assert data.points(dup_example.small.points) == data.points(data.DUP_SMALL)
    assert tuple(dup_example.conductor) == tuple(data.DUP_CONDUCTOR)


def test_duplication_membership_rule(ns23, dup_example):
    e = ideal_from_generators(ns23, [6])
    for x, y in itertools.product(range(11), repeat=2):
        if x == y:
            expect = ns_contains(ns23, x)
        else:
            expect = ns_contains(ns23, max(x, y)) and ideal_contains(e, min(x, y))
        assert gs_contains(dup_example, (x, y)) == expect


def test_duplication_rejects_non_ideals(ns23):
    # an ideal escaping the semigroup cannot duplicate it
    with pytest.raises(ConstructionError):
        duplication(ns23, ideal_from_generators(ns23, [1]))
    # ideal over a different ambient semigroup
    other = ns_from_generators([3, 4])
    with pytest.raises(ConstructionError):
        duplication(ns23, ideal_from_generators(other, [3]))


def test_amalgamation_golden(amalgam_example):
    assert data.points(amalgam_example.small.points) == data.points(data.AMALG_SMALL)
    assert tuple(amalgam_example.conductor) == tuple(data.AMALG_CONDUCTOR)


def test_amalgamation_masks_no_more_bits_than_the_top_holds():
    # with factor 10**7, k*x lies far above the top t1 = 9, and the columns
    # are masked to t1 + 1 bits, not k*x
    s, t = ns_from_generators([2, 3]), ns_from_generators([3, 4])
    e = ideal_from_generators(t, [3])
    k = 10**7
    tracemalloc.start()
    try:
        got = amalgamation(s, t, e, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == construction_by_membership("amalgamation", s, t, e, k)
    assert peak < 64 * 1024, peak


def test_amalgamation_rejects_bad_inputs(ns23):
    t = ns_from_generators([3, 4])
    e = ideal_from_generators(t, [3])
    with pytest.raises(ConstructionError):
        amalgamation(ns23, t, e, 1)  # 1 * 2 = 2 does not land in <3,4>
    with pytest.raises(ConstructionError):
        amalgamation(ns23, t, e, 0)
    with pytest.raises(ConstructionError):
        amalgamation(ns23, t, ideal_from_generators(ns23, [6]), 2)


def test_cartesian_of_357_and_45_is_valid():
    s = cartesian(ns_from_generators([3, 5, 7]), ns_from_generators([4, 5]))
    expect = data.points(
        (a, b) for a in data.NS357_SMALL for b in data.NS45_SMALL
    )
    assert data.points(s.small.points) == expect
    assert len(s.small.points) == 21
    assert validate_small_set(s.small).ok


def test_cartesian_of_357_and_25_golden(product_nonlocal):
    assert data.points(product_nonlocal.small.points) == data.points(data.PRODUCT_SMALL)
    assert tuple(product_nonlocal.conductor) == tuple(data.PRODUCT_CONDUCTOR)


def test_cartesian_membership_is_componentwise(product_nonlocal):
    left = ns_from_generators([3, 5, 7])
    right = ns_from_generators([2, 5])
    for x, y in itertools.product(range(8), repeat=2):
        expect = ns_contains(left, x) and ns_contains(right, y)
        assert gs_contains(product_nonlocal, (x, y)) == expect


def test_from_maximal_elements_golden(maximal_example):
    s = maximal_example
    assert tuple(s.conductor) == tuple(data.MAXIMAL_CONDUCTOR)
    assert len(s.small.points) == data.MAXIMAL_SMALL_COUNT
    assert data.points(maximal_elements(s)) == data.points(data.MAXIMAL_POINTS)


def test_from_maximal_elements_rejects_points_outside_the_product():
    left = ns_from_generators(data.MAXIMAL_LEFT)
    right = ns_from_generators(data.MAXIMAL_RIGHT)
    with pytest.raises(ConstructionError):
        from_maximal_elements(left, right, [[0, 0], [5, 2]])  # 5 is not in <4,6,13>


def test_from_maximal_elements_with_no_points_is_the_product():
    left = ns_from_generators([3, 5, 7])
    right = ns_from_generators([2, 5])
    s = from_maximal_elements(left, right, [])
    assert data.points(s.small.points) == data.points(data.PRODUCT_SMALL)


def test_random_constructions_validate():
    rng = random.Random(6001)
    for _ in range(25):
        d = random_duplication(rng, cap=14)
        assert validate_small_set(d.small).ok
        a = random_amalgamation(rng, cap=14)
        assert validate_small_set(a.small).ok
        c = cartesian(random_numerical(rng, 8), random_numerical(rng, 8))
        assert validate_small_set(c.small).ok


def _outcome(build, *args):
    """The points and top a construction returns, or the type and message
    of what it raises."""
    try:
        g = build(*args)
    except (GoodSgpError, ValueError) as exc:
        return type(exc), str(exc)
    return g.small.points, g.small.top


def _maximal_args(rng):
    """Random factors and a list of zero to four points: points of the
    product, points past the conductors, points off the product and, now
    and then, a point of N^3."""
    s1, s2 = random_numerical(rng, 10), random_numerical(rng, 10)
    pts = []
    for _ in range(rng.randint(0, 4)):
        roll = rng.random()
        if roll < 0.6:
            pts.append((rng.choice(s1.small_elements), rng.choice(s2.small_elements)))
        elif roll < 0.85:
            pts.append((s1.conductor + rng.randint(0, 4), s2.conductor + rng.randint(0, 4)))
        elif roll < 0.97:
            pts.append((rng.randint(0, 12), rng.randint(0, 12)))
        else:
            pts.append((0, 0, 0))
    return s1, s2, pts


def test_constructions_match_the_membership_scan():
    # the bit columns give the points, top and errors of the member rules
    # called on every cell of the box, on 2,400 seeded inputs of the four
    # constructions; amalgamations pass factors 1 to 3, some with k * x
    # past the top, and maximal lists are empty, past the conductors or
    # not good
    rng = random.Random(1515)
    cases = []
    for _ in range(500):
        cases.append(("duplication", duplication, duplication_args(rng, 24)))
    for _ in range(200):  # ideals generated by any values, some outside s
        s = random_numerical(rng, 12)
        e = ideal_from_generators(s, rng.sample(range(0, 14), rng.randint(1, 2)))
        cases.append(("duplication", duplication, (s, e)))
    for _ in range(700):
        cases.append(("amalgamation", amalgamation, amalgamation_args(rng, 24)))
    for _ in range(300):
        args = random_numerical(rng, 14), random_numerical(rng, 14)
        cases.append(("cartesian", cartesian, args))
    for _ in range(700):
        cases.append(("maximal", from_maximal_elements, _maximal_args(rng)))
    seen = collections.Counter()
    for kind, build, args in cases:
        got = _outcome(build, *args)
        assert got == _outcome(construction_by_membership, kind, *args), (kind, args)
        seen[kind, isinstance(got[0], type)] += 1
        if kind == "amalgamation" and not isinstance(got[0], type):
            s, t, e, k = args
            seen["past the top"] += k * ideal_preimage_scale(e, k, s).conductor > e.conductor
        if kind == "maximal":
            seen["empty list"] += not args[2]
    for kind in ("duplication", "amalgamation", "maximal"):
        assert seen[kind, True] >= 20 and seen[kind, False] >= 100
    assert seen["past the top"] >= 20 and seen["empty list"] >= 20


def test_construction_results_keep_only_their_rows(ns23):
    # the constructions build bit columns; neither they nor their
    # validation may leave the Points or any other table on the data
    t = ns_from_generators([3, 4])
    built = (
        duplication(ns23, ideal_from_generators(ns23, [6])),
        amalgamation(ns23, t, ideal_from_generators(t, [3]), 2),
        cartesian(ns_from_generators([3, 5, 7]), ns_from_generators([4, 5])),
        from_maximal_elements(
            ns_from_generators(data.MAXIMAL_LEFT),
            ns_from_generators(data.MAXIMAL_RIGHT),
            data.MAXIMAL_POINTS,
        ),
    )
    for g in built:
        assert set(vars(g.small)) == {"rows", "top"}
