"""Minimal good generating systems and truncated closure membership."""

from __future__ import annotations

import itertools
import random

import pytest

from goodsgp import (
    NonLocalError,
    NotAGeneratingSystem,
    Point,
    closure_small,
    brute_member,
    gs_contains,
    is_minimal_system,
    join,
    membership_in_closure,
    minimal_generating_system,
    monoid_fiber_reach,
    normalize_conductor,
    small_set,
    tail_ideal,
    minimal_ideal_generating_system,
)

import _data as data
from _corpus import corpus


def test_minimal_system_of_the_duplication_example(dup_example):
    got = minimal_generating_system(dup_example)
    assert data.points(got) == data.points(data.DUP_MINGENS)
    assert is_minimal_system(got, dup_example)


def test_minimal_system_of_the_amalgamation_example(amalgam_example):
    got = minimal_generating_system(amalgam_example)
    assert data.points(got) == data.points(data.AMALG_MINGENS)
    assert is_minimal_system(got, amalgam_example)


def test_minimal_system_of_the_maximal_example(maximal_example):
    got = minimal_generating_system(maximal_example)
    assert data.points(got) == data.points(data.MAXIMAL_MINGENS)


def test_five_point_system_regenerates_but_is_not_minimal(maximal_example):
    gens = [Point(p) for p in data.MAXIMAL_FIVE_SYSTEM]
    top = maximal_example.small.top
    regenerated = normalize_conductor(closure_small(gens, top))
    assert regenerated.points == maximal_example.small.points
    # (26, 15) is generated by the other four elements, so the system is
    # a generating system without being minimal
    assert is_minimal_system(gens, maximal_example) is False
    rest = [p for p in gens if tuple(p) != (26, 15)]
    assert membership_in_closure(rest, top, (26, 15))


def test_regeneration_from_the_minimal_system(dup_example, amalgam_example, maximal_example):
    for s in (dup_example, amalgam_example, maximal_example):
        gens = minimal_generating_system(s)
        small = normalize_conductor(closure_small(list(gens), s.small.top))
        assert small.points == s.small.points
        assert small.top == s.small.top


def test_elimination_order_does_not_change_the_result(dup_example):
    rng = random.Random(731)
    base = minimal_generating_system(dup_example)
    candidates = [p for p in dup_example.small.points if any(p)]
    for _ in range(10):
        order = list(candidates)
        rng.shuffle(order)
        assert minimal_generating_system(dup_example, order=order) == base


def test_order_must_be_a_permutation(dup_example):
    with pytest.raises(ValueError):
        minimal_generating_system(dup_example, order=[(2, 2)])


def test_non_local_semigroups_are_refused(product_nonlocal):
    with pytest.raises(NonLocalError):
        minimal_generating_system(product_nonlocal)
    with pytest.raises(NonLocalError):
        is_minimal_system([(0, 4), (3, 2), (5, 0)], product_nonlocal)


def test_non_generating_sets_are_reported(dup_example):
    with pytest.raises(NotAGeneratingSystem):
        is_minimal_system([(2, 2)], dup_example)
    with pytest.raises(NotAGeneratingSystem):
        is_minimal_system([], dup_example)


def test_systems_containing_zero_are_never_minimal(dup_example):
    gens = [(0, 0)] + data.DUP_MINGENS
    assert is_minimal_system(gens, dup_example) is False


def test_monoid_fiber_reach():
    gens = [Point((2, 2)), Point((3, 3))]
    # hit x = 5 exactly with y at least 5: (2,2) + (3,3)
    assert monoid_fiber_reach(gens, 0, (5, 5))
    assert not monoid_fiber_reach(gens, 0, (5, 6))
    assert not monoid_fiber_reach(gens, 0, (1, 0))
    assert monoid_fiber_reach(gens, 1, (4, 4))


def test_membership_in_closure_matches_the_semigroup(dup_example):
    gens = [Point(p) for p in data.DUP_MINGENS]
    top = dup_example.small.top
    for x, y in itertools.product(range(top[0] + 1), range(top[1] + 1)):
        expect = gs_contains(dup_example, (x, y))
        assert membership_in_closure(gens, top, (x, y)) == expect


def test_membership_in_closure_of_no_generators():
    # 0 generates nothing: only the conductor of the whole lattice is reached
    assert not membership_in_closure([], (4, 4), (4, 4))
    assert not membership_in_closure([(0, 0)], (4, 4), (2, 4))
    assert membership_in_closure([(0, 0)], (0, 0), (0, 0))


def test_membership_in_closure_rejects_points_outside_the_box():
    with pytest.raises(ValueError):
        membership_in_closure([(2, 2)], (4, 4), (5, 0))
    with pytest.raises(ValueError):
        membership_in_closure([(2, 2)], (4, 4), (-1, 0))


def test_both_product_systems_regenerate_the_product(product_nonlocal):
    # non-local semigroups have no unique minimal system: two distinct sets
    # regenerate the same small elements
    top = product_nonlocal.small.top
    for system in (data.PRODUCT_SYSTEM_A, data.PRODUCT_SYSTEM_B):
        small = normalize_conductor(
            closure_small([Point(p) for p in system], top)
        )
        assert small.points == product_nonlocal.small.points
    assert data.points(data.PRODUCT_SYSTEM_A) != data.points(data.PRODUCT_SYSTEM_B)


def _ideal_closure_points(hgens, s, top):
    # brute force: the meet closure of min(h + x, top) over the generators h
    # and the ambient members x in [0, join(top, C(S)) + 1]; members further
    # out clamp to the same points
    bound = join(top, s.small.top)
    members = [
        x
        for x in itertools.product(range(bound[0] + 2), range(bound[1] + 2))
        if brute_member(s.small.points, s.small.top, x)
    ]
    pts = {
        (min(h[0] + x[0], top[0]), min(h[1] + x[1], top[1]))
        for h in hgens
        for x in members
    }
    changed = True
    while changed:
        changed = False
        for a in list(pts):
            for b in list(pts):
                m = (min(a[0], b[0]), min(a[1], b[1]))
                if m not in pts:
                    pts.add(m)
                    changed = True
    return tuple(sorted(Point(p) for p in pts))


def test_tail_generating_systems_round_trip(dup_example):
    for base, expect in data.DUP_TAIL_MINGENS.items():
        e = tail_ideal(dup_example, base)
        got = minimal_ideal_generating_system(e)
        assert data.points(got) == data.points(expect)
        regenerated = _ideal_closure_points(got, dup_example, e.small.top)
        assert regenerated == e.small.points


def test_random_minimal_systems_are_stable_under_reordering():
    rng = random.Random(6102)
    for s in corpus(514, 25, cap=13):
        base = minimal_generating_system(s)
        candidates = [p for p in s.small.points if any(p)]
        for _ in range(3):
            order = list(candidates)
            rng.shuffle(order)
            assert minimal_generating_system(s, order=order) == base
        small = normalize_conductor(closure_small(list(base), s.small.top))
        assert small.points == s.small.points
