"""Minimal good generating systems and truncated closure membership."""

from __future__ import annotations

import itertools
import random
from functools import lru_cache
from operator import add, ge

import pytest

from goodsgp import (
    GoodSemigroup,
    NonLocalError,
    NotAGeneratingSystem,
    NotGoodIdeal,
    Point,
    canonical_ideal,
    closure_small,
    brute_member,
    gs_contains,
    is_minimal_system,
    join,
    minimal_generating_system,
    normalize_conductor,
    good_ideal,
    good_semigroup,
    gi_from_generators,
    is_local,
    small_set,
    tail_ideal,
    minimal_ideal_generating_system,
    validate_small_set,
)
from goodsgp import semigroup

import _data as data
from _corpus import (
    LADDER, closures3, corpus, is_minimal_by_closure, ladder_duplication, membership_in_closure,
    monoid_fiber_reach, removable_by_candidates, sequential_elimination, shuffled_eliminations,
)


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
    for eliminated in shuffled_eliminations(dup_example, rng, 10):
        assert eliminated == base


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


def test_the_conductor_is_removable_only_beside_another_candidate(dup_example):
    # the conductor is the truncation of any large sum, so it is generated
    # by every nonempty set of other candidates, and by nothing else
    s = good_semigroup(small_set([(0, 0), (1, 1)], (1, 1)))
    assert minimal_generating_system(s) == ((1, 1),)
    assert is_minimal_system([(1, 1)], s) is True
    gens = data.DUP_MINGENS + [list(dup_example.small.top)]
    assert is_minimal_system(gens, dup_example) is False
    # (60, 80) clamps onto the conductor (8, 8); a tail at the conductor
    # holds the conductor alone, which the closure of nothing does not hold
    assert is_minimal_system(data.DUP_MINGENS + [[60, 80]], dup_example) is False
    top = dup_example.small.top
    assert minimal_ideal_generating_system(tail_ideal(dup_example, top)) == (top,)


def _kept_by_candidates(pts, top, s):
    """The candidates the reference removal rule keeps, as Points."""
    cands = [tuple(p) for p in pts]
    return tuple(Point(p) for p, out in zip(cands, removable_by_candidates(cands, top, s))
                 if not out)


_NOT_GENERATING = "the closure of the given set does not reproduce the semigroup"


def _verdict(route, gens, s):
    """route(gens, s), or the message of its NotAGeneratingSystem."""
    try:
        return route(gens, s)
    except NotAGeneratingSystem as exc:
        return str(exc)


def test_generating_systems_match_the_candidate_scan_on_random_instances():
    # minimal systems of the corpus and the ladder, minimal systems of
    # their tails at the multiplicity, principal and canonical ideals, and
    # is_minimal_system on the minimal system, on it plus one redundant
    # small element and on every nonzero small element; and on sets that
    # generate or not, against the route by the truncated closure
    rng = random.Random(2031)
    verdicts, outcomes = set(), set()
    for s in corpus(514, 25, cap=13) + tuple(map(ladder_duplication, LADDER)):
        top = s.small.top
        nonzero = [p for p in s.small.points if any(p)]
        base = minimal_generating_system(s)
        assert base == _kept_by_candidates(nonzero, top, s)
        multiplicity = tuple(map(min, zip(*nonzero)))
        for e in (tail_ideal(s, multiplicity), gi_from_generators(s, [rng.choice(nonzero)]),
                  canonical_ideal(s)):
            got = minimal_ideal_generating_system(e)
            assert got == _kept_by_candidates(e.small.points, e.small.top, s), e.small
        redundant = [p for p in nonzero if p not in base]
        systems = [list(base), nonzero]
        if redundant:
            systems.append(list(base) + [rng.choice(redundant)])
        for gens in systems:
            got = is_minimal_system(gens, s)
            assert got == (not any(removable_by_candidates(sorted(gens), top, s)))
            assert got == (len(gens) == len(base))
            verdicts.add(got)
        # against the route by the truncated closure, generating or not
        outside = [p for p in itertools.product(range(top[0] + 1), range(top[1] + 1))
                   if not s.small.contains(p)]
        y = rng.randrange(top[1] + 1)
        inputs = [[], [(0, 0)], list(base) + [(0, 0)], list(base) + [rng.choice(nonzero)],
                  list(base) + [(top[0] + 1 + rng.randrange(4), y)],
                  list(base) + [(top[0] + 3, top[1] + 5)]]
        inputs += [[p for p in base if p != q] for q in base]
        inputs += [rng.sample(nonzero, rng.randint(1, len(nonzero))) for _ in range(3)]
        if outside:
            inputs.append(list(base) + [rng.choice(outside)])
        for gens in inputs:
            got = _verdict(is_minimal_system, gens, s)
            assert got == _verdict(is_minimal_by_closure, gens, s), gens
            outcomes.add(got)
    assert verdicts == {True, False}
    assert outcomes == {True, False, _NOT_GENERATING}


def test_generation_is_decided_without_building_a_closure(monkeypatch):
    # by the uniqueness of the minimal system, is_minimal_system compares
    # bit rows with the minimal system and builds no truncated closure
    s = ladder_duplication(55)
    base = list(minimal_generating_system(s))
    nonzero = [p for p in s.small.points if any(p)]
    extra = next(p for p in nonzero if p not in base)

    def refuse(gens, top):
        raise AssertionError("a truncated closure was built")

    monkeypatch.setattr(semigroup, "_sum_closure", refuse)
    assert is_minimal_system(base, s) is True
    assert is_minimal_system(base + [extra], s) is False
    with pytest.raises(NotAGeneratingSystem):
        is_minimal_system(base[1:], s)
    assert is_minimal_system(nonzero, s) is False


def test_monoid_fiber_reach():
    gens = [Point((2, 2)), Point((3, 3))]
    # hit x = 5 exactly with y at least 5: (2,2) + (3,3)
    assert monoid_fiber_reach(gens, 0, (5, 5))
    assert not monoid_fiber_reach(gens, 0, (5, 6))
    assert not monoid_fiber_reach(gens, 0, (1, 0))
    assert monoid_fiber_reach(gens, 1, (4, 4))
    # a negative floor on the other axis still needs a sum that hits x exactly
    assert not monoid_fiber_reach([Point((2, 2))], 0, (3, -1))
    assert monoid_fiber_reach([Point((2, 2))], 0, (2, -1))
    assert monoid_fiber_reach([Point((2, 2))], 0, (4, -5))


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
        for x in itertools.product(*(range(b + 2) for b in bound))
        if brute_member(s.small.points, s.small.top, x)
    ]
    pts = {tuple(map(min, map(add, h, x), top)) for h in hgens for x in members}
    changed = True
    while changed:
        changed = False
        for a in list(pts):
            for b in list(pts):
                m = tuple(map(min, a, b))
                if m not in pts:
                    pts.add(m)
                    changed = True
    return tuple(sorted(Point(p) for p in pts))


def _clamped_tails(s, rng, count):
    """Tails of s at random small elements, clamped into a box [0, k] with
    k below C(S) on some axis: those of count draws that good_ideal accepts."""
    out = []
    for _ in range(count):
        e = tail_ideal(s, rng.choice(s.small.points))
        k = Point(rng.randint(0, t) for t in e.small.top)
        if all(map(ge, k, s.small.top)):
            continue
        try:
            out.append(good_ideal(s, small_set({tuple(map(min, p, k)) for p in e.small.points}, k)))
        except NotGoodIdeal:
            continue
    return out


@lru_cache(maxsize=None)
def _local_closures3(seeds, count, cap):
    """The valid local closures of N^3 among closures3(seed, count, cap)
    over the seeds."""
    sems = (GoodSemigroup(small) for seed in seeds for small in closures3(seed, count, cap)
            if validate_small_set(small).ok)
    return tuple(s for s in sems if is_local(s))


def test_minimal_systems_in_three_and_one_dimensions_match_the_closure_elimination():
    # the removal rule has no dimension branch: against the elimination by
    # the truncated closure (closure_small) of the candidates kept, which
    # holds the conductor once they are not empty
    sems = _local_closures3((3, 5, 8, 13), 150, 6)
    for c in range(12):  # every numerical semigroup with conductor below 12
        for members in itertools.product((0, 1), repeat=max(c - 1, 0)):
            small = small_set([(0,)] + [(v,) for v, m in enumerate(members, 1) if m] + [(c,)])
            if validate_small_set(small).ok:
                sems += (GoodSemigroup(small),)
    assert {s.dim for s in sems} == {1, 3} and len(sems) > 300
    for s in sems:
        top = s.small.top
        cands = [p for p in s.small.points if any(p)]
        expect = sequential_elimination(
            cands, lambda rest, p: bool(rest) and closure_small(rest, top).contains(p))
        assert minimal_generating_system(s) == expect, s.small


def test_ideal_systems_in_three_dimensions_match_the_brute_closure():
    # tails, and tails clamped below the ambient's conductor, against an
    # elimination by the brute clamped closure
    rng = random.Random(3307)
    sub_conductor = 0
    for s in _local_closures3((3, 5), 60, 5):
        ideals = [tail_ideal(s, a) for a in rng.sample(s.small.points, min(3, len(s.small.points)))]
        clamped = _clamped_tails(s, rng, 3)
        sub_conductor += len(clamped)
        for e in ideals + clamped:
            top = e.small.top
            expect = sequential_elimination(
                e.small.points, lambda rest, p: p in _ideal_closure_points(rest, s, top))
            assert minimal_ideal_generating_system(e) == expect, (s.small, e.small)
    assert sub_conductor > 10


def test_is_minimal_system_in_three_dimensions():
    rng = random.Random(9127)
    verdicts = set()
    for s in _local_closures3((3, 5, 8, 13), 150, 6):
        base = list(minimal_generating_system(s))
        nonzero = [p for p in s.small.points if any(p)]
        assert is_minimal_system(base, s) is True
        redundant = [p for p in nonzero if p not in base]
        if redundant:
            assert is_minimal_system(base + [rng.choice(redundant)], s) is False
            verdicts.add(False)
        if base:
            dropped = rng.choice(base)
            with pytest.raises(NotAGeneratingSystem):
                is_minimal_system([p for p in base if p != dropped], s)
    assert verdicts == {False}


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
        for eliminated in shuffled_eliminations(s, rng, 3):
            assert eliminated == base
        small = normalize_conductor(closure_small(list(base), s.small.top))
        assert small.points == s.small.points


def test_random_minimal_ideal_systems_are_stable_under_reordering():
    # tails, principal ideals and tails clamped below the ambient's
    # conductor, against an elimination by the brute closure in shuffled
    # orders
    rng, clamps = random.Random(4417), random.Random(4418)
    sub_conductor = 0
    for s in corpus(8812, 8, cap=10):
        a, m = rng.sample(s.small.points, 2)
        clamped = _clamped_tails(s, clamps, 4)
        sub_conductor += len(clamped)
        for e in [tail_ideal(s, a), gi_from_generators(s, [m])] + clamped:
            top = e.small.top
            base = minimal_ideal_generating_system(e)
            for _ in range(2):
                order = rng.sample(e.small.points, len(e.small.points))
                eliminated = sequential_elimination(
                    order, lambda rest, p: p in _ideal_closure_points(rest, s, top)
                )
                assert eliminated == base
    assert sub_conductor > 0
