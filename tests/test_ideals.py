"""Good relative ideals: construction, canonical ideals, symmetry, stability."""

from __future__ import annotations

import itertools
import random
from math import inf
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from goodsgp import (
    NonLocalError,
    NotGoodIdeal,
    NotGoodSemigroup,
    Point,
    SmallSet,
    UnsupportedDimension,
    Violation,
    brute_canonical,
    canonical_generators,
    canonical_ideal,
    gi_contains,
    gi_from_generators,
    good_ideal,
    good_semigroup,
    gs_contains,
    is_arf,
    is_local,
    is_stable,
    is_symmetric,
    minimal_ideal_generating_system,
    normalize_conductor,
    ones,
    small_set,
    sum_ideals,
    tail_ideal,
    validate_ideal_small_set,
)
from goodsgp import ideals, semigroup

import _data as data
from _corpus import (
    KERNEL_SEEDS,
    LADDER,
    absorption_pair_scan,
    arf_triple_loop,
    box_members,
    box_set,
    chain_lengths,
    closures3,
    colon,
    column_sum_ideal,
    corpus,
    kernel_cases,
    ladder_duplication,
    meet_fixpoint,
    meet_pair_scan,
    product_semigroup,
    same_box_sets,
    stable_pair_loop,
    tail_pair_loop,
)


def _shift(rows, by):
    return [(x + by[0], y + by[1]) for x, y in rows]


def test_gi_of_zero_is_the_whole_semigroup(dup_example):
    e = gi_from_generators(dup_example, [(0, 0)])
    assert e.small.points == dup_example.small.points
    assert e.small.top == dup_example.small.top


def test_principal_ideal_is_the_shifted_semigroup(dup_example):
    e = gi_from_generators(dup_example, [(2, 3)])
    assert tuple(e.small.top) == (10, 11)
    assert data.points(e.small.points) == data.points(_shift(data.DUP_SMALL, (2, 3)))
    assert is_stable(e)  # principal ideals are always stable


def test_gi_accepts_points_outside_the_semigroup(dup_example):
    e = gi_from_generators(dup_example, [(1, 2)])
    assert tuple(e.small.top) == (9, 10)
    assert data.points(e.small.points) == data.points(_shift(data.DUP_SMALL, (1, 2)))


def test_gi_rejects_generator_sets_with_holes(dup_example):
    for gens in ([(2, 2), (3, 5)], [(0, 0), (3, 5)], [(0, 1), (1, 0)]):
        with pytest.raises(NotGoodIdeal) as err:
            gi_from_generators(dup_example, gens)
        assert "witness" in {v.axiom for v in err.value.report.violations}


def test_gi_input_checks(dup_example):
    with pytest.raises(ValueError):
        gi_from_generators(dup_example, [])
    with pytest.raises(ValueError):
        gi_from_generators(dup_example, [(-1, 2)])


def test_gi_contains(dup35):
    k = canonical_ideal(dup35)
    assert gi_contains(k, (11, 9))
    assert not gi_contains(k, (1, 1))
    assert gi_contains(k, tuple(Point(k.conductor) + ones(2)))


def test_gi_contains_reads_its_point_as_gs_contains_does(dup_example):
    # lists, tuples and Points alike, and a float coordinate read by Point
    e = gi_from_generators(dup_example, [(2, 3)])
    for p in ((8, 9), (1, 1), (50, 60), (2, 3), (-1, 4)):
        want = gi_contains(e, Point(p))
        assert gi_contains(e, list(p)) is gi_contains(e, tuple(p)) is want
        assert gi_contains(e, [float(p[0]), p[1]]) is want
        assert gs_contains(dup_example, [float(p[0]), p[1]]) is gs_contains(dup_example, p)
    assert gi_contains(e, [8.0, 9]) and not gi_contains(e, [1.0, 1])


def test_tail_ideals_of_the_duplication_example(dup_example):
    for base, (rows, top) in data.DUP_TAILS.items():
        e = tail_ideal(dup_example, base)
        assert data.points(e.small.points) == data.points(rows)
        assert tuple(e.small.top) == tuple(top)
    # every member of a tail dominates the base point
    e = tail_ideal(dup_example, (2, 2))
    assert all(x >= 2 and y >= 2 for x, y in e.small.points)
    assert tuple(e.min_element) == (2, 2)


def _brute_tail(s, a):
    """The tail at a by one membership test per point of [a, join(a, C)]."""
    top = tuple(map(max, a, s.conductor))
    return small_set(box_members(s.small, top, a), top)


def test_tails_at_points_off_the_conductor_box():
    d = ladder_duplication(13)
    # a negative coordinate bounds nothing, and a base past the conductor
    # raises the tail's top to it
    assert tail_ideal(d, (-1, 2)) == tail_ideal(d, (0, 2))
    assert tail_ideal(d, (20, 4)).small.top == (20, 13)
    for s in (d, ladder_duplication(31)) + _AMBIENTS3:
        c = s.conductor
        n = len(c)
        bases = [(-1,) + (2,) * (n - 1), (20,) + (4,) * (n - 1), (-2,) * n,
                 tuple(x + 3 for x in c)] + list(s.small.points[::7])
        for a in bases:
            assert tail_ideal(s, a).small == _brute_tail(s, a), a


def test_tail_membership_is_restriction(dup_example):
    e = tail_ideal(dup_example, (3, 3))
    for p in itertools.product(range(12), repeat=2):
        expect = gs_contains(dup_example, p) and p[0] >= 3 and p[1] >= 3
        assert gi_contains(e, p) == expect


def test_ideal_validation_reports_absorption(dup_example):
    bad = small_set([(1, 1), (8, 8)], (8, 8))
    report = validate_ideal_small_set(dup_example, bad)
    assert not report.ok
    assert {v.axiom for v in report.violations} == {"absorption"}
    with pytest.raises(NotGoodIdeal):
        good_ideal(dup_example, bad)


def test_ideal_validation_reports_loose_conductor(dup_example):
    bad = small_set([(1, 1), (1, 2), (2, 1), (2, 2)], (2, 2))
    report = validate_ideal_small_set(dup_example, bad)
    assert {v.axiom for v in report.violations} == {"conductor"}


def test_ideal_validation_accepts_tails(dup_example):
    for base in ((0, 0), (2, 2), (3, 3), (9, 9)):
        e = tail_ideal(dup_example, base)
        assert validate_ideal_small_set(dup_example, e.small).ok


def test_sum_with_the_principal_zero_ideal_is_identity(dup_example):
    zero_ideal = gi_from_generators(dup_example, [(0, 0)])
    e = tail_ideal(dup_example, (2, 2))
    total = sum_ideals(e, zero_ideal)
    assert total.small.points == e.small.points
    assert total.small.top == e.small.top


def test_sum_of_principal_ideals_is_principal(dup_example):
    h, k = (2, 3), (4, 1)
    total = sum_ideals(
        gi_from_generators(dup_example, [h]), gi_from_generators(dup_example, [k])
    )
    direct = gi_from_generators(dup_example, [(h[0] + k[0], h[1] + k[1])])
    assert total.small.points == direct.small.points
    assert total.small.top == direct.small.top


def _brute_clamp(s, corner, hs, qs):
    """The meet closure of min(h + q, corner) over the points h of hs and q
    of qs, normalized and validated, as (data, report)."""
    sums = {tuple(min(a + b, c) for a, b, c in zip(h, q, corner)) for h in hs for q in qs}
    pts = meet_fixpoint(sums)
    small = normalize_conductor(SmallSet(tuple(sorted(map(Point, pts))), Point(corner)))
    return small, validate_ideal_small_set(s, small)


def _brute_sum(e, f):
    """The sum data by its definition: clamped sums of every pair of box
    members, closed under meets, then normalized and validated."""
    corner = e.small.top + f.small.top
    fmem = list(box_members(f.small, corner))
    return _brute_clamp(e.ambient, corner, box_members(e.small, corner), fmem)


def _brute_generation(s, gens):
    """The generated data by its definition: clamped sums of the generators
    with every box member of s at the corner min(H) + C(S), closed under
    meets, then normalized and validated."""
    corner = Point(min(xs) for xs in zip(*gens)) + s.small.top
    return _brute_clamp(s, corner, gens, list(box_members(s.small, corner)))


def _outcome(call):
    try:
        e = call()
    except NotGoodIdeal as err:
        return err.small, err.report
    return e.small, validate_ideal_small_set(e.ambient, e.small)


def _valid_closures3(count):
    """The valid good semigroups among the seeded N^3 closures."""
    for small in closures3(3, count, cap=5):
        try:
            yield good_semigroup(small)
        except NotGoodSemigroup:
            pass


def test_sum_ideals_matches_the_brute_sum_on_random_instances():
    rng = random.Random(6320)
    outcomes = set()
    for s in corpus(519, 12, cap=9) + corpus(522, 6, cap=9, local_only=False):
        pts = s.small.points
        off = [p for p in pts if p[0] != p[1]] or pts  # off-diagonal tails
        principal = [gi_from_generators(s, [rng.choice(pts)]) for _ in range(2)]
        tails = [tail_ideal(s, rng.choice(pts)), tail_ideal(s, rng.choice(off))]
        for e, f in [principal, tails, (tails[0], tails[0]), (principal[0], tails[1]),
                     (tails[1], principal[1])]:
            got = _outcome(lambda: sum_ideals(e, f))
            assert got == _brute_sum(e, f)
            outcomes.add((2, got[1].ok))
    for s in _AMBIENTS3 + tuple(itertools.islice(_valid_closures3(300), 10)):
        tails = [tail_ideal(s, a) for a in s.small.points]
        # every doubled tail of the small closures (one of the eighth fails),
        # two of each product
        doubled = tails if len(tails) <= 5 else rng.sample(tails, 2)
        for e, f in [rng.sample(tails, 2)] + [(t, t) for t in doubled]:
            got = _outcome(lambda: sum_ideals(e, f))
            assert got == _brute_sum(e, f), (e.small, f.small)
            outcomes.add((3, got[1].ok))
    # tail sums can fail: normalize_conductor on data that is not good can
    # leave a conductor that is not minimal, and sum_ideals reports it
    assert outcomes == {(2, True), (2, False), (3, True), (3, False)}


def test_gi_from_generators_matches_the_brute_clamp_in_three_dimensions():
    rng = random.Random(6321)
    verdicts = set()
    for s in _AMBIENTS3 + tuple(itertools.islice(_valid_closures3(300), 30)):
        top = s.small.top
        for _ in range(3):
            gens = [tuple(rng.randint(0, t) for t in top) for _ in range(rng.randint(1, 3))]
            got = _outcome(lambda: gi_from_generators(s, gens))
            assert got == _brute_generation(s, gens), (s.small, gens)
            verdicts.add(got[1].ok)
            e = ideals.GoodRelativeIdeal(s, got[0])
            assert e.min_element == _min_by_points(e), got[0]
    assert verdicts == {True, False}


def _kernel_calls(s, small):
    """Arguments of the sum kernel in its three uses on the data small of
    the ambient s: the sum of the data with itself, the data absorbing s,
    and generation by the data's middle point and by its first and last."""
    top = small.top
    yield small.rows, top, small, top + top
    yield small.rows, top, s.small, top + s.small.top
    pts = small.points
    for gens in ([pts[len(pts) // 2]], [pts[0], pts[-1]]):
        corner = Point(min(xs) for xs in zip(*gens)) + s.small.top
        yield semigroup._rows([tuple(map(min, h, corner)) for h in gens], corner), corner, \
            s.small, corner


def test_sum_kernel_matches_the_column_loop_in_two_dimensions():
    verdicts = set()
    cases = [(s, small) for s, small in kernel_cases() if small.dim == 2]
    for rung in LADDER:
        s = ladder_duplication(rung)
        # the duplication and its tail at the multiplicity
        cases += [(s, s.small), (s, tail_ideal(s, s.small.points[1]).small)]
    for s, small in cases:
        for args in _kernel_calls(s, small):
            got = _outcome(lambda: ideals._clamped_sum_ideal(s, *args))
            assert got == _outcome(lambda: column_sum_ideal(s, *args)), (small, args[1:])
            verdicts.add(got[1].ok)
    assert verdicts == {True, False}


def test_doubled_tail_with_a_loose_conductor_is_reported():
    # normalize_conductor is not idempotent on data that is not good: the
    # doubled tail normalizes to the top (36, 31), which still lowers on axis 0
    t = tail_ideal(ladder_duplication(31), (15, 14))
    with pytest.raises(NotGoodIdeal) as err:
        sum_ideals(t, t)
    assert err.value.small.top == (36, 31)
    assert [(v.axiom, v.axis, v.witness) for v in err.value.report.violations] == [
        ("conductor", 0, ((35, 31),))
    ]
    assert normalize_conductor(err.value.small).top == (34, 31)


def test_doubled_tail_and_stability(dup_example):
    e = tail_ideal(dup_example, (2, 2))
    doubled = sum_ideals(e, e)
    rows, top = data.DUP_TAIL22_DOUBLED
    assert data.points(doubled.small.points) == data.points(rows)
    assert tuple(doubled.small.top) == tuple(top)
    # 2E is a proper subset of m(E) + E here, so E is not stable
    assert not is_stable(e) and not stable_pair_loop(e)
    f = tail_ideal(dup_example, (7, 7))
    assert is_stable(f) and stable_pair_loop(f)


def _stability_cases(s, rng):
    """Principal ideals of three small elements, the tail at every small
    element, the doubled tails that validate and, for a local s, the
    canonical ideal."""
    pts = s.small.points
    for h in rng.sample(pts, min(3, len(pts))):
        try:
            yield gi_from_generators(s, [h])
        except NotGoodIdeal:
            pass
    for a in pts:
        t = tail_ideal(s, a)
        yield t
        try:
            yield sum_ideals(t, t)
        except NotGoodIdeal:
            pass
    if is_local(s):
        yield canonical_ideal(s)


def _min_by_points(e):
    """min_element by the point listing: the reference for its row read."""
    return Point(map(min, zip(*e.small.points)))


def test_is_stable_matches_the_pair_loop_on_random_instances():
    rng = random.Random(6330)
    verdicts = []
    for s in corpus(520, 10, cap=10) + corpus(521, 8, cap=10, local_only=False):
        for e in _stability_cases(s, rng):
            got = is_stable(e)
            assert got == stable_pair_loop(e), e.small
            assert e.min_element == _min_by_points(e), e.small
            verdicts.append(got)
    for s in _AMBIENTS3:
        for a in s.small.points:
            e = tail_ideal(s, a)
            got = is_stable(e)
            assert got == stable_pair_loop(e), e.small
            assert e.min_element == _min_by_points(e), e.small
            verdicts.append(got)
    assert verdicts.count(True) > 50 and verdicts.count(False) > 50


def test_absorption_kernel_reports_what_the_pair_scan_reports_on_the_kernel_cases():
    verdicts = set()
    for s, small in kernel_cases():
        got = ideals._absorption_violations(s, small)
        assert got == absorption_pair_scan(s, small), small
        verdicts.add((small.dim, bool(got)))
    assert verdicts == {(2, False), (2, True), (3, False), (3, True)}


def test_tail_checks_match_the_pair_loops_on_every_tail():
    # is_arf and is_stable both read the shifted tails' product test
    verdicts = set()
    for seed, local_only in KERNEL_SEEDS:
        for s in corpus(seed, 10, 12, local_only):
            assert is_arf(s) == arf_triple_loop(s), s.small
            for a in s.small.points:
                closed = semigroup._tail_sum_closed(s.small, a)
                assert closed == tail_pair_loop(s.small, a), (s.small, a)
                e = tail_ideal(s, a)
                assert is_stable(e) == stable_pair_loop(e), e.small
                verdicts.add(closed)
    assert verdicts == {True, False}


def test_ideal_results_keep_only_their_rows(dup_example):
    # the ideal constructors build their data from bit rows; neither their
    # validation nor the ideal readers below may leave the Points or any
    # other table on the data
    e = tail_ideal(dup_example, (2, 2))
    for ideal in (gi_from_generators(dup_example, [(2, 3)]), e, sum_ideals(e, e)):
        is_stable(ideal)
        minimal_ideal_generating_system(ideal)
        assert set(vars(ideal.small)) == {"rows", "top"}


def test_canonical_ideal_golden_values(arfex1, arfex2, arfex3):
    for s, rows in (
        (arfex1, data.ARFEX1_CANONICAL),
        (arfex2, data.ARFEX2_CANONICAL),
        (arfex3, data.ARFEX3_CANONICAL),
    ):
        k = canonical_ideal(s)
        assert data.points(k.small.points) == data.points(rows)
        assert k.small.top == s.small.top
        assert not is_symmetric(s)


def test_canonical_ideal_by_the_gap_region_scan(dup_example, arfex1):
    # membership in the canonical ideal: no member of S shares a coordinate
    # with the mirrored point and strictly dominates it on the other axis
    for s in (dup_example, arfex1):
        top = s.small.top
        gamma = Point(top) - ones(2)
        bound = Point((2 * top[0] + 2, 2 * top[1] + 2))
        members = [
            Point(p)
            for p in itertools.product(range(bound[0] + 1), range(bound[1] + 1))
            if gs_contains(s, p)
        ]
        k = canonical_ideal(s)
        for a in itertools.product(range(top[0] + 1), range(top[1] + 1)):
            mirror = gamma - Point(a)
            empty = not any(
                p[i] == mirror[i] and p[1 - i] > mirror[1 - i]
                for p in members
                for i in (0, 1)
            )
            assert gi_contains(k, a) == empty


def test_symmetric_examples(dup_example, dup35):
    assert is_symmetric(dup_example)
    assert is_symmetric(dup35)
    k = canonical_ideal(dup35)
    assert k.small.points == dup35.small.points
    mini = good_semigroup(small_set([(0, 0), (1, 1)], (1, 1)))
    assert is_symmetric(mini)


def test_saturated_chains_measure_the_distance_to_symmetry():
    # D'Anna (Comm. Algebra 25, 1997): the saturated chains from 0 to C in
    # the small elements all have one length d, 2 d <= C_1 + C_2, and
    # equality holds exactly for symmetric S
    cases = corpus(514, 40, cap=9) + corpus(7, 40, cap=9) + (ladder_duplication(13),)
    verdicts = []
    for s in cases:
        longest, shortest = chain_lengths(s.small)
        assert longest == shortest, s.small
        assert 2 * longest <= sum(s.conductor), s.small
        assert (2 * longest == sum(s.conductor)) == is_symmetric(s), s.small
        verdicts.append(is_symmetric(s))
    assert True in verdicts and False in verdicts


def test_the_canonical_ideal_is_a_dualizing_ideal():
    # Korell, Schulze and Tozzo (J. Commut. Algebra, 2019): K - (K - E) = E
    # for good ideals E, with E - F = {x : x + F inside E}, by the exact
    # colon of box sets; E runs over tails, principal ideals a + S and K
    rng = random.Random(2719)
    count = 0
    for s in corpus(514, 40, cap=9):
        k = box_set(canonical_ideal(s))
        for e in (tail_ideal(s, rng.choice(s.small.points)),
                  gi_from_generators(s, [rng.choice(s.small.points)]), canonical_ideal(s)):
            assert same_box_sets(colon(k, colon(k, box_set(e))), box_set(e)), (s.small, e.small)
            count += 1
    assert count == 120


def test_canonical_generating_family(dup35):
    fam = canonical_generators(dup35)
    assert data.points(fam) == data.points(data.DUP35_CANONICAL_GENS)
    k = gi_from_generators(dup35, fam)
    assert k.small.points == dup35.small.points
    assert k.small.top == dup35.small.top
    # the canonical ideal of a symmetric semigroup is generated by zero alone
    assert minimal_ideal_generating_system(canonical_ideal(dup35)) == (Point((0, 0)),)


def test_canonical_requires_two_local_dimensions(product_nonlocal):
    with pytest.raises(NonLocalError):
        canonical_ideal(product_nonlocal)
    one_dim = good_semigroup(small_set([(0,), (2,)], (2,)))
    with pytest.raises(UnsupportedDimension):
        canonical_ideal(one_dim)
    cube = good_semigroup(
        small_set(list(itertools.product((0, 2), repeat=3)), (2, 2, 2))
    )
    with pytest.raises(UnsupportedDimension):
        canonical_ideal(cube)


def test_ideal_operations_work_in_three_dimensions():
    local3 = good_semigroup(
        small_set([(0, 0, 0), (1, 1, 3), (1, 2, 4), (2, 1, 3), (2, 2, 6)], (2, 2, 6))
    )
    e = tail_ideal(local3, (0, 0, 0))
    # minimal systems, sums and generation work in every dimension
    assert minimal_ideal_generating_system(e) == ((0, 0, 0),)
    assert sum_ideals(e, e).small == local3.small
    assert sum_ideals(e, e).conductor == (2, 2, 6)
    g = gi_from_generators(local3, [(1, 1, 3)])
    assert g.conductor == (3, 3, 9) and len(g.small.points) == 5


def test_canonical_matches_the_brute_scan_on_random_instances():
    for s in corpus(515, 40, cap=12):
        k = canonical_ideal(s)
        ref = brute_canonical(s)
        assert k.small.points == ref.points
        assert tuple(k.small.top) == tuple(ref.top)
        assert validate_ideal_small_set(s, k.small).ok
        assert gi_from_generators(s, canonical_generators(s)).small == k.small


def test_tail_mingens_round_trip_on_random_instances():
    rng = random.Random(6310)
    for s in corpus(516, 12, cap=10):
        pool = list(s.small.points)
        base = pool[rng.randrange(len(pool))]
        e = tail_ideal(s, base)
        gens = minimal_ideal_generating_system(e)
        assert all(gi_contains(e, g) for g in gens)
        assert tuple(e.min_element) in {tuple(g) for g in gens}


def test_absorption_by_a_member_above_the_top(dup_example):
    # the ambient member (2, 2) passes the data's top (3, 0) on axis 1
    report = validate_ideal_small_set(dup_example, small_set([(0, 0), (3, 0)], (3, 0)))
    assert report.violations == (
        Violation(
            "absorption",
            (Point((0, 0)), Point((2, 2))),
            None,
            "translate by an ambient member leaves the ideal",
        ),
    )


def _pair_scan_report(ambient, small):
    """validate_ideal_small_set with the pair scans in place of the bit
    rows."""
    with mock.patch.object(ideals, "_meet_violations", meet_pair_scan), \
            mock.patch.object(ideals, "_absorption_violations", absorption_pair_scan):
        return validate_ideal_small_set(ambient, small)


_AMBIENTS = corpus(518, 12, cap=8) + (ladder_duplication(13),)
_AMBIENTS3 = (
    product_semigroup([2, 3], [2, 5], [3, 4]),
    product_semigroup([2, 3], [3, 4], [2, 3]),
)


@st.composite
def _boxed_ideal_data(draw, ambients=_AMBIENTS, side=inf):
    """An ambient semigroup and any subset of a box whose corner, the top,
    lies below the ambient conductor on one axis and at most side on all."""
    s = draw(st.sampled_from(ambients))
    c = s.small.top
    top = [draw(st.integers(0, x + 3)) for x in c]
    low = draw(st.integers(0, len(c) - 1))
    top[low] = draw(st.integers(0, max(c[low] - 1, 0)))
    top = tuple(min(t, side) for t in top)
    pts = draw(st.sets(st.tuples(*(st.integers(0, t) for t in top))))
    return s, small_set(pts | {top}, top)


@st.composite
def _thinned_tails(draw, ambients=_AMBIENTS):
    """A tail ideal of an ambient semigroup with up to two points dropped."""
    s = draw(st.sampled_from(ambients))
    small = tail_ideal(s, draw(st.sampled_from(s.small.points))).small
    below = small.points[:-1]  # every point but the top
    drop = draw(st.sets(st.sampled_from(below), max_size=2)) if below else set()
    return s, small_set([p for p in small.points if p not in drop], small.top)


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(st.one_of(
    _boxed_ideal_data(),
    _thinned_tails(),
    _boxed_ideal_data(_AMBIENTS3, side=3),
    _thinned_tails(_AMBIENTS3),
))
def test_row_kernel_reports_what_the_pair_scans_report(case):
    s, small = case
    assert validate_ideal_small_set(s, small) == _pair_scan_report(s, small)
