"""Small sets, axiom validation, membership, and derived structure."""

from __future__ import annotations

import itertools
import random
from math import inf
from operator import add, mul
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from goodsgp import (
    DimensionMismatch,
    GoodSemigroup,
    GoodSgpError,
    NotGoodIdeal,
    NotGoodSemigroup,
    Point,
    SmallSet,
    arf_closure,
    arf_saturation,
    brute_member,
    canonical_generators,
    canonical_ideal,
    closure_small,
    from_maximal_elements,
    gi_contains,
    gi_from_generators,
    good_ideal,
    good_semigroup,
    gs_contains,
    gs_from_generators,
    is_local,
    is_minimal_system,
    is_symmetric,
    maximal_elements,
    minimal_generating_system,
    normalize_conductor,
    ns_contains,
    ns_from_generators,
    projection,
    small_set,
    sum_ideals,
    tail_ideal,
    validate_small_set,
)
from goodsgp import ideals, semigroup

import _data as data
from _corpus import (
    LADDER,
    PRODUCT3,
    _fiber_top,
    box_members,
    canonical_generators_by_projections,
    closure_by_points,
    closures3,
    corpus,
    construction_by_membership,
    corrupt,
    fiber_top,
    gi_by_points,
    is_minimal_by_points,
    kernel_cases,
    ladder_duplication,
    maximal_by_points,
    meet_fixpoint,
    meet_pair_scan,
    normalize_by_points,
    product_semigroup,
    rows_by_points,
    small_set_by_points,
    small_set_points_by_items,
    small_subset,
    sum_pair_scan,
)


def _gs(rows, top):
    return good_semigroup(small_set(rows, top))


def test_small_set_normalizes_and_sorts():
    s = small_set([(2, 2), (0, 0), (2, 2)], (2, 2))
    assert s.points == (Point((0, 0)), Point((2, 2)))
    assert s.top == Point((2, 2))


def test_small_set_requires_top_among_points():
    with pytest.raises(ValueError):
        small_set([(0, 0), (2, 2)], (3, 3))
    with pytest.raises(ValueError):
        small_set([(0, 0), (1, 2), (2, 1)])  # implied top (2, 2) missing
    with pytest.raises(ValueError):
        small_set([])
    with pytest.raises(ValueError):
        small_set([(0, 0), (-1, 2), (2, 2)], (2, 2))
    with pytest.raises(DimensionMismatch):
        small_set([(0, 0), (1, 1, 1)], (2, 2))


def test_small_set_requires_strictly_increasing_points():
    p = Point
    for pts in [
        (p((2, 2)), p((0, 0)), p((2, 2))),  # unsorted, with a repeat
        (p((0, 0)), p((0, 0)), p((2, 2))),  # sorted, with a repeat
        (p((1, 0)), p((0, 1)), p((2, 2))),  # unsorted
    ]:
        with pytest.raises(ValueError, match="strictly increasing"):
            SmallSet(pts, p((2, 2)))
    assert SmallSet((p((0, 0)), p((2, 2))), p((2, 2))) == small_set([(2, 2), (0, 0), (2, 2)])


def test_small_set_rejects_points_outside_its_box():
    p = Point
    top = p((2, 2))
    for pts, error in [
        ((p((0, 0)), p((3, 1)), top), ValueError),  # beyond the top
        ((p((-1, 0)), p((0, 0)), top), ValueError),  # negative
        ((p((0, 0)), p((1, 2))), ValueError),  # the top is missing
        ((), ValueError),
        ((p((0, 0)), p((1, 1, 1)), top), DimensionMismatch),
    ]:
        with pytest.raises(error):
            SmallSet(pts, top)


def _outcome(build, *args):
    try:
        return build(*args)
    except ValueError as exc:
        return type(exc), str(exc)


@st.composite
def _raw_points(draw):
    """Point data and a top as a caller may pass them: a few points of N^2
    with coordinates from -1 up, at times one of N^3 or an empty one, and a
    top omitted or anywhere near them."""
    coord = st.integers(-1, 4)
    pts = draw(st.lists(st.tuples(coord, coord), max_size=10))
    pts += draw(st.lists(st.sampled_from([(), (1, 1, 1)]), max_size=1))
    pts = draw(st.permutations(pts))
    top = draw(st.none() | st.tuples(st.integers(-1, 5), st.integers(-1, 5)))
    return pts, top


@settings(derandomize=True, deadline=None, database=None, max_examples=400)
@given(_raw_points())
def test_small_set_checks_match_the_point_route(case):
    # small_set builds rows directly, with the same results and errors
    pts, top = case
    assert _outcome(small_set, pts, top) == _outcome(small_set_by_points, pts, top)


def _mixed(rng, pts):
    """The points pts as lists, tuples and Points mixed, now and then with
    a float coordinate (which Point reads), and with zero to two offenders
    inserted anywhere: a point with one coordinate too many, one with a
    negative coordinate, or an empty point."""
    out = []
    for p in pts:
        p = list(p)
        if rng.random() < 0.05:
            p[rng.randrange(len(p))] += 0.0
        out.append(rng.choice((list, tuple, Point))(p))
    for _ in range(rng.choice((0, 0, 0, 1, 2))):
        q = list(rng.choice(pts)) if pts else [0, 0]
        kind = rng.randrange(3)
        if kind == 0:
            q.append(rng.randint(0, 3))
        elif kind == 1:
            q[rng.randrange(len(q))] = -rng.randint(1, 2)
        else:
            q = []
        out.insert(rng.randint(0, len(out)), rng.choice((list, tuple))(q))
    return out


def _read_outcome(read, *args):
    """What read(*args) returns, or the type and message of what it raises."""
    try:
        return read(*args)
    except (GoodSgpError, ValueError) as exc:
        return type(exc), str(exc)


def test_point_readers_match_the_per_point_route():
    # the six readers of point lists against the per-point route, on the
    # same kinds of seeded lists: lists, tuples and Points mixed, some with
    # offenders, and points past the top for the readers that clamp;
    # accepted lists give the same result, rejected ones the same error
    # naming the same first offender (in lexicographic order for small_set)
    rng = random.Random(2525)
    s = ladder_duplication(13)
    mingens = minimal_generating_system(s)
    small = [p for p in s.small.points if any(p)]
    s1, s2 = ns_from_generators([3, 5]), ns_from_generators([4, 7])
    seen = {"accepted": 0, "rejected": 0}

    def same(read, ref, *args):
        got = _read_outcome(read, *args)
        assert got == _read_outcome(ref, *args), (read.__name__, args)
        seen["rejected" if isinstance(got, tuple) and type(got[0]) is type else "accepted"] += 1

    def box(n, high, count):
        return [tuple(rng.randint(0, high) for _ in range(n)) for _ in range(rng.randint(0, count))]

    for _ in range(200):
        for n in (1, 2, 3):
            top = Point((4,) * n)
            pts = _mixed(rng, sorted(set(box(n, 4, 6)) | {tuple(top)}))
            same(SmallSet, small_set_points_by_items, pts, top)
            pts = _mixed(rng, box(n, 4, 6))
            same(small_set, small_set_by_points, pts, rng.choice((None, top)))
            same(closure_small, closure_by_points, _mixed(rng, box(n, 6, 4)), top)
        same(gi_from_generators, gi_by_points, s, _mixed(rng, box(2, 16, 3)))
        gens = [p for p in mingens if rng.random() < 0.9] + rng.sample(small, rng.randint(0, 2))
        gens = [tuple(x + rng.randint(0, 3) if x == t else x for x, t in zip(p, s.conductor))
                for p in gens]  # points on the top line pushed past it clamp back
        rng.shuffle(gens)
        same(is_minimal_system, is_minimal_by_points, _mixed(rng, gens), s)
        listed = [(rng.choice(s1.small_elements), rng.choice(s2.small_elements))
                  for _ in range(rng.randint(0, 3))]
        same(from_maximal_elements, lambda *a: construction_by_membership("maximal", *a),
             s1, s2, _mixed(rng, listed))
    assert min(seen.values()) > 400, seen


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.tuples(*[st.integers(0, 4)] * n),
    st.lists(st.tuples(*[st.integers(0, 7)] * n), max_size=8))))
def test_rows_of_points_are_the_rows_of_their_clamped_points(case):
    top, pts = case
    clamped = [tuple(map(min, p, top)) for p in pts]
    assert semigroup._rows(pts, top) == semigroup._rows(clamped, top) == rows_by_points(pts, top)


def test_small_set_is_held_by_its_rows(dup_example):
    for small in (dup_example.small, product_semigroup(*PRODUCT3).small):
        built = SmallSet(small.points, small.top)
        from_rows = SmallSet._of_rows(small.rows, small.top)
        assert "points" not in vars(from_rows)
        assert built == from_rows and hash(built) == hash(from_rows)
        assert from_rows.points == small.points  # derived from the rows
        assert all(type(q) is Point for q in from_rows.points)
        for name in ("rows", "top", "points"):
            with pytest.raises(AttributeError):
                setattr(from_rows, name, getattr(small, name))


def test_small_set_membership_clamps_at_the_top(dup_example):
    s = dup_example.small
    assert s.contains((6, 7))
    assert not s.contains((1, 1))
    assert s.contains((100, 200))  # above the conductor
    assert s.contains((6, 50))  # ray through the border point (6, 8)
    assert not s.contains((7, 50))
    assert not s.contains((-1, 9))
    with pytest.raises(DimensionMismatch):
        s.contains((1, 2, 3))


def _clamped_in_points(small, p):
    """Membership read off the points: p clamped to the top is one of them."""
    return all(x >= 0 for x in p) and tuple(map(min, p, small.top)) in set(small.points)


@pytest.mark.parametrize("dim", [2, 3])
def test_row_membership_matches_the_clamped_point_lookup(dim):
    rng = random.Random(9100 + dim)
    for _ in range(40):
        top = tuple(rng.randint(0, 6) for _ in range(dim))
        box = [tuple(rng.randint(0, t) for t in top) for _ in range(rng.randint(0, 30))]
        small = small_set(box + [top], top)
        for _ in range(60):
            p = tuple(rng.randint(-2, t + 3) for t in top)
            assert small.contains(p) == _clamped_in_points(small, p), (small, p)
        for wrong in (dim - 1, dim + 1):
            with pytest.raises(DimensionMismatch):
                small.contains((0,) * wrong)


# every entry that reads one point or box: (entry on the n = 2 duplication
# example s and its tail ideal e, the point it reads, the noun naming it)
_SINGLE_POINT_ENTRIES = {
    "gs_contains": (lambda s, e: gs_contains(s, (1, 2, 3)), (1, 2, 3), "point"),
    "gi_contains": (lambda s, e: gi_contains(e, (1, 2, 3)), (1, 2, 3), "point"),
    "SmallSet.contains": (lambda s, e: s.small.contains([4]), (4,), "point"),
    "tail_ideal": (lambda s, e: tail_ideal(s, (1, 2, 3)), (1, 2, 3), "point"),
    "arf_saturation": (lambda s, e: arf_saturation(s, (4, 4, 4)), (4, 4, 4), "box"),
    "Point +": (lambda s, e: Point((1, 2)) + Point((1, 2, 3)), (1, 2, 3), "point"),
    "+ Point": (lambda s, e: (1, 2, 3) + Point((1, 2)), (1, 2, 3), "point"),
    "Point -": (lambda s, e: Point((1, 2)) - (1,), (1,), "point"),
    "ideal data": (lambda s, e: good_ideal(s, small_set([(0, 0, 0), (1, 1, 1)])),
                   (1, 1, 1), "ideal top"),
}


@pytest.mark.parametrize("entry", sorted(_SINGLE_POINT_ENTRIES))
def test_single_points_of_the_wrong_dimension_read_as_point_lists(dup_example, entry):
    call, point, noun = _SINGLE_POINT_ENTRIES[entry]
    with pytest.raises(DimensionMismatch) as listed:
        semigroup._checked_points([point], 2, noun)
    with pytest.raises(DimensionMismatch) as single:
        call(dup_example, tail_ideal(dup_example, (2, 2)))
    assert str(single.value) == str(listed.value) == "%s %s has %d coordinates, not 2" % (
        noun, point, len(point))


def test_duplication_small_set_is_valid():
    report = validate_small_set(small_set(data.DUP_SMALL, data.DUP_CONDUCTOR))
    assert report.ok
    assert report.violations == ()
    assert str(report) == "valid"


def test_missing_zero_is_reported():
    report = validate_small_set(small_set([(1, 1), (2, 2)], (2, 2)))
    assert not report.ok
    assert report.violations[0].axiom == "zero"


def test_meet_violation_is_reported():
    rows = [(0, 0), (1, 2), (2, 1), (2, 2)]
    report = validate_small_set(small_set(rows, (2, 2)))
    axioms = {v.axiom for v in report.violations}
    assert "meet" in axioms
    v = next(v for v in report.violations if v.axiom == "meet")
    assert set(map(tuple, v.witness)) == {(1, 2), (2, 1)}


def test_sum_violation_is_reported():
    # 2 + 2 = 4 escapes the set below the conductor
    rows = [(0, 0), (2, 2), (3, 3), (6, 6)]
    report = validate_small_set(small_set(rows, (6, 6)))
    assert any(v.axiom == "sum" for v in report.violations)


def test_witness_violation_is_reported():
    rows = data.FIGURE_REJECTS[0]["closure"]
    report = validate_small_set(small_set(rows, (6, 6)))
    assert not report.ok
    assert {v.axiom for v in report.violations} == {"witness"}
    v = report.violations[0]
    assert v.axis is not None
    assert str(v).startswith("witness")


def test_conductor_minimality_is_reported():
    # every point of the top row and column is present, so the top can drop
    rows = [(0, 0), (2, 2), (2, 3), (3, 2), (3, 3)]
    report = validate_small_set(small_set(rows, (3, 3)))
    assert any(v.axiom == "conductor" for v in report.violations)


def test_good_semigroup_raises_with_report():
    bad = small_set([(1, 1), (2, 2)], (2, 2))
    with pytest.raises(NotGoodSemigroup) as err:
        good_semigroup(bad)
    assert err.value.report.violations
    assert err.value.small is bad


def test_membership_of_the_duplication_example(dup_example):
    assert gs_contains(dup_example, (0, 0))
    assert gs_contains(dup_example, (2, 2))
    assert not gs_contains(dup_example, (1, 1))
    assert not gs_contains(dup_example, (2, 3))
    assert gs_contains(dup_example, (8, 6))
    assert gs_contains(dup_example, (12, 6))  # on the horizontal ray
    assert not gs_contains(dup_example, (12, 7))
    assert gs_contains(dup_example, (9, 9))


def test_normalize_conductor_recovers_the_tight_top(dup_example):
    # truncate the same semigroup one step above its conductor, then shrink
    grid = [
        (x, y)
        for x in range(10)
        for y in range(10)
        if gs_contains(dup_example, (x, y))
    ]
    inflated = small_set(grid, (9, 9))
    tight = normalize_conductor(inflated)
    assert tight.top == Point(data.DUP_CONDUCTOR)
    assert tight.points == small_set(data.DUP_SMALL, data.DUP_CONDUCTOR).points


def test_gs_from_generators_golden():
    s = gs_from_generators(data.CONDUCTOR_GENS, data.CONDUCTOR_CONDUCTOR)
    assert tuple(s.conductor) == tuple(data.CONDUCTOR_CONDUCTOR)
    assert all(gs_contains(s, g) for g in data.CONDUCTOR_GENS)


def test_gs_from_generators_rejects_the_counterexample_sets():
    for case in data.FIGURE_REJECTS:
        with pytest.raises(NotGoodSemigroup) as err:
            gs_from_generators(case["gens"], case["conductor"])
        assert {v.axiom for v in err.value.report.violations} == {"witness"}
        assert data.points(err.value.small.points) == data.points(case["closure"])


def test_subset_and_equality(dup_example, dup35):
    # the small set reference for containment, and equality of small sets
    assert small_subset(dup_example.small, dup_example.small)
    assert dup_example.small == dup_example.small
    assert dup_example.small != dup35.small
    n2 = _gs([(0, 0)], (0, 0))
    assert small_subset(dup_example.small, n2.small)
    assert not small_subset(n2.small, dup_example.small)


def _brute_subset(s, t):
    """Containment by membership on the box reaching two steps past the
    join of both conductors."""
    box = itertools.product(*(range(max(x, y) + 3) for x, y in zip(s.conductor, t.conductor)))
    return all(
        brute_member(t.small.points, t.conductor, p)
        for p in box
        if brute_member(s.small.points, s.conductor, p)
    )


def test_gs_subset_matches_brute_containment_on_random_pairs():
    rng = random.Random(6340)
    plane = corpus(517, 30, cap=10) + corpus(523, 10, cap=10, local_only=False)
    pairs = [tuple(rng.sample(plane, 2)) for _ in range(40)]
    for s in plane[:10]:
        if is_local(s):
            pairs += [(s, arf_closure(s)), (arf_closure(s), s)]
    factors = ([2, 3], [2, 5], [3, 4], [3, 5], [4, 5, 7])
    space = [product_semigroup(*rng.sample(factors, 3)) for _ in range(8)]
    space.append(product_semigroup([2, 3], [2, 3], [2, 3]))
    pairs += [tuple(rng.sample(space, 2)) for _ in range(30)]
    verdicts = []
    for s, t in pairs:
        got = small_subset(s.small, t.small)
        assert got == _brute_subset(s, t), (s.small, t.small)
        verdicts.append((s.dim, got))
    assert {(2, True), (2, False), (3, True), (3, False)} <= set(verdicts)


def test_locality(dup_example, amalgam_example, product_nonlocal):
    assert is_local(dup_example)
    assert is_local(amalgam_example)
    assert not is_local(product_nonlocal)
    assert not is_local(_gs([(0, 0)], (0, 0)))  # the whole lattice


def test_delta_fibers_and_maximal_elements(conductor_example):
    got = maximal_elements(conductor_example)
    assert data.points(got) == data.points(data.CONDUCTOR_MAXIMALS)
    # a maximal element has no member strictly beyond it on either fiber
    small = conductor_example.small
    for p in got:
        assert fiber_top(small, 0, p[0]) == p[1]
        assert fiber_top(small, 1, p[1]) == p[0]


def _maximal_scan(s):
    """The maximal elements by their definition, over the members of the box
    up to top + 1, rays included: small elements with no member above them
    on either fiber."""
    top = s.small.top
    bound = tuple(t + 1 for t in top)
    members = set(box_members(s.small, bound))
    return tuple(
        Point(p) for p in sorted(members)
        if p[0] <= top[0] and p[1] <= top[1]
        and not any((p[0], y) in members for y in range(p[1] + 1, bound[1] + 1))
        and not any((x, p[1]) in members for x in range(p[0] + 1, bound[0] + 1))
    )


def test_n2_invariants_match_the_point_scans_on_random_instances():
    # maximal elements, projections and canonical generators read the
    # fiber-top table; the definitions and the per-point scans agree
    sems = corpus(515, 60, cap=12) + corpus(522, 40, cap=12, local_only=False)
    sems += tuple(ladder_duplication(rung) for rung in LADDER)
    assert {is_local(s) for s in sems} == {True, False}
    for s in sems:
        got = maximal_elements(s)
        assert got == _maximal_scan(s) == maximal_by_points(s), s.small
        assert all(type(p) is Point for p in got)
        for i in (0, 1):
            values = {p[i] for p in s.small.points}
            proj = projection(s, i)
            assert {v for v in range(s.small.top[i] + 2) if v in proj} == values | {
                s.small.top[i] + 1}, (s.small, i)
        if is_local(s):
            assert canonical_generators(s) == canonical_generators_by_projections(s), s.small


def test_n2_invariants_list_no_points():
    d = ladder_duplication(55)
    s = GoodSemigroup(SmallSet._of_rows(d.small.rows, d.small.top))
    maximal_elements(s)
    projection(s, 0)
    projection(s, 1)
    canonical_ideal(s)
    canonical_generators(s)
    is_symmetric(s)
    minimal_generating_system(s)
    assert "points" not in s.small.__dict__


def test_projections(dup_example, amalgam_example):
    p0 = projection(dup_example, 0)
    assert p0.small_elements == (0, 2)
    assert p0.conductor == 2
    p1 = projection(amalgam_example, 1)
    assert p1.small_elements == (0, 3, 4, 6)
    assert p1.conductor == 6


def test_fiber_reaches(dup_example):
    # x = 6 carries members up to y = 8 and onward along the ray
    small = dup_example.small
    assert fiber_top(small, 0, 6) == inf
    assert fiber_top(small, 0, 7) == 7
    assert fiber_top(small, 1, 3) == 3
    assert fiber_top(small, 0, 1) == -inf  # no member has x = 1
    assert fiber_top(small, 0, -1) == -inf
    assert fiber_top(small, 0, 20) == inf  # past the conductor
    assert fiber_top(small, 1, 20) == inf


def test_membership_matches_the_brute_oracle_on_random_instances():
    rng = random.Random(4401)
    for s in corpus(512, 30, cap=12):
        top = s.small.top
        for _ in range(40):
            p = (rng.randint(0, top[0] + 3), rng.randint(0, top[1] + 3))
            assert gs_contains(s, p) == brute_member(s.small.points, top, p)


def test_projections_of_random_instances_are_semigroups():
    for s in corpus(513, 20, cap=12):
        for i in (0, 1):
            pi = projection(s, i)
            seen = sorted({p[i] for p in s.small.points})
            assert all(ns_contains(pi, v) for v in seen)


def _pair_scan_report(small):
    """validate_small_set with the pair scans in place of the bit rows."""
    with mock.patch.object(semigroup, "_meet_violations", meet_pair_scan), \
            mock.patch.object(semigroup, "_sum_violations", sum_pair_scan):
        return validate_small_set(small)


@st.composite
def _boxed_subsets(draw, side=7, dim=2):
    """Any subset of a small box in N^dim, plus the box's corner as its top."""
    top = tuple(draw(st.integers(0, side)) for _ in range(dim))
    pts = draw(st.sets(st.tuples(*(st.integers(0, t) for t in top))))
    return small_set(pts | {top}, top)


@st.composite
def _thinned_semigroups(draw):
    """A random good semigroup with up to three small elements dropped."""
    small = draw(st.sampled_from(corpus(517, 30, cap=10))).small
    drop = draw(st.sets(st.sampled_from(small.points[:-1]), max_size=3))
    return small_set([p for p in small.points if p not in drop], small.top)


@settings(derandomize=True, deadline=None, database=None, max_examples=500)
@given(st.one_of(
    _boxed_subsets(),
    _boxed_subsets(dim=1),
    _boxed_subsets(side=3, dim=3),
    _boxed_subsets(side=4, dim=3),
    _boxed_subsets(side=2, dim=4),
    _thinned_semigroups(),
))
def test_row_kernel_reports_what_the_pair_scans_report(small):
    assert validate_small_set(small) == _pair_scan_report(small)


def test_row_kernel_reports_what_the_pair_scans_report_on_n3_closures():
    # seeded N^3 closures, each also with its middle point below the top
    # dropped; the benchmark's product, whole, under each corruption that
    # applies in N^3, and without (3, 3, 4), the meet of (3, 3, 5), (3, 6, 4)
    cases = []
    for small in closures3(3, 400):
        pts, k = small.points, (len(small.points) - 1) // 2
        cases += [small] + ([small_set(pts[:k] + pts[k + 1 :], small.top)] if len(pts) > 1 else [])
    product = product_semigroup(*PRODUCT3).small
    cases += [product, small_set([p for p in product.points if p != (3, 3, 4)], product.top)]
    cases += [small_set(*corrupt(product.points, product.top, axiom)) for axiom in ("zero", "sum")]
    seen = set()
    for small in cases:
        report = validate_small_set(small)
        assert report == _pair_scan_report(small)
        assert all(type(p) is Point for v in report.violations for p in v.witness)
        if report.ok:
            seen.add("local" if is_local(GoodSemigroup(small)) else "non-local")
        seen.update(v.axiom for v in report.violations)
    assert seen == {"local", "non-local", "zero", "meet", "sum", "witness", "conductor"}


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(st.one_of(_boxed_subsets(), _thinned_semigroups()))
def test_fiber_top_witness_test_matches_the_pair_scan(small):
    # the n = 2 per point test against the general _witness_search scan
    assert semigroup._coordinate_witness_violations(small) == (
        semigroup._witness_pair_scan(small)
    )
    fast = semigroup._coordinate_witness_violations(small, stop_after_first=False)
    scan = semigroup._witness_pair_scan(small, stop_after_first=False)
    assert {(v.witness[0], v.axis) for v in fast} == {(v.witness[0], v.axis) for v in scan}
    assert set(fast) <= set(scan)


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(st.one_of(_boxed_subsets(), _thinned_semigroups()))
def test_last_points_match_the_point_scan(small):
    # the rows of the set, and of the set without its top, which may be empty
    top = small.top
    for pts in (small.points, small.points[:-1]):
        got = semigroup._last_points(semigroup._rows(pts, top), top)
        for i in (0, 1):
            last = _fiber_top(pts, i)
            assert got[i] == [last.get(u, -inf) for u in range(top[i] + 1)]


@st.composite
def _boxes(draw):
    """A small set in N^2 or N^3 and a box [low, bound] to read it in: the
    bound below, at or past the top on each axis, low omitted or anywhere
    from negative to past the bound."""
    small = draw(st.one_of(_boxed_subsets(), _boxed_subsets(side=3, dim=3), _thinned_semigroups()))
    bound = tuple(draw(st.integers(0, t + 3)) for t in small.top)
    low = draw(st.none() | st.tuples(*(st.integers(-2, b + 1) for b in bound)))
    return small, bound, low


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(_boxes())
@example((ladder_duplication(13).small, (8, 8), None))  # goodsgp saturate --box 8,8
@example((ladder_duplication(13).small, (20, 13), (20, 4)))
@example((ladder_duplication(13).small, (13, 13), (-1, 2)))
def test_box_rows_match_the_membership_scan(case):
    small, bound, low = case
    assert semigroup._box_rows(small, bound, low) == semigroup._rows(
        box_members(small, bound, low), bound
    )


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(st.one_of(
    st.tuples(_boxed_subsets(side=5), _boxed_subsets(side=5)),
    st.tuples(_boxed_subsets(side=3, dim=3), _boxed_subsets(side=3, dim=3)),
    st.tuples(_thinned_semigroups(), _thinned_semigroups()),
))
def test_small_subset_matches_the_membership_scan(pair):
    a, b = pair
    bound = tuple(max(x, y) + 1 for x, y in zip(a.top, b.top))
    assert small_subset(a, b) == all(map(b.contains, box_members(a, bound)))


@pytest.mark.parametrize("axiom", [None, "zero", "meet", "sum", "witness", "conductor"])
@pytest.mark.parametrize("rung", [13, 31])
def test_row_kernel_reports_what_the_pair_scans_report_on_the_ladder(rung, axiom):
    small = ladder_duplication(rung).small
    pts, top = small.points, small.top
    if axiom is not None:
        pts, top = corrupt(pts, top, axiom)
    small = small_set(pts, top)
    report = validate_small_set(small)
    assert report == _pair_scan_report(small)
    assert all(type(p) is Point for v in report.violations for p in v.witness)
    if axiom is None:
        assert report.ok
    else:
        assert axiom in {v.axiom for v in report.violations}


@pytest.mark.parametrize("axiom", [None, "zero", "sum"])
def test_row_kernel_reports_what_the_pair_scans_report_on_the_n3_product(axiom):
    # the benchmark's n = 3 product and its n = 3 reject documents
    small = product_semigroup(*PRODUCT3).small
    pts = small.points
    if axiom is not None:
        pts = corrupt(pts, small.top, axiom)[0]
    small = small_set(pts, small.top)
    report = validate_small_set(small)
    assert report == _pair_scan_report(small)
    assert all(type(p) is Point for v in report.violations for p in v.witness)
    assert report.ok == (axiom is None)
    if axiom is not None:
        assert axiom in {v.axiom for v in report.violations}


def test_sum_kernel_reports_what_the_pair_scan_reports_on_the_kernel_cases():
    verdicts = set()
    for _, small in kernel_cases():
        got = semigroup._sum_violations(small)
        assert got == sum_pair_scan(small), small
        verdicts.add((small.dim, bool(got)))
    assert verdicts == {(2, False), (2, True), (3, False), (3, True)}


def _first_missing_by_pairs(rows, top, addends):
    """The first a of addends, then point b of the bit rows of [0, top],
    with min(a + b, top) not a point, by the scan over every pair."""
    pts = list(semigroup._row_tuples(rows, top))
    pset = set(pts)
    return next(
        ((a, b) for a in addends for b in pts if tuple(map(min, map(add, a, b), top)) not in pset),
        None,
    )


@pytest.mark.parametrize("last", [0, 1, 2, 3, 6, 7, 14, 15, 30, 31, 62, 63, 126, 127, 128])
def test_product_test_at_full_slot_counts(last):
    # rows full over [0, last]: the middle slot of the product of two of
    # them counts last + 1 pairs, the most a slot can hold; the slots widen
    # from one byte to two where last + 1 reaches 128
    top, full = (1, last), (1 << last + 1) - 1
    everything = list(semigroup._row_tuples([full] * 2, top))
    assert not semigroup._some_sum_missing([full] * 2, top)
    assert not semigroup._some_sum_missing([full] * 2, top, [full] * 2)
    verdicts = set()
    for x, y in itertools.product(range(2), sorted({0, 1, last // 2, last})):
        rows = [full] * 2
        rows[x] &= ~(1 << y)  # one bit planted missing in a target row
        # the rows' own sums, and the sums with every point of the box
        for addends, addend_rows in ((semigroup._row_tuples(rows, top), None),
                                     (everything, [full] * 2)):
            addends = list(addends)
            got = semigroup._first_missing_sum(rows, top, addends, addend_rows)
            assert got == _first_missing_by_pairs(rows, top, addends), (x, y)
            assert semigroup._some_sum_missing(rows, top, addend_rows) == (got is not None)
            verdicts.add(got is None)
    assert verdicts == {True, False}


def _padding_by_entries(top):
    """_padding with one sum of products per table entry: the reference for
    its tables."""
    heads = top[:-1]
    strides = semigroup._strides([2 * t + 1 for t in heads])
    row_strides = semigroup._strides([t + 1 for t in heads])
    padded = itertools.product(*(range(2 * t + 1) for t in heads))
    clamp = [sum(map(mul, map(min, q, heads), row_strides)) for q in padded]
    return strides, [sum(map(mul, p, strides)) for p in semigroup._prefixes(top)], clamp


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_padding_tables_and_rows_match_the_entrywise_routes(n):
    # every top with sides 0 to 2, zero sides included, and random larger
    # ones; the rows of random points read back as their sorted set
    rng = random.Random(4400 + n)
    tops = list(itertools.product(range(3), repeat=n))
    tops += [tuple(rng.randint(0, 9 - 2 * n) for _ in range(n)) for _ in range(20)]
    for top in tops:
        assert semigroup._padding(top) == _padding_by_entries(top), top
        pts = [tuple(rng.randint(0, t) for t in top) for _ in range(rng.randint(0, 12))]
        rows = semigroup._rows(pts, top)
        assert list(semigroup._row_tuples(rows, top)) == sorted(set(pts)), top


def _zero_and_conductor_by_points(small):
    """The zero and conductor violations read off a set of the points."""
    pset, top = set(small.points), tuple(small.top)
    out = [] if (0,) * len(top) in pset else [("zero", (), None)]
    for i, t in enumerate(top):
        lower = top[:i] + (t - 1,) + top[i + 1 :]
        if t and lower in pset:
            out.append(("conductor", (lower,), i))
    return out


@pytest.mark.parametrize(
    "case",
    [(rung, axiom) for rung in (13, 31)
     for axiom in (None, "zero", "meet", "sum", "witness", "conductor")]
    + [("n3", axiom) for axiom in (None, "zero", "sum")],
)
def test_zero_and_conductor_reports_read_off_the_points(case):
    rung, axiom = case
    small = (product_semigroup(*PRODUCT3) if rung == "n3" else ladder_duplication(rung)).small
    pts, top = small.points, small.top
    if axiom is not None:
        pts, top = corrupt(pts, top, axiom)
    small = small_set(pts, top)
    got = [(v.axiom, v.witness, v.axis) for v in validate_small_set(small).violations
           if v.axiom in ("zero", "conductor")]
    assert got == _zero_and_conductor_by_points(small)
    assert bool(got) == (axiom in ("zero", "conductor"))


def _doubled_tail_data(s, a):
    """The data sum_ideals hands to normalize_conductor for the tail of s at
    a added to itself, whether the sum turns out good or not."""
    t = tail_ideal(s, a)
    with mock.patch.object(ideals, "normalize_conductor", wraps=normalize_conductor) as norm:
        try:
            sum_ideals(t, t)
        except NotGoodIdeal:
            pass
    return norm.call_args.args[0]


def test_conductor_slabs_match_the_membership_scan():
    # kernel_cases (corruptions and tails included), the N^3 closures, the
    # corrupted ladder rungs and doubled tails in N^2 and N^3, each also
    # read in the box one step past its top, where the top always descends
    cases = [small for _, small in kernel_cases()] + list(closures3(3, 400))
    for rung in (13, 31):
        small = ladder_duplication(rung).small
        cases += [small_set(*corrupt(small.points, small.top, axiom))
                  for axiom in ("zero", "meet", "sum", "witness", "conductor")]
    for s in corpus(519, 12, cap=9):
        cases += [_doubled_tail_data(s, a) for a in s.small.points[1::3]]
    cases.append(_doubled_tail_data(ladder_duplication(31), (15, 14)))
    for small in closures3(3, 40, cap=5):
        if validate_small_set(small).ok:
            cases += [_doubled_tail_data(GoodSemigroup(small), a) for a in small.points]
    for small in list(cases):
        bound = Point(t + 1 for t in small.top)
        cases.append(SmallSet._of_rows(semigroup._box_rows(small, bound), bound))
    verdicts = set()
    for small in cases:
        got, want = normalize_conductor(small), normalize_by_points(small)
        assert (got.top, got.rows) == (want.top, want.rows), small
        for norm in (small, got):
            report = [(v.axiom, v.witness, v.axis) for v in semigroup._conductor_violations(norm)]
            assert report == [c for c in _zero_and_conductor_by_points(norm) if c[0] == "conductor"]
            verdicts.add((norm.dim, bool(report)))
    assert verdicts == {(2, True), (2, False), (3, True), (3, False)}


@settings(derandomize=True, deadline=None, database=None, max_examples=600)
@given(st.one_of(
    _boxed_subsets(),
    _thinned_semigroups(),
    _boxed_subsets(dim=1),
    _boxed_subsets(side=3, dim=3),
    _boxed_subsets(side=2, dim=4),
))
def test_meet_closure_matches_the_pairwise_fixpoint(small):
    # N^1 to N^4 by the one pass of running ORs and maxima; a set of N^1 or
    # N^2 lifted by a zero first axis goes through it with one more axis
    cases = [small]
    if small.dim < 3:
        cases.append(small_set([(0,) + tuple(p) for p in small.points], (0,) + tuple(small.top)))
    for s in cases:
        closed = semigroup._meet_closure(s.rows, s.top)
        assert closed == list(small_set(meet_fixpoint(s.points), s.top).rows)
