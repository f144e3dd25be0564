"""Acceptance checks, one test per criterion, printing one verdict line each.

Two criteria quote expected values that the computations contradict; those
literal readings are kept as strict expected failures with the analysis in
the reason string, and a verified companion pins the corrected values.
"""

from __future__ import annotations

import itertools
import random
import time

import pytest

from goodsgp import (
    NonLocalError,
    NotGoodSemigroup,
    Point,
    arf_closure,
    arf_saturation,
    brute_arf_check,
    brute_canonical,
    brute_closure,
    brute_member,
    canonical_ideal,
    closure_small,
    gi_from_generators,
    gs_contains,
    gs_from_generators,
    is_arf,
    is_minimal_system,
    is_symmetric,
    maximal_elements,
    minimal_generating_system,
    normalize_conductor,
    ns_arf_closure,
    projection,
    small_set,
    validate_small_set,
)

import _data as data
from _corpus import corpus, infima_closure, membership_in_closure, shuffled_eliminations


def _verdict(number, ok, note=""):
    suffix = " %s" % note if note else ""
    print("criterion %02d: %s%s" % (number, "PASS" if ok else "FAIL", suffix))
    assert ok


def test_criterion_01_duplication_golden(dup_example):
    ok = (
        data.points(dup_example.small.points) == data.points(data.DUP_SMALL)
        and tuple(dup_example.conductor) == tuple(data.DUP_CONDUCTOR)
    )
    _verdict(1, ok)


def test_criterion_02_amalgamation_golden(amalgam_example):
    ok = (
        data.points(amalgam_example.small.points) == data.points(data.AMALG_SMALL)
        and tuple(amalgam_example.conductor) == tuple(data.AMALG_CONDUCTOR)
    )
    _verdict(2, ok)


def test_criterion_03_cartesian_validation():
    rows = [(a, b) for a in data.NS357_SMALL for b in data.NS45_SMALL]
    report = validate_small_set(small_set(rows, (max(data.NS357_SMALL), max(data.NS45_SMALL))))
    _verdict(3, report.ok)


def test_criterion_04_generators_golden(conductor_example):
    ok = (
        tuple(conductor_example.conductor) == tuple(data.CONDUCTOR_CONDUCTOR)
        and data.points(maximal_elements(conductor_example))
        == data.points(data.CONDUCTOR_MAXIMALS)
    )
    _verdict(4, ok)


@pytest.mark.xfail(
    strict=True,
    reason="(26, 15) lies in the closure of the other four points, so the "
    "quoted five point system regenerates the semigroup without being "
    "minimal; the computed minimal system has four points",
)
def test_criterion_05_minimal_system_as_quoted(maximal_example):
    got = minimal_generating_system(maximal_example)
    ok = data.points(got) == data.points(data.MAXIMAL_FIVE_SYSTEM)
    _verdict(5, ok, note="(quoted five point system)")


def test_criterion_05_minimal_system_verified(maximal_example):
    top = maximal_example.small.top
    five = [Point(p) for p in data.MAXIMAL_FIVE_SYSTEM]
    regenerates = (
        normalize_conductor(closure_small(five, top)).points
        == maximal_example.small.points
    )
    ok = (
        tuple(maximal_example.conductor) == tuple(data.MAXIMAL_CONDUCTOR)
        and data.points(minimal_generating_system(maximal_example))
        == data.points(data.MAXIMAL_MINGENS)
        and regenerates
        and is_minimal_system(five, maximal_example) is False
        and membership_in_closure(
            [p for p in five if tuple(p) != (26, 15)], top, (26, 15)
        )
    )
    _verdict(5, ok)


def test_criterion_06_uniqueness_of_minimal_systems():
    rng = random.Random(20260816)
    failures = 0
    for s in corpus(20260816, 200, cap=15):
        base = minimal_generating_system(s)
        for eliminated in shuffled_eliminations(s, rng, 10):
            if eliminated != base:
                failures += 1
        regenerated = normalize_conductor(closure_small(list(base), s.small.top))
        if regenerated.points != s.small.points:
            failures += 1
    _verdict(6, failures == 0)


def test_criterion_07_negative_validation():
    ok = True
    for case in data.FIGURE_REJECTS:
        try:
            gs_from_generators(case["gens"], case["conductor"])
            ok = False
            continue
        except NotGoodSemigroup as err:
            axioms = {v.axiom for v in err.report.violations}
            ok = ok and "witness" in axioms
            ok = ok and data.points(err.small.points) == data.points(case["closure"])
    _verdict(7, ok)


@pytest.mark.xfail(
    strict=True,
    reason="the eleven point family is a generating family of the canonical "
    "ideal, not its small element set; it is not even meet closed, while "
    "small element sets always are",
)
def test_criterion_08_canonical_small_as_quoted(dup35):
    k = canonical_ideal(dup35)
    ok = data.points(k.small.points) == data.points(data.DUP35_CANONICAL_GENS)
    _verdict(8, ok, note="(quoted eleven point list)")


def test_criterion_08_canonical_verified(dup35):
    k = canonical_ideal(dup35)
    fam = [Point(p) for p in data.DUP35_CANONICAL_GENS]
    ok = (
        tuple(k.conductor) == tuple(dup35.conductor)
        and k.small.points == dup35.small.points  # the semigroup is symmetric
        and is_symmetric(dup35)
        and gi_from_generators(dup35, fam).small.points == k.small.points
    )
    disagreements = 0
    for s in corpus(8, 100, cap=12):
        got = canonical_ideal(s)
        ref = brute_canonical(s)
        if got.small.points != ref.points or tuple(got.small.top) != tuple(ref.top):
            disagreements += 1
    _verdict(8, ok and disagreements == 0)


def test_criterion_09_arf_closures(arfex1, arfex2, arfex3):
    ok = True
    for s, (rows, top) in (
        (arfex1, data.ARFEX1_CLOSURE),
        (arfex2, data.ARFEX2_CLOSURE),
        (arfex3, data.ARFEX3_CLOSURE),
    ):
        t = arf_closure(s)
        ok = ok and data.points(t.small.points) == data.points(rows)
        ok = ok and tuple(t.small.top) == tuple(top)
    _verdict(9, ok)


def test_criterion_10_saturation_gap(saturation_example):
    box = data.SATURATION_BOX
    t = arf_closure(saturation_example)
    t_box = {
        p
        for p in itertools.product(range(box[0] + 1), range(box[1] + 1))
        if gs_contains(t, p)
    }
    u = set(map(tuple, arf_saturation(saturation_example, box)))
    closed = set(map(tuple, infima_closure(saturation_example, box)))
    ok = (
        sorted(t_box - u) == [tuple(p) for p in data.SATURATION_GAP]
        and closed == t_box
    )
    _verdict(10, ok)


def test_criterion_11_cross_checks():
    rng = random.Random(11)
    slowest = 0.0
    disagreements = 0
    for s in corpus(11, 100, cap=10):
        started = time.monotonic()
        top = s.small.top
        arf = is_arf(s)
        if arf != brute_arf_check(s, (top[0] + 2, top[1] + 2)):
            disagreements += 1
        t = arf_closure(s)
        for i in (0, 1):
            want = ns_arf_closure(projection(s, i))
            got = projection(t, i)
            if got.small_elements != want.small_elements or got.conductor != want.conductor:
                disagreements += 1
        for _ in range(30):
            p = (rng.randint(0, top[0] + 3), rng.randint(0, top[1] + 3))
            if gs_contains(s, p) != brute_member(s.small.points, top, p):
                disagreements += 1
        gens = [
            Point((rng.randint(1, 8), rng.randint(1, 8)))
            for _ in range(rng.randint(1, 3))
        ]
        corner = Point((rng.randint(4, 10),) * 2)
        if closure_small(gens, corner).points != brute_closure(gens, corner).points:
            disagreements += 1
        slowest = max(slowest, time.monotonic() - started)
    _verdict(11, disagreements == 0 and slowest <= 0.5)


def test_criterion_12_non_local_handling(product_nonlocal):
    ok = data.points(product_nonlocal.small.points) == data.points(data.PRODUCT_SMALL)
    try:
        minimal_generating_system(product_nonlocal)
        ok = False
    except NonLocalError:
        pass
    top = product_nonlocal.small.top
    for system in (data.PRODUCT_SYSTEM_A, data.PRODUCT_SYSTEM_B):
        regenerated = normalize_conductor(
            closure_small([Point(p) for p in system], top)
        )
        ok = ok and regenerated.points == product_nonlocal.small.points
    ok = ok and data.points(data.PRODUCT_SYSTEM_A) != data.points(data.PRODUCT_SYSTEM_B)
    _verdict(12, ok)
