"""The Arf property, the Arf closure by the multiplicity recursion, checked
against the chain-level closure of the projection closures, and the
saturation gap."""

from __future__ import annotations

import gc
import itertools
import random
import tracemalloc
import warnings

import pytest

from goodsgp import (
    arf_closure,
    arf_saturation,
    brute_arf_check,
    duplication,
    good_semigroup,
    gs_contains,
    gs_from_generators,
    ideal_from_generators,
    is_arf,
    is_local,
    ns_arf_closure,
    ns_from_generators,
    projection,
    small_set,
)
from goodsgp import semigroup

import _data as data
from _corpus import (
    KERNEL_SEEDS,
    LADDER,
    PRODUCT3,
    arf_triple_loop,
    chain_level_closure,
    corpus,
    infima_closure,
    ladder_duplication,
    meet_fixpoint,
    product_semigroup,
    saturation_fixpoint,
    small_subset,
)


def _closure_small(s):
    t = arf_closure(s)
    return data.points(t.small.points), tuple(t.small.top)


def test_arf_predicate_on_the_worked_examples(dup_example, arfex1, arfex2, arfex3):
    assert not is_arf(dup_example)
    assert not is_arf(arfex1)
    assert not is_arf(arfex2)
    assert not is_arf(arfex3)
    mini = good_semigroup(small_set([(0, 0), (1, 1)], (1, 1)))
    assert is_arf(mini)
    closed = good_semigroup(small_set(*data.ARFEX3_CLOSURE))
    assert is_arf(closed)


def test_both_arf_characterizations_agree_on_the_examples(
    dup_example, amalgam_example, arfex1, arfex2, arfex3
):
    examples = (dup_example, amalgam_example, arfex1, arfex2, arfex3)
    closures = tuple(arf_closure(s) for s in (arfex1, arfex2, arfex3))
    for s in examples + closures:
        top = s.small.top
        assert is_arf(s) == brute_arf_check(s, (top[0] + 2, top[1] + 2))


def test_arf_closures_of_the_three_examples(arfex1, arfex2, arfex3):
    assert _closure_small(arfex1) == (
        data.points(data.ARFEX1_CLOSURE[0]),
        tuple(data.ARFEX1_CLOSURE[1]),
    )
    assert _closure_small(arfex2) == (
        data.points(data.ARFEX2_CLOSURE[0]),
        tuple(data.ARFEX2_CLOSURE[1]),
    )
    assert _closure_small(arfex3) == (
        data.points(data.ARFEX3_CLOSURE[0]),
        tuple(data.ARFEX3_CLOSURE[1]),
    )


def test_closure_contains_the_input_and_is_arf(arfex1, arfex2, arfex3, dup_example):
    for s in (arfex1, arfex2, arfex3, dup_example):
        t = arf_closure(s)
        assert small_subset(s.small, t.small)
        assert is_arf(t)
        assert arf_closure(t).small == t.small


def test_non_local_closure_warns_and_uses_the_projections(product_nonlocal):
    # the product of the projection closures is the exact closure of a non
    # local semigroup, and nothing warns about it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t = arf_closure(product_nonlocal)
    # both projections happen to be Arf already, so nothing grows
    assert t.small == product_nonlocal.small


def test_closure_matches_the_chain_levels_where_they_are_arf():
    # the chain-level reference can return a good semigroup that is not Arf;
    # wherever it does not, the two closures agree
    cases = [s for seed, local_only in KERNEL_SEEDS for s in corpus(seed, 60, 25, local_only)]
    for s in cases + [ladder_duplication(rung) for rung in LADDER]:
        t = arf_closure(s)
        assert is_arf(t) and brute_arf_check(t, tuple(x + 1 for x in t.small.top)), s.small
        assert small_subset(s.small, t.small) and arf_closure(t).small == t.small, s.small
        for i in (0, 1):
            want, got = ns_arf_closure(projection(s, i)), projection(t, i)
            assert (got.small_elements, got.conductor) == (want.small_elements, want.conductor)
        ref = chain_level_closure(s)
        assert not is_arf(ref) or t.small == ref.small, s.small


@pytest.mark.parametrize(
    "small, top, closure",
    [
        # the chain levels stop at top (18, 18), which lacks
        # (15, 15) + (15, 15) - (13, 14) = (17, 16)
        ([(0, 0), (5, 5), (10, 10), (13, 14), (15, 15), (18, 18)], (18, 18),
         ([(0, 0), (5, 5), (10, 10), (13, 14), (15, 15), (16, 16)], (16, 16))),
        ([(0, 0), (5, 8), (10, 16), (14, 17), (15, 20), (19, 20)], (19, 20),
         ([(0, 0), (5, 8), (10, 16), (14, 17), (15, 18)], (15, 18))),
        # the descent ends at top (0, 0)
        ([(0, 0), (1, 3), (2, 6), (3, 9)], (3, 9), None),
        # the descent ends on an axis
        ([(0, 0), (2, 2), (4, 2)], (4, 2), None),
    ],
    ids=["example-doc", "needs-e", "ends-at-zero", "ends-on-axis"],
)
def test_closure_of_pinned_cases(small, top, closure):
    # the first two need the multiplicity vector added back at each step
    want_small, want_top = closure or (small, top)
    got = _closure_small(good_semigroup(small_set(small, top)))
    assert got == (data.points(want_small), want_top)


def test_saturation_gap_golden(saturation_example):
    t = arf_closure(saturation_example)
    assert data.points(t.small.points) == data.points(data.SATURATION_CLOSURE[0])
    assert tuple(t.small.top) == tuple(data.SATURATION_CLOSURE[1])
    box = data.SATURATION_BOX
    u = arf_saturation(saturation_example, box)
    t_box = [
        p
        for p in itertools.product(range(box[0] + 1), range(box[1] + 1))
        if gs_contains(t, p)
    ]
    gap = sorted(set(t_box) - set(map(tuple, u)))
    assert gap == [tuple(p) for p in data.SATURATION_GAP]
    # the saturation is not meet closed here; its infima closure fills the gap
    closed = infima_closure(saturation_example, box)
    assert sorted(map(tuple, closed)) == sorted(t_box)


def test_saturation_contains_the_semigroup_box(saturation_example):
    box = data.SATURATION_BOX
    u = set(map(tuple, arf_saturation(saturation_example, box)))
    for p in itertools.product(range(box[0] + 1), range(box[1] + 1)):
        if gs_contains(saturation_example, p):
            assert p in u


def test_arf_characterizations_agree_on_random_instances():
    box_pad = 2
    for s in corpus(517, 40, cap=10):
        a = is_arf(s)
        top = s.small.top
        box = (top[0] + box_pad, top[1] + box_pad)
        assert a == brute_arf_check(s, box)


def _arf_cases():
    """Local and non-local corpus semigroups, their Arf closures, and the
    n = 3 products <2,3>^3 (Arf) and the benchmark's PRODUCT3 (not Arf)."""
    found = corpus(519, 30, cap=10) + corpus(520, 30, cap=10, local_only=False)
    closures = tuple(arf_closure(s) for s in found)
    return found + closures + (product_semigroup([2, 3], [2, 3], [2, 3]),
                               product_semigroup(*PRODUCT3))


def test_tail_scan_matches_the_triple_loop_and_the_oracle():
    cases = _arf_cases()
    assert not all(map(is_local, cases)) and any(map(is_local, cases))
    verdicts = []
    for s in cases:
        got = is_arf(s)
        assert got == arf_triple_loop(s), s.small
        assert got == brute_arf_check(s, tuple(t + 1 for t in s.small.top)), s.small
        verdicts.append(got)
    assert verdicts[-2:] == [True, False]
    assert verdicts.count(False) > 10 and verdicts.count(True) > 10


def test_product_test_retains_no_memory_across_tail_tops():
    # the C=97 duplication: is_arf, then the shifted tails of every last
    # coordinate from 97 down to 0; rows are spread without a table, so
    # nothing stays behind per slot width or per top
    s = ns_from_generators([16, 17, 18, 19])
    d = duplication(s, ideal_from_generators(s, [17]))
    tails = [(0, y) for y in range(98)]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert not is_arf(d)
        verdicts = [semigroup._tail_sum_closed(d.small, a) for a in tails]
        gc.collect()  # empties the interpreter's free lists, which count as traced
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 4096 and True in verdicts and False in verdicts


def test_closure_projections_are_the_numerical_closures():
    for s in corpus(518, 30, cap=10):
        t = arf_closure(s)
        for i in (0, 1):
            want = ns_arf_closure(projection(s, i))
            got = projection(t, i)
            assert got.small_elements == want.small_elements
            assert got.conductor == want.conductor


def test_saturation_infima_closure_in_three_dimensions():
    # an n = 3 closure whose in-box saturation is not meet closed
    s = gs_from_generators([(5, 2, 2), (4, 4, 5), (1, 5, 3)], (2, 3, 4))
    grown = 0
    for box in [(3, 4, 5), (2, 3, 4), (4, 2, 3)]:
        sat = arf_saturation(s, box)
        closed = infima_closure(s, box)
        assert sorted(map(tuple, closed)) == sorted(meet_fixpoint(sat))
        grown += len(closed) - len(sat)
    assert grown > 0


def test_saturation_matches_the_triple_fixpoint():
    # local, non-local and n = 3 inputs, in boxes below, at and past the
    # conductor
    rng = random.Random(519)
    cases = corpus(519, 12, cap=8) + corpus(520, 12, cap=8, local_only=False) + (
        product_semigroup([2, 3], [2, 5], [3, 4]),
        gs_from_generators([(5, 2, 2), (4, 4, 5), (1, 5, 3)], (2, 3, 4)),
    )
    grown = 0
    for s in cases:
        for _ in range(2):
            box = tuple(t + rng.randint(-1, 3) for t in s.small.top)
            sat = arf_saturation(s, box)
            assert sat == saturation_fixpoint(s, box)
            closed = infima_closure(s, box)
            assert sorted(map(tuple, closed)) == sorted(meet_fixpoint(sat))
            box_members = itertools.product(*(range(b + 1) for b in box))
            grown += len(sat) - sum(1 for p in box_members if gs_contains(s, p))
    assert grown > 0
