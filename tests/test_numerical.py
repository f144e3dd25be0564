"""Numerical semigroups, their ideals, and the one dimensional Arf closure."""

from __future__ import annotations

import random
import time

import pytest

from goodsgp import (
    ideal_contains,
    ideal_from_generators,
    ideal_preimage_scale,
    ns_arf_closure,
    ns_contains,
    ns_element_at,
    ns_from_generators,
    ns_from_small,
    ns_multiplicity,
    projection,
)

from _corpus import addition_member_loop, addition_pair_loop, arf_fixpoint, arf_triple_scan, corpus, ns_tail


def _is_arf(s):
    """Whether s is its own Arf closure."""
    return ns_arf_closure(s) == s


def test_small_elements_of_reference_semigroups():
    assert ns_from_generators([2, 3]).small_elements == (0, 2)
    assert ns_from_generators([3, 5, 7]).small_elements == (0, 3, 5)
    assert ns_from_generators([4, 5]).small_elements == (0, 4, 5, 8, 9, 10, 12)


def test_conductors_of_reference_semigroups():
    assert ns_from_generators([2, 3]).conductor == 2
    assert ns_from_generators([3, 5, 7]).conductor == 5
    assert ns_from_generators([4, 5]).conductor == 12


def test_generators_need_gcd_one():
    with pytest.raises(ValueError):
        ns_from_generators([4, 6])
    with pytest.raises(ValueError):
        ns_from_generators([0, 3])
    with pytest.raises(ValueError):
        ns_from_generators([])


def test_membership(ns23):
    assert ns_contains(ns23, 0)
    assert not ns_contains(ns23, 1)
    assert ns_contains(ns23, 2)
    assert all(ns_contains(ns23, v) for v in range(2, 40))
    assert not ns_contains(ns23, -2)


def test_membership_takes_ints_only():
    # 10.5 lies past the conductor of <3, 5> and 2.5 below it: both raise
    s = ns_from_generators([3, 5])
    e = ideal_from_generators(s, [3])
    for contains, x in ((ns_contains, s), (ideal_contains, e)):
        for v in (10.5, 2.5):
            with pytest.raises(TypeError):
                contains(x, v)
    # bools still read as ints
    assert ns_contains(s, False) is True and ns_contains(s, True) is False
    assert ideal_contains(e, False) is False and ideal_contains(e, 3) is True


def test_from_small_round_trip():
    s = ns_from_generators([3, 5, 7])
    t = ns_from_small(s.small_elements, s.conductor)
    assert t.small_elements == s.small_elements
    assert t.conductor == s.conductor
    assert set(t.generators) == set(s.generators)


def test_from_small_rejects_bad_data():
    with pytest.raises(ValueError):
        ns_from_small((1, 2), 2)  # zero missing
    with pytest.raises(ValueError):
        ns_from_small((0, 3), 5)  # does not end at the conductor
    with pytest.raises(ValueError):
        ns_from_small((0, 2, 3, 4), 4)  # conductor not minimal
    with pytest.raises(ValueError):
        ns_from_small((0, 2, 5), 5)  # 2 + 2 = 4 missing


def test_closure_failures_name_the_pair_of_the_pair_loop():
    rng = random.Random(4099)
    named = 0
    for _ in range(400):
        c = rng.randint(1, 30)
        small = [0, c] + rng.sample(range(1, c), rng.randint(0, c - 1))
        pair = addition_pair_loop(small, c)
        try:
            ns_from_small(small, c)
            message = None
        except ValueError as exc:
            message = str(exc)
        if pair is None:
            assert message is None or not message.startswith("not closed"), small
        else:
            assert message == "not closed under addition: %d + %d" % pair, small
            named += 1
    assert named > 200


def _closure_pair(small, c):
    """The pair a + b that ns_from_small names as missing, or None."""
    try:
        ns_from_small(small, c)
    except ValueError as exc:
        if str(exc).startswith("not closed"):
            return tuple(map(int, str(exc).rsplit(": ", 1)[1].split(" + ")))
    return None


def test_closure_by_generators_names_the_pair_of_the_member_loop():
    """ns_from_small, which tests its greedy generators, names the pair of
    the test of every member, on semigroups S with one to three values below
    the conductor flipped, and on S joined with v + S for one or two gaps v,
    whose least failing member is a gap, often a late generator."""
    rng = random.Random(4111)
    cases = []
    for s in _random_semigroups(4112, 400, max_conductor=200):
        c, small = s.conductor, set(s.small_elements)
        gaps = sorted(set(range(1, c)) - small)
        if not gaps:
            continue
        cases.append(small ^ set(rng.sample(range(1, c), rng.randint(1, min(3, c - 1)))))
        for v in rng.sample(gaps, min(len(gaps), rng.randint(1, 2))):
            small |= {v + x for x in s.small_elements if v + x <= c}
        cases.append(small)
    named = 0
    for small in cases:
        c = max(small)
        pair = addition_member_loop(small, c)
        assert _closure_pair(small, c) == pair, (sorted(small), c)
        named += pair is not None
    assert named > 400


def test_closure_of_large_data_is_checked_by_generators():
    s = ns_from_generators([500, 501])
    start = time.perf_counter()
    assert ns_from_small(s.small_elements, s.conductor) == s
    assert time.perf_counter() - start < 1.0


def test_element_at_and_multiplicity():
    s = ns_from_generators([3, 4])
    # closure of <3,4> starts 0, 3, 4, 6, 7, 8, ...
    assert [ns_element_at(s, i) for i in range(6)] == [0, 3, 4, 6, 7, 8]
    assert ns_multiplicity(s) == 3
    with pytest.raises(IndexError):
        ns_element_at(s, -1)


def test_arf_predicate():
    assert _is_arf(ns_from_generators([2, 3]))
    assert not _is_arf(ns_from_generators([3, 4]))  # 4 + 4 - 3 = 5 missing
    assert _is_arf(ns_from_generators([3, 4, 5]))


def test_arf_closure_of_3_4():
    t = ns_arf_closure(ns_from_generators([3, 4]))
    assert t.small_elements == (0, 3)
    assert t.conductor == 3
    assert ns_element_at(t, 2) == 4
    assert _is_arf(t)
    # removing 5 from the closure breaks the Arf property again
    assert not _is_arf(ns_from_generators([3, 4]))


def test_arf_closure_is_a_closure_operator():
    rng = random.Random(2309)
    for _ in range(60):
        m = rng.randint(2, 6)
        gens = sorted({m, rng.randint(m + 1, 2 * m + 3), rng.randint(m + 1, 3 * m)})
        try:
            s = ns_from_generators(gens)
        except ValueError:
            continue
        t = ns_arf_closure(s)
        assert _is_arf(t)
        assert all(ns_contains(t, v) for v in s.small_elements)
        assert t.conductor <= s.conductor
        assert ns_arf_closure(t).small_elements == t.small_elements


def test_readers_refuse_non_integral_values(ns23):
    # values are read by Point's rule: ints, bools and integral floats as
    # ints, anything int() would change refused by name
    assert ns_from_generators([2.0, 3]).generators == (2, 3)
    assert ns_from_small([0, 2.0, True + 1], 2.0).small_elements == (0, 2)
    assert ideal_from_generators(ns23, [6.0]).small_elements == (6, 8)
    for call, value in [
        (lambda: ns_from_generators([2.5, 3]), "2.5"),
        (lambda: ns_from_generators(["3", 5]), "'3'"),
        (lambda: ns_from_small([0, 2.5, 4.2], 4.9), "2.5"),
        (lambda: ns_from_small([0, 2, 4], 4.9), "4.9"),
        (lambda: ideal_from_generators(ns23, [1.5]), "1.5"),
    ]:
        with pytest.raises(ValueError) as raised:
            call()
        assert str(raised.value) == "%s is not an integer" % (value,)


def test_ideal_from_generators(ns23):
    e = ideal_from_generators(ns23, [6])
    assert e.conductor == 8
    assert e.small_elements == (6, 8)
    assert ideal_contains(e, 6) and ideal_contains(e, 9)
    assert not ideal_contains(e, 7)
    assert not ideal_contains(e, 0)
    with pytest.raises(ValueError):
        ideal_from_generators(ns23, [-1])
    with pytest.raises(ValueError):
        ideal_from_generators(ns23, [])


def test_tails(ns23):
    e = ns_tail(ns23, 3)
    assert e.small_elements == (3,)
    assert e.conductor == 3
    assert ns_tail(ns23, 0).small_elements == (0, 2)
    assert ns_tail(ns23, -4).conductor == ns_tail(ns23, 0).conductor


def test_preimage_scale(ns23):
    t = ns_from_generators([3, 4])
    e = ideal_from_generators(t, [3])
    g = ideal_preimage_scale(e, 2, ns23)
    assert g.conductor == 5
    assert g.small_elements == (3, 5)
    with pytest.raises(ValueError):
        ideal_preimage_scale(e, 0, ns23)


def _random_semigroups(seed, count, max_conductor=60):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        m = rng.randint(2, 12)
        gens = [m] + [rng.randint(m + 1, 4 * m) for _ in range(rng.randint(1, 4))]
        try:
            s = ns_from_generators(gens)
        except ValueError:
            continue  # gcd above 1
        if s.conductor <= max_conductor:
            out.append(s)
    return out


def _check_ideal(e, s, member, bound):
    """e against its definition: member decides E, and every value past
    bound is in E."""
    window = range(bound + ns_multiplicity(s) + 2)
    assert all(ideal_contains(e, v) == member(v) for v in window)
    conductor = next(c for c in range(bound + 2) if all(member(v) for v in range(c, bound + 1)))
    assert e.conductor == conductor
    assert e.small_elements == tuple(v for v in range(conductor + 1) if member(v))
    # generators: E minus E + (S minus 0)
    sums = {w + x for w in window if member(w) for x in window if x > 0 and ns_contains(s, x)}
    assert e.generators == tuple(v for v in window if member(v) and v not in sums)


def test_arf_and_ideals_against_brute_references():
    rng = random.Random(6061)
    for s in _random_semigroups(6060, 200):
        t = ns_arf_closure(s)
        assert (t.small_elements, t.conductor) == arf_fixpoint(s)
        assert _is_arf(s) == arf_triple_scan(s)
        assert _is_arf(t) and arf_triple_scan(t)
        c = s.conductor
        # a semigroup's generators: M minus M + M for M = s minus 0
        pos = [v for v in range(1, c + ns_multiplicity(s) + 1) if ns_contains(s, v)]
        assert s.generators == tuple(sorted(set(pos) - {w + x for w in pos for x in pos}))

        a = rng.randint(-2, c + 3)
        _check_ideal(ns_tail(s, a), s, lambda v: v >= a and ns_contains(s, v), max(a, c))

        gens = rng.sample(range(c + 4), rng.randint(1, 3))
        e = ideal_from_generators(s, gens)
        _check_ideal(e, s, lambda v: any(ns_contains(s, v - g) for g in gens), min(gens) + c)

        k = rng.randint(1, 3)
        bound = max(c, -(-e.conductor // k))
        _check_ideal(
            ideal_preimage_scale(e, k, s), s,
            lambda v: ns_contains(s, v) and ideal_contains(e, k * v), bound,
        )


def test_sets_closed_by_construction_match_the_checked_constructor():
    """ns_from_generators, ns_arf_closure and projection skip the checks of
    ns_from_small: each result equals what ns_from_small builds from its
    data, member int included."""
    results = []
    for s in _random_semigroups(6060, 200):
        results += [s, ns_arf_closure(s)]
    for g in corpus(514, 40, cap=9):
        results += [projection(g, 0), projection(g, 1)]
    for t in results:
        u = ns_from_small(t.small_elements, t.conductor)
        assert t == u and t._members == u._members
