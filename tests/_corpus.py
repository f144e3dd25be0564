"""Seeded random instances shared by the property tests.

Every helper takes a random.Random so a fixed seed always reproduces the
same instances.  The mixed corpus draws from the three construction routes
(duplication, amalgamation, validated random closures) and retries until
the conductor fits inside the requested box, which keeps the property
loops fast and deterministic.
"""

from __future__ import annotations

import itertools
import random
from functools import lru_cache
from operator import lt

from goodsgp import (
    ConstructionError,
    NotGoodSemigroup,
    Point,
    amalgamation,
    cartesian,
    closure_small,
    duplication,
    good_semigroup,
    ideal_from_generators,
    is_local,
    join,
    membership_in_closure,
    normalize_conductor,
    ns_arf_closure,
    ns_element_at,
    ns_from_generators,
    projection,
    small_set,
)
from goodsgp import ideals, semigroup

# The benchmark's conductor ladder: the duplications "S by e + S" of <3,5> by
# 5 (C=13), <5,7> by 7 (C=31), <9,11,13> by 11 (C=55) and <16,17,18,19> by
# 17 (C=97)
LADDER = {13: ([3, 5], 5), 31: ([5, 7], 7), 55: ([9, 11, 13], 11), 97: ([16, 17, 18, 19], 17)}
# The benchmark's n = 3 product <3,5> x <3,7> x <4,5>: 245 small elements,
# conductor (8, 12, 12)
PRODUCT3 = ([3, 5], [3, 7], [4, 5])
# Corpus seeds of the sum kernel checks, with local_only
KERNEL_SEEDS = ((514, True), (7, True), (99, True), (518, False), (11, False))


def random_numerical(rng, max_conductor=10):
    """A random numerical semigroup whose conductor stays small."""
    while True:
        m = rng.randint(2, 5)
        gens = {m}
        for _ in range(rng.randint(1, 3)):
            gens.add(rng.randint(m + 1, 2 * m + 3))
        try:
            s = ns_from_generators(sorted(gens))
        except ValueError:
            continue  # gcd above 1
        if s.conductor <= max_conductor:
            return s


def random_duplication(rng, cap=15):
    """Duplication of a random numerical semigroup along a random ideal."""
    while True:
        s = random_numerical(rng, max_conductor=max(2, cap // 2))
        members = [x for x in s.small_elements if 0 < x <= cap // 2]
        members += [s.conductor + k for k in range(0, 3)]
        gens = sorted(rng.sample(members, rng.randint(1, min(2, len(members)))))
        e = ideal_from_generators(s, gens)
        if e.conductor > cap:
            continue
        try:
            return duplication(s, e)
        except ConstructionError:
            continue


def random_amalgamation(rng, cap=15):
    """Amalgamation of two random numerical semigroups along an ideal."""
    while True:
        s = random_numerical(rng, max_conductor=max(2, cap // 3))
        t = random_numerical(rng, max_conductor=max(2, cap // 2))
        k = rng.randint(1, 3)
        members = [x for x in t.small_elements if x > 0] + [t.conductor + 1]
        gens = sorted(rng.sample(members, rng.randint(1, min(2, len(members)))))
        e = ideal_from_generators(t, gens)
        if e.conductor > cap:
            continue
        try:
            g = amalgamation(s, t, e, k)
        except ConstructionError:
            continue
        if all(c <= cap for c in g.conductor):
            return g


def random_closure(rng, cap=15, local_only=True):
    """A validated random closure: keep sampling until the axioms hold."""
    while True:
        c = rng.randint(3, cap)
        gens = [Point((rng.randint(1, c), rng.randint(1, c))) for _ in range(rng.randint(1, 3))]
        small = normalize_conductor(closure_small(gens, Point((c, c))))
        try:
            s = good_semigroup(small)
        except NotGoodSemigroup:
            continue
        if local_only and not is_local(s):
            continue
        return s


def random_good_semigroup(rng, cap=15, local_only=True):
    """A random good semigroup of N^2 by duplication, amalgamation or a
    validated random closure; without local_only, also the product of two
    random numerical semigroups, which is never local (local corpora keep
    the random stream they had without that route)."""
    route = rng.randrange(3 if local_only else 4)
    if route == 3:
        return cartesian(random_numerical(rng, cap), random_numerical(rng, cap))
    if route == 0:
        return random_duplication(rng, cap)
    if route == 1:
        g = random_amalgamation(rng, cap)
        if not local_only or is_local(g):
            return g
        return random_duplication(rng, cap)
    return random_closure(rng, cap, local_only=local_only)


def closures3(seed, count, cap=8):
    """Seeded truncated closures in N^3 with their conductors normalized,
    valid or not: each top has coordinates 1 to cap, and its one to three
    generators have coordinates from 1 (a local closure) or from 0 (often
    a non-local one), at random."""
    rng = random.Random(seed)
    for _ in range(count):
        top = tuple(rng.randint(1, cap) for _ in range(3))
        low = rng.randint(0, 1)
        gens = [tuple(rng.randint(low, t) for t in top) for _ in range(rng.randint(1, 3))]
        yield normalize_conductor(closure_small(gens, top))


@lru_cache(maxsize=None)
def corpus(seed, count, cap=15, local_only=True):
    """A reusable tuple of random good semigroups for property loops."""
    rng = random.Random(seed)
    return tuple(random_good_semigroup(rng, cap, local_only) for _ in range(count))


def product_semigroup(*factors):
    """The product in N^n of the numerical semigroups with the given
    generators: every tuple of factor small elements, topped by the tuple
    of the factor conductors."""
    ns = [ns_from_generators(g) for g in factors]
    pts = itertools.product(*(f.small_elements for f in ns))
    return good_semigroup(small_set(pts, tuple(f.conductor for f in ns)))


def _chain_level(t1, t2, i):
    """Level i of the chain over the numerical semigroups t1, t2: their
    first i members glued pointwise, and the full product from the i-th
    members on, topped by the join of those with the conductors."""
    si, ui = ns_element_at(t1, i), ns_element_at(t2, i)
    top = (max(si, t1.conductor), max(ui, t2.conductor))
    pts = {(ns_element_at(t1, k), ns_element_at(t2, k)) for k in range(i)}
    pts.update(itertools.product([x for x in range(si, top[0] + 1) if x in t1],
                                 [y for y in range(ui, top[1] + 1) if y in t2]))
    return small_set(pts, top)


def chain_level_closure(s):
    """The Arf closure of a good semigroup of N^2 by the chain levels over
    the Arf closures t1, t2 of its projections: the product t1 x t2 when s
    is not local; otherwise the deepest level still containing s, backing
    off while a level is no good semigroup.  The reference for arf_closure
    wherever its result is Arf; on a few inputs it is not."""
    t1, t2 = (ns_arf_closure(projection(s, i)) for i in (0, 1))
    if not is_local(s):
        return cartesian(t1, t2)
    level = 1
    while semigroup._small_subset(s.small, _chain_level(t1, t2, level + 1)):
        level += 1
    while True:
        try:
            return good_semigroup(_chain_level(t1, t2, level))
        except NotGoodSemigroup:
            if level == 1:
                raise
            level -= 1


def box_members(small, bound, low=None):
    """Members of the set small describes inside the box [low, bound], low
    0 when omitted, in itertools.product order, by one membership test per
    box point: the reference for semigroup._box_rows."""
    low = low or (0,) * len(bound)
    for q in itertools.product(*(range(a, b + 1) for a, b in zip(low, bound))):
        if small.contains(q):
            yield q


def meet_pair_scan(small):
    """The meet check by the scan over all pairs of points: the reference,
    witness order included, for the row kernels of
    semigroup._meet_violations."""
    pset = set(small.points)
    for a in small.points:
        for b in small.points:
            if tuple(map(min, a, b)) not in pset:
                return [semigroup._meet_violation(a, b)]
    return []


def sum_pair_scan(small):
    """The sum check by the scan over all pairs of points: the reference,
    witness order included, for the row kernel of semigroup._sum_violations."""
    pset = set(small.points)
    top = tuple(small.top)
    for a in small.points:
        for b in small.points:
            if tuple(min(x + y, t) for x, y, t in zip(a, b, top)) not in pset:
                return [semigroup._sum_violation(a, b)]
    return []


def absorption_pair_scan(ambient, small):
    """The absorption check by the scan over every ambient member of the box
    up to the join of both conductors and every point: the reference for
    ideals._absorption_violations."""
    pset = set(small.points)
    top = tuple(small.top)
    for q in box_members(ambient.small, join(small.top, ambient.small.top)):
        for e in small.points:
            if tuple(min(x + y, c) for x, y, c in zip(e, q, top)) not in pset:
                return [ideals._absorption_violation(e, q)]
    return []


def tail_pair_loop(small, a):
    """Whether b + c - a is a member for all points b, c >= a of the small
    set, by the scan over every such pair: the reference for
    semigroup._tail_sum_closed."""
    above = [b for b in small.points if all(x >= y for x, y in zip(b, a))]
    return all(
        small.contains(tuple(x + y - z for x, y, z in zip(b, c, a)))
        for i, b in enumerate(above)
        for c in above[i:]
    )


def arf_triple_loop(s):
    """Whether b + c - a is a member for all small elements a <= b, a <= c
    of a good semigroup, by the scan over every such triple: the reference
    for the shifted-tail scan of is_arf."""
    return all(tail_pair_loop(s.small, a) for a in s.small.points)


def stable_pair_loop(e):
    """Whether a + b - min(E) is a member for all small elements a, b of a
    good ideal E, by the scan over every such pair: the reference for the
    shifted-tail scan of is_stable.  Larger pairs clamp to small ones with
    the same membership outcome."""
    pts = e.small.points
    m = e.min_element
    contains = e.small.contains
    for idx, a in enumerate(pts):
        for b in pts[idx:]:
            if not contains(tuple(x + y - z for x, y, z in zip(a, b, m))):
                return False
    return True


def saturation_fixpoint(s, box):
    """The in-box saturation by rounds over every triple a <= b, c of
    members inside [0, box], adding b + c - a when it lies in the box, until
    a round adds nothing: the reference for arf_saturation."""
    members = set(box_members(s.small, box))
    changed = True
    while changed:
        changed = False
        pts = sorted(members)
        for a in pts:
            above = [b for b in pts if all(x >= y for x, y in zip(b, a))]
            for i, b in enumerate(above):
                for c in above[i:]:
                    q = tuple(x + y - z for x, y, z in zip(b, c, a))
                    if q in members or any(x > t for x, t in zip(q, box)):
                        continue
                    members.add(q)
                    changed = True
    return tuple(sorted(Point(p) for p in members))


def meet_fixpoint(points):
    """The closure of points under componentwise minima by the pairwise
    worklist: the reference for the library's meet closures."""
    pts = set(map(tuple, points))
    work = list(pts)
    while work:
        a = work.pop()
        for b in list(pts):
            m = tuple(map(min, a, b))
            if m not in pts:
                pts.add(m)
                work.append(m)
    return pts


def arf_fixpoint(s):
    """The Arf closure of a numerical semigroup as (small elements,
    conductor), by saturating b + c - a inside [0, conductor]: b + c - a is
    at least max(b, c), so results inside the window only come from triples
    inside it.  The reference for ns_arf_closure."""
    cap = s.conductor
    members = set(s.small_elements)
    changed = True
    while changed:
        changed = False
        snapshot = sorted(members)
        for ai, a in enumerate(snapshot):
            for bi in range(ai, len(snapshot)):
                for c in snapshot[bi:]:
                    v = snapshot[bi] + c - a
                    if v <= cap and v not in members:
                        members.add(v)
                        changed = True
    conductor = 0
    for v in range(cap, -1, -1):
        if v not in members:
            conductor = v + 1
            break
    return tuple(v for v in sorted(members) if v <= conductor), conductor


def arf_triple_scan(s):
    """Whether b + c - a is a member for all small members a <= b <= c of a
    numerical semigroup (larger b or c are automatic).  The reference for
    ns_is_arf."""
    small = s.small_elements
    members = set(small)
    return all(
        s.conductor <= b + c - a or b + c - a in members
        for ai, a in enumerate(small)
        for bi, b in enumerate(small[ai:], ai)
        for c in small[bi:]
    )


def sequential_elimination(order, generated):
    """The elimination that the uniqueness of minimal systems makes order
    free: walk the candidates in the given order and drop each one that
    generated(rest, a) finds in the closure of those still kept."""
    kept = list(order)
    for a in order:
        rest = [h for h in kept if h != a]
        if generated(rest, a):
            kept = rest
    return tuple(sorted(kept))


def shuffled_eliminations(s, rng, times):
    """sequential_elimination of the nonzero small elements of s in `times`
    shuffled orders, by the public truncated closure membership test."""
    top = s.small.top
    cands = [p for p in s.small.points if any(p)]
    for _ in range(times):
        order = rng.sample(cands, len(cands))
        yield sequential_elimination(order, lambda rest, a: membership_in_closure(rest, top, a))


@lru_cache(maxsize=None)
def ladder_duplication(rung):
    gens, e = LADDER[rung]
    s = ns_from_generators(gens)
    return duplication(s, ideal_from_generators(s, [e]))


def _middle(cands):
    return sorted(cands)[len(cands) // 2]


def _fiber_top(pts, i):
    """Per value on axis i, the largest coordinate on the other axis."""
    out = {}
    for p in pts:
        out[p[i]] = max(out.get(p[i], -1), p[1 - i])
    return out


def corrupt(pts, top, axiom):
    """A copy of valid small data that breaks the given axiom, made the way
    the benchmark makes its reject documents: zero and sum work in any
    dimension, the others in N^2.  The corrupted point is the middle
    candidate in lexicographic order."""
    pts = [tuple(p) for p in pts]
    top = tuple(top)
    if axiom == "zero":
        return [p for p in pts if any(p)], top
    if axiom == "sum":
        # drop a doubled point 2a below the top, so a + a goes missing
        pset = set(pts)
        doubled = [tuple(2 * x for x in p) for p in pts if any(p)]
        d = _middle([p for p in doubled if p in pset and all(map(lt, p, top))])
        return [p for p in pts if p != d], top
    if axiom == "meet":
        # drop m with points above it on both of its fibers; they meet at m
        up = _fiber_top(pts, 0), _fiber_top(pts, 1)
        m = _middle([p for p in pts if any(p) and up[0][p[0]] > p[1] and up[1][p[1]] > p[0]])
        return [p for p in pts if p != m], top
    if axiom == "witness":
        # a keeps a point above it on its axis-0 fiber but loses every point
        # sharing a_1 beyond it on axis 0
        up = _fiber_top(pts, 0)
        a = _middle([p for p in pts if all(p) and p[0] < top[0] and p[1] < top[1]
                     and up[p[0]] > p[1]])
        return [p for p in pts if not (p[1] == a[1] and p[0] > a[0])], top
    if axiom == "conductor":
        # extend the border rays one step on axis 0: the same semigroup, but
        # the top is no longer minimal
        ext = [(x + 1, y) for x, y in pts if x == top[0]]
        return pts + ext, (top[0] + 1, top[1])
    raise ValueError(axiom)


def kernel_cases(count=10, cap=12):
    """(ambient, data) pairs for the sum and absorption checks: every
    semigroup of the KERNEL_SEEDS corpora with its own small set, each
    corruption of it by corrupt that has a point to corrupt, and its tail
    ideal at the middle small element; then the benchmark's PRODUCT3 and
    <2,3> x <3,5> x <3,4>, with their zero and sum corruptions."""
    for seed, local_only in KERNEL_SEEDS:
        for s in corpus(seed, count, cap, local_only):
            small = s.small
            yield s, small
            for axiom in ("zero", "meet", "sum", "witness", "conductor"):
                try:
                    pts, top = corrupt(small.points, small.top, axiom)
                except IndexError:  # no point to corrupt for this axiom
                    continue
                yield s, small_set(pts, top)
            yield s, ideals.tail_ideal(s, _middle(small.points)).small
    for factors in (PRODUCT3, ([2, 3], [3, 5], [3, 4])):
        s = product_semigroup(*factors)
        yield s, s.small
        for axiom in ("zero", "sum"):
            yield s, small_set(*corrupt(s.small.points, s.small.top, axiom))
