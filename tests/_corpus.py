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
from functools import lru_cache, reduce
from itertools import accumulate
from math import inf, prod
from operator import add, le, lt, or_, sub

from goodsgp import (
    ConstructionError,
    DimensionMismatch,
    NonLocalError,
    NotAGeneratingSystem,
    NotGoodSemigroup,
    NumericalIdeal,
    Point,
    SmallSet,
    amalgamation,
    arf_saturation,
    cartesian,
    closure_small,
    duplication,
    good_semigroup,
    ideal_contains,
    ideal_from_generators,
    ideal_preimage_scale,
    is_local,
    join,
    normalize_conductor,
    ns_arf_closure,
    ns_contains,
    ns_element_at,
    ns_from_generators,
    ones,
    projection,
    small_set,
)
from goodsgp import ideals, semigroup
from goodsgp.ideals import good_ideal
from goodsgp.semigroup import _box_rows, _fold_rows, _low_bit, _meet_closure, _row_points

# The benchmark's conductor ladder: the duplications "S by e + S" of <3,5> by
# 5 (C=13), <5,7> by 7 (C=31), <9,11,13> by 11 (C=55) and <16,17,18,19> by
# 17 (C=97)
LADDER = {13: ([3, 5], 5), 31: ([5, 7], 7), 55: ([9, 11, 13], 11), 97: ([16, 17, 18, 19], 17)}
# The benchmark's n = 3 product <3,5> x <3,7> x <4,5>: 245 small elements,
# conductor (8, 12, 12)
PRODUCT3 = ([3, 5], [3, 7], [4, 5])
# Corpus seeds of the sum kernel checks, with local_only
KERNEL_SEEDS = ((514, True), (7, True), (99, True), (518, False), (11, False))


def meet(a, b):
    """The componentwise minimum of two points of one dimension."""
    return Point(map(min, a, b))


def ns_tail(s, a):
    """The ideal of the members >= a of a numerical semigroup, by its
    member int."""
    return NumericalIdeal(s, s._members & -1 << max(a, 0))


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


def duplication_args(rng, cap=15):
    """Random arguments of duplication: a random numerical semigroup and an
    ideal of it generated by one or two members."""
    s = random_numerical(rng, max_conductor=max(2, cap // 2))
    members = [x for x in s.small_elements if 0 < x <= cap // 2]
    members += [s.conductor + k for k in range(0, 3)]
    gens = sorted(rng.sample(members, rng.randint(1, min(2, len(members)))))
    return s, ideal_from_generators(s, gens)


def random_duplication(rng, cap=15):
    """Duplication of a random numerical semigroup along a random ideal."""
    while True:
        s, e = duplication_args(rng, cap)
        if e.conductor > cap:
            continue
        try:
            return duplication(s, e)
        except ConstructionError:
            continue


def amalgamation_args(rng, cap=15):
    """Random arguments of amalgamation: numerical semigroups s and t, an
    ideal of t generated by one or two members, and a factor k in 1..3;
    k*s need not land in t."""
    s = random_numerical(rng, max_conductor=max(2, cap // 3))
    t = random_numerical(rng, max_conductor=max(2, cap // 2))
    k = rng.randint(1, 3)
    members = [x for x in t.small_elements if x > 0] + [t.conductor + 1]
    gens = sorted(rng.sample(members, rng.randint(1, min(2, len(members)))))
    return s, t, ideal_from_generators(t, gens), k


def random_amalgamation(rng, cap=15):
    """Amalgamation of two random numerical semigroups along an ideal."""
    while True:
        s, t, e, k = amalgamation_args(rng, cap)
        if e.conductor > cap:
            continue
        try:
            g = amalgamation(s, t, e, k)
        except ConstructionError:
            continue
        if all(c <= cap for c in g.conductor):
            return g


# The constructions as the membership scan they replaced: each member rule
# called on every cell of the top's box, with the same input checks, the
# reference for the bit columns of goodsgp.constructions.


def _from_membership(member, top):
    top = Point(top)
    pts = [
        Point(p)
        for p in itertools.product(*(range(t + 1) for t in top))
        if member(p)
    ]
    small = normalize_conductor(SmallSet(tuple(sorted(pts)), top))
    return good_semigroup(small)


def _duplication_by_membership(s, e):
    """The good semigroup {(a, a) : a in s} joined with e x e, closed under meets.

    Requires e to be an ideal of s contained in s.  A pair (x, y) with x != y
    belongs exactly when min(x, y) is in e and max(x, y) is in s; the
    conductor is (c, c) for c the conductor of e.
    """
    if e.ambient != s:
        raise ConstructionError("the ideal is not an ideal of the given semigroup")
    for v in e.small_elements:
        if not ns_contains(s, v):
            raise ConstructionError("ideal element %d is outside the semigroup" % (v,))
    for v in range(e.conductor, s.conductor):
        if not ns_contains(s, v):
            raise ConstructionError("ideal element %d is outside the semigroup" % (v,))

    def member(p):
        x, y = p
        if x == y:
            return ns_contains(s, x)
        return ns_contains(s, max(x, y)) and ideal_contains(e, min(x, y))

    return _from_membership(member, (e.conductor, e.conductor))


def _amalgamation_by_membership(s, t, e, k):
    """The good semigroup generated by {(a, k*a) : a in s} and the preimage
    pairing with e, closed under meets.

    e must be an ideal of t and k*s must land inside t.  Writing g for
    multiplication by k and E' = {x in s : k*x in e}, the members are

        (x, k*x)            for x in s,
        E' x e,
        (x, y) with x in s, y in e, y < k*x,
        (x, k*u) with x in E', u in s, u >= x,

    and the conductor is (conductor of E', conductor of e).
    """
    if k < 1:
        raise ConstructionError("the scale factor must be a positive integer")
    if e.ambient != t:
        raise ConstructionError("the ideal is not an ideal of the target semigroup")
    top_check = max(s.conductor, -(-t.conductor // k))
    for v in list(s.small_elements) + list(range(s.conductor, top_check + 1)):
        if not ns_contains(t, k * v):
            raise ConstructionError(
                "%d times %d falls outside the target semigroup" % (k, v)
            )
    ginv = ideal_preimage_scale(e, k, s)
    top = (ginv.conductor, e.conductor)

    def member(p):
        x, y = p
        if ns_contains(s, x) and y == k * x:
            return True
        if ideal_contains(ginv, x) and ideal_contains(e, y):
            return True
        if ns_contains(s, x) and ideal_contains(e, y) and y < k * x:
            return True
        if (
            ideal_contains(ginv, x)
            and y % k == 0
            and ns_contains(s, y // k)
            and y // k >= x
        ):
            return True
        return False

    return _from_membership(member, top)


def _cartesian_by_membership(s1, s2):
    """The product semigroup, with conductor (c1, c2)."""

    def member(p):
        return ns_contains(s1, p[0]) and ns_contains(s2, p[1])

    return _from_membership(member, (s1.conductor, s2.conductor))


def _from_maximal_elements_by_membership(s1, s2, maximals):
    """The largest subset of s1 x s2 admitting the given points as complete
    maximal elements: pairs sharing a coordinate with a listed point and
    strictly exceeding it on the other axis are removed.

    Whether the survivor set really is a good semigroup depends on the list;
    validation raises NotGoodSemigroup when it is not.
    """
    mpts = points_by_items(maximals, 2, "listed point")
    for a in mpts:
        if not (ns_contains(s1, a[0]) and ns_contains(s2, a[1])):
            raise ConstructionError(
                "listed point %s is outside the product" % (tuple(a),)
            )
    if not mpts:
        return _cartesian_by_membership(s1, s2)
    top = (
        max(s1.conductor, 1 + max(a[0] for a in mpts)),
        max(s2.conductor, 1 + max(a[1] for a in mpts)),
    )

    def member(p):
        x, y = p
        if not (ns_contains(s1, x) and ns_contains(s2, y)):
            return False
        for a in mpts:
            if x == a[0] and y > a[1]:
                return False
            if y == a[1] and x > a[0]:
                return False
        return True

    return _from_membership(member, top)


def construction_by_membership(kind, *args):
    """The construction of the given kind ("duplication", "amalgamation",
    "cartesian" or "maximal") on args, by its membership scan."""
    return {
        "duplication": _duplication_by_membership,
        "amalgamation": _amalgamation_by_membership,
        "cartesian": _cartesian_by_membership,
        "maximal": _from_maximal_elements_by_membership,
    }[kind](*args)


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
    while small_subset(s.small, _chain_level(t1, t2, level + 1)):
        level += 1
    while True:
        try:
            return good_semigroup(_chain_level(t1, t2, level))
        except NotGoodSemigroup:
            if level == 1:
                raise
            level -= 1


def small_subset(a, b):
    """Whether the set the small set a reconstructs lies inside the one b
    reconstructs.  Both agree with their periodic continuation past the
    join of the tops, so the box rows (_box_rows) of the box one step
    beyond it decide."""
    bound = tuple(max(x, y) + 1 for x, y in zip(a.top, b.top))
    return not any(x & ~y for x, y in zip(_box_rows(a, bound), _box_rows(b, bound)))


def infima_closure(s, box):
    """The meet closure of the in-box saturation, as the saturate command
    computes it from the saturation's bit rows; meets of box points stay
    in the box."""
    box = Point(box)
    return _row_points(_meet_closure(semigroup._rows(arf_saturation(s, box), box), box), box)


def chain_lengths(small):
    """The longest and the shortest path from 0 to the top in the Hasse
    diagram of the points of small in the componentwise order; for a good
    semigroup, S meets [0, C] in its small elements.  A point's lower
    covers are the maximal points strictly below it, found scanning those
    in reverse lexicographic order, in which a point comes before every
    point below it."""
    pts = small.points
    longest, shortest = {pts[0]: 0}, {pts[0]: 0}
    for i, a in enumerate(pts[1:], 1):
        covers = []
        for b in reversed(pts[:i]):
            if all(map(le, b, a)) and not any(all(map(le, b, c)) for c in covers):
                covers.append(b)
        longest[a] = 1 + max(longest[b] for b in covers)
        shortest[a] = 1 + min(shortest[b] for b in covers)
    return longest[pts[-1]], shortest[pts[-1]]


def box_set(e):
    """A good ideal (or semigroup) e as a box set (low, cone, points): a
    lower bound of its members, a point whose cone it contains, and its
    members in [low, cone], a box set's members being the y >= low whose
    clamp min(y, cone) is one of those points (the rays of the border)."""
    pts = e.small.points
    return tuple(map(min, zip(*pts))), tuple(e.small.top), frozenset(map(tuple, pts))


def box_member(a, y) -> bool:
    low, cone, pts = a
    return all(map(le, low, y)) and tuple(map(min, y, cone)) in pts


def colon(a, b):
    """A - B = {x in Z^n : x + B inside A} for box sets a and b whose member
    sets are meet closed: as a box set, exactly.

    With m the meet of b's points, the least member of B, every member x
    has x + m in A, so x >= low(A) - m, and every x >= cone(A) - m is one.
    x + b lies in A exactly when its clamp at cone(A) does, and replacing b
    by min(b, t), t = max(cone(B), cone(A) - x), a member of B, keeps that
    clamp, so x is decided by the members of B in [m, t].  The colon is
    meet closed and keeps the rays past its cone, as A does."""
    m = tuple(map(min, zip(*b[2])))
    low, cone = tuple(map(sub, a[0], m)), tuple(map(sub, a[1], m))
    pts = set()
    for x in itertools.product(*map(range, low, (c + 1 for c in cone))):
        t = map(max, b[1], map(sub, a[1], x))
        within = itertools.product(*map(range, m, (u + 1 for u in t)))
        if all(box_member(a, tuple(map(add, x, y))) for y in within if box_member(b, y)):
            pts.add(x)
    return low, cone, frozenset(pts)


def same_box_sets(a, b) -> bool:
    """Whether two box sets have the same members: the same members in the
    box from the lower of their lows to the join of their cones, past which
    both are read off that box's border."""
    low, high = tuple(map(min, a[0], b[0])), tuple(map(max, a[1], b[1]))
    return all(box_member(a, y) == box_member(b, y)
               for y in itertools.product(*map(range, low, (h + 1 for h in high))))


def maximal_by_points(s):
    """maximal_elements by one test per small element, the reference for
    its read of the fiber-top table: p is maximal when it is the highest
    point of both its fibers and lies on no ray, below the top on both
    axes."""
    pts, top = s.small.points, s.small.top
    up = _fiber_top(pts, 0), _fiber_top(pts, 1)
    return tuple(p for p in pts if up[0][p[0]] == p[1] < top[1] and up[1][p[1]] == p[0] < top[0])


def canonical_generators_by_projections(s):
    """canonical_generators by the gaps of the projections below their
    conductors, each placed on the opposite border, plus the reflections
    of the maximal elements through conductor - 1: the reference for its
    read of the fiber-top table (local s)."""
    top = s.small.top
    gamma = top - ones(2)
    fam = set()
    s1, s2 = projection(s, 0), projection(s, 1)
    for x in range(1, s1.conductor):
        if x not in s1:
            fam.add(Point((gamma[0] - x, top[1])))
    for y in range(1, s2.conductor):
        if y not in s2:
            fam.add(Point((top[0], gamma[1] - y)))
    for alpha in maximal_by_points(s):
        fam.add(gamma - alpha)
    return tuple(sorted(fam))


def box_members(small, bound, low=None):
    """Members of the set small describes inside the box [low, bound], low
    0 when omitted, in itertools.product order, by one membership test per
    box point: the reference for semigroup._box_rows."""
    low = low or (0,) * len(bound)
    for q in itertools.product(*(range(a, b + 1) for a, b in zip(low, bound))):
        if small.contains(q):
            yield q


def column_sum_ideal(s, rows, top, other, corner):
    """The n = 2 column loop that ideals._clamped_sum_ideal replaced, kept
    verbatim as its reference in N^2.

    Each point (x, y) of the bit rows of [0, top] ORs every box column x'
    of other, shifted up by y with the bits from corner_1 on folded into
    bit corner_1, into column min(x + x', corner_0); the columns from
    corner_0 - x on all land in column corner_0 and are ORed first.  Two
    rules take the rays: along axis 1 (y = top_1) the shifted column's bits
    from its lowest bit up to corner_1, every one of them; along axis 0
    (x = top_0) the shifted columns go to an onward array, whose column x
    is ORed into every column from x on by one running OR at the end.
    """
    c0, c1 = corner
    t0, t1 = top
    below, last = (1 << c1) - 1, 1 << c1
    box = _box_rows(other, corner)
    cols = [(x, g) for x, g in enumerate(box) if g]
    rest = list(accumulate(reversed(box), or_))[::-1]  # OR of the columns from x on
    out, onward = [0] * (c0 + 1), [0] * (c0 + 1)
    for x, r in enumerate(rows):
        if not r:
            continue
        into = onward if x == t0 else out  # the ray along axis 0
        shifts = [(x + x2, g) for x2, g in cols if x + x2 < c0] + [(c0, rest[c0 - x])]
        while r:
            y = _low_bit(r)
            r &= r - 1
            if y == t1:  # the ray along axis 1: every bit from the lowest on
                for i, g in shifts:
                    into[i] |= -(g & -g) << y & below | last
                continue
            for i, g in shifts:
                v = g << y
                into[i] |= v & below | last if v > below else v
    run = 0
    for x, r in enumerate(onward):
        run |= r
        out[x] |= run
    data = SmallSet._of_rows(_meet_closure(out, corner), corner)
    return good_ideal(s, normalize_conductor(data))


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
    the Arf test by the closure, ns_arf_closure(s) == s."""
    small = s.small_elements
    members = set(small)
    return all(
        s.conductor <= b + c - a or b + c - a in members
        for ai, a in enumerate(small)
        for bi, b in enumerate(small[ai:], ai)
        for c in small[bi:]
    )


def _reach(gens, axis, last, cap):
    """The knapsack over sums of positive generators on one axis: for u in
    [0, last], the largest other-axis coordinate, capped at cap >= 0, of
    the sums with axis coordinate u of any number of generators (the empty
    sum is 0); -1 when there is none."""
    high = _fiber_top(gens, axis)
    steps = sorted(high.items())
    some = [0] + [-1] * last
    for u in range(1, last + 1):
        best = high.get(u, -1)
        for a, c in steps:
            if a >= u:
                break
            if some[u - a] >= 0:
                best = max(best, some[u - a] + c)
        some[u] = min(best, cap)
    return some


def monoid_fiber_reach(gens, axis, target):
    """Whether a sum of generators of N^2, all off the axes, hits
    target[axis] exactly while reaching at least target on the other axis."""
    gens = [g for g in gens if any(g)]  # 0 generates nothing
    v, w = target[axis], max(target[1 - axis], 0)
    # the table reads -1 where no sum hits v, so a negative floor must not
    # be compared against it
    return v >= 0 and _reach(gens, axis, v, w)[v] >= w


def membership_in_closure(gens, conductor, a):
    """Whether a point a of [0, conductor] lies in the closure of gens
    truncated at the conductor, by the knapsack: the elimination reference
    for the removal rule of minimal generating systems (n = 2, generators
    off the axes).  Below the conductor on every axis this asks for fiber
    reachability on both axes; axes where a touches the conductor are free."""
    gens = [g for g in gens if any(g)]  # 0 generates nothing
    if tuple(a) == tuple(conductor):
        return bool(gens) or not any(conductor)
    return all(
        _reach(gens, i, conductor[i] - 1, conductor[1 - i])[a[i]] >= a[1 - i]
        for i in (0, 1) if a[i] != conductor[i]
    )


def removable_by_candidates(cands, corner, ambient):
    """Per candidate, distinct points of [0, corner], whether it lies in the
    closure of the others, by the removal rule with its tables built from
    the candidate tuples (_fiber_top per axis) and the candidates tested one
    by one: the reference for gensys._generators, which reads the same
    tables off bit rows."""
    if len(cands) < 2:
        return [False] * len(cands)  # the closure of nothing has no point
    tables = []
    for i in (0, 1):
        high = _fiber_top(cands, i)
        fiber = [fiber_top(ambient.small, i, u) for u in range(corner[i])]
        reach = {
            u: max((c + fiber[u - a] for a, c in high.items() if a < u), default=-inf)
            for u in {p[i] for p in cands if p[i] < corner[i]}
        }
        tables.append((high, reach))
    return [
        p == corner or all(
            high[p[i]] > p[1 - i] or reach[p[i]] >= p[1 - i]
            for i, (high, reach) in enumerate(tables) if p[i] < corner[i]
        )
        for p in cands
    ]


def is_minimal_by_closure(gens, s):
    """is_minimal_system by two routes: the truncated closure of the clamped
    points decides generation, and the removal rule on them
    (removable_by_candidates) minimality, with the special cases for a set
    holding only 0 and one holding 0: the reference, in N^2, for the one
    route by the uniqueness of the minimal system."""
    if not is_local(s):
        raise NonLocalError("minimal generating systems require a local semigroup")
    top = s.small.top
    cands = sorted(set(meet(Point(g), top) for g in gens))
    live = [g for g in cands if any(g)]
    # with only 0 given the closure still seeds the conductor, but nothing
    # here actually produces it
    if closure_small(cands, top) != s.small or not live and any(top):
        raise NotAGeneratingSystem(
            "the closure of the given set does not reproduce the semigroup"
        )
    if len(live) < len(cands):
        return False  # contains 0, which is always removable
    if live:
        semigroup._require_dim2(s, "is_minimal_system")
    return not any(removable_by_candidates([tuple(g) for g in live], top, s))


def addition_pair_loop(small, conductor):
    """The first pair a <= b of members whose sum lies below the conductor
    outside the members, least a first, then least b, by the loop over all
    pairs: the reference for the shifted bit test of ns_from_small."""
    members = sorted(set(small))
    for a in members:
        for b in members:
            if a <= b and a + b < conductor and a + b not in members:
                return a, b
    return None


def addition_member_loop(small, conductor):
    """The same pair by one shifted bit test per member a: the members
    b >= a, shifted up by a, must be members below the conductor.  The
    reference for ns_from_small, which tests only the greedy generators."""
    bits = reduce(or_, (1 << v for v in small), 0)
    for a in sorted(set(small)):
        missing = (bits >> a << 2 * a) & ~bits & ((1 << conductor) - 1)
        if missing:
            return a, _low_bit(missing) - a
    return None


# The point-list readers as the per-point route they replaced: each point
# converted with Point and checked in the order received (lexicographic
# order for small_set), and clamped with meet; the reference for
# semigroup._checked_points and for the clamp of semigroup._rows.


def points_by_items(points, n, noun):
    """The points as Points, each checked as it is converted: the reference
    for the checks and messages of semigroup._checked_points."""
    out = []
    for p in points:
        p = Point(p)
        if p.dim != n:
            raise DimensionMismatch("%s %s has %d coordinates, not %d" % (noun, tuple(p), p.dim, n))
        if min(p) < 0:
            raise ValueError("%s %s has a negative coordinate" % (noun, tuple(p)))
        out.append(p)
    return out


def rows_by_points(points, top):
    """The bit rows over [0, top] of the points clamped with meet, one
    point at a time: the reference for the clamp of semigroup._rows."""
    top = Point(top)
    rows = [0] * prod(t + 1 for t in top[:-1])
    for p in points:
        *head, y = meet(Point(p), top)
        i = 0
        for x, t in zip(head, top):
            i = i * (t + 1) + x
        rows[i] |= 1 << y
    return rows


def small_set_points_by_items(points, top):
    """SmallSet(points, top) with the points read per item and the order
    and top checked on the points."""
    points = points_by_items(points, top.dim, "point")
    if not points:
        raise ValueError("empty point set")
    for p in points:
        if any(x > t for x, t in zip(p, top)):
            raise ValueError("point %s exceeds the top %s" % (tuple(p), tuple(top)))
    if not all(map(lt, points, points[1:])):
        raise ValueError("points are not strictly increasing")
    if points[-1] != top:
        raise ValueError("top %s is not in the point set" % (tuple(top),))
    return SmallSet._of_rows(rows_by_points(points, top), top)


def small_set_by_points(points, top=None):
    """small_set by way of the sorted Points and the checks of SmallSet:
    the reference for the checks and messages of small_set."""
    pts = sorted(set(map(Point, points)))
    if not pts:
        raise ValueError("empty point set")
    top = Point(max(x) for x in zip(*pts)) if top is None else Point(top)
    return small_set_points_by_items(pts, top)


def closure_by_points(gens, conductor):
    """closure_small with each generator read and clamped per point."""
    top = Point(conductor)
    if any(t < 0 for t in top):
        raise ValueError("conductor must be in N^n")
    clamped = [meet(g, top) for g in points_by_items(gens, top.dim, "generator")]
    rows = semigroup._sum_closure(clamped, top)
    rows[-1] |= 1 << top[-1]
    return SmallSet._of_rows(_meet_closure(rows, top), top)


def gi_by_points(s, hgens):
    """gi_from_generators with each generator read and clamped per point."""
    gens = points_by_items(hgens, s.dim, "generator")
    if not gens:
        raise ValueError("at least one generator is required")
    corner = reduce(meet, gens) + s.small.top
    return ideals._clamped_sum_ideal(s, rows_by_points(gens, corner), corner, s.small, corner)


def is_minimal_by_points(gens, s):
    """is_minimal_system on a local s of N^2, each point read per item and
    clamped with meet, generation decided by the closure
    (is_minimal_by_closure)."""
    return is_minimal_by_closure(points_by_items(gens, 2, "generator"), s)


def normalize_by_points(small):
    """normalize_conductor with each slab tested by one membership call per
    point: the reference for its slab test by bit-row masks."""
    top = tuple(small.top)
    n = len(top)
    m = list(top)

    def slab_filled(axis):
        # the layer at m[axis] - 1 between m and top on the other axes
        ranges = []
        for j in range(n):
            if j == axis:
                ranges.append((m[axis] - 1,))
            else:
                ranges.append(range(m[j], top[j] + 1))
        return all(map(small.contains, itertools.product(*ranges)))

    changed = True
    while changed:
        changed = False
        for i in range(n):
            while m[i] > 0 and slab_filled(i):
                m[i] -= 1
                changed = True
    if m == list(top):
        return small
    return SmallSet._of_rows(_fold_rows(small.rows, top, m), Point(m))


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
    shuffled orders, by the knapsack membership_in_closure."""
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


def fiber_top(small, axis, value):
    """n = 2: the largest other coordinate of a member of the set small
    reconstructs with `value` on `axis`, read off SmallSet._fiber_tops: inf
    on a ray and past the top, -inf when there is none."""
    return small._fiber_tops[axis][min(value, small.top[axis])] if value >= 0 else -inf


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
