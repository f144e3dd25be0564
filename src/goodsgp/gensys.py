"""Minimal good generating systems for local good semigroups and their ideals.

A set G generates S when the closure of G under truncated sums and meets
equals Small(S).  Minimal systems of a local semigroup, and of a good ideal
of one, are unique, so a candidate belongs to the minimal system exactly
when it is not in the closure of all the other candidates: the rule is
applied once per candidate, and no order of elimination can matter.

Ideals use clamped membership, which below the corner min(H) + C(S) has a
direct characterization: p belongs exactly when, for every axis i with p_i
below the corner, some generator h admits a member x of S with
x_i = p_i - h_i and x_j >= p_j - h_j elsewhere.  Sufficiency: such
witnesses dominate p, agree with it on their axis, and meet to p inside the
cone of the corner.  Necessity: members are meets of points of H + S, and a
meet realizes each coordinate through one of its arguments.  On the border
the floor test absorbs the clamp.

So one rule (_removable) decides each candidate p, read off the fiber tops
F_i of the ambient (SmallSet.fiber_top): the corner is removable beside any
other candidate, and otherwise p is when on every axis i with p_i below
the corner another candidate lies above p on its fiber (x = 0), or some
candidate h with h_i < p_i has h_j + F_i(p_i - h_i) >= p_j.

A local semigroup S is the ideal S minus {0} of S for this rule.  By the
truncated-closure membership lemma, a is in the closure of G when on every
axis i with a_i below the conductor some sum of elements of G has exactly
a_i on axis i and at least a_j on the other.  Candidates are positive, so
a sum of two or more on the fiber of a is h + y, y a sum of candidates
other than a; once the closure of G is Small(S), such y reach on each axis
what the nonzero members of S reach up to the conductor, so no knapsack
is needed.  membership_in_closure and monoid_fiber_reach keep the knapsack
over sums (_reach) as a public check of the lemma.
"""

from __future__ import annotations

from math import inf

from .errors import (
    DimensionMismatch, NonLocalError, NotAGeneratingSystem, UnsupportedDimension
)
from .lattice import Point, meet
from .semigroup import GoodSemigroup, _row_tuples, closure_small, is_local

__all__ = [
    "monoid_fiber_reach",
    "membership_in_closure",
    "is_minimal_system",
    "minimal_generating_system",
    "minimal_ideal_generating_system",
]


def _clean_generators(gens, top):
    """The nonzero generators as Points, for a target or conductor in N^2."""
    if top.dim != 2:
        raise UnsupportedDimension("closure membership is implemented for n = 2 only")
    out = []
    for g in gens:
        g = Point(g)
        if g.dim != 2:
            raise DimensionMismatch("generator %r has wrong dimension" % (g,))
        if any(x < 0 for x in g):
            raise ValueError("generator %r has a negative coordinate" % (g,))
        if not any(g):
            continue  # 0 generates nothing
        if min(g) == 0:
            raise NonLocalError(
                "generator %s lies on an axis; the ambient is not local" % (tuple(g),)
            )
        out.append(g)
    return out


def _highs(gens, axis) -> dict:
    """Each value the points take on axis mapped to their largest other
    coordinate, the one point of that value that counts."""
    high = {}
    for g in gens:
        if g[1 - axis] > high.get(g[axis], -1):
            high[g[axis]] = g[1 - axis]
    return high


def _reach(gens, axis, last, cap):
    """The reach table of clean generators on one axis: for u in [0, last],
    the largest other-axis coordinate, capped at cap >= 0, of the sums with
    axis coordinate u of any number of generators (the empty sum is 0); -1
    when there is none."""
    high = _highs(gens, axis)
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


def monoid_fiber_reach(gens, axis: int, target) -> bool:
    """Can a sum of generators hit target[axis] exactly while reaching at
    least target on the other axis?  n = 2, all generators off the axes."""
    target = Point(target)
    if target.dim != 2:
        raise UnsupportedDimension("fiber reachability is implemented for n = 2 only")
    if axis not in (0, 1):
        raise IndexError("axis %d out of range" % (axis,))
    gens = _clean_generators(gens, target)
    v, w = target[axis], max(target[1 - axis], 0)
    # the table reads -1 where no sum hits v, so a negative floor must not
    # be compared against it
    return v >= 0 and _reach(gens, axis, v, w)[v] >= w


def membership_in_closure(gens, conductor, a) -> bool:
    """Whether a lies in the closure of gens truncated at the conductor.

    For a strictly below the conductor on every axis this asks for fiber
    reachability on both axes; axes where a touches the conductor are free.
    """
    d = Point(conductor)
    a = Point(a)
    if a.dim != d.dim:
        raise DimensionMismatch("point and conductor dimensions differ")
    if any(x < 0 for x in a) or any(x > t for x, t in zip(a, d)):
        raise ValueError("point %s is outside the conductor box" % (tuple(a),))
    gens = _clean_generators(gens, d)
    if a == d:
        return bool(gens) or not any(d)
    return all(
        _reach(gens, i, d[i] - 1, d[1 - i])[a[i]] >= a[1 - i]
        for i in (0, 1) if a[i] != d[i]
    )


def _removable(cands, corner, ambient: GoodSemigroup) -> list:
    """Per candidate, distinct points of [0, corner], whether it lies in the
    closure of the others, by the one rule of the module docstring."""
    if len(cands) < 2:
        return [False] * len(cands)  # the closure of nothing has no point
    tables = []
    for i in (0, 1):
        high = _highs(cands, i)
        fiber = [ambient.small.fiber_top(i, u) for u in range(corner[i])]
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


def is_minimal_system(gens, s: GoodSemigroup) -> bool:
    """Whether gens is a good generating system of s with no removable element.

    Raises NotAGeneratingSystem when the closure of gens does not reproduce
    Small(s), and NonLocalError when s is not local (minimal systems are
    only unique in the local case).
    """
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
    live = _clean_generators(live, top) if live else live
    return not any(_removable(live, top, s))


def minimal_generating_system(s: GoodSemigroup) -> tuple:
    """The unique minimal good generating system of a local good semigroup:
    the nonzero small elements outside the truncated closure of the other
    nonzero small elements, in lexicographic order."""
    if not is_local(s):
        raise NonLocalError("minimal generating systems require a local semigroup")
    top = s.small.top
    cands = [p for p in s.small.points if any(p)]
    cands = _clean_generators(cands, top) if cands else cands
    return tuple(a for a, out in zip(cands, _removable(cands, top, s)) if not out)


def minimal_ideal_generating_system(e) -> tuple:
    """The unique minimal generating system of a good relative ideal.

    e provides .ambient (a local GoodSemigroup) and .small; generation means
    the meet closure of gens + ambient, truncated at the ideal conductor,
    equals Small(e).  The system is the points of Small(e) outside the
    clamped closure of the other points, in lexicographic order.
    """
    s = e.ambient
    if not is_local(s):
        raise NonLocalError("minimal generating systems require a local ambient")
    if s.dim != 2:
        raise UnsupportedDimension("ideal generating systems are implemented for n = 2 only")
    top = e.small.top
    pts = list(_row_tuples(e.small.rows, top))
    return tuple(Point(p) for p, out in zip(pts, _removable(pts, top, s)) if not out)
