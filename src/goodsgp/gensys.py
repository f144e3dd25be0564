"""Minimal good generating systems for local good semigroups and their ideals.

A set G generates S when the closure of G under truncated sums and meets
equals Small(S).  Removability of a single generator reduces, through the
truncated-closure membership lemma, to axis fiber reachability questions
about the plain (untruncated) monoid generated by the rest, which is a small
unbounded-knapsack computation.  Elements of the unique minimal system are
never removable, and everything else always is, so one elimination pass in
any order reaches the same answer.
"""

from __future__ import annotations

from .errors import NonLocalError, NotAGeneratingSystem, UnsupportedDimension
from .ideals import _ideal_closure_member
from .lattice import Point, meet
from .semigroup import GoodSemigroup, closure_small, is_local

__all__ = [
    "monoid_fiber_reach",
    "membership_in_closure",
    "is_minimal_system",
    "minimal_generating_system",
    "minimal_ideal_generating_system",
]


def _clean_generators(gens, dim):
    out = []
    for g in gens:
        g = Point(g)
        if g.dim != dim:
            raise ValueError("generator %r has wrong dimension" % (g,))
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


def monoid_fiber_reach(gens, axis: int, target) -> bool:
    """Can a sum of generators hit target[axis] exactly while reaching at
    least target on the other axis?  n = 2, all generators off the axes."""
    target = Point(target)
    if target.dim != 2:
        raise UnsupportedDimension("fiber reachability is implemented for n = 2 only")
    if axis not in (0, 1):
        raise IndexError("axis %d out of range" % (axis,))
    gens = _clean_generators(gens, 2)
    j = 1 - axis
    v, w = target[axis], target[j]
    if v < 0:
        return False
    # best[u] = largest reachable coordinate on the other axis among sums
    # whose axis coordinate is exactly u, capped at w (enough for >= w)
    best = [-1] * (v + 1)
    best[0] = 0
    for u in range(1, v + 1):
        b = -1
        for g in gens:
            gu = g[axis]
            if gu <= u and best[u - gu] >= 0:
                cand = best[u - gu] + g[j]
                if cand > b:
                    b = cand
        best[u] = min(b, w) if b >= 0 else -1
    return best[v] >= w


def membership_in_closure(gens, conductor, a) -> bool:
    """Whether a lies in the closure of gens truncated at the conductor.

    For a strictly below the conductor on every axis this asks for fiber
    reachability on both axes; axes where a touches the conductor are free.
    """
    d = Point(conductor)
    a = Point(a)
    if a.dim != d.dim:
        raise ValueError("point and conductor dimensions differ")
    if any(x < 0 for x in a) or any(x > t for x, t in zip(a, d)):
        raise ValueError("point %s is outside the conductor box" % (tuple(a),))
    if d.dim != 2:
        raise UnsupportedDimension("closure membership is implemented for n = 2 only")
    cleaned = _clean_generators(gens, 2)
    if tuple(a) == tuple(d):
        # reached as the truncation of any sufficiently large monoid element
        return bool(cleaned) or not any(d)
    return all(
        monoid_fiber_reach(cleaned, i, a) for i in (0, 1) if a[i] != d[i]
    )


def _truncated_candidates(gens, top):
    return sorted(set(meet(Point(g), top) for g in gens))


def is_minimal_system(gens, s: GoodSemigroup) -> bool:
    """Whether gens is a good generating system of s with no removable element.

    Raises NotAGeneratingSystem when the closure of gens does not reproduce
    Small(s), and NonLocalError when s is not local (minimal systems are
    only unique in the local case).
    """
    if not is_local(s):
        raise NonLocalError("minimal generating systems require a local semigroup")
    top = s.small.top
    cands = _truncated_candidates(gens, top)
    if closure_small(cands, top) != s.small:
        raise NotAGeneratingSystem(
            "the closure of the given set does not reproduce the semigroup"
        )
    live = [g for g in cands if any(g)]
    if not live and any(top):
        # only 0 was given; the closure seeds the conductor unconditionally,
        # but nothing here actually produces it
        raise NotAGeneratingSystem(
            "the closure of the given set does not reproduce the semigroup"
        )
    if len(live) < len(cands):
        return False  # contains 0, which is always removable
    for g in live:
        rest = [h for h in live if h != g]
        if membership_in_closure(rest, top, g):
            return False
    return True


def minimal_generating_system(s: GoodSemigroup, order=None) -> tuple:
    """The unique minimal good generating system of a local good semigroup.

    Starts from the nonzero small elements and removes, one at a time, any
    element contained in the truncated closure of the others.  The order
    parameter (a permutation of those candidates) only changes the order of
    the scan, never the result; the default is lexicographic.
    """
    if not is_local(s):
        raise NonLocalError("minimal generating systems require a local semigroup")
    top = s.small.top
    candidates = [p for p in s.small.points if any(p)]
    if order is None:
        order = list(candidates)
    else:
        order = [Point(p) for p in order]
        if sorted(order) != candidates:
            raise ValueError(
                "order must be a permutation of the nonzero small elements"
            )
    current = set(candidates)
    for a in order:
        rest = [h for h in current if h != a]
        if membership_in_closure(rest, top, a):
            current.remove(a)
    return tuple(sorted(current))


def minimal_ideal_generating_system(e) -> tuple:
    """The unique minimal generating system of a good relative ideal.

    e provides .ambient (a local GoodSemigroup) and .small; generation means
    the meet closure of gens + ambient, truncated at the ideal conductor,
    equals Small(e).  Same elimination scheme as for semigroups.
    """
    s = e.ambient
    if not is_local(s):
        raise NonLocalError("minimal generating systems require a local ambient")
    if s.dim != 2:
        raise UnsupportedDimension("ideal generating systems are implemented for n = 2 only")
    top = e.small.top
    candidates = list(e.small.points)
    current = set(candidates)
    for a in candidates:
        rest = [h for h in current if h != a]
        if _ideal_closure_member(s, rest, top, a):
            current.remove(a)
    return tuple(sorted(current))
