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


def _clean_generators(gens, top):
    """The nonzero generators as Points, for a target or conductor in N^2."""
    if top.dim != 2:
        raise UnsupportedDimension("closure membership is implemented for n = 2 only")
    out = []
    for g in gens:
        g = Point(g)
        if g.dim != 2:
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
    return _fiber_reach(_clean_generators(gens, target), axis, target)


def _fiber_reach(gens, axis, target) -> bool:
    """monoid_fiber_reach on generators already cleaned."""
    j = 1 - axis
    v, w = target[axis], target[j]
    if v < 0:
        return False
    # best[u] = largest reachable coordinate on the other axis among sums
    # whose axis coordinate is exactly u, capped at w (enough for >= w)
    steps = [(g[axis], g[j]) for g in gens]
    best = [0] + [-1] * v
    for u in range(1, v + 1):
        reach = [best[u - a] + c for a, c in steps if a <= u and best[u - a] >= 0]
        best[u] = min(max(reach), w) if reach else -1
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
    return _closure_member(_clean_generators(gens, d), d, a)


def _closure_member(gens, d, a) -> bool:
    """membership_in_closure on generators already cleaned."""
    if tuple(a) == tuple(d):
        # reached as the truncation of any sufficiently large monoid element
        return bool(gens) or not any(d)
    return all(_fiber_reach(gens, i, a) for i in (0, 1) if a[i] != d[i])


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
    for g in live:
        rest = [h for h in live if h != g]
        if _closure_member(rest, top, g):
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
    current = set(_clean_generators(candidates, top) if candidates else ())
    for a in order:
        rest = [h for h in current if h != a]
        if _closure_member(rest, top, a):
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
