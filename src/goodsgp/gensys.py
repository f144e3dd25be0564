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

So one rule (_generators) decides each candidate p: p is removable when
on every axis i with p_i below the corner another candidate lies above p
on its fiber (x = 0), or some candidate h with h_i < p_i has
h_j + F_i(p_i - h_i) >= p_j, F_i the fiber tops of the ambient
(SmallSet.fiber_top).  Only the last candidate on each fiber counts, so
with H_i the candidates' last points, read by the scan behind F_i
(_last_points), the rule is p_j <= B_i(p_i) on every such axis, where
B_i(u) = max(H_i(u) - 1, max over a < u of H_i(a) + F_i(u - a)).  The
corner has no such axis and is removable beside any other candidate.

A local semigroup S is the ideal S minus {0} of S for this rule.  By the
truncated-closure membership lemma, a is in the closure of G when on every
axis i with a_i below the conductor some sum of elements of G has exactly
a_i on axis i and at least a_j on the other.  Candidates are positive, so
a sum of two or more on the fiber of a is h + y, y a sum of candidates
other than a; once the closure of G is Small(S), such y reach on each axis
what the nonzero members of S reach up to the conductor, so no knapsack
over sums is needed.
"""

from __future__ import annotations

from math import inf

from .errors import NonLocalError, NotAGeneratingSystem
from .lattice import Point, meet
from .semigroup import (
    GoodSemigroup, _last_points, _require_dim2, _row_tuples, _rows, closure_small, is_local,
)

__all__ = [
    "is_minimal_system",
    "minimal_generating_system",
    "minimal_ideal_generating_system",
]


def _generators(rows, corner, ambient: GoodSemigroup) -> list:
    """The points of the bit rows of [0, corner], distinct candidates, that
    lie outside the closure of the other candidates, in lexicographic
    order, by the one rule of the module docstring."""
    pts = list(_row_tuples(rows, corner))
    if len(pts) < 2:
        return pts  # the closure of nothing has no point
    bounds = []  # per axis i, B_i(u) for each u below the corner holding a candidate
    for i, last in enumerate(_last_points(rows, corner)):
        fiber = [ambient.small.fiber_top(i, u) for u in range(corner[i])]
        held = [(u, h) for u, h in enumerate(last) if h > -inf]
        bounds.append({
            u: max([h - 1] + [g + fiber[u - a] for a, g in held if a < u])
            for u, h in held if u < corner[i]
        })
    return [
        p for p in pts
        if not all(p[1 - i] <= b[p[i]] for i, b in enumerate(bounds) if p[i] < corner[i])
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
    if live:
        _require_dim2(s, "is_minimal_system")
    return len(_generators(_rows(live, top), top, s)) == len(live)


def minimal_generating_system(s: GoodSemigroup) -> tuple:
    """The unique minimal good generating system of a local good semigroup:
    the nonzero small elements outside the truncated closure of the other
    nonzero small elements, in lexicographic order."""
    if not is_local(s):
        raise NonLocalError("minimal generating systems require a local semigroup")
    rows = list(s.small.rows)
    rows[0] &= ~1  # the candidates: every small element but 0
    if any(rows):
        _require_dim2(s, "minimal_generating_system")
    return tuple(map(Point, _generators(rows, s.small.top, s)))


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
    _require_dim2(s, "minimal_ideal_generating_system")
    return tuple(map(Point, _generators(e.small.rows, e.small.top, s)))
