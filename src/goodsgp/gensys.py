"""Minimal good generating systems for local good semigroups and their ideals.

A set G generates S when the closure of G under truncated sums and meets
equals Small(S).  Minimal systems of a local semigroup, and of a good ideal
of one, are unique, so a candidate belongs to the minimal system exactly
when it is not in the closure of all the other candidates: the rule is
applied once per candidate, and no order of elimination can matter.  The
same uniqueness decides generation: a set G, clamped into [0, C(S)],
generates S exactly when G lies in Small(S) and holds the minimal system M
(every generating set holds a minimal one, and that one is M), and it is
minimal exactly when it is M.

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
corner has no such axis and is removable beside any other candidate.  The
rule runs on bit rows, one mask per column x: its removable bits are those
up to B_0(x) (all of them at x = corner_0) that are the bit corner_1 or a
y with B_1(y) >= x, the y bucketed at min(B_1(y), corner_0) and ORed from
the right.

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

from itertools import accumulate
from math import inf
from operator import or_

from .errors import NonLocalError, NotAGeneratingSystem
from .semigroup import (GoodSemigroup, _checked_points, _last_points, _require_dim2,
                        _row_points, _rows, is_local)

__all__ = [
    "is_minimal_system",
    "minimal_generating_system",
    "minimal_ideal_generating_system",
]

_NOT_GENERATING = "the closure of the given set does not reproduce the semigroup"


def _generators(rows, corner, ambient: GoodSemigroup) -> list:
    """The bit rows over [0, corner] of the candidates outside the closure
    of the other candidates, by the one rule of the module docstring; the
    candidates are the points of the bit rows `rows` of [0, corner]."""
    if sum(map(int.bit_count, rows)) < 2:
        return list(rows)  # the closure of nothing has no point
    bounds = []  # per axis i, B_i(u) for u below the corner, then inf at it
    for i, last in enumerate(_last_points(rows, corner)):
        fiber = [ambient.small.fiber_top(i, u) for u in range(corner[i])]
        bound, held = [-inf] * corner[i] + [inf], []
        for u, h in enumerate(last[: corner[i]]):
            if h > -inf:  # held: the a < u that hold a candidate, with H_i(a)
                bound[u] = max([h - 1] + [g + fiber[u - a] for a, g in held])
                held.append((u, h))
        bounds.append(bound)
    buckets = [0] * (corner[0] + 1)  # bucket x: the y with min(B_1(y), corner_0) = x
    for y, b in enumerate(bounds[1]):
        if b >= 0:
            buckets[min(b, corner[0])] |= 1 << y
    above = list(accumulate(reversed(buckets), or_))[::-1]  # index x: the y with B_1(y) >= x
    return [
        r & ~(up & (-1 if b == inf else (1 << max(b + 1, 0)) - 1))
        for r, b, up in zip(rows, bounds[0], above)
    ]


def is_minimal_system(gens, s: GoodSemigroup) -> bool:
    """Whether gens is a good generating system of s with no removable element.

    By the uniqueness of the minimal system M (module docstring): the
    points of gens, read by _checked_points and clamped to the conductor by
    their bit rows (_rows), must be small elements of s and include M, or
    NotAGeneratingSystem is raised, and they are minimal exactly when they
    are M.  Raises NonLocalError when s is not local (minimal systems are
    only unique in the local case), and UnsupportedDimension for n != 2
    once the points are small elements.
    """
    if not is_local(s):
        raise NonLocalError("minimal generating systems require a local semigroup")
    top = s.small.top
    rows = _rows(_checked_points(gens, s.dim, "generator"), top)
    if any(r & ~m for r, m in zip(rows, s.small.rows)):
        raise NotAGeneratingSystem(_NOT_GENERATING)
    _require_dim2(s, "is_minimal_system")
    least = _rows(minimal_generating_system(s), top)
    if any(m & ~r for r, m in zip(rows, least)):
        raise NotAGeneratingSystem(_NOT_GENERATING)
    return rows == least


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
    return _row_points(_generators(rows, s.small.top, s), s.small.top)


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
    return _row_points(_generators(e.small.rows, e.small.top, s), e.small.top)
