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

Ideals use clamped membership: the clamped closure of G is the meet
closure of X, the clamp of G + S into the corner box, and p is a meet of
points of X exactly when, on every axis i, p lies in R_i(X), the points
below some x of X with x_i = p_i (semigroup._dominance, the masks
_meet_closure ANDs).  X is G with its translates by S minus 0, read off
the box up to the join of the corner and C(S) folded into the corner box.

So one rule (_generators), with no dimension branch, decides each
candidate p of H: p is removable when, on every axis i, p lies in B_i(H),
the candidates below another one in their i-hyperplane (R_i(H) moved down
one step on an axis j != i), or in R_i(T), T the clamp of H* + (S minus 0)
by the row translates of ideal sums (semigroup._translates), H* the
candidates outside every B_i(H).  T may hold p's own translates, as S is
local: its nonzero members are at least 1 on every axis, so they reach
none of p's hyperplanes below the corner, and where p sits on the corner
the corner, which T holds, lies above p (the corner is removable beside
any other candidate).  Translating H* alone loses nothing: a candidate in
every B_i(H) has, on each hyperplane, one of H* above it there, whose
translates dominate its own on that hyperplane.

A local semigroup S is the ideal S minus {0} of S for this rule.  By the
truncated-closure membership lemma, a is in the closure of G when on every
axis i with a_i below the conductor some sum of elements of G has exactly
a_i on axis i and at least a_j elsewhere.  Candidates are positive, so
a sum of two or more on the hyperplane of a is h + y, y a sum of
candidates other than a; once the closure of G is Small(S), such y reach
on each axis what the nonzero members of S reach up to the conductor, so
no knapsack over sums is needed.
"""

from __future__ import annotations

from functools import partial, reduce
from itertools import repeat
from math import prod
from operator import and_, or_

from .errors import NonLocalError, NotAGeneratingSystem
from .lattice import join
from .semigroup import (GoodSemigroup, _box_rows, _checked_points, _dominance, _fold_rows,
                        _prefixes, _row_points, _rows, _translates, is_local)

__all__ = [
    "is_minimal_system",
    "minimal_generating_system",
    "minimal_ideal_generating_system",
]

_NOT_GENERATING = "the closure of the given set does not reproduce the semigroup"


def _lowered(masks, top, j) -> list:
    """The bit rows of [0, top] of X - e_j over the points x of X with
    x_j > 0, X the points of the bit rows masks of [0, top]."""
    if j == len(top) - 1:
        return [r >> 1 for r in masks]
    step = prod(t + 1 for t in top[j + 1 : -1])  # the stride of prefix axis j
    return [masks[k + step] if p[j] < top[j] else 0 for k, p in enumerate(_prefixes(top))]


def _generators(rows, corner, members) -> list:
    """The bit rows of the candidates H, the points of the bit rows `rows`
    of [0, corner], outside the closure of the other candidates, by the
    rule of the module docstring; `members` holds S minus 0 clamped."""
    if sum(map(int.bit_count, rows)) < 2:
        return list(rows)  # the closure of nothing has no point
    below = []  # B_i(H): R_i(H) moved down one step on an axis j != i, met with H
    for i, mask in enumerate(_dominance(rows, corner)):
        lows = (_lowered(mask, corner, j) for j in range(len(corner)) if j != i)
        below.append(list(map(and_, rows, reduce(partial(map, or_), lows, repeat(0)))))
    outer = [r & ~m for r, m in zip(rows, reduce(partial(map, and_), below))]  # H*
    reached = _dominance(_translates(outer, corner, members, corner), corner)
    removable = reduce(partial(map, and_), map(partial(map, or_), reached, below))
    return [r & ~m for r, m in zip(rows, removable)]


def is_minimal_system(gens, s: GoodSemigroup) -> bool:
    """Whether gens is a good generating system of s with no removable element.

    By the uniqueness of the minimal system M (module docstring): the
    points of gens, read by _checked_points and clamped to the conductor by
    their bit rows (_rows), must be small elements of s and include M, or
    NotAGeneratingSystem is raised, and they are minimal exactly when they
    are M.  This holds in every n, as M's rule does: the meet closure
    characterization holds in every n, and a local s has nonzero members
    at least 1 on every axis, so no candidate's own translates land on its
    hyperplanes below the corner.  Raises NonLocalError when s is not local
    (minimal systems are only unique in the local case).
    """
    if not is_local(s):
        raise NonLocalError("minimal generating systems require a local semigroup")
    top = s.small.top
    rows = _rows(_checked_points(gens, s.dim, "generator"), top)
    if any(r & ~m for r, m in zip(rows, s.small.rows)):
        raise NotAGeneratingSystem(_NOT_GENERATING)
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
    rows[0] &= ~1  # the candidates: every small element but 0, which is S minus 0
    return _row_points(_generators(rows, s.small.top, rows), s.small.top)


def minimal_ideal_generating_system(e) -> tuple:
    """The unique minimal generating system of a good relative ideal.

    e provides .ambient (a local GoodSemigroup) and .small; generation means
    the meet closure of gens + ambient, truncated at the ideal conductor,
    equals Small(e).  The system is the points of Small(e) outside the
    clamped closure of the other points, in lexicographic order.
    """
    if not is_local(e.ambient):
        raise NonLocalError("minimal generating systems require a local ambient")
    top, box = e.small.top, join(e.small.top, e.ambient.small.top)
    members = _fold_rows(_box_rows(e.ambient.small, box), box, top)
    members[0] &= ~1  # S minus 0, clamped into [0, C(E)]
    return _row_points(_generators(e.small.rows, top, members), top)
