"""The Arf property, Arf closure, and saturation experiments.

A good semigroup S is Arf when b + c - a is a member for all members
a <= b, a <= c (componentwise order).  That is a property of the shifted
tails T_a = {x - a : x in S, x >= a}: S is Arf exactly when every T_a is
closed under sums, since

    b + c - a = a + (b - a) + (c - a)  is in S  iff  (b - a) + (c - a)
    is in T_a, and b - a, c - a range over all of T_a.

Scanning small triples decides it: replacing b or c by its meet with the
conductor leaves the clamped result, and hence membership, unchanged.

The closure of a local semigroup is found along a chain of candidates built
from the Arf closures T1, T2 of the coordinate projections.  Level i glues
the first i elements of T1 and T2 pointwise and fills a full product box
from the i-th elements onward.  Levels shrink as i grows and each one that
is a good semigroup is Arf, so the closure is the largest valid level still
containing the input.
"""

from __future__ import annotations

import warnings
from operator import add, ge, lt, sub

from .errors import DimensionMismatch, NotGoodSemigroup
from .lattice import Point
from .numerical import (
    NumericalSemigroup,
    ns_arf_closure,
    ns_element_at,
    ns_is_arf,
)
from .semigroup import (
    GoodSemigroup,
    SmallSet,
    _box_rows,
    _meet_closed_points,
    _require_dim2,
    _row_points,
    _row_tuples,
    _rows,
    _small_subset,
    _sum_closure,
    _tail_sum_closed,
    good_semigroup,
    is_local,
    projection,
)
from .constructions import cartesian

__all__ = [
    "is_arf",
    "build_chain_level",
    "arf_closure",
    "arf_saturation",
    "saturation_infima_closure",
]


def is_arf(s: GoodSemigroup) -> bool:
    """Is b + c - a a member for all members a <= b, a <= c?

    Exactly when the shifted tail T_a of every small element a is closed
    under truncated sums (see the module docstring), which the product test
    of T_a's bit rows at top C - a decides (_tail_sum_closed).
    """
    small = s.small
    return all(_tail_sum_closed(small, a) for a in _row_tuples(small.rows, small.top))


def _chain_level_small(t1: NumericalSemigroup, t2: NumericalSemigroup, i: int) -> SmallSet:
    si = ns_element_at(t1, i)
    ui = ns_element_at(t2, i)
    cc = Point((max(si, t1.conductor), max(ui, t2.conductor)))
    pts = set()
    for k in range(i):
        pts.add(Point((ns_element_at(t1, k), ns_element_at(t2, k))))
    xs = [x for x in range(si, cc[0] + 1) if x in t1]
    ys = [y for y in range(ui, cc[1] + 1) if y in t2]
    pts.update(Point((x, y)) for x in xs for y in ys)
    return SmallSet(tuple(sorted(pts)), cc)


def build_chain_level(t1: NumericalSemigroup, t2: NumericalSemigroup, i: int) -> GoodSemigroup:
    """Level i of the closure chain over two Arf numerical semigroups.

    The first i members of each factor are glued pointwise; above that the
    level is a full product.  Its conductor is the join of the i-th members
    with the factor conductors.  For incompatible member sequences a level
    can fail closure under addition, in which case validation raises.
    """
    if i < 1:
        raise ValueError("chain levels start at 1")
    if not ns_is_arf(t1) or not ns_is_arf(t2):
        raise ValueError("both factors must be Arf")
    return good_semigroup(_chain_level_small(t1, t2, i))


def arf_closure(s: GoodSemigroup) -> GoodSemigroup:
    """Smallest Arf good semigroup containing s.

    Local case: ascend the chain levels over the Arf closures of the
    projections while they still contain s, then validate, backing off a
    level if the top one fails to be a semigroup.  Non local semigroups fall
    back to the product of the projection closures (a warning is issued; the
    product is Arf and contains s but minimality is not guaranteed there).
    """
    _require_dim2(s, "arf_closure")
    t1 = ns_arf_closure(projection(s, 0))
    t2 = ns_arf_closure(projection(s, 1))
    if not is_local(s):
        warnings.warn(
            "arf_closure of a non local semigroup returns the product of the "
            "projection closures, which may not be minimal"
        )
        return cartesian(t1, t2)

    # containment holds at level 1 for local s and fails for good once the
    # glued prefix outgrows the border of s, so the ascent terminates
    level = 1
    while _small_subset(s.small, _chain_level_small(t1, t2, level + 1)):
        level += 1

    while True:
        try:
            return good_semigroup(_chain_level_small(t1, t2, level))
        except NotGoodSemigroup:
            # a level containing s can in principle fail closure under
            # addition; the closure is then the next valid level below
            if level == 1:
                raise
            level -= 1


def arf_saturation(s: GoodSemigroup, box) -> tuple:
    """Fixpoint of b + c - a (a <= b, a <= c) over the members inside [0, box].

    Exact within the box: b + c - a dominates both b and c, so results
    inside the box only ever come from triples inside it.  For one a they
    are a plus the sums of members above a, shifted by -a, that stay in
    box - a: their sum closure (_sum_closure) at box - a + 1 less that
    outer border.  Rounds over every a repeat until nothing is added.
    """
    box = Point(box)
    if box.dim != s.dim:
        raise DimensionMismatch("box %r vs semigroup dimension %d" % (box, s.dim))
    members = set(_row_tuples(_box_rows(s.small, box), box))
    changed = True
    while changed:
        changed = False
        for a in sorted(members):
            bound = tuple(b - x + 1 for b, x in zip(box, a))
            above = [tuple(map(sub, p, a)) for p in members if all(map(ge, p, a))]
            for q in _row_points(_sum_closure(above, bound), bound):
                p = tuple(map(add, q, a))
                if p not in members and all(map(lt, q, bound)):
                    members.add(p)
                    changed = True
    return tuple(sorted(Point(p) for p in members))


def saturation_infima_closure(s: GoodSemigroup, box) -> tuple:
    """Meet closure of the in-box saturation (meets stay inside the box)."""
    box = Point(box)
    return _meet_closed_points(_rows(arf_saturation(s, box), box), box)
