"""The Arf property, Arf closure, and saturation experiments.

A good semigroup S is Arf when b + c - a is a member for all members
a <= b, a <= c (componentwise order).  That is a property of the shifted
tails T_a = {x - a : x in S, x >= a}: S is Arf exactly when every T_a is
closed under sums, since

    b + c - a = a + (b - a) + (c - a)  is in S  iff  (b - a) + (c - a)
    is in T_a, and b - a, c - a range over all of T_a.

Scanning small triples decides it: replacing b or c by its meet with the
conductor leaves the clamped result, and hence membership, unchanged.

The closure in N^2 follows the multiplicity recursion of Barucci, D'Anna
and Fröberg ("Arf characters of an algebroid curve", 2003) and Zito ("Arf
good semigroups", J. Pure Appl. Algebra, 2018), the two dimensional form
of the numerical one (numerical._arf_chain).  For a local set X with
multiplicity vector e, the meet of its nonzero points,

    Arf(X) = {0} u (e + Arf(T_e(X) u {e})),

T_e(X) the shifted tail at e, so the closure descends through the bit rows
of the tails, recording each e.  Once the set is not local, neither is its
closure, and a non local good semigroup of N^2 is the product of its
projections (Barucci, D'Anna and Fröberg, J. Pure Appl. Algebra 147,
2000): the base is the product of the numerical Arf closures of the
projections, exactly: numerical._arf_chain maps the member int of each
axis's values to that of its closure.  The recorded e's are laid back on,
innermost first.
"""

from __future__ import annotations

from functools import reduce
from operator import add, ge, lt, or_, sub

from .lattice import Point, _wrong_dimension
from .numerical import _arf_chain
from .semigroup import (
    GoodSemigroup,
    SmallSet,
    _axis_bits,
    _box_rows,
    _low_bit,
    _product_rows,
    _require_dim2,
    _row_points,
    _row_tuples,
    _rows_local,
    _sum_closure,
    _tail_rows,
    _tail_sum_closed,
    good_semigroup,
)

__all__ = [
    "is_arf",
    "arf_closure",
    "arf_saturation",
]


def is_arf(s: GoodSemigroup) -> bool:
    """Is b + c - a a member for all members a <= b, a <= c?

    Exactly when the shifted tail T_a of every small element a is closed
    under truncated sums (see the module docstring), which the product test
    of T_a's bit rows at top C - a decides (_tail_sum_closed).
    """
    small = s.small
    return all(_tail_sum_closed(small, a) for a in _row_tuples(small.rows, small.top))


def arf_closure(s: GoodSemigroup) -> GoodSemigroup:
    """Smallest Arf good semigroup containing s, by the multiplicity
    recursion (see the module docstring).

    While the rows X over [0, T] are local, e is the first nonempty column
    from 1 on and the lowest bit over the columns from there, and X becomes
    its shifted tail at e (_tail_rows) plus the bit at min(e, T - e).  No
    later step reads bit 0 of the first column, so 0 is not added.  The
    base finishes each axis with the numerical recursion (_arf_chain) on
    the member int of X's nonzero values there (_axis_bits) and every
    value from T_i + 1: an Arf set holding x and x + 1 holds every larger
    integer.  The product rows (_product_rows) then take {0} u (e + ...)
    per recorded e, and the result is validated once.
    """
    _require_dim2(s, "arf_closure")
    rows, top = list(s.small.rows), tuple(s.small.top)
    steps = []
    while _rows_local(rows, top):  # column 0 holds at most bit 0
        x = next(x for x in range(1, len(rows)) if rows[x])
        e = (x, _low_bit(reduce(or_, rows[x:])))
        rows, top = _tail_rows(rows, top, e)
        x, y = map(min, e, top)
        rows[x] |= 1 << y
        steps.append(e)
    xs, ys = (_arf_chain(v & ~1 | -1 << t + 1) for v, t in zip(_axis_bits(rows), top))
    top = ((~xs).bit_length(), (~ys).bit_length())  # their conductors
    rows = _product_rows(xs, ys, top)
    for x, y in reversed(steps):
        rows = [1] + [0] * (x - 1) + [r << y for r in rows]
        top = (top[0] + x, top[1] + y)
    return good_semigroup(SmallSet._of_rows(rows, Point(top)))


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
        raise _wrong_dimension(box, s.dim, "box")
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
