"""Ways to build good semigroups of N^2 from one dimensional data.

Each construction writes the small elements at its top as bit columns: one
int per x in [0, top_0], with bit y set when (x, y) is a member.  With S, E
and K the members of s, e and k*s in [0, top_1], masked from member ints
(see numerical), and mask(y) the bits below y:

* cartesian: column x is S_2 when x is in s_1, else 0.
* duplication: column x holds bit x and E & mask(x) when x is in s, and
  the bits of S above x when x is in e.
* amalgamation: column x holds bit k*x and E & mask(k*x) when x is in s,
  and E with the bits of K from k*x on when x is in E'.
* from_maximal_elements: column x starts as S_2 when x is in s_1; each
  listed a keeps the bits up to a_1 of column a_0 and clears bit a_1 of
  the columns right of a_0.

A precondition is one mask, its lowest bit the least offender.  The
columns then have their conductor normalized defensively and go through
full validation, so a returned object is always a genuine good semigroup.
"""

from __future__ import annotations

from .errors import ConstructionError
from .lattice import Point
from .numerical import (
    NumericalIdeal,
    NumericalSemigroup,
    _low_bit,
    _preimage,
    ideal_preimage_scale,
)
from .semigroup import (
    GoodSemigroup,
    SmallSet,
    _checked_points,
    _product_rows,
    good_semigroup,
    normalize_conductor,
)

__all__ = [
    "duplication",
    "amalgamation",
    "cartesian",
    "from_maximal_elements",
]


def _from_columns(cols, top) -> GoodSemigroup:
    """The good semigroup of the bit columns of [0, top], which hold the
    top and no bit above top_1."""
    small = normalize_conductor(SmallSet._of_rows(cols, Point(top)))
    return good_semigroup(small)


def duplication(s: NumericalSemigroup, e: NumericalIdeal) -> GoodSemigroup:
    """The good semigroup {(a, a) : a in s} joined with e x e, closed under meets.

    Requires e to be an ideal of s contained in s.  A pair (x, y) with x != y
    belongs exactly when min(x, y) is in e and max(x, y) is in s; the
    conductor is (c, c) for c the conductor of e.
    """
    if e.ambient != s:
        raise ConstructionError("the ideal is not an ideal of the given semigroup")
    outside = e._members & ~s._members
    if outside:
        raise ConstructionError("ideal element %d is outside the semigroup" % (_low_bit(outside),))
    c = e.conductor
    S, E = s._members & (2 << c) - 1, e._members & (2 << c) - 1
    cols = []
    for x in range(c + 1):
        col = 0
        if S >> x & 1:  # (x, x), and (x, y) for y < x in e
            col = 1 << x | E & (1 << x) - 1
        if E >> x & 1:  # (x, y) for y > x in s
            col |= S >> x + 1 << x + 1
        cols.append(col)
    return _from_columns(cols, (c, c))


def amalgamation(
    s: NumericalSemigroup, t: NumericalSemigroup, e: NumericalIdeal, k: int
) -> GoodSemigroup:
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
    outside = s._members & ~_preimage(t._members, k)
    if outside:
        raise ConstructionError(
            "%d times %d falls outside the target semigroup" % (k, _low_bit(outside))
        )
    ginv = ideal_preimage_scale(e, k, s)
    t0, t1 = ginv.conductor, e.conductor
    S, G, E = s._members, ginv._members, e._members & (2 << t1) - 1
    n = t1 // k + 1  # the u with k*u <= t1: K has u's bit of S at k*u
    digits = bytearray(b"0") * (t1 + 1)
    digits[::k] = format(S & (1 << n) - 1 | 1 << n, "b")[:0:-1].encode()
    K = int(digits[::-1], 2)
    cols = []
    for x in range(t0 + 1):
        kx, col = k * x, 0
        if S >> x & 1:  # (x, k*x), and (x, y) for y < k*x in e
            col = E & (1 << min(kx, t1 + 1)) - 1 | (1 << kx if kx <= t1 else 0)
        if G >> x & 1:  # E' x e, and (x, k*u) for u >= x in s
            col |= E | K >> kx << kx
        cols.append(col)
    return _from_columns(cols, (t0, t1))


def cartesian(s1: NumericalSemigroup, s2: NumericalSemigroup) -> GoodSemigroup:
    """The product semigroup, with conductor (c1, c2)."""
    top = (s1.conductor, s2.conductor)
    return _from_columns(_product_rows(s1._members, s2._members, top), top)


def from_maximal_elements(
    s1: NumericalSemigroup, s2: NumericalSemigroup, maximals
) -> GoodSemigroup:
    """The largest subset of s1 x s2 admitting the given points as complete
    maximal elements: pairs sharing a coordinate with a listed point and
    strictly exceeding it on the other axis are removed.

    A listed point of the wrong dimension raises DimensionMismatch and one
    with a negative coordinate ValueError, before any point is tested
    against the product; a point of N^2 outside it raises
    ConstructionError.  Whether the survivor set really is a good semigroup
    depends on the list; validation raises NotGoodSemigroup when it is not.
    """
    mpts = _checked_points(maximals, 2, "listed point")
    for a0, a1 in mpts:
        if not s1._members >> a0 & s2._members >> a1 & 1:
            raise ConstructionError("listed point %s is outside the product" % ((a0, a1),))
    if not mpts:
        return cartesian(s1, s2)
    t0 = max(s1.conductor, 1 + max(a[0] for a in mpts))
    t1 = max(s2.conductor, 1 + max(a[1] for a in mpts))
    cols = _product_rows(s1._members, s2._members, (t0, t1))
    for a0, a1 in mpts:
        cols[a0] &= (2 << a1) - 1
        for x in range(a0 + 1, t0 + 1):
            cols[x] &= ~(1 << a1)
    return _from_columns(cols, (t0, t1))
