"""Good semigroups of N^n represented by their finite set of small elements.

A good semigroup S is determined by its conductor C (least point with
C + N^n inside S) and Small(S) = {a in S : a <= C}.  A point p belongs to S
exactly when min(p, C) is a small element, which is what every membership
test below reduces to.  The semigroup reconstructed from an arbitrary
candidate set X with top element T is

    X, plus the ray a + t*e_j for every a in X with a_j = T_j, plus T + N^n,

and validation checks whether that reconstruction is closed under meets and
sums, has the coordinate witness property, and uses a minimal conductor.

A small set is stored as bit rows (SmallSet.rows): one int per prefix of
the first n - 1 coordinates of [0, C], in itertools.product order, with bit
y set exactly when (prefix, y) is a point; for n = 2, one int per column x.
Its points are derived from the rows when read.  The closures, the row fold
of normalize_conductor, the constructions and the ideal constructors build
rows directly; every check but the witness check for n != 2 reads them, and
every n = 2 invariant reads them or the fiber-top table built from them.
So Points are built only for what a caller lists: the points of a set, the
points an invariant returns, and the witness pair scan for n != 2.
The members of a box, rays and cone included, are read off the rows too
(_box_rows), by the tail, sum, absorption and saturation routines.

Every point list a caller passes is read by _checked_points and clamped
only by _rows, which sets the bits of min(p, top); a single point of the
wrong dimension is reported in the words _checked_points uses
(lattice._wrong_dimension).

* Membership (SmallSet.contains) is one bit of the rows: bit min(p_n, C_n)
  of the row at min(p', C'), primes dropping the last coordinate.
* min(a + b, C) for all b of the row at prefix p is that row shifted up by
  a's last coordinate, every bit at or above C's standing for it, and it
  lands in the row at min(p + a', C').  The sum closure (_sum_closure) and
  the translates of one set by another (_translates) OR these shifts, and
  the sum and absorption checks name their first missing sum by them
  (_first_missing_sum).
* Whether some truncated sum is missing at all is one integer product per
  pair of rows (_some_sum_missing): spread into slots, the product of two
  rows counts, per slot, the pairs of bits summing to it, and its nonzero
  slots must lie in the target row.  The sum and absorption checks run it
  before naming a witness, and the Arf and stability tests
  (_tail_sum_closed) run it alone on the rows of a shifted tail.
* A point p is a meet of points of a set X exactly when, on every axis i,
  some point x >= p of X has x_i = p_i: the meet of those points is p,
  and each argument of a meet lies above it and gives it one coordinate.
  So the meet closure (_meet_closure) ANDs, over the axes i, the masks
  R_i(X) of the points below some x of X with x_i = p_i (_dominance),
  which the minimal generating systems read too: running ORs and maxima
  of the rows back along the prefix axes, one pass in every dimension.
  For n = 2, column x is the union of the columns from x on, below the
  highest bit of column x.  A set is meet closed exactly when its closure
  equals its rows; only when it is not does the meet check pair rows, to
  name the first failing pair.
* For n = 2 the witness check reads, per column, the OR of the columns
  right of it: a point below the column's highest bit fails on axis 0
  when the OR lacks it, and the highest bit, below the top, fails on axis
  1 when the OR holds it.

The checks report the same witnesses, in the same order, as the pair scans
they replace; only the witness pair scan remains, for n != 2.  The zero
check reads bit 0 of the first row, and the conductor check and
normalize_conductor read one mask per bit row of a slab (_slab_full), in
every dimension; normalize_conductor's descent on the last axis ANDs that
slab's rows once and then reads one bit per step.

The n = 2 invariants (maximal elements, the canonical ideal and its
generators) all read one fiber-top table, built from the rows by one
right to left scan (_last_points) and cached on the set
(SmallSet._fiber_tops), instead of listing the points.  The projections
read each axis's values off the rows as one int (_axis_bits).
Validation reads no table, so validated data keeps only its rows.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, partial, reduce
from math import inf, prod
from operator import add, and_, itemgetter, le, lt, mul, or_, sub

from .errors import NotGoodSemigroup, UnsupportedDimension
from .lattice import Point, _wrong_dimension
from .numerical import _BIT_BYTES, NumericalSemigroup, _int_of, _low_bit

__all__ = [
    "SmallSet",
    "small_set",
    "GoodSemigroup",
    "good_semigroup",
    "Violation",
    "ValidationReport",
    "closure_small",
    "normalize_conductor",
    "validate_small_set",
    "gs_from_generators",
    "gs_contains",
    "is_local",
    "maximal_elements",
    "projection",
]


@dataclass(frozen=True, init=False)
class SmallSet:
    """A finite candidate set of small elements with its top element.

    Stored as its bit rows and top: rows holds, per prefix p of the first
    n - 1 coordinates of [0, top], in itertools.product order, the int with
    bit y set exactly when (p, y) is a point; for n = 2, one int per x in
    [0, top_0].  Equality and hashing read the rows and top.  points, the
    sorted tuple of Points, is derived from the rows on first read.

    SmallSet(points, top) reads the points by _checked_points and checks
    the type level invariants: points are strictly increasing (so
    deduplicated and lexicographically sorted), within [0, top], and top
    itself is present.  Whether the set actually describes a good semigroup
    (or a good ideal) is decided by the validators, not here.
    """

    rows: tuple
    top: Point

    def __init__(self, points, top):
        points = _checked_points(points, top.dim, "point")
        if not points:
            raise ValueError("empty point set")
        keys = list(map(tuple, points))
        for p in keys:
            if any(x > t for x, t in zip(p, top)):
                raise ValueError("point %s exceeds the top %s" % (p, tuple(top)))
        if not all(map(lt, keys, keys[1:])):
            raise ValueError("points are not strictly increasing")
        if keys[-1] != top:
            raise ValueError("top %s is not in the point set" % (tuple(top),))
        object.__setattr__(self, "rows", tuple(_rows(points, top)))
        object.__setattr__(self, "top", top)

    @classmethod
    def _of_rows(cls, rows, top) -> SmallSet:
        """The set with the given bit rows of [0, top], a Point; the rows
        must hold the top and no bit outside the box (not checked)."""
        small = object.__new__(cls)
        object.__setattr__(small, "rows", tuple(rows))
        object.__setattr__(small, "top", top)
        return small

    @cached_property
    def points(self) -> tuple:
        """The points, strictly increasing, as Points."""
        return _row_points(self.rows, self.top)

    @cached_property
    def _fiber_tops(self) -> tuple:
        """n = 2: the last points (_last_points) with inf where the last
        point lies on the top of the other axis and so starts a ray."""
        cols = _last_points(self.rows, self.top)
        return tuple(tuple(inf if v == t else v for v in c) for c, t in zip(cols, self.top[::-1]))

    @property
    def dim(self) -> int:
        return self.top.dim

    def contains(self, p) -> bool:
        """Membership in the reconstructed semigroup, not just the finite
        set: one bit of the rows, at p clamped to the top."""
        top = self.top
        if len(p) != len(top):
            raise _wrong_dimension(p, len(top))
        if any(x < 0 for x in p):
            return False
        *head, y = map(min, p, top)
        i = 0
        for x, t in zip(head, top):  # the row index, in row-major order
            i = i * (t + 1) + x
        return self.rows[i] >> y & 1 == 1


def small_set(points, top=None) -> SmallSet:
    """Normalize raw point data into a SmallSet.

    Points may come in any order and repeat.  With top omitted, the
    componentwise maximum of the points is used; it must itself be one of
    the points.  Data that passes _int_axes within the top has its bits set
    in one pass over the axes _int_axes built (_axis_rows), each axis's
    maximum taken once, and the top's bit is read back.  Other data, and
    data failing a check, goes through SmallSet as sorted Points, which
    names the first offender.
    """
    pts = list(points)
    n = len(pts[0]) if pts and type(pts[0]) in _SEQUENCES else 0
    axes = _int_axes(pts, n)
    if axes:
        highs = list(map(max, axes))
        box = Point(highs if top is None else top)
        if len(box) == n and all(map(le, highs, box)):
            rows = _axis_rows(axes, box)
            if rows[-1] >> box[-1] & 1:
                return SmallSet._of_rows(rows, box)
    pts = sorted(set(map(Point, pts)))
    if not pts:
        raise ValueError("empty point set")
    return SmallSet(pts, Point(map(max, zip(*pts)) if top is None else top))


@dataclass(frozen=True)
class Violation:
    axiom: str
    witness: tuple
    axis: int | None
    detail: str

    def __str__(self):
        pts = ", ".join(str(tuple(p)) for p in self.witness)
        where = "" if self.axis is None else " (axis %d)" % (self.axis,)
        return "%s%s: %s [%s]" % (self.axiom, where, self.detail, pts)


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple

    def __str__(self):
        if self.ok:
            return "valid"
        return "; ".join(str(v) for v in self.violations)


@dataclass(frozen=True)
class GoodSemigroup:
    """A validated good semigroup of N^n."""

    small: SmallSet

    @property
    def conductor(self) -> Point:
        return self.small.top

    @property
    def dim(self) -> int:
        return self.small.dim

    def __contains__(self, p):
        return gs_contains(self, p)


_SEQUENCES = {list, tuple, Point}  # the point types read by axis (_int_axes)
_head = itemgetter(slice(-1))  # a point's prefix: all but its last coordinate


def _int_axes(pts, n):
    """The axes (zip) of pts when they are lists, tuples or Points of n int
    coordinates each, none negative, else None; tested by maps."""
    if set(map(type, pts)) <= _SEQUENCES and set(map(len, pts)) <= {n}:
        axes = list(zip(*pts))
        if set(map(type, itertools.chain(*axes))) <= {int} and min(map(min, axes), default=0) >= 0:
            return axes
    return None


def _checked_points(points, n, noun) -> list:
    """The points of N^n in points, as a list in the order received: as
    they are when they pass _int_axes, else converted by Point one at a
    time, the first offender named: DimensionMismatch for a wrong
    dimension, ValueError for a negative coordinate."""
    pts = list(points)
    if _int_axes(pts, n) is not None:
        return pts
    out = []
    for p in map(Point, pts):
        if len(p) != n:
            raise _wrong_dimension(p, n, noun)
        if min(p) < 0:
            raise ValueError("%s %s has a negative coordinate" % (noun, tuple(p)))
        out.append(p)
    return out


def _prefixes(top):
    """The prefixes of [0, top], one per bit row, in itertools.product order."""
    return itertools.product(*(range(t + 1) for t in top[:-1]))


def _strides(sides) -> list:
    """Row-major strides of a box with the given side lengths."""
    return [prod(sides[j + 1 :]) for j in range(len(sides))]


def _rows(points, top) -> list:
    """The bit rows of min(p, top) over the points p, in any order (see
    SmallSet.rows): an axis of zip(*points) past top's is clamped, then
    _axis_rows sets the bits."""
    return _axis_rows([a if max(a) <= t else map(min, a, itertools.repeat(t))
                       for a, t in zip(zip(*points), top)], top)


def _axis_rows(axes, top) -> list:
    """The bit rows of [0, top] of the points whose coordinates on axis j
    are axes[j], none past top's: the row index of a point is its last
    prefix coordinate plus the others times their strides, summed axis by
    axis, and one pass sets the bits."""
    sides = [max(t + 1, 0) for t in top[:-1]]
    rows = [0] * prod(sides)
    if axes:
        *heads, last = axes
        index = heads.pop() if heads else itertools.repeat(0)  # the last stride is 1
        for a, s in zip(heads, _strides(sides)):
            index = map(add, index, map(mul, a, itertools.repeat(s)))
        for i, y in zip(index, last):
            rows[i] |= 1 << y
    return rows


def _box_rows(small: SmallSet, bound, low=None) -> list:
    """The bit rows, over [0, bound], of the members of the set small
    reconstructs inside the box [low, bound], low 0 when omitted (any
    integer point).

    The row at prefix q is small's row at min(q, top'), its top bit
    extended over [top_n, bound_n] (the ray along the last axis) and
    masked to [low_n, bound_n]; prefixes below low' are empty.
    """
    *head, last = small.top
    low = low or (0,) * len(bound)
    bits = (1 << max(bound[-1] + 1, 0)) - 1
    ray = bits >> last << last
    floor = max(low[-1], 0)
    mask = bits >> floor << floor
    rows = [(r | ray if r >> last & 1 else r) & mask for r in small.rows]
    rows.append(0)  # the row of every prefix below low'
    size = len(rows) - 1
    offsets = [
        [size if x < lo else min(x, t) * s for x in range(b + 1)]
        for t, s, lo, b in zip(head, _strides([t + 1 for t in head]), low, bound)
    ]
    return [rows[min(sum(o), size)] for o in itertools.product(*offsets)]


def _fold_rows(rows, top, m) -> list:
    """The bit rows of [0, m] of min(p, m) over the points p of the bit
    rows of [0, top], m <= top: the row at prefix p is ORed into the row at
    min(p, m'), and its bits above m's last coordinate onto that bit."""
    strides = _strides([t + 1 for t in m[:-1]])
    out = [0] * prod(t + 1 for t in m[:-1])
    for p, r in zip(_prefixes(top), rows):
        out[sum(map(mul, map(min, p, m), strides))] |= r
    last = m[-1]
    below = (1 << last) - 1
    return [r & below | 1 << last if r > below else r for r in out]


def _row_tuples(rows, top):
    """The points of the bit rows of [0, top] as plain tuples, in
    lexicographic order: per row, its set bits from the lowest up."""
    for p, r in zip(_prefixes(top), rows):
        while r:
            low = r & -r
            yield p + (low.bit_length() - 1,)
            r ^= low


def _last_points(rows, top) -> tuple:
    """n = 2: per axis i and u in [0, top_i], the other coordinate of the
    last (highest) point of the bit rows of [0, top] with u on axis i, -inf
    for none."""
    cols = [r.bit_length() - 1 if r else -inf for r in rows], [-inf] * (top[1] + 1)
    seen = 0
    for x in range(top[0], -1, -1):  # a bit first seen from the right is its last point
        new = rows[x] & ~seen
        seen |= new
        while new:
            cols[1][_low_bit(new)] = x
            new &= new - 1
    return cols


def _row_points(rows, top) -> tuple:
    """The points of the bit rows of [0, top], in lexicographic order."""
    return tuple(map(Point, _row_tuples(rows, top)))


def _padding(top):
    """Targets of the translates of the bit rows of [0, top]: the row at
    min(p + a', top') that a sends the row at p to sits in the padded prefix
    box, whose axis j runs to 2 top_j, at o(p) + o(a), where o(a) is
    sum(map(mul, map(min, a, top), strides)).  Returns the padded strides,
    o(p) per row, and per padded entry the index of the row it stands for;
    both tables are sums over the product of one list per axis.
    """
    heads = top[:-1]
    strides = _strides([2 * t + 1 for t in heads])
    row_strides = _strides([t + 1 for t in heads])
    offsets = itertools.product(*(range(0, t * s + 1, s) for t, s in zip(heads, strides)))
    clamp = itertools.product(
        *([min(u, t) * s for u in range(2 * t + 1)] for t, s in zip(heads, row_strides)))
    return strides, list(map(sum, offsets)), list(map(sum, clamp))


def _sum_closure(gens, top) -> list:
    """The bit rows of the least set inside [0, top] holding 0 and closed
    under min(p + g, top) for every g of gens, points of [0, top].

    One sweep per generator g ORs each row, in increasing order and shifted
    up by g's last coordinate with the bits past top's folded into its top
    bit, into its target row (_padding).  Targets never precede their
    source, so the sweep closes the set under adding g (a row that is its
    own target repeats until it stops growing), and later sweeps keep that.
    Generators go by coordinate sum, and one already present, a sum of
    earlier ones, is skipped.
    """
    last = top[-1]
    below = (1 << last) - 1
    strides, offsets, clamp = _padding(top)
    rows = [1] + [0] * (len(offsets) - 1)
    for g in sorted(gens, key=sum):
        into, shift = clamp[sum(map(mul, g, strides)) :], g[-1]
        if rows[into[0]] >> shift & 1:  # into[0] is g's own row
            continue
        for i, o in enumerate(offsets):
            r = 0
            while rows[i] != r:
                r = rows[i]
                v = r << shift
                rows[into[o]] |= v & below | 1 << last if v > below else v
    return rows


def _translates(rows, top, box, corner) -> list:
    """The bit rows of [0, corner] of min(p + q, corner) over the points p
    of the bit rows `rows` of [0, top], top <= corner, rays p + N e_i where
    p_i = top_i included, and q of the bit rows `box` of [0, corner].

    Per row of `rows` at prefix p, the rows of box are ORed into groups by
    target row, min(p + q', corner') (_padding), and each bit y ORs every
    group, shifted up by y and folded at corner_n, into its target.  A ray
    along the last axis fills each shifted group from its lowest bit up;
    the translates of a p at the top on a set A of prefix axes go to an
    array of their own, ORed along each axis of A at the end.
    """
    below, last = (1 << corner[-1]) - 1, 1 << corner[-1]
    strides, offsets, clamp = _padding(corner)
    box = [(o, g) for o, g in zip(offsets, box) if g]
    outs = {(): [0] * len(offsets)}  # the translates, per set of prefix axes with rays
    for p, r in filter(itemgetter(1), zip(_prefixes(top), rows)):  # the nonempty rows
        into, groups = clamp[sum(map(mul, p, strides)) :], {}
        for o, g in box:
            groups[into[o]] = groups.get(into[o], 0) | g
        rays = tuple(j for j, x in enumerate(p) if x == top[j])
        out = outs.setdefault(rays, [0] * len(offsets))
        while r:
            y = _low_bit(r)
            r &= r - 1
            if y == top[-1]:  # the ray along the last axis: every bit from the lowest on
                for i, g in groups.items():
                    out[i] |= -(g & -g) << y & below | last
                continue
            for i, g in groups.items():
                v = g << y
                out[i] |= v & below | last if v > below else v
    steps = _strides([t + 1 for t in corner[:-1]])
    for rays, out in outs.items():
        for j in rays:  # the rays along prefix axis j: a running OR along it
            for i, q in enumerate(_prefixes(corner)):
                if q[j]:
                    out[i] |= out[i - steps[j]]
    return [reduce(or_, col) for col in zip(*outs.values())]


def _run_back(table, sides, axis, op):
    """Fold op, in place, over each line along axis of a row-major table of
    the box with the given side lengths, from the line's end back: each
    entry becomes op of the entries from it to that end."""
    step = prod(sides[axis + 1 :])
    block = step * sides[axis]
    for start in range(0, len(table), block):
        for first in range(start, start + step):
            line = slice(first, start + block, step)
            table[line] = list(itertools.accumulate(reversed(table[line]), op))[::-1]


def _dominance(rows, top) -> list:
    """Per axis i, the bit rows of [0, top] of R_i(X), the points p below
    some x of X with x_i = p_i, X the points of the bit rows (see the module
    docstring): for the last axis, the OR of the rows at prefixes q' >= p',
    a running OR back along every prefix axis; for a prefix axis i, the
    bits up to the highest one of the rows at q' >= p' with q_i = p_i, a
    running max back along every prefix axis but i.  For n = 1, X itself."""
    sides = [t + 1 for t in top[:-1]]
    masks = []
    for i in range(len(sides)):
        high = list(map(int.bit_length, rows))
        for j in range(len(sides)):
            if j != i:
                _run_back(high, sides, j, max)
        masks.append([(1 << h) - 1 for h in high])
    out = list(rows)
    for i in range(len(sides)):
        _run_back(out, sides, i, or_)
    return masks + [out]


def _meet_closure(rows, top) -> list:
    """The bit rows of the closure of the bit rows of [0, top] under
    componentwise minima, in one pass (see the module docstring): the AND,
    over the axes, of the dominance masks (_dominance)."""
    return list(reduce(partial(map, and_), _dominance(rows, top)))


def closure_small(gens, conductor) -> SmallSet:
    """Truncated closure of the generators under sums and meets.

    The least set holding {0, C} and the generators clamped by their bit
    rows (_rows) and closed under min(a + b, C) and min(a, b).  Truncated
    sums distribute over meets, so it is the meet closure (_meet_closure)
    of the sum closure (_sum_closure) of the clamped generators read back
    off those rows.  The result is the small element candidate set of the
    least good semigroup containing the generators when one exists;
    validation decides that separately.
    """
    top = Point(conductor)
    if any(t < 0 for t in top):
        raise ValueError("conductor must be in N^n")
    clamped = _rows(_checked_points(gens, top.dim, "generator"), top)
    rows = _sum_closure(_row_tuples(clamped, top), top)
    rows[-1] |= 1 << top[-1]
    return SmallSet._of_rows(_meet_closure(rows, top), top)


def _slab_rows(rows, top, m, axis):
    """The bit rows of [0, top] at the prefixes of the slab {p_axis =
    m_axis - 1, m_j <= p_j <= top_j elsewhere}, m <= top and m_axis > 0; for
    the last axis, every row at a prefix from m' to top'."""
    head = top[:-1]
    ranges = [range(lo, t + 1) for lo, t in zip(m, head)]
    if axis < len(head):
        ranges[axis] = (m[axis] - 1,)
    strides = _strides([t + 1 for t in head])
    return (rows[sum(map(mul, q, strides))] for q in itertools.product(*ranges))


def _slab_full(rows, top, m, axis) -> bool:
    """Whether the bit rows of [0, top] hold the slab at m on axis (see
    _slab_rows): per bit row of the slab, one mask test of bits m_n to
    top_n, or of bit m_n - 1 when axis is the last."""
    if axis < len(top) - 1:
        mask = (1 << top[-1] + 1) - (1 << m[-1])
    else:
        mask = 1 << m[-1] - 1
    return all(r & mask == mask for r in _slab_rows(rows, top, m, axis))


def normalize_conductor(small: SmallSet) -> SmallSet:
    """Lower the top as far as the filled corner box allows, then re-truncate.

    A candidate conductor m is usable when every lattice point of [m, top] is
    present.  For meet closed sets the usable region is itself a box, so
    per axis descent finds its minimum: m_i drops while the slab at
    m_i - 1 between m and top on the other axes is full (_slab_full).  The
    slab rows of the last axis do not move while it descends, so their AND
    is taken once per descent and each step tests one bit of it.
    Points are then replaced by their meets with the new top, a fold of the
    bit rows (_fold_rows).
    """
    rows, top = small.rows, tuple(small.top)
    m = list(top)
    changed = True
    while changed:
        changed = False
        for i in range(len(m) - 1):
            while m[i] > 0 and _slab_full(rows, top, m, i):
                m[i] -= 1
                changed = True
        slab = reduce(and_, _slab_rows(rows, top, m, len(m) - 1))
        while m[-1] > 0 and slab >> m[-1] - 1 & 1:
            m[-1] -= 1
            changed = True
    if m == list(top):
        return small
    return SmallSet._of_rows(_fold_rows(rows, top, m), Point(m))


def _witness_search(point_set, top, exact, floor, axis, strict_above):
    """Is there x in the point set with x[axis] > strict_above (or x[axis] at
    the top, where the outgoing ray supplies arbitrarily large values), exact
    coordinates on `exact` axes and at least `floor` elsewhere?"""
    for x in point_set:
        ok = True
        for j, v in exact:
            if x[j] != v:
                ok = False
                break
        if not ok:
            continue
        for j, v in floor:
            if x[j] < v:
                ok = False
                break
        if not ok:
            continue
        if x[axis] > strict_above or x[axis] == top[axis]:
            return True
    return False


def _witness_violation(a, b, i) -> Violation:
    return Violation(
        "witness",
        (a, b),
        i,
        "members share coordinate %d but no member exceeds them there above "
        "their meet" % (i,),
    )


def _coordinate_witness_violations(small: SmallSet, stop_after_first=True):
    """Violations of the shared coordinate axiom.

    For distinct members a, b with a_i = b_i there must be a member c with
    c_i strictly larger, c_j = min(a_j, b_j) on axes where a_j != b_j, and
    c_j >= min(a_j, b_j) elsewhere.  Pairs with a = b are always satisfied
    by the conductor ray, so only distinct pairs are scanned.  For n = 2 the
    condition collapses to a test per point: a point a below the top of its
    axis-i fiber needs a member x with x_j = a_j and x_i > a_i, and the
    witness is a with the next point above it.  Per column x, with R the OR
    of the columns right of it (column top_0 itself for x = top_0, its ray),
    the points failing on axis 0 are the column's bits below its highest
    that R lacks, and the one failing on axis 1 is its highest bit, when it
    is below top_1 and R holds it.
    """
    if small.dim != 2:
        return _witness_pair_scan(small, stop_after_first)
    rows, last = small.rows, small.top[1]
    right = list(itertools.accumulate(reversed(rows), or_))[-2::-1] + [rows[-1]]
    out = []
    for x, (r, run) in enumerate(zip(rows, right)):
        if not r:
            continue
        high = r.bit_length() - 1
        on0 = r & ~run & ((1 << high) - 1)
        bad = on0 | (1 << high if high < last and run >> high & 1 else 0)
        while bad:
            a = (x, _low_bit(bad))
            bad &= bad - 1
            i = 0 if on0 >> a[1] & 1 else 1
            out.append(_witness_violation(Point(a), _fiber_mate(rows, a, i), i))
            if stop_after_first:
                return out
    return out


def _fiber_mate(rows, a, i) -> Point:
    """n = 2: the least point b of the bit rows after a with b_i = a_i, in
    lexicographic order: up column a_0 for i = 0, right along row a_1 for
    i = 1."""
    x, y = a
    if i == 0:
        return Point((x, _low_bit(rows[x] >> y + 1 << y + 1)))
    return Point((next(u for u in range(x + 1, len(rows)) if rows[u] >> y & 1), y))


def _witness_pair_scan(small: SmallSet, stop_after_first=True) -> list:
    """_coordinate_witness_violations by the scan over all pairs of points."""
    point_list = list(small.points)
    top = tuple(small.top)
    n = len(top)
    out = []
    for ai, a in enumerate(point_list):
        for b in point_list[ai + 1 :]:
            for i in range(n):
                if a[i] != b[i]:
                    continue
                exact = []
                floor = []
                for j in range(n):
                    if j == i:
                        continue
                    mj = min(a[j], b[j])
                    if a[j] != b[j]:
                        exact.append((j, mj))
                    else:
                        floor.append((j, mj))
                if not _witness_search(point_list, top, exact, floor, i, a[i]):
                    out.append(_witness_violation(a, b, i))
                    if stop_after_first:
                        return out
    return out


def _meet_violation(a, b) -> Violation:
    return Violation("meet", (a, b), None, "componentwise minimum is missing")


def _failing(a, b, t) -> int:
    """The bits x of row a whose minimum with some bit y of row b is missing
    from row t: x itself, when x is missing from t and at most b's highest
    bit, and the lowest bit y of b missing from t, when x lies above it."""
    miss = b & ~t
    return a & (~t & ((1 << b.bit_length()) - 1) | -((miss & -miss) << 1))


def _meet_violations(small: SmallSet) -> list:
    """The first pair of points whose componentwise minimum is missing, in
    the order of the scan over all ordered pairs of points.

    The set is meet closed exactly when its meet closure (_meet_closure)
    equals its rows.  Otherwise the scan reports the lexicographically
    first failing a, then its first failing partner b.  A missing minimum
    of points at prefixes p and q is a point of the closure, in the row at
    the meet of p and q, so that row gained bits, and p lies at or above a
    gained prefix.  So the rows before the first gained prefix are skipped,
    and a row is tested only against the partner rows whose meet row with
    it gained bits, by one mask (_failing): a is the lowest failing bit of
    the first row that has one, and b the lowest bit failing against a of
    the first row that has one.
    """
    rows, top = small.rows, small.top
    closed = _meet_closure(rows, top)
    if tuple(closed) == rows:
        return []
    strides = _strides([t + 1 for t in top[:-1]])
    first = next(p for p, c, r in zip(_prefixes(top), closed, rows) if c != r)
    full = [(q, b) for q, b in zip(_prefixes(top), rows) if b]
    for p, a in full:
        if p < first:
            continue  # no prefix at or below p gained bits
        meets = [(q, b, sum(map(mul, map(min, p, q), strides))) for q, b in full]
        bad = 0
        for _, b, t in meets:
            if closed[t] != rows[t]:
                bad |= _failing(a, b, rows[t])
        if bad:
            x = _low_bit(bad)
            for q, b, t in meets:
                miss = _failing(b, 1 << x, rows[t])
                if miss:
                    return [_meet_violation(Point(p + (x,)), Point(q + (_low_bit(miss),)))]
    raise AssertionError("the meet closure gained bits but no row pair fails")


def _some_sum_missing(rows, top, addend_rows=None) -> bool:
    """Is min(a + b, top) missing from the bit rows of [0, top] for a point
    b of them and a point a of addend_rows, bit rows of [0, top] too (the
    rows themselves when omitted)?

    The last coordinates of the sums of the row at prefix p and the row at
    prefix q are the support of the product of the two rows read as
    polynomials, and they land in the row at min(p + q, top') (_padding).
    Spread into k-bit slots, one integer product per pair of rows counts,
    per slot, the pairs of bits that sum to it (Kronecker substitution).
    The slots are whole bytes, the fewest with top_n + 1 <= 2^(k - 1): a
    count is at most top_n + 1, so no slot carries, and adding 2^(k - 1) - 1
    to every slot sets its high bit exactly when the count is nonzero.  A
    row is spread by writing its binary digits as bytes, so no table is
    built or kept.  A sum is missing when such a bit meets the target row's
    missing mask: the slots below top_n where the row lacks the bit, and
    every slot from top_n to 2 top_n when it lacks bit top_n.  The sums with
    a union of rows are the union of the sums, so the partner rows of one
    addend row that share a target row are ORed into one factor: one
    product per addend row and target row.  The pairs of the rows with
    themselves go unordered, as both their sums and their targets are
    symmetric.
    """
    last = top[-1]
    size = ((last + 1).bit_length() + 8) // 8  # bytes per slot
    k = 8 * size

    def spread(r):  # bit i of r to bit k i: its binary digits as bytes
        digits = format(r, "b").encode().translate(_BIT_BYTES)
        if size > 1:
            digits, bits = bytearray(len(digits) * size), digits
            digits[size - 1 :: size] = bits
        return int.from_bytes(digits, "big")

    ones = ((1 << k * (2 * last + 1)) - 1) // ((1 << k) - 1)  # 1 in every slot of a product
    low = ones & ((1 << k * last) - 1)
    high = ones ^ low
    bias = ones * ((1 << k - 1) - 1)  # sets a slot's high bit when its count is nonzero
    _, offsets, clamp = _padding(top)
    spreads = [spread(r) for r in rows]
    missing = [(low & ~v | (0 if r >> last & 1 else high)) << k - 1 for r, v in zip(rows, spreads)]
    cols = [(o, v) for o, v in zip(offsets, spreads) if v]
    if addend_rows is None:
        pairs = ((cols[i], cols[i:]) for i in range(len(cols)))
    else:
        pairs = (((o, spread(r)), cols) for o, r in zip(offsets, addend_rows) if r)
    for (o, a), partners in pairs:
        into, factors = clamp[o:], {}
        for o2, b in partners:  # partners sharing a target row share a product
            t = into[o2]
            factors[t] = factors.get(t, 0) | b
        for t, b in factors.items():
            m = missing[t]
            if m and (a * b + bias) & m:
                return True
    return False


def _first_missing_sum(rows, top, addends, addend_rows=None):
    """The first a of addends, then the first point b of the bit rows of
    [0, top], such that min(a + b, top) is not a point, as (a, b); None
    when there is none.  addend_rows are the bit rows of [0, top] of the
    addends clamped to top; omitted, the addends are the points of rows.

    The product test (_some_sum_missing) decides whether there is such a
    pair; only then does the ordered scan name the first.  The row at
    prefix p, shifted up by a's last coordinate, must lie in the row at
    min(p + a', top') (_padding).  A shifted bit at or above top's last
    coordinate stands for it, so a target row counts every bit from there
    on as missing when it lacks that top bit, and none of them otherwise;
    then b's last coordinate is the lowest missing bit minus a's whether or
    not its sum was clamped.
    """
    if not _some_sum_missing(rows, top, addend_rows):
        return None
    last = top[-1]
    below = (1 << last) - 1
    strides, offsets, clamp = _padding(top)
    missing = [~r & below if r >> last & 1 else ~r for r in rows]
    missing = [missing[i] for i in clamp]
    cols = [(o, r) for o, r in zip(offsets, rows) if r]
    # addends sharing a prefix share their target rows
    for head, group in itertools.groupby(addends, _head):
        into = missing[sum(map(mul, map(min, head, top), strides)) :]
        for a in group:
            shift = a[-1]
            for o, r in cols:
                miss = r << shift & into[o]
                if miss:
                    p = next(p for p, q in zip(_prefixes(top), offsets) if q == o)
                    return a, Point(p + (_low_bit(miss) - shift,))
    return None


def _sum_violation(a, b) -> Violation:
    return Violation("sum", (a, b), None, "truncated sum is missing")


def _sum_violations(small: SmallSet) -> list:
    """The first pair of points whose truncated sum is missing."""
    pair = _first_missing_sum(small.rows, small.top, _row_tuples(small.rows, small.top))
    return [] if pair is None else [_sum_violation(Point(pair[0]), pair[1])]


def _tail_rows(rows, top, a):
    """The bit rows of the shifted tail {x - a : x a point, x >= a} of the
    bit rows of [0, top], a a point of [0, top], and its top, top - a, as
    (rows, top): its row at prefix q is the row at q + a' shifted down by
    a's last coordinate."""
    strides = _strides([t + 1 for t in top[:-1]])
    tail_top = tuple(map(sub, top, a))
    tail = [rows[sum(map(mul, map(add, q, a), strides))] >> a[-1] for q in _prefixes(tail_top)]
    return tail, tail_top


def _tail_sum_closed(small: SmallSet, a) -> bool:
    """Is the shifted tail T = {x - a : x in small, x >= a}, a a point of
    [0, top], closed under truncated sums at its top, top - a?

    The truncation is exact, as min(y, top - a) + a = min(y + a, top), so T
    is closed exactly when b + c - a is a member for all members b, c >= a.
    The product test (_some_sum_missing) on T's bit rows (_tail_rows)
    decides it.
    """
    return not _some_sum_missing(*_tail_rows(small.rows, small.top, a))


def _conductor_violations(small: SmallSet) -> list:
    """One violation per axis on which the top can be lowered by one step:
    the slab at m = top (_slab_full) is the single point top - e_i."""
    top = tuple(small.top)
    return [
        Violation("conductor", (Point(top[:i] + (t - 1,) + top[i + 1 :]),), i,
                  "conductor is not minimal: it can be lowered on this axis")
        for i, t in enumerate(top) if t and _slab_full(small.rows, top, top, i)
    ]


def validate_small_set(small: SmallSet) -> ValidationReport:
    """Check the good semigroup axioms on a candidate small set.

    Reports at most one witness per violated axiom, and one per axis on
    which the top can be lowered: presence of 0, meet closure, closure
    under (truncated) addition, the shared coordinate witness property,
    and minimality of the conductor.
    """
    violations = []
    if not small.rows[0] & 1:  # bit 0 of the row at prefix 0
        violations.append(Violation("zero", (), None, "0 is not a member"))
    violations.extend(_meet_violations(small))
    violations.extend(_sum_violations(small))
    violations.extend(_coordinate_witness_violations(small))
    violations.extend(_conductor_violations(small))
    return ValidationReport(not violations, tuple(violations))


def good_semigroup(small: SmallSet) -> GoodSemigroup:
    """Validate a small set and wrap it; raises NotGoodSemigroup on failure."""
    report = validate_small_set(small)
    if not report.ok:
        raise NotGoodSemigroup(report, small)
    return GoodSemigroup(small)


def gs_from_generators(gens, conductor) -> GoodSemigroup:
    """The good semigroup read off the closure of the generators at conductor.

    The truncated closure (closure_small) is computed, normalize_conductor
    lowers its top as far as the filled corner box allows, and the result is
    validated; a failure raises NotGoodSemigroup carrying the normalized
    data.  Lowering the top gives the points on the new top lines rays, so
    the result need not be the closure at the requested conductor: the
    generators (1,2), (2,4), (1,4) at (2,4) give top (1,4), and (2,2) is a
    member although the closure at (2,4) does not hold it.
    """
    closed = normalize_conductor(closure_small(gens, conductor))
    return good_semigroup(closed)


def gs_contains(s: GoodSemigroup, p) -> bool:
    """Membership of an integer point in the semigroup, read by Point."""
    return s.small.contains(Point(p))


def is_local(s: GoodSemigroup) -> bool:
    """True when 0 is the only member with a zero coordinate."""
    return s.dim == 1 or _rows_local(s.small.rows, s.small.top)


def _rows_local(rows, top) -> bool:
    """Whether 0 is the only point with a zero coordinate of the set the
    bit rows of [0, top] reconstruct, n >= 2."""
    if not any(top):
        return False  # the whole lattice: every axis point is a member
    # the bits a row may not hold: bit 0 under a prefix with no zero, all
    # but bit 0 under the zero prefix, and every bit under the others
    return not any(
        r & (1 if all(p) else -1 if any(p) else ~1) for p, r in zip(_prefixes(top), rows)
    )


def _require_dim2(s: GoodSemigroup, op: str):
    if s.dim != 2:
        raise UnsupportedDimension("%s is implemented for n = 2 only" % (op,))


def maximal_elements(s: GoodSemigroup) -> tuple:
    """Small elements not dominated inside the semigroup along any single
    axis, in x order.

    Read off the fiber tops F0, F1 (SmallSet._fiber_tops): a member (x, y)
    has F0(x) >= y and F1(y) >= x, so it is maximal exactly when
    y = F0(x) is finite and F1(y) = x.
    """
    _require_dim2(s, "maximal_elements")
    up, across = s.small._fiber_tops
    return tuple(Point((x, y)) for x, y in enumerate(up) if -inf < y < inf and across[y] == x)


def _axis_bits(rows) -> tuple:
    """n = 2: the values each axis takes on the points of the bit rows, as
    ints: bit x for each nonempty row x, and the OR of the rows."""
    return _int_of(list(itertools.compress(itertools.count(), rows))), reduce(or_, rows)


def _product_rows(a: int, b: int, top) -> list:
    """n = 2: the bit rows of [0, top] of the product of the sets of the
    member ints a and b (see numerical)."""
    column = b & (2 << top[1]) - 1
    return [column if a >> x & 1 else 0 for x in range(top[0] + 1)]


def projection(s: GoodSemigroup, i: int) -> NumericalSemigroup:
    """Coordinate image of the semigroup, a numerical semigroup: the values
    axis i takes on the small elements (_axis_bits), and every value from
    top_i on, via the conductor cone."""
    _require_dim2(s, "projection")
    if i not in (0, 1):
        raise IndexError("axis %d out of range" % (i,))
    return NumericalSemigroup(_axis_bits(s.small.rows)[i] | -1 << s.small.top[i])
