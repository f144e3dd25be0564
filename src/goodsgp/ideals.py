"""Good relative ideals of a good semigroup.

A good relative ideal E of a good semigroup S is a nonempty subset of N^n
with E + S contained in E that satisfies the meet closure and shared
coordinate axioms and has a conductor.  Like semigroups, ideals are stored
through their small elements: the members below the ideal conductor, plus
the reconstruction rays and cone implied by that data.

Generating means generating the small data.  For a set H of points, [H] is
the smallest meet closed, ambient absorbing superset of H, and a set G
generates the ideal E exactly when the clamp of [G] into [0, C(E)]
reproduces Small(E).  The clamp level matters: the same generators can
clamp to valid data at more than one level, so each constructor states
which level it uses.  gi_from_generators clamps at the natural corner
min(H) + C(S), the conductor bound every [H] satisfies, and then lowers it
while the box data stays exact.  The reconstruction from the data is
authoritative: it can be a strict superset of [H], because a clamped point
sitting on the border of the box emits a ray whether or not the fiber of
[H] through it climbs forever.

Clamping into a box is a lattice map for meets, so the clamp of [H] is the
meet closure of the clamped sums min(h + q, corner) over h in H and the
members q of S in the box (members beyond the box clamp onto box members,
since the corner is at least C(S)).  The sum of two ideals E + F is the
same construction with the members of E as H and F in place of S.  Both
run through one bit-row routine (_clamped_sum_ideal), in every dimension:
the box members of the second operand are its box rows
(semigroup._box_rows), and each point of the first, a generator or a small
element of E, translates all of them at once, one shift per row, by the
translate kernel that minimal generating systems share
(semigroup._translates).  E's members past its small elements lie on the
rays of its border points, and a ray costs one operation per row too:
along the last axis it fills a shifted row from its lowest bit up, and
along each other axis it is a running OR across the rows.  The routine
then lowers the corner to the minimal conductor of the data and validates
the ideal axioms; failures raise NotGoodIdeal with a witness report.

Tail ideals read their data off the ambient's rows too (_box_rows, with
the base point as the box's low corner), in every dimension.

The canonical ideal is not generated but read off its definition: the
points a of [0, C(S)] such that no member of S shares a coordinate with
C(S) - (1, 1) - a and strictly dominates it on the other axis.  It and its
generators are read off the fiber tops of S (SmallSet._fiber_tops), one
pass per axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import accumulate
from math import inf
from operator import or_

from .errors import NonLocalError, NotGoodIdeal
from .lattice import Point, _wrong_dimension, join, ones
from .semigroup import (
    GoodSemigroup,
    SmallSet,
    ValidationReport,
    Violation,
    _box_rows,
    _checked_points,
    _conductor_violations,
    _coordinate_witness_violations,
    _first_missing_sum,
    _fold_rows,
    _low_bit,
    _meet_closure,
    _meet_violations,
    _prefixes,
    _require_dim2,
    _row_tuples,
    _rows,
    _tail_sum_closed,
    _translates,
    is_local,
    maximal_elements,
    normalize_conductor,
)

__all__ = [
    "GoodRelativeIdeal",
    "validate_ideal_small_set",
    "good_ideal",
    "gi_contains",
    "gi_from_generators",
    "tail_ideal",
    "is_stable",
    "canonical_generators",
    "canonical_ideal",
    "is_symmetric",
    "sum_ideals",
]


@dataclass(frozen=True)
class GoodRelativeIdeal:
    """A validated good relative ideal, stored by its small elements."""

    ambient: GoodSemigroup
    small: SmallSet

    @property
    def conductor(self) -> Point:
        return self.small.top

    @property
    def dim(self) -> int:
        return self.small.dim

    @cached_property
    def min_element(self) -> Point:
        """The componentwise minimum of the small data, off its bit rows:
        per prefix axis the least coordinate of a nonempty row, and on the
        last axis the lowest bit of the OR of the rows."""
        rows = self.small.rows
        heads = [p for p, r in zip(_prefixes(self.small.top), rows) if r]
        return Point((*map(min, zip(*heads)), _low_bit(reduce(or_, rows))))

    def __contains__(self, p):
        return gi_contains(self, p)


def validate_ideal_small_set(ambient: GoodSemigroup, small: SmallSet) -> ValidationReport:
    """Check the good ideal axioms on a candidate small set.

    Reports at most one witness per violated axiom, and one per axis on
    which the top can be lowered: meet closure, the shared coordinate
    witness property, absorption of ambient members, and minimality of the
    conductor.  There is no zero or sum closure axiom for ideals.

    Absorption adds every ambient member q of the box up to the join of both
    conductors to the data; beyond it every sum clamps to one already
    checked.  The box rows of those members, folded onto [0, C(E)], and the
    data's rows decide by one product per pair of rows whether a clamped
    sum is missing (_first_missing_sum); only then is the witness named:
    the first q, in box order, with the first point e whose clamped sum
    with q is missing.
    """
    if ambient.dim != small.dim:
        raise _wrong_dimension(small.top, ambient.dim, "ideal top")
    violations = _meet_violations(small)
    violations.extend(_coordinate_witness_violations(small))
    violations.extend(_absorption_violations(ambient, small))
    violations.extend(_conductor_violations(small))
    return ValidationReport(not violations, tuple(violations))


def _absorption_violation(e, q) -> Violation:
    return Violation(
        "absorption",
        (e, Point(q)),
        None,
        "translate by an ambient member leaves the ideal",
    )


def _absorption_violations(ambient: GoodSemigroup, small: SmallSet) -> list:
    """The first ambient member q of the box up to the join of both
    conductors, and then point e of the data, whose clamped sum is missing
    from the data.  Folding q onto min(q, C(E)) keeps every clamped sum, as
    min(e + min(q, C(E)), C(E)) = min(e + q, C(E))."""
    box = join(small.top, ambient.small.top)
    rows = _box_rows(ambient.small, box)
    folded = _fold_rows(rows, box, small.top)
    pair = _first_missing_sum(small.rows, small.top, _row_tuples(rows, box), folded)
    return [] if pair is None else [_absorption_violation(pair[1], pair[0])]


def good_ideal(ambient: GoodSemigroup, small: SmallSet) -> GoodRelativeIdeal:
    """Validate ideal data and wrap it; raises NotGoodIdeal on failure."""
    report = validate_ideal_small_set(ambient, small)
    if not report.ok:
        raise NotGoodIdeal(report, small)
    return GoodRelativeIdeal(ambient, small)


def gi_contains(e: GoodRelativeIdeal, p) -> bool:
    """Membership of an integer point in the ideal, read by Point."""
    return e.small.contains(Point(p))


def _clamped_sum_ideal(s: GoodSemigroup, rows, top, other: SmallSet, corner):
    """The ideal whose data is the meet closure of min(p + q, corner) over
    the points p of the bit rows `rows` of [0, top] and the members q of
    the set `other` reconstructs (_translates of its _box_rows), with its
    corner lowered to the minimal conductor and validated."""
    data = _translates(rows, top, _box_rows(other, corner), corner)
    small = SmallSet._of_rows(_meet_closure(data, corner), corner)
    return good_ideal(s, normalize_conductor(small))


def gi_from_generators(s: GoodSemigroup, hgens) -> GoodRelativeIdeal:
    """The good ideal the generators describe, by their clamped closure.

    The small data is the clamp, into the corner box min(H) + C(S), of the
    smallest set containing every generator plus an ambient member and
    closed under componentwise minima.  Each generator, clamped to the
    corner, translates the box rows of S once, by the row routine
    sum_ideals also uses (_clamped_sum_ideal), in every dimension.  The
    corner is then lowered while the data between it and the old corner
    stays complete, and the result validated.  The corner is the natural
    conductor bound of the closure, and for a principal generator, for
    generators containing zero, and for the canonical families it is the
    exact conductor.  The clamp can fail the ideal axioms (most often the
    shared coordinate witness, when a fiber of the closure stops below the
    corner), in which case NotGoodIdeal carries the report.
    """
    gens = _checked_points(hgens, s.dim, "generator")
    if not gens:
        raise ValueError("at least one generator is required")
    corner = Point(map(min, zip(*gens))) + s.small.top
    # with the corner as top, a generator clamped onto the corner's line
    # takes a ray, but every translate along it clamps back onto the line
    return _clamped_sum_ideal(s, _rows(gens, corner), corner, s.small, corner)


def tail_ideal(s: GoodSemigroup, a) -> GoodRelativeIdeal:
    """The good relative ideal of all members of s lying above a."""
    a = Point(a)
    if a.dim != s.dim:
        raise _wrong_dimension(a, s.dim)
    top = join(a, s.small.top)
    return good_ideal(s, SmallSet._of_rows(_box_rows(s.small, top, a), top))


def is_stable(e: GoodRelativeIdeal) -> bool:
    """Is E + E = min(E) + E?

    m + E lies in E + E for m = min(E), a member, and the converse asks
    that a + b - m be a member for all members a, b.  As a + b - m =
    m + (a - m) + (b - m), that holds exactly when the tail T = E - m is
    closed under sums.  Clamped at its top C(E) - m, T's membership is
    exact, as min(y, C(E) - m) + m = min(y + m, C(E)), so the product test
    of T's bit rows decides it (_tail_sum_closed), in every dimension.
    """
    return _tail_sum_closed(e.small, e.min_element)


def canonical_generators(s: GoodSemigroup) -> tuple:
    """Generators of the canonical ideal read off the gaps and maximals.

    One family per axis built from the gaps of the coordinate projections,
    placed on the opposite border, plus the reflections of the maximal
    elements through conductor - 1.  The gaps on axis i are the u in
    [1, top_i) with no point on axis i: fiber top -inf.
    """
    _require_dim2(s, "canonical_generators")
    if not is_local(s):
        raise NonLocalError("the canonical ideal requires a local semigroup")
    top = s.small.top
    gamma = top - ones(2)
    up, across = s.small._fiber_tops
    fam = {gamma - alpha for alpha in maximal_elements(s)}
    fam.update(Point((gamma[0] - x, top[1])) for x in range(1, top[0]) if up[x] == -inf)
    fam.update(Point((top[0], gamma[1] - y)) for y in range(1, top[1]) if across[y] == -inf)
    return tuple(sorted(fam))


def canonical_ideal(s: GoodSemigroup) -> GoodRelativeIdeal:
    """The canonical ideal: points a of [0, C] whose reflection
    x = C - (1, 1) - a admits no member sharing a coordinate with x and
    strictly dominating it on the other axis.

    Its conductor is the ambient one (D'Anna 1997), so the definition over
    [0, C] is the whole small data, read per row x off the fiber tops F0,
    F1 (SmallSet._fiber_tops), with g = C - (1, 1) and F(-1) = -inf.  Row x
    holds the y with F0(g0 - x) <= g1 - y, a prefix of the row (all of it
    for -inf, none for inf), and F1(g1 - y) <= g0 - x: with the y bucketed
    by F1(g1 - y), that is the OR of the buckets up to g0 - x, one running
    OR over the buckets for all rows.  The y with F1(g1 - y) = -inf are in
    every row, and those with inf in none.
    """
    _require_dim2(s, "canonical_ideal")
    if not is_local(s):
        raise NonLocalError("the canonical ideal requires a local semigroup")
    top = s.small.top
    t0, t1 = top
    up, across = s.small._fiber_tops
    buckets = [1 << t1] + [0] * t0  # bucket t + 1 for F1(g1 - y) = t, bucket 0 for -inf
    for y, t in enumerate(reversed(across[:t1])):
        if t != inf:
            buckets[0 if t == -inf else t + 1] |= 1 << y
    within = list(accumulate(buckets, or_))  # index v + 1: F1(g1 - y) <= v
    rows = [
        (-1 if f == -inf else 0 if f == inf else (1 << t1 - f) - 1) & within[t0 - x]
        for x, f in enumerate(reversed((-inf,) + up[:t0]))
    ]
    return GoodRelativeIdeal(s, SmallSet._of_rows(rows, top))


def is_symmetric(s: GoodSemigroup) -> bool:
    """Does the canonical ideal coincide with the semigroup itself?"""
    return canonical_ideal(s).small == s.small


def sum_ideals(e: GoodRelativeIdeal, f: GoodRelativeIdeal) -> GoodRelativeIdeal:
    """The sum ideal: the good ideal generated by pairwise sums of members.

    Full members matter, not just small elements: rays of a factor
    contribute sums its small elements cannot reach.  Inside the corner box
    C(E) + C(F) the sum set is exactly the clamped sums of in box members,
    and a meet realizes each coordinate through one pair, so the data is
    the row closure _clamped_sum_ideal, the one gi_from_generators also
    uses, in every dimension: each small element of E translates F's box
    rows once, and E's border points add their rays, one operation per row
    each.
    """
    if e.ambient != f.ambient:
        raise ValueError("ideal sum requires a common ambient semigroup")
    corner = e.small.top + f.small.top
    return _clamped_sum_ideal(e.ambient, e.small.rows, e.small.top, f.small, corner)
