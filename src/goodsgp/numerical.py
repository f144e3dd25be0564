"""Numerical semigroups (cofinite submonoids of N) and their relative ideals.

Everything here is finite data: a semigroup is stored as one int, its
member int, and an ideal as its ambient semigroup plus its member int.
These are the one dimensional building blocks for the product
constructions and the base of the two dimensional Arf closure.

The member int m of a set has bit v for each member v below the conductor
and every bit from the conductor on, so it is negative, x >= 0 is a member
when bit x is set, and the conductor is (~m).bit_length(); the conductor,
small elements and generators are read off it (_MemberInt).  Each quantity
has one route on these ints.  The reach of the generators is closed under
+ g by ORing its shifts by g, 2g, 4g, ... below the Schur bound.  Minimal generators of an ideal E of S are E minus
E + (S minus 0), a semigroup's the same rule for E = S minus 0
(_minimal_generators).  The Arf closure follows the multiplicity recursion
of Rosales, García-Sánchez, García-García and Branco ("Arf numerical
semigroups", J. Algebra 276, 2004): with multiplicity m,
Arf(<m, n_2, ..., n_e>) = {0} u (m + Arf(<m, n_2 - m, ..., n_e - m>)) and
Arf(N) = N, so its members below the conductor are the partial sums of the
successive multiplicities (_arf_chain, which the two dimensional closure
runs on each axis too).  A semigroup is Arf when it equals its closure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import compress, count
from operator import index, or_

from .lattice import _integers

__all__ = [
    "NumericalSemigroup",
    "NumericalIdeal",
    "ns_from_generators",
    "ns_from_small",
    "ns_contains",
    "ns_element_at",
    "ns_multiplicity",
    "ns_arf_closure",
    "ideal_from_generators",
    "ideal_contains",
    "ideal_preimage_scale",
]


class _MemberInt:
    """A set stored as its member int _members (see the module docstring);
    the conductor and small elements are read off it."""

    @cached_property
    def conductor(self) -> int:
        """Least c with c + N inside the set."""
        return (~self._members).bit_length()

    @cached_property
    def small_elements(self) -> tuple:
        """The members v <= conductor, sorted."""
        digits = format(self._members & (2 << self.conductor) - 1, "b")
        return tuple(compress(count(), digits[::-1].encode().translate(_BIT_BYTES)))

    def __contains__(self, x):
        """Is the int x a member?  Any other type raises TypeError."""
        x = index(x)
        return x >= 0 and self._members >> x & 1 == 1


@dataclass(frozen=True)
class NumericalSemigroup(_MemberInt):
    """A cofinite submonoid of N, stored as its member int, which must be
    closed under sums (not checked: build through ns_from_generators or
    ns_from_small).

    generators: the unique minimal generating set.
    small_elements: the members v <= conductor, sorted.
    conductor: least c with c + N contained in the semigroup.
    """

    _members: int

    @cached_property
    def generators(self) -> tuple:
        return _minimal_generators(self._members & ~1, self._members)


@dataclass(frozen=True)
class NumericalIdeal(_MemberInt):
    """A relative ideal E of a numerical semigroup with E contained in N.

    Satisfies E + S subset of E (not checked: build through
    ideal_from_generators or ideal_preimage_scale).  Stored as the ambient
    and E's member int; generators are E's minimal generators over the
    ambient.
    """

    ambient: NumericalSemigroup
    _members: int

    @cached_property
    def generators(self) -> tuple:
        return _minimal_generators(self._members, self.ambient._members)


def ns_contains(s: NumericalSemigroup, x: int) -> bool:
    return x in s


def ideal_contains(e: NumericalIdeal, x: int) -> bool:
    return x in e


_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")  # binary digits to bytes 0 and 1


def _int_of(values) -> int:
    """The int with bit v set for each v of the sequence values (ints >= 0),
    through its binary digits."""
    digits = bytearray(b"0") * (max(values, default=0) + 1)
    for v in values:
        digits[v] = 49  # the digit 1
    return int(digits[::-1], 2)


def _low_bit(v: int) -> int:
    """Index of the lowest set bit of v != 0."""
    return (v & -v).bit_length() - 1


def _minimal_generators(e: int, s: int) -> tuple:
    """E minus E + (S minus 0) for the member ints e of an ideal E and s of
    the semigroup S: the least member of E outside g + S for the generators
    g found so far is the next one, as w + x, x in S minus 0, lies in g + S
    once w does; none is left when E is the union of the g + S."""
    gens, reached = [], 0
    while rest := e & ~reached:
        g = _low_bit(rest)
        gens.append(g)
        reached |= s << g
    return tuple(gens)


def ns_from_small(small, conductor) -> NumericalSemigroup:
    """Build a semigroup from its members below the conductor.

    The data must describe an actual numerical semigroup: 0 present, closed
    under addition (checked up to the conductor), conductor minimal.
    Closure takes one shifted bit test per greedy generator a of the data
    (_minimal_generators), in increasing order: the members b >= a, shifted
    up by a, must be members below the conductor; a failure names the least
    such a, then the least b.  The least member a failing this test is a
    greedy generator: else a = g + x for a smaller generator g and a nonzero
    member x, and for b >= a, x + b and then g + (x + b) come from smaller
    members, which pass.
    """
    small = tuple(sorted(set(_integers(tuple(small)))))
    (conductor,) = _integers((conductor,))
    if conductor < 0:
        raise ValueError("conductor must be nonnegative")
    if not small or small[0] != 0:
        raise ValueError("0 must be a member")
    if small[-1] != conductor or any(v > conductor for v in small):
        raise ValueError("small elements must end exactly at the conductor")
    bits = _int_of(small)
    for a in _minimal_generators(bits & ~1, bits):
        missing = (bits >> a << 2 * a) & ~bits & ((1 << conductor) - 1)
        if missing:
            b = _low_bit(missing) - a
            raise ValueError("not closed under addition: %d + %d" % (a, b))
    if conductor > 0 and bits >> conductor - 1 & 1:
        raise ValueError("conductor %d is not minimal" % (conductor,))
    return NumericalSemigroup(bits | -1 << conductor)


def ns_from_generators(gens) -> NumericalSemigroup:
    """The numerical semigroup generated by gens (positive, gcd 1)."""
    gens = sorted(set(_integers(tuple(gens))))
    if not gens or gens[0] <= 0:
        raise ValueError("generators must be positive integers")
    if math.gcd(*gens) != 1:
        raise ValueError("generators must have gcd 1")
    # Schur: the Frobenius number is below (min - 1)(max - 1), so every
    # value from bound on is a member and the reach below it is exact.
    bound = (gens[0] - 1) * (gens[-1] - 1)
    window, reach = (1 << bound) - 1, 1
    for g in gens:
        shift = g
        while shift < bound:  # closed under + g below bound: shifts g, 2g, 4g, ...
            reach |= reach << shift & window
            shift *= 2
    return NumericalSemigroup(reach | -1 << bound)


def ns_element_at(s: NumericalSemigroup, i: int) -> int:
    """The i-th member in increasing order, starting at index 0 (which is 0)."""
    if i < 0:
        raise IndexError("negative index")
    small = s.small_elements
    if i < len(small):
        return small[i]
    return s.conductor + (i - len(small) + 1)


def ns_multiplicity(s: NumericalSemigroup) -> int:
    """Least nonzero member."""
    return ns_element_at(s, 1)


def _arf_chain(p: int) -> int:
    """The member int of the Arf closure of the semigroup generated by the
    positive members of the member int p: while the multiplicity m, p's
    lowest bit, exceeds 1, the running total grows by m and joins the
    closure, and p becomes m and g - m for its other members g."""
    closure, total = 1, 0
    while not p & 2:
        m = _low_bit(p)
        total += m
        closure |= 1 << total
        p = p >> m & ~1 | 1 << m
    return closure | -1 << total


def ns_arf_closure(s: NumericalSemigroup) -> NumericalSemigroup:
    """Smallest Arf semigroup containing s, by the multiplicity recursion
    (_arf_chain)."""
    return NumericalSemigroup(_arf_chain(s._members & ~1))


def _preimage(m: int, k: int) -> int:
    """The member int of {v : k * v in M}, M the set of the member int m,
    k >= 1: every k-th binary digit of M below its conductor c, and every v
    from c / k on."""
    c = (~m).bit_length()
    return int(format(m & (1 << c) - 1, "b")[::-k][::-1], 2) | -1 << -(-c // k)


def ideal_from_generators(s: NumericalSemigroup, gens) -> NumericalIdeal:
    """The ideal gens + s (generators must be nonnegative)."""
    gens = sorted(set(_integers(tuple(gens))))
    if not gens or gens[0] < 0:
        raise ValueError("ideal generators must be nonnegative integers")
    return NumericalIdeal(s, reduce(or_, (s._members << g for g in gens)))


def ideal_preimage_scale(e: NumericalIdeal, k: int, s: NumericalSemigroup) -> NumericalIdeal:
    """The ideal {x in s : k * x in e} of s.

    Requires k >= 1 and that k * s lands in e's ambient semigroup; under that
    hypothesis the preimage is a nonempty relative ideal of s.
    """
    if k < 1:
        raise ValueError("scale factor must be >= 1")
    return NumericalIdeal(s, s._members & _preimage(e._members, k))
