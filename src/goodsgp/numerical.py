"""Numerical semigroups (cofinite submonoids of N) and their relative ideals.

Everything here is finite data: a semigroup is stored as its conductor plus
the members below it, an ideal likewise.  These are the one dimensional
building blocks for the product constructions and the base of the two
dimensional Arf closure.

Each quantity has one route.  The conductor is one scan down from a bound
past which everything is a member (_conductor).  Minimal generators of an
ideal E of S are E minus E + (S minus 0), and a semigroup's are the same
rule for E = S minus 0 (_minimal_generators).  Every ideal is built from a
member test and such a bound (_ideal).  The Arf closure follows the
multiplicity recursion of Rosales, García-Sánchez, García-García and Branco
("Arf numerical semigroups", J. Algebra 276, 2004): with multiplicity m,
Arf(<m, n_2, ..., n_e>) = {0} u (m + Arf(<m, n_2 - m, ..., n_e - m>)) and
Arf(N) = N, so its members below the conductor are the partial sums of the
successive multiplicities (_arf_chain, which the two dimensional closure
runs on each axis too).  A semigroup is Arf when it equals its closure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

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


@dataclass(frozen=True)
class NumericalSemigroup:
    """A cofinite submonoid of N.

    generators: the unique minimal generating set.
    small_elements: the members v with v <= conductor, sorted.
    conductor: least c with c + N contained in the semigroup.
    """

    generators: tuple
    small_elements: tuple
    conductor: int

    @cached_property
    def _members(self):
        return frozenset(self.small_elements)

    def __contains__(self, x):
        return ns_contains(self, x)


@dataclass(frozen=True)
class NumericalIdeal:
    """A relative ideal E of a numerical semigroup with E contained in N.

    Satisfies E + S subset of E.  Stored the same way as a semigroup: members
    up to the conductor, plus the minimal generators (over the ambient).
    """

    ambient: NumericalSemigroup
    generators: tuple
    small_elements: tuple
    conductor: int

    @cached_property
    def _members(self):
        return frozenset(self.small_elements)

    def __contains__(self, x):
        return ideal_contains(self, x)


def ns_contains(s: NumericalSemigroup, x: int) -> bool:
    if x < 0:
        return False
    return x >= s.conductor or x in s._members


def ideal_contains(e: NumericalIdeal, x: int) -> bool:
    return x >= e.conductor or x in e._members


def _conductor(member, bound) -> int:
    """One past the last non-member in [0, bound], or 0 when there is none;
    every value past bound must be a member."""
    for v in range(bound, -1, -1):
        if not member(v):
            return v + 1
    return 0


def _minimal_generators(member, bound, ambient) -> tuple:
    """E minus E + (S minus 0) for the set E that member tests and the
    semigroup S that ambient tests, scanned over [0, bound].

    The bound must be at least conductor(E) + multiplicity(S): anything
    larger splits off one copy of the multiplicity.  Since E = gens + S, a
    member v = w + x with x in S minus 0 also has v - g in S minus 0 for the
    generator g below w, so only the generators found so far are tried.
    """
    gens = []
    for v in range(bound + 1):
        if member(v) and not any(ambient(v - g) for g in gens):
            gens.append(v)
    return tuple(gens)


def _ideal(s: NumericalSemigroup, member, bound) -> NumericalIdeal:
    """The ideal of s that member tests, every value past bound a member."""
    conductor = _conductor(member, bound)
    small = {v for v in range(conductor + 1) if member(v)}

    def inside(v):
        return v >= conductor or v in small

    gens = _minimal_generators(inside, conductor + ns_multiplicity(s), s.__contains__)
    return NumericalIdeal(s, gens, tuple(sorted(small)), conductor)


def ns_from_small(small, conductor) -> NumericalSemigroup:
    """Build a semigroup from its members below the conductor.

    The data must describe an actual numerical semigroup: 0 present, closed
    under addition (checked up to the conductor), conductor minimal.
    Closure takes one shifted bit test per member a: the members b >= a,
    shifted up by a, must be members below the conductor; a failure names
    the least such a, then the least b.
    """
    small = tuple(sorted(set(int(v) for v in small)))
    conductor = int(conductor)
    if conductor < 0:
        raise ValueError("conductor must be nonnegative")
    if not small or small[0] != 0:
        raise ValueError("0 must be a member")
    if small[-1] != conductor or any(v > conductor for v in small):
        raise ValueError("small elements must end exactly at the conductor")
    members = set(small)

    def member(v):
        return v >= conductor or v in members

    bits = sum(1 << v for v in small)
    for a in small:
        missing = (bits >> a << 2 * a) & ~bits & ((1 << conductor) - 1)
        if missing:
            b = (missing & -missing).bit_length() - 1 - a
            raise ValueError("not closed under addition: %d + %d" % (a, b))
    if conductor > 0 and member(conductor - 1):
        raise ValueError("conductor %d is not minimal" % (conductor,))
    mult = small[1] if len(small) > 1 else conductor + 1
    gens = _minimal_generators(lambda v: v > 0 and member(v), conductor + mult, member)
    return NumericalSemigroup(gens, small, conductor)


def ns_from_generators(gens) -> NumericalSemigroup:
    """The numerical semigroup generated by gens (positive, gcd 1)."""
    gens = sorted(set(int(g) for g in gens))
    if not gens or gens[0] <= 0:
        raise ValueError("generators must be positive integers")
    if math.gcd(*gens) != 1:
        raise ValueError("generators must have gcd 1")
    # Frobenius number is below (min-1)(max-1), so this bound sees the tail.
    bound = (gens[0] - 1) * (gens[-1] - 1) + 1
    reach = bytearray(bound + 1)
    reach[0] = 1
    for v in range(1, bound + 1):
        for g in gens:
            if g > v:
                break
            if reach[v - g]:
                reach[v] = 1
                break
    conductor = _conductor(reach.__getitem__, bound)
    return ns_from_small((v for v in range(conductor + 1) if reach[v]), conductor)


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


def _arf_chain(gens) -> list:
    """The members up to the conductor, the last one the conductor, of the
    Arf closure of the semigroup that gens generate (positive, gcd 1), by
    the multiplicity recursion.

    While the multiplicity m of the current generators exceeds 1, m joins the
    running total and the generators become m and g - m for the others.
    """
    gens = set(gens)
    small = [0]
    while min(gens) > 1:
        m = min(gens)
        small.append(small[-1] + m)
        gens = {m} | {g - m for g in gens if g != m}
    return small


def ns_arf_closure(s: NumericalSemigroup) -> NumericalSemigroup:
    """Smallest Arf semigroup containing s, by the multiplicity recursion
    (_arf_chain)."""
    small = _arf_chain(s.generators)
    return ns_from_small(small, small[-1])


def ideal_from_generators(s: NumericalSemigroup, gens) -> NumericalIdeal:
    """The ideal gens + s (generators must be nonnegative)."""
    gens = sorted(set(int(g) for g in gens))
    if not gens or gens[0] < 0:
        raise ValueError("ideal generators must be nonnegative integers")

    def member(v):
        return any(g <= v and ns_contains(s, v - g) for g in gens)

    # Everything from min(gens) + conductor(s) onward is a member.
    return _ideal(s, member, gens[0] + s.conductor)


def ideal_preimage_scale(e: NumericalIdeal, k: int, s: NumericalSemigroup) -> NumericalIdeal:
    """The ideal {x in s : k * x in e} of s.

    Requires k >= 1 and that k * s lands in e's ambient semigroup; under that
    hypothesis the preimage is a nonempty relative ideal of s.
    """
    if k < 1:
        raise ValueError("scale factor must be >= 1")
    # from here on x lies in s and k * x past the conductor of e
    bound = max(s.conductor, -(-e.conductor // k))
    return _ideal(s, lambda v: ns_contains(s, v) and ideal_contains(e, k * v), bound)
