"""Brute force reference computations.

Definition following implementations that the tests and the benchmark checks
use to cross check the library's code paths.  No library module calls them;
the package only re-exports them.  Everything here favors directness over
speed: plain box scans, explicit ray semantics, and no shared logic with the
optimized modules beyond the Point type.
"""

from __future__ import annotations

import itertools

from .errors import UnsupportedDimension
from .lattice import Point
from .semigroup import GoodSemigroup, SmallSet

__all__ = [
    "brute_member",
    "brute_closure",
    "brute_canonical",
    "brute_arf_check",
]


def _member_test(points, top):
    """Membership in the set described by small points, border rays, and the
    cone above top, as a predicate on tuples; the point set is built once.

    p belongs exactly when its clamp into [0, top] is listed and the clamp
    sits on the border for every axis where p went past the top.
    """
    pts = set(map(tuple, points))
    top = tuple(top)

    def member(p) -> bool:
        if any(x < 0 for x in p):
            return False
        base = tuple(min(x, t) for x, t in zip(p, top))
        if base not in pts:
            return False
        return all(base[i] == top[i] for i in range(len(top)) if p[i] > top[i])

    return member


def brute_member(points, top, p) -> bool:
    """Membership in the set described by small points, border rays, and the
    cone above top (_member_test)."""
    return _member_test(points, top)(tuple(p))


def brute_closure(gens, conductor) -> SmallSet:
    """Truncated closure of generators by exhaustive search.

    Seeds 0, the conductor, and the clamped generators; saturates clamped
    sums breadth first, then closes under meets in one pass.  Sums
    distribute over meets coordinate by coordinate, so no second sum pass
    can add anything.
    """
    cap = Point(conductor)
    n = cap.dim
    base = {(0,) * n, tuple(cap)}
    for g in gens:
        g = tuple(g)
        if len(g) != n:
            raise ValueError("generator %r vs conductor %r" % (g, cap))
        base.add(tuple(min(x, c) for x, c in zip(g, cap)))

    members = set(base)
    frontier = set(base)
    while frontier:
        new = set()
        for a in frontier:
            for b in members:
                t = tuple(min(x + y, c) for x, y, c in zip(a, b, cap))
                if t not in members:
                    new.add(t)
        members |= new
        frontier = new

    changed = True
    while changed:
        changed = False
        snapshot = list(members)
        for i, a in enumerate(snapshot):
            for b in snapshot[i + 1 :]:
                m = tuple(map(min, a, b))
                if m not in members:
                    members.add(m)
                    changed = True

    return SmallSet(tuple(sorted(Point(p) for p in members)), cap)


def brute_canonical(s: GoodSemigroup) -> SmallSet:
    """Canonical ideal by the definitional scan, n = 2 only.

    Keeps a in [0, C] when no member of s shares a coordinate with
    C - 1 - a while strictly dominating it on the other axis.  The witness
    scan runs one step past the border, which covers every ray and cone
    point beyond.
    """
    if s.dim != 2:
        raise UnsupportedDimension("brute_canonical is implemented for n = 2 only")
    top = tuple(s.small.top)
    member = _member_test(s.small.points, top)

    def delta_hit(x, i):
        j = 1 - i
        if x[i] < 0:
            return False
        q = [0, 0]
        q[i] = x[i]
        for y in range(max(x[j] + 1, 0), top[j] + 2):
            q[j] = y
            if member(tuple(q)):
                return True
        return False

    gamma = (top[0] - 1, top[1] - 1)
    keep = []
    for a in itertools.product(range(top[0] + 1), range(top[1] + 1)):
        x = (gamma[0] - a[0], gamma[1] - a[1])
        if not delta_hit(x, 0) and not delta_hit(x, 1):
            keep.append(Point(a))
    return SmallSet(tuple(sorted(keep)), Point(top))


def brute_arf_check(s: GoodSemigroup, box) -> bool:
    """Triple scan of b + c - a for members a <= b, a <= c inside [0, box].

    Results are tested against the full semigroup, not just the box.
    """
    box = Point(box)
    if box.dim != s.dim:
        raise ValueError("box %r vs semigroup dimension %d" % (box, s.dim))
    member = _member_test(s.small.points, s.small.top)
    inside = [
        p
        for p in itertools.product(*(range(b + 1) for b in box))
        if member(p)
    ]
    for a in inside:
        above = [b for b in inside if all(x >= y for x, y in zip(b, a))]
        for i, b in enumerate(above):
            for c in above[i:]:
                q = tuple(x + y - z for x, y, z in zip(b, c, a))
                if not member(q):
                    return False
    return True
