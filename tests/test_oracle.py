"""The brute force reference implementations and their agreement with the fast paths."""

from __future__ import annotations

import ast
import itertools
import pathlib
import random

from hypothesis import given, settings, strategies as st

import goodsgp
from goodsgp import (
    Point,
    brute_arf_check,
    brute_canonical,
    brute_closure,
    brute_member,
    closure_small,
    good_semigroup,
    gs_contains,
    is_arf,
    small_set,
)

import _data as data
from _corpus import corpus


def test_brute_member_on_the_duplication_golden_set():
    pts = [Point(p) for p in data.DUP_SMALL]
    top = Point(data.DUP_CONDUCTOR)
    assert brute_member(pts, top, (6, 7))
    assert brute_member(pts, top, (6, 12))  # vertical ray
    assert brute_member(pts, top, (12, 6))  # horizontal ray
    assert brute_member(pts, top, (9, 9))  # cone
    assert not brute_member(pts, top, (1, 1))
    assert not brute_member(pts, top, (7, 12))
    assert not brute_member(pts, top, (-1, 0))


def test_brute_closure_matches_closure_small_on_goldens():
    for case in data.FIGURE_REJECTS:
        gens = [Point(p) for p in case["gens"]]
        top = Point(case["conductor"])
        fast = closure_small(gens, top)
        slow = brute_closure(gens, top)
        assert fast.points == slow.points
        assert fast.top == slow.top


def test_brute_closure_matches_on_random_generator_sets():
    rng = random.Random(8110)
    for _ in range(40):
        c = rng.randint(3, 10)
        top = Point((c, c))
        gens = [
            Point((rng.randint(0, c), rng.randint(0, c)))
            for _ in range(rng.randint(1, 4))
        ]
        fast = closure_small(gens, top)
        slow = brute_closure(gens, top)
        assert fast.points == slow.points


@st.composite
def _generator_sets(draw):
    """Generators and a conductor drawn per axis, so rarely square, in N^2
    and N^3; generators may lie past the conductor or on an axis."""
    n = draw(st.sampled_from((2, 3)))
    cap = 12 if n == 2 else 4
    top = tuple(draw(st.integers(0, cap)) for _ in range(n))
    point = st.tuples(*[st.integers(0, cap + 2)] * n)
    return draw(st.lists(point, max_size=4)), top


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(_generator_sets())
def test_closure_small_matches_brute_closure_in_two_and_three_dimensions(case):
    gens, top = case
    assert closure_small(gens, top) == brute_closure(gens, top)


def test_brute_canonical_on_the_symmetric_example(dup35):
    ref = brute_canonical(dup35)
    assert ref.points == dup35.small.points


def test_brute_canonical_on_the_frozen_examples(arfex1):
    ref = brute_canonical(arfex1)
    assert data.points(ref.points) == data.points(data.ARFEX1_CANONICAL)


def test_brute_arf_check_on_examples(dup_example):
    assert not brute_arf_check(dup_example, (10, 10))
    mini = good_semigroup(small_set([(0, 0), (1, 1)], (1, 1)))
    assert brute_arf_check(mini, (5, 5))
    closed = good_semigroup(small_set(*data.ARFEX3_CLOSURE))
    assert brute_arf_check(closed, (8, 8))


def test_brute_oracles_agree_on_random_instances():
    rng = random.Random(8111)
    for s in corpus(520, 25, cap=10):
        top = s.small.top
        for _ in range(25):
            p = (rng.randint(-1, top[0] + 3), rng.randint(-1, top[1] + 3))
            assert brute_member(s.small.points, top, p) == gs_contains(s, p)
        box = (top[0] + 2, top[1] + 2)
        assert brute_arf_check(s, box) == is_arf(s)


def test_no_library_module_imports_the_oracle():
    # the references stay independent of the code they check: only the
    # package root, which re-exports them, may import oracle
    offenders = []
    for path in sorted(pathlib.Path(goodsgp.__file__).parent.glob("*.py")):
        if path.name in ("oracle.py", "__init__.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                prefix = node.module + "." if node.module else ""
                names = [node.module or ""] + [prefix + a.name for a in node.names]
            else:
                continue
            if any("oracle" in name.split(".") for name in names):
                offenders.append(path.name)
    assert offenders == []
