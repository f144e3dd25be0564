"""Seeded workload generation for the goodsgp benchmark.

Every workload is a fixed list of ops built from the seed before timing
starts.  The op sets `construct`, `reject`, `invariants` and `ideals` make
up two workloads: `construct_reject` and `invariants_ideals`.  A CLI op is
an argv plus the JSON text fed to `goodsgp` on stdin; an `ideals` op is a
call into `goodsgp.ideals` or `goodsgp.gensys`.  Each op carries a rung (the
conductor it works at) and an expectation that is checked after the timed
loop.

The semantic documents are fixed per rung, so their outputs can be pinned by
`golden.json`.  The seed varies what the program sees but not the work it
does, because the driver compares runs made with different seeds: the order
of the ops, redundant generators and point order in the documents, which
build command runs on which document at C=55, member query points, the
redundant element in an is-mingens candidate, which generator pair fails
the witness axiom, the shape of the known-defect documents, and whether an
ideal generator or tail point is taken or its mirror image (the ladder
duplications are symmetric).  Corruptions, whose cost depends on where a
validator's scan stops, are fixed.

Everything here is plain Python: numerical semigroups and duplications are
enumerated from their definitions, without calling goodsgp, so the documents
and the reference small sets do not depend on the code under test.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

# The conductor ladder.  Duplications "S by E" of numerical semigroups S by
# the ideal E = e + S: <3,5> by 5 (C=13), <5,7> by 7 (C=31), <9,11,13> by 11
# (C=55), <16,17,18,19> by 17 (C=97).
DUPLICATION = {13: ([3, 5], [5]), 31: ([5, 7], [7]), 55: ([9, 11, 13], [11]),
               97: ([16, 17, 18, 19], [17])}
# amalgamation(S, T, E over T, k) with conductors (12,13), (30,31), (56,55)
AMALGAMATION = {13: ([4, 5], [2, 3], [11], 2), 31: ([6, 7], [5, 7], [7], 2),
                55: ([8, 9], [7, 9], [7], 2)}
# products with conductors (12,12), (32,30), (56,54); none is local
CARTESIAN = {13: ([3, 7], [4, 5]), 31: ([5, 9], [6, 7]), 55: ([8, 9], [7, 10])}
# minimal generating systems and maximal elements of the ladder duplications
# (pinned by golden.json); "maximal" documents rebuild the duplication from
# its projections and these maximal elements
DUP_MINGENS = {13: [(3, 3), (5, 13), (13, 5)], 31: [(5, 5), (7, 31), (31, 7)],
               55: [(9, 9), (11, 55), (13, 13), (55, 11)]}
DUP_MAXIMAL = {
    13: [(0, 0), (3, 3), (6, 6), (9, 9), (12, 12)],
    31: [(0, 0), (5, 5), (10, 10), (15, 15), (20, 20), (25, 25), (30, 30)],
    55: [(0, 0), (9, 9), (13, 13), (18, 18), (26, 26), (27, 27), (36, 36),
         (39, 39), (45, 45), (52, 52), (54, 54)],
}
# generator pairs whose truncated closure fails only the witness axiom
WITNESS_GENS = {
    13: [[(7, 8), (7, 11)], [(12, 11), (8, 11)], [(8, 13), (8, 12)]],
    31: [[(19, 7), (8, 14)], [(4, 4), (27, 4)], [(24, 23), (8, 15)]],
    55: [[(49, 22), (54, 22)], [(15, 20), (36, 40)], [(10, 17), (20, 48)]],
}
# n = 3 product <3,5> x <3,7> x <4,5>: 245 small elements, conductor (8,12,12)
PRODUCT3 = ([3, 5], [3, 7], [4, 5])

KINDS = ("generators", "small", "duplication", "amalgamation", "cartesian", "maximal")
BUILD_COMMANDS = ("check", "small", "construct")
INVARIANT_COMMANDS = ("mingens", "is-mingens", "canonical", "symmetric", "arf",
                      "arf-closure", "maximal", "member")
RUNGS = (13, 31, 55)
C13_REPEAT = 4  # copies of each C=13 op per invariants_ideals pass
WORKLOADS = ("construct_reject", "invariants_ideals")

# The two input-contract defects present when the benchmark was written.
# README: malformed input exits 2.  At that commit a negative conductor lets a
# ValueError escape cli.run, and a 3-coordinate generator against a 2-d
# conductor exits 1.  Such an op counts as a known defect while it fails in
# exactly that way; any other wrong outcome counts as failed.
KNOWN_DEFECTS = {
    "defect:negative-conductor": {"exc": "ValueError"},
    "defect:generator-dimension": {"rc": 1},
}


class Numerical:
    """A numerical semigroup, by its members below the conductor."""

    def __init__(self, gens):
        bound = max(gens) * max(gens) + 1
        mem = [False] * (bound + 1)
        mem[0] = True
        for x in range(1, bound + 1):
            mem[x] = any(x >= g and mem[x - g] for g in gens)
        gaps = [x for x in range(bound + 1) if not mem[x]]
        self.conductor = gaps[-1] + 1 if gaps else 0
        self.mem = mem

    def __contains__(self, x):
        return x >= 0 and (x >= self.conductor or self.mem[x])

    def small(self):
        return [x for x in range(self.conductor + 1) if x in self]


def duplication_small(rung):
    """Small elements and conductor of the ladder duplication at a rung."""
    sg, eg = DUPLICATION[rung]
    s = Numerical(sg)

    def in_e(x):
        return any(x - h in s for h in eg)

    c = max(eg) + s.conductor
    while c > 0 and in_e(c - 1):
        c -= 1
    pts = [(x, y) for x in range(c + 1) for y in range(c + 1)
           if (x in s if x == y else in_e(min(x, y)) and max(x, y) in s)]
    return pts, (c, c)


def product3_small():
    factors = [Numerical(g) for g in PRODUCT3]
    smalls = [f.small() for f in factors]
    pts = [(a, b, c) for a in smalls[0] for b in smalls[1] for c in smalls[2]]
    return pts, tuple(f.conductor for f in factors)


@dataclass
class Op:
    """One benchmark operation and what its output must be."""

    name: str            # op kind, e.g. "check:duplication" or "ideals:sum"
    rung: int
    doc_id: str = ""     # key into golden.json, when the output is pinned there
    argv: list = field(default_factory=list)
    doc: str = ""        # stdin text for CLI ops
    call: object = None  # library ops: callable(state) -> result
    key: str = ""        # library ops: where the result is kept in the pass state
    expect: dict = field(default_factory=dict)


def _gens_list(gens, rng, extra):
    """Generators with redundant multiples mixed in, in seeded order."""
    out = list(gens) + [rng.choice(gens) * rng.randint(2, 3) for _ in range(extra)]
    rng.shuffle(out)
    return out


def _points(pts, rng):
    out = [list(p) for p in pts]
    rng.shuffle(out)
    return out


def _dump(doc, rng):
    return json.dumps(doc, separators=rng.choice([(",", ":"), (", ", ": ")]))


def _redundant(pts, rng, k):
    """k nonzero small elements (already generated, hence redundant)."""
    nonzero = [p for p in pts if any(p)]
    return rng.sample(nonzero, k)


def build_doc(kind, rung, rng):
    """A seeded rendering of the fixed document of a kind at a rung."""
    if kind == "generators":
        pts, top = duplication_small(rung)
        gens = DUP_MINGENS[rung] + _redundant(pts, rng, rng.randint(1, 3))
        doc = {"kind": "generators", "generators": _points(gens, rng),
               "conductor": list(top)}
    elif kind == "small":
        pts, top = duplication_small(rung)
        doc = {"kind": "small", "small": _points(pts, rng)}
        if rng.random() < 0.5:
            doc["conductor"] = list(top)
    elif kind == "duplication":
        sg, eg = DUPLICATION[rung]
        doc = {"kind": "duplication", "semigroup": _gens_list(sg, rng, rng.randint(0, 2)),
               "ideal": _gens_list(eg, rng, rng.randint(0, 1))}
    elif kind == "amalgamation":
        sg, tg, eg, k = AMALGAMATION[rung]
        doc = {"kind": "amalgamation", "semigroup": _gens_list(sg, rng, rng.randint(0, 1)),
               "target": _gens_list(tg, rng, rng.randint(0, 1)),
               "ideal": _gens_list(eg, rng, rng.randint(0, 1)), "factor": k}
    elif kind == "cartesian":
        left, right = CARTESIAN[rung]
        doc = {"kind": "cartesian", "left": _gens_list(left, rng, rng.randint(0, 1)),
               "right": _gens_list(right, rng, rng.randint(0, 1))}
    elif kind == "maximal":
        sg = DUPLICATION[rung][0]
        doc = {"kind": "maximal", "left": _gens_list(sg, rng, 0),
               "right": _gens_list(sg, rng, 0), "maximal": _points(DUP_MAXIMAL[rung], rng)}
    else:
        raise ValueError(kind)
    return _dump(doc, rng)


def _cli(name, rung, argv, doc, doc_id="", **expect):
    return Op(name=name, rung=rung, doc_id=doc_id, argv=argv, doc=doc, expect=expect)


def construct_ops(rng):
    ops = []
    for rung in (13, 31):
        for kind in KINDS:
            for cmd in BUILD_COMMANDS:
                ops.append(_cli("%s:%s" % (cmd, kind), rung, [cmd, "-"],
                                build_doc(kind, rung, rng), "%s%d" % (kind, rung), golden=True))
    # at C=55 each kind runs one build command, chosen by the seed, so that
    # every command appears twice
    cmds = list(BUILD_COMMANDS) * 2
    rng.shuffle(cmds)
    for kind, cmd in zip(KINDS, cmds):
        ops.append(_cli("%s:%s" % (cmd, kind), 55, [cmd, "-"], build_doc(kind, 55, rng),
                        "%s55" % (kind,), golden=True))
    ops.append(_cli("check:duplication", 97, ["check", "-"], build_doc("duplication", 97, rng),
                    "duplication97", golden=True))
    return ops


# one is-mingens candidate per rung; "exact" runs the whole minimality test
IS_MINGENS_VARIANT = {13: "missing", 31: "extra", 55: "exact"}


def _is_mingens_candidate(rung, variant, rng):
    """The minimal system itself, the minimal system plus a redundant
    element, or the minimal system without its last element."""
    mingens = list(DUP_MINGENS[rung])
    if variant == "extra":
        pts, _ = duplication_small(rung)
        mingens += _redundant([p for p in pts if p not in mingens], rng, 1)
    elif variant == "missing":
        mingens.pop()
    rng.shuffle(mingens)
    return [list(p) for p in mingens]


def invariants_ops(rng):
    ops = []
    docs = [("duplication", 13), ("amalgamation", 13), ("duplication", 31), ("duplication", 55)]
    for kind, rung in docs:
        doc_id = "%s%d" % (kind, rung)
        for cmd in INVARIANT_COMMANDS:
            doc = build_doc(kind, rung, rng)
            name = "%s:%s" % (cmd, kind)
            if cmd == "member":
                top = rung + 2
                p = [rng.randint(0, top), rng.randint(0, top)]
                ops.append(_cli(name, rung, [cmd, "-", "--point", "%d,%d" % tuple(p)], doc,
                                doc_id, member=p))
            elif cmd == "is-mingens":
                if kind != "duplication":
                    continue  # candidates are pinned for the duplications only
                variant = IS_MINGENS_VARIANT[rung]
                gens = _is_mingens_candidate(rung, variant, rng)
                ops.append(_cli(name, rung, [cmd, "-", "--gens", json.dumps(gens)], doc,
                                doc_id, is_mingens=(gens, variant)))
            else:
                ops.append(_cli(name, rung, [cmd, "-"], doc, doc_id, golden=True))
    return ops


def _small_doc(pts, top, rng):
    return _dump({"kind": "small", "small": _points(pts, rng), "conductor": list(top)}, rng)


def _middle(cands):
    return sorted(cands)[len(cands) // 2]


def _fiber_max(pts, i):
    """Per value on axis i, the largest coordinate on the other axis."""
    out = {}
    for p in pts:
        if p[1 - i] > out.get(p[i], -1):
            out[p[i]] = p[1 - i]
    return out


def corrupt(pts, top, axiom):
    """A copy of a valid small set that violates the given axiom; zero and
    sum work in any dimension, the others in N^2.  The corrupted point is
    the middle candidate in lexicographic order."""
    pset = set(pts)
    if axiom == "zero":
        return [p for p in pts if any(p)], top
    if axiom == "sum":
        # remove a doubled point 2a below the conductor: a + a goes missing
        cands = [d for d in (tuple(2 * x for x in a) for a in pts if any(a))
                 if d in pset and all(x < t for x, t in zip(d, top))]
        s = _middle(cands)
        return [p for p in pts if p != s], top
    if axiom == "meet":
        # remove m with members above it on both axis fibers: their meet is m
        up = [_fiber_max(pts, 0), _fiber_max(pts, 1)]
        cands = [m for m in pts if any(m) and up[0][m[0]] > m[1] and up[1][m[1]] > m[0]]
        m = _middle(cands)
        return [p for p in pts if p != m], top
    if axiom == "witness":
        # a keeps a point above it on its axis-0 fiber, and every point
        # sharing a_1 beyond a on axis 0 is removed, so a has no witness
        i, j = 0, 1
        up = _fiber_max(pts, i)
        cands = [a for a in pts if all(a) and a[i] < top[i] and a[j] < top[j]
                 and up[a[i]] > a[j]]
        a = _middle(cands)
        return [p for p in pts if not (p[j] == a[j] and p[i] > a[i])], top
    if axiom == "conductor":
        # extend the border rays one step on axis 0: same semigroup, but the
        # declared conductor is no longer minimal
        i = 0
        new_top = tuple(t + 1 if k == i else t for k, t in enumerate(top))
        ext = [tuple(x + 1 if k == i else x for k, x in enumerate(p))
               for p in pts if p[i] == top[i]]
        return pts + ext, new_top
    raise ValueError(axiom)


def reject_ops(rng):
    ops = []
    for rung in RUNGS:
        pts, top = duplication_small(rung)
        for axiom in ("zero", "meet", "sum", "witness", "conductor"):
            bad, btop = corrupt(pts, top, axiom)
            ops.append(_cli("check:corrupt-" + axiom, rung, ["check", "-"],
                            _small_doc(bad, btop, rng), rc=1, axiom=axiom))
        gens = rng.choice(WITNESS_GENS[rung])
        doc = {"kind": "generators", "generators": _points(gens, rng), "conductor": [rung, rung]}
        ops.append(_cli("check:witness-generators", rung, ["check", "-"], _dump(doc, rng),
                        rc=1, axiom="witness"))
    # n = 3 products go through the general-n validator
    pts3, top3 = product3_small()
    ops.append(_cli("check:n3-valid", 13, ["check", "-"], _small_doc(pts3, top3, rng),
                    rc=0, valid3=(pts3, top3)))
    for axiom in ("zero", "sum"):
        ops.append(_cli("check:n3-corrupt-" + axiom, 13, ["check", "-"],
                        _small_doc(corrupt(pts3, top3, axiom)[0], top3, rng),
                        rc=1, axiom=axiom))
    for cmd in ("maximal", "canonical", "arf-closure"):
        ops.append(_cli("%s:n3" % (cmd,), 13, [cmd, "-"], _small_doc(pts3, top3, rng), rc=3))
    # non-local inputs to operations that need a local semigroup
    for rung in (13, 31):
        for cmd in ("mingens", "canonical"):
            ops.append(_cli("%s:nonlocal" % (cmd,), rung, [cmd, "-"],
                            build_doc("cartesian", rung, rng), rc=4))
    # malformed documents and arguments
    dup13 = build_doc("duplication", 13, rng)
    malformed = [
        (["check", "-"], "{\"kind\": \"small\", \"small\": [[0, 0]"),
        (["check", "-"], "[[0, 0], [3, 3]]"),
        (["small", "-"], json.dumps({"kind": "tetrahedron"})),
        (["small", "-"], json.dumps({"kind": "generators", "generators": [[3, "x"]],
                                     "conductor": [13, 13]})),
        (["construct", "-"], json.dumps({"kind": "duplication", "semigroup": [0], "ideal": [5]})),
        (["construct", "-"], json.dumps({"kind": "amalgamation", "semigroup": [4, 5],
                                         "target": [2, 3], "ideal": [11], "factor": 0})),
        (["check", "-"], json.dumps({"kind": "small", "small": [[0, 0], [20, 3]],
                                     "conductor": [13, 13]})),
        (["member", "-", "--point", "3,x"], dup13),
        (["is-mingens", "-", "--gens", "[[3, 3],"], dup13),
    ]
    for argv, doc in malformed:
        ops.append(_cli("%s:malformed" % (argv[0],), 13, argv, doc, rc=2))
    # the known defects, counted apart from unexpected failures
    gens13 = [list(p) for p in DUP_MINGENS[13]]
    conductor = [13, 13]
    conductor[rng.randint(0, 1)] = -rng.randint(1, 5)
    ops.append(_cli("defect:negative-conductor", 13, ["check", "-"],
                    json.dumps({"kind": "generators", "generators": gens13,
                                "conductor": conductor}), rc=2))
    bad = gens13 + [[3, 3, rng.randint(1, 9)]]
    rng.shuffle(bad)
    ops.append(_cli("defect:generator-dimension", 13, ["check", "-"],
                    json.dumps({"kind": "generators", "generators": bad,
                                "conductor": [13, 13]}), rc=2))
    return ops


def _by_weight(pts):
    return sorted((p for p in pts if any(p)), key=lambda p: (p[0] + p[1], p))


def _mirror(p, rng):
    """p or its mirror image, which costs the same on a symmetric semigroup."""
    return p if rng.random() < 0.5 else (p[1], p[0])


def ideals_setup(goodsgp):
    """Build the ladder duplications and the fixed sum operands once."""
    sems = {}
    for rung in RUNGS:
        sg, eg = DUPLICATION[rung]
        s = goodsgp.ns_from_generators(sg)
        sems[rung] = goodsgp.duplication(s, goodsgp.ideal_from_generators(s, eg))
    operands = {}
    for rung in (13, 31):
        m = _by_weight(duplication_small(rung)[0])[0]
        operands[rung] = (m, goodsgp.gi_from_generators(sems[rung], [m]))
    return sems, operands


def ideals_groups(rng, goodsgp, sems, operands):
    """Library calls, one group per rung.  The ops of a group run in order
    and share a per-pass state, so the stability and generating-system ops
    act on the ideals built earlier in the same pass."""
    groups = []
    for rung in RUNGS:
        s = sems[rung]
        pts, top = duplication_small(rung)
        ranked = [p for p in _by_weight(pts) if p[0] != p[1]]
        h = _mirror(ranked[0], rng)
        a = _mirror(ranked[len(ranked) // 2], rng)
        p_key, t_key = "P%d" % rung, "T%d" % rung
        g = [
            Op("ideals:gi_from_generators", rung, key=p_key,
               call=lambda st, s=s, h=h: goodsgp.gi_from_generators(s, [h]),
               expect={"translate": (h, pts, top)}),
            Op("ideals:minimal_ideal_generating_system", rung,
               call=lambda st, k=p_key: goodsgp.minimal_ideal_generating_system(st[k]),
               expect={"points": [h]}),
            Op("ideals:is_stable:principal", rung,
               call=lambda st, k=p_key: goodsgp.is_stable(st[k]), expect={"value": True}),
            Op("ideals:tail_ideal", rung, key=t_key,
               call=lambda st, s=s, a=a: goodsgp.tail_ideal(s, a),
               expect={"tail": (a, pts, top)}),
            Op("ideals:is_stable:tail", rung,
               call=lambda st, k=t_key: goodsgp.is_stable(st[k]),
               expect={"stable_tail": (a, pts, top)}),
        ]
        if rung in operands:
            m, e = operands[rung]
            g.append(Op("ideals:sum_ideals", rung,
                        call=lambda st, e=e: goodsgp.sum_ideals(e, e),
                        expect={"translate": (tuple(2 * x for x in m), pts, top)}))
        groups.append(g)
    return groups


def build_ops(workload, seed, goodsgp):
    """The op list of a workload, generated from the seed, in seeded order.

    construct_reject: the build-and-validate ops of `construct` and the
    invalid inputs of `reject`.  invariants_ideals: the CLI invariants and
    the library ideal groups, whose semigroups are built here, in set-up.
    """
    rng = random.Random("%s:%d" % (workload, seed))
    if workload == "construct_reject":
        groups = [[op] for op in construct_ops(rng) + reject_ops(rng)]
    elif workload == "invariants_ideals":
        groups = [[op] for op in invariants_ops(rng)]
        groups += ideals_groups(rng, goodsgp, *ideals_setup(goodsgp))
        # the C=13 ops take milliseconds; repeating them gives the c13 rate
        # several seconds of samples per run instead of under one
        groups += [g for g in groups if g[0].rung == 13] * (C13_REPEAT - 1)
    else:
        raise ValueError("unknown workload %r" % (workload,))
    rng.shuffle(groups)
    return [op for g in groups for op in g]


def warmup_op():
    """The op run once in each set-up: a check of the C=13 duplication."""
    doc = build_doc("duplication", 13, random.Random(0))
    return Op("warmup", 13, argv=["check", "-"], doc=doc)
