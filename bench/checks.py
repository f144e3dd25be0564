"""Output checks for benchmark ops, run after the timed loop.

A CLI op's outcome is (exit code, stdout, escaped exception).  Pinned
outputs are compared with `golden.json` (exit code and SHA-256 of stdout),
recorded from the commit that introduced the benchmark.  At C <= 31 the
outputs that have a brute-force reference are also compared with
`goodsgp.oracle`: `brute_closure` for generators documents, `brute_member`
for member, `brute_arf_check` for arf and `brute_canonical` for canonical.
Reject ops are checked against the exit code the README documents and, for
failed validation, the axiom the corruption breaks.

Each check returns None when the outcome is right, else a message.
"""

from __future__ import annotations

import hashlib
import json
import os

from workloads import KNOWN_DEFECTS

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _json(text):
    try:
        return json.loads(text)
    except ValueError:
        return None


def load_golden():
    with open(GOLDEN_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def is_known_defect(op, outcome):
    """Does the op fail exactly as recorded when the benchmark was written?"""
    spec = KNOWN_DEFECTS.get(op.name)
    if spec is None:
        return False
    rc, _out, exc = outcome
    if "exc" in spec:
        return exc is not None and exc.split(":", 1)[0] == spec["exc"]
    return exc is None and rc == spec["rc"]


class Checker:
    """Checks outcomes against golden data and the goodsgp oracles."""

    def __init__(self, goodsgp, golden):
        self.g = goodsgp
        self.golden = golden["docs"]

    def _semigroup(self, doc_id):
        ref = self.golden[doc_id]
        small = self.g.SmallSet(tuple(sorted(self.g.Point(p) for p in ref["small"])),
                                self.g.Point(ref["conductor"]))
        return self.g.GoodSemigroup(small), ref

    def cli(self, op, outcome):
        rc, out, exc = outcome
        if exc is not None:
            return "exception escaped cli.run: " + exc
        exp = op.expect
        if "rc" in exp:
            return self._reject(op, rc, out)
        if rc != 0:
            return "exit code %d" % (rc,)
        payload = _json(out)
        if not isinstance(payload, dict):
            return "stdout is not a JSON object"
        if exp.get("golden"):
            pinned = self.golden[op.doc_id]["out"][op.argv[0]]
            if rc != pinned["rc"] or digest(out) != pinned["sha256"]:
                return "output differs from golden.json"
            if op.rung <= 31:
                return self._oracle(op, payload)
            return None
        if "member" in exp:
            ref = self.golden[op.doc_id]
            want = self.g.brute_member(ref["small"], ref["conductor"], exp["member"])
            if payload != {"member": want, "point": exp["member"]}:
                return "member answer differs from the reference"
            return None
        if "is_mingens" in exp:
            gens, variant = exp["is_mingens"]
            if (payload.get("gens") != gens
                    or payload.get("generating") != (variant != "missing")
                    or payload.get("is_minimal") != (variant == "exact")):
                return "is-mingens verdict wrong for the %s candidate" % (variant,)
            return None
        return "op has no expectation"

    def _oracle(self, op, payload):
        cmd, kind = op.name.split(":", 1)
        if kind == "generators" and cmd in ("check", "small", "construct"):
            doc = json.loads(op.doc)
            ref = self.g.brute_closure(doc["generators"], doc["conductor"])
            if (payload["small"] != [list(p) for p in ref.points]
                    or payload["conductor"] != list(ref.top)):
                return "small set differs from brute_closure"
        elif cmd == "arf":
            s, ref = self._semigroup(op.doc_id)
            if payload["arf"] != self.g.brute_arf_check(s, ref["conductor"]):
                return "arf verdict differs from brute_arf_check"
        elif cmd == "canonical":
            s, _ = self._semigroup(op.doc_id)
            ref = self.g.brute_canonical(s)
            if (payload["small"] != [list(p) for p in ref.points]
                    or payload["conductor"] != list(ref.top)):
                return "canonical ideal differs from brute_canonical"
        return None

    def _reject(self, op, rc, out):
        exp = op.expect
        if rc != exp["rc"]:
            return "exit code %d, the README documents %d" % (rc, exp["rc"])
        if rc >= 2:
            return None if out == "" else "error run printed to stdout"
        if "valid3" in exp:
            pts, top = exp["valid3"]
            want = json.dumps({"valid": True, "small": [list(p) for p in sorted(pts)],
                               "conductor": list(top)}, sort_keys=True) + "\n"
            return None if out == want else "n = 3 product output differs"
        payload = _json(out)
        if not isinstance(payload, dict):
            return "stdout is not a JSON object"
        axioms = [v.get("axiom") for v in payload.get("violations", [])]
        if payload.get("valid") is not False or exp["axiom"] not in axioms:
            return "expected a %s violation, got %r" % (exp["axiom"], axioms)
        return None

    def library(self, op, result):
        """Check a normalized library result: a boolean, a point list, or
        an ideal as (small points, conductor)."""
        exp = op.expect
        if "value" in exp:
            return None if result == exp["value"] else "got %r" % (result,)
        if "points" in exp:
            got = [tuple(p) for p in result]
            return None if got == [tuple(p) for p in exp["points"]] else "got %r" % (got,)
        got = result
        if "translate" in exp:
            h, pts, top = exp["translate"]
            want = (sorted(tuple(x + y for x, y in zip(h, p)) for p in pts),
                    tuple(x + y for x, y in zip(h, top)))
            return None if got == want else "ideal is not the translate of the semigroup"
        if "tail" in exp:
            return None if got == self._tail(*exp["tail"]) else "tail ideal differs"
        if "stable_tail" in exp:
            want = self._tail_stable(*exp["stable_tail"])
            return None if result == want else "stability verdict %r, expected %r" % (result, want)
        return "op has no expectation"

    def _tail(self, a, pts, top):
        corner = tuple(max(x, t) for x, t in zip(a, top))
        box = [(x, y) for x in range(a[0], corner[0] + 1) for y in range(a[1], corner[1] + 1)]
        return [p for p in box if self.g.brute_member(pts, top, p)], corner

    def _tail_stable(self, a, pts, top):
        # with a = min(E), E + E = a + E holds exactly when e1 + e2 - a is a
        # member for all small e1, e2 (it dominates a, so E and S agree on
        # it); membership is oracle.brute_member with its point set built once
        pset = set(map(tuple, pts))

        def member(p):
            base = tuple(min(x, t) for x, t in zip(p, top))
            return base in pset and all(base[i] == top[i] for i in range(2) if p[i] > top[i])

        tail, _ = self._tail(a, pts, top)
        return all(member(tuple(x + y - z for x, y, z in zip(e1, e2, a)))
                   for i, e1 in enumerate(tail) for e2 in tail[i:])
