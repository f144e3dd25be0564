"""Record golden.json: the outputs of the pinned benchmark documents.

    python3 bench/record_golden.py

Runs every pinned (document, command) pair through goodsgp.cli.run from this
checkout's src directory and stores the exit code and SHA-256 of stdout, plus
the small elements, conductor and minimal generating system the checks use.
The documents are the fixed per-rung documents of workloads.py; their
outputs do not depend on the seed.  The ladder constants of workloads.py
(small sets of the duplications, their minimal generating systems and
maximal elements) are cross-checked against the library on the way.
Recording takes about a minute, most of it the C=97 check.
"""

from __future__ import annotations

import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402
from checks import GOLDEN_PATH, digest  # noqa: E402
from run import import_goodsgp, run_cli  # noqa: E402

INVARIANT_GOLDEN = ("mingens", "canonical", "symmetric", "arf", "arf-closure", "maximal")


def record(goodsgp, kind, rung, commands, rng):
    doc = workloads.build_doc(kind, rung, rng)
    entry = {"out": {}}
    for cmd in commands:
        op = workloads.Op(name=cmd, rung=rung, argv=[cmd, "-"], doc=doc)
        rc, out, exc = run_cli(goodsgp.cli, op)
        if exc is not None:
            raise SystemExit("%s%d %s: %s" % (kind, rung, cmd, exc))
        entry["out"][cmd] = {"rc": rc, "sha256": digest(out)}
        if cmd == "small":
            payload = json.loads(out)
            entry["small"], entry["conductor"] = payload["small"], payload["conductor"]
        elif cmd == "mingens":
            entry["mingens"] = json.loads(out)["mingens"]
        elif cmd == "maximal":
            entry["maximal"] = json.loads(out)["maximal"]
    return entry


def main():
    goodsgp = import_goodsgp()
    rng = random.Random(0)
    docs = {}
    for rung in workloads.RUNGS:
        for kind in workloads.KINDS:
            commands = list(workloads.BUILD_COMMANDS)
            if (kind, rung) in (("duplication", 13), ("amalgamation", 13),
                                ("duplication", 31), ("duplication", 55)):
                commands += INVARIANT_GOLDEN
            docs["%s%d" % (kind, rung)] = record(goodsgp, kind, rung, commands, rng)
            print("recorded %s%d" % (kind, rung), flush=True)
        dup = docs["duplication%d" % (rung,)]
        pts, top = workloads.duplication_small(rung)
        if dup["small"] != [list(p) for p in pts] or dup["conductor"] != list(top):
            raise SystemExit("duplication%d: library small set differs from the definition" % rung)
        if dup["mingens"] != [list(p) for p in workloads.DUP_MINGENS[rung]]:
            raise SystemExit("duplication%d: DUP_MINGENS is stale" % (rung,))
        if dup["maximal"] != [list(p) for p in workloads.DUP_MAXIMAL[rung]]:
            raise SystemExit("duplication%d: DUP_MAXIMAL is stale" % (rung,))
    docs["duplication97"] = record(goodsgp, "duplication", 97, ["check"], rng)
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump({"python": sys.version.split()[0], "docs": docs}, fh, sort_keys=True)
        fh.write("\n")
    print("wrote " + GOLDEN_PATH)


if __name__ == "__main__":
    main()
