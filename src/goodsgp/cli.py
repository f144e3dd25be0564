"""Command line interface.

Every subcommand reads a JSON document describing a semigroup (from a path
or "-" for stdin), runs one operation, and prints the result, JSON by
default or aligned text with --format text.  Point lists in the output are
lexicographically sorted.

Document kinds:

    {"kind": "generators", "generators": [[4, 2], [6, 3]], "conductor": [29, 15]}
    {"kind": "small", "small": [[0, 0], ...], "conductor": [8, 8]}
    {"kind": "duplication", "semigroup": [2, 3], "ideal": [6]}
    {"kind": "amalgamation", "semigroup": [2, 3], "target": [3, 4],
     "ideal": [3], "factor": 2}
    {"kind": "cartesian", "left": [3, 5, 7], "right": [4, 5]}
    {"kind": "maximal", "left": [4, 6, 13], "right": [2, 3],
     "maximal": [[4, 2], ...]}

For "small" the conductor may be omitted when it equals the componentwise
maximum of the points.  "ideal" lists numerical generators of the ideal
over the base semigroup ("duplication") or over the target ("amalgamation").

Exit codes: 0 success, 1 failed validation or construction, 2 unreadable or
malformed input (negative coordinates and dimension mismatches included),
3 unsupported dimension, 4 operation needs a local semigroup.
"""

from __future__ import annotations

import argparse
import json
import sys

from .arf import arf_closure, arf_saturation, is_arf
from .constructions import amalgamation, cartesian, duplication, from_maximal_elements
from .errors import (
    ConstructionError,
    GoodSgpError,
    NonLocalError,
    NotAGeneratingSystem,
    NotGoodSemigroup,
    UnsupportedDimension,
)
from .gensys import is_minimal_system, minimal_generating_system
from .ideals import canonical_generators, canonical_ideal, is_symmetric
from .lattice import Point
from .numerical import ideal_from_generators, ns_from_generators
from .plot import render_plot
from .semigroup import (
    GoodSemigroup,
    _box_rows,
    _meet_closure,
    _row_tuples,
    _rows,
    good_semigroup,
    gs_contains,
    gs_from_generators,
    is_local,
    maximal_elements,
    small_set,
)

__all__ = ["main", "run"]

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_PARSE = 2
EXIT_DIMENSION = 3
EXIT_NONLOCAL = 4


class _InputError(Exception):
    """Unreadable or malformed input; maps to exit code 2."""


def _load_doc(path: str) -> dict:
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        raise _InputError("cannot read %s: %s" % (path, exc))
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise _InputError("invalid JSON: %s" % (exc,))
    if not isinstance(doc, dict):
        raise _InputError("the top level of the document must be an object")
    return doc


def _int_list(doc, key) -> list:
    val = doc.get(key)
    if not isinstance(val, list) or not val or not all(
        isinstance(x, int) and not isinstance(x, bool) for x in val
    ):
        raise _InputError('"%s" must be a nonempty list of integers' % (key,))
    return val


def _point_list(doc, key) -> list:
    val = doc.get(key)
    if not isinstance(val, list):
        raise _InputError('"%s" must be a list of integer points' % (key,))
    pts = []
    for item in val:
        if not isinstance(item, list) or not item or not all(
            isinstance(x, int) and not isinstance(x, bool) for x in item
        ):
            raise _InputError('"%s" must contain integer point lists' % (key,))
        pts.append(tuple(item))
    return pts


def _numerical(doc, key):
    try:
        return ns_from_generators(_int_list(doc, key))
    except ValueError as exc:
        raise _InputError('bad "%s": %s' % (key, exc))


def build_semigroup(doc: dict) -> GoodSemigroup:
    """Materialize the semigroup a document describes.

    Raises _InputError for malformed documents; mathematical failures
    (validation, construction preconditions) raise their library errors.
    """
    kind = doc.get("kind")
    if kind == "generators":
        gens = _point_list(doc, "generators")
        conductor = _int_list(doc, "conductor")
        return gs_from_generators(gens, conductor)
    if kind == "small":
        pts = _point_list(doc, "small")
        top = _int_list(doc, "conductor") if "conductor" in doc else None
        try:
            small = small_set(pts, top)
        except ValueError as exc:
            raise _InputError(str(exc))
        return good_semigroup(small)
    if kind == "duplication":
        s = _numerical(doc, "semigroup")
        try:
            e = ideal_from_generators(s, _int_list(doc, "ideal"))
        except ValueError as exc:
            raise _InputError('bad "ideal": %s' % (exc,))
        return duplication(s, e)
    if kind == "amalgamation":
        s = _numerical(doc, "semigroup")
        t = _numerical(doc, "target")
        factor = doc.get("factor")
        if not isinstance(factor, int) or isinstance(factor, bool) or factor < 1:
            raise _InputError('"factor" must be a positive integer')
        try:
            e = ideal_from_generators(t, _int_list(doc, "ideal"))
        except ValueError as exc:
            raise _InputError('bad "ideal": %s' % (exc,))
        return amalgamation(s, t, e, factor)
    if kind == "cartesian":
        return cartesian(_numerical(doc, "left"), _numerical(doc, "right"))
    if kind == "maximal":
        s1 = _numerical(doc, "left")
        s2 = _numerical(doc, "right")
        return from_maximal_elements(s1, s2, _point_list(doc, "maximal"))
    raise _InputError('unknown document kind %r' % (kind,))


def _parse_point(text: str, dim: int) -> Point:
    parts = text.split(",")
    try:
        coords = [int(x) for x in parts]
    except ValueError:
        raise _InputError("point %r is not a comma separated integer list" % (text,))
    if len(coords) != dim:
        raise _InputError("point %r has %d coordinates, expected %d" % (text, len(coords), dim))
    return Point(coords)


def _fmt_value(v):
    if isinstance(v, bool):
        return "yes" if v else "no"
    if isinstance(v, (list, tuple)):
        if v and isinstance(v[0], (list, tuple)):
            return " ".join("(%s)" % ", ".join(str(x) for x in p) for p in v)
        return "(%s)" % ", ".join(str(x) for x in v)
    return str(v)


def _emit(args, payload: dict):
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        for key in sorted(payload):
            print("%s: %s" % (key, _fmt_value(payload[key])))


def _small_points(small) -> list:
    """The points of a small set as tuples, read off its rows."""
    return list(_row_tuples(small.rows, small.top))


def cmd_check(args) -> int:
    doc = _load_doc(args.input)
    try:
        s = build_semigroup(doc)
    except NotGoodSemigroup as exc:
        payload = {
            "valid": False,
            "violations": [
                {
                    "axiom": v.axiom,
                    "witness": [list(w) for w in v.witness],
                    "axis": v.axis,
                    "detail": v.detail,
                }
                for v in exc.report.violations
            ],
        }
        if exc.small is not None:
            payload["small"] = _small_points(exc.small)
            payload["conductor"] = list(exc.small.top)
        _emit(args, payload)
        return EXIT_INVALID
    except ConstructionError as exc:
        _emit(args, {"valid": False, "error": str(exc)})
        return EXIT_INVALID
    _emit(args, {"valid": True, "small": _small_points(s.small), "conductor": list(s.conductor)})
    return EXIT_OK


def cmd_small(args) -> int:
    s = build_semigroup(_load_doc(args.input))
    _emit(args, {"small": _small_points(s.small), "conductor": list(s.conductor)})
    return EXIT_OK


def cmd_construct(args) -> int:
    doc = _load_doc(args.input)
    s = build_semigroup(doc)
    _emit(
        args,
        {
            "kind": doc.get("kind", "generators"),
            "small": _small_points(s.small),
            "conductor": list(s.conductor),
            "local": is_local(s),
        },
    )
    return EXIT_OK


def cmd_member(args) -> int:
    s = build_semigroup(_load_doc(args.input))
    p = _parse_point(args.point, s.dim)
    _emit(args, {"point": list(p), "member": gs_contains(s, p)})
    return EXIT_OK


def cmd_mingens(args) -> int:
    s = build_semigroup(_load_doc(args.input))
    _emit(args, {"mingens": [list(p) for p in minimal_generating_system(s)]})
    return EXIT_OK


def cmd_is_mingens(args) -> int:
    s = build_semigroup(_load_doc(args.input))
    try:
        gens = json.loads(args.gens)
    except json.JSONDecodeError as exc:
        raise _InputError("invalid JSON in --gens: %s" % (exc,))
    pts = _point_list({"gens": gens}, "gens")
    try:
        minimal = is_minimal_system(pts, s)
    except NotAGeneratingSystem as exc:
        _emit(
            args,
            {
                "gens": [list(p) for p in pts],
                "generating": False,
                "is_minimal": False,
                "reason": str(exc),
            },
        )
        return EXIT_OK
    _emit(args, {"gens": [list(p) for p in pts], "generating": True, "is_minimal": minimal})
    return EXIT_OK


def cmd_maximal(args) -> int:
    s = build_semigroup(_load_doc(args.input))
    _emit(args, {"maximal": [list(p) for p in maximal_elements(s)]})
    return EXIT_OK


def cmd_canonical(args) -> int:
    s = build_semigroup(_load_doc(args.input))
    k = canonical_ideal(s)
    _emit(
        args,
        {
            "small": _small_points(k.small),
            "conductor": list(k.small.top),
            "generators": [list(p) for p in canonical_generators(s)],
        },
    )
    return EXIT_OK


def cmd_symmetric(args) -> int:
    s = build_semigroup(_load_doc(args.input))
    _emit(args, {"symmetric": is_symmetric(s)})
    return EXIT_OK


def cmd_arf(args) -> int:
    s = build_semigroup(_load_doc(args.input))
    _emit(args, {"arf": is_arf(s)})
    return EXIT_OK


def cmd_arf_closure(args) -> int:
    s = build_semigroup(_load_doc(args.input))
    t = arf_closure(s)
    _emit(
        args,
        {
            "small": _small_points(t.small),
            "conductor": list(t.conductor),
            "local": is_local(s),
        },
    )
    return EXIT_OK


def cmd_saturate(args) -> int:
    s = build_semigroup(_load_doc(args.input))
    if args.box is None:
        box = Point(c + 3 for c in s.conductor)
    else:
        box = _parse_point(args.box, s.dim)
    closure = arf_closure(s)  # n = 2 only: refuse other dimensions before the box work
    if any(x < 0 for x in box):
        raise _InputError("box %s has a negative coordinate" % (tuple(box),))
    sat = arf_saturation(s, box)
    inf = [list(p) for p in _row_tuples(_meet_closure(_rows(sat, box), box), box)]
    closure_in_box = [list(q) for q in _row_tuples(_box_rows(closure.small, box), box)]
    _emit(
        args,
        {
            "box": list(box),
            "saturation": [list(p) for p in sat],
            "infima_closure": inf,
            "closure_in_box": closure_in_box,
            "agrees": inf == closure_in_box,
        },
    )
    return EXIT_OK


def cmd_plot(args) -> int:
    s = build_semigroup(_load_doc(args.input))
    text = render_plot(s, args.style)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise _InputError("cannot write %s: %s" % (args.output, exc))
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("input", help="path to a JSON document, or - for stdin")
    common.add_argument(
        "--format", choices=("json", "text"), default="json", help="output format"
    )

    parser = argparse.ArgumentParser(
        prog="goodsgp", description="good semigroups of N^2: build, check, compute"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[common], help="validate the document")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("small", parents=[common], help="list the small elements")
    p.set_defaults(func=cmd_small)

    p = sub.add_parser(
        "construct", parents=[common], help="build from a construction document"
    )
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("member", parents=[common], help="test one point")
    p.add_argument("--point", required=True, help="comma separated coordinates, e.g. 4,2")
    p.set_defaults(func=cmd_member)

    p = sub.add_parser("mingens", parents=[common], help="minimal good generating system")
    p.set_defaults(func=cmd_mingens)

    p = sub.add_parser(
        "is-mingens", parents=[common], help="test a candidate generating system"
    )
    p.add_argument("--gens", required=True, help='JSON list of points, e.g. [[4,2],[6,3]]')
    p.set_defaults(func=cmd_is_mingens)

    p = sub.add_parser("maximal", parents=[common], help="maximal elements")
    p.set_defaults(func=cmd_maximal)

    p = sub.add_parser("canonical", parents=[common], help="canonical ideal")
    p.set_defaults(func=cmd_canonical)

    p = sub.add_parser("symmetric", parents=[common], help="symmetry test")
    p.set_defaults(func=cmd_symmetric)

    p = sub.add_parser("arf", parents=[common], help="Arf property test")
    p.set_defaults(func=cmd_arf)

    p = sub.add_parser("arf-closure", parents=[common], help="smallest Arf semigroup above")
    p.set_defaults(func=cmd_arf_closure)

    p = sub.add_parser(
        "saturate", parents=[common], help="in box saturation experiment"
    )
    p.add_argument("--box", help="comma separated box corner; default conductor + 3")
    p.set_defaults(func=cmd_saturate)

    p = sub.add_parser("plot", parents=[common], help="draw the semigroup")
    p.add_argument("--style", choices=("svg", "ascii"), default="svg")
    p.add_argument("--output", help="write to a file instead of stdout")
    p.set_defaults(func=cmd_plot)

    return parser


def run(argv=None) -> int:
    """Parse arguments, run one subcommand, and map errors to exit codes;
    errors go to stderr as one "error: <message>" line."""
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _InputError as exc:
        print("error: %s" % (exc,), file=sys.stderr)
        return EXIT_PARSE
    except UnsupportedDimension as exc:
        print("error: %s" % (exc,), file=sys.stderr)
        return EXIT_DIMENSION
    except NonLocalError as exc:
        print("error: %s" % (exc,), file=sys.stderr)
        return EXIT_NONLOCAL
    except ValueError as exc:
        # argument-domain checks, DimensionMismatch among them
        print("error: %s" % (exc,), file=sys.stderr)
        return EXIT_PARSE
    except GoodSgpError as exc:
        print("error: %s" % (exc,), file=sys.stderr)
        return EXIT_INVALID


def main(argv=None) -> int:
    return run(argv)


if __name__ == "__main__":
    sys.exit(main())
