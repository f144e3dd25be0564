"""Command line interface.

One route serves every subcommand.  _COMMANDS maps each subcommand to its
help text, its extra arguments and an action; the parser is built from that
table.  `run` loads the JSON document (from a path, or "-" for stdin),
builds the semigroup it describes, calls the action on it and prints the
payload the action returns, JSON by default or aligned text with --format
text.  Point lists in the output are lexicographically sorted.  `check` and
`construct` act on the document itself, so that `check` can report a
document that fails to build; `plot` writes its text itself.  An error
stops the route where it is raised and is printed to stderr as one
"error: <message>" line, with the exit code that _EXIT_CODES gives its type.

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
malformed input (negative coordinates, dimension mismatches and JSON nested
too deeply included), 3 unsupported dimension, 4 operation needs a local
semigroup, 5 the output could not be written (silently for a closed pipe,
with one "error:" line otherwise, such as for a full disk).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import chain

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
EXIT_OUTPUT = 5


class _InputError(Exception):
    """Unreadable or malformed input; maps to exit code 2."""


def _json(text: str, where: str = ""):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise _InputError("invalid JSON%s: %s" % (where, exc))
    except RecursionError:
        raise _InputError("invalid JSON%s: nested too deeply" % (where,))


def _load_doc(path: str) -> dict:
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        raise _InputError("cannot read %s: %s" % (path, exc))
    doc = _json(text)
    if not isinstance(doc, dict):
        raise _InputError("the top level of the document must be an object")
    return doc


def _ints(val) -> bool:
    """Is val a nonempty list of integers?"""
    return isinstance(val, list) and bool(val) and all(
        isinstance(x, int) and not isinstance(x, bool) for x in val
    )


def _int_list(doc, key) -> list:
    val = doc.get(key)
    if not _ints(val):
        raise _InputError('"%s" must be a nonempty list of integers' % (key,))
    return val


def _point_list(doc, key) -> list:
    """The point lists of doc[key], handed on unchanged once one scan of
    the item types, one for empty items and one of the coordinate types
    find nonempty lists of ints only (for JSON data, _ints of every item)."""
    val = doc.get(key)
    if not isinstance(val, list):
        raise _InputError('"%s" must be a list of integer points' % (key,))
    if not (set(map(type, val)) <= {list} and all(val) and set(map(type, chain(*val))) <= {int}):
        raise _InputError('"%s" must contain integer point lists' % (key,))
    return val


def _numerical(doc, key):
    try:
        return ns_from_generators(_int_list(doc, key))
    except ValueError as exc:
        raise _InputError('bad "%s": %s' % (key, exc))


def _ideal(doc, ambient):
    try:
        return ideal_from_generators(ambient, _int_list(doc, "ideal"))
    except ValueError as exc:
        raise _InputError('bad "ideal": %s' % (exc,))


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
        return duplication(s, _ideal(doc, s))
    if kind == "amalgamation":
        s = _numerical(doc, "semigroup")
        t = _numerical(doc, "target")
        factor = doc.get("factor")
        if not isinstance(factor, int) or isinstance(factor, bool) or factor < 1:
            raise _InputError('"factor" must be a positive integer')
        return amalgamation(s, t, _ideal(doc, t), factor)
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


def _small_payload(small) -> dict:
    """The points of a small set, read off its rows, and its conductor."""
    return {"small": list(_row_tuples(small.rows, small.top)), "conductor": list(small.top)}


def _lists(points) -> list:
    return [list(p) for p in points]


def _check(doc, args) -> dict:
    try:
        s = build_semigroup(doc)
    except NotGoodSemigroup as exc:
        payload = {
            "valid": False,
            "violations": [
                {"axiom": v.axiom, "witness": _lists(v.witness), "axis": v.axis, "detail": v.detail}
                for v in exc.report.violations
            ],
        }
        if exc.small is not None:
            payload.update(_small_payload(exc.small))
        return payload
    except ConstructionError as exc:
        return {"valid": False, "error": str(exc)}
    return dict(_small_payload(s.small), valid=True)


def _construct(doc, args) -> dict:
    s = build_semigroup(doc)
    return dict(_small_payload(s.small), kind=doc.get("kind", "generators"), local=is_local(s))


def _member(s, args) -> dict:
    p = _parse_point(args.point, s.dim)
    return {"point": list(p), "member": gs_contains(s, p)}


def _is_mingens(s, args) -> dict:
    pts = _point_list({"gens": _json(args.gens, " in --gens")}, "gens")
    payload = {"gens": _lists(pts)}
    try:
        payload.update(generating=True, is_minimal=is_minimal_system(pts, s))
    except NotAGeneratingSystem as exc:
        payload.update(generating=False, is_minimal=False, reason=str(exc))
    return payload


def _canonical(s, args) -> dict:
    payload = _small_payload(canonical_ideal(s).small)
    return dict(payload, generators=_lists(canonical_generators(s)))


def _saturate(s, args) -> dict:
    if args.box is None:
        box = Point(c + 3 for c in s.conductor)
    else:
        box = _parse_point(args.box, s.dim)
    closure = arf_closure(s)  # n = 2 only: refuse other dimensions before the box work
    if any(x < 0 for x in box):
        raise _InputError("box %s has a negative coordinate" % (tuple(box),))
    sat = arf_saturation(s, box)
    inf = _lists(_row_tuples(_meet_closure(_rows(sat, box), box), box))
    closure_in_box = _lists(_row_tuples(_box_rows(closure.small, box), box))
    return {
        "box": list(box),
        "saturation": _lists(sat),
        "infima_closure": inf,
        "closure_in_box": closure_in_box,
        "agrees": inf == closure_in_box,
    }


def _plot(s, args) -> None:
    text = render_plot(s, args.style)
    if not args.output:
        sys.stdout.write(text)
        return
    try:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _InputError("cannot write %s: %s" % (args.output, exc))


# name -> (help, whether the action takes the document instead of its semigroup,
# action, extra arguments as (flag, keywords)...); an action returns the payload
# to print, or None when it wrote its output itself
_COMMANDS = {
    "check": ("validate the document", True, _check),
    "small": ("list the small elements", False, lambda s, args: _small_payload(s.small)),
    "construct": ("build from a construction document", True, _construct),
    "member": ("test one point", False, _member,
               ("--point", dict(required=True, help="comma separated coordinates, e.g. 4,2"))),
    "mingens": ("minimal good generating system", False,
                lambda s, args: {"mingens": _lists(minimal_generating_system(s))}),
    "is-mingens": ("test a candidate generating system", False, _is_mingens,
                   ("--gens", dict(required=True, help="JSON list of points, e.g. [[4,2],[6,3]]"))),
    "maximal": ("maximal elements", False,
                lambda s, args: {"maximal": _lists(maximal_elements(s))}),
    "canonical": ("canonical ideal", False, _canonical),
    "symmetric": ("symmetry test", False, lambda s, args: {"symmetric": is_symmetric(s)}),
    "arf": ("Arf property test", False, lambda s, args: {"arf": is_arf(s)}),
    "arf-closure": ("smallest Arf semigroup above", False,
                    lambda s, args: dict(_small_payload(arf_closure(s).small), local=is_local(s))),
    "saturate": ("in box saturation experiment", False, _saturate,
                 ("--box", dict(help="comma separated box corner; default conductor + 3"))),
    "plot": ("draw the semigroup", False, _plot,
             ("--style", dict(choices=("svg", "ascii"), default="svg")),
             ("--output", dict(help="write to a file instead of stdout"))),
}

# the first entry whose type an error has gives its exit code
_EXIT_CODES = (
    (_InputError, EXIT_PARSE),
    (UnsupportedDimension, EXIT_DIMENSION),
    (NonLocalError, EXIT_NONLOCAL),
    (ValueError, EXIT_PARSE),  # argument-domain checks, DimensionMismatch among them
    (GoodSgpError, EXIT_INVALID),
)


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
    for name, (help_text, _on_document, _action, *arguments) in _COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=help_text)
        for flag, keywords in arguments:
            p.add_argument(flag, **keywords)
    return parser


def run(argv=None) -> int:
    """Parse arguments, run one subcommand, and map errors to exit codes;
    errors go to stderr as one "error: <message>" line."""
    args = _build_parser().parse_args(argv)
    _help, on_document, action, *_arguments = _COMMANDS[args.command]
    try:
        doc = _load_doc(args.input)
        payload = action(doc if on_document else build_semigroup(doc), args)
    except tuple(error for error, _code in _EXIT_CODES) as exc:
        print("error: %s" % (exc,), file=sys.stderr)
        return next(code for error, code in _EXIT_CODES if isinstance(exc, error))
    if payload is None:
        return EXIT_OK
    _emit(args, payload)
    return EXIT_INVALID if payload.get("valid") is False else EXIT_OK


def main(argv=None) -> int:
    """run, then flush stdout.  Output that cannot be written exits
    EXIT_OUTPUT with no traceback, and stdout is pointed at the null
    device, so that the interpreter's flush at exit does not fail again."""
    try:
        code = run(argv)
        sys.stdout.flush()
    except OSError as exc:  # BrokenPipeError for a closed pipe
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if not isinstance(exc, BrokenPipeError):
            print("error: cannot write stdout: %s" % (exc,), file=sys.stderr)
        return EXIT_OUTPUT
    return code


if __name__ == "__main__":
    sys.exit(main())
