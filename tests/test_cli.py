"""The command line tool, driven in process through its main entry point,
and in a separate interpreter where stdout cannot take its output."""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import pathlib
import random
import subprocess
import sys
from unittest import mock

import pytest

from goodsgp import cli

import _data as data
from _corpus import small_set_by_points


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _run(capsys, args):
    code = cli.main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


# an n = 3 product: the cube {0, 2, 3, ...}^3
_CUBE = {
    "dim": 3,
    "kind": "small",
    "small": [
        [0, 0, 0], [0, 0, 2], [0, 2, 0], [0, 2, 2],
        [2, 0, 0], [2, 0, 2], [2, 2, 0], [2, 2, 2],
    ],
    "conductor": [2, 2, 2],
}
# a local good semigroup of N^3
_LOCAL3 = {
    "kind": "small",
    "small": [[0, 0, 0], [1, 1, 3], [1, 2, 4], [2, 1, 3], [2, 2, 6]],
    "conductor": [2, 2, 6],
}


@pytest.fixture()
def dup_doc(tmp_path):
    return _write(
        tmp_path, "dup.json", {"kind": "duplication", "semigroup": [2, 3], "ideal": [6]}
    )


@pytest.fixture()
def cart_doc(tmp_path):
    return _write(
        tmp_path, "cart.json", {"kind": "cartesian", "left": [3, 5, 7], "right": [4, 5]}
    )


def test_check_valid_document(capsys, dup_doc):
    code, out, _ = _run(capsys, ["check", dup_doc])
    assert code == 0
    payload = json.loads(out)
    assert payload["valid"] is True
    assert payload["conductor"] == data.DUP_CONDUCTOR
    assert payload["small"] == sorted(map(list, data.points(data.DUP_SMALL)))


def test_check_reports_violations(capsys, tmp_path):
    doc = _write(
        tmp_path,
        "bad.json",
        {
            "kind": "small",
            "small": data.FIGURE_REJECTS[0]["closure"],
            "conductor": data.FIGURE_REJECTS[0]["conductor"],
        },
    )
    code, out, _ = _run(capsys, ["check", doc])
    assert code == 1
    payload = json.loads(out)
    assert payload["valid"] is False
    axioms = {v["axiom"] for v in payload["violations"]}
    assert axioms == {"witness"}
    first = payload["violations"][0]
    assert set(first) == {"axiom", "witness", "axis", "detail"}


def test_check_accepts_the_cartesian_product(capsys, cart_doc):
    code, out, _ = _run(capsys, ["check", cart_doc])
    assert code == 0
    assert json.loads(out)["valid"] is True


def test_small_round_trips_through_a_small_document(capsys, tmp_path, dup_doc):
    code, out, _ = _run(capsys, ["small", dup_doc])
    assert code == 0
    payload = json.loads(out)
    doc = _write(
        tmp_path,
        "resmall.json",
        {"kind": "small", "small": payload["small"], "conductor": payload["conductor"]},
    )
    code, out2, _ = _run(capsys, ["small", doc])
    assert code == 0
    assert json.loads(out2) == payload


def _point_list_by_items(doc, key):
    """cli._point_list with one _ints test per item, each point copied to a
    tuple: the reference for its checks and messages."""
    val = doc.get(key)
    if not isinstance(val, list):
        raise cli._InputError('"%s" must be a list of integer points' % (key,))
    pts = []
    for item in val:
        if not cli._ints(item):
            raise cli._InputError('"%s" must contain integer point lists' % (key,))
        pts.append(tuple(item))
    return pts


# small sets to build documents from: a local one, a product, one that
# fails validation, and one of N^3
_SMALL_BASES = [
    (data.DUP_SMALL, data.DUP_CONDUCTOR),
    (data.PRODUCT_SMALL, data.PRODUCT_CONDUCTOR),
    (data.FIGURE_REJECTS[0]["closure"], data.FIGURE_REJECTS[0]["conductor"]),
    (_LOCAL3["small"], _LOCAL3["conductor"]),
]
_JUNK = (1.0, 2.5, -0.0, True, False, "1", "", None, [], [1], [[0, 0]], {"x": 1})


def _junk_small_document(rng):
    """A "small" document as a user may write one: the points of a small
    set in any order, with repeats, up to three defects (a junk value for a
    coordinate or a point, a point with a coordinate more or less, [],
    a negative point, a point past the top, a point of the other dimension,
    the top left out, the list emptied or made [[]], or no list at all),
    and a conductor that is right, left out or malformed."""
    base, top = rng.choice(_SMALL_BASES)
    pts = [list(p) for p in base]
    rng.shuffle(pts)
    pts += rng.choices(pts, k=rng.randint(0, 3))
    for _ in range(rng.randint(0, 3)):
        i, defect, point = rng.randrange(len(pts) + 1), rng.randrange(11), list(rng.choice(base))
        if defect == 0:
            point[rng.randrange(len(point))] = rng.choice(_JUNK)
        elif defect == 1:
            point = rng.choice(_JUNK)
        elif defect == 2:
            point = point[:-1] if rng.random() < 0.5 else point + [0]
        elif defect == 3:
            point = []
        elif defect == 4:
            point = [rng.randint(-2, 0) for _ in top]
        elif defect == 5:
            point = [t + rng.randint(0, 2) for t in top]
        elif defect == 6:
            point = [0] * (5 - len(top))
        elif defect == 7:
            pts = [p for p in pts if p != list(top)]
            continue
        elif defect in (8, 9):
            pts = [] if defect == 8 else [[]]
            continue
        else:
            pts = rng.choice(({}, 3, "small", None))
            break
        pts.insert(i, point)
    doc = {"kind": "small", "small": pts}
    conductor = rng.choice((
        list(top), None, list(top) + [0], [t - 1 for t in top], [t + 1 for t in top], [],
        [list(top)], [float(t) for t in top], [True] * len(top), [-1] * len(top), "8,8", 8,
    ))
    if conductor is not None:
        doc["conductor"] = conductor
    return doc


def _cli_outcome(argv, stdin):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(stdin)), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def test_small_documents_read_as_by_the_point_route():
    # check and small print the same bytes and exit with the same code as
    # when each point is tested and copied on its own and the small set is
    # built from the sorted Points
    rng, codes = random.Random(2100), set()
    for _ in range(300):
        text = json.dumps(_junk_small_document(rng))
        for command in ("check", "small"):
            got = _cli_outcome([command, "-"], text)
            with mock.patch.object(cli, "_point_list", _point_list_by_items), \
                    mock.patch.object(cli, "small_set", small_set_by_points):
                assert got == _cli_outcome([command, "-"], text), text
            assert "Traceback" not in got[2]
            codes.add((command, got[0]))
    assert codes == {(command, code) for command in ("check", "small") for code in (0, 1, 2)}


def test_construct_summarizes_the_document(capsys, tmp_path):
    doc = _write(
        tmp_path,
        "gens.json",
        {
            "kind": "generators",
            "generators": data.CONDUCTOR_GENS,
            "conductor": data.CONDUCTOR_CONDUCTOR,
        },
    )
    code, out, _ = _run(capsys, ["construct", doc])
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "generators"
    assert payload["local"] is True
    assert payload["conductor"] == data.CONDUCTOR_CONDUCTOR


def test_construct_amalgamation(capsys, tmp_path):
    doc = _write(
        tmp_path,
        "am.json",
        {
            "kind": "amalgamation",
            "semigroup": [2, 3],
            "target": [3, 4],
            "ideal": [3],
            "factor": 2,
        },
    )
    code, out, _ = _run(capsys, ["construct", doc])
    assert code == 0
    payload = json.loads(out)
    assert payload["small"] == sorted(map(list, data.points(data.AMALG_SMALL)))
    assert payload["conductor"] == data.AMALG_CONDUCTOR


def test_member(capsys, dup_doc):
    code, out, _ = _run(capsys, ["member", dup_doc, "--point", "6,7"])
    assert code == 0 and json.loads(out)["member"] is True
    code, out, _ = _run(capsys, ["member", dup_doc, "--point", "1,1"])
    assert code == 0 and json.loads(out)["member"] is False
    code, _, err = _run(capsys, ["member", dup_doc, "--point", "x,y"])
    assert code == 2 and "error:" in err


def test_member_text_format(capsys, dup_doc):
    code, out, _ = _run(capsys, ["member", dup_doc, "--point", "6,7", "--format", "text"])
    assert code == 0
    assert out.splitlines() == ["member: yes", "point: (6, 7)"]


def test_mingens(capsys, dup_doc):
    code, out, _ = _run(capsys, ["mingens", dup_doc])
    assert code == 0
    assert json.loads(out)["mingens"] == sorted(map(list, data.points(data.DUP_MINGENS)))


def test_mingens_refuses_non_local_input(capsys, cart_doc):
    code, _, err = _run(capsys, ["mingens", cart_doc])
    assert code == 4
    assert "local" in err


def test_is_mingens(capsys, dup_doc):
    code, out, _ = _run(
        capsys, ["is-mingens", dup_doc, "--gens", json.dumps(data.DUP_MINGENS)]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["generating"] is True and payload["is_minimal"] is True

    code, out, _ = _run(capsys, ["is-mingens", dup_doc, "--gens", "[[2,2]]"])
    assert code == 0
    payload = json.loads(out)
    assert payload["generating"] is False and payload["is_minimal"] is False
    assert "reason" in payload


def test_generating_systems_answer_in_three_dimensions(capsys, tmp_path):
    doc = _write(tmp_path, "local3.json", _LOCAL3)
    code, out, _ = _run(capsys, ["mingens", doc])
    assert code == 0
    assert out == '{"mingens": [[1, 2, 4], [2, 1, 3]]}\n'
    code, out, _ = _run(capsys, ["is-mingens", doc, "--gens", "[[1,1,3],[1,2,4],[2,1,3]]"])
    assert code == 0
    payload = json.loads(out)
    assert payload["generating"] is True and payload["is_minimal"] is False
    # sets that do not generate, of points outside the semigroup or of
    # members missing from the minimal system, are reported as such
    for gens in ("[[1,1,1]]", "[[1,1,3]]", "[]"):
        code, out, _ = _run(capsys, ["is-mingens", doc, "--gens", gens])
        assert code == 0 and json.loads(out)["generating"] is False
    code, out, _ = _run(capsys, ["maximal", doc])
    assert (code, out) == (3, "")


def test_maximal(capsys, tmp_path):
    doc = _write(
        tmp_path,
        "gens.json",
        {
            "kind": "generators",
            "generators": data.CONDUCTOR_GENS,
            "conductor": data.CONDUCTOR_CONDUCTOR,
        },
    )
    code, out, _ = _run(capsys, ["maximal", doc])
    assert code == 0
    assert json.loads(out)["maximal"] == sorted(map(list, data.points(data.CONDUCTOR_MAXIMALS)))


def test_canonical(capsys, tmp_path):
    doc = _write(
        tmp_path, "dup35.json", {"kind": "duplication", "semigroup": [3, 5], "ideal": [3]}
    )
    code, out, _ = _run(capsys, ["canonical", doc])
    assert code == 0
    payload = json.loads(out)
    assert payload["small"] == sorted(map(list, data.points(data.DUP35_SMALL)))
    assert payload["conductor"] == data.DUP35_CONDUCTOR
    assert payload["generators"] == sorted(map(list, data.points(data.DUP35_CANONICAL_GENS)))


def test_symmetric_and_arf(capsys, dup_doc):
    code, out, _ = _run(capsys, ["symmetric", dup_doc])
    assert code == 0 and json.loads(out)["symmetric"] is True
    code, out, _ = _run(capsys, ["arf", dup_doc])
    assert code == 0 and json.loads(out)["arf"] is False


def test_arf_closure(capsys, tmp_path):
    doc = _write(
        tmp_path,
        "arfex1.json",
        {"kind": "small", "small": data.ARFEX1_SMALL, "conductor": data.ARFEX_CONDUCTOR},
    )
    code, out, _ = _run(capsys, ["arf-closure", doc])
    assert code == 0
    payload = json.loads(out)
    assert payload["small"] == sorted(map(list, data.points(data.ARFEX1_CLOSURE[0])))
    assert payload["conductor"] == list(data.ARFEX1_CLOSURE[1])


@pytest.mark.parametrize("command", ["arf-closure", "saturate"])
def test_non_local_closure_warns_on_one_stderr_line(capsys, cart_doc, command):
    # the product of the projection closures is exact, so nothing is printed
    # to stderr
    code, out, err = _run(capsys, [command, cart_doc])
    assert code == 0 and json.loads(out) and err == ""
    if command == "arf-closure":
        assert out == (
            '{"conductor": [5, 4], "local": false, '
            '"small": [[0, 0], [0, 4], [3, 0], [3, 4], [5, 0], [5, 4]]}\n'
        )


def test_saturate(capsys, tmp_path):
    doc = _write(
        tmp_path,
        "sat.json",
        {
            "kind": "small",
            "small": data.SATURATION_SMALL,
            "conductor": data.SATURATION_CONDUCTOR,
        },
    )
    code, out, _ = _run(capsys, ["saturate", doc, "--box", "8,8"])
    assert code == 0
    payload = json.loads(out)
    assert payload["box"] == data.SATURATION_BOX
    gap = sorted(
        set(map(tuple, payload["closure_in_box"])) - set(map(tuple, payload["saturation"]))
    )
    assert gap == [tuple(p) for p in data.SATURATION_GAP]
    assert payload["agrees"] is True  # the infima closure restores the gap


def test_saturate_refuses_three_dimensions_before_saturating(capsys, tmp_path, monkeypatch):
    doc = _write(tmp_path, "cube.json", _CUBE)

    def refuse(*args):
        raise AssertionError("saturated an n = 3 semigroup")

    monkeypatch.setattr(cli, "arf_saturation", refuse)
    code, out, err = _run(capsys, ["saturate", doc])
    assert code == 3
    assert "n = 2" in err and out == ""


def test_plot_ascii_to_stdout(capsys, dup_doc):
    code, out, _ = _run(capsys, ["plot", dup_doc, "--style", "ascii"])
    assert code == 0
    assert "conductor (8, 8)" in out


def test_plot_svg_to_file(capsys, tmp_path, dup_doc):
    target = tmp_path / "dup.svg"
    code, out, _ = _run(capsys, ["plot", dup_doc, "--output", str(target)])
    assert code == 0
    svg = target.read_text()
    assert svg.startswith("<svg ")
    assert svg.count("<circle") == len(data.DUP_SMALL)


def test_saturate_refuses_a_negative_box(capsys, dup_doc):
    code, out, err = _run(capsys, ["saturate", dup_doc, "--box=-1,3"])
    assert code == 2
    assert err.startswith("error:") and "negative" in err
    assert out == ""


def test_plot_to_an_unwritable_path_exits_two(capsys, tmp_path, dup_doc):
    target = tmp_path / "missing" / "dup.svg"
    code, out, err = _run(capsys, ["plot", dup_doc, "--output", str(target)])
    assert code == 2
    assert err.startswith("error: cannot write %s" % (target,))
    assert out == ""


def test_plot_refuses_three_dimensions(capsys, tmp_path):
    doc = _write(tmp_path, "cube.json", _CUBE)
    code, _, err = _run(capsys, ["check", doc])
    assert code == 0  # validation handles any dimension
    code, _, err = _run(capsys, ["plot", doc])
    assert code == 3
    assert "n = 2" in err


def _console(argv, stdout):
    """A separate interpreter running the command line tool, its stdin and
    stderr pipes."""
    src = str(pathlib.Path(cli.__file__).resolve().parent.parent)
    return subprocess.Popen(
        [sys.executable, "-m", "goodsgp.cli", *argv], stdin=subprocess.PIPE, stdout=stdout,
        stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=src))


# 127,478 bytes of output, more than a pipe holds
_CARTESIAN_127K = json.dumps({"kind": "cartesian", "left": [14, 15], "right": [16, 17]})


def test_a_closed_pipe_exits_five_silently():
    proc = _console(["small", "-"], subprocess.PIPE)
    proc.stdin.write(_CARTESIAN_127K.encode())
    proc.stdin.close()
    assert proc.stdout.read(20) == b'{"conductor": [182, '
    proc.stdout.close()  # as `head -c 20` does
    assert (proc.wait(timeout=60), proc.stderr.read()) == (5, b"")
    proc.stderr.close()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device that is always full")
@pytest.mark.parametrize("doc", [_CARTESIAN_127K, '{"kind": "small", "small": [[0, 0]]}'],
                         ids=["past-the-buffer", "within-the-buffer"])
def test_a_full_disk_exits_five_with_one_error_line(doc):
    with open("/dev/full", "wb") as full:
        proc = _console(["small", "-"], full)
        _, err = proc.communicate(doc.encode(), timeout=60)
    assert proc.returncode == 5
    assert err == b"error: cannot write stdout: [Errno 28] No space left on device\n"


def test_stdin_input(capsys, monkeypatch):
    doc = json.dumps({"kind": "duplication", "semigroup": [2, 3], "ideal": [6]})
    monkeypatch.setattr("sys.stdin", io.StringIO(doc))
    code, out, _ = _run(capsys, ["small", "-"])
    assert code == 0
    assert json.loads(out)["conductor"] == data.DUP_CONDUCTOR


def test_input_errors(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("{nope"))
    code, _, err = _run(capsys, ["check", "-"])
    assert code == 2 and "invalid JSON" in err

    monkeypatch.setattr("sys.stdin", io.StringIO('{"kind": "mystery"}'))
    code, _, err = _run(capsys, ["check", "-"])
    assert code == 2 and "unknown document kind" in err

    code, _, err = _run(capsys, ["check", str(tmp_path / "missing.json")])
    assert code == 2 and "cannot read" in err


@pytest.mark.parametrize(
    "argv, stdin, err",
    [
        (["check", "-"], "[" * 200000, "error: invalid JSON: nested too deeply\n"),
        (
            ["is-mingens", "-", "--gens", "[" * 100000],
            json.dumps({"kind": "duplication", "semigroup": [2, 3], "ideal": [6]}),
            "error: invalid JSON in --gens: nested too deeply\n",
        ),
    ],
    ids=["document", "gens"],
)
def test_deeply_nested_json_exits_two(capsys, monkeypatch, argv, stdin, err):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    assert _run(capsys, argv) == (2, "", err)


@pytest.mark.parametrize(
    "argv",
    [["member", "-"], ["nope", "-"], ["small", "-", "--format", "xml"]],
    ids=["missing-point", "unknown-command", "unknown-format"],
)
def test_the_parser_rejects_bad_arguments_with_usage(capsys, argv):
    with pytest.raises(SystemExit) as stop:
        cli.run(argv)
    assert stop.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("usage: goodsgp")


def test_subcommands_in_a_row_print_what_they_print_alone(capsys, dup_doc):
    member = ["member", dup_doc, "--point", "6,7", "--format", "text"]
    mingens = ["mingens", dup_doc]
    alone = {
        "member": (0, "member: yes\npoint: (6, 7)\n", ""),
        "mingens": (0, '{"mingens": [[2, 2], [3, 3], [6, 8], [8, 6]]}\n', ""),
    }
    for argv in (member, mingens, member, mingens):
        assert _run(capsys, argv) == alone[argv[0]]


def test_the_readme_lists_every_subcommand():
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    table = readme.read_text(encoding="utf-8").split("Subcommands:", 1)[1]
    rows = [line for line in table.split("\n\n", 2)[1].splitlines() if line.startswith("| `")]
    listed = [row[3:].split("`")[0].split()[0] for row in rows]
    (sub,) = [a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert sorted(listed) == sorted(sub.choices)


@pytest.mark.parametrize(
    "argv, doc",
    [
        (
            ["check"],
            {"kind": "generators", "generators": [[2, 3]], "conductor": [-2, 4]},
        ),
        (
            ["check"],
            {"kind": "generators", "generators": [[2, 3], [3, 3, 1]], "conductor": [4, 4]},
        ),
        (
            ["is-mingens", "--gens", "[[2, 2], [-1, 3]]"],
            {"kind": "duplication", "semigroup": [2, 3], "ideal": [6]},
        ),
        (
            ["maximal"],
            {"kind": "maximal", "left": [4, 6, 13], "right": [2, 3],
             "maximal": [[0, 0], [4, 2, 1]]},
        ),
        (
            ["maximal"],
            {"kind": "maximal", "left": [4, 6, 13], "right": [2, 3], "maximal": [[-4, 2]]},
        ),
        (
            ["maximal"],
            {"kind": "maximal", "left": [4, 6, 13], "right": [2, 3],
             "maximal": [[5, 2], [0, 0, 0]]},
        ),
    ],
    ids=["negative-conductor", "generator-dimension", "negative-gens-point",
         "maximal-dimension", "maximal-negative", "maximal-dimension-after-off-product"],
)
def test_argument_domain_errors_exit_two(capsys, tmp_path, argv, doc):
    path = _write(tmp_path, "doc.json", doc)
    code, out, err = _run(capsys, [argv[0], path] + argv[1:])
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1
    assert out == ""


def test_construction_errors_exit_one(capsys, tmp_path):
    doc = _write(
        tmp_path, "bad.json", {"kind": "duplication", "semigroup": [2, 3], "ideal": [1]}
    )
    code, out, _ = _run(capsys, ["check", doc])
    assert code == 1
    payload = json.loads(out)
    assert payload["valid"] is False
    assert "error" in payload
