"""Golden outputs: exit codes and sha256 digests of stdout and stderr.

Every run feeds a ``corpus emit`` document on stdin to ``graph analyze``,
``elliptic sequence`` or ``classify --pg 1..9`` with ``--format json``,
and again with ``--format text`` (whose renderer prints each dict in
insertion order, so a reordered key shows there), for fig2312, fig244 and
brell3 at parameters 1-4; ``verify-paper --format json`` runs once.
``elliptic sequence`` and ``classify --pg 2`` also run, in JSON, on three
documents no family emits: one not elliptic, one elliptic but not
numerically Gorenstein, and one not minimal, to pin the refusals.
``--help`` at the top level, on each group and on each leaf command, and
six malformed command lines, pin the help and usage text at a terminal
width of 80 columns.  The equation side runs each line of ``EQUATIONS``
in JSON and in text: ``wh``, ``brieskorn`` and ``artinian colength``
(with and without ``--saturate``) on the corpus equations, the spellings
the parser accepts, and its parse errors.  A refactor that keeps the
answers keeps every digest.  When an output is meant to change, regenerate the table with

    PYTHONPATH=src python tests/test_golden.py > tests/golden_digests.json

and say in the change log which outputs moved and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from singlab import corpus
from singlab.cli import main

FAMILIES = ("fig2312", "fig244", "brell3")
PARAMS = (1, 2, 3, 4)
# (subcommand words, options after the file argument)
COMMANDS = (
    (("graph", "analyze"), ()),
    (("elliptic", "sequence"), ()),
    *((("classify",), ("--pg", str(pg))) for pg in range(1, 10)),
)
# the top level, its four groups and its eight leaf commands, each with --help
HELP = ((), ("graph",), ("elliptic",), ("artinian",), ("corpus",),
        ("graph", "analyze"), ("elliptic", "sequence"), ("classify",), ("brieskorn",), ("wh",),
        ("artinian", "colength"), ("corpus", "emit"), ("verify-paper",))
# malformed command lines: a bad value, missing arguments, a bare group, no
# command, an unknown command
MALFORMED = (("classify", "-", "--pg", "abc"), ("brieskorn", "2", "3"), ("graph",), (),
             ("nosuch",), ("wh", "--weights", "1,1,1"))
# (name, document): a rational (-2)-curve; a genus-1 (-2)-curve with a (-3)
# leaf, elliptic with K = (-7/5, -4/5); a genus-1 (-2)-curve with a genus-0
# (-1) leaf, elliptic and numerically Gorenstein
REFUSED = (
    ("not-elliptic", '{"vertices": [{"id": "A", "self": -2, "genus": 0}], "edges": []}'),
    ("not-gorenstein", '{"vertices": [{"id": "A", "self": -2, "genus": 1}, '
                       '{"id": "B", "self": -3, "genus": 0}], '
                       '"edges": [{"ends": ["A", "B"], "mult": 1}]}'),
    ("not-minimal", '{"vertices":[{"id":"V0","self":-2,"genus":1},{"id":"V1","self":-1,"genus":0}],'
                    '"edges":[{"ends":["V0","V1"],"mult":1}]}'),
)
REFUSED_COMMANDS = ((("elliptic", "sequence"), ()), (("classify",), ("--pg", "2")))


def _equation_lines():
    """``wh``, ``brieskorn`` and ``artinian colength`` command lines on the
    corpus equations at parameters 1 and 2."""
    lines = []
    for n in (1, 2):
        for weights, poly in (corpus.fig2312_equation_low_pg(n), corpus.fig2312_equation_high_pg(n),
                              corpus.fig244_equation(n), corpus.brell3_equation(n)):
            lines += [("wh", "--weights", ",".join(map(str, weights)), "--poly", poly),
                      ("artinian", "colength", "--poly", poly, "--ideal", f"x,y,z^{n + 1}"),
                      ("artinian", "colength", "--poly", poly, "--ideal", f"y,z^{n + 1}",
                       "--saturate")]
        lines += [("brieskorn", "2", "3", str(6 * (2 * n + 1))),
                  ("brieskorn", "2", "4", str(4 * n + 4)),
                  ("brieskorn", "3", "3", str(3 * n + 3))]
    return tuple(lines)


# each run with --format json and with --format text
EQUATIONS = (
    *_equation_lines(),
    # spellings: an explicit '*', a juxtaposed coefficient, a signed
    # coefficient on a juxtaposed product, an exponent 1
    ("artinian", "colength", "--poly", "2*x^2+y^3+z^7", "--ideal", "x^2,y^2,z^3"),
    ("artinian", "colength", "--poly", "2x^2+y^3+z^7", "--ideal", "x^2,y^2,z^3"),
    ("artinian", "colength", "--poly", "x^2-3y^2z+z^5", "--ideal", "x^2,y^3,z^4"),
    ("artinian", "colength", "--poly=-3y^2z+x^2+z^5", "--ideal", "x,y^3,z^4", "--saturate"),
    ("artinian", "colength", "--poly", "x^1*y+y^3+z^4", "--ideal", "x^1,y^2,z^1*x,z^3"),
    ("wh", "--weights", "7,3,2", "--poly", "2*x^2+z^7+y^4*z"),
    ("wh", "--weights", "7,3,2", "--poly", "2x^2-3y^4z+z^7"),
    ("wh", "--weights", "21,14,6", "--poly", "x^2+y^3+z^7*z^0+x^1*x^1"),
    # parse errors, each with its message and offset
    ("artinian", "colength", "--poly", "x^", "--ideal", "x,y,z"),
    ("artinian", "colength", "--poly", "2*", "--ideal", "x,y,z"),
    ("artinian", "colength", "--poly", "x^2+y^3+z^7", "--ideal", "x,,y"),
    ("artinian", "colength", "--poly", "x^2+y^3+z^7", "--ideal", "2x"),
    ("wh", "--weights", "7,3,2", "--poly", "x^"),
    ("wh", "--weights", "7,3,2", "--poly", "2*"),
    # the factor loop's edges: a trailing or doubled '*', juxtaposed
    # factors, a coefficient followed by a number
    ("artinian", "colength", "--poly", "x^2+y^3+z^7", "--ideal", "x*,y"),
    ("artinian", "colength", "--poly", "x^2+y^3+z^7", "--ideal", "x y^2,z*y*x,x^3,y^3,z^2"),
    ("artinian", "colength", "--poly", "2**x+y+z", "--ideal", "x,y,z"),
    ("artinian", "colength", "--poly", "3 4+x", "--ideal", "x,y,z"),
    ("artinian", "colength", "--poly", "x^2 y+z", "--ideal", "x^2,y,z^2"),
)
TABLE = Path(__file__).with_name("golden_digests.json")


def _run(argv, stdin=""):
    """(exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(argv))
            except SystemExit as exc:  # help and usage errors leave through argparse
                code = exc.code
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _record(code, out, err) -> dict:
    return {"exit": code, "stdout": _digest(out), "stderr": _digest(err)}


def _document(family: str, param: int) -> str:
    code, out, err = _run(["corpus", "emit", family, str(param), "--format", "json"])
    assert code == 0, err
    return out


def _family_records(family: str, param: int) -> dict:
    doc = _document(family, param)
    records = {}
    for words, options in COMMANDS:
        argv = [*words, "-", *options, "--format", "json"]
        records[" ".join([family, str(param), *words, *options])] = _record(*_run(argv, doc))
    return records


def _text_records(family: str, param: int) -> dict:
    doc = _document(family, param)
    records = {}
    for words, options in COMMANDS:
        argv = [*words, "-", *options, "--format", "text"]
        records[" ".join([family, str(param), *words, *options, "--format", "text"])] = (
            _record(*_run(argv, doc)))
    return records


def _refused_records() -> dict:
    records = {}
    for name, doc in REFUSED:
        for words, options in REFUSED_COMMANDS:
            argv = [*words, "-", *options, "--format", "json"]
            records[" ".join([name, *words, *options])] = _record(*_run(argv, doc))
    return records


def _equation_records() -> dict:
    records = {}
    for argv in EQUATIONS:
        for fmt in ("json", "text"):
            records[" ".join([*argv, "--format", fmt])] = (
                _record(*_run([*argv, "--format", fmt])))
    return records


def _verify_record() -> dict:
    return _record(*_run(["verify-paper", "--format", "json"]))


@contextlib.contextmanager
def _columns(width: int):
    """argparse wraps help to $COLUMNS; pin it."""
    saved = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = str(width)
    try:
        yield
    finally:
        if saved is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = saved


def _help_key(words) -> str:
    return " ".join(["help", *words])


def _malformed_key(argv) -> str:
    return " ".join(["malformed", *argv])


def _cli_records() -> dict:
    records = {}
    with _columns(80):
        for words in HELP:
            records[_help_key(words)] = _record(*_run([*words, "--help"]))
        for argv in MALFORMED:
            records[_malformed_key(argv)] = _record(*_run(argv))
    return records


def _all_records() -> dict:
    records = {}
    for family in FAMILIES:
        for param in PARAMS:
            records.update(_family_records(family, param))
            records.update(_text_records(family, param))
    records.update(_refused_records())
    records.update(_equation_records())
    records["verify-paper"] = _verify_record()
    records.update(_cli_records())
    return records


def _expected() -> dict:
    return json.loads(TABLE.read_text(encoding="utf-8"))


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("param", PARAMS)
def test_corpus_outputs_match_golden(family, param):
    expected = _expected()
    actual = _family_records(family, param)
    assert len(actual) == len(COMMANDS)
    for key, record in actual.items():
        assert record == expected[key], key


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("param", PARAMS)
def test_corpus_text_outputs_match_golden(family, param):
    expected = _expected()
    actual = _text_records(family, param)
    assert len(actual) == len(COMMANDS)
    for key, record in actual.items():
        assert record == expected[key], key


def test_refusals_match_golden():
    expected = _expected()
    actual = _refused_records()
    assert len(actual) == len(REFUSED) * len(REFUSED_COMMANDS)
    for key, record in actual.items():
        assert record["exit"] == 1, key
        assert record == expected[key], key


def test_equation_side_matches_golden():
    expected = _expected()
    actual = _equation_records()
    assert len(actual) == 2 * len(EQUATIONS)
    for key, record in actual.items():
        assert record == expected[key], key


def test_verify_paper_matches_golden():
    assert _verify_record() == _expected()["verify-paper"]


def test_help_and_usage_errors_match_golden():
    expected = _expected()
    actual = _cli_records()
    for words in HELP:
        assert expected[_help_key(words)]["exit"] == 0
    for argv in MALFORMED:
        assert expected[_malformed_key(argv)]["exit"] == 1
    for key, record in actual.items():
        assert record == expected[key], key


def test_golden_table_covers_every_run():
    assert len(_expected()) == (2 * len(FAMILIES) * len(PARAMS) * len(COMMANDS) + 1
                                + len(REFUSED) * len(REFUSED_COMMANDS)
                                + 2 * len(EQUATIONS)
                                + len(HELP) + len(MALFORMED))


if __name__ == "__main__":
    print(json.dumps(_all_records(), indent=1, sort_keys=True))
