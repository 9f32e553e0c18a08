"""Golden outputs: exit codes and sha256 digests of stdout and stderr.

Every run feeds a ``corpus emit`` document on stdin to ``graph analyze``,
``elliptic sequence`` or ``classify --pg 1..9`` with ``--format json``,
and again with ``--format text`` (whose renderer prints each dict in
insertion order, so a reordered key shows there), for fig2312, fig244 and
brell3 at parameters 1-4; ``verify-paper --format json`` runs once.
``--help`` at the top level, on each group and on each leaf command, and
six malformed command lines, pin the help and usage text at a terminal
width of 80 columns.  A refactor that keeps the answers keeps every
digest.  When an output is meant to change, regenerate the table with

    PYTHONPATH=src python tests/test_golden.py > tests/golden_digests.json

and say in the change log which outputs moved and why.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from singlab import cli
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


def _subparser(parser, words):
    for word in words:
        action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        parser = action.choices[word]
    return parser


def test_leaf_parsers_match_the_full_tree():
    tree = cli._build_parser()
    with _columns(80):
        for entry in cli._COMMANDS:
            branch = _subparser(tree, entry[0])
            leaf = cli._leaf_parser(entry)
            assert leaf.prog == branch.prog
            assert leaf.format_help() == branch.format_help()
            assert leaf.format_usage() == branch.format_usage()


def test_golden_table_covers_every_run():
    assert len(_expected()) == (2 * len(FAMILIES) * len(PARAMS) * len(COMMANDS) + 1
                                + len(HELP) + len(MALFORMED))


if __name__ == "__main__":
    print(json.dumps(_all_records(), indent=1, sort_keys=True))
