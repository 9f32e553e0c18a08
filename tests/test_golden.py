"""Golden outputs: exit codes and sha256 digests of stdout and stderr.

Every run feeds a ``corpus emit`` document on stdin to ``graph analyze``,
``elliptic sequence`` or ``classify --pg 1..9`` with ``--format json``,
for fig2312, fig244 and brell3 at parameters 1-4; ``verify-paper
--format json`` runs once.  A refactor that keeps the answers keeps every
digest.  When an output is meant to change, regenerate the table with

    PYTHONPATH=src python tests/test_golden.py > tests/golden_digests.json

and say in the change log which outputs moved and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from singlab.cli import main

FAMILIES = ("fig2312", "fig244", "brell3")
PARAMS = (1, 2, 3, 4)
# (subcommand words, options after the file argument)
COMMANDS = (
    (("graph", "analyze"), ()),
    (("elliptic", "sequence"), ()),
    *((("classify",), ("--pg", str(pg))) for pg in range(1, 10)),
)
TABLE = Path(__file__).with_name("golden_digests.json")


def _run(argv, stdin=""):
    """(exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
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


def _verify_record() -> dict:
    return _record(*_run(["verify-paper", "--format", "json"]))


def _all_records() -> dict:
    records = {}
    for family in FAMILIES:
        for param in PARAMS:
            records.update(_family_records(family, param))
    records["verify-paper"] = _verify_record()
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


def test_verify_paper_matches_golden():
    assert _verify_record() == _expected()["verify-paper"]


def test_golden_table_covers_every_run():
    assert len(_expected()) == len(FAMILIES) * len(PARAMS) * len(COMMANDS) + 1


if __name__ == "__main__":
    print(json.dumps(_all_records(), indent=1, sort_keys=True))
