from __future__ import annotations

import argparse
import importlib
import io
import json
import os
import resource
import signal
import subprocess
import sys
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from singlab import Cycle, EnumerationLimitError, cli, corpus, enumerate_antinef_upto
from singlab.cli import main
from singlab.corpus import fig2312
from singlab.graph import serialize_graph


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_corpus_emit_then_analyze(tmp_path, capsys):
    code, out, _ = run(capsys, "corpus", "emit", "fig2312", "1")
    assert code == 0
    path = tmp_path / "g.json"
    path.write_text(out)
    code, out, _ = run(capsys, "graph", "analyze", str(path), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["valid"] and doc["negative_definite"] and doc["elliptic"]
    assert doc["matrix"] == [[-2, 1, 0], [1, -2, 1], [0, 1, -1]]
    assert doc["fundamental_cycle"] == {"E0": 1, "E1": 1, "E2": 1}
    assert doc["chi_fundamental"] == 0
    assert doc["canonical_cycle"]["E2"] == {"num": -3, "den": 1}
    assert doc["numerically_gorenstein"] is True


def test_graph_analyze_text_deterministic(tmp_path, capsys):
    code, out, _ = run(capsys, "corpus", "emit", "fig244", "1")
    path = tmp_path / "g.json"
    path.write_text(out)
    code, out1, _ = run(capsys, "graph", "analyze", str(path))
    code, out2, _ = run(capsys, "graph", "analyze", str(path))
    assert code == 0 and out1 == out2
    assert "numerically_gorenstein: True" in out1


def test_elliptic_sequence_command(tmp_path, capsys):
    code, out, _ = run(capsys, "corpus", "emit", "fig2312", "1")
    path = tmp_path / "g.json"
    path.write_text(out)
    code, out, _ = run(capsys, "elliptic", "sequence", str(path), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["m"] == 2
    assert doc["Z"] == [
        {"E0": 1, "E1": 1, "E2": 1},
        {"E0": 0, "E1": 1, "E2": 1},
        {"E0": 0, "E1": 0, "E2": 1},
    ]
    assert doc["Emin"] == {"E0": 0, "E1": 0, "E2": 1}
    assert doc["checks"]["minus_one_chains"]["chain"] == ["E0", "E1"]


def test_classify_command(tmp_path, capsys):
    code, out, _ = run(capsys, "corpus", "emit", "fig2312", "1")
    path = tmp_path / "g.json"
    path.write_text(out)
    code, out, _ = run(capsys, "classify", str(path), "--pg", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["zeta"] == 1
    assert doc["af"] == [1, 2]
    assert doc["ideals"][0]["cycle"] == {"E0": 1, "E1": 2, "E2": 2}
    code, out, _ = run(capsys, "classify", str(path), "--pg", "3")
    assert code == 0
    assert "zeta: 0" in out
    code, _, err = run(capsys, "classify", str(path), "--pg", "2", "--no-char0")
    assert code == 1
    assert "characteristic zero" in err


def test_classify_inconsistent_genus_exit_code(tmp_path, capsys):
    code, out, _ = run(capsys, "corpus", "emit", "fig2312", "1")
    path = tmp_path / "g.json"
    path.write_text(out)
    code, _, err = run(capsys, "classify", str(path), "--pg", "9")
    assert code == 1
    assert "error:" in err


def test_brieskorn_command(capsys):
    code, out, _ = run(capsys, "brieskorn", "3", "5", "5", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"a_invariant": 20, "br_maximal_ideal": 3, "pg": 3}
    code, _, err = run(capsys, "brieskorn", "5", "3", "2")
    assert code == 1 and "2 <= a <= b <= c" in err


def test_wh_command(capsys):
    code, out, _ = run(capsys, "wh", "--weights", "7,3,2", "--poly", "x^2+z^7+y^4*z",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["pg"] == 2
    code, _, err = run(capsys, "wh", "--weights", "7,3", "--poly", "x+y")
    assert code == 1
    code, _, err = run(capsys, "wh", "--weights", "7,3,2", "--poly", "x^2+q")
    assert code == 1 and "position" in err


@contextmanager
def _deadline(seconds):
    """Fail, rather than hang, when the body runs longer than ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"did not finish within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_large_lattice_count_is_refused_at_once(capsys):
    # the p_g count of x^20000 + y^20000 + z^20000 would loop over about
    # 2 * 10^8 lattice points; the budget refuses it before the loop starts
    with _deadline(10):
        code, out, err = run(capsys, "brieskorn", "20000", "20000", "20000")
    assert (code, out) == (1, "")
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        "error: lattice count needs 399920004 candidates, above the budget of "
        "10000000; raise SINGLAB_MAX_ENUM to force it"
    ]
    assert "Traceback" not in err


def test_wh_genus_of_high_degree_cone(capsys):
    # p_g of x^d + y^d + z^d with unit weights is C(d, 3)
    with _deadline(30):
        code, out, _ = run(capsys, "wh", "--weights", "1,1,1",
                           "--poly", "x^3000+y^3000+z^3000", "--format", "json")
    assert code == 0
    assert json.loads(out)["pg"] == 4495501000


def test_graph_commands_ignore_the_enumeration_budget(tmp_path, capsys, monkeypatch):
    # the chi >= 0 sweep has a fixed size, and every Laufer loop on fig2312(1)
    # starts at its answer and bumps nothing, so a tiny budget changes no answer
    code, out, _ = run(capsys, "corpus", "emit", "fig2312", "1")
    path = tmp_path / "g.json"
    path.write_text(out)
    commands = [
        ["graph", "analyze", str(path)],
        ["elliptic", "sequence", str(path)],
        ["classify", str(path), "--pg", "2"],
    ]
    default = [run(capsys, *argv) for argv in commands]
    assert all(code == 0 and err == "" for code, _, err in default)
    monkeypatch.setenv("SINGLAB_MAX_ENUM", "10")
    assert [run(capsys, *argv) for argv in commands] == default
    g = fig2312(1)
    with pytest.raises(EnumerationLimitError, match="budget of 10"):
        enumerate_antinef_upto(g, Cycle(g, (3, 3, 3)))


def test_a_graph_past_the_budget_exits_1_before_its_dense_form(tmp_path, capsys, monkeypatch):
    # n vertices take n^2 dense entries, and graph analyze prints them: past
    # the budget that is an input error; building the graph stores only its
    # sparse elimination, 2n + |E| = 62 entries here, so corpus emit answers
    path = tmp_path / "g.json"
    path.write_text(serialize_graph(fig2312(10)))  # n = 21
    fig2312.cache_clear()  # the corpus keeps the graph it built
    emitted = run(capsys, "corpus", "emit", "fig2312", "10")
    assert emitted[0] == 0
    fig2312.cache_clear()
    monkeypatch.setenv("SINGLAB_MAX_ENUM", "100")
    message = ("error: the dense intersection form needs 441 entries, above the budget of 100; "
               "raise SINGLAB_MAX_ENUM to force it\n")
    assert run(capsys, "graph", "analyze", str(path)) == (1, "", message)
    assert run(capsys, "corpus", "emit", "fig2312", "10") == emitted
    assert run(capsys, "graph", "analyze", str(path), "--format", "json")[0] == 1


def _laufer_document(m, chain):
    """The document of the pair E_a^2 = -1, E_b^2 = -(m^2 + 1) meeting m times,
    with a chain of ``chain`` (-2)-curves on B: determinant 1."""
    vertices = ([{"id": "A", "self": -1}, {"id": "B", "self": -(m * m + 1)}]
                + [{"id": f"C{i}", "self": -2} for i in range(chain)])
    ends = [["A", "B"], ["B", "C0"]] + [[f"C{i}", f"C{i + 1}"] for i in range(chain - 1)]
    edges = [{"ends": e, "mult": m if e == ["A", "B"] else 1} for e in ends]
    return json.dumps({"vertices": vertices, "edges": edges})


def test_large_documents_are_built_in_near_linear_time(tmp_path, capsys):
    # a graph is built by a sparse elimination, leaves first: the 1002-curve
    # document is built at once and refused by the Laufer loop's budget, and
    # a chain of 20 001 curves is emitted, well inside the budget
    path = tmp_path / "g.json"
    path.write_text(_laufer_document(10**12, 1000))
    with _deadline(5):
        code, out, err = run(capsys, "graph", "analyze", str(path))
    assert (code, out) == (1, "")
    assert _only_error_line(err).startswith(
        "error: the fundamental-cycle loop needs 10000962 curve scans, above the budget")
    with _deadline(5):
        code, out, err = run(capsys, "corpus", "emit", "fig2312", "10000")
    assert (code, err) == (0, "")
    assert len(json.loads(out)["vertices"]) == 20001
    fig2312.cache_clear()


def test_artinian_command(capsys):
    code, out, _ = run(capsys, "artinian", "colength", "--poly", "x^2+z^7+y^4*z",
                       "--ideal", "x,y,z", "--format", "json")
    assert code == 0
    assert json.loads(out)["colength"] == 1
    code, out, _ = run(capsys, "artinian", "colength", "--poly", "x^2+y^4+z^8",
                       "--ideal", "y,z^4", "--saturate", "--format", "json")
    assert code == 0
    assert json.loads(out)["colength"] == 8
    code, _, err = run(capsys, "artinian", "colength", "--poly", "x^2+y^4+z^8",
                       "--ideal", "y,z")
    assert code == 1 and "zero-dimensional" in err


def test_corpus_emit_bad_family(capsys):
    code, _, err = run(capsys, "corpus", "emit", "fig999", "1")
    assert code == 1
    assert "unknown corpus family" in err


def test_bad_graph_file_reports_input_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"vertices": [{"id": "A", "self": 0}]}')
    code, _, err = run(capsys, "graph", "analyze", str(path))
    assert code == 1
    assert "negative definite" in err
    code, _, err = run(capsys, "graph", "analyze", str(tmp_path / "missing.json"))
    assert code == 1
    assert "cannot read" in err


# A document that is not UTF-8 (a byte 0xff in an id), and one nested past
# the recursion limit: each is one "error:" line and exit 1.
NOT_UTF8 = b'{"vertices":[{"id":"a\xff","self":-2}]}'
TOO_DEEP = b"[" * 1001


def _only_error_line(err):
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    return lines[0]


def test_unreadable_graph_documents_exit_1(tmp_path, capsys):
    path = tmp_path / "g.json"
    for words in (["graph", "analyze"], ["elliptic", "sequence"], ["classify"]):
        tail = ["--pg", "1"] if words == ["classify"] else []
        path.write_bytes(NOT_UTF8)
        code, out, err = run(capsys, *words, str(path), *tail)
        assert (code, out) == (1, "")
        assert _only_error_line(err).startswith(f"error: cannot read {path}: 'utf-8' codec")
        path.write_bytes(TOO_DEEP)
        code, out, err = run(capsys, *words, str(path), *tail)
        assert (code, out) == (1, "")
        assert _only_error_line(err).startswith("error: graph document is not valid JSON: ")


def test_a_stdin_document_that_is_not_utf8_exits_1():
    # with PYTHONIOENCODING=utf-8, as under a UTF-8 locale, stdin decodes
    # strictly, so the byte 0xff fails the read itself
    env = dict(os.environ, PYTHONIOENCODING="utf-8", PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "singlab.cli", "graph", "analyze", "-"],
                          input=NOT_UTF8, capture_output=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout) == (1, b"")
    assert _only_error_line(proc.stderr.decode()).startswith("error: cannot read -: 'utf-8' codec")


def test_graph_analyze_rejects_non_definite_forms(tmp_path, capsys):
    cusp = {"vertices": [{"id": f"C{i}", "self": -2} for i in range(3)],
            "edges": [{"ends": ["C0", "C1"]}, {"ends": ["C1", "C2"]}, {"ends": ["C2", "C0"]}]}
    zero = {"vertices": [{"id": "A", "self": 0}], "edges": []}
    for doc in (cusp, zero):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "graph", "analyze", str(path), "--format", "json")
        assert (code, out) == (1, "")
        assert err == "error: intersection matrix is not negative definite\n"


def test_elliptic_sequence_refuses_a_graph_that_is_not_minimal(tmp_path, capsys):
    # V1 is a genus-0 (-1)-curve: refused as input, as classify refuses it
    doc = {"vertices": [{"id": "V0", "self": -2, "genus": 1}, {"id": "V1", "self": -1, "genus": 0}],
           "edges": [{"ends": ["V0", "V1"], "mult": 1}]}
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc))
    for words, options in ((["elliptic", "sequence"], []), (["classify"], ["--pg", "1"])):
        code, out, err = run(capsys, *words, str(path), *options, "--format", "json")
        assert (code, out) == (1, "")
        assert err.splitlines() == ["error: graph is not minimal: vertex V1 is a genus-0 (-1)-curve"]


# A star whose centre has self-intersection -(10^4300 - 1): K's d has 4301
# digits, past what Python turns into a decimal string.
HUGE_ANSWER = ('{"vertices": [{"id": "C", "self": -%s}, {"id": "A", "self": -1}, '
               '{"id": "B", "self": -1}, {"id": "D", "self": -2}], "edges": [{"ends": ["C", "A"]}, '
               '{"ends": ["C", "B"]}, {"ends": ["C", "D"]}]}' % ("9" * 4300)).encode()


def test_an_answer_too_long_to_print_exits_1_with_nothing_printed(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_bytes(HUGE_ANSWER)
    for fmt in ("text", "json"):
        code, out, err = run(capsys, "graph", "analyze", str(path), "--format", fmt)
        assert (code, out) == (1, "")
        assert _only_error_line(err).startswith(
            "error: cannot print the answer: Exceeds the limit (4300 digits)")


# -- the JSON report writer ----------------------------------------------------

# quotes, backslashes, control characters, non-ASCII and a lone surrogate
_AWKWARD = st.text(st.sampled_from('"\\/\x00\x08\t\n\x1f\x7f \u00e9\u2028\ud800\U0001f600aZ_09'),
                   max_size=6)
_STRINGS = _AWKWARD | st.text(max_size=6)
_SCALARS = (st.sampled_from((True, False, 0, 1, None, -1))
            | _STRINGS
            | st.integers()
            | st.builds(lambda digits, sign: sign * (10 ** digits - 1),
                        st.integers(0, 5000), st.sampled_from((1, -1))))
_REPORTS = st.recursive(
    _SCALARS | st.lists(st.integers(), max_size=5) | st.lists(_STRINGS, max_size=5)
    | st.dictionaries(_STRINGS, st.integers(), max_size=5),
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(_STRINGS, inner, max_size=4)),
    max_leaves=24)


@settings(max_examples=600, deadline=None)
@given(_REPORTS)
@example({"a": [True, 1, False, 0], "b": {}, "c": [], "\"": {"\\": None}})
@example({"d": 10 ** 4300})
def test_the_report_writer_writes_what_json_dumps_writes(doc):
    # json.dumps is the oracle, byte for byte, refusals included: an int
    # past the 4300-digit limit is a ValueError on both sides
    try:
        expected = json.dumps(doc, indent=2, sort_keys=True)
    except ValueError as exc:
        with pytest.raises(ValueError) as err:
            cli._json(doc)
        assert str(err.value) == str(exc)
    else:
        assert cli._json(doc) == expected


@pytest.mark.parametrize("doc", ({"x": 1.5}, [float("nan")], {1: 2}, {"x": {1, 2}}))
def test_the_report_writer_refuses_what_no_report_holds(doc):
    # no float (nothing here is inexact), no key but a string, no other type
    with pytest.raises(TypeError):
        cli._json(doc)


def test_json_reports_do_not_go_through_json_dumps(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("json.dumps was called")

    monkeypatch.setattr(json, "dumps", refuse)
    code, out, err = run(capsys, "brieskorn", "2", "3", "7", "--format", "json")
    assert (code, err) == (0, "")
    assert out == '{\n  "a_invariant": 1,\n  "br_maximal_ideal": 1,\n  "pg": 1\n}\n'


def test_a_refusal_quotes_a_long_field_in_short(tmp_path, capsys):
    # a field of 1 MB, wherever it sits, is named in an error line of under
    # 300 bytes
    big = "x" * 10**6
    docs = [
        {"vertices": [{"id": "A", "self": -2, "extra": big}], "edges": []},
        {"vertices": [{"id": "A", "self": -2, "genus": big}], "edges": []},
        {"vertices": [{"self": big}], "edges": []},
        {"vertices": [{"id": big + " ", "self": -2}], "edges": []},
        {"vertices": [{"id": "x" * 10**6, "self": -2, "genus": -1}], "edges": []},
        {"vertices": [{"id": "A", "self": -2}, {"id": "A", "self": -2}], "edges": []},
        {"vertices": [{"id": "A", "self": -2}], "edges": [{"ends": ["A", big]}]},
        {"vertices": [{"id": "A", "self": -2}], "edges": [{"ends": ["A", "A"], "extra": big}]},
        {"vertices": [{"id": "A", "self": -2}], "edges": [{"ends": [big]}]},
        {"vertices": [{"id": "A" * 10**6, "self": -2}, {"id": "B", "self": -2}],
         "edges": [{"ends": ["A" * 10**6, "B"], "mult": big}]},
        {"vertices": [{"id": "A", "self": -2}, {"id": "B" * 10**6, "self": -2}], "edges": []},
    ]
    path = tmp_path / "g.json"
    for doc in docs:
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "graph", "analyze", str(path))
        assert (code, out) == (1, "")
        assert len(_only_error_line(err).encode()) < 300, err[:300]


def test_overlong_integer_literal_is_an_input_error(capsys):
    poly = "x^" + "9" * 5000 + "+y"
    code, _, err = run(capsys, "artinian", "colength", "--poly", poly, "--ideal", "x^3,y^3,z^3")
    assert code == 1
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        "error: integer too long at position 2"
    ]
    assert "Traceback" not in err


def test_verify_paper_command(capsys):
    code, out, _ = run(capsys, "verify-paper")
    assert code == 0
    assert "total: 8/8 passed" in out
    for name in ("brieskorn-invariants", "enumeration-properties"):
        assert f"{name}" in out and "PASS" in out


def test_verify_paper_json(capsys):
    code, out, _ = run(capsys, "verify-paper", "--format", "json")
    assert code == 0
    results = json.loads(out)
    assert len(results) == 8
    assert all(r["passed"] for r in results)


SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("argv, message", [
    (["classify", "-", "--pg", "abc"],
     "singlab classify: error: argument --pg: invalid int value: 'abc'"),
    (["brieskorn", "2", "3"], "singlab brieskorn: error: the following arguments are required: c"),
    (["graph"], "singlab graph: error: the following arguments are required: subcommand"),
    ([], "singlab: error: the following arguments are required: command"),
    (["nosuch"], "singlab: error: argument command: invalid choice: 'nosuch' (choose from "
                 "'graph', 'elliptic', 'classify', 'brieskorn', 'wh', 'artinian', 'corpus', "
                 "'verify-paper')"),
    (["wh", "--weights", "1,1,1"],
     "singlab wh: error: the following arguments are required: --poly"),
    # argparse reads an = value '--' as [], unchecked; no command takes a list
    (["wh", "--weights=--", "--poly=x"],
     "singlab: error: argument --weights: expected one argument"),
    (["corpus", "emit", "fig2312", "1", "--format=--"],
     "singlab: error: argument --format: expected one argument"),
    (["artinian", "colength", "--poly=--", "--ideal=x"],
     "singlab: error: argument --poly: expected one argument"),
])
def test_malformed_command_line_exits_1(argv, message):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC),
                                                                    os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "singlab.cli", *argv], capture_output=True,
                          text=True, env=env, stdin=subprocess.DEVNULL, timeout=60)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("usage: singlab")
    assert proc.stderr.splitlines()[-1] == message
    assert "Traceback" not in proc.stderr
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1


def test_corpus_emit_refuses_a_huge_parameter_before_it_builds():
    # 2 * 10^10 + 1 curves: refused on the count, not after building them;
    # the child's memory is capped, so building them fails the test quickly
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC),
                                                                    os.environ.get("PYTHONPATH")])))
    env.pop("SINGLAB_MAX_ENUM", None)
    cap = (1 << 30, 1 << 30)
    proc = subprocess.run([sys.executable, "-m", "singlab.cli", "corpus", "emit", "fig2312",
                           "9999999999"], capture_output=True, text=True, env=env,
                          stdin=subprocess.DEVNULL, timeout=20,
                          preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, cap))
    assert (proc.returncode, proc.stdout) == (1, "")
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("error: the elimination of the intersection form needs ")


def test_a_leaf_command_builds_no_parser_or_the_full_tree(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert main(["brieskorn", "3", "5", "5"]) == 0
    assert built == []  # a plain line is read off _COMMANDS
    for tail, code in ((["--help"], 0), (["--format", "xml"], 1), (["--fo", "json"], None)):
        built.clear()
        if code is None:  # an abbreviation is argparse's to read
            assert main(["brieskorn", "3", "5", "5", *tail]) == 0
        else:
            with pytest.raises(SystemExit) as exc:
                main(["brieskorn", "3", "5", "5", *tail])
            assert exc.value.code == code
        assert len(built) == 13  # the full tree: the top, four groups, eight leaves
    capsys.readouterr()


# Tokens of the differential test below: values good and bad for every
# type and choice, and the spellings that only argparse reads.
_VALUES = ("0", "7", "-3", "\u0663", " 5", "", "x", "json", "xml", "x,y,z^2",
           "-", "-x", "--", "-h", "--help")
_NOISE = ("--", "-", "-h", "--help", "--fo", "--format", "--format=json", "--pg=",
          "--no-char0", "-5", "7", "")


def _good_values(options):
    if "choices" in options:
        return options["choices"]
    if options.get("type") is int:
        return ("0", "7", "12", "\u0663", " 5")
    return ("x", "x^2+y^3", "x,y,z^2", "3,2,1", "-", "")


@st.composite
def _command_lines(draw):
    """(entry, argv): a clean line of a leaf, each argument exact, once,
    with a value its type and choices accept, in any order; then up to two
    faults, each dropping, repeating or abbreviating an argument, giving
    it a bad value (a bare flag gets an ``=`` value), or adding noise."""
    entry = draw(st.sampled_from(cli._COMMANDS))
    chunks = []
    for (flag, *_), options in (cli._FORMAT, *entry[2]):
        value = draw(st.sampled_from(_good_values(options)))
        if flag[0] != "-":
            chunks.append([value])
        elif options.get("action") == "store_true":
            chunks += [[flag]] * draw(st.integers(0, 1))
        elif options.get("required") or draw(st.booleans()):
            chunks.append(draw(st.sampled_from(([flag, value], [f"{flag}={value}"]))))
    for _ in range(draw(st.integers(0, 2))):
        fault = draw(st.sampled_from(("drop", "repeat", "abbreviate", "value", "noise")))
        if fault == "noise" or not chunks:
            chunks.append([draw(st.sampled_from(_NOISE))])
            continue
        i = draw(st.integers(0, len(chunks) - 1))
        flag, eq, value = chunks[i][0].partition("=")
        if fault == "drop":
            del chunks[i]
        elif fault == "repeat":
            chunks.append(chunks[i])
        elif flag[:1] != "-":  # a positional's value
            chunks[i] = [draw(st.sampled_from(_VALUES))]
        elif fault == "abbreviate" and len(flag) > 3:
            chunks[i] = [flag[:draw(st.integers(3, len(flag) - 1))] + eq + value, *chunks[i][1:]]
        elif len(chunks[i]) == 2:
            chunks[i] = [flag, draw(st.sampled_from(_VALUES))]
        else:
            chunks[i] = [f"{flag}={draw(st.sampled_from(_VALUES))}"]
    return entry, [token for chunk in draw(st.permutations(chunks)) for token in chunk]


_LEAF = {" ".join(entry[0]): entry for entry in cli._COMMANDS}


@settings(max_examples=1000, deadline=None)
@given(_command_lines())
@example((_LEAF["artinian colength"], ["--poly=--", "--ideal=x"]))  # argparse reads []
@example((_LEAF["artinian colength"], ["--poly=-x^2+y^3", "--ideal=x"]))
@example((_LEAF["artinian colength"], ["--poly", "-x^2+y^3", "--ideal=x"]))
@example((_LEAF["classify"], ["-", "--pg=-3"]))
@example((_LEAF["wh"], ["--weights=3,2,1", "--poly=--x"]))
@example((_LEAF["artinian colength"], ["--poly=x", "--ideal", "x", "--saturate="]))
@example((_LEAF["classify"], ["-", "--pg=3", "--no-char0=1"]))
@example((_LEAF["classify"], ["-", "--pg", "3", "--pg", "x"]))
@example((_LEAF["brieskorn"], ["2", "3", "--", "5"]))
@example((_LEAF["brieskorn"], ["2", "3", "-5"]))
@example((_LEAF["corpus emit"], ["fig2312", "3", "--format=json", "--format", "xml"]))
def test_a_plain_reading_is_the_leaf_parsers(case):
    # whenever the reader off _COMMANDS answers, the full tree reads the
    # same line to an equal namespace with nothing left over
    entry, argv = case
    args = cli._read_plain(entry, argv)
    if args is not None:
        assert (vars(args), []) == _tree_reading(cli._build_parser(), [*entry[0], *argv])


def _tree_reading(tree, argv):
    """(namespace dict, leftovers) of the full tree on argv, without the
    command words it records under ``command`` and ``subcommand``."""
    args, rest = tree.parse_known_args(argv)
    out = vars(args)
    out.pop("command")
    out.pop("subcommand", None)
    return out, rest


def _refuse_parsers(monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError("a parser was built")

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", refuse)


def _shape_lines():
    """Graph command lines by shape: one document on stdin and JSON output,
    or verify-paper, with every genus up to 39, more than the seeded
    workloads below reach."""
    lines = [["elliptic", "sequence", "-"], ["graph", "analyze", "-"], ["verify-paper"]]
    lines += [["classify", "-", "--pg", str(pg)] for pg in range(1, 40)]
    return [line + ["--format", "json"] for line in lines]


@pytest.mark.parametrize("argv", _shape_lines(), ids=" ".join)
def test_benchmark_command_lines_build_no_parser(argv, monkeypatch):
    expected = _tree_reading(cli._build_parser(), argv)
    _refuse_parsers(monkeypatch)
    assert (vars(cli._parse(argv)), []) == expected


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
WORKLOADS = ("elliptic-ladder", "wide-graphs", "artinian-oracle", "acceptance")


@pytest.fixture(scope="module")
def workloads():
    """The benchmark's ``workloads`` module, imported from its directory
    without writing bytecode there; ``checks`` is its sibling import."""
    saved = sys.path[:], sys.dont_write_bytecode
    sys.path.insert(0, str(PERFBENCH))
    sys.dont_write_bytecode = True
    try:
        module = importlib.import_module("workloads")
    finally:
        sys.path[:], sys.dont_write_bytecode = saved
        sys.modules.pop("workloads", None)
        sys.modules.pop("checks", None)
    assert sorted(module.WORKLOADS) == sorted(WORKLOADS)
    return module


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_command_lines_build_no_parser(workload, seed, workloads, monkeypatch):
    # every line a benchmark operation sends is plain: read off
    # _COMMANDS to the namespace the full tree reads
    tree = cli._build_parser()
    lines = [list(op.argv) for op in workloads.operations(workload, seed)]
    expected = [_tree_reading(tree, argv) for argv in lines]
    _refuse_parsers(monkeypatch)
    for argv, reading in zip(lines, expected):
        assert (vars(cli._parse(argv)), []) == reading, argv


def _exit_of(parse, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


@pytest.mark.parametrize("entry", cli._COMMANDS, ids=[" ".join(e[0]) for e in cli._COMMANDS])
@pytest.mark.parametrize("argv", [["--help"], ["--format", "xml"]], ids=["help", "usage-error"])
def test_a_leaf_parser_reads_as_the_full_tree_leaf(entry, argv, capsys):
    # a leaf's help and usage errors are those of its leaf in the full tree
    words = list(entry[0])
    code, out, err = _exit_of(cli._parse, words + argv, capsys)
    text = out or err
    assert text.startswith(f"usage: singlab {' '.join(words)} [-h] [--format {{text,json}}]")
    assert (code, bool(out)) == ((0, True) if argv == ["--help"] else (1, False))


def test_a_reader_that_closes_early_gets_exit_1_and_no_traceback():
    # the sequence of fig2312(20) prints about 96 kB of JSON, more than a
    # pipe holds, so the write meets the closed reader whatever the timing
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC),
                                                                    os.environ.get("PYTHONPATH")])))
    doc = serialize_graph(fig2312(20))
    proc = subprocess.Popen([sys.executable, "-m", "singlab.cli", "elliptic", "sequence", "-",
                             "--format", "json"], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env)
    proc.stdin.write(doc.encode())
    proc.stdin.close()
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 1
    assert err == ""


# -- graph-document fuzz ------------------------------------------------------

_HUGE = "__huge__"  # replaced by a long integer literal after json.dumps
_ODD = (None, True, False, 0, 1, -1, 2, -2, 7, 1.5, 1e400, "", "x", "A", "a b", [], {},
        ["A", "B"], {"id": "A"}, _HUGE)


def _random_document(draw):
    """A tree on up to 6 vertices, maybe with one more edge, of small
    weights: often a resolution graph, sometimes not negative definite."""
    n = draw(st.integers(1, 6))
    ends = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    if n > 1 and draw(st.booleans()):
        ends.append((draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))))
    vertices = [{"id": f"V{i}", "self": draw(st.integers(-5, -1)),
                 "genus": draw(st.sampled_from((0, 0, 0, 1, 2)))} for i in range(n)]
    edges = [{"ends": [f"V{i}", f"V{j}"], "mult": draw(st.sampled_from((1, 1, 1, 2)))}
             for i, j in ends]
    return {"vertices": vertices, "edges": edges}


@st.composite
def _graph_documents(draw):
    """Bytes of a graph document: a corpus or a random small document,
    some of its fields changed, removed or added (wrong types, huge
    integers, unknown ids and keys), then maybe truncated, nested in
    arrays up to past the recursion limit, or given bytes that are not
    UTF-8."""
    if draw(st.booleans()):
        name, param = draw(st.sampled_from(
            (("fig2312", 1), ("fig2312", 3), ("fig244", 1), ("brell3", 1))))
        doc = json.loads(serialize_graph(getattr(corpus, name)(param)))
    else:
        doc = _random_document(draw)
    for _ in range(draw(st.sampled_from((0, 0, 1, 2, 3)))):
        where = draw(st.sampled_from(("vertices", "edges", "top")))
        value = draw(st.sampled_from(_ODD))
        if where == "top":
            target, key = doc, draw(st.sampled_from(("vertices", "edges", "extra")))
        elif doc.get(where) and isinstance(doc[where], list):
            target = doc[where][draw(st.integers(0, len(doc[where]) - 1))]
            key = draw(st.sampled_from(("id", "self", "genus", "ends", "mult", "extra")))
            if not isinstance(target, dict):
                continue
        else:
            continue
        if draw(st.booleans()):
            target.pop(key, None)
        else:
            target[key] = value
    text = json.dumps(doc)
    huge = "9" * draw(st.sampled_from((30, 4300, 4301, 6000)))
    text = text.replace(f'"{_HUGE}"', draw(st.sampled_from((huge, "-" + huge))))
    data = text.encode()
    faults = draw(st.sets(st.sampled_from(("truncate", "nest", "bytes")), max_size=2))
    if draw(st.booleans()):
        faults = set()
    if "truncate" in faults:
        data = data[:draw(st.integers(0, len(data)))]
    if "nest" in faults:
        depth = draw(st.sampled_from((1, 995, 1001, 1500)))
        data = b"[" * depth + data + b"]" * depth
    if "bytes" in faults:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from((b"\xff", b"\xc3", b"\xed\xa0\x80"))) + data[at:]
    return data


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "g.json"


def _main_quietly(argv, stdin=None):
    """(exit code, stderr) of ``main(argv)``, stdin read from the bytes
    ``stdin`` as a UTF-8 locale reads it: strictly."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    if stdin is not None:
        sys.stdin = io.TextIOWrapper(io.BytesIO(stdin), encoding="utf-8")
    try:
        with redirect_stdout(out), redirect_stderr(err), _deadline(10):
            code = main(argv)
    finally:
        sys.stdin = saved
    return code, err.getvalue()


@settings(max_examples=150, deadline=None)
@given(_graph_documents())
@example(NOT_UTF8)
@example(TOO_DEEP)
@example(HUGE_ANSWER)
def test_graph_documents_exit_0_or_1(fuzz_path, data):
    # every document is answered or refused as input, from a file and
    # from stdin, within the deadline and with no traceback
    fuzz_path.write_bytes(data)
    for words in (["graph", "analyze"], ["elliptic", "sequence"]):
        for source, stdin in ((str(fuzz_path), None), ("-", data)):
            code, err = _main_quietly([*words, source], stdin)
            assert code in (0, 1), (words, source, err)
            assert "Traceback" not in err
            assert code == 0 or err.startswith("error: "), err
