from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

from singlab import Cycle, EnumerationLimitError, cli, enumerate_antinef_upto
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
    # the chi >= 0 sweep has a fixed size, so a tiny budget changes no answer
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


def test_a_leaf_command_builds_only_its_own_parser(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert main(["brieskorn", "3", "5", "5"]) == 0
    assert built == ["singlab brieskorn"]  # the leaf alone, --format included
    built.clear()
    with pytest.raises(SystemExit):  # a bare group needs the full tree's usage
        main(["graph"])
    assert len(built) == 13
    capsys.readouterr()


def _exit_of(parse, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


@pytest.mark.parametrize("entry", cli._COMMANDS, ids=[" ".join(e[0]) for e in cli._COMMANDS])
@pytest.mark.parametrize("argv", [["--help"], ["--format", "xml"]], ids=["help", "usage-error"])
def test_a_leaf_parser_reads_as_the_full_tree_leaf(entry, argv, capsys):
    # the one parser a call builds prints the same help and usage errors,
    # byte for byte, as the same leaf of the full tree
    words = list(entry[0])
    alone = _exit_of(cli._leaf_parser(entry).parse_args, argv, capsys)
    in_tree = _exit_of(cli._build_parser().parse_args, words + argv, capsys)
    assert alone == in_tree
    code, out, err = alone
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
