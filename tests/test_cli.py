from __future__ import annotations

import json

from singlab.cli import main


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
