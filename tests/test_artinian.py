from __future__ import annotations

import json
from fractions import Fraction

import pytest

from singlab import artinian as artinian_module
from singlab import cli
from singlab import (
    DensePoly,
    EnumerationLimitError,
    InputError,
    MonomialIdeal,
    colength,
    colength_saturating,
    standard_monomials,
)


def test_standard_monomials_examples():
    assert standard_monomials(MonomialIdeal.from_text("x,y,z^2")) == (
        (0, 0, 0),
        (0, 0, 1),
    )
    assert len(standard_monomials(MonomialIdeal.from_text("x^2,y^2,z^2"))) == 8
    staircase = standard_monomials(MonomialIdeal.from_text("x,y^2,y*z,z^3"))
    assert set(staircase) == {(0, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 2)}


def test_standard_monomials_requires_zero_dimensional():
    with pytest.raises(InputError, match="zero-dimensional"):
        standard_monomials(MonomialIdeal.from_text("x,y"))


def test_minimal_generators():
    ideal = MonomialIdeal.from_text("x^2,x^3,x*y,y^2,x^2*y")
    assert ideal.generators == ((0, 2, 0), (1, 1, 0), (2, 0, 0))
    with pytest.raises(InputError, match="unit ideal"):
        MonomialIdeal([(0, 0, 0)])


def test_colength_paper_values():
    f1 = DensePoly.from_text("x^2+z^7+y^4*z")
    assert colength(f1, MonomialIdeal.from_text("x,y,z")) == 1
    f2 = DensePoly.from_text("x^2+z^11+y^4*z")
    assert colength(f2, MonomialIdeal.from_text("x,y,z^2")) == 2


def test_colength_of_anything_in_square_of_maximal_ideal():
    m = MonomialIdeal.from_text("x,y,z")
    for text in ["x^2+y^2", "x*y+z^5", "3*x^2+2*y^3+z^2"]:
        assert colength(DensePoly.from_text(text), m) == 1


def test_colength_unit_polynomial():
    # f with a constant term is a unit, so the quotient collapses
    f = DensePoly([((0, 0, 0), 1), ((1, 0, 0), 1)])
    assert colength(f, MonomialIdeal.from_text("x^2,y,z")) == 0


def test_colength_scaling_invariance():
    f = DensePoly.from_text("x^2+y^4+z^8")
    ideal = MonomialIdeal.from_text("x,y^2,z^4")
    base = colength(f, ideal)
    for scale in [2, -1, Fraction(3, 7)]:
        scaled = DensePoly([(e, scale * c) for e, c in f.terms])
        assert colength(scaled, ideal) == base


def test_colength_bounded_by_staircase_with_equality_iff_member():
    ideal = MonomialIdeal.from_text("x,y,z^3")
    inside = DensePoly.from_text("x^2+y*z")  # both terms in the ideal
    outside = DensePoly.from_text("x+z")
    assert colength(inside, ideal) == len(standard_monomials(ideal)) == 3
    assert colength(outside, ideal) < 3


def test_colength_saturating_derived_values():
    f = DensePoly.from_text("x^2+y^4+z^8")
    assert colength_saturating(f, MonomialIdeal.from_text("y,z")) == 2
    assert colength_saturating(f, MonomialIdeal.from_text("y,z^2")) == 4
    assert colength_saturating(f, MonomialIdeal.from_text("y,z^4")) == 8


def test_colength_saturating_detects_positive_dimension():
    f = DensePoly.from_text("x^2+x*y")  # (f) + (y) contains no power of x
    with pytest.raises(InputError, match="stabilize"):
        colength_saturating(f, MonomialIdeal.from_text("y"), cap=16)


def test_colength_rejects_zero_polynomial():
    with pytest.raises(InputError, match="non-zero"):
        colength(DensePoly([]), MonomialIdeal.from_text("x,y,z"))


def test_staircase_and_matrix_are_budgeted_before_they_are_built(monkeypatch, capsys):
    monkeypatch.setenv("SINGLAB_MAX_ENUM", "1000")
    argv = ["artinian", "colength", "--poly", "x"]
    # 64 monomials: a 4096-entry matrix, refused before it is allocated
    assert cli.main(argv + ["--ideal", "x^4,y^4,z^4"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        "error: the multiplication matrix needs 4096 entries, above the budget of 1000; "
        "raise SINGLAB_MAX_ENUM to force it"]
    assert len(err.splitlines()) == 1
    # 27 monomials: 729 entries, within the budget
    assert cli.main(argv + ["--ideal", "x^3,y^3,z^3", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["colength"] == 9  # dim k[y,z]/(y^3, z^3)
    # the box below the pure powers is checked before it is scanned
    with pytest.raises(EnumerationLimitError, match="staircase box needs 1331 monomials"):
        standard_monomials(MonomialIdeal.from_text("x^11,y^11,z^11,x*y"))


def test_saturation_stops_at_the_first_doubling_over_budget(monkeypatch):
    monkeypatch.setenv("SINGLAB_MAX_ENUM", "1000")
    calls = []
    colength_at = artinian_module.colength
    monkeypatch.setattr(artinian_module, "colength",
                        lambda f, ideal: calls.append(ideal) or colength_at(f, ideal))
    f = DensePoly.from_text("x^2+y^4+z^8")
    # (y) + (x^N, z^N): N^2 monomials, so N = 8 asks for 4096 entries
    with pytest.raises(EnumerationLimitError, match="before pure powers of exponent 8"):
        colength_saturating(f, MonomialIdeal.from_text("y"))
    assert len(calls) == 3
    assert colength_saturating(f, MonomialIdeal.from_text("y,z^2")) == 4
