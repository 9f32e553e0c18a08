from __future__ import annotations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import monomials_of_degree, pg_by_graded_pieces
from singlab import (
    InputError,
    WeightedPoly,
    a_invariant,
    br_maximal_ideal_brieskorn,
    graded_dim,
    pg_brieskorn,
    pg_weighted_homogeneous,
)
from singlab.corpus import brieskorn_equation


def test_a_invariant():
    assert a_invariant((5 * 5, 3 * 5, 3 * 5), 75) == 20
    assert a_invariant((7, 3, 2), 14) == 2
    assert a_invariant((1, 1, 1), 3) == 0
    assert a_invariant((9, 6, 1), 18) == 2
    with pytest.raises(InputError):
        a_invariant((0, 1, 1), 3)


def test_graded_dim():
    assert graded_dim((9, 6, 1), 18, 2) == 1  # only z^2
    assert graded_dim((7, 3, 2), 14, 1) == 0
    assert graded_dim((5, 8, 13), 40, 0) == 1
    with pytest.raises(InputError):
        graded_dim((1, 1, 1), 3, -1)
    with pytest.raises(InputError, match="no monomial"):
        graded_dim((2, 2, 2), 1, 1)
    with pytest.raises(InputError, match="positive"):
        graded_dim((0, 1, 1), 2, 1)


def test_pg_weighted_homogeneous_paper_values():
    f = WeightedPoly.from_text((7, 3, 2), "x^2+z^7+y^4*z")
    assert pg_weighted_homogeneous(f) == 2
    g = WeightedPoly.from_text((9, 6, 1), "x^2+y^3+z^18")
    assert pg_weighted_homogeneous(g) == 3
    cone = WeightedPoly.from_text((1, 1, 1), "x^3+y^3+z^3")
    assert pg_weighted_homogeneous(cone) == 1


def test_pg_weighted_homogeneous_negative_a_invariant():
    quadric = WeightedPoly.from_text((1, 1, 1), "x^2+y^2+z^2")
    assert pg_weighted_homogeneous(quadric) == 0


def test_weighted_poly_validation():
    with pytest.raises(InputError, match="homogeneous"):
        WeightedPoly.from_text((1, 1, 1), "x^2+y^3")
    with pytest.raises(InputError, match="two terms"):
        WeightedPoly.from_text((1, 1, 1), "x^2")
    with pytest.raises(InputError, match="two terms"):
        WeightedPoly((1, 1, 1), [((2, 0, 0), 1), ((2, 0, 0), -1), ((0, 2, 0), 1)])
    with pytest.raises(InputError, match="positive"):
        WeightedPoly((0, 1, 1), [((1, 0, 0), 1), ((0, 1, 0), 1)])


def test_pg_brieskorn_paper_values():
    assert pg_brieskorn(3, 5, 5) == 3
    assert pg_brieskorn(2, 3, 13) == 2
    assert pg_brieskorn(2, 3, 5) == 0
    with pytest.raises(InputError):
        pg_brieskorn(1, 2, 3)
    with pytest.raises(InputError):
        pg_brieskorn(3, 2, 5)


def test_br_maximal_ideal_brieskorn():
    assert br_maximal_ideal_brieskorn(3, 5, 5) == 3
    assert br_maximal_ideal_brieskorn(2, 4, 8) == 2
    assert br_maximal_ideal_brieskorn(2, 3, 7) == 1
    with pytest.raises(InputError):
        br_maximal_ideal_brieskorn(4, 3, 5)


def test_brieskorn_formula_agrees_with_graded_count():
    # pg_brieskorn and pg_weighted_homogeneous share one lattice counter,
    # so the comparison is with the per-degree sum of the oracle
    for a in range(2, 13):
        for b in range(a, 13):
            for c in range(b, 13):
                weights, _ = brieskorn_equation(a, b, c)
                expected = pg_by_graded_pieces(weights, a * b * c)
                assert pg_brieskorn(a, b, c) == expected, (a, b, c)


def test_pg_monotone_in_top_exponent():
    for a, b in [(2, 3), (2, 4), (3, 3), (3, 5)]:
        values = [pg_brieskorn(a, b, c) for c in range(b, 40)]
        assert all(x <= y for x, y in zip(values, values[1:])), (a, b)


@settings(max_examples=100, deadline=None)
@given(
    w=st.tuples(st.integers(1, 9), st.integers(1, 9), st.integers(1, 9)),
    e=st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)),
    i=st.integers(0, 30),
)
def test_graded_dim_nonnegative_and_counts_monomials_below_degree(w, e, i):
    # build the degree from a witness monomial so it is always attained
    d = w[0] * e[0] + w[1] * e[1] + w[2] * e[2]
    if d == 0:
        d = w[0]
    value = graded_dim(w, d, i)
    assert value >= 0
    assert value == monomials_of_degree(w, i) - monomials_of_degree(w, i - d)


@settings(max_examples=100, deadline=None)
@given(
    w=st.tuples(st.integers(1, 9), st.integers(1, 9), st.integers(1, 9)),
    e=st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6)),
)
def test_pg_weighted_homogeneous_matches_graded_pieces(w, e):
    # the degree is attained by the monomial e; the equation takes the
    # first and last monomial of that degree
    d = w[0] * e[0] + w[1] * e[1] + w[2] * e[2]
    monomials = [
        (a, b, (d - a * w[0] - b * w[1]) // w[2])
        for a in range(d // w[0] + 1)
        for b in range((d - a * w[0]) // w[1] + 1)
        if (d - a * w[0] - b * w[1]) % w[2] == 0
    ]
    assume(len(monomials) >= 2)
    poly = WeightedPoly(w, [(monomials[0], 1), (monomials[-1], 1)])
    assert pg_weighted_homogeneous(poly) == pg_by_graded_pieces(w, d)
