from __future__ import annotations

import random
from fractions import Fraction

import pytest

from oracles import fraction_det, fraction_rank, solve
from singlab._linalg import back_substitute, eliminate, factor_augmented, rank


def test_leading_principal_minors_chain():
    # tridiagonal chain of (-2)s: minors alternate as (-1)^k (k+1)
    m = [[-2, 1, 0], [1, -2, 1], [0, 1, -2]]
    assert eliminate([row[:] for row in m], 3) == ([-2, 3, -4], True)
    # the factorization of [-M | -a] carries the minors of -M on its diagonal
    rows = factor_augmented(m, (0, 0, 1))
    assert [rows[i][i] for i in range(3)] == [2, 3, 4]


def random_symmetric(rng, n):
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = rng.randint(-5, 5)
    return m


def test_pivots_are_leading_minors_and_decide_definiteness():
    rng = random.Random(17)
    cases = [random_symmetric(rng, rng.randint(1, 6)) for _ in range(400)]
    # a zero leading minor with a nonzero determinant, and singular forms
    cases += [
        [[0, 1], [1, 0]],
        [[-2, 1, 0], [1, 0, 1], [0, 1, -2]],
        [[-2, 2], [2, -2]],
        [[-2, 1, 1], [1, -2, 1], [1, 1, -2]],
        [[0]],
    ]
    for _ in range(100):  # negative definite: -(A^T A + I)
        n = rng.randint(1, 6)
        a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        cases.append([[-sum(a[k][i] * a[k][j] for k in range(n)) - (i == j)
                       for j in range(n)] for i in range(n)])
    verdicts = set()
    for m in cases:
        n = len(m)
        minors = [fraction_det([row[:k] for row in m[:k]]) for k in range(1, n + 1)]
        pivots, regular = eliminate([row[:] for row in m], n)
        first_zero = minors.index(0) if 0 in minors else n
        assert regular == (first_zero == n), m
        assert pivots[:first_zero] == minors[:first_zero], m
        sylvester = all((d < 0) if k % 2 else (d > 0) for k, d in enumerate(minors, 1))
        adj = [rng.randint(-9, 9) for _ in range(n)]
        rows = factor_augmented(m, adj)
        assert (rows is not None) == sylvester, m
        if rows is not None:
            # one factorization: the minors of -M, and the K of the old solve
            assert [rows[i][i] for i in range(n)] == [abs(d) for d in minors]
            assert _solution(rows, n) == solve(m, adj), m
        verdicts.add(sylvester)
    assert verdicts == {True, False}


def _solution(rows, n):
    d, y = back_substitute(rows, n)
    return [Fraction(v, d) for v in y]


def test_solve_resubstitutes():
    # back substitution on the factor of [-M | -b], M negative definite
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randint(1, 6)
        a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        m = [[-sum(a[k][i] * a[k][j] for k in range(n)) - (i == j)
              for j in range(n)] for i in range(n)]
        b = [rng.randint(-9, 9) for _ in range(n)]
        x = _solution(factor_augmented(m, b), n)
        for i in range(n):
            assert sum(m[i][j] * x[j] for j in range(n)) == b[i]
        assert x == solve(m, b)


def test_solve_singular_raises():
    # the old solve raised on a singular form; the factorization refuses it
    for m, b in (([[1, 1], [1, 1]], [0, 1]), ([[0]], [1]), ([[-2, 2], [2, -2]], [0, 0])):
        with pytest.raises(ValueError):
            solve(m, b)
        assert factor_augmented(m, b) is None


def test_rank_matches_fraction_oracle():
    rng = random.Random(13)
    for _ in range(200):
        nr = rng.randint(1, 6)
        nc = rng.randint(1, 6)
        m = [[rng.randint(-4, 4) for _ in range(nc)] for _ in range(nr)]
        assert rank(m) == fraction_rank(m)
    # rank-deficient by construction
    m = [[1, 2, 3], [2, 4, 6], [0, 0, 1]]
    assert rank(m) == 2


def test_rank_with_fractions():
    m = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 2]]
    assert rank(m) == fraction_rank(m) == 2
    assert rank([[Fraction(1, 2), 1], [Fraction(1, 4), Fraction(1, 2)]]) == 1
