from __future__ import annotations

import random
from fractions import Fraction

import pytest

from oracles import (
    fraction_det,
    fraction_rank,
    regular_eliminate,
    solve,
    sparse_rows,
    vertex_order_solve,
)
from singlab import EnumerationLimitError
from singlab._linalg import eliminate, solve_negative_definite


def test_leading_principal_minors_chain():
    # tridiagonal chain of (-2)s: minors alternate as (-1)^k (k+1)
    m = [[-2, 1, 0], [1, -2, 1], [0, 1, -2]]
    assert regular_eliminate([row[:] for row in m], 3) == ([-2, 3, -4], True)
    # the elimination of [-M | -a] carries the minors of -M on its diagonal
    table = [[-x for x in row] + [-a] for row, a in zip(m, (0, 0, 1))]
    assert regular_eliminate(table, 3) == ([2, 3, 4], True)
    # and the solve reads d = det(-M) = 4 off it: M (y / 4) = (0, 0, 1)
    assert solve_negative_definite(sparse_rows(m), (0, 0, 1)) == (4, [-1, -2, -3])


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
        pivots, regular = regular_eliminate([row[:] for row in m], n)
        first_zero = minors.index(0) if 0 in minors else n
        assert regular == (first_zero == n), m
        assert pivots[:first_zero] == minors[:first_zero], m
        sylvester = all((d < 0) if k % 2 else (d > 0) for k, d in enumerate(minors, 1))
        adj = [rng.randint(-9, 9) for _ in range(n)]
        table = [[-x for x in row] + [-a] for row, a in zip(m, adj)]
        pivots, regular = regular_eliminate(table, n)
        if sylvester:
            # the elimination of [-M | -a] has the minors of -M as pivots
            assert regular and pivots == [abs(d) for d in minors], m
        solution = solve_negative_definite(sparse_rows(m), adj)
        assert (solution is not None) == sylvester, m
        assert solution == vertex_order_solve(sparse_rows(m), adj), m
        if solution is not None:
            # and the solve's d is the last of them, y / d the old solve's K
            d, y = solution
            assert d == abs(minors[-1]), m
            assert [Fraction(v, d) for v in y] == solve(m, adj), m
        verdicts.add(sylvester)
    assert verdicts == {True, False}


def _solution(m, b):
    d, y = solve_negative_definite(sparse_rows(m), b)
    return [Fraction(v, d) for v in y]


def test_solve_resubstitutes():
    # back substitution on the elimination of [-M | -b], M negative definite
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randint(1, 6)
        a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        m = [[-sum(a[k][i] * a[k][j] for k in range(n)) - (i == j)
              for j in range(n)] for i in range(n)]
        b = [rng.randint(-9, 9) for _ in range(n)]
        x = _solution(m, b)
        for i in range(n):
            assert sum(m[i][j] * x[j] for j in range(n)) == b[i]
        assert x == solve(m, b)


def test_solve_singular_raises():
    # the old solve raised on a singular form; the solve refuses it
    for m, b in (([[1, 1], [1, 1]], [0, 1]), ([[0]], [1]), ([[-2, 2], [2, -2]], [0, 0])):
        with pytest.raises(ValueError):
            solve(m, b)
        assert solve_negative_definite(sparse_rows(m), b) is None


def _rows(n, edges, diag):
    """Sparse rows of the form with diagonal ``diag`` and one unit entry
    per edge."""
    rows = [[(i, diag[i])] for i in range(n)]
    for i, j in edges:
        rows[i].append((j, 1))
        rows[j].append((i, 1))
    return rows


def test_the_elimination_answers_to_the_budget(monkeypatch):
    """The elimination stores 2n + |E| entries of the form (its diagonal,
    edges and right-hand sides) and one more for each fill entry or 64-bit
    word of a pivot beyond the first, each counted as it is created."""
    n = 40
    chain = _rows(n, [(i, i + 1) for i in range(n - 1)], [-2] * n)
    cusp = _rows(n, [(i, (i + 1) % n) for i in range(n)], [-3] * n)
    monkeypatch.setenv("SINGLAB_MAX_ENUM", str(3 * n - 1))
    # leaves first: a chain creates no fill, and its pivots, the minors
    # k + 1, fit one word
    assert solve_negative_definite(chain, [0] * n)[0] == n + 1
    # a cusp fills one entry per vertex it eliminates before the last three
    monkeypatch.setenv("SINGLAB_MAX_ENUM", str(4 * n - 4))
    message = ("the elimination of the intersection form needs 157 entries, "
               "above the budget of 156")
    with pytest.raises(EnumerationLimitError, match=message):
        solve_negative_definite(cusp, [0] * n)
    monkeypatch.setenv("SINGLAB_MAX_ENUM", str(4 * n - 3))
    assert solve_negative_definite(cusp, [0] * n) is not None
    # a star's pivots after k leaves are 2^k: the 63rd takes a second word
    star = _rows(2 * n, [(0, i) for i in range(1, 2 * n)], [-2 * n] + [-2] * (2 * n - 1))
    monkeypatch.setenv("SINGLAB_MAX_ENUM", str(6 * n - 1))
    with pytest.raises(EnumerationLimitError, match="needs 240 entries, above the budget of 239"):
        solve_negative_definite(star, [0] * 2 * n)


def _pivot_count(m):
    return len(eliminate([row[:] for row in m], len(m[0])))


def test_rank_matches_fraction_oracle():
    # the rank of an integer matrix is the pivot count of one elimination
    rng = random.Random(13)
    for _ in range(200):
        nr = rng.randint(1, 6)
        nc = rng.randint(1, 6)
        m = [[rng.randint(-4, 4) for _ in range(nc)] for _ in range(nr)]
        assert _pivot_count(m) == fraction_rank(m)
    # rank-deficient by construction
    m = [[1, 2, 3], [2, 4, 6], [0, 0, 1]]
    assert _pivot_count(m) == fraction_rank(m) == 2
