"""Exact linear algebra over the integers and rationals.

Everything here is one fraction-free Gaussian elimination in the style of
Bareiss, ``eliminate``: ranks of rational matrices after clearing
denominators, and the one factorization of each graph's form,
``factor_augmented``, the elimination of [-M | -a] that
``graph.is_negative_definite`` runs when a ``DualGraph`` is built.
Sylvester's criterion is read off its pivots and K off its rows by
``back_substitute``.  No floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


def _exact_div(num: int, den: int) -> int:
    # Bareiss guarantees exact divisibility; a nonzero remainder means a bug.
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError("fraction-free elimination lost exactness")
    return q


def eliminate(a, ncols: int) -> tuple[list[int], bool]:
    """Fraction-free forward elimination of the integer rows ``a``, in place.

    Pivots are taken in the first ``ncols`` columns; any later columns (a
    right-hand side, say) are carried along.  Returns the pivots in order
    and whether the elimination was regular: no row swap and no skipped
    column.  When it is regular, the k-th pivot is the k-th leading
    principal minor (Sylvester's identity).
    """
    nrows = len(a)
    width = len(a[0]) if a else 0
    pivots = []
    regular = True
    prev = 1
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if a[i][c] != 0), None)
        if piv is None:
            regular = False
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            regular = False
        row_r = a[r]
        pivot = row_r[c]
        for i in range(r + 1, nrows):
            row_i = a[i]
            factor = row_i[c]
            for j in range(c + 1, width):
                row_i[j] = _exact_div(row_i[j] * pivot - factor * row_r[j], prev)
            row_i[c] = 0
        pivots.append(pivot)
        prev = pivot
        r += 1
    return pivots, regular


def factor_augmented(matrix, adj):
    """The n rows of one elimination of [-M | -adj], or None exactly when
    M is not negative definite.

    Row i holds the leading minor p_(i+1) > 0 of -M at column i, zeros to
    its left and the eliminated right-hand side last.
    """
    rows = [[-m for m in row] + [-a] for row, a in zip(matrix, adj)]
    pivots, regular = eliminate(rows, len(rows))
    if not regular or any(p <= 0 for p in pivots):
        return None
    return tuple(map(tuple, rows))


def back_substitute(rows, n) -> tuple[int, list[int]]:
    """(d, y) with x = y / d solving rows[i][:n] . x = rows[i][n] for i < n,
    from the rows of a regular ``eliminate``: d, the last pivot, is the
    determinant, so y = d x is integral (Cramer) and found in integers."""
    d = rows[n - 1][n - 1] if n else 1
    y = [0] * n
    for i in range(n - 1, -1, -1):
        row = rows[i]
        y[i] = _exact_div(d * row[n] - sum(row[j] * y[j] for j in range(i + 1, n)), row[i])
    return d, y


def rank(rows) -> int:
    """Rank over the rationals of a matrix with int or Fraction entries."""
    if not rows or not rows[0]:
        return 0
    cleared = []
    for row in rows:
        fracs = [Fraction(x) for x in row]
        mult = lcm(*(f.denominator for f in fracs))
        cleared.append([int(f * mult) for f in fracs])
    return len(eliminate(cleared, len(cleared[0]))[0])
