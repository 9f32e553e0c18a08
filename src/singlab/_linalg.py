"""Exact linear algebra over the integers and rationals.

Everything here is one fraction-free Gaussian elimination in the style of
Bareiss, ``eliminate``: ranks of rational matrices after clearing
denominators, linear solves with rational back substitution, and the
negative-definiteness test, which reads Sylvester's criterion off the
pivots of a single pass.  No floating point anywhere.
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


def negative_definite(matrix) -> bool:
    """Sylvester's criterion for a symmetric integer matrix: the k-th
    leading principal minor has sign (-1)^k.

    A regular elimination yields exactly those minors as its pivots, and an
    irregular one means some minor vanishes, so one O(n^3) pass decides.
    """
    n = len(matrix)
    pivots, regular = eliminate([list(row) for row in matrix], n)
    return regular and len(pivots) == n and all(
        (p < 0) if k % 2 == 0 else (p > 0) for k, p in enumerate(pivots)
    )


def solve(matrix, rhs) -> list[Fraction]:
    """Solve M x = b exactly for square integer M and integer b.

    Fraction-free forward elimination of [M | b], rational back
    substitution.  Raises ValueError when M is singular.
    """
    n = len(matrix)
    a = [list(matrix[i]) + [rhs[i]] for i in range(n)]
    if len(eliminate(a, n)[0]) < n:
        raise ValueError("singular matrix")
    x = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        acc = Fraction(a[i][n])
        for j in range(i + 1, n):
            acc -= a[i][j] * x[j]
        x[i] = acc / a[i][i]
    return x


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
