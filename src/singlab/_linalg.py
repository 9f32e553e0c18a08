"""Exact linear algebra over the integers, and only the integers.

Everything here is one fraction-free Gaussian elimination in the style of
Bareiss, ``eliminate``: the rank of ``artinian.colength``'s integer
matrix is its pivot count, and ``solve_negative_definite`` decides each
graph's form.  It fills [-M | -a] from the graph's sparse rows, reads
Sylvester's criterion off the pivots, back-substitutes K = y / d and
drops the table, so the elimination order is this one function's choice.
No floating point and no Fraction anywhere.
"""

from __future__ import annotations


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


def solve_negative_definite(rows, adj) -> tuple[int, list[int]] | None:
    """(d, y) with K = y / d solving M K = ``adj``, or None exactly when M
    is not negative definite.

    ``rows`` is the form as ``DualGraph.rows`` lays it out.  One
    elimination of the n x (n + 1) table [-M | -adj]: M is negative
    definite iff it is regular with every pivot, the leading minors of
    -M, positive (Sylvester).  d, the last pivot, is det(-M), so y = d K
    is integral (Cramer) and back substitution finds it in integers.
    """
    n = len(rows)
    table = [[0] * n + [-a] for a in adj]
    for line, row in zip(table, rows):
        for j, m in row:
            line[j] = -m
    pivots, regular = eliminate(table, n)
    if not regular or any(p <= 0 for p in pivots):
        return None
    d = pivots[-1]
    y = [0] * n
    for i in range(n - 1, -1, -1):
        line = table[i]
        y[i] = _exact_div(d * line[n] - sum(line[j] * y[j] for j in range(i + 1, n)), line[i])
    return d, y
