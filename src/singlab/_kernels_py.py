"""Pure-Python lattice-box scan kernels.

These are the hot loops of the package: walk every integer vector D with
0 <= D <= bounds (mixed-radix odometer, index 0 fastest) while maintaining
s = M.D, q = D.M.D and b.D incrementally.  Arbitrary-precision Python ints
keep the arithmetic exact for any input size; ``singlab._kernels`` is the
compiled twin for the ranges where 64-bit arithmetic is provably safe.

Both functions scan in the same deterministic order, so the two
implementations are interchangeable.
"""

from __future__ import annotations


def _columns(matrix, n):
    return [tuple(matrix[i][j] for i in range(n)) for j in range(n)]


def antinef_in_box(matrix, bounds):
    """All D in the box with M.D <= 0 componentwise (includes D = 0)."""
    n = len(bounds)
    cols = _columns(matrix, n)
    d = [0] * n
    s = [0] * n
    out = []
    while True:
        if all(x <= 0 for x in s):
            out.append(tuple(d))
        j = 0
        while j < n and d[j] == bounds[j]:
            k = d[j]
            col = cols[j]
            for i in range(n):
                s[i] -= k * col[i]
            d[j] = 0
            j += 1
        if j == n:
            return out
        col = cols[j]
        d[j] += 1
        for i in range(n):
            s[i] += col[i]


def min_twochi_in_box(matrix, adj, bounds):
    """Minimum of -(D.M.D + adj.D) over D != 0 in the box, with a witness.

    Returns (min_value, witness_tuple); the value is twice the minimal
    Euler characteristic.
    """
    n = len(bounds)
    cols = _columns(matrix, n)
    d = [0] * n
    s = [0] * n
    q = 0
    bd = 0
    best = None
    witness = None
    first = True
    while True:
        if not first:
            val = -(q + bd)
            if best is None or val < best:
                best = val
                witness = tuple(d)
        first = False
        j = 0
        while j < n and d[j] == bounds[j]:
            k = d[j]
            col = cols[j]
            q += -2 * k * s[j] + k * k * col[j]
            bd -= k * adj[j]
            for i in range(n):
                s[i] -= k * col[i]
            d[j] = 0
            j += 1
        if j == n:
            return best, witness
        col = cols[j]
        q += 2 * s[j] + col[j]
        bd += adj[j]
        d[j] += 1
        for i in range(n):
            s[i] += col[i]
