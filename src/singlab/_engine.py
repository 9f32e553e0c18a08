"""Lattice-box scans and the enumeration budget.

Both kernels cover every integer vector D with 0 <= D <= bounds in
mixed-radix odometer order, index 0 fastest, and answer exactly as a scan
of every candidate would, in that order, without visiting them all.
Python ints keep the arithmetic exact for any input size; no float or
Fraction is used.

``antinef_in_box`` steps the odometer over axes 1..n-1 only, keeping M.D
up to date along the sparse columns of M (O(degree) per step) together
with the number of positive entries that column 0 cannot change.  While
that number is zero, the anti-nef points of a row along axis 0 form one
interval, read off the rows of M that column 0 meets; otherwise the row
holds none.  The cost is O(rows * degree + output).

``min_twochi_in_box`` certifies the box by an exact Fincke-Pohst walk.
It reads the graph's one elimination (``_linalg.factor_bordered``, kept
on the graph when it is built), which writes
2chi = const + sum_i N_i^2 / (4 p_i p_(i+1)), with p_i the leading
minors of -M and N_i an integer linear form in d_i..d_(n-1).  A depth
first walk over axes n-1..1 in increasing value (the odometer order)
skips a subtree only when the partial sum, a lower bound for every
candidate in it, is strictly above the best value met so far; each
level's values come from one ``isqrt``, and each row along axis 0 is
settled in closed form.  Every candidate of the box is certified.

``check_budget`` guards the scans whose length the caller's numbers pick:
the anti-nef enumeration and the p_g lattice count of ``singlab.wh``.  It
counts every candidate of the box, however few a kernel visits, so the
budget, like the chi sweep's 200k cap and sampled mode in
``singlab.elliptic``, does not depend on the pruning.  ``check_count``
holds any other count to the same budget: ``singlab.artinian`` checks
its staircase box and its matrix size with it before it allocates.

Environment variables:
    SINGLAB_MAX_ENUM  candidate budget for the guarded scans (default 10**7).
"""

from __future__ import annotations

import os
from math import isqrt, prod

from .errors import EnumerationLimitError, InputError

DEFAULT_MAX_ENUM = 10**7

# Read by perfbench's meta line; the package has no compiled kernels.
USING_COMPILED = False


def max_enum() -> int:
    raw = os.environ.get("SINGLAB_MAX_ENUM")
    if raw is None:
        return DEFAULT_MAX_ENUM
    try:
        value = int(raw)
        if value < 1:
            raise ValueError
    except ValueError:
        raise InputError(f"SINGLAB_MAX_ENUM must be a positive integer, got {raw!r}") from None
    return value


def box_size(bounds) -> int:
    return prod(b + 1 for b in bounds)


def check_count(count: int, what: str, unit: str = "candidates") -> int:
    """``count``, after rejecting a count above the budget."""
    cap = max_enum()
    if count > cap:
        raise EnumerationLimitError(
            f"{what} needs {count} {unit}, above the budget of {cap}; "
            "raise SINGLAB_MAX_ENUM to force it"
        )
    return count


def check_budget(bounds, what: str = "enumeration") -> int:
    """The box size, after rejecting a negative bound or a box above the budget."""
    if any(b < 0 for b in bounds):
        raise InputError(f"{what} needs non-negative bounds, got {tuple(bounds)}")
    return check_count(box_size(bounds), what)


def _sparse_columns(matrix, n):
    """The nonzero (i, m_ij) of each column j of the leading n x n block."""
    return [[(i, matrix[i][j]) for i in range(n) if matrix[i][j]] for j in range(n)]


def antinef_in_box(matrix, bounds):
    """All D in the box with M.D <= 0 componentwise (includes D = 0), in
    odometer order, index 0 fastest.

    The odometer runs over axes 1..n-1 with s = M.D at d_0 = 0.  A row i
    of M with m_i0 != 0 bounds x = d_0 by s_i + m_i0 x <= 0: from above
    when m_i0 > 0, from below when m_i0 < 0 (row 0 of a negative definite
    form).  Any other row does not depend on x, so while none of them has
    s_i > 0 the row's anti-nef points are one interval of x, and none
    otherwise.
    """
    n = len(bounds)
    if n == 0:
        return [()]
    cols = _sparse_columns(matrix, n)
    b0 = bounds[0]
    upper = [(i, m) for i, m in cols[0] if m > 0]
    lower = [(i, -m) for i, m in cols[0] if m < 0]
    free = [not row[0] for row in matrix]  # rows that x = d_0 leaves alone
    d = [0] * n
    s = [0] * n  # M.D, with d_0 held at 0
    positive = 0  # free rows i with s_i > 0
    out = []
    while True:
        if not positive:
            lo, hi = 0, b0
            for i, m in lower:
                lo = max(lo, -(-s[i] // m))
            for i, m in upper:
                hi = min(hi, -s[i] // m)
            if lo <= hi:
                rest = tuple(d[1:])
                out.extend((x, *rest) for x in range(lo, hi + 1))
        j = 1
        while j < n and d[j] == bounds[j]:
            k = d[j]
            if k:
                for i, m in cols[j]:
                    old = s[i]
                    s[i] = new = old - k * m
                    if free[i]:
                        positive += (new > 0) - (old > 0)
                d[j] = 0
            j += 1
        if j == n:
            return out
        d[j] += 1
        for i, m in cols[j]:
            old = s[i]
            s[i] = new = old + m
            if free[i]:
                positive += (new > 0) - (old > 0)


def min_twochi_in_box(rows, bounds):
    """Minimum of -(D.M.D + adj.D) over D != 0 in the box, with a witness.

    ``rows`` is the elimination of [[-M, -adj], [-adj^T, 0]] by
    ``_linalg.factor_bordered``, so M is negative definite.  Returns
    (min_value, witness_tuple), or (None, None) when the box holds only
    D = 0; the value is twice the minimal Euler characteristic.  The
    witness is the first minimiser in odometer order, index 0 fastest.

    With A = -M and g = -adj, row a_i of the elimination has the leading
    minor p_(i+1) of A as its pivot (p_0 = 1), and the last row has
    W_n = -g.adj(A).g in its corner, so that
    2chi = (W_n / 4 p_n) + sum_i N_i^2 / (4 p_i p_(i+1)) with
    N_i = 2 sum_(j >= i) a_ij d_j + a_in.  Once d_i..d_(n-1) are fixed,
    the partial sum is the minimum of 2chi over real d_0..d_(i-1), kept
    scaled as the integer W_i = 4 p_i * (that minimum), and
    W_i = (p_i W_(i+1) + N_i^2) / p_(i+1) exactly.  A value of d_i is
    kept while N_i^2 <= p_i (4 p_(i+1) best - W_(i+1)), an interval found
    by ``isqrt``.  With the other entries fixed, 2chi = c - beta*x +
    a*x^2 in x = d_0 (a = p_1), so the row minimum lies at
    floor(beta / 2a) or one above it, clamped to the row.
    """
    n = len(bounds)
    if n == 0:
        return None, None
    p = [1, *(rows[i][i] for i in range(n))]
    # column j of 2 a_ij over i < j: how d_j moves N_i
    cols = [[(i, 2 * m) for i, m in col if i < j]
            for j, col in enumerate(_sparse_columns(rows, n))]
    k = [rows[i][n] for i in range(n)]  # N_i - 2 p_(i+1) d_i
    w = [0] * n + [rows[n][n]]
    d = [0] * n
    a = p[1]
    b0 = bounds[0]
    best = witness = None
    lo0 = 1  # the first row settled is the one through D = 0, which is skipped
    i = n - 1
    start = 0  # the least value of d_i still to try
    while True:
        if i == 0:
            beta = -k[0]
            if lo0 <= b0:
                x = beta // (2 * a)
                if x < lo0:
                    x = lo0
                elif x > b0:
                    x = b0
                val = (a * x - beta) * x
                if x < b0:
                    # f(x+1) - f(x) = a(2x+1) - beta; a tie keeps the smaller x
                    up = a * (2 * x + 1) - beta
                    if up < 0:
                        x += 1
                        val += up
                val += (w[1] + beta * beta) // (4 * a)
                if best is None or val < best:
                    best = val
                    witness = (x, *d[1:])
            if n == 1:
                return best, witness
            lo0 = 0
            i = 1
            start = d[1] + 1
            continue
        pi, two = p[i], 2 * p[i + 1]
        lo, hi = start, bounds[i]
        if best is not None:
            q = pi * (2 * two * best - w[i + 1])
            if q < 0:
                hi = -1
            else:
                r = isqrt(q)
                lo = max(lo, -((r + k[i]) // two))
                hi = min(hi, (r - k[i]) // two)
        step = (lo if lo <= hi else 0) - d[i]
        if step:
            for j, e in cols[i]:
                k[j] += e * step
            d[i] += step
        if lo > hi:
            i += 1
            if i == n:
                return best, witness
            start = d[i] + 1
            continue
        nv = two * lo + k[i]
        w[i] = (pi * w[i + 1] + nv * nv) // p[i + 1]
        i -= 1
        start = 0
