"""Lattice-box scans and the enumeration budget.

Both kernels cover every integer vector D with 0 <= D <= bounds in
mixed-radix odometer order, index 0 fastest, keeping M.D and the other
running sums up to date incrementally.  ``antinef_in_box`` visits each
candidate.  ``min_twochi_in_box`` steps the odometer over axes 1..n-1
only, updating along the sparse columns of M (O(degree) per step), and
settles each row along axis 0 in closed form; every candidate of the
box is still certified, since the closed form is the exact minimum of
its row.  Python ints keep the arithmetic exact for any input size.
``check_budget`` guards the scans whose length the caller's numbers pick:
the anti-nef enumeration and the p_g lattice count of ``singlab.wh``.

Environment variables:
    SINGLAB_MAX_ENUM  candidate budget for the guarded scans (default 10**7).
"""

from __future__ import annotations

import os
from math import prod

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


def check_budget(bounds, what: str = "enumeration") -> int:
    """The box size, after rejecting a negative bound or a box above the budget."""
    if any(b < 0 for b in bounds):
        raise InputError(f"{what} needs non-negative bounds, got {tuple(bounds)}")
    size = box_size(bounds)
    cap = max_enum()
    if size > cap:
        raise EnumerationLimitError(
            f"{what} needs {size} candidates, above the budget of {cap}; "
            "raise SINGLAB_MAX_ENUM to force it"
        )
    return size


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

    Returns (min_value, witness_tuple), or (None, None) when the box holds
    only D = 0; the value is twice the minimal Euler characteristic.  The
    witness is the first minimiser in odometer order, index 0 fastest.

    The odometer runs over axes 1..n-1, and each row of the box along
    axis 0 is settled in closed form: with the other entries fixed,
    2chi = c - beta*x + a*x^2 in x = d_0, where a = -m_00 must be
    positive (as on every negative definite form), so the row minimum
    lies at floor(beta / 2a) or one above it, clamped to the row.
    """
    n = len(bounds)
    if n == 0:
        return None, None
    a = -matrix[0][0]
    if a <= 0:
        raise InputError("min_twochi_in_box needs a negative first diagonal entry")
    b0 = bounds[0]
    adj0 = adj[0]
    # sparse columns: the nonzero (i, m_ij) of column j
    cols = [[(i, row[j]) for i, row in enumerate(matrix) if row[j]] for j in range(n)]
    # 2chi(D + e_j) - 2chi(D) = -(2 s_j + m_jj + adj_j)
    step = [matrix[j][j] + adj[j] for j in range(n)]
    d = [0] * n
    s = [0] * n  # M.D, with d_0 held at 0
    c = 0  # 2chi(D), with d_0 held at 0
    best = witness = None
    lo = 1  # the first row is the one through D = 0, which is skipped
    while True:
        if lo <= b0:
            beta = 2 * s[0] + adj0
            x = beta // (2 * a)
            if x < lo:
                x = lo
            elif x > b0:
                x = b0
            val = (a * x - beta) * x
            if x < b0:
                # f(x+1) - f(x) = a(2x+1) - beta; a tie keeps the smaller x
                up = a * (2 * x + 1) - beta
                if up < 0:
                    x += 1
                    val += up
            val += c
            if best is None or val < best:
                best = val
                witness = (x, *d[1:])
        lo = 0
        j = 1
        while j < n and d[j] == bounds[j]:
            k = d[j]
            if k:
                c += k * (2 * s[j] - k * matrix[j][j] + adj[j])
                for i, m in cols[j]:
                    s[i] -= k * m
                d[j] = 0
            j += 1
        if j == n:
            return best, witness
        c -= 2 * s[j] + step[j]
        d[j] += 1
        for i, m in cols[j]:
            s[i] += m
