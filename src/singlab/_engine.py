"""Lattice-box kernels and the enumeration budget.

Both kernels answer for every integer vector D with 0 <= D <= bounds
without visiting them all.  Python ints keep the arithmetic exact for any
input size; no float or Fraction is used.

``antinef_in_box`` lists the anti-nef D in mixed-radix odometer order,
index 0 fastest, as a scan of every candidate would.  It steps the
odometer over axes 1..n-1 only, keeping M.D up to date along the
graph's sparse rows, each a column of the symmetric M (O(degree) per
step), together with the number of positive entries that column 0
cannot change.  While that number is zero, the anti-nef points of a row
along axis 0 form one interval, read off the rows of M that column 0
meets; otherwise the row holds none.  The cost is O(rows * degree +
output).

``min_twochi_cut`` certifies the whole box at once: the least 2chi on it
and the largest D attaining it are one s-t minimum cut of a network with
one node per unit of each bound, built on the graph's sparse rows, so the
cost is polynomial in the bounds and the edges, not in the box.

``check_budget`` guards the scans whose length the caller's numbers pick:
the anti-nef enumeration and the p_g lattice count of ``singlab.wh``.  It
counts every candidate of the box, however few a kernel visits, so the
budget, like the chi sweep's 200k cap and sampled mode in
``singlab.elliptic``, does not depend on how a box is certified.  ``check_count``
holds any other count to the same budget: ``singlab.artinian`` checks
its staircase box and its matrix size with it before it allocates,
``DualGraph.matrix`` the n^2 entries of the dense view, the sparse
elimination of ``singlab._linalg`` the entries it stores as it creates
them, and the Laufer loop of ``singlab.cycles`` its bumps times the
support it rescans per bump, once they pass the budget.

Environment variables:
    SINGLAB_MAX_ENUM  candidate budget for the guarded scans (default 10**7).
"""

from __future__ import annotations

import os
from itertools import accumulate
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


def antinef_in_box(rows, bounds):
    """All D in the box with M.D <= 0 componentwise (includes D = 0), in
    odometer order, index 0 fastest.

    ``rows`` are the sparse rows of M (``DualGraph.rows``); M is
    symmetric, so row j is also column j, the entries d_j moves.  The
    odometer runs over axes 1..n-1 with s = M.D at d_0 = 0.  A row i of M
    with m_i0 != 0 bounds x = d_0 by s_i + m_i0 x <= 0: from above when
    m_i0 > 0, from below when m_i0 < 0 (row 0 of a negative definite
    form).  Any other row does not depend on x, so while none of them has
    s_i > 0 the row's anti-nef points are one interval of x, and none
    otherwise.
    """
    n = len(bounds)
    if n == 0:
        return [()]
    b0 = bounds[0]
    upper = [(i, m) for i, m in rows[0] if m > 0]
    lower = [(i, -m) for i, m in rows[0] if m < 0]
    free = [True] * n  # rows that x = d_0 leaves alone
    for i, m in rows[0]:
        free[i] = not m
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
                for i, m in rows[j]:
                    old = s[i]
                    s[i] = new = old - k * m
                    if free[i]:
                        positive += (new > 0) - (old > 0)
                d[j] = 0
            j += 1
        if j == n:
            return out
        d[j] += 1
        for i, m in rows[j]:
            old = s[i]
            s[i] = new = old + m
            if free[i]:
                positive += (new > 0) - (old > 0)


def min_twochi_cut(rows, adj, bounds):
    """(least value, largest minimiser) of 2chi(D) = -(D.M.D + adj.D) over
    the whole box 0 <= D <= bounds, D = 0 included, by one minimum cut.

    ``rows`` are the sparse rows of M (``DualGraph.rows``), negative on the
    diagonal and >= 0 off it, so 2chi is submodular and one s-t cut holds
    it exactly (Kolmogorov and Zabih 2004) on Ishikawa's network: d_i
    becomes the nodes x_ik = [d_i >= k], k = 1..b_i, and x_ik = 1 puts a
    node on the sink side.  Raising d_i to k costs -m_ii (2k - 1) - adj_i;
    for i < j, -2 m_ij d_i d_j = sum_kl (2m (1 - x_ik) x_jl - 2m x_jl) is
    an arc x_ik -> x_jl of capacity 2m for each pair and -2m b_i on each
    x_jl.  A node's cost c is an arc from the source (c > 0) or to the
    sink with the constant c (c < 0), kept as its excess.  The costs along
    a chain increase (-m_ii > 0) and each neighbour's arcs meet its nodes
    alike, so a cut out of order along a chain costs more than that chain
    sorted: every minimum cut is a D, with no arc to enforce it.  After a greedy
    push along single arcs, shortest augmenting paths run the flow up to
    maximum; the nodes it leaves unreached from the source are the sink
    side of the largest minimum cut, so the largest minimiser, which the
    minimisers of a submodular function, a lattice, have.  Exact ints.
    """
    first = list(accumulate(bounds, initial=0))  # node of x_i1
    size = first[-1]
    excess = [0] * size
    graph = [[] for _ in range(size)]  # arc e runs into head[e], e ^ 1 back
    head, cap = [], []
    for i, row in enumerate(rows):
        u, b = first[i], bounds[i]
        for j, m in row:
            if j == i:
                for k in range(b):
                    excess[u + k] -= m * (2 * k + 1) + adj[i]
            elif j > i:
                for v in range(first[j], first[j + 1]):
                    excess[v] -= 2 * m * b
                    for x in range(u, u + b):
                        graph[x].append(len(head))
                        graph[v].append(len(head) + 1)
                        head += (v, x)
                        cap += (2 * m, 0)

    def push(path, u, t):
        """Push all it can from source-side u along ``path`` to sink-side t."""
        flow = min(excess[u], -excess[t], *map(cap.__getitem__, path))
        for e in path:
            cap[e] -= flow
            cap[e ^ 1] += flow
        excess[u] -= flow
        excess[t] += flow
        return flow

    value = sum(c for c in excess if c < 0)
    for x in range(size):
        for e in graph[x]:
            if excess[x] <= 0:
                break
            if cap[e] and excess[head[e]] < 0:
                value += push((e,), x, head[e])
    while True:
        reached = [None] * size  # the arc into each node reached, -1 at a source
        queue = [u for u in range(size) if excess[u] > 0]
        for u in queue:
            reached[u] = -1
        for t in queue:
            if excess[t] < 0:
                break
            for e in graph[t]:
                if cap[e] and reached[head[e]] is None:
                    reached[head[e]] = e
                    queue.append(head[e])
        else:
            return value, tuple([reached[a:b].count(None) for a, b in zip(first, first[1:])])
        path = []
        u = t
        while reached[u] >= 0:
            path.append(reached[u])
            u = head[reached[u] ^ 1]
        value += push(path, u, t)
