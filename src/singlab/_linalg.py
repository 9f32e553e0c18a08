"""Exact linear algebra over the integers, and only the integers.

Everything here is fraction-free Gaussian elimination in the style of
Bareiss.  ``eliminate`` runs it densely: the rank of ``artinian.colength``'s
integer matrix is its pivot count.  ``solve_negative_definite`` runs it on
a graph's sparse rows in minimum-degree order and decides each graph's
form: tree leaves go first and create no fill, so a tree costs O(n log n)
steps (the continued-fraction reduction of Neumann's plumbing calculus),
and cycles of curves accept the fill their order creates.  It reads
Sylvester's criterion off the pivots, back-substitutes K = y / d and keeps
no table.  No floating point and no Fraction anywhere.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

from ._engine import check_count, max_enum

_STORE = "the elimination of the intersection form"


def check_store(n_vertices: int, n_edges: int) -> int:
    """The 2n + |E| entries the elimination stores before any fill, charged."""
    return check_count(2 * n_vertices + n_edges, _STORE, "entries")


def _exact_div(num: int, den: int) -> int:
    # Bareiss guarantees exact divisibility; a nonzero remainder means a bug.
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError("fraction-free elimination lost exactness")
    return q


def eliminate(a, ncols: int) -> list[int]:
    """Fraction-free forward elimination of the integer rows ``a``, in place.

    Pivots are taken in the first ``ncols`` columns; any later columns (a
    right-hand side, say) are carried along.  Returns the pivots in order;
    their number is the rank of those columns.  When no row is swapped
    and no column skipped, the k-th pivot is the k-th leading principal
    minor (Sylvester's identity).
    """
    nrows = len(a)
    width = len(a[0]) if a else 0
    pivots = []
    prev = 1
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if a[i][c] != 0), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
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
    return pivots


def solve_negative_definite(rows, adj) -> tuple[int, list[int]] | None:
    """(d, y) with K = y / d solving M K = ``adj``, or None exactly when M
    is not negative definite.

    ``rows`` is the symmetric form as ``DualGraph.rows`` lays it out.  One
    Bareiss elimination of [-M | -adj] in the order P that minimum degree
    picks (a heap keyed by the current degree, ties to the lowest index):
    P^T M P is negative definite exactly when M is, so M is iff every
    pivot, the leading minors of -P^T M P, is positive (Sylvester); the
    elimination stops at the first that is not.  d, the last pivot, is
    det(-M), so y = d K is integral (Cramer), and back substitution in the
    reverse order finds it in integers.

    Each entry of the reduced form is kept once for both of its rows, with
    the step that last wrote it: step k writes only the entries between
    neighbours of its pivot, and every other entry of step s becomes the
    one of step k - 1 on multiplying by p_(k-1) / p_s, a division that is
    exact because both are minors.  The diagonal and the right-hand side
    of a vertex change together and share one step.  The entries the
    elimination stores, the form's n diagonal and |E| edge entries, the n
    right-hand sides and every fill entry as it is created, answer to the
    enumeration budget (``SINGLAB_MAX_ENUM``), and so does each pivot by
    its 64-bit words past the first: every pivot is kept for the back
    substitution, and they need not stay small (after k leaves of a star
    of (-2)-curves, p_k = 2^k).
    """
    n = len(rows)
    diag = [0] * n
    rhs = [-a for a in adj]
    step = [0] * n  # the step of diag[i] and rhs[i]
    off = [{} for _ in range(n)]  # off[i][j] is off[j][i]: [value, step]
    for i, row in enumerate(rows):
        for j, m in row:
            if j == i:
                diag[i] = -m
            elif j > i:
                off[i][j] = off[j][i] = [-m, 0]
    stored = check_store(n, sum(map(len, off)) // 2)
    cap = max_enum()
    piv = [1]  # piv[k] is the pivot of step k
    done = [False] * n
    order = []
    heap = [(len(nbrs), i) for i, nbrs in enumerate(off)]
    heapify(heap)
    while heap:
        degree, v = heappop(heap)
        if done[v] or degree != len(off[v]):
            continue  # an entry left behind by a later push
        done[v] = True
        k = len(piv)
        prev = piv[-1]
        s = piv[step[v]]
        pivot, c = diag[v], rhs[v]
        if s != prev:
            pivot, c = _exact_div(pivot * prev, s), _exact_div(c * prev, s)
        if pivot <= 0:
            return None
        piv.append(pivot)
        words = pivot.bit_length() >> 6  # kept to the end, like its row
        if words:
            stored += words
            if stored > cap:
                check_count(stored, _STORE, "entries")
        nbrs = off[v]
        line = []
        for j, entry in nbrs.items():
            value, t = entry
            line.append((j, value if t == k - 1 else _exact_div(value * prev, piv[t])))
            del off[j][v]
        order.append((v, pivot, line, c))
        for i, a in line:
            s = piv[step[i]]
            if s == prev:
                d_i, r_i = diag[i], rhs[i]
            else:
                d_i, r_i = _exact_div(diag[i] * prev, s), _exact_div(rhs[i] * prev, s)
            diag[i] = _exact_div(pivot * d_i - a * a, prev)
            rhs[i] = _exact_div(pivot * r_i - a * c, prev)
            step[i] = k
        for x, (i, a) in enumerate(line):
            row_i = off[i]
            for j, b in line[x + 1:]:
                entry = row_i.get(j)
                if entry is None:
                    stored += 1
                    if stored > cap:
                        check_count(stored, _STORE, "entries")
                    entry = row_i[j] = off[j][i] = [0, k - 1]
                value, t = entry
                if t != k - 1:
                    value = _exact_div(value * prev, piv[t])
                entry[0] = _exact_div(pivot * value - a * b, prev)
                entry[1] = k
            heappush(heap, (len(row_i), i))
    d = piv[-1]
    y = [0] * n
    for v, pivot, line, c in reversed(order):
        y[v] = _exact_div(d * c - sum([a * y[j] for j, a in line]), pivot)
    return d, y
