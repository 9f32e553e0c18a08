"""Independent brute-force oracles for the test suite.

Everything here works on raw matrices and coefficient tuples with plain
loops over itertools boxes, deliberately sharing no code path with the
package's kernels or incremental algorithms.  The exceptions, at the end,
are the box kernels the package used before it pruned its scans: they
visit every row or every candidate, and the pruned kernels must return
exactly what they return, in the same order; the pruned walk that
certified the chi >= 0 boxes before one minimum cut did, on the
elimination of the bordered form [[-M, -a], [-a^T, 0]] that
``bordered_factor`` builds for it; the linear solve the package used
for the canonical cycle before it read K off the graph's one
elimination; the Laufer loop as it ran on the dense matrix before the
form became sparse rows; and the check of the -1 chains as it stood
before it was telescoped, with its chain-adjacency test and its
adjunction clause.  The kernels of the package take ``DualGraph.rows``;
``sparse_rows`` lays out a raw matrix the same way for them.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import isqrt

from singlab._linalg import eliminate
from singlab.errors import InputError, InternalCheckError
from singlab.elliptic import EllipticSequence, MinusOneChainReport
from singlab.graph import Cycle, DualGraph, connected_components, mat_vec as sparse_mat_vec


def mat_vec(matrix, vec):
    n = len(vec)
    return [sum(matrix[i][j] * vec[j] for j in range(n)) for i in range(n)]


def quad(matrix, vec):
    mv = mat_vec(matrix, vec)
    return sum(v * s for v, s in zip(vec, mv))


def two_chi(matrix, adj, vec):
    """-(D.M.D + adj.D); twice the Euler characteristic."""
    return -(quad(matrix, vec) + sum(a * v for a, v in zip(adj, vec)))


def first_min_two_chi(matrix, adj, bounds):
    """(min, witness) of two_chi over D != 0 in the box: the first minimum
    met when the box is scanned index 0 fastest, or (None, None)."""
    best = witness = None
    for rev in product(*(range(b + 1) for b in reversed(bounds))):
        d = rev[::-1]
        if any(d):
            value = two_chi(matrix, adj, list(d))
            if best is None or value < best:
                best, witness = value, d
    return best, witness


def min_two_chi_join(matrix, adj, bounds):
    """(min, join): the least two_chi over the whole box, D = 0 included,
    and the componentwise maximum of every D attaining it."""
    values = {d: two_chi(matrix, adj, list(d)) for d in product(*(range(b + 1) for b in bounds))}
    best = min(values.values())
    minimisers = [d for d, value in values.items() if value == best]
    return best, tuple(max(d[i] for d in minimisers) for i in range(len(bounds)))


def sparse_rows(matrix):
    """The rows of a dense form as ``DualGraph.rows`` lays them out: the
    diagonal entry, then each nonzero entry off it."""
    return tuple(((i, row[i]),) + tuple((j, m) for j, m in enumerate(row) if j != i and m)
                 for i, row in enumerate(matrix))


def is_antinef(matrix, vec):
    return all(s <= 0 for s in mat_vec(matrix, vec))


def antinef_in_box(matrix, bounds):
    """Anti-nef vectors 0 <= D <= bounds, zero included, by plain scan."""
    return [
        d
        for d in product(*(range(b + 1) for b in bounds))
        if is_antinef(matrix, list(d))
    ]


def chi_zero_in_box(matrix, adj, bounds):
    return [
        d
        for d in product(*(range(b + 1) for b in bounds))
        if any(d) and two_chi(matrix, adj, list(d)) == 0
    ]


def minimal_antinef_full_support(matrix, bounds):
    """The coefficient-sum-minimal anti-nef vector with all entries >= 1."""
    best = None
    for d in product(*(range(1, b + 1) for b in bounds)):
        if is_antinef(matrix, list(d)):
            if best is None or sum(d) < sum(best):
                best = d
    return best


def fraction_rank(rows):
    """Row-reduction rank over Q with Fraction arithmetic throughout."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, nrows) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = m[rank][col]
        m[rank] = [x / inv for x in m[rank]]
        for r in range(nrows):
            if r != rank and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def fraction_det(matrix):
    m = [[Fraction(x) for x in row] for row in matrix]
    n = len(m)
    sign = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            sign = -sign
        for r in range(col + 1, n):
            factor = m[r][col] / m[col][col]
            m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    out = Fraction(sign)
    for i in range(n):
        out *= m[i][i]
    return out


def connected_subsets(adjacency, allowed):
    """All non-empty connected subsets of ``allowed`` (vertex indices)."""
    allowed = sorted(allowed)
    out = []
    for size in range(1, len(allowed) + 1):
        from itertools import combinations

        for combo in combinations(allowed, size):
            combo_set = set(combo)
            seen = {combo[0]}
            stack = [combo[0]]
            while stack:
                i = stack.pop()
                for j in combo_set:
                    if j not in seen and adjacency[i][j]:
                        seen.add(j)
                        stack.append(j)
            if seen == combo_set:
                out.append(combo)
    return out


def monomials_of_degree(weights, target):
    """Monomials x^a y^b z^c of weighted degree exactly ``target``."""
    if target < 0:
        return 0
    wx, wy, wz = weights
    count = 0
    for a in range(target // wx + 1):
        rest_a = target - a * wx
        for b in range(rest_a // wy + 1):
            if (rest_a - b * wy) % wz == 0:
                count += 1
    return count


def pg_by_graded_pieces(weights, degree):
    """Geometric genus of a degree-``degree`` weighted-homogeneous
    hypersurface: dim S_i = N(i) - N(i - degree), summed piece by piece
    for i from 0 up to the a-invariant degree - sum(weights)."""
    return sum(
        monomials_of_degree(weights, i) - monomials_of_degree(weights, i - degree)
        for i in range(degree - sum(weights) + 1)
    )


# The chi sweep one row along axis 0 at a time, and the anti-nef scan one
# candidate at a time, both in odometer order, index 0 fastest.


def _columns(matrix, n):
    return [tuple(matrix[i][j] for i in range(n)) for j in range(n)]


def odometer_antinef_in_box(matrix, bounds):
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


def row_min_twochi_in_box(matrix, adj, bounds):
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


# The chi walk the package ran on the graph's one elimination before one
# minimum cut certified each box: the first minimiser over D != 0, in
# odometer order.  The walk reads the border row, which the graph's own
# elimination of [-M | -a] does not carry, so it takes its own.


def bordered_factor(matrix, adj):
    """The rows of one elimination of [[-M, -adj], [-adj^T, 0]], or None
    exactly when M is not negative definite: row i < n holds the leading
    minor p_(i+1) > 0 of -M at column i and zeros to its left, and the
    last row is zero but for its corner."""
    n = len(matrix)
    rows = [[-m for m in row] + [-a] for row, a in zip(matrix, adj)]
    rows.append([-a for a in adj] + [0])
    pivots, regular = eliminate(rows, n)
    if not regular or any(p <= 0 for p in pivots):
        return None
    return rows


def min_twochi_in_box(rows, bounds):
    """Minimum of -(D.M.D + adj.D) over D != 0 in the box, with a witness.

    ``rows`` is the elimination of [[-M, -adj], [-adj^T, 0]] by
    ``bordered_factor``, so M is negative definite.  Returns
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
    cols = [[(i, 2 * rows[i][j]) for i in range(j) if rows[i][j]] for j in range(n)]
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


def dense_fundamental_cycle(g, support=None, rng=None) -> Cycle:
    """The incremental loop of ``cycles.fundamental_cycle`` updating
    M . D along a dense column of ``g.matrix`` at every bump."""
    if support is None:
        idxs = list(range(len(g)))
    else:
        idxs = sorted({g.index_of(v) for v in support})
        if not idxs:
            raise InputError("support must be non-empty")
        if len(connected_components(g, idxs)) != 1:
            raise InputError("support must be connected")

    m = g.matrix
    n = len(g)
    coeffs = [0] * n
    s = [0] * n  # s = M . coeffs
    for j in idxs:
        coeffs[j] = 1
        for i in range(n):
            s[i] += m[i][j]

    cap = sum(abs(v.self_int) for v in g.vertices) * n * 64
    steps = 0
    while True:
        violators = [i for i in idxs if s[i] > 0]
        if not violators:
            break
        j = rng.choice(violators) if rng is not None else violators[0]
        coeffs[j] += 1
        for i in range(n):
            s[i] += m[i][j]
        steps += 1
        if steps > cap:
            raise InternalCheckError(
                "fundamental-cycle-termination",
                f"incremental loop exceeded {cap} steps; "
                "the intersection form cannot be negative definite",
            )
    return Cycle(g, coeffs)


def check_minus_one_chains(g: DualGraph, seq: EllipticSequence) -> MinusOneChainReport:
    """Validate the chain structure forced by Z_j^2 = -1.

    Whenever some Z_j has self-intersection -1, each Z_i with j <= i < m
    must split as Z_m plus a chain of genus-0 (-2)-curves F_{m-1}, ..., F_i
    that the total cycle C_m (equivalently -K) meets trivially.  Violations
    raise InternalCheckError; the return value records what was checked.
    """
    if not isinstance(seq, EllipticSequence) or seq.graph != g:
        raise InputError("sequence belongs to a different graph")
    m = seq.m
    # one product per index: Z_t . E_i for every i gives Z_t^2 and F_t
    images = [sparse_mat_vec(g, z.coeffs) for z in seq.cycles]
    js = tuple(t for t in range(m + 1)
               if sum(a * b for a, b in zip(seq.cycles[t].coeffs, images[t])) == -1)
    if not js or js[0] == m:
        return MinusOneChainReport(js, ())

    j0 = js[0]
    adj = g.adjunction
    cm_dot = sparse_mat_vec(g, seq.partial_sum(m).coeffs)  # C_m . E_i for every i
    f: dict[int, int] = {}  # t -> vertex index of F_t
    for t in range(j0, m):
        z, mz = seq.cycles[t], images[t]
        negatives = [i for i in range(len(g)) if mz[i] < 0]
        if len(negatives) != 1 or mz[negatives[0]] != -1 or z.coeffs[negatives[0]] != 1:
            raise InternalCheckError(
                "minus-one-chain-structure",
                f"Z_{t} has no unique curve of pairing -1",
            )
        f[t] = negatives[0]

    # Z_m + F_{m-1} + ... + F_i for every i, by one running sum from the top
    acc = list(seq.cycles[m].coeffs)
    expected = {}
    for t in range(m - 1, j0 - 1, -1):
        acc[f[t]] += 1
        expected[t] = tuple(acc)
    for i in range(j0, m):
        if expected[i] != seq.cycles[i].coeffs:
            raise InternalCheckError(
                "minus-one-chain-structure",
                f"Z_{i} - Z_{m} is not the chain F_{m-1} + ... + F_{i}",
            )

    for t in range(j0, m):
        v = g.vertices[f[t]]
        if v.self_int != -2 or v.genus != 0:
            raise InternalCheckError(
                "minus-one-chain-structure", f"{v.id} is not a genus-0 (-2)-curve"
            )
        if t + 1 < m and f[t + 1] not in (j for j, _ in g.rows[f[t]][1:]):
            raise InternalCheckError(
                "minus-one-chain-structure",
                f"chain break between {v.id} and {g.vertices[f[t + 1]].id}",
            )
        if cm_dot[f[t]] != 0 or adj[f[t]] != 0:
            raise InternalCheckError(
                "minus-one-chain-structure",
                f"total cycle or canonical cycle meets {v.id}",
            )
    chain = tuple(g.vertices[f[t]].id for t in range(j0, m))
    return MinusOneChainReport(js, chain)
