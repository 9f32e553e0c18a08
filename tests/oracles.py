"""Independent brute-force oracles for the test suite.

Everything here works on raw matrices and coefficient tuples with plain
loops over itertools boxes, deliberately sharing no code path with the
package's kernels or incremental algorithms.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product


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
