# cython: language_level=3, boundscheck=False, wraparound=False, cdivision=True
"""Compiled lattice-box scan kernels (int64 twin of ``_kernels_py``).

Same functions, same deterministic scan order.  Inputs are pre-checked
against conservative magnitude limits so that every intermediate value
provably fits in a signed 64-bit integer; out-of-range inputs raise
OverflowError and the caller falls back to the exact pure-Python kernels.
"""

from libc.stdlib cimport free, malloc

# With n <= MAX_N vertices, |entries| <= MAX_ENTRY and bounds <= MAX_BOUND:
#   |s_i| = |(M D)_i| <= n * MAX_ENTRY * MAX_BOUND            < 2^34
#   |q|   = |D.M.D|   <= n * MAX_BOUND * max|s_i|             < 2^51
# leaving ample headroom below 2^63 for the update steps.
DEF MAX_N = 64
DEF MAX_ENTRY = 1 << 20
DEF MAX_BOUND = 1 << 7


cdef int _guard(object matrix, object adj, object bounds) except -1:
    cdef Py_ssize_t n = len(bounds)
    if n == 0 or n > MAX_N:
        raise OverflowError("dimension outside compiled-kernel range")
    for row in matrix:
        for x in row:
            if x < -MAX_ENTRY or x > MAX_ENTRY:
                raise OverflowError("matrix entry outside compiled-kernel range")
    if adj is not None:
        for x in adj:
            if x < -MAX_ENTRY or x > MAX_ENTRY:
                raise OverflowError("vector entry outside compiled-kernel range")
    for x in bounds:
        if x < 0 or x > MAX_BOUND:
            raise OverflowError("bound outside compiled-kernel range")
    return 0


cdef struct Scan:
    Py_ssize_t n
    long long *cols      # column-major n*n
    long long *adj
    long long *bound
    long long *d
    long long *s
    long long q
    long long bd


cdef int _scan_init(Scan *sc, object matrix, object adj, object bounds) except -1:
    cdef Py_ssize_t n = len(bounds), i, j
    sc.n = n
    sc.cols = <long long *> malloc(n * n * sizeof(long long))
    sc.adj = <long long *> malloc(n * sizeof(long long))
    sc.bound = <long long *> malloc(n * sizeof(long long))
    sc.d = <long long *> malloc(n * sizeof(long long))
    sc.s = <long long *> malloc(n * sizeof(long long))
    if not (sc.cols and sc.adj and sc.bound and sc.d and sc.s):
        _scan_free(sc)
        raise MemoryError()
    for i in range(n):
        row = matrix[i]
        for j in range(n):
            sc.cols[j * n + i] = row[j]
    for j in range(n):
        sc.adj[j] = adj[j] if adj is not None else 0
        sc.bound[j] = bounds[j]
        sc.d[j] = 0
        sc.s[j] = 0
    sc.q = 0
    sc.bd = 0
    return 0


cdef void _scan_free(Scan *sc) noexcept:
    free(sc.cols)
    free(sc.adj)
    free(sc.bound)
    free(sc.d)
    free(sc.s)


cdef bint _scan_step(Scan *sc) noexcept:
    """Advance the odometer once; False when the box is exhausted."""
    cdef Py_ssize_t n = sc.n, i, j = 0
    cdef long long k
    cdef long long *col
    while j < n and sc.d[j] == sc.bound[j]:
        k = sc.d[j]
        col = sc.cols + j * n
        sc.q += -2 * k * sc.s[j] + k * k * col[j]
        sc.bd -= k * sc.adj[j]
        for i in range(n):
            sc.s[i] -= k * col[i]
        sc.d[j] = 0
        j += 1
    if j == n:
        return False
    col = sc.cols + j * n
    sc.q += 2 * sc.s[j] + col[j]
    sc.bd += sc.adj[j]
    sc.d[j] += 1
    for i in range(n):
        sc.s[i] += col[i]
    return True


cdef tuple _current(Scan *sc):
    cdef Py_ssize_t j
    return tuple([sc.d[j] for j in range(sc.n)])


def antinef_in_box(matrix, bounds):
    """All D in the box with M.D <= 0 componentwise (includes D = 0)."""
    _guard(matrix, None, bounds)
    cdef Scan sc
    _scan_init(&sc, matrix, None, bounds)
    cdef Py_ssize_t i, n = sc.n
    cdef bint ok
    out = []
    try:
        while True:
            ok = True
            for i in range(n):
                if sc.s[i] > 0:
                    ok = False
                    break
            if ok:
                out.append(_current(&sc))
            if not _scan_step(&sc):
                return out
    finally:
        _scan_free(&sc)


def min_twochi_in_box(matrix, adj, bounds):
    """(min of -(D.M.D + adj.D) over D != 0, witness tuple)."""
    _guard(matrix, adj, bounds)
    cdef Scan sc
    _scan_init(&sc, matrix, adj, bounds)
    cdef bint first = True, have = False
    cdef long long best = 0, val
    witness = None
    try:
        while True:
            if not first:
                val = -(sc.q + sc.bd)
                if not have or val < best:
                    best = val
                    witness = _current(&sc)
                    have = True
            first = False
            if not _scan_step(&sc):
                return (best if have else None), witness
    finally:
        _scan_free(&sc)
