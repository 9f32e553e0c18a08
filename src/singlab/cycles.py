"""Fundamental cycles, the canonical cycle, and Euler characteristics.

The fundamental cycle of a support is the minimal effective cycle with
full support meeting every curve of the support non-positively; it is
computed by the classical incremental loop (start from the reduced cycle,
repeatedly bump a curve it still meets positively).  The canonical cycle
K solves the adjunction relations K . E_i = 2 g(E_i) - 2 - E_i^2 and is in
general only rational; the singularity is numerically Gorenstein when K
is integral.  K is y / d, the integer solution the graph keeps from the
solve that built it; nothing here eliminates again.
K . D is the integer a . D, a the adjunction vector (M K = a), so only
the numerically Gorenstein test and ``graph analyze`` read the rational
K.  chi, the Laufer loop's bump and the check of K run along the
graph's sparse rows, so cost O(n + |E|) each.  The loop keeps M Z up to
date as it bumps, and the cycle it returns carries that image, so E_min
and the elliptic sequence read chi and the orthogonal locus of each
fundamental cycle they build off it, with no product; chi reads any
cycle's image, which each cycle computes at most once.
An edge multiplicity picks how many bumps the loop takes, so the loop
answers to the enumeration budget (``SINGLAB_MAX_ENUM``).
The graph keeps Z_E, from which ellipticity, the chi sweep and the
sequence read chi(Z_E) and M Z_E.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, mul

from . import _engine
from .errors import InputError, InternalCheckError, _is_int
from .graph import Cycle, DualGraph, QCycle, _dot, connected_components, mat_vec, per_graph

__all__ = [
    "adjunction_vector",
    "fundamental_cycle",
    "canonical_cycle",
    "is_numerically_gorenstein",
    "chi",
    "riemann_roch_colength",
]


def adjunction_vector(g: DualGraph) -> tuple[int, ...]:
    """Per-vertex value 2*genus - 2 - self_int, i.e. K . E_i, as the graph
    keeps it: dotted with a cycle it gives K . D without solving for K."""
    return g.adjunction


def fundamental_cycle(g: DualGraph, support=None, rng=None) -> Cycle:
    """Minimal effective cycle with full support on ``support`` (default:
    every vertex) that meets each curve of the support non-positively.

    The incremental loop picks the first violating curve in vertex order;
    ``rng`` randomizes that pick instead.  The result is independent of
    the choice (the test suite drives this), only the trace differs.
    """
    if support is None:
        idxs = range(len(g))
    else:
        idxs = sorted({g.index_of(v) for v in support})
        if not idxs:
            raise InputError("support must be non-empty")
        if len(connected_components(g, idxs)) != 1:
            raise InputError("support must be connected")
    if rng is None and len(idxs) == len(g):
        return _fundamental(g)
    return _laufer_loop(g, idxs, rng)


@per_graph("fundamental")
def _fundamental(g: DualGraph) -> Cycle:
    """Z_E, holding the image the Laufer loop left it."""
    return _laufer_loop(g, range(len(g)), None)


def _laufer_loop(g: DualGraph, idxs, rng) -> Cycle:
    """The incremental loop of ``fundamental_cycle`` on the vertex
    indices ``idxs`` (ascending, connected, not checked here); its cycle Z
    holds the image M Z the loop keeps as it bumps.

    An edge multiplicity can ask for any number of bumps (E_a^2 = -1 and
    E_b^2 = -(m^2 + 1) meeting m times take m - 1), and each rescans the
    support, so bumps times |support| is held to the enumeration budget:
    past it the loop stops with EnumerationLimitError.  The budget is read
    at the first bump, so a loop that bumps nothing reads no environment."""
    rows = g.rows
    n = len(g)
    coeffs = [0] * n
    s = [0] * n  # s = M . coeffs, updated along the sparse column of each bump
    for j in idxs:
        coeffs[j] = 1
        for i, mij in rows[j]:
            s[i] += mij

    limit = 0  # bumps the budget allows, each rescanning the support
    steps = 0
    while True:
        violators = [i for i in idxs if s[i] > 0]
        if not violators:
            break
        j = rng.choice(violators) if rng is not None else violators[0]
        coeffs[j] += 1
        for i, mij in rows[j]:
            s[i] += mij
        steps += 1
        if steps > limit:
            _engine.check_count(steps * len(idxs), "the fundamental-cycle loop", "curve scans")
            limit = _engine.max_enum() // len(idxs)
    return Cycle._of(g, tuple(coeffs), tuple(s))


@per_graph("canonical")
def canonical_cycle(g: DualGraph) -> QCycle:
    """The rational cycle K with K . E_i = 2 g(E_i) - 2 - E_i^2 for all i:
    y / d, from the integer solution (d, y) of M y = d a the graph keeps
    from its construction."""
    d, y = g._solution
    # re-substitution check, always on, in integers: M (d K) = d a
    for i, acc in enumerate(mat_vec(g, y)):
        if acc != d * g.adjunction[i]:
            raise InternalCheckError(
                "canonical-cycle-resubstitution",
                f"row {g.vertices[i].id}: {acc} != {d} * {g.adjunction[i]}",
            )
    return QCycle(g, [Fraction(c, d) for c in y])


def is_numerically_gorenstein(g: DualGraph) -> bool:
    """True when the canonical cycle has integer coefficients."""
    return canonical_cycle(g).is_integral


def _canonical_degree(g: DualGraph, d: Cycle) -> int:
    """K . D of an integral cycle D, as a . D: M K = a, which
    ``canonical_cycle`` checks on every solve."""
    return _dot(d, g.adjunction)


def chi(g: DualGraph, d: Cycle) -> int:
    """Euler characteristic -(D^2 + D.K)/2 of an integral cycle, as an
    exact integer."""
    if not isinstance(d, Cycle):
        raise InputError("chi expects an integral cycle")
    if d.graph != g:
        raise InputError("cycle does not live on this graph")
    return _chi_of(d)


def _chi_of(d: Cycle) -> int:
    """chi(D) of an integral cycle, read off its image M D.

    2chi = -(D.MD + a.D) is even, so the halving is exact: with
    a_i = 2g_i - 2 - m_ii, a.D = sum m_ii d_i (mod 2), and D.MD =
    sum m_ii d_i^2 + 2 sum_(i<j) m_ij d_i d_j = sum m_ii d_i (mod 2), as
    d_i^2 = d_i (mod 2).
    """
    return -sum(map(mul, d.coeffs, map(add, d.image, d.graph.adjunction))) // 2


def riemann_roch_colength(g: DualGraph, z: Cycle, p_g: int, q: int) -> int:
    """Colength of the ideal cut out by the anti-nef cycle Z, given the
    geometric genus p_g and the cohomological defect q of the ideal:

        colength = -(Z^2 + K.Z)/2 + p_g - q.

    A non-positive result signals an inconsistent (p_g, q, Z) triple,
    since a proper ideal has colength at least 1.
    """
    if not isinstance(z, Cycle) or z.graph != g:
        raise InputError("Z must be an integral cycle on this graph")
    if not (_is_int(p_g) and _is_int(q)):
        raise InputError("p_g and q must be integers")
    if not 0 <= q <= p_g:
        raise InputError(f"need 0 <= q <= p_g, got q={q}, p_g={p_g}")
    if not z.is_effective or z.is_zero:
        raise InputError("Z must be a non-zero effective cycle")
    if not all(x <= 0 for x in z.image):  # anti-nefness and chi off one image
        raise InputError("Z must be anti-nef")
    ell = _chi_of(z) + p_g - q
    if ell <= 0:
        raise InputError(
            f"inconsistent data: colength {ell} is not positive "
            "(a proper ideal has colength >= 1)"
        )
    return ell
