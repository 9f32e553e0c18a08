"""Fundamental cycles, the canonical cycle, and Euler characteristics.

The fundamental cycle of a support is the minimal effective cycle with
full support meeting every curve of the support non-positively; it is
computed by the classical incremental loop (start from the reduced cycle,
repeatedly bump a curve it still meets positively).  The canonical cycle
K solves the adjunction relations K . E_i = 2 g(E_i) - 2 - E_i^2 and is in
general only rational; the singularity is numerically Gorenstein when K
is integral.  K is read off the elimination the graph made of its form
when it was built, by back substitution; nothing here eliminates again.
K . D is the integer a . D, a the adjunction vector (M K = a), so only
the numerically Gorenstein test, ``graph analyze`` and the sequence's
C_m = -K read the rational K.  Every product with the form (the Laufer
loop's bump, chi, the check of K) runs along the graph's sparse rows, so
costs O(n + |E|) per product.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

from ._linalg import back_substitute
from .errors import InputError, InternalCheckError, _is_int
from .graph import (Cycle, DualGraph, QCycle, connected_components, is_anti_nef, mat_vec,
                    pairing, per_graph)

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
        return _whole_graph_fundamental_cycle(g)
    return _laufer_loop(g, idxs, rng)


@per_graph("fundamental")
def _whole_graph_fundamental_cycle(g: DualGraph) -> Cycle:
    return _laufer_loop(g, range(len(g)), None)


def _laufer_loop(g: DualGraph, idxs, rng) -> Cycle:
    """The incremental loop of ``fundamental_cycle`` on the vertex
    indices ``idxs`` (ascending, connected)."""
    rows = g.rows
    n = len(g)
    coeffs = [0] * n
    s = [0] * n  # s = M . coeffs, updated along the sparse column of each bump
    for j in idxs:
        coeffs[j] = 1
        for i, mij in rows[j]:
            s[i] += mij

    cap = sum(abs(v.self_int) for v in g.vertices) * n * 64
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
        if steps > cap:
            raise InternalCheckError(
                "fundamental-cycle-termination",
                f"incremental loop exceeded {cap} steps; "
                "the intersection form cannot be negative definite",
            )
    return Cycle._of(g, tuple(coeffs))


@per_graph("canonical")
def canonical_cycle(g: DualGraph) -> QCycle:
    """The rational cycle K with K . E_i = 2 g(E_i) - 2 - E_i^2 for all i,
    by back substitution in the first n rows of the graph's elimination
    of [[-M, -a], [-a^T, 0]], which hold -M K = -a in triangular form."""
    d, y = back_substitute(g.elimination, len(g))
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
    return sum(map(mul, g.adjunction, d.coeffs))


def chi(g: DualGraph, d: Cycle) -> int:
    """Euler characteristic -(D^2 + D.K)/2 of an integral cycle, as an
    exact integer."""
    if not isinstance(d, Cycle):
        raise InputError("chi expects an integral cycle")
    if d.graph != g:
        raise InputError("cycle does not live on this graph")
    two_chi = -(pairing(g, d, d) + _canonical_degree(g, d))
    if two_chi % 2 != 0:
        raise InternalCheckError(
            "euler-characteristic-integrality", f"2*chi = {two_chi} is odd"
        )
    return two_chi // 2


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
    if not is_anti_nef(g, z):
        raise InputError("Z must be anti-nef")
    ell = chi(g, z) + p_g - q
    if ell <= 0:
        raise InputError(
            f"inconsistent data: colength {ell} is not positive "
            "(a proper ideal has colength >= 1)"
        )
    return ell
