"""Lattice-point invariants of weighted-homogeneous hypersurfaces in three
variables: a-invariant, graded dimensions, geometric genus, and the normal
reduction number of the maximal ideal in the Brieskorn case x^a+y^b+z^c.

The geometric genus of the graded ring S = k[x,y,z]/(f) is the sum of the
dimensions of its graded pieces up to the a-invariant; for a hypersurface
cut out by a degree-d equation, dim S_i counts monomials of weighted
degree i minus those of degree i - d, and the a-invariant is
d - (w_x + w_y + w_z).  Both genus functions read one budgeted counter of
monomials of degree at most t.
"""

from __future__ import annotations

from fractions import Fraction

from . import _engine
from .errors import InputError, _exact_terms, _is_int
from .parsing import parse_polynomial

__all__ = [
    "WeightedPoly",
    "a_invariant",
    "graded_dim",
    "pg_weighted_homogeneous",
    "pg_brieskorn",
    "br_maximal_ideal_brieskorn",
]


class WeightedPoly:
    """Sparse weighted-homogeneous polynomial in x, y, z.

    Terms are merged and stored sorted by exponent triple; all terms must
    share the same weighted degree and at least two terms must survive
    merging (a one-term equation does not cut out a normal surface).
    """

    __slots__ = ("weights", "terms", "degree")

    def __init__(self, weights, terms):
        weights = _positive_triple(weights)
        if weights is None:
            raise InputError("weights must be positive integers")
        wx, wy, wz = weights
        merged: dict[tuple[int, int, int], Fraction] = {}
        for exps, coeff in _exact_terms(terms):
            if coeff == 0:
                raise InputError("zero coefficient in polynomial term")
            merged[exps] = merged.get(exps, Fraction(0)) + coeff
        cleaned = {e: c for e, c in merged.items() if c != 0}
        if len(cleaned) < 2:
            raise InputError("polynomial must have at least two terms")
        degrees = {wx * e[0] + wy * e[1] + wz * e[2] for e in cleaned}
        if len(degrees) != 1:
            raise InputError(
                f"polynomial is not weighted homogeneous for weights "
                f"({wx}, {wy}, {wz}): degrees {sorted(degrees)}"
            )
        self.weights = weights
        self.terms = tuple(sorted(cleaned.items()))
        self.degree = degrees.pop()

    @classmethod
    def from_text(cls, weights, text: str) -> WeightedPoly:
        return cls(weights, parse_polynomial(text))

    def __repr__(self):
        return f"WeightedPoly(weights={self.weights}, degree={self.degree}, {len(self.terms)} terms)"


def _positive_triple(weights) -> tuple[int, int, int] | None:
    """``weights`` as a tuple of three positive ints, or None for anything
    else, whatever its shape."""
    try:
        weights = tuple(weights)
    except TypeError:
        return None
    if len(weights) == 3 and all(_is_int(w) and w >= 1 for w in weights):
        return weights
    return None


def a_invariant(weights, degree: int) -> int:
    """degree - (w_x + w_y + w_z); may be negative."""
    weights = _positive_triple(weights)
    if weights is None or not (_is_int(degree) and degree >= 1):
        raise InputError("weights and degree must be positive integers")
    return degree - sum(weights)


def _count_upto(weights, top: int) -> int:
    """Monomials of weighted degree at most ``top``: the loops run over the
    two heaviest exponents, within the enumeration budget, and the
    lightest is counted in closed form."""
    triple = _positive_triple(weights)
    if triple is None:
        raise InputError(f"weights must be positive integers, got {weights!r}")
    if top < 0:
        return 0
    w1, w2, w3 = sorted(triple, reverse=True)
    _engine.check_budget((top // w1, top // w2), what="lattice count")
    count = 0
    for i in range(top // w1 + 1):
        rest_i = top - i * w1
        for j in range(rest_i // w2 + 1):
            count += (rest_i - j * w2) // w3 + 1
    return count


def _count_exact_degree(weights, target: int) -> int:
    """Monomials of weighted degree exactly ``target``."""
    return _count_upto(weights, target) - _count_upto(weights, target - 1)


def graded_dim(weights, degree: int, i: int) -> int:
    """dim of the i-th graded piece of k[x,y,z]/(f), deg f = degree.

    The degree must be attained by some monomial (every actual equation
    satisfies this); multiplication by f is then injective and the count
    difference below is non-negative.
    """
    if not (_is_int(degree) and _is_int(i)):
        raise InputError("degree and graded index must be integers")
    if i < 0:
        raise InputError("graded index must be >= 0")
    if _count_exact_degree(weights, degree) == 0:
        raise InputError(
            f"no monomial of weights {tuple(weights)} has degree {degree}"
        )
    return _count_exact_degree(weights, i) - _count_exact_degree(weights, i - degree)


def pg_weighted_homogeneous(p: WeightedPoly) -> int:
    """Geometric genus: sum of graded dimensions up to the a-invariant.

    Trusts the caller that the equation defines a normal surface
    singularity; that is not checkable from the lattice data alone.
    """
    top = a_invariant(p.weights, p.degree)
    # sum_{i <= top} (N(i) - N(i - d)) telescopes
    return _count_upto(p.weights, top) - _count_upto(p.weights, top - p.degree)


def _check_brieskorn(a: int, b: int, c: int):
    if not all(map(_is_int, (a, b, c))):
        raise InputError(f"Brieskorn exponents must be integers, got ({a!r}, {b!r}, {c!r})")
    if not (2 <= a <= b <= c):
        raise InputError(f"need 2 <= a <= b <= c, got ({a}, {b}, {c})")


def pg_brieskorn(a: int, b: int, c: int) -> int:
    """Geometric genus of x^a + y^b + z^c: the number of non-negative
    (i, j, k) with i*bc + j*ac + k*ab <= abc - (ab + bc + ca)."""
    _check_brieskorn(a, b, c)
    return _count_upto((b * c, a * c, a * b), a * b * c - (a * b + b * c + c * a))


def br_maximal_ideal_brieskorn(a: int, b: int, c: int) -> int:
    """Normal reduction number of the maximal ideal of x^a + y^b + z^c:
    floor((a-1) b / a)."""
    _check_brieskorn(a, b, c)
    return (a - 1) * b // a
