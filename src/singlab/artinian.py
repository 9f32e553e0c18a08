"""Exact colengths dim_k k[x,y,z]/((f) + M) for a monomial ideal M.

When M is zero-dimensional the quotient k[x,y,z]/M has the staircase of
standard monomials as a basis, and the image of (f) in it is the image of
the multiplication-by-f operator; so the colength is the staircase size
minus the rank of that operator.  Scaling f leaves the rank alone, so f's
denominators are cleared once and the operator is one integer matrix,
whose rank is the pivot count of one fraction-free elimination
(``_linalg.eliminate``).  This module is the independent oracle the
package uses to confirm ideal colengths obtained from intersection
numbers.

Lengths here are over the polynomial ring; for the zero-dimensional
ideals this package feeds in, they agree with the lengths over the local
or power-series ring, but no general comparison is attempted.

The staircase box and the N x N matrix are held to the enumeration
budget (``SINGLAB_MAX_ENUM``, default 10**7) before either is built, so
an ideal such as (x^40, y^40, z^40), N = 64 000, whose matrix would
hold 4.1 * 10**9 entries, is refused at once with an InputError.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod

from . import _engine
from ._linalg import eliminate
from .errors import EnumerationLimitError, InputError, _exact_terms, _exponent_triple, _is_int
from .parsing import parse_monomial_list, parse_polynomial

__all__ = [
    "MonomialIdeal",
    "DensePoly",
    "standard_monomials",
    "colength",
    "colength_saturating",
]

Exponents = tuple[int, int, int]


def _divides(a: Exponents, b: Exponents) -> bool:
    return a[0] <= b[0] and a[1] <= b[1] and a[2] <= b[2]


class MonomialIdeal:
    """Monomial ideal in k[x,y,z], stored by its minimal generators."""

    __slots__ = ("generators",)

    def __init__(self, generators):
        try:
            gens = {_exponent_triple(g) for g in generators}
        except TypeError:
            raise InputError(
                f"generators must be an iterable of exponent triples, got {generators!r}"
            ) from None
        if (0, 0, 0) in gens:
            raise InputError("the unit ideal is not allowed")
        gens = sorted(gens)
        minimal = [
            g for g in gens if not any(h != g and _divides(h, g) for h in gens)
        ]
        if not minimal:
            raise InputError("monomial ideal needs at least one generator")
        self.generators = tuple(minimal)

    @classmethod
    def from_text(cls, text: str) -> MonomialIdeal:
        return cls(parse_monomial_list(text))

    def contains(self, exps: Exponents) -> bool:
        return any(_divides(g, exps) for g in self.generators)

    def pure_power_caps(self) -> tuple[int, int, int] | None:
        """Exponent of a pure power of each variable, or None if some
        variable has none (then the ideal is not zero-dimensional)."""
        caps = [None, None, None]
        for g in self.generators:
            for axis in range(3):
                if all(g[other] == 0 for other in range(3) if other != axis):
                    if caps[axis] is None or g[axis] < caps[axis]:
                        caps[axis] = g[axis]
        if any(c is None for c in caps):
            return None
        return tuple(caps)

    def plus_pure_powers(self, n: int) -> MonomialIdeal:
        return MonomialIdeal(
            list(self.generators) + [(n, 0, 0), (0, n, 0), (0, 0, n)]
        )

    def __eq__(self, other):
        return isinstance(other, MonomialIdeal) and other.generators == self.generators

    def __hash__(self):
        return hash(self.generators)

    def __repr__(self):
        return f"MonomialIdeal{self.generators}"


class DensePoly:
    """Polynomial in x, y, z with exact rational coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        merged: dict[Exponents, Fraction] = {}
        for exps, coeff in _exact_terms(terms):
            merged[exps] = merged.get(exps, Fraction(0)) + coeff
        self.terms = tuple(sorted((e, c) for e, c in merged.items() if c != 0))

    @classmethod
    def from_text(cls, text: str) -> DensePoly:
        return cls(parse_polynomial(text))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __repr__(self):
        return f"DensePoly({len(self.terms)} terms)"


def standard_monomials(ideal: MonomialIdeal) -> tuple[Exponents, ...]:
    """The staircase basis of k[x,y,z]/M: monomials outside M, sorted.
    The box of exponents below the pure powers is held to the enumeration
    budget before it is scanned."""
    caps = ideal.pure_power_caps()
    if caps is None:
        raise InputError(
            "monomial ideal is not zero-dimensional "
            "(needs a pure power of each variable)"
        )
    _engine.check_count(prod(caps), "the staircase box", "monomials")
    out = []
    for ex in range(caps[0]):
        for ey in range(caps[1]):
            for ez in range(caps[2]):
                if not ideal.contains((ex, ey, ez)):
                    out.append((ex, ey, ez))
    return tuple(out)


def colength(f: DensePoly, ideal: MonomialIdeal) -> int:
    """dim_k k[x,y,z]/((f) + M) for zero-dimensional M, exactly.

    The rank of multiplication by f on the staircase basis is invariant
    under scaling f, so the result only depends on the ideal (f) + M, and
    f is scaled by the lcm of its denominators into an integer matrix.
    The N x N matrix is held to the enumeration budget before it is
    allocated (EnumerationLimitError, an InputError, when N^2 is above it).
    """
    if f.is_zero:
        raise InputError("polynomial must be non-zero")
    basis = standard_monomials(ideal)
    size = len(basis)
    _engine.check_count(size * size, "the multiplication matrix", "entries")
    position = {exps: i for i, exps in enumerate(basis)}
    scale = lcm(*(c.denominator for _, c in f.terms))
    terms = [(exps, c.numerator * (scale // c.denominator)) for exps, c in f.terms]
    matrix = [[0] * size for _ in range(size)]
    for col, mono in enumerate(basis):
        for exps, coeff in terms:
            shifted = (exps[0] + mono[0], exps[1] + mono[1], exps[2] + mono[2])
            row = position.get(shifted)
            if row is not None:
                matrix[row][col] += coeff
    return size - len(eliminate(matrix, size))


def colength_saturating(f: DensePoly, ideal: MonomialIdeal, cap: int = 256) -> int:
    """Extend ``colength`` to M that is not zero-dimensional by adding
    pure powers x^N, y^N, z^N for N = 2, 4, 8, ... until two consecutive
    values agree; the stable value is the colength of (f) + M.

    Stabilization of two consecutive doublings is a heuristic: if the
    ideal (f) + M fails to be zero-dimensional the values grow forever
    and the cap is reported as exceeded.  Each doubling is held to the
    enumeration budget, so the first one over it stops the loop with
    EnumerationLimitError before its matrix is built.
    """
    if not _is_int(cap) or cap < 2:
        raise InputError("cap must be an integer >= 2")
    previous = None
    n = 2
    while n <= cap:
        try:
            value = colength(f, ideal.plus_pure_powers(n))
        except EnumerationLimitError as exc:
            raise EnumerationLimitError(
                f"colength did not stabilize before pure powers of exponent {n}: {exc}"
            ) from None
        if previous is not None and value == previous:
            return value
        previous = value
        n *= 2
    raise InputError(
        f"colength did not stabilize up to pure powers of exponent {cap}; "
        "(f) + M is probably not zero-dimensional"
    )
