"""Classification of elliptic ideals with Gorenstein normal tangent cone.

Given a numerically Gorenstein elliptic graph and the geometric genus p_g
(an analytic invariant the graph does not determine, so it is an explicit
input), the cycles representing integrally closed ideals with Gorenstein
normal tangent cone and normal reduction number 2 are exactly certain
partial sums C_t of the elliptic sequence.  The admissible index set A_f
is an arithmetic progression determined by (m, p_g); membership of t then
additionally requires -Z_t^2 >= 2 unless the singularity fails to be
maximally elliptic, in which case (in characteristic zero) every t < m
also qualifies.

The same module computes normal Hilbert data (multiplicity, first and
second normal Hilbert coefficients, the colength sequence of the powers)
for any anti-nef cycle, in the regime where the cohomological defect q is
constant from the first power on, i.e. normal reduction number at most 2.

The identities of a classified ideal (chi(C_t) = 0, K.C_t = -C_t^2,
colength <= p_g) and of its Hilbert data (the polynomial gives the
colength of each power, br <= p_g + 1) are stated once, in the lists
``_ideal_identities`` and ``_hilbert_identities`` yield: each call raises
at its first failing item, and ``verify-paper`` counts their items.
"""

from __future__ import annotations

from math import comb
from typing import NamedTuple

from . import _engine
from .cycles import _canonical_degree, _chi_of, riemann_roch_colength
from .elliptic import elliptic_sequence
from .errors import InputError, InternalCheckError, _is_int, _raise_at_first_failure
from .graph import Cycle, DualGraph, _dot, cycle_to_json

__all__ = [
    "AfStructure",
    "EllipticIdealClass",
    "ClassificationReport",
    "HilbertData",
    "derive_af",
    "classify_gorenstein_elliptic_ideals",
    "normal_hilbert_data",
    "pg_ideal_gorenstein_test",
]


class AfStructure(NamedTuple):
    """The admissible index set inside {0, ..., m}.

    gamma divides m with m/gamma = p_g - 1 (for p_g >= 2), beta = gamma - 1,
    and af = {beta + i*gamma : 0 <= i < m/gamma} plus m itself, so that
    |af| = p_g.  gamma = 1 exactly for maximally elliptic singularities.
    """

    gamma: int
    beta: int
    af: tuple[int, ...]
    maximal: bool


class EllipticIdealClass(NamedTuple):
    """Numerical record of one classified ideal, represented by C_t."""

    t: int
    cycle: Cycle
    colength: int
    e0: int
    kz: int
    chi: int
    eb2: int
    q: int
    kind: str  # "elliptic" | "strongly-elliptic"

    def to_json_dict(self) -> dict:
        return {
            "t": self.t,
            "cycle": cycle_to_json(self.cycle),
            "colength": self.colength,
            "e0": self.e0,
            "kz": self.kz,
            "chi": self.chi,
            "e2bar": self.eb2,
            "q": self.q,
            "kind": self.kind,
        }


class ClassificationReport(NamedTuple):
    af: AfStructure
    ideals: tuple[EllipticIdealClass, ...]
    zeta: int
    m: int
    p_g: int
    note: str | None = None

    def to_json_dict(self) -> dict:
        doc = {
            "gamma": self.af.gamma,
            "beta": self.af.beta,
            "af": list(self.af.af),
            "maximal": self.af.maximal,
            "m": self.m,
            "pg": self.p_g,
            "zeta": self.zeta,
            "ideals": [i.to_json_dict() for i in self.ideals],
        }
        if self.note:
            doc["note"] = self.note
        return doc


class HilbertData(NamedTuple):
    """Normal Hilbert data of the ideal cut out by an anti-nef cycle.

    ``colengths[k]`` is the colength of the (k+1)-st integral-closure
    power; ``q_sequence`` starts with p_g and stays at q from the first
    power on; ``br`` is the normal reduction number (1 or 2 here).
    """

    e0bar: int
    e1bar: int
    e2bar: int
    q_sequence: tuple[int, ...]
    colengths: tuple[int, ...]
    br: int


def derive_af(m: int, p_g: int) -> AfStructure:
    """Admissible index set from the sequence length m and genus p_g.

    Assumes residue characteristic zero for p_g < m + 1 (the structure of
    the progression is a characteristic-zero statement); the caller gates
    on that, see classify_gorenstein_elliptic_ideals.
    """
    if not (_is_int(m) and _is_int(p_g)):
        raise InputError("m and p_g must be integers")
    if m < 0 or p_g < 1:
        raise InputError(f"need m >= 0 and p_g >= 1, got m={m}, p_g={p_g}")
    if p_g == 1:
        if m != 0:
            raise InputError(
                f"p_g = 1 forces a sequence of length 1, got m = {m}"
            )
        return AfStructure(gamma=1, beta=0, af=(0,), maximal=True)
    if p_g > m + 1:
        raise InputError(
            f"inconsistent pair: p_g = {p_g} exceeds the sequence bound m + 1 = {m + 1}"
        )
    if m % (p_g - 1) != 0:
        raise InputError(
            f"inconsistent pair: p_g - 1 = {p_g - 1} does not divide m = {m}"
        )
    gamma = m // (p_g - 1)
    beta = gamma - 1
    af = tuple(beta + i * gamma for i in range(m // gamma)) + (m,)
    return AfStructure(gamma=gamma, beta=beta, af=af, maximal=gamma == 1)


def classify_gorenstein_elliptic_ideals(
    g: DualGraph, p_g: int, char0: bool = True
) -> ClassificationReport:
    """All elliptic ideals whose normal tangent cone is Gorenstein.

    Requires a minimal, elliptic, numerically Gorenstein graph
    (``elliptic_sequence`` refuses any other) and a p_g consistent with the
    sequence length.  In the non-maximal case the classification is only
    valid in residue characteristic zero; pass char0=False to get a
    refusal instead of an unwarranted answer.

    The paper's count criteria are proved, not checked: A_f has p_g
    elements, m among them, t = m is kept iff -Z_m^2 >= 2, and -Z_t^2
    never increases (``elliptic-sequence-degrees-monotone``).  So
    zeta = p_g iff -Z_m^2 >= 2, and maximal with Z_0^2 = -1 keeps no t.
    """
    seq = elliptic_sequence(g)
    af = derive_af(seq.m, p_g)
    if not af.maximal and not char0:
        raise InputError(
            "the non-maximal classification needs residue characteristic zero; "
            "this graph with p_g = %d is not maximally elliptic" % p_g
        )

    ideals = []
    for rank, t in enumerate(af.af):
        if not (-seq.self_intersection(t) >= 2 or (not af.maximal and t < seq.m)):
            continue
        ct = seq.partial_sum(t)
        colength = rank + 1
        ideals.append(
            EllipticIdealClass(
                t=t,
                cycle=ct,
                colength=colength,
                e0=-_dot(ct, ct.image),
                kz=_canonical_degree(g, ct),
                chi=_chi_of(ct),
                eb2=colength,
                q=p_g - colength,
                kind="strongly-elliptic" if colength == 1 else "elliptic",
            )
        )

    report = ClassificationReport(af=af, ideals=tuple(ideals), zeta=len(ideals), m=seq.m, p_g=p_g)
    _raise_at_first_failure(_ideal_identities(report))
    if af.maximal and seq.self_intersection(0) == -1:
        report = report._replace(note=(
            "maximally elliptic with Z_0^2 = -1: every integrally closed ideal "
            "with Gorenstein normal tangent cone has normal reduction number 1"
        ))
    return report


def _ideal_identities(report: ClassificationReport):
    """The identities each classified ideal satisfies, one ``(check, holds,
    detail)`` per assertion, read off its record: chi(C_t) = 0,
    K.C_t = e0 = -C_t^2 (``kz`` is a.C_t) and colength <= p_g.
    ``detail`` is None where the identity holds."""
    p_g = report.p_g
    for ideal in report.ideals:
        t = ideal.t
        ok = ideal.chi == 0
        yield ("gorenstein-cone-euler-characteristic", ok,
               None if ok else f"chi(C_{t}) = {ideal.chi}")
        ok = ideal.kz == ideal.e0
        yield ("gorenstein-cone-canonical-degree", ok,
               None if ok else f"K.C_{t} = {ideal.kz} != {ideal.e0}")
        ok = ideal.colength <= p_g
        yield ("gorenstein-cone-colength-bound", ok,
               None if ok else f"{ideal.colength} > p_g = {p_g}")


def normal_hilbert_data(g: DualGraph, z: Cycle, p_g: int, q: int, n_max: int = 8) -> HilbertData:
    """Normal Hilbert data of the ideal cut out by Z, assuming the defect
    q(n) equals q for every power n >= 1 (normal reduction number <= 2).

    Verifies on the way that the degree-2 polynomial built from the three
    coefficients reproduces the colength of every power up to n_max + 1.
    The anti-nef test and e0bar read the image Z carries.  A power n Z
    carries none (``k * D`` drops it), so ``riemann_roch_colength``
    multiplies each on its own and the polynomial is checked against
    colengths computed apart from it.  Those n_max + 1 products of n rows
    answer to the enumeration budget before the first one.
    """
    if not isinstance(z, Cycle) or z.graph != g:
        raise InputError("cycle does not live on this graph")
    if not all(x <= 0 for x in z.image) or z.is_zero or not z.is_effective:
        raise InputError("Z must be a non-zero effective anti-nef cycle")
    if not _is_int(n_max) or n_max < 1:
        raise InputError("n_max must be an integer >= 1")
    _engine.check_count((n_max + 1) * len(g), "the colength sequence", "row products")
    colengths = tuple(
        riemann_roch_colength(g, n * z, p_g, q) for n in range(1, n_max + 2)
    )
    e0bar = -_dot(z, z.image)
    e2bar = p_g - q
    e1bar = e0bar - colengths[0] + e2bar
    for prev, nxt in zip(colengths, colengths[1:]):
        if nxt <= prev:
            raise InternalCheckError(
                "colength-strict-monotonicity", f"{prev} !< {nxt}"
            )
    hd = HilbertData(
        e0bar=e0bar,
        e1bar=e1bar,
        e2bar=e2bar,
        q_sequence=(p_g,) + (q,) * n_max,
        colengths=colengths,
        br=1 if e2bar == 0 else 2,
    )
    _raise_at_first_failure(_hilbert_identities(hd, p_g))
    return hd


def _hilbert_identities(hd: HilbertData, p_g: int):
    """The identities normal Hilbert data satisfy, one ``(check, holds,
    detail)`` per assertion: the polynomial
    P(n) = e0bar C(n+2, 2) - e1bar (n+1) + e2bar is the colength of the
    power n + 1 for n = 1 .. n_max, then br <= p_g + 1.  ``detail`` is None
    where the identity holds."""
    for n in range(1, len(hd.colengths)):
        value = hd.e0bar * comb(n + 2, 2) - hd.e1bar * (n + 1) + hd.e2bar
        ok = value == hd.colengths[n]
        yield ("hilbert-polynomial-matches-colengths", ok, None if ok else
               f"P({n}) = {value} but the power {n + 1} has colength {hd.colengths[n]}")
    ok = hd.br <= p_g + 1
    yield "normal-reduction-number-bound", ok, None if ok else f"br = {hd.br}"


def pg_ideal_gorenstein_test(g: DualGraph, z: Cycle) -> bool:
    """For a cycle representing an ideal with normal reduction number 1:
    the normal tangent cone is Gorenstein exactly when K.Z = 0.

    The other form of the test, 2*colength = e0 (colength taken with
    q = p_g), is this one restated: 2*chi(Z) = e0 - K.Z is how ``chi`` is
    defined, with K.Z read as a.Z there as here, so it is not run.
    """
    if not isinstance(z, Cycle) or z.graph != g:
        raise InputError("Z must be an integral cycle on this graph")
    return _canonical_degree(g, z) == 0
