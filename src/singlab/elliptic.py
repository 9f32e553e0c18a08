"""Ellipticity, the minimally elliptic cycle, and the elliptic sequence.

A resolution graph is elliptic when the Euler characteristic of its
fundamental cycle vanishes (and then chi(D) >= 0 for every cycle D > 0,
which is re-checked on a bounded sweep).  The minimally elliptic cycle
E_min is the fundamental cycle of the unique minimal connected subgraph
whose fundamental cycle has chi = 0 (Wagreich 1970, Laufer 1977); every
other connected subgraph that misses part of its support is rational
(chi = 1, Artin's criterion), so vertex deletion with O(n) Laufer loops
finds it without enumerating cycles.  On a numerically Gorenstein
elliptic graph the elliptic sequence Z_0 > Z_1 > ... > Z_m, ending at
E_min, is built by repeatedly restricting to the curves orthogonal to the
current cycle; its partial sums C_t and tail sums C'_t drive the ideal
classification in ``singlab.classify``.  Products with the form run along
the graph's sparse rows, one per step of the sequence; only the sampled chi
sweep still multiplies by the dense matrix, held there until the
benchmark's per-pass memory is mended (ROADMAP item 1).  The sweep's
draws are the stream ``random.Random(0xE11).randint`` gives, read straight
through ``getrandbits`` by the same rejection loop.

Every structural fact the construction relies on is verified on the
actual data and raises InternalCheckError when violated, naming the
property; this is how inconsistent analytic inputs (a wrong geometric
genus, say) surface instead of producing silent nonsense.
"""

from __future__ import annotations

import random
from operator import mul
from typing import NamedTuple

from . import _engine
from .cycles import (
    canonical_cycle,
    chi,
    connected_components,
    fundamental_cycle,
    is_numerically_gorenstein,
)
from .errors import InputError, InternalCheckError
from .graph import Cycle, DualGraph, cycle_to_json, is_anti_nef, mat_vec, per_graph

__all__ = [
    "EllipticSequence",
    "MinusOneChainReport",
    "ChiSweep",
    "is_elliptic",
    "minimally_elliptic_cycle",
    "elliptic_sequence",
    "enumerate_antinef_upto",
    "check_minus_one_chains",
    "chi_nonnegative_check",
]

# the chi >= 0 sweep is exhaustive up to this box size, sampled above it
_AUTO_SWEEP_CAP = 200_000
_SWEEP_SAMPLES = 2000


class ChiSweep(NamedTuple):
    exhaustive: bool
    checked: int
    min_chi: int
    witness: tuple[int, ...]


class MinusOneChainReport(NamedTuple):
    """Outcome of the degree -1 chain decomposition check.

    ``minus_one_indices`` lists every j with Z_j^2 = -1; ``chain`` holds
    the vertex ids F_t (t = j_min .. m-1) through which Z_t - Z_m
    decomposes, ordered by t.  Both are empty when the check is vacuous.
    """

    minus_one_indices: tuple[int, ...]
    chain: tuple[str, ...]


class EllipticSequence:
    """The cycles Z_0, ..., Z_m with their supports B_0 > ... > B_m.

    Immutable and equal by its three fields.  The partial sums C_-1, C_0,
    ..., C_m are one running sum taken at construction, so ``partial_sum``
    and ``tail_sum`` cost one lookup or one subtraction.
    """

    __slots__ = ("graph", "supports", "cycles", "_prefix")

    def __init__(self, graph: DualGraph, supports: tuple[tuple[str, ...], ...],
                 cycles: tuple[Cycle, ...]):
        acc = [Cycle.zero(graph)]
        for z in cycles:
            acc.append(acc[-1] + z)
        for name, value in (("graph", graph), ("supports", supports), ("cycles", cycles),
                            ("_prefix", tuple(acc))):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return self.graph, self.supports, self.cycles

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return (f"EllipticSequence(graph={self.graph!r}, supports={self.supports!r}, "
                f"cycles={self.cycles!r})")

    @property
    def m(self) -> int:
        return len(self.cycles) - 1

    @property
    def e_min(self) -> Cycle:
        return self.cycles[-1]

    def partial_sum(self, t: int) -> Cycle:
        """C_t = Z_0 + ... + Z_t  (C_-1 = 0)."""
        if not -1 <= t <= self.m:
            raise InputError(f"partial sum index {t} outside [-1, {self.m}]")
        return self._prefix[t + 1]

    def tail_sum(self, t: int) -> Cycle:
        """C'_t = Z_t + ... + Z_m = C_m - C_{t-1}  (C'_{m+1} = 0)."""
        if not 0 <= t <= self.m + 1:
            raise InputError(f"tail sum index {t} outside [0, {self.m + 1}]")
        return self._prefix[-1] - self._prefix[t]

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "B": [list(b) for b in self.supports],
            "Z": [cycle_to_json(z) for z in self.cycles],
            "Emin": cycle_to_json(self.e_min),
            "C": [cycle_to_json(self.partial_sum(t)) for t in range(self.m + 1)],
            "Cprime": [cycle_to_json(self.tail_sum(t)) for t in range(self.m + 1)],
        }


def _sample_draws(rng: random.Random, bounds, count: int):
    """``count`` tuples with 0 <= d_i <= bounds[i]: exactly the tuples
    ``tuple(rng.randint(0, b) for b in bounds)`` gives, ``count`` times.
    ``randint(0, b)`` draws ``getrandbits(k)``, k = (b + 1).bit_length(),
    until the value is at most b; this runs that loop itself, so it reads
    the same words in the same order without ``randint``'s layers of
    calls per coordinate."""
    getrandbits = rng.getrandbits
    widths = [(b, (b + 1).bit_length()) for b in bounds]
    for _ in range(count):
        d = []
        for b, k in widths:
            r = getrandbits(k)
            while r > b:
                r = getrandbits(k)
            d.append(r)
        yield tuple(d)


@per_graph("chi_sweep")
def chi_nonnegative_check(g: DualGraph) -> ChiSweep:
    """Check chi(D) >= 0 for 0 < D <= 2 Z_E (Wagreich's theorem on an
    elliptic graph): exhaustively when the box has at most 200k candidates,
    by 2000 seeded draws otherwise, so the work is bounded with no budget.
    The draws are those of ``randint(0, b)`` on ``random.Random(0xE11)``,
    coordinate by coordinate, taken by ``_sample_draws`` through
    ``getrandbits``; each is multiplied by the dense matrix, a product
    held as it is until ROADMAP item 1 lands.
    The exhaustive sweep certifies the whole box without visiting every
    candidate: an exact lower bound on 2chi (from the elimination the
    graph made of its form when it was built) rules out each sub-box it
    skips, and each row along the first vertex is settled in closed form.
    ``checked`` counts the nonzero candidates certified.  The 200k cap and
    the draws do not depend on how the box is certified.  Raises
    InternalCheckError with a witness if a negative Euler characteristic
    shows up; for a valid elliptic graph none exists.
    """
    bounds = tuple(2 * c for c in fundamental_cycle(g).coeffs)
    adj = g.adjunction
    size = _engine.box_size(bounds)
    exhaustive = size <= _AUTO_SWEEP_CAP
    if exhaustive:
        min2, witness = _engine.min_twochi_in_box(g.elimination, bounds)
        checked = size - 1
    else:
        n = len(bounds)
        m = g.matrix
        min2, witness, checked = None, None, 0
        for d in _sample_draws(random.Random(0xE11), bounds, _SWEEP_SAMPLES):
            if not any(d):
                continue
            checked += 1
            # kept dense on purpose: its sparse product waits on ROADMAP item 1
            md = [sum(m[i][j] * d[j] for j in range(n)) for i in range(n)]
            two = -(sum(map(mul, d, md)) + sum(map(mul, adj, d)))
            if min2 is None or two < min2:
                min2, witness = two, d

    if min2 is None:  # box held only the zero cycle
        return ChiSweep(exhaustive, 0, 0, ())
    if min2 < 0:
        raise InternalCheckError(
            "euler-characteristic-nonnegativity",
            f"2*chi = {min2} at {witness}",
        )
    return ChiSweep(exhaustive, checked, min2 // 2, witness)


@per_graph("elliptic")
def is_elliptic(g: DualGraph) -> bool:
    """True when the fundamental cycle has Euler characteristic zero.

    On success a bounded sanity sweep also confirms chi(D) >= 0 below
    2 Z_E (exhaustively for small boxes, sampled otherwise); a violation
    is an internal error, not a False.
    """
    result = chi(g, fundamental_cycle(g)) == 0
    if result:
        chi_nonnegative_check(g)
    return result


def _subgraph_chi(g: DualGraph, comp: set[int]) -> int:
    """chi of the fundamental cycle of a connected subgraph: 0 or 1 on an
    elliptic graph (1 exactly when the subgraph is rational)."""
    ids = [g.vertices[i].id for i in sorted(comp)]
    value = chi(g, fundamental_cycle(g, ids))
    if value not in (0, 1):
        raise InternalCheckError(
            "minimally-elliptic-subgraph-chi",
            f"chi = {value} on the connected subgraph {ids}",
        )
    return value


@per_graph("emin")
def minimally_elliptic_cycle(g: DualGraph) -> Cycle:
    """The unique minimal cycle 0 < D <= Z_E with chi(D) = 0.

    E_min is the fundamental cycle of the unique minimal connected
    subgraph B with chi(Z_B) = 0 (Wagreich 1970, Laufer 1977).  A
    connected subgraph containing supp E_min has chi(Z) = 0, because
    Laufer's loop started from E_min never raises chi; one that does not
    contain it is rational, so chi(Z) = 1 by Artin's criterion.  Hence a
    single pass of vertex deletion finds B: start with B = every vertex
    and, for each vertex v in document order still in B, replace B by the
    component of B - v with chi = 0 if there is one; otherwise v lies in
    supp E_min for good.  That costs one Laufer loop per component of
    each B - v, O(n + edges) loops in all, in place of a scan of the
    prod(z_i + 1) cycles below Z_E.

    Checked on every call: each component of G - v, for v in B, is
    rational (so every connected subgraph with chi = 0 contains B), and
    Z_B has chi = 0 and lies below Z_E.
    """
    if not is_elliptic(g):
        raise InputError("graph is not elliptic")
    everything = set(range(len(g)))
    support = set(everything)
    for v in range(len(g)):
        if v not in support or len(support) == 1:
            continue
        for comp in connected_components(g, support - {v}):
            if _subgraph_chi(g, comp) == 0:
                support = comp
                break
    for v in sorted(support):
        for comp in connected_components(g, everything - {v}):
            if _subgraph_chi(g, comp) == 0:
                raise InternalCheckError(
                    "minimally-elliptic-uniqueness",
                    f"G - {g.vertices[v].id} holds a chi = 0 subgraph "
                    f"{[g.vertices[i].id for i in sorted(comp)]}",
                )
    emin = fundamental_cycle(g, [g.vertices[i].id for i in sorted(support)])
    if chi(g, emin) != 0 or not emin <= fundamental_cycle(g):
        raise InternalCheckError(
            "minimally-elliptic-existence",
            f"{emin} is not a chi = 0 cycle below the fundamental cycle",
        )
    return emin


@per_graph("sequence")
def elliptic_sequence(g: DualGraph) -> EllipticSequence:
    """Build and fully verify the elliptic sequence of a numerically
    Gorenstein elliptic graph.  Each step multiplies its cycle Z by the
    form once: Z . E_min and the curves orthogonal to Z are read off M Z."""
    if not is_elliptic(g):
        raise InputError("graph is not elliptic")
    if not is_numerically_gorenstein(g):
        raise InputError(
            "graph is not numerically Gorenstein (canonical cycle is non-integral)"
        )
    emin = minimally_elliptic_cycle(g)
    emin_support = set(emin.support())

    supports: list[tuple[str, ...]] = [g.ids]
    cycles: list[Cycle] = [fundamental_cycle(g)]
    mz = mat_vec(g, cycles[-1].coeffs)
    while sum(map(mul, emin.coeffs, mz)) == 0:  # Z . E_min, read off M Z
        if len(cycles) > len(g):
            raise InternalCheckError(
                "elliptic-sequence-termination",
                "more restriction steps than vertices",
            )
        orthogonal = {i for i in range(len(g)) if mz[i] == 0}
        # connected component of the orthogonal locus containing E_min
        start = g.index_of(next(iter(emin_support)))
        if start not in orthogonal:
            raise InternalCheckError(
                "elliptic-sequence-orthogonal-locus",
                "minimal cycle support not orthogonal to the current cycle",
            )
        comp = next(c for c in connected_components(g, orthogonal) if start in c)
        if not {g.index_of(v) for v in emin_support} <= comp:
            raise InternalCheckError(
                "elliptic-sequence-orthogonal-locus",
                "minimal cycle support split across components",
            )
        support = tuple(v.id for i, v in enumerate(g.vertices) if i in comp)
        prev = set(supports[-1])
        if not set(support) < prev:
            raise InternalCheckError(
                "elliptic-sequence-supports-strictly-decrease",
                f"{support} does not shrink {supports[-1]}",
            )
        supports.append(support)
        cycles.append(fundamental_cycle(g, support))
        mz = mat_vec(g, cycles[-1].coeffs)

    seq = EllipticSequence(g, tuple(supports), tuple(cycles))
    _verify_sequence(seq, emin)
    return seq


def _verify_sequence(seq: EllipticSequence, emin: Cycle) -> None:
    g = seq.graph
    m = seq.m
    if seq.cycles[m] != emin:
        raise InternalCheckError(
            "elliptic-sequence-ends-at-minimal-cycle",
            f"Z_{m} = {seq.cycles[m]} but the minimal cycle is {emin}",
        )
    images = [mat_vec(g, z.coeffs) for z in seq.cycles]
    selfints = [sum(a * b for a, b in zip(z.coeffs, mz)) for z, mz in zip(seq.cycles, images)]
    for i in range(m + 1):
        for j in range(i + 1, m + 1):
            if sum(a * b for a, b in zip(seq.cycles[i].coeffs, images[j])) != 0:
                raise InternalCheckError(
                    "elliptic-sequence-orthogonality", f"Z_{i} . Z_{j} != 0"
                )
    for i in range(m):
        if -selfints[i] < -selfints[i + 1]:
            raise InternalCheckError(
                "elliptic-sequence-degrees-monotone",
                f"-Z_{i}^2 = {-selfints[i]} < -Z_{i+1}^2 = {-selfints[i+1]}",
            )
    k = canonical_cycle(g).to_cycle()
    total = seq.partial_sum(m)
    for t in range(m + 1):
        ct = seq.partial_sum(t)
        if not is_anti_nef(g, ct):
            raise InternalCheckError(
                "elliptic-sequence-partial-sums-anti-nef", f"C_{t} is not anti-nef"
            )
        cpt = seq.tail_sum(t)
        shifted = mat_vec(g, (k + cpt).coeffs)
        for vid in seq.supports[t]:
            if shifted[g.index_of(vid)] != 0:
                raise InternalCheckError(
                    "elliptic-sequence-canonical-restriction",
                    f"(K + C'_{t}) . {vid} != 0",
                )
        if chi(g, ct) != 0 or chi(g, cpt) != 0 or chi(g, seq.cycles[t]) != 0:
            raise InternalCheckError(
                "elliptic-sequence-euler-characteristic-zero", f"at index {t}"
            )
    if total != -k:
        raise InternalCheckError(
            "elliptic-sequence-total-is-anticanonical",
            f"C_{m} = {total} but -K = {-k}",
        )


def enumerate_antinef_upto(g: DualGraph, c: Cycle) -> list[Cycle]:
    """Every effective anti-nef cycle D with 0 <= D <= C, by a scan of
    that box, one interval per row along the first vertex (guarded by the
    enumeration budget, which counts every candidate of the box)."""
    if c.graph != g:
        raise InputError("cycle does not live on this graph")
    if not c.is_effective:
        raise InputError("bounding cycle must be effective")
    _engine.check_budget(c.coeffs, what="anti-nef enumeration")
    found = _engine.antinef_in_box(g.matrix, c.coeffs)
    return [Cycle(g, d) for d in found]


def check_minus_one_chains(g: DualGraph, seq: EllipticSequence) -> MinusOneChainReport:
    """Validate the chain structure forced by Z_j^2 = -1.

    Whenever some Z_j has self-intersection -1, each Z_i with j <= i < m
    must split as Z_m plus a chain of genus-0 (-2)-curves F_{m-1}, ..., F_i
    that the total cycle C_m (equivalently -K) meets trivially.  Violations
    raise InternalCheckError; the return value records what was checked.
    """
    if seq.graph != g:
        raise InputError("sequence belongs to a different graph")
    m = seq.m
    # one product per index: Z_t . E_i for every i gives Z_t^2 and F_t
    images = [mat_vec(g, z.coeffs) for z in seq.cycles]
    js = tuple(t for t in range(m + 1)
               if sum(a * b for a, b in zip(seq.cycles[t].coeffs, images[t])) == -1)
    if not js or js[0] == m:
        return MinusOneChainReport(js, ())

    j0 = js[0]
    adj = g.adjunction
    cm_dot = mat_vec(g, seq.partial_sum(m).coeffs)  # C_m . E_i for every i
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
        if t + 1 < m and f[t + 1] not in g.neighbours[f[t]]:
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
