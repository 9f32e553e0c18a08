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
classification in ``singlab.classify``.

E_min and the sequence run their Laufer loops on the vertex-index sets
``connected_components`` has just returned, so no support is checked
again, and each cycle a loop returns carries the image M Z it kept as it
bumped: chi of a subgraph's fundamental cycle and the next orthogonal
locus are read off it, those of Z_0 off the graph's Z_E.  E_min keeps the
cycle of the component its deletion pass picks, so no loop runs after
its passes, and each orthogonal locus is read inside the current support
B_t, which holds supp E_min.  Nothing here multiplies a cycle by the
form: the sequence's sums carry the sums of their terms' images, and its
identities, the -1 chains and the classification read every pairing off
them.  Vertex ids are built only for the sequence's supports and for
error text.  Only the sampled chi sweep multiplies by the dense matrix,
until the benchmark's per-pass memory is mended; its draws are those of
``random.Random(0xE11).randint``, read through ``getrandbits`` by the
same rejection loop.

Every structural fact the construction relies on and its own loops do
not prove is verified on the actual data and raises InternalCheckError
naming the property, so that inconsistent analytic inputs (a wrong
geometric genus, say) surface instead of producing silent nonsense.
The identities of the finished sequence are stated once, in the list
``_sequence_identities`` yields: every build raises at its first failing
item, and ``verify-paper`` counts its items.
"""

from __future__ import annotations

import random
from itertools import accumulate
from operator import add, mul
from typing import NamedTuple

from . import _engine
from .cycles import _chi_of, _fundamental, _laufer_loop, canonical_cycle, is_numerically_gorenstein
from .errors import InputError, InternalCheckError, _clip, _is_int, _raise_at_first_failure
from .graph import (Cycle, DualGraph, _dot, _Frozen, _set, connected_components, cycle_to_json,
                    per_graph)

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
    """Outcome of the chi >= 0 sweep of an elliptic graph below 2 Z_E.

    Exhaustive (box of at most 200k candidates): ``checked`` is the number
    of nonzero cycles in the box, every one certified by the minimum cut;
    ``min_chi`` is 0, the least chi over them; ``witness`` is the largest
    chi = 0 cycle below 2 Z_E.  Sampled: ``checked`` is the number of
    nonzero draws among the 2000; ``min_chi`` the least chi among them;
    ``witness`` the first draw attaining it.
    """

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


class EllipticSequence(_Frozen):
    """The cycles Z_0, ..., Z_m, each carrying its image M Z_t (``images``),
    with their supports B_0 > ... > B_m, one tuple of vertex ids each.

    Immutable and equal by its three fields.  The constructor takes the
    partial sums C_t with their images as a running sum; C'_t = C_m - C_{t-1},
    so no accessor multiplies.  A bad index is refused with InputError.
    """

    __slots__ = ("graph", "supports", "cycles", "_prefix")
    _fields = ("graph", "supports", "cycles")

    def __init__(self, graph: DualGraph, supports: tuple[tuple[str, ...], ...],
                 cycles: tuple[Cycle, ...]):
        # the running sums come first: they refuse a cycle of another graph
        prefix = tuple(accumulate(cycles, add, initial=Cycle.zero(graph)))
        if not (isinstance(supports, tuple) and len(supports) == len(cycles) and all(
                isinstance(b, tuple) and all(isinstance(v, str) and v in graph._index for v in b)
                for b in supports)):
            raise InputError(f"support list {_clip(repr(supports))} does not live on this "
                             "graph: it needs one tuple of the graph's vertex ids per cycle")
        for name, value in zip(self.__slots__, (graph, supports, cycles, prefix)):
            _set(self, name, value)

    @property
    def m(self) -> int:
        return len(self.cycles) - 1

    @property
    def e_min(self) -> Cycle:
        return self.cycles[-1]

    @property
    def images(self) -> tuple[tuple[int, ...], ...]:
        return tuple(z.image for z in self.cycles)

    def _index(self, t, lo: int, hi: int, what: str) -> int:
        if not (_is_int(t) and lo <= t <= hi):
            raise InputError(f"{what} index {_clip(repr(t))} is not an integer in [{lo}, {hi}]")
        return t

    def partial_sum(self, t: int) -> Cycle:
        """C_t = Z_0 + ... + Z_t  (C_-1 = 0)."""
        return self._prefix[self._index(t, -1, self.m, "partial sum") + 1]

    def tail_sum(self, t: int) -> Cycle:
        """C'_t = Z_t + ... + Z_m = C_m - C_{t-1}  (C'_{m+1} = 0)."""
        return self._prefix[-1] - self._prefix[self._index(t, 0, self.m + 1, "tail sum")]

    def self_intersection(self, t: int) -> int:
        """Z_t^2, read off M Z_t."""
        z = self.cycles[self._index(t, 0, self.m, "cycle")]
        return _dot(z, z.image)

    def partial_image(self, t: int) -> tuple[int, ...]:
        """M C_t, the C_t . E_i for every i  (M C_-1 = 0)."""
        return self.partial_sum(t).image

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
    """Check chi(D) >= 0 for 0 < D <= 2 Z_E on an elliptic graph, the
    numerical check of Wagreich's theorem: exhaustively when the box has
    at most 200k candidates, by 2000 seeded draws otherwise, so the work
    is bounded with no budget.  The theorem's premise is the contract:
    a graph with chi(Z_E) != 0 is refused with InputError, read off the
    image M Z_E that the graph's Z_E carries.
    The draws are those of ``randint(0, b)`` on ``random.Random(0xE11)``,
    coordinate by coordinate, taken by ``_sample_draws`` through
    ``getrandbits``; each is multiplied by the dense matrix, a product
    held as it is until ROADMAP item 1 lands.
    The exhaustive sweep certifies the whole box by one minimum cut
    (``_engine.min_twochi_cut``): the least 2chi, D = 0 included, and the
    largest D attaining it, the witness.  Z_E lies in the box with
    chi = 0, so that D is nonzero.  ``checked`` counts the nonzero
    candidates certified.  The 200k cap and the draws do not depend on
    how the box is certified.  Raises InternalCheckError with a witness
    if a negative Euler characteristic shows up; on an elliptic graph
    none exists.
    """
    ze = _fundamental(g)
    if _chi_of(ze) != 0:
        raise InputError("graph is not elliptic")
    bounds = tuple(2 * c for c in ze.coeffs)
    adj = g.adjunction
    size = _engine.box_size(bounds)
    exhaustive = size <= _AUTO_SWEEP_CAP
    if exhaustive:
        min2, witness = _engine.min_twochi_cut(g.rows, adj, bounds)
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

    if min2 is None:  # every draw was the zero cycle
        return ChiSweep(exhaustive, 0, 0, ())
    if min2 < 0:
        raise InternalCheckError(
            "euler-characteristic-nonnegativity",
            f"2*chi = {min2} at {witness}",
        )
    return ChiSweep(exhaustive, checked, min2 // 2, witness)


@per_graph("elliptic")
def is_elliptic(g: DualGraph) -> bool:
    """True when the fundamental cycle has Euler characteristic zero,
    read off the image M Z_E that the graph's Z_E carries.

    Only then does the bounded sanity sweep run and confirm chi(D) >= 0
    below 2 Z_E (exhaustively for small boxes, sampled otherwise): the
    sweep takes elliptic graphs only, and a violation there is an
    internal error, not a False.
    """
    result = _chi_of(_fundamental(g)) == 0
    if result:
        chi_nonnegative_check(g)
    return result


def _ids(g: DualGraph, idxs) -> list[str]:
    return [g.vertices[i].id for i in sorted(idxs)]


def _subgraph_chi(g: DualGraph, comp: set[int]) -> tuple[int, Cycle]:
    """chi of the fundamental cycle Z of the connected subgraph on the
    vertex indices ``comp``, and Z: chi is 0 or 1 on an elliptic graph (1
    exactly when the subgraph is rational), read off the image Z carries
    from its Laufer loop."""
    z = _laufer_loop(g, sorted(comp), None)
    value = _chi_of(z)
    if value not in (0, 1):
        raise InternalCheckError(
            "minimally-elliptic-subgraph-chi",
            f"chi = {value} on the connected subgraph {_ids(g, comp)}",
        )
    return value, z


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

    The pass keeps the cycle of the component it picks with B: Z_E
    first, then the Z_B whose chi = 0 picked B, so the cycle it returns
    has chi = 0.  It lies below Z_E, as every Laufer loop on a subgraph
    does: a bump at i with d_i = z_i would need D . E_i <= Z_E . E_i <= 0.

    Checked on every call: each component of G - v, for v in B, is
    rational (so every connected subgraph with chi = 0 contains B), and
    every subgraph's fundamental cycle the passes build has chi 0 or 1.
    """
    if not is_elliptic(g):
        raise InputError("graph is not elliptic")
    everything = set(range(len(g)))
    support, emin = everything, _fundamental(g)
    for v in range(len(g)):
        if v not in support or len(support) == 1:
            continue
        for comp in connected_components(g, support - {v}):
            value, z = _subgraph_chi(g, comp)
            if value == 0:
                support, emin = comp, z
                break
    for v in sorted(support):
        for comp in connected_components(g, everything - {v}):
            if _subgraph_chi(g, comp)[0] == 0:
                raise InternalCheckError(
                    "minimally-elliptic-uniqueness",
                    f"G - {g.vertices[v].id} holds a chi = 0 subgraph {_ids(g, comp)}",
                )
    return emin


@per_graph("sequence")
def elliptic_sequence(g: DualGraph) -> EllipticSequence:
    """Build and fully verify the elliptic sequence of a numerically
    Gorenstein elliptic graph.  Z . E_min and the curves orthogonal to Z
    are read off the image M Z each Z_t carries from its Laufer loop,
    Z_0 = Z_E from the one the graph keeps.  Supports are
    vertex-index sets until the finished sequence records their ids.  A
    graph that is not minimal is refused first: a genus-0 (-1)-curve
    breaks the sequence's identities.

    While Z_t . E_min = 0, supp E_min lies in B_t, where Z_t meets every
    curve non-positively, so each term of sum e_i (Z_t . E_i) vanishes:
    the connected supp E_min is orthogonal to Z_t, and B_{t+1} is the
    component of the orthogonal locus that holds it.  A curve just
    outside B_t meets Z_t positively, so that component is the same
    inside B_t as in the whole graph; it is not all of B_t, or Z_t^2
    would be 0 on a negative definite form.  So B_{t+1} < B_t, and the
    loop stops."""
    if not g.is_minimal:
        bad = next(v.id for v in g.vertices if v.genus == 0 and v.self_int == -1)
        raise InputError(f"graph is not minimal: vertex {bad} is a genus-0 (-1)-curve")
    if not is_elliptic(g):
        raise InputError("graph is not elliptic")
    if not is_numerically_gorenstein(g):
        raise InputError(
            "graph is not numerically Gorenstein (canonical cycle is non-integral)"
        )
    emin = minimally_elliptic_cycle(g)
    start = next(i for i, c in enumerate(emin.coeffs) if c)

    z = _fundamental(g)
    supports: list[set[int]] = [set(range(len(g)))]
    cycles: list[Cycle] = [z]
    while _dot(emin, z.image) == 0:  # Z . E_min, read off M Z
        mz = z.image
        # the component of B_t's orthogonal locus that holds supp E_min
        orthogonal = {i for i in supports[-1] if mz[i] == 0}
        comp = next(c for c in connected_components(g, orthogonal) if start in c)
        supports.append(comp)
        z = _laufer_loop(g, sorted(comp), None)
        cycles.append(z)

    seq = EllipticSequence(g, tuple(tuple(_ids(g, b)) for b in supports), tuple(cycles))
    _verify_sequence(seq, emin)
    return seq


def _verify_sequence(seq: EllipticSequence, emin: Cycle) -> None:
    m = seq.m
    if seq.cycles[m] != emin:
        raise InternalCheckError(
            "elliptic-sequence-ends-at-minimal-cycle",
            f"Z_{m} = {seq.cycles[m]} but the minimal cycle is {emin}",
        )
    _raise_at_first_failure(_sequence_identities(seq))


def _sequence_identities(seq: EllipticSequence):
    """The identities an elliptic sequence satisfies, one ``(check, holds,
    detail)`` per assertion: Z_i . Z_j = 0 for each pair i < j; -Z_t^2
    non-increasing; for each t, C_t anti-nef, chi(C_t) = chi(C'_t) =
    chi(Z_t) = 0 and (K + C'_t) . E_v = 0 for each v in B_t; and C_m = -K.
    ``detail`` says what failed, and is None where the identity holds.
    Each item is read off the sequence's images, with no product: Z_i . Z_j
    off the few nonzero entries of M Z_j, 2chi(D) as -(D . M D + a . D),
    (K + C'_t) . E_v as a_v + C'_t . E_v and C_m = -K as M C_m = -a, a the
    adjunction vector (M K = a).  Only a failing C_m = -K reads the
    rational K, to print it, so the list is whole on any graph."""
    g = seq.graph
    m = seq.m
    cycles = seq.cycles
    nonzero = [[(v, x) for v, x in enumerate(z.image) if x] for z in cycles]
    for i in range(m + 1):
        zi = cycles[i].coeffs
        for j in range(i + 1, m + 1):
            ok = sum([zi[v] * x for v, x in nonzero[j]]) == 0
            yield "elliptic-sequence-orthogonality", ok, None if ok else f"Z_{i} . Z_{j} != 0"
    selfints = [seq.self_intersection(t) for t in range(m + 1)]
    t = next((t for t in range(m) if -selfints[t] < -selfints[t + 1]), None)
    yield ("elliptic-sequence-degrees-monotone", t is None, None if t is None else
           f"-Z_{t}^2 = {-selfints[t]} < -Z_{t+1}^2 = {-selfints[t+1]}")
    adj = g.adjunction
    for t in range(m + 1):
        ct, cpt = seq.partial_sum(t), seq.tail_sum(t)
        ok = all(x <= 0 for x in ct.image)
        yield "elliptic-sequence-partial-sums-anti-nef", ok, None if ok else f"C_{t} is not anti-nef"
        for name, d in (("C", ct), ("C'", cpt), ("Z", cycles[t])):
            ok = _chi_of(d) == 0
            yield ("elliptic-sequence-euler-characteristic-zero", ok,
                   None if ok else f"chi({name}_{t}) != 0")
        mcpt = cpt.image
        for vid in seq.supports[t]:
            v = g._index[vid]
            ok = adj[v] + mcpt[v] == 0
            yield ("elliptic-sequence-canonical-restriction", ok,
                   None if ok else f"(K + C'_{t}) . {vid} != 0")
    # M C_m = -a = M(-K), and M is nonsingular
    ok = all(x == -a for x, a in zip(seq.partial_image(m), adj))
    yield ("elliptic-sequence-total-is-anticanonical", ok,
           None if ok else f"C_{m} = {seq.partial_sum(m)} but -K = {-canonical_cycle(g)}")


def enumerate_antinef_upto(g: DualGraph, c: Cycle) -> list[Cycle]:
    """Every effective anti-nef cycle D with 0 <= D <= C, by a scan of
    that box, one interval per row along the first vertex (guarded by the
    enumeration budget, which counts every candidate of the box)."""
    if not isinstance(c, Cycle) or c.graph != g:
        raise InputError("cycle does not live on this graph")
    if not c.is_effective:
        raise InputError("bounding cycle must be effective")
    _engine.check_budget(c.coeffs, what="anti-nef enumeration")
    found = _engine.antinef_in_box(g.rows, c.coeffs)
    return [Cycle(g, d) for d in found]


def check_minus_one_chains(g: DualGraph, seq: EllipticSequence) -> MinusOneChainReport:
    """Validate the chain structure forced by Z_j^2 = -1.

    Whenever some Z_j has self-intersection -1, each Z_i with j <= i < m
    must split as Z_m plus a chain of genus-0 (-2)-curves F_{m-1}, ..., F_i
    that the total cycle C_m (equivalently -K) meets trivially.  Stated by
    telescoping: each such Z_t meets exactly one curve F_t negatively, with
    pairing -1 and coefficient 1, and Z_t - Z_{t+1} = F_t.  Violations raise
    InternalCheckError; the return value records what was checked.
    """
    if not isinstance(seq, EllipticSequence) or seq.graph != g:
        raise InputError("sequence belongs to a different graph")
    m = seq.m
    # Z_t^2 and F_t are read off M Z_t, and C_m . E_i off M C_m
    js = tuple(t for t in range(m + 1) if seq.self_intersection(t) == -1)
    if not js or js[0] == m:
        return MinusOneChainReport(js, ())

    j0 = js[0]
    cm_dot = seq.partial_image(m)
    f: dict[int, int] = {}  # t -> vertex index of F_t
    for t in range(j0, m):
        z = seq.cycles[t]
        negatives = [i for i, x in enumerate(z.image) if x < 0]
        if len(negatives) != 1 or z.image[negatives[0]] != -1 or z.coeffs[negatives[0]] != 1:
            raise InternalCheckError(
                "minus-one-chain-structure",
                f"Z_{t} has no unique curve of pairing -1",
            )
        f[t] = negatives[0]

    # Z_t - Z_{t+1} = F_t for each t is Z_i - Z_m = F_{m-1} + ... + F_i for each i.
    # The chain needs no adjacency test: Z_t . F_{t+1} = -1 + F_t . F_{t+1}.
    # F_{t+1} = F_t would make it -1 + F_t^2 = -3, not -1; any other curve Z_t
    # meets non-negatively, so F_t . F_{t+1} >= 1.  Nor does K need a test:
    # K . F_t = 2g - 2 - F_t^2 = 0 on a genus-0 (-2)-curve.
    for t in range(j0, m):
        v = g.vertices[f[t]]
        step = [a - b for a, b in zip(seq.cycles[t].coeffs, seq.cycles[t + 1].coeffs)]
        step[f[t]] -= 1
        if any(step):
            raise InternalCheckError(
                "minus-one-chain-structure", f"Z_{t} - Z_{t + 1} is not the curve F_{t} = {v.id}"
            )
        if v.self_int != -2 or v.genus != 0:
            raise InternalCheckError(
                "minus-one-chain-structure", f"{v.id} is not a genus-0 (-2)-curve"
            )
        if cm_dot[f[t]] != 0:
            raise InternalCheckError("minus-one-chain-structure", f"total cycle meets {v.id}")
    chain = tuple(g.vertices[f[t]].id for t in range(j0, m))
    return MinusOneChainReport(js, chain)
