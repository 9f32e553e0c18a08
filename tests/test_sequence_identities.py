"""The one list of elliptic-sequence identities (``elliptic._sequence_identities``)
that every build raises on and ``verify-paper`` counts.

Each named check is shown to fail on a sequence built by hand with that
identity broken, and the whole list is recomputed on the 20 corpus graphs
of ``verify-paper`` by a dense oracle that reads nothing of the sequence
but its cycles and supports.
"""

from __future__ import annotations

import pytest

from oracles import is_antinef, mat_vec, solve, two_chi
from singlab import verify
from singlab.corpus import brell3, fig244, fig2312
from singlab.elliptic import (
    EllipticSequence,
    _sequence_identities,
    _verify_sequence,
    elliptic_sequence,
)
from singlab.cycles import fundamental_cycle
from singlab.errors import InternalCheckError
from singlab.graph import Cycle, DualGraph, Vertex

PREFIX = "elliptic-sequence-"
VERIFY_PAPER_GRAPHS = {
    f"{family.__name__}({p})": family(p)
    for family, params in ((fig2312, range(1, 7)), (fig244, range(7)), (brell3, range(7)))
    for p in params
}


# each builder takes the true sequence and returns (sequence, E_min) with
# one identity broken; the identity is named by the parameter id
BROKEN = {
    # the last cycle dropped: Z_m is not E_min (the list cannot see E_min,
    # but C_m is no longer -K)
    "ends-at-minimal-cycle": lambda s: (
        EllipticSequence(s.graph, s.supports[:-1], s.cycles[:-1]), s.e_min),
    # E_min twice: Z_0 . Z_1 = E_min^2 < 0
    "orthogonality": lambda s: (
        EllipticSequence(s.graph, s.supports[:2], (s.e_min, s.e_min)), s.e_min),
    # the zero cycle first: orthogonal to E_min, but of degree 0 < -E_min^2
    "degrees-monotone": lambda s: (
        EllipticSequence(s.graph, s.supports[:2], (Cycle.zero(s.graph), s.e_min)), s.e_min),
    # E_min alone: C_0 = E_min meets the curves next to its support positively
    "partial-sums-anti-nef": lambda s: (
        EllipticSequence(s.graph, s.supports[-1:], (s.e_min,)), s.e_min),
    # Z_0 doubled: still orthogonal and anti-nef, but chi(2 Z_0) = -Z_0^2 > 0
    "euler-characteristic-zero": lambda s: (
        EllipticSequence(s.graph, s.supports,
                         (2 * s.cycles[0],) + s.cycles[1:]), s.e_min),
    # B_m widened to every curve: K + Z_m meets a curve outside supp Z_m
    "canonical-restriction": lambda s: (
        EllipticSequence(s.graph, s.supports[:-1] + (s.graph.ids,), s.cycles), s.e_min),
    # Z_0 dropped: C_m = C_m - Z_0 != -K (on the corpus the chi = 0 anti-nef
    # cycles below 3(-K) are the true partial sums, so C_0 is not anti-nef
    # either and that is raised first)
    "total-is-anticanonical": lambda s: (
        EllipticSequence(s.graph, s.supports[1:], s.cycles[1:]), s.e_min),
}
# where the list shows the break under another name, and where
# _verify_sequence raises another check first
LISTED_AS = {"ends-at-minimal-cycle": "total-is-anticanonical"}
RAISED_FIRST = {"total-is-anticanonical": "partial-sums-anti-nef"}


@pytest.mark.parametrize("g", [brell3(1), fig2312(2)], ids=["brell3(1)", "fig2312(2)"])
@pytest.mark.parametrize("name", list(BROKEN))
def test_every_named_check_can_fail(name, g):
    seq, emin = BROKEN[name](elliptic_sequence(g))
    items = list(_sequence_identities(seq))
    failing = [(check, detail) for check, holds, detail in items if not holds]
    assert all(detail for _, detail in failing)
    assert all(detail is None for _, holds, detail in items if holds)
    assert PREFIX + LISTED_AS.get(name, name) in {check for check, _ in failing}

    with pytest.raises(InternalCheckError) as caught:
        _verify_sequence(seq, emin)
    assert caught.value.check == PREFIX + RAISED_FIRST.get(name, name)

    tally = verify._Tally()
    with pytest.raises(InternalCheckError, match="acceptance-property-violated"):
        for _, holds, detail in items:
            tally.ok(holds, detail)


@pytest.mark.parametrize("graph", list(VERIFY_PAPER_GRAPHS))
def test_the_list_holds_on_the_verify_paper_graphs(graph):
    g = VERIFY_PAPER_GRAPHS[graph]
    items = list(_sequence_identities(elliptic_sequence(g)))
    assert items and all(holds and detail is None for _, holds, detail in items)


def _oracle_identities(g, cycles, supports):
    """The list of identities, item by item, by dense products with
    ``g.matrix``, K solved from M K = a, and sums taken afresh."""
    matrix, adj, n = g.matrix, g.adjunction, len(g)
    k = solve(matrix, adj)
    m = len(cycles) - 1
    items = []
    for i in range(m + 1):
        for j in range(i + 1, m + 1):
            pair = sum(a * b for a, b in zip(cycles[i], mat_vec(matrix, cycles[j])))
            items.append(("orthogonality", pair == 0))
    degrees = [-sum(a * b for a, b in zip(z, mat_vec(matrix, z))) for z in cycles]
    items.append(("degrees-monotone", all(a >= b for a, b in zip(degrees, degrees[1:]))))
    for t in range(m + 1):
        ct = [sum(z[i] for z in cycles[: t + 1]) for i in range(n)]
        cpt = [sum(z[i] for z in cycles[t:]) for i in range(n)]
        items.append(("partial-sums-anti-nef", is_antinef(matrix, ct)))
        for d in (ct, cpt, list(cycles[t])):
            items.append(("euler-characteristic-zero", two_chi(matrix, adj, d) == 0))
        shifted = mat_vec(matrix, [a + b for a, b in zip(k, cpt)])
        for vid in supports[t]:
            items.append(("canonical-restriction", shifted[g.ids.index(vid)] == 0))
    total = [sum(z[i] for z in cycles) for i in range(n)]
    items.append(("total-is-anticanonical", total == [-x for x in k]))
    return [(PREFIX + check, holds) for check, holds in items]


@pytest.mark.parametrize("graph", list(VERIFY_PAPER_GRAPHS))
def test_the_list_agrees_with_a_dense_oracle(graph):
    g = VERIFY_PAPER_GRAPHS[graph]
    seq = elliptic_sequence(g)
    expected = _oracle_identities(g, [z.coeffs for z in seq.cycles], seq.supports)
    assert all(holds for _, holds in expected)
    assert [(check, holds) for check, holds, _ in _sequence_identities(seq)] == expected


@pytest.mark.parametrize("name", list(BROKEN))
def test_the_oracle_agrees_on_broken_sequences(name):
    seq, _ = BROKEN[name](elliptic_sequence(brell3(1)))
    expected = _oracle_identities(seq.graph, [z.coeffs for z in seq.cycles], seq.supports)
    assert [(check, holds) for check, holds, _ in _sequence_identities(seq)] == expected


def test_the_list_is_whole_on_a_graph_that_is_not_numerically_gorenstein():
    # a genus-1 (-2)-curve with a (-3) leaf is elliptic with K = (-7/5, -4/5);
    # elliptic_sequence refuses it, but a sequence built by hand gets every
    # item, with C_m = -K false
    g = DualGraph([Vertex("A", -2, 1), Vertex("B", -3)], [("A", "B", 1)])
    seq = EllipticSequence(g, (g.ids,), (fundamental_cycle(g),))
    items = list(_sequence_identities(seq))
    expected = _oracle_identities(g, [z.coeffs for z in seq.cycles], seq.supports)
    assert [(check, holds) for check, holds, _ in items] == expected
    check, holds, detail = items[-1]
    assert (check, holds) == (PREFIX + "total-is-anticanonical", False)
    assert "7/5" in detail
