"""E_min, the elliptic sequence and the Laufer loop's image against the
brute-force oracles on seeded elliptic graphs beyond the corpus chains:
stars and trees with a genus-1 vertex, cusp cycles of rational curves
(a double edge is a cycle of two) with rational trees hanging off them,
and double edges wherever the form stays negative definite.  Only
minimal graphs are drawn: no genus-0 (-1)-curve.  The same draws with
one vertex made a genus-0 (-1)-curve are refused as input."""

from __future__ import annotations

import random

import pytest

from oracles import chi_zero_in_box, dense_fundamental_cycle
from oracles import mat_vec as dense_mat_vec
from singlab import (DualGraph, InputError, Vertex, classify_gorenstein_elliptic_ideals, derive_af,
                     elliptic_sequence, is_elliptic, is_numerically_gorenstein,
                     minimally_elliptic_cycle)
from singlab import _engine
from singlab.cycles import _laufer_loop, adjunction_vector, fundamental_cycle
from singlab.graph import connected_components

GRAPHS_PER_SHAPE = 30
BOX_CAP = 2000  # candidates below Z_E, for the chi = 0 scan


def _draw(rng, shape):
    """(vertices, edges) of one star, cusp or tree on up to 7 vertices.
    Stars and trees carry one genus-1 vertex, except some of those with a
    double edge; a cusp is a cycle of 2 to 5 rational curves with a
    random tree on the rest.  Each edge is doubled with probability 1/4."""
    n = rng.randint(2, 7) if shape == "cusp" else rng.randint(1, 7)
    k = rng.randint(2, min(n, 5)) if shape == "cusp" else 0  # curves on the cycle
    if shape == "star":
        edges = [(0, i) if i <= 3 else (i - 3, i) for i in range(1, n)]
    elif shape == "cusp":
        edges = [(0, 1)] if k == 2 else [(i, (i + 1) % k) for i in range(k)]
        edges += [(rng.randrange(i), i) for i in range(k, n)]
    else:
        edges = [(rng.randrange(i), i) for i in range(1, n)]
    mults = [2 if rng.random() < 0.25 else 1 for _ in edges]
    if k == 2:
        mults[0] = 2  # the cycle of two curves
    special = None if shape == "cusp" or (2 in mults and rng.random() < 0.5) else rng.randrange(n)
    degree = [0] * n
    for (i, j), m in zip(edges, mults):
        degree[i] += m
        degree[j] += m
    vertices = [Vertex(f"V{i}", -max(degree[i] + rng.choice((-1, 0, 0, 1, 2)),
                                     1 if i == special else 2), int(i == special))
                for i in range(n)]
    return vertices, [(f"V{i}", f"V{j}", m) for (i, j), m in zip(edges, mults)]


def _elliptic_graphs(shape):
    """The first ``GRAPHS_PER_SHAPE`` negative definite elliptic draws whose
    box below Z_E the oracle can scan."""
    rng = random.Random(f"seeded-elliptic-{shape}")
    out = []
    while len(out) < GRAPHS_PER_SHAPE:
        try:
            g = DualGraph(*_draw(rng, shape))
        except InputError:  # not negative definite: draw again
            continue
        if is_elliptic(g) and _engine.box_size(fundamental_cycle(g).coeffs) <= BOX_CAP:
            out.append(g)
    return out


def _loop_supports(g, seq):
    """Index sets the package runs Laufer loops on: the whole graph, every
    component of G - v (E_min's passes), and the sequence's supports."""
    n = len(g)
    supports = [set(range(n))]
    for v in range(n):
        supports += connected_components(g, set(range(n)) - {v})
    if seq is not None:
        supports += [{g.index_of(vid) for vid in b} for b in seq.supports]
    return supports


@pytest.mark.parametrize("shape", ("star", "cusp", "tree"))
def test_emin_sequence_and_loop_images_match_the_oracles(shape):
    seen = {"double edge": 0, "genus 1": 0, "partial E_min": 0, "m >= 1": 0}
    rng = random.Random(f"laufer-order-{shape}")
    for g in _elliptic_graphs(shape):
        adj = adjunction_vector(g)
        ze = fundamental_cycle(g).coeffs
        zeros = chi_zero_in_box(g.matrix, adj, ze)
        lowest = tuple(map(min, zip(*zeros)))
        emin = minimally_elliptic_cycle(g)
        assert lowest in zeros, g  # the chi = 0 cycles below Z_E have a minimum
        assert emin.coeffs == lowest, g

        seq = elliptic_sequence(g) if is_numerically_gorenstein(g) else None
        if seq is not None:
            for support, z in zip(seq.supports, seq.cycles):
                assert z == dense_fundamental_cycle(g, support), (g, support)
                assert set(emin.support()) <= set(support), (g, support)
            # what the build loop no longer checks: B_{t+1} < B_t, and
            # every curve of B_{t+1} is orthogonal to Z_t
            for t in range(seq.m):
                outer, inner = set(seq.supports[t]), set(seq.supports[t + 1])
                assert inner < outer, (g, t)
                image = dense_mat_vec(g.matrix, seq.cycles[t].coeffs)
                assert all(image[g.index_of(vid)] == 0 for vid in inner), (g, t)
            seen["m >= 1"] += seq.m >= 1

        for support in _loop_supports(g, seq):
            idxs = sorted(support)
            expected = dense_fundamental_cycle(g, [g.vertices[i].id for i in idxs])
            for order in (None, rng):
                z = _laufer_loop(g, idxs, order)
                assert z == expected, (g, idxs)
                # the image the loop's cycle holds, not one computed on reading
                assert list(z._image) == dense_mat_vec(g.matrix, z.coeffs), (g, idxs)

        seen["double edge"] += any(m == 2 for *_, m in g.edges)
        seen["genus 1"] += any(v.genus for v in g.vertices)
        seen["partial E_min"] += len(emin.support()) < len(g)
    # the draws reach every kind of graph the loop is run on
    assert seen["double edge"] and seen["partial E_min"] and seen["m >= 1"], seen
    assert (seen["genus 1"] > 0) == (shape != "cusp"), seen


@pytest.mark.parametrize("shape", ("star", "cusp", "tree"))
def test_graphs_that_are_not_minimal_are_refused_as_input(shape):
    """A genus-0 (-1)-curve on an elliptic, numerically Gorenstein draw:
    the sequence and the classification refuse the graph with InputError
    before any identity of the sequence is checked, so no such graph
    ends in InternalCheckError."""
    rng = random.Random(f"not-minimal-{shape}")
    refused = 0
    for _ in range(300):
        vertices, edges = _draw(rng, shape)
        v = rng.randrange(len(vertices))
        vertices[v] = Vertex(vertices[v].id, -1, 0)
        try:
            g = DualGraph(vertices, edges)
        except InputError:  # not negative definite
            continue
        if not (is_elliptic(g) and is_numerically_gorenstein(g)):
            continue
        for build in (elliptic_sequence, lambda g: classify_gorenstein_elliptic_ideals(g, 1)):
            with pytest.raises(InputError, match=f"not minimal: vertex V{v} is a genus-0"):
                build(g)
        refused += 1
    assert refused >= 5, refused


@pytest.mark.parametrize("shape", ("star", "cusp", "tree"))
def test_classification_counts_follow_from_the_sequence(shape):
    """The paper's count criteria, which ``classify`` does not check because
    the verified sequence proves them, on every seeded sequence and every
    p_g that ``derive_af`` accepts: zeta = p_g iff -Z_m^2 >= 2, and zeta = 0
    when the graph is maximally elliptic with Z_0^2 = -1."""
    seen = {"zeta = p_g": 0, "zeta < p_g": 0, "maximal, Z_0^2 = -1": 0}
    for g in _elliptic_graphs(shape):
        if not is_numerically_gorenstein(g):
            continue
        seq = elliptic_sequence(g)
        for p_g in range(1, seq.m + 2):
            try:
                af = derive_af(seq.m, p_g)
            except InputError:
                continue
            report = classify_gorenstein_elliptic_ideals(g, p_g)
            full = -seq.self_intersection(seq.m) >= 2
            assert (report.zeta == p_g) == full, (g, p_g)
            seen["zeta = p_g" if full else "zeta < p_g"] += 1
            if af.maximal and seq.self_intersection(0) == -1:
                assert report.zeta == 0 and report.note, (g, p_g)
                seen["maximal, Z_0^2 = -1"] += 1
    assert all(seen.values()), seen
