"""Exhaustive structural property sweeps on the corpus graphs, and the
chi >= 0 kernels against their oracles on random small forms: the
minimum cut against a brute-force join of every minimiser, and the
pruned walk it replaced against the first odometer minimum."""

from __future__ import annotations

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (bordered_factor, connected_subsets, first_min_two_chi, min_two_chi_join,
                     min_twochi_in_box, sparse_rows)
from singlab import (
    Cycle,
    chi,
    elliptic_sequence,
    fundamental_cycle,
    minimally_elliptic_cycle,
    pairing,
)
from singlab import _engine
from singlab.corpus import brell3, fig244, fig2312

GRAPHS = [fig2312(1), fig2312(2), fig244(1), fig244(2), brell3(1), brell3(2)]


@pytest.mark.parametrize("g", GRAPHS, ids=lambda g: "-".join(g.ids))
def test_minimal_cycle_below_every_chi_zero_cycle(g):
    # below 2 Z_E every chi = 0 cycle dominates the minimally elliptic one
    emin = minimally_elliptic_cycle(g)
    ze = fundamental_cycle(g)
    seen = 0
    for coeffs in product(*(range(2 * c + 1) for c in ze.coeffs)):
        d = Cycle(g, coeffs)
        if d.is_zero:
            continue
        value = chi(g, d)
        assert value >= 0, (coeffs, value)
        if value == 0:
            seen += 1
            assert emin <= d, coeffs
    assert seen >= 1


@pytest.mark.parametrize("g", GRAPHS, ids=lambda g: "-".join(g.ids))
def test_reduced_cycles_away_from_minimal_cycle(g):
    # connected reduced D sharing no component with E_min meets it at most
    # once, and the fundamental cycle of its support has chi = 1
    emin = minimally_elliptic_cycle(g)
    banned = {g.index_of(v) for v in emin.support()}
    allowed = [i for i in range(len(g)) if i not in banned]
    adjacency = [[m != 0 for m in row] for row in g.matrix]
    for subset in connected_subsets(adjacency, allowed):
        d = Cycle(g, tuple(1 if i in subset else 0 for i in range(len(g))))
        assert pairing(g, emin, d) <= 1, subset
        zd = fundamental_cycle(g, [g.vertices[i].id for i in subset])
        assert chi(g, zd) == 1, subset


@pytest.mark.parametrize("g", GRAPHS, ids=lambda g: "-".join(g.ids))
def test_partial_sums_exhaust_antinef_cycles(g):
    seq = elliptic_sequence(g)
    cm = seq.partial_sum(seq.m)
    sums = {seq.partial_sum(t).coeffs for t in range(-1, seq.m + 1)}
    found = set()
    matrix = g.matrix
    for coeffs in product(*(range(c + 1) for c in cm.coeffs)):
        s = [sum(m * c for m, c in zip(row, coeffs)) for row in matrix]
        if all(x <= 0 for x in s):
            found.add(coeffs)
    assert found == sums


def test_sequence_supports_shrink_by_inclusion():
    for g in GRAPHS:
        seq = elliptic_sequence(g)
        for a, b in zip(seq.supports, seq.supports[1:]):
            assert set(b) < set(a)
        assert seq.cycles[-1] == minimally_elliptic_cycle(g)


@st.composite
def small_forms(draw):
    """(matrix, adj, bounds): a symmetric, strictly diagonally dominant
    (so negative definite) form on 1 to 4 vertices and a box below it."""
    n = draw(st.integers(1, 4))
    matrix = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            matrix[i][j] = matrix[j][i] = draw(st.integers(0, 2))
    for i in range(n):
        matrix[i][i] = -(sum(matrix[i]) + draw(st.integers(1, 3)))
    adj = draw(st.lists(st.integers(-8, 8), min_size=n, max_size=n))
    bounds = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    return tuple(map(tuple, matrix)), tuple(adj), tuple(bounds)


@settings(max_examples=150, deadline=None)
@given(small_forms())
def test_row_kernel_is_the_first_odometer_minimum(form):
    matrix, adj, bounds = form
    rows = bordered_factor(matrix, adj)
    assert min_twochi_in_box(rows, bounds) == first_min_two_chi(matrix, adj, bounds)


@settings(max_examples=150, deadline=None)
@given(small_forms())
def test_cut_is_the_join_of_every_minimiser(form):
    matrix, adj, bounds = form
    value, largest = _engine.min_twochi_cut(sparse_rows(matrix), adj, bounds)
    assert (value, largest) == min_two_chi_join(matrix, adj, bounds)
    first = first_min_two_chi(matrix, adj, bounds)[0]
    assert value == min(0, 0 if first is None else first)
