from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import minimal_antinef_full_support
from singlab import (
    Cycle,
    DualGraph,
    InputError,
    Vertex,
    canonical_cycle,
    chi,
    fundamental_cycle,
    is_anti_nef,
    is_numerically_gorenstein,
    pairing,
    riemann_roch_colength,
)
from singlab.corpus import brell3, fig244, fig2312


def d4_star():
    return DualGraph(
        [Vertex("C", -2), Vertex("L1", -2), Vertex("L2", -2), Vertex("L3", -2)],
        [("C", "L1", 1), ("C", "L2", 1), ("C", "L3", 1)],
    )


def single(self_int, genus=0):
    return DualGraph([Vertex("E", self_int, genus)], [])


# -- fundamental cycles ----------------------------------------------------


def test_fundamental_cycle_fig244():
    g = fig244(1)
    assert fundamental_cycle(g).coeffs == (1, 1, 1)


def test_fundamental_cycle_fig2312():
    g = fig2312(1)
    ze = fundamental_cycle(g)
    assert ze.coeffs == (1, 1, 1)
    assert pairing(g, ze, ze) == -1


def test_fundamental_cycle_d4_matches_brute_force():
    g = d4_star()
    ze = fundamental_cycle(g)
    assert ze.coeffs == (2, 1, 1, 1)
    assert ze.coeffs == minimal_antinef_full_support(g.matrix, (3, 3, 3, 3))


def test_fundamental_cycle_on_subset():
    g = fig2312(1)
    assert fundamental_cycle(g, ["E1", "E2"]).coeffs == (0, 1, 1)
    assert fundamental_cycle(g, ["E2"]).coeffs == (0, 0, 1)


def test_fundamental_cycle_support_errors():
    g = fig2312(1)
    with pytest.raises(InputError, match="non-empty"):
        fundamental_cycle(g, [])
    with pytest.raises(InputError, match="connected"):
        fundamental_cycle(g, ["E0", "E2"])
    with pytest.raises(InputError, match="unknown"):
        fundamental_cycle(g, ["Q"])


def test_fundamental_cycle_is_anti_nef_with_full_support():
    for g in [fig2312(2), fig244(2), brell3(2), d4_star()]:
        ze = fundamental_cycle(g)
        assert is_anti_nef(g, ze)
        assert all(c >= 1 for c in ze.coeffs)


def test_fundamental_cycle_order_independent():
    for g in [fig2312(2), fig244(3), brell3(2), d4_star()]:
        reference = fundamental_cycle(g)
        for seed in range(25):
            assert fundamental_cycle(g, rng=random.Random(seed)) == reference


# -- canonical cycles ------------------------------------------------------


def test_canonical_cycle_rational_double_point():
    k = canonical_cycle(single(-2))
    assert k.coeffs == (Fraction(0),)
    assert is_numerically_gorenstein(single(-2))


def test_canonical_cycle_fig2312():
    g = fig2312(1)
    k = canonical_cycle(g)
    assert k.coeffs == (Fraction(-1), Fraction(-2), Fraction(-3))
    assert is_numerically_gorenstein(g)


def test_canonical_cycle_fig244():
    g = fig244(1)
    assert canonical_cycle(g).coeffs == (Fraction(-1), Fraction(-2), Fraction(-1))


def test_canonical_cycle_resubstitutes():
    for g in [fig2312(3), fig244(3), brell3(3), d4_star()]:
        k = canonical_cycle(g)
        rhs = [2 * v.genus - 2 - v.self_int for v in g.vertices]
        for i in range(len(g)):
            assert sum(g.matrix[i][j] * k.coeffs[j] for j in range(len(g))) == rhs[i]


def test_non_gorenstein_cone_point():
    g = single(-3)
    assert canonical_cycle(g).coeffs == (Fraction(-1, 3),)
    assert not is_numerically_gorenstein(g)


# -- Euler characteristic --------------------------------------------------


def test_chi_values():
    g = fig2312(1)
    assert chi(g, Cycle(g, (1, 1, 1))) == 0
    assert chi(g, Cycle.unit(g, "E2")) == 0
    assert chi(single(-2), Cycle(single(-2), (1,))) == 1


def test_chi_rejects_rational_cycles():
    g = fig2312(1)
    with pytest.raises(InputError):
        chi(g, canonical_cycle(g))


@settings(max_examples=60, deadline=None)
@given(
    a=st.tuples(*(st.integers(-5, 5) for _ in range(3))),
    b=st.tuples(*(st.integers(-5, 5) for _ in range(3))),
)
def test_chi_additivity(a, b):
    g = fig2312(1)
    da, db = Cycle(g, a), Cycle(g, b)
    assert chi(g, da + db) == chi(g, da) + chi(g, db) - pairing(g, da, db)


def test_two_chi_identity_even_without_integral_canonical():
    g = single(-3)
    rhs = [2 * v.genus - 2 - v.self_int for v in g.vertices]
    for c in range(-4, 5):
        d = Cycle(g, (c,))
        assert 2 * chi(g, d) == -(pairing(g, d, d) + rhs[0] * c)


# -- Riemann-Roch colengths -------------------------------------------------


def test_riemann_roch_paper_values():
    g = fig2312(1)
    assert riemann_roch_colength(g, Cycle(g, (1, 2, 2)), p_g=2, q=1) == 1
    g2 = fig244(1)
    assert riemann_roch_colength(g2, Cycle(g2, (1, 1, 1)), p_g=2, q=1) == 1


def test_riemann_roch_zero_colength_is_inconsistent():
    g = fig2312(1)
    ze = Cycle(g, (1, 1, 1))
    assert chi(g, ze) == 0
    with pytest.raises(InputError, match="colength"):
        riemann_roch_colength(g, ze, p_g=2, q=2)


def test_riemann_roch_validates_inputs():
    g = fig2312(1)
    ze = Cycle(g, (1, 1, 1))
    with pytest.raises(InputError):
        riemann_roch_colength(g, ze, p_g=1, q=2)
    with pytest.raises(InputError, match="anti-nef"):
        riemann_roch_colength(g, Cycle.unit(g, "E0"), p_g=2, q=1)
    with pytest.raises(InputError, match="effective"):
        riemann_roch_colength(g, Cycle.zero(g), p_g=2, q=1)


def test_riemann_roch_rejects_what_is_not_a_cycle_on_the_graph():
    g = fig2312(1)
    for z in ("x", None, Cycle(fig244(1), (1, 1, 1)), canonical_cycle(g)):
        with pytest.raises(InputError, match="integral cycle on this graph"):
            riemann_roch_colength(g, z, 1, 0)
