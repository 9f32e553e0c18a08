"""Library entry points take integers as ``graph.DualGraph`` does: an int
that is not a bool, and for a coefficient an int or a Fraction.  A float,
a bool or a string is refused with InputError, never truncated, parsed or
turned into a binary Fraction; so is an argument of the wrong shape (a
pair of weights, a bare int for a triple, a term or a list of terms),
never met with a TypeError or ValueError.  A string where a cycle or an
elliptic sequence is due is refused with InputError too, not met with an
AttributeError."""

from __future__ import annotations

from fractions import Fraction

import pytest

from singlab import InputError, corpus
from singlab.artinian import DensePoly, MonomialIdeal
from singlab.classify import classify_gorenstein_elliptic_ideals, normal_hilbert_data
from singlab.cycles import riemann_roch_colength
from singlab.elliptic import check_minus_one_chains, enumerate_antinef_upto
from singlab.graph import Cycle
from singlab.wh import WeightedPoly, a_invariant, graded_dim, pg_brieskorn


def _colength(p_g, q):
    g = corpus.fig2312(1)
    return riemann_roch_colength(g, Cycle(g, (1, 2, 2)), p_g, q)


def _hilbert(n_max):
    g = corpus.fig2312(1)
    return normal_hilbert_data(g, Cycle(g, (1, 2, 2)), 2, 0, n_max=n_max)


def _kept_then(param):
    corpus.fig2312(1)  # a kept graph for 1 must not answer for True or 1.0
    return corpus.fig2312(param)


CASES = {
    "classify-pg-bool": lambda: classify_gorenstein_elliptic_ideals(corpus.fig244(0), True),
    "colength-q-bool": lambda: _colength(2, True),
    "colength-pg-float": lambda: _colength(2.0, 0),
    "weights-float": lambda: WeightedPoly((7.9, 3, 2), [((1, 0, 0), 1), ((0, 0, 4), 1)]),
    "weights-bool": lambda: WeightedPoly((True, 1, 1), [((1, 0, 0), 1), ((0, 1, 0), 1)]),
    "wh-exponent-float": lambda: WeightedPoly((1, 1, 1), [((1.0, 0, 0), 1), ((0, 1, 0), 1)]),
    "wh-coefficient-float": lambda: WeightedPoly((1, 1, 1), [((1, 0, 0), 0.1), ((0, 1, 0), 1)]),
    "wh-coefficient-str": lambda: WeightedPoly((1, 1, 1), [((1, 0, 0), "1/2"), ((0, 1, 0), 1)]),
    "ideal-exponent-float": lambda: MonomialIdeal([(1.7, 0, 0), (0, 1, 0), (0, 0, 1)]),
    "ideal-exponent-bool": lambda: MonomialIdeal([(True, 0, 0), (0, 1, 0), (0, 0, 1)]),
    "poly-exponent-float": lambda: DensePoly([((2.9, 0, 0), 1), ((0, 1, 0), 1)]),
    "poly-coefficient-float": lambda: DensePoly([((2, 0, 0), 0.1), ((0, 1, 0), 1)]),
    "poly-coefficient-str": lambda: DensePoly([((2, 0, 0), "1/2"), ((0, 1, 0), 1)]),
    "poly-coefficient-bool": lambda: DensePoly([((2, 0, 0), True), ((0, 1, 0), 1)]),
    "hilbert-n-max-float": lambda: _hilbert(2.5),
    "brieskorn-float": lambda: pg_brieskorn(2, 3, 7.0),
    "a-invariant-degree-float": lambda: a_invariant((1, 1, 1), 2.5),
    "graded-dim-index-bool": lambda: graded_dim((1, 1, 1), 3, True),
    "graded-dim-weight-float": lambda: graded_dim((1.5, 1, 1), 3, 1),
    "corpus-float": lambda: corpus.fig2312(1.5),
    "corpus-bool-after-kept": lambda: _kept_then(True),
    "corpus-whole-float-after-kept": lambda: _kept_then(1.0),
    "genus-options-float": lambda: corpus.genus_options("fig244", 1.5),
    # wrongly shaped arguments: not a triple, not a term, not iterable
    "ideal-generator-int": lambda: MonomialIdeal([5]),
    "ideal-generators-int": lambda: MonomialIdeal(5),
    "poly-term-int": lambda: DensePoly([5]),
    "poly-term-triple": lambda: DensePoly([((1, 0, 0), 1, 2)]),
    "poly-terms-int": lambda: DensePoly(5),
    "poly-exponents-int": lambda: DensePoly([(5, 1)]),
    "weights-pair": lambda: WeightedPoly((1, 1), []),
    "weights-int": lambda: WeightedPoly(5, []),
    "wh-term-int": lambda: WeightedPoly((1, 1, 1), [5]),
    "a-invariant-weights-pair": lambda: a_invariant((1, 1), 3),
    "a-invariant-weights-int": lambda: a_invariant(5, 3),
    "graded-dim-weights-pair": lambda: graded_dim((1, 1), 3, 1),
}


@pytest.mark.parametrize("case", list(CASES))
def test_entry_points_refuse_what_is_not_an_integer(case):
    with pytest.raises(InputError, match="integer|exponent triple"):
        CASES[case]()


OBJECT_CASES = {
    "antinef-bound-str": lambda: enumerate_antinef_upto(corpus.fig244(1), "x"),
    "chains-sequence-str": lambda: check_minus_one_chains(corpus.fig2312(1), "x"),
}


@pytest.mark.parametrize("case", list(OBJECT_CASES))
def test_entry_points_refuse_what_is_not_a_cycle_or_sequence(case):
    with pytest.raises(InputError, match="does not live on this graph|different graph"):
        OBJECT_CASES[case]()


def test_fractions_and_kept_graphs_still_answer():
    # the exact coefficients the rule keeps, and the graph kept for an int
    half = Fraction(1, 2)
    assert DensePoly([((2, 0, 0), half), ((0, 1, 0), 1)]).terms == (
        ((0, 1, 0), 1), ((2, 0, 0), half))
    assert WeightedPoly((1, 1, 1), [((1, 0, 0), half), ((0, 1, 0), 1)]).degree == 1
    assert corpus.fig2312(1) is corpus.fig2312(1)
    assert corpus.genus_options("fig2312", 1) == (2, 3)
