from __future__ import annotations

import pytest

from singlab import (
    InputError,
    WeightedPoly,
    classify_gorenstein_elliptic_ideals,
    corpus,
    is_negative_definite,
    parse_graph,
    pg_weighted_homogeneous,
    serialize_graph,
)
from singlab.corpus import CORPUS, brell3, emit, fig244, fig2312, genus_options


def test_snapshot_fig2312():
    assert serialize_graph(fig2312(0)) == (
        '{"edges": [], "vertices": [{"genus": 1, "id": "E0", "self": -1}]}'
    )
    assert serialize_graph(fig2312(1)) == (
        '{"edges": [{"ends": ["E0", "E1"], "mult": 1}, '
        '{"ends": ["E1", "E2"], "mult": 1}], '
        '"vertices": [{"genus": 0, "id": "E0", "self": -2}, '
        '{"genus": 0, "id": "E1", "self": -2}, '
        '{"genus": 1, "id": "E2", "self": -1}]}'
    )


def test_snapshot_fig244():
    assert serialize_graph(fig244(0)) == (
        '{"edges": [], "vertices": [{"genus": 1, "id": "Em", "self": -2}]}'
    )
    assert serialize_graph(fig244(1)) == (
        '{"edges": [{"ends": ["E0_1", "Em"], "mult": 1}, '
        '{"ends": ["Em", "E0_2"], "mult": 1}], '
        '"vertices": [{"genus": 0, "id": "E0_1", "self": -2}, '
        '{"genus": 1, "id": "Em", "self": -2}, '
        '{"genus": 0, "id": "E0_2", "self": -2}]}'
    )


def test_snapshot_brell3():
    assert serialize_graph(brell3(0)) == (
        '{"edges": [], "vertices": [{"genus": 1, "id": "E", "self": -3}]}'
    )
    assert serialize_graph(brell3(1)) == (
        '{"edges": [{"ends": ["E", "E0_1"], "mult": 1}, '
        '{"ends": ["E", "E0_2"], "mult": 1}, '
        '{"ends": ["E", "E0_3"], "mult": 1}], '
        '"vertices": [{"genus": 1, "id": "E", "self": -3}, '
        '{"genus": 0, "id": "E0_1", "self": -2}, '
        '{"genus": 0, "id": "E0_2", "self": -2}, '
        '{"genus": 0, "id": "E0_3", "self": -2}]}'
    )


def test_families_have_expected_sizes():
    for n in range(0, 6):
        assert len(fig2312(n)) == 2 * n + 1
        assert len(fig244(n)) == 2 * n + 1
        assert len(brell3(n)) == 3 * n + 1


def test_all_corpus_graphs_are_valid():
    for name, family in CORPUS.items():
        for param in range(0, 5):
            g = family(param)
            assert is_negative_definite(g), (name, param)
            assert g.is_minimal, (name, param)
            assert parse_graph(serialize_graph(g)) == g, (name, param)


def test_emit_and_errors():
    assert emit("fig244", 2) == fig244(2)
    with pytest.raises(InputError, match="unknown corpus family"):
        emit("fig999", 1)
    with pytest.raises(InputError):
        emit("fig244", -1)


def test_genus_options():
    assert genus_options("fig2312", 2) == (3, 5)
    assert genus_options("fig244", 2) == (3,)
    assert genus_options("brell3", 4) == (5,)
    with pytest.raises(InputError):
        genus_options("nope", 1)


EQUATIONS = {
    "fig2312": lambda m: (corpus.fig2312_equation_low_pg(m), corpus.fig2312_equation_high_pg(m)),
    "fig244": lambda m: (corpus.fig244_equation(m),),
    "brell3": lambda m: (corpus.brell3_equation(m),),
}


@pytest.mark.parametrize("name", sorted(EQUATIONS))
def test_equations_realize_the_genus_options(name):
    # each family's equations have the geometric genera genus_options lists,
    # and the classification accepts the graph with each of them
    for m in range(7):
        genera = tuple(pg_weighted_homogeneous(WeightedPoly.from_text(weights, text))
                       for weights, text in EQUATIONS[name](m))
        assert genera == genus_options(name, m), (name, m)
        for p_g in genera:
            assert classify_gorenstein_elliptic_ideals(CORPUS[name](m), p_g).p_g == p_g
