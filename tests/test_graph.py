from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singlab import (
    Cycle,
    DualGraph,
    EnumerationLimitError,
    InputError,
    QCycle,
    Vertex,
    intersection_matrix,
    is_anti_nef,
    is_negative_definite,
    pairing,
    parse_graph,
    serialize_graph,
)
from singlab import graph as graph_module
from singlab.corpus import brell3, fig244, fig2312
from singlab.cycles import fundamental_cycle


def doc(vertices, edges=()):
    return json.dumps({"vertices": vertices, "edges": list(edges)})


def test_parse_single_vertex():
    g = parse_graph(doc([{"id": "E0", "self": -2}]))
    assert g.ids == ("E0",)
    assert g.vertices[0].genus == 0
    assert intersection_matrix(g) == [[-2]]


def test_parse_fig2312_shape():
    text = doc(
        [
            {"id": "E0", "self": -2},
            {"id": "E1", "self": -2},
            {"id": "E2", "self": -1, "genus": 1},
        ],
        [{"ends": ["E0", "E1"]}, {"ends": ["E1", "E2"]}],
    )
    g = parse_graph(text)
    assert g == fig2312(1)
    assert intersection_matrix(g) == [[-2, 1, 0], [1, -2, 1], [0, 1, -1]]


def test_parse_rejects_zero_form():
    with pytest.raises(InputError, match="negative definite"):
        parse_graph(doc([{"id": "E0", "self": 0}]))


def test_parse_rejects_duplicate_id():
    with pytest.raises(InputError, match="duplicate"):
        parse_graph(doc([{"id": "E0", "self": -2}, {"id": "E0", "self": -2}]))


def test_parse_rejects_loop():
    with pytest.raises(InputError, match="loop"):
        parse_graph(
            doc([{"id": "E0", "self": -2}], [{"ends": ["E0", "E0"]}])
        )


def test_parse_rejects_disconnected():
    with pytest.raises(InputError, match="disconnected"):
        parse_graph(doc([{"id": "A", "self": -2}, {"id": "B", "self": -2}]))


def test_parse_rejects_bad_json_and_schema():
    with pytest.raises(InputError, match="JSON"):
        parse_graph("{nope")
    with pytest.raises(InputError):
        parse_graph(json.dumps({"vertices": [{"id": "A", "self": -2, "extra": 1}]}))
    with pytest.raises(InputError, match="unknown vertex"):
        parse_graph(doc([{"id": "A", "self": -2}], [{"ends": ["A", "B"]}]))
    # JSON booleans are not integers
    with pytest.raises(InputError, match="integers"):
        parse_graph(doc([{"id": "A", "self": True}]))
    with pytest.raises(InputError, match="integers"):
        parse_graph(doc([{"id": "A", "self": -2, "genus": False}]))
    pair = [{"id": "A", "self": -2}, {"id": "B", "self": -2}]
    with pytest.raises(InputError, match="multiplicity"):
        parse_graph(doc(pair, [{"ends": ["A", "B"], "mult": True}]))
    # ids and edge ends must be JSON strings, never stringified
    with pytest.raises(InputError, match="string"):
        parse_graph(doc([{"id": None, "self": -2}]))
    with pytest.raises(InputError, match="string"):
        parse_graph(doc([{"id": 1, "self": -2}]))
    with pytest.raises(InputError, match="string"):
        parse_graph(doc(pair, [{"ends": ["A", 1]}]))
    with pytest.raises(InputError, match="JSON"):
        parse_graph('{"vertices": [{"id": "A", "self": -' + "9" * 5000 + "}]}")
    with pytest.raises(InputError, match='"edges"'):
        parse_graph(json.dumps({"vertices": pair, "edges": None}))
    # the same invariants hold for hand-built graphs
    with pytest.raises(InputError, match="invalid vertex id"):
        DualGraph([Vertex(1, -2)], [])
    with pytest.raises(InputError, match="bad vertex"):
        DualGraph([("A",)], [])
    for bad in (Vertex("A", "-2"), Vertex("A", True), Vertex("A", -2, None)):
        with pytest.raises(InputError, match="integers"):
            DualGraph([bad], [])
    pair_v = [Vertex("A", -2), Vertex("B", -2)]
    with pytest.raises(InputError, match="multiplicity"):
        DualGraph(pair_v, [("A", "B", True)])
    with pytest.raises(InputError, match="string vertex ids"):
        DualGraph(pair_v, [(["A"], "B", 1)])
    for edge in (("A", "B"), ("A", "B", 1, 1), "AB1"):
        with pytest.raises(InputError, match="must be"):
            DualGraph(pair_v, [edge])
    # accepted forms are unchanged: tuples, lists, and (id, self, genus) rows
    assert DualGraph([("A", -2, 0), ("B", -2)], [["A", "B", 1]]) == DualGraph(
        pair_v, [("A", "B", 1)]
    )


def test_multiplicity_two_edge_is_not_negative_definite():
    with pytest.raises(InputError, match="not negative definite"):
        DualGraph([Vertex("A", -2), Vertex("B", -2)], [("A", "B", 2)])


def test_semidefinite_and_zero_forms_are_rejected_at_construction():
    # a cycle of three (-2)-curves: M . (1, 1, 1) = 0
    with pytest.raises(InputError, match="not negative definite"):
        DualGraph(
            [Vertex("C0", -2), Vertex("C1", -2), Vertex("C2", -2)],
            [("C0", "C1", 1), ("C1", "C2", 1), ("C2", "C0", 1)],
        )
    with pytest.raises(InputError, match="not negative definite"):
        DualGraph([Vertex("A", 0)], [])


def test_dense_form_past_the_budget_is_refused_before_it_is_built(monkeypatch):
    # fig2312(10) has n = 21 vertices, so its elimination would read 441
    # dense entries: past the budget, the constructor refuses it, built or
    # parsed, before the elimination allocates anything
    text = serialize_graph(fig2312(10))
    fig2312.cache_clear()  # the corpus keeps the graph it built

    def never(*args):
        raise AssertionError("the dense form was built")

    with monkeypatch.context() as patch:
        patch.setattr(graph_module, "factor_augmented", never)
        patch.setenv("SINGLAB_MAX_ENUM", "440")
        for build in (lambda: parse_graph(text), lambda: fig2312(10)):
            with pytest.raises(EnumerationLimitError,
                               match="needs 441 entries, above the budget of 440"):
                build()
    monkeypatch.setenv("SINGLAB_MAX_ENUM", "441")
    assert parse_graph(text) == fig2312(10)


def test_duplicate_edge_entries_merge():
    g = DualGraph([Vertex("A", -3), Vertex("B", -3)], [("A", "B", 1), ("B", "A", 1)])
    assert g.edges == (("A", "B", 2),)


def test_pairing_paper_values():
    g = fig2312(1)
    ze = Cycle(g, (1, 1, 1))
    assert pairing(g, ze, ze) == -1
    g2 = fig244(1)
    z0 = Cycle(g2, (1, 1, 1))
    assert pairing(g2, z0, z0) == -2


def test_pairing_with_zero_cycle():
    g = fig2312(1)
    z = Cycle.zero(g)
    for d in (Cycle(g, (1, 2, 3)), Cycle(g, (-1, 4, 0))):
        assert pairing(g, d, z) == 0


def test_pairing_rejects_mismatched_graph():
    with pytest.raises(InputError):
        pairing(fig2312(1), Cycle(fig244(1), (1, 1, 1)), Cycle(fig2312(1), (1, 1, 1)))


def test_pairing_rational():
    g = fig2312(1)
    # K . D is the integer a . D, so pairing refuses a rational cycle
    q = QCycle(g, (Fraction(1, 2), Fraction(1), Fraction(0)))
    for d1, d2 in ((q, Cycle.unit(g, "E0")), (Cycle.unit(g, "E0"), q), (q, q)):
        with pytest.raises(InputError, match="integral cycles"):
            pairing(g, d1, d2)


def test_negative_definite_family():
    for m in range(0, 5):
        assert is_negative_definite(fig244(m))
        assert is_negative_definite(brell3(m))


def test_anti_nef_examples():
    g = fig2312(1)
    assert is_anti_nef(g, Cycle(g, (1, 1, 1)))
    assert is_anti_nef(g, Cycle(g, (1, 2, 2)))
    assert not is_anti_nef(g, Cycle.unit(g, "E0"))


def test_serialize_parse_identity_on_corpus():
    for g in [fig2312(2), fig244(2), brell3(2)]:
        assert parse_graph(serialize_graph(g)) == g


def test_minimality_flag():
    assert fig2312(1).is_minimal  # the (-1)-curve has genus 1
    g = DualGraph([Vertex("A", -1)], [])
    assert not g.is_minimal


coeffs3 = st.tuples(*(st.integers(-6, 6) for _ in range(3)))


@settings(max_examples=60, deadline=None)
@given(a=coeffs3, b=coeffs3, c=coeffs3, s=st.integers(-4, 4), t=st.integers(-4, 4))
def test_pairing_symmetric_bilinear(a, b, c, s, t):
    g = fig2312(1)
    da, db, dc = Cycle(g, a), Cycle(g, b), Cycle(g, c)
    assert pairing(g, da, db) == pairing(g, db, da)
    combo = Cycle(g, tuple(s * x + t * y for x, y in zip(a, b)))
    assert pairing(g, combo, dc) == s * pairing(g, da, dc) + t * pairing(g, db, dc)


@settings(max_examples=80, deadline=None)
@given(coeffs=coeffs3)
def test_pairing_negative_on_nonzero(coeffs):
    g = fig2312(1)
    d = Cycle(g, coeffs)
    if not d.is_zero:
        assert pairing(g, d, d) < 0


def test_cycle_arithmetic_and_order():
    g = fig2312(1)
    a = Cycle(g, (1, 2, 3))
    b = Cycle(g, (0, 1, 1))
    assert (a + b).coeffs == (1, 3, 4)
    assert (a - b).coeffs == (1, 1, 2)
    assert (2 * b).coeffs == (0, 2, 2)
    assert (-b).coeffs == (0, -1, -1)
    assert b <= a and b < a and a >= b
    assert not a <= b
    assert Cycle.from_map(g, {"E2": 5}).coeffs == (0, 0, 5)
    assert a.coeff("E1") == 2
    assert b.support() == ("E1", "E2")


def test_qcycle_integrality():
    g = fig2312(1)
    q = QCycle(g, (Fraction(2), Fraction(1), Fraction(0)))
    assert q.is_integral
    assert q.to_cycle() == Cycle(g, (2, 1, 0))
    q2 = QCycle(g, (Fraction(1, 2), 0, 0))
    assert not q2.is_integral
    with pytest.raises(InputError):
        q2.to_cycle()


@pytest.mark.parametrize("bad", (0.5, True, "1/2"))
def test_qcycle_takes_only_ints_and_fractions(bad):
    # no floating point, and no bool or str that Fraction() would parse
    g = fig2312(1)
    with pytest.raises(InputError, match="integers or Fractions"):
        QCycle(g, [bad, 1, 1])
    assert QCycle(g, [Fraction(1, 2), 1, 0]).coeffs == (Fraction(1, 2), 1, 0)


def test_cycle_constructor_still_checks_external_input():
    g = fig2312(1)
    for coeffs in ([True, 0, 0], [1.0, 0, 0], [Fraction(1), 0, 0], ["1", 0, 0]):
        with pytest.raises(InputError, match="integers"):
            Cycle(g, coeffs)
    for coeffs in ([1, 0], [1, 0, 0, 0], []):
        with pytest.raises(InputError, match="length"):
            Cycle(g, coeffs)
    for value in (True, 0.5):
        with pytest.raises(InputError, match="integers"):
            Cycle.from_map(g, {"E1": value})


def test_cycle_arithmetic_results_equal_checked_cycles():
    # results of arithmetic skip the coefficient check; they must be the
    # cycles the checking constructor builds from the same integers
    g = brell3(2)
    rng = random.Random(5)
    for _ in range(20):
        a = Cycle(g, [rng.randint(-4, 4) for _ in range(len(g))])
        b = Cycle(g, [rng.randint(-4, 4) for _ in range(len(g))])
        k = rng.randint(-3, 3)
        for result, expected in (
            (a + b, [x + y for x, y in zip(a.coeffs, b.coeffs)]),
            (a - b, [x - y for x, y in zip(a.coeffs, b.coeffs)]),
            (-a, [-x for x in a.coeffs]),
            (k * a, [k * x for x in a.coeffs]),
            (True * a, list(a.coeffs)),
        ):
            checked = Cycle(g, expected)
            assert result == checked and hash(result) == hash(checked)
            assert type(result.coeffs) is tuple
            assert all(type(c) is int for c in result.coeffs)
    assert Cycle.zero(g) == Cycle(g, [0] * len(g))
    assert Cycle.unit(g, "E0_2") == Cycle.from_map(g, {"E0_2": 1})
    assert fundamental_cycle(g) == Cycle(g, fundamental_cycle(g).coeffs)
    with pytest.raises(InputError, match="unknown vertex"):
        Cycle.unit(g, "nope")
    with pytest.raises(InputError, match="different graphs"):
        Cycle.zero(g) + Cycle.zero(fig2312(1))


def test_graph_equality_by_value():
    vertices = [Vertex("A", -3), Vertex("B", -3, 1)]
    g = DualGraph(vertices, [("A", "B", 2)])
    same = DualGraph(list(vertices), [("B", "A", 1), ("A", "B", 1)])
    assert g is not same and g == same and hash(g) == hash(same)
    assert g == g
    other = DualGraph(vertices, [("A", "B", 1)])
    assert g != other and other != g
    assert g.rows == (((0, -3), (1, 2)), ((1, -3), (0, 2)))
    assert other.rows == (((0, -3), (1, 1)), ((1, -3), (0, 1)))
    assert Cycle.zero(g) != Cycle.zero(other)
    assert Cycle.zero(g) == Cycle.zero(same)
