from __future__ import annotations

import io
import sys

import pytest

from singlab import (
    Cycle,
    DualGraph,
    InputError,
    Vertex,
    canonical_cycle,
    classify_gorenstein_elliptic_ideals,
    derive_af,
    elliptic_sequence,
    normal_hilbert_data,
    pairing,
    pg_ideal_gorenstein_test,
)
from singlab import cli, verify
from singlab.corpus import brell3, fig244, fig2312, genus_options
from singlab.graph import QCycle, serialize_graph


# -- derive_af ---------------------------------------------------------------


def test_derive_af_paper_cases():
    a = derive_af(2, 2)
    assert (a.gamma, a.beta, a.af, a.maximal) == (2, 1, (1, 2), False)
    b = derive_af(2, 3)
    assert (b.gamma, b.beta, b.af, b.maximal) == (1, 0, (0, 1, 2), True)
    c = derive_af(0, 1)
    assert (c.af, c.maximal) == ((0,), True)


def test_derive_af_inconsistent_pairs():
    with pytest.raises(InputError, match="divide"):
        derive_af(3, 3)
    with pytest.raises(InputError, match="exceeds"):
        derive_af(1, 3)
    with pytest.raises(InputError, match="length 1"):
        derive_af(2, 1)
    with pytest.raises(InputError):
        derive_af(-1, 2)
    with pytest.raises(InputError):
        derive_af(2, 0)


def test_derive_af_size_always_pg():
    for m in range(0, 13):
        for p_g in range(2, m + 2):
            if m % (p_g - 1):
                continue
            a = derive_af(m, p_g)
            assert len(a.af) == p_g
            assert a.af[-1] == m
            assert a.maximal == (a.gamma == 1)
            assert a.beta == a.gamma - 1


# -- classification ----------------------------------------------------------


def test_classify_fig2312_low_genus():
    rep = classify_gorenstein_elliptic_ideals(fig2312(1), 2)
    assert rep.zeta == 1
    (ideal,) = rep.ideals
    assert ideal.t == 1
    assert ideal.cycle.coeffs == (1, 2, 2)
    assert ideal.colength == 1
    assert ideal.e0 == 2
    assert ideal.kz == 2
    assert ideal.chi == 0
    assert ideal.eb2 == 1
    assert ideal.q == 1
    assert ideal.kind == "strongly-elliptic"
    assert rep.note is None


def test_classify_fig2312_high_genus_is_empty():
    rep = classify_gorenstein_elliptic_ideals(fig2312(1), 3)
    assert rep.af.maximal
    assert rep.zeta == 0
    assert rep.ideals == ()
    assert rep.note is not None  # maximal with Z_0^2 = -1


def test_classify_fig244():
    rep = classify_gorenstein_elliptic_ideals(fig244(1), 2)
    assert rep.af.maximal
    assert rep.zeta == 2
    assert [(i.t, i.colength, i.e0, i.kind) for i in rep.ideals] == [
        (0, 1, 2, "strongly-elliptic"),
        (1, 2, 4, "elliptic"),
    ]


def test_classify_requires_char0_when_not_maximal():
    with pytest.raises(InputError, match="characteristic zero"):
        classify_gorenstein_elliptic_ideals(fig2312(1), 2, char0=False)
    # the maximal branch stays available in any characteristic
    rep = classify_gorenstein_elliptic_ideals(fig2312(1), 3, char0=False)
    assert rep.zeta == 0
    rep2 = classify_gorenstein_elliptic_ideals(fig244(1), 2, char0=False)
    assert rep2.zeta == 2


def test_classify_rejects_non_minimal_graph():
    g = DualGraph(
        [Vertex("A", -1, 0), Vertex("B", -2, 1)],
        [("A", "B", 1)],
    )
    with pytest.raises(InputError, match="minimal"):
        classify_gorenstein_elliptic_ideals(g, 1)


def test_classify_rejects_inconsistent_genus():
    with pytest.raises(InputError):
        classify_gorenstein_elliptic_ideals(fig2312(1), 5)  # p_g > m + 1 = 3
    with pytest.raises(InputError, match="divide"):
        classify_gorenstein_elliptic_ideals(fig2312(3), 5)  # 4 does not divide 6


def test_classify_json_schema():
    doc = classify_gorenstein_elliptic_ideals(fig2312(1), 2).to_json_dict()
    assert doc["gamma"] == 2 and doc["beta"] == 1
    assert doc["af"] == [1, 2]
    assert doc["maximal"] is False
    assert doc["zeta"] == 1
    (ideal,) = doc["ideals"]
    assert ideal["cycle"] == {"E0": 1, "E1": 2, "E2": 2}
    assert ideal["e2bar"] == 1 and ideal["kind"] == "strongly-elliptic"


# -- normal Hilbert data -----------------------------------------------------


def test_hilbert_data_fig244():
    g = fig244(1)
    z = Cycle(g, (1, 1, 1))
    hd = normal_hilbert_data(g, z, p_g=2, q=1, n_max=8)
    assert (hd.e0bar, hd.e1bar, hd.e2bar) == (2, 2, 1)
    assert hd.colengths[:4] == (1, 3, 7, 13)
    assert hd.colengths == tuple(n * n - n + 1 for n in range(1, 10))
    assert hd.q_sequence == (2,) + (1,) * 8
    assert hd.br == 2


def test_hilbert_data_pg_ideal_case():
    # rational double point: the maximal ideal has defect q = p_g = 0
    g = DualGraph([Vertex("E", -2)], [])
    z = Cycle(g, (1,))
    hd = normal_hilbert_data(g, z, p_g=0, q=0, n_max=6)
    assert hd.e2bar == 0
    assert hd.br == 1
    assert hd.e1bar == hd.e0bar - hd.colengths[0]
    assert hd.colengths == tuple(n * n for n in range(1, 8))


def test_hilbert_data_fig2312_strongly_elliptic():
    g = fig2312(1)
    seq = elliptic_sequence(g)
    c1 = seq.partial_sum(1)
    hd = normal_hilbert_data(g, c1, p_g=2, q=1)
    assert hd.e2bar == 1 == hd.colengths[0]
    assert hd.br == 2


def test_hilbert_data_validates():
    g = fig2312(1)
    with pytest.raises(InputError, match="anti-nef"):
        normal_hilbert_data(g, Cycle.unit(g, "E0"), 2, 1)
    with pytest.raises(InputError):
        normal_hilbert_data(g, Cycle(g, (1, 1, 1)), 2, 3)


# -- Gorenstein test for reduction-number-one ideals -------------------------


def test_pg_ideal_gorenstein_test_genus_one_point():
    g = DualGraph([Vertex("E", -1, 1)], [])
    assert canonical_cycle(g).coeffs[0] == -1
    assert not pg_ideal_gorenstein_test(g, Cycle(g, (1,)))


def test_pg_ideal_gorenstein_test_anticanonical_cycle():
    g = fig244(1)
    seq = elliptic_sequence(g)
    c1 = seq.partial_sum(1)  # equals -K; K.C1 = -K^2 = 4 != 0
    assert pairing(g, canonical_cycle(g), c1) == 4
    assert not pg_ideal_gorenstein_test(g, c1)


def test_pg_ideal_gorenstein_test_positive_case():
    # A1 double point: K = 0, so any cycle passes
    g = DualGraph([Vertex("E", -2)], [])
    assert pg_ideal_gorenstein_test(g, Cycle(g, (1,)))
    assert pg_ideal_gorenstein_test(g, Cycle(g, (3,)))


def test_no_product_reads_the_rational_canonical_cycle(monkeypatch, capsys, cold_caches):
    # K . D is read as a . D everywhere: pairing, wherever it is imported,
    # refuses a QCycle through a cold verify-paper and classify on the corpus
    original = pairing
    rational = []

    def integral_pairing(g, d1, d2):
        if isinstance(d1, QCycle) or isinstance(d2, QCycle):
            rational.append((d1, d2))
            raise TypeError("pairing given a rational cycle")
        return original(g, d1, d2)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "singlab" and getattr(module, "pairing", None) is original:
            monkeypatch.setattr(module, "pairing", integral_pairing)
    assert all(result.passed for result in verify.run_all())
    for family in (fig2312, fig244, brell3):
        for param in (1, 2, 3, 4):
            for p_g in genus_options(family.__name__, param):
                doc = serialize_graph(family(param))
                monkeypatch.setattr(sys, "stdin", io.StringIO(doc))
                assert cli.main(["classify", "-", "--pg", str(p_g), "--format", "json"]) == 0
    assert rational == []
