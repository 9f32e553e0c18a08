"""The two lists of identities ``classify`` raises on and ``verify-paper``
counts: ``classify._ideal_identities`` (chi(C_t) = 0, K.C_t = -C_t^2,
colength <= p_g for each classified ideal) and
``classify._hilbert_identities`` (the Hilbert polynomial gives the
colength of each power, br <= p_g + 1).

Each named check is shown to fail on a real record with that identity
broken, and both lists, with the numbers of the records they read, are
recomputed on the 19 classification runs of ``verify-paper`` by dense
oracles that read nothing of a record but its cycle.
"""

from __future__ import annotations

from functools import cache

import pytest

from oracles import mat_vec, quad, solve, two_chi
from singlab import classify, verify
from singlab.classify import (
    _hilbert_identities,
    _ideal_identities,
    classify_gorenstein_elliptic_ideals,
    normal_hilbert_data,
)
from singlab.corpus import fig244, fig2312
from singlab.errors import InternalCheckError, _raise_at_first_failure

# the (graph, p_g) pairs of verify._classification_runs, in its order
RUN_NAMES = (
    [f"fig2312({n})-pg{p_g}" for n in range(1, 6) for p_g in (n + 1, 2 * n + 1)]
    + [f"fig244({m})-pg{m + 1}" for m in range(5)]
    + [f"brell3({m})-pg{m + 1}" for m in range(4)]
)


@cache
def _runs():
    runs = verify._classification_runs()
    assert len(runs) == len(RUN_NAMES)
    return {name: (g, p_g, rep) for name, ((g, p_g), rep) in zip(RUN_NAMES, runs.items())}


def _first_ideal_broken(**fields):
    """The fig2312(2), p_g = 3 report with its first ideal's record changed."""
    rep = _runs()["fig2312(2)-pg3"][2]
    return rep._replace(ideals=(rep.ideals[0]._replace(**fields),) + rep.ideals[1:])


def _hilbert_broken(**fields):
    """The Hilbert data of C_1 on fig2312(2), p_g = 3, with fields changed."""
    g, p_g, rep = _runs()["fig2312(2)-pg3"]
    hd = normal_hilbert_data(g, rep.ideals[0].cycle, p_g, rep.ideals[0].q)
    return hd._replace(**fields), p_g


# name -> (the items of one broken record, the detail the raise carries);
# the true values are pinned by test_the_broken_records_are_real
BROKEN = {
    "gorenstein-cone-euler-characteristic": lambda: (
        _ideal_identities(_first_ideal_broken(chi=1)), "chi(C_1) = 1"),
    "gorenstein-cone-canonical-degree": lambda: (
        _ideal_identities(_first_ideal_broken(kz=3)), "K.C_1 = 3 != 2"),
    "gorenstein-cone-colength-bound": lambda: (
        _ideal_identities(_first_ideal_broken(colength=4)), "4 > p_g = 3"),
    "hilbert-polynomial-matches-colengths": lambda: (
        _hilbert_identities(*_hilbert_broken(e1bar=3)),
        "P(1) = 1 but the power 2 has colength 3"),
    "normal-reduction-number-bound": lambda: (
        _hilbert_identities(*_hilbert_broken(br=5)), "br = 5"),
}


def test_the_broken_records_are_real():
    rep = _runs()["fig2312(2)-pg3"][2]
    assert (rep.p_g, rep.ideals[0].t, rep.ideals[0].e0, rep.ideals[0].kz) == (3, 1, 2, 2)
    hd, p_g = _hilbert_broken()
    assert (hd.e0bar, hd.e1bar, hd.e2bar, hd.colengths[1], hd.br) == (2, 2, 1, 3, 2)


@pytest.mark.parametrize("name", list(BROKEN))
def test_every_named_check_can_fail(name):
    items, detail = BROKEN[name]()
    items = list(items)
    failing = [(check, d) for check, holds, d in items if not holds]
    assert failing and {check for check, _ in failing} == {name}
    assert failing[0][1] == detail
    assert all(d is None for _, holds, d in items if holds)

    with pytest.raises(InternalCheckError) as caught:
        _raise_at_first_failure(items)
    assert (caught.value.check, caught.value.detail) == (name, detail)

    tally = verify._Tally()
    with pytest.raises(InternalCheckError, match="acceptance-property-violated"):
        for _, holds, d in items:
            tally.ok(holds, d)


def test_classify_raises_on_its_list(monkeypatch):
    monkeypatch.setattr(classify, "_chi_of", lambda d: 1)
    with pytest.raises(InternalCheckError) as caught:
        classify_gorenstein_elliptic_ideals(fig244(2), 3)
    assert (caught.value.check, caught.value.detail) == (
        "gorenstein-cone-euler-characteristic", "chi(C_0) = 1")


def test_normal_hilbert_data_raises_on_its_list(monkeypatch):
    g = fig2312(2)
    z = classify_gorenstein_elliptic_ideals(g, 3).ideals[0].cycle
    true_colength = classify.riemann_roch_colength
    # every power from the second on one longer: still increasing, but
    # off the polynomial the first power fixes
    monkeypatch.setattr(classify, "riemann_roch_colength",
                        lambda g, d, p_g, q: true_colength(g, d, p_g, q) + (d != z))
    with pytest.raises(InternalCheckError) as caught:
        normal_hilbert_data(g, z, 3, 2)
    assert (caught.value.check, caught.value.detail) == (
        "hilbert-polynomial-matches-colengths", "P(1) = 3 but the power 2 has colength 4")


def _oracle_ideal_items(g, rep):
    """(chi, K.C_t, -C_t^2) of each ideal and the list of identities, by
    dense products with ``g.matrix`` and K solved from M K = a; the
    colength is the rank of t in A_f plus one."""
    matrix, adj = g.matrix, g.adjunction
    k = solve(matrix, adj)
    numbers, items = [], []
    for ideal in rep.ideals:
        c = list(ideal.cycle.coeffs)
        chi2, e0 = two_chi(matrix, adj, c), -quad(matrix, c)
        kc = sum(a * b for a, b in zip(k, mat_vec(matrix, c)))
        numbers.append((chi2 // 2, kc, e0))
        items += [
            ("gorenstein-cone-euler-characteristic", chi2 == 0),
            ("gorenstein-cone-canonical-degree", kc == e0),
            ("gorenstein-cone-colength-bound", rep.af.af.index(ideal.t) + 1 <= rep.p_g),
        ]
    return numbers, items


def _oracle_hilbert_items(g, z, p_g, q, n_max=8):
    """The colengths of the powers by Riemann-Roch on dense products, the
    Hilbert coefficients and br they give, and the list of identities."""
    matrix, adj = g.matrix, g.adjunction
    colengths = [two_chi(matrix, adj, [n * c for c in z]) // 2 + p_g - q
                 for n in range(1, n_max + 2)]
    e0 = -quad(matrix, list(z))
    e2 = p_g - q
    e1 = e0 - colengths[0] + e2
    br = 1 if e2 == 0 else 2
    items = [("hilbert-polynomial-matches-colengths",
              e0 * (n + 2) * (n + 1) // 2 - e1 * (n + 1) + e2 == colengths[n])
             for n in range(1, n_max + 1)]
    items.append(("normal-reduction-number-bound", br <= p_g + 1))
    return (e0, e1, e2, tuple(colengths), br), items


@pytest.mark.parametrize("run", RUN_NAMES)
def test_the_lists_agree_with_dense_oracles(run):
    g, p_g, rep = _runs()[run]
    numbers, expected = _oracle_ideal_items(g, rep)
    assert [(i.chi, i.kz, i.e0) for i in rep.ideals] == numbers
    assert all(holds for _, holds in expected)
    assert [(check, holds) for check, holds, _ in _ideal_identities(rep)] == expected
    for ideal in rep.ideals:
        hd = normal_hilbert_data(g, ideal.cycle, p_g, ideal.q, n_max=8)
        numbers, expected = _oracle_hilbert_items(g, ideal.cycle.coeffs, p_g, ideal.q)
        assert (hd.e0bar, hd.e1bar, hd.e2bar, hd.colengths, hd.br) == numbers
        assert len(expected) == 9 and all(holds for _, holds in expected)
        assert [(check, holds) for check, holds, _ in _hilbert_identities(hd, p_g)] == expected
