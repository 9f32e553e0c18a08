from __future__ import annotations

import io
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import antinef_in_box, chi_zero_in_box
from singlab import (
    Cycle,
    DualGraph,
    EnumerationLimitError,
    InputError,
    Vertex,
    check_minus_one_chains,
    chi,
    chi_nonnegative_check,
    elliptic_sequence,
    enumerate_antinef_upto,
    is_elliptic,
    minimally_elliptic_cycle,
    pairing,
)
from singlab import _engine, _linalg, canonical_cycle, cli, verify
from singlab import cycles as cycles_module
from singlab import elliptic as elliptic_module
from singlab import graph as graph_module
from singlab.cycles import adjunction_vector, fundamental_cycle
from singlab.corpus import brell3, fig244, fig2312
from singlab.errors import InternalCheckError
from singlab.graph import is_negative_definite, serialize_graph


def single(self_int, genus=0):
    return DualGraph([Vertex("E", self_int, genus)], [])


def test_is_elliptic():
    assert not is_elliptic(single(-2))
    for n in range(1, 5):
        assert is_elliptic(fig2312(n))
    for m in range(0, 5):
        assert is_elliptic(fig244(m))
        assert is_elliptic(brell3(m))


def test_minimally_elliptic_cycle_examples():
    g = fig2312(1)
    assert minimally_elliptic_cycle(g) == Cycle.unit(g, "E2")
    g2 = fig244(1)
    assert minimally_elliptic_cycle(g2) == Cycle.unit(g2, "Em")
    g3 = single(-3, genus=1)
    assert minimally_elliptic_cycle(g3).coeffs == (1,)


def test_minimally_elliptic_cycle_requires_elliptic():
    with pytest.raises(InputError, match="not elliptic"):
        minimally_elliptic_cycle(single(-2))


# -- graphs beyond the corpus chains for the E_min brute-force check -----


def cusp(selfs):
    """Cycle of rational curves C_0 - C_1 - ... - C_{k-1} - C_0."""
    k = len(selfs)
    return DualGraph(
        [Vertex(f"C{i}", s) for i, s in enumerate(selfs)],
        [(f"C{i}", f"C{(i + 1) % k}", 1) for i in range(k)],
    )


def star(center, genus, arms):
    """Centre O with rational chains A{a}_0 - A{a}_1 - ... hanging off it."""
    vertices = [Vertex("O", center, genus)]
    edges = []
    for a, arm in enumerate(arms):
        prev = "O"
        for k, s in enumerate(arm):
            vid = f"A{a}_{k}"
            vertices.append(Vertex(vid, s))
            edges.append((prev, vid, 1))
            prev = vid
    return DualGraph(vertices, edges)


def genus_one_tree(seed, n):
    """Random tree with one genus-1 vertex and |E_i^2| >= deg E_i."""
    rng = random.Random(seed)
    parent = [None] + [rng.randrange(i) for i in range(1, n)]
    deg = [0] * n
    for i in range(1, n):
        deg[i] += 1
        deg[parent[i]] += 1
    special = rng.randrange(n)
    vertices = []
    for i in range(n):
        floor = max(deg[i], 1) if i == special else max(deg[i], 2)
        vertices.append(Vertex(f"T{i}", -floor - rng.choice((0, 0, 1)), int(i == special)))
    return DualGraph(vertices, [(f"T{parent[i]}", f"T{i}", 1) for i in range(1, n)])


EMIN_CASES = {
    "cusp-3222": cusp([-3, -2, -2, -2]),
    "cusp-333": cusp([-3, -3, -3]),
    "cusp-23232": cusp([-2, -3, -2, -3, -2]),
    "cusp-2232223": cusp([-2, -2, -3, -2, -2, -2, -3]),
    "star3-full": star(-2, 0, [[-2, -3], [-2, -2], [-2, -2]]),
    "star3-partial": star(-2, 0, [[-2, -3, -2], [-2, -2], [-2, -2]]),
    "star3-genus1": star(-3, 1, [[-3], [-2], [-2]]),
    "star4-full": star(-2, 0, [[-2], [-2], [-2], [-3]]),
    "star4-partial": star(-2, 0, [[-2], [-3], [-2, -2], [-3]]),
    "star5-full": star(-3, 0, [[-2]] * 5),
    "star5-partial": star(-3, 0, [[-2], [-2], [-2], [-2, -2], [-2]]),
}
for _seed, _n in [(1, 4), (4, 7)]:
    EMIN_CASES[f"tree{_n}-seed{_seed}"] = genus_one_tree(_seed, _n)


def test_minimally_elliptic_agrees_with_brute_force():
    cases = {"fig2312-2": fig2312(2), "fig244-2": fig244(2), "brell3-2": brell3(2), **EMIN_CASES}
    support = {}
    for name, g in cases.items():
        assert is_negative_definite(g) and is_elliptic(g), name
        emin = minimally_elliptic_cycle(g)
        ze = fundamental_cycle(g).coeffs
        zeros = chi_zero_in_box(g.matrix, adjunction_vector(g), ze)
        assert emin.coeffs in zeros, name
        assert all(all(a <= b for a, b in zip(emin.coeffs, d)) for d in zeros), name
        support[name] = len(emin.support())
    # E_min with full support, with partial support, and on a single vertex
    assert support["cusp-2232223"] == 7 and support["star5-full"] == 6
    assert support["star4-partial"] == 5
    assert support["star3-genus1"] == 1 and support["tree7-seed4"] == 1


@pytest.mark.parametrize("family, param, count", [
    (fig2312, 8, 17), (fig244, 8, 12), (brell3, 6, 24),
], ids=["fig2312-8", "fig244-8", "brell3-6"])
def test_minimally_elliptic_cycle_loops_only_in_its_passes(family, param, count, monkeypatch):
    # Laufer loops of one cold E_min, counted by a spy on elliptic._laufer_loop
    # on a graph built anew that already keeps Z_E: one per component of each
    # B - v in the deletion pass and of each G - v in the uniqueness pass, and
    # none after them, as E_min keeps the cycle of the component it picks.
    template = family(param)
    expected = minimally_elliptic_cycle(template)
    g = DualGraph(template.vertices, template.edges)
    fundamental_cycle(g)
    loops = []
    laufer = elliptic_module._laufer_loop
    monkeypatch.setattr(elliptic_module, "_laufer_loop",
                        lambda g, idxs, rng: loops.append(len(idxs)) or laufer(g, idxs, rng))
    assert minimally_elliptic_cycle(g) == expected
    assert len(loops) == count


def test_elliptic_sequence_fig2312():
    seq = elliptic_sequence(fig2312(1))
    assert seq.m == 2
    assert [z.coeffs for z in seq.cycles] == [(1, 1, 1), (0, 1, 1), (0, 0, 1)]
    assert seq.supports == (("E0", "E1", "E2"), ("E1", "E2"), ("E2",))
    assert seq.partial_sum(-1).is_zero
    assert seq.tail_sum(3).is_zero
    assert seq.partial_sum(2).coeffs == (1, 2, 3)
    assert seq.tail_sum(1).coeffs == (0, 1, 2)


def test_elliptic_sequence_fig244():
    seq = elliptic_sequence(fig244(1))
    assert seq.m == 1
    assert [z.coeffs for z in seq.cycles] == [(1, 1, 1), (0, 1, 0)]


def test_elliptic_sequence_immediate_stop():
    g = single(-3, genus=1)
    seq = elliptic_sequence(g)
    assert seq.m == 0
    assert seq.cycles[0] == minimally_elliptic_cycle(g)


def test_elliptic_sequence_preconditions():
    with pytest.raises(InputError, match="not elliptic"):
        elliptic_sequence(single(-2))
    # genus-2 vertex: chi(Z_E) = -((-2) + (2*2 - 2 + 2))/2 = -1, not elliptic
    assert not is_elliptic(single(-2, genus=2))
    # elliptic but not numerically Gorenstein: genus-1 curve with odd... use -3 genus 1?
    g = single(-3, genus=1)
    assert is_elliptic(g)
    seq = elliptic_sequence(g)  # K = (-1) is integral here
    assert seq.m == 0


def test_elliptic_sequence_rejects_non_gorenstein_lattice():
    # genus-1 (-2)-curve with a (-3) leaf: elliptic (chi(Z_E) = 0) but the
    # canonical cycle is (-7/5, -4/5)
    g = DualGraph([Vertex("C", -2, 1), Vertex("L", -3, 0)], [("C", "L", 1)])
    assert chi(g, Cycle(g, (1, 1))) == 0
    assert is_elliptic(g)
    with pytest.raises(InputError, match="numerically Gorenstein"):
        elliptic_sequence(g)


def test_enumerate_antinef_upto_matches_oracle_and_paper():
    g = fig2312(1)
    seq = elliptic_sequence(g)
    cm = seq.partial_sum(2)
    found = {c.coeffs for c in enumerate_antinef_upto(g, cm)}
    assert found == {(0, 0, 0), (1, 1, 1), (1, 2, 2), (1, 2, 3)}
    assert found == set(antinef_in_box(g.matrix, cm.coeffs))

    g2 = fig244(1)
    seq2 = elliptic_sequence(g2)
    cm2 = seq2.partial_sum(1)
    found2 = {c.coeffs for c in enumerate_antinef_upto(g2, cm2)}
    assert found2 == {(0, 0, 0), (1, 1, 1), (1, 2, 1)}

    assert [c.coeffs for c in enumerate_antinef_upto(g, Cycle.zero(g))] == [(0, 0, 0)]


def test_enumerate_antinef_budget(monkeypatch):
    g = fig244(3)
    big = Cycle(g, (9,) * len(g))
    monkeypatch.setenv("SINGLAB_MAX_ENUM", "1000")
    with pytest.raises(EnumerationLimitError, match="budget of 1000"):
        enumerate_antinef_upto(g, big)


def test_enumeration_budget_env_override(monkeypatch):
    g = fig2312(1)
    c = Cycle(g, (3, 3, 3))
    monkeypatch.setenv("SINGLAB_MAX_ENUM", "10")
    with pytest.raises(EnumerationLimitError):
        enumerate_antinef_upto(g, c)
    monkeypatch.setenv("SINGLAB_MAX_ENUM", "1000")
    assert enumerate_antinef_upto(g, c)
    monkeypatch.setenv("SINGLAB_MAX_ENUM", "zero")
    with pytest.raises(InputError, match="SINGLAB_MAX_ENUM"):
        enumerate_antinef_upto(g, c)


def test_check_minus_one_chains_fig2312():
    g = fig2312(1)
    seq = elliptic_sequence(g)
    report = check_minus_one_chains(g, seq)
    assert report.minus_one_indices == (0, 1, 2)
    assert report.chain == ("E0", "E1")


def _spy_mat_vec(monkeypatch):
    """Every call of ``mat_vec``, in each singlab module that holds it."""
    calls = []
    original = graph_module.mat_vec
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "singlab" and getattr(module, "mat_vec", None) is original:
            monkeypatch.setattr(module, "mat_vec",
                                lambda g, coeffs: calls.append(coeffs) or original(g, coeffs))
    return calls


def test_check_minus_one_chains_reads_the_stored_images(monkeypatch):
    # Z_t^2, its curve of pairing -1 and C_m . E_i are read off the images
    # the sequence keeps (m + 2 products when it multiplied them again)
    g = fig2312(6)
    seq = elliptic_sequence(g)
    calls = _spy_mat_vec(monkeypatch)
    report = check_minus_one_chains(g, seq)
    assert report.minus_one_indices == tuple(range(seq.m + 1))
    assert calls == []


def test_elliptic_sequence_multiplies_each_step_once(monkeypatch):
    # one image M Z per step gives both Z . E_min and the curves
    # orthogonal to Z: the image the graph's Z_0 = Z_E carries and the one
    # each later Z_t carries from its Laufer loop; the partial and tail
    # sums carry the sums of those images, so the one product left is K's
    # check (m + 2 when the finished sequence multiplied each Z_t again,
    # m + 3 when the build multiplied Z_E again, 2m + 3 when the build loop
    # multiplied each Z_t, 120 when the identities multiplied again)
    template = fig2312(8)
    g = DualGraph(template.vertices, template.edges)
    assert is_elliptic(g)
    minimally_elliptic_cycle(g)
    calls = _spy_mat_vec(monkeypatch)
    seq = elliptic_sequence(g)
    assert seq.m == 16
    assert calls == [g._solution[1]]


def test_a_cold_sequence_holds_every_image_it_reads(monkeypatch, cold_caches):
    # Z_t, C_t, C'_t and E_min of a cold sequence hold their images M D
    # from construction, so reading them multiplies nothing; a cycle built
    # from bare coefficients multiplies once, on its first read, and keeps
    # the result
    g = fig2312(4)
    seq = elliptic_sequence(g)
    emin = minimally_elliptic_cycle(g)
    calls = _spy_mat_vec(monkeypatch)
    held = [*seq.cycles, emin, *(seq.partial_sum(t) for t in range(-1, seq.m + 1)),
            *(seq.tail_sum(t) for t in range(seq.m + 2))]
    assert all(d._image is not None and d.image is d._image for d in held)
    assert calls == []
    d = Cycle(g, seq.partial_sum(2).coeffs)
    assert d._image is None
    assert d.image == seq.partial_sum(2).image and d.image is d.image
    assert calls == [d.coeffs]


# one product per command, K's check: is_elliptic, the chi sweep and the
# build loop read chi(Z_E) and M Z_E off the image the graph's Z_E carries,
# E_min and the later steps the images their Laufer loops' cycles carry,
# the sequence's sums the sums of their terms' images, and graph analyze
# the chi(Z_E) it prints.  The counts when the sequence multiplied each
# Z_t again (m + 1 more, 1 for graph analyze) come first in the comments,
# then those when the three readers multiplied Z_E again (3 more), then
# those when E_min and each step multiplied again (n + 1 and m + 1 more),
# then those when every reader multiplied the cycles again, the last two
# from before the sweep read chi(Z_E) itself
@pytest.mark.parametrize("argv, param", [
    (["elliptic", "sequence", "-"], 8),  # 18, 21, 54, 157
    (["elliptic", "sequence", "-"], 30),  # 62, 65, 186, 553
    (["classify", "-", "--pg", "9"], 8),  # 18, 21, 54, 165
    (["classify", "-", "--pg", "17"], 8),  # 18, 21, 54, 158
    (["classify", "-", "--pg", "31"], 30),  # 62, 65, 186, 583
    (["classify", "-", "--pg", "61"], 30),  # 62, 65, 186, 554
    (["graph", "analyze", "-"], 8),  # 2, 4
], ids=["sequence-8", "sequence-30", "classify-8-pg9", "classify-8-pg17", "classify-30-pg31",
        "classify-30-pg61", "analyze-8"])
def test_cold_cli_runs_multiply_each_sequence_cycle_once(monkeypatch, capsys, cold_caches,
                                                        argv, param):
    calls = _spy_mat_vec(monkeypatch)
    monkeypatch.setattr(sys, "stdin", io.StringIO(serialize_graph(fig2312(param))))
    assert cli.main([*argv, "--format", "json"]) == 0
    capsys.readouterr()
    assert len(calls) == 1


def test_verify_paper_products_are_pinned(monkeypatch, capsys, cold_caches):
    # 40 of these are the hilbert-data check's "e0bar = -Z^2", which
    # multiplies each classified C_t afresh, apart from the image the
    # Hilbert data reads; 415 when that check read the same held image.
    # 559 when each finished sequence multiplied its Z_t again (104
    # products over the 20 sequences) and the Hilbert data multiplied each
    # classified C_t (40) whose image it held; 1345 when E_min and the
    # sequence steps multiplied each Laufer cycle again and the Hilbert
    # data multiplied each power n Z and Z twice; 2804 when the sequence's
    # readers multiplied its cycles again; 599 before the chi sweep read
    # chi(Z_E) itself, once on each of 20 graphs; 619 before is_elliptic,
    # the chi sweep and the sequence's build loop read chi(Z_E) and M Z_E
    # off the image the graph keeps with Z_E, 3 products fewer on each of
    # those 20 graphs
    calls = _spy_mat_vec(monkeypatch)
    assert cli.main(["verify-paper", "--format", "json"]) == 0
    capsys.readouterr()
    assert len(calls) == 455


def test_check_minus_one_chains_vacuous_fig244():
    g = fig244(1)
    seq = elliptic_sequence(g)
    report = check_minus_one_chains(g, seq)
    assert report.minus_one_indices == ()
    assert report.chain == ()


def test_check_minus_one_chains_vacuous_at_length_one():
    g = single(-1, genus=1)
    seq = elliptic_sequence(g)
    report = check_minus_one_chains(g, seq)
    assert report.minus_one_indices == (0,)
    assert report.chain == ()


def test_cusp_triangle_of_rational_curves():
    # cyclic configuration (-3)-(-2)-(-2): elliptic with a genus-0
    # minimally elliptic cycle equal to the whole fundamental cycle
    g = DualGraph(
        [Vertex("A", -3), Vertex("B", -2), Vertex("C", -2)],
        [("A", "B", 1), ("B", "C", 1), ("C", "A", 1)],
    )
    assert is_elliptic(g)
    assert minimally_elliptic_cycle(g).coeffs == (1, 1, 1)
    seq = elliptic_sequence(g)
    assert seq.m == 0
    assert pairing(g, seq.cycles[0], seq.cycles[0]) == -1
    from singlab import classify_gorenstein_elliptic_ideals

    rep = classify_gorenstein_elliptic_ideals(g, 1)
    assert rep.zeta == 0 and rep.note is not None


def test_chi_sweep_exhaustive_and_sampled():
    # fig2312(2): 2 Z_E spans 3^5 candidates, swept exhaustively
    sweep = chi_nonnegative_check(fig2312(2))
    assert sweep.exhaustive
    assert sweep.min_chi == 0
    assert sweep.checked == 3 ** 5 - 1
    # the largest D with chi(D) = 0 in the box, which the minimum cut reads off
    assert sweep.witness == (1, 2, 2, 2, 2)
    # fig2312(6): 3^13 = 1594323 candidates, above the cap, so sampled
    sampled = chi_nonnegative_check(fig2312(6))
    assert not sampled.exhaustive
    assert 0 < sampled.checked <= 2000
    assert sampled.min_chi >= 0


@pytest.mark.parametrize("n", (3, 6))  # exhaustive and sampled
def test_is_elliptic_keeps_its_chi_sweep(n, monkeypatch):
    # a fresh copy, so no earlier test has swept it
    g = DualGraph(fig2312(n).vertices, fig2312(n).edges)
    expected = chi_nonnegative_check(fig2312(n))
    calls = []
    cut = _engine.min_twochi_cut
    monkeypatch.setattr(_engine, "min_twochi_cut", lambda *args: calls.append(args) or cut(*args))
    assert is_elliptic(g)
    first = chi_nonnegative_check(g)
    assert chi_nonnegative_check(g) is first
    assert first == expected
    assert len(calls) == (n == 3)


def test_one_elimination_per_graph(monkeypatch):
    # K and the sequence read the solution the constructor's one solve
    # kept, and no dense elimination runs: the exhaustive chi sweep cuts
    # the form's sparse rows; a fresh copy, so nothing is cached yet
    template = fig2312(3)
    calls = []
    solve = _linalg.solve_negative_definite
    monkeypatch.setattr(graph_module, "solve_negative_definite",
                        lambda *args: calls.append(args) or solve(*args))
    monkeypatch.setattr(_linalg, "eliminate", lambda *args: calls.append(args))
    g = DualGraph(template.vertices, template.edges)
    canonical_cycle(g)
    assert is_elliptic(g) and chi_nonnegative_check(g).exhaustive
    elliptic_sequence(g)
    assert len(calls) == 1
    # the graph keeps no table, only the integer solution (d, y) of M y = d a
    d, y = g._solution
    assert isinstance(d, int) and len(y) == len(g)
    assert all(isinstance(c, int) for c in y)


def test_verify_paper_emin_rule_equals_the_box_scan():
    """verify-paper checks that E_min lies below every chi = 0 cycle
    0 < D <= Z_E by one minimum cut per vertex of supp E_min.  On its graphs
    and on the E_min cases, the cuts agree with a scan of the whole box,
    for E_min and for Z_E posing as it, which both reject wherever the
    two differ."""
    graphs = ([fig2312(n) for n in range(1, 4)] + [fig244(m) for m in range(4)]
              + [brell3(m) for m in range(4)] + list(EMIN_CASES.values()))
    differ = 0
    for g in graphs:
        emin = minimally_elliptic_cycle(g).coeffs
        ze = fundamental_cycle(g).coeffs
        zeros = chi_zero_in_box(g.matrix, adjunction_vector(g), ze)
        for e in (emin, ze):
            scan = all(all(a <= b for a, b in zip(e, d)) for d in zeros)
            assert verify._below_every_chi_zero(g, e, ze) == scan == (e == emin), g
        differ += emin != ze
    assert differ == 15


def test_elliptic_sequence_beyond_the_old_box_budget():
    # Z_E spans 2^25 and 2^31 candidates, past the default budget of the
    # exhaustive search that E_min used to be
    n = 12
    g = fig2312(n)
    assert _engine.box_size(fundamental_cycle(g).coeffs) > _engine.DEFAULT_MAX_ENUM
    seq = elliptic_sequence(g)
    assert seq.m == 2 * n
    for i, z in enumerate(seq.cycles):
        assert z.coeffs == tuple(1 if j >= i else 0 for j in range(2 * n + 1))
        assert pairing(g, z, z) == -1

    m = 10
    g = brell3(m)
    assert _engine.box_size(fundamental_cycle(g).coeffs) > _engine.DEFAULT_MAX_ENUM
    seq = elliptic_sequence(g)
    assert seq.m == m
    assert seq.e_min == Cycle.unit(g, "E")
    for i, z in enumerate(seq.cycles):
        expected = {"E": 1}
        expected.update({f"E{j}_{s}": 1 for j in range(i, m) for s in (1, 2, 3)})
        assert z == Cycle.from_map(g, expected)
    assert pairing(g, seq.e_min, seq.e_min) == -3


def _count_verifications(monkeypatch):
    calls = []
    verify_sequence = elliptic_module._verify_sequence
    monkeypatch.setattr(elliptic_module, "_verify_sequence",
                        lambda seq, emin: calls.append(seq.graph) or verify_sequence(seq, emin))
    return calls


def test_elliptic_sequence_is_built_and_verified_once(monkeypatch):
    calls = _count_verifications(monkeypatch)
    template = fig244(3)
    g = DualGraph(template.vertices, template.edges)
    first = elliptic_sequence(g)
    assert elliptic_sequence(g) is first
    assert len(calls) == 1
    assert first == elliptic_sequence(template)


def test_refused_sequences_are_refused_on_every_call(monkeypatch):
    calls = _count_verifications(monkeypatch)
    not_elliptic = single(-2)
    not_gorenstein = DualGraph([Vertex("C", -2, 1), Vertex("L", -3, 0)], [("C", "L", 1)])
    for g, message in ((not_elliptic, "not elliptic"), (not_gorenstein, "numerically Gorenstein")):
        errors = []
        for _ in range(2):
            with pytest.raises(InputError, match=message) as caught:
                elliptic_sequence(g)
            errors.append(str(caught.value))
        assert errors[0] == errors[1]
        assert "sequence" not in g._cache
    assert calls == []


def test_a_failed_verification_is_raised_on_every_call(monkeypatch):
    calls = []

    def refuse(seq, emin):
        calls.append(seq)
        raise InternalCheckError("elliptic-sequence-orthogonality", "Z_0 . Z_1 != 0")

    monkeypatch.setattr(elliptic_module, "_verify_sequence", refuse)
    g = DualGraph(fig2312(2).vertices, fig2312(2).edges)
    for _ in range(2):
        with pytest.raises(InternalCheckError, match="orthogonality"):
            elliptic_sequence(g)
    assert len(calls) == 2 and "sequence" not in g._cache


def test_verify_paper_verifies_each_sequence_once(monkeypatch, capsys, cold_caches):
    # 20 distinct graphs; the sequence used to be rebuilt on 153 calls
    calls = _count_verifications(monkeypatch)
    assert cli.main(["verify-paper", "--format", "json"]) == 0
    capsys.readouterr()
    assert len(calls) == len({id(g) for g in calls}) == 20


# repr(chi_nonnegative_check(g)) on three sampled sweeps, recorded when the
# sweep multiplied each draw by the dense matrix: the draws of Random(0xE11),
# the count and the witness must not change with how the product is taken
SAMPLED_SWEEPS = [
    (fig2312, 6, "ChiSweep(exhaustive=False, checked=2000, min_chi=1, "
                 "witness=(0, 0, 0, 0, 0, 0, 0, 0, 1, 2, 2, 2, 1))"),
    (brell3, 6, "ChiSweep(exhaustive=False, checked=2000, min_chi=2, "
                "witness=(2, 0, 0, 1, 2, 2, 2, 1, 2, 2, 1, 2, 2, 0, 1, 0, 1, 1, 1))"),
    (fig2312, 30, "ChiSweep(exhaustive=False, checked=2000, min_chi=21, "
                  "witness=(1, 0, 1, 1, 0, 1, 0, 0, 1, 2, 1, 2, 1, 2, 1, 1, 0, 0, 1, 2, 1, "
                  "0, 1, 0, 0, 1, 2, 2, 2, 1, 0, 1, 1, 1, 1, 0, 2, 2, 2, 1, 2, 2, 2, 1, 1, "
                  "1, 1, 0, 0, 0, 1, 1, 2, 2, 0, 0, 1, 0, 0, 1, 1))"),
]


@pytest.mark.parametrize("family, param, expected", SAMPLED_SWEEPS,
                         ids=["fig2312(6)", "brell3(6)", "fig2312(30)"])
def test_sampled_sweeps_are_pinned(family, param, expected):
    # a fresh copy, so the sweep runs here and is not read from the graph
    g = DualGraph(family(param).vertices, family(param).edges)
    assert repr(chi_nonnegative_check(g)) == expected


# the other three sampled sweeps of verify-paper, recorded while the sweep
# drew each coordinate with Random(0xE11).randint
VERIFY_PAPER_SAMPLED_SWEEPS = [
    (fig244, 6, "ChiSweep(exhaustive=False, checked=2000, min_chi=1, "
                "witness=(0, 2, 2, 2, 2, 2, 2, 2, 1, 1, 1, 1, 0))"),
    (brell3, 4, "ChiSweep(exhaustive=False, checked=2000, min_chi=0, "
                "witness=(2, 1, 1, 1, 1, 1, 2, 2, 2, 0, 0, 1, 2))"),
    (brell3, 5, "ChiSweep(exhaustive=False, checked=2000, min_chi=1, "
                "witness=(2, 1, 1, 1, 2, 2, 1, 2, 1, 2, 2, 1, 2, 2, 2, 2))"),
]


@pytest.mark.parametrize("family, param, expected", VERIFY_PAPER_SAMPLED_SWEEPS,
                         ids=["fig244(6)", "brell3(4)", "brell3(5)"])
def test_verify_paper_sampled_sweeps_are_pinned(family, param, expected):
    g = DualGraph(family(param).vertices, family(param).edges)
    assert repr(chi_nonnegative_check(g)) == expected


def _edge_bounds():
    # b + 1 a power of two, one below one, and one above one
    return st.integers(2, 40).flatmap(
        lambda j: st.sampled_from((2 ** j - 2, 2 ** j - 1, 2 ** j)))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.integers(1, 2 ** 40), _edge_bounds(), st.just(1)),
                min_size=1, max_size=12),
       st.integers(1, 30))
def test_sample_draws_are_randints_stream(bounds, count):
    by_randint, by_draws = random.Random(0xE11), random.Random(0xE11)
    expected = [tuple(by_randint.randint(0, b) for b in bounds) for _ in range(count)]
    assert list(elliptic_module._sample_draws(by_draws, bounds, count)) == expected
    # the same words were read, so both streams go on alike
    assert by_draws.getstate() == by_randint.getstate()


def test_fundamental_cycle_is_kept_on_the_graph(monkeypatch):
    loops = []
    laufer = cycles_module._laufer_loop
    monkeypatch.setattr(cycles_module, "_laufer_loop",
                        lambda g, idxs, rng: loops.append((len(idxs), rng)) or laufer(g, idxs, rng))
    template = fig2312(4)
    g = DualGraph(template.vertices, template.edges)
    ze = fundamental_cycle(g)
    assert fundamental_cycle(g) is ze and fundamental_cycle(g, g.ids) is ze
    assert loops == [(len(g), None)]
    # an rng or a smaller support runs the loop every time
    for _ in range(2):
        assert fundamental_cycle(g, rng=random.Random(5)) == ze
        fundamental_cycle(g, g.ids[1:])
    assert len(loops) == 5
    assert ze == fundamental_cycle(template)


def test_verify_paper_runs_one_whole_graph_laufer_loop_per_graph(monkeypatch, capsys,
                                                                cold_caches):
    # 93 whole-graph loops without rng on these 20 graphs before Z_E was kept
    whole, randomized = [], []
    laufer = cycles_module._laufer_loop

    def spy(g, idxs, rng):
        if rng is not None:
            randomized.append(g)
        elif len(idxs) == len(g):
            whole.append(g)
        return laufer(g, idxs, rng)

    monkeypatch.setattr(cycles_module, "_laufer_loop", spy)
    assert cli.main(["verify-paper", "--format", "json"]) == 0
    capsys.readouterr()
    assert len(whole) == len({id(g) for g in whole}) == 20
    assert len(randomized) == 1100  # the random-order Laufer checks still run


def test_verify_paper_classifies_each_pair_once(monkeypatch, cold_caches):
    # 61 classifications before the runs were kept: three checks each ran
    # the 19 (graph, p_g) pairs and the Artinian oracle four more
    calls = []
    classify = verify.classify_gorenstein_elliptic_ideals
    monkeypatch.setattr(verify, "classify_gorenstein_elliptic_ideals",
                        lambda g, p_g: calls.append((g, p_g)) or classify(g, p_g))
    assert all(result.passed for result in verify.run_all())
    assert len(calls) == len(set(calls)) == 19
