"""Acceptance suite: one test per criterion, exact-equality tolerance.

Each test delegates to the corresponding named check in singlab.verify
(the same code the ``verify-paper`` command runs) and prints a pass line
with the assertion count; any mismatch raises with the failing label.
"""

from __future__ import annotations

import pytest

from singlab import classify, verify
from singlab.errors import InternalCheckError
from singlab.graph import Cycle

# assertions each check counts, pinned by name so that a count that moves
# names its check instead of only changing verify-paper's golden digest
COUNTS = {
    "brieskorn-invariants": 32,
    "weighted-homogeneous-genus": 8,
    "elliptic-sequences": 1963,
    "ideal-classification": 86,
    "gorenstein-cone-numerics": 240,
    "hilbert-data-consistency": 440,
    "artinian-colength-oracle": 50,
    "enumeration-properties": 1155,
}


def _run(name: str) -> None:
    fn = dict(verify.CHECKS)[name]
    count = fn()
    print(f"ACCEPTANCE {name}: PASS ({count} assertions)")


def test_criterion_1_brieskorn_invariants():
    _run("brieskorn-invariants")


def test_criterion_2_weighted_homogeneous_genus():
    _run("weighted-homogeneous-genus")


def test_criterion_3_elliptic_sequences():
    _run("elliptic-sequences")


def test_criterion_4_ideal_classification():
    _run("ideal-classification")


def test_criterion_5_gorenstein_cone_numerics():
    _run("gorenstein-cone-numerics")


def test_criterion_6_hilbert_data_consistency():
    _run("hilbert-data-consistency")


def test_hilbert_check_multiplies_z_apart_from_its_held_image(monkeypatch):
    # e0bar reads the image Z carries, and "e0bar = -Z^2" multiplies Z
    # afresh: with classify's own identities silenced, a held image one
    # too small in every entry is caught by that check alone
    (g, p_g), rep = next((k, r) for k, r in verify._classification_runs().items() if r.ideals)
    ideal = rep.ideals[0]
    bad = Cycle._of(g, ideal.cycle.coeffs, tuple(x - 1 for x in ideal.cycle.image))
    rep = rep._replace(ideals=(ideal._replace(cycle=bad),))
    monkeypatch.setattr(verify, "_classification_runs", lambda: {(g, p_g): rep})
    monkeypatch.setattr(classify, "_hilbert_identities", lambda hd, p_g: iter(()))
    with pytest.raises(InternalCheckError, match=r"e0bar = -Z\^2"):
        verify.check_hilbert_data()


def test_criterion_7_artinian_colength_oracle():
    _run("artinian-colength-oracle")


def test_criterion_8_enumeration_properties():
    _run("enumeration-properties")


def test_every_check_is_pinned():
    assert list(COUNTS) == [name for name, _ in verify.CHECKS]


@pytest.mark.parametrize("name", list(COUNTS))
def test_check_counts_are_pinned(name):
    assert dict(verify.CHECKS)[name]() == COUNTS[name]


def test_full_table_passes():
    results = verify.run_all()
    assert [r.name for r in results] == [name for name, _ in verify.CHECKS]
    failures = [r for r in results if not r.passed]
    assert not failures, failures
