"""What a graph keeps: the ``per_graph`` memo of ``singlab.graph``.

Six invariants are kept on the graph object that computed them, each
under its own key; a returned value is kept (a False verdict too), a
raised error is not, and an equal graph built anew computes its own.
Only graph.py touches the ``_cache`` dict, which an ``ast`` scan of the
package holds.
"""

from __future__ import annotations

import ast
import random
import re
from pathlib import Path

import pytest

from singlab import (
    DualGraph,
    InputError,
    Vertex,
    canonical_cycle,
    chi_nonnegative_check,
    elliptic_sequence,
    fundamental_cycle,
    is_elliptic,
    minimally_elliptic_cycle,
)
from singlab import cycles as cycles_module
from singlab.corpus import fig2312
from singlab.graph import parse_graph, serialize_graph

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "singlab"

INVARIANTS = (
    ("fundamental", fundamental_cycle),
    ("canonical", canonical_cycle),
    ("chi_sweep", chi_nonnegative_check),
    ("elliptic", is_elliptic),
    ("emin", minimally_elliptic_cycle),
    ("sequence", elliptic_sequence),
)


def fresh(g: DualGraph) -> DualGraph:
    """An equal graph parsed anew, with nothing kept on it."""
    copy = parse_graph(serialize_graph(g))
    assert copy == g and copy is not g and not copy._cache
    return copy


def count_laufer_loops(monkeypatch) -> list:
    loops = []
    laufer = cycles_module._laufer_loop
    monkeypatch.setattr(cycles_module, "_laufer_loop",
                        lambda g, idxs, rng: loops.append(rng) or laufer(g, idxs, rng))
    return loops


def keep_only(g: DualGraph, key: str) -> None:
    """Drop every other kept value, so a later call can only answer from
    ``key`` or by computing again."""
    for other in set(g._cache) - {key}:
        del g._cache[other]


@pytest.mark.parametrize("key, invariant", INVARIANTS, ids=[key for key, _ in INVARIANTS])
def test_each_invariant_is_kept_on_its_graph_object(key, invariant, monkeypatch):
    assert not hasattr(invariant, "cache_clear")
    # an elliptic, numerically Gorenstein graph: every invariant has a value
    g = fresh(fig2312(3))
    first = invariant(g)
    assert g._cache[key] is first
    keep_only(g, key)
    loops = count_laufer_loops(monkeypatch)
    assert invariant(g) is first
    assert loops == []
    monkeypatch.undo()

    # an equal graph built anew computes its own value
    twin = fresh(g)
    second = invariant(twin)
    assert twin._cache[key] is second and second == first
    if not isinstance(first, bool):
        assert second is not first

    # a non-elliptic graph: a value (False included) is kept and answers
    # alone; a refusal keeps nothing and is raised again on every call
    plain = DualGraph([Vertex("E", -2)], [])
    try:
        value = invariant(plain)
    except InputError as exc:
        assert key in ("chi_sweep", "emin", "sequence")
        assert key not in plain._cache
        with pytest.raises(InputError, match=re.escape(str(exc))):
            invariant(plain)
        assert key not in plain._cache
        return
    assert plain._cache[key] is value
    assert value is not False or key == "elliptic"
    keep_only(plain, key)
    loops = count_laufer_loops(monkeypatch)
    assert invariant(plain) is value
    assert loops == []


def test_fundamental_cycle_with_rng_or_sub_support_keeps_nothing():
    g = fresh(fig2312(4))
    ze = fundamental_cycle(g, rng=random.Random(1))
    fundamental_cycle(g, g.ids[1:])
    fundamental_cycle(g, g.ids, rng=random.Random(2))
    assert not g._cache
    assert fundamental_cycle(g) == ze
    assert set(g._cache) == {"fundamental"}


def _modules_naming_cache() -> dict:
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and node.attr == "_cache") or (
                    isinstance(node, ast.Constant) and node.value == "_cache"):
                found.setdefault(path.name, []).append(node.lineno)
    return found


def test_only_graph_module_touches_the_cache():
    found = _modules_naming_cache()
    assert "graph.py" in found
    assert set(found) == {"graph.py"}, found
