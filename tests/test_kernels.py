"""Parity between the compiled and pure-Python scan kernels."""

from __future__ import annotations

import pytest

from oracles import antinef_in_box as oracle_antinef
from oracles import two_chi as oracle_two_chi
from singlab import _engine, _kernels_py
from singlab.corpus import brell3, fig244, fig2312
from singlab.cycles import adjunction_vector, fundamental_cycle

try:
    from singlab import _kernels as compiled
except ImportError:
    compiled = None

CASES = []
for g in [fig2312(1), fig2312(2), fig244(1), fig244(2), brell3(1), brell3(2)]:
    ze = fundamental_cycle(g)
    CASES.append((g.matrix, adjunction_vector(g), tuple(2 * c for c in ze.coeffs)))
CASES.append(((( -2, 1), (1, -2)), (0, 0), (4, 3)))


@pytest.mark.parametrize("case", range(len(CASES)))
def test_pure_kernels_match_oracles(case):
    # the kernels scan index 0 fastest, the oracle the last index: compare sorted
    matrix, adj, bounds = CASES[case]
    assert sorted(_kernels_py.antinef_in_box(matrix, bounds)) == sorted(
        oracle_antinef(matrix, bounds)
    )
    best, witness = _kernels_py.min_twochi_in_box(matrix, adj, bounds)
    # recompute the minimum against the plain oracle scan
    from itertools import product

    values = [
        oracle_two_chi(matrix, adj, list(d))
        for d in product(*(range(b + 1) for b in bounds))
        if any(d)
    ]
    assert best == min(values)
    assert oracle_two_chi(matrix, adj, list(witness)) == best


@pytest.mark.skipif(compiled is None, reason="compiled kernels not built")
@pytest.mark.parametrize("case", range(len(CASES)))
def test_compiled_kernels_match_pure(case):
    matrix, adj, bounds = CASES[case]
    assert compiled.antinef_in_box(matrix, bounds) == _kernels_py.antinef_in_box(
        matrix, bounds
    )
    assert compiled.min_twochi_in_box(matrix, adj, bounds) == _kernels_py.min_twochi_in_box(
        matrix, adj, bounds
    )


@pytest.mark.skipif(compiled is None, reason="compiled kernels not built")
def test_compiled_kernels_reject_wide_values():
    with pytest.raises(OverflowError):
        compiled.antinef_in_box(((-(2**40),),), (1,))
    with pytest.raises(OverflowError):
        compiled.min_twochi_in_box(((-2,),), (2**40,), (1,))
    with pytest.raises(OverflowError):
        compiled.antinef_in_box(((-2,),), (2**20,))


def test_engine_falls_back_outside_compiled_range():
    # a huge entry forces the pure path; the answer stays exact
    matrix = ((-(2**40),),)
    assert _engine.antinef_in_box(matrix, (1,)) == [(0,), (1,)]
    best, witness = _engine.min_twochi_in_box(matrix, (0,), (1,))
    assert best == 2**40 and witness == (1,)


def test_engine_budget_guard():
    import singlab

    with pytest.raises(singlab.EnumerationLimitError):
        _engine.check_budget((9,) * 12)
    assert _engine.check_budget((1, 1)) == 4
