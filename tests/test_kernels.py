"""The lattice-box scan kernels of ``_engine`` against plain oracle scans."""

from __future__ import annotations

import random

import pytest

from oracles import antinef_in_box as oracle_antinef
from oracles import first_min_two_chi
from singlab import DualGraph, InputError, Vertex, _engine
from singlab.corpus import brell3, fig244, fig2312
from singlab.cycles import adjunction_vector, fundamental_cycle

CASES = []
for g in [fig2312(1), fig2312(2), fig244(1), fig244(2), brell3(1), brell3(2)]:
    ze = fundamental_cycle(g)
    CASES.append((g.matrix, adjunction_vector(g), tuple(2 * c for c in ze.coeffs)))
CASES.append(((( -2, 1), (1, -2)), (0, 0), (4, 3)))


@pytest.mark.parametrize("case", range(len(CASES)))
def test_pure_kernels_match_oracles(case):
    # the kernels scan index 0 fastest, the oracle the last index: compare sorted
    matrix, adj, bounds = CASES[case]
    assert sorted(_engine.antinef_in_box(matrix, bounds)) == sorted(
        oracle_antinef(matrix, bounds)
    )
    assert _engine.min_twochi_in_box(matrix, adj, bounds) == first_min_two_chi(
        matrix, adj, bounds
    )


def _random_graph(rng, shape, n):
    """A negative definite star, cusp (n >= 3) or tree on n vertices with
    random genera."""
    if shape == "star":
        edges = [(0, i) if i <= 3 else (i - 3, i) for i in range(1, n)]
    elif shape == "cusp":
        edges = [(i, (i + 1) % n) for i in range(n)]
    else:
        edges = [(rng.randrange(i), i) for i in range(1, n)]
    degree = [0] * n
    for i, j in edges:
        degree[i] += 1
        degree[j] += 1
    while True:
        vertices = [
            Vertex(f"E{i}", -(degree[i] + rng.randint(0, 2)) or -1, rng.choice((0, 0, 0, 1, 2)))
            for i in range(n)
        ]
        try:
            return DualGraph(vertices, [(f"E{i}", f"E{j}", 1) for i, j in edges])
        except InputError:  # not negative definite: draw the weights again
            continue


def _random_cases():
    rng = random.Random(20231)
    out = []
    for shape in ("star", "cusp", "tree"):
        for _ in range(25):
            g = _random_graph(rng, shape, rng.randint(3 if shape == "cusp" else 1, 6))
            bounds = [rng.randint(0, 3) for _ in range(len(g))]
            if rng.random() < 0.3:
                bounds[0] = 0
            out.append((g.matrix, adjunction_vector(g), tuple(bounds)))
    return out


EDGE_CASES = [
    ((), (), ()),  # n = 0
    (((-2,),), (0,), (5,)),  # n = 1
    (((-2,),), (0,), (0,)),  # only D = 0
    (((-2, 1, 0), (1, -2, 1), (0, 1, -3)), (0, 0, 1), (0, 0, 0)),
    (((-2, 1, 0), (1, -2, 1), (0, 1, -3)), (0, 0, 1), (0, 2, 1)),  # bounds[0] == 0
    (((-2, 1), (1, -3)), (0, 1), (3, 0)),  # only the first row
    (((-2,),), (6,), (4,)),  # 2chi(1) == 2chi(2): the smaller x wins
    (((-2, 0), (0, -2)), (6, 0), (3, 1)),  # tie inside the first row
    (((-2, 0), (0, -2)), (2, 6), (1, 2)),  # equal minima on two rows and within each
]


@pytest.mark.parametrize("matrix, adj, bounds", _random_cases() + EDGE_CASES)
def test_row_kernel_is_the_first_odometer_minimum(matrix, adj, bounds):
    assert _engine.min_twochi_in_box(matrix, adj, bounds) == first_min_two_chi(
        matrix, adj, bounds
    )


def test_row_kernel_needs_a_negative_first_diagonal_entry():
    with pytest.raises(InputError, match="negative first diagonal"):
        _engine.min_twochi_in_box(((0,),), (0,), (2,))


def test_engine_exact_on_wide_entries():
    # a 2^40-sized entry: the single scan path answers exactly
    matrix = ((-(2**40),),)
    assert _engine.antinef_in_box(matrix, (1,)) == [(0,), (1,)]
    best, witness = _engine.min_twochi_in_box(matrix, (0,), (1,))
    assert best == 2**40 and witness == (1,)


def test_engine_budget_guard():
    import singlab

    with pytest.raises(singlab.EnumerationLimitError):
        _engine.check_budget((9,) * 12)
    assert _engine.check_budget((1, 1)) == 4
    # a negative bound is never reached by the odometer: refuse it up front,
    # also where prod(b + 1) would come out non-positive
    for bounds in ((-1,), (-2,), (3, -1), (1, -3, -3)):
        with pytest.raises(InputError, match="non-negative bounds"):
            _engine.check_budget(bounds)
