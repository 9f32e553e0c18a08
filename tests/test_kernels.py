"""The lattice-box kernels of ``_engine`` against plain oracle scans and
against the kernels they replace: the anti-nef scan against the
candidate-by-candidate scan, and the minimum cut of the chi >= 0 boxes
against the row-by-row sweep, the pruned walk of a bordered elimination
and a brute-force join of every minimiser.  The walk, kept as an oracle
on the bordered elimination ``oracles.bordered_factor`` builds, still
runs against the row sweep; the one factorization of a graph's form
(definiteness and K) against Sylvester's criterion and the old solve;
and the sparse rows of the form against the dense matrix and the dense
Laufer loop."""

from __future__ import annotations

import random

import pytest

from fractions import Fraction

from oracles import antinef_in_box as oracle_antinef
from oracles import mat_vec as dense_mat_vec
from oracles import (
    bordered_factor,
    dense_fundamental_cycle,
    first_min_two_chi,
    fraction_det,
    is_antinef,
    min_two_chi_join,
    min_twochi_in_box,
    odometer_antinef_in_box,
    row_min_twochi_in_box,
    solve,
    sparse_rows,
    two_chi,
)
from singlab import (
    Cycle,
    DualGraph,
    InputError,
    QCycle,
    Vertex,
    _engine,
    canonical_cycle,
    chi,
    chi_nonnegative_check,
    elliptic_sequence,
    is_anti_nef,
    pairing,
)
from singlab import elliptic as elliptic_module
from singlab._linalg import factor_augmented
from singlab.corpus import brell3, fig244, fig2312
from singlab.cycles import adjunction_vector, fundamental_cycle
from singlab.graph import connected_components, mat_vec


def walk(matrix, adj, bounds):
    """The chi walk on the bordered factorization of a raw negative
    definite form."""
    return min_twochi_in_box(bordered_factor(matrix, adj), bounds)


CASES = []
for g in [fig2312(1), fig2312(2), fig244(1), fig244(2), brell3(1), brell3(2)]:
    ze = fundamental_cycle(g)
    CASES.append((g.matrix, adjunction_vector(g), tuple(2 * c for c in ze.coeffs)))
CASES.append(((( -2, 1), (1, -2)), (0, 0), (4, 3)))


@pytest.mark.parametrize("case", range(len(CASES)))
def test_pure_kernels_match_oracles(case):
    # the kernels scan index 0 fastest, the oracle the last index: compare sorted
    matrix, adj, bounds = CASES[case]
    assert sorted(_engine.antinef_in_box(sparse_rows(matrix), bounds)) == sorted(
        oracle_antinef(matrix, bounds)
    )
    assert walk(matrix, adj, bounds) == first_min_two_chi(matrix, adj, bounds)


def _draws(rng, shape, n, double=0.0):
    """Endless draws of (vertices, edges) on one star, cusp (n >= 3) or tree
    on n vertices, with random weights and genera; each edge has
    multiplicity 2 with probability ``double``.  A draw's form need not be
    negative definite."""
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
        mults = [2 if double and rng.random() < double else 1 for _ in edges]
        yield vertices, [(f"E{i}", f"E{j}", m) for (i, j), m in zip(edges, mults)]


def _random_graph(rng, shape, n, double=0.0):
    """The first negative definite draw of ``_draws``."""
    for vertices, edges in _draws(rng, shape, n, double):
        try:
            return DualGraph(vertices, edges)
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
    assert walk(matrix, adj, bounds) == first_min_two_chi(matrix, adj, bounds)


# The kernel walks the rows of a factorization that exists only for a
# negative definite form: a form that is not is refused once, when it is
# factored, and a graph with it is never built.


def test_row_kernel_needs_a_negative_first_diagonal_entry():
    assert factor_augmented(((0,),), (0,)) is None
    with pytest.raises(InputError, match="not negative definite"):
        DualGraph([Vertex("A", 0)], [])


def test_sweep_kernel_refuses_a_form_that_is_not_negative_definite():
    # the first pivot is fine, the second leading minor is 1 - 4 < 0
    assert factor_augmented(((-1, 2), (2, -1)), (0, 0)) is None
    with pytest.raises(InputError, match="not negative definite"):
        DualGraph([Vertex("A", -1), Vertex("B", -1)], [("A", "B", 2)])


def _cusp(k):
    return DualGraph([Vertex(f"C{i}", -3) for i in range(k)],
                     [(f"C{i}", f"C{(i + 1) % k}", 1) for i in range(k)])


RUNGS = (
    [(f"fig2312({p})", fig2312(p)) for p in range(6)]
    + [(f"fig244({m})", fig244(m)) for m in range(6)]
    + [(f"brell3({m})", brell3(m)) for m in range(4)]
    + [(f"cusp({k})", _cusp(k)) for k in range(3, 12)]
)


@pytest.mark.parametrize("name, g", RUNGS, ids=[name for name, _ in RUNGS])
def test_kernels_equal_the_old_kernels_on_permuted_corpus_rungs(name, g):
    """The pruned kernels against the row-by-row sweep and the
    candidate-by-candidate anti-nef scan they replace: the same value and
    witness, the same anti-nef list in the same order.  The sweep box is
    2 Z_E as in ``chi_nonnegative_check``; the anti-nef boxes are 2 Z_E
    and C_m (as in verify-paper) where the old scan takes well under a
    second, Z_E otherwise.  The minimum cut of 2 Z_E finds the same least
    value, 0, at a largest minimiser above the sweep's witness and Z_E.
    Each rung runs reversed and in one seeded vertex order."""
    # reversed, fig2312 puts its (-1)-curve first and every leading minor of
    # -M is 1, so an off-by-one in the scaled bounds reaches the row values
    backwards = list(reversed(range(len(g))))
    for order in (backwards, random.Random(name).sample(backwards, len(g))):
        h = DualGraph([g.vertices[i] for i in order], g.edges)
        ze = fundamental_cycle(h).coeffs
        adj = adjunction_vector(h)
        twice = tuple(2 * c for c in ze)
        swept = row_min_twochi_in_box(h.matrix, adj, twice)
        assert walk(h.matrix, adj, twice) == swept
        value, largest = _engine.min_twochi_cut(h.rows, adj, twice)
        assert value == swept[0] == two_chi(h.matrix, adj, largest) == 0
        assert all(a <= c >= z for a, c, z in zip(swept[1], largest, ze))
        seq = elliptic_sequence(h)
        cm = seq.partial_sum(seq.m).coeffs
        boxes = [b for b in (twice, cm) if _engine.box_size(b) <= 60_000] or [ze]
        for box in boxes:
            assert _engine.antinef_in_box(h.rows, box) == odometer_antinef_in_box(h.matrix, box)


@pytest.mark.parametrize("shape", ("star", "cusp", "tree"))
def test_kernels_equal_the_old_kernels_on_random_graphs(shape):
    rng = random.Random(f"kernels-{shape}")
    for _ in range(40):
        g = _random_graph(rng, shape, rng.randint(3 if shape == "cusp" else 1, 7), double=0.3)
        adj = adjunction_vector(g)
        bounds = tuple(rng.randint(0, 4) for _ in range(len(g)))
        assert walk(g.matrix, adj, bounds) == row_min_twochi_in_box(g.matrix, adj, bounds)
        assert _engine.antinef_in_box(g.rows, bounds) == odometer_antinef_in_box(g.matrix, bounds)


@pytest.mark.parametrize("shape", ("star", "cusp", "tree"))
def test_cut_equals_the_sweeps_and_the_join_of_every_minimiser(shape):
    """The minimum cut against the first odometer minimum (plain scan, row
    sweep and the pruned walk, which agree) and a brute-force join of
    every minimiser, on seeded graphs with genera 0 to 2 and double edges
    in arbitrary boxes: its value is min(0, their minimum over D != 0),
    and its minimiser the join of all of them, D = 0 included."""
    rng = random.Random(f"cut-{shape}")
    negative = unique_zero = 0
    for _ in range(60):
        g = _random_graph(rng, shape, rng.randint(3 if shape == "cusp" else 1, 5), double=0.3)
        matrix, adj = g.matrix, adjunction_vector(g)
        bounds = tuple(rng.randint(0, 3) for _ in range(len(g)))
        first = first_min_two_chi(matrix, adj, bounds)
        assert row_min_twochi_in_box(matrix, adj, bounds) == first
        assert walk(matrix, adj, bounds) == first
        cut = _engine.min_twochi_cut(g.rows, adj, bounds)
        assert cut == min_two_chi_join(matrix, adj, bounds)
        assert cut[0] == min(0, 0 if first[0] is None else first[0])
        negative += cut[0] < 0
        unique_zero += not any(cut[1])
    assert negative >= 10 and unique_zero >= 10, (negative, unique_zero)


def test_cut_equals_the_join_on_small_forms():
    # arbitrary linear terms and diagonals on forms that need not be
    # definite: the cut asks only for M negative on the diagonal
    rng = random.Random("cut-small-forms")
    for _ in range(1500):
        n = rng.randint(1, 5)
        matrix = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                matrix[i][j] = matrix[j][i] = rng.choice((0, 0, 1, 1, 2))
            matrix[i][i] = rng.randint(-5, -1)
        adj = tuple(rng.randint(-8, 8) for _ in range(n))
        bounds = tuple(rng.randint(0, 3) for _ in range(n))
        assert _engine.min_twochi_cut(sparse_rows(matrix), adj, bounds) == min_two_chi_join(
            matrix, adj, bounds), (matrix, adj, bounds)


@pytest.mark.parametrize("shape", ("star", "cusp", "tree"))
def test_chi_sweep_is_the_least_value_over_nonzero_cycles(shape):
    """``chi_nonnegative_check`` on seeded graphs with 2 Z_E boxes of at
    most 3^5 candidates.  On an elliptic graph it is the exact least 2chi
    over D != 0 in the box, 0, at the largest minimiser, the join of
    every D attaining it.  A graph with chi(Z_E) != 0, rational or with a
    negative chi, lies outside Wagreich's premise and is refused as
    input, never with an internal error."""
    rng = random.Random(f"sweep-{shape}")
    signs = set()
    for _ in range(40):
        g = _random_graph(rng, shape, rng.randint(3 if shape == "cusp" else 1, 5), 0.3)
        matrix, adj = g.matrix, adjunction_vector(g)
        twice = tuple(2 * c for c in fundamental_cycle(g).coeffs)
        if _engine.box_size(twice) > 3 ** 5:
            continue
        value = chi(g, fundamental_cycle(g))
        signs.add((value > 0) - (value < 0))
        if value != 0:
            with pytest.raises(InputError, match="^graph is not elliptic$"):
                chi_nonnegative_check(g)
            continue
        sweep = chi_nonnegative_check(g)
        assert sweep.exhaustive and sweep.checked == _engine.box_size(twice) - 1
        assert 2 * sweep.min_chi == first_min_two_chi(matrix, adj, twice)[0] == 0
        assert (0, sweep.witness) == min_two_chi_join(matrix, adj, twice)
        assert two_chi(matrix, adj, sweep.witness) == 0
    assert signs == {-1, 0} | ({1} if shape != "cusp" else set())  # no cusp is rational


@pytest.mark.parametrize("edges", [((0, 1), (0, 2), (0, 3)),
                                   ((0, 1), (0, 2), (0, 3), (3, 4)),
                                   ((0, 1), (1, 2), (2, 3), (3, 4), (2, 5)),
                                   tuple((i, i + 1) for i in range(11))],
                         ids=["D4", "D5", "E6", "A12"])
def test_chi_sweep_on_rational_double_points(edges):
    # rational, chi(Z_E) = 1: outside the sweep's premise, so refused as
    # input; A12's box of 3^12 candidates lies above the exhaustive cap
    n = 1 + max(map(max, edges))
    g = DualGraph([Vertex(f"A{i}", -2) for i in range(n)], [(f"A{i}", f"A{j}", 1) for i, j in edges])
    assert chi(g, fundamental_cycle(g)) == 1
    twice = tuple(2 * c for c in fundamental_cycle(g).coeffs)
    assert (_engine.box_size(twice) > elliptic_module._AUTO_SWEEP_CAP) == (n == 12)
    with pytest.raises(InputError, match="^graph is not elliptic$"):
        chi_nonnegative_check(g)


def test_chi_sweep_refuses_a_negative_chi_as_input():
    # a genus-2 (-1)-curve: chi(Z_E) = -1, once an internal error
    g = DualGraph([Vertex("A", -1, 2)], [])
    assert chi(g, fundamental_cycle(g)) == -1
    with pytest.raises(InputError, match="^graph is not elliptic$"):
        chi_nonnegative_check(g)


def test_engine_exact_on_wide_entries():
    # a 2^40-sized entry: the single scan path answers exactly
    matrix = ((-(2**40),),)
    assert _engine.antinef_in_box(sparse_rows(matrix), (1,)) == [(0,), (1,)]
    best, witness = walk(matrix, (0,), (1,))
    assert best == 2**40 and witness == (1,)
    assert _engine.min_twochi_cut(sparse_rows(matrix), (0,), (1,)) == (0, (0,))
    assert _engine.min_twochi_cut(sparse_rows(matrix), (2**41,), (3,)) == (-(2**40), (1,))


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


def test_kernels_equal_the_old_kernels_on_small_forms():
    # many tiny boxes with arbitrary linear terms and (-1) diagonal
    # entries: minima on the edge of a pruning interval are common here
    rng = random.Random("small-forms")
    tried = 0
    for _ in range(3000):
        n = rng.randint(1, 4)
        matrix = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                matrix[i][j] = matrix[j][i] = rng.choice((0, 1, 1, 2))
        for i in range(n):
            matrix[i][i] = -(sum(matrix[i]) + rng.randint(0, 2)) or -1
        matrix = tuple(map(tuple, matrix))
        adj = tuple(rng.randint(-8, 8) for _ in range(n))
        bounds = tuple(rng.randint(0, 4) for _ in range(n))
        assert _engine.antinef_in_box(sparse_rows(matrix), bounds) == odometer_antinef_in_box(
            matrix, bounds)
        rows = bordered_factor(matrix, adj)
        # refused exactly when some leading minor has the wrong sign, by the
        # graph's factorization and the walk's alike
        assert (rows is None) == (factor_augmented(matrix, adj) is None) == any(
            (-1) ** k * fraction_det([row[:k] for row in matrix[:k]]) <= 0 for k in range(1, n + 1))
        if rows is None:
            continue
        tried += 1
        pruned = min_twochi_in_box(rows, bounds)
        assert pruned == row_min_twochi_in_box(matrix, adj, bounds), (matrix, adj, bounds)
    assert tried > 2000


def _matrix(vertices, edges):
    index = {v.id: i for i, v in enumerate(vertices)}
    matrix = [[0] * len(vertices) for _ in vertices]
    for i, v in enumerate(vertices):
        matrix[i][i] = v.self_int
    for a, b, m in edges:
        matrix[index[a]][index[b]] += m
        matrix[index[b]][index[a]] += m
    return matrix


@pytest.mark.parametrize("shape", ("star", "cusp", "tree"))
def test_one_factorization_on_random_graphs(shape):
    """The graph's one elimination against two oracles on seeded draws,
    multiplicity-2 edges and genera included: the constructor accepts
    exactly the forms Sylvester's criterion (by Fraction determinants)
    calls negative definite, and K equals the old ``solve``; on the same
    draws the chi walk equals the row sweep, value and witness."""
    rng = random.Random(f"factor-{shape}")
    verdicts = set()
    for _ in range(60):
        n = rng.randint(3 if shape == "cusp" else 1, 7)
        vertices, edges = next(_draws(rng, shape, n, 0.3))
        matrix = _matrix(vertices, edges)
        sylvester = all((-1) ** k * fraction_det([row[:k] for row in matrix[:k]]) > 0
                        for k in range(1, n + 1))
        verdicts.add(sylvester)
        if not sylvester:
            with pytest.raises(InputError, match="not negative definite"):
                DualGraph(vertices, edges)
            continue
        g = DualGraph(vertices, edges)
        adj = adjunction_vector(g)
        assert canonical_cycle(g).coeffs == tuple(solve(matrix, adj))
        bounds = tuple(rng.randint(0, 3) for _ in range(n))
        assert walk(matrix, adj, bounds) == row_min_twochi_in_box(matrix, adj, bounds)
    assert verdicts == {True, False}


@pytest.mark.parametrize("shape", ("star", "cusp", "tree"))
def test_a_built_graph_keeps_no_dense_copy(shape):
    """The form is stored once, as ``rows``: ``matrix`` is a new dense
    table filled from them on each read, so writing to one read leaves
    the graph and the next read as they were."""
    assert not {"_matrix", "neighbours"} & set(DualGraph.__slots__)
    rng = random.Random(f"dense-view-{shape}")
    for _ in range(20):
        g = _random_graph(rng, shape, rng.randint(3 if shape == "cusp" else 1, 9), 0.3)
        first, second = g.matrix, g.matrix
        assert first == second == _matrix(g.vertices, g.edges)
        assert first is not second
        first[0][0] += 1
        assert g.matrix == second


@pytest.mark.parametrize("shape", ("star", "cusp", "tree"))
def test_sparse_rows_equal_the_dense_form_on_random_graphs(shape):
    """Every product along ``DualGraph.rows`` against the dense matrix on
    seeded draws, multiplicity-2 edges and genera included: the rows
    themselves, ``mat_vec``, ``pairing`` on integral cycles (it refuses rational ones),
    ``is_anti_nef``, ``chi``, and ``fundamental_cycle`` (whole graph and a
    connected support, first violator and random picks) against the dense
    Laufer loop."""
    rng = random.Random(f"sparse-{shape}")
    for _ in range(40):
        n = rng.randint(3 if shape == "cusp" else 1, 9)
        g = _random_graph(rng, shape, n, 0.3)
        matrix = _matrix(g.vertices, g.edges)
        assert g.matrix == matrix
        for i, row in enumerate(g.rows):
            off = tuple(j for j in range(n) if j != i and matrix[i][j])
            assert row == ((i, matrix[i][i]),) + tuple((j, matrix[i][j]) for j in off)

        adj = adjunction_vector(g)
        ze = fundamental_cycle(g)
        vectors = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(6)]
        vectors += [list(ze.coeffs), [2 * c for c in ze.coeffs], [0] * n]
        for c in vectors:
            d = Cycle(g, c)
            image = dense_mat_vec(matrix, c)
            assert mat_vec(g, c) == image
            assert is_anti_nef(g, d) == is_antinef(matrix, c)
            assert 2 * chi(g, d) == two_chi(matrix, adj, c)
            other = [rng.randint(-3, 3) for _ in range(n)]
            assert pairing(g, Cycle(g, other), d) == sum(a * b for a, b in zip(other, image))
            q = QCycle(g, [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)])
            for pair in ((q, d), (d, q), (q, q)):
                with pytest.raises(InputError, match="integral cycles"):
                    pairing(g, *pair)

        picked = {i for i in range(n) if rng.random() < 0.6} or {0}
        part = [g.vertices[i].id for i in min(connected_components(g, picked), key=min)]
        for support in (None, part):
            expected = dense_fundamental_cycle(g, support)
            assert fundamental_cycle(g, support) == expected
            for seed in range(3):
                assert fundamental_cycle(g, support, random.Random(seed)) == expected
                assert dense_fundamental_cycle(g, support, random.Random(seed)) == expected
