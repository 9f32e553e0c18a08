"""Seeded inputs and fixed operation lists for the four benchmark workloads.

Every operation is one ``singlab`` command line with an optional document
on stdin.  The seed only relabels, permutes and fills in random details;
the shape of each list (families, vertex counts, staircase sizes) is
fixed, so the work of a pass is the same on every seed and run-to-run
spread measures the machine, not the inputs.  Graph documents are built
here from the documented family definitions, not by calling the program.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from checks import Lattice


@dataclass(frozen=True)
class Graph:
    """A generated resolution graph, in document order.

    ``names`` maps the family's own vertex names (``E0``, ``Em``, ...) to
    the relabelled ids the program sees, so closed forms can be checked.
    """

    ids: tuple
    selfs: tuple
    genera: tuple
    edges: tuple  # (i, j, mult) over document indices
    family: str
    param: int
    names: dict = field(default_factory=dict, compare=False)

    @property
    def n(self):
        return len(self.ids)

    def document(self):
        return json.dumps({
            "vertices": [{"id": v, "self": s, "genus": g}
                         for v, s, g in zip(self.ids, self.selfs, self.genera)],
            "edges": [{"ends": [self.ids[i], self.ids[j]], "mult": m}
                      for i, j, m in self.edges],
        })


@dataclass(frozen=True)
class Op:
    id: str
    argv: tuple
    stdin: str = ""
    expect: dict = field(default_factory=dict, compare=False)


# -- graph families --------------------------------------------------------


def _chain(names):
    return [(names[i], names[i + 1]) for i in range(len(names) - 1)]


def fig2312(n):
    names = [f"E{i}" for i in range(2 * n + 1)]
    verts = [(v, -2, 0) for v in names[:-1]] + [(names[-1], -1, 1)]
    return verts, _chain(names)


def fig244(m):
    names = [f"E{j}_1" for j in range(m)] + ["Em"] + [f"E{j}_2" for j in reversed(range(m))]
    return [(v, -2, 1 if v == "Em" else 0) for v in names], _chain(names)


def brell3(m):
    verts = [("E", -3, 1)]
    edges = []
    for s in (1, 2, 3):
        arm = [f"E{j}_{s}" for j in range(m)]
        verts += [(v, -2, 0) for v in arm]
        if m:
            edges.append(("E", arm[-1]))
            edges += _chain(arm)
    return verts, edges


def cusp(k, selfs=None, genera=None):
    """Cycle of k >= 3 curves; all (-3) and genus 0 unless given."""
    names = [f"C{i}" for i in range(k)]
    selfs = selfs or [-3] * k
    genera = genera or [0] * k
    return list(zip(names, selfs, genera)), _chain(names) + [(names[-1], names[0])]


FAMILIES = {"fig2312": fig2312, "fig244": fig244, "brell3": brell3, "cusp": cusp}


def relabel(rng, family, param, verts, edges):
    """Seeded relabelling and permutation of vertices, edges and edge ends."""
    order = list(range(len(verts)))
    rng.shuffle(order)
    labels = rng.sample(range(10 * len(verts) + 10), len(verts))
    names = {}
    ids, selfs, genera = [], [], []
    for pos, k in enumerate(order):
        name, s, g = verts[k]
        names[name] = f"v{labels[pos]}"
        ids.append(names[name])
        selfs.append(s)
        genera.append(g)
    index = {name: ids.index(names[name]) for name, _, _ in verts}
    out_edges = []
    for a, b in edges:
        i, j = index[a], index[b]
        if rng.random() < 0.5:
            i, j = j, i
        out_edges.append((i, j, 1))
    rng.shuffle(out_edges)
    return Graph(tuple(ids), tuple(selfs), tuple(genera), tuple(out_edges),
                 family, param, names)


def corpus_graph(rng, family, param):
    return relabel(rng, family, param, *FAMILIES[family](param))


def genus_options(family, param):
    """Geometric genera the corpus families are documented to carry."""
    if family == "fig2312":
        return tuple(sorted({param + 1, 2 * param + 1}))
    if family in ("fig244", "brell3"):
        return (param + 1,)
    return (1,)  # cusps are minimally elliptic


# -- random negative definite graphs -----------------------------------------


HALF = Fraction(1, 2)


def _tree_weights(rng, edges, genera, relaxed):
    """Self-intersections for a tree, negative definite by construction.

    Start from -(deg + r) with r in {0, 1, 2}, one r > 0: every -E_i^2 is
    at least the degree, strictly once, so the form is irreducibly
    diagonally dominant, the fundamental cycle is reduced and
    chi(Z_E) = 1 - (sum of genera).  ``relaxed`` also allows r = -1, which
    makes Z_E non-reduced; eliminating leaves first (pivot = E_v^2 minus
    the sum of 1/pivot over the children) then lowers E_v^2 wherever a
    pivot is above -1/2; all-negative pivots are Sylvester's test, and
    pivots kept at or below -1/2 keep the coefficients of Z_E moderate.
    """
    n = len(genera)
    nbrs = [[] for _ in range(n)]
    for a, b in edges:
        nbrs[a].append(b)
        nbrs[b].append(a)
    extra = [rng.choice((-1, 0, 0, 1, 2) if relaxed else (0, 0, 1, 2)) for _ in range(n)]
    extra[rng.randrange(n)] = rng.choice((1, 2))
    selfs = [min(-1, -(len(nb) + r)) for nb, r in zip(nbrs, extra)]
    order, parent = [0], {0: None}
    for v in order:
        for w in nbrs[v]:
            if w not in parent:
                parent[w] = v
                order.append(w)
    pivot = {}
    for v in reversed(order):
        p = Fraction(selfs[v]) - sum(1 / pivot[c] for c in nbrs[v] if parent.get(c) == v)
        if p > -HALF:
            drop = math.floor(p + HALF) + 1
            selfs[v] -= drop
            p -= drop
        pivot[v] = p
    return [(f"T{i}", s, g) for i, (s, g) in enumerate(zip(selfs, genera))]


def _genera(rng, n, elliptic):
    """One genus-1 vertex when elliptic, else arbitrary genera."""
    if elliptic:
        genera = [0] * n
        genera[rng.randrange(n)] = 1
        return genera
    return [rng.choice((0, 0, 0, 0, 1, 2, 3)) for _ in range(n)]


def _tree(rng, kind, n, edges, elliptic, min_steps=0):
    """Elliptic: diagonally dominant with one genus-1 curve.  Otherwise
    relaxed weights and arbitrary genera, redrawn until chi(Z_E) != 0 and
    the Laufer loop takes between ``min_steps`` and 2n steps
    (sum Z_E - n), so every seed gives that layer comparable work."""
    for _ in range(100):
        verts = _tree_weights(rng, edges, _genera(rng, n, elliptic), relaxed=not elliptic)
        graph = relabel(rng, kind, n, verts, [(f"T{a}", f"T{b}") for a, b in edges])
        lattice = Lattice(graph)
        ze = lattice.laufer(rng)
        steps_ok = elliptic or min_steps <= sum(ze) - n <= 2 * n
        if (lattice.chi(ze) == 0) == elliptic and steps_ok:
            return graph
    raise ValueError(f"no {kind} with chi(Z_E) {'=' if elliptic else '!='} 0 in 100 draws")


def random_tree(rng, n, elliptic):
    edges = [(rng.randrange(i), i) for i in range(1, n)]
    return _tree(rng, "tree", n, edges, elliptic, min_steps=n // 4)


def random_star(rng, n, elliptic):
    """Centre with 3 to 6 arms (chains) of total length n - 1."""
    arms = rng.randint(3, 6)
    cuts = sorted(rng.sample(range(1, n - 1), arms - 1))
    lengths = [b - a for a, b in zip([0] + cuts, cuts + [n - 1])]
    edges, nxt = [], 1
    for length in lengths:
        prev = 0
        for _ in range(length):
            edges.append((prev, nxt))
            prev, nxt = nxt, nxt + 1
    return _tree(rng, "star", n, edges, elliptic)


def random_cusp(rng, n, elliptic):
    """Cycle of n curves with self-intersections <= -2, one of them <= -3.

    Genus 0 everywhere makes a cusp (elliptic, chi(Z_E) = 0); any positive
    genus makes chi(Z_E) negative.
    """
    selfs = [-rng.choice((2, 2, 3, 4)) for _ in range(n)]
    selfs[rng.randrange(n)] = -3
    genera = [0] * n
    if not elliptic:
        genera = _genera(rng, n, False)
        genera[rng.randrange(n)] += 1
    return relabel(rng, "cusp", n, *cusp(n, selfs, genera))


# -- weighted-homogeneous polynomials ----------------------------------------


def monomials_of_degree(weights, d):
    wx, wy, wz = weights
    return [(a, b, (d - a * wx - b * wy) // wz)
            for a in range(d // wx + 1)
            for b in range((d - a * wx) // wy + 1)
            if (d - a * wx - b * wy) % wz == 0]


def poly_text(terms):
    parts = []
    for (a, b, c), coeff in terms:
        factors = [v if e == 1 else f"{v}^{e}" for v, e in zip("xyz", (a, b, c)) if e]
        body = "*".join(factors) or "1"
        sign = "-" if coeff < 0 else "+"
        parts.append(f"{sign}{abs(coeff)}*{body}" if abs(coeff) != 1 else f"{sign}{body}")
    text = "".join(parts)
    return text[1:] if text.startswith("+") else text


def random_wh_poly(rng, a, b, c):
    """x^a + y^b + z^c plus seeded extra monomials of the same weighted
    degree, with small non-zero integer coefficients."""
    weights = (b * c, a * c, a * b)
    g = math.gcd(*weights)
    weights = tuple(w // g for w in weights)
    d = a * b * c // g
    pure = [(a, 0, 0), (0, b, 0), (0, 0, c)]
    others = [e for e in monomials_of_degree(weights, d) if e not in pure]
    chosen = pure + rng.sample(others, min(len(others), rng.randint(0, 3)))
    terms = [(e, rng.choice((1, 1, 2, 3)) * rng.choice((1, -1))) for e in chosen]
    return weights, terms


# -- operation lists -------------------------------------------------------

WHY = {
    "elliptic-ladder": "corpus chains, brell3 stars and cusps climbing to n=19: time goes to the "
                       "E_min box scan and the chi sweep, little to linear algebra",
    "wide-graphs": "graph analyze on n=40..61 corpus and random trees, stars, cusps: validation, "
                   "sampled chi sweep and K; E_min never runs",
    "artinian-oracle": "staircase colengths (plain and saturated), wh and brieskorn counts: "
                       "rank of sparse multiplication matrices, no graph code",
    "acceptance": "verify-paper from cold caches: the only path through verify, antinef_in_box "
                  "and the itertools oracle sweep",
}


def _graph_op(kind, tag, graph, pg=None, elliptic=True):
    argv = {"sequence": ["elliptic", "sequence", "-"],
            "classify": ["classify", "-", "--pg", str(pg)],
            "analyze": ["graph", "analyze", "-"]}[kind]
    op_id = f"{kind}:{tag}" + (f":pg{pg}" if pg is not None else "")
    return Op(op_id, tuple(argv + ["--format", "json"]), graph.document(),
              {"kind": kind, "graph": graph, "pg": pg, "elliptic": elliptic})


# Ladder rungs: (family, param, kinds).  Every kind runs on the cheap rungs;
# above n = 9 one kind per rung keeps a pass near five seconds while the
# box-scan cost doubles per vertex.  "classify" expands to every documented
# genus of the rung.
_LADDER = (
    [("fig2312", p, ("sequence", "classify", "analyze")) for p in range(5)]
    + [("fig2312", 5, ("sequence",)), ("fig2312", 6, ("classify",)),
       ("fig2312", 7, ("classify",)), ("fig2312", 8, ("sequence",))]
    + [("fig244", m, ("sequence", "classify", "analyze")) for m in range(5)]
    + [("fig244", 5, ("analyze",)), ("fig244", 6, ("sequence",)),
       ("fig244", 7, ("classify",)), ("fig244", 8, ("sequence",))]
    + [("brell3", m, ("sequence", "classify", "analyze")) for m in range(4)]
    + [("brell3", 4, ("sequence",)), ("brell3", 5, ("classify",)), ("brell3", 6, ("classify",))]
    + [("cusp", k, (("sequence", "classify", "analyze")[k % 3],)) for k in range(3, 13)]
)


def elliptic_ladder(rng):
    ops = []
    for family, param, kinds in _LADDER:
        graph = corpus_graph(rng, family, param)
        tag = f"{family}({param})"
        for kind in kinds:
            if kind == "classify":
                ops += [_graph_op(kind, tag, graph, pg) for pg in genus_options(family, param)]
            else:
                ops.append(_graph_op(kind, tag, graph))
    return ops


# (generator, n, elliptic).  Sizes stop at n = 61: parse validation alone is
# O(n^4) today, so one n = 81 document takes 2-3 s, as long as ten of the
# others.  The three largest graphs are corpus graphs of similar cost,
# which the seed changes only through the vertex order, so op_p90_ms lands
# among operations of steady cost; the random graphs are small enough that
# their seed-to-seed differences move the pass little.
_WIDE_CORPUS = (("fig244", 20), ("fig2312", 30), ("fig244", 30), ("brell3", 20))
_WIDE_RANDOM = (
    (random_tree, 40, True), (random_tree, 45, False),
    (random_star, 40, True), (random_star, 45, False),
    (random_cusp, 40, True), (random_cusp, 45, False),
)


def wide_graphs(rng):
    ops = []
    for family, param in _WIDE_CORPUS:
        graph = corpus_graph(rng, family, param)
        ops.append(_graph_op("analyze", f"{family}({param})", graph))
    for make, n, elliptic in _WIDE_RANDOM:
        graph = make(rng, n, elliptic)
        tag = f"{graph.family}{n}{'e' if elliptic else ''}"
        ops.append(_graph_op("analyze", tag, graph, elliptic=elliptic))
    return ops


def _colength_op(tag, weights, terms, gens, saturate, expect):
    ideal = ",".join(poly_text([(g, 1)]) for g in gens)
    argv = ["artinian", "colength", f"--poly={poly_text(terms)}", f"--ideal={ideal}"]
    if saturate:
        argv.append("--saturate")
    expect = dict(expect, kind="colength", weights=weights, terms=terms, gens=gens,
                  saturate=saturate)
    return Op(f"colength{':sat' if saturate else ''}:{tag}", tuple(argv + ["--format", "json"]),
              "", expect)


def _wh_op(tag, weights, terms, expect):
    argv = ["wh", "--weights", ",".join(map(str, weights)), f"--poly={poly_text(terms)}",
            "--format", "json"]
    return Op(f"wh:{tag}", tuple(argv), "", dict(expect, kind="wh", weights=weights, terms=terms))


def _brieskorn_op(triple, expect):
    argv = ["brieskorn", *map(str, triple), "--format", "json"]
    return Op("brieskorn:%d,%d,%d" % triple, tuple(argv), "",
              dict(expect, kind="brieskorn", triple=triple))


def _brieskorn_poly(a, b, c):
    return [((a, 0, 0), 1), ((0, b, 0), 1), ((0, 0, c), 1)]


# Staircase boxes (a x b x c monomials) for the seeded colength ladder,
# 27 ... 343 monomials; dense rank is cubic in the staircase size.  Each
# equation has an x^2 term, so multiplication by f keeps a rank near
# 2/3 of the staircase.  The exponent triples of the three largest boxes
# admit no monomial of their degree besides the pure powers, so there the
# seed changes only coefficients and the cost of a pass stays put.
_STAIRCASES = ((3, 3, 3), (3, 4, 4), (4, 4, 4), (4, 5, 5), (5, 5, 5), (5, 6, 6), (7, 7, 7))
_EXPONENTS = ((2, 4, 5), (2, 4, 7), (2, 6, 6), (2, 3, 7), (2, 3, 11), (2, 5, 7), (2, 5, 9))


def artinian_oracle(rng):
    ops = []
    # corpus equations with the ideals verify-paper uses
    for n in range(1, 5):
        weights = (4 * n + 3, 2 * n + 1, 2)
        terms = [((2, 0, 0), 1), ((0, 0, 4 * n + 3), 1), ((0, 4, 1), 1)]
        for j in sorted({1, n}):
            ops.append(_colength_op(f"fig2312low({n}):z{j}", weights, terms,
                                    [(1, 0, 0), (0, 1, 0), (0, 0, j)], False, {"closed": j}))
    for m in range(4):
        a, b, c = 2, 4, 4 * m + 4
        weights, terms = (b * c, a * c, a * b), _brieskorn_poly(a, b, c)
        for i in sorted({1, m + 1}):
            ops.append(_colength_op(f"fig244eq({m}):z{i}", weights, terms,
                                    [(1, 0, 0), (0, 1, 0), (0, 0, i)], False, {"closed": i}))
            ops.append(_colength_op(f"fig244eq({m}):yz{i}", weights, terms,
                                    [(0, 1, 0), (0, 0, i)], True, {"closed": 2 * i}))
    # seeded weighted-homogeneous equations on staircases of fixed size
    for k, dims in enumerate(_STAIRCASES):
        weights, terms = random_wh_poly(rng, *_EXPONENTS[k])
        gens = [(dims[0], 0, 0), (0, dims[1], 0), (0, 0, dims[2])]
        ops.append(_colength_op(f"seeded{k}:%dx%dx%d" % dims, weights, terms, gens, False, {}))
    for k in range(4):
        weights, terms = random_wh_poly(rng, *_EXPONENTS[k])
        i = rng.randint(1, 3)
        ops.append(_colength_op(f"seeded{k}:yz{i}", weights, terms, [(0, 1, 0), (0, 0, i)],
                                True, {}))
    # genus counts: corpus equations, seeded equations and Brieskorn triples
    for n in range(1, 5):
        ops.append(_wh_op(f"fig2312low({n})", (4 * n + 3, 2 * n + 1, 2),
                          [((2, 0, 0), 1), ((0, 0, 4 * n + 3), 1), ((0, 4, 1), 1)],
                          {"closed": n + 1}))
        ops.append(_wh_op(f"fig2312high({n})", (3 * (2 * n + 1), 2 * (2 * n + 1), 1),
                          _brieskorn_poly(2, 3, 6 * (2 * n + 1)), {"closed": 2 * n + 1}))
    for k, (a, b, c) in enumerate(_EXPONENTS):
        weights, terms = random_wh_poly(rng, a, b, c + rng.randint(0, 6))
        ops.append(_wh_op(f"seeded{k}", weights, terms, {}))
    for g in range(1, 6):
        for triple, br in (((2, 3, 6 * g + 1), 1), ((3, 3, 3 * g), 2), ((2, 4, 4 * g), 2)):
            ops.append(_brieskorn_op(triple, {"closed_pg": g, "closed_br": br}))
    while len(ops) < 90:
        a = rng.randint(2, 5)
        b = rng.randint(a, 9)
        op = _brieskorn_op((a, b, rng.randint(b, 40)), {})
        if op.id not in {o.id for o in ops}:
            ops.append(op)
    return ops


def acceptance(rng):
    return [Op("verify-paper", ("verify-paper", "--format", "json"), "", {"kind": "verify"})]


WORKLOADS = {
    "elliptic-ladder": elliptic_ladder,
    "wide-graphs": wide_graphs,
    "artinian-oracle": artinian_oracle,
    "acceptance": acceptance,
}


def operations(workload, seed):
    ops = WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
    ids = [op.id for op in ops]
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate operation ids in {workload}")
    return ops
