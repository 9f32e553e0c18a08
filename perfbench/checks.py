"""Answer checks and machine-independent counters, computed by the benchmark.

Nothing here calls the program.  Each operation's JSON answer is reduced
to its mathematical content (``project``), digested for the golden
comparison, and checked against identities recomputed with this file's
own arithmetic: the adjunction relations K.E_i = 2g - 2 - E_i^2, the
fundamental cycle from a seeded random Laufer order, the closed forms the
acceptance suite uses for the corpus families, graded-block ranks for the
Artinian colengths and direct lattice counts for the genera.  Each check
returns a list of problems; an empty list means the answer is right.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from math import prod

# Answer keys per command; anything else a command prints (checks it ran,
# timings, stats) is not part of the answer and may change freely.
ANSWER_KEYS = {
    "analyze": ("valid", "negative_definite", "minimal", "vertices", "matrix",
                "fundamental_cycle", "chi_fundamental", "elliptic", "canonical_cycle",
                "numerically_gorenstein"),
    "sequence": ("m", "B", "Z", "Emin", "C", "Cprime"),
    "classify": ("gamma", "beta", "af", "maximal", "m", "pg", "zeta", "ideals", "note"),
    "colength": ("saturated", "colength"),
    "wh": ("weights", "degree", "a_invariant", "pg"),
    "brieskorn": ("a_invariant", "pg", "br_maximal_ideal"),
}
VERIFY_CHECKS = ("brieskorn-invariants", "weighted-homogeneous-genus", "elliptic-sequences",
                 "ideal-classification", "gorenstein-cone-numerics", "hilbert-data-consistency",
                 "artinian-colength-oracle", "enumeration-properties")

# is_elliptic sweeps the box below 2 Z_E exhaustively up to this many
# candidates and draws this many samples above it (documented behaviour)
SWEEP_EXHAUSTIVE_CAP = 200_000
SWEEP_SAMPLES = 2000


def project(kind, doc):
    if kind == "verify":
        return sorted((r["name"], r["passed"]) for r in doc)
    return {k: doc.get(k) for k in ANSWER_KEYS[kind]}


def digest(answer):
    text = json.dumps(answer, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# -- lattice arithmetic on generated graphs ------------------------------------


class Lattice:
    """Intersection form of a generated graph, indexed like its document."""

    def __init__(self, graph):
        n = graph.n
        self.graph = graph
        self.n = n
        self.m = [[0] * n for _ in range(n)]
        for i, s in enumerate(graph.selfs):
            self.m[i][i] = s
        for i, j, mult in graph.edges:
            self.m[i][j] += mult
            self.m[j][i] += mult
        self.adj = [2 * g - 2 - s for g, s in zip(graph.genera, graph.selfs)]
        self.index = {v: i for i, v in enumerate(graph.ids)}

    def vec(self, cycle_map):
        out = [0] * self.n
        for vid, c in cycle_map.items():
            out[self.index[vid]] = c
        return out

    def mv(self, d):
        return [sum(row[j] * d[j] for j in range(self.n) if row[j]) for row in self.m]

    def dot(self, a, b):
        return sum(x * y for x, y in zip(a, self.mv(b)))

    def chi(self, d):
        two = -(self.dot(d, d) + sum(a * c for a, c in zip(self.adj, d)))
        return Fraction(two, 2)

    def anti_nef(self, d):
        return all(x <= 0 for x in self.mv(d))

    def laufer(self, rng, support=None):
        """Fundamental cycle on ``support`` (all vertices by default),
        bumping violators in a random order."""
        idx = sorted(support) if support is not None else list(range(self.n))
        d = [0] * self.n
        for i in idx:
            d[i] = 1
        while True:
            s = self.mv(d)
            bad = [i for i in idx if s[i] > 0]
            if not bad:
                return d
            d[rng.choice(bad)] += 1


def _ones(lat, names):
    d = [0] * lat.n
    for name in names:
        d[lat.index[lat.graph.names[name]]] = 1
    return d


def closed_sequence(graph):
    """(m, Z_0..Z_m or None) predicted by the acceptance suite's closed forms."""
    fam, p = graph.family, graph.param
    lat = Lattice(graph)
    if fam == "fig2312":
        return 2 * p, [_ones(lat, [f"E{j}" for j in range(i, 2 * p + 1)]) for i in range(2 * p + 1)]
    if fam == "fig244":
        return p, [_ones(lat, ["Em"] + [f"E{j}_{s}" for j in range(i, p) for s in (1, 2)])
                   for i in range(p + 1)]
    if fam == "brell3":
        return p, None
    if fam == "cusp":
        return 0, [[1] * lat.n]
    return None, None


def _check_fundamental(lat, ze, rng, problems):
    if ze != lat.laufer(rng):
        problems.append("Z_E differs from a random-order Laufer loop")
    if not lat.anti_nef(ze) or min(ze) < 1:
        problems.append("Z_E is not a positive anti-nef cycle")


def check_analyze(op, doc, rng):
    graph = op.expect["graph"]
    lat = Lattice(graph)
    problems = []
    if doc["vertices"] != list(graph.ids) or doc["matrix"] != lat.m:
        problems.append("vertices or matrix differ from the document")
    if not (doc["valid"] and doc["negative_definite"]):
        problems.append("negative definite graph reported invalid")
    minimal = not any(g == 0 and s == -1 for g, s in zip(graph.genera, graph.selfs))
    if doc["minimal"] != minimal:
        problems.append("wrong minimality flag")
    ze = lat.vec(doc["fundamental_cycle"])
    _check_fundamental(lat, ze, rng, problems)
    chi = lat.chi(ze)
    if doc["chi_fundamental"] != chi:
        problems.append("chi(Z_E) mismatch")
    if doc["elliptic"] != (chi == 0):
        problems.append("elliptic flag disagrees with chi(Z_E)")
    if "elliptic" in op.expect and doc["elliptic"] != op.expect["elliptic"]:
        problems.append("ellipticity differs from the construction")
    k = [Fraction(doc["canonical_cycle"][v]["num"], doc["canonical_cycle"][v]["den"])
         for v in graph.ids]
    if lat.mv(k) != lat.adj:
        problems.append("K . E_i != 2g - 2 - E_i^2")
    if doc["numerically_gorenstein"] != all(c.denominator == 1 for c in k):
        problems.append("numerically Gorenstein flag disagrees with K")
    return problems


def check_sequence(op, doc, rng):
    graph = op.expect["graph"]
    lat = Lattice(graph)
    problems = []
    m = doc["m"]
    zs = [lat.vec(z) for z in doc["Z"]]
    if len(zs) != m + 1 or len(doc["B"]) != m + 1:
        return ["sequence length does not match m"]
    _check_fundamental(lat, zs[0], rng, problems)
    for t, (z, b) in enumerate(zip(zs, doc["B"])):
        support = {lat.index[v] for v in b}
        if {i for i, c in enumerate(z) if c} != support:
            problems.append(f"Z_{t} is not supported on B_{t}")
        if z != lat.laufer(rng, support):
            problems.append(f"Z_{t} is not the fundamental cycle of B_{t}")
        if t and not support < {lat.index[v] for v in doc["B"][t - 1]}:
            problems.append(f"B_{t} does not shrink")
    for i in range(m + 1):
        for j in range(i + 1, m + 1):
            if lat.dot(zs[i], zs[j]):
                problems.append(f"Z_{i} . Z_{j} != 0")
    degrees = [-lat.dot(z, z) for z in zs]
    if any(a < b for a, b in zip(degrees, degrees[1:])):
        problems.append("-Z_t^2 increases")
    for t in range(m + 1):
        ct = [sum(col) for col in zip(*zs[: t + 1])]
        cpt = [sum(col) for col in zip(*zs[t:])]
        if lat.vec(doc["C"][t]) != ct or lat.vec(doc["Cprime"][t]) != cpt:
            problems.append(f"C_{t} or C'_{t} is not a partial sum")
        if not lat.anti_nef(ct) or lat.chi(ct) or lat.chi(cpt) or lat.chi(zs[t]):
            problems.append(f"C_{t} not anti-nef or chi != 0 at {t}")
    if lat.vec(doc["Emin"]) != zs[m]:
        problems.append("Emin is not Z_m")
    if lat.mv([-c for c in lat.vec(doc["C"][m])]) != lat.adj:
        problems.append("C_m is not -K")
    closed_m, closed_z = closed_sequence(graph)
    if closed_m is not None and m != closed_m:
        problems.append(f"m = {m}, closed form {closed_m}")
    if closed_z is not None and zs != closed_z:
        problems.append("Z_t differ from the closed form")
    if graph.family == "brell3" and lat.dot(zs[m], zs[m]) != -3:
        problems.append("brell3 Z_m^2 != -3")
    return problems


def _af(m, pg):
    if pg == 1:
        return 1, [0]
    gamma = m // (pg - 1)
    return gamma, [gamma - 1 + i * gamma for i in range(pg - 1)] + [m]


def check_classify(op, doc):
    graph, pg = op.expect["graph"], op.expect["pg"]
    lat = Lattice(graph)
    problems = []
    closed_m, _ = closed_sequence(graph)
    if doc["m"] != closed_m or doc["pg"] != pg:
        problems.append("m or pg differ from the closed form")
    gamma, af = _af(doc["m"], pg)
    if (doc["gamma"], doc["beta"], doc["af"], doc["maximal"]) != (gamma, gamma - 1, af, gamma == 1):
        problems.append("admissible index set differs from its closed form")
    for rank, ideal in enumerate(doc["ideals"]):
        c = lat.vec(ideal["cycle"])
        e0 = -lat.dot(c, c)
        kz = sum(a * x for a, x in zip(lat.adj, c))
        if not lat.anti_nef(c) or lat.chi(c) != 0 or ideal["t"] not in af:
            problems.append(f"ideal t={ideal['t']} is not an admissible chi = 0 anti-nef cycle")
        if (ideal["e0"], ideal["kz"], ideal["chi"]) != (e0, kz, 0) or kz != e0:
            problems.append(f"ideal t={ideal['t']}: e0, K.Z or chi wrong")
        colength = ideal["colength"]
        if (colength, ideal["e2bar"], ideal["q"]) != (rank + 1, colength, pg - colength):
            problems.append(f"ideal t={ideal['t']}: colength data wrong")
    zeta = doc["zeta"]
    if zeta != len(doc["ideals"]):
        problems.append("zeta is not the number of ideals")
    fam, p = graph.family, graph.param
    expected = None
    if fam == "fig2312":
        expected = p if pg == p + 1 and p >= 1 else 0
        if pg == p + 1 and p >= 1 and [i["colength"] for i in doc["ideals"]] != list(range(1, p + 1)):
            problems.append("fig2312 colength ladder differs from 1..n")
    elif fam in ("fig244", "brell3"):
        expected = p + 1
    elif fam == "cusp":
        expected = 1
    if expected is not None and zeta != expected:
        problems.append(f"zeta = {zeta}, closed form {expected}")
    return problems


# -- staircase colengths ---------------------------------------------------------


def _divides(a, b):
    return a[0] <= b[0] and a[1] <= b[1] and a[2] <= b[2]


def staircase(gens):
    caps = [min(g[axis] for g in gens if all(g[o] == 0 for o in range(3) if o != axis))
            for axis in range(3)]
    return [(a, b, c) for a in range(caps[0]) for b in range(caps[1]) for c in range(caps[2])
            if not any(_divides(g, (a, b, c)) for g in gens)]


def _rank(rows):
    rows = [list(r) for r in rows if any(r)]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        p = rows[rank]
        for i in range(rank + 1, len(rows)):
            if rows[i][c]:
                f = Fraction(rows[i][c], p[c])
                rows[i] = [x - f * y for x, y in zip(rows[i], p)]
        rank += 1
    return rank


def graded_colength(weights, terms, gens):
    """(colength, staircase size, nonzeros) of k[x,y,z]/((f) + M).

    f is weighted homogeneous of degree d, so multiplication by f maps the
    staircase monomials of degree e to those of degree e + d; the rank is
    the sum of the ranks of these blocks.
    """
    basis = staircase(gens)
    position = {e: i for i, e in enumerate(basis)}
    deg = {e: sum(w * x for w, x in zip(weights, e)) for e in basis}
    blocks = {}
    nonzeros = 0
    for mono in basis:
        col = {}
        for e, coeff in terms:
            shifted = (e[0] + mono[0], e[1] + mono[1], e[2] + mono[2])
            if shifted in position:
                col[shifted] = col.get(shifted, 0) + coeff
                nonzeros += 1
        blocks.setdefault(deg[mono], []).append(col)
    rank = 0
    for cols in blocks.values():
        targets = sorted({t for col in cols for t in col})
        if targets:
            rank += _rank([[col.get(t, 0) for t in targets] for col in cols])
    return len(basis) - rank, len(basis), nonzeros


def colength_work(op):
    """Replays ``colength`` / the doubling rule of ``--saturate``: the
    expected answer and every (staircase size, nonzeros) evaluated."""
    e = op.expect
    if not e["saturate"]:
        value, size, nnz = graded_colength(e["weights"], e["terms"], e["gens"])
        return value, [(size, nnz)]
    work, previous, n = [], None, 2
    while n <= 256:
        gens = list(e["gens"]) + [(n, 0, 0), (0, n, 0), (0, 0, n)]
        value, size, nnz = graded_colength(e["weights"], e["terms"], gens)
        work.append((size, nnz))
        if value == previous:
            return value, work
        previous, n = value, 2 * n
    return None, work


def check_colength(op, doc, expected):
    problems = []
    if doc["colength"] != expected or doc["saturated"] != op.expect["saturate"]:
        problems.append(f"colength {doc['colength']}, graded-block oracle says {expected}")
    if "closed" in op.expect and doc["colength"] != op.expect["closed"]:
        problems.append(f"colength {doc['colength']}, closed form {op.expect['closed']}")
    return problems


def _count_upto(weights, top):
    """Monomials of weighted degree <= top."""
    if top < 0:
        return 0
    wx, wy, wz = weights
    return sum((top - a * wx - b * wy) // wz + 1
               for a in range(top // wx + 1) for b in range((top - a * wx) // wy + 1))


def check_wh(op, doc):
    weights, terms = op.expect["weights"], op.expect["terms"]
    d = sum(w * x for w, x in zip(weights, terms[0][0]))
    a = d - sum(weights)
    pg = _count_upto(weights, a) - _count_upto(weights, a - d)
    problems = []
    if (doc["weights"], doc["degree"], doc["a_invariant"], doc["pg"]) != (list(weights), d, a, pg):
        problems.append("weights, degree, a-invariant or genus differ from the lattice count")
    if "closed" in op.expect and doc["pg"] != op.expect["closed"]:
        problems.append(f"pg {doc['pg']}, closed form {op.expect['closed']}")
    return problems


def check_brieskorn(op, doc):
    a, b, c = op.expect["triple"]
    # p_g = #{(i, j, k) >= 1 : i/a + j/b + k/c <= 1}
    pg = sum(max(0, (a * b * c - i * b * c - j * a * c) // (a * b))
             for i in range(1, a + 1) for j in range(1, b + 1))
    problems = []
    if (doc["a_invariant"], doc["pg"]) != (a * b * c - (a * b + b * c + c * a), pg):
        problems.append("a-invariant or genus differ from the lattice count")
    if doc["br_maximal_ideal"] != (a - 1) * b // a:
        problems.append("normal reduction number differs from floor((a-1)b/a)")
    if "closed_pg" in op.expect and (doc["pg"], doc["br_maximal_ideal"]) != (
            op.expect["closed_pg"], op.expect["closed_br"]):
        problems.append("genus or reduction number differ from the closed form")
    return problems


def check_verify(op, doc):
    results = {r["name"]: r["passed"] for r in doc}
    missing = [name for name in VERIFY_CHECKS if name not in results]
    failed = [name for name, passed in results.items() if not passed]
    return [f"missing checks {missing}"] * bool(missing) + [f"failed checks {failed}"] * bool(failed)


# -- per-operation entry point -------------------------------------------------------


class Verdict:
    """Checks one operation's first answer; later passes must repeat it."""

    def __init__(self, op, seed):
        self.op = op
        self.rng = random.Random(f"laufer:{seed}:{op.id}")
        self.work = None  # colength evaluations, for the counters
        self.answer = None

    def check(self, doc):
        kind = self.op.expect["kind"]
        self.answer = project(kind, doc)
        if kind == "analyze":
            return check_analyze(self.op, doc, self.rng)
        if kind == "sequence":
            return check_sequence(self.op, doc, self.rng)
        if kind == "classify":
            return check_classify(self.op, doc)
        if kind == "colength":
            expected, self.work = colength_work(self.op)
            return check_colength(self.op, doc, expected)
        if kind == "wh":
            return check_wh(self.op, doc)
        if kind == "brieskorn":
            return check_brieskorn(self.op, doc)
        return check_verify(self.op, doc)


# -- counters ---------------------------------------------------------------------


def counters(verdicts):
    """Machine-independent work of one pass, from inputs and answers.

    laufer_steps: sum(Z_E) - n per graph operation.  emin_box_candidates:
    prod(z_i + 1) per E_min search (sequence, classify).  sweep_candidates:
    the chi >= 0 sweep below 2 Z_E on elliptic graphs, by the documented
    exhaustive/sampled rule.  staircase_size and matrix_fill: per colength
    evaluation, saturation doublings included.
    """
    out = {"graph.vertices": 0, "cycles.laufer_steps": 0, "elliptic.emin_box_candidates": 0,
           "elliptic.sweep_candidates": 0, "elliptic.sequence_m": 0,
           "artinian.staircase_size": 0, "artinian.matrix_fill": 0.0}
    cells = nonzeros = 0
    for v in verdicts:
        kind = v.op.expect["kind"]
        if kind in ("analyze", "sequence", "classify"):
            lat = Lattice(v.op.expect["graph"])
            ze = lat.laufer(random.Random(0))
            out["graph.vertices"] += lat.n
            out["cycles.laufer_steps"] += sum(ze) - lat.n
            if lat.chi(ze) == 0:
                box = prod(2 * z + 1 for z in ze)
                out["elliptic.sweep_candidates"] += (
                    box - 1 if box <= SWEEP_EXHAUSTIVE_CAP else SWEEP_SAMPLES)
            if kind != "analyze":
                out["elliptic.emin_box_candidates"] += prod(z + 1 for z in ze)
                out["elliptic.sequence_m"] += v.answer["m"]
        elif kind == "colength" and v.work:
            for size, nnz in v.work:
                out["artinian.staircase_size"] += size
                cells += size * size
                nonzeros += nnz
    if cells:
        out["artinian.matrix_fill"] = nonzeros / cells
    return out
