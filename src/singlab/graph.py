"""Weighted dual resolution graphs and their exact intersection pairing.

A graph records the irreducible exceptional curves of a resolution of a
normal surface singularity: each vertex carries a self-intersection number
and a genus, each edge an intersection multiplicity.  The graph is a valid
resolution graph exactly when its intersection matrix is negative
definite.  That is an invariant of every ``DualGraph``, however it was
built: the constructor solves M K = a, a the adjunction vector, once
(``is_negative_definite``) and raises InputError unless Sylvester's
criterion holds on the pivots.  The solve eliminates the sparse rows in
minimum-degree order, tree leaves first, so a tree of n curves is built
in O(n log n) steps with no n x n table.  It keeps K's integer solution,
not the elimination.  K is in general rational, but K . D never needs it:
M K = a makes it the integer a . D.  No floating point is used anywhere
in this package.

The form is stored once, as sparse rows, the diagonal entry and then one
entry per neighbour, and a product M . D (``mat_vec``) costs O(n + |E|).
An immutable ``Cycle`` carries its image M . D (``Cycle.image``), and
every pairing is read off it.  The exhaustive chi >= 0 sweep builds its
minimum-cut network on the same rows, the anti-nef box scan walks them,
and the solve eliminates them.  The dense ``matrix`` is built from the
rows on each read and kept nowhere, for the printed matrix of ``graph
analyze`` and the sampled chi sweep; it is the one n x n allocation
left, so its n^2 entries answer to the budget (``SINGLAB_MAX_ENUM``).

A graph object keeps, in ``_cache`` and only through ``per_graph``: Z_E
(``fundamental_cycle`` of every vertex, without ``rng``) with the image
its loop held, K, the chi >= 0 sweep, the verdict of ``is_elliptic``
(False too), E_min and the verified elliptic sequence.  A call that
raises keeps nothing, so a refusal or a failed check is raised again on
every call.
"""

from __future__ import annotations

import functools
import json
import re
from fractions import Fraction
from itertools import compress
from operator import add, mul, sub
from typing import NamedTuple

from . import _engine
from ._linalg import solve_negative_definite
from .errors import InputError, _clip, _is_exact, _is_int

_ID_RE = re.compile(r"[A-Za-z0-9_]+\Z")


class Vertex(NamedTuple):
    id: str
    self_int: int
    genus: int = 0


class DualGraph:
    """Immutable weighted dual graph with a negative definite intersection form.

    ``vertices`` keeps document order (all reports refer to vertices by id,
    never by index), and ``ids`` their ids in that order.  ``edges`` is
    normalized to ``(id_a, id_b, mult)`` with ``a`` preceding ``b`` in
    vertex order and one entry per pair; duplicate pairs in the input have
    their multiplicities summed.
    ``rows[i]`` is row i of the form as ``((i, m_ii), (j, m_ij), ...)``
    over the neighbours j of vertex ``i``, ascending, and the one stored
    copy of the form; ``matrix`` is a dense view built from it on demand.
    ``adjunction[i]`` is K . E_i = 2 g_i - 2 - E_i^2, and ``_solution``
    the (d, y), K = y / d, of ``is_negative_definite``.  The constructor
    rejects with InputError anything that is not a connected resolution
    graph, a form that is not negative definite included, and with
    EnumerationLimitError a graph whose elimination stores more entries
    than ``SINGLAB_MAX_ENUM``; ``matrix`` refuses the same way a graph whose
    n^2 dense entries exceed it.
    """

    __slots__ = ("vertices", "ids", "edges", "rows", "adjunction", "_solution", "_index", "_cache")

    def __init__(self, vertices, edges):
        verts = []
        for v in vertices:
            if not isinstance(v, Vertex):
                try:
                    v = Vertex(*v)
                except TypeError:
                    raise InputError(f"bad vertex {_clip(repr(v))}") from None
            if not isinstance(v.id, str) or not _ID_RE.match(v.id):
                raise InputError(
                    f"invalid vertex id {_clip(repr(v.id))}: must be a string of letters, digits and _"
                )
            if not _is_int(v.self_int) or not _is_int(v.genus):
                raise InputError(f"vertex {_clip(repr(v.id))}: weights must be integers")
            if v.genus < 0:
                raise InputError(f"vertex {_clip(v.id)}: genus must be >= 0")
            verts.append(v)
        if not verts:
            raise InputError("graph must have at least one vertex")
        index = {}
        for i, v in enumerate(verts):
            if v.id in index:
                raise InputError(f"duplicate vertex id {_clip(repr(v.id))}")
            index[v.id] = i

        mult = {}
        for e in edges:
            if not isinstance(e, (tuple, list)) or len(e) != 3:
                raise InputError(f"edge {_clip(repr(e))} must be (id_a, id_b, multiplicity)")
            a, b, m = e
            if not (isinstance(a, str) and isinstance(b, str)):
                raise InputError(f"edge {_clip(repr(e))}: ends must be string vertex ids")
            if a not in index or b not in index:
                missing = a if a not in index else b
                raise InputError(f"edge references unknown vertex {_clip(repr(missing))}")
            if a == b:
                raise InputError(f"loop edge at vertex {_clip(repr(a))} is not allowed")
            if not _is_int(m):
                raise InputError(f"edge {_clip(a)}-{_clip(b)}: multiplicity must be an integer")
            if m < 1:
                raise InputError(f"edge {_clip(a)}-{_clip(b)}: multiplicity must be >= 1")
            i, j = index[a], index[b]
            key = (i, j) if i < j else (j, i)
            mult[key] = mult.get(key, 0) + m
        pairs = sorted(mult.items())

        rows = [[(i, v.self_int)] for i, v in enumerate(verts)]
        for (i, j), m in pairs:
            rows[i].append((j, m))
            rows[j].append((i, m))

        self.vertices = tuple(verts)
        self.ids = tuple([v.id for v in verts])
        self.edges = tuple((verts[i].id, verts[j].id, m) for (i, j), m in pairs)
        self.rows = tuple(map(tuple, rows))
        self.adjunction = tuple([2 * v.genus - 2 - v.self_int for v in verts])
        self._solution = None
        self._index = index
        self._cache = {}

        components = connected_components(self, range(len(verts)))
        if len(components) != 1:
            missing = verts[min(components[1])].id
            raise InputError(f"graph is disconnected (vertex {_clip(repr(missing))} unreachable)")
        if not is_negative_definite(self):
            raise InputError("intersection matrix is not negative definite")

    # -- basic accessors -------------------------------------------------

    def __len__(self) -> int:
        return len(self.vertices)

    def index_of(self, vid: str) -> int:
        try:
            return self._index[vid]
        except KeyError:
            raise InputError(f"unknown vertex id {_clip(repr(vid))}") from None

    @property
    def matrix(self) -> list[list[int]]:
        """The dense form, a new n x n table filled from ``rows`` on each
        read; its n^2 entries answer to the budget before it is allocated."""
        _engine.check_count(len(self.rows) ** 2, "the dense intersection form", "entries")
        out = [[0] * len(self.rows) for _ in self.rows]
        for i, row in enumerate(self.rows):
            for j, m in row:
                out[i][j] = m
        return out

    @property
    def is_minimal(self) -> bool:
        """No genus-0 curve of self-intersection -1 (contractible curve)."""
        return not any(v.genus == 0 and v.self_int == -1 for v in self.vertices)

    def __eq__(self, other):
        return self is other or (
            isinstance(other, DualGraph)
            and self.vertices == other.vertices
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.vertices, self.edges))

    def __repr__(self):
        return f"DualGraph({len(self.vertices)} vertices, {len(self.edges)} edges)"


_set = object.__setattr__  # how a ``_Frozen`` record sets each field, once


class _Frozen:
    """A record of the fields ``_fields`` names: assigning or deleting one
    raises AttributeError, and two records of one class are equal when
    their fields are."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self._fields)

    def __hash__(self):
        return hash(tuple([getattr(self, name) for name in self._fields]))

    def __repr__(self):
        inside = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({inside})"

    def __setstate__(self, state):  # copy and pickle set every slot again, unchecked
        for name, value in state[1].items():
            _set(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__


class _Divisor(_Frozen):
    """Coefficients on the curves of one graph, in vertex order."""

    __slots__ = ("graph", "coeffs")
    _fields = ("graph", "coeffs")

    def coeff(self, vid: str):
        return self.coeffs[self.graph.index_of(vid)]

    def to_map(self) -> dict:
        return dict(zip(self.graph.ids, self.coeffs))

    def __repr__(self):
        inside = ", ".join(f"{v.id}:{c}" for v, c in zip(self.graph.vertices, self.coeffs))
        return f"{type(self).__name__}({inside})"


class Cycle(_Divisor):
    """Integer divisor supported on the exceptional curves of one graph,
    carrying its image M . D, the D . E_i for every i (``image``)."""

    __slots__ = ("_image",)

    def __init__(self, graph: DualGraph, coeffs):
        coeffs = tuple(coeffs)
        if len(coeffs) != len(graph):
            raise InputError("cycle length does not match the graph")
        if not all(_is_int(c) for c in coeffs):
            raise InputError("cycle coefficients must be integers")
        for name, value in (("graph", graph), ("coeffs", coeffs), ("_image", None)):
            _set(self, name, value)

    @classmethod
    def _of(cls, graph: DualGraph, coeffs: tuple, image: tuple | None = None) -> Cycle:
        """A cycle from a tuple of ints known to fit ``graph``, unchecked,
        and its image M . D when the caller holds it."""
        d = object.__new__(cls)
        _set(d, "graph", graph)
        _set(d, "coeffs", coeffs)
        _set(d, "_image", image)
        return d

    @classmethod
    def zero(cls, graph: DualGraph) -> Cycle:
        zeros = (0,) * len(graph)
        return cls._of(graph, zeros, zeros)

    @classmethod
    def unit(cls, graph: DualGraph, vid: str) -> Cycle:
        return cls.from_map(graph, {vid: 1})

    @classmethod
    def from_map(cls, graph: DualGraph, mapping) -> Cycle:
        c = [0] * len(graph)
        for vid, val in mapping.items():
            c[graph.index_of(vid)] = val
        return cls(graph, c)

    @property
    def image(self) -> tuple[int, ...]:
        """M . D: held from construction where it was at hand (a Laufer loop,
        ``zero``, a sum or difference of cycles holding theirs, as M is
        linear), otherwise one ``mat_vec`` product on first read, kept."""
        if self._image is None:
            _set(self, "_image", tuple(mat_vec(self.graph, self.coeffs)))
        return self._image

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    @property
    def is_effective(self) -> bool:
        return all(c >= 0 for c in self.coeffs)

    def support(self) -> tuple[str, ...]:
        return tuple(compress(self.graph.ids, self.coeffs))

    def _binop(self, other, op):
        if not isinstance(other, Cycle) or other.graph != self.graph:
            raise InputError("cycles live on different graphs")
        a, b = self._image, other._image
        return Cycle._of(self.graph, tuple(map(op, self.coeffs, other.coeffs)),
                         None if a is None or b is None else tuple(map(op, a, b)))

    def __add__(self, other):
        return self._binop(other, add)

    def __sub__(self, other):
        return self._binop(other, sub)

    def __neg__(self):
        return Cycle.zero(self.graph) - self

    def __rmul__(self, k):
        if not _is_int(k):  # a bool scale is refused, as a float is
            return NotImplemented
        return Cycle._of(self.graph, tuple([k * c for c in self.coeffs]))

    def __le__(self, other):
        """Componentwise partial order."""
        if not isinstance(other, Cycle) or other.graph != self.graph:
            raise InputError("cycles live on different graphs")
        return all(a <= b for a, b in zip(self.coeffs, other.coeffs))

    def __lt__(self, other):  # >= and > are these two, reflected
        return self <= other and self != other


class QCycle(_Divisor):
    """Divisor with exact rational coefficients (used for the canonical cycle)."""

    __slots__ = ()

    def __init__(self, graph: DualGraph, coeffs):
        coeffs = tuple(coeffs)
        if len(coeffs) != len(graph):
            raise InputError("cycle length does not match the graph")
        if not all(map(_is_exact, coeffs)):
            raise InputError("rational cycle coefficients must be integers or Fractions")
        _set(self, "graph", graph)
        _set(self, "coeffs", tuple(c if type(c) is Fraction else Fraction(c) for c in coeffs))

    @property
    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)

    def to_cycle(self) -> Cycle:
        if not self.is_integral:
            raise InputError("cycle has non-integral coefficients")
        return Cycle(self.graph, tuple(int(c) for c in self.coeffs))

    def __neg__(self):
        return QCycle(self.graph, tuple(-c for c in self.coeffs))


def per_graph(key: str):
    """Decorator keeping ``f(g)`` on ``g`` under ``key``, as said at the top."""
    def decorate(f):
        @functools.wraps(f)
        def memo(g):
            if key not in g._cache:
                g._cache[key] = f(g)
            return g._cache[key]
        return memo
    return decorate


# -- document format -----------------------------------------------------

_VERTEX_KEYS = {"id", "self", "genus"}
_EDGE_KEYS = {"ends", "mult"}


def graph_from_json(doc) -> DualGraph:
    """Build a graph from the decoded document.

    Checks the shape of the document only; the ``DualGraph`` constructor
    checks the values (ids, weights, multiplicities) and the form."""
    if not isinstance(doc, dict) or set(doc) - {"vertices", "edges"}:
        raise InputError('graph document must be {"vertices": [...], "edges": [...]}')
    raw_vertices = doc.get("vertices")
    if not isinstance(raw_vertices, list) or not raw_vertices:
        raise InputError('"vertices" must be a non-empty list')
    vertices = []
    for entry in raw_vertices:
        if not isinstance(entry, dict) or not _VERTEX_KEYS >= set(entry):
            raise InputError(f"bad vertex entry {_clip(repr(entry))}")
        if "id" not in entry or "self" not in entry:
            raise InputError(f'vertex entry {_clip(repr(entry))} needs "id" and "self"')
        vertices.append(Vertex(entry["id"], entry["self"], entry.get("genus", 0)))
    raw_edges = doc.get("edges", [])
    if not isinstance(raw_edges, list):
        raise InputError('"edges" must be a list')
    edges = []
    for entry in raw_edges:
        if not isinstance(entry, dict) or not _EDGE_KEYS >= set(entry):
            raise InputError(f"bad edge entry {_clip(repr(entry))}")
        ends = entry.get("ends")
        if not (isinstance(ends, list) and len(ends) == 2
                and isinstance(ends[0], str) and isinstance(ends[1], str)):
            raise InputError(f'edge entry {_clip(repr(entry))} needs "ends": [a, b] with string ids')
        edges.append((ends[0], ends[1], entry.get("mult", 1)))
    return DualGraph(vertices, edges)


def parse_graph(text: str) -> DualGraph:
    """Parse and fully validate a graph document.

    Rejects, with a message naming the violated invariant: JSON syntax
    errors, schema errors, and everything the ``DualGraph`` constructor
    refuses (duplicate ids, loop edges, disconnected graphs, and graphs
    whose intersection matrix is not negative definite).
    """
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad syntax, a too-long int, deep nesting
        raise InputError(f"graph document is not valid JSON: {exc}") from None
    return graph_from_json(doc)


def graph_to_json(g: DualGraph) -> dict:
    return {
        "vertices": [
            {"id": v.id, "self": v.self_int, "genus": v.genus} for v in g.vertices
        ],
        "edges": [{"ends": [a, b], "mult": m} for a, b, m in g.edges],
    }


def serialize_graph(g: DualGraph) -> str:
    return json.dumps(graph_to_json(g), sort_keys=True, separators=(", ", ": "))


def cycle_to_json(d) -> dict:
    if isinstance(d, QCycle):
        return {
            vid: {"num": c.numerator, "den": c.denominator}
            for vid, c in d.to_map().items()
        }
    return d.to_map()


# -- the intersection form ------------------------------------------------


def intersection_matrix(g: DualGraph) -> list[list[int]]:
    """Symmetric matrix: self-intersections on the diagonal, edge
    multiplicities off it."""
    return g.matrix


def mat_vec(g: DualGraph, coeffs) -> list:
    """M . D for the coefficient vector of D: the list of D . E_i, along
    the sparse rows in O(n + |E|)."""
    return [sum([m * coeffs[j] for j, m in row]) for row in g.rows]


def pairing(g: DualGraph, d1: Cycle, d2: Cycle) -> int:
    """Exact intersection number D1 . D2 of two integral cycles; K . D is
    the integer a . D, so nothing pairs with the rational K."""
    for d in (d1, d2):
        if not isinstance(d, Cycle):
            raise InputError("pairing expects integral cycles")
        if d.graph != g:
            raise InputError("cycle does not live on this graph")
    return _dot(d1, d2.image)


def _dot(d: Cycle, image) -> int:
    """D . D' of an integral cycle D, read off the image M D' of D'."""
    return sum(map(mul, d.coeffs, image))


def is_negative_definite(g: DualGraph) -> bool:
    """Sylvester's criterion on the pivots of the one sparse solve of
    M K = a on ``g.rows``, which the constructor runs here and keeps as its
    integer solution; on a built graph, always True at no cost."""
    if g._solution is None:
        g._solution = solve_negative_definite(g.rows, g.adjunction)
    return g._solution is not None


def connected_components(g: DualGraph, indices) -> list[set[int]]:
    """Connected components of the subgraph induced on the vertex indices
    ``indices``, each grown from its smallest index."""
    rows = g.rows
    out = []
    left = set(indices)  # not yet reached
    while left:
        start = min(left)
        left.remove(start)
        comp = {start}
        stack = [start]
        while stack:
            for j, _ in rows[stack.pop()]:
                if j in left:
                    left.remove(j)
                    comp.add(j)
                    stack.append(j)
        out.append(comp)
    return out


def is_anti_nef(g: DualGraph, d: Cycle) -> bool:
    """True when D meets every curve non-positively (D . E_i <= 0 for all i)."""
    if not isinstance(d, Cycle) or d.graph != g:
        raise InputError("cycle does not live on this graph")
    return all(x <= 0 for x in d.image)
