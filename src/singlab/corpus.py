"""Parameterized families of resolution graphs and matching equations.

Graphs are generated from their parameters rather than stored, which
rules out transcription errors; a snapshot test pins the serialized
forms.  The three families:

fig2312(n)  chain E_0(-2) - ... - E_{2n-1}(-2) - E_{2n}(-1, genus 1).
            Shared resolution graph of two hypersurfaces whose geometric
            genera differ (n+1 versus 2n+1) -- the standard witness that
            the graph alone does not determine p_g.
fig244(m)   chain of 2m+1 (-2)-curves with the middle one of genus 1
            (resolution of x^2 + y^4 + z^{4m+4}).
brell3(m)   genus-1 central curve of self-intersection -3 with three
            chains of m (-2)-curves (resolution of x^3 + y^3 + z^{3m+3}).
"""

from __future__ import annotations

from functools import lru_cache

from ._linalg import check_store
from .errors import InputError, _is_int
from .graph import DualGraph, Vertex

__all__ = [
    "fig2312",
    "fig244",
    "brell3",
    "CORPUS",
    "emit",
    "genus_options",
    "fig2312_equation_low_pg",
    "fig2312_equation_high_pg",
    "fig244_equation",
    "brell3_equation",
    "brieskorn_equation",
]

# one graph per parameter; typed, so that True or 1.0 is checked (and
# refused) instead of finding the graph kept for 1
_family = lru_cache(maxsize=None, typed=True)


def _check_param(n) -> None:
    if not _is_int(n) or n < 0:
        raise InputError(f"parameter must be an integer >= 0, got {n!r}")


def _check_tree(n, per: int) -> None:
    """``_check_param``, then the store of the elimination of the tree."""
    _check_param(n)
    check_store(per * n + 1, per * n)  # N curves, N - 1 edges


@_family
def fig2312(n: int) -> DualGraph:
    """Chain of 2n (-2)-curves ending in a genus-1 (-1)-curve."""
    _check_tree(n, 2)
    vertices = [Vertex(f"E{i}", -2, 0) for i in range(2 * n)]
    vertices.append(Vertex(f"E{2 * n}", -1, 1))
    edges = [(f"E{i}", f"E{i + 1}", 1) for i in range(2 * n)]
    return DualGraph(vertices, edges)


@_family
def fig244(m: int) -> DualGraph:
    """Chain of 2m+1 (-2)-curves, middle one of genus 1."""
    _check_tree(m, 2)
    names = [f"E{j}_1" for j in range(m)] + ["Em"] + [f"E{j}_2" for j in reversed(range(m))]
    vertices = [Vertex(name, -2, 1 if name == "Em" else 0) for name in names]
    edges = [(names[i], names[i + 1], 1) for i in range(len(names) - 1)]
    return DualGraph(vertices, edges)


@_family
def brell3(m: int) -> DualGraph:
    """Genus-1 (-3)-curve with three chains of m (-2)-curves."""
    _check_tree(m, 3)
    vertices = [Vertex("E", -3, 1)]
    edges = []
    for s in (1, 2, 3):
        for j in range(m):
            vertices.append(Vertex(f"E{j}_{s}", -2, 0))
        if m:
            edges.append(("E", f"E{m - 1}_{s}", 1))
            for j in range(m - 1):
                edges.append((f"E{j}_{s}", f"E{j + 1}_{s}", 1))
    return DualGraph(vertices, edges)


CORPUS = {"fig2312": fig2312, "fig244": fig244, "brell3": brell3}


def emit(name: str, param: int) -> DualGraph:
    try:
        family = CORPUS[name]
    except KeyError:
        known = ", ".join(sorted(CORPUS))
        raise InputError(f"unknown corpus family {name!r} (known: {known})") from None
    return family(param)


def genus_options(name: str, param: int) -> tuple[int, ...]:
    """Geometric genera realized by hypersurfaces with this graph."""
    _check_param(param)
    if name == "fig2312":
        return (param + 1, 2 * param + 1)
    if name in ("fig244", "brell3"):
        return (param + 1,)
    raise InputError(f"unknown corpus family {name!r}")


# equations, as (weights, polynomial text) pairs -------------------------


def fig2312_equation_low_pg(n: int) -> tuple[tuple[int, int, int], str]:
    """x^2 + z^{4n+3} + y^4 z, weighted (4n+3, 2n+1, 2); genus n+1."""
    return (4 * n + 3, 2 * n + 1, 2), f"x^2+z^{4 * n + 3}+y^4*z"


def fig2312_equation_high_pg(n: int) -> tuple[tuple[int, int, int], str]:
    """x^2 + y^3 + z^{6(2n+1)}, weighted (3(2n+1), 2(2n+1), 1); genus 2n+1."""
    return (3 * (2 * n + 1), 2 * (2 * n + 1), 1), f"x^2+y^3+z^{6 * (2 * n + 1)}"


def brieskorn_equation(a: int, b: int, c: int) -> tuple[tuple[int, int, int], str]:
    return (b * c, a * c, a * b), f"x^{a}+y^{b}+z^{c}"


def fig244_equation(m: int) -> tuple[tuple[int, int, int], str]:
    return brieskorn_equation(2, 4, 4 * m + 4)


def brell3_equation(m: int) -> tuple[tuple[int, int, int], str]:
    return brieskorn_equation(3, 3, 3 * m + 3)
