"""One owner of the product M . D: ``Cycle.image``.

A cycle carries its image, so the package reads ``graph.mat_vec`` in two
places only: ``Cycle.image``, which multiplies a cycle that holds no
image once and keeps the result, and ``canonical_cycle``, whose
re-substitution check multiplies K's integer solution, not a cycle.  The
callers are read from the source with ``ast``, so nothing is run.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "singlab"


class _Readers(ast.NodeVisitor):
    """The qualified name of every function that reads the name
    ``mat_vec``, as a bare name or as an attribute."""

    def __init__(self, module: str):
        self.module = module
        self.scope: list[str] = []
        self.found: set[tuple[str, str]] = set()

    def _enter(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _enter

    def _read(self, node):
        if isinstance(node.ctx, ast.Load):
            self.found.add((self.module, ".".join(self.scope) or "<module>"))

    def visit_Name(self, node):
        if node.id == "mat_vec":
            self._read(node)

    def visit_Attribute(self, node):
        if node.attr == "mat_vec":
            self._read(node)
        self.generic_visit(node)


def test_only_cycle_image_and_the_check_of_k_multiply():
    readers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        visitor = _Readers(path.stem)
        visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
        readers |= visitor.found
    assert readers == {("graph", "Cycle.image"), ("cycles", "canonical_cycle")}
