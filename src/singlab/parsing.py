"""Recursive-descent parsers for polynomial and monomial input.

Syntax: a polynomial is a signed sum of terms ``c*x^a*y^b*z^c`` in the
three variables x, y, z; the ``*`` between factors and a ``^1`` exponent
may be dropped, coefficients are integers.  A monomial list is a
comma-separated sequence of coefficient-free monomials, e.g. ``x,y,z^2``.
Errors carry the exact offset into the input.
"""

from __future__ import annotations

from .errors import ParseError

_VARS = {"x": 0, "y": 1, "z": 2}
# ASCII only: str.isdigit also accepts digits such as "²" that int() rejects.
_DIGITS = frozenset("0123456789")

Term = tuple[tuple[int, int, int], int]


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str | None:
        self.skip_ws()
        if self.pos >= len(self.text):
            return None
        return self.text[self.pos]

    def take(self) -> str:
        ch = self.peek()
        if ch is None:
            raise ParseError("unexpected end of input", self.text, self.pos)
        self.pos += 1
        return ch

    def error(self, message: str):
        raise ParseError(message, self.text, min(self.pos, len(self.text)))

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in _DIGITS:
            self.pos += 1
        if self.pos == start:
            self.error("expected an integer")
        try:
            return int(self.text[start:self.pos])
        except ValueError:  # beyond the interpreter's int-string limit
            raise ParseError("integer too long", self.text, start) from None


def _factor(sc: _Scanner, exps: list[int]):
    ch = sc.take()
    if ch not in _VARS:
        sc.pos -= 1
        sc.error(f"expected a variable (x, y or z), found {ch!r}")
    exponent = 1
    if sc.peek() == "^":
        sc.take()
        exponent = sc.integer()
    exps[_VARS[ch]] += exponent


def _term(sc: _Scanner, sign: int) -> Term:
    coeff = 1
    exps = [0, 0, 0]
    ch = sc.peek()
    if ch in _DIGITS:
        coeff = sc.integer()
        if sc.peek() == "*":
            sc.take()
            _factor(sc, exps)
        elif sc.peek() in _VARS:
            _factor(sc, exps)
    elif ch in _VARS:
        _factor(sc, exps)
    else:
        sc.error("expected a term")
    while True:
        nxt = sc.peek()
        if nxt == "*":
            sc.take()
            _factor(sc, exps)
        elif nxt in _VARS:
            _factor(sc, exps)
        else:
            break
    return (exps[0], exps[1], exps[2]), sign * coeff


def parse_polynomial(text: str) -> list[Term]:
    """Parse into a list of ((ex, ey, ez), coefficient) terms, unmerged."""
    sc = _Scanner(text)
    terms: list[Term] = []
    sign = 1
    ch = sc.peek()
    if ch == "+" or ch == "-":
        sc.take()
        sign = -1 if ch == "-" else 1
    elif ch is None:
        sc.error("empty polynomial")
    terms.append(_term(sc, sign))
    while True:
        ch = sc.peek()
        if ch is None:
            return terms
        if ch not in "+-":
            sc.error(f"expected '+' or '-', found {ch!r}")
        sc.take()
        terms.append(_term(sc, -1 if ch == "-" else 1))


def parse_monomial_list(text: str) -> list[tuple[int, int, int]]:
    """Parse ``x,y^2,x*z`` into exponent triples."""
    sc = _Scanner(text)
    out = []
    while True:
        exps = [0, 0, 0]
        _factor(sc, exps)
        while sc.peek() == "*" or sc.peek() in _VARS:
            if sc.peek() == "*":
                sc.take()
            _factor(sc, exps)
        out.append((exps[0], exps[1], exps[2]))
        ch = sc.peek()
        if ch is None:
            return out
        if ch != ",":
            sc.error(f"expected ',' between monomials, found {ch!r}")
        sc.take()
