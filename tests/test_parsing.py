from __future__ import annotations

import pytest

from singlab.errors import ParseError
from singlab.parsing import parse_monomial_list, parse_polynomial


def test_basic_terms():
    assert parse_polynomial("x^2+y^3+z^18") == [
        ((2, 0, 0), 1),
        ((0, 3, 0), 1),
        ((0, 0, 18), 1),
    ]


def test_optional_star_and_exponent_one():
    assert parse_polynomial("2*x*y^2*z") == [((1, 2, 1), 2)]
    assert parse_polynomial("2x y^2 z") == [((1, 2, 1), 2)]
    assert parse_polynomial("x^1") == [((1, 0, 0), 1)]


def test_signs_and_constants():
    assert parse_polynomial("-x+3") == [((1, 0, 0), -1), ((0, 0, 0), 3)]
    assert parse_polynomial("+2*x - 4*z^2") == [((1, 0, 0), 2), ((0, 0, 2), -4)]
    assert parse_polynomial("7") == [((0, 0, 0), 7)]


def test_repeated_variables_accumulate():
    assert parse_polynomial("x*x*y^2*x") == [((3, 2, 0), 1)]


def test_whitespace_tolerated():
    assert parse_polynomial("  x ^ 2 +  y  ") == [((2, 0, 0), 1), ((0, 1, 0), 1)]


def test_error_positions():
    with pytest.raises(ParseError) as err:
        parse_polynomial("x^2+3*w")
    assert err.value.pos == 6
    with pytest.raises(ParseError) as err:
        parse_polynomial("x^")
    assert err.value.pos == 2
    with pytest.raises(ParseError) as err:
        parse_polynomial("x++y")
    assert err.value.pos == 2
    with pytest.raises(ParseError) as err:
        parse_polynomial("")
    assert err.value.pos == 0
    with pytest.raises(ParseError):
        parse_polynomial("x^2+z*(z^6+y^4)")  # parentheses are not supported
    # only ASCII digits: str.isdigit would accept the superscript
    with pytest.raises(ParseError) as err:
        parse_polynomial("x^²+y")
    assert err.value.pos == 2
    with pytest.raises(ParseError) as err:
        parse_polynomial("x+²y")
    assert err.value.pos == 2
    # a literal beyond the interpreter's int-string limit
    with pytest.raises(ParseError, match="integer too long") as err:
        parse_polynomial("x^" + "9" * 5000 + "+y")
    assert err.value.pos == 2


def test_caret_rendering():
    with pytest.raises(ParseError) as err:
        parse_polynomial("x^2+3*w")
    message = str(err.value)
    lines = message.splitlines()
    assert lines[1].endswith("x^2+3*w")
    assert lines[2].endswith("      ^")


def test_monomial_list():
    assert parse_monomial_list("x,y,z^2") == [(1, 0, 0), (0, 1, 0), (0, 0, 2)]
    assert parse_monomial_list("x*y^2, z") == [(1, 2, 0), (0, 0, 1)]
    assert parse_monomial_list("x, y^2, y*z, z^3") == [
        (1, 0, 0),
        (0, 2, 0),
        (0, 1, 1),
        (0, 0, 3),
    ]


def test_monomial_list_errors():
    with pytest.raises(ParseError):
        parse_monomial_list("x,,y")
    with pytest.raises(ParseError):
        parse_monomial_list("2*x")  # coefficients are not monomials
    with pytest.raises(ParseError):
        parse_monomial_list("x y,")
