"""Exception hierarchy shared by every singlab module; the one rule by
which input checks tell an integer (or an exact coefficient) from anything
else, and an exponent triple or polynomial term from any other shape; the
one cut that keeps a message quoting input short; and the one way a list
of ``(check, holds, detail)`` identities is raised on."""

from __future__ import annotations

from fractions import Fraction


def _is_int(x) -> bool:
    # bools (JSON true/false among them) count as ints in Python; not here
    return isinstance(x, int) and not isinstance(x, bool)


def _clip(text: str, limit: int = 80) -> str:
    """``text`` cut to ``limit`` characters and an ellipsis: a refusal
    names the offending value without echoing an input of any size."""
    return text if len(text) <= limit else text[:limit] + "..."


def _is_exact(x) -> bool:
    """An integer or a Fraction: no float, bool or string."""
    return _is_int(x) or isinstance(x, Fraction)


def _exponent_triple(exps) -> tuple[int, int, int]:
    """``exps`` as a tuple of three non-negative ints; anything else,
    whatever its shape, is refused with InputError."""
    try:
        exps = tuple(exps)
    except TypeError:
        pass
    if not (isinstance(exps, tuple) and len(exps) == 3
            and all(_is_int(e) and e >= 0 for e in exps)):
        raise InputError(f"bad exponent triple {exps!r}")
    return exps


def _exact_terms(terms):
    """Each (exponent triple, coefficient) term as a triple and a Fraction;
    a term of another shape, a coefficient that is not an int or a
    Fraction, or terms that are not iterable are refused with InputError."""
    try:
        terms = iter(terms)
    except TypeError:
        raise InputError(
            f"terms must be an iterable of (exponent triple, coefficient) pairs, got {terms!r}"
        ) from None
    for term in terms:
        try:
            exps, coeff = term
        except (TypeError, ValueError):
            raise InputError(
                f"bad term {term!r}: expected (exponent triple, coefficient)"
            ) from None
        exps = _exponent_triple(exps)
        if not _is_exact(coeff):
            raise InputError(f"coefficient {coeff!r} is not an integer or a Fraction")
        yield exps, Fraction(coeff)


class SinglabError(Exception):
    """Base class for all errors raised by this package."""


class InputError(SinglabError):
    """Invalid caller input: malformed documents, broken preconditions, or
    numerically inconsistent data (CLI exit code 1)."""


class ParseError(InputError):
    """Syntax error carrying the exact offset into the offending text."""

    def __init__(self, message: str, text: str, pos: int):
        self.bare_message = message
        self.text = text
        self.pos = pos
        caret = " " * pos + "^"
        super().__init__(f"{message} at position {pos}\n  {text}\n  {caret}")


class EnumerationLimitError(InputError):
    """The anti-nef enumeration, the p_g lattice count, an Artinian
    staircase and its matrix, the Laufer loop of a fundamental cycle, the
    elimination of a graph's form or its dense view would exceed the
    candidate budget.  This is reported, never silently
    truncated; raise SINGLAB_MAX_ENUM if the scan is genuinely wanted.
    """


class InternalCheckError(SinglabError):
    """A mathematical cross-check failed (CLI exit code 2).

    Raised when the code detects that a structural fact it relies on does
    not hold for the data at hand; ``check`` names the violated property.
    Seeing this usually means an input claim (such as a supplied geometric
    genus) is wrong, or there is a bug.
    """

    def __init__(self, check: str, detail: str = ""):
        self.check = check
        self.detail = detail
        msg = f"internal cross-check failed: {check}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


def _raise_at_first_failure(items) -> None:
    """Raise InternalCheckError(check, detail) at the first of the
    ``(check, holds, detail)`` items that does not hold."""
    for check, holds, detail in items:
        if not holds:
            raise InternalCheckError(check, detail)
