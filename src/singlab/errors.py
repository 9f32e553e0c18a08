"""Exception hierarchy shared by every singlab module."""

from __future__ import annotations


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
    """The anti-nef enumeration, the p_g lattice count or an Artinian
    staircase and its matrix would exceed the candidate budget.  This is
    reported, never silently truncated; raise SINGLAB_MAX_ENUM if the scan
    is genuinely wanted.
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
