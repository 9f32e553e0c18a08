"""Kernel selection and enumeration budgets.

At import time this module picks the compiled scan kernels when they were
built and the environment does not say otherwise; every call still falls
back to the exact pure-Python kernels when the compiled guard finds the
input outside its safe 64-bit range, so results are identical either way.

Environment variables:
    SINGLAB_PURE      non-empty: never use the compiled kernels.
    SINGLAB_MAX_ENUM  candidate budget for exhaustive scans (default 10**7).
"""

from __future__ import annotations

import os
from math import prod

from . import _kernels_py
from .errors import EnumerationLimitError, InputError

DEFAULT_MAX_ENUM = 10**7

if os.environ.get("SINGLAB_PURE"):
    _fast = None
else:
    try:
        from . import _kernels as _fast  # type: ignore[attr-defined]
    except ImportError:
        _fast = None

USING_COMPILED = _fast is not None


def max_enum() -> int:
    raw = os.environ.get("SINGLAB_MAX_ENUM")
    if raw is None:
        return DEFAULT_MAX_ENUM
    try:
        value = int(raw)
        if value < 1:
            raise ValueError
    except ValueError:
        raise InputError(f"SINGLAB_MAX_ENUM must be a positive integer, got {raw!r}") from None
    return value


def box_size(bounds) -> int:
    return prod(b + 1 for b in bounds)


def check_budget(bounds, limit: int | None = None, what: str = "enumeration") -> int:
    size = box_size(bounds)
    cap = max_enum() if limit is None else limit
    if size > cap:
        raise EnumerationLimitError(
            f"{what} needs {size} candidates, above the budget of {cap}; "
            "raise SINGLAB_MAX_ENUM to force it"
        )
    return size


def _dispatch(name, *args):
    if _fast is not None:
        try:
            return getattr(_fast, name)(*args)
        except OverflowError:
            pass  # outside the compiled 64-bit range; use exact fallback
    return getattr(_kernels_py, name)(*args)


def antinef_in_box(matrix, bounds):
    return _dispatch("antinef_in_box", matrix, bounds)


def min_twochi_in_box(matrix, adj, bounds):
    return _dispatch("min_twochi_in_box", matrix, adj, bounds)
