"""Spans around the calls into singlab's layers, recorded from outside.

``Tracer.patch`` swaps each listed function for a wrapper in every loaded
``singlab`` module that refers to it (``from .x import f`` copies the
reference, so patching the defining module alone would miss callers), and
wraps the acceptance checks held in ``verify.CHECKS``.  A wrapper records
(operation, span name, parent, start, end, raised) in memory; the program
itself is not edited.  Self time of a span is its duration minus the
durations of its direct children, so the self times of one operation add
up to the operation's wall time.  ``Marks`` wraps a few coarse functions
the same way for the untraced passes and records only timestamps.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, function, span name).  Several functions may share a span name;
# the name is the per-layer metric their self time adds up to.
SPANS = (
    ("graph", "parse_graph", "graph.parse_s"),
    ("graph", "graph_from_json", "graph.parse_s"),
    ("graph", "is_negative_definite", "graph.negdef_s"),
    ("cycles", "fundamental_cycle", "cycles.fundamental_s"),
    ("cycles", "canonical_cycle", "cycles.canonical_s"),
    ("cycles", "chi", "cycles.chi_s"),
    ("elliptic", "is_elliptic", "elliptic.is_elliptic_s"),
    ("elliptic", "chi_nonnegative_check", "elliptic.is_elliptic_s"),
    ("elliptic", "minimally_elliptic_cycle", "elliptic.emin_s"),
    ("elliptic", "elliptic_sequence", "elliptic.sequence_s"),
    ("elliptic", "check_minus_one_chains", "elliptic.chains_s"),
    ("classify", "classify_gorenstein_elliptic_ideals", "classify.classify_s"),
    ("classify", "normal_hilbert_data", "classify.hilbert_s"),
    ("cli", "_emit", "cli.emit_s"),
    ("parsing", "parse_polynomial", "parsing.poly_s"),
    ("parsing", "parse_monomial_list", "parsing.poly_s"),
    ("artinian", "standard_monomials", "artinian.staircase_s"),
    ("artinian", "colength", "artinian.colength_s"),
    ("artinian", "colength_saturating", "artinian.saturate_s"),
    ("wh", "pg_weighted_homogeneous", "wh.pg_s"),
    ("wh", "pg_brieskorn", "wh.brieskorn_s"),
    ("wh", "br_maximal_ideal_brieskorn", "wh.brieskorn_s"),
)
ROOT = "cli.main_s"  # one per operation: argument parsing and glue in cli.main
# A colength evaluated for --saturate is saturation work, not a plain colength.
INHERIT = {"artinian.colength_s": "artinian.saturate_s"}
LAYERS = ("cli", "graph", "cycles", "elliptic", "classify", "parsing", "artinian", "wh",
          "verify")


def singlab_modules():
    return {name[len("singlab."):]: mod for name, mod in sys.modules.items()
            if name.startswith("singlab.")}


def replace(mods, original, wrapper, undo):
    """Point every reference to ``original`` in ``mods`` at ``wrapper``."""
    for mod in mods.values():
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)
                undo.append((mod, key, original))


def restore(undo):
    for mod, key, original in reversed(undo):
        setattr(mod, key, original)
    undo.clear()


def span_names(check_names):
    names = [ROOT] + [name for _, _, name in SPANS]
    names += [f"verify.{check}_s" for check in check_names]
    return list(dict.fromkeys(names))


class Tracer:
    def __init__(self):
        self.spans = []  # [op, name, parent index, start, end, raised]
        self.stack = []
        self.op = None
        self._undo = []

    def _wrap(self, fn, name):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            label = name
            if parent is not None and INHERIT.get(name) == spans[parent][1]:
                label = spans[parent][1]
            idx = len(spans)
            record = [self.op, label, parent, clock(), None, False]
            spans.append(record)
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                record[5] = True
                raise
            finally:
                record[4] = clock()
                stack.pop()

        return wrapper

    def run_op(self, op_id, fn, *args):
        """Run one operation under its root span; returns fn's result."""
        self.op = op_id
        return self._wrap(fn, ROOT)(*args)

    def patch(self):
        mods = singlab_modules()
        for modname, attr, name in SPANS:
            original = getattr(mods[modname], attr)
            replace(mods, original, self._wrap(original, name), self._undo)
        verify = mods["verify"]
        self._undo.append((verify, "CHECKS", verify.CHECKS))
        verify.CHECKS = tuple((check, self._wrap(fn, f"verify.{check}_s"))
                              for check, fn in verify.CHECKS)

    def unpatch(self):
        restore(self._undo)

    def self_times(self):
        """{span name: summed self time}, {layer: spans that raised}."""
        child = [0.0] * len(self.spans)
        for op, name, parent, start, end, raised in self.spans:
            if parent is not None:
                child[parent] += end - start
        times, errors = {}, {}
        for k, (op, name, parent, start, end, raised) in enumerate(self.spans):
            times[name] = times.get(name, 0.0) + (end - start) - child[k]
            if raised:
                layer = name.split(".")[0]
                errors[layer] = errors.get(layer, 0) + 1
        return times, errors


# Coarse boundaries for the untraced passes: each is entered a handful of
# times per operation (about 3000 times in all in verify-paper), so the
# marks cost a few milliseconds in a pass of seconds, not the 5% that the
# full span set costs.
MARKS = (
    ("graph", "graph_from_json"),
    ("graph", "is_negative_definite"),
    ("cycles", "fundamental_cycle"),
    ("cycles", "canonical_cycle"),
    ("elliptic", "is_elliptic"),
    ("elliptic", "minimally_elliptic_cycle"),
    ("elliptic", "elliptic_sequence"),
    ("classify", "classify_gorenstein_elliptic_ideals"),
    ("classify", "normal_hilbert_data"),
    ("artinian", "colength"),
    ("artinian", "colength_saturating"),
    ("wh", "pg_weighted_homogeneous"),
)


class Marks:
    """Timestamps at entry to and exit from the ``MARKS`` functions and the
    acceptance checks, which cut each operation into segments whose
    durations add up to the operation's wall time.  The segments of one
    operation are the same on every pass, so each can be timed at its
    fastest pass."""

    def __init__(self):
        self.stamps = []
        self._undo = []

    def _wrap(self, fn):
        stamps, clock = self.stamps, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stamps.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                stamps.append(clock())

        return wrapper

    def patch(self):
        mods = singlab_modules()
        for modname, attr in MARKS:
            original = getattr(mods[modname], attr)
            replace(mods, original, self._wrap(original), self._undo)
        verify = mods["verify"]
        self._undo.append((verify, "CHECKS", verify.CHECKS))
        verify.CHECKS = tuple((check, self._wrap(fn)) for check, fn in verify.CHECKS)

    def unpatch(self):
        restore(self._undo)

    def segments(self, start, end):
        """Durations between ``start``, the stamps since the last call and ``end``."""
        points = [start, *self.stamps, end]
        self.stamps.clear()
        return tuple(b - a for a, b in zip(points, points[1:]))
