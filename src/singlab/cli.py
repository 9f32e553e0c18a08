"""Command-line front end.

Subcommands:
    graph analyze FILE          validity, matrix, fundamental and canonical
                                cycles, chi, numerically-Gorenstein flag
    elliptic sequence FILE      the elliptic sequence with all checks
    classify FILE --pg N        Gorenstein-cone elliptic ideals
    brieskorn A B C             genus, a-invariant, normal reduction number
    wh --weights WX,WY,WZ --poly EXPR
                                genus of a weighted-homogeneous hypersurface
    artinian colength --poly EXPR --ideal LIST [--saturate]
                                exact quotient dimension
    corpus emit NAME PARAM      print a generated corpus graph document
    verify-paper                run the acceptance suite

Every subcommand takes --format json|text.  Exit codes: 0 success, 1 input
error (a malformed command line included) or stdout closed early, 2 internal
invariant violation.  A command line is read one of two ways.  A plain
leaf command line (each option spelled in full and given once, every value
one its type and choices accept) is read straight off ``_COMMANDS``; it
builds no argument parser and imports no argparse.  Any other line goes to
the full command tree, so argparse writes every help text, usage line and
error.

A ``--format json`` report is the bytes of ``json.dumps(doc, indent=2,
sort_keys=True)``, written by one writer here, ``_json``: with an
indent, json runs its pure-Python encoder, which cost a fifth of a small
command.  ``verify-paper`` keeps ``json.dumps``, because its keys keep
their order and are not sorted.
"""

from __future__ import annotations

import json
import os
import sys
from json.encoder import encode_basestring_ascii as _quote
from types import SimpleNamespace

from . import corpus, verify
from .artinian import DensePoly, MonomialIdeal, colength, colength_saturating
from .classify import classify_gorenstein_elliptic_ideals
from .cycles import canonical_cycle, chi, fundamental_cycle, is_numerically_gorenstein
from .elliptic import check_minus_one_chains, elliptic_sequence, is_elliptic
from .errors import InputError, InternalCheckError, SinglabError
from .graph import (
    cycle_to_json,
    graph_to_json,
    intersection_matrix,
    parse_graph,
    serialize_graph,
)
from .wh import WeightedPoly, a_invariant, br_maximal_ideal_brieskorn, pg_brieskorn, pg_weighted_homogeneous


def _read_graph(path: str):
    """The graph document at ``path`` ('-' for stdin), read as UTF-8."""
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    return parse_graph(text)


def _fmt_value(value):
    if isinstance(value, dict):
        return "{" + ", ".join(f"{k}: {_fmt_value(v)}" for k, v in value.items()) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_fmt_value(v) for v in value) + "]"
    return str(value)


_int = int.__repr__  # json's own, also for an int subclass


def _json(value, margin="\n") -> str:
    """``value`` as ``json.dumps(value, indent=2, sort_keys=True)`` writes
    it, ``margin`` the line break and indent of its own level.

    A report holds dicts with string keys, lists (or tuples), strings,
    ints, bools and None; anything else, a float or a non-string key
    included, raises TypeError.  A dict whose values are all ints (a
    cycle) and a list of only ints or only strings (a matrix row, a
    support) are written with one join.  An int past Python's limit on
    the digits of a decimal string raises ValueError, as in json.
    """
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return _int(value)
    inner = margin + "  "
    if isinstance(value, dict):
        keys = sorted(value)
        if set(map(type, value.values())) == {int}:
            body = [f"{_quote(k)}: {_int(value[k])}" for k in keys]
        else:
            body = [f"{_quote(k)}: {_json(value[k], inner)}" for k in keys]
        ends = "{}"
    elif isinstance(value, (list, tuple)):
        kinds = set(map(type, value))
        if kinds == {int}:
            body = map(_int, value)
        elif kinds == {str}:
            body = map(_quote, value)
        else:
            body = [_json(v, inner) for v in value]
        ends = "[]"
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    if not value:
        return ends
    return ends[0] + inner + ("," + inner).join(body) + margin + ends[1]


def _emit(doc: dict, fmt: str, text_renderer=None):
    """Print the report, rendered whole first: an answer holding an integer
    past Python's limit on the digits of a decimal string is an input
    error, and nothing of it is printed."""
    try:
        if fmt == "json":
            text = _json(doc)
        elif text_renderer is not None:
            text = text_renderer(doc)
        else:
            text = "\n".join(f"{key}: {_fmt_value(value)}" for key, value in doc.items())
    except ValueError as exc:
        raise InputError(f"cannot print the answer: {exc}") from None
    print(text)


# -- subcommand bodies -----------------------------------------------------


def _cmd_graph_analyze(args) -> int:
    g = _read_graph(args.file)
    matrix = intersection_matrix(g)  # the n^2 budget refuses first, before any loop runs
    ze = fundamental_cycle(g)
    k = canonical_cycle(g)
    doc = {
        "valid": True,
        "negative_definite": True,  # every DualGraph is, by construction
        "minimal": g.is_minimal,
        "vertices": list(g.ids),
        "matrix": matrix,
        "fundamental_cycle": cycle_to_json(ze),
        "chi_fundamental": chi(g, ze),
        "elliptic": is_elliptic(g),
        "canonical_cycle": cycle_to_json(k),
        "numerically_gorenstein": is_numerically_gorenstein(g),
    }
    _emit(doc, args.format)
    return 0


def _cmd_elliptic_sequence(args) -> int:
    g = _read_graph(args.file)
    seq = elliptic_sequence(g)
    chains = check_minus_one_chains(g, seq)
    doc = seq.to_json_dict()
    doc["checks"] = {
        "orthogonality": True,
        "degrees_monotone": True,
        "partial_sums_anti_nef": True,
        "canonical_restriction": True,
        "euler_characteristic_zero": True,
        "total_is_anticanonical": True,
        "minus_one_chains": {
            "indices": list(chains.minus_one_indices),
            "chain": list(chains.chain),
        },
    }
    _emit(doc, args.format)
    return 0


def _cmd_classify(args) -> int:
    g = _read_graph(args.file)
    report = classify_gorenstein_elliptic_ideals(g, args.pg, char0=not args.no_char0)

    def render(doc):
        lines = [f"m: {doc['m']}   p_g: {doc['pg']}   gamma: {doc['gamma']}   "
                 f"beta: {doc['beta']}   maximal: {doc['maximal']}",
                 f"admissible indices: {doc['af']}",
                 f"zeta: {doc['zeta']}"]
        for ideal in doc["ideals"]:
            lines.append(
                f"  t={ideal['t']}  cycle={_fmt_value(ideal['cycle'])}  "
                f"colength={ideal['colength']}  e0={ideal['e0']}  "
                f"e2bar={ideal['e2bar']}  q={ideal['q']}  kind={ideal['kind']}"
            )
        if "note" in doc:
            lines.append(f"note: {doc['note']}")
        return "\n".join(lines)

    _emit(report.to_json_dict(), args.format, render)
    return 0


def _cmd_brieskorn(args) -> int:
    a, b, c = args.a, args.b, args.c
    doc = {
        "a_invariant": a * b * c - (a * b + b * c + c * a),
        "pg": pg_brieskorn(a, b, c),
        "br_maximal_ideal": br_maximal_ideal_brieskorn(a, b, c),
    }
    _emit(doc, args.format)
    return 0


def _cmd_wh(args) -> int:
    try:
        weights = tuple(int(w) for w in args.weights.split(","))
    except ValueError:
        raise InputError(f"--weights must be three comma-separated integers, got {args.weights!r}") from None
    if len(weights) != 3:
        raise InputError("--weights must have exactly three entries")
    poly = WeightedPoly.from_text(weights, args.poly)
    doc = {
        "weights": list(weights),
        "degree": poly.degree,
        "a_invariant": a_invariant(weights, poly.degree),
        "pg": pg_weighted_homogeneous(poly),
    }
    _emit(doc, args.format)
    return 0


def _cmd_artinian_colength(args) -> int:
    f = DensePoly.from_text(args.poly)
    ideal = MonomialIdeal.from_text(args.ideal)
    if args.saturate:
        value = colength_saturating(f, ideal, cap=args.cap)
    else:
        value = colength(f, ideal)
    doc = {
        "poly": args.poly,
        "ideal": args.ideal,
        "saturated": bool(args.saturate),
        "colength": value,
    }
    _emit(doc, args.format)
    return 0


def _cmd_corpus_emit(args) -> int:
    g = corpus.emit(args.name, args.param)
    _emit(graph_to_json(g), args.format, lambda doc: serialize_graph(g))
    return 0


def _cmd_verify_paper(args) -> int:
    results = verify.run_all()
    if args.format == "json":
        print(json.dumps(
            [{"name": r.name, "passed": r.passed, "detail": r.detail} for r in results],
            indent=2,
        ))
    else:
        width = max(len(r.name) for r in results)
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            print(f"{r.name:<{width}}  {status}  {r.detail}")
        passed = sum(r.passed for r in results)
        print(f"total: {passed}/{len(results)} passed")
    if all(r.passed for r in results):
        return 0
    return 2 if any(not r.passed and r.internal for r in results) else 1


# -- parser ---------------------------------------------------------------

_FILE = (("file",), {"help": "graph JSON document ('-' for stdin)"})
# every leaf's first argument
_FORMAT = (("--format",), {"choices": ("text", "json"), "default": "text",
                           "help": "output format (default: text)"})

# (command words, help, arguments in order as (flags, add_argument keywords),
# handler); entries sharing a first word form a group, listed in this order
_COMMANDS = (
    (("graph", "analyze"), "validate a graph file and print its basic invariants",
     (_FILE,), _cmd_graph_analyze),
    (("elliptic", "sequence"), "compute and verify the elliptic sequence",
     (_FILE,), _cmd_elliptic_sequence),
    (("classify",), "classify Gorenstein-cone elliptic ideals", (
        _FILE,
        (("--pg",), {"type": int, "required": True, "help": "geometric genus (analytic input)"}),
        (("--no-char0",), {"action": "store_true",
                           "help": "refuse results that need characteristic zero"}),
    ), _cmd_classify),
    (("brieskorn",), "invariants of x^a + y^b + z^c", (
        (("a",), {"type": int}),
        (("b",), {"type": int}),
        (("c",), {"type": int}),
    ), _cmd_brieskorn),
    (("wh",), "genus of a weighted-homogeneous hypersurface", (
        (("--weights",), {"required": True, "help": "WX,WY,WZ"}),
        (("--poly",), {"required": True, "help": "e.g. 'x^2+z^7+y^4*z'"}),
    ), _cmd_wh),
    (("artinian", "colength"), "dim of k[x,y,z]/((f) + M)", (
        (("--poly",), {"required": True}),
        (("--ideal",), {"required": True, "help": "comma-separated monomials, e.g. 'x,y,z^2'"}),
        (("--saturate",), {"action": "store_true",
                           "help": "add pure powers until the value stabilizes"}),
        (("--cap",), {"type": int, "default": 256,
                      "help": "largest pure-power exponent tried when saturating"}),
    ), _cmd_artinian_colength),
    (("corpus", "emit"), "print a corpus graph", (
        (("name",), {"help": "fig2312 | fig244 | brell3"}),
        (("param",), {"type": int}),
    ), _cmd_corpus_emit),
    (("verify-paper",), "run the full acceptance suite", (), _cmd_verify_paper),
)
_GROUPS = {
    "graph": "graph-level computations",
    "elliptic": "elliptic-sequence computations",
    "artinian": "exact quotient dimensions",
    "corpus": "generated graph families",
}


def _fill(parser, arguments, handler):
    """Declare a leaf's arguments on ``parser``: --format, which every leaf
    takes, then its own, in order; its handler is the default."""
    for flags, options in (_FORMAT, *arguments):
        parser.add_argument(*flags, **options)
    parser.set_defaults(handler=handler)
    return parser


def _build_parser():
    """The full command tree, for every line ``_read_plain`` declines; the
    one place argparse is imported."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        """An ArgumentParser whose usage errors exit 1, like any invalid input."""

        def error(self, message):
            self.print_usage(sys.stderr)
            self.exit(1, f"{self.prog}: error: {message}\n")

    parser = _Parser(
        prog="singlab",
        description="Exact invariants of resolution graphs of normal surface singularities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    groups = {}
    for words, help_text, arguments, handler in _COMMANDS:
        if len(words) == 1:
            target = sub
        else:
            if words[0] not in groups:
                group = sub.add_parser(words[0], help=_GROUPS[words[0]])
                groups[words[0]] = group.add_subparsers(dest="subcommand", required=True)
            target = groups[words[0]]
        _fill(target.add_parser(words[-1], help=help_text), arguments, handler)
    return parser


def _read_plain(entry, argv) -> SimpleNamespace | None:
    """The namespace the full tree's leaf of ``entry`` returns for
    ``argv``, read straight off the entry, or None unless ``argv`` is plain.

    Plain means: each option exact and given once, as ``--opt VALUE`` or
    ``--opt=VALUE``, a ``store_true`` flag bare; no separated value or
    positional that starts with '-', but '-' itself (stdin), and no
    ``=`` value '--' (argparse drops it); every value accepted by its
    ``type`` and ``choices``; every positional and required option present
    and nothing else.  Help, abbreviations, '--' and every error are
    argparse's, so it answers only where argparse reads the same.  It
    reads the add_argument keywords ``_COMMANDS`` uses: ``type``,
    ``choices``, ``required``, ``default`` and ``action="store_true"``.
    """
    _, _, arguments, handler = entry
    specs = (_FORMAT, *arguments)
    named = {flags[0]: options for flags, options in specs}
    given, loose = {}, []
    tokens = iter(argv)
    for token in tokens:
        if token[:1] != "-" or token == "-":
            loose.append(token)
            continue
        flag, eq, value = token.partition("=")
        options = named.get(flag)
        if options is None or flag in given:
            return None
        if options.get("action") == "store_true":
            if eq:
                return None
            value = True
        else:
            if not eq:
                value = next(tokens, None)
                if value is None or value[:1] == "-" and value != "-":
                    return None
            elif value == "--":
                return None
        given[flag] = value
    positionals = [flags[0] for flags, _ in specs if flags[0][0] != "-"]
    if len(loose) != len(positionals):
        return None
    given.update(zip(positionals, loose))
    out = {}
    for (flag, *_), options in specs:
        if flag in given:
            value = given[flag]
            if "type" in options:
                try:
                    value = options["type"](value)
                except (TypeError, ValueError):
                    return None
            if value not in options.get("choices", (value,)):
                return None
        elif options.get("required"):
            return None
        else:
            value = options.get("default", False if "action" in options else None)
        out[flag[2:].replace("-", "_") if flag[0] == "-" else flag] = value
    return SimpleNamespace(**out, handler=handler)


def _parse(argv: list):
    """Read a command line: a plain leaf line by ``_read_plain``, which
    builds no parser, and any other by the full tree.

    argparse reads an ``=`` value '--' as an empty list and checks neither
    its type nor its choices; no command takes a list, so such a line is
    refused as a usage error.
    """
    for entry in _COMMANDS:
        words = entry[0]
        if tuple(argv[:len(words)]) == words:
            args = _read_plain(entry, argv[len(words):])
            if args is not None:
                return args
            break
    parser = _build_parser()
    args = parser.parse_args(argv)
    for dest, value in vars(args).items():
        if isinstance(value, list):
            parser.error(f"argument --{dest.replace('_', '-')}: expected one argument")
    return args


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        code = args.handler(args)
        sys.stdout.flush()  # a reader that is gone shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader is gone; devnull takes what is buffered, so exit is quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except InternalCheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SinglabError as exc:  # InputError, or any other package error: exit 1
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
