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
invariant violation.  A call builds one argument parser, that of its own
leaf command; help and usage errors above the leaves use the full tree,
whose leaves are filled by the same ``_fill``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

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
    if path == "-":
        return parse_graph(sys.stdin.read())
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    return parse_graph(text)


def _fmt_value(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, dict):
        return "{" + ", ".join(f"{k}: {_fmt_value(v)}" for k, v in value.items()) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_fmt_value(v) for v in value) + "]"
    return str(value)


def _emit(doc: dict, fmt: str, text_renderer=None):
    if fmt == "json":
        print(json.dumps(doc, indent=2, sort_keys=True))
    elif text_renderer is not None:
        text_renderer(doc)
    else:
        for key, value in doc.items():
            print(f"{key}: {_fmt_value(value)}")


# -- subcommand bodies -----------------------------------------------------


def _cmd_graph_analyze(args) -> int:
    g = _read_graph(args.file)
    ze = fundamental_cycle(g)
    k = canonical_cycle(g)
    doc = {
        "valid": True,
        "negative_definite": True,  # every DualGraph is, by construction
        "minimal": g.is_minimal,
        "vertices": list(g.ids),
        "matrix": intersection_matrix(g),
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
        print(f"m: {doc['m']}   p_g: {doc['pg']}   gamma: {doc['gamma']}   "
              f"beta: {doc['beta']}   maximal: {doc['maximal']}")
        print(f"admissible indices: {doc['af']}")
        print(f"zeta: {doc['zeta']}")
        for ideal in doc["ideals"]:
            print(
                f"  t={ideal['t']}  cycle={_fmt_value(ideal['cycle'])}  "
                f"colength={ideal['colength']}  e0={ideal['e0']}  "
                f"e2bar={ideal['e2bar']}  q={ideal['q']}  kind={ideal['kind']}"
            )
        if "note" in doc:
            print(f"note: {doc['note']}")

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
    if args.format == "json":
        print(json.dumps(graph_to_json(g), indent=2, sort_keys=True))
    else:
        print(serialize_graph(g))
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


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors exit 1, like any invalid input."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _fill(parser, arguments, handler):
    """Declare a leaf's arguments on ``parser``: --format, which every leaf
    takes, then its own, in order; its handler is the default."""
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default: text)",
    )
    for flags, options in arguments:
        parser.add_argument(*flags, **options)
    parser.set_defaults(handler=handler)
    return parser


def _build_parser() -> argparse.ArgumentParser:
    """The full command tree, for help and usage errors above the leaves."""
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


def _leaf_parser(entry) -> argparse.ArgumentParser:
    """One leaf command's parser alone, the one parser a call builds: the
    same ``_Parser`` filled by the same ``_fill`` as in ``_build_parser``."""
    words, _, arguments, handler = entry
    return _fill(_Parser(prog=" ".join(("singlab", *words))), arguments, handler)


def _parse(argv: list):
    """Parse with only the leaf parser that argv's command words name.

    It is built as the full tree builds that subparser, so its help and
    errors read the same.  Anything else (no command, an unknown one, a
    bare group, top-level options, or arguments the leaf does not know,
    which the full tree reports at the top level) goes to the full tree.
    """
    for entry in _COMMANDS:
        words = entry[0]
        if tuple(argv[:len(words)]) == words:
            args, rest = _leaf_parser(entry).parse_known_args(argv[len(words):])
            if not rest:
                return args
            break
    return _build_parser().parse_args(argv)


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
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InternalCheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SinglabError as exc:  # any other package error counts as input
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
