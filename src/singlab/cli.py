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

Every subcommand takes --format json|text.  Exit codes: 0 success,
1 input/validation error, 2 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
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


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default: text)",
    )

    parser = argparse.ArgumentParser(
        prog="singlab",
        description="Exact invariants of resolution graphs of normal surface singularities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    graph = sub.add_parser("graph", help="graph-level computations")
    graph_sub = graph.add_subparsers(dest="subcommand", required=True)
    analyze = graph_sub.add_parser("analyze", parents=[common],
                                   help="validate a graph file and print its basic invariants")
    analyze.add_argument("file", help="graph JSON document ('-' for stdin)")
    analyze.set_defaults(handler=_cmd_graph_analyze)

    elliptic = sub.add_parser("elliptic", help="elliptic-sequence computations")
    elliptic_sub = elliptic.add_subparsers(dest="subcommand", required=True)
    sequence = elliptic_sub.add_parser("sequence", parents=[common],
                                       help="compute and verify the elliptic sequence")
    sequence.add_argument("file", help="graph JSON document ('-' for stdin)")
    sequence.set_defaults(handler=_cmd_elliptic_sequence)

    classify = sub.add_parser("classify", parents=[common],
                              help="classify Gorenstein-cone elliptic ideals")
    classify.add_argument("file", help="graph JSON document ('-' for stdin)")
    classify.add_argument("--pg", type=int, required=True,
                          help="geometric genus (analytic input)")
    classify.add_argument("--no-char0", action="store_true",
                          help="refuse results that need characteristic zero")
    classify.set_defaults(handler=_cmd_classify)

    brieskorn = sub.add_parser("brieskorn", parents=[common],
                               help="invariants of x^a + y^b + z^c")
    brieskorn.add_argument("a", type=int)
    brieskorn.add_argument("b", type=int)
    brieskorn.add_argument("c", type=int)
    brieskorn.set_defaults(handler=_cmd_brieskorn)

    wh = sub.add_parser("wh", parents=[common],
                        help="genus of a weighted-homogeneous hypersurface")
    wh.add_argument("--weights", required=True, help="WX,WY,WZ")
    wh.add_argument("--poly", required=True, help="e.g. 'x^2+z^7+y^4*z'")
    wh.set_defaults(handler=_cmd_wh)

    artinian = sub.add_parser("artinian", help="exact quotient dimensions")
    artinian_sub = artinian.add_subparsers(dest="subcommand", required=True)
    col = artinian_sub.add_parser("colength", parents=[common],
                                  help="dim of k[x,y,z]/((f) + M)")
    col.add_argument("--poly", required=True)
    col.add_argument("--ideal", required=True, help="comma-separated monomials, e.g. 'x,y,z^2'")
    col.add_argument("--saturate", action="store_true",
                     help="add pure powers until the value stabilizes")
    col.add_argument("--cap", type=int, default=256,
                     help="largest pure-power exponent tried when saturating")
    col.set_defaults(handler=_cmd_artinian_colength)

    corpus_p = sub.add_parser("corpus", help="generated graph families")
    corpus_sub = corpus_p.add_subparsers(dest="subcommand", required=True)
    emit = corpus_sub.add_parser("emit", parents=[common], help="print a corpus graph")
    emit.add_argument("name", help="fig2312 | fig244 | brell3")
    emit.add_argument("param", type=int)
    emit.set_defaults(handler=_cmd_corpus_emit)

    vp = sub.add_parser("verify-paper", parents=[common],
                        help="run the full acceptance suite")
    vp.set_defaults(handler=_cmd_verify_paper)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
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
