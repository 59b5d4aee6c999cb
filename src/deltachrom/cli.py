"""Command-line front end.

Subcommands:

  chi-delta SPEC         closed-form value (when covered), exact solver
                         value, and the agreement verdict
  export SPEC            byte-stable JSON or DOT of the graph (--delta
                         for its delta-complement)
  structure SPEC...      edge counts of the product decomposition and
                         the equality verdict (--emit-s dumps S as JSON)
  construct ID PARAMS    one of the explicit colorings, as JSON or DOT
                         (--check re-verifies properness and the clique)
  verify ID|all          theorem checks as a table, CSV or pretty

Graph terms use the family grammar (P7, C5, K4, N3, S1,4, W6, M(3,4),
J(K1,C5), X(P6,P7)); an argument of the form @file.json loads a raw
graph from the JSON edge-list format instead.

Exit codes: 0 ok, 1 check failure, 2 usage error, 3 timeout/inexact,
141 standard output closed by its reader (128 + SIGPIPE, the status a
shell reports for a process that a closed pipe ends). The
DELTACHROM_TIMEOUT environment variable overrides the default 60-second
solver budget.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from .bounds import formula_chi_delta
from .chromatic import DEFAULT_TIMEOUT, chi_delta
from .constructions import (
    degree_diff_product_coloring,
    join_p3_coloring,
    on_product,
    path_path_coloring,
    star_path_coloring,
    star_star_coloring,
)
from .families import complete_graph, generate, join, parse_spec, path_graph
from .graphs import delta_complement, from_json, json_edge_list, to_dot, to_json
from .structure import delta_of_product, equality_holds
from .verification import DEFAULT_SEED, check_ids, run_check

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_INEXACT = 3
EXIT_BROKEN_PIPE = 141


def _default_timeout() -> float:
    raw = os.environ.get("DELTACHROM_TIMEOUT")
    return float(raw) if raw else DEFAULT_TIMEOUT


def _timeout(args: argparse.Namespace) -> float:
    # the environment is read when the command runs: the parser is built once
    return _default_timeout() if args.timeout is None else args.timeout


def _load_graph(term: str):
    if term.startswith("@"):
        return from_json(Path(term[1:]).read_text()), None
    spec = parse_spec(term)
    return generate(spec), spec


def _parse_range(text: str) -> tuple[int, int]:
    lo, hi = text.split("..", 1) if ".." in text else (text, text)
    lo, hi = int(lo), int(hi)
    if lo > hi:
        raise ValueError(f"empty range {text}: {lo} > {hi}")
    return lo, hi


def cmd_chi_delta(args: argparse.Namespace) -> int:
    graph, spec = _load_graph(args.spec)
    formula = formula_chi_delta(spec) if spec is not None else None
    result = chi_delta(graph, timeout=_timeout(args))
    agree = None
    if formula is not None and result.exact:
        agree = result.chi == formula.value
    off = 1 if args.one_based else 0
    witness = [c + off for c in result.witness.colors]
    if args.fmt == "json":
        payload = {
            "spec": args.spec,
            "formula": formula.value if formula else None,
            "formula_note": formula.note if formula else None,
            "solver": {**result.to_json_dict(), "witness": witness},
            "agree": agree,
        }
        print(json.dumps(payload, separators=(",", ":")))
    else:
        if formula is None:
            print("formula: not covered")
        else:
            print(f"formula: {formula.value} ({formula.family})")
            if formula.note:
                print(f"note: {formula.note}")
        if result.exact:
            print(f"solver: {result.chi} ({result.method}, {int(result.elapsed * 1000)} ms)")
            print(f"witness: {witness}")
        else:
            print(f"solver: inexact, bracket [{result.lower}, {result.upper}]")
        if agree is not None:
            print(f"agreement: {'ok' if agree else 'MISMATCH'}")
    if not result.exact:
        return EXIT_INEXACT
    if agree is False:
        return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_export(args: argparse.Namespace) -> int:
    if args.one_based and args.fmt == "json":
        raise ValueError("--one-based applies to DOT only: @file.json reads JSON back 0-based")
    graph, _ = _load_graph(args.spec)
    if args.delta:
        graph = delta_complement(graph)
    if args.fmt == "json":
        print(to_json(graph))
    else:
        print(to_dot(graph, one_based=args.one_based), end="")
    return EXIT_OK


def cmd_structure(args: argparse.Namespace) -> int:
    factors = [_load_graph(term)[0] for term in args.specs]
    dec = delta_of_product(factors)
    print(f"|E(product)|           = {dec.product.edge_count()}")
    print(f"|E(delta of product)|  = {dec.delta_of_product.edge_count()}")
    print(f"|E(product of deltas)| = {dec.product_of_deltas.edge_count()}")
    print(f"|S|                    = {dec.extra.edge_count()}")
    print(f"equality: {equality_holds(factors)}")
    if args.emit_s:
        print(json_edge_list(dec.extra))
    return EXIT_OK


def _solved(term: str, args: argparse.Namespace):
    """The graph of a term and an optimal coloring of its delta-complement,
    or None in place of the coloring, with the bracket on stderr, when the
    solve is cut short."""
    graph, _ = _load_graph(term)
    result = chi_delta(graph, timeout=_timeout(args))
    if not result.exact:
        print(f"error: chi-delta of {term} inexact, bracket "
              f"[{result.lower}, {result.upper}]", file=sys.stderr)
        return graph, None
    return graph, result.witness


def _join_p3(args: argparse.Namespace, term: str):
    h, ch = _solved(term, args)
    if ch is None:
        return None
    return on_product([join(complete_graph(1), h), path_graph(3)], join_p3_coloring(h, ch))


def _degree_diff(args: argparse.Namespace, term_g: str, term_h: str):
    g, c0 = _solved(term_g, args)
    if c0 is None:
        return None
    h, _ = _load_graph(term_h)
    return on_product([g, h], degree_diff_product_coloring(g, c0, h))


# construction -> (parameter count, its result from the arguments and the
# parameters, or None when a solve it needs was cut short)
CONSTRUCTIONS = {
    "star-star": (2, lambda args, m, n: star_star_coloring(int(m), int(n))),
    "star-path": (2, lambda args, m, n: star_path_coloring(int(m), int(n))),
    "path-path": (2, lambda args, n, k: path_path_coloring(int(n), int(k))),
    "join-p3": (1, _join_p3),
    "degree-diff": (2, _degree_diff),
}


def cmd_construct(args: argparse.Namespace) -> int:
    count, build = CONSTRUCTIONS[args.construction]
    if len(args.params) != count:
        raise ValueError(f"construct {args.construction} takes {count} "
                         f"parameter{'s' if count > 1 else ''}, got {len(args.params)}")
    result = build(args, *args.params)
    if result is None:
        return EXIT_INEXACT
    off = 1 if args.one_based else 0
    checked = result.certified() if args.check else None
    if args.fmt == "dot":
        print(to_dot(result.graph, result.coloring.colors, one_based=args.one_based), end="")
    else:
        payload = {
            "construction": args.construction,
            "params": [int(p) if p.isdigit() else p for p in args.params],
            "palette": result.coloring.palette_size,
            "colors_used": result.coloring.colors_used,
            "colors": [c + off for c in result.coloring.colors],
            "clique": [v + off for v in result.clique],
        }
        if checked is not None:
            payload["check"] = "pass" if checked else "fail"
        print(json.dumps(payload, separators=(",", ":")))
    if checked is False:
        return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    opts: dict = {"seed": args.seed, "timeout": _timeout(args)}
    if args.n:
        opts["n"] = _parse_range(args.n)
    if args.k:
        opts["k"] = _parse_range(args.k)
    if args.m:
        opts["m"] = _parse_range(args.m)
    if args.trials is not None:
        opts["trials"] = args.trials
    if args.max is not None:
        opts["max"] = args.max
    rows = run_check(args.check, opts)
    if not rows:
        # a range that selects no instance verifies nothing
        raise ValueError(f"verify {args.check} yields no row for these options")
    if args.fmt == "csv":
        print("check_id,params,expected,computed,status,seconds")
        for r in rows:
            params = json.dumps(r.params, separators=(",", ":")).replace('"', "'")
            print(f'{r.check_id},"{params}","{r.expected}","{r.computed}",{r.status},{r.seconds:.3f}')
    else:
        width = max((len(r.check_id) for r in rows), default=8)
        for r in rows:
            params = json.dumps(r.params, separators=(",", ":"))
            print(f"{r.status.upper():4} {r.check_id:<{width}} {params} "
                  f"expected={r.expected} computed={r.computed}")
        passed = sum(r.status == "pass" for r in rows)
        failed = sum(r.status == "fail" for r in rows)
        skipped = sum(r.status == "skip" for r in rows)
        print(f"-- {passed} passed, {failed} failed, {skipped} skipped")
    if any(r.status == "fail" for r in rows):
        return EXIT_CHECK_FAILED
    return EXIT_INEXACT if any(r.inexact for r in rows) else EXIT_OK


GRAMMAR_HELP = """\
family terms:
  P7 C5 K4 N3 W6    path / cycle / complete / edgeless / wheel
  S1,4              star with 4 pendants
  M(3,4)            windmill: hub joined to 3 disjoint copies of K4
  J(A,B)            join of two terms
  X(A,B[,C...])     Cartesian product of two or more terms
  @file.json        raw graph from the JSON edge-list format
"""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deltachrom",
        description="delta-complements, exact delta-chromatic numbers, theorem checks",
        epilog=GRAMMAR_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("chi-delta", help="exact delta-chromatic number of a family term")
    p.add_argument("spec", help="family term, e.g. C9 or X(S1,3,P3), or @graph.json")
    p.add_argument("--timeout", type=float)
    p.add_argument("--fmt", choices=("pretty", "json"), default="pretty")
    p.add_argument("--one-based", action="store_true")
    p.set_defaults(func=cmd_chi_delta)

    p = sub.add_parser("export", help="emit a graph as byte-stable JSON or DOT")
    p.add_argument("spec")
    p.add_argument("--delta", action="store_true", help="export the delta-complement")
    p.add_argument("--fmt", choices=("json", "dot"), default="json")
    p.add_argument("--one-based", action="store_true")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("structure", help="product decomposition edge counts")
    p.add_argument("specs", nargs="+")
    p.add_argument("--emit-s", action="store_true", help="dump S as a JSON edge list")
    p.set_defaults(func=cmd_structure)

    p = sub.add_parser("construct", help="run one of the explicit colorings")
    p.add_argument("construction", choices=tuple(CONSTRUCTIONS))
    p.add_argument("params", nargs="+")
    p.add_argument("--check", action="store_true",
                   help="re-verify properness and the clique certificate")
    p.add_argument("--timeout", type=float)
    p.add_argument("--fmt", choices=("json", "dot"), default="json")
    p.add_argument("--one-based", action="store_true")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="run theorem checks and print a table")
    p.add_argument("check", choices=check_ids() + ["all"])
    p.add_argument("--n", help="range A..B for the first parameter")
    p.add_argument("--k", help="range A..B for the second parameter")
    p.add_argument("--m", help="range A..B for the pendant count")
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--max", type=int)
    p.add_argument("--timeout", type=float)
    p.add_argument("--fmt", choices=("pretty", "csv"), default="pretty")
    p.set_defaults(func=cmd_verify)
    return parser


_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: point stdout at devnull so that the flush at
        # exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    sys.exit(code)


if __name__ == "__main__":
    entry()
