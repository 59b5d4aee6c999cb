"""Command-line front end.

Subcommands:

  chi-delta SPEC         closed-form value (when covered), exact solver
                         value, and the agreement verdict
  export SPEC            byte-stable JSON or DOT of the graph (--delta
                         for its delta-complement)
  structure SPEC...      edge counts of the product decomposition and
                         the equality verdict (--emit-s dumps S as JSON)
  construct ID PARAMS    one of the explicit colorings, as JSON or DOT
                         (--check re-verifies properness and the clique;
                         with no clique it reports "proper, unbounded")
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
import math
import os
import sys
from collections import Counter
from pathlib import Path
from typing import Iterable

from .bounds import formula_chi_delta
from .chromatic import DEFAULT_TIMEOUT, chi_delta
from .constructions import (
    degree_diff_product_coloring,
    join_p3_coloring,
    path_path_coloring,
    star_path_coloring,
    star_star_coloring,
)
from .families import generate, parse_spec
from .graphs import delta_complement, from_json, iter_dot, iter_json, iter_json_edge_list
from .structure import delta_of_product, equality_holds
from .verification import DEFAULT_SEED, check_ids, run_check

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_INEXACT = 3
EXIT_BROKEN_PIPE = 141


def _timeout(args: argparse.Namespace) -> float:
    # the environment is read when the command runs: the parser is built once
    timeout = args.timeout
    if timeout is None:
        raw = os.environ.get("DELTACHROM_TIMEOUT")
        timeout = float(raw) if raw else DEFAULT_TIMEOUT
    if math.isnan(timeout):
        # no deadline comparison with NaN is ever true, so it would never stop
        raise ValueError("timeout must be a number of seconds, got nan")
    return timeout


def _load_graph(term: str):
    if term.startswith("@"):
        return from_json(Path(term[1:]).read_text()), None
    spec = parse_spec(term)
    return generate(spec), spec


def _stream(chunks: Iterable[str], end: str = "") -> None:
    """Write each chunk to stdout as it comes, then ``end``: the text is
    never held whole."""
    write = sys.stdout.write
    for chunk in chunks:
        write(chunk)
    write(end)


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
        _stream(iter_json(graph), "\n")
    else:
        _stream(iter_dot(graph, one_based=args.one_based))
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
        _stream(iter_json_edge_list(dec.extra), "\n")
    return EXIT_OK


def _solved(term: str, timeout: float):
    """The graph of a term and an optimal coloring of its delta-complement,
    or None in place of the coloring, with the bracket on stderr, when the
    solve is cut short."""
    graph, _ = _load_graph(term)
    result = chi_delta(graph, timeout=timeout)
    if not result.exact:
        print(f"error: chi-delta of {term} inexact, bracket "
              f"[{result.lower}, {result.upper}]", file=sys.stderr)
        return graph, None
    return graph, result.witness


def _join_p3(timeout: float, term: str):
    h, ch = _solved(term, timeout)
    return None if ch is None else join_p3_coloring(h, ch)


def _degree_diff(timeout: float, term_g: str, term_h: str):
    g, c0 = _solved(term_g, timeout)
    return None if c0 is None else degree_diff_product_coloring(g, c0, _load_graph(term_h)[0])


# construction -> (parameter count, its result from the solver timeout and
# the parameters, or None when a solve it needs was cut short)
CONSTRUCTIONS = {
    "star-star": (2, lambda timeout, m, n: star_star_coloring(int(m), int(n))),
    "star-path": (2, lambda timeout, m, n: star_path_coloring(int(m), int(n))),
    "path-path": (2, lambda timeout, n, k: path_path_coloring(int(n), int(k))),
    "join-p3": (1, _join_p3),
    "degree-diff": (2, _degree_diff),
}


def cmd_construct(args: argparse.Namespace) -> int:
    timeout = _timeout(args)
    count, build = CONSTRUCTIONS[args.construction]
    if len(args.params) != count:
        raise ValueError(f"construct {args.construction} takes {count} "
                         f"parameter{'s' if count > 1 else ''}, got {len(args.params)}")
    result = build(timeout, *args.params)
    if result is None:
        return EXIT_INEXACT
    off = 1 if args.one_based else 0
    checked = result.certified() if args.check else None
    if args.fmt == "dot":
        _stream(iter_dot(result.graph, result.coloring.colors, one_based=args.one_based))
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
            payload["check"] = ("pass" if result.clique else "proper, unbounded") if checked else "fail"
        print(json.dumps(payload, separators=(",", ":")))
    if checked is False:
        return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    given = vars(args)
    opts = {"seed": args.seed, "timeout": _timeout(args)}
    opts |= {name: _parse_range(given[name]) for name in ("n", "k", "m") if given[name]}
    opts |= {name: given[name] for name in ("trials", "max") if given[name] is not None}
    if opts.get("trials", 1) < 1:
        raise ValueError(f"--trials must be at least 1, got {args.trials}")
    rows = run_check(args.check, opts)
    tally = Counter(r.status for r in rows)
    if args.fmt == "csv":
        print("check_id,params,expected,computed,status,seconds")
        for r in rows:
            params = json.dumps(r.params, separators=(",", ":")).replace('"', "'")
            print(f'{r.check_id},"{params}","{r.expected}","{r.computed}",{r.status},{r.seconds:.3f}')
    else:
        width = max(len(r.check_id) for r in rows)
        for r in rows:
            params = json.dumps(r.params, separators=(",", ":"))
            print(f"{r.status.upper():4} {r.check_id:<{width}} {params} "
                  f"expected={r.expected} computed={r.computed}")
        print(f"-- {tally['pass']} passed, {tally['fail']} failed, {tally['skip']} skipped")
    if tally["fail"]:
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
    except BrokenPipeError:
        # a closed reader is not a usage error: entry() turns it into 141
        raise
    except (ValueError, OSError) as exc:
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
