"""Seeded verification harness: every closed form and bound as table rows.

Each check turns one theorem-shaped claim into per-instance report rows,
which it yields; ``run_check`` stamps each row with its check id and its
time. Every closed-form value comes from ``bounds.formula_chi_delta``, so
the rows check the same table that ``chi-delta`` prints. Randomized
corpora are fully determined by the seed, so any run can be reproduced
from its command line.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from functools import partial
from operator import attrgetter
from typing import Callable, Iterator, Sequence

from .bounds import (
    class_counts,
    degree_diff_bound,
    degree_difference_set,
    formula_chi_delta,
    lemma_ceiling_check,
    ng_bounds_check,
)
from .chromatic import (
    DEFAULT_TIMEOUT,
    ChromaticResult,
    chi_delta,
    chromatic_number,
    max_clique_lower,
    oracle_chromatic,
)
from .constructions import (
    ConstructionResult,
    path_path_coloring,
    star_path_coloring,
    star_star_coloring,
)
from .families import (
    FamilySpec,
    cycle_spec,
    format_spec,
    generate,
    parse_spec,
    path_spec,
    product_spec,
    random_graph,
    star_spec,
    wheel_spec,
)
from .graphs import Graph, cartesian_product, delta_complement, is_connected
from .structure import delta_of_product, equality_holds

DEFAULT_SEED = 7


@dataclass
class TheoremReport:
    """One verified instance: claim id, parameters, and the verdict."""

    check_id: str
    params: dict
    expected: str
    computed: str
    status: str  # "pass" | "fail" | "skip"
    seconds: float = 0.0
    inexact: bool = False  # a solve hit its deadline; the row is a skip


Rows = Iterator[TheoremReport]


def _report(params, expected, computed, ok, skip=False) -> TheoremReport:
    # run_check fills in the check id and the seconds
    status = "skip" if skip else ("pass" if ok else "fail")
    return TheoremReport("", params, str(expected), str(computed), status)


def _cut_short(params, expected, *results: ChromaticResult) -> TheoremReport | None:
    """A skip row for the first solve that hit its deadline, else None.

    A bracket from a solve that was cut short disproves nothing, so the
    row reports it as ``inexact [lower,upper]`` instead of a verdict.
    """
    for res in results:
        if not res.exact:
            return TheoremReport("", params, str(expected), f"inexact [{res.lower},{res.upper}]",
                                 "skip", inexact=True)
    return None


def _span(opts: dict, key: str, default: tuple[int, int]) -> range:
    lo, hi = opts.get(key, default)
    return range(lo, hi + 1)


# --- seeded corpora ----------------------------------------------------------


SEEDED_DENSITIES = (0.2, 0.3, 0.5, 0.7, 0.8)


def _seeded_graph(rng: random.Random, n_lo: int, n_hi: int) -> Graph:
    return random_graph(rng.randint(n_lo, n_hi), rng.choice(SEEDED_DENSITIES), rng)


def seeded_graphs(
    count: int, n_lo: int, n_hi: int, seed: int, connected: bool = False
) -> list[Graph]:
    rng = random.Random(seed)
    out: list[Graph] = []
    while len(out) < count:
        g = _seeded_graph(rng, n_lo, n_hi)
        if not connected or is_connected(g):
            out.append(g)
    return out


def seeded_graph_tuples(
    count: int, arity: int, n_lo: int, n_hi: int, seed: int
) -> list[tuple[Graph, ...]]:
    rng = random.Random(seed)
    return [tuple(_seeded_graph(rng, n_lo, n_hi) for _ in range(arity)) for _ in range(count)]


# --- individual checks -------------------------------------------------------


def _solver_row(params, spec, not_covered, opts, show=attrgetter("chi"),
                expect=attrgetter("value")) -> TheoremReport:
    """The table's value for spec against the solver; a skip where the
    table declines spec, with the true solver value still shown."""
    fv = formula_chi_delta(spec)
    res = chi_delta(generate(spec), timeout=opts["timeout"])
    expected = not_covered if fv is None else expect(fv)
    return (_cut_short(params, expected, res)
            or _report(params, expected, show(res),
                       fv is None or res.chi == fv.value, skip=fv is None))


def _formula_rows(spec_of, n_range, not_covered, opts) -> Rows:
    for n in _span(opts, "n", n_range):
        yield _solver_row({"n": n}, spec_of(n), not_covered, opts)


def check_cycle_p3(opts: dict) -> Rows:
    # the class bound closes these solves with no clique, so omega comes
    # from a clique search of its own, within the same budget (>= if cut)
    timeout = opts["timeout"]

    def show(res: ChromaticResult) -> str:
        omega = max_clique_lower(d, time.monotonic() + timeout)
        return f"chi={res.chi} omega{'=' if omega.complete else '>='}{omega.size}"

    for n in _span(opts, "n", (5, 8)):
        spec = product_spec(cycle_spec(n), path_spec(3))
        d = delta_complement(generate(spec))
        yield _solver_row({"n": n}, spec, "formula n/a (n < 5)", opts, show=show)


def _construction_row(params, spec, not_covered, build, *args) -> TheoremReport:
    """A certified construction whose colors and clique both number the
    table's value for spec; a skip, without building, where the table
    declines spec."""
    fv = formula_chi_delta(spec)
    if fv is None:
        return _report(params, not_covered, "construction not run", True, skip=True)
    r: ConstructionResult = build(*args)
    ok = r.certified() and r.coloring.colors_used == fv.value == len(r.clique)
    return _report(params, fv.value,
                   f"colors={r.coloring.colors_used} clique={len(r.clique)}", ok)


def _edge_union_identity(factors: Sequence[Graph]) -> tuple[bool, str]:
    dec = delta_of_product(factors)
    left, base, extra = dec.delta_of_product, dec.product_of_deltas, dec.extra
    rows = [(left.adjacency_mask(u), base.adjacency_mask(u), extra.adjacency_mask(u))
            for u in range(left.n)]
    union_ok = all(whole == b | e for whole, b, e in rows)
    disjoint_ok = not any(b & e for _, b, e in rows)
    s_edges = extra.edge_count()
    eq_ok = equality_holds(factors) == (s_edges == 0)
    detail = f"|E|={left.edge_count()} |base|={base.edge_count()} |S|={s_edges}"
    return union_ok and disjoint_ok and eq_ok, detail


def check_structure(opts: dict) -> Rows:
    trials = opts.get("trials", 50)
    seed = opts["seed"]
    for i, pair in enumerate(seeded_graph_tuples(trials, 2, 2, 6, seed)):
        ok, detail = _edge_union_identity(pair)
        yield _report({"trial": i, "sizes": [g.n for g in pair]},
                      "union identity + disjointness", detail, ok)
    for i, triple in enumerate(seeded_graph_tuples(max(1, trials * 2 // 5), 3, 1, 4, seed + 1)):
        ok, detail = _edge_union_identity(triple)
        yield _report({"triple": i, "sizes": [g.n for g in triple]},
                      "3-factor union identity", detail, ok)


def check_equality(opts: dict) -> Rows:
    trials = opts.get("trials", 50)
    seed = opts["seed"]
    for i, pair in enumerate(seeded_graph_tuples(trials, 2, 2, 6, seed)):
        s_empty = delta_of_product(pair).extra.edge_count() == 0
        holds = equality_holds(pair)
        yield _report({"trial": i}, "equality_holds iff S empty",
                      f"holds={holds} S_empty={s_empty}", holds == s_empty)
    holds = equality_holds([generate(parse_spec("K1")), generate(parse_spec("C9"))])
    yield _report({"family": "[K1,C9]"}, True, holds, holds is True)
    holds = equality_holds([generate(path_spec(2)), generate(path_spec(2))])
    yield _report({"family": "[P2,P2]"}, False, holds, holds is False)


def check_star_star(opts: dict) -> Rows:
    for m in _span(opts, "m", (3, 5)):
        for n in _span(opts, "n", (3, 5)):
            yield _construction_row({"m": m, "n": n}, product_spec(star_spec(m), star_spec(n)),
                                    "formula n/a (m < 3 or n < 3)", star_star_coloring, m, n)
    yield _solver_row({"solver": "(3,3)"}, product_spec(star_spec(3), star_spec(3)),
                      "formula n/a", opts)


def check_star_path(opts: dict) -> Rows:
    for m in _span(opts, "m", (3, 4)):
        for n in _span(opts, "n", (3, 8)):
            yield _construction_row({"m": m, "n": n}, product_spec(star_spec(m), path_spec(n)),
                                    "formula n/a (m < 3 or n < 3)", star_path_coloring, m, n)
    for m, n in ((3, 3), (3, 4)):
        yield _solver_row(
            {"solver": (m, n)}, product_spec(star_spec(m), path_spec(n)), "formula n/a", opts,
            show=lambda res: f"solver {res.chi}",
            expect=lambda fv: f"constructive {fv.proof_value} (stated form {fv.statement_value})",
        )


def check_path_path(opts: dict) -> Rows:
    if "n" in opts or "k" in opts:
        pairs = [(n, k) for n in _span(opts, "n", (6, 7)) for k in _span(opts, "k", (6, 9))
                 if n <= k]
    else:
        pairs = [(6, 6), (6, 7), (6, 8), (7, 7), (7, 9)]
    for n, k in pairs:
        yield _construction_row({"n": n, "k": k}, product_spec(path_spec(n), path_spec(k)),
                                "formula n/a (n < 6)", path_path_coloring, n, k)


def check_lemma_ceiling(opts: dict) -> Rows:
    max_nk = opts.get("max", 40)
    for n in range(6, max_nk + 1):
        for k in range(max(n, 8), max_nk + 1):
            chk = lemma_ceiling_check(n, k)
            yield _report({"n": n, "k": k}, f"{chk.lhs} < {chk.rhs}", chk.detail, chk.holds)


def check_ng(opts: dict) -> Rows:
    trials = opts.get("trials", 100)
    seed = opts["seed"]
    timeout = opts["timeout"]
    for i, g in enumerate(seeded_graphs(trials, 4, 9, seed, connected=True)):
        params = {"trial": i, "n": g.n}
        chi = chromatic_number(g, timeout=timeout)
        chi_d = chi_delta(g, timeout=timeout)
        cut = _cut_short(params, "product and sum bounds", chi, chi_d)
        if cut:
            yield cut
            continue
        product, total = ng_bounds_check(g, chi.chi, chi_d.chi)
        yield _report(params, "product and sum bounds", f"{product.detail}; {total.detail}",
                      product.holds and total.holds)


def check_sabidussi(opts: dict) -> Rows:
    trials = opts.get("trials", 30)
    seed = opts["seed"]
    timeout = opts["timeout"]
    for i, (g, h) in enumerate(seeded_graph_tuples(trials, 2, 2, 6, seed)):
        params = {"trial": i, "sizes": [g.n, h.n]}
        product, _ = cartesian_product([g, h])
        chi_prod = chromatic_number(product, timeout=timeout)
        chi_g = chromatic_number(g, timeout=timeout)
        chi_h = chromatic_number(h, timeout=timeout)
        cut = _cut_short(params, "max of the factors", chi_prod, chi_g, chi_h)
        if cut:
            yield cut
            continue
        expected = max(chi_g.chi, chi_h.chi)
        yield _report(params, expected, chi_prod.chi, chi_prod.chi == expected)


def check_oracle(opts: dict) -> Rows:
    trials = opts.get("trials", 100)
    seed = opts["seed"]
    timeout = opts["timeout"]
    for i, g in enumerate(seeded_graphs(trials, 1, 9, seed)):
        engine = chromatic_number(g, timeout=timeout)
        brute = oracle_chromatic(g)
        yield (_cut_short({"trial": i, "n": g.n}, brute, engine)
               or _report({"trial": i, "n": g.n}, brute, engine.chi, engine.chi == brute))


def degree_diff_universe(max_product: int = 30) -> list[FamilySpec]:
    """Every path, cycle, star and complete family member that can appear
    in a product of at most max_product vertices."""
    out: list[FamilySpec] = []
    for n in range(1, max_product + 1):
        out.append(path_spec(n))
        out.append(FamilySpec("complete", (n,)))
    for n in range(3, max_product + 1):
        out.append(cycle_spec(n))
    for m in range(1, max_product):
        out.append(star_spec(m))
    return out


def check_degree_diff(opts: dict) -> Rows:
    max_product = opts.get("max", 30)
    timeout = opts["timeout"]
    # each factor's name, graph, degree-difference set and class counts
    universe = []
    for spec in degree_diff_universe(max_product):
        g = generate(spec)
        universe.append((format_spec(spec), g, degree_difference_set(g), class_counts(g)))
    # One solve per distinct graph, looked up by its factor graphs with
    # one-vertex factors dropped (P2 = K2 = S1,1, and X(G,P1) is G). The
    # count keeps the pair (K2, K2) apart from K2 alone, and a product
    # keeps the factor order of the pair that first met it.
    solved: dict[tuple[frozenset, int], ChromaticResult] = {}

    def solve(*factors: Graph) -> ChromaticResult:
        factors = tuple(f for f in factors if f.n > 1) or factors[:1]
        key = (frozenset(factors), len(factors))
        if key not in solved:
            g = cartesian_product(factors)[0] if len(factors) > 1 else factors[0]
            solved[key] = chi_delta(g, timeout=timeout)
        return solved[key]

    for name_g, g, diffs_g, _ in universe:
        # the instances of the bound: small enough, disjoint differences
        # (P1 is one for every g)
        partners = [(name_h, h, counts_h) for name_h, h, diffs_h, counts_h in universe
                    if g.n * h.n <= max_product and not diffs_g & diffs_h]
        chi_d_g = solve(g)
        for name_h, h, counts_h in partners:
            chi_d_prod = solve(g, h)
            params = {"G": name_g, "H": name_h}
            # A cut-short solve still decides the row from its bracket: the
            # bound holds if the product's upper end meets it at chi_delta(G)'s
            # lower end, and fails if the product's lower end exceeds it at
            # chi_delta(G)'s upper end. Only a bracket across the bound is a skip.
            chk = degree_diff_bound(chi_d_g.lower, chi_d_prod.upper, counts_h)
            if not chk.holds and not (chi_d_g.exact and chi_d_prod.exact):
                chk = degree_diff_bound(chi_d_g.upper, chi_d_prod.lower, counts_h)
                if chk.holds:
                    yield _cut_short(params, "<= n_max(H)*max(chi_delta(G),m(H))",
                                     chi_d_prod, chi_d_g)
                    continue
            computed = chk.lhs if chi_d_prod.exact else f"[{chi_d_prod.lower},{chi_d_prod.upper}]"
            yield _report(params, f"<= {chk.rhs}", computed, chk.holds)


_CHECKS: dict[str, Callable[[dict], Rows]] = {
    "path-formula": partial(_formula_rows, path_spec, (5, 14), "formula n/a (n < 5)"),
    "cycle-formula": partial(_formula_rows, cycle_spec, (3, 14),
                             "formula n/a (regular one-class graph)"),
    "wheel-formula": partial(_formula_rows, wheel_spec, (3, 10), "formula n/a (W3 is complete)"),
    "structure": check_structure,
    "equality": check_equality,
    "cycle-p3": check_cycle_p3,
    "star-star": check_star_star,
    "star-path": check_star_path,
    "path-path": check_path_path,
    "lemma-ceiling": check_lemma_ceiling,
    "ng": check_ng,
    "sabidussi": check_sabidussi,
    "oracle": check_oracle,
    "degree-diff": check_degree_diff,
}


def check_ids() -> list[str]:
    return list(_CHECKS)


def run_check(check_id: str, opts: dict | None = None) -> list[TheoremReport]:
    """Run one named check (or 'all') and return its report rows.

    This is the one home of the rules every check shares. ``seed`` and
    ``timeout`` default to ``DEFAULT_SEED`` and ``DEFAULT_TIMEOUT``, and
    opts overrides them; the other options keep each check's own
    defaults. Each check must yield a row, under 'all' too: options that
    select no instance verify nothing, so they raise ``ValueError``.
    Each row is stamped with its check id and its seconds: the time since
    the check's previous row, or since the check started for its first row.
    """
    opts = {"seed": DEFAULT_SEED, "timeout": DEFAULT_TIMEOUT, **(opts or {})}
    if check_id != "all" and check_id not in _CHECKS:
        raise ValueError(f"unknown check {check_id!r}; known: {', '.join(_CHECKS)}")
    rows: list[TheoremReport] = []
    for cid in _CHECKS if check_id == "all" else [check_id]:
        start = len(rows)
        t0 = time.perf_counter()
        for row in _CHECKS[cid](opts):
            t1 = time.perf_counter()
            row.check_id, row.seconds = cid, t1 - t0
            rows.append(row)
            t0 = t1
        if len(rows) == start:
            raise ValueError(f"verify {cid} yields no row for these options")
    return rows
