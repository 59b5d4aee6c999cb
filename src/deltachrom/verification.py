"""Seeded verification harness: every closed form and bound as table rows.

Each check turns one theorem-shaped claim into a list of per-instance
reports. Randomized corpora are fully determined by the seed, so any
run can be reproduced from its command line.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, Sequence

from .bounds import (
    ceil_div,
    formula_chi_delta,
    lemma_ceiling_check,
    ng_bounds_check,
    upper_degree_diff_check,
)
from .chromatic import (
    DEFAULT_TIMEOUT,
    ChromaticResult,
    chi_delta,
    chromatic_number,
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
    cycle_graph,
    cycle_spec,
    format_spec,
    generate,
    parse_spec,
    path_graph,
    path_spec,
    product_spec,
    random_graph,
    star_spec,
    wheel_graph,
    wheel_spec,
)
from .graphs import Graph, cartesian_product, is_connected
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


def _report(check_id, params, expected, computed, ok, t0, skip=False) -> TheoremReport:
    status = "skip" if skip else ("pass" if ok else "fail")
    return TheoremReport(
        check_id, params, str(expected), str(computed), status,
        time.perf_counter() - t0,
    )


def _cut_short(check_id, params, expected, t0, *results: ChromaticResult) -> TheoremReport | None:
    """A skip row for the first solve that hit its deadline, else None.

    A bracket from a solve that was cut short disproves nothing, so the
    row reports it as ``inexact [lower,upper]`` instead of a verdict.
    """
    for res in results:
        if not res.exact:
            return TheoremReport(
                check_id, params, str(expected), f"inexact [{res.lower},{res.upper}]",
                "skip", time.perf_counter() - t0, inexact=True,
            )
    return None


def _construction_row(check_id, params, expected, r: ConstructionResult, t0) -> TheoremReport:
    """A certified construction whose colors and clique both number ``expected``."""
    ok = r.certified() and r.coloring.colors_used == expected == len(r.clique)
    return _report(check_id, params, expected,
                   f"colors={r.coloring.colors_used} clique={len(r.clique)}", ok, t0)


# --- seeded corpora ----------------------------------------------------------


def seeded_graphs(
    count: int, n_lo: int, n_hi: int, seed: int, connected: bool = False
) -> list[Graph]:
    rng = random.Random(seed)
    out: list[Graph] = []
    densities = (0.2, 0.3, 0.5, 0.7, 0.8)
    while len(out) < count:
        n = rng.randint(n_lo, n_hi)
        g = random_graph(n, rng.choice(densities), rng)
        if connected and not is_connected(g):
            continue
        out.append(g)
    return out


def seeded_graph_tuples(
    count: int, arity: int, n_lo: int, n_hi: int, seed: int
) -> list[tuple[Graph, ...]]:
    rng = random.Random(seed)
    densities = (0.2, 0.3, 0.5, 0.7, 0.8)
    out = []
    for _ in range(count):
        out.append(
            tuple(
                random_graph(rng.randint(n_lo, n_hi), rng.choice(densities), rng)
                for _ in range(arity)
            )
        )
    return out


# --- individual checks -------------------------------------------------------


def _formula_rows(check_id, spec_of, graph_of, n_range, not_covered, opts) -> list[TheoremReport]:
    """The closed form against the solver for each n; a skip where the
    closed form declines n, with the true solver value still shown."""
    lo, hi = opts.get("n", n_range)
    timeout = opts.get("timeout", DEFAULT_TIMEOUT)
    rows = []
    for n in range(lo, hi + 1):
        t0 = time.perf_counter()
        fv = formula_chi_delta(spec_of(n))
        res = chi_delta(graph_of(n), timeout=timeout)
        expected = not_covered if fv is None else fv.value
        rows.append(
            _cut_short(check_id, {"n": n}, expected, t0, res)
            or _report(check_id, {"n": n}, expected, res.chi,
                       fv is None or res.chi == fv.value, t0, skip=fv is None)
        )
    return rows


def check_path_formula(opts: dict) -> list[TheoremReport]:
    return _formula_rows("path-formula", path_spec, path_graph, (5, 14),
                         "formula n/a (n < 5)", opts)


def check_cycle_formula(opts: dict) -> list[TheoremReport]:
    return _formula_rows("cycle-formula", cycle_spec, cycle_graph, (3, 14),
                         "formula n/a (regular one-class graph)", opts)


def check_wheel_formula(opts: dict) -> list[TheoremReport]:
    return _formula_rows("wheel-formula", wheel_spec, wheel_graph, (3, 10),
                         "formula n/a (W3 is complete)", opts)


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


def check_structure(opts: dict) -> list[TheoremReport]:
    trials = opts.get("trials", 50)
    seed = opts.get("seed", DEFAULT_SEED)
    rows = []
    for i, pair in enumerate(seeded_graph_tuples(trials, 2, 2, 6, seed)):
        t0 = time.perf_counter()
        ok, detail = _edge_union_identity(pair)
        rows.append(_report("structure", {"trial": i, "sizes": [g.n for g in pair]},
                            "union identity + disjointness", detail, ok, t0))
    triple_trials = opts.get("triples", max(1, trials * 2 // 5))
    for i, triple in enumerate(seeded_graph_tuples(triple_trials, 3, 1, 4, seed + 1)):
        t0 = time.perf_counter()
        ok, detail = _edge_union_identity(triple)
        rows.append(_report("structure", {"triple": i, "sizes": [g.n for g in triple]},
                            "3-factor union identity", detail, ok, t0))
    return rows


def check_equality(opts: dict) -> list[TheoremReport]:
    trials = opts.get("trials", 50)
    seed = opts.get("seed", DEFAULT_SEED)
    rows = []
    for i, pair in enumerate(seeded_graph_tuples(trials, 2, 2, 6, seed)):
        t0 = time.perf_counter()
        s_empty = delta_of_product(pair).extra.edge_count() == 0
        ok = equality_holds(pair) == s_empty
        rows.append(_report("equality", {"trial": i}, "equality_holds iff S empty",
                            f"holds={equality_holds(pair)} S_empty={s_empty}", ok, t0))
    t0 = time.perf_counter()
    k1_h = [generate(parse_spec("K1")), generate(parse_spec("C9"))]
    rows.append(_report("equality", {"family": "[K1,C9]"}, True,
                        equality_holds(k1_h), equality_holds(k1_h) is True, t0))
    t0 = time.perf_counter()
    p2p2 = [path_graph(2), path_graph(2)]
    rows.append(_report("equality", {"family": "[P2,P2]"}, False,
                        equality_holds(p2p2), equality_holds(p2p2) is False, t0))
    return rows


def check_cycle_p3(opts: dict) -> list[TheoremReport]:
    lo, hi = opts.get("n", (5, 8))
    timeout = opts.get("timeout", DEFAULT_TIMEOUT)
    rows = []
    for n in range(lo, hi + 1):
        t0 = time.perf_counter()
        product, _ = cartesian_product([cycle_graph(n), path_graph(3)])
        res = chi_delta(product, timeout=timeout)
        expected = 2 * ceil_div(n, 2)
        rows.append(
            _cut_short("cycle-p3", {"n": n}, expected, t0, res)
            or _report("cycle-p3", {"n": n}, expected,
                       f"chi={res.chi} omega={res.clique_lower}", res.chi == expected, t0)
        )
    return rows


def check_star_star(opts: dict) -> list[TheoremReport]:
    m_lo, m_hi = opts.get("m", (3, 5))
    n_lo, n_hi = opts.get("n", (3, 5))
    timeout = opts.get("timeout", DEFAULT_TIMEOUT)
    rows = []
    for m in range(m_lo, m_hi + 1):
        for n in range(n_lo, n_hi + 1):
            t0 = time.perf_counter()
            r = star_star_coloring(m, n)
            rows.append(_construction_row("star-star", {"m": m, "n": n}, m * n, r, t0))
    t0 = time.perf_counter()
    product, _ = cartesian_product([generate(star_spec(3)), generate(star_spec(3))])
    res = chi_delta(product, timeout=timeout)
    rows.append(
        _cut_short("star-star", {"solver": "(3,3)"}, 9, t0, res)
        or _report("star-star", {"solver": "(3,3)"}, 9, res.chi, res.chi == 9, t0)
    )
    return rows


def check_star_path(opts: dict) -> list[TheoremReport]:
    m_lo, m_hi = opts.get("m", (3, 4))
    n_lo, n_hi = opts.get("n", (3, 8))
    timeout = opts.get("timeout", DEFAULT_TIMEOUT)
    rows = []
    for m in range(m_lo, m_hi + 1):
        for n in range(n_lo, n_hi + 1):
            t0 = time.perf_counter()
            r = star_path_coloring(m, n)
            expected = 2 * m if n in (3, 4) else m * ceil_div(n - 2, 2)
            rows.append(_construction_row("star-path", {"m": m, "n": n}, expected, r, t0))
    for m, n in ((3, 3), (3, 4)):
        t0 = time.perf_counter()
        product, _ = cartesian_product([generate(star_spec(m)), path_graph(n)])
        res = chi_delta(product, timeout=timeout)
        fv = formula_chi_delta(product_spec(star_spec(m), path_spec(n)))
        assert fv is not None
        expected = f"constructive {fv.proof_value} (stated form {fv.statement_value})"
        rows.append(
            _cut_short("star-path", {"solver": (m, n)}, expected, t0, res)
            or _report("star-path", {"solver": (m, n)}, expected, f"solver {res.chi}",
                       res.chi == fv.value == 2 * m, t0)
        )
    return rows


def check_path_path(opts: dict) -> list[TheoremReport]:
    if "n" in opts or "k" in opts:
        n_lo, n_hi = opts.get("n", (6, 7))
        k_lo, k_hi = opts.get("k", (6, 9))
        pairs = [
            (n, k)
            for n in range(n_lo, n_hi + 1)
            for k in range(k_lo, k_hi + 1)
            if n <= k
        ]
    else:
        pairs = [(6, 6), (6, 7), (6, 8), (7, 7), (7, 9)]
    rows = []
    for n, k in pairs:
        t0 = time.perf_counter()
        r = path_path_coloring(n, k)
        expected = ceil_div((n - 2) * (k - 2), 2)
        rows.append(_construction_row("path-path", {"n": n, "k": k}, expected, r, t0))
    return rows


def check_lemma_ceiling(opts: dict) -> list[TheoremReport]:
    max_nk = opts.get("max", 40)
    rows = []
    for n in range(6, max_nk + 1):
        for k in range(max(n, 8), max_nk + 1):
            t0 = time.perf_counter()
            chk = lemma_ceiling_check(n, k)
            rows.append(_report("lemma-ceiling", {"n": n, "k": k},
                                f"{chk.lhs} < {chk.rhs}", chk.detail,
                                chk.holds, t0))
    return rows


def check_ng(opts: dict) -> list[TheoremReport]:
    trials = opts.get("trials", 100)
    seed = opts.get("seed", DEFAULT_SEED)
    timeout = opts.get("timeout", DEFAULT_TIMEOUT)
    rows = []
    for i, g in enumerate(seeded_graphs(trials, 4, 9, seed, connected=True)):
        t0 = time.perf_counter()
        params = {"trial": i, "n": g.n}
        chi = chromatic_number(g, timeout=timeout)
        chi_d = chi_delta(g, timeout=timeout)
        cut = _cut_short("ng", params, "product and sum bounds", t0, chi, chi_d)
        if cut:
            rows.append(cut)
            continue
        product, total = ng_bounds_check(g, chi.chi, chi_d.chi)
        ok = product.holds and total.holds
        rows.append(_report("ng", params, "product and sum bounds",
                            f"{product.detail}; {total.detail}", ok, t0))
    return rows


def check_sabidussi(opts: dict) -> list[TheoremReport]:
    trials = opts.get("trials", 30)
    seed = opts.get("seed", DEFAULT_SEED)
    timeout = opts.get("timeout", DEFAULT_TIMEOUT)
    rows = []
    for i, (g, h) in enumerate(seeded_graph_tuples(trials, 2, 2, 6, seed)):
        t0 = time.perf_counter()
        params = {"trial": i, "sizes": [g.n, h.n]}
        product, _ = cartesian_product([g, h])
        chi_prod = chromatic_number(product, timeout=timeout)
        chi_g = chromatic_number(g, timeout=timeout)
        chi_h = chromatic_number(h, timeout=timeout)
        cut = _cut_short("sabidussi", params, "max of the factors", t0, chi_prod, chi_g, chi_h)
        if cut:
            rows.append(cut)
            continue
        expected = max(chi_g.chi, chi_h.chi)
        rows.append(_report("sabidussi", params, expected, chi_prod.chi,
                            chi_prod.chi == expected, t0))
    return rows


def check_oracle(opts: dict) -> list[TheoremReport]:
    trials = opts.get("trials", 100)
    seed = opts.get("seed", DEFAULT_SEED)
    timeout = opts.get("timeout", DEFAULT_TIMEOUT)
    rows = []
    for i, g in enumerate(seeded_graphs(trials, 1, 9, seed)):
        t0 = time.perf_counter()
        engine = chromatic_number(g, timeout=timeout)
        brute = oracle_chromatic(g)
        rows.append(
            _cut_short("oracle", {"trial": i, "n": g.n}, brute, t0, engine)
            or _report("oracle", {"trial": i, "n": g.n}, brute, engine.chi,
                       engine.chi == brute, t0)
        )
    return rows


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


def check_degree_diff(opts: dict) -> list[TheoremReport]:
    max_product = opts.get("max", 30)
    timeout = opts.get("timeout", DEFAULT_TIMEOUT)
    rows = []
    universe = [(spec, generate(spec)) for spec in degree_diff_universe(max_product)]
    chi_d_cache: dict[str, ChromaticResult] = {}
    product_cache: dict[frozenset, ChromaticResult] = {}

    def chi_d_of(spec: FamilySpec, g: Graph) -> ChromaticResult:
        key = format_spec(spec)
        if key not in chi_d_cache:
            chi_d_cache[key] = chi_delta(g, timeout=timeout)
        return chi_d_cache[key]

    for spec_g, g in universe:
        for spec_h, h in universe:
            if g.n * h.n > max_product:
                continue
            t0 = time.perf_counter()
            chk = upper_degree_diff_check(g, h, 0, 0)
            if not chk.hypothesis_met:
                continue  # not an instance of the bound
            key = frozenset((format_spec(spec_g), format_spec(spec_h)))
            if key not in product_cache:
                product, _ = cartesian_product([g, h])
                product_cache[key] = chi_delta(product, timeout=timeout)
            chi_d_prod = product_cache[key]
            chi_d_g = chi_d_of(spec_g, g)
            params = {"G": format_spec(spec_g), "H": format_spec(spec_h)}
            cut = _cut_short("degree-diff", params, "<= n_max(H)*max(chi_delta(G),m(H))",
                             t0, chi_d_prod, chi_d_g)
            if cut:
                rows.append(cut)
                continue
            chk = upper_degree_diff_check(g, h, chi_d_g.chi, chi_d_prod.chi)
            rows.append(_report("degree-diff", params, f"<= {chk.rhs}", chk.lhs, chk.holds, t0))
    return rows


_CHECKS: dict[str, Callable[[dict], list[TheoremReport]]] = {
    "path-formula": check_path_formula,
    "cycle-formula": check_cycle_formula,
    "wheel-formula": check_wheel_formula,
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
    """Run one named check (or 'all') and return its report rows."""
    opts = dict(opts or {})
    if check_id == "all":
        rows: list[TheoremReport] = []
        for cid in _CHECKS:
            rows.extend(_CHECKS[cid](opts))
        return rows
    if check_id not in _CHECKS:
        raise ValueError(f"unknown check {check_id!r}; known: {', '.join(_CHECKS)}")
    return _CHECKS[check_id](opts)
