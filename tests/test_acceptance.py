"""Acceptance suite: one test per criterion, one printed verdict line each.

Instances and tolerances are pinned here, not configurable. Every value
is exact integer arithmetic; there are no float tolerances anywhere.

Two criteria assert the proved values at degenerate parameters, where
the closed forms or the naive certificate do not apply:

* criterion 2 covers the triangle cycle and wheel. C3 = K3 and W3 = K4
  are regular, so every pair of vertices has equal degree and the
  delta-complement is the complement, here edgeless: the value at n = 3
  is 1, not ceil(3/2) = 2 or 1 + ceil(3/2) = 3. The test shows the
  edgeless delta-complements and that the closed forms decline n = 3;
  for n >= 4 it compares the closed forms with the solver.
* criterion 5 checks chi_delta(C_n x P3) = 2*ceil(n/2). The outer copies
  of C_n have degree 3 and the middle copy degree 4, so the
  delta-complement keeps only the vertical edges at the middle copy,
  turns each outer copy into the complement of C_n, and joins the two
  outer copies completely. A clique inside the outer copies takes at
  most an independent set of C_n from each, 2*floor(n/2) vertices; a
  middle vertex (v,1) sees no outer vertex but (v,0) and (v,2), so a
  clique meeting the middle copy has at most 3 vertices or lies in the
  middle copy (floor(n/2) vertices). The maximum clique is therefore
  2*floor(n/2), which the test asserts; it closes the sandwich for even
  n only. The lower bound for every n is the join certificate: the
  outer copies are fully joined and induce the join of two complements
  of C_n, whose chromatic number is 2*ceil(n/2).
"""

import time

from deltachrom import (
    cartesian_product,
    chi_delta,
    chromatic_number,
    delta_complement,
    delta_of_product,
    equality_holds,
    induced_subgraph,
    is_proper,
    lemma_ceiling_check,
    max_clique_lower,
    ng_bounds_check,
    oracle_chromatic,
    path_path_coloring,
    star_path_coloring,
    star_star_coloring,
    upper_degree_diff_check,
)
from deltachrom.bounds import ceil_div, formula_chi_delta
from deltachrom.families import (
    complete_graph,
    cycle_graph,
    format_spec,
    generate,
    parse_spec,
    path_graph,
    star_graph,
    wheel_graph,
)
from deltachrom.verification import (
    DEFAULT_SEED,
    degree_diff_universe,
    seeded_graph_tuples,
    seeded_graphs,
)


def verdict(number: int, name: str, failures: list[str], detail: str = "") -> None:
    status = "PASS" if not failures else "FAIL"
    extra = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:>2} {name}: {status}{extra}")
    assert not failures, "; ".join(failures)


def test_criterion_01_path_formula():
    failures = []
    t0 = time.perf_counter()
    for n in range(5, 15):
        expected = ceil_div(n - 2, 2)
        result = chi_delta(path_graph(n), timeout=1.0)
        if not (result.exact and result.chi == expected):
            failures.append(f"P{n}: solver {result.chi} != {expected}")
    verdict(1, "path-formula n=5..14", failures, f"{time.perf_counter() - t0:.1f}s")


def test_criterion_02_cycle_and_wheel_formulas():
    failures = []
    t0 = time.perf_counter()
    # C3 = K3 and W3 = K4 are regular: delta(G) is the complement, which is
    # edgeless, so the value at n = 3 is 1 and the closed forms decline it.
    for label, g in (("C3", cycle_graph(3)), ("W3", wheel_graph(3))):
        if delta_complement(g).edge_count():
            failures.append(f"{label}: delta-complement is not edgeless")
        if formula_chi_delta(parse_spec(label)) is not None:
            failures.append(f"{label}: closed form not declined at n=3")
    for n in range(3, 15):
        expected = ceil_div(n, 2) if n >= 4 else 1
        result = chi_delta(cycle_graph(n), timeout=1.0)
        if not (result.exact and result.chi == expected):
            failures.append(f"C{n}: solver {result.chi} != {expected}")
    for n in range(3, 11):
        expected = 1 + ceil_div(n, 2) if n >= 4 else 1
        result = chi_delta(wheel_graph(n), timeout=1.0)
        if not (result.exact and result.chi == expected):
            failures.append(f"W{n}: solver {result.chi} != {expected}")
    verdict(
        2,
        "cycle-formula n=4..14, wheel-formula n=4..10, value 1 at n=3",
        failures,
        f"{time.perf_counter() - t0:.1f}s",
    )


def _union_identity_failures(factors, label):
    dec = delta_of_product(factors)
    left = set(dec.delta_of_product.edges())
    union = set(dec.product_of_deltas.edges()) | set(dec.extra.edges())
    if left != union:
        return [f"{label}: edge sets differ by {len(left ^ union)} edges"]
    return []


def test_criterion_03_structure_theorem():
    failures = []
    t0 = time.perf_counter()
    for i, pair in enumerate(seeded_graph_tuples(50, 2, 2, 6, DEFAULT_SEED)):
        failures += _union_identity_failures(pair, f"pair {i}")
    for i, triple in enumerate(seeded_graph_tuples(20, 3, 1, 4, DEFAULT_SEED + 1)):
        failures += _union_identity_failures(triple, f"triple {i}")
    verdict(3, "structure theorem, 50 pairs + 20 triples", failures,
            f"{time.perf_counter() - t0:.1f}s")


def test_criterion_04_equality_characterization():
    failures = []
    corpora = seeded_graph_tuples(50, 2, 2, 6, DEFAULT_SEED) + seeded_graph_tuples(
        20, 3, 1, 4, DEFAULT_SEED + 1
    )
    for i, factors in enumerate(corpora):
        s_empty = not delta_of_product(factors).extra.edges()
        if equality_holds(factors) != s_empty:
            failures.append(f"instance {i}: equality_holds != (S empty)")
    if not equality_holds([complete_graph(1), cycle_graph(9)]):
        failures.append("[K1, C9] should hold")
    if equality_holds([path_graph(2), path_graph(2)]):
        failures.append("[P2, P2] should not hold")
    verdict(4, "equality iff S empty", failures)


def test_criterion_05_cycle_p3():
    failures = []
    t0 = time.perf_counter()
    for n in range(5, 9):
        expected = 2 * ceil_div(n, 2)
        product, index = cartesian_product([cycle_graph(n), path_graph(3)])
        result = chi_delta(product, timeout=30.0)
        if not (result.exact and result.chi == expected):
            failures.append(f"C{n}xP3: solver {result.chi} != {expected}")
        delta = delta_complement(product)
        # the maximum clique: an independent set of C_n in each outer copy
        omega = 2 * (n // 2)
        clique = max_clique_lower(delta)
        if not (clique.complete and clique.size == omega):
            failures.append(
                f"C{n}xP3: maximum clique {clique.size} "
                f"(complete={clique.complete}) != {omega}"
            )
        # the join certificate: the degree-3 outer copies are fully joined
        # and induce a subgraph whose chromatic number is the value itself
        outer0 = [index.flat((v, 0)) for v in range(n)]
        outer2 = [index.flat((v, 2)) for v in range(n)]
        if not all(delta.has_edge(a, b) for a in outer0 for b in outer2):
            failures.append(f"C{n}xP3: outer copies are not fully joined")
        outer = chromatic_number(induced_subgraph(delta, outer0 + outer2), timeout=30.0)
        if not (outer.exact and outer.chi == expected):
            failures.append(
                f"C{n}xP3: outer copies need {outer.chi} colors != {expected}"
            )
    verdict(5, "cycle-p3 value, maximum clique and join certificate, n=5..8",
            failures, f"{time.perf_counter() - t0:.1f}s")


def test_criterion_06_star_star():
    failures = []
    for m in range(3, 6):
        for n in range(3, 6):
            r = star_star_coloring(m, n)
            ok = (
                is_proper(r.graph, r.coloring)
                and r.coloring.colors_used == m * n
                and len(r.clique) == m * n
                and all(
                    r.graph.has_edge(a, b)
                    for i, a in enumerate(r.clique)
                    for b in r.clique[i + 1 :]
                )
            )
            if not ok:
                failures.append(f"({m},{n}): sandwich certificate broken")
    solver = chi_delta(
        cartesian_product([star_graph(3), star_graph(3)])[0], timeout=30.0
    )
    if solver.chi != 9:
        failures.append(f"solver at (3,3): {solver.chi} != 9")
    verdict(6, "star-star sandwich 3<=m,n<=5 + solver at (3,3)", failures)


def test_criterion_07_star_path():
    failures = []
    for m in (3, 4):
        for n in (3, 4):
            r = star_path_coloring(m, n)
            if not (
                is_proper(r.graph, r.coloring)
                and r.coloring.colors_used == 2 * m
                and len(r.clique) == 2 * m
            ):
                failures.append(f"({m},{n}): construction should give 2m")
    for m, n in ((3, 3), (3, 4)):
        product, _ = cartesian_product([star_graph(m), path_graph(n)])
        solver = chi_delta(product, timeout=30.0)
        fv = formula_chi_delta(parse_spec(f"X(S1,{m},P{n})"))
        if fv is None or fv.statement_value is None:
            failures.append(f"({m},{n}): discrepancy not reported")
        elif solver.chi != fv.proof_value:
            failures.append(
                f"({m},{n}): solver {solver.chi} disagrees with proof value {fv.proof_value}"
            )
    for m in (3, 4):
        for n in range(5, 9):
            r = star_path_coloring(m, n)
            expected = m * ceil_div(n - 2, 2)
            ok = (
                is_proper(r.graph, r.coloring)
                and r.coloring.colors_used == expected
                and len(r.clique) == expected
                and all(
                    r.graph.has_edge(a, b)
                    for i, a in enumerate(r.clique)
                    for b in r.clique[i + 1 :]
                )
            )
            if not ok:
                failures.append(f"({m},{n}): sandwich certificate broken")
    verdict(7, "star-path short/long cases + solver ground truth", failures)


def test_criterion_08_path_path():
    failures = []
    for n, k in ((6, 6), (6, 7), (6, 8), (7, 7), (7, 9)):
        r = path_path_coloring(n, k)
        expected = ceil_div((n - 2) * (k - 2), 2)
        if not is_proper(r.graph, r.coloring):
            failures.append(f"({n},{k}): coloring not proper")
        if r.coloring.colors_used != expected:
            failures.append(
                f"({n},{k}): {r.coloring.colors_used} colors != {expected}"
            )
        if len(r.clique) != expected or not all(
            r.graph.has_edge(a, b)
            for i, a in enumerate(r.clique)
            for b in r.clique[i + 1 :]
        ):
            failures.append(f"({n},{k}): clique certificate broken")
    if path_path_coloring(6, 7).coloring.colors_used != 10:
        failures.append("(6,7) does not reproduce the published value 10")
    verdict(8, "path-path sandwich at the five pinned grids", failures)


def test_criterion_09_lemma_inequality():
    failures = []
    for n in range(6, 41):
        for k in range(max(n, 8), 41):
            chk = lemma_ceiling_check(n, k)
            if not (chk.hypothesis_met and chk.holds):
                failures.append(f"({n},{k}): {chk.detail}")
    verdict(9, "ceiling lemma exhaustive 6<=n<=k<=40, k>=8", failures)


def test_criterion_10_ng_suite():
    failures = []
    t0 = time.perf_counter()
    for i, g in enumerate(seeded_graphs(100, 4, 9, DEFAULT_SEED, connected=True)):
        chi = chromatic_number(g, timeout=5.0).chi
        chi_d = chi_delta(g, timeout=5.0).chi
        product, total = ng_bounds_check(g, chi, chi_d)
        if not (product.hypothesis_met and product.holds):
            failures.append(f"graph {i}: product bound {product.detail}")
        if not (total.hypothesis_met and total.holds):
            failures.append(f"graph {i}: sum bound {total.detail}")
    verdict(10, "both NG-type bounds on 100 seeded connected graphs", failures,
            f"{time.perf_counter() - t0:.1f}s")


def test_criterion_11_sabidussi():
    failures = []
    for i, (g, h) in enumerate(seeded_graph_tuples(30, 2, 2, 6, DEFAULT_SEED)):
        product, _ = cartesian_product([g, h])
        chi_prod = chromatic_number(product, timeout=30.0).chi
        expected = max(chromatic_number(g).chi, chromatic_number(h).chi)
        if chi_prod != expected:
            failures.append(f"pair {i}: chi {chi_prod} != max {expected}")
    verdict(11, "product chromatic number equals factor maximum, 30 pairs", failures)


def test_criterion_12_oracle_equivalence():
    failures = []
    t0 = time.perf_counter()
    for i, g in enumerate(seeded_graphs(100, 1, 9, DEFAULT_SEED)):
        engine = chromatic_number(g, timeout=5.0).chi
        brute = oracle_chromatic(g)
        if engine != brute:
            failures.append(f"graph {i} (n={g.n}): engine {engine} != oracle {brute}")
    verdict(12, "engine matches brute-force oracle on 100 seeded graphs", failures,
            f"{time.perf_counter() - t0:.1f}s")


def test_criterion_13_degree_diff_bound():
    failures = []
    t0 = time.perf_counter()
    universe = [(spec, generate(spec)) for spec in degree_diff_universe(30)]
    chi_cache: dict[str, int] = {}
    product_cache: dict[frozenset, int] = {}
    saw_sharp = False
    checked = 0
    for spec_g, g in universe:
        for spec_h, h in universe:
            if g.n * h.n > 30:
                continue
            probe = upper_degree_diff_check(g, h, 0, 0)
            if not probe.hypothesis_met:
                continue
            gkey, hkey = format_spec(spec_g), format_spec(spec_h)
            for key, graph in ((gkey, g), (hkey, h)):
                if key not in chi_cache:
                    chi_cache[key] = chi_delta(graph, timeout=30.0).chi
            pkey = frozenset((gkey, hkey))
            if pkey not in product_cache:
                product, _ = cartesian_product([g, h])
                product_cache[pkey] = chi_delta(product, timeout=30.0).chi
            check = upper_degree_diff_check(g, h, chi_cache[gkey], product_cache[pkey])
            checked += 1
            if not check.holds:
                failures.append(f"({gkey},{hkey}): {check.detail}")
            if gkey == "C5" and hkey == "P3":
                saw_sharp = True
                if check.lhs != check.rhs:
                    failures.append(f"(C5,P3): expected equality, got {check.detail}")
    if not saw_sharp:
        failures.append("sharp instance (C5,P3) never enumerated")
    verdict(
        13,
        "degree-difference upper bound over all in-hypothesis pairs",
        failures,
        f"{checked} instances, {time.perf_counter() - t0:.1f}s",
    )
