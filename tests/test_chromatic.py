import gc
import math
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltachrom import (
    CliqueResult,
    Coloring,
    Graph,
    cartesian_product,
    chi_delta,
    chromatic_number,
    class_certificates,
    complement,
    delta_complement,
    dsatur_upper,
    is_clique,
    is_proper,
    max_clique_lower,
    oracle_chromatic,
)
from deltachrom import chromatic
from deltachrom.bounds import formula_chi_delta
from deltachrom.families import (
    complete_graph,
    cycle_graph,
    empty_graph,
    generate,
    parse_spec,
    path_graph,
    star_graph,
    wheel_graph,
)
from deltachrom.graphs import degree_masks, iter_bits

from _oracles import (
    brute_clique_cover_number,
    brute_clique_number,
    brute_independence_number,
    brute_is_bipartite,
    exhaustive_chromatic,
    pairwise_is_clique,
    reference_dsatur,
    reference_induced_subgraph,
    reference_is_proper,
    reference_k_search,
)
from strategies import dense_graphs, graphs, wide_graphs

SRC = Path(__file__).resolve().parent.parent / "src"


class FakeClock:
    """Stands in for the solver's ``time.monotonic``: the first ``budget``
    reads come before a deadline of 0.0, every later read after it."""

    def __init__(self, budget=float("inf")):
        self.budget, self.reads = budget, 0

    def __call__(self):
        self.reads += 1
        return -1.0 if self.reads <= self.budget else 1.0


def on_fake_clock(monkeypatch, budget, call):
    """call() with the solver's clock replaced by a FakeClock of the
    budget, and the number of clock reads it made."""
    clock = FakeClock(budget)
    with monkeypatch.context() as m:
        m.setattr(chromatic, "time",
                  SimpleNamespace(monotonic=clock, perf_counter=time.perf_counter))
        return call(), clock.reads


def clique_on_fake_clock(monkeypatch, g, budget=float("inf")):
    """max_clique_lower with a deadline that passes after ``budget`` clock
    reads, and the number of reads it made."""
    clock = FakeClock(budget)
    with monkeypatch.context() as m:
        m.setattr(chromatic, "time", SimpleNamespace(monotonic=clock))
        return max_clique_lower(g, deadline=0.0), clock.reads


# Published 10-coloring of the delta-complement of the 6 x 7 grid product,
# transcribed row by row (row-major over the 6-path first, 0-based colors).
GRID_6x7_TEN_COLORING = (
    0, 1, 1, 8, 8, 0, 8,
    3, 0, 0, 1, 1, 8, 2,
    3, 2, 2, 3, 3, 8, 2,
    5, 4, 4, 5, 5, 9, 4,
    5, 6, 6, 7, 7, 9, 4,
    6, 7, 7, 9, 9, 6, 9,
)


class TestColoring:
    def test_rejects_out_of_palette(self):
        with pytest.raises(ValueError):
            Coloring((0, 3), 3)
        with pytest.raises(ValueError):
            Coloring((0, -1), 2)

    def test_colors_used(self):
        assert Coloring((0, 0, 2), 4).colors_used == 2


class TestIsProper:
    def test_triangle_three_colors(self):
        assert is_proper(complete_graph(3), Coloring((0, 1, 2), 3))

    def test_triangle_repeated_color(self):
        assert not is_proper(complete_graph(3), Coloring((0, 1, 1), 3))

    def test_partial_coloring_rejected(self):
        with pytest.raises(ValueError):
            is_proper(complete_graph(3), Coloring((0, 1), 2))

    def test_published_grid_coloring_is_proper(self):
        product, _ = cartesian_product([path_graph(6), path_graph(7)])
        delta = delta_complement(product)
        assert is_proper(delta, Coloring(GRID_6x7_TEN_COLORING, 10))

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_edge_walk(self, data):
        g = data.draw(wide_graphs(max_n=70))
        k = data.draw(st.integers(min_value=1, max_value=6))
        colors = data.draw(st.lists(st.integers(0, k - 1), min_size=g.n, max_size=g.n))
        assert is_proper(g, Coloring(tuple(colors), k)) == reference_is_proper(g, colors)

    @given(graphs(max_n=10), st.data())
    @settings(max_examples=80, deadline=None)
    def test_proper_and_one_edge_broken(self, g, data):
        # a DSATUR coloring is proper; copying one end's color across an
        # edge makes it improper, and both verdicts match the edge walk
        c = dsatur_upper(g)
        assert is_proper(g, c) and reference_is_proper(g, c.colors)
        if g.edge_count():
            a, b = data.draw(st.sampled_from(g.edges()))
            colors = list(c.colors)
            colors[b] = colors[a]
            assert not is_proper(g, Coloring(tuple(colors), c.palette_size))
            assert not reference_is_proper(g, colors)


class TestIsClique:
    def test_edge_cases(self):
        g = complete_graph(4)
        assert is_clique(g, ())
        assert is_clique(g, (2,))
        assert is_clique(g, (0, 1, 2, 3))
        assert not is_clique(g, (1, 1))
        assert not is_clique(g, (0, 1, 2, 0))
        assert not is_clique(empty_graph(3), (0, 2))

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_pairwise(self, data):
        g = data.draw(graphs(min_n=1, max_n=10))
        vertices = data.draw(st.lists(st.integers(0, g.n - 1), max_size=6))
        assert is_clique(g, vertices) == pairwise_is_clique(g, vertices)

    @given(graphs(min_n=1, max_n=10))
    @settings(max_examples=60, deadline=None)
    def test_every_maximum_clique_passes(self, g):
        vertices = max_clique_lower(g).vertices
        assert is_clique(g, vertices) and pairwise_is_clique(g, vertices)


class TestMaxClique:
    def test_complete(self):
        result = max_clique_lower(complete_graph(7))
        assert result.size == 7 and result.complete

    def test_star_star_delta_grid_clique(self):
        product, _ = cartesian_product([star_graph(3), star_graph(3)])
        assert max_clique_lower(delta_complement(product)).size >= 9

    def test_grid_product_delta_clique(self):
        product, _ = cartesian_product([path_graph(6), path_graph(7)])
        assert max_clique_lower(delta_complement(product)).size >= 10

    def test_budget_exhaustion_still_returns_clique(self, monkeypatch):
        # six reads reach the maximum clique of delta(C7 x P3) but not
        # the node that would prove it maximum
        product, _ = cartesian_product([cycle_graph(7), path_graph(3)])
        g = delta_complement(product)
        result, _ = clique_on_fake_clock(monkeypatch, g, budget=6)
        assert not result.complete
        assert result.size == len(result.vertices) == 6
        assert pairwise_is_clique(g, result.vertices)

    @pytest.mark.parametrize("budget", [0, 1])
    def test_tiny_budget_returns_a_true_clique(self, monkeypatch, budget):
        # budget: clock reads before the deadline passes
        product, _ = cartesian_product([path_graph(6), path_graph(7)])
        g = delta_complement(product)
        result, _ = clique_on_fake_clock(monkeypatch, g, budget)
        assert not result.complete
        assert 1 <= result.size == len(result.vertices) <= 10
        assert pairwise_is_clique(g, result.vertices)

    @pytest.mark.parametrize("budget", [0, 1])
    def test_stop_before_any_leaf_keeps_one_vertex(self, monkeypatch, budget):
        # the first branch of the root opens a second node, so a deadline
        # at the second read stops before any leaf just as one at the first
        g = complement(cycle_graph(9))
        result, reads = clique_on_fake_clock(monkeypatch, g, budget)
        assert (result.size, result.vertices, result.complete) == (1, (0,), False)
        assert reads == budget + 1

    def test_stop_keeps_the_open_path(self, monkeypatch):
        # on K7 each node opens one vertex deeper, so the fourth read
        # stops the search on a path of three vertices before any leaf
        g = complete_graph(7)
        result, reads = clique_on_fake_clock(monkeypatch, g, 3)
        assert (result.size, result.complete, reads) == (3, False, 4)
        assert len(result.vertices) == 3 and pairwise_is_clique(g, result.vertices)

    @pytest.mark.parametrize("g,nodes", [
        (complete_graph(1), 1), (complete_graph(5), 5), (complete_graph(7), 7),
        (empty_graph(7), 1), (complement(cycle_graph(9)), 4),
    ], ids=["K1", "K5", "K7", "N7", "C9-complement"])
    def test_reads_the_clock_once_per_node(self, monkeypatch, g, nodes):
        # on K_m the search opens one node per candidate set of m, m-1,
        # ..., 1 vertices and prunes every sibling; on an edgeless graph
        # every child of the root is a leaf
        result, reads = clique_on_fake_clock(monkeypatch, g)
        assert result.complete and reads == nodes
        # the last node's read decides whether the search finishes
        assert clique_on_fake_clock(monkeypatch, g, nodes)[0].complete
        assert not clique_on_fake_clock(monkeypatch, g, nodes - 1)[0].complete

    def test_expired_deadline_keeps_one_vertex(self):
        g = complement(cycle_graph(9))
        result = max_clique_lower(g, deadline=time.monotonic() - 1)
        assert (result.size, result.vertices, result.complete) == (1, (0,), False)

    @given(graphs(max_n=7))
    @settings(max_examples=60)
    def test_exact_on_small_graphs(self, g):
        result = max_clique_lower(g)
        assert result.complete
        assert result.size == brute_clique_number(g)

    @given(st.one_of(graphs(max_n=12), dense_graphs(max_n=40)))
    @settings(max_examples=80, deadline=None)
    def test_palette_target_stops_on_the_same_clique(self, g):
        # omega <= chi <= palette, so a clique of the palette's size is
        # the last one the full search would find
        full = max_clique_lower(g)
        stopped = max_clique_lower(g, target=dsatur_upper(g).palette_size)
        assert stopped == full and stopped.complete

    def test_palette_target_ends_the_search_early(self, monkeypatch):
        # delta(K4 x C13) holds a 13-clique that DSATUR's 13 colors match:
        # the search stops on the first path down, one node per vertex,
        # where the full search reads the clock 43 291 times to prove it
        # maximum
        g = delta_complement(term_graph("X(K4,C13)"))
        palette = dsatur_upper(g).palette_size
        assert palette == 13
        clock = FakeClock()
        with monkeypatch.context() as m:
            m.setattr(chromatic, "time", SimpleNamespace(monotonic=clock))
            stopped = max_clique_lower(g, deadline=0.0, target=palette)
        assert stopped.size == 13 and stopped.complete
        assert clock.reads == 13 and is_clique(g, stopped.vertices)


class TestDsatur:
    def test_edgeless(self):
        assert dsatur_upper(empty_graph(5)).colors_used == 1

    def test_odd_cycle(self):
        assert dsatur_upper(cycle_graph(5)).colors_used == 3

    @given(graphs())
    def test_always_proper(self, g):
        c = dsatur_upper(g)
        assert is_proper(g, c)
        assert c.palette_size == (max(c.colors) + 1 if g.n else 0)

    @given(dense_graphs())
    @settings(max_examples=150, deadline=None)
    def test_same_coloring_as_full_scan(self, g):
        assert dsatur_upper(g) == reference_dsatur(g)

    @pytest.mark.parametrize("g", [
        Graph(0), empty_graph(1), empty_graph(70), complete_graph(1),
        complete_graph(65), complete_graph(130),
    ], ids=["n0", "N1", "N70", "K1", "K65", "K130"])
    def test_edgeless_and_complete(self, g):
        # K65 and K130 carry the saturation counter over several bits
        assert dsatur_upper(g) == reference_dsatur(g)

    @pytest.mark.parametrize("term", [
        "C3", "C4", "C17", "C40", "X(C4,C4)", "X(C5,C7)", "X(C9,C11)",
        "X(C3,C3,C3)", "X(C25,C25)",
    ])
    def test_regular_graphs_break_ties_by_id(self, term):
        # every vertex has the same degree, in g and in its delta-complement
        g = generate(parse_spec(term))
        assert dsatur_upper(g) == reference_dsatur(g)
        assert dsatur_upper(delta_complement(g)) == reference_dsatur(delta_complement(g))

    @pytest.mark.parametrize("term", [
        "X(P6,P7)", "X(P25,P25)", "X(P9,P9,P7)", "X(S1,5,P20)", "X(S1,24,P25)",
        "X(S1,4,S1,6)", "X(S1,3,S1,3,P5)", "X(C5,P30)", "X(C24,C26)", "X(P10,C13)",
    ])
    def test_delta_of_products(self, term):
        g = delta_complement(generate(parse_spec(term)))
        assert dsatur_upper(g) == reference_dsatur(g)

    def test_delta_of_p40_grid(self):
        g = delta_complement(generate(parse_spec("X(P40,P40)")))
        assert dsatur_upper(g) == reference_dsatur(g)


class TestChromaticNumber:
    def test_cycle_delta(self):
        assert chromatic_number(delta_complement(cycle_graph(9))).chi == 5

    def test_path_delta(self):
        assert chromatic_number(delta_complement(path_graph(7))).chi == 3

    def test_single_vertex(self):
        assert chromatic_number(complete_graph(1)).chi == 1

    def test_empty_graph(self):
        from deltachrom import Graph

        result = chromatic_number(Graph(0))
        assert result.chi == 0 and result.exact

    def test_cycle_complement_needs_half(self):
        # DSATUR may overshoot here; the search must close the gap to 5
        assert chromatic_number(complement(cycle_graph(9))).chi == 5

    @given(graphs(max_n=7))
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_oracle(self, g):
        assert chromatic_number(g).chi == oracle_chromatic(g)

    @given(graphs(max_n=8))
    @settings(max_examples=60, deadline=None)
    def test_sandwich_and_witness(self, g):
        result = chromatic_number(g)
        assert result.exact
        assert result.clique_lower <= result.chi <= dsatur_upper(g).colors_used
        assert is_proper(g, result.witness)
        assert result.witness.colors_used == result.chi
        assert len(result.clique) == result.clique_lower

    @given(graphs(max_n=7))
    @settings(max_examples=30, deadline=None)
    def test_deterministic_witness(self, g):
        first = chromatic_number(g)
        second = chromatic_number(g)
        assert first.witness == second.witness
        assert first.clique == second.clique

    def test_timeout_brackets(self):
        product, _ = cartesian_product([cycle_graph(9), path_graph(3)])
        g = delta_complement(product)
        result = chromatic_number(g, timeout=0.0)
        assert not result.exact and result.chi is None
        assert 1 <= result.lower <= 10 <= result.upper
        assert result.clique_lower >= 1
        assert is_proper(g, result.witness)

    @pytest.mark.parametrize("budget", [0, 1])
    @pytest.mark.parametrize("n", [5, 7, 9])
    def test_tiny_clique_budget_keeps_the_bracket(self, monkeypatch, n, budget):
        # chi(delta(C_n x P3)) = 2*ceil(n/2); a clique search cut short
        # after `budget` clock reads still gives a sound lower bound, and
        # the k-search closes the gap
        product, _ = cartesian_product([cycle_graph(n), path_graph(3)])
        g = delta_complement(product)
        cut, _ = clique_on_fake_clock(monkeypatch, g, budget)
        assert cut == CliqueResult(1, (0,), False)
        monkeypatch.setattr(chromatic, "max_clique_lower", lambda g, deadline, target: cut)
        result = chromatic_number(g)
        assert result.exact and result.chi == 2 * ((n + 1) // 2)
        assert result.clique == (0,) and result.method == "branch-and-bound"
        assert is_proper(g, result.witness)
        assert result.witness.colors_used == result.chi

    @given(graphs(max_n=8), st.sampled_from([0.0, 60.0]))
    @settings(max_examples=60, deadline=None)
    def test_derived_fields(self, g, timeout):
        result = chromatic_number(g, timeout=timeout)
        assert result.exact == (result.lower == result.upper)
        assert result.chi == (result.upper if result.exact else None)
        assert result.clique_lower == len(result.clique) <= result.lower
        assert is_proper(g, result.witness)
        assert result.witness.palette_size == result.upper

    def test_deadline_holds_at_the_vertex_limit(self):
        # 10 000 vertices: one node of the clique search colour-sorts up
        # to 10 000 candidates, so the deadline must be read at every node
        g = generate(parse_spec("X(K4,P50,P50)"))
        start = time.perf_counter()
        result = chi_delta(g, timeout=1.0)
        assert not result.exact
        assert time.perf_counter() - start < 4.0

    def test_deep_solves_leave_the_recursion_limit_alone(self):
        # the limit is set below the depth a recursive clique search
        # (50 on delta(P12 x P12)) or k-search (about 18 on
        # delta(C5 x C7)) would need, after the package is imported
        script = (
            "import sys\n"
            "from deltachrom import chi_delta, generate, parse_spec\n"
            "sys.setrecursionlimit(40)\n"
            "a = chi_delta(generate(parse_spec('X(P12,P12)')))\n"
            "b = chi_delta(generate(parse_spec('X(C5,C7)')))\n"
            "print(a.chi, a.method, b.chi, b.method, sys.getrecursionlimit())\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            cwd=SRC, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["50", "sandwich", "18", "branch-and-bound", "40"]


class TestOracle:
    def test_square(self):
        product, _ = cartesian_product([path_graph(2), path_graph(2)])
        assert oracle_chromatic(product) == 2

    def test_star_delta(self):
        assert oracle_chromatic(delta_complement(star_graph(3))) == 4

    def test_path_delta(self):
        assert oracle_chromatic(delta_complement(path_graph(5))) == 2

    def test_size_limit(self):
        with pytest.raises(ValueError):
            oracle_chromatic(empty_graph(13))

    @given(graphs(max_n=6))
    @settings(max_examples=40)
    def test_agrees_with_exhaustive_assignments(self, g):
        assert oracle_chromatic(g) == exhaustive_chromatic(g)

    def test_call_leaves_no_reference_cycle(self):
        g = complement(cycle_graph(9))
        gc.disable()
        try:
            gc.collect()
            assert oracle_chromatic(g) == 5
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestChiDelta:
    def test_wheel(self):
        assert chi_delta(wheel_graph(9)).chi == 6

    def test_complete_graph_collapses(self):
        assert chi_delta(complete_graph(5)).chi == 1

    def test_cycle_times_p3(self):
        product, _ = cartesian_product([cycle_graph(5), path_graph(3)])
        assert chi_delta(product).chi == 6

    def test_result_json_schema(self):
        payload = chi_delta(cycle_graph(9)).to_json_dict()
        assert set(payload) == {"chi", "lower", "upper", "exact", "witness", "method", "ms"}
        assert payload["chi"] == 5 and payload["exact"] is True
        assert len(payload["witness"]) == 9


def term_graph(term: str) -> Graph:
    return generate(parse_spec(term))


def palette_of(g: Graph) -> int:
    return dsatur_upper(delta_complement(g)).palette_size


class TestClassClique:
    @given(graphs(max_n=12))
    @settings(max_examples=80, deadline=None)
    def test_is_a_clique_of_the_delta_complement(self, g):
        # asked for DSATUR's palette or for chi, the pass returns a clique
        # of exactly that size or none
        d = delta_complement(g)
        chi = oracle_chromatic(d)
        for palette in {dsatur_upper(d).palette_size, chi}:
            clique, _, _ = class_certificates(g, palette)
            assert len(clique) in (0, palette)
            assert is_clique(d, clique) and pairwise_is_clique(d, clique)
            assert len(clique) <= chi

    @given(graphs(max_n=12))
    @settings(max_examples=80, deadline=None)
    def test_colour_sides_are_an_independent_set_within_alpha(self, g):
        for mask in degree_masks(g).values():
            sides, bound = chromatic._class_sweep(g, mask)
            vertices = list(iter_bits(mask))
            assert (sides is None) == (not brute_is_bipartite(g, vertices))
            if sides is not None:
                assert sides & ~mask == 0
                assert brute_independence_number(g, iter_bits(sides)) == sides.bit_count()
                assert bound <= sides.bit_count() <= brute_independence_number(g, vertices)

    @pytest.mark.parametrize("term,chi,closes,unreachable", [
        ("X(P6,P7)", 10, True, 2), ("X(S1,5,P9)", 20, True, 1), ("X(S1,4,S1,6)", 24, True, 1),
        ("C8", 4, True, 1), ("X(C6,P4)", 6, True, 2), ("X(C5,C7)", 18, False, 1),
    ])
    def test_reads_the_clock_once_per_class(self, monkeypatch, term, chi, closes, unreachable):
        # asked for chi, the pass sweeps the largest class and stops: it
        # bounds chi by chi, and but for the torus its colour sides reach
        # it (the interior 4 x 5 grid, five paths P7, 24 pairwise
        # non-adjacent leaf pairs, the whole even cycle and a C6 x P2
        # ladder). A palette no set reaches sweeps each class larger than
        # the bound so far: the 18 side vertices of X(P6,P7) and the
        # other ladder of X(C6,P4) too, and no class after them
        g = term_graph(term)
        (clique, bound, _), reads = on_fake_clock(
            monkeypatch, float("inf"), lambda: class_certificates(g, chi, deadline=0.0))
        assert (len(clique), bound, reads) == (chi if closes else 0, chi, 1)
        (clique, bound, _), reads = on_fake_clock(
            monkeypatch, float("inf"), lambda: class_certificates(g, g.n + 1, deadline=0.0))
        assert (clique, bound, reads) == ((), chi, unreachable)

    @pytest.mark.parametrize("term", ["X(P6,P7)", "X(S1,5,P9)", "X(S1,4,S1,6)", "C8"])
    def test_past_the_deadline_it_is_empty(self, monkeypatch, term):
        g = term_graph(term)
        result, reads = on_fake_clock(
            monkeypatch, 0, lambda: class_certificates(g, palette_of(g), deadline=0.0))
        assert (result, reads) == (((), 0, 0), 1)

    @pytest.mark.parametrize("term", ["X(P6,P7)", "X(S1,5,P9)", "X(C9,P3)", "X(C5,C7)", "W9"])
    def test_expired_deadline_solves_as_before(self, monkeypatch, term):
        # the first read sets the deadline and every later one is past it:
        # the class pass ends before its first class, and chi_delta
        # returns the bracket and the one-vertex clique of the clique
        # search cut at its first node
        g = term_graph(term)
        d = delta_complement(g)
        before, _ = on_fake_clock(monkeypatch, 1, lambda: chromatic_number(d, timeout=1.0))
        after, _ = on_fake_clock(monkeypatch, 1, lambda: chi_delta(g, timeout=1.0))
        assert (after.lower, after.upper, after.clique, after.witness) == (
            before.lower, before.upper, before.clique, before.witness)
        assert after.clique == (0,) and not after.exact and after.bound_class == 0
        assert after.upper == dsatur_upper(d).palette_size

    @pytest.mark.parametrize("term", [
        "X(P12,P15)", "X(S1,5,P9)", "X(S1,4,S1,6)",
        # the corners of the grid workload's ranges
        "X(P10,P40)", "X(P40,P40)", "X(S1,3,P5)", "X(S1,12,P40)", "X(S1,3,S1,20)",
        "X(S1,20,S1,20)",
        # components whose two sides tie; tests/test_solve_golden.py pins
        # which side certifies them
        "P14", "X(C10,P3)",
    ])
    def test_bipartite_solves_skip_the_clique_search(self, monkeypatch, term):
        g = term_graph(term)
        d = delta_complement(g)

        def no_clique_search(*args, **kwargs):
            raise AssertionError("the clique search ran")

        monkeypatch.setattr(chromatic, "max_clique_lower", no_clique_search)
        result = chi_delta(g)
        assert result.exact and result.method == "sandwich"
        assert result.chi == formula_chi_delta(parse_spec(term)).value
        assert result.witness == dsatur_upper(d)
        assert is_clique(d, result.clique) and len(result.clique) == result.chi

    def test_a_class_of_the_palette_size_is_swept_after_the_bound_meets_it(self, monkeypatch):
        # C5 plus three isolated vertices: delta is C5 plus K3 and the
        # palette is 3. The C5 class comes first and bounds chi by 3; the
        # isolated class, of 3 vertices, still gives the clique
        g = Graph(8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        assert palette_of(g) == 3

        def no_clique_search(*args, **kwargs):
            raise AssertionError("the clique search ran")

        monkeypatch.setattr(chromatic, "max_clique_lower", no_clique_search)
        result = chi_delta(g)
        assert (result.chi, result.method, result.clique) == (3, "sandwich", (5, 6, 7))

    @given(graphs(max_n=10))
    @settings(max_examples=80, deadline=None)
    def test_same_solve_as_without_the_class_clique(self, g):
        # the class pass changes at most which clique certifies a sandwich
        d = delta_complement(g)
        with_class, without = chi_delta(g), chromatic_number(d)
        assert (with_class.lower, with_class.upper, with_class.witness, with_class.method) == (
            without.lower, without.upper, without.witness, without.method)
        assert len(with_class.clique) == len(without.clique)
        assert is_clique(d, with_class.clique)

    def test_a_false_clique_is_refused(self):
        # vertices 0..9 of delta(P6 x P7) hold 1 and 2, neighbours on a
        # side of the grid: one degree class, so not adjacent in delta
        g = delta_complement(term_graph("X(P6,P7)"))
        assert dsatur_upper(g).palette_size == 10 and not g.has_edge(1, 2)
        with pytest.raises(RuntimeError, match="clique verification failed"):
            chromatic_number(g, certificates=lambda k, deadline: (tuple(range(k)), 0, 0))
        # one vertex is a clique, but not of the palette's size
        with pytest.raises(RuntimeError, match="clique verification failed"):
            chromatic_number(g, certificates=lambda k, deadline: ((0,), 0, 0))


def counted_k_searches(monkeypatch):
    """The k of every _k_coloring_search call made while the patch holds."""
    ks = []
    search = chromatic._k_coloring_search

    def counted(g, k, clique, deadline):
        ks.append(k)
        return search(g, k, clique, deadline)

    monkeypatch.setattr(chromatic, "_k_coloring_search", counted)
    return ks


class TestClassBound:
    @given(graphs(max_n=12))
    @settings(max_examples=80, deadline=None)
    def test_is_a_lower_bound_with_its_class(self, g):
        # each triangle-free class bounds chi from below by at most its
        # clique-cover number, and the result is the largest of them; a
        # palette of n + 1 vertices asks for the bound alone
        d = delta_complement(g)
        clique, bound, mask = class_certificates(g, g.n + 1)
        assert clique == () and bound <= oracle_chromatic(d)
        per_class = [0]
        for klass in degree_masks(g).values():
            vertices = list(iter_bits(klass))
            _, alone, cert = class_certificates(g, g.n + 1, classes=[klass])
            assert alone == chromatic._class_sweep(g, klass)[1]
            triangle_free = brute_clique_number(reference_induced_subgraph(g, vertices)) <= 2
            assert (alone > 0) == triangle_free
            assert cert == (klass if alone else 0)
            assert (len(vertices) + 1) // 2 * triangle_free <= alone
            assert alone <= brute_clique_cover_number(g, vertices)
            per_class.append(alone)
        assert bound == max(per_class)
        assert mask == 0 if bound == 0 else (
            class_certificates(g, g.n + 1, classes=[mask]) == ((), bound, mask))

    @pytest.mark.parametrize("term,bound,ks", [
        ("X(C5,C7)", 18, [18]), ("X(P9,C5)", 18, [18]), ("X(C4,C9)", 18, [18]),
        ("X(C9,S1,5)", 25, []), ("X(C5,S1,6)", 18, []), ("W9", 5, [5]),
    ])
    def test_the_k_search_starts_at_the_bound(self, monkeypatch, term, bound, ks):
        # the tori and X(P9,C5) are decided by the one call at chi; the
        # star products' bound meets DSATUR's palette. W9's rim C9 gives
        # 5, no more than its clique, and chi is 6, so k = 5 is refuted
        g = term_graph(term)
        d = delta_complement(g)
        calls = counted_k_searches(monkeypatch)
        result = chi_delta(g)
        assert calls == ks and result.exact and result.method == "branch-and-bound"
        clique, got, mask = class_certificates(g, palette_of(g))
        assert clique == () and got == bound
        assert result.bound_class == (mask if bound > len(result.clique) else 0)
        without = chromatic_number(d)
        assert (result.chi, result.witness, result.clique) == (
            without.chi, without.witness, without.clique)

    def test_a_cut_search_keeps_the_bound_and_its_class(self, monkeypatch):
        # the one component C35 of X(C5,C7) gives 18 and no k is decided
        g = term_graph("X(C5,C7)")

        def no_search(*args):
            raise chromatic.SolverTimeout

        monkeypatch.setattr(chromatic, "_k_coloring_search", no_search)
        result = chi_delta(g)
        assert (result.lower, result.bound_class) == (18, (1 << 35) - 1)
        assert not result.exact and result.clique_lower < 18
        assert result.to_json_dict()["lower"] == 18

    def test_a_cut_clique_search_keeps_the_bound(self, monkeypatch):
        # two reads in time: one sets the deadline and one lets the class
        # pass sweep X(C5,C7)'s one class. The clique search stops at its
        # first node and the k-search at its first step, so the bound is
        # all the solve has, and it is kept
        g = term_graph("X(C5,C7)")
        result, reads = on_fake_clock(monkeypatch, 2, lambda: chi_delta(g, timeout=1.0))
        assert (result.lower, result.upper) == (18, palette_of(g))
        assert result.bound_class == (1 << 35) - 1 and result.clique == (0,)
        assert reads == 4

    def test_a_bound_above_the_palette_is_refused(self):
        d = delta_complement(term_graph("X(C5,C7)"))
        with pytest.raises(RuntimeError, match="lower bound above a proper coloring"):
            chromatic_number(d, certificates=lambda k, deadline: ((), k + 1, 1))

    @pytest.mark.parametrize("term", ["X(C5,C7)", "W9", "X(P9,C5)"])
    def test_past_the_deadline_it_is_zero(self, monkeypatch, term):
        g = term_graph(term)
        assert on_fake_clock(
            monkeypatch, 0, lambda: class_certificates(g, palette_of(g), deadline=0.0)
        ) == (((), 0, 0), 1)


def k_search_on_fake_clock(monkeypatch, g, k, clique, budget=float("inf")):
    """_k_coloring_search with a deadline that passes after ``budget``
    clock reads, its result ("timeout" when the deadline stopped it) and
    the number of reads it made."""

    def call():
        try:
            return chromatic._k_coloring_search(g, k, clique, 0.0)
        except chromatic.SolverTimeout:
            return "timeout"

    return on_fake_clock(monkeypatch, budget, call)


def assert_same_k_search_as_reference(g):
    # every k from the clique size up to DSATUR's palette, with the
    # clique pinned as chromatic_number pins it
    clique = max_clique_lower(g).vertices
    chi = oracle_chromatic(g) if g.n <= chromatic.ORACLE_VERTEX_LIMIT else None
    for k in range(len(clique), dsatur_upper(g).palette_size + 1):
        got = chromatic._k_coloring_search(g, k, clique, math.inf)
        assert got == reference_k_search(g, k, clique)
        if got is not None:
            assert is_proper(g, Coloring(got, k))
        if chi is not None:
            assert (got is None) == (k < chi)


class TestKColoringSearch:
    @given(graphs(max_n=12))
    @settings(max_examples=120, deadline=None)
    def test_same_answer_as_the_per_vertex_search(self, g):
        assert_same_k_search_as_reference(g)

    @given(dense_graphs(max_n=40))
    @settings(max_examples=150, deadline=None)
    def test_same_answer_on_dense_graphs(self, g):
        assert_same_k_search_as_reference(g)

    @pytest.mark.parametrize("budget", [0, 1, 17, 4917])
    def test_stops_at_the_first_read_past_the_budget(self, monkeypatch, budget):
        # the full search on delta(X(C5,C7)) at k = 18 takes 4918 steps
        d = delta_complement(term_graph("X(C5,C7)"))
        clique = max_clique_lower(d).vertices
        assert k_search_on_fake_clock(monkeypatch, d, 18, clique, budget) == (
            "timeout", budget + 1)

    @pytest.mark.parametrize("term,k,steps,colorable", [
        ("X(C5,C7)", 18, 4918, True), ("W9", 5, 4, False),
    ])
    def test_reads_the_clock_once_per_step(self, monkeypatch, term, k, steps, colorable):
        # the step counts of the per-vertex search this one replaced: the
        # same count means the same search tree
        d = delta_complement(term_graph(term))
        clique = max_clique_lower(d).vertices
        result, reads = k_search_on_fake_clock(monkeypatch, d, k, clique)
        assert reads == steps
        assert (result is not None) == colorable
        assert result == reference_k_search(d, k, clique)

    def test_an_improper_coloring_is_refused(self, monkeypatch):
        g = term_graph("X(C5,C7)")
        monkeypatch.setattr(chromatic, "_k_coloring_search",
                            lambda g, k, clique, deadline: (0,) * g.n)
        with pytest.raises(RuntimeError, match="witness verification failed"):
            chi_delta(g)
