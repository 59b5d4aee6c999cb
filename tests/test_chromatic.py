import gc
import math
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
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
from deltachrom import graphs as graph_core
from deltachrom.bounds import class_counts, formula_chi_delta
from deltachrom.families import (
    complete_graph,
    cycle_graph,
    disjoint_union,
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
    reference_contraction,
    reference_dsatur,
    reference_induced_subgraph,
    reference_is_proper,
    reference_k_search,
)
from strategies import dense_graphs, graphs, graphs_with_isolated_vertices, wide_graphs
from test_solve_golden import SEARCH_TERMS, gnp_graphs

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


class TestGreedyClique:
    @given(st.one_of(graphs(max_n=12), dense_graphs(max_n=60)))
    @settings(max_examples=120, deadline=None)
    def test_is_a_maximal_clique(self, g):
        clique = chromatic._greedy_clique(g)
        assert pairwise_is_clique(g, clique) and (len(clique) > 0) == (g.n > 0)
        common = (1 << g.n) - 1
        for v in clique:
            common &= g.adjacency_mask(v)
        assert common == 0

    @given(graphs(max_n=12))
    @settings(max_examples=80, deadline=None)
    def test_takes_the_lowest_id_of_the_first_class_it_meets(self, g):
        # each vertex has the highest degree among the common neighbours
        # of the ones before it, and the lowest id among those
        cand, grown = set(range(g.n)), []
        while cand:
            v = min(cand, key=lambda u: (-g.degree(u), u))
            grown.append(v)
            cand &= set(g.neighbors(v))
        assert chromatic._greedy_clique(g) == tuple(sorted(grown))

    def test_the_solves_are_the_same_without_it(self, monkeypatch):
        # it only stands in for a clique search that would stop at the
        # palette too: every bracket, method and witness of the golden
        # solves is the same when it grows no clique
        solves = [term_graph(term) for term in SEARCH_TERMS] + gnp_graphs()
        with_greedy = [chi_delta(g) for g in solves]
        monkeypatch.setattr(chromatic, "_greedy_clique", lambda g: ())
        for g, before in zip(solves, with_greedy):
            after = chi_delta(g)
            assert (after.lower, after.upper, after.method, after.witness) == (
                before.lower, before.upper, before.method, before.witness)
            assert after.clique == before.clique or before.method == "sandwich"

    @given(graphs(max_n=9))
    @settings(max_examples=80, deadline=None)
    def test_small_solves_are_the_same_without_it(self, g):
        d = delta_complement(g)
        before = chromatic_number(d)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(chromatic, "_greedy_clique", lambda g: ())
            after = chromatic_number(d)
        assert (after.lower, after.upper, after.method, after.witness) == (
            before.lower, before.upper, before.method, before.witness)

    @pytest.mark.parametrize("cut_size", [1, 9, 10])
    def test_a_cut_clique_search_keeps_the_larger_clique(self, monkeypatch, cut_size):
        # the greedy clique of delta(C5 x C5) has 9 vertices, omega is 10
        # and DSATUR's palette 15, so the clique search runs; cut short,
        # the larger of the two cliques is the lower end, and a tie keeps
        # the greedy's
        g = delta_complement(term_graph("X(C5,C5)"))
        greedy = chromatic._greedy_clique(g)
        full = max_clique_lower(g)
        assert (len(greedy), full.size, dsatur_upper(g).palette_size) == (9, 10, 15)
        cut = CliqueResult(cut_size, full.vertices[:cut_size], False)
        monkeypatch.setattr(chromatic, "max_clique_lower", lambda g, deadline, target: cut)

        def no_search(*args):
            raise chromatic.SolverTimeout

        monkeypatch.setattr(chromatic, "_k_coloring_search", no_search)
        result = chromatic_number(g)
        kept = greedy if cut_size <= len(greedy) else cut.vertices
        assert (result.clique, result.lower, result.upper) == (kept, len(kept), 15)

    def test_a_complete_search_keeps_its_clique(self):
        # on delta(C5 x P3) the greedy clique is maximum too, but below
        # chi = 6: the complete search's clique is the solve's, and the
        # k-search pins it as before
        g = delta_complement(cartesian_product([cycle_graph(5), path_graph(3)])[0])
        greedy, full = chromatic._greedy_clique(g), max_clique_lower(g)
        assert len(greedy) == full.size == 4 and greedy != full.vertices
        result = chromatic_number(g)
        assert result.clique == full.vertices and result.method == "branch-and-bound"

    def test_an_expired_deadline_grows_none(self, monkeypatch):
        # one read sets the deadline and the one before the greedy clique
        # is past it; the clique search and the k-search stop at their
        # first reads
        g = delta_complement(cartesian_product([cycle_graph(5), path_graph(3)])[0])
        grown = []
        greedy = chromatic._greedy_clique
        monkeypatch.setattr(chromatic, "_greedy_clique", lambda g: grown.append(g) or greedy(g))
        result, reads = on_fake_clock(monkeypatch, 1, lambda: chromatic_number(g, timeout=1.0))
        assert (grown, result.clique, result.exact, reads) == ([], (0,), False, 4)

    def test_a_clique_that_is_none_is_refused(self, monkeypatch):
        g = delta_complement(cartesian_product([cycle_graph(5), path_graph(3)])[0])
        apart = next(v for v in range(1, g.n) if not g.has_edge(0, v))
        monkeypatch.setattr(chromatic, "_greedy_clique", lambda g: (0, apart))
        with pytest.raises(RuntimeError, match="clique verification failed"):
            chromatic_number(g)

    def test_meets_the_palette_with_no_clique_search(self, monkeypatch):
        # delta(S1,29) is K30: the greedy clique is the whole graph
        def no_clique_search(*args, **kwargs):
            raise AssertionError("the clique search ran")

        monkeypatch.setattr(chromatic, "max_clique_lower", no_clique_search)
        result = chi_delta(star_graph(29))
        assert result.exact and result.chi == 30 and result.method == "sandwich"
        assert result.clique == tuple(range(30))


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

    @given(graphs_with_isolated_vertices())
    @settings(max_examples=150, deadline=None)
    def test_same_coloring_with_isolated_vertices(self, g):
        # DSATUR stops at the first vertex of degree 0 it picks; the ones
        # left are isolated and keep color 0
        assert dsatur_upper(g) == reference_dsatur(g)

    @pytest.mark.parametrize("g", [
        *(complete_graph(m) for m in (1, 2, 4, 8, 16)),
        *(empty_graph(m) for m in (1, 2, 4, 8, 16)),
        disjoint_union([complete_graph(4), complete_graph(4)]),
        disjoint_union([complete_graph(8), empty_graph(3), complete_graph(8)]),
        disjoint_union([empty_graph(2), complete_graph(16), complete_graph(3)]),
    ], ids=["K1", "K2", "K4", "K8", "K16", "N1", "N2", "N4", "N8", "N16",
            "K4+K4", "K8+N3+K8", "N2+K16+K3"])
    def test_the_palette_reaches_the_leaf_count(self, g):
        # on K_m with m a power of two the palette reaches the m leaves of
        # the color tree, so first fit starts at the root; with vertices
        # left after that it must not start above it
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

    @pytest.mark.parametrize("budget", [0, 1, 2, 3])
    def test_reads_the_clock_once_per_256_vertices(self, monkeypatch, budget):
        # 800 vertices: reads after the 256th, 512th and 768th; the
        # first read past the budget stops it
        g = delta_complement(term_graph("X(P20,P40)"))

        def call():
            try:
                return dsatur_upper(g, deadline=0.0)
            except chromatic.SolverTimeout:
                return "timeout"

        result, reads = on_fake_clock(monkeypatch, budget, call)
        if budget < 3:
            assert (result, reads) == ("timeout", budget + 1)
        else:
            assert (result, reads) == (dsatur_upper(g), 3)

    @given(graphs(max_n=40))
    def test_no_read_below_256_vertices(self, g):
        with pytest.MonkeyPatch.context() as m:
            result, reads = on_fake_clock(m, 0, lambda: dsatur_upper(g, deadline=0.0))
        assert result == dsatur_upper(g) and reads == 0


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

    def test_nan_timeout_is_refused(self):
        # no deadline comparison with NaN is ever true, so it would never stop
        g = delta_complement(cartesian_product([cycle_graph(7), cycle_graph(9)])[0])
        with pytest.raises(ValueError, match="got nan"):
            chromatic_number(g, timeout=math.nan)
        with pytest.raises(ValueError, match="got nan"):
            chi_delta(cycle_graph(5), timeout=float("nan"))

    @pytest.mark.parametrize("budget", [0, 1])
    @pytest.mark.parametrize("n", [5, 7, 9])
    def test_tiny_clique_budget_keeps_the_bracket(self, monkeypatch, n, budget):
        # chi(delta(C_n x P3)) = 2*ceil(n/2); a clique search cut short
        # after `budget` clock reads still gives a sound lower bound, and
        # the k-search closes the gap. With no greedy clique, the cut
        # search's one vertex is the solve's clique
        product, _ = cartesian_product([cycle_graph(n), path_graph(3)])
        g = delta_complement(product)
        cut, _ = clique_on_fake_clock(monkeypatch, g, budget)
        assert cut == CliqueResult(1, (0,), False)
        monkeypatch.setattr(chromatic, "max_clique_lower", lambda g, deadline, target: cut)
        monkeypatch.setattr(chromatic, "_greedy_clique", lambda g: ())
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
        # 9 918 vertices: one node of the clique search colour-sorts up
        # to 9 918 candidates, so the deadline must be read at every node.
        # Neither the greedy clique nor the cut search meets DSATUR's
        # palette here
        g = generate(parse_spec("X(K3,P57,P58)"))
        start = time.perf_counter()
        result = chi_delta(g, timeout=1.0)
        assert not result.exact
        assert time.perf_counter() - start < 4.0

    def test_deep_solves_leave_the_recursion_limit_alone(self):
        # the limit is set below the depth a recursive clique search
        # (50 on delta(P12 x P12)) or k-search (about 18 on
        # delta(C5 x C7)) would need, after the package is imported.
        # chi_delta closes the torus on its matched colouring, so the
        # k-search runs under the class pass alone
        script = (
            "import sys\n"
            "from deltachrom import (chi_delta, chromatic_number, class_certificates,\n"
            "                        delta_complement, generate, parse_spec)\n"
            "sys.setrecursionlimit(40)\n"
            "a = chi_delta(generate(parse_spec('X(P12,P12)')))\n"
            "g = generate(parse_spec('X(C5,C7)'))\n"
            "b = chromatic_number(delta_complement(g), certificates=lambda palette, deadline:\n"
            "                     (*class_certificates(g, palette, deadline)[:2], None))\n"
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
    def test_a_bipartite_class_bound_is_within_alpha(self, g):
        # on a bipartite class the larger colour side of each component is
        # independent, so the bound, the sum of the components' halves
        # rounded up, is at most alpha
        for mask in degree_masks(g).values():
            vertices = list(iter_bits(mask))
            if brute_is_bipartite(g, vertices):
                assert chromatic._class_sweep(g, mask) <= brute_independence_number(g, vertices)

    @pytest.mark.parametrize("term,chi,unreachable", [
        ("X(P6,P7)", 10, 2), ("X(S1,5,P9)", 20, 1), ("X(S1,4,S1,6)", 24, 1),
        ("C8", 4, 1), ("X(C6,P4)", 6, 2), ("X(C5,C7)", 18, 1),
    ])
    def test_reads_the_clock_once_per_class(self, monkeypatch, term, chi, unreachable):
        # asked for chi, the pass sweeps the largest class and stops: it
        # bounds chi by chi (the interior 4 x 5 grid, five paths P7, 24 leaf
        # pairs, the whole even cycle, a C6 x P2 ladder and the whole
        # torus). A palette no bound reaches sweeps each class larger than
        # the bound so far: the 18 side vertices of X(P6,P7) and the other
        # ladder of X(C6,P4) too, and no class after them
        g = term_graph(term)
        for palette, read in ((chi, 1), (g.n + 1, unreachable)):
            (bound, _), reads = on_fake_clock(
                monkeypatch, float("inf"), lambda: class_certificates(g, palette, deadline=0.0))
            assert (bound, reads) == (chi, read)

    @pytest.mark.parametrize("term", ["X(P6,P7)", "X(S1,5,P9)", "X(S1,4,S1,6)", "C8"])
    def test_past_the_deadline_it_is_empty(self, monkeypatch, term):
        g = term_graph(term)
        result, reads = on_fake_clock(
            monkeypatch, 0, lambda: class_certificates(g, palette_of(g), deadline=0.0))
        assert (result, reads) == ((0, 0), 1)

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
        # two `search` terms whose degree classes are bipartite
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
        assert result.clique == () and result.bound_class

    @given(graphs(max_n=10))
    # the matched colouring has 3 colours to DSATUR's 4, and the clique
    # (0, 1, 7) meets it: a sandwich, where plain DSATUR's palette leaves
    # a gap that the k-search closes
    @example(Graph(9, [(0, 1), (0, 5), (0, 6), (1, 7), (2, 3), (2, 4), (2, 5), (2, 6), (2, 8),
                       (3, 5), (4, 7), (4, 8), (5, 6), (7, 8)]))
    @settings(max_examples=80, deadline=None)
    def test_same_solve_as_without_the_class_clique(self, g):
        # the class pass closes a solve on its bound with no clique at all,
        # or leaves the clique search as it was. The reference solve gets
        # the hook's matched colouring, but no class bound
        d = delta_complement(g)

        def matched_colouring_alone(palette, deadline):
            bound, mask = class_certificates(g, palette, deadline)
            coloring = (chromatic._contracted_dsatur(d, first_fit_pairs(g), mask, bound)
                        if 0 < bound < palette else None)
            return 0, 0, coloring

        with_class = chi_delta(g)
        without = chromatic_number(d, certificates=matched_colouring_alone)
        assert (with_class.lower, with_class.upper) == (without.lower, without.upper)
        assert is_clique(d, with_class.clique)
        if with_class.clique:
            assert (with_class.witness, with_class.method) == (without.witness, without.method)
            assert len(with_class.clique) == len(without.clique)
        else:
            # the empty graph alone has no vertex, no colour and no class
            assert with_class.method == "sandwich" and (with_class.bound_class or not g.n)
            assert is_proper(d, with_class.witness)


def class_pass_alone(g: Graph):
    """chi_delta's certificate hook without its matched colouring."""
    return lambda palette, deadline: (*class_certificates(g, palette, deadline), None)


def counted_k_searches(monkeypatch):
    """The k of every _k_coloring_search call made while the patch holds."""
    ks = []
    search = chromatic._k_coloring_search

    def counted(g, k, clique, *rest):
        ks.append(k)
        return search(g, k, clique, *rest)

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
        bound, mask = class_certificates(g, g.n + 1)
        assert bound <= oracle_chromatic(d)
        per_class = [0]
        for klass in degree_masks(g).values():
            vertices = list(iter_bits(klass))
            alone = chromatic._class_sweep(g, klass)
            triangle_free = brute_clique_number(reference_induced_subgraph(g, vertices)) <= 2
            assert (alone > 0) == triangle_free
            assert (len(vertices) + 1) // 2 * triangle_free <= alone
            assert alone <= brute_clique_cover_number(g, vertices)
            per_class.append(alone)
        assert bound == max(per_class)
        assert mask == 0 if bound == 0 else (
            mask in degree_masks(g).values() and chromatic._class_sweep(g, mask) == bound)

    @pytest.mark.parametrize("term,bound,ks", [
        ("X(C5,C7)", 18, [18]), ("X(P9,C5)", 18, [18]), ("X(C4,C9)", 18, [18]),
        ("X(C9,S1,5)", 25, []), ("X(C5,S1,6)", 18, []), ("W9", 5, [5]),
    ])
    def test_the_k_search_starts_at_the_bound(self, monkeypatch, term, bound, ks):
        # under the class pass alone, the tori and X(P9,C5) are decided by
        # the one call at chi; the star products' bound meets DSATUR's
        # palette and closes the solve with no clique. W9's rim C9 gives
        # 5, no more than its clique, and chi is 6, so k = 5 is refuted
        g = term_graph(term)
        d = delta_complement(g)
        calls = counted_k_searches(monkeypatch)
        result = chromatic_number(d, certificates=class_pass_alone(g))
        assert calls == ks and result.exact
        assert result.method == ("branch-and-bound" if ks else "sandwich")
        got, mask = class_certificates(g, palette_of(g))
        assert got == bound
        assert result.bound_class == (mask if bound > len(result.clique) else 0)
        without = chromatic_number(d)
        assert (result.chi, result.witness) == (without.chi, without.witness)
        assert result.clique == (without.clique if ks else ())

    @pytest.mark.parametrize("term,bound", [
        ("X(C5,C7)", 18), ("X(P9,C5)", 18), ("X(C4,C9)", 18),
        ("X(C9,S1,5)", 25), ("X(C5,S1,6)", 18),
    ])
    def test_chi_delta_closes_on_the_bound(self, monkeypatch, term, bound):
        # the matched colouring meets the bound on the tori and X(P9,C5),
        # and DSATUR's palette does on the star products: no k-search
        g = term_graph(term)
        calls = counted_k_searches(monkeypatch)
        result = chi_delta(g)
        _, mask = class_certificates(g, palette_of(g))
        assert calls == [] and result.exact and result.chi == bound
        assert (result.method, result.clique, result.bound_class) == ("sandwich", (), mask)
        assert is_proper(delta_complement(g), result.witness)

    def test_a_cut_search_keeps_the_bound_and_its_class(self, monkeypatch):
        # the one component C35 of X(C5,C7) gives 18 and no k is decided
        g = term_graph("X(C5,C7)")

        def no_search(*args):
            raise chromatic.SolverTimeout

        monkeypatch.setattr(chromatic, "_k_coloring_search", no_search)
        result = chromatic_number(delta_complement(g), certificates=class_pass_alone(g))
        assert (result.lower, result.bound_class) == (18, (1 << 35) - 1)
        assert not result.exact and result.clique_lower < 18
        assert result.to_json_dict()["lower"] == 18

    def test_a_cut_clique_search_keeps_the_bound(self, monkeypatch):
        # two reads in time: one sets the deadline and one lets the class
        # pass sweep X(C5,C7)'s one class. The greedy clique's read is past
        # the deadline, so it grows none; the clique search stops at its
        # first node and the k-search at its first step, so the bound is
        # all the solve has, and it is kept
        g = term_graph("X(C5,C7)")
        d = delta_complement(g)
        result, reads = on_fake_clock(monkeypatch, 2, lambda: chromatic_number(
            d, timeout=1.0, certificates=class_pass_alone(g)))
        assert (result.lower, result.upper) == (18, palette_of(g))
        assert result.bound_class == (1 << 35) - 1 and result.clique == (0,)
        assert reads == 5

    def test_a_bound_above_the_palette_is_refused(self):
        d = delta_complement(term_graph("X(C5,C7)"))
        with pytest.raises(RuntimeError, match="lower bound above a proper coloring"):
            chromatic_number(d, certificates=lambda k, deadline: (k + 1, 1, None))

    @pytest.mark.parametrize("term", ["X(C5,C7)", "W9", "X(P9,C5)"])
    def test_past_the_deadline_it_is_zero(self, monkeypatch, term):
        g = term_graph(term)
        assert on_fake_clock(
            monkeypatch, 0, lambda: class_certificates(g, palette_of(g), deadline=0.0)
        ) == ((0, 0), 1)

    @pytest.mark.parametrize("term,reads", [
        ("X(C23,C25)", 2), ("X(C99,C101)", 31), ("X(P100,P100)", 33), ("X(C7,C9)", 0),
    ])
    def test_a_sweep_reads_the_clock_once_per_256_vertices(self, monkeypatch, term, reads):
        # at the end of each BFS layer that brings the vertices swept since
        # the last read to 256, so never on a class below 256 vertices
        g = term_graph(term)
        mask = max(degree_masks(g).values(), key=int.bit_count)
        assert on_fake_clock(monkeypatch, float("inf"), lambda: chromatic._class_sweep(
            g, mask, deadline=0.0)) == (chromatic._class_sweep(g, mask), reads)

    def test_a_deadline_inside_a_sweep_keeps_the_bound_so_far(self, monkeypatch):
        # two classes stand in for X(C23,C25)'s one. The pass sweeps the
        # larger first: its first twelve rows, 300 connected vertices of
        # bound 150, with one read before the sweep and one inside it. The
        # second, 264 pairwise non-adjacent vertices of rows 0..21 and
        # columns 0..23, gives 264: one read lets its sweep start, and
        # with a budget of 3 the sweep's first read, after 256 vertices,
        # is past the deadline, so the pass ends with the first bound
        g = term_graph("X(C23,C25)")
        block = (1 << 300) - 1
        spread = sum(1 << 25 * i + j for i in range(22) for j in range(24) if (i + j) % 2 == 0)
        monkeypatch.setattr(chromatic, "degree_masks", lambda h: {3: spread, 4: block})
        for budget, expected in ((3, ((150, block), 4)), (float("inf"), ((264, spread), 4))):
            assert on_fake_clock(monkeypatch, budget, lambda: class_certificates(
                g, g.n, 0.0)) == expected


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
    # clique pinned as chromatic_number pins it. The search reads the
    # clock once per branch and once before the first (these drains are
    # all shorter than 256 moves), so equal counts mean the same tree
    clique = max_clique_lower(g).vertices
    chi = oracle_chromatic(g) if g.n <= chromatic.ORACLE_VERTEX_LIMIT else None
    for k in range(len(clique), dsatur_upper(g).palette_size + 1):
        got, reads = k_search_on_fake_clock(pytest.MonkeyPatch(), g, k, clique)
        expected = reference_k_search(g, k, clique)
        assert got == expected.colors
        assert reads == expected.branches + 1
        if got is not None:
            assert is_proper(g, Coloring(got, k))
        if chi is not None:
            assert (got is None) == (k < chi)


def assert_dsatur_is_the_first_descent(g: Graph) -> None:
    k = max(degree_masks(g)) + 1
    assert dsatur_upper(g).colors == chromatic._k_coloring_search(g, k, (), math.inf)


class TestKColoringSearch:
    @given(graphs(max_n=12))
    @settings(max_examples=120, deadline=None)
    def test_same_answer_as_the_per_vertex_search(self, g):
        assert_same_k_search_as_reference(g)

    @given(dense_graphs(max_n=40))
    @settings(max_examples=150, deadline=None)
    def test_same_answer_on_dense_graphs(self, g):
        assert_same_k_search_as_reference(g)

    @pytest.mark.parametrize("budget", [0, 1, 17, 2782])
    def test_stops_at_the_first_read_past_the_budget(self, monkeypatch, budget):
        # the full search on delta(X(C5,C7)) at k = 18 reads the clock
        # 2783 times: once before its first branch and once per branch
        d = delta_complement(term_graph("X(C5,C7)"))
        clique = max_clique_lower(d).vertices
        assert k_search_on_fake_clock(monkeypatch, d, 18, clique, budget) == (
            "timeout", budget + 1)

    @pytest.mark.parametrize("term,k,colorable", [("X(C5,C7)", 18, True), ("W9", 5, False)])
    def test_reads_the_clock_once_per_branch(self, monkeypatch, term, k, colorable):
        # the branches of the per-vertex search, which steps through the
        # forced moves one by one: the same count means the same tree. W9
        # at k = 5 is refuted by the drain before its first branch
        d = delta_complement(term_graph(term))
        clique = max_clique_lower(d).vertices
        result, reads = k_search_on_fake_clock(monkeypatch, d, k, clique)
        expected = reference_k_search(d, k, clique)
        assert reads == expected.branches + 1
        assert (result is not None) == colorable
        assert result == expected.colors

    def test_a_long_drain_reads_the_clock_every_256_moves(self, monkeypatch):
        # with 0 and 1 pinned, each vertex of the path is forced by the
        # one before it: one drain of 598 moves, read before it and after
        # its 256th and 512th move; a budget of 1 stops it at the 256th
        p600 = path_graph(600)
        result, reads = k_search_on_fake_clock(monkeypatch, p600, 2, (0, 1))
        assert result == tuple(v % 2 for v in range(600))
        assert reads == 3
        assert k_search_on_fake_clock(monkeypatch, p600, 2, (0, 1), 1) == ("timeout", 2)

    def test_a_drain_that_ends_in_a_conflict_refutes_k(self, monkeypatch):
        # the odd cycle forces both ways round from the pinned edge until
        # the two waves meet on one color
        assert k_search_on_fake_clock(monkeypatch, cycle_graph(601), 2, (0, 1)) == (None, 3)

    @pytest.mark.parametrize("g,expected", [
        (Graph(0), ()), (empty_graph(1), None), (path_graph(5), None),
    ], ids=["n0", "n1", "n5"])
    def test_no_colors(self, g, expected):
        assert chromatic._k_coloring_search(g, 0, (), math.inf) == expected

    def test_dsatur_is_the_first_descent_of_the_search_graphs(self):
        # at k = max degree + 1 no color runs out, so the search never
        # backtracks. It takes the forced vertices in id order where
        # DSATUR takes them by degree, then id, but a forced vertex's
        # color is the one it has left, so the coloring is still DSATUR's
        for g in [term_graph(term) for term in SEARCH_TERMS] + gnp_graphs():
            assert_dsatur_is_the_first_descent(delta_complement(g))

    @given(graphs(min_n=1, max_n=12))
    @settings(max_examples=120, deadline=None)
    def test_dsatur_is_the_first_descent(self, g):
        assert_dsatur_is_the_first_descent(g)

    def test_an_improper_coloring_is_refused(self, monkeypatch):
        g = term_graph("X(C5,C7)")
        monkeypatch.setattr(chromatic, "_k_coloring_search",
                            lambda g, k, *rest: (0,) * g.n)
        with pytest.raises(RuntimeError, match="witness verification failed"):
            chromatic_number(delta_complement(g), certificates=class_pass_alone(g))


def first_fit_pairs(g: Graph) -> list[tuple[int, int]]:
    """The first-fit matching of every degree class of g."""
    return [pair for mask in degree_masks(g).values()
            for pair in chromatic._first_fit_pairs(g, mask)]


def sees_every_group(d: Graph, pairs, klass: int) -> bool:
    """Whether some vertex or pair of the contraction of the pairs is
    adjacent in d to every unmatched vertex and every pair of klass."""
    partner = dict(pairs)
    highs = set(partner.values())

    def groups(vertices):
        return [(v, partner[v]) if v in partner else (v,) for v in vertices if v not in highs]

    inside = groups(iter_bits(klass))
    return any(all(any(d.has_edge(a, b) for a in unit for b in group) for group in inside)
               for unit in groups(range(d.n)))


class TestMatchedColoring:
    @given(graphs(max_n=12))
    # the degree-2 class is the path 5-0-4-1, bound 2; first fit pairs 0-4
    # and leaves 1 and 5, three groups that no vertex sees all of
    @example(Graph(9, [(0, 4), (0, 5), (1, 4), (1, 7), (2, 5)]))
    @settings(max_examples=120, deadline=None)
    def test_is_proper_and_within_chi(self, g):
        # the contraction of every class's matching on each triangle-free
        # class and its bound, gate or no gate: no colouring exactly where
        # the class's groups are other than the bound in number or one
        # vertex or pair sees them all, only where the reference
        # contraction's palette is above the bound, and otherwise the
        # reference colouring
        d = delta_complement(g)
        pairs = first_fit_pairs(g)
        for low, high in pairs:
            assert low < high and g.has_edge(low, high) and not d.has_edge(low, high)
            assert g.degree(low) == g.degree(high)
        reference = reference_contraction(d, pairs)
        for klass in degree_masks(g).values():
            if not (bound := chromatic._class_sweep(g, klass)):
                continue
            coloring = chromatic._contracted_dsatur(d, pairs, klass, bound)
            groups = klass.bit_count() - len(chromatic._first_fit_pairs(g, klass))
            assert (coloring is None) == (groups != bound or sees_every_group(d, pairs, klass))
            if coloring is None:
                assert reference.palette_size > bound
                continue
            assert coloring == reference
            assert is_proper(d, coloring) and reference_is_proper(d, coloring.colors)
            assert all(coloring.colors[low] == coloring.colors[high] for low, high in pairs)
            assert coloring.palette_size >= oracle_chromatic(d) >= bound

    @given(graphs(max_n=12))
    @settings(max_examples=80, deadline=None)
    def test_is_used_only_below_dsaturs_palette(self, g):
        # with the k-search cut, the witness is the hook's colouring when
        # it has fewer colours than DSATUR's, and DSATUR's otherwise
        d = delta_complement(g)
        coloring = reference_contraction(d, first_fit_pairs(g))
        dsatur = dsatur_upper(d)

        def no_search(*args):
            raise chromatic.SolverTimeout

        with pytest.MonkeyPatch.context() as m:
            m.setattr(chromatic, "_k_coloring_search", no_search)
            result = chromatic_number(d, certificates=lambda k, deadline: (0, 0, coloring))
        better = coloring.palette_size < dsatur.palette_size
        assert result.witness == (coloring if better else dsatur)
        assert result.upper == min(coloring.palette_size, dsatur.palette_size)

    def test_an_improper_coloring_is_refused(self):
        d = delta_complement(term_graph("X(P6,P7)"))
        one_color = Coloring((0,) * d.n, 1)
        with pytest.raises(RuntimeError, match="witness verification failed"):
            chromatic_number(d, certificates=lambda k, deadline: (0, 0, one_color))

    @pytest.mark.parametrize("term,chi", [
        ("X(C7,C9)", 32), ("X(C9,C11)", 50), ("X(C5,C7,P2)", 35), ("X(C5,C5,C5)", 63),
    ])
    def test_the_open_brackets_close(self, monkeypatch, term, chi):
        # regular and triangle-free: the class bound is chi, and the
        # matched colouring meets it where DSATUR's palette does not
        g = term_graph(term)
        d = delta_complement(g)
        calls = counted_k_searches(monkeypatch)
        result = chi_delta(g, timeout=10.0)
        assert result.exact and result.chi == chi < palette_of(g)
        assert (result.method, result.clique, result.bound_class) == ("sandwich", (), (1 << g.n) - 1)
        assert calls == [] and is_proper(d, result.witness)

    def test_reads_the_clock_once(self, monkeypatch):
        # one read sets the deadline, one lets the class pass sweep the
        # torus's one class and the hook's one lets the contraction run.
        # The contraction reads on entry and before it builds the
        # contracted graph (63 rows make no fold read), and closes the solve
        g = term_graph("X(C7,C9)")
        ran = contractions(monkeypatch)
        result, reads = on_fake_clock(monkeypatch, float("inf"), lambda: chi_delta(g, timeout=1.0))
        assert (result.chi, result.method, reads, ran) == (32, "sandwich", 5, [g.n])

    def test_is_skipped_past_the_deadline(self, monkeypatch):
        # with the third read past the deadline the contraction does not
        # run, no greedy clique grows after its one read, and the clique
        # search and the k-search stop at their first reads with the bound
        # and DSATUR's colouring
        g = term_graph("X(C7,C9)")
        ran = contractions(monkeypatch)
        result, reads = on_fake_clock(monkeypatch, 2, lambda: chi_delta(g, timeout=1.0))
        assert (result.lower, result.upper) == (32, palette_of(g))
        assert result.witness == dsatur_upper(delta_complement(g))
        assert (reads, ran) == (6, [])

    def test_a_deadline_inside_the_contraction_keeps_dsaturs_witness(self, monkeypatch):
        # 9999 vertices. One read sets the deadline, the solve's first
        # DSATUR makes 39 with no deadline, the class pass one and its
        # sweep of the one class 31, the hook's one and the matching's 4999
        # pairs 19. The contraction's first read, on entry, is past the
        # deadline, so the hook gives no colouring, no greedy clique grows
        # after its one read, and the clique search and the k-search stop
        # at their first reads
        g = term_graph("X(C99,C101)")
        dsatur = dsatur_upper(delta_complement(g))
        ran = contractions(monkeypatch)
        budget = 3 + g.n // 256 + 31 + (g.n // 2) // 256
        result, reads = on_fake_clock(monkeypatch, budget, lambda: chi_delta(g, timeout=1.0))
        assert (result.lower, result.upper) == (5000, dsatur.palette_size)
        assert result.witness == dsatur and result.bound_class == (1 << g.n) - 1
        assert (reads, ran) == (budget + 4, [g.n])

    def test_a_deadline_inside_the_class_sweep_keeps_dsaturs_witness(self, monkeypatch):
        # 575 vertices. One read sets the deadline, the solve's first
        # DSATUR makes 2 with no deadline, the class pass one and its
        # sweep's first. Its second is past the deadline, so the pass has
        # no bound and the hook no class to match. No greedy clique grows
        # after its one read, and the clique search stops at its first
        # read; k = 1 falls on the pinned vertex's first neighbour before
        # any read, and k = 2 stops at its first read
        g = term_graph("X(C23,C25)")
        dsatur = dsatur_upper(delta_complement(g))
        ran = contractions(monkeypatch)
        budget = 2 + g.n // 256 + 1
        result, reads = on_fake_clock(monkeypatch, budget, lambda: chi_delta(g, timeout=1.0))
        assert (result.lower, result.upper, result.clique) == (2, dsatur.palette_size, (0,))
        assert result.witness == dsatur and result.bound_class == 0
        assert (reads, ran) == (budget + 4, [])

    def test_a_deadline_inside_the_matching_keeps_dsaturs_witness(self, monkeypatch):
        # 575 vertices. One read sets the deadline, the solve's first
        # DSATUR makes 2 with no deadline, the class pass one and its
        # sweep 2, and the hook's one. The matching's read after its 256th
        # of 287 pairs is past the deadline, so no contraction runs and no
        # DSATUR on a contracted graph, no greedy clique grows after its
        # one read, and the clique search and the k-search stop at their
        # first reads
        g = term_graph("X(C23,C25)")
        dsatur = dsatur_upper(delta_complement(g))
        ran, coloured = contractions(monkeypatch), dsaturs(monkeypatch)
        budget = 3 + g.n // 256 + 2
        result, reads = on_fake_clock(monkeypatch, budget, lambda: chi_delta(g, timeout=1.0))
        assert (result.lower, result.upper) == (288, dsatur.palette_size)
        assert result.witness == dsatur and result.bound_class == (1 << g.n) - 1
        assert (reads, ran, coloured) == (budget + 4, [], [g.n])

    @pytest.mark.parametrize("folded", [0, 1, 2])
    def test_a_deadline_inside_the_fold_keeps_dsaturs_witness(self, monkeypatch, folded):
        # 575 vertices. One read sets the deadline, the solve's first
        # DSATUR makes 2 with no deadline, the class pass one and its
        # sweep 2, the hook's one, the matching's one after its 256th of
        # 287 pairs and the contraction's entry one. Of its two fold
        # reads, one per 256 rows, `folded` are in time; the next read, in
        # the fold or, at 2, before the contracted graph is built, is past
        # the deadline. No DSATUR runs on the contracted graph, no greedy
        # clique grows after its one read, and the clique search and the
        # k-search stop at their first reads
        g = term_graph("X(C23,C25)")
        dsatur = dsatur_upper(delta_complement(g))
        ran, coloured = contractions(monkeypatch), dsaturs(monkeypatch)
        budget = 5 + g.n // 256 + 2 + folded
        result, reads = on_fake_clock(monkeypatch, budget, lambda: chi_delta(g, timeout=1.0))
        assert (result.lower, result.upper) == (288, dsatur.palette_size)
        assert result.witness == dsatur and result.bound_class == (1 << g.n) - 1
        assert (reads, ran, coloured) == (budget + 4, [g.n], [g.n])

    @pytest.mark.parametrize("g,entered", [
        # a bipartite class whose bound meets DSATUR's palette
        pytest.param(term_graph("X(C6,P4)"), 0, id="sides"),
        # the bound meets DSATUR's palette
        pytest.param(term_graph("X(C5,S1,6)"), 0, id="palette"),
        # no triangle-free class, so no bound
        pytest.param(term_graph("X(K4,C13)"), 0, id="triangles"),
        # the corners and the sides tie at 4 of 9 vertices with bound 4,
        # below DSATUR's palette of 5, and the tie goes to the sides, of
        # degree 3. The centre is adjacent in delta to all four sides, so
        # no contracted graph is built
        pytest.param(term_graph("X(P3,P3)"), 1, id="tie"),
        # the bound's class is the C5 1-4-7-3-6 with 2 hung on 3, bound 3;
        # first fit pairs 1-4 and 2-3 and leaves 6 and 7 apart, 4 in all
        pytest.param(Graph(8, [(0, 1), (0, 2), (1, 4), (1, 6), (2, 3), (2, 5), (3, 6), (3, 7),
                               (4, 5), (4, 7), (5, 6), (5, 7)]), 1, id="matching"),
        # the rim's class holds all but the hub and its bound is below
        # DSATUR's palette, but the hub is adjacent in delta to the whole rim
        *(pytest.param(term_graph(f"W{n}"), 1, id=f"W{n}") for n in range(4, 10)),
    ])
    def test_the_gate_keeps_it_off(self, monkeypatch, g, entered):
        # the solve's first DSATUR runs and no contracted graph is coloured,
        # so the solve is the class pass's alone
        ran, coloured = contractions(monkeypatch), dsaturs(monkeypatch)
        result = chi_delta(g)
        assert result.exact and (len(ran), coloured) == (entered, [g.n])
        alone = chromatic_number(delta_complement(g), certificates=class_pass_alone(g))
        assert (result.lower, result.upper, result.witness, result.clique, result.method,
                result.bound_class) == (alone.lower, alone.upper, alone.witness, alone.clique,
                                        alone.method, alone.bound_class)

    @pytest.mark.parametrize("term,chi", [
        ("X(P4,C8)", 8), ("X(P10,P10,P10)", 256), ("X(P20,P20,P20)", 2916),
    ])
    def test_a_bipartite_class_of_half_of_g_closes_on_it(self, monkeypatch, term, chi):
        # the bound's class, two C8 of X(P4,C8) or the interior of a path
        # cube, holds at least half of g: the matched colouring meets its
        # bound, with no clique and no k-search
        g = term_graph(term)
        ran, calls = contractions(monkeypatch), counted_k_searches(monkeypatch)
        result = chi_delta(g, timeout=10.0)
        assert result.exact and result.chi == chi
        assert (result.method, result.clique, ran, calls) == ("sandwich", (), [g.n], [])

    @given(graphs(max_n=12))
    @settings(max_examples=120, deadline=None)
    def test_runs_exactly_when_the_gate_opens(self, g):
        # the contraction is entered when there is a bound and it is below
        # DSATUR's palette. It colours when the class's first-fit matching
        # also leaves the bound's number of vertices and pairs, and no
        # vertex or pair of the contraction is adjacent in delta to every
        # one of them
        palette = palette_of(g)
        bound, mask = class_certificates(g, palette)
        entered = 0 < bound < palette
        coloured = (entered
                    and mask.bit_count() - len(chromatic._first_fit_pairs(g, mask)) == bound
                    and not sees_every_group(delta_complement(g), first_fit_pairs(g), mask))
        with pytest.MonkeyPatch.context() as m:
            ran, runs = contractions(m), dsaturs(m)
            chi_delta(g)
        assert (len(ran), len(runs)) == (entered, 1 + coloured)

    @pytest.mark.parametrize("term,chi", [
        ("X(P6,P6,C8)", 64), ("X(P6,P6,C13)", 104), ("X(P6,P6,C21)", 168),
        ("X(P6,P6,W6)", 48), ("X(P6,P6,W11)", 88), ("X(P6,P11,P17)", 270),
        ("X(P6,P11,W6)", 108), ("X(P6,S1,4,W11)", 88), ("X(P6,W6,W6)", 72),
        ("X(P6,P6,P6,P6)", 256),
    ])
    def test_a_class_of_under_half_of_g_closes_on_it(self, monkeypatch, term, chi):
        # the bound's class holds less than half of g, and the matched
        # colouring still meets its bound: one contraction, no clique and
        # no k-search
        g = term_graph(term)
        ran, calls = contractions(monkeypatch), counted_k_searches(monkeypatch)
        result = chi_delta(g, timeout=2.0)
        _, mask = class_certificates(g, palette_of(g))
        assert 2 * mask.bit_count() < g.n
        assert result.exact and result.chi == chi
        assert (result.method, result.clique, ran, calls) == ("sandwich", (), [g.n], [])
        assert result.bound_class and is_proper(delta_complement(g), result.witness)


def dsaturs(monkeypatch):
    """The vertex count of every DSATUR run made while the patch holds."""
    coloured = []

    def counted(d, *deadline):
        coloured.append(d.n)
        return dsatur_upper(d, *deadline)

    monkeypatch.setattr(chromatic, "dsatur_upper", counted)
    return coloured


def contractions(monkeypatch):
    """The vertex count of every contraction entered while the patch holds."""
    ran = []
    contract = chromatic._contracted_dsatur

    def counted(d, *rest):
        ran.append(d.n)
        return contract(d, *rest)

    monkeypatch.setattr(chromatic, "_contracted_dsatur", counted)
    return ran


def class_fills(monkeypatch):
    """The graph of every degree-class fill made while the patch holds."""
    filled = []
    find = graph_core._find_degree_masks

    def counted(g):
        filled.append(g)
        return find(g)

    monkeypatch.setattr(graph_core, "_find_degree_masks", counted)
    return filled


class TestDegreeClassesFoundOnce:
    @pytest.mark.parametrize("term,contracted,built", [
        pytest.param("X(C5,C7)", 1, 1, id="X(C5,C7)-1"),
        pytest.param("W9", 1, 0, id="W9-1"),
        pytest.param("X(P6,P7)", 0, 0, id="X(P6,P7)-0"),
        pytest.param("P14", 0, 0, id="P14-0"),
    ])
    def test_a_solve_finds_each_graphs_classes_once(self, monkeypatch, term, contracted, built):
        # g's for delta_complement and the class pass, delta(g)'s for
        # DSATUR and every k, and each contracted graph's for its DSATUR.
        # W9's contraction is entered and builds no contracted graph
        g = term_graph(term)
        d = delta_complement(term_graph(term))
        ran = contractions(monkeypatch)
        filled = class_fills(monkeypatch)
        result = chi_delta(g)
        assert result.exact and len(ran) == contracted
        assert filled[0] is g and filled[1] == d and len(filled) == 2 + built
        assert all(h is not g and h != d for h in filled[2:])
        class_counts(g)
        delta_complement(g)
        assert len(filled) == 2 + built

    def test_a_k_search_on_a_solved_graph_finds_none(self, monkeypatch):
        d = delta_complement(term_graph("X(C5,C7)"))
        chi = chromatic_number(d).chi
        filled = class_fills(monkeypatch)
        clique = max_clique_lower(d).vertices
        assert chromatic._k_coloring_search(d, chi, clique, math.inf) is not None
        dsatur_upper(d)
        assert filled == []
