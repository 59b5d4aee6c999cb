import hashlib
from dataclasses import replace

import pytest

from deltachrom import (
    Coloring,
    Graph,
    cartesian_product,
    chi_delta,
    degree_diff_product_coloring,
    delta_complement,
    dsatur_upper,
    is_proper,
    join_p3_coloring,
    path_path_coloring,
    star_path_coloring,
    star_star_coloring,
)
from deltachrom import constructions
from deltachrom.bounds import ceil_div
from deltachrom.graphs import SizeLimitError
from deltachrom.families import (
    complete_graph,
    cycle_graph,
    empty_graph,
    join,
    path_graph,
    star_graph,
)

from _oracles import cyclic_block_grid


def assert_clique(g, vertices):
    for i, a in enumerate(vertices):
        for b in vertices[i + 1 :]:
            assert g.has_edge(a, b), f"{a} and {b} not adjacent"


class TestCyclicBlockGrid:
    def test_reference_grid(self):
        # chi_delta(G) = 3, four degree classes of sizes (2,1,2,2), p = 4:
        # the full 5 x 7 worked example, values 1..8
        grid = cyclic_block_grid([1, 3, 1, 2, 3], [2, 1, 2, 2], 4)
        assert grid == [
            [1, 5, 2, 3, 7, 4, 8],
            [3, 7, 4, 1, 5, 2, 6],
            [1, 5, 2, 3, 7, 4, 8],
            [2, 6, 3, 4, 8, 1, 5],
            [3, 7, 4, 1, 5, 2, 6],
        ]
        # the construction's formula gives the same grid on K5, whose
        # delta-complement is edgeless, times a graph with those classes:
        # degree 0 {1, 2}, 2 {4}, 3 {3, 6} and 4 {0, 5}
        h = Graph(7, [(0, 3), (0, 4), (0, 5), (0, 6), (3, 5), (3, 6), (4, 5), (5, 6)])
        c0 = Coloring((0, 2, 0, 1, 2), 3)
        r = degree_diff_product_coloring(complete_graph(5), c0, h)
        product, _ = cartesian_product([complete_graph(5), h])
        assert r.graph == delta_complement(product) and is_proper(r.graph, r.coloring)
        assert r.coloring.palette_size == 2 * 4
        for vg, row in enumerate(grid):
            for value, vh in zip(row, [1, 2, 4, 3, 6, 0, 5]):
                assert r.coloring.colors[r.index.flat((vg, vh))] == value - 1


class TestDegreeDiffProductColoring:
    def test_p4_with_star(self):
        g = path_graph(4)
        c0 = dsatur_upper(delta_complement(g))
        h = star_graph(3)
        r = degree_diff_product_coloring(g, c0, h)
        product, _ = cartesian_product([g, h])
        assert r.graph == delta_complement(product)
        assert is_proper(delta_complement(product), r.coloring)
        assert r.coloring.colors_used <= 3 * max(2, 2)

    def test_columns_follow_ascending_degree_classes(self):
        # S1,3: the pendants 1, 2, 3 (degree 1) are columns 0..2, the hub column 3
        g = path_graph(4)
        c0 = dsatur_upper(delta_complement(g))
        h = star_graph(3)
        r = degree_diff_product_coloring(g, c0, h)
        product, _ = cartesian_product([g, h])
        assert r.graph == delta_complement(product) and is_proper(r.graph, r.coloring)
        ranks = {c: rank + 1 for rank, c in enumerate(sorted(set(c0.colors)))}
        grid = cyclic_block_grid([ranks[c] for c in c0.colors], [3, 1], max(c0.colors_used, 2))
        for vg in range(g.n):
            for column, vh in enumerate([1, 2, 3, 0]):
                assert r.coloring.colors[r.index.flat((vg, vh))] == grid[vg][column] - 1

    def test_cycle_with_p3(self):
        g = cycle_graph(5)
        c0 = chi_delta(g).witness  # 3 colors
        r = degree_diff_product_coloring(g, c0, path_graph(3))
        product, _ = cartesian_product([g, path_graph(3)])
        assert r.graph == delta_complement(product)
        assert is_proper(delta_complement(product), r.coloring)
        assert r.coloring.colors_used <= 2 * max(3, 2) == 6

    def test_colliding_degree_difference_named(self):
        g = path_graph(4)
        c0 = dsatur_upper(delta_complement(g))
        with pytest.raises(ValueError, match="degree difference 1"):
            degree_diff_product_coloring(g, c0, path_graph(4))

    def test_improper_c0_rejected(self):
        g = path_graph(4)
        bad = Coloring((0, 0, 0, 0), 1)
        with pytest.raises(ValueError, match="not proper"):
            degree_diff_product_coloring(g, bad, star_graph(3))


class TestJoinP3Coloring:
    def test_pendants_of_star(self):
        # 0-regular factor: its delta-complement is complete, m colors
        h = empty_graph(3)
        ch = Coloring((0, 1, 2), 3)
        r = join_p3_coloring(h, ch)
        product, _ = cartesian_product([star_graph(3), path_graph(3)])
        assert r.graph == delta_complement(product)
        assert is_proper(delta_complement(product), r.coloring)
        assert r.coloring.colors_used == 6

    def test_wheel_times_p3(self):
        h = cycle_graph(5)
        ch = chi_delta(h).witness  # 3 colors
        r = join_p3_coloring(h, ch)
        product, _ = cartesian_product([join(complete_graph(1), h), path_graph(3)])
        assert r.graph == delta_complement(product)
        assert is_proper(delta_complement(product), r.coloring)
        assert r.coloring.colors_used == 6

    def test_boundary_hypothesis_rejected(self):
        # |V(h)| > k + 2 fails for the 4-cycle: 4 = 2 + 2
        h = cycle_graph(4)
        ch = chi_delta(h).witness
        with pytest.raises(ValueError, match="k \\+ 2"):
            join_p3_coloring(h, ch)

    def test_irregular_rejected(self):
        h = star_graph(3)
        ch = chi_delta(h).witness
        with pytest.raises(ValueError, match="regular"):
            join_p3_coloring(h, ch)

    def test_single_color_rejected(self):
        h = complete_graph(3)  # delta-complement edgeless, one color
        ch = Coloring((0, 0, 0), 1)
        with pytest.raises(ValueError, match="2 colors"):
            join_p3_coloring(h, ch)


class TestCertified:
    @pytest.mark.parametrize("build,args", [
        (star_star_coloring, (4, 3)),
        (star_path_coloring, (3, 4)),
        (star_path_coloring, (4, 7)),
        (path_path_coloring, (6, 7)),
    ])
    def test_constructions_certify(self, build, args):
        assert build(*args).certified()

    # delta(C5) is the cycle 0-2-4-1-3, and delta(P4) the path 1-0-3-2
    @pytest.mark.parametrize("build,args", [
        (join_p3_coloring, (cycle_graph(5), Coloring((0, 1, 1, 2, 0), 3))),
        (join_p3_coloring, (empty_graph(4), Coloring((0, 1, 2, 3), 4))),
        (degree_diff_product_coloring,
         (cycle_graph(5), Coloring((0, 1, 1, 2, 0), 3), path_graph(3))),
        (degree_diff_product_coloring,
         (path_graph(4), Coloring((0, 1, 0, 1), 2), star_graph(5))),
    ])
    def test_cliqueless_constructions_certify_properness(self, build, args):
        r = build(*args)
        assert r.clique == () and r.certified()

    def test_improper_coloring_fails(self):
        r = star_star_coloring(3, 3)
        colors = (r.coloring.colors[r.clique[1]],) + r.coloring.colors[1:]
        broken = replace(r, coloring=Coloring(colors, r.coloring.palette_size))
        assert not is_proper(broken.graph, broken.coloring)
        assert not broken.certified()

    def test_non_clique_fails(self):
        r = path_path_coloring(6, 6)
        corner = 0  # degree 2, adjacent to no interior vertex in the delta
        assert not r.graph.has_edge(corner, r.clique[0])
        assert not replace(r, clique=(corner,) + r.clique[1:]).certified()

    def test_clique_smaller_than_palette_fails(self):
        r = star_star_coloring(3, 3)
        assert not replace(r, clique=r.clique[:-1]).certified()

    def test_empty_clique_certifies_properness_alone(self):
        r = star_star_coloring(3, 3)
        assert replace(r, clique=()).certified()


class TestStarStar:
    @pytest.mark.parametrize("m,n", [(3, 3), (4, 3), (3, 5), (5, 5)])
    def test_proper_with_exact_palette(self, m, n):
        r = star_star_coloring(m, n)
        assert is_proper(r.graph, r.coloring)
        assert r.coloring.colors_used == m * n
        assert_clique(r.graph, r.clique)
        assert len(r.clique) == m * n

    def test_solver_confirms_3_3(self):
        r = star_star_coloring(3, 3)
        assert chi_delta_value(r) == 9

    def test_rejects_small_parameters(self):
        with pytest.raises(ValueError):
            star_star_coloring(2, 3)


def chi_delta_value(result):
    # the construction's graph already is the delta-complement
    from deltachrom import chromatic_number

    return chromatic_number(result.graph).chi


class TestStarPath:
    @pytest.mark.parametrize("m,n", [(3, 3), (4, 3), (3, 4), (4, 4)])
    def test_short_paths_give_double(self, m, n):
        r = star_path_coloring(m, n)
        assert is_proper(r.graph, r.coloring)
        assert r.coloring.colors_used == 2 * m
        assert_clique(r.graph, r.clique)
        assert len(r.clique) == 2 * m

    @pytest.mark.parametrize("m,n", [(3, 5), (3, 7), (4, 6), (4, 8), (3, 9)])
    def test_long_paths_follow_formula(self, m, n):
        r = star_path_coloring(m, n)
        k = ceil_div(n - 2, 2)
        assert is_proper(r.graph, r.coloring)
        assert r.coloring.colors_used == k * m
        assert_clique(r.graph, r.clique)
        assert len(r.clique) == k * m

    @pytest.mark.parametrize("m", range(3, 13))
    def test_short_paths_keep_the_reductions_colors(self, m):
        # n = 3 is the hub join on the pendants, whose delta-complement is
        # K_m; n = 4 the degree-difference grid on P4 x S1,m, transposed.
        # Either way the clique is the pendants at both path ends
        joined = join_p3_coloring(empty_graph(m), Coloring(tuple(range(m)), m))
        r = star_path_coloring(m, 3)
        assert (r.graph, r.coloring) == (joined.graph, joined.coloring)
        assert r.certified() and r.clique == tuple(3 * i + j for i in range(1, m + 1) for j in (0, 2))
        grid = degree_diff_product_coloring(path_graph(4), Coloring((0, 1, 0, 1), 2), star_graph(m))
        transposed = tuple(c for i in range(m + 1) for c in grid.coloring.colors[i :: m + 1])
        r = star_path_coloring(m, 4)
        assert r.coloring == Coloring(transposed, grid.coloring.palette_size)
        assert r.certified() and r.clique == tuple(4 * i + j for i in range(1, m + 1) for j in (0, 3))

    def test_solver_confirms_proof_value(self):
        assert chi_delta_value(star_path_coloring(3, 3)) == 6
        assert chi_delta_value(star_path_coloring(3, 4)) == 6

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            star_path_coloring(2, 5)
        with pytest.raises(ValueError):
            star_path_coloring(3, 2)


class TestPathPath:
    @pytest.mark.parametrize("n,k", [(6, 6), (6, 7), (7, 9)])
    def test_exact_color_count_and_clique(self, n, k):
        r = path_path_coloring(n, k)
        target = ceil_div((n - 2) * (k - 2), 2)
        assert is_proper(r.graph, r.coloring)
        assert r.coloring.colors_used == target == r.coloring.palette_size
        assert_clique(r.graph, r.clique)
        assert len(r.clique) == target

    def test_grid_6_7_reproduces_ten(self):
        assert path_path_coloring(6, 7).coloring.colors_used == 10

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            path_path_coloring(5, 8)
        with pytest.raises(ValueError):
            path_path_coloring(7, 6)

    @pytest.mark.parametrize("n", range(6, 13))
    def test_interior_color_classes_are_dominoes(self, n):
        # any two interior vertices sharing a color sit at Manhattan
        # distance exactly one, hence are product-adjacent and non-adjacent
        # in the delta-complement
        for k in range(n, 13):
            r = path_path_coloring(n, k)
            interior = {}
            for i in range(2, n):
                for j in range(2, k):
                    interior.setdefault(
                        r.coloring.colors[r.index.flat((i - 1, j - 1))], []
                    ).append((i, j))
            for cells in interior.values():
                assert len(cells) <= 2
                if len(cells) == 2:
                    (i1, j1), (i2, j2) = cells
                    assert abs(i1 - i2) + abs(j1 - j2) == 1

    @pytest.mark.parametrize("n", range(6, 13))
    def test_whole_range_proper(self, n):
        for k in range(n, 13):
            r = path_path_coloring(n, k)
            assert is_proper(r.graph, r.coloring)
            assert r.coloring.colors_used == ceil_div((n - 2) * (k - 2), 2)

    def test_colors_and_cliques_beyond_the_golden_are_pinned(self):
        # the construct golden stops at 12 x 12; this digest of
        # (colors, clique) covers larger, odd and even sides up to 40
        sides = (13, 14, 20, 27, 39, 40)
        h = hashlib.sha256()
        for n in sides:
            for k in sides:
                if n <= k:
                    r = path_path_coloring(n, k)
                    h.update(repr((r.coloring.colors, r.clique)).encode())
        assert h.hexdigest() == (
            "fa68f68419f5832f5ee7cd2a3e5fd560cf43c93fea438fb290d979eb094f9c6e"
        )


class TestVertexBudget:
    def test_formula_over_the_budget_is_never_evaluated(self):
        # 101 x 100 coordinates are refused before the first color
        with pytest.raises(SizeLimitError, match="product has 10100 vertices"):
            constructions._coloring(1, lambda i, j: 1 // 0, range(101), range(100))

    @pytest.mark.parametrize("build,args", [
        (star_star_coloring, (100, 100)),
        (star_path_coloring, (5000, 3)),
        (star_path_coloring, (5000, 4)),
        (star_path_coloring, (100, 100)),
        (path_path_coloring, (100, 101)),
    ])
    def test_products_over_the_budget_are_refused(self, build, args):
        with pytest.raises(SizeLimitError, match="over the 10000 budget"):
            build(*args)
