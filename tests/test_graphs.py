import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltachrom import (
    Graph,
    ProductIndex,
    SizeLimitError,
    cartesian_product,
    complement,
    degree_masks,
    delta_complement,
    from_json,
    induced_subgraph,
    is_connected,
    to_dot,
    to_json,
)
from deltachrom.graphs import iter_bits
from deltachrom.families import (
    complete_graph,
    cycle_graph,
    empty_graph,
    path_graph,
    star_graph,
)

from _oracles import (
    brute_isomorphic,
    naive_delta_edges,
    naive_product_edges,
    reference_induced_subgraph,
    reference_to_dot,
    reference_to_json,
)
from strategies import dense_graphs, graphs, wide_graphs


class TestConstruction:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph(3, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 3)])

    def test_rejects_negative_n(self):
        with pytest.raises(ValueError):
            Graph(-1)

    def test_duplicate_edges_collapse(self):
        g = Graph(3, [(0, 1), (1, 0), (0, 1)])
        assert g.edge_count() == 1

    def test_symmetry(self):
        g = Graph(4, [(0, 2), (1, 3)])
        for u in range(4):
            for v in range(4):
                assert g.has_edge(u, v) == g.has_edge(v, u)


class TestDegree:
    def test_path_endpoint(self):
        assert path_graph(4).degree(0) == 1

    def test_cycle_regular(self):
        g = cycle_graph(5)
        assert all(g.degree(v) == 2 for v in range(5))

    def test_star_hub(self):
        assert star_graph(4).degree(0) == 4

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            path_graph(3).degree(3)


def classes(g):
    """The degree classes as sorted (degree, members) pairs."""
    return sorted((d, tuple(iter_bits(mask))) for d, mask in degree_masks(g).items())


class TestDegreePartition:
    """The vertices grouped by degree, one mask per degree."""

    def test_star(self):
        assert classes(star_graph(3)) == [(1, (1, 2, 3)), (3, (0,))]

    def test_path5(self):
        assert classes(path_graph(5)) == [(1, (0, 4)), (2, (1, 2, 3))]

    def test_complete(self):
        assert degree_masks(complete_graph(4)) == {3: 0b1111}

    def test_empty_graph(self):
        assert degree_masks(Graph(0)) == {}

    @given(graphs())
    def test_partition_covers_all_vertices(self, g):
        masks = degree_masks(g)
        union = 0
        for d, mask in masks.items():
            assert mask and not union & mask  # non-empty and disjoint
            union |= mask
            assert all(g.degree(v) == d for v in iter_bits(mask))
        assert union == (1 << g.n) - 1


class TestComplement:
    def test_complete_to_empty(self):
        assert complement(complete_graph(5)) == empty_graph(5)

    def test_c5_self_complementary(self):
        # exhaustive isomorphism on 5 vertices
        assert brute_isomorphic(complement(cycle_graph(5)), cycle_graph(5))

    @given(graphs())
    def test_involution(self, g):
        assert complement(complement(g)) == g


class TestDeltaComplement:
    def test_regular_graph_reduces_to_complement(self):
        for g in (cycle_graph(6), complete_graph(4), empty_graph(3)):
            assert delta_complement(g) == complement(g)

    def test_p4(self):
        # endpoints pair up, inner edge flips away, cross edges survive
        assert delta_complement(path_graph(4)).edges() == [(0, 1), (0, 3), (2, 3)]

    def test_star_becomes_complete(self):
        assert delta_complement(star_graph(3)) == complete_graph(4)

    @given(graphs())
    def test_matches_naive_rule(self, g):
        assert set(delta_complement(g).edges()) == naive_delta_edges(g)

    @given(graphs(max_n=7))
    def test_classwise_identity(self, g):
        # within one degree class: complement of the induced subgraph;
        # across classes: exactly the original edges
        d = delta_complement(g)
        for _, vs in classes(g):
            sub_delta = induced_subgraph(d, vs)
            sub_comp = complement(induced_subgraph(g, vs))
            assert sub_delta == sub_comp
        class_of = {v: i for i, (_, vs) in enumerate(classes(g)) for v in vs}
        cross_delta = {
            (u, v) for u, v in d.edges() if class_of[u] != class_of[v]
        }
        cross_g = {(u, v) for u, v in g.edges() if class_of[u] != class_of[v]}
        assert cross_delta == cross_g


class TestCartesianProduct:
    def test_square(self):
        product, _ = cartesian_product([path_graph(2), path_graph(2)])
        assert brute_isomorphic(product, cycle_graph(4))

    def test_edge_count_p6_p7(self):
        product, _ = cartesian_product([path_graph(6), path_graph(7)])
        assert product.edge_count() == 71  # 6*6 + 7*5

    def test_identity_factor(self):
        h = cycle_graph(5)
        product, _ = cartesian_product([complete_graph(1), h])
        assert product == h

    def test_empty_factor_list(self):
        with pytest.raises(ValueError):
            cartesian_product([])

    def test_empty_factor(self):
        with pytest.raises(ValueError):
            cartesian_product([Graph(0), path_graph(2)])

    def test_size_guardrail(self):
        with pytest.raises(SizeLimitError):
            cartesian_product([complete_graph(101), complete_graph(100)])

    @given(graphs(min_n=1, max_n=5), graphs(min_n=1, max_n=5))
    def test_matches_naive_product(self, g, h):
        product, _ = cartesian_product([g, h])
        assert set(product.edges()) == naive_product_edges([g, h])

    @given(graphs(min_n=1, max_n=4), graphs(min_n=1, max_n=4))
    def test_degree_additivity(self, g, h):
        product, idx = cartesian_product([g, h])
        for v in range(product.n):
            a, b = idx.unflat(v)
            assert product.degree(v) == g.degree(a) + h.degree(b)

    @given(graphs(min_n=1, max_n=3), graphs(min_n=1, max_n=3), graphs(min_n=1, max_n=3))
    @settings(max_examples=30)
    def test_associative_up_to_reindexing(self, a, b, c):
        left, _ = cartesian_product([cartesian_product([a, b])[0], c])
        right, _ = cartesian_product([a, cartesian_product([b, c])[0]])
        flat, _ = cartesian_product([a, b, c])
        # all three use row-major last-fastest order, so ids line up exactly
        assert left == flat
        assert right == flat


class TestInducedSubgraph:
    def test_full_vertex_set(self):
        g = cycle_graph(6)
        assert induced_subgraph(g, range(6)) == g

    def test_interior_of_grid(self):
        product, idx = cartesian_product([path_graph(6), path_graph(7)])
        interior = [
            v
            for v in range(product.n)
            if product.degree(v) == 4
        ]
        sub = induced_subgraph(product, interior)
        assert sub.n == 20  # (6-2) * (7-2)

    def test_empty_selection(self):
        assert induced_subgraph(cycle_graph(5), []) == Graph(0)

    def test_remap_keeps_edges(self):
        g = path_graph(5)
        sub = induced_subgraph(g, [1, 2, 4])
        assert sub.edges() == [(0, 1)]

    @pytest.mark.parametrize("bad", [-1, 5, 70])
    def test_out_of_range_vertex_rejected(self, bad):
        with pytest.raises(ValueError):
            induced_subgraph(cycle_graph(5), [0, bad])

    @given(wide_graphs(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_reference(self, g, data):
        vertex = st.integers(min_value=0, max_value=max(g.n - 1, 0))
        vs = data.draw(st.lists(vertex, max_size=2 * g.n) if g.n else st.just([]))
        assert induced_subgraph(g, vs) == reference_induced_subgraph(g, vs)
        assert induced_subgraph(g, []) == Graph(0)
        assert induced_subgraph(g, range(g.n)) == g
        assert induced_subgraph(g, vs + vs) == induced_subgraph(g, vs)

    def test_dense_product_delta(self):
        product, _ = cartesian_product([path_graph(20), path_graph(20)])
        d = delta_complement(product)
        for vs in (range(0, 400, 2), range(37, 400, 3)):
            assert induced_subgraph(d, vs) == reference_induced_subgraph(d, vs)


class TestProductIndex:
    def test_row_major_last_fastest(self):
        idx = ProductIndex((2, 3))
        assert [idx.flat((i, j)) for i in range(2) for j in range(3)] == list(range(6))

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            ProductIndex((2, 0))

    @given(st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=4))
    def test_bijection(self, sizes):
        idx = ProductIndex(tuple(sizes))
        seen = set()
        for v in range(idx.total):
            coords = idx.unflat(v)
            assert idx.flat(coords) == v
            seen.add(coords)
        assert len(seen) == idx.total


class TestSerialization:
    def test_json_bytes_exact(self):
        assert to_json(path_graph(3)) == '{"n":3,"edges":[[0,1],[1,2]]}'

    @given(graphs())
    def test_json_round_trip(self, g):
        assert from_json(to_json(g)) == g

    def test_json_rejects_malformed(self):
        with pytest.raises(ValueError):
            from_json(json.dumps([1, 2, 3]))

    def test_json_over_the_vertex_budget(self):
        with pytest.raises(SizeLimitError, match="10001 vertices"):
            from_json('{"n": 10001, "edges": []}')
        assert from_json('{"n": 10000, "edges": [[0, 9999]]}').edge_count() == 1

    def test_dot_plain(self):
        assert to_dot(path_graph(3)) == "graph {\n  0 -- 1;\n  1 -- 2;\n}\n"

    def test_dot_with_colors(self):
        out = to_dot(path_graph(2), colors=[0, 1], one_based=True)
        assert out == "graph {\n  1 [color=1];\n  2 [color=2];\n  1 -- 2;\n}\n"

    def test_dot_color_length_mismatch(self):
        with pytest.raises(ValueError):
            to_dot(path_graph(3), colors=[0])


def assert_writers_match_reference(g, colors=None):
    assert to_json(g) == reference_to_json(g)
    for one_based in (False, True):
        assert to_dot(g, colors, one_based) == reference_to_dot(g, colors, one_based)


@st.composite
def product_deltas(draw, max_vertices=400):
    """The delta-complement of a two-factor path/cycle/star product."""
    factors = []
    room = max_vertices // 3
    for _ in range(2):
        kind = draw(st.sampled_from(["path", "cycle", "star"]))
        if kind == "star":
            factors.append(star_graph(draw(st.integers(min_value=1, max_value=room - 1))))
        else:
            make, lo = (path_graph, 1) if kind == "path" else (cycle_graph, 3)
            factors.append(make(draw(st.integers(min_value=lo, max_value=room))))
        room = max_vertices // factors[0].n
    product, _ = cartesian_product(factors)
    return delta_complement(product)


class TestWritersMatchReference:
    """The mask writers against one json.dumps / one line per edge."""

    @given(wide_graphs(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_random_rows(self, g, data):
        colors = data.draw(st.none() | st.lists(
            st.integers(min_value=0, max_value=6), min_size=g.n, max_size=g.n))
        assert_writers_match_reference(g, colors)

    @given(st.integers(min_value=0, max_value=70))
    @settings(max_examples=30, deadline=None)
    def test_edgeless_and_complete(self, n):
        assert_writers_match_reference(Graph(n))
        assert_writers_match_reference(Graph(n), list(range(n)))
        if n:
            assert_writers_match_reference(complete_graph(n))

    def test_empty_graph_bytes(self):
        assert to_json(Graph(0)) == '{"n":0,"edges":[]}'
        assert to_dot(Graph(0)) == "graph {\n}\n"
        assert to_dot(Graph(2), [0, 0], one_based=True) == (
            "graph {\n  1 [color=1];\n  2 [color=1];\n}\n"
        )

    @given(st.integers(min_value=3, max_value=400))
    @settings(max_examples=30, deadline=None)
    def test_sparse_wide_rows(self, n):
        # row 0 of C_n has bits 1 and n - 1 only
        assert_writers_match_reference(cycle_graph(n))

    @given(product_deltas())
    @settings(max_examples=15, deadline=None)
    def test_product_deltas(self, g):
        assert_writers_match_reference(g)

    def test_largest_product_delta(self):
        # 1,600 vertices: the export size the benchmark writes
        product, _ = cartesian_product([path_graph(40), path_graph(40)])
        g = delta_complement(product)
        assert g.edge_count() == 1_050_528
        assert to_json(g) == reference_to_json(g)
        assert to_dot(g, one_based=True) == reference_to_dot(g, one_based=True)
        assert_writers_match_reference(product)


def naive_edges(g):
    return [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if g.has_edge(u, v)]


class TestEdges:
    """``edges()`` against an ordered scan of every vertex pair."""

    @given(wide_graphs() | dense_graphs())
    @settings(max_examples=150, deadline=None)
    def test_random_rows(self, g):
        assert g.edges() == naive_edges(g)

    @pytest.mark.parametrize("leaves", [7, 8])
    @pytest.mark.parametrize("gap", [1, 4])
    def test_either_side_of_the_dense_rule(self, leaves, gap):
        # vertex 0 sees every gap-th vertex: 7 set bits are walked, 8 are
        # scanned as digits
        g = Graph(leaves * gap + 1, [(0, gap * i) for i in range(1, leaves + 1)])
        assert g.edges() == naive_edges(g)

    def test_sparse_grid_rows(self):
        # after the shift a P40 x P40 row holds 2 set bits in 40 digits
        product, _ = cartesian_product([path_graph(40), path_graph(40)])
        assert product.edges() == naive_edges(product)

    def test_product_delta(self):
        product, _ = cartesian_product([path_graph(30), path_graph(30)])
        g = delta_complement(product)
        assert g.edges() == naive_edges(g)


class TestConnectivity:
    def test_connected_cycle(self):
        assert is_connected(cycle_graph(7))

    def test_disconnected(self):
        assert not is_connected(Graph(4, [(0, 1), (2, 3)]))

    def test_trivial(self):
        assert is_connected(Graph(0))
        assert is_connected(Graph(1))
