import pytest
from hypothesis import given, settings

from deltachrom import (
    cartesian_product,
    delta_complement,
    delta_of_product,
    equality_holds,
    extra_edge_set,
)
from deltachrom.families import (
    complete_graph,
    cycle_graph,
    path_graph,
    star_graph,
)

from _oracles import brute_isomorphic, naive_extra_edges
from strategies import graphs


def assert_union_identity(factors):
    dec = delta_of_product(factors)
    left = set(dec.delta_of_product.edges())
    base = set(dec.product_of_deltas.edges())
    extra = set(dec.extra.edges())
    assert left == base | extra
    # derived, not definitional: the union is in fact disjoint, because
    # base edges change exactly one coordinate and extra edges at least two
    assert not base & extra


class TestExtraEdgeSet:
    def test_identity_factor_yields_nothing(self):
        assert extra_edge_set([complete_graph(1), cycle_graph(5)]) == []

    def test_square_diagonals(self):
        # P2 x P2 is the 4-cycle 0-1-3-2; both diagonal pairs differ in
        # two coordinates and all degrees are equal
        assert extra_edge_set([path_graph(2), path_graph(2)]) == [(0, 3), (1, 2)]

    def test_torus_c3_c3(self):
        # 4-regular on 9 vertices: all 36 pairs minus 18 product edges
        assert len(extra_edge_set([cycle_graph(3), cycle_graph(3)])) == 18

    def test_rejects_empty_factor_list(self):
        with pytest.raises(ValueError):
            extra_edge_set([])

    def test_sorted_output(self):
        s = extra_edge_set([cycle_graph(3), cycle_graph(3)])
        assert s == sorted(s)

    @given(graphs(min_n=1, max_n=6), graphs(min_n=1, max_n=6))
    @settings(max_examples=60, deadline=None)
    def test_matches_coordinate_pair_definition(self, g, h):
        assert extra_edge_set([g, h]) == naive_extra_edges([g, h])

    @given(graphs(min_n=1, max_n=4), graphs(min_n=1, max_n=4), graphs(min_n=1, max_n=4))
    @settings(max_examples=40, deadline=None)
    def test_matches_definition_on_triples(self, a, b, c):
        expected = naive_extra_edges([a, b, c])
        assert extra_edge_set([a, b, c]) == expected
        assert delta_of_product([a, b, c]).extra.edges() == expected

    def test_named_products_match_definition(self):
        for factors in ([path_graph(6), path_graph(7)], [star_graph(3), cycle_graph(5)],
                        [cycle_graph(4), path_graph(3), path_graph(2)]):
            assert extra_edge_set(factors) == naive_extra_edges(factors)


class TestDecomposition:
    def test_square(self):
        dec = delta_of_product([path_graph(2), path_graph(2)])
        # delta of C4 = its complement = the two diagonals
        assert dec.delta_of_product.edges() == [(0, 3), (1, 2)]
        assert dec.product_of_deltas.edge_count() == 0
        assert dec.extra.edges() == [(0, 3), (1, 2)]

    def test_identity_factor(self):
        dec = delta_of_product([complete_graph(1), path_graph(5)])
        assert dec.extra.edges() == []
        assert brute_isomorphic(
            dec.delta_of_product, delta_complement(path_graph(5))
        )

    def test_star_path_union_identity(self):
        assert_union_identity([star_graph(3), path_graph(3)])

    def test_delta_of_product_matches_direct_computation(self):
        factors = [star_graph(3), path_graph(3)]
        dec = delta_of_product(factors)
        product, _ = cartesian_product(factors)
        assert dec.delta_of_product == delta_complement(product)

    @given(graphs(min_n=2, max_n=6), graphs(min_n=2, max_n=6))
    @settings(max_examples=60, deadline=None)
    def test_union_identity_random_pairs(self, g, h):
        assert_union_identity([g, h])

    @given(graphs(min_n=1, max_n=4), graphs(min_n=1, max_n=4), graphs(min_n=1, max_n=4))
    @settings(max_examples=40, deadline=None)
    def test_union_identity_random_triples(self, a, b, c):
        assert_union_identity([a, b, c])


class TestEqualityCharacterization:
    def test_singleton_factors(self):
        assert equality_holds([complete_graph(1), complete_graph(1), cycle_graph(9)])

    def test_two_nontrivial_factors(self):
        assert not equality_holds([path_graph(2), path_graph(2)])

    def test_empty_factor_list_vacuous(self):
        assert equality_holds([])

    @given(graphs(min_n=1, max_n=5), graphs(min_n=1, max_n=5))
    @settings(max_examples=60, deadline=None)
    def test_equivalent_to_empty_extra_set(self, g, h):
        assert equality_holds([g, h]) == (not extra_edge_set([g, h]))
