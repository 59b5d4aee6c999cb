import random

import pytest

from deltachrom import (
    cartesian_product,
    chi_delta,
    chromatic_number,
    degree_difference_set,
    formula_chi_delta,
    lemma_ceiling_check,
    ng_bounds_check,
    parse_spec,
    upper_degree_diff_check,
)
from deltachrom.bounds import ceil_div
from deltachrom.families import (
    complete_graph,
    cycle_graph,
    path_graph,
    random_graph,
    star_graph,
)


class TestCeilDiv:
    @pytest.mark.parametrize("a,b,expected", [(5, 2, 3), (4, 2, 2), (0, 3, 0), (7, 3, 3)])
    def test_values(self, a, b, expected):
        assert ceil_div(a, b) == expected


class TestDegreeDifferenceSet:
    def test_path(self):
        assert degree_difference_set(path_graph(5)) == {1}

    def test_star(self):
        assert degree_difference_set(star_graph(4)) == {3}

    def test_regular(self):
        assert degree_difference_set(cycle_graph(6)) == frozenset()


class TestFormula:
    def test_cycle(self):
        assert formula_chi_delta(parse_spec("C11")).value == 6

    def test_path_path(self):
        assert formula_chi_delta(parse_spec("X(P6,P9)")).value == 14

    def test_path_below_hypothesis(self):
        assert formula_chi_delta(parse_spec("P4")) is None

    def test_cycle_gated_at_triangle(self):
        # C3 is regular with one degree class; its delta-complement is
        # edgeless and the closed form fails, so the table declines it
        assert formula_chi_delta(parse_spec("C3")) is None

    def test_wheel_gated_at_complete(self):
        assert formula_chi_delta(parse_spec("W3")) is None
        assert formula_chi_delta(parse_spec("W4")).value == 3

    def test_cycle_p3(self):
        assert formula_chi_delta(parse_spec("X(C9,P3)")).value == 10
        assert formula_chi_delta(parse_spec("X(P3,C9)")).value == 10
        assert formula_chi_delta(parse_spec("X(C4,P3)")) is None

    def test_star_star(self):
        assert formula_chi_delta(parse_spec("X(S1,4,S1,5)")).value == 20

    def test_star_path_discrepancy_exposed(self):
        fv = formula_chi_delta(parse_spec("X(S1,3,P3)"))
        assert fv.value == 6
        assert fv.statement_value == 3
        assert fv.proof_value == 6
        assert fv.note
        fv = formula_chi_delta(parse_spec("X(S1,4,P4)"))
        assert fv.value == 8 and fv.statement_value == 4

    def test_star_path_long(self):
        fv = formula_chi_delta(parse_spec("X(S1,3,P7)"))
        assert fv.value == 9 and fv.statement_value is None

    def test_uncovered_terms(self):
        assert formula_chi_delta(parse_spec("K5")) is None
        assert formula_chi_delta(parse_spec("X(P5,P7)")) is None
        assert formula_chi_delta(parse_spec("X(C5,C5)")) is None


class TestNgBounds:
    def test_c5_sharp(self):
        g = cycle_graph(5)
        product, total = ng_bounds_check(g, 3, 3)
        assert product.hypothesis_met and product.holds
        assert total.hypothesis_met and total.holds
        # both ends are tight here: 5 <= 9 = ((1+5)/2)^2 and 6 = 1+5
        assert product.lhs == 5  # n_max
        assert total.detail.endswith("6 <= 6")

    def test_p5(self):
        product, total = ng_bounds_check(path_graph(5), 2, 2)
        assert product.holds and total.holds

    def test_small_graph_skipped(self):
        product, total = ng_bounds_check(complete_graph(3), 3, 1)
        assert not product.hypothesis_met and not total.hypothesis_met

    def test_solver_backed_instance(self):
        g = star_graph(5)
        chi = chromatic_number(g).chi
        chi_d = chi_delta(g).chi
        product, total = ng_bounds_check(g, chi, chi_d)
        assert product.holds and total.holds


class TestLowerMaxFactor:
    """max(chi_delta(G), chi_delta(H)) <= chi_delta(G x H): each G-fibre
    of G x H induces delta(G) in delta(G x H)."""

    def test_cycle_p3(self):
        product, _ = cartesian_product([cycle_graph(5), path_graph(3)])
        # the 3-path flips to a triangle
        assert chi_delta(path_graph(3)).chi == 3
        assert max(chi_delta(cycle_graph(5)).chi, 3) <= chi_delta(product).chi == 6

    def test_identity_factor_equality(self):
        product, _ = cartesian_product([complete_graph(1), star_graph(3)])
        value = chi_delta(star_graph(3)).chi
        assert max(chi_delta(complete_graph(1)).chi, value) == chi_delta(product).chi == value

    def test_solver_backed_pair(self):
        rng = random.Random(0)
        pairs = [(cycle_graph(5), path_graph(4))] + [
            (random_graph(rng.randint(2, 5), 0.5, rng), random_graph(rng.randint(2, 5), 0.5, rng))
            for _ in range(6)
        ]
        for g, h in pairs:
            product, _ = cartesian_product([g, h])
            result = chi_delta(product)
            assert result.exact
            assert max(chi_delta(g).chi, chi_delta(h).chi) <= result.chi


class TestUpperDegreeDiff:
    def test_sharp_at_cycle_p3(self):
        g, h = cycle_graph(5), path_graph(3)
        product, _ = cartesian_product([g, h])
        value = chi_delta(product).chi
        check = upper_degree_diff_check(g, h, chi_delta(g).chi, value)
        assert check.hypothesis_met and check.holds
        assert check.lhs == check.rhs == 6

    def test_star_with_p3(self):
        g, h = star_graph(3), path_graph(3)
        assert degree_difference_set(g) == {2}
        assert degree_difference_set(h) == {1}
        product, _ = cartesian_product([g, h])
        check = upper_degree_diff_check(
            g, h, chi_delta(g).chi, chi_delta(product).chi
        )
        assert check.hypothesis_met and check.holds

    def test_hypothesis_collision_skipped(self):
        check = upper_degree_diff_check(path_graph(4), path_graph(4), 2, 4)
        assert not check.hypothesis_met


class TestLemmaCeiling:
    def test_reference_values(self):
        chk = lemma_ceiling_check(6, 8)
        assert chk.holds and chk.lhs == 11 and chk.rhs == 12
        chk = lemma_ceiling_check(7, 9)
        assert chk.holds and chk.lhs == 15 and chk.rhs == 18

    def test_below_hypothesis_skipped(self):
        assert not lemma_ceiling_check(6, 7).hypothesis_met

    def test_exhaustive_to_forty(self):
        for n in range(6, 41):
            for k in range(max(n, 8), 41):
                chk = lemma_ceiling_check(n, k)
                assert chk.hypothesis_met and chk.holds, (n, k)
