import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltachrom import (
    MAX_PRODUCT_VERTICES,
    FamilySpec,
    SizeLimitError,
    disjoint_union,
    format_spec,
    generate,
    is_regular,
    join,
    parse_spec,
    to_json,
)
from deltachrom.families import (
    complete_graph,
    cycle_graph,
    empty_graph,
    path_graph,
    star_graph,
    wheel_graph,
    windmill_graph,
)

from deltachrom import Graph

from _oracles import (
    brute_isomorphic,
    naive_disjoint_union_edges,
    naive_join_edges,
    reference_atom,
)
from strategies import family_specs, graphs


class TestGenerate:
    def test_star_edges(self):
        assert star_graph(3).edges() == [(0, 1), (0, 2), (0, 3)]

    def test_wheel_counts(self):
        g = wheel_graph(5)
        assert g.n == 6 and g.edge_count() == 10

    def test_wheel_is_hub_join_cycle(self):
        assert generate(parse_spec("J(K1,C5)")) == wheel_graph(5)

    def test_path_labels_run_along_path(self):
        assert path_graph(4).edges() == [(0, 1), (1, 2), (2, 3)]

    def test_windmill_blocks(self):
        g = windmill_graph(3, 3)
        assert g.n == 10
        # hub spokes + three triangles
        assert g.edge_count() == 9 + 9
        assert g.degree(0) == 9

    @pytest.mark.parametrize("bad", ["C2", "S1,0", "W2", "P0", "K0"])
    def test_invalid_parameters(self, bad):
        with pytest.raises(ValueError):
            generate(parse_spec(bad))

    @pytest.mark.parametrize("term,size", [
        ("P10001", 10001), ("C10001", 10001), ("K10001", 10001), ("N10001", 10001),
        ("S1,10000", 10001), ("W10000", 10001), ("M(100,100)", 10001),
        ("J(N5000,N5001)", 10001), ("X(P101,P100)", 10100), ("J(K1,X(P100,P100))", 10001),
    ])
    def test_terms_over_the_vertex_budget_are_refused(self, term, size):
        with pytest.raises(SizeLimitError, match=f"has {size} vertices, over the 10000 budget"):
            generate(parse_spec(term))

    @pytest.mark.parametrize("term", ["N10000", "J(N5000,N5000)", "S1,9999", "M(1,9999)"])
    def test_terms_at_the_vertex_budget_are_built(self, term):
        assert generate(parse_spec(term)).n == MAX_PRODUCT_VERTICES

    def test_budget_is_checked_before_building(self, monkeypatch):
        import deltachrom.families as families

        def refuse(n):
            raise AssertionError(f"built a path of {n} vertices")

        monkeypatch.setattr(families, "_path_rows", refuse)
        for term in ("P200000", "J(P6000,P6000)", "X(P2,P6000)"):
            with pytest.raises(SizeLimitError):
                generate(parse_spec(term))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FamilySpec("tree", (3,))
        with pytest.raises(ValueError):
            FamilySpec("raw")

    @given(family_specs())
    @settings(max_examples=60)
    def test_deterministic_bytes(self, spec):
        assert to_json(generate(spec)) == to_json(generate(spec))

    def test_edge_count_closed_forms(self):
        for n in range(1, 9):
            assert path_graph(n).edge_count() == n - 1
        for n in range(3, 9):
            assert cycle_graph(n).edge_count() == n
            assert wheel_graph(n).edge_count() == 2 * n
        for m in range(1, 9):
            assert star_graph(m).edge_count() == m
        for m in range(1, 4):
            for n in range(1, 5):
                g = windmill_graph(m, n)
                assert g.n == 1 + m * n
                assert g.edge_count() == m * n + m * n * (n - 1) // 2


ATOM_RANGES = [
    ("path", range(1, 41)),
    ("cycle", range(3, 41)),
    ("complete", range(1, 41)),
    ("empty", range(0, 11)),
    ("star", range(1, 41)),
    ("wheel", range(3, 41)),
]


class TestAtomsMatchEdgeListReference:
    """The mask-row generators against edge lists with the canonical labels."""

    @pytest.mark.parametrize("kind,sizes", ATOM_RANGES, ids=[k for k, _ in ATOM_RANGES])
    def test_atom_rows(self, kind, sizes):
        for n in sizes:
            g = generate(FamilySpec(kind, (n,)))
            ref = reference_atom(kind, n)
            assert [g.adjacency_mask(v) for v in range(g.n)] == [
                ref.adjacency_mask(v) for v in range(ref.n)
            ], f"{kind} {n}"

    def test_windmill_rows(self):
        for m, n in [(1, 1), (1, 4), (2, 1), (2, 3), (3, 3), (4, 2), (5, 5)]:
            assert windmill_graph(m, n) == reference_atom("windmill", m, n)

    @pytest.mark.parametrize(
        "kind,params",
        [("empty", (-1,)), ("windmill", (0, 3)), ("windmill", (3, 0)), ("cycle", (-4,))],
    )
    def test_more_invalid_parameters(self, kind, params):
        with pytest.raises(ValueError):
            generate(FamilySpec(kind, params))


class TestJoin:
    def test_star_as_hub_join_empty(self):
        for m in range(1, 6):
            assert join(complete_graph(1), empty_graph(m)) == star_graph(m)

    def test_k2(self):
        assert join(complete_graph(1), complete_graph(1)) == complete_graph(2)

    def test_n2_join_n2_is_c4(self):
        g = join(empty_graph(2), empty_graph(2))
        assert brute_isomorphic(g, cycle_graph(4))

    def test_disjoint_union_shifts_ids(self):
        g = disjoint_union([path_graph(2), path_graph(3)])
        assert g.edges() == [(0, 1), (2, 3), (3, 4)]

    def test_empty_parts(self):
        assert disjoint_union([]) == Graph(0)
        assert join(Graph(0), cycle_graph(4)) == cycle_graph(4)
        assert join(path_graph(3), Graph(0)) == path_graph(3)

    @given(graphs(), graphs())
    @settings(max_examples=80)
    def test_join_matches_naive_edges(self, g, h):
        assert join(g, h) == Graph(g.n + h.n, naive_join_edges(g, h))

    @given(st.lists(graphs(), max_size=4))
    @settings(max_examples=80)
    def test_disjoint_union_matches_naive_edges(self, parts):
        total = sum(g.n for g in parts)
        assert disjoint_union(parts) == Graph(total, naive_disjoint_union_edges(parts))


class TestIsRegular:
    def test_cycle(self):
        assert is_regular(cycle_graph(7)) == 2

    def test_star(self):
        assert is_regular(star_graph(3)) is None

    def test_complete(self):
        assert is_regular(complete_graph(5)) == 4

    def test_empty_graph_rejected(self):
        from deltachrom import Graph

        with pytest.raises(ValueError):
            is_regular(Graph(0))


class TestTermLanguage:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("P7", FamilySpec("path", (7,))),
            ("C5", FamilySpec("cycle", (5,))),
            ("K4", FamilySpec("complete", (4,))),
            ("N3", FamilySpec("empty", (3,))),
            ("S1,4", FamilySpec("star", (4,))),
            ("W6", FamilySpec("wheel", (6,))),
            ("M(3,4)", FamilySpec("windmill", (3, 4))),
        ],
    )
    def test_atoms(self, text, expected):
        assert parse_spec(text) == expected

    def test_nested_star_in_product(self):
        spec = parse_spec("X(S1,3,P3)")
        assert spec == FamilySpec(
            "product", (), (FamilySpec("star", (3,)), FamilySpec("path", (3,)))
        )

    def test_join_term(self):
        spec = parse_spec("J(K1,C5)")
        assert spec.kind == "join"
        assert format_spec(spec) == "J(K1,C5)"

    def test_three_factor_product(self):
        spec = parse_spec("X(C3,C3,P2)")
        assert len(spec.children) == 3

    @pytest.mark.parametrize(
        "bad", ["", "P", "S2,3", "X(P3)", "J(K1)", "Q7", "P3)", "X(P2,P2", "P3,"]
    )
    def test_parse_errors(self, bad):
        with pytest.raises(ValueError):
            parse_spec(bad)

    @given(family_specs())
    @settings(max_examples=80)
    def test_round_trip(self, spec):
        assert parse_spec(format_spec(spec)) == spec

    def test_whitespace_tolerated(self):
        assert parse_spec("X( P2 , P2 )") == parse_spec("X(P2,P2)")
