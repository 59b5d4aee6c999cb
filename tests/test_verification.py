import time
from dataclasses import replace
from types import SimpleNamespace

import pytest

from deltachrom.chromatic import DEFAULT_TIMEOUT
from deltachrom.verification import (
    DEFAULT_SEED,
    check_ids,
    run_check,
    seeded_graph_tuples,
    seeded_graphs,
)


class TestCorpora:
    def test_same_seed_same_graphs(self):
        a = seeded_graphs(10, 2, 6, seed=3)
        b = seeded_graphs(10, 2, 6, seed=3)
        assert a == b

    def test_different_seed_differs(self):
        a = seeded_graphs(10, 2, 6, seed=3)
        b = seeded_graphs(10, 2, 6, seed=4)
        assert a != b

    def test_connected_filter(self):
        from deltachrom import is_connected

        for g in seeded_graphs(20, 4, 7, seed=DEFAULT_SEED, connected=True):
            assert is_connected(g)

    def test_tuples_arity(self):
        triples = seeded_graph_tuples(5, 3, 1, 4, seed=DEFAULT_SEED)
        assert all(len(t) == 3 for t in triples)
        assert all(1 <= g.n <= 4 for t in triples for g in t)


class TestRegistry:
    def test_unknown_check_rejected(self):
        with pytest.raises(ValueError, match="unknown check"):
            run_check("no-such-check")

    def test_every_check_contributes_to_all(self):
        rows = run_check("all", {"trials": 5, "max": 12})
        seen = {r.check_id for r in rows}
        assert seen == set(check_ids())
        assert not [r for r in rows if r.status == "fail"]

    def test_reports_carry_instance_parameters(self):
        rows = run_check("lemma-ceiling", {"max": 10})
        assert all(set(r.params) == {"n", "k"} for r in rows)
        assert all(r.status == "pass" for r in rows)

    def test_formula_checks_skip_out_of_hypothesis(self):
        rows = run_check("cycle-formula", {"n": (3, 4)})
        by_n = {r.params["n"]: r for r in rows}
        assert by_n[3].status == "skip"
        assert by_n[3].computed == "1"  # the true solver value is still shown
        assert by_n[4].status == "pass"

    @pytest.mark.parametrize("check_id", check_ids())
    def test_expired_deadline_never_fails(self, check_id):
        # a timeout of 0 has passed before any solve starts, so this is
        # deterministic: every solve that is not closed at once is cut short
        rows = run_check(check_id, {"timeout": 0.0})
        assert rows
        assert not [r for r in rows if r.status == "fail"]
        for r in rows:
            if r.inexact:
                assert r.status == "skip"
                assert r.computed.startswith("inexact [")

    def test_expired_deadline_reports_bracket(self):
        rows = [r for r in run_check("oracle", {"timeout": 0.0, "trials": 5}) if r.inexact]
        assert rows
        for r in rows:
            lower, upper = map(int, r.computed[len("inexact ["):-1].split(","))
            assert lower <= int(r.expected) <= upper

    def test_each_check_under_all_must_yield_a_row(self):
        # ng is the first check that trials=0 leaves with no instance
        with pytest.raises(ValueError, match="^verify ng yields no row for these options$"):
            run_check("all", {"trials": 0})

    def test_seed_and_timeout_default_to_the_shared_values(self):
        masked = lambda rows: [replace(r, seconds=0.0) for r in rows]
        given = run_check("structure", {"trials": 3, "seed": DEFAULT_SEED,
                                        "timeout": DEFAULT_TIMEOUT})
        assert masked(run_check("structure", {"trials": 3})) == masked(given)

    def test_default_timeout_rows_are_exact(self):
        assert not [r for r in run_check("cycle-p3") if r.inexact]

    def test_star_path_rows_include_discrepancy_verdicts(self):
        rows = run_check("star-path", {"m": (3, 3), "n": (3, 4)})
        solver_rows = [r for r in rows if "solver" in r.params]
        assert len(solver_rows) == 2
        assert all("stated form" in r.expected for r in solver_rows)
        assert all(r.status == "pass" for r in solver_rows)

    @pytest.mark.parametrize("check_id,build,opts", [
        ("star-star", "star_star_coloring", {"m": (3, 3), "n": (3, 3)}),
        ("star-path", "star_path_coloring", {"m": (3, 3), "n": (5, 5)}),
        ("path-path", "path_path_coloring", {"n": (6, 6), "k": (6, 6)}),
    ])
    @pytest.mark.parametrize("breaking", [
        lambda clique: clique[:-1],
        lambda clique: (0,) + clique[1:],  # vertex 0 sees no clique vertex
    ], ids=["short", "not-a-clique"])
    def test_construction_rows_fail_without_a_certificate(
        self, monkeypatch, check_id, build, opts, breaking
    ):
        import deltachrom.verification as verification

        original = getattr(verification, build)

        def broken(*args):
            r = original(*args)
            return replace(r, clique=breaking(r.clique))

        monkeypatch.setattr(verification, build, broken)
        row = run_check(check_id, opts)[0]
        assert row.status == "fail"
        assert row.computed.startswith("colors=") and " clique=" in row.computed


class TestRowsFollowTheTable:
    def test_cycle_p3_skips_where_the_table_declines(self):
        rows = run_check("cycle-p3", {"n": (3, 5)})
        assert [r.status for r in rows] == ["skip", "skip", "pass"]
        assert [r.computed for r in rows[:2]] == ["chi=3 omega=3", "chi=4 omega=4"]

    def test_cycle_p3_shows_a_cut_clique_search_as_a_lower_bound(self, monkeypatch):
        # the row's own clique search with its deadline already past
        import deltachrom.verification as verification

        search = verification.max_clique_lower
        monkeypatch.setattr(verification, "max_clique_lower", lambda d, deadline: search(d, 0.0))
        rows = run_check("cycle-p3")
        assert [r.computed for r in rows] == [
            "chi=6 omega>=1", "chi=6 omega>=1", "chi=8 omega>=1", "chi=8 omega>=1"]
        assert all(r.status == "pass" for r in rows)

    @pytest.mark.parametrize("check_id,opts,skipped", [
        ("star-star", {"m": (2, 2), "n": (2, 4)}, 3),
        ("star-path", {"m": (1, 3), "n": (2, 2)}, 3),
        ("path-path", {"n": (4, 5), "k": (6, 6)}, 2),
    ])
    def test_no_construction_outside_the_table(self, monkeypatch, check_id, opts, skipped):
        import deltachrom.verification as verification

        def refuse(*args):
            raise AssertionError(f"construction called at {args}")

        for build in ("star_star_coloring", "star_path_coloring", "path_path_coloring"):
            monkeypatch.setattr(verification, build, refuse)
        rows = [r for r in run_check(check_id, opts) if "solver" not in r.params]
        assert len(rows) == skipped
        assert all(r.status == "skip" and r.computed == "construction not run" for r in rows)

    @pytest.mark.parametrize("check_id,opts", [
        ("star-star", {"m": (3, 3), "n": (4, 4)}),
        ("star-path", {"m": (3, 3), "n": (5, 5)}),
        ("path-path", {"n": (6, 6), "k": (7, 7)}),
        ("cycle-p3", {"n": (5, 5)}),
    ])
    def test_a_wrong_table_value_fails_the_row(self, monkeypatch, check_id, opts):
        import deltachrom.verification as verification

        original = verification.formula_chi_delta

        def off_by_one(spec):
            fv = original(spec)
            return None if fv is None else replace(fv, value=fv.value + 1)

        monkeypatch.setattr(verification, "formula_chi_delta", off_by_one)
        assert run_check(check_id, opts)[0].status == "fail"


def counted_degree_diff_solves(monkeypatch, opts):
    """The degree-diff rows for opts, and the graph of each chi_delta call."""
    import deltachrom.verification as verification

    calls = []
    original = verification.chi_delta

    def counted(g, **kwargs):
        calls.append(g)
        return original(g, **kwargs)

    monkeypatch.setattr(verification, "chi_delta", counted)
    return run_check("degree-diff", opts), calls


class TestDegreeDiff:
    def test_each_graph_pair_is_solved_once(self, monkeypatch):
        rows, calls = counted_degree_diff_solves(monkeypatch, {"max": 12})
        assert len(rows) == 321
        # P1 = K1, P2 = K2 = S1,1 and C3 = K3 are one graph each, and so is
        # every product of them, whichever name each factor has; X(G,P1)
        # and X(P1,G) are G, and G alone is solved with no product built
        assert len(calls) == 70 == len(set(calls))
        assert not [r for r in rows if r.status != "pass"]

    def test_the_default_run_solves_each_distinct_graph_once(self, monkeypatch):
        rows, calls = counted_degree_diff_solves(monkeypatch, {})
        assert len(rows) == 1141 and not [r for r in rows if r.status != "pass"]
        assert len(calls) == 314 == len(set(calls))

    def test_a_square_is_not_its_side(self):
        # the pair (K2, K2) must not share a solve with K2 alone
        rows = run_check("degree-diff", {"max": 4})
        by_pair = {(r.params["G"], r.params["H"]): r for r in rows}
        for pair in (("P2", "K2"), ("K2", "K2"), ("P2", "S1,1")):
            assert by_pair[pair].computed == "2"  # chi_delta(C4)


def degree_diff_rows(monkeypatch, solve_big, max_product=60):
    """degree-diff rows over the cycles C5, C11 and C12 alone, with every
    product of 55 or more vertices solved by ``solve_big(graph)``."""
    import deltachrom.verification as verification
    from deltachrom.families import cycle_spec

    original = verification.chi_delta

    def solve(g, timeout):
        return solve_big(g) if g.n >= 55 else original(g, timeout=timeout)

    monkeypatch.setattr(verification, "degree_diff_universe",
                        lambda max_product: [cycle_spec(n) for n in (5, 11, 12)])
    monkeypatch.setattr(verification, "chi_delta", solve)
    rows = run_check("degree-diff", {"max": max_product})
    return {(r.params["G"], r.params["H"]): r for r in rows}


class TestDegreeDiffBrackets:
    def test_a_cut_short_solve_decides_from_its_bracket(self, monkeypatch):
        # the tori C5 x C11 and C5 x C12 have DSATUR brackets [.., 30] and
        # [.., 32]; chi_delta of C5, C11 and C12 is 3, 6 and 6, so the
        # bounds are 11*3 = 33, 5*6 = 30, 12*3 = 36 and 5*6 = 30
        from deltachrom.chromatic import chi_delta

        by_pair = degree_diff_rows(monkeypatch, lambda g: chi_delta(g, timeout=0.0))
        assert set(by_pair) == {("C5", "C5"), ("C5", "C11"), ("C11", "C5"),
                                ("C5", "C12"), ("C12", "C5")}
        for pair, bound, upper in [(("C5", "C11"), 33, 30), (("C11", "C5"), 30, 30),
                                   (("C5", "C12"), 36, 32)]:
            row = by_pair[pair]
            assert (row.status, row.inexact, row.expected) == ("pass", False, f"<= {bound}")
            assert row.computed.startswith("[") and row.computed.endswith(f",{upper}]")
        row = by_pair[("C12", "C5")]
        assert (row.status, row.inexact) == ("skip", True)
        assert row.computed.startswith("inexact [") and row.computed.endswith(",32]")
        assert by_pair[("C5", "C5")].status == "pass"

    def test_a_bracket_above_the_bound_fails(self, monkeypatch):
        from deltachrom.chromatic import ChromaticResult, Coloring

        def above(g):
            return ChromaticResult(37, 40, Coloring((0,) * g.n, 40), (), "branch-and-bound", 0.0)

        by_pair = degree_diff_rows(monkeypatch, above)
        for pair, bound in [(("C5", "C11"), 33), (("C11", "C5"), 30), (("C5", "C12"), 36),
                            (("C12", "C5"), 30)]:
            row = by_pair[pair]
            assert (row.status, row.inexact) == ("fail", False)
            assert (row.expected, row.computed) == (f"<= {bound}", "[37,40]")


class TestRowStamps:
    def test_every_row_has_its_check_id_and_seconds(self):
        start = time.perf_counter()
        rows = run_check("all", {"trials": 5, "max": 12})
        elapsed = time.perf_counter() - start
        ids = check_ids()
        order = [ids.index(r.check_id) for r in rows]
        assert order == sorted(order)
        assert set(order) == set(range(len(ids)))
        assert all(r.seconds >= 0 for r in rows)
        # a row's seconds run from the previous row, so they never overlap
        assert sum(r.seconds for r in rows) <= elapsed

    def test_seconds_are_the_time_since_the_previous_row(self, monkeypatch):
        import deltachrom.verification as verification

        ticks = iter(range(0, 1000, 10))
        monkeypatch.setattr(verification, "time", SimpleNamespace(perf_counter=lambda: next(ticks)))
        rows = verification.run_check("lemma-ceiling", {"max": 9})
        assert [r.seconds for r in rows] == [10] * len(rows)
