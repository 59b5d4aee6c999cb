import json
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest

import deltachrom.cli as cli
from deltachrom import Coloring, extra_edge_set, generate, parse_spec
from deltachrom.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestExport:
    def test_json_bytes(self, capsys):
        code, out = run(capsys, "export", "P3", "--fmt", "json")
        assert code == 0
        assert out == '{"n":3,"edges":[[0,1],[1,2]]}\n'

    def test_product_dot(self, capsys):
        code, out = run(capsys, "export", "X(P2,P2)", "--fmt", "dot")
        assert code == 0
        assert out.count(" -- ") == 4
        assert out.startswith("graph {")

    def test_delta_star(self, capsys):
        code, out = run(capsys, "export", "S1,3", "--delta", "--fmt", "json")
        assert code == 0
        assert json.loads(out) == {
            "n": 4,
            "edges": [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]],
        }

    def test_round_trip_through_file(self, capsys, tmp_path):
        code, out = run(capsys, "export", "W5", "--fmt", "json")
        path = tmp_path / "wheel.json"
        path.write_text(out.strip())
        code2, out2 = run(capsys, "export", f"@{path}", "--fmt", "json")
        assert code2 == 0
        assert out2 == out

    def test_byte_identical_reruns(self, capsys):
        _, first = run(capsys, "export", "X(P3,C4)", "--fmt", "json")
        _, second = run(capsys, "export", "X(P3,C4)", "--fmt", "json")
        assert first == second

    def test_parse_failure_is_usage_error(self, capsys):
        code, _ = run(capsys, "export", "Q9")
        assert code == 2

    def test_one_based_json_is_usage_error(self, capsys):
        # @file.json reads the JSON format back 0-based, so it has no
        # 1-based form
        code = main(["export", "P3", "--one-based"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "--one-based applies to DOT only" in captured.err

    @pytest.mark.parametrize("text", [
        '{"n": 2.7, "edges": []}',
        '{"n": true, "edges": []}',
        '{"n": -1, "edges": []}',
        '{"n": "3", "edges": []}',
        '{"n": 3, "edges": 5}',
        '{"n": 3, "edges": [[0, 1.5]]}',
        '{"n": 3, "edges": [["0", 1]]}',
        '{"n": 3, "edges": [null]}',
        '{"n": 3, "edges": [[0, 1, 2]]}',
        '{"n": 3, "edges": [[true, 1]]}',
        '{"n": 3, "edges": {"0": 1}}',
    ])
    def test_malformed_graph_file_is_usage_error(self, capsys, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code = main(["export", f"@{path}"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: graph JSON ")

    def test_deeply_nested_graph_file_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text('{"n":1,"edges":' + "[" * 100_000 + "]" * 100_000 + "}")
        code = main(["chi-delta", f"@{path}"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: graph JSON is nested too deeply\n"

    def test_directory_graph_file_is_usage_error(self, capsys, tmp_path):
        code = main(["export", f"@{tmp_path}"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: [Errno 21] Is a directory")

    def test_unreadable_graph_file_is_usage_error(self, capsys, monkeypatch, tmp_path):
        # permission bits do not stop a superuser, so the refusal is raised
        # where the file is read
        def refuse(path, *args, **kwargs):
            raise PermissionError(13, "Permission denied", str(path))

        monkeypatch.setattr(Path, "read_text", refuse)
        code = main(["export", f"@{tmp_path / 'locked.json'}"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: [Errno 13] Permission denied")

    def test_closed_reader_is_not_a_usage_error(self, monkeypatch):
        # entry() turns the error into exit 141; main must not swallow it
        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                pass

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        with pytest.raises(BrokenPipeError):
            main(["export", "X(P4,P4)", "--delta"])

    @pytest.mark.parametrize("argv", [("export", "P200000"), ("export", "K200000", "--delta"),
                                      ("chi-delta", "M(500,500)")])
    def test_term_over_the_vertex_budget_is_usage_error(self, capsys, argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 2
        assert "over the 10000 budget" in captured.err


class TestChiDelta:
    def test_cycle_agreement(self, capsys):
        code, out = run(capsys, "chi-delta", "C9")
        assert code == 0
        assert "formula: 5" in out
        assert "solver: 5" in out
        assert "agreement: ok" in out

    def test_star_path_product(self, capsys):
        code, out = run(capsys, "chi-delta", "X(S1,3,P3)", "--fmt", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["formula"] == 6
        assert payload["solver"]["chi"] == 6
        assert payload["agree"] is True

    def test_one_based_json_witness(self, capsys):
        _, zero = run(capsys, "chi-delta", "C7", "--fmt", "json")
        code, one = run(capsys, "chi-delta", "C7", "--fmt", "json", "--one-based")
        zero, one = json.loads(zero), json.loads(one)
        assert code == 0
        assert one["solver"]["witness"] == [c + 1 for c in zero["solver"]["witness"]]
        del zero["solver"]["witness"], one["solver"]["witness"]
        del zero["solver"]["ms"], one["solver"]["ms"]
        assert one == zero

    def test_single_vertex(self, capsys):
        code, out = run(capsys, "chi-delta", "K1", "--fmt", "json")
        assert code == 0
        assert json.loads(out)["solver"]["chi"] == 1

    def test_verify_all_expired_deadline(self, capsys):
        # every row whose solve was cut short is a skip, and the exit code
        # says the run was inexact; no check may raise or report a failure
        code, out = run(capsys, "verify", "all", "--timeout", "0")
        assert code == 3
        assert " 0 failed" in out.splitlines()[-1]
        assert "computed=inexact [" in out

    def test_timeout_exit_code(self, capsys):
        # the clique bound cannot close this instance, so the search
        # phase must run and immediately hit the expired deadline
        code, out = run(capsys, "chi-delta", "X(C9,P3)", "--timeout", "0.0")
        assert code == 3
        assert "inexact" in out

    def test_the_vertex_limit_closes_on_a_greedy_clique(self, capsys):
        # 10 000 vertices: DSATUR's 2304 colours meet the greedy clique,
        # so no clique search runs and the solve is exact inside a second
        code, out = run(capsys, "chi-delta", "X(K4,P50,P50)", "--timeout", "1", "--fmt", "json")
        solver = json.loads(out)["solver"]
        assert code == 0 and solver["exact"] and solver["chi"] == 2304
        assert solver["method"] == "sandwich"

    def test_cut_short_bracket_starts_at_one(self, capsys, monkeypatch):
        # any one vertex is a clique, even when the clique search stopped
        # at its root node
        monkeypatch.setenv("DELTACHROM_TIMEOUT", "0")
        code, out = run(capsys, "chi-delta", "X(C5,C7)", "--fmt", "json")
        solver = json.loads(out)["solver"]
        assert code == 3 and not solver["exact"]
        assert 1 <= solver["lower"] <= 18 <= solver["upper"]


class TestStructure:
    def test_square_counts(self, capsys):
        code, out = run(capsys, "structure", "P2", "P2", "--emit-s")
        assert code == 0
        assert "|S|                    = 2" in out
        assert "equality: False" in out
        assert "[[0,3],[1,2]]" in out

    def test_identity_factor(self, capsys):
        code, out = run(capsys, "structure", "K1", "C7")
        assert code == 0
        assert "|S|                    = 0" in out
        assert "equality: True" in out

    @pytest.mark.parametrize("terms", [("K1", "C9"), ("P2", "P2"), ("C5", "C6"),
                                       ("S1,4", "S1,6"), ("P5", "P6", "P7"), ("P12", "P15")])
    def test_emit_s_bytes(self, capsys, terms):
        code, out = run(capsys, "structure", *terms, "--emit-s")
        assert code == 0
        s = extra_edge_set([generate(parse_spec(t)) for t in terms])
        assert f"|S|                    = {len(s)}\n" in out
        assert out.splitlines()[-1] == json.dumps([list(e) for e in s], separators=(",", ":"))


    @pytest.mark.parametrize("flags,message", [
        ((), "over the 10000 budget"),
        (("--max-vertices", "20000"), "unrecognized arguments: --max-vertices"),
    ])
    def test_product_over_the_vertex_budget_is_usage_error(self, capsys, flags, message):
        # the 10 000-vertex limit is the only one; no flag raises it
        code = main(["structure", "P100", "P101", *flags])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert message in captured.err


class TestConstruct:
    def test_star_star_check(self, capsys):
        code, out = run(capsys, "construct", "star-star", "3", "3", "--check")
        assert code == 0
        payload = json.loads(out)
        assert payload["check"] == "pass"
        assert payload["colors_used"] == 9

    def test_path_path_check(self, capsys):
        code, out = run(capsys, "construct", "path-path", "6", "7", "--check")
        assert code == 0
        assert json.loads(out)["colors_used"] == 10

    def test_join_p3_from_term(self, capsys):
        # proper, with no clique to bound it from below
        code, out = run(capsys, "construct", "join-p3", "C5", "--check")
        assert code == 0
        assert json.loads(out)["check"] == "proper, unbounded"

    def test_degree_diff_from_terms(self, capsys):
        code, out = run(capsys, "construct", "degree-diff", "C5", "P3", "--check")
        assert code == 0
        assert json.loads(out)["check"] == "proper, unbounded"

    def test_an_unbounded_coloring_does_not_pass(self, capsys):
        # 21 colours where chi-delta of C5 x C7 is 18: proper, but no clique
        # certifies it
        code, out = run(capsys, "construct", "degree-diff", "C5", "C7", "--check")
        payload = json.loads(out)
        assert code == 0 and payload["clique"] == []
        assert (payload["colors_used"], payload["check"]) == (21, "proper, unbounded")
        _, out = run(capsys, "construct", "star-path", "3", "5", "--check")
        assert json.loads(out)["check"] == "pass"

    def test_one_based_json_shifts_colors_and_clique(self, capsys):
        _, zero = run(capsys, "construct", "star-path", "3", "5")
        code, one = run(capsys, "construct", "star-path", "3", "5", "--one-based")
        zero, one = json.loads(zero), json.loads(one)
        assert code == 0 and zero["clique"]
        assert one["colors"] == [c + 1 for c in zero["colors"]]
        assert one["clique"] == [v + 1 for v in zero["clique"]]

    @pytest.mark.parametrize("argv,message", [
        (("star-star", "3"), "construct star-star takes 2 parameters, got 1"),
        (("path-path", "6", "7", "8"), "construct path-path takes 2 parameters, got 3"),
        (("join-p3", "C5", "C7"), "construct join-p3 takes 1 parameter, got 2"),
    ])
    def test_wrong_parameter_count_is_usage_error(self, capsys, argv, message):
        code = main(["construct", *argv])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_dot_output_carries_colors(self, capsys):
        code, out = run(capsys, "construct", "star-star", "3", "3", "--fmt", "dot")
        assert code == 0
        assert "[color=" in out

    def test_failed_certificate_exits_one(self, capsys, monkeypatch):
        original = cli.star_star_coloring

        def broken(m, n):
            r = original(m, n)
            return replace(r, coloring=Coloring((0,) * r.graph.n, 1))

        monkeypatch.setattr(cli, "star_star_coloring", broken)
        code, out = run(capsys, "construct", "star-star", "3", "3", "--check")
        assert code == 1 and json.loads(out)["check"] == "fail"

    def test_hypothesis_violation_is_usage_error(self, capsys):
        code, _ = run(capsys, "construct", "degree-diff", "P4", "P4")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ("join-p3", "X(C5,C7)", "--check"),
        ("degree-diff", "X(C5,C7)", "P3", "--check"),
    ])
    def test_expired_env_deadline_builds_nothing(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("DELTACHROM_TIMEOUT", "0")
        assert main(["construct", *argv]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "X(C5,C7)" in captured.err and "inexact, bracket [" in captured.err

    def test_timeout_flag_overrides_env(self, capsys, monkeypatch):
        code, out = run(capsys, "construct", "join-p3", "X(C5,C7)", "--timeout", "0")
        assert code == 3 and out == ""
        monkeypatch.setenv("DELTACHROM_TIMEOUT", "0")
        code, out = run(capsys, "construct", "join-p3", "C5", "--timeout", "60", "--check")
        assert code == 0 and json.loads(out)["check"] == "proper, unbounded"


class TestVerify:
    def test_lemma_ceiling(self, capsys):
        code, out = run(capsys, "verify", "lemma-ceiling", "--max", "20")
        assert code == 0
        assert "0 failed" in out

    def test_structure_seeded(self, capsys):
        code, out = run(capsys, "verify", "structure", "--trials", "10", "--seed", "7")
        assert code == 0
        assert "0 failed" in out

    def test_path_path_ranges(self, capsys):
        code, out = run(capsys, "verify", "path-path", "--n", "6..7", "--k", "6..9")
        assert code == 0
        assert "0 failed" in out

    def test_cycle_formula_skips_triangle(self, capsys):
        code, out = run(capsys, "verify", "cycle-formula", "--n", "3..5")
        assert code == 0
        assert "SKIP" in out

    def test_csv_format(self, capsys):
        code, out = run(capsys, "verify", "lemma-ceiling", "--max", "10", "--fmt", "csv")
        assert code == 0
        header, *rows = out.strip().splitlines()
        assert header == "check_id,params,expected,computed,status,seconds"
        assert all(r.startswith("lemma-ceiling,") for r in rows)

    def test_cycle_p3_below_the_table_is_skipped(self, capsys):
        code, out = run(capsys, "verify", "cycle-p3", "--n", "3..4")
        assert code == 0
        assert out.splitlines() == [
            'SKIP cycle-p3 {"n":3} expected=formula n/a (n < 5) computed=chi=3 omega=3',
            'SKIP cycle-p3 {"n":4} expected=formula n/a (n < 5) computed=chi=4 omega=4',
            "-- 0 passed, 0 failed, 2 skipped",
        ]

    @pytest.mark.parametrize("flag,skipped", [("--n", 18), ("--m", 11)])
    def test_widened_ranges_skip_outside_the_table(self, capsys, flag, skipped):
        value = {"--n": "3..9", "--m": "2..4"}[flag]
        code, out = run(capsys, "verify", "all", flag, value)
        assert code == 0
        assert not [line for line in out.splitlines() if line.startswith("FAIL")]
        assert out.splitlines()[-1].endswith(f" 0 failed, {skipped} skipped")

    @pytest.mark.parametrize("argv,message", [
        (("path-path", "--k", "3..5"), "verify path-path yields no row"),
        (("cycle-p3", "--n", "9..3"), "empty range 9..3"),
        (("all", "--m", "5..4"), "empty range 5..4"),
        # the rule holds for each check under all, not for the run as a whole
        (("all", "--k", "3..5"), "verify path-path yields no row"),
        (("all", "--max", "5"), "verify lemma-ceiling yields no row"),
        (("structure", "--trials", "-3"), "--trials must be at least 1, got -3"),
        (("equality", "--trials", "0"), "--trials must be at least 1, got 0"),
        (("structure", "--trials", "0"), "--trials must be at least 1, got 0"),
    ])
    def test_range_that_selects_nothing_is_usage_error(self, capsys, argv, message):
        code = main(["verify", *argv])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: ") and message in captured.err

    def test_unknown_check_is_usage_error(self, capsys):
        code, _ = run(capsys, "verify", "does-not-exist")
        assert code == 2

    def test_deterministic_given_seed(self, capsys):
        args = ("verify", "structure", "--trials", "5", "--seed", "11", "--fmt", "csv")
        _, first = run(capsys, *args)
        _, second = run(capsys, *args)
        # timing column varies; compare everything else
        strip = lambda text: [",".join(line.split(",")[:-1]) for line in text.splitlines()]
        assert strip(first) == strip(second)


class TestUsage:
    def test_no_arguments(self, capsys):
        assert main([]) == 2

    def test_timeout_env_set_after_import(self, capsys, monkeypatch):
        # the parser is built once, so the variable must be read per command
        run(capsys, "export", "P3")
        monkeypatch.setenv("DELTACHROM_TIMEOUT", "0")
        code, out = run(capsys, "chi-delta", "X(C9,P3)")
        assert code == 3 and "inexact" in out
        code, out = run(capsys, "chi-delta", "X(C9,P3)", "--timeout", "60")
        assert code == 0 and "solver: 10" in out
        monkeypatch.setenv("DELTACHROM_TIMEOUT", "60")
        code, out = run(capsys, "chi-delta", "X(C9,P3)")
        assert code == 0 and "solver: 10" in out

    def test_bad_timeout_env_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("DELTACHROM_TIMEOUT", "soon")
        assert main(["chi-delta", "C5"]) == 2

    def test_nan_timeout_flag_is_usage_error(self, capsys):
        # no deadline comparison with NaN is ever true, so it would never stop
        assert main(["chi-delta", "X(C7,C9)", "--timeout", "nan"]) == 2
        assert capsys.readouterr().err == "error: timeout must be a number of seconds, got nan\n"

    def test_nan_timeout_env_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("DELTACHROM_TIMEOUT", "nan")
        assert main(["chi-delta", "X(C7,C9)"]) == 2
        assert capsys.readouterr().err.startswith("error: timeout must be a number")

    @pytest.mark.parametrize("argv,env", [
        (("verify", "structure", "--trials", "2", "--timeout", "nan"), None),
        (("verify", "lemma-ceiling", "--max", "9", "--timeout", "nan"), None),
        (("construct", "star-star", "3", "3", "--timeout", "nan"), None),
        (("verify", "equality", "--trials", "1"), "nan"),
    ])
    def test_nan_timeout_is_refused_where_no_solve_runs(self, capsys, monkeypatch, argv, env):
        # these commands run no solve, so the library's own NaN check never sees it
        if env:
            monkeypatch.setenv("DELTACHROM_TIMEOUT", env)
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: timeout must be a number of seconds, got nan\n"

    @pytest.mark.parametrize("term", [
        "X(" * 1000 + "P1" + ",P1)" * 1000,
        "J(K1," * 1000 + "K1" + ")" * 1000,
    ])
    def test_deeply_nested_term_is_usage_error(self, capsys, term):
        assert main(["chi-delta", term]) == 2
        assert capsys.readouterr().err == "error: family term nests deeper than 100 levels\n"

    def test_calls_do_not_share_arguments(self, capsys):
        code, out = run(capsys, "export", "P3", "--delta", "--fmt", "dot", "--one-based")
        assert code == 0 and out.startswith("graph {")
        code, out = run(capsys, "export", "P3")
        assert code == 0 and out == '{"n":3,"edges":[[0,1],[1,2]]}\n'
        code, out = run(capsys, "verify", "path-path", "--n", "6..6", "--k", "6..6", "--fmt", "csv")
        assert code == 0 and out.count("\n") == 2

    def test_unknown_flag_rejected(self, capsys):
        assert main(["export", "P3", "--frobnicate"]) == 2


class ByteCounter:
    """Stands in for stdout with only ``write`` and ``flush``, and keeps the
    size of what is written rather than the text."""

    def __init__(self):
        self.size = 0

    def write(self, text):
        self.size += len(text)
        return len(text)

    def flush(self):
        pass


class TestStreamedOutput:
    @pytest.mark.parametrize("argv", [
        ("export", "X(P40,P40)", "--delta"),
        ("export", "X(P40,P40)", "--delta", "--fmt", "dot"),
        ("structure", "P30", "P30", "--emit-s"),
        ("construct", "path-path", "30", "30", "--fmt", "dot"),
    ])
    def test_peak_memory_is_a_small_share_of_the_text(self, monkeypatch, argv):
        # texts of 2.7 to 14.7 MB: writing any of them whole, or handing all
        # of its rows to one call, holds more than a quarter of it at once
        out = ByteCounter()
        monkeypatch.setattr(sys, "stdout", out)
        cli._parser()
        tracemalloc.start()
        try:
            code = main(list(argv))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert out.size > 2_000_000
        assert peak < out.size / 4


class TestClosedPipe:
    def test_reader_closing_stdout_exits_141_quietly(self):
        # verify all writes about 150 KB, more than the pipe holds, so the
        # program is still writing when the reader goes away
        proc = subprocess.Popen(
            [sys.executable, "-m", "deltachrom.cli", "verify", "all"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=SRC,
        )
        assert proc.stdout.readline().startswith(b"PASS ")
        proc.stdout.close()
        stderr = proc.stderr.read()
        assert proc.wait(timeout=300) == 141
        assert stderr == b""

    def test_reader_closing_a_streamed_export_exits_141_quietly(self):
        # the 10.7 MB text is written a row at a time, so the error comes
        # from inside the command, not from the flush at exit
        proc = subprocess.Popen(
            [sys.executable, "-m", "deltachrom.cli", "export", "X(P40,P40)", "--delta"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=SRC,
        )
        assert proc.stdout.read(16) == b'{"n":1600,"edges'
        proc.stdout.close()
        stderr = proc.stderr.read()
        assert proc.wait(timeout=300) == 141
        assert stderr == b""
