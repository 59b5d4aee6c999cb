"""Tests of the benchmark harness itself (not collected by the package's
test run, whose testpaths is tests/):

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import ref  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import Op  # noqa: E402

import deltachrom.chromatic as chromatic  # noqa: E402
import deltachrom.families as families  # noqa: E402
import deltachrom.graphs as graphs  # noqa: E402


def _boom():
    raise RuntimeError("deliberate")


def test_raising_op_counts_as_failed_and_the_run_goes_on():
    ops = [Op("boom", _boom, lambda r: {}), workloads.term_op("C9", 5)]
    record = run.Record()
    run.run_pass(ops, record)
    run.run_pass(ops, record)
    assert record.attempted == 4
    assert record.failures == ["boom: raised RuntimeError: deliberate"] * 2
    assert not record.mismatches


def test_gate_failure_counts_as_failed():
    op = workloads.term_op("C9", 4)  # the true value is 5
    record = run.Record()
    run.run_pass([op], record)
    assert len(record.failures) == 1 and "expected 4" in record.failures[0]


def test_counts_that_change_between_runs_are_a_mismatch():
    calls = []
    op = Op("drift", lambda: None, lambda r: calls.append(1) or {"n": len(calls)})
    record = run.Record()
    run.run_pass([op], record)
    run.run_pass([op], record)
    assert len(record.mismatches) == 1 and not record.failures


def test_host_speed_slices_are_left_out_of_an_op_latency():
    speed = run.HostSpeed()
    op = Op("spin", lambda: sum(range(5_000_000)), lambda r: {})
    with speed.sampling():
        outer = time.perf_counter()
        start, elapsed, counts, error = run.execute(op, speed)
        wall = time.perf_counter() - outer
    inside = speed.spent(start, start + wall)
    assert error is None and counts == {} and inside > 0
    assert elapsed == pytest.approx(wall - inside, abs=0.005)
    assert speed.median(start, start + wall) > 0


def test_reference_rejects_bad_certificates():
    adj = ref.delta(ref.parse("C9"))
    with pytest.raises(ref.GateFailure):
        ref.check_coloring(adj, [0] * 9, 1)
    with pytest.raises(ref.GateFailure):
        ref.check_clique(adj, [0, 1])  # neighbours on C9, so not adjacent in its delta
    ref.check_clique(adj, [0, 2])


def package_graph(term):
    return families.generate(families.parse_spec(term))


@pytest.mark.parametrize("term", ["P7", "C5", "K4", "N3", "W6", "S1,4", "M(3,4)",
                                  "J(K1,C5)", "X(P6,P7)", "X(C3,C3,P2)", "J(M(2,3),W5)"])
def test_reference_builds_the_package_graphs(term):
    g = package_graph(term)
    assert workloads.masks(g) == ref.parse(term)
    assert workloads.masks(graphs.delta_complement(g)) == ref.delta(ref.parse(term))


def test_tracer_nests_spans_and_restores_the_package():
    original = chromatic.chi_delta
    tracer = spans.Tracer()
    with tracer.installed():
        assert chromatic.chi_delta is not original
        chromatic.chi_delta(package_graph("X(C5,P3)"))
    assert chromatic.chi_delta is original
    names = [s[0] for s in tracer.spans]
    top = names.index("chromatic.chi_delta")
    parents = {s[0]: s[3] for s in tracer.spans}
    assert parents["graphs.delta_complement"] == top
    assert names[parents["chromatic.max_clique_lower"]] == "chromatic.chromatic_number"
    assert tracer.counts["chromatic.search_closed"] == 1
    totals = tracer.layer_totals()
    chi = totals["chromatic.chi_delta"]
    assert chi["calls"] == 1 and 0 <= chi["self_ms"] <= chi["ms"]


def test_traced_counts_repeat_for_the_same_ops():
    ops = [workloads.term_op("X(C5,P3)", 6), workloads.term_op("X(S1,3,P4)", 6),
           workloads.construction_op("star_star_coloring", 3, 4, "X(S1,3,S1,4)", 12)]
    record = run.Record()
    tracer = spans.Tracer()
    with tracer.installed():
        for i, op in enumerate(ops):
            run.run_op(i, op, record, tracer, 1)
        first = dict(tracer.counts)
        for i, op in enumerate(ops):
            run.run_op(i, op, record, tracer, 2)
    assert not record.failures and not record.mismatches
    assert {k: 2 * v for k, v in first.items()} == dict(tracer.counts)


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == spans.per_layer_metrics()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "ops_per_s", "op_ms_p50", "op_ms_p90", "peak_rss_mb"}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "search",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
