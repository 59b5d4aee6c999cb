#!/usr/bin/env python3
"""deltachrom benchmark: one workload, in one process with one thread.

    python3 perfbench/run.py --workload search|grid|verify|export \\
        --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the package is imported from its
``src`` directory and from nowhere else. The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

An untraced run (``--trace 0``) reports the end-to-end metrics. It times
nine separate set-ups, each a fresh interpreter that imports deltachrom
and builds the workload's inputs, and reports their median as
``setup_s``. Then it runs the workload's op list once in its seeded
order, in a closed loop, one op at a time, and reruns ops, cheap ones
more often, until the time spent in ops reaches ``--seconds``. Each op's
correctness gate runs outside the timed interval. All along,
``HostSpeed`` samples the host's speed, and every time is scaled to a
reference speed. Throughput and latency percentiles take each op at the
median of its scaled runs.

A traced run (``--trace 1``) runs every op four times: twice untraced
and twice with spans around each layer's public functions. It reports
the per-layer metrics per pass over the op list, the tracing overhead
against the untraced runs, and fails the run when the counts of the two
traced runs of an op differ. It does not use ``--seconds``. It writes
the spans to ``.bench_out/``.

Failed ops count in ``failed`` and never stop the run. Every run writes
its environment and details to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from bisect import bisect_left, bisect_right
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

from spans import Tracer, per_layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 9
# the median slice time of HostSpeed on the host where this benchmark was
# defined (Intel Xeon, 2 vCPUs, Python 3.11); times are scaled to it
REF_SLICE_S = 0.00025
SPEED_MARGIN_S = (0.05, 1.0)
RERUN_ROUNDS = 8


def import_program() -> None:
    """Put the checkout's src/ first on the path; fail when it is missing."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import deltachrom
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import deltachrom from {src}: {exc}")
    if Path(deltachrom.__file__).resolve().parent != src / "deltachrom":
        raise SystemExit(f"perfbench: deltachrom imported from {deltachrom.__file__}, not {src}")


# --- environment ---------------------------------------------------------------


def _git(*args: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


class HostSpeed:
    """Samples how fast the host runs this process, all through the run.

    A timer signal fires every PERIOD_S seconds, also in the middle of an
    op, and times one fixed slice of pure-Python work of the package's
    kind: shifts and masks of a 1600-bit int, popcounts, dict and list
    traffic. The median slice time over a stretch of the run is the
    host's speed then. ``execute`` takes the slices that ran inside an op
    out of its latency.
    """

    PERIOD_S = 0.02
    STEPS = 240
    MASK = (1 << 1600) // 3

    def __init__(self) -> None:
        self.at: list[float] = []
        self.took: list[float] = []

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        mask, table, ones = self.MASK, {}, 0
        for i in range(self.STEPS):
            word = (mask >> (i & 1023)) & 0xFFFFFFFF
            table[i & 255] = word
            ones += bin(word).count("1")
            mask ^= 1 << (i & 1023)
        sorted(table.values())
        self.at.append(start)
        self.took.append(time.perf_counter() - start)

    @contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def _between(self, start: float, end: float) -> list[float]:
        return self.took[bisect_left(self.at, start):bisect_right(self.at, end)]

    def median(self, start: float = -math.inf, end: float = math.inf) -> float:
        """Median slice time over the samples taken from start to end, or
        over the whole run when there are none."""
        return statistics.median(self._between(start, end) or self.took)

    def spent(self, start: float, end: float) -> float:
        """Seconds spent in the slices taken from start to end."""
        return sum(self._between(start, end))


def environment(args: argparse.Namespace) -> dict:
    sources = sorted((ROOT / "src" / "deltachrom").glob("*.py"))
    digest = hashlib.sha256(b"".join(p.name.encode() + p.read_bytes() for p in sources))
    dirty = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "git_commit": _git("rev-parse", "HEAD"),
        "git_dirty": None if dirty is None else bool(dirty),
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "load1_start": os.getloadavg()[0],
    }


# --- running ops ---------------------------------------------------------------


def execute(op, speed: HostSpeed | None = None) -> tuple[float, float, dict | None, str | None]:
    """Time one op, then gate it. Returns (start, seconds, counts, error);
    the seconds leave out time spent sampling the host's speed."""
    start = time.perf_counter()
    try:
        result = op.run()
    except Exception as exc:  # a raising op is a failed op; the run goes on
        result, error = None, f"raised {type(exc).__name__}: {exc}"
    else:
        error = None
    end = time.perf_counter()
    elapsed = end - start - (speed.spent(start, end) if speed else 0.0)
    if error is not None:
        return start, elapsed, None, error
    try:
        return start, elapsed, op.check(result), None
    except Exception as exc:  # a gate failure, or a result too malformed to gate
        return start, elapsed, None, f"{type(exc).__name__}: {exc}"


class Record:
    """Each op's latencies, the failures, and the counts each op produced
    the first time."""

    def __init__(self) -> None:
        self.times: dict[int, list[float]] = {}
        self.starts: dict[int, list[float]] = {}
        self.failures: list[str] = []
        self.mismatches: list[str] = []
        self._counts: dict = {}

    @property
    def attempted(self) -> int:
        return sum(len(t) for t in self.times.values())

    def add(self, i: int, op, start: float, elapsed: float, error: str | None) -> None:
        self.starts.setdefault(i, []).append(start)
        self.times.setdefault(i, []).append(elapsed)
        if error is not None:
            self.failures.append(f"{op.name}: {error}")

    def compare(self, key, op, counts: dict) -> None:
        """Counts must repeat exactly every time the same op runs."""
        first = self._counts.setdefault(key, counts)
        if first != counts:
            self.mismatches.append(f"{op.name}: counts {counts}, earlier {first}")


def run_op(i: int, op, record: Record, tracer=None, round_no: int = 0,
           speed: HostSpeed | None = None) -> float:
    """Run op number i once, with spans when a tracer is given; return its seconds."""
    if tracer is not None:
        tracer.op_id = f"{round_no}.{i}"
        before = Counter(tracer.counts)
    start, elapsed, counts, error = execute(op, speed)
    record.add(i, op, start, elapsed, error)
    if error is None:
        record.compare(("result", i), op, counts)
        if tracer is not None:
            tracer.counts["cli.stdout_bytes"] += counts.get("cli.stdout_bytes", 0)
            record.compare(("trace", i), op, dict(tracer.counts - before))
    return elapsed


def run_pass(ops, record: Record, speed: HostSpeed | None = None) -> float:
    """Run every op once; return the seconds spent inside ops."""
    return sum(run_op(i, op, record, speed=speed) for i, op in enumerate(ops))


def setup_times(args: argparse.Namespace) -> list[float]:
    """Wall time from launching a fresh interpreter to its inputs being ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - start)
        if proc.returncode != 0 or line.strip() != b"ready":
            raise SystemExit(f"perfbench: set-up probe exited {proc.returncode}")
    return times


def end_to_end(args, ops, record: Record) -> tuple[dict, dict]:
    setups = setup_times(args)
    speed = HostSpeed()
    with speed.sampling():
        timed = run_pass(ops, record, speed)
        # Then rerun ops until --seconds is spent, in rounds that each raise
        # a level: every op whose runs so far add up to less than the level
        # times the square root of its first time runs again. An op's runs
        # are spread over the whole run, so the host's speed swings, which
        # last about a second, weigh less in its median; a 4 ms op gets about
        # seven times as many runs as a 200 ms one, and both get several.
        weight = [math.sqrt(record.times[i][0]) for i in range(len(ops))]
        spent = [record.times[i][0] for i in range(len(ops))]
        step = max(args.seconds - timed, 0.0) / sum(weight) / RERUN_ROUNDS
        level = 0.0
        while timed < args.seconds:
            level += step
            for i in range(len(ops)):
                if spent[i] < level * weight[i]:
                    elapsed = run_op(i, ops[i], record, speed=speed)
                    spent[i] += elapsed
                    timed += elapsed
                    if timed >= args.seconds:
                        break

    # The host's speed swings by up to 40% for stretches of a tenth of a
    # second to hours. Each run of an op is scaled to REF_SLICE_S by the
    # median slice time during the run and around it, over a margin of
    # three times its length (SPEED_MARGIN_S at least and at most); set-up
    # is scaled by the median of the whole run.
    def at_ref_speed(i: int) -> float:
        scaled = []
        for start, elapsed in zip(record.starts[i], record.times[i]):
            margin = min(max(3 * elapsed, SPEED_MARGIN_S[0]), SPEED_MARGIN_S[1])
            scaled.append(elapsed * REF_SLICE_S / speed.median(start - margin, start + elapsed + margin))
        return statistics.median(scaled)

    typical = [at_ref_speed(i) for i in range(len(ops))]
    metrics = {
        "setup_s": (statistics.median(setups) * REF_SLICE_S / speed.median(), "s"),
        "ops_per_s": (len(typical) / sum(typical), "1/s"),
        "op_ms_p50": (statistics.median(typical) * 1000, "ms"),
        "op_ms_p90": (statistics.quantiles(typical, n=10)[8] * 1000, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    raw = [statistics.median(record.times[i]) for i in range(len(ops))]
    detail = {"setup_probes_s": setups, "passes": record.attempted / len(ops), "timed_s": timed,
              "samples": len(typical),
              "failed_frac": len(record.failures) / record.attempted,
              "slice_ms_median": speed.median() * 1000, "slices": len(speed.took),
              "unscaled": {"setup_s": statistics.median(setups),
                           "ops_per_s": len(raw) / sum(raw),
                           "op_ms_p50": statistics.median(raw) * 1000,
                           "op_ms_p90": statistics.quantiles(raw, n=10)[8] * 1000},
              "runs": [[ops[i].name, record.starts[i], record.times[i]] for i in range(len(ops))],
              "speed": [speed.at, speed.took]}
    return metrics, detail


def per_layer(args, ops, record: Record) -> tuple[dict, dict]:
    tracer = Tracer()
    untraced = traced = 0.0
    # two rounds; each op runs untraced and traced back to back, in
    # alternating order, so the host's speed swings cancel in the overhead
    for round_no in (1, 2):
        for i, op in enumerate(ops):
            for with_spans in (False, True) if round_no == 1 else (True, False):
                if with_spans:
                    with tracer.installed():
                        traced += run_op(i, op, record, tracer, round_no)
                else:
                    untraced += run_op(i, op, record)
    tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    totals = tracer.layer_totals()
    metrics = {}
    for name, unit in per_layer_metrics():
        span, _, field = name.rpartition(".")
        if name == "trace.overhead_pct":
            value = (traced / untraced - 1) * 100
        elif span in totals and field in ("calls", "ms", "self_ms"):
            value = totals[span][field] / 2
        else:
            value = tracer.counts[name] / 2
        metrics[name] = (value, unit)
    detail = {"untraced_s": untraced, "traced_s": traced, "spans": len(tracer.spans)}
    return metrics, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("search", "grid", "verify", "export"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_program()
    import workloads

    OUT.mkdir(exist_ok=True)
    ops = workloads.build(args.workload, args.seed, OUT / "inputs")
    if args.setup_probe:
        print("ready", flush=True)
        return 0
    env = environment(args)
    record = Record()
    measure = per_layer if args.trace else end_to_end
    metrics, detail = measure(args, ops, record)
    env["load1_end"] = os.getloadavg()[0]

    result = {
        "correct": not record.failures and not record.mismatches,
        "attempted": record.attempted,
        "failed": len(record.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    report = {"env": env, **detail, "ops_per_pass": len(ops), "failures": record.failures[:50],
              "mismatches": record.mismatches[:50], **result}
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    for line in record.failures[:10] + record.mismatches[:10]:
        print(f"perfbench: {line}", file=sys.stderr)
    print("env " + json.dumps(env))
    samples = f", {detail['samples']} latency samples" if "samples" in detail else ""
    print(f"{args.workload}: {record.attempted} ops timed, {len(ops)} per pass{samples}, "
          f"{len(record.failures)} failed, {len(record.mismatches)} count mismatches; "
          f"details in {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
