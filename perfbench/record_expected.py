#!/usr/bin/env python3
"""Write perfbench/expected.json: the recorded values the gates compare to.

It records the chi_delta of every graph in the search corpus, the row
and skip counts of every verify check, and the SHA-256 digest of every
export command's output. Run it only on a commit whose outputs are
trusted; every later run is checked against what it wrote:

    python3 perfbench/record_expected.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import ref  # noqa: E402
import workloads  # noqa: E402
from deltachrom import chi_delta, verification  # noqa: E402
from deltachrom.graphs import Graph  # noqa: E402


def main() -> int:
    gnp = []
    for _, n, edges in workloads.gnp_corpus():
        r = chi_delta(Graph(n, edges), timeout=workloads.SOLVE_TIMEOUT)
        d = ref.delta(ref.from_edges(n, edges))
        ref.check_coloring(d, r.witness.colors, r.chi)
        ref.check_clique(d, r.clique)
        gnp.append(r.chi)
    rows = {}
    for cid in verification.check_ids():
        counts = set()
        for seed in (7, 11, 12345):
            result = verification.run_check(cid, {"seed": seed})
            counts.add((len(result), sum(r.status == "skip" for r in result)))
        if len(counts) != 1:
            raise SystemExit(f"{cid}: row counts depend on the seed: {counts}")
        rows[cid] = list(counts.pop())
    inputs = ROOT / ".bench_out" / "inputs"
    workloads.write_graph_files(inputs)
    digests = {}
    for name, argv in workloads.export_commands(inputs):
        code, out, err = workloads.run_cli(argv)
        if code != 0 or err.parts:
            raise SystemExit(f"{name}: exit {code}")
        digests[name] = hashlib.sha256("".join(out.parts).encode()).hexdigest()
    payload = {"gnp_chi": gnp, "verify_rows": rows, "export_sha256": digests}
    (HERE / "expected.json").write_text(json.dumps(payload, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
