#!/usr/bin/env python3
"""Time the exact solver on the named product instances.

Reports value, closing method (sandwich vs search) and wall time for
each, which is handy when tuning the clique budget or the search.

Usage:
    python scripts/benchmark_solver.py [--timeout SECONDS]
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from deltachrom import chi_delta
from deltachrom.families import generate, parse_spec

INSTANCES = [
    "C9",
    "P14",
    "W9",
    "X(C5,P3)",
    "X(C7,P3)",
    "X(C9,P3)",
    "X(C10,P3)",
    "X(S1,3,S1,3)",
    "X(S1,4,S1,5)",
    "X(S1,3,P4)",
    "X(K5,K6)",
    "X(C5,C6)",
]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--timeout", type=float, default=60.0)
    args = parser.parse_args()

    print(f"{'instance':<16} {'n':>4} {'chi_delta':>9} {'clique':>6} {'method':>16} {'ms':>8}")
    for term in INSTANCES:
        g = generate(parse_spec(term))
        t0 = time.perf_counter()
        result = chi_delta(g, timeout=args.timeout)
        ms = (time.perf_counter() - t0) * 1000
        value = result.chi if result.exact else f"[{result.lower},{result.upper}]"
        print(
            f"{term:<16} {g.n:>4} {value!s:>9} {result.clique_lower:>6} "
            f"{result.method:>16} {ms:>8.1f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
