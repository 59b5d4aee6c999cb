"""Spans around the public calls of each deltachrom layer, from outside.

``Tracer.installed()`` replaces each traced function in every
``deltachrom.*`` namespace that binds it with one timing wrapper, and
puts the originals back on exit. The package calls its own layers
through those module globals, so spans nest: ``delta_complement`` and
``max_clique_lower`` appear as children of ``chi_delta`` and
``chromatic_number``. Spans and counts stay in memory until the run
writes them out.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from functools import wraps
from time import perf_counter

# module -> public functions whose spans the benchmark reports
TRACED = {
    "chromatic": ["chi_delta", "chromatic_number", "max_clique_lower",
                  "dsatur_upper", "is_proper", "oracle_chromatic"],
    "graphs": ["cartesian_product", "delta_complement", "to_json", "to_dot", "from_json"],
    "structure": ["extra_edge_set", "delta_of_product"],
    "families": ["parse_spec", "generate", "join", "disjoint_union"],
    "constructions": ["star_star_coloring", "star_path_coloring", "path_path_coloring",
                      "join_p3_coloring", "degree_diff_product_coloring"],
    "bounds": ["formula_chi_delta", "upper_degree_diff_check"],
    "verification": ["run_check"],
    "cli": ["main"],
}

# the verify registry at the commit that defined this benchmark; each id
# gets its own run_check span, so the per-layer metric names stay fixed
CHECK_IDS = ["path-formula", "cycle-formula", "wheel-formula", "structure", "equality",
             "cycle-p3", "star-star", "star-path", "path-path", "lemma-ceiling", "ng",
             "sabidussi", "oracle", "degree-diff"]

COUNTS = ["chromatic.sandwich_closed", "chromatic.search_closed", "chromatic.inexact",
          "chromatic.clique_incomplete", "chromatic.k_refuted", "graphs.export_bytes",
          "structure.extra_edges", "cli.stdout_bytes"]


def span_names() -> list[str]:
    names = [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns if fn != "run_check"]
    return names + [f"verification.run_check.{cid}" for cid in CHECK_IDS]


def per_layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric a traced run reports."""
    out = []
    for name in span_names():
        if name.startswith("verification."):
            out += [(f"{name}.ms", "ms"), (f"{name}.rows", "count")]
        else:
            out += [(f"{name}.calls", "count"), (f"{name}.ms", "ms"), (f"{name}.self_ms", "ms")]
    out += [(c, "bytes" if c.endswith("bytes") else "count") for c in COUNTS]
    return out + [("trace.overhead_pct", "%")]


def _count_result(counts: Counter, name: str, result) -> None:
    if name == "chromatic.chromatic_number":
        if not result.exact:
            counts["chromatic.inexact"] += 1
        elif result.method == "sandwich":
            counts["chromatic.sandwich_closed"] += 1
        else:
            counts["chromatic.search_closed"] += 1
            counts["chromatic.k_refuted"] += result.chi - result.clique_lower
    elif name == "chromatic.max_clique_lower" and not result.complete:
        counts["chromatic.clique_incomplete"] += 1
    elif name in ("graphs.to_json", "graphs.to_dot"):
        counts["graphs.export_bytes"] += len(result)
    elif name == "structure.extra_edge_set":
        counts["structure.extra_edges"] += len(result)
    elif name.startswith("verification.run_check."):
        counts[name + ".rows"] += len(result)


class Tracer:
    """Collects spans [name, start, end, parent index, op id] and counts."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.outermost: list[bool] = []
        self.counts: Counter = Counter()
        self.op_id = -1
        self._stack: list[int] = []
        self._depth: Counter = Counter()

    def _wrap(self, name: str, fn):
        @wraps(fn)
        def traced(*args, **kwargs):
            if name == "verification.run_check":
                full = f"{name}.{args[0] if args else kwargs['check_id']}"
            else:
                full = name
            idx = len(self.spans)
            self.spans.append([full, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op_id])
            self.outermost.append(self._depth[full] == 0)
            self._stack.append(idx)
            self._depth[full] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self._depth[full] -= 1
                self.spans[idx][1:3] = start, end
            _count_result(self.counts, full, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        wrappers = {}
        for mod, fns in TRACED.items():
            module = importlib.import_module(f"deltachrom.{mod}")
            for fn in fns:
                original = getattr(module, fn)
                wrappers[id(original)] = (original, self._wrap(f"{mod}.{fn}", original))
        patched = []
        for modname, module in list(sys.modules.items()):
            if modname != "deltachrom" and not modname.startswith("deltachrom."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    patched.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)][1])
        try:
            yield self
        finally:
            for module, attr, value in patched:
                setattr(module, attr, value)

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """calls, inclusive ms (outermost spans of a name only, so a
        recursive call is not counted twice) and self ms per span name."""
        child_s = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        totals: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "ms": 0.0, "self_ms": 0.0})
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            t = totals[name]
            t["calls"] += 1
            if self.outermost[idx]:
                t["ms"] += (end - start) * 1000
            t["self_ms"] += (end - start - child_s[idx]) * 1000
        return totals

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, round(start, 7), round(end, 7), parent, op]) + "\n")
