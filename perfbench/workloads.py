"""The four workloads, each a seeded list of ops.

An op is one timed call into deltachrom plus a gate that runs after the
clock stops. The gate checks the output against the reference code in
``ref.py`` and against values fixed in advance (closed forms, or values
and SHA-256 digests recorded when this benchmark was defined, kept in
``expected.json``). It returns the op's counts, which must repeat
exactly every time the same op runs again.

Ops call the package through module attributes at call time, so the
tracer's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import deltachrom.chromatic as chromatic
import deltachrom.cli as cli
import deltachrom.constructions as constructions
import deltachrom.families as families
import deltachrom.graphs as graphs
import deltachrom.verification as verification

import ref
from ref import ceil_div, require

HERE = Path(__file__).resolve().parent
SOLVE_TIMEOUT = 120.0  # over 10x the slowest solve below (X(C5,C7), 4 to 7 s)
CORPUS_SEED = 0


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], dict]


def load_expected() -> dict:
    return json.loads((HERE / "expected.json").read_text())


def masks(g) -> list[int]:
    return [g.adjacency_mask(v) for v in range(g.n)]


def _cached(build: Callable[[], list[int]]) -> Callable[[], list[int]]:
    memo: list = []

    def get() -> list[int]:
        if not memo:
            memo.append(build())
        return memo[0]

    return get


def solve_counts(r) -> dict:
    if not r.exact:
        return {"chromatic.inexact": 1}
    if r.method == "sandwich":
        return {"chromatic.sandwich_closed": 1}
    return {"chromatic.search_closed": 1, "chromatic.k_refuted": r.chi - r.clique_lower}


def _reference_delta(graph, build_adj) -> Callable[[], list[int]]:
    """The reference delta-complement, after checking the program's input
    graph against the reference build."""

    def build() -> list[int]:
        adj = build_adj()
        require(masks(graph) == adj, "input graph differs from the reference build")
        return ref.delta(adj)

    return _cached(build)


def solve_op(name: str, graph, build_adj, expected: int) -> Op:
    delta = _reference_delta(graph, build_adj)

    def check(r) -> dict:
        require(r.exact, f"inexact, bracket [{r.lower},{r.upper}]")
        require(r.chi == expected, f"chi_delta {r.chi}, expected {expected}")
        ref.check_coloring(delta(), r.witness.colors, r.chi)
        ref.check_clique(delta(), r.clique)
        require(len(r.clique) == r.clique_lower <= r.chi, "clique does not match its bound")
        return solve_counts(r)

    return Op(name, lambda: chromatic.chi_delta(graph, timeout=SOLVE_TIMEOUT), check)


def probe_op(term: str, truth: int) -> Op:
    """chi_delta with a deadline that has passed before it starts; it
    passes when its bracket is sound.

    The clique and k-colouring searches stop at their first deadline
    check, so the op times the work done whatever the deadline (building
    the delta-complement, DSATUR). A later deadline would stop the clique
    search at a depth, and so at a memory peak, that follows the host's
    speed."""
    graph = families.generate(families.parse_spec(term))
    delta = _reference_delta(graph, lambda: ref.parse(term))

    def check(r) -> dict:
        require(r.lower <= truth <= r.upper, f"bracket [{r.lower},{r.upper}] misses {truth}")
        used = len(set(r.witness.colors))
        ref.check_coloring(delta(), r.witness.colors, used)
        require(used <= r.upper, f"witness uses {used} colours, upper bound {r.upper}")
        ref.check_clique(delta(), r.clique)
        require(len(r.clique) <= r.lower, "clique exceeds the lower bound")
        return solve_counts(r)

    return Op(f"probe {term} t=0", lambda: chromatic.chi_delta(graph, timeout=0.0), check)


def term_op(term: str, expected: int) -> Op:
    graph = families.generate(families.parse_spec(term))
    return solve_op(f"chi_delta {term}", graph, lambda: ref.parse(term), expected)


def construction_op(fn: str, a: int, b: int, term: str, expected: int) -> Op:
    """A colouring construction followed by the checks `construct --check` makes."""

    def run():
        r = getattr(constructions, fn)(a, b)
        proper = chromatic.is_proper(r.graph, r.coloring)
        clique_ok = all(r.graph.has_edge(x, y) for i, x in enumerate(r.clique) for y in r.clique[i + 1:])
        return r, proper and clique_ok and len(r.clique) == r.coloring.colors_used

    delta = _cached(lambda: ref.delta(ref.parse(term)))

    def check(out) -> dict:
        r, verdict = out
        require(verdict, "the package's own certificate check failed")
        require(masks(r.graph) == delta(), "graph differs from the reference delta-complement")
        ref.check_coloring(delta(), r.coloring.colors, expected)
        require(len(r.clique) == expected, f"clique of {len(r.clique)}, expected {expected}")
        ref.check_clique(delta(), r.clique)
        return {"colors": expected}

    return Op(f"{fn}({a},{b})", run, check)


# --- search: exact solves that the k-colourability search has to close ------


def torus(n: int, m: int) -> int:
    return ceil_div(n * m, 2)


SEARCH_TERMS = [
    ("X(C5,C5)", torus(5, 5)),
    ("X(C5,C6)", torus(5, 6)),
    ("X(C4,C9)", torus(4, 9)),
    ("X(C5,C7)", torus(5, 7)),
    # no closed form covers these; values recorded when the benchmark was defined
    ("X(P7,C7)", 18),
    ("X(P9,C5)", 18),
    ("X(C5,S1,6)", 18),
    ("X(C9,S1,5)", 25),
    ("X(K4,C13)", 13),
    ("X(P2,C21)", 21),
    # the instance set of scripts/benchmark_solver.py
    ("C9", ceil_div(9, 2)),
    ("P14", ceil_div(14 - 2, 2)),
    ("W9", 1 + ceil_div(9, 2)),
    ("X(C5,P3)", 2 * ceil_div(5, 2)),
    ("X(C7,P3)", 2 * ceil_div(7, 2)),
    ("X(C9,P3)", 2 * ceil_div(9, 2)),
    ("X(C10,P3)", 2 * ceil_div(10, 2)),
    ("X(S1,3,S1,3)", 3 * 3),
    ("X(S1,4,S1,5)", 4 * 5),
    ("X(S1,3,P4)", 2 * 3),
    ("X(K5,K6)", 5),  # recorded
    ("X(C5,C6)", torus(5, 6)),
]


def gnp_corpus() -> list[tuple[str, int, list[tuple[int, int]]]]:
    """108 G(n,p) graphs, two per (n, p) with n in 28..45 and p in
    {0.3, 0.5, 0.7}, drawn from a fixed corpus seed.

    The corpus does not follow the run seed: solve times of random graphs
    are heavy-tailed (12 fresh 108-graph corpora summed to 2.1..8.8 s), so
    a fresh corpus per run would swamp any change to the solver.
    """
    rng = random.Random(CORPUS_SEED)
    out = []
    for p in (0.3, 0.5, 0.7):
        for n in range(28, 46):
            for _ in range(2):
                edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
                out.append((f"G({n},{p})#{len(out)}", n, edges))
    return out


def build_search(seed: int, expected: dict) -> list[Op]:
    ops = [term_op(term, value) for term, value in SEARCH_TERMS]
    for (name, n, edges), chi in zip(gnp_corpus(), expected["gnp_chi"]):
        graph = graphs.Graph(n, edges)
        ops.append(solve_op(f"chi_delta {name}", graph,
                            lambda n=n, edges=edges: ref.from_edges(n, edges), chi))
    random.Random(seed).shuffle(ops)
    return ops


# --- grid: large delta-complements the clique/DSATUR sandwich closes ---------


def strata(rng: random.Random, lo: int, hi: int, k: int) -> list[int]:
    """One value drawn from each of k equal slices of lo..hi, ascending.

    Stratifying keeps every run's size mix close to uniform, so the seed
    changes the instances without swinging the run's total work."""
    width = (hi - lo + 1) / k
    out = []
    for i in range(k):
        start, stop = lo + int(i * width), lo + int((i + 1) * width)
        out.append(rng.randrange(start, max(stop, start + 1)))
    return out


def path_path(n: int, k: int) -> int:
    return ceil_div((n - 2) * (k - 2), 2)


def star_path(m: int, n: int) -> int:
    return 2 * m if n in (3, 4) else m * ceil_div(n - 2, 2)


def pairs(rng: random.Random, first: tuple[int, int], second: tuple[int, int], k: int):
    """k stratified pairs, the first value ascending and the second
    descending, so the instance sizes vary little from seed to seed."""
    return list(zip(strata(rng, *first, k), reversed(strata(rng, *second, k))))


def build_grid(seed: int) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for a, b in pairs(rng, (10, 40), (10, 40), 20):
        ops.append(term_op(f"X(P{a},P{b})", path_path(a, b)))
    for m, n in pairs(rng, (3, 12), (5, 40), 25):
        ops.append(term_op(f"X(S1,{m},P{n})", star_path(m, n)))
    for a, b in pairs(rng, (10, 40), (10, 40), 20):
        n, k = min(a, b), max(a, b)
        ops.append(construction_op("path_path_coloring", n, k, f"X(P{n},P{k})", path_path(n, k)))
    for m, n in pairs(rng, (3, 12), (3, 40), 20):
        ops.append(construction_op("star_path_coloring", m, n, f"X(S1,{m},P{n})", star_path(m, n)))
    for m, n in pairs(rng, (3, 20), (3, 20), 21):
        ops.append(construction_op("star_star_coloring", m, n, f"X(S1,{m},S1,{n})", m * n))
    ops.append(probe_op("X(P40,P40)", path_path(40, 40)))
    ops.append(probe_op("X(P30,P40)", path_path(30, 40)))
    rng.shuffle(ops)
    return ops


# --- verify: every registered check over several seeds -----------------------


def _int_pair(text: str) -> tuple[int, int]:
    """'colors=12 clique=12' or 'chi=6 omega=4' -> (12, 12) / (6, 4)."""
    a, b = (part.split("=")[1] for part in text.split())
    return int(a), int(b)


def _closed_form_row(row) -> None:
    """Recompute a row's closed form where one covers it."""
    cid, p = row.check_id, row.params
    if row.status == "skip":
        return
    if cid == "path-formula":
        require(int(row.computed) == ceil_div(p["n"] - 2, 2), f"path row {p}")
    elif cid == "cycle-formula":
        require(int(row.computed) == ceil_div(p["n"], 2), f"cycle row {p}")
    elif cid == "wheel-formula":
        require(int(row.computed) == 1 + ceil_div(p["n"], 2), f"wheel row {p}")
    elif cid == "cycle-p3":
        require(_int_pair(row.computed)[0] == 2 * ceil_div(p["n"], 2), f"cycle-p3 row {p}")
    elif cid in ("star-star", "star-path", "path-path") and "solver" not in p:
        want = {"star-star": lambda: p["m"] * p["n"],
                "star-path": lambda: star_path(p["m"], p["n"]),
                "path-path": lambda: path_path(p["n"], p["k"])}[cid]()
        require(_int_pair(row.computed) == (want, want), f"{cid} row {p}")
    elif cid == "lemma-ceiling":
        n, k = p["n"], p["k"]
        lhs = 2 * ceil_div(n - 2, 2) + 2 * ceil_div(k - 2, 2) + 1
        require(row.computed == f"{lhs} < {path_path(n, k)}", f"lemma row {p}")


def verify_op(check_id: str, vseed: int, expected_rows: list[int] | None) -> Op:
    def check(rows) -> dict:
        skips = sum(r.status == "skip" for r in rows)
        failed = [r.params for r in rows if r.status not in ("pass", "skip")]
        require(not failed, f"{len(failed)} rows fail, first {failed[:1]}")
        require(all(r.check_id == check_id for r in rows), "row from another check")
        if expected_rows is not None:
            require([len(rows), skips] == expected_rows,
                    f"{len(rows)} rows / {skips} skips, expected {expected_rows}")
        for row in rows:
            _closed_form_row(row)
        return {"verification.rows": len(rows), "verification.skips": skips}

    return Op(f"run_check {check_id} seed={vseed}",
              lambda: verification.run_check(check_id, {"seed": vseed}), check)


def build_verify(seed: int, expected: dict) -> list[Op]:
    rng = random.Random(seed)
    vseeds = [rng.randrange(1, 2**31) for _ in range(8)]
    rows = expected["verify_rows"]
    ops = [verify_op(cid, s, rows.get(cid)) for s in vseeds for cid in verification.check_ids()]
    rng.shuffle(ops)
    return ops


# --- export: build and write graphs through the command line ----------------

GRAPH_FILES = {"grid30.json": "X(P30,P30)", "joined.json": "J(C20,X(P10,P12))"}


def export_commands(inputs: Path) -> list[tuple[str, list[str]]]:
    """(name, argv) for the fixed command list whose outputs are digested."""
    cmds: list[tuple[str, list[str]]] = []

    def export(term: str, *flags: str) -> None:
        cmds.append((" ".join(["export", term, *flags]), ["export", term, *flags]))

    def structure(*terms: str) -> None:
        cmds.append((" ".join(["structure", *terms, "--emit-s"]), ["structure", *terms, "--emit-s"]))

    export("X(P40,P40)", "--delta")
    export("X(P40,P40)", "--delta", "--fmt", "dot")
    export("X(P40,P40)")
    export("X(P30,P35)", "--delta")
    for a, b in [(6, 6), (8, 10), (10, 10), (10, 15), (12, 12), (12, 20), (15, 15),
                 (15, 25), (18, 18), (20, 20), (20, 30), (25, 25)]:
        export(f"X(P{a},P{b})", "--delta")
        export(f"X(P{a},P{b})", "--delta", "--fmt", "dot")
        export(f"X(P{a},P{b})")
    for a, b in [(5, 5), (9, 9), (12, 15), (20, 20)]:
        export(f"X(C{a},C{b})", "--delta")
        export(f"X(C{a},C{b})", "--delta", "--fmt", "dot", "--one-based")
    export("X(C9,C10)", "--delta", "--fmt", "dot")
    for term in ("X(C9,C9,C9)", "X(S1,8,P40)", "X(S1,3,P30)", "X(P5,P6,P7)"):
        export(term, "--delta")
    for pair in [("P5", "P5"), ("P8", "P10"), ("P10", "P10"), ("P12", "P15"), ("P15", "P15"),
                 ("P20", "P20"), ("P20", "P25"), ("P30", "P30"), ("C5", "C6"), ("C9", "P20"),
                 ("S1,5", "P25"), ("S1,4", "S1,6"), ("K3", "C9"), ("W6", "P12"),
                 ("P10", "P30"), ("P5", "P6", "P7"), ("C5", "C5", "C5")]:
        structure(*pair)
    export("J(X(C9,C9,C9),X(C9,C9,C9))")
    for term in ("M(30,30)", "M(10,20)", "M(20,10)", "M(5,5)", "J(X(C5,C5),X(C6,C6))",
                 "J(P20,C30)", "J(K1,C50)", "J(X(P10,P10),X(C9,C9))", "J(M(5,5),W20)"):
        export(term, "--delta")
        export(term, "--fmt", "dot")
    for name in GRAPH_FILES:
        cmds.append((f"export @{name} --delta", ["export", f"@{inputs / name}", "--delta"]))
        cmds.append((f"export @{name} --fmt dot", ["export", f"@{inputs / name}", "--fmt", "dot"]))
    for term in ("P7", "C9", "W9", "S1,6", "K8", "N5", "J(K1,C5)", "X(P3,P3)", "J(C9,C9)"):
        export(term, "--delta")
    return cmds


def write_graph_files(inputs: Path) -> None:
    """The @file inputs, written by the reference code."""
    inputs.mkdir(parents=True, exist_ok=True)
    for name, term in GRAPH_FILES.items():
        adj = ref.parse(term)
        edges = [[u, v] for u in range(len(adj)) for v in range(u + 1, len(adj)) if adj[u] >> v & 1]
        # write then rename, so a run reading the file never sees half of it
        tmp = inputs / f"{name}.{os.getpid()}.tmp"
        tmp.write_text(json.dumps({"n": len(adj), "edges": edges}))
        os.replace(tmp, inputs / name)


class Sink:
    """Stands in for stdout/stderr: keeps what the command writes."""

    def __init__(self) -> None:
        self.parts: list[str] = []

    def write(self, text: str) -> int:
        self.parts.append(text)
        return len(text)

    def flush(self) -> None:
        pass


def run_cli(argv: list[str]) -> tuple[int, Sink, Sink]:
    out, err = Sink(), Sink()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out, err


def export_op(name: str, argv: list[str], digest: str | None) -> Op:
    def check(result) -> dict:
        code, out, err = result
        require(code == 0, f"exit code {code}")
        require(not err.parts, "wrote to stderr: " + "".join(err.parts)[:200])
        data = "".join(out.parts).encode()
        require(hashlib.sha256(data).hexdigest() == digest, "output differs from the recorded digest")
        return {"cli.stdout_bytes": len(data)}

    return Op(name, lambda: run_cli(argv), check)


def build_export(seed: int, expected: dict, inputs: Path) -> list[Op]:
    write_graph_files(inputs)
    digests = expected["export_sha256"]
    ops = [export_op(name, argv, digests.get(name)) for name, argv in export_commands(inputs)]
    random.Random(seed).shuffle(ops)
    return ops


def build(workload: str, seed: int, inputs: Path) -> list[Op]:
    if workload == "grid":
        return build_grid(seed)
    expected = load_expected()
    if workload == "export":
        return build_export(seed, expected, inputs)
    return {"search": build_search, "verify": build_verify}[workload](seed, expected)


WORKLOADS = ("search", "grid", "verify", "export")
