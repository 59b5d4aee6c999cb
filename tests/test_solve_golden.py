"""`chi_delta` answers pinned by one SHA-256 digest.

The digest covers (lower, upper, method, clique, witness) of every solve
over two fixed sets: the 22 product and family terms of the solver
benchmark's `search` workload, and its 108 G(n,p) graphs, two per
(n, p) with n in 28..45 and p in {0.3, 0.5, 0.7}, drawn from
``random.Random(0)``. It was recorded before the k-colouring search
moved from per-vertex colour domains to per-colour masks, and re-recorded
when a class bound that meets the palette began to close a solve with no
clique, a matched colouring began to give that palette on the tori, the
k-colouring search began to branch in DSATUR's order, and the class
bound became the class pass's one certificate (P14, X(C10,P3),
X(S1,3,S1,3), X(S1,4,S1,5) and X(S1,3,P4) close on it with the clique
() where a colour-side clique certified them), and when a greedy clique
began to meet the palette before the clique search (X(K4,C13), X(K5,K6)
and G(n,p) #0, #3 and #12 close on another clique of the same size);
any change to a witness, a clique or a search tree that reaches a
solve's answer changes it. To re-record after an intended change, print
``_digest(_solves())`` and say in CHANGES.md which witnesses changed.

The k-colouring search reads the clock once per step, and the clique
search once per node, so the number of reads each makes over the same
solves pins the size of its search trees.
"""

import hashlib
import random
import time
from types import SimpleNamespace

from deltachrom import Graph, chi_delta, chromatic, generate, parse_spec

SEARCH_TERMS = [
    "X(C5,C5)", "X(C5,C6)", "X(C4,C9)", "X(C5,C7)", "X(P7,C7)", "X(P9,C5)",
    "X(C5,S1,6)", "X(C9,S1,5)", "X(K4,C13)", "X(P2,C21)", "C9", "P14", "W9",
    "X(C5,P3)", "X(C7,P3)", "X(C9,P3)", "X(C10,P3)", "X(S1,3,S1,3)",
    "X(S1,4,S1,5)", "X(S1,3,P4)", "X(K5,K6)", "X(C5,C6)",
]

GOLDEN = "96cf565240cc833df3fcda026d83f06795e4376d2af8c914c4a213bf70657331"

# k-search clock reads over the 22 terms and the 108 G(n,p) graphs: one
# per round (a drain of forced moves and a branch) and one per 256 moves
# inside a drain; stepping through the forced moves one by one, the same
# trees took 44 675 reads, and the lowest-id branching rule 69 998
K_SEARCH_STEPS = 15_963

# clique-search nodes over the same solves; 2 850 before the greedy
# clique closed five of them
CLIQUE_NODES = 2_789


def gnp_graphs() -> list[Graph]:
    rng = random.Random(0)
    out = []
    for p in (0.3, 0.5, 0.7):
        for n in range(28, 46):
            for _ in range(2):
                edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
                out.append(Graph(n, edges))
    return out


def _solves():
    for g in [generate(parse_spec(term)) for term in SEARCH_TERMS] + gnp_graphs():
        r = chi_delta(g)
        yield r.lower, r.upper, r.method, r.clique, r.witness.colors


def _digest(solves) -> str:
    h = hashlib.sha256()
    for solve in solves:
        h.update(repr(solve).encode())
    return h.hexdigest()


def test_search_solves_are_unchanged():
    assert len(gnp_graphs()) == 108
    assert _digest(_solves()) == GOLDEN


def _clock_reads(monkeypatch, name: str) -> int:
    """The clock reads made inside ``chromatic.<name>`` over the 130 solves."""
    reads = 0

    def clock():
        nonlocal reads
        reads += 1
        return time.monotonic()

    inner = getattr(chromatic, name)

    def counted(*args, **kwargs):
        # the clock counts only while the wrapped layer runs
        with monkeypatch.context() as m:
            m.setattr(chromatic, "time",
                      SimpleNamespace(monotonic=clock, perf_counter=time.perf_counter))
            return inner(*args, **kwargs)

    monkeypatch.setattr(chromatic, name, counted)
    for g in [generate(parse_spec(term)) for term in SEARCH_TERMS] + gnp_graphs():
        assert chi_delta(g).exact
    return reads


def test_k_search_steps_are_pinned(monkeypatch):
    assert _clock_reads(monkeypatch, "_k_coloring_search") == K_SEARCH_STEPS


def test_clique_nodes_are_pinned(monkeypatch):
    assert _clock_reads(monkeypatch, "max_clique_lower") == CLIQUE_NODES
