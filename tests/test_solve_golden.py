"""`chi_delta` answers pinned by one SHA-256 digest.

The digest covers (lower, upper, method, clique, witness) of every solve
over two fixed sets: the 22 product and family terms of the solver
benchmark's `search` workload, and its 108 G(n,p) graphs, two per
(n, p) with n in 28..45 and p in {0.3, 0.5, 0.7}, drawn from
``random.Random(0)``. It was recorded before the k-colouring search
moved from per-vertex colour domains to per-colour masks; any change to
a witness, a clique or a search tree that reaches a solve's answer
changes it. To re-record after an intended change, print
``_digest(_solves())`` and say in CHANGES.md which witnesses changed.
"""

import hashlib
import random

from deltachrom import Graph, chi_delta, generate, parse_spec

SEARCH_TERMS = [
    "X(C5,C5)", "X(C5,C6)", "X(C4,C9)", "X(C5,C7)", "X(P7,C7)", "X(P9,C5)",
    "X(C5,S1,6)", "X(C9,S1,5)", "X(K4,C13)", "X(P2,C21)", "C9", "P14", "W9",
    "X(C5,P3)", "X(C7,P3)", "X(C9,P3)", "X(C10,P3)", "X(S1,3,S1,3)",
    "X(S1,4,S1,5)", "X(S1,3,P4)", "X(K5,K6)", "X(C5,C6)",
]

GOLDEN = "37d1d056c6613af6d40f70aaf41f09688d29296a586477d11641effeb30f902a"


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
