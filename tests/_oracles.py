"""Naive reference implementations, independent of the package internals.

These are deliberately written with dictionaries, tuples and exhaustive
loops rather than bitmasks, so they share no code path with the library
they check. Sizes are tiny; clarity beats speed.
"""

from __future__ import annotations

import json
import math
import time
from itertools import combinations, permutations, product as iproduct

from deltachrom import Coloring, Graph
from deltachrom.chromatic import SolverTimeout


def naive_delta_edges(g: Graph) -> set[tuple[int, int]]:
    """Pairwise application of the delta-complement edge rule."""
    deg = {v: len(g.neighbors(v)) for v in range(g.n)}
    out = set()
    for u in range(g.n):
        for v in range(u + 1, g.n):
            adjacent = v in g.neighbors(u)
            if deg[u] == deg[v]:
                if not adjacent:
                    out.add((u, v))
            elif adjacent:
                out.add((u, v))
    return out


def naive_product_edges(factors: list[Graph]) -> set[tuple[int, int]]:
    """Product edges via explicit tuple vertices, row-major flattening."""
    sizes = [g.n for g in factors]
    tuples = list(iproduct(*[range(s) for s in sizes]))
    flat = {t: i for i, t in enumerate(tuples)}
    out = set()
    for a in tuples:
        for b in tuples:
            if flat[a] >= flat[b]:
                continue
            diff = [i for i in range(len(a)) if a[i] != b[i]]
            if len(diff) == 1 and factors[diff[0]].has_edge(a[diff[0]], b[diff[0]]):
                out.add((flat[a], flat[b]))
    return out


def naive_disjoint_union_edges(graphs: list[Graph]) -> set[tuple[int, int]]:
    """Each graph's edges with its ids shifted past the graphs before it."""
    out = set()
    offset = 0
    for g in graphs:
        out |= {(a + offset, b + offset) for a, b in g.edges()}
        offset += g.n
    return out


def naive_join_edges(g: Graph, h: Graph) -> set[tuple[int, int]]:
    """Both graphs side by side plus every pair with one end in each."""
    cross = {(u, g.n + v) for u in range(g.n) for v in range(h.n)}
    return naive_disjoint_union_edges([g, h]) | cross


def naive_extra_edges(factors: list[Graph]) -> list[tuple[int, int]]:
    """S by its definition: pairs of coordinate tuples that differ in at
    least two places and have equal product degree, row-major flattened."""
    tuples = list(iproduct(*[range(g.n) for g in factors]))
    degree = {t: sum(len(g.neighbors(c)) for g, c in zip(factors, t)) for t in tuples}
    out = []
    for i, a in enumerate(tuples):
        for j in range(i + 1, len(tuples)):
            b = tuples[j]
            differing = sum(x != y for x, y in zip(a, b))
            if differing >= 2 and degree[a] == degree[b]:
                out.append((i, j))
    return out


def reference_atom(kind: str, *params: int) -> Graph:
    """The named atoms built from edge lists, with the canonical labels:
    hub 0, then pendants, rim or blades from 1."""
    if kind == "path":
        (n,) = params
        return Graph(n, [(i, i + 1) for i in range(n - 1)])
    if kind == "cycle":
        (n,) = params
        return Graph(n, [(i, (i + 1) % n) for i in range(n)])
    if kind == "complete":
        (n,) = params
        return Graph(n, list(combinations(range(n), 2)))
    if kind == "empty":
        (n,) = params
        return Graph(n)
    if kind == "star":
        (m,) = params
        return Graph(m + 1, [(0, i) for i in range(1, m + 1)])
    if kind == "wheel":
        (n,) = params
        rim = [(i, i + 1) for i in range(1, n)] + [(n, 1)]
        return Graph(n + 1, rim + [(0, i) for i in range(1, n + 1)])
    if kind == "windmill":
        m, n = params
        spokes = [(0, v) for v in range(1, m * n + 1)]
        blades = [(1 + b * n + i, 1 + b * n + j)
                  for b in range(m) for i, j in combinations(range(n), 2)]
        return Graph(1 + m * n, spokes + blades)
    raise ValueError(kind)


def reference_induced_subgraph(g: Graph, vertices) -> Graph:
    """The induced subgraph from the kept edges, remapped through a dict."""
    vs = sorted(set(vertices))
    pos = {v: i for i, v in enumerate(vs)}
    edges = [(pos[u], pos[w]) for u in vs for w in g.neighbors(u) if u < w and w in pos]
    return Graph(len(vs), edges)


def reference_to_json(g: Graph) -> str:
    """The JSON writer as one json.dumps over a list of edge lists."""
    payload = {"n": g.n, "edges": [list(e) for e in g.edges()]}
    return json.dumps(payload, separators=(",", ":"))


def reference_to_dot(g: Graph, colors=None, one_based: bool = False) -> str:
    """The DOT writer as one formatted line per edge."""
    off = 1 if one_based else 0
    lines = ["graph {"]
    if colors is not None:
        for v in range(g.n):
            lines.append(f"  {v + off} [color={colors[v] + off}];")
    for a, b in g.edges():
        lines.append(f"  {a + off} -- {b + off};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def brute_isomorphic(g: Graph, h: Graph) -> bool:
    """Exhaustive isomorphism test; intended for at most 8 vertices."""
    if g.n != h.n or g.edge_count() != h.edge_count():
        return False
    assert g.n <= 8
    ge = set(g.edges())
    for perm in permutations(range(g.n)):
        mapped = {tuple(sorted((perm[a], perm[b]))) for a, b in ge}
        if mapped == set(h.edges()):
            return True
    return False


def reference_is_proper(g: Graph, colors) -> bool:
    """Walk every edge and compare its end colours."""
    return all(colors[a] != colors[b] for a, b in g.edges())


def pairwise_is_clique(g: Graph, vertices) -> bool:
    """Every pair of list positions is an edge; a repeated vertex is not,
    because the graph has no loops."""
    return all(g.has_edge(a, b) for a, b in combinations(vertices, 2))


def brute_clique_number(g: Graph) -> int:
    """Largest pairwise-adjacent set by descending exhaustive search."""
    assert g.n <= 16
    for size in range(g.n, 0, -1):
        for candidate in combinations(range(g.n), size):
            if all(g.has_edge(a, b) for a, b in combinations(candidate, 2)):
                return size
    return 0


def brute_is_bipartite(g: Graph, vertices) -> bool:
    """Some split of the vertices into two sides leaves no edge inside a
    side; intended for at most 12 vertices."""
    vs = sorted(vertices)
    assert len(vs) <= 12
    edges = [(a, b) for a, b in combinations(vs, 2) if g.has_edge(a, b)]
    for sides in iproduct((0, 1), repeat=len(vs)):
        side = dict(zip(vs, sides))
        if all(side[a] != side[b] for a, b in edges):
            return True
    return False


def brute_independence_number(g: Graph, vertices) -> int:
    """Largest pairwise non-adjacent subset by descending exhaustive search."""
    vs = sorted(vertices)
    assert len(vs) <= 16
    for size in range(len(vs), 0, -1):
        for candidate in combinations(vs, size):
            if not any(g.has_edge(a, b) for a, b in combinations(candidate, 2)):
                return size
    return 0


def brute_clique_cover_number(g: Graph, vertices) -> int:
    """Fewest cliques of g that partition the vertices, by exhaustive
    search: each vertex in turn joins an earlier group that it is
    adjacent to throughout, or opens a new one, and a partial cover with
    as many groups as the best full one is dropped; intended for at most
    12 vertices."""
    vs = sorted(vertices)
    assert len(vs) <= 12
    best = len(vs)

    def place(i: int, groups: list[list[int]]) -> None:
        nonlocal best
        if len(groups) >= best:
            return
        if i == len(vs):
            best = len(groups)
            return
        v = vs[i]
        for group in groups:
            if all(g.has_edge(v, u) for u in group):
                group.append(v)
                place(i + 1, groups)
                group.pop()
        groups.append([v])
        place(i + 1, groups)
        groups.pop()

    place(0, [])
    return best


def exhaustive_chromatic(g: Graph) -> int:
    """Minimum k over all k^n assignments; intended for at most 6 vertices."""
    assert g.n <= 6
    if g.n == 0:
        return 0
    edges = g.edges()
    for k in range(1, g.n + 1):
        for assignment in iproduct(range(k), repeat=g.n):
            if all(assignment[a] != assignment[b] for a, b in edges):
                return k
    return g.n


def reference_dsatur(g: Graph) -> Coloring:
    """DSATUR by a full scan per step: the uncoloured vertex with the most
    distinct neighbour colours, then the highest degree, then the lowest
    id, takes the lowest colour no neighbour has."""
    colors = [-1] * g.n
    neighbor_colors: list[set[int]] = [set() for _ in range(g.n)]
    degrees = g.degrees()
    for _ in range(g.n):
        v = max(
            (u for u in range(g.n) if colors[u] == -1),
            key=lambda u: (len(neighbor_colors[u]), degrees[u], -u),
        )
        c = 0
        while c in neighbor_colors[v]:
            c += 1
        colors[v] = c
        for w in g.neighbors(v):
            neighbor_colors[w].add(c)
    return Coloring(tuple(colors), max(colors, default=-1) + 1)


def _iter_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def reference_k_search(g: Graph, k: int, clique, deadline: float = math.inf):
    """The k-colouring search as it was with per-vertex colour domains:
    forward checking over one bitmask of colours per vertex, branching on
    the open vertex with the fewest colours left (ties to the lowest id),
    colours tried in increasing order, only the first unused colour may
    open a new class, and the clique pinned to colours 0..|clique|-1.
    Returns the colour tuple, or None when no k-colouring exists."""
    n = g.n
    adj = [g.adjacency_mask(v) for v in range(n)]
    avail = [(1 << k) - 1] * n
    colors = [-1] * n
    free = (1 << n) - 1

    def assign(v: int, c: int) -> list[int] | None:
        # remove c from the open neighbours' domains; None on a wipe-out
        bit = 1 << c
        touched: list[int] = []
        for u in _iter_bits(adj[v] & free):
            if avail[u] & bit:
                avail[u] ^= bit
                touched.append(u)
                if not avail[u]:
                    for w in touched:
                        avail[w] |= bit
                    return None
        colors[v] = c
        return touched

    for i, v in enumerate(clique):
        if assign(v, i) is None:
            return None
        free ^= 1 << v

    # one frame per colored vertex: (vertex, colors left to try, used
    # before it, neighbours whose domain it narrowed)
    stack: list[tuple[int, int, int, list[int]]] = []
    used = len(clique)
    while True:
        if time.monotonic() > deadline:
            raise SolverTimeout
        if not free:
            return tuple(colors)
        v = min(_iter_bits(free), key=lambda u: avail[u].bit_count())
        cand = avail[v] & ((1 << min(k, used + 1)) - 1)
        while True:
            if cand:
                low = cand & -cand
                cand ^= low
                c = low.bit_length() - 1
                touched = assign(v, c)
                if touched is not None:
                    stack.append((v, cand, used, touched))
                    free ^= 1 << v
                    used = max(used, c + 1)
                    break
            elif stack:
                v, cand, used, touched = stack.pop()
                bit = 1 << colors[v]
                for u in touched:
                    avail[u] |= bit
                colors[v] = -1
                free |= 1 << v
            else:
                return None
