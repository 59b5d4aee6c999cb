"""Reference graphs and certificate checks, independent of deltachrom.

The benchmark's correctness gate must not trust the code it measures,
so this module rebuilds every input graph from its family term with its
own code (one adjacency bitmask per vertex, the same row-major product
labelling the package documents) and checks witnesses and cliques
against those masks. Nothing here imports deltachrom.
"""

from __future__ import annotations


class GateFailure(Exception):
    """An op's output failed the benchmark's correctness gate."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise GateFailure(message)


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


# --- builders: each returns a list of adjacency masks ----------------------


def from_edges(n: int, edges) -> list[int]:
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def path(n: int) -> list[int]:
    return from_edges(n, ((i, i + 1) for i in range(n - 1)))


def cycle(n: int) -> list[int]:
    return from_edges(n, ((i, (i + 1) % n) for i in range(n)))


def complete(n: int) -> list[int]:
    full = (1 << n) - 1
    return [full ^ (1 << v) for v in range(n)]


def star(m: int) -> list[int]:
    return from_edges(m + 1, ((0, i) for i in range(1, m + 1)))


def wheel(n: int) -> list[int]:
    rim = [(i, i % n + 1) for i in range(1, n + 1)]
    return from_edges(n + 1, rim + [(0, i) for i in range(1, n + 1)])


def union(*graphs: list[int]) -> list[int]:
    out: list[int] = []
    for g in graphs:
        offset = len(out)
        out.extend(m << offset for m in g)
    return out


def join(g: list[int], h: list[int]) -> list[int]:
    ng, nh = len(g), len(h)
    left, right = (1 << ng) - 1, ((1 << nh) - 1) << ng
    return [m | right for m in g] + [(m << ng) | left for m in h]


def product(factors: list[list[int]]) -> list[int]:
    """Cartesian product, flat id = row-major coordinates, last fastest."""
    sizes = [len(f) for f in factors]
    strides = [1] * len(sizes)
    for i in range(len(sizes) - 2, -1, -1):
        strides[i] = strides[i + 1] * sizes[i + 1]
    total = strides[0] * sizes[0]
    adj = [0] * total
    for v in range(total):
        for f, size, stride in zip(factors, sizes, strides):
            c = v // stride % size
            base = v - c * stride
            for w in range(size):
                if f[c] >> w & 1:
                    adj[v] |= 1 << (base + w * stride)
    return adj


def delta(adj: list[int]) -> list[int]:
    """Flip adjacency inside each degree class, keep it across classes."""
    n = len(adj)
    classes: dict[int, int] = {}
    for v, m in enumerate(adj):
        d = bin(m).count("1")
        classes[d] = classes.get(d, 0) | 1 << v
    full = (1 << n) - 1
    out = []
    for v, m in enumerate(adj):
        same = classes[bin(m).count("1")]
        out.append((same & ~m & ~(1 << v)) | (m & ~same & full))
    return out


# --- family terms ------------------------------------------------------------


def parse(term: str) -> list[int]:
    """Adjacency masks of a family term (P7, C5, K4, N3, W6, S1,4,
    M(3,4), J(A,B), X(A,B,...))."""
    graph, pos = _term(term.replace(" ", ""), 0)
    if pos != len(term.replace(" ", "")):
        raise ValueError(f"trailing input in {term!r}")
    return graph


def _int(s: str, i: int) -> tuple[int, int]:
    j = i
    while j < len(s) and s[j].isdigit():
        j += 1
    return int(s[i:j]), j


def _term(s: str, i: int) -> tuple[list[int], int]:
    head = s[i]
    if head == "S":  # S1,m
        m, j = _int(s, i + 3)
        return star(m), j
    if head in "PCKNW":
        n, j = _int(s, i + 1)
        atom = {"P": path, "C": cycle, "K": complete, "N": lambda k: [0] * k, "W": wheel}
        return atom[head](n), j
    if head == "M":
        m, j = _int(s, i + 2)
        n, j = _int(s, j + 1)
        return join(complete(1), union(*[complete(n)] * m)), j + 1
    parts = []
    j = i + 1
    while s[j] != ")":
        part, j = _term(s, j + 1)
        parts.append(part)
    if head == "J":
        return join(*parts), j + 1
    if head == "X":
        return product(parts), j + 1
    raise ValueError(f"cannot parse {s[i:]!r}")


# --- certificate checks ------------------------------------------------------


def check_coloring(adj: list[int], colors, n_colors: int) -> None:
    """The colouring is proper on adj and uses exactly n_colors colours."""
    require(len(colors) == len(adj), f"{len(colors)} colours for {len(adj)} vertices")
    classes: dict[int, int] = {}
    for v, c in enumerate(colors):
        classes[c] = classes.get(c, 0) | 1 << v
    require(len(classes) == n_colors, f"uses {len(classes)} colours, reported {n_colors}")
    for v, c in enumerate(colors):
        require(not adj[v] & classes[c], f"vertex {v} shares colour {c} with a neighbour")


def check_clique(adj: list[int], vertices) -> None:
    mask = 0
    for v in vertices:
        mask |= 1 << v
    require(bin(mask).count("1") == len(vertices), "clique repeats a vertex")
    for v in vertices:
        require(adj[v] & mask == mask ^ (1 << v), f"clique vertex {v} misses a member")
