"""Immutable bitset-backed graphs and the core structural operations.

Vertices are dense integer ids ``0..n-1``; adjacency is one Python int
bitmask per vertex, which keeps complements, delta-complements and
product assembly cheap at desk scale. All operations return new graphs,
so instances can be shared freely, including across threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain, compress, repeat
from typing import Iterable, Iterator, Sequence

MAX_PRODUCT_VERTICES = 10_000


class SizeLimitError(ValueError):
    """An operation would exceed the configured vertex budget."""


def check_product_size(total: int) -> None:
    """Refuse a product of ``total`` vertices over the budget, before
    anything is built for it."""
    if total > MAX_PRODUCT_VERTICES:
        raise SizeLimitError(
            f"product has {total} vertices, over the {MAX_PRODUCT_VERTICES} budget"
        )


# A row with at least 8 set bits, and at least one per this many binary
# digits, is read by scanning its digits at C speed; a sparser row walks
# its set bits.
_DENSE_SPACING = 32
_BIT_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


def _is_dense(row: int) -> bool:
    count = row.bit_count()
    return count >= 8 and count * _DENSE_SPACING >= row.bit_length()


def _bit_flags(row: int) -> bytes:
    """One byte per binary digit of ``row``, lowest first: 1 where set."""
    return bin(row)[:1:-1].encode().translate(_BIT_FLAGS)


def iter_bits(mask: int) -> Iterator[int]:
    """Yield set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph:
    """Simple undirected graph on vertices ``0..n-1``, immutable after build.

    Invariants enforced at construction: no self-loops, symmetric
    adjacency, all neighbor ids in range.
    """

    __slots__ = ("n", "_adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()) -> None:
        if n < 0:
            raise ValueError(f"vertex count must be non-negative, got {n}")
        adj = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.n = n
        self._adj = tuple(adj)

    @classmethod
    def _from_masks(cls, n: int, masks: Sequence[int]) -> "Graph":
        # internal fast path; callers must guarantee symmetry and no loops
        g = cls.__new__(cls)
        g.n = n
        g._adj = tuple(masks)
        return g

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range for n={self.n}")

    def adjacency_mask(self, v: int) -> int:
        self._check_vertex(v)
        return self._adj[v]

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return self._adj[v].bit_count()

    def neighbors(self, v: int) -> tuple[int, ...]:
        self._check_vertex(v)
        return tuple(iter_bits(self._adj[v]))

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return bool(self._adj[u] >> v & 1)

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (a, b) with a < b, in lexicographic order."""
        out: list[tuple[int, int]] = []
        for u, mask in enumerate(self._adj):
            row = mask >> (u + 1)
            if _is_dense(row):
                flags = _bit_flags(row)
                out.extend(zip(repeat(u), compress(range(u + 1, u + 1 + len(flags)), flags)))
                continue
            while row:
                low = row & -row
                out.append((u, u + low.bit_length()))
                row ^= low
        return out

    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self._adj) // 2

    def degrees(self) -> tuple[int, ...]:
        return tuple(m.bit_count() for m in self._adj)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self._adj == other._adj

    def __hash__(self) -> int:
        return hash((self.n, self._adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count()})"


def degree_masks(g: Graph) -> dict[int, int]:
    """The mask of the vertices of each degree, keyed by the degree."""
    same: dict[int, int] = {}
    for v, row in enumerate(g._adj):
        d = row.bit_count()
        same[d] = same.get(d, 0) | 1 << v
    return same


def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    masks = [full & ~g._adj[v] & ~(1 << v) for v in range(g.n)]
    return Graph._from_masks(g.n, masks)


def delta_complement(g: Graph, same: dict[int, int] | None = None) -> Graph:
    """Flip adjacency inside each degree class, keep it across classes.

    Edge rule: uv is an edge of the result iff either d(u) = d(v) and uv
    is a non-edge of g, or d(u) != d(v) and uv is an edge of g, with
    degrees measured in g. ``same`` is ``degree_masks(g)`` when the
    caller already has it.
    """
    full = (1 << g.n) - 1
    if same is None:
        same = degree_masks(g)
    masks = []
    for v in range(g.n):
        s = same[g._adj[v].bit_count()]
        a = g._adj[v]
        masks.append((s & ~a & ~(1 << v)) | (~s & a & full))
    return Graph._from_masks(g.n, masks)


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> Graph:
    """Subgraph on the given vertex set, remapped to 0..len-1 in sorted order.

    Each row is compressed from the vertex's mask: its binary digits at
    the kept positions, in ascending order, are the new row's digits.
    """
    vs = sorted(set(vertices))
    kept = bytearray(g.n)
    for v in vs:
        g._check_vertex(v)
        kept[v] = 1
    masks = [int("0" + "".join(compress(bin(g._adj[v])[:1:-1], kept))[::-1], 2) for v in vs]
    return Graph._from_masks(len(vs), masks)


@dataclass(frozen=True)
class ProductIndex:
    """Mixed-radix bijection between factor coordinates and flat vertex ids.

    Row-major with the last coordinate fastest, fixed once for
    reproducibility of every product-derived artifact.
    """

    sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.sizes:
            raise ValueError("at least one factor size required")
        if any(s <= 0 for s in self.sizes):
            raise ValueError(f"factor sizes must be positive, got {self.sizes}")

    @property
    def total(self) -> int:
        t = 1
        for s in self.sizes:
            t *= s
        return t

    @property
    def strides(self) -> tuple[int, ...]:
        strides = [1] * len(self.sizes)
        for i in range(len(self.sizes) - 2, -1, -1):
            strides[i] = strides[i + 1] * self.sizes[i + 1]
        return tuple(strides)

    def flat(self, coords: Sequence[int]) -> int:
        if len(coords) != len(self.sizes):
            raise ValueError(f"expected {len(self.sizes)} coordinates, got {len(coords)}")
        out = 0
        for c, s, st in zip(coords, self.sizes, self.strides):
            if not 0 <= c < s:
                raise ValueError(f"coordinate {c} out of range [0,{s})")
            out += c * st
        return out

    def unflat(self, v: int) -> tuple[int, ...]:
        if not 0 <= v < self.total:
            raise ValueError(f"flat id {v} out of range [0,{self.total})")
        coords = []
        for st in self.strides:
            coords.append(v // st)
            v %= st
        return tuple(coords)


def cartesian_product(factors: Sequence[Graph]) -> tuple[Graph, ProductIndex]:
    """Cartesian product of the factors, plus the coordinate bijection.

    Two tuples are adjacent iff they differ in exactly one coordinate i
    and the differing pair is an edge of the i-th factor.
    """
    fs = list(factors)
    if not fs:
        raise ValueError("at least one factor required")
    if any(g.n == 0 for g in fs):
        raise ValueError("product factors must be nonempty")
    index = ProductIndex(tuple(g.n for g in fs))
    check_product_size(index.total)
    # spread[c] holds factor i's neighbours of coordinate c at bits w * stride_i
    axes = [
        ([sum(1 << w * stride for w in iter_bits(m)) for m in g._adj], stride, g.n)
        for g, stride in zip(fs, index.strides)
    ]
    masks = []
    for v in range(index.total):
        mv = 0
        for spread, stride, size in axes:
            c = v // stride % size
            mv |= spread[c] << (v - c * stride)
        masks.append(mv)
    return Graph._from_masks(index.total, masks), index


def is_connected(g: Graph) -> bool:
    if g.n <= 1:
        return True
    seen = 1
    frontier = [0]
    while frontier:
        v = frontier.pop()
        fresh = g._adj[v] & ~seen
        seen |= fresh
        frontier.extend(iter_bits(fresh))
    return seen == (1 << g.n) - 1


def _row_names(row: int, names: Sequence[str], start: int) -> Iterable[str]:
    """``names[start + i]`` for each set bit i of ``row``, ascending."""
    if _is_dense(row):
        return compress(names[start : start + row.bit_length()], _bit_flags(row))
    return [names[start + i] for i in iter_bits(row)]


def _write_edges(
    g: Graph, names: Sequence[str], lead: str, mid: str, tail: str, glue: str
) -> str:
    """Each edge a < b as ``lead + names[a] + mid + names[b] + tail``,
    in lexicographic order, joined by ``glue``, built a row at a time."""
    rows = []
    for u, mask in enumerate(g._adj):
        row = mask >> (u + 1)
        if row:
            head = lead + names[u] + mid
            rows.append(head + (tail + glue + head).join(_row_names(row, names, u + 1)) + tail)
    return glue.join(rows)


def json_edge_list(g: Graph) -> str:
    """The sorted edge list as compact JSON, ``[[a,b],...]`` with a < b."""
    names = list(map(str, range(g.n)))
    return "[" + _write_edges(g, names, "[", ",", "]", ",") + "]"


def to_json(g: Graph) -> str:
    """Byte-stable JSON: sorted edge list with a < b, compact separators."""
    return f'{{"n":{g.n},"edges":{json_edge_list(g)}}}'


def from_json(text: str) -> Graph:
    data = json.loads(text)
    if not isinstance(data, dict) or "n" not in data or "edges" not in data:
        raise ValueError("graph JSON must be an object with 'n' and 'edges'")
    n, edges = data["n"], data["edges"]
    # bool is a subclass of int, and neither it nor a float is a vertex id
    if type(n) is not int or n < 0:
        raise ValueError(f"graph JSON 'n' must be a non-negative integer, got {n!r}")
    if n > MAX_PRODUCT_VERTICES:
        raise SizeLimitError(f"graph has {n} vertices, over the {MAX_PRODUCT_VERTICES} budget")
    # set(map(...)) keeps the per-edge loops in C: a list of lists of two
    # ints has one element type, one length and one vertex type
    if (
        type(edges) is not list
        or not set(map(type, edges)) <= {list}
        or not set(map(len, edges)) <= {2}
        or not set(map(type, chain.from_iterable(edges))) <= {int}
    ):
        raise ValueError("graph JSON 'edges' must be a list of [u, v] integer pairs")
    return Graph(n, edges)


def to_dot(
    g: Graph, colors: Sequence[int] | None = None, one_based: bool = False
) -> str:
    """DOT export, one line per edge; per-vertex color attributes optional."""
    off = 1 if one_based else 0
    lines = ["graph {"]
    if colors is not None:
        if len(colors) != g.n:
            raise ValueError(f"{len(colors)} colors for {g.n} vertices")
        for v in range(g.n):
            lines.append(f"  {v + off} [color={colors[v] + off}];")
    edges = _write_edges(g, list(map(str, range(off, g.n + off))), "  ", " -- ", ";", "\n")
    if edges:
        lines.append(edges)
    lines.append("}")
    return "\n".join(lines) + "\n"
