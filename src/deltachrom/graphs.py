"""Immutable bitset-backed graphs and the core structural operations.

Vertices are dense integer ids ``0..n-1``; adjacency is one Python int
bitmask per vertex, which keeps complements, delta-complements and
product assembly cheap at desk scale. All operations return new graphs.
A graph keeps its degree classes from their first use, highest degree
first, and they are the same whichever thread finds them, so instances
can be shared across threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain, compress, repeat
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence, TypeVar

MAX_PRODUCT_VERTICES = 10_000


class SizeLimitError(ValueError):
    """An operation would exceed the configured vertex budget."""


def check_product_size(total: int, what: str = "product") -> None:
    """Refuse a ``what`` of ``total`` vertices over the budget, before
    anything is built for it."""
    if total > MAX_PRODUCT_VERTICES:
        raise SizeLimitError(f"{what} has {total} vertices, over the {MAX_PRODUCT_VERTICES} budget")


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

    __slots__ = ("n", "_adj", "_classes")

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
        self._classes: Mapping[int, int] | None = None

    @classmethod
    def _from_masks(cls, n: int, masks: Sequence[int]) -> "Graph":
        # internal fast path; callers must guarantee symmetry and no loops
        g = cls.__new__(cls)
        g.n = n
        g._adj = tuple(masks)
        g._classes = None
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
        if 0 <= u < self.n > v >= 0:
            return self._adj[u] >> v & 1 == 1
        self._check_vertex(u)
        raise ValueError(f"vertex {v} out of range for n={self.n}")

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (a, b) with a < b, in lexicographic order."""
        out: list[tuple[int, int]] = []
        ids = range(self.n)
        for u, mask in enumerate(self._adj):
            out.extend(zip(repeat(u), _row_names(mask >> (u + 1), ids, u + 1)))
        return out

    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self._adj) // 2

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self._adj == other._adj

    def __hash__(self) -> int:
        return hash((self.n, self._adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count()})"


def degree_masks(g: Graph) -> Mapping[int, int]:
    """The mask of the vertices of each degree, keyed by the degree,
    highest degree first: found once and kept on g, read-only."""
    if g._classes is None:
        g._classes = MappingProxyType(_find_degree_masks(g))
    return g._classes


def _find_degree_masks(g: Graph) -> dict[int, int]:
    by_degree = [0] * g.n
    for v, row in enumerate(g._adj):
        by_degree[row.bit_count()] |= 1 << v
    return {d: by_degree[d] for d in range(g.n - 1, -1, -1) if by_degree[d]}


def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    return Graph._from_masks(g.n, [full ^ row ^ 1 << v for v, row in enumerate(g._adj)])


def delta_complement(g: Graph) -> Graph:
    """Flip adjacency inside each degree class, keep it across classes.

    Edge rule: uv is an edge of the result iff either d(u) = d(v) and uv
    is a non-edge of g, or d(u) != d(v) and uv is an edge of g, with
    degrees measured in g. So row v is g's row XOR v's class mask, which
    flips the class, has no bits outside it, and clears v's own bit.
    """
    same = degree_masks(g)
    masks = [same[row.bit_count()] ^ row ^ 1 << v for v, row in enumerate(g._adj)]
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
    # Block-wise, from the last factor's rows: with B vertices in the
    # product of the factors after g, vertex (a, i) of g's block a has
    # the row of i shifted to that block, plus spread[a] << i, where
    # spread[a] has a bit at w * B for each neighbour w of a
    rows = list(fs[-1]._adj)
    for g in reversed(fs[:-1]):
        block = len(rows)
        spread = []
        for m in g._adj:
            s = 0
            while m:
                low = m & -m
                s |= 1 << (low.bit_length() - 1) * block
                m ^= low
            spread.append(s)
        rows = [r << a * block | s << i for a, s in enumerate(spread) for i, r in enumerate(rows)]
    return Graph._from_masks(index.total, rows), index


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


_Name = TypeVar("_Name", str, int)


def _row_names(row: int, names: Sequence[_Name], start: int) -> Iterable[_Name]:
    """``names[start + i]`` for each set bit i of ``row``, ascending."""
    if _is_dense(row):
        return compress(names[start : start + row.bit_length()], _bit_flags(row))
    out = []
    while row:
        low = row & -row
        out.append(names[start + low.bit_length() - 1])
        row ^= low
    return out


def _iter_edges(
    g: Graph, names: Sequence[str], lead: str, mid: str, tail: str, glue: str
) -> Iterator[str]:
    """Each edge a < b as ``lead + names[a] + mid + names[b] + tail``, in
    lexicographic order and separated by ``glue``: one chunk per row that
    has an edge, so that no more than a row is held at once."""
    sep = ""
    for u, mask in enumerate(g._adj):
        row = mask >> (u + 1)
        if row:
            head = lead + names[u] + mid
            yield f"{sep}{head}{(tail + glue + head).join(_row_names(row, names, u + 1))}{tail}"
            sep = glue


def iter_json_edge_list(g: Graph) -> Iterator[str]:
    """The sorted edge list as compact JSON, ``[[a,b],...]`` with a < b,
    in chunks of one adjacency row."""
    yield "["
    yield from _iter_edges(g, list(map(str, range(g.n))), "[", ",", "]", ",")
    yield "]"


def iter_json(g: Graph) -> Iterator[str]:
    """``to_json(g)`` in chunks of one adjacency row."""
    yield f'{{"n":{g.n},"edges":'
    yield from iter_json_edge_list(g)
    yield "}"


def to_json(g: Graph) -> str:
    """Byte-stable JSON: sorted edge list with a < b, compact separators."""
    return "".join(iter_json(g))


def from_json(text: str) -> Graph:
    try:
        data = json.loads(text)
    except RecursionError:
        # the decoder's nesting limit is the interpreter's recursion limit
        raise ValueError("graph JSON is nested too deeply") from None
    if not isinstance(data, dict) or "n" not in data or "edges" not in data:
        raise ValueError("graph JSON must be an object with 'n' and 'edges'")
    n, edges = data["n"], data["edges"]
    # bool is a subclass of int, and neither it nor a float is a vertex id
    if type(n) is not int or n < 0:
        raise ValueError(f"graph JSON 'n' must be a non-negative integer, got {n!r}")
    check_product_size(n, "graph")
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


def iter_dot(
    g: Graph, colors: Sequence[int] | None = None, one_based: bool = False
) -> Iterator[str]:
    """``to_dot(g, colors, one_based)`` in chunks of one adjacency row.

    A colour count other than ``g.n`` raises before the first chunk, so a
    caller writing the chunks as they come never writes half a graph.
    """
    if colors is not None and len(colors) != g.n:
        raise ValueError(f"{len(colors)} colors for {g.n} vertices")
    off = 1 if one_based else 0
    yield "graph {\n"
    if colors is not None:
        yield "".join(f"  {v + off} [color={c + off}];\n" for v, c in enumerate(colors))
    yield from _iter_edges(g, list(map(str, range(off, g.n + off))), "  ", " -- ", ";\n", "")
    yield "}\n"


def to_dot(
    g: Graph, colors: Sequence[int] | None = None, one_based: bool = False
) -> str:
    """DOT export, one line per edge; per-vertex color attributes optional."""
    return "".join(iter_dot(g, colors, one_based))
