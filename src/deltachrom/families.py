"""Named graph families, composition operators, and the family term language.

Canonical labelings (all 0-based):
  path      0..n-1 along the path
  cycle     0..n-1 cyclically
  complete / empty   0..n-1
  star      hub 0, pendants 1..m
  wheel     hub 0, rim 1..n cyclically
  windmill  hub 0, then blades in consecutive blocks
  join      left factor first, right factor shifted by its size

The term grammar understood by :func:`parse_spec` (and printed back by
:func:`format_spec`) is::

    P7  C5  K4  N3  S1,4  W6          atoms
    J(K1,C5)                          join of two terms
    X(P6,P7)  X(C3,C3,P2)             Cartesian product of two or more
    M(3,4)                            windmill: hub joined to 3 copies of K4
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Sequence

from .graphs import Graph, cartesian_product, check_product_size, degree_masks


@dataclass(frozen=True)
class FamilySpec:
    """A closed term denoting a named graph or a composition of named graphs."""

    kind: str
    params: tuple[int, ...] = ()
    children: tuple["FamilySpec", ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown family kind {self.kind!r}")


def path_spec(n: int) -> FamilySpec:
    return FamilySpec("path", (n,))


def cycle_spec(n: int) -> FamilySpec:
    return FamilySpec("cycle", (n,))


def complete_spec(n: int) -> FamilySpec:
    return FamilySpec("complete", (n,))


def empty_spec(n: int) -> FamilySpec:
    return FamilySpec("empty", (n,))


def star_spec(m: int) -> FamilySpec:
    return FamilySpec("star", (m,))


def wheel_spec(n: int) -> FamilySpec:
    return FamilySpec("wheel", (n,))


def product_spec(*children: FamilySpec) -> FamilySpec:
    return FamilySpec("product", (), tuple(children))


def generate(spec: FamilySpec) -> Graph:
    """Build the graph denoted by a family term, with canonical labels.

    Deterministic: identical terms yield identical (not merely
    isomorphic) graphs. A term of more than MAX_PRODUCT_VERTICES
    vertices raises SizeLimitError before anything is built.
    """
    kind = spec.kind
    check_product_size(_vertex_count(spec), kind)
    if kind in _ATOMS:
        (n,) = spec.params
        least, needs, build = _ATOMS[kind]
        if n < least:
            raise ValueError(f"{needs}, got {n}")
        return build(n)
    if kind == "windmill":
        m, n = spec.params
        if m < 1 or n < 1:
            raise ValueError(f"windmill needs m,n >= 1, got ({m},{n})")
        return join(Graph(1), disjoint_union([_complete(n)] * m))
    if kind == "join":
        a, b = spec.children
        return join(generate(a), generate(b))
    product, _ = cartesian_product([generate(c) for c in spec.children])
    return product


def _vertex_count(spec: FamilySpec) -> int:
    """The number of vertices of the graph a term denotes, without building it."""
    if spec.kind in ("star", "wheel"):
        return spec.params[0] + 1
    if spec.kind == "windmill":
        m, n = spec.params
        return 1 + m * n
    if spec.kind == "join":
        return sum(map(_vertex_count, spec.children))
    if spec.kind == "product":
        return math.prod(map(_vertex_count, spec.children))
    return spec.params[0]


def _path_rows(n: int) -> list[int]:
    """Row i of the path on n vertices: bits i - 1 and i + 1."""
    full = (1 << n) - 1
    return [0b101 << i >> 1 & full for i in range(n)]


def _cycle(n: int) -> Graph:
    rows = _path_rows(n)
    rows[0] |= 1 << n - 1
    rows[-1] |= 1
    return Graph._from_masks(n, rows)


def _complete(n: int) -> Graph:
    full = (1 << n) - 1
    return Graph._from_masks(n, [full ^ 1 << i for i in range(n)])


# one-parameter atoms: kind -> (least parameter, the rule it breaks, builder)
_ATOMS = {
    "path": (1, "path needs >= 1 vertex", lambda n: Graph._from_masks(n, _path_rows(n))),
    "cycle": (3, "cycle needs >= 3 vertices", _cycle),
    "complete": (1, "complete graph needs >= 1 vertex", _complete),
    "empty": (0, "empty graph needs >= 0 vertices", Graph),
    "star": (1, "star needs >= 1 pendant", lambda m: join(Graph(1), Graph(m))),
    "wheel": (3, "wheel needs >= 3 rim vertices", lambda n: join(Graph(1), _cycle(n))),
}
_KINDS = set(_ATOMS) | {"windmill", "join", "product"}


def path_graph(n: int) -> Graph:
    return generate(path_spec(n))


def cycle_graph(n: int) -> Graph:
    return generate(cycle_spec(n))


def complete_graph(n: int) -> Graph:
    return generate(complete_spec(n))


def empty_graph(n: int) -> Graph:
    return generate(empty_spec(n))


def star_graph(m: int) -> Graph:
    return generate(star_spec(m))


def wheel_graph(n: int) -> Graph:
    return generate(wheel_spec(n))


def windmill_graph(m: int, n: int) -> Graph:
    return generate(FamilySpec("windmill", (m, n)))


def disjoint_union(graphs: Sequence[Graph]) -> Graph:
    """The graphs side by side, each one's ids shifted past the previous."""
    masks: list[int] = []
    for g in graphs:
        offset = len(masks)
        masks.extend(m << offset for m in g._adj)
    return Graph._from_masks(len(masks), masks)


def join(g: Graph, h: Graph) -> Graph:
    """Disjoint union of g and h plus all edges between the two parts."""
    to_h = ((1 << h.n) - 1) << g.n
    to_g = (1 << g.n) - 1
    masks = [m | to_h for m in g._adj] + [m << g.n | to_g for m in h._adj]
    return Graph._from_masks(g.n + h.n, masks)


def is_regular(g: Graph) -> int | None:
    """The common degree if g is regular, else None. Rejects the empty graph."""
    if g.n == 0:
        raise ValueError("regularity is undefined for the empty graph")
    degs = degree_masks(g)
    if len(degs) == 1:
        return next(iter(degs))
    return None


def random_graph(n: int, p: float, rng: random.Random) -> Graph:
    """Uniform G(n, p); used only to build seeded verification corpora.

    One draw per pair u < v, in lexicographic order.
    """
    rows = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    return Graph._from_masks(n, rows)


# --- term language -----------------------------------------------------------

_ATOM_LETTER = {
    "P": "path",
    "C": "cycle",
    "K": "complete",
    "N": "empty",
    "W": "wheel",
}
_KIND_LETTER = {v: k for k, v in _ATOM_LETTER.items()}
MAX_TERM_DEPTH = 100  # joins and products nest far inside the recursion limit


def parse_spec(text: str) -> FamilySpec:
    """Parse one family term; raises ValueError on malformed input."""
    s = text.replace(" ", "")
    spec, pos = _parse_term(s, 0, 0)
    if pos != len(s):
        raise ValueError(f"trailing input {s[pos:]!r} in family term {text!r}")
    return spec


def _parse_int(s: str, i: int) -> tuple[int, int]:
    j = i
    while j < len(s) and s[j].isdigit():
        j += 1
    if j == i:
        raise ValueError(f"expected integer at position {i} in {s!r}")
    return int(s[i:j]), j


def _expect(s: str, i: int, ch: str) -> int:
    if i >= len(s) or s[i] != ch:
        raise ValueError(f"expected {ch!r} at position {i} in {s!r}")
    return i + 1


def _parse_term(s: str, i: int, depth: int) -> tuple[FamilySpec, int]:
    if i >= len(s):
        raise ValueError(f"unexpected end of family term {s!r}")
    ch = s[i]
    if ch in "JX" and depth == MAX_TERM_DEPTH:
        raise ValueError(f"family term nests deeper than {MAX_TERM_DEPTH} levels")
    if ch in _ATOM_LETTER:
        val, j = _parse_int(s, i + 1)
        return FamilySpec(_ATOM_LETTER[ch], (val,)), j
    if ch == "S":
        j = _expect(s, i + 1, "1")
        j = _expect(s, j, ",")
        val, j = _parse_int(s, j)
        return FamilySpec("star", (val,)), j
    if ch == "J":
        j = _expect(s, i + 1, "(")
        a, j = _parse_term(s, j, depth + 1)
        j = _expect(s, j, ",")
        b, j = _parse_term(s, j, depth + 1)
        j = _expect(s, j, ")")
        return FamilySpec("join", (), (a, b)), j
    if ch == "X":
        j = _expect(s, i + 1, "(")
        children = []
        first, j = _parse_term(s, j, depth + 1)
        children.append(first)
        while j < len(s) and s[j] == ",":
            nxt, j = _parse_term(s, j + 1, depth + 1)
            children.append(nxt)
        j = _expect(s, j, ")")
        if len(children) < 2:
            raise ValueError("product term needs at least two factors")
        return FamilySpec("product", (), tuple(children)), j
    if ch == "M":
        j = _expect(s, i + 1, "(")
        m, j = _parse_int(s, j)
        j = _expect(s, j, ",")
        n, j = _parse_int(s, j)
        j = _expect(s, j, ")")
        return FamilySpec("windmill", (m, n)), j
    raise ValueError(f"cannot parse family term at position {i}: {s[i:]!r}")


def format_spec(spec: FamilySpec) -> str:
    """Canonical text for a term; inverse of parse_spec on its range."""
    if spec.kind in _KIND_LETTER:
        return f"{_KIND_LETTER[spec.kind]}{spec.params[0]}"
    if spec.kind == "star":
        return f"S1,{spec.params[0]}"
    if spec.kind == "windmill":
        return f"M({spec.params[0]},{spec.params[1]})"
    if spec.kind == "join":
        return f"J({format_spec(spec.children[0])},{format_spec(spec.children[1])})"
    return "X(" + ",".join(format_spec(c) for c in spec.children) + ")"
