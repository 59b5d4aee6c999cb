"""Hypothesis strategies shared across the test modules."""

from __future__ import annotations

import random

from hypothesis import strategies as st

from deltachrom import Graph
from deltachrom.families import FamilySpec


@st.composite
def graphs(draw, min_n: int = 0, max_n: int = 8):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if not pairs:
        return Graph(n)
    edges = draw(st.lists(st.sampled_from(pairs), unique=True))
    return Graph(n, edges)


@st.composite
def wide_graphs(draw, max_n: int = 130):
    """Graphs with up to ``max_n`` vertices, so adjacency rows are wide
    and range from sparse to dense."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    if n < 2:
        return Graph(n)
    vertex = st.integers(min_value=0, max_value=n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=4 * n))
    return Graph(n, [(u, v) for u, v in pairs if u != v])


@st.composite
def dense_graphs(draw, max_n: int = 100):
    """Graphs with up to ``max_n`` vertices at a drawn edge density, from
    edgeless to complete."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    p = draw(st.floats(min_value=0.0, max_value=1.0))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


@st.composite
def atom_specs(draw, nonempty: bool = False):
    kind = draw(st.sampled_from(["path", "cycle", "complete", "empty", "star", "wheel"]))
    lo = {"path": 1, "cycle": 3, "complete": 1, "empty": 0, "star": 1, "wheel": 3}[kind]
    if nonempty and kind == "empty":
        lo = 1
    return FamilySpec(kind, (draw(st.integers(min_value=lo, max_value=9)),))


@st.composite
def family_specs(draw, depth: int = 2):
    if depth == 0:
        return draw(atom_specs())
    choice = draw(st.integers(min_value=0, max_value=3))
    if choice == 0:
        m = draw(st.integers(min_value=1, max_value=3))
        n = draw(st.integers(min_value=1, max_value=3))
        return FamilySpec("windmill", (m, n))
    if choice == 1:
        a = draw(family_specs(depth=depth - 1))
        b = draw(family_specs(depth=depth - 1))
        return FamilySpec("join", (), (a, b))
    if choice == 2:
        children = draw(st.lists(atom_specs(nonempty=True), min_size=2, max_size=3))
        return FamilySpec("product", (), tuple(children))
    return draw(atom_specs())
