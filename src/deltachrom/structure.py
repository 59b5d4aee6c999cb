"""Structure of delta-complements of Cartesian products.

The delta-complement of a product decomposes as the product of the
factor delta-complements plus an extra edge set S: the pairs of product
vertices that differ in at least two coordinates yet have equal product
degree. Equality of the two graphs holds exactly when at most one factor
has two or more vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .graphs import (
    Graph,
    ProductIndex,
    cartesian_product,
    degree_masks,
    delta_complement,
)


@dataclass(frozen=True)
class DeltaProductDecomposition:
    """The three graphs of the decomposition plus the extra edge set S.

    All live on the product's flat vertex ids; ``extra`` is S as a
    graph on those ids. The edge set of ``delta_of_product`` equals
    that of ``product_of_deltas`` union S; the two sides are in
    fact disjoint (product-of-deltas edges change exactly one
    coordinate, extra edges at least two), which callers may check but
    should treat as derived rather than definitional.
    """

    product: Graph
    delta_of_product: Graph
    product_of_deltas: Graph
    extra: Graph


def _extra_graph(product: Graph, index: ProductIndex) -> Graph:
    """S on the product's flat ids: each vertex u is joined to every
    vertex of its degree that lies on none of the axis lines through u.

    The axis line through u along factor i is one "comb" mask, a set bit
    every ``stride_i`` positions over ``size_i`` positions, shifted to
    start where u's i-th coordinate is 0.
    """
    same = degree_masks(product)
    axes = [
        (sum(1 << j * stride for j in range(size)), stride, size)
        for size, stride in zip(index.sizes, index.strides)
    ]
    masks = []
    for v, mask in enumerate(product._adj):
        lines = 0
        for comb, stride, size in axes:
            lines |= comb << (v - v // stride % size * stride)
        masks.append(same[mask.bit_count()] & ~lines)
    return Graph._from_masks(product.n, masks)


def extra_edge_set(factors: Sequence[Graph]) -> list[tuple[int, int]]:
    """The extra edge set S of the product's delta-complement.

    Exactly the pairs {u, v} of product vertices differing in two or
    more coordinates with equal product degree. Returned sorted for
    determinism.
    """
    return _extra_graph(*cartesian_product(factors)).edges()


def delta_of_product(factors: Sequence[Graph]) -> DeltaProductDecomposition:
    """Assemble the full decomposition for the given factors."""
    product, index = cartesian_product(factors)
    deltas = [delta_complement(g) for g in factors]
    product_of_deltas, _ = cartesian_product(deltas)
    return DeltaProductDecomposition(
        product=product,
        delta_of_product=delta_complement(product),
        product_of_deltas=product_of_deltas,
        extra=_extra_graph(product, index),
    )


def equality_holds(factors: Sequence[Graph]) -> bool:
    """Whether the product's delta-complement equals the product of deltas.

    True iff at most one factor has two or more vertices (vacuously true
    for an empty factor list). Equivalent to the extra edge set being
    empty.
    """
    return sum(1 for g in factors if g.n >= 2) <= 1
