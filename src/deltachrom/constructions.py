"""Explicit proper colorings of delta-complements of product graphs.

Each construction returns a concrete coloring witness (and, where the
value is exact, a clique certificate of matching size), so optimality is
certified by the sandwich: clique size = colors used. Nothing here is
trusted by the test suite; every output is re-checked against the
delta-complement built by the graph core.

Formulas are written 1-based, matching how these colorings are usually
stated, and ``_coloring`` translates them in one place: it walks each
factor's coordinates as the formula numbers them (hub 0 and pendants
1..m for a star, positions 1..n for a path) and subtracts 1 from every
color. Every construction is such a rule: path-path's boundary colors
are worked out from coordinates first, and star-path's rows at path
lengths 3 and 4 are the hub join's and the transposed grid's colors.
All five return through ``on_product``, which builds the product they
color, its delta-complement and the clique certificate, given by the
canonical 0-based coordinates of its vertices.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .bounds import ceil_div, degree_difference_set
from .chromatic import Coloring, is_clique, is_proper
from .families import is_regular, join, path_graph, star_graph
from .graphs import (
    Graph,
    ProductIndex,
    cartesian_product,
    check_product_size,
    degree_masks,
    delta_complement,
    iter_bits,
)


@dataclass(frozen=True)
class ConstructionResult:
    """A coloring on the delta-complement of a product, plus certificates.

    ``graph`` is the delta-complement the coloring lives on and
    ``clique`` a pairwise-adjacent vertex set whose size matches the
    number of colors, so together they pin the exact value. The clique
    may be (), and ``certified`` then checks properness alone.
    """

    graph: Graph
    index: ProductIndex
    coloring: Coloring
    clique: tuple[int, ...]

    def certified(self) -> bool:
        """The coloring is proper, the clique is a true clique, and a
        non-empty clique is as large as the number of colors used."""
        return (
            is_proper(self.graph, self.coloring)
            and is_clique(self.graph, self.clique)
            and (not self.clique or len(self.clique) == self.coloring.colors_used)
        )


def on_product(
    factors: Sequence[Graph],
    coloring: Coloring,
    clique_coords: Iterable[Sequence[int]] = (),
) -> ConstructionResult:
    """The coloring on the delta-complement of the factors' product, with
    the clique whose vertices have the given coordinates."""
    product, index = cartesian_product(factors)
    clique = tuple(sorted(map(index.flat, clique_coords)))
    return ConstructionResult(delta_complement(product), index, coloring, clique)


def _coloring(palette: int, color: Callable[..., int], *axes: range) -> Coloring:
    """The 0-based coloring giving each product vertex the 1-based color
    ``color(x1, x2, ...)`` of its coordinates.

    Each axis lists one factor's vertices as the formula numbers them, in
    vertex order, so ``itertools.product`` walks them in ProductIndex
    order, last coordinate fastest.
    """
    check_product_size(math.prod(map(len, axes)))
    return Coloring(tuple(color(*x) - 1 for x in itertools.product(*axes)), palette)


def _ranks(coloring: Coloring) -> list[int]:
    """Each vertex's color as its rank among the colors used, 1-based and
    order-preserving."""
    rank = {c: r for r, c in enumerate(sorted(set(coloring.colors)), start=1)}
    return [rank[c] for c in coloring.colors]


def degree_diff_product_coloring(g: Graph, c0: Coloring, h: Graph) -> ConstructionResult:
    """Proper coloring of the delta-complement of g x h from one of g.

    Requires the positive degree-difference sets of g and h to be
    disjoint; then the extra edges of the product's delta-complement
    join vertices in different copies of g within one degree class of h,
    and the cyclic block grid keeps all of them bichromatic: with p =
    max(colors_used(c0), m(h)), vertex (vg, vh) takes the 1-based color
    (rank(vg) + j - 2) mod p + 1 + (k - 1)p, where rank ranks c0's colors
    from 1 and vh is the k-th member of h's j-th degree class by
    ascending degree. Uses at most n_max(h) * p colors; no clique.
    """
    if len(c0.colors) != g.n:
        raise ValueError(f"c0 colors {len(c0.colors)} vertices, g has {g.n}")
    if not is_proper(delta_complement(g), c0):
        raise ValueError("c0 is not proper on the delta-complement of g")
    shared = sorted(degree_difference_set(g) & degree_difference_set(h))
    if shared:
        raise ValueError(
            f"degree difference {shared[0]} occurs in both factors; "
            "the coloring rule needs disjoint positive degree differences"
        )
    classes = list(reversed(degree_masks(h).values()))  # ascending degree
    p = max(c0.colors_used, len(classes))
    rank = _ranks(c0)
    # vertex of h -> (degree class j, member k), 1-based
    place = {vh: (j, k) for j, mask in enumerate(classes, start=1)
             for k, vh in enumerate(iter_bits(mask), start=1)}

    def color(vg: int, vh: int) -> int:
        j, k = place[vh]
        return (rank[vg] + j - 2) % p + 1 + (k - 1) * p

    palette = max(map(int.bit_count, classes), default=0) * p
    return on_product([g, h], _coloring(palette, color, range(g.n), range(h.n)))


def join_p3_coloring(h: Graph, ch: Coloring) -> ConstructionResult:
    """Proper 2q-coloring of the delta-complement of (K1 v h) x P3.

    h must be k-regular with at least 3 vertices and strictly more than
    k + 2 of them, and ch a proper coloring of its delta-complement with
    q >= 2 colors. Copy 1 of h keeps ch, copy 3 gets ch shifted by q,
    copy 2 a cyclic +1 twist; the hub takes q+1, q+2 and 1. No clique.
    """
    reg = is_regular(h)
    if reg is None:
        raise ValueError("h must be regular")
    if h.n < 3:
        raise ValueError(f"h needs at least 3 vertices, got {h.n}")
    if len(ch.colors) != h.n or not is_proper(delta_complement(h), ch):
        raise ValueError("ch must be a proper coloring of the delta-complement of h")
    q = ch.colors_used
    if q < 2:
        raise ValueError(f"need at least 2 colors on the delta-complement of h, got {q}")
    if not h.n > reg + 2:
        raise ValueError(f"need |V(h)| > k + 2, got {h.n} <= {reg} + 2")
    # the colors of copies 1, 2, 3 of the hub, then of each vertex of h
    rows = [(q + 1, q + 2, 1)] + [(c, c % q + 1, c + q) for c in _ranks(ch)]
    return on_product(
        [join(Graph(1), h), path_graph(3)],
        _coloring(2 * q, lambda v, copy: rows[v][copy - 1], range(h.n + 1), range(1, 4)),
    )


def star_star_coloring(m: int, n: int) -> ConstructionResult:
    """Exact mn-coloring of the delta-complement of a star-star product.

    The pendant grid is an independent set of the product with one
    shared degree, hence an mn-clique of the delta-complement; coloring
    it bijectively and threading hub row and hub column through unused
    slots realizes the matching upper bound.
    """
    if m < 3 or n < 3:
        raise ValueError(f"needs m, n >= 3, got ({m},{n})")

    def color(i: int, j: int) -> int:
        if i == 0:
            return j + 1
        if j >= 1:
            return (i - 1) * n + j
        return (i + 1) * n if i < m else n + 2

    return on_product(
        [star_graph(m), star_graph(n)],
        _coloring(m * n, color, range(m + 1), range(n + 1)),
        itertools.product(range(1, m + 1), range(1, n + 1)),
    )


def star_path_coloring(m: int, n: int) -> ConstructionResult:
    """Exact coloring of the delta-complement of a star-path product.

    For path length n >= 5 the closed-form km-coloring applies with k =
    ceil((n-2)/2). At n = 3 the hub takes m+1, m+2, 1 along the path and
    pendant i takes i, i mod m + 1, i + m, as in the hub join; at n = 4
    the hub takes 1 + (j mod 2) at position j and pendant i takes 2i - (j
    mod 2), as in the degree-difference grid: 2m colors either way. The
    returned clique certificate always matches the number of colors.
    """
    if m < 3:
        raise ValueError(f"needs m >= 3 pendants, got {m}")
    if n < 3:
        raise ValueError(f"needs path length n >= 3, got {n}")
    k = 2 if n <= 4 else ceil_div(n - 2, 2)

    def color(i: int, j: int) -> int:  # j: 1-based path position
        if n == 3:
            return ((i, i % m + 1, i + m) if i else (m + 1, m + 2, 1))[j - 1]
        if n == 4:
            return 2 * i - j % 2 if i else 1 + j % 2
        if j == 1:
            return i + (k - 1) * m
        if j == n:
            return i if i >= 1 else k * m
        if i == 0 and j in (2, 3):
            return k * m
        return i + (j // 2 - 1) * m

    # the clique holds the pendants at both ends for n <= 4, and at the
    # even positions 2..n-1 beyond
    return on_product(
        [star_graph(m), path_graph(n)],
        _coloring(k * m, color, range(m + 1), range(1, n + 1)),
        itertools.product(range(1, m + 1), (0, n - 1) if n <= 4 else range(1, n - 1, 2)),
    )


def path_path_coloring(n: int, k: int) -> ConstructionResult:
    """Exact coloring of the delta-complement of an n x k grid product.

    The interior (degree-4) vertices get the closed-form coloring whose
    color classes are horizontal dominoes (plus vertical dominoes in the
    last interior column when k is odd), using ceil((n-2)(k-2)/2) colors
    in total. The boundary degree-3 vertices, in consecutive same-side
    pairs taken top, right, bottom reversed, left reversed, each take the
    smallest color free of the earlier pairs (two degree-3 vertices are
    adjacent in the delta-complement unless consecutive on one side) and
    of their interior neighbors; each corner then takes the smallest color
    free of the earlier corners and its two boundary neighbors. A diagonal
    half of the interior is returned as the matching clique certificate.
    """
    if not 6 <= n <= k:
        raise ValueError(f"needs 6 <= n <= k, got ({n},{k})")
    check_product_size(n * k)
    target = ceil_div((n - 2) * (k - 2), 2)
    half = (k - 2) // 2
    boundary: dict[tuple[int, int], int] = {}

    def color(i: int, j: int) -> int:  # 1-based position, 0-based color
        if not (1 < i < n and 1 < j < k):
            return boundary[i, j]
        if j <= 2 * half + 1:
            return (i - 2) * half + (j - 2) // 2
        # vertical dominoes down the last interior column
        return (n - 2) * half + (i - 2) // 2

    def inward(i: int, j: int) -> tuple[int, int]:
        # a boundary cell's interior neighbor; for a corner, the diagonal one
        return min(max(i, 2), n - 1), min(max(j, 2), k - 1)

    def fill(cells: list[tuple[int, int]], near: list[tuple[int, int]], used: int) -> int:
        # the lowest color outside used and near; Coloring refuses one past target
        forbidden = used
        for cell in near:
            forbidden |= 1 << color(*cell)
        c = (~forbidden & (forbidden + 1)).bit_length() - 1
        boundary.update(dict.fromkeys(cells, c))
        return used | 1 << c

    sides = [[(1, j) for j in range(2, k)], [(i, k) for i in range(2, n)],
             [(n, j) for j in range(2, k)], [(i, 1) for i in range(2, n)]]
    top, right, bottom, left = ([side[t : t + 2] for t in range(0, len(side), 2)] for side in sides)
    used = 0
    for unit in top + right + bottom[::-1] + left[::-1]:
        used = fill(unit, [inward(*cell) for cell in unit], used)
    used = 0
    for i, j in [(1, 1), (1, k), (n, k), (n, 1)]:
        ci, cj = inward(i, j)
        used = fill([(i, j)], [(i, cj), (ci, j)], used)
    return on_product(
        [path_graph(n), path_graph(k)],
        _coloring(target, lambda i, j: color(i, j) + 1, range(1, n + 1), range(1, k + 1)),
        ((i, j) for i in range(1, n - 1) for j in range(1, k - 1) if (i + j) % 2 == 0),
    )
