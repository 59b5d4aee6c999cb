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
color. ``on_product`` then builds the product, its delta-complement and
the clique certificate, given by the canonical 0-based coordinates of
its vertices.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .bounds import ceil_div, degree_difference_set
from .chromatic import Coloring, is_clique, is_proper
from .families import empty_graph, is_regular, path_graph, star_graph
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
    number of colors, so together they pin the exact value.
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


def cyclic_block_grid(
    c0_one_based: Sequence[int], class_sizes: Sequence[int], p: int
) -> list[list[int]]:
    """The cyclic-permutation color grid behind the degree-diff bound.

    Row g, column (j, k) receives f(g, j) + (k-1)p where f(g, j) is in
    1..p and congruent to c0(g) + j - 1 mod p. Columns enumerate the
    degree classes of the second factor in class-major order, k-th
    member second. Everything here stays 1-based.
    """
    columns = [
        (j, k)
        for j, size in enumerate(class_sizes, start=1)
        for k in range(1, size + 1)
    ]
    grid = []
    for c in c0_one_based:
        row = []
        for j, k in columns:
            f = (c + j - 2) % p + 1
            row.append(f + (k - 1) * p)
        grid.append(row)
    return grid


def degree_diff_product_coloring(g: Graph, c0: Coloring, h: Graph) -> Coloring:
    """Proper coloring of the delta-complement of g x h from one of g.

    Requires the positive degree-difference sets of g and h to be
    disjoint; then the extra edges of the product's delta-complement
    join vertices in different copies of g within one degree class of h,
    and the cyclic block grid keeps all of them bichromatic. Uses at
    most n_max(h) * max(colors_used(c0), m(h)) colors.
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
    classes = sorted(degree_masks(h).items())  # ascending degree
    sizes = [mask.bit_count() for _, mask in classes]
    p = max(c0.colors_used, len(classes))
    grid = cyclic_block_grid(_ranks(c0), sizes, p)
    members = itertools.chain.from_iterable(iter_bits(mask) for _, mask in classes)
    column = [0] * h.n
    for col, vh in enumerate(members):
        column[vh] = col
    return _coloring(max(sizes, default=0) * p, lambda vg, vh: grid[vg][column[vh]],
                     range(g.n), range(h.n))


def join_p3_coloring(h: Graph, ch: Coloring) -> Coloring:
    """Proper 2q-coloring of the delta-complement of (K1 v h) x P3.

    h must be k-regular with at least 3 vertices and strictly more than
    k + 2 of them, and ch a proper coloring of its delta-complement with
    q >= 2 colors. Copy 1 of h keeps ch, copy 3 gets ch shifted by q,
    copy 2 a cyclic +1 twist; the hub takes q+1, q+2 and 1.
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
    return _coloring(2 * q, lambda v, copy: rows[v][copy - 1], range(h.n + 1), range(1, 4))


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
    """Coloring of the delta-complement of a star-path product.

    Path length 3 reduces to the hub-join construction (2m colors),
    length 4 to the degree-difference grid with the 4-path as first
    factor (2m colors, transposed back); for length >= 5 the closed-form
    km-coloring applies with k = ceil((n-2)/2). The returned clique
    certificate always matches the number of colors used.
    """
    if m < 3:
        raise ValueError(f"needs m >= 3 pendants, got {m}")
    if n < 3:
        raise ValueError(f"needs path length n >= 3, got {n}")
    factors = [star_graph(m), path_graph(n)]
    pendants = range(1, m + 1)

    if n == 3:
        # the pendants are 0-regular: their delta-complement is complete
        coloring = join_p3_coloring(empty_graph(m), Coloring(tuple(range(m)), m))
        return on_product(factors, coloring, itertools.product(pendants, (0, 2)))

    if n == 4:
        # delta(P4) is the path 1-0-3-2, so (0, 1, 0, 1) colors it
        on_p4 = degree_diff_product_coloring(path_graph(4), Coloring((0, 1, 0, 1), 2), factors[0])
        # vertex (i, j) of the star-path product is vertex (j, i) of P4 x S1,m
        colors = itertools.chain.from_iterable(on_p4.colors[i :: m + 1] for i in range(m + 1))
        coloring = Coloring(tuple(colors), on_p4.palette_size)
        return on_product(factors, coloring, itertools.product(pendants, (0, 3)))

    k = ceil_div(n - 2, 2)

    def color(i: int, j: int) -> int:  # j: 1-based path position
        if j == 1:
            return i + (k - 1) * m
        if j == n:
            return i if i >= 1 else k * m
        if i == 0 and j in (2, 3):
            return k * m
        return i + (j // 2 - 1) * m

    # the clique holds the pendants at the even positions 2..n-1
    return on_product(
        factors,
        _coloring(k * m, color, range(m + 1), range(1, n + 1)),
        itertools.product(pendants, range(1, n - 1, 2)),
    )


def path_path_coloring(n: int, k: int) -> ConstructionResult:
    """Exact coloring of the delta-complement of an n x k grid product.

    The interior (degree-4) vertices get the closed-form coloring whose
    color classes are horizontal dominoes (plus vertical dominoes in the
    last interior column when k is odd), using ceil((n-2)(k-2)/2) colors
    in total. Boundary degree-3 vertices are then colored clockwise from
    position (1,2) in consecutive same-side pairs, each unit taking the
    smallest palette color free of its already-colored neighbors, and
    the four corners close greedily. A diagonal half of the interior is
    returned as the matching clique certificate.
    """
    if not 6 <= n <= k:
        raise ValueError(f"needs 6 <= n <= k, got ({n},{k})")
    product, index = cartesian_product([path_graph(n), path_graph(k)])
    delta = delta_complement(product)
    target = ceil_div((n - 2) * (k - 2), 2)

    def fid(i: int, j: int) -> int:
        # 1-based grid position -> flat id
        return index.flat((i - 1, j - 1))

    colors = [-1] * product.n
    half = (k - 2) // 2
    for i in range(2, n):
        for j in range(2, 2 * half + 2):
            colors[fid(i, j)] = (i - 2) * half + (j - 2) // 2
    if k % 2 == 1:
        # vertical dominoes down the last interior column
        for i in range(2, n):
            colors[fid(i, k - 1)] = (n - 2) * half + (i - 2) // 2

    def greedy_fill(cells: list[tuple[int, int]]) -> None:
        forbidden = 0
        for i, j in cells:
            for w in iter_bits(delta.adjacency_mask(fid(i, j))):
                if colors[w] >= 0:
                    forbidden |= 1 << colors[w]
        c = 0
        while forbidden >> c & 1:
            c += 1
        if c >= target:
            raise AssertionError(
                f"no palette color left for boundary cells {cells} at ({n},{k})"
            )
        for i, j in cells:
            colors[fid(i, j)] = c

    def paired(cells: list[tuple[int, int]]) -> list[list[tuple[int, int]]]:
        return [cells[t : t + 2] for t in range(0, len(cells), 2)]

    top = [(1, j) for j in range(2, k)]
    right = [(i, k) for i in range(2, n)]
    bottom = [(n, j) for j in range(2, k)]
    left = [(i, 1) for i in range(2, n)]
    units = (
        paired(top)
        + paired(right)
        + list(reversed(paired(bottom)))
        + list(reversed(paired(left)))
    )
    for unit in units:
        greedy_fill(unit)
    for corner in [(1, 1), (1, k), (n, k), (n, 1)]:
        greedy_fill([corner])

    clique = tuple(
        sorted(
            fid(i, j)
            for i in range(2, n)
            for j in range(2, k)
            if (i + j) % 2 == 0
        )
    )
    return ConstructionResult(
        delta, index, Coloring(tuple(colors), target), clique
    )
