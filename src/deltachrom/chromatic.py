"""Exact chromatic number engine with certified lower and upper bounds.

Strategy, in order: a DSATUR coloring gives the upper bound. For
``chi_delta`` one pass over the degree classes of G comes next: inside
a degree class D, delta(G) is the complement of G[D], and one
breadth-first sweep of G[D] gives two certificates. When G[D] is
bipartite, the larger colour side of each component is independent in
G[D], so their union is a clique of delta(G); when it meets DSATUR's
palette, the sandwich certifies the value and nothing else runs. When
G[D] is triangle-free, a color class of delta(G) meets D in a clique of
G[D], which lies in one component C of G[D], so chi >= sum over C of
ceil(|C|/2). When no colour-side clique closes the solve, a
branch-and-bound maximum clique gives the lower bound; it stops at the first clique of the palette's size, which is
maximum since omega <= chi <= palette. A k-colorability backtracking
search (most-constrained vertex first, color symmetry broken by pinning
a maximum clique to colors 0..|clique|-1) then decides each k from the
larger of the clique size and the class bound upward. It keeps its
domains as whole-graph masks: per color, the vertices that may still
take it, and each vertex's number of colors left in bit-sliced counts,
so a step is a few mask operations and no loop over vertices. Each
coloring it finds is re-checked to be proper before it becomes the
witness. Both searches keep their own stack, so no interpreter setting
depends on the graph size. They read the clock at every node and the
class pass at every class, so the deadline is the one stopping rule and
a solve overruns it by at most one step's work.

Everything is deterministic: ties break toward the lowest vertex id and
colors are tried in increasing order, so the same graph always yields
the same witness.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Sequence

from .graphs import Graph, degree_masks, delta_complement, iter_bits

DEFAULT_TIMEOUT = 60.0
ORACLE_VERTEX_LIMIT = 12


class SolverTimeout(Exception):
    """Internal signal: the deadline passed."""


@dataclass(frozen=True)
class Coloring:
    """Total vertex -> color assignment with an explicit palette size."""

    colors: tuple[int, ...]
    palette_size: int

    def __post_init__(self) -> None:
        for c in self.colors:
            if not 0 <= c < self.palette_size:
                raise ValueError(f"color {c} outside palette [0,{self.palette_size})")

    @property
    def colors_used(self) -> int:
        return len(set(self.colors))


def is_proper(g: Graph, coloring: Coloring) -> bool:
    """True iff no edge of g is monochromatic under the coloring."""
    if len(coloring.colors) != g.n:
        raise ValueError(
            f"coloring covers {len(coloring.colors)} vertices, graph has {g.n}"
        )
    classes = [0] * coloring.palette_size
    for v, c in enumerate(coloring.colors):
        classes[c] |= 1 << v
    adj = g._adj
    return not any(adj[v] & classes[c] for v, c in enumerate(coloring.colors))


def is_clique(g: Graph, vertices: Sequence[int]) -> bool:
    """True iff the vertices are distinct and pairwise adjacent."""
    mask = 0
    for v in vertices:
        mask |= 1 << v
    if mask.bit_count() != len(vertices):
        return False
    return all((g.adjacency_mask(v) | 1 << v) & mask == mask for v in vertices)


@dataclass(frozen=True)
class CliqueResult:
    size: int
    vertices: tuple[int, ...]
    complete: bool  # False when the deadline passed before the search ended


def max_clique_lower(
    g: Graph, deadline: float = math.inf, target: int = 0
) -> CliqueResult:
    """Branch-and-bound maximum clique with greedy-coloring pruning.

    A ``target`` of at least the clique number, such as a proper
    coloring's palette, ends the search at the first clique of that
    size: no larger one exists, so it is the clique the full search ends
    with. The clock (``time.monotonic``) is read once per search node.
    When the search ends before the deadline the result is the maximum
    clique. Otherwise it has ``complete=False`` and is the larger of the
    best clique found so far and the open branch path, whose vertices
    are pairwise adjacent too; the path counts from two vertices on,
    and vertex 0 alone stands in when neither holds one. The returned
    vertex set is re-verified to be pairwise adjacent before returning.
    """
    n = g.n
    if n == 0:
        return CliqueResult(0, (), True)
    adj = g._adj

    def color_sort(cand: int) -> tuple[list[int], list[int]]:
        # greedy coloring of the candidate set; bounds ascend with order
        order: list[int] = []
        bounds: list[int] = []
        color = 0
        rest = cand
        while rest:
            color += 1
            q = rest
            klass = 0
            while q:
                low = q & -q
                v = low.bit_length() - 1
                order.append(v)
                bounds.append(color)
                klass |= low
                q &= ~(adj[v] | low)
            rest &= ~klass
        return order, bounds

    best_size = best_mask = 0
    # one frame per open node: [clique mask, clique size, vertices and
    # bounds left to branch on (taken from the end), their mask]
    stack: list[list] = []
    rmask, rsize, cand = 0, 0, (1 << n) - 1
    complete = True
    while True:
        if cand:
            if time.monotonic() > deadline:
                complete = False
                if rsize > max(best_size, 1):
                    best_size, best_mask = rsize, rmask
                break
            order, bounds = color_sort(cand)
            stack.append([rmask, rsize, order, bounds, cand])
            cand = 0
        frame = stack[-1]
        rmask, rsize, order, bounds, local = frame
        if not order or rsize + bounds[-1] <= best_size:
            stack.pop()
            if not stack:
                break
            continue
        v = order.pop()
        bounds.pop()
        vb = 1 << v
        frame[4] = local & ~vb
        cand = local & adj[v]
        if cand:
            rmask, rsize = rmask | vb, rsize + 1
        elif rsize + 1 > best_size:
            best_size, best_mask = rsize + 1, rmask | vb
            if best_size == target:
                break

    if not best_size:
        # stopped before the first leaf on a path of at most one vertex;
        # any one vertex is a clique
        best_size, best_mask = 1, 1
    verts = tuple(iter_bits(best_mask))
    if not is_clique(g, verts):
        raise RuntimeError("internal error: clique verification failed")
    return CliqueResult(best_size, verts, complete)


def dsatur_upper(g: Graph) -> Coloring:
    """Proper DSATUR coloring; deterministic given the graph.

    Vertex choice: maximum saturation, then maximum degree, then lowest
    id; the vertex gets the lowest color no neighbour has.

    Each step is O(log n) whole-graph mask operations, with no loop
    over vertices. The vertices that see color c are ``seen[c]``, the
    union of the neighbour rows of the vertices colored c, so a
    vertex's saturation is the number of masks ``seen`` it is in.
    Saturations are kept bit-sliced: ``sat[j]`` holds the vertices
    whose saturation has bit j set, and coloring v with c adds one to
    the uncolored vertices of ``adj[v] & ~seen[c]`` by a ripple carry
    over the planes. Degrees are sliced the same way once. The choice
    narrows the uncolored mask plane by plane from the highest bit
    down, saturation first, then degree, and takes the lowest set bit
    that is left. The masks ``seen`` are the leaves of a binary tree
    whose every inner node is the AND of its two children, that is the
    vertices that see every color below it; first fit descends it to
    the lowest color v does not see, going left unless the left
    child's mask holds v.
    """
    n = g.n
    if n == 0:
        return Coloring((), 0)
    adj = g._adj
    by_degree = degree_masks(g)
    top = max(by_degree).bit_length()
    degree_planes = [
        sum(mask for d, mask in by_degree.items() if d >> j & 1)
        for j in reversed(range(top))
    ]
    # first fit never goes past the maximum degree, so 2**top leaves
    # hold every color; leaf `leaves + c` is seen[c]
    leaves = 1 << top
    tree = [0] * (2 * leaves)
    sat: list[int] = []
    colors = [0] * n
    palette = 0
    uncolored = (1 << n) - 1
    while uncolored:
        cand = uncolored
        for plane in reversed(sat):
            if narrowed := cand & plane:
                cand = narrowed
        for plane in degree_planes:
            if narrowed := cand & plane:
                cand = narrowed
        low = cand & -cand
        v = low.bit_length() - 1
        uncolored ^= low
        node = 1
        while node < leaves:
            node <<= 1
            if tree[node] & low:
                node += 1
        c = node - leaves
        colors[v] = c
        palette = max(palette, c + 1)
        row = adj[v]
        carry = row & uncolored & ~tree[node]
        tree[node] |= row
        while node > 1:
            node >>= 1
            tree[node] = tree[2 * node] & tree[2 * node + 1]
        for j, plane in enumerate(sat):
            if not carry:
                break
            sat[j], carry = plane ^ carry, plane & carry
        if carry:
            sat.append(carry)
    return Coloring(tuple(colors), palette)


def _class_sweep(g: Graph, mask: int) -> tuple[int | None, int]:
    """The colour-side set and the pair-cover bound of g[mask].

    Breadth-first mask sweeps 2-colour each component C of g[mask] by
    the parity of its layers. An edge inside a layer is an odd cycle,
    and every triangle has one, so the triangle test looks only at the
    edges inside a layer. When g[mask] is bipartite the set is the union
    of the larger side of each component, the odd layers on a tie, and
    is independent; otherwise it is None. When g[mask] is triangle-free
    the bound is the sum over C of ceil(|C|/2); otherwise it is 0.
    """
    adj = g._adj
    sides = bound = 0
    bipartite = True
    rest = mask
    while rest:
        frontier = seen = rest & -rest
        layers = [0, 0]
        parity = 0
        while frontier:
            layers[parity] |= frontier
            reach = 0
            for v in iter_bits(frontier):
                reach |= adj[v]
            if inner := reach & frontier:
                bipartite = False
                for v in iter_bits(inner):
                    row = adj[v] & mask
                    if any(adj[u] & row for u in iter_bits(row & inner)):
                        return None, 0
            frontier = reach & mask & ~seen
            seen |= frontier
            parity ^= 1
        bound += (seen.bit_count() + 1) // 2
        even, odd = layers
        sides |= even if even.bit_count() > odd.bit_count() else odd
        rest &= ~seen
    return (sides if bipartite else None), bound


def _largest_first(same: dict[int, int]) -> list[int]:
    """The class masks of ``degree_masks``, largest first, ties in the
    order of their lowest vertex."""
    return sorted(same.values(), key=int.bit_count, reverse=True)


def class_certificates(
    g: Graph,
    palette: int,
    deadline: float = math.inf,
    classes: Sequence[int] | None = None,
) -> tuple[tuple[int, ...], int, int]:
    """A clique of ``delta_complement(g)`` of ``palette`` vertices, or
    (), and a lower bound on its chromatic number with the mask of the
    degree class of g that gives it.

    Inside a degree class D, delta(g) is the complement of g[D]. So an
    independent set of g[D], such as its colour-side set, is a clique of
    delta(g). A color class of delta(g) meets D in a clique of g[D],
    which lies in one component of g[D], so the pair-cover bound of a
    triangle-free g[D] bounds chi from below (see ``_class_sweep``).
    Classes are swept largest first (ties in the order of their lowest
    vertex; a caller that has them in that order passes them as
    ``classes``) while one could still give a clique of the palette's
    size or beat the best bound so far, since a class bounds chi by at
    most |D|. The first colour-side set of ``palette`` vertices ends the
    pass. The clock is read once per class; past the deadline the pass
    ends with what it has.
    """
    best = best_mask = 0
    for mask in classes or _largest_first(degree_masks(g)):
        size = mask.bit_count()
        if size < palette and size <= best or time.monotonic() > deadline:
            break
        sides, bound = _class_sweep(g, mask)
        if bound > best:
            best, best_mask = bound, mask
        if sides is not None and sides.bit_count() == palette:
            return tuple(iter_bits(sides)), best, best_mask
    return (), best, best_mask


def _k_coloring_search(
    g: Graph, k: int, clique: tuple[int, ...], deadline: float
) -> tuple[int, ...] | None:
    """Find a proper k-coloring or prove none exists.

    Branches on the open vertex with the fewest colors left, ties to the
    lowest id, and tries its colors in increasing order. Only the first
    unused color may open a new color class, which prunes nothing but
    palette permutations. The clique, of at most k vertices, is pinned
    to colors 0..|clique|-1. The clock is read once per step; past the
    deadline the search raises ``SolverTimeout``.

    The domains are kept as whole-graph masks, with no loop over
    vertices: ``can[c]`` holds the vertices that may still take color c,
    and the number of colors an open vertex has left is bit-sliced over
    ``planes``, as DSATUR's saturations are. Coloring v with c takes the
    neighbours ``adj[v] & can[c]`` out of ``can[c]`` and one from the
    counts of the open ones by a ripple borrow; an open neighbour with
    one color left is a wipe-out, found before anything changes. A
    backtrack puts the same mask back and adds the one back by a ripple
    carry, so each frame keeps one mask. The choice narrows the open
    mask plane by plane from the highest bit down and takes the lowest
    set bit that is left.
    """
    n = g.n
    adj = g._adj
    free = (1 << n) - 1
    can = [free] * k
    planes = [free if k >> j & 1 else 0 for j in range(k.bit_length())]
    colors = [-1] * n

    def assign(v: int, c: int) -> int | None:
        # take v's neighbours out of can[c]; None on a wipe-out
        removed = adj[v] & can[c]
        borrow = removed & free
        several = 0
        for plane in planes[1:]:
            several |= plane
        if borrow & ~several:
            return None
        can[c] ^= removed
        for j, plane in enumerate(planes):
            if not borrow:
                break
            planes[j] = plane ^ borrow
            borrow &= ~plane
        colors[v] = c
        return removed

    for i, v in enumerate(clique):
        if assign(v, i) is None:
            return None
        free ^= 1 << v

    # one frame per colored vertex: (vertex, its color, colors used
    # before it, the neighbours it took out of that color's mask)
    stack: list[tuple[int, int, int, int]] = []
    used = len(clique)
    while True:
        if time.monotonic() > deadline:
            raise SolverTimeout
        if not free:
            return tuple(colors)
        cand = free
        for plane in reversed(planes):
            if narrowed := cand & ~plane:
                cand = narrowed
        v = (cand & -cand).bit_length() - 1
        c = 0
        while True:
            top = min(k, used + 1)
            while c < top and not can[c] >> v & 1:
                c += 1
            if c < top:
                removed = assign(v, c)
                if removed is not None:
                    stack.append((v, c, used, removed))
                    free ^= 1 << v
                    used = max(used, c + 1)
                    break
                c += 1
            elif stack:
                v, c, used, removed = stack.pop()
                free |= 1 << v
                can[c] |= removed
                carry = removed & free
                for j, plane in enumerate(planes):
                    if not carry:
                        break
                    planes[j] = plane ^ carry
                    carry &= plane
                c += 1
            else:
                return None


@dataclass(frozen=True)
class ChromaticResult:
    """Outcome of an exact chromatic number computation.

    ``witness`` is a proper coloring with ``upper`` colors and
    ``clique`` is a clique. ``lower`` starts at the larger of
    ``len(clique)`` and, for ``chi_delta``, the class bound, and each k
    the search refutes raises it by one, so chi lies in [lower, upper].
    ``bound_class`` is the mask of the degree class whose bound raised
    ``lower`` above ``len(clique)``, 0 when none did. The result is
    exact when the two ends meet; when the deadline passed first,
    ``chi`` is None.
    """

    lower: int
    upper: int
    witness: Coloring
    clique: tuple[int, ...]
    method: str  # "sandwich" | "branch-and-bound"
    elapsed: float
    bound_class: int = 0

    @property
    def exact(self) -> bool:
        return self.lower == self.upper

    @property
    def chi(self) -> int | None:
        return self.upper if self.exact else None

    @property
    def clique_lower(self) -> int:
        return len(self.clique)

    def to_json_dict(self) -> dict:
        return {
            "chi": self.chi,
            "lower": self.lower,
            "upper": self.upper,
            "exact": self.exact,
            "witness": list(self.witness.colors),
            "method": self.method,
            "ms": int(self.elapsed * 1000),
        }


def chromatic_number(
    g: Graph,
    timeout: float = DEFAULT_TIMEOUT,
    certificates: Callable[[int, float], tuple[tuple[int, ...], int, int]] | None = None,
) -> ChromaticResult:
    """Exact chromatic number with a proper witness coloring.

    Runs the DSATUR/clique sandwich first; any remaining gap is closed
    by deciding k-colorability for k from the lower bound upward; each
    coloring the search finds is re-checked with ``is_proper`` before it
    becomes the witness. On timeout the result is flagged inexact and
    carries the certified bracket plus the best proper coloring found.

    ``certificates(palette, deadline)``, when given, is asked once,
    after DSATUR and before the clique search, for a clique of g of
    DSATUR's palette size or (), a lower bound on chi and the mask that
    certifies it. A clique it returns is re-checked and closes the solve
    without the clique search; with none, the clique search runs as
    without the hook. The k-search starts at the larger of the bound
    and the clique size.
    """
    start = time.perf_counter()
    deadline = time.monotonic() + timeout
    witness = dsatur_upper(g)
    upper = witness.palette_size
    clique, bound, bound_class = certificates(upper, deadline) if certificates else ((), 0, 0)
    if bound > upper:
        raise RuntimeError("internal error: lower bound above a proper coloring")
    if not clique:
        clique = max_clique_lower(g, deadline, target=upper).vertices
    elif len(clique) != upper or not is_clique(g, clique):
        raise RuntimeError("internal error: clique verification failed")
    lower = len(clique)
    method = "sandwich" if lower == upper else "branch-and-bound"
    if bound > lower:
        lower = bound
    else:
        bound_class = 0
    try:
        while lower < upper:
            solution = _k_coloring_search(g, lower, clique, deadline)
            if solution is None:
                lower += 1
            else:
                found = Coloring(solution, lower)
                if not is_proper(g, found):
                    raise RuntimeError("internal error: witness verification failed")
                witness, upper = found, lower
    except SolverTimeout:
        pass
    return ChromaticResult(
        lower, upper, witness, clique, method, time.perf_counter() - start, bound_class
    )


def oracle_chromatic(g: Graph) -> int:
    """Brute-force chromatic number for graphs with at most 12 vertices.

    Deliberately independent of the main engine: vertices in id order,
    no clique bound, no saturation heuristic, no forward checking. The
    only restriction on the exhaustive search is that a new color class
    must open with the smallest unused color, which discards palette
    permutations and nothing else.
    """
    if g.n > ORACLE_VERTEX_LIMIT:
        raise ValueError(f"oracle limited to {ORACLE_VERTEX_LIMIT} vertices, got {g.n}")
    if g.n == 0:
        return 0
    nbrs = [g.neighbors(v) for v in range(g.n)]
    for k in range(1, g.n + 1):
        if _oracle_colorable(nbrs, k):
            return k
    return g.n


def _oracle_colorable(nbrs: list[tuple[int, ...]], k: int) -> bool:
    """Exhaustive k-coloring of vertices 0, 1, ... in order.

    Vertices from v on are uncolored; ``used[v]`` counts the colors
    opened by vertices 0..v-1, so v may take colors 0..used[v] (below
    k), and a backtrack resumes the previous vertex at its next color.
    """
    n = len(nbrs)
    assignment = [-1] * n
    used = [0] * (n + 1)
    v = c = 0
    while v < n:
        if c < min(k, used[v] + 1):
            if any(assignment[u] == c for u in nbrs[v]):
                c += 1
            else:
                assignment[v] = c
                used[v + 1] = max(used[v], c + 1)
                v, c = v + 1, 0
        elif v == 0:
            return False
        else:
            v -= 1
            c = assignment[v] + 1
            assignment[v] = -1
    return True


def chi_delta(g: Graph, timeout: float = DEFAULT_TIMEOUT) -> ChromaticResult:
    """Chromatic number of the delta-complement of g.

    The solve is ``chromatic_number``'s, with one pass over the degree
    classes of g (see ``class_certificates``) as its certificate hook:
    a colour-side clique of DSATUR's palette size closes the solve
    without the clique search, and the k-search starts at the larger of
    the clique and the class bound. The degree classes of g are found
    once and shared with ``delta_complement``.
    """
    same = degree_masks(g)
    classes = _largest_first(same)
    return chromatic_number(
        delta_complement(g, same),
        timeout=timeout,
        certificates=lambda palette, deadline: class_certificates(g, palette, deadline, classes),
    )
