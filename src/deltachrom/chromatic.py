"""Exact chromatic number engine with certified lower and upper bounds.

Strategy, in order: a DSATUR coloring gives the upper bound. For
``chi_delta`` a class clique comes next: inside a degree class D of G,
delta(G) is the complement of G[D], so an independent set of G[D] is a
clique of delta(G); when G[D] is bipartite, König–Egerváry gives a
maximum one from a maximum matching. When that clique meets DSATUR's
palette, the sandwich certifies the value and nothing else runs.
Otherwise a branch-and-bound maximum clique gives the lower bound; it
stops at the first clique of the palette's size, which is maximum since
omega <= chi <= palette. When the clique falls short of the palette,
``chi_delta`` adds the class bound: a color class of delta(G) meets a
degree class D in a clique of G[D], which lies in one component C of
G[D], so when G[D] is triangle-free chi >= sum over C of ceil(|C|/2).
A k-colorability backtracking search (most-constrained vertex first,
color symmetry broken by pinning a maximum clique to colors
0..|clique|-1) then decides each k from the larger of the two bounds
upward. It keeps its domains as whole-graph masks: per color, the
vertices that may still take it, and each vertex's number of colors
left in bit-sliced counts, so a step is a few mask operations and no
loop over vertices. Each coloring it finds is re-checked to be proper
before it becomes the witness. Both searches keep their own
stack, so no interpreter setting depends on the graph size. They read
the clock at every node, the matching at every augmenting search and
the class bound at every class, so the deadline is the one stopping
rule and a solve overruns it by at most one step's work.

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


def bipartite_independent_set(
    g: Graph, mask: int, deadline: float = math.inf
) -> int | None:
    """A maximum independent set of g[mask], as a mask, when g[mask] is
    bipartite; None when it is not.

    Breadth-first mask sweeps 2-colour each component, left taking the
    even layers; an edge inside one layer is an odd cycle. A maximum
    matching grows by one augmenting search from each left vertex, and
    the clock is read once per search; past the deadline it raises
    ``SolverTimeout``. By König–Egerváry, with Z the vertices that
    alternating paths reach from the unmatched left vertices,
    (left ∩ Z) ∪ (right ∖ Z) is independent and has |mask| − ν vertices.
    """
    adj = g._adj
    left = 0
    rest = mask
    while rest:
        frontier = seen = rest & -rest
        even = True
        while frontier:
            if even:
                left |= frontier
            reach = 0
            for v in iter_bits(frontier):
                reach |= adj[v]
            if reach & frontier:
                return None
            frontier = reach & mask & ~seen
            seen |= frontier
            even = not even
        rest &= ~seen
    right = mask & ~left

    mate: dict[int, int] = {}
    free_right = right
    free_left = 0  # a left vertex no augmenting search matched stays free
    for u in iter_bits(left):
        if time.monotonic() > deadline:
            raise SolverTimeout
        # breadth-first over alternating paths from u; parent[y] is the
        # left vertex the search reached right vertex y from
        parent: dict[int, int] = {}
        frontier_left = [u]
        seen = end = 0
        while frontier_left and not end:
            reached = []
            for x in frontier_left:
                new = adj[x] & right & ~seen
                if hit := new & free_right:
                    end = hit & -hit
                    parent[end.bit_length() - 1] = x
                    break
                seen |= new
                for y in iter_bits(new):
                    parent[y] = x
                    reached.append(mate[y])
            frontier_left = reached
        if end:
            free_right ^= end
            y = end.bit_length() - 1
            while y >= 0:
                x = parent[y]
                y_next = mate.get(x, -1)
                mate[x], mate[y] = y, x
                y = y_next
        else:
            free_left |= 1 << u

    z_left = frontier = free_left
    z_right = 0
    while frontier:
        reach = 0
        for v in iter_bits(frontier):
            reach |= adj[v]
        reach &= right & ~z_right
        z_right |= reach
        frontier = sum(1 << mate[y] for y in iter_bits(reach))
        z_left |= frontier
    return (left & z_left) | (right & ~z_right)


def _largest_first(same: dict[int, int]) -> list[int]:
    """The class masks of ``degree_masks``, largest first, ties in the
    order of their lowest vertex."""
    return sorted(same.values(), key=int.bit_count, reverse=True)


def class_clique(
    g: Graph,
    deadline: float = math.inf,
    target: int = 0,
    classes: Sequence[int] | None = None,
) -> tuple[int, ...]:
    """A clique of ``delta_complement(g)`` from a bipartite degree class of g.

    Inside a degree class D, delta(g) is the complement of g[D], so an
    independent set of g[D] is a clique of delta(g). Classes are tried
    largest first (ties in the order of their lowest vertex; a caller
    that has them in that order passes them as ``classes``) while one
    could beat the best set so far, and a class whose g[D] is not
    bipartite is skipped. With a ``target``, a class smaller than it is
    not tried and the first set that reaches it is returned. Past the
    deadline the result is empty.
    """
    best = size = 0
    try:
        for mask in classes or _largest_first(degree_masks(g)):
            if mask.bit_count() <= size or mask.bit_count() < target:
                break
            found = bipartite_independent_set(g, mask, deadline)
            if found is not None and found.bit_count() > size:
                best, size = found, found.bit_count()
                if target and size >= target:
                    break
    except SolverTimeout:
        return ()
    return tuple(iter_bits(best))


def class_bound(
    g: Graph, deadline: float = math.inf, classes: Sequence[int] | None = None
) -> tuple[int, int]:
    """A lower bound on chi(delta_complement(g)) from a triangle-free
    degree class of g, and the mask of that class.

    Inside a degree class D, delta(g) is the complement of g[D], so a
    color class of delta(g) meets D in a clique of g[D], and the clique
    lies in one component C of g[D]. When g[D] is triangle-free the
    clique has at most two vertices, so chi >= sum over C of
    ceil(|C|/2). Breadth-first mask sweeps find the components and test
    each row of g[D] for an edge inside it. Classes are taken largest
    first, as in ``class_clique``, and the sweep stops at one no larger
    than the best bound so far, since a class bounds chi by at most |D|.
    The clock is read once per class; past the deadline, or when no
    class is triangle-free, the result is (0, 0).
    """
    best = best_mask = 0
    for mask in classes or _largest_first(degree_masks(g)):
        if mask.bit_count() <= best:
            break
        if time.monotonic() > deadline:
            return 0, 0
        bound = _pair_cover_bound(g, mask)
        if bound > best:
            best, best_mask = bound, mask
    return best, best_mask


def _pair_cover_bound(g: Graph, mask: int) -> int:
    """Sum of ceil(|C|/2) over the components C of g[mask]; 0 when
    g[mask] holds a triangle."""
    adj = g._adj
    bound = 0
    rest = mask
    while rest:
        frontier = seen = rest & -rest
        while frontier:
            reach = 0
            for v in iter_bits(frontier):
                row = adj[v] & mask
                for u in iter_bits(row):
                    if adj[u] & row:
                        return 0
                reach |= row
            frontier = reach & ~seen
            seen |= frontier
        bound += (seen.bit_count() + 1) // 2
        rest &= ~seen
    return bound


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
    known_clique: Callable[[int, float], tuple[int, ...]] | None = None,
    known_bound: Callable[[float], tuple[int, int]] | None = None,
) -> ChromaticResult:
    """Exact chromatic number with a proper witness coloring.

    Runs the DSATUR/clique sandwich first; any remaining gap is closed
    by deciding k-colorability for k from the clique bound upward; each
    coloring the search finds is re-checked with ``is_proper`` before it
    becomes the witness. On timeout the result is flagged inexact and
    carries the certified bracket plus the best proper coloring found.

    ``known_clique(palette, deadline)``, when given, is asked for a
    clique of g of DSATUR's palette size. One it returns of that size is
    re-checked and closes the solve without the clique search; any other
    answer is dropped and the clique search runs as without it.
    ``known_bound(deadline)``, when given, is asked for a lower bound on
    chi and its certificate when the clique falls short of the palette;
    the k-search starts at the larger of the bound and the clique size.
    """
    start = time.perf_counter()
    deadline = time.monotonic() + timeout
    witness = dsatur_upper(g)
    upper = witness.palette_size
    clique = known_clique(upper, deadline) if known_clique else ()
    if clique and len(clique) == upper:
        if not is_clique(g, clique):
            raise RuntimeError("internal error: clique verification failed")
    else:
        clique = max_clique_lower(g, deadline, target=upper).vertices
    lower = len(clique)
    method = "sandwich" if lower == upper else "branch-and-bound"
    bound_class = 0
    if known_bound and lower < upper:
        bound, mask = known_bound(deadline)
        if bound > upper:
            raise RuntimeError("internal error: lower bound above a proper coloring")
        if bound > lower:
            lower, bound_class = bound, mask
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

    The solve is ``chromatic_number``'s, with the class clique of g (see
    ``class_clique``) offered in place of the clique search: it closes
    the solve when it meets DSATUR's palette. Otherwise the clique
    search runs as on any graph, and the k-search starts at the larger
    of its clique and the class bound of g (see ``class_bound``). The
    degree classes of g are found once and shared by all three.
    """
    same = degree_masks(g)
    classes = _largest_first(same)
    return chromatic_number(
        delta_complement(g, same),
        timeout=timeout,
        known_clique=lambda palette, deadline: class_clique(g, deadline, palette, classes),
        known_bound=lambda deadline: class_bound(g, deadline, classes),
    )
