"""Exact chromatic number engine with certified lower and upper bounds.

Strategy, in order: a DSATUR coloring gives the upper bound. For
``chi_delta`` one pass over the degree classes of G comes next, for one
certificate, the class bound: inside a degree class D, delta(G) is the
complement of G[D], so a color class of delta(G) meets D in a clique of
G[D], inside one component C. When G[D] is triangle-free, that gives
chi >= sum over C of ceil(|C|/2), and when that bound is below the
palette, DSATUR on delta(G) with a matching of each class contracted
can meet it, unless the fold leaves a larger clique in D. A bound that
meets the palette closes the solve with no clique.
Otherwise one greedy clique, grown in the graph's degree order, closes
the solve when it meets the palette; else a branch-and-bound maximum
clique, pruned by the greedy color classes of each node's candidates,
gives the lower bound. It stops at the first clique of the palette's
size, which is maximum since omega <= chi <= palette; when the deadline
cuts it, the larger of its clique and the greedy one is kept. A
k-colorability backtracking search (in DSATUR's order, with the clique
pinned to colors 0..|clique|-1 and its domains kept as whole-graph
masks) then decides each k from the larger of the clique size and the
class bound upward. Each coloring it finds is re-checked to be proper
before it becomes the witness. DSATUR and the k-search break degree
ties on the degree classes in the order the graph keeps them, highest
degree first. DSATUR starts first fit at the smallest leftmost subtree
of its color-mask tree that holds the first unused color, renews the
tree up to the first unchanged node and stops at the first vertex of
degree 0 it picks; before each branch the k-search gives every vertex
with one color left that color, and it builds its wipe-out mask only on
a removal. The clique and k-colorability searches keep their own stack,
so no interpreter setting depends on the graph size. The clique search
reads the clock at every node, the k-search once per branch and every
256 forced moves, the greedy clique once before it grows (and grows
none past the deadline), the class pass at every class and every 256
vertices it sweeps, the matching every 256 pairs, and the contraction
on entry and every 256 rows it folds or vertices it colors, so the
deadline is the one stopping rule and a solve overruns it by at most
one step's work.

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

    def color_classes(cand: int) -> list[int]:
        # greedy colouring of the candidate set: one vertex mask per class
        classes: list[int] = []
        while cand:
            q = rest = cand
            while q:
                low = q & -q
                q &= ~(adj[low.bit_length() - 1] | low)
                rest ^= low
            classes.append(cand ^ rest)
            cand = rest
        return classes

    best_size = best_mask = 0
    # one frame per open node: [clique mask, clique size, colour classes
    # left to branch on (the last one first), their union]
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
            stack.append([rmask, rsize, color_classes(cand), cand])
            cand = 0
        frame = stack[-1]
        rmask, rsize, classes, local = frame
        if not classes or rsize + len(classes) <= best_size:
            stack.pop()
            if not stack:
                break
            continue
        last = classes[-1]
        v = last.bit_length() - 1
        vb = 1 << v
        if last == vb:
            classes.pop()
        else:
            classes[-1] = last ^ vb
        frame[3] = local & ~vb
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


def _greedy_clique(g: Graph) -> tuple[int, ...]:
    """A maximal clique of g, in increasing id order, grown in g's degree
    order: each step adds the lowest id of the first class of
    ``degree_masks(g)``, highest degree first, that meets the common
    neighbours of the clique so far. The candidates only shrink, so a
    class that no longer meets them never does again."""
    adj = g._adj
    clique = 0
    cand = (1 << g.n) - 1
    for klass in degree_masks(g).values():
        while meet := cand & klass:
            low = meet & -meet
            clique |= low
            cand &= adj[low.bit_length() - 1]
        if not cand:
            break
    return tuple(iter_bits(clique))


def dsatur_upper(g: Graph, deadline: float = math.inf) -> Coloring:
    """Proper DSATUR coloring; deterministic given the graph.

    Vertex choice: maximum saturation, then maximum degree, then lowest
    id; the vertex gets the lowest color no neighbour has.

    Each step is O(log n) whole-graph mask operations and at most one
    per degree class, with no loop over vertices. The vertices that see
    color c are ``seen[c]``, the union of the neighbour rows of the
    vertices colored c, so a vertex's saturation is the number of masks
    ``seen`` it is in. Saturations are kept bit-sliced: ``sat[j]`` holds
    the vertices whose saturation has bit j set, and coloring v with c
    adds one to the uncolored vertices of ``adj[v] & ~seen[c]`` by a
    ripple carry over the planes. The choice narrows the uncolored mask
    plane by plane from the highest bit down, then to the first class of
    ``degree_masks(g)``, which keeps them highest degree first, that
    meets it, and takes the lowest set bit. The masks ``seen`` are the
    leaves of a binary tree whose every inner node is the AND of its two
    children, that is the vertices that see every color below it; first
    fit descends it to the lowest color v does not see, going left unless
    the left child's mask holds v, and the ANDs above ``seen[c]`` are
    renewed up to the first node that keeps its mask. No vertex sees a
    color from the palette up, so the descent starts at the leftmost
    node whose span of leaves exceeds the palette, the root at the
    latest. When the chosen vertex has no neighbour, the highest degree
    left is 0: the vertices left are isolated, keep color 0 and are not
    stepped through, and the palette is at least 1. The clock is read
    once per 256 colored vertices, after the 256th first; past the
    deadline DSATUR raises ``SolverTimeout``.
    """
    n = g.n
    if n == 0:
        return Coloring((), 0)
    adj = g._adj
    classes = degree_masks(g)
    by_degree = classes.values()
    max_degree = next(iter(classes))  # highest degree first
    # first fit never goes past the maximum degree, so 2 ** (its bit
    # length) leaves hold every color; leaf `leaves + c` is seen[c]
    leaves = 1 << max_degree.bit_length()
    tree = [0] * (2 * leaves)
    # a saturation is at most the maximum degree
    sat = [0] * max_degree.bit_length()
    colors = [0] * n
    palette = done = 0
    start = leaves  # the leftmost node of more than `palette` leaves
    uncolored = (1 << n) - 1
    while uncolored:
        cand = uncolored
        for plane in reversed(sat):
            if narrowed := cand & plane:
                cand = narrowed
        for klass in by_degree:
            if narrowed := cand & klass:
                cand = narrowed
                break
        low = cand & -cand
        v = low.bit_length() - 1
        row = adj[v]
        if not row:
            # the highest degree left is 0: the rest keep color 0
            break
        uncolored ^= low
        node = start
        while node < leaves:
            node <<= 1
            if tree[node] & low:
                node += 1
        c = node - leaves
        colors[v] = c
        if c == palette:
            palette += 1
            start = leaves >> palette.bit_length() or 1
        carry = row & uncolored & ~tree[node]
        tree[node] |= row
        while node > 1:
            both = tree[node] & tree[node ^ 1]
            node >>= 1
            if tree[node] == both:
                break
            tree[node] = both
        j = 0
        while carry:
            plane = sat[j]
            sat[j] = plane ^ carry
            carry &= plane
            j += 1
        done += 1
        if not done & 255 and time.monotonic() > deadline:
            raise SolverTimeout
    return Coloring(tuple(colors), palette or 1)


def _class_sweep(g: Graph, mask: int, deadline: float = math.inf) -> int:
    """The pair-cover bound of g[mask].

    Breadth-first mask sweeps walk each component C of g[mask] layer by
    layer. Every triangle has an edge inside a layer, so the triangle
    test looks only at those edges. When g[mask] is triangle-free the
    bound is the sum over C of ceil(|C|/2); otherwise it is 0. The clock
    is read at the end of the first layer that brings the vertices swept
    since the last read to 256, so never below 256 vertices; past the
    deadline the sweep raises ``SolverTimeout``.
    """
    adj = g._adj
    bound = swept = 0
    rest = mask
    while rest:
        frontier = seen = rest & -rest
        while frontier:
            reach = 0
            for v in iter_bits(frontier):
                reach |= adj[v]
            if inner := reach & frontier:
                for v in iter_bits(inner):
                    row = adj[v] & mask
                    if any(adj[u] & row for u in iter_bits(row & inner)):
                        return 0
            swept += frontier.bit_count()
            if swept >= 256:
                swept = 0
                if time.monotonic() > deadline:
                    raise SolverTimeout
            frontier = reach & mask & ~seen
            seen |= frontier
        bound += (seen.bit_count() + 1) // 2
        rest &= ~seen
    return bound


def class_certificates(g: Graph, palette: int, deadline: float = math.inf) -> tuple[int, int]:
    """A lower bound on the chromatic number of ``delta_complement(g)``
    and the mask of the degree class of g that gives it.

    A color class of delta(g) meets a degree class D in a clique of
    g[D], inside one component, so the pair-cover bound of a
    triangle-free g[D] bounds chi from below (see ``_class_sweep``).
    Classes are swept largest first, ties highest degree first, until
    none left could beat the bound, which is at most |D|, or the bound
    meets ``palette``. The clock is read once per class, and inside a
    sweep as ``_class_sweep`` reads it; past the deadline the pass ends
    with what it has.
    """
    best = best_mask = 0
    for mask in sorted(degree_masks(g).values(), key=int.bit_count, reverse=True):
        if mask.bit_count() <= best or best >= palette or time.monotonic() > deadline:
            break
        try:
            bound = _class_sweep(g, mask, deadline)
        except SolverTimeout:
            break
        if bound > best:
            best, best_mask = bound, mask
    return best, best_mask


def _first_fit_pairs(g: Graph, mask: int, deadline: float = math.inf) -> list[tuple[int, int]]:
    """A first-fit matching of g[mask], as (lower, higher) pairs: the lowest
    free vertex is matched to its lowest free neighbour. The clock is read
    once per 256 pairs, after the 256th first; past the deadline it raises
    ``SolverTimeout``."""
    pairs = []
    while mask:
        v = (mask & -mask).bit_length() - 1
        mask ^= 1 << v
        if free := g._adj[v] & mask:
            u = (free & -free).bit_length() - 1
            mask ^= 1 << u
            pairs.append((v, u))
            if not len(pairs) & 255 and time.monotonic() > deadline:
                raise SolverTimeout
    return pairs


def _contracted_dsatur(
    d: Graph, pairs: list[tuple[int, int]], klass: int, bound: int, deadline: float = math.inf
) -> Coloring | None:
    """DSATUR on d, the delta-complement of g, with each pair contracted
    into its lower vertex, whose row becomes the OR of both; the higher
    one's row is emptied, and it takes the lower one's color. Each row
    folds the higher vertices M_o at offset o = higher - lower down with
    one shift per offset, not one step per bit. ``pairs`` holds the
    first-fit matching of each degree class of g, ``klass`` among them,
    with g[klass] triangle-free and of pair bound ``bound``. The class's
    unmatched and lower pair vertices are then pairwise adjacent in the
    folded rows, or g[klass] would hold a triangle or first fit an
    unmatched edge. When they number other than ``bound``, or one row
    holds them all, no coloring meets the bound: the result is None,
    with no contracted graph built. The clock is read on entry, once per
    256 folded rows, after the 256th first, and before the contracted
    graph is built; past the deadline it raises ``SolverTimeout``, and
    DSATUR keeps the deadline from there."""
    if time.monotonic() > deadline:
        raise SolverTimeout
    rows = list(d._adj)
    by_offset: dict[int, int] = {}
    for low, high in pairs:
        rows[low] |= rows[high]
        rows[high] = 0
        by_offset[high - low] = by_offset.get(high - low, 0) | 1 << high
    keep = ~sum(by_offset.values())  # the M_o are disjoint
    if (clique := klass & keep).bit_count() != bound:
        return None
    for v, row in enumerate(rows):
        rows[v] = row & keep
        for offset, moved in by_offset.items():
            rows[v] |= (row & moved) >> offset
        if rows[v] & clique == clique:
            return None
        if v & 255 == 255 and time.monotonic() > deadline:
            raise SolverTimeout
    if time.monotonic() > deadline:
        raise SolverTimeout
    contracted = dsatur_upper(Graph._from_masks(d.n, rows), deadline)
    colors = list(contracted.colors)
    for low, high in pairs:
        colors[high] = colors[low]
    return Coloring(tuple(colors), contracted.palette_size)


def _k_coloring_search(
    g: Graph, k: int, clique: tuple[int, ...], deadline: float
) -> tuple[int, ...] | None:
    """Find a proper k-coloring or prove none exists.

    Branches on the open vertex DSATUR's rule picks: the fewest colors
    left, then the highest degree in g, then the lowest id; it tries the
    vertex's colors in increasing order. Only the first unused color may
    open a new color class, which prunes nothing but palette
    permutations. The clique, of at most k vertices, is pinned to colors
    0..|clique|-1. Before each branch the forced moves are drained:
    every open vertex with one color left takes it, lowest id first,
    wave by wave, until none is left or a move wipes a domain out. The
    rule picks such vertices before any other, and neither their colors
    nor the state they leave depend on the order; a forced color is
    never above the first unused one, since the colors from there up
    are open to every vertex. So the branches, refutations and colorings
    are those of the search that steps through the forced moves one by
    one. The clock is read once per round, a drain and the branch after
    it, and once per 256 moves inside a drain; past the deadline the
    search raises ``SolverTimeout``.

    The domains are kept as whole-graph masks, with no loop over
    vertices: ``can[c]`` holds the vertices that may still take color c,
    and the number of colors an open vertex has left is bit-sliced over
    ``planes``, as DSATUR's saturations are. Coloring v with c takes the
    neighbours ``adj[v] & can[c]`` out of ``can[c]`` and one from the
    counts of the open ones by a ripple borrow; an open neighbour with
    one color left, in no plane above the lowest, is a wipe-out, tested
    only when the move takes an open neighbour out and before anything
    changes. A branch's frame keeps the open mask, the colors used and
    the planes from before it, and the mask each move since took out,
    its own and its drain's; a conflict in that drain or a backtrack
    puts the masks back and restores the rest. The choice narrows the
    open mask plane by plane from the highest bit down, then to the
    first class of ``degree_masks(g)``, highest degree first as DSATUR
    reads them, that meets it, and takes the lowest set bit.
    """
    n = g.n
    if n and not k:
        return None  # with no plane, every open vertex would look forced
    adj = g._adj
    free = (1 << n) - 1
    can = [free] * k
    planes = [free if k >> j & 1 else 0 for j in range(k.bit_length())]
    above_one = range(1, len(planes))
    by_degree = degree_masks(g).values()
    colors = [-1] * n

    def assign(v: int, c: int, free: int) -> int | None:
        # take v's neighbours out of can[c]; None on a wipe-out, so every
        # borrow ends inside the planes
        removed = adj[v] & can[c]
        if borrow := removed & free:
            several = 0
            for j in above_one:
                several |= planes[j]
            if borrow & ~several:
                return None
            j = 0
            while borrow:
                plane = planes[j]
                planes[j] = plane ^ borrow
                borrow &= ~plane
                j += 1
        can[c] ^= removed
        colors[v] = c
        return removed

    for i, v in enumerate(clique):
        if assign(v, i, free) is None:
            return None
        free ^= 1 << v

    # one frame per branch: (vertex, its bit, its color, and the state
    # before it: colors used, open mask, planes, then the moves since,
    # the branch's and its drain's, as (color, neighbours taken out))
    stack: list[tuple[int, int, int, int, int, list[int], list[tuple[int, int]]]] = []
    moves: list[tuple[int, int]] = []  # the root's are never undone
    used = len(clique)
    while True:
        if time.monotonic() > deadline:
            raise SolverTimeout
        # an open vertex has a color left, so one in no plane above the
        # lowest has exactly one
        drained = 0
        conflict = False
        while not conflict:
            several = 0
            for j in above_one:
                several |= planes[j]
            wave = free & ~several
            if not wave:
                break
            while wave:
                vb = wave & -wave
                wave ^= vb
                v = vb.bit_length() - 1
                c = 0
                while not can[c] & vb:
                    c += 1
                removed = assign(v, c, free)
                if removed is None:
                    conflict = True
                    break
                moves.append((c, removed))
                free ^= vb
                if c == used:
                    used += 1
                drained += 1
                if not drained & 255 and time.monotonic() > deadline:
                    raise SolverTimeout
        if conflict:
            c = top = 0  # back to the last branch's next color
        else:
            if not free:
                return tuple(colors)
            cand = free
            for plane in reversed(planes):
                if narrowed := cand & ~plane:
                    cand = narrowed
            for klass in by_degree:
                if narrowed := cand & klass:
                    cand = narrowed
                    break
            vb = cand & -cand
            v = vb.bit_length() - 1
            c = 0
            top = used + 1 if used < k else k
            before = planes[:]
        while True:
            while c < top and not can[c] & vb:
                c += 1
            if c < top:
                removed = assign(v, c, free)
                if removed is not None:
                    moves = [(c, removed)]
                    stack.append((v, vb, c, used, free, before, moves))
                    free ^= vb
                    if c == used:
                        used += 1
                    break
                c += 1
            elif stack:
                v, vb, c, used, free, before, moves = stack.pop()
                for color, removed in moves:
                    can[color] |= removed
                planes[:] = before
                top = used + 1 if used < k else k
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
    ``lower`` above ``len(clique)``, 0 when none did. The clique is ()
    when that bound, the class pass's one certificate, meets the palette,
    as a bipartite class's often does, and then no clique search runs.
    The result is exact when the ends meet; else ``chi`` is None.
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
    certificates: Callable[[int, float], tuple[int, int, Coloring | None]] | None = None,
) -> ChromaticResult:
    """Exact chromatic number with a proper witness coloring.

    Runs the DSATUR/clique sandwich first; any remaining gap is closed
    by deciding k-colorability for k from the lower bound upward; each
    coloring the search finds is re-checked with ``is_proper`` before it
    becomes the witness. On timeout the result is flagged inexact and
    carries the certified bracket plus the best proper coloring found.

    ``certificates(palette, deadline)``, when given, is asked once,
    after DSATUR and before the clique search, for a lower bound on
    chi, the mask that certifies it, and a coloring of g or None. A
    coloring with fewer colors than DSATUR's is re-checked with
    ``is_proper`` and becomes the witness. A bound that meets the best
    palette closes the solve with the clique () and no clique search;
    otherwise the clique stage runs as without the hook.

    The clique stage reads the clock once; in time, it grows one greedy
    clique (``_greedy_clique``) and re-checks it with ``is_clique``. A
    greedy clique that meets the palette is the lower certificate, and
    ``max_clique_lower`` does not run; otherwise it runs with the
    palette as its target, and its clique is kept when the search is
    complete or its clique is the larger. The k-search starts at the
    larger of the bound and the clique size; it reads the clock once per
    branch, after giving every vertex with one color left that color,
    and once per 256 such forced moves. A NaN timeout raises
    ``ValueError``: no clock reading ever passes its deadline.
    """
    if math.isnan(timeout):
        raise ValueError("timeout must be a number of seconds, got nan")
    start = time.perf_counter()
    deadline = time.monotonic() + timeout
    witness = dsatur_upper(g)
    upper = witness.palette_size
    bound, bound_class, better = certificates(upper, deadline) if certificates else (0, 0, None)
    if better is not None and better.palette_size < upper:
        if not is_proper(g, better):
            raise RuntimeError("internal error: witness verification failed")
        witness, upper = better, better.palette_size
    if bound > upper:
        raise RuntimeError("internal error: lower bound above a proper coloring")
    clique = ()
    if bound < upper:
        if time.monotonic() <= deadline:
            clique = _greedy_clique(g)
            if not is_clique(g, clique):
                raise RuntimeError("internal error: clique verification failed")
        if len(clique) < upper:
            found = max_clique_lower(g, deadline, target=upper)
            if found.complete or found.size > len(clique):
                clique = found.vertices
    lower = max(len(clique), bound)
    method = "sandwich" if lower == upper else "branch-and-bound"
    bound_class = bound_class if bound > len(clique) else 0
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
    its one certificate is the class bound. A bound that meets DSATUR's
    palette, as a bipartite class's does on the path and star-path
    grids, closes the solve without the clique search; otherwise the
    k-search starts at the larger of the clique and the bound. When there
    is a bound and it is below the palette, ``_contracted_dsatur``
    colours the contraction of each class's first-fit matching unless its
    clique in the bound's class exceeds the bound, at the cost of one
    clock read, the matching's and the contraction's; past the deadline
    the hook gives no colouring.
    """
    d = delta_complement(g)

    def certificates(palette: int, deadline: float):
        bound, mask = class_certificates(g, palette, deadline)
        if not 0 < bound < palette or time.monotonic() > deadline:
            return bound, mask, None
        try:
            pairs = [pair for klass in degree_masks(g).values()
                     for pair in _first_fit_pairs(g, klass, deadline)]
            return bound, mask, _contracted_dsatur(d, pairs, mask, bound, deadline)
        except SolverTimeout:
            return bound, mask, None

    return chromatic_number(d, timeout=timeout, certificates=certificates)
