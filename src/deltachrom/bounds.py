"""Closed-form delta-chromatic values and bound checkers.

All arithmetic is exact: ceilings via integer division and the square
root in the sum bound squared away, so no check ever touches floats.
"""

from __future__ import annotations

from dataclasses import dataclass

from .families import FamilySpec
from .graphs import Graph, degree_masks


def ceil_div(a: int, b: int) -> int:
    """Ceiling of a/b for positive b."""
    return -(-a // b)


def degree_difference_set(g: Graph) -> frozenset[int]:
    """All positive pairwise degree differences occurring in g."""
    degs = list(degree_masks(g))  # highest first
    return frozenset(a - b for i, a in enumerate(degs) for b in degs[i + 1 :])


def class_counts(g: Graph) -> tuple[int, int]:
    """m, the number of degree classes of g, and n_max, the largest class size."""
    sizes = [mask.bit_count() for mask in degree_masks(g).values()]
    return len(sizes), max(sizes, default=0)


@dataclass(frozen=True)
class FormulaValue:
    """A closed-form delta-chromatic value with provenance.

    For the star/path family at path length 3 or 4 the stated closed
    form and the constructive proof disagree; both are exposed and
    ``value`` carries the constructive one, which brute force confirms.
    """

    value: int
    family: str
    statement_value: int | None = None
    proof_value: int | None = None
    note: str | None = None


def formula_chi_delta(spec: FamilySpec) -> FormulaValue | None:
    """Closed-form delta-chromatic number when one covers the term.

    Returns None outside every formula's hypothesis range (callers then
    fall back to the solver). The cycle and wheel forms are gated at
    n >= 4: C_3 and W_3 = K_4 are regular, their delta-complements are
    edgeless, and the closed forms fail there.
    """
    kind = spec.kind
    if kind == "path":
        (n,) = spec.params
        if n >= 5:
            return FormulaValue(ceil_div(n - 2, 2), "path")
        return None
    if kind == "cycle":
        (n,) = spec.params
        if n >= 4:
            return FormulaValue(ceil_div(n, 2), "cycle")
        return None
    if kind == "wheel":
        (n,) = spec.params
        if n >= 4:
            return FormulaValue(1 + ceil_div(n, 2), "wheel")
        return None
    if kind == "product" and len(spec.children) == 2:
        return _product_formula(spec.children[0], spec.children[1])
    return None


def _product_formula(a: FamilySpec, b: FamilySpec) -> FormulaValue | None:
    kinds = {a.kind, b.kind}
    if kinds == {"cycle", "path"}:
        cyc, pth = (a, b) if a.kind == "cycle" else (b, a)
        n = cyc.params[0]
        if pth.params[0] == 3 and n >= 5:
            return FormulaValue(2 * ceil_div(n, 2), "cycle-p3")
        return None
    if a.kind == "star" and b.kind == "star":
        m, n = a.params[0], b.params[0]
        if m >= 3 and n >= 3:
            return FormulaValue(m * n, "star-star")
        return None
    if kinds == {"star", "path"}:
        st, pth = (a, b) if a.kind == "star" else (b, a)
        m, n = st.params[0], pth.params[0]
        if m < 3 or n < 3:
            return None
        stated = m * ceil_div(n - 2, 2)
        if n in (3, 4):
            return FormulaValue(
                2 * m,
                "star-path",
                statement_value=stated,
                proof_value=2 * m,
                note=(
                    f"stated closed form gives {stated} at n={n}, the explicit "
                    f"coloring and clique give {2 * m}; exhaustive search "
                    "confirms the constructive value"
                ),
            )
        return FormulaValue(stated, "star-path")
    if a.kind == "path" and b.kind == "path":
        n, k = sorted((a.params[0], b.params[0]))
        if n >= 6:
            return FormulaValue(ceil_div((n - 2) * (k - 2), 2), "path-path")
        return None
    return None


@dataclass
class BoundCheck:
    """One evaluated inequality and whether its hypothesis holds; no verify
    row reads that, as the verify checks build only in-hypothesis instances."""

    lhs: int
    rhs: int
    holds: bool
    hypothesis_met: bool
    detail: str = ""


def ng_bounds_check(g: Graph, chi: int, chi_d: int) -> tuple[BoundCheck, BoundCheck]:
    """Both product- and sum-form bounds linking chi and chi_delta.

    Product: n_max <= chi * chi_d <= ((m+n)/2)^2, checked in integers as
    4*chi*chi_d <= (m+n)^2. Sum: 2*sqrt(n_max) <= chi + chi_d <= m+n,
    with the root handled as 4*n_max <= (chi+chi_d)^2. Hypothesis: at
    least 4 vertices.
    """
    n = g.n
    m, nmax = class_counts(g)
    hyp = n >= 4
    prod_mid = chi * chi_d
    product = BoundCheck(
        lhs=nmax,
        rhs=(m + n) ** 2,
        holds=nmax <= prod_mid and 4 * prod_mid <= (m + n) ** 2,
        hypothesis_met=hyp,
        detail=f"{nmax} <= {prod_mid} and 4*{prod_mid} <= {(m + n) ** 2}",
    )
    sum_mid = chi + chi_d
    total = BoundCheck(
        lhs=4 * nmax,
        rhs=m + n,
        holds=4 * nmax <= sum_mid**2 and sum_mid <= m + n,
        hypothesis_met=hyp,
        detail=f"4*{nmax} <= {sum_mid}^2 and {sum_mid} <= {m + n}",
    )
    return product, total


def upper_degree_diff_check(
    g: Graph, h: Graph, chi_d_g: int, chi_d_product: int
) -> BoundCheck:
    """chi_delta(G x H) <= n_max(H) * max(chi_delta(G), m(H)).

    Hypothesis (evaluated here): the positive degree-difference sets of
    the two factors are disjoint.
    """
    hyp = not (degree_difference_set(g) & degree_difference_set(h))
    return degree_diff_bound(chi_d_g, chi_d_product, class_counts(h), hyp)


def degree_diff_bound(
    chi_d_g: int, chi_d_product: int, counts_h: tuple[int, int], hypothesis_met: bool = True
) -> BoundCheck:
    """``upper_degree_diff_check`` from H's ``class_counts``, for callers
    that already hold them and know the hypothesis."""
    m_h, n_max_h = counts_h
    rhs = n_max_h * max(chi_d_g, m_h)
    return BoundCheck(
        lhs=chi_d_product,
        rhs=rhs,
        holds=chi_d_product <= rhs,
        hypothesis_met=hypothesis_met,
        detail=f"{chi_d_product} <= {n_max_h}*max({chi_d_g},{m_h}) = {rhs}",
    )


def lemma_ceiling_check(n: int, k: int) -> BoundCheck:
    """Strict boundary-vs-interior color count inequality for grids.

    2*ceil((n-2)/2) + 2*ceil((k-2)/2) + 1 < ceil((n-2)(k-2)/2), under
    the hypothesis n >= 6 and k >= 8.
    """
    hyp = n >= 6 and k >= 8
    lhs = 2 * ceil_div(n - 2, 2) + 2 * ceil_div(k - 2, 2) + 1
    rhs = ceil_div((n - 2) * (k - 2), 2)
    return BoundCheck(
        lhs=lhs,
        rhs=rhs,
        holds=lhs < rhs,
        hypothesis_met=hyp,
        detail=f"{lhs} < {rhs}",
    )
