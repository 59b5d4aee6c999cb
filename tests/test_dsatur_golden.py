"""`dsatur_upper` colourings pinned by one SHA-256 digest.

The digest covers ``dsatur_upper(delta_complement(g)).colors`` over four
fixed sets: the 130 graphs of the solver benchmark's `search` workload
(the 22 terms and 108 G(n,p) graphs of ``test_solve_golden``), the path
grids X(Pa,Pb) for a, b in {10, 17, 25, 40}, the star-path products
X(S1,m,Pn) for m in {3, 8, 12} and n in {5, 20, 40}, and every member of
``degree_diff_universe(30)``. The solve golden does not show a change to
DSATUR's colouring where the clique/class sandwich closes a solve with
DSATUR's witness, as on the grids; this digest does. It was recorded
before DSATUR's degree tie-break moved from bit-sliced degree planes to
the degree classes. To re-record after an intended change, print
``_digest()`` and say in CHANGES.md which colourings changed.
"""

import hashlib

from deltachrom import delta_complement, dsatur_upper, generate, parse_spec
from deltachrom.verification import degree_diff_universe

from test_solve_golden import SEARCH_TERMS, gnp_graphs

GOLDEN = "eec21c35536f42f7a68fcf46e7c362fec626eeaf9f39609b64dfd2c2a43310f8"

GRID_SIDES = (10, 17, 25, 40)


def _graphs():
    yield from (generate(parse_spec(term)) for term in SEARCH_TERMS)
    yield from gnp_graphs()
    for a in GRID_SIDES:
        for b in GRID_SIDES:
            yield generate(parse_spec(f"X(P{a},P{b})"))
    for m in (3, 8, 12):
        for n in (5, 20, 40):
            yield generate(parse_spec(f"X(S1,{m},P{n})"))
    yield from (generate(spec) for spec in degree_diff_universe(30))


def _digest() -> str:
    h = hashlib.sha256()
    for g in _graphs():
        h.update(repr(dsatur_upper(delta_complement(g)).colors).encode())
    return h.hexdigest()


def test_dsatur_colourings_are_unchanged():
    assert sum(1 for _ in _graphs()) == 272
    assert _digest() == GOLDEN
