"""Delta-complements, exact delta-chromatic numbers, and product theorems."""

from .graphs import (
    MAX_PRODUCT_VERTICES,
    Graph,
    ProductIndex,
    SizeLimitError,
    cartesian_product,
    complement,
    degree_masks,
    delta_complement,
    from_json,
    induced_subgraph,
    is_connected,
    to_dot,
    to_json,
)
from .families import (
    FamilySpec,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    format_spec,
    generate,
    is_regular,
    join,
    parse_spec,
    path_graph,
    random_graph,
    star_graph,
    wheel_graph,
    windmill_graph,
)
from .chromatic import (
    ChromaticResult,
    CliqueResult,
    Coloring,
    chi_delta,
    chromatic_number,
    class_certificates,
    dsatur_upper,
    is_clique,
    is_proper,
    max_clique_lower,
    oracle_chromatic,
)
from .structure import (
    DeltaProductDecomposition,
    delta_of_product,
    equality_holds,
    extra_edge_set,
)
from .constructions import (
    ConstructionResult,
    degree_diff_product_coloring,
    join_p3_coloring,
    path_path_coloring,
    star_path_coloring,
    star_star_coloring,
)
from .bounds import (
    BoundCheck,
    FormulaValue,
    ceil_div,
    degree_difference_set,
    formula_chi_delta,
    lemma_ceiling_check,
    ng_bounds_check,
    upper_degree_diff_check,
)

__version__ = "0.1.0"
