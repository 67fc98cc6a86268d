"""Total dominator total coloring toolkit.

Exact solvers, certificate verifiers, and closed-form constructions for
domination-flavored coloring invariants of small graphs, with special
support for cycles and paths where the mixed invariants have exact
formulas and explicit optimal certificates.
"""

from .closed_forms import (
    CONSTRUCTED,
    CYCLE,
    PATH,
    STORED_TABLE,
    FamilyInstance,
    FormulaValue,
    alpha_mix,
    certificate_source,
    chi_tt,
    gamma_tm,
    max_mixed_independent_set,
    min_tmds,
    tdtc_certificate,
)
from .graphs import (
    DomainError,
    Edge,
    Graph,
    GraphParseError,
    ObjectId,
    TotalGraph,
    Vertex,
    cycle,
    format_object,
    induced_subgraph,
    labels_to_json,
    line_graph,
    mixed_neighbors,
    mixed_objects,
    object_key,
    parse_object,
    path,
    read_edge_list,
    to_dot,
    total_graph,
    total_graph_to_dot,
    write_edge_list,
)
from .solvers import (
    InvariantResult,
    SearchBudget,
    chromatic_number,
    independence_number,
    mixed_independence_number,
    tdtc_number,
    total_chromatic_number,
    total_domination_number,
    total_dominator_chromatic_number,
    total_mixed_domination_number,
)
from .verify import (
    MIXED_UNIVERSE,
    VERTEX_UNIVERSE,
    Coloring,
    DominationReport,
    coloring_from_total,
    coloring_to_json,
    coloring_to_total,
    common_neighborhood,
    is_independent_set,
    is_mixed_independent_set,
    is_proper_coloring,
    is_proper_total_coloring,
    is_tdc,
    is_tdtc,
    is_total_dominating_set,
    is_total_mixed_dominating_set,
    load_certificate,
    object_set_to_json,
    tdc_from_tds,
)

__version__ = "0.1.0"
