"""Median sets, pairings, and consensus-axiom checks on finite graphs."""

from .benzenoid import (
    Benzenoid,
    TreeEmbedding,
    build_benzenoid,
    incomplete_hexagons,
    tree_embedding,
    verify_benzenoid_properties,
)
from .classify import (
    ClassReport,
    check_conditions_tc_qc,
    classify,
    is_bipartite_helly,
    is_helly,
    is_median_graph,
    is_meshed,
    is_modular,
)
from .consensus import (
    TabulatedConsensus,
    check_axiom,
    compare_functions,
    l6_eval,
    tabulate_l6,
    tabulate_median,
    verify_l6_is_abc,
)
from .errors import (
    BudgetError,
    DisconnectedGraphError,
    FormatError,
    InputError,
)
from .graph import Graph, generate
from .hypergraphs import (
    Hypergraph,
    build_counterexample,
    clique_hypergraph,
    dual_hypergraph,
    incidence_graph,
    is_helly_hypergraph,
)
from .pairing import (
    AuxiliaryGraph,
    Pairing,
    auxiliary_graph,
    double_pairing_property,
    has_fractional_perfect_b_matching,
    has_perfect_pairing,
    has_perfect_pi_matching,
    local_graph,
    ma_violation_search,
    matching_stable_set_check,
    me_polytope,
    pairing_property_bounded_search,
)
from .profiles import (
    Profile,
    check_unimodal_equals_connected,
    is_local_median,
    median_set,
    total_distance,
)

__version__ = "0.1.0"
