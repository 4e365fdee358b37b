"""Conflict-free connection coloring toolkit.

Decomposes graphs into blocks and cut edges, constructs explicit conflict-free
connection 2-colorings, computes exact conflict-free connection numbers by
bounded exhaustive search, generates the extremal families, and empirically
verifies the degree-condition theorems.
"""

from .coloring import (
    CfcVerdict,
    EdgeColoring,
    cfc_path_formula,
    construct_two_coloring,
    is_conflict_free_path,
    make_coloring,
    normalize_coloring,
    two_coloring_hypothesis_holds,
    verify_conflict_free_connected,
)
from .decomposition import (
    Block,
    BlockDecomposition,
    BlockMatching,
    BridgeComponent,
    CutEdgeProfile,
    block_decomposition,
    count_cut_edges,
    cut_edge_profile,
    find_cut_edges,
    select_block_matching,
)
from .graph import (
    Graph,
    VertexDegreeView,
    build_graph,
    canonical_edge,
    degree_view,
    format_edge_list,
    is_complete,
    is_connected,
    min_nonadjacent_degree_sum,
    parse_edge_list,
    read_edge_list,
    write_edge_list,
)
from .solver import (
    CfcResult,
    SearchStats,
    TwoColoringSearch,
    cfc_bracket,
    exact_cfc,
    exists_two_coloring,
)
from .theorems import (
    HarnessConfig,
    TheoremCheck,
    TheoremReport,
    check_sharpness,
    check_theorem,
    check_thm_3_1,
    check_thm_3_4,
    check_thm_4_x,
    harness_config,
    run_harness,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
