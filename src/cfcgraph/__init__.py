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
    verify_conflict_free_connected,
)
from .decomposition import (
    BlockDecomposition,
    block_decomposition,
    select_block_edges,
)
from .graph import (
    Graph,
    build_graph,
    canonical_edge,
    format_edge_list,
    is_complete,
    is_connected,
    min_degree,
    min_nonadjacent_degree_sum,
    parse_edge_list,
    read_edge_list,
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
    TheoremCheck,
    TheoremReport,
    check_sharpness,
    check_theorem,
    run_harness,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
