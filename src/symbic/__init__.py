"""Symmetric tropical rank-2 matrices and their symmetric bicolored trees.

Exact (rational) tropical rank tests, the matrix <-> tree correspondence,
enumeration of tree types, a verified shelling order for the simplicial
complex of trees, cone parameterizations, and the algebraic matroid via
Cayley matrices.
"""

from .correspond import (
    LeafMetric,
    NotRankTwoError,
    RankOneMatrixError,
    ReconstructionError,
    base_point,
    leaf_distances,
    leaf_metric_from_matrix,
    lineality_identity_check,
    matrices_agree_mod_lineality,
    matrix_from_tree,
    path_matrix_from_tree,
    tree_from_matrix,
)
from .counting import (
    RationalSeries,
    SizeCapError,
    TreeCatalog,
    count_full_trunk,
    count_one_vertex_trunk,
    count_regular,
    enumerate_faces,
    enumerate_regular,
    random_regular_tree,
    series_full_trunk,
    series_one_vertex_trunk,
    series_regular,
)
from .fan import coarse_cells, refinement_check, sample_interior, signature
from .matroid import (
    CayleyMatrix,
    basis_transition_check,
    cayley_matrix,
    conjecture_scan,
    exact_rank,
    ground_set,
    matroid_bases,
    render_conjecture_report,
    union_bases,
)
from .shelling import (
    EdgeOrder,
    TreeComparator,
    reduce_by_twig,
    rule_order,
    shelling_check,
    shelling_order,
    verify_shelling,
)
from .trees import (
    InvalidMoveError,
    MalformedTreeError,
    SymbicTree,
    Violation,
    star_tree,
    tree_of_single_pair,
)
from .tropical import (
    MinorSizeError,
    TropMatrix,
    TropicalError,
    canonicalize_mod_lineality,
    hilbert_distance,
    rank_one_matrix,
    sym_trop_rank,
    trop_rank,
)

__version__ = "0.1.0"
