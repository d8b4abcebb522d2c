"""cubicmatch: exact perfect-matching structure analysis of small cubic
bridgeless multigraphs.

The package provides exact matching counting under edge constraints,
tight-cut (brick and brace) decomposition with polytope dimensions,
cyclic edge-connectivity, the klee-graph triangle calculus, exhaustive
catalogs of small cubic bridgeless multigraphs, and a verification
harness that checks every per-instance bound over those catalogs. Each
function exported here serves that verdict: it is called on the product
path, traced by the benchmark, or kept for the planned lemma stream, and
tests/test_public_surface.py holds each to its reason. The reference
implementations the tests compare against (blossom existence, the
multiplicity-matrix brute force, Edmonds' polytope membership, the
brick and tight-cut tests, the vertex separator search, the klee core
and nice cuts) live in the test suite.
"""

from .brick_brace import (
    BRACE,
    BRICK,
    Decomposition,
    decompose,
    pm_affine_dimension,
)
from .connectivity import (
    NO_CYCLIC_CUT,
    bridges,
    cyclic_edge_connectivity,
    cyclically_edge_connected_at_least,
    edge_connectivity,
    enumerate_cuts,
    is_cyclic_cut,
)
from .formats import EDGE_LIST, GRAPH6, SPARSE6, ParseError, parse, write
from .harness import (
    BipartiteBoundTable,
    BoundReport,
    bipartite_companion_check,
    bound_table,
    bridgeless_cubic_catalog,
    generate_catalog,
    scarce_matching_graphs,
    verify_catalog,
    verify_graph,
)
from .klee import (
    KleeStats,
    KleeVertexType,
    enumerate_klee,
    expand_and_check,
    is_klee,
    klee_stats,
    vertex_type,
)
from .matching import (
    BoundaryProfile,
    MatchingProfile,
    boundary_profile,
    count_perfect_matchings,
    count_perfect_matchings_oracle,
    enumerate_perfect_matchings,
    is_matching_covered,
    matching_profile,
)
from .multigraph import (
    Cut,
    MultiGraph,
    canonical_form,
    contract,
    four_cut_completion_edges,
    four_cut_completion_vertices,
    make_cut,
    replace_vertex_with_triangle,
)

__version__ = "0.1.0"
