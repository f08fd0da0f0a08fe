"""boxtopo: box complexes of graphs, exact simplicial homology, and
topological lower bounds for the chromatic number."""

from .simplicial import (
    Involution,
    SimplicialComplex,
    Z2Complex,
    antipodal_cycle_z2,
    barycentric_subdivision,
    euler_characteristic,
    from_facets,
    isomorphic,
    nerve,
    octahedron_z2,
    sd_vertex_faces,
    star,
    subdivide_involution,
    suspension,
    two_points_z2,
    z2_suspension,
)
from .graphs import (
    Graph,
    add_cone_vertex,
    chromatic_number,
    common_neighbors,
    complete_graph,
    cone_k,
    connected_graph_corpus,
    connected_graphs,
    cycle_graph,
    graph_from_z2_complex,
    kneser_graph,
)
from .builders import (
    Builds,
    box_complex,
    box0_complex,
    cones_over_shores_complex,
    hom_k2_order_complex,
    neighborhood_complex,
    shore_subcomplex,
)
from .homology import (
    ChainComplex,
    HomologyProfile,
    SnfResult,
    boundary_matrices,
    collapse_reduce,
    homological_connectivity,
    reduced_homology,
    smith_normal_form,
)
from .bounds import (
    BoundReport,
    VerificationOutcome,
    lovasz_bound,
    neighborhood_realizability_search,
    sarkaria_bound,
    verify_cone_graph,
    verify_construction_roundtrip,
    verify_even_euler,
    verify_hom_equivalence,
    verify_nerve_identity,
    verify_shore_retract,
    verify_suspension_relation,
)

__version__ = "0.1.0"
