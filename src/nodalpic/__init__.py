"""Combinatorial invariants of nodal curves, computed from weighted dual graphs."""

from .errors import CapExceeded, TotalDegreeError
from .graph import (
    Counts,
    DualGraph,
    NodeSet,
    Subcurve,
    Vertex,
    bridges,
    complexity,
    component_arithmetic_genus,
    component_codegree,
    connected_subcurves,
    counts,
    essential_connectivity,
    essential_graph,
    is_tree_like,
    laplacian,
    partial_normalization,
    subcurve_arithmetic_genus,
    vine_graph,
)
from .multidegree import Multidegree
from .classgroup import (
    ClassLabel,
    DegreeClassGroup,
    TwisterLattice,
    class_listing,
    class_of,
    class_representatives,
    degree_class_group,
    equivalent,
    semistabilize,
    twister_lattice,
    twister_multidegree,
)
from .stability import (
    StabilityStatus,
    StabilityVerdict,
    check_stability,
    check_stability_parts,
    enumerate_semistable,
    enumerate_stable,
    enumerate_stable_disconnected,
    semistable_verdicts,
    stability_status,
)
from .picard import (
    BoundaryPoint,
    DGeneralVerdict,
    NeronFiber,
    PicardType,
    Stratum,
    TypeClassification,
    classify_type_g_minus_1,
    d_general_verdict,
    irreducible_components,
    neron_fiber,
    specialize_two_component,
    strata,
)
from .theta import (
    ThetaStratum,
    WAnalysis,
    WComponent,
    theta_strata,
    w_components_vine_strictly_semistable,
    w_dimension,
)
from .abel import (
    CorrectionProfile,
    Degree1Embedding,
    Naturality,
    NaturalityVerdict,
    correction_profile_vine,
    degree1_abel_is_embedding,
    natural_g_minus_1_vine,
    naturality_necessary,
)

__version__ = "0.1.0"
