"""Exact signed Minkowski decompositions and volumes of matroid polytopes.

The library decomposes base polytopes, independent set polytopes, and
truncation flag polytopes into signed sums of coordinate simplices, and
computes their lattice-normalized volumes from the beta and gamma
invariants of contractions, cross-validated by an independent exact
geometry oracle.
"""

from .bitset import elements_of, format_subset, mask_of
from .catalog import CatalogEntry, connected_multigraphs, full_catalog
from .decomposition import (
    FAMILY_D,
    FAMILY_DELTA,
    KIND_GP,
    KIND_Q,
    SignedDecomposition,
    ZProfile,
    add,
    decompose_base_polytope,
    decompose_independent_polytope,
    decompose_truncation_flag,
    make_decomposition,
    scale,
    support_function,
    y_from_z_gp,
    y_from_z_q,
    z_from_matroid,
    z_from_matroid_indep,
    z_from_y_gp,
    z_from_y_q,
)
from .errors import (
    DegenerateInput,
    DimensionMismatch,
    DisconnectedMatroid,
    EmptyBasisFamily,
    ExchangeAxiomViolation,
    FamilyMismatch,
    GroundSetTooLarge,
    InvalidTruncationRank,
    InvalidUniformParams,
    MatvolError,
    NonIntegerNormalizedVolume,
    ParseError,
    RankMismatch,
    UnequalCardinality,
    WorkBudgetExceeded,
)
from .invariants import (
    TuttePolynomial,
    beta,
    gamma,
    gamma_from_rank_sum,
    signed_beta,
    signed_beta_contractions,
    signed_gamma,
    signed_gamma_contractions,
    tutte,
)
from .matroid import (
    Graph,
    Matroid,
    coconnected_flats,
    components,
    contract,
    delete,
    direct_sum,
    dual,
    from_bases,
    graphic,
    is_connected,
    restriction,
    truncate,
    uniform,
)
from .oracle import (
    LatticeFrame,
    VertexSet,
    hull_facets,
    minkowski_sum_vertices,
    simplex_vertices,
    vertices_base,
    vertices_flag,
    vertices_indep,
    volume_exact,
)
from .pyramid import (
    PYRAMID_WORK_BUDGET,
    pyramid_normalized_volume,
    pyramid_volume_base,
    pyramid_volume_flag,
    pyramid_volume_independent,
)
from .volume import (
    TermGroup,
    dragon_marriage,
    dragon_marriage_intersection_bounds,
    flag_volume_ordered_terms,
    independent_volume_census,
    orbit_degree,
    sdr_condition,
    sdr_condition_intersection_bounds,
    volume_base_polytope,
    volume_independent_polytope,
    volume_signed_sum,
    volume_truncation_flag,
)

__version__ = "0.1.0"
