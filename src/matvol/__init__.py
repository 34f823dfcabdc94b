"""Exact signed Minkowski decompositions and volumes of matroid polytopes.

The library decomposes base polytopes, independent set polytopes, and
truncation flag polytopes into signed sums of coordinate simplices, and
computes their lattice-normalized volumes from the beta and gamma
invariants of contractions, cross-validated by an independent exact
geometry oracle.

Importing the package runs none of its modules.  Each submodule but the
``cli`` entry point is entered in ``sys.modules`` as a lazy module whose
code runs on its first attribute access, so code that looks the package's
modules up by name finds all of them, and a public name such as
``matvol.from_bases`` loads its defining module on first use (PEP 562).
A ``matvol`` command thus loads only the modules its work needs.
"""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

__version__ = "0.1.0"

# Every submodule but ``cli``, with the public names it defines.
_EXPORTS = {
    "bitset": ("elements_of", "format_subset", "mask_of"),
    "catalog": ("CatalogEntry", "connected_multigraphs", "full_catalog"),
    "decomposition": (
        "FAMILY_D",
        "FAMILY_DELTA",
        "KIND_GP",
        "KIND_Q",
        "SignedDecomposition",
        "ZProfile",
        "add",
        "decompose_base_polytope",
        "decompose_independent_polytope",
        "decompose_truncation_flag",
        "make_decomposition",
        "scale",
        "support_function",
        "y_from_z_gp",
        "y_from_z_q",
        "z_from_matroid",
        "z_from_matroid_indep",
        "z_from_y_gp",
        "z_from_y_q",
    ),
    "errors": (
        "DegenerateInput",
        "DimensionMismatch",
        "DisconnectedMatroid",
        "EmptyBasisFamily",
        "ExchangeAxiomViolation",
        "FamilyMismatch",
        "GroundSetTooLarge",
        "InvalidTruncationRank",
        "InvalidUniformParams",
        "MatvolError",
        "NonIntegerNormalizedVolume",
        "ParseError",
        "RankMismatch",
        "UnequalCardinality",
        "WorkBudgetExceeded",
    ),
    "hull": (),
    "invariants": (
        "TuttePolynomial",
        "beta",
        "gamma",
        "gamma_from_rank_sum",
        "signed_beta",
        "signed_beta_contractions",
        "signed_gamma",
        "signed_gamma_contractions",
        "tutte",
    ),
    "matroid": (
        "Graph",
        "Matroid",
        "coconnected_flats",
        "components",
        "contract",
        "delete",
        "direct_sum",
        "dual",
        "from_bases",
        "graphic",
        "is_connected",
        "restriction",
        "truncate",
        "uniform",
    ),
    "oracle": (
        "LatticeFrame",
        "VertexSet",
        "hull_facets",
        "minkowski_sum_vertices",
        "simplex_vertices",
        "vertices_base",
        "vertices_flag",
        "vertices_indep",
        "volume_exact",
    ),
    "pyramid": (
        "PYRAMID_WORK_BUDGET",
        "orbit_degree",
        "pyramid_normalized_volume",
        "pyramid_volume_base",
        "pyramid_volume_flag",
        "pyramid_volume_independent",
    ),
    "verify": (),
    "volume": (
        "TermGroup",
        "dragon_marriage",
        "dragon_marriage_intersection_bounds",
        "flag_volume_ordered_terms",
        "independent_volume_census",
        "sdr_condition",
        "sdr_condition_intersection_bounds",
        "volume_base_polytope",
        "volume_independent_polytope",
        "volume_signed_sum",
        "volume_truncation_flag",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)


def _lazy_submodule(name: str):
    spec = find_spec(f"{__name__}.{name}")
    spec.loader = LazyLoader(spec.loader)
    module = module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)  # defers the real execution to first access
    return module


for _name in _EXPORTS:
    globals()[_name] = _lazy_submodule(_name)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(globals()[_HOME[name]], name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
