"""Capacity bounds and discrimination oracles for restricted quantum state
ensembles: closed-form guessing-probability bounds under common
preparation assumptions, the constructions saturating them, a numeric
discrimination oracle with dual certificates, and shared-randomness
strategy analysis."""

from .bounds import (
    BoundResult,
    Validity,
    bound_almost_dim,
    bound_dimension,
    bound_distrust,
    bound_ea_dimension,
    bound_eps,
    bound_overlap,
    bound_vacuum,
    coherent_capacity,
    h_func,
    lemma_check,
    min_overlap_vacuum,
)
from .discrimination import (
    POVM,
    DualCertificate,
    GuessingResult,
    accessible_information,
    dual_certificate,
    guess_value,
    optimize_discrimination,
    pgm,
)
from .ensembles import (
    AlmostDim,
    Assumption,
    Dimension,
    Distrust,
    EADimension,
    Information,
    MembershipReport,
    StateEnsemble,
    UniformOverlap,
    Vacuum,
    almost_qubit_epsilon,
    basis_ensemble,
    check_assumption,
    circulant_ensemble,
    coherent_state,
    dense_coding_ensemble,
    ensemble_from_json,
    ensemble_from_vectors,
    ensemble_to_json,
    equiangular_ensemble,
)
from .linalg import (
    mat_inv_sqrt,
    min_eigenvalue,
    partial_trace,
    vectors_from_gram,
)
from .randomness import (
    SRStrategy,
    averaged_log_pg,
    check_average,
    concavity_probe,
    ea_average_counterexample,
    embed_cq,
    mixture_guess_value,
    strategy_from_json,
    strategy_to_json,
)
from .search import SearchReport, tightness_search

__all__ = [name for name in dir() if not name.startswith("_")]
