"""Bayesian sparse inversion.

Student-t hierarchical solvers for linear inverse problems (Joint-MAP
alternating minimization and variational-Bayes posterior means, direct
and transform-domain sparsity) plus a heavy-tailed prior toolkit around
the Generalized Hyperbolic family with quadrature-based verification.
"""

from .model import (
    DimensionMismatch,
    ForwardProblem,
    HyperParams,
    IterationRecord,
    ModelMismatch,
    NonFinite,
    NonPositiveHyper,
    NonPositiveVariance,
    RunTrace,
    SingularSystem,
    SolverState,
    neg_log_posterior,
    validate_problem,
)
from .jmap import (
    JmapConfig,
    jmap_update_f,
    jmap_update_variance,
    jmap_update_z,
    solve_jmap,
)
from .vba import (
    IgFamily,
    IndexOutOfRange,
    VbaConfig,
    ig_inv_expectation,
    solve_vba,
    vba_full_coordinate_update,
    vba_update_f,
    vba_update_ig,
    vba_update_z,
)
from .priors import (
    DomainError,
    GhParams,
    GigParams,
    PriorsSettings,
    QuadratureFailure,
    SingularDensity,
    bessel_k,
    gh_marginal_quadrature,
    gh_pdf,
    gig_pdf,
    limit_deviation,
    priors_report,
    reference_pdf,
)
from .synth import (
    NoiseSpec,
    OperatorSpec,
    ReconstructionMetrics,
    SignalSpec,
    SpecError,
    generate_operator,
    generate_sparse_signal,
    reconstruction_metrics,
    synthesize_observation,
)
from .rng import SplitMix64

__version__ = "0.1.0"

__all__ = [
    "DimensionMismatch", "ForwardProblem", "HyperParams", "IterationRecord",
    "ModelMismatch", "NonFinite", "NonPositiveHyper", "NonPositiveVariance",
    "RunTrace", "SingularSystem", "SolverState", "neg_log_posterior",
    "validate_problem",
    "JmapConfig", "jmap_update_f", "jmap_update_variance", "jmap_update_z",
    "solve_jmap",
    "IgFamily", "IndexOutOfRange", "VbaConfig", "ig_inv_expectation",
    "solve_vba", "vba_full_coordinate_update", "vba_update_f",
    "vba_update_ig", "vba_update_z",
    "DomainError", "GhParams", "GigParams", "PriorsSettings",
    "QuadratureFailure", "SingularDensity", "bessel_k",
    "gh_marginal_quadrature", "gh_pdf", "gig_pdf", "limit_deviation",
    "priors_report", "reference_pdf",
    "NoiseSpec", "OperatorSpec", "ReconstructionMetrics", "SignalSpec",
    "SpecError", "generate_operator", "generate_sparse_signal",
    "reconstruction_metrics", "synthesize_observation",
    "SplitMix64",
]
