"""Bayesian sparse inversion.

Student-t hierarchical solvers for linear inverse problems (Joint-MAP
alternating minimization and variational-Bayes posterior means, direct
and transform-domain sparsity) plus a heavy-tailed prior toolkit around
the Generalized Hyperbolic family with quadrature-based verification.

Every public name is loaded from its module on first use (PEP 562), so
``import bsi`` loads no submodule and each CLI mode only what it calls:
``scipy.linalg`` loads with the solvers and ``scipy.special`` with the
first prior density evaluated.
"""

import importlib

# public name -> the submodule that defines it
_MODULE_OF = {name: module for module, names in (
    ("model", ("DimensionMismatch", "ForwardProblem", "HyperParams", "IgFamily",
               "IterationRecord", "ModelMismatch", "NonFinite", "NonPositiveHyper",
               "NonPositiveVariance", "RunTrace", "SingularSystem", "SolverState",
               "neg_log_posterior", "validate_problem")),
    ("jmap", ("JmapConfig", "jmap_update_f", "jmap_update_variance", "jmap_update_z",
              "solve_jmap")),
    ("vba", ("IndexOutOfRange", "VbaConfig", "ig_inv_expectation", "solve_vba",
             "vba_full_coordinate_update", "vba_update_f", "vba_update_ig",
             "vba_update_z")),
    ("priors", ("DomainError", "GhParams", "GigParams", "PriorsSettings",
                "QuadratureFailure", "SingularDensity", "bessel_k",
                "gh_marginal_quadrature", "gh_pdf", "gig_pdf", "limit_deviation",
                "priors_report", "reference_pdf")),
    ("synth", ("NoiseSpec", "OperatorSpec", "ReconstructionMetrics", "SignalSpec",
               "SpecError", "generate_operator", "generate_sparse_signal",
               "reconstruction_metrics", "synthesize_observation")),
    ("rng", ("SplitMix64",)),
) for name in names}

__version__ = "0.1.0"

__all__ = list(_MODULE_OF)


def __getattr__(name):
    """Load a public name, or one of its submodules, on first use."""
    if name in _MODULE_OF:
        value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
        globals()[name] = value  # later reads find it without this hook
        return value
    if name in _MODULE_OF.values():  # ``bsi.vba`` after a bare ``import bsi``
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
