"""Domain types and the joint negative-log-posterior criterion.

Hierarchical model for the linear inverse problem g = H f + eps:

    indirect sparsity       f = D z + xi,  z sparse
        g | f, v_eps   ~ N(H f, V_eps),    v_eps_i ~ IG(alpha_eps, beta_eps)
        f | z, v_xi    ~ N(D z, V_xi),     v_xi_j  ~ IG(alpha_xi,  beta_xi)
        z | v_z        ~ N(0,   V_z),      v_z_j   ~ IG(alpha_z,   beta_z)

    direct sparsity         f itself sparse (no D, no z)
        g | f, v_eps   ~ N(H f, V_eps),    v_eps_i ~ IG(alpha_eps, beta_eps)
        f | v_f        ~ N(0,   V_f),      v_f_j   ~ IG(alpha_f,   beta_f)

All V are diagonal with per-component variances.  Minus the log of the
joint posterior, up to an additive constant, is the criterion

    L = 1/2 (g - Hf)' Veps^-1 (g - Hf) + (alpha_eps + 3/2) sum ln v_eps_i
        + sum beta_eps / v_eps_i
      + 1/2 (f - Dz)' Vxi^-1 (f - Dz)  + (alpha_xi + 3/2) sum ln v_xi_j
        + sum beta_xi / v_xi_j
      + 1/2 z' Vz^-1 z                 + (alpha_z + 3/2) sum ln v_z_j
        + sum beta_z / v_z_j

with the xi-block replaced by the (f, v_f, alpha_f, beta_f) block in the
direct model.  L is defined only up to a state-independent constant, so
consumers must compare L differences or argmins, never absolute values.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Optional, Union

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from numpy.typing import ArrayLike


class DimensionMismatch(ValueError):
    """Shapes of g, H, D or state vectors are mutually inconsistent."""


class NonFinite(ValueError):
    """A NaN or infinity was found where a finite value is required."""


class NonPositiveHyper(ValueError):
    """A hyperparameter is zero, negative or non-finite."""


class NonPositiveVariance(ValueError):
    """A variance entry is zero or negative."""


class SingularSystem(RuntimeError):
    """A symmetric positive-definite solve failed at working precision."""


class ModelMismatch(ValueError):
    """Operation requires the other sparsity model (direct vs indirect)."""


def _as_vector(x, name: str) -> np.ndarray:
    a = np.asarray(x, dtype=float)
    if a.ndim != 1:
        raise DimensionMismatch(f"{name} must be one-dimensional, got shape {a.shape}")
    return a


@dataclass(frozen=True)
class ForwardProblem:
    """Observations g (length N), operator H (N x M), optional transform D (M x M).

    D absent selects the direct-sparsity model (f itself sparse); D present
    selects the indirect model (z sparse, f = D z + xi).
    """

    g: np.ndarray
    H: np.ndarray
    D: Optional[np.ndarray] = None

    def __post_init__(self):
        object.__setattr__(self, "g", np.asarray(self.g, dtype=float).reshape(-1))
        object.__setattr__(self, "H", np.asarray(self.H, dtype=float))
        if self.D is not None:
            object.__setattr__(self, "D", np.asarray(self.D, dtype=float))

    @property
    def n_obs(self) -> int:
        return self.g.shape[0]

    @property
    def n_coef(self) -> int:
        return self.H.shape[1] if self.H.ndim == 2 else 0

    @property
    def is_direct(self) -> bool:
        return self.D is None

    @cached_property
    def H_bands(self) -> tuple:
        """(kl, ku) of H, found once per problem: see :func:`bandwidths`."""
        return bandwidths(self.H)

    @cached_property
    def D_bands(self) -> tuple:
        """(kl, ku) of D, found once per problem; indirect model only."""
        if self.D is None:
            raise ModelMismatch("D_bands requires the indirect model (D present)")
        return bandwidths(self.D)


def bandwidths(K: np.ndarray) -> tuple:
    """(kl, ku): how many diagonals below and above the main one hold nonzeros.

    An all-zero K gives (0, 0).  A dense N x M matrix gives (N - 1, M - 1).
    """
    nz = K != 0
    rows = np.flatnonzero(nz.any(axis=1))
    if rows.size == 0:
        return 0, 0
    first = nz[rows].argmax(axis=1)
    last = K.shape[1] - 1 - nz[rows, ::-1].argmax(axis=1)
    return max(int((rows - first).max()), 0), max(int((last - rows).max()), 0)


@dataclass(frozen=True)
class HyperParams:
    """Inverse-Gamma hyperparameters, one (shape, scale) pair per variance family.

    (alpha_eps, beta_eps, alpha_xi, beta_xi, alpha_z, beta_z) drive the
    indirect model; (alpha_eps, beta_eps, alpha_f, beta_f) the direct one.
    Values are validated by :func:`validate_problem`, not at construction.
    """

    alpha_eps: float = 1.0
    beta_eps: float = 1.0
    alpha_xi: float = 1.0
    beta_xi: float = 1.0
    alpha_z: float = 1.0
    beta_z: float = 1.0
    alpha_f: float = 1.0
    beta_f: float = 1.0

    def as_dict(self) -> dict:
        return {
            "alpha_eps": self.alpha_eps, "beta_eps": self.beta_eps,
            "alpha_xi": self.alpha_xi, "beta_xi": self.beta_xi,
            "alpha_z": self.alpha_z, "beta_z": self.beta_z,
            "alpha_f": self.alpha_f, "beta_f": self.beta_f,
        }


@dataclass(frozen=True)
class JmapConfig:
    """Iteration limits, stopping tolerances and initialization.

    ``init`` is "zeros", "least-squares", or an explicit starting vector
    for f.  The run stops when the relative change of f AND the relative
    decrease of L both fall below their tolerances, or at max_iter.
    """

    max_iter: int = 100
    tol_rel_f: float = 1e-8
    tol_rel_L: float = 1e-8
    init: Union[str, np.ndarray] = "zeros"

    def __post_init__(self):
        _check_limits(self.max_iter, self.init, tol_rel_f=self.tol_rel_f,
                      tol_rel_L=self.tol_rel_L)


def _check_limits(max_iter, init, **tolerances):
    """Checks shared by JmapConfig and VbaConfig; raises ValueError.

    max_iter must be an integer >= 1 (numpy integers too, bool not),
    every tolerance strictly positive (NaN is not), a string init known
    and a vector init finite.
    """
    if isinstance(max_iter, bool) or not isinstance(max_iter, numbers.Integral):
        raise ValueError(f"max_iter must be an integer, got {max_iter!r}")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    for name, tol in tolerances.items():
        if not tol > 0:
            raise ValueError(f"{name} must be strictly positive, got {tol!r}")
    if isinstance(init, str):
        if init not in ("zeros", "least-squares"):
            raise ValueError(f"unknown init {init!r}")
    elif not np.all(np.isfinite(np.asarray(init, dtype=float))):
        raise ValueError("init vector must be finite")


@dataclass(frozen=True)
class IgFamily:
    """Inverse-Gamma factor parameters, one (shape, scale) per component."""

    alpha_hat: np.ndarray
    beta_hat: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "alpha_hat", np.asarray(self.alpha_hat, dtype=float))
        object.__setattr__(self, "beta_hat", np.asarray(self.beta_hat, dtype=float))

    @classmethod
    def posterior(cls, alpha, beta, spread):
        """IG(alpha + 1/2, beta + spread / 2) per component, the factor of a
        family with prior IG(alpha, beta) and per-component ``spread`` (the
        squared residual, plus its covariance terms under VBA).

        Its mode (beta + spread / 2) / (alpha + 3/2) is the JMAP variance
        block; VBA keeps the whole factor.
        """
        return cls(np.full(spread.size, alpha + 0.5), beta + 0.5 * spread)

    def inv_expectation(self) -> np.ndarray:
        """Per-component <v^-1> = alpha_hat / beta_hat."""
        return self.alpha_hat / self.beta_hat

    def point_variance(self) -> np.ndarray:
        """1 / <v^-1>, the variance value the updates effectively use."""
        return self.beta_hat / self.alpha_hat


@dataclass(frozen=True)
class SolverState:
    """Current iterates of either solver.

    JMAP fills the point variances (v_eps plus v_xi/v_z or v_f); VBA
    additionally carries the Normal covariances and the Inverse-Gamma
    family parameters, with v_* holding the point values 1/<v^-1> =
    beta_hat/alpha_hat actually used by the updates.

    VBA keeps each covariance in the form its block produced: a dense
    block gives a plain array, a banded block its band and factor, the
    full scheme a diagonal.  ``np.asarray(state.Sigma_f)`` gives the
    whole matrix, formed again on each conversion.
    """

    f_hat: np.ndarray
    z_hat: Optional[np.ndarray] = None
    v_eps: Optional[np.ndarray] = None
    v_xi: Optional[np.ndarray] = None
    v_f: Optional[np.ndarray] = None
    v_z: Optional[np.ndarray] = None
    Sigma_f: Optional["ArrayLike"] = None   # np.asarray gives the whole matrix
    Sigma_z: Optional["ArrayLike"] = None
    ig_eps: Optional[IgFamily] = None
    ig_xi: Optional[IgFamily] = None
    ig_z: Optional[IgFamily] = None
    ig_f: Optional[IgFamily] = None


@dataclass
class IterationRecord:
    """One solver iteration: criterion value, iterate changes and wall time.

    Iteration 0 is the initial state; its relative changes are None.
    """

    iteration: int
    criterion: float
    rel_change_f: Optional[float]
    rel_change_z: Optional[float]
    seconds: float


@dataclass
class RunTrace:
    """Per-iteration history of a solver run.

    ``update_order`` documents the fixed block-update cycle; ``converged``
    is False when the run stopped at max_iter (not an error).
    """

    update_order: tuple
    records: list = field(default_factory=list)
    converged: bool = False
    stop_reason: str = "max_iter"

    def append(self, criterion, rel_change_f=None, rel_change_z=None, seconds=0.0):
        index = self.records[-1].iteration + 1 if self.records else 0
        self.records.append(
            IterationRecord(index, float(criterion), rel_change_f, rel_change_z, seconds)
        )

    def criterion_values(self) -> np.ndarray:
        return np.array([r.criterion for r in self.records])

    @property
    def iterations(self) -> int:
        """Number of completed update sweeps (record 0 is the initial state)."""
        return len(self.records) - 1 if self.records else 0


def validate_problem(problem: ForwardProblem, hyper: HyperParams) -> None:
    """Check type invariants and mutual shape consistency.

    Raises DimensionMismatch, NonFinite or NonPositiveHyper; returns None
    when the pair is usable by the solvers.
    """
    g, H, D = problem.g, problem.H, problem.D
    if H.ndim != 2:
        raise DimensionMismatch(f"H must be a matrix, got array of ndim {H.ndim}")
    n, m = H.shape
    if n < 1 or m < 1:
        raise DimensionMismatch(f"H must be at least 1x1, got {n}x{m}")
    if g.shape != (n,):
        raise DimensionMismatch(f"g has length {g.shape[0]}, H has {n} rows")
    if D is not None:
        if D.ndim != 2 or D.shape != (m, m):
            raise DimensionMismatch(
                f"D must be {m}x{m} to match H, got shape {D.shape}"
            )
        if not np.all(np.isfinite(D)):
            raise NonFinite("D contains NaN or Inf entries")
    if not np.all(np.isfinite(H)):
        raise NonFinite("H contains NaN or Inf entries")
    if not np.all(np.isfinite(g)):
        raise NonFinite("g contains NaN or Inf entries")
    for name, value in hyper.as_dict().items():
        if not np.isfinite(value) or value <= 0.0:
            raise NonPositiveHyper(f"hyperparameter {name} must be finite and > 0, got {value}")


def _check_positive(v: np.ndarray, name: str) -> np.ndarray:
    v = _as_vector(v, name)
    if v.size and (not np.all(np.isfinite(v)) or np.any(v <= 0.0)):
        raise NonPositiveVariance(f"{name} must be strictly positive and finite")
    return v


def _check_ig(alpha, beta):
    """Raise ValueError unless an IG shape and scale are finite and > 0."""
    if not (0 < alpha < np.inf and 0 < beta < np.inf):
        raise ValueError(f"alpha and beta must be finite and strictly positive, "
                         f"got {alpha!r} and {beta!r}")


def _normal_system(problem: ForwardProblem, block: str, w, p, other=None) -> tuple:
    """The normal equations ``(K' diag(w) K + diag(p)) x = rhs`` of a Gaussian block.

    Returns ``(K, bands, w, p, rhs)``, in the argument order of the
    solvers in ``_linalg``.  ``w`` and ``p`` are the block's precisions,
    checked by the caller.  The f block has K = H and rhs = H'(w g), plus
    the coupling p * (D z) when ``other`` is z (indirect model); the z
    block has K = D and rhs = D'(w f) with ``other`` = f.  JMAP and VBA
    differ only in the precisions they pass: 1/v or <v^-1>.
    """
    if problem.is_direct and (block == "z" or other is not None):
        raise ModelMismatch("z and its block require the indirect model (D present)")
    other = None if other is None else np.asarray(other, dtype=float)
    K, bands, data = ((problem.H, problem.H_bands, problem.g) if block == "f"
                      else (problem.D, problem.D_bands, other))
    m = problem.n_coef
    if (np.shape(w) != K.shape[:1] or np.shape(p) != (m,)
            or (other is not None and other.shape != (m,))):
        raise DimensionMismatch(
            f"{block} block: w, p and the other block have lengths {np.size(w)}, "
            f"{np.size(p)}, {'-' if other is None else other.size}; "
            f"expected {K.shape[0]}, {m}, {m}")
    rhs = K.T @ (w * data)
    if block == "f" and other is not None:
        rhs = rhs + p * (problem.D @ other)
    return K, bands, w, p, rhs


def _ig_block(v, alpha, beta, residual):
    """Quadratic + log-barrier terms of one variance family of L."""
    return float(
        0.5 * np.sum(residual * residual / v)
        + (alpha + 1.5) * np.sum(np.log(v))
        + np.sum(beta / v)
    )


def _variance_families(problem: ForwardProblem, hyper: HyperParams, f, z) -> tuple:
    """The model's variance families as ``(kind, alpha, beta, residual)``.

    eps comes first, then f (direct model) or xi and z (indirect model).
    ``kind`` names the state fields ``v_<kind>`` and ``ig_<kind>``; the
    residual is the quantity whose variance the family holds at (f, z).
    """
    eps = ("eps", hyper.alpha_eps, hyper.beta_eps, problem.g - problem.H @ f)
    if problem.is_direct:
        return eps, ("f", hyper.alpha_f, hyper.beta_f, f)
    return (eps, ("xi", hyper.alpha_xi, hyper.beta_xi, f - problem.D @ z),
            ("z", hyper.alpha_z, hyper.beta_z, z))


def neg_log_posterior(state: SolverState, problem: ForwardProblem, hyper: HyperParams) -> float:
    """Joint negative-log-posterior L at a state (constants dropped).

    Compare L differences or argmins only; the absolute level depends on
    the dropped normalization constants.
    """
    f = _as_vector(state.f_hat, "f_hat")
    z = None if problem.is_direct else _as_vector(state.z_hat, "z_hat")
    total = 0.0
    for kind, alpha, beta, residual in _variance_families(problem, hyper, f, z):
        v = _check_positive(getattr(state, "v_" + kind), "v_" + kind)
        total += _ig_block(v, alpha, beta, residual)
    return total
