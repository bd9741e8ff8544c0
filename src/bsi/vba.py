"""Posterior-mean estimation via variational Bayes.

The posterior is approximated by a separable distribution minimizing the
Kullback-Leibler divergence.  Under partial separability the f and z
factors stay multivariate Normal,

    q(f) = N(f_hat, Sigma_f)   f_hat = (H' Ve H + Vx)^-1 (Vx D z_hat + H' Ve g)
                               Sigma_f = (H' Ve H + Vx)^-1
    q(z) = N(z_hat, Sigma_z)   z_hat = (D' Vx D + Vz)^-1 D' Vx f_hat
                               Sigma_z = (D' Vx D + Vz)^-1

where Ve, Vx, Vz are diagonal PRECISION matrices built from the
Inverse-Gamma factor expectancies <v^-1> = alpha_hat / beta_hat.  The
variance factors are Inverse-Gamma with shape alpha + 1/2 and scales

    xi : beta_xi  + [ (f_j - D_j z)^2 + Sigma_f[j,j] + D_j Sigma_z D_j' ] / 2
    eps: beta_eps + [ (g_i - H_i f)^2 + H_i Sigma_f H_i' ] / 2
    z  : beta_z   + [ z_j^2 + Sigma_z[j,j] ] / 2
    f  : beta_f   + [ f_j^2 + Sigma_f[j,j] ] / 2      (direct model)

Full separability additionally factorizes f coordinate-wise (direct
model only); the coordinate mean/variance are

    f_j   = H^j' Ve (g - H^{-j} f^{-j}) / (||Ve^{1/2} H^j||^2 + vt_f_j)
    var_j = 1 / (||Ve^{1/2} H^j||^2 + vt_f_j)

with H^j the j-th column and vt_f_j the f-precision expectancy.

Cost per sweep, for H of size N x M (and D of size M x M):

    partial: O(N M^2 + M^3).  The precision H' Ve H + Vx is formed with
             one gemm and inverted through its Cholesky factor; the
             quadratic-form diagonals diag(K Sigma K') are one gemm plus
             an elementwise row sum each.  The indirect model adds the
             same for D and Sigma_z.
    full:    O(N M).  Each coordinate costs one dot and one axpy; the
             covariance is diagonal and stays a vector, so the eps scale
             update is (H*H) @ var.  A dense diag(var) is built once, for
             the returned state only.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np
from scipy.linalg.blas import daxpy

from ._linalg import rel_change, spd_inverse
from .jmap import initial_iterates
from .model import (
    ForwardProblem,
    HyperParams,
    ModelMismatch,
    RunTrace,
    SolverState,
    neg_log_posterior,
    validate_problem,
    _check_positive,
)

_IG_KINDS = ("xi", "eps", "z", "f")


class IndexOutOfRange(IndexError):
    """Coordinate index outside 0..M-1."""


@dataclass(frozen=True)
class IgFamily:
    """Inverse-Gamma factor parameters, one (shape, scale) per component."""

    alpha_hat: np.ndarray
    beta_hat: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "alpha_hat", np.asarray(self.alpha_hat, dtype=float))
        object.__setattr__(self, "beta_hat", np.asarray(self.beta_hat, dtype=float))

    def inv_expectation(self) -> np.ndarray:
        """Per-component <v^-1> = alpha_hat / beta_hat."""
        return self.alpha_hat / self.beta_hat

    def point_variance(self) -> np.ndarray:
        """1 / <v^-1>, the variance value the updates effectively use."""
        return self.beta_hat / self.alpha_hat


@dataclass(frozen=True)
class VbaConfig:
    """Iteration limit, f-change tolerance, separability and initialization.

    Full separability is valid for the direct model only.  ``init`` as in
    JmapConfig; a non-zero start seeds the Inverse-Gamma scales with the
    initial residuals.
    """

    max_iter: int = 100
    tol_rel_f: float = 1e-8
    separability: str = "partial"
    init: Union[str, np.ndarray] = "zeros"

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.tol_rel_f <= 0:
            raise ValueError("tol_rel_f must be strictly positive")
        if self.separability not in ("partial", "full"):
            raise ValueError(f"unknown separability {self.separability!r}")
        if isinstance(self.init, str) and self.init not in ("zeros", "least-squares"):
            raise ValueError(f"unknown init {self.init!r}")


def ig_inv_expectation(alpha: float, beta: float) -> float:
    """<x^-1> under IG(alpha, beta), which is exactly alpha / beta."""
    if alpha <= 0 or beta <= 0:
        raise ValueError("alpha and beta must be strictly positive")
    return alpha / beta


def vba_update_f(problem, vtilde_eps, vtilde_xi, z_hat=None):
    """Normal factor of f: mean and full covariance.

    ``vtilde_*`` are precision expectancies <v^-1>, not variances.  For
    the direct model pass the f-family expectancies as ``vtilde_xi`` and
    leave z_hat None.  Sigma_f is materialized whole because the scale
    updates need its diagonal and quadratic forms.
    """
    vtilde_eps = _check_positive(vtilde_eps, "vtilde_eps")
    vtilde_xi = _check_positive(vtilde_xi, "vtilde_xi")
    H = problem.H
    A = H.T @ (H * vtilde_eps[:, None])
    A[np.diag_indices_from(A)] += vtilde_xi
    Sigma_f = spd_inverse(A)
    b = H.T @ (vtilde_eps * problem.g)
    if z_hat is not None:
        if problem.is_direct:
            raise ModelMismatch("z_hat passed for a direct-sparsity problem")
        b = b + vtilde_xi * (problem.D @ np.asarray(z_hat, dtype=float))
    return Sigma_f @ b, Sigma_f


def vba_update_z(problem, vtilde_xi, vtilde_z, f_hat):
    """Normal factor of z: mean and full covariance; indirect model only."""
    if problem.is_direct:
        raise ModelMismatch("z-update requires the indirect model (D present)")
    vtilde_xi = _check_positive(vtilde_xi, "vtilde_xi")
    vtilde_z = _check_positive(vtilde_z, "vtilde_z")
    D = problem.D
    A = D.T @ (D * vtilde_xi[:, None])
    A[np.diag_indices_from(A)] += vtilde_z
    Sigma_z = spd_inverse(A)
    b = D.T @ (vtilde_xi * np.asarray(f_hat, dtype=float))
    return Sigma_z @ b, Sigma_z


def _cov_diag(Sigma):
    """diag(Sigma); a 1-D Sigma is a diagonal covariance given by its diagonal."""
    Sigma = np.asarray(Sigma, dtype=float)
    return Sigma if Sigma.ndim == 1 else np.diag(Sigma)


def _quad_diag(K, Sigma):
    """diag(K Sigma K') with BLAS: O(NM) for a 1-D (diagonal) Sigma, one gemm otherwise."""
    Sigma = np.asarray(Sigma, dtype=float)
    if Sigma.ndim == 1:
        return (K * K) @ Sigma
    return ((K @ Sigma) * K).sum(axis=1)


def vba_update_ig(kind, hyper, f_hat, Sigma_f, z_hat=None, Sigma_z=None, *, problem):
    """Inverse-Gamma factor update: shape alpha + 1/2, residual-driven scale.

    kind "xi" and "z" require the indirect model, "f" the direct one;
    "eps" applies to both.  ``Sigma_f`` and ``Sigma_z`` are full
    covariance matrices, or 1-D arrays read as a diagonal covariance.
    """
    if kind not in _IG_KINDS:
        raise ValueError(f"kind must be one of {_IG_KINDS}, got {kind!r}")
    f_hat = np.asarray(f_hat, dtype=float)
    if kind == "eps":
        r = problem.g - problem.H @ f_hat
        alpha_hat = np.full(problem.n_obs, hyper.alpha_eps + 0.5)
        beta_hat = hyper.beta_eps + 0.5 * (r * r + _quad_diag(problem.H, Sigma_f))
    elif kind == "f":
        if not problem.is_direct:
            raise ModelMismatch("f-family update is for the direct model")
        alpha_hat = np.full(problem.n_coef, hyper.alpha_f + 0.5)
        beta_hat = hyper.beta_f + 0.5 * (f_hat * f_hat + _cov_diag(Sigma_f))
    elif kind == "xi":
        if problem.is_direct:
            raise ModelMismatch("xi-family update requires the indirect model")
        z_hat = np.asarray(z_hat, dtype=float)
        r = f_hat - problem.D @ z_hat
        quad = _quad_diag(problem.D, Sigma_z)
        alpha_hat = np.full(problem.n_coef, hyper.alpha_xi + 0.5)
        beta_hat = hyper.beta_xi + 0.5 * (r * r + _cov_diag(Sigma_f) + quad)
    else:  # z
        if problem.is_direct:
            raise ModelMismatch("z-family update requires the indirect model")
        z_hat = np.asarray(z_hat, dtype=float)
        alpha_hat = np.full(problem.n_coef, hyper.alpha_z + 0.5)
        beta_hat = hyper.beta_z + 0.5 * (z_hat * z_hat + _cov_diag(Sigma_z))
    return IgFamily(alpha_hat, beta_hat)


def vba_full_coordinate_update(problem, hyper, f_hat, vtilde_eps, vtilde_f, j):
    """Coordinate-wise Normal factor of f_j for the fully separable scheme.

    Returns (f_hat_j, var_j).  ``vtilde_*`` are precision expectancies;
    vtilde_f enters the denominator directly as a precision.  ``hyper``
    is part of the update signature for symmetry with the other updates
    but the closed form depends only on the expectancies.
    """
    if not problem.is_direct:
        raise ModelMismatch("coordinate update is defined for the direct model")
    f_hat = np.asarray(f_hat, dtype=float)
    m = problem.n_coef
    if not 0 <= j < m:
        raise IndexOutOfRange(f"coordinate {j} outside 0..{m - 1}")
    vtilde_eps = _check_positive(vtilde_eps, "vtilde_eps")
    vtilde_f = _check_positive(vtilde_f, "vtilde_f")
    col = problem.H[:, j]
    partial_resid = problem.g - problem.H @ f_hat + col * f_hat[j]
    denom = float(col @ (vtilde_eps * col)) + vtilde_f[j]
    numer = float(col @ (vtilde_eps * partial_resid))
    return numer / denom, 1.0 / denom


def _seed_families(problem, hyper, f0, z0):
    """Initial IG factors: alpha + 1/2 shapes, scales beta (+ init residuals)."""
    n, m = problem.n_obs, problem.n_coef
    r_eps = problem.g - problem.H @ f0
    ig_eps = IgFamily(np.full(n, hyper.alpha_eps + 0.5),
                      hyper.beta_eps + 0.5 * r_eps * r_eps)
    if problem.is_direct:
        ig_f = IgFamily(np.full(m, hyper.alpha_f + 0.5),
                        hyper.beta_f + 0.5 * f0 * f0)
        return ig_eps, ig_f, None
    r_xi = f0 - problem.D @ z0
    ig_xi = IgFamily(np.full(m, hyper.alpha_xi + 0.5),
                     hyper.beta_xi + 0.5 * r_xi * r_xi)
    ig_z = IgFamily(np.full(m, hyper.alpha_z + 0.5),
                    hyper.beta_z + 0.5 * z0 * z0)
    return ig_eps, ig_xi, ig_z


def solve_vba(problem: ForwardProblem, hyper: HyperParams, config: Optional[VbaConfig] = None):
    """Fixed-point iteration of the variational factors; (SolverState, RunTrace).

    Partial separability cycles q(f) -> q(z) -> xi -> eps -> z families
    (z blocks skipped in the direct model); full separability sweeps the
    f coordinates then updates the IG families.  Stops on the relative
    f-change tolerance or max_iter.  The trace's criterion column records
    the negative-log-posterior at the point estimates (variances set to
    1/<v^-1>); VBA does not minimize it, the column is informational.
    """
    config = config or VbaConfig()
    validate_problem(problem, hyper)
    if config.separability == "full" and not problem.is_direct:
        raise ModelMismatch("full separability is defined for the direct model only")
    if problem.is_direct:
        return _solve_direct(problem, hyper, config)
    return _solve_partial_indirect(problem, hyper, config)


def _solve_partial_indirect(problem, hyper, config):
    f, z = initial_iterates(problem, config)
    ig_eps, ig_xi, ig_z = _seed_families(problem, hyper, f, z)
    Sigma_f = np.zeros((problem.n_coef,) * 2)
    Sigma_z = np.zeros((problem.n_coef,) * 2)

    def current_state():
        return SolverState(
            f_hat=f, z_hat=z,
            v_eps=ig_eps.point_variance(), v_xi=ig_xi.point_variance(),
            v_z=ig_z.point_variance(),
            Sigma_f=Sigma_f, Sigma_z=Sigma_z,
            ig_eps=ig_eps, ig_xi=ig_xi, ig_z=ig_z,
        )

    trace = RunTrace(update_order=("q_f", "q_z", "ig_xi", "ig_eps", "ig_z"))
    trace.append(neg_log_posterior(current_state(), problem, hyper))
    for _ in range(config.max_iter):
        tic = time.perf_counter()
        f_prev, z_prev = f, z
        f, Sigma_f = vba_update_f(problem, ig_eps.inv_expectation(),
                                  ig_xi.inv_expectation(), z)
        z, Sigma_z = vba_update_z(problem, ig_xi.inv_expectation(),
                                  ig_z.inv_expectation(), f)
        ig_xi = vba_update_ig("xi", hyper, f, Sigma_f, z, Sigma_z, problem=problem)
        ig_eps = vba_update_ig("eps", hyper, f, Sigma_f, problem=problem)
        ig_z = vba_update_ig("z", hyper, f, Sigma_f, z, Sigma_z, problem=problem)
        df = rel_change(f, f_prev)
        trace.append(neg_log_posterior(current_state(), problem, hyper),
                     df, rel_change(z, z_prev), time.perf_counter() - tic)
        if df < config.tol_rel_f:
            trace.converged = True
            trace.stop_reason = "tolerance"
            break
    return current_state(), trace


def _solve_direct(problem, hyper, config):
    f, _ = initial_iterates(problem, config)
    ig_eps, ig_f, _ = _seed_families(problem, hyper, f, None)
    full = config.separability == "full"
    m = problem.n_coef
    Sigma_f = np.zeros((m, m))

    def current_state():
        return SolverState(
            f_hat=f,
            v_eps=ig_eps.point_variance(), v_f=ig_f.point_variance(),
            Sigma_f=Sigma_f, ig_eps=ig_eps, ig_f=ig_f,
        )

    order = ("q_f_sweep", "ig_f", "ig_eps") if full else ("q_f", "ig_f", "ig_eps")
    trace = RunTrace(update_order=order)
    trace.append(neg_log_posterior(current_state(), problem, hyper))
    if full:
        HT = np.ascontiguousarray(problem.H.T)
    for _ in range(config.max_iter):
        tic = time.perf_counter()
        f_prev = f
        vt_eps = ig_eps.inv_expectation()
        vt_f = ig_f.inv_expectation()
        if full:
            # one dot and one axpy per coordinate, keeping resid = g - H f
            HTw = HT * vt_eps
            col_sq = (HTw * HT).sum(axis=1)
            denom = col_sq + vt_f
            resid = problem.g - problem.H @ f
            f_list = f.tolist()
            for j, (c_j, d_j) in enumerate(zip(col_sq.tolist(), denom.tolist())):
                f_j = f_list[j]
                new_fj = (float(HTw[j] @ resid) + c_j * f_j) / d_j
                resid = daxpy(HT[j], resid, a=f_j - new_fj)
                f_list[j] = new_fj
            f = np.array(f_list)
            var = 1.0 / denom
            ig_f = IgFamily(np.full(m, hyper.alpha_f + 0.5),
                            hyper.beta_f + 0.5 * (f * f + var))
            ig_eps = vba_update_ig("eps", hyper, f, var, problem=problem)
        else:
            f, Sigma_f = vba_update_f(problem, vt_eps, vt_f)
            ig_f = vba_update_ig("f", hyper, f, Sigma_f, problem=problem)
            ig_eps = vba_update_ig("eps", hyper, f, Sigma_f, problem=problem)
        df = rel_change(f, f_prev)
        trace.append(neg_log_posterior(current_state(), problem, hyper),
                     df, None, time.perf_counter() - tic)
        if df < config.tol_rel_f:
            trace.converged = True
            trace.stop_reason = "tolerance"
            break
    if full:
        Sigma_f = np.diag(var)
    return current_state(), trace
