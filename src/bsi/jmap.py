"""Joint-MAP estimation by exact alternating block minimization of L.

Every block update below is the closed-form minimizer of the criterion
over that block with all other blocks held fixed, so L is non-increasing
along the iteration:

    f   <- (H' Veps^-1 H + Vxi^-1)^-1 (H' Veps^-1 g + Vxi^-1 D z)
    z   <- (D' Vxi^-1 D + Vz^-1)^-1 D' Vxi^-1 f
    v   <- (beta + residual^2 / 2) / (alpha + 3/2)      per component

Direct model: the xi-block becomes the f-prior block (V_f, residual f_j)
and there is no z.  Update order is f, z, v_xi, v_eps, v_z for the
indirect model and v_f, v_eps, f for the direct one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from ._linalg import rel_change, solve_normal
from .model import (
    ForwardProblem,
    HyperParams,
    ModelMismatch,
    RunTrace,
    SingularSystem,
    SolverState,
    neg_log_posterior,
    validate_problem,
    _check_positive,
)

_VARIANCE_KINDS = ("eps", "xi", "z", "f_direct")


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
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.tol_rel_f <= 0 or self.tol_rel_L <= 0:
            raise ValueError("tolerances must be strictly positive")
        if isinstance(self.init, str) and self.init not in ("zeros", "least-squares"):
            raise ValueError(f"unknown init {self.init!r}")


def jmap_update_f(problem, v_eps, v_xi, z=None) -> np.ndarray:
    """Exact minimizer of L over f with the other blocks fixed.

    For the direct model pass v_f as ``v_xi`` and leave z as None (the
    D z coupling term is absent).
    """
    v_eps = _check_positive(v_eps, "v_eps")
    v_xi = _check_positive(v_xi, "v_xi")
    w = 1.0 / v_eps                            # Veps^-1
    b = problem.H.T @ (w * problem.g)
    if z is not None:
        if problem.is_direct:
            raise ModelMismatch("z passed for a direct-sparsity problem")
        b = b + (problem.D @ np.asarray(z, dtype=float)) / v_xi
    return solve_normal(problem.H, problem.H_bands, w, 1.0 / v_xi, b)


def jmap_update_z(problem, v_xi, v_z, f) -> np.ndarray:
    """Exact minimizer of L over z; indirect model only."""
    if problem.is_direct:
        raise ModelMismatch("z-update requires the indirect model (D present)")
    v_xi = _check_positive(v_xi, "v_xi")
    v_z = _check_positive(v_z, "v_z")
    w = 1.0 / v_xi                             # Vxi^-1
    b = problem.D.T @ (w * np.asarray(f, dtype=float))
    return solve_normal(problem.D, problem.D_bands, w, 1.0 / v_z, b)


def jmap_update_variance(kind, alpha, beta, residual):
    """Closed-form variance block minimizer (beta + r^2/2) / (alpha + 3/2).

    ``residual`` is g_i - H_i f (eps), f_j - D_j z (xi), z_j (z) or f_j
    (f_direct); scalar or vector.  Equals the mode of IG(alpha + 1/2,
    beta + r^2/2).
    """
    if kind not in _VARIANCE_KINDS:
        raise ValueError(f"kind must be one of {_VARIANCE_KINDS}, got {kind!r}")
    if alpha <= 0 or beta <= 0:
        raise ValueError("alpha and beta must be strictly positive")
    r = np.asarray(residual, dtype=float)
    out = (beta + 0.5 * r * r) / (alpha + 1.5)
    if not np.all(np.isfinite(out)):
        raise SingularSystem("variance update produced non-finite values")
    return out if r.ndim else float(out)


def _zero_residual_variances(problem, hyper):
    n, m = problem.n_obs, problem.n_coef
    v_eps = np.full(n, hyper.beta_eps / (hyper.alpha_eps + 1.5))
    if problem.is_direct:
        return v_eps, np.full(m, hyper.beta_f / (hyper.alpha_f + 1.5)), None
    v_xi = np.full(m, hyper.beta_xi / (hyper.alpha_xi + 1.5))
    v_z = np.full(m, hyper.beta_z / (hyper.alpha_z + 1.5))
    return v_eps, v_xi, v_z


def initial_iterates(problem, config):
    """Starting (f, z) per config.init; z is the least-squares pullback of f."""
    m = problem.n_coef
    if isinstance(config.init, str):
        if config.init == "zeros":
            f0 = np.zeros(m)
        else:
            f0 = np.linalg.lstsq(problem.H, problem.g, rcond=None)[0]
    else:
        f0 = np.asarray(config.init, dtype=float).reshape(-1)
        if f0.shape != (m,):
            raise ValueError(f"init vector has length {f0.size}, expected {m}")
    if problem.is_direct:
        return f0, None
    if isinstance(config.init, str) and config.init == "zeros":
        return f0, np.zeros(m)
    return f0, np.linalg.lstsq(problem.D, f0, rcond=None)[0]


def solve_jmap(problem: ForwardProblem, hyper: HyperParams, config: Optional[JmapConfig] = None):
    """Alternating minimization of L; returns (SolverState, RunTrace).

    The trace records L each iteration (record 0 is the initial state);
    L is non-increasing up to floating-point slack because every block
    update is an exact coordinate minimizer.  Hitting max_iter is not an
    error; it is flagged in the trace.
    """
    config = config or JmapConfig()
    validate_problem(problem, hyper)
    f, z = initial_iterates(problem, config)
    v_eps, v_second, v_z = _zero_residual_variances(problem, hyper)
    direct = problem.is_direct

    def current_state():
        if direct:
            return SolverState(f_hat=f, v_eps=v_eps, v_f=v_second)
        return SolverState(f_hat=f, z_hat=z, v_eps=v_eps, v_xi=v_second, v_z=v_z)

    order = ("v_f", "v_eps", "f") if direct else ("f", "z", "v_xi", "v_eps", "v_z")
    trace = RunTrace(update_order=order)
    L = neg_log_posterior(current_state(), problem, hyper)
    trace.append(L)

    for _ in range(config.max_iter):
        tic = time.perf_counter()
        f_prev, z_prev, L_prev = f, z, L
        if direct:
            v_second = jmap_update_variance("f_direct", hyper.alpha_f, hyper.beta_f, f)
            v_eps = jmap_update_variance("eps", hyper.alpha_eps, hyper.beta_eps,
                                         problem.g - problem.H @ f)
            f = jmap_update_f(problem, v_eps, v_second)
        else:
            f = jmap_update_f(problem, v_eps, v_second, z)
            z = jmap_update_z(problem, v_second, v_z, f)
            v_second = jmap_update_variance("xi", hyper.alpha_xi, hyper.beta_xi,
                                            f - problem.D @ z)
            v_eps = jmap_update_variance("eps", hyper.alpha_eps, hyper.beta_eps,
                                         problem.g - problem.H @ f)
            v_z = jmap_update_variance("z", hyper.alpha_z, hyper.beta_z, z)
        L = neg_log_posterior(current_state(), problem, hyper)
        df = rel_change(f, f_prev)
        dz = None if direct else rel_change(z, z_prev)
        trace.append(L, df, dz, time.perf_counter() - tic)
        dL = (L_prev - L) / max(abs(L_prev), np.finfo(float).tiny)
        if df < config.tol_rel_f and dL < config.tol_rel_L:
            trace.converged = True
            trace.stop_reason = "tolerance"
            break

    return current_state(), trace
