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

Both Gaussian blocks solve the normal equations that
``model._normal_system`` forms, the system VBA's blocks use too, with
the precisions 1/v in place of VBA's <v^-1>.

JMAP and VBA share one loop, :func:`alternate`: it applies a solver's
sweep (one update of every block, state in, state out), records L and
the iterate changes, and applies the stop test.  The variance families
(kind, IG prior, residual) come from one table,
``model._variance_families``, which also defines L; the JMAP variance
block is the mode of each family, and every family starts at its mode
for a zero residual, whatever the init.
"""

from __future__ import annotations

import time
from functools import partial
from typing import Optional

import numpy as np

from ._linalg import rel_change, solve_normal
from .model import (
    ForwardProblem,
    HyperParams,
    JmapConfig,
    RunTrace,
    SingularSystem,
    SolverState,
    neg_log_posterior,
    validate_problem,
    _check_ig,
    _check_positive,
    _normal_system,
    _silent_overflow,
    _variance_families,
)

_VARIANCE_KINDS = ("eps", "xi", "z", "f_direct")


@_silent_overflow
def jmap_update_f(problem, v_eps, v_xi, z=None) -> np.ndarray:
    """Exact minimizer of L over f with the other blocks fixed.

    For the direct model pass v_f as ``v_xi`` and leave z as None (the
    D z coupling term is absent).  A variance so small that 1/v
    overflows gives a non-finite system, and SingularSystem with no
    numpy warning (``model._silent_overflow``).
    """
    w, p = 1.0 / _check_positive(v_eps, "v_eps"), 1.0 / _check_positive(v_xi, "v_xi")
    return solve_normal(*_normal_system(problem, "f", w, p, z))


@_silent_overflow
def jmap_update_z(problem, v_xi, v_z, f) -> np.ndarray:
    """Exact minimizer of L over z; indirect model only."""
    w, p = 1.0 / _check_positive(v_xi, "v_xi"), 1.0 / _check_positive(v_z, "v_z")
    return solve_normal(*_normal_system(problem, "z", w, p, f))


@_silent_overflow
def jmap_update_variance(kind, alpha, beta, residual):
    """Closed-form variance block minimizer (beta + r^2/2) / (alpha + 3/2).

    ``residual`` is g_i - H_i f (eps), f_j - D_j z (xi), z_j (z) or f_j
    (f_direct); scalar or vector.  This is the mode of the family's
    posterior ``model.IgFamily.posterior(alpha, beta, r^2)``, i.e. of
    IG(alpha + 1/2, beta + r^2/2), whose mean VBA uses instead.  alpha
    and beta must be finite and > 0 (ValueError).  A residual whose
    square overflows raises SingularSystem, with no numpy warning.
    """
    if kind not in _VARIANCE_KINDS:
        raise ValueError(f"kind must be one of {_VARIANCE_KINDS}, got {kind!r}")
    _check_ig(alpha, beta)
    r = np.asarray(residual, dtype=float)
    out = (beta + 0.5 * r * r) / (alpha + 1.5)
    if not np.isfinite(out).all():
        raise SingularSystem("variance update produced non-finite values")
    return out if r.ndim else float(out)


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


def alternate(problem, hyper, config, order, state, sweep, tol_rel_L=None):
    """The alternation loop of every solver; returns (SolverState, RunTrace).

    ``sweep(state)`` updates each block once, in the cycle ``order``
    names, and returns the new state.  The trace records L at every
    state (record 0 is ``state``) with the relative f and z changes.  The
    run stops at config.max_iter, or when the f change falls below
    config.tol_rel_f and, if ``tol_rel_L`` is given, the relative
    decrease of L below it.
    """
    trace = RunTrace(update_order=order)
    L = neg_log_posterior(state, problem, hyper)
    trace.append(L)
    for _ in range(config.max_iter):
        tic = time.perf_counter()
        prev, L_prev = state, L
        state = sweep(prev)
        L = neg_log_posterior(state, problem, hyper)
        df = rel_change(state.f_hat, prev.f_hat)
        dz = None if state.z_hat is None else rel_change(state.z_hat, prev.z_hat)
        trace.append(L, df, dz, time.perf_counter() - tic)
        if df < config.tol_rel_f and (
                tol_rel_L is None
                or (L_prev - L) / max(abs(L_prev), np.finfo(float).tiny) < tol_rel_L):
            trace.converged = True
            trace.stop_reason = "tolerance"
            break
    return state, trace


def _variance_modes(problem, hyper, f, z):
    """The variance block: every family's mode at (f, z), as v_<kind> fields."""
    return {"v_" + kind: jmap_update_variance("f_direct" if kind == "f" else kind,
                                              alpha, beta, residual)
            for kind, alpha, beta, residual in _variance_families(problem, hyper, f, z)}


def _sweep_direct(problem, hyper, state):
    v = _variance_modes(problem, hyper, state.f_hat, None)
    return SolverState(f_hat=jmap_update_f(problem, v["v_eps"], v["v_f"]), **v)


def _sweep_indirect(problem, hyper, state):
    f = jmap_update_f(problem, state.v_eps, state.v_xi, state.z_hat)
    z = jmap_update_z(problem, state.v_xi, state.v_z, f)
    return SolverState(f_hat=f, z_hat=z, **_variance_modes(problem, hyper, f, z))


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
    seed = {"v_" + kind: np.full(residual.size, beta / (alpha + 1.5))
            for kind, alpha, beta, residual in _variance_families(problem, hyper, f, z)}
    if problem.is_direct:
        order, sweep = ("v_f", "v_eps", "f"), _sweep_direct
    else:
        order, sweep = ("f", "z", "v_xi", "v_eps", "v_z"), _sweep_indirect
    return alternate(problem, hyper, config, order, SolverState(f_hat=f, z_hat=z, **seed),
                     partial(sweep, problem, hyper), config.tol_rel_L)
