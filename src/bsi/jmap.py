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
for a zero residual, whatever the init.  The residuals are formed once
per JMAP sweep: the indirect sweep's variance step forms them at the
new (f, z) and the loop's L reads them; the direct sweep's variance
step comes first and reads those the loop formed for L after the sweep
before.  A VBA sweep returns none, and the loop forms them for L.
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
    NonPositiveVariance,
    RunTrace,
    SolverState,
    neg_log_posterior,
    validate_problem,
    _as_vector,
    _check_ig,
    _check_positive,
    _criterion,
    _normal_system,
    _silent_overflow,
    _solved,
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
    and beta must be finite and > 0 (ValueError).  The new variances
    follow the failure rule (``model._solved``): a residual whose square
    overflows raises SingularSystem, with no numpy warning.
    """
    if kind not in _VARIANCE_KINDS:
        raise ValueError(f"kind must be one of {_VARIANCE_KINDS}, got {kind!r}")
    _check_ig(alpha, beta)
    r = np.asarray(residual, dtype=float)
    out = _solved("variance update", (beta + 0.5 * r * r) / (alpha + 1.5))
    return out if r.ndim else float(out)


def initial_iterates(problem, config):
    """Starting (f, z) per config.init; z is the least-squares pullback of f.

    A vector init must be one-dimensional of length M (DimensionMismatch).
    """
    m = problem.n_coef
    if isinstance(config.init, str):
        if config.init == "zeros":
            f0 = np.zeros(m)
        else:
            f0 = np.linalg.lstsq(problem.H, problem.g, rcond=None)[0]
    else:
        f0 = _as_vector(config.init, "init", m)
    if problem.is_direct:
        return f0, None
    if isinstance(config.init, str) and config.init == "zeros":
        return f0, np.zeros(m)
    return f0, np.linalg.lstsq(problem.D, f0, rcond=None)[0]


@_silent_overflow
def alternate(problem, hyper, config, order, state, sweep, tol_rel_L=None):
    """The alternation loop of every solver; returns (SolverState, RunTrace).

    ``sweep(state, families)`` updates each block once, in the cycle
    ``order`` names.  ``families`` are the variance families of
    ``state`` (``model._variance_families``), or None before the first
    sweep; it returns the new state and its families, or None where no
    step formed them, and the loop forms them once.  The trace records L
    at every state (record 0 is ``state``, through the public
    ``neg_log_posterior``; each sweep's from its families) with the
    relative f and z changes.  The run stops at config.max_iter, or when
    the f change falls below config.tol_rel_f and, if ``tol_rel_L`` is
    given, the relative decrease of L below it.  Every sweep runs with
    numpy's overflow warnings silenced (``model._silent_overflow``):
    what overflows fails a check, and its typed error comes alone.
    """
    trace = RunTrace(update_order=order)
    L = neg_log_posterior(state, problem, hyper)
    trace.append(L)
    families = None
    for _ in range(config.max_iter):
        tic = time.perf_counter()
        prev, L_prev = state, L
        state, families = sweep(prev, families)
        families = families or _variance_families(problem, hyper, state.f_hat, state.z_hat)
        L = _criterion(state, families, _positive)
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


def _positive(v, name):
    """The loop's check of a swept variance: v > 0, which one that
    underflowed fails; the sweep's steps have checked the rest."""
    if not (v > 0.0).all():
        raise NonPositiveVariance(f"{name} must be strictly positive")
    return v


def _variance_modes(families):
    """The variance block: every family's mode, as v_<kind> fields."""
    return {"v_" + kind: jmap_update_variance("f_direct" if kind == "f" else kind,
                                              alpha, beta, residual)
            for kind, alpha, beta, residual in families}


def _sweep_direct(problem, hyper, state, families):
    v = _variance_modes(families or _variance_families(problem, hyper, state.f_hat, None))
    return SolverState(f_hat=jmap_update_f(problem, v["v_eps"], v["v_f"]), **v), None


def _sweep_indirect(problem, hyper, state, _):
    f = jmap_update_f(problem, state.v_eps, state.v_xi, state.z_hat)
    z = jmap_update_z(problem, state.v_xi, state.v_z, f)
    families = _variance_families(problem, hyper, f, z)
    return SolverState(f_hat=f, z_hat=z, **_variance_modes(families)), families


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
