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

Every Gaussian block, partial or full, solves the normal equations
``(K' W K + diag(p)) x = rhs`` that ``model._normal_system`` forms for
JMAP too, with the expectancies <v^-1> where JMAP has 1/v.  Every IG
factor is ``model.IgFamily.posterior``, whose mode is JMAP's variance
block.

The public :func:`vba_update_f` and :func:`vba_update_z` are the partial
sweep's Gaussian blocks: the sweep calls them with the expectancies of
its IG factors, so a library caller runs the same code, on the same
path and at the same cost.  Each is ``_linalg.gaussian_block`` with its
covariance, the routine JMAP's blocks call for their mean, so both
solvers factor each operator the same way.  The full sweep's pass over
the f coordinates is ``_linalg.coordinate_pass``.  Banded, dual or dense
is chosen there, from the operator alone, per block; the costs of each
path are in those two routines.  This module reads no operator flag.

Every block keeps its covariance in the form it produced: a plain array
from a dense block, else a ``_linalg._Covariance`` in band, dual or
diagonal form; ``np.asarray(Sigma)`` gives the whole matrix.  In the
full scheme the covariance is diagonal and stays a vector, in the
returned state too.  The scale updates read only its diagonal and
quadratic-form diagonal.

Every Gaussian block passes LAPACK's ``info``, its factor and its
results to the failure rule, ``model._solved``.  A coordinate pass has
no factor, so the full sweep, and :func:`vba_full_coordinate_update`,
pass the precision diagonal (the denominator) in its place, with the
new f.  Both run with numpy's overflow warnings silenced, as the
system's formation does (the pass, a step of the full sweep, under the
guard ``jmap.alternate`` holds over every sweep), so the typed error
comes alone.  The partial-scheme blocks, the public :func:`vba_update_f`
and :func:`vba_update_z`, hold that guard themselves, so a library call
gets the typed error alone too.

Both schemes run in ``jmap.alternate``, the loop JMAP uses too, with
their own sweep: one partial sweep for both models and the coordinate
sweep for the full scheme.  Each sweep returns its state and the
variance families at it (``model._variance_families``), whose residuals
the loop's criterion reads.  The start is the IG step,
:func:`vba_update_ig`, at the init with a zero covariance: a point-mass
q(f), and q(z) in the indirect model, so each scale is beta + (init
residual)^2 / 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional, Union

import numpy as np

from ._linalg import _Covariance, coordinate_pass, gaussian_block
from .jmap import alternate, initial_iterates
from .model import (
    DimensionMismatch,
    ForwardProblem,
    HyperParams,
    IgFamily,
    ModelMismatch,
    SolverState,
    validate_problem,
    _as_vector,
    _check_ig,
    _check_limits,
    _check_positive,
    _is_integer,
    _normal_system,
    _silent_overflow,
    _solved,
    _variance_families,
)

_IG_KINDS = ("xi", "eps", "z", "f")


class IndexOutOfRange(IndexError):
    """Coordinate index outside 0..M-1."""


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
        _check_limits(self.max_iter, self.init, tol_rel_f=self.tol_rel_f)
        if self.separability not in ("partial", "full"):
            raise ValueError(f"unknown separability {self.separability!r}")


def ig_inv_expectation(alpha: float, beta: float) -> float:
    """<x^-1> under IG(alpha, beta), which is exactly alpha / beta.

    alpha and beta must be finite and > 0 (ValueError).
    """
    _check_ig(alpha, beta)
    return alpha / beta


@_silent_overflow
def vba_update_f(problem, vtilde_eps, vtilde_xi, z_hat=None):
    """Normal factor of f: its mean and covariance, the partial sweep's f block.

    ``vtilde_*`` are precision expectancies <v^-1>, not variances.  For
    the direct model pass the f-family expectancies as ``vtilde_xi`` and
    leave z_hat None.  The block takes the path of H's operator
    (``_linalg.gaussian_block``), so Sigma_f is a plain M x M array on
    the dense path and a ``_linalg._Covariance`` in band or dual form
    otherwise; ``np.asarray(Sigma_f)`` gives the whole matrix in every
    case.  The factor, the mean and the covariance pass the failure rule
    (``model._solved``), with numpy's overflow warnings silenced
    (``model._silent_overflow``), as in ``jmap_update_f``.
    """
    return gaussian_block(*_normal_system(problem, "f", _check_positive(vtilde_eps, "vtilde_eps"),
                                          _check_positive(vtilde_xi, "vtilde_xi"), z_hat),
                          covariance=True)


@_silent_overflow
def vba_update_z(problem, vtilde_xi, vtilde_z, f_hat):
    """Normal factor of z: its mean and covariance, the partial sweep's z
    block; indirect model only.  Sigma_z as in :func:`vba_update_f`, on
    D's operator."""
    return gaussian_block(*_normal_system(problem, "z", _check_positive(vtilde_xi, "vtilde_xi"),
                                          _check_positive(vtilde_z, "vtilde_z"), f_hat),
                          covariance=True)


@_silent_overflow
def vba_update_ig(kind, hyper, f_hat, Sigma_f, z_hat=None, Sigma_z=None, *, problem):
    """Inverse-Gamma factor update: shape alpha + 1/2, residual-driven scale.

    kind "xi" and "z" require the indirect model, "f" the direct one;
    "eps" applies to both.  ``Sigma_f`` and ``Sigma_z`` are full
    covariance matrices, or 1-D arrays read as a diagonal covariance
    (the solver also passes the covariances it keeps in band or dual form).
    Raises DimensionMismatch unless ``f_hat``, ``z_hat`` (xi and z) and
    the covariance arrays match the M coefficients, or when a covariance
    the kind reads is None (``Sigma_f`` for eps, f and xi, ``Sigma_z``
    for xi and z); one the kind does not read may be None.  The kind's
    alpha and beta in ``hyper`` must be finite and > 0 (ValueError).  A
    spread that overflows raises SingularSystem, with no numpy warning.
    """
    if kind not in _IG_KINDS:
        raise ValueError(f"kind must be one of {_IG_KINDS}, got {kind!r}")
    if kind != "eps" and (kind == "f") != problem.is_direct:
        model = "direct" if kind == "f" else "indirect"
        raise ModelMismatch(f"{kind}-family update requires the {model} model")
    alpha, beta = getattr(hyper, "alpha_" + kind), getattr(hyper, "beta_" + kind)
    _check_ig(alpha, beta)
    m = problem.n_coef
    f_hat = _as_vector(f_hat, "f_hat", m)
    if kind in ("xi", "z"):
        z_hat = _as_vector(z_hat, "z_hat", m)
    Sigma_f, Sigma_z = _Covariance.of(Sigma_f, m, "Sigma_f"), _Covariance.of(Sigma_z, m, "Sigma_z")
    if (Sigma_f is None and kind != "z") or (Sigma_z is None and kind in ("xi", "z")):
        raise DimensionMismatch(f"the {kind} update reads a covariance that is None")
    if kind == "eps":
        r = problem.g - problem._operators["f"].matvec(f_hat)
        spread = r * r + Sigma_f.quad_diag(problem._operators["f"])
    elif kind == "f":
        spread = f_hat * f_hat + Sigma_f.diag()
    elif kind == "xi":
        r = f_hat - problem._operators["z"].matvec(z_hat)
        spread = r * r + Sigma_f.diag() + Sigma_z.quad_diag(problem._operators["z"])
    else:  # z
        spread = z_hat * z_hat + Sigma_z.diag()
    return IgFamily.posterior(alpha, beta, spread)


@_silent_overflow
def vba_full_coordinate_update(problem, hyper, f_hat, vtilde_eps, vtilde_f, j):
    """Coordinate-wise Normal factor of f_j for the fully separable scheme.

    Returns (f_hat_j, var_j).  ``vtilde_*`` are precision expectancies;
    vtilde_f enters the denominator directly as a precision.  ``hyper``
    is part of the update signature for symmetry with the other updates
    but the closed form depends only on the expectancies.  Raises
    IndexOutOfRange unless j is an integer (numpy integers too, bool
    not) in 0..M-1, DimensionMismatch unless f_hat and vtilde_f have
    length M and vtilde_eps length N, and SingularSystem unless the
    denominator and f_hat_j pass the failure rule (``model._solved``).
    """
    if not problem.is_direct:
        raise ModelMismatch("coordinate update is defined for the direct model")
    m = problem.n_coef
    f_hat = _as_vector(f_hat, "f_hat", m)
    if not (_is_integer(j) and 0 <= j < m):
        raise IndexOutOfRange(f"coordinate {j!r} is not an integer in 0..{m - 1}")
    vtilde_eps = _check_positive(vtilde_eps, "vtilde_eps", problem.n_obs)
    vtilde_f = _check_positive(vtilde_f, "vtilde_f", m)
    col = problem.H[:, j]
    partial_resid = problem.g - problem._operators["f"].matvec(f_hat) + col * f_hat[j]
    denom = float(col @ (vtilde_eps * col)) + vtilde_f[j]
    f_j = float(col @ (vtilde_eps * partial_resid)) / denom
    return _solved(f"coordinate {j} update", f_j, denom), 1.0 / denom


def _vba_state(problem, hyper, kinds, f, z, Sigma_f, Sigma_z):
    """The IG step of a sweep, or of the start, and the SolverState of the
    factors: the families ``kinds`` are updated, in that order, from the
    Normal factors; v_<kind> is the point variance 1/<v^-1>."""
    families = {kind: vba_update_ig(kind, hyper, f, Sigma_f, z, Sigma_z, problem=problem)
                for kind in kinds}
    return SolverState(f_hat=f, z_hat=z, Sigma_f=Sigma_f, Sigma_z=Sigma_z,
                       **{"v_" + kind: fam.point_variance() for kind, fam in families.items()},
                       **{"ig_" + kind: fam for kind, fam in families.items()})


def _partial_sweep(problem, hyper, kinds, state, _):
    """q(f), then q(z) (indirect model), then the IG families ``kinds``;
    (state, its variance families) in the sweep protocol of
    ``jmap.alternate``."""
    prior = state.ig_f if problem.is_direct else state.ig_xi
    f, Sigma_f = vba_update_f(problem, state.ig_eps.inv_expectation(), prior.inv_expectation(),
                              state.z_hat)
    z = Sigma_z = None
    if not problem.is_direct:
        z, Sigma_z = vba_update_z(problem, state.ig_xi.inv_expectation(),
                                  state.ig_z.inv_expectation(), f)
    return (_vba_state(problem, hyper, kinds, f, z, Sigma_f, Sigma_z),
            _variance_families(problem, hyper, f, z))


def _full_sweep(problem, hyper, kinds, state, _):
    """One pass over the f coordinates, then the IG families ``kinds``;
    (state, its variance families) as :func:`_partial_sweep`.

    The pass is ``_linalg.coordinate_pass`` on H's operator.  The
    precision diagonal and the new f pass the failure rule
    (``model._solved``).  The covariance stays the vector of coordinate
    variances, a diagonal.
    """
    w, p = state.ig_eps.inv_expectation(), state.ig_f.inv_expectation()
    f, denom = coordinate_pass(problem._operators["f"], w, p, problem.g, state.f_hat)
    _solved("coordinate pass", denom, f)
    Sigma_f = _Covariance(band=(1.0 / denom)[None])
    return (_vba_state(problem, hyper, kinds, f, None, Sigma_f, None),
            _variance_families(problem, hyper, f, None))


def solve_vba(problem: ForwardProblem, hyper: HyperParams, config: Optional[VbaConfig] = None):
    """Fixed-point iteration of the variational factors; (SolverState, RunTrace).

    Partial separability cycles q(f) -> q(z) -> xi -> eps -> z families
    (z blocks skipped in the direct model); full separability sweeps the
    f coordinates then updates the IG families.  Stops on the relative
    f-change tolerance or max_iter.  The trace's criterion column records
    the negative-log-posterior at the point estimates (variances set to
    1/<v^-1>); VBA does not minimize it, the column is informational.
    The returned Sigma_f and Sigma_z keep the form their last block
    produced; ``np.asarray`` gives the whole matrix.
    """
    config = config or VbaConfig()
    validate_problem(problem, hyper)
    full = config.separability == "full"
    if full and not problem.is_direct:
        raise ModelMismatch("full separability is defined for the direct model only")
    f, z = initial_iterates(problem, config)
    order = (("q_f_sweep" if full else "q_f", "ig_f", "ig_eps") if problem.is_direct
             else ("q_f", "q_z", "ig_xi", "ig_eps", "ig_z"))
    # the IG families a sweep updates, in the order the trace records
    kinds = tuple(step[3:] for step in order if step.startswith("ig_"))
    sweep = partial(_full_sweep if full else _partial_sweep, problem, hyper, kinds)
    # the start: the IG step at a point-mass q(f) (and q(z)), never returned
    zero = np.zeros(problem.n_coef)
    return alternate(problem, hyper, config, order, _vba_state(
        problem, hyper, kinds, f, z, zero, None if problem.is_direct else zero), sweep)
