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

Cost per sweep, for H of size N x M (and D of size M x M), with
u = kl + ku the half-bandwidth of K' W K for a banded operator K:

    partial, banded K: O(N M + M w^2), w = max(u, 32).  The precision
             K' W K + diag(p) is built in band storage and factored once
             by LAPACK pbtrf (the banded factor JMAP uses); the mean is
             one pbtrs solve, the band of Sigma comes from the factor by
             selected inversion in blocks of w columns, and diag(Sigma) and
             diag(K Sigma K') read only that band.  The whole Sigma is
             never formed in a solve: the returned state keeps the band
             and the factor, and ``np.asarray`` forms the matrix from the
             factor (O(M^2 u)) on each conversion.
    partial, dense K:  O(N M^2 + M^3).  The precision is formed with one
             gemm and inverted through its Cholesky factor (LAPACK potrf,
             then potri); each quadratic-form diagonal is one gemm plus a
             row sum.
    full, banded H:    O(N M + M u^2).  The coordinate pass j = 0..M-1 is
             Gauss-Seidel on (H' Ve H + diag(vt_f)) f = H' Ve g, i.e. one
             triangular band solve; var = 1 / diag of that matrix.
    full, dense H:     O(N M).  Each coordinate costs one dot and one
             axpy.
    In both full cases the covariance is diagonal and stays a vector, in
    the returned state too.  The O(N M) terms are the products H f and
    H' (Ve g), which ``model._Operator.matvec``/``rmatvec`` run on the
    diagonals of a large banded K, in O(M u).

Every Gaussian block follows the failure rule of ``_linalg``: it raises
SingularSystem unless LAPACK's ``info`` is 0 and both the factor and the
result are finite.  A coordinate pass has no factor, so its precision
diagonal takes the factor's place: the pass, and
:func:`vba_full_coordinate_update`, raise SingularSystem unless that
diagonal (the denominator) and the new f are finite.  Both run with
numpy's overflow warnings silenced, as the system's formation does, so
the typed error comes alone.

Every Gaussian block, partial or full, solves the normal equations
``(K' W K + diag(p)) x = rhs`` that ``model._normal_system`` forms for
JMAP too, with the expectancies <v^-1> where JMAP has 1/v.  Every IG
factor is ``model.IgFamily.posterior``, whose mode is JMAP's variance
block.

Every block's covariance is a :class:`_Covariance` in the form the block
produced (dense, band or diagonal); the scale updates read only its
diagonal and quadratic-form diagonal.

Banded or dense is chosen from the operator alone (its M and
half-bandwidth u), per block: a dense H with D = I runs a dense f block
and a banded z block.  Each block reads the choice from the flags of
``model._Operator``, built once per problem: ``banded_block`` for a
partial-scheme block, ``banded_pass`` for the coordinate pass and
``banded_solve`` for ``diag(K Sigma K')`` of a band or diagonal Sigma.
The operator also keeps the band layout and the contiguous H' of the
dense pass, each built once.

Both schemes run in ``jmap.alternate``, the loop JMAP uses too, with
their own sweep: one partial sweep for both models and the coordinate
sweep for the full scheme.  The scales start from the init residuals of
the variance-family table ``model._variance_families``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional, Union

import numpy as np
from scipy.linalg.blas import daxpy

from ._linalg import (
    band_factor,
    band_gauss_seidel,
    band_inverse,
    band_quad_diag,
    band_solve,
    normal_matrix,
    selected_inverse,
    spd_inverse,
)
from .jmap import alternate, initial_iterates
from .model import (
    DimensionMismatch,
    ForwardProblem,
    HyperParams,
    IgFamily,
    ModelMismatch,
    SingularSystem,
    SolverState,
    validate_problem,
    _as_vector,
    _check_ig,
    _check_limits,
    _check_positive,
    _is_integer,
    _normal_system,
    _silent_overflow,
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


# the names the precisions of each Gaussian block are checked under
_PRECISIONS = {"f": ("vtilde_eps", "vtilde_xi"), "z": ("vtilde_xi", "vtilde_z")}


def _system(problem, block, w, p, other):
    """``model._normal_system`` of a block, its precisions checked positive."""
    w_name, p_name = _PRECISIONS[block]
    return _normal_system(problem, block, _check_positive(w, w_name),
                          _check_positive(p, p_name), other)


def _dense_gaussian(op, w, p, rhs):
    """Mean and dense covariance of a Gaussian block."""
    Sigma = spd_inverse(normal_matrix(op.K, w, p))
    return Sigma @ rhs, Sigma


def vba_update_f(problem, vtilde_eps, vtilde_xi, z_hat=None):
    """Normal factor of f: mean and full covariance.

    ``vtilde_*`` are precision expectancies <v^-1>, not variances.  For
    the direct model pass the f-family expectancies as ``vtilde_xi`` and
    leave z_hat None.  Sigma_f is materialized whole, by a dense
    inverse, whatever the operator.
    """
    return _dense_gaussian(*_system(problem, "f", vtilde_eps, vtilde_xi, z_hat))


def vba_update_z(problem, vtilde_xi, vtilde_z, f_hat):
    """Normal factor of z: mean and full covariance; indirect model only."""
    return _dense_gaussian(*_system(problem, "z", vtilde_xi, vtilde_z, f_hat))


@dataclass(frozen=True)
class _Covariance:
    """Covariance of a Gaussian block, kept in the form its block produced.

    A dense block gives ``dense``, the whole matrix.  A banded block gives
    ``band``, the lower band storage ``band[d, j] = Sigma[j + d, j]``, and
    ``factor``, the banded Cholesky factor of the precision.  A diagonal
    covariance is a ``band`` of one row with no factor.  The scale
    updates read only :meth:`diag` and :meth:`quad_diag`; the whole
    matrix is formed only by ``np.asarray``.
    """

    dense: Optional[np.ndarray] = None
    band: Optional[np.ndarray] = None
    factor: Optional[np.ndarray] = None

    @classmethod
    def of(cls, Sigma, m, name):
        """``Sigma`` as this type: a 2-D array is dense, a 1-D one a diagonal.

        Raises DimensionMismatch unless the array is M x M or of length M.
        """
        if Sigma is None or isinstance(Sigma, cls):
            return Sigma
        Sigma = np.asarray(Sigma, dtype=float)
        if Sigma.shape not in ((m,), (m, m)):
            raise DimensionMismatch(f"{name} must be {m} x {m} or a diagonal of length {m}, "
                                    f"got shape {Sigma.shape}")
        return cls(dense=Sigma) if Sigma.ndim == 2 else cls(band=Sigma[None])

    def diag(self):
        """diag(Sigma)."""
        return self.band[0] if self.dense is None else np.diag(self.dense)

    def quad_diag(self, op):
        """diag(K Sigma K') for the operator ``op`` of K: one gemm for a dense
        Sigma, else from the bands when ``op.banded_solve``, else O(NM) for
        a diagonal Sigma."""
        if self.dense is not None:
            return ((op.K @ self.dense) * op.K).sum(axis=1)
        if op.banded_solve:
            return band_quad_diag(op, self.band)
        return (op.K * op.K) @ self.band[0]

    def __array__(self, dtype=None, copy=None):
        """The whole Sigma: the dense matrix itself, else formed anew on each
        call, from the factor for a band (O(M^2 u)) and by np.diag for a
        diagonal."""
        if self.dense is None:
            return np.asarray(np.diag(self.band[0]) if self.factor is None
                              else band_inverse(self.factor), dtype=dtype)
        return np.array(self.dense, dtype=dtype, copy=copy)


@_silent_overflow
def vba_update_ig(kind, hyper, f_hat, Sigma_f, z_hat=None, Sigma_z=None, *, problem):
    """Inverse-Gamma factor update: shape alpha + 1/2, residual-driven scale.

    kind "xi" and "z" require the indirect model, "f" the direct one;
    "eps" applies to both.  ``Sigma_f`` and ``Sigma_z`` are full
    covariance matrices, or 1-D arrays read as a diagonal covariance
    (the solver also passes the covariances it keeps in band form).
    Raises DimensionMismatch unless ``f_hat``, ``z_hat`` (xi and z) and
    the covariance arrays match the M coefficients, or when a covariance
    the kind reads is None (``Sigma_f`` for eps, f and xi, ``Sigma_z``
    for xi and z); one the kind does not read may be None.  A spread
    that overflows raises SingularSystem, with no numpy warning.
    """
    if kind not in _IG_KINDS:
        raise ValueError(f"kind must be one of {_IG_KINDS}, got {kind!r}")
    if kind != "eps" and (kind == "f") != problem.is_direct:
        model = "direct" if kind == "f" else "indirect"
        raise ModelMismatch(f"{kind}-family update requires the {model} model")
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
    return IgFamily.posterior(getattr(hyper, "alpha_" + kind), getattr(hyper, "beta_" + kind),
                              spread)


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
    denominator and f_hat_j are finite.
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
    if not (np.isfinite(denom) and np.isfinite(f_j)):
        raise SingularSystem(f"coordinate {j} update produced non-finite values")
    return f_j, 1.0 / denom


@_silent_overflow
def _seed_families(problem, hyper, f0, z0):
    """Initial IG factors: shapes alpha + 1/2, scales beta + (init residual)^2 / 2.

    Returns them by kind, in the order of ``model._variance_families``:
    eps and f for the direct model, eps, xi and z for the indirect one.
    A residual whose square overflows raises SingularSystem.
    """
    return {kind: IgFamily.posterior(alpha, beta, residual * residual)
            for kind, alpha, beta, residual in _variance_families(problem, hyper, f0, z0)}


def _vba_state(problem, hyper, kinds, f, z, Sigma_f, Sigma_z, families=None):
    """SolverState of the factors; v_<kind> is the point variance 1/<v^-1>.

    Without ``families`` this is the IG step of a sweep: the families
    ``kinds`` are updated, in that order, from the Normal factors.
    """
    families = families or {kind: vba_update_ig(kind, hyper, f, Sigma_f, z, Sigma_z,
                                                problem=problem) for kind in kinds}
    return SolverState(f_hat=f, z_hat=z, Sigma_f=Sigma_f, Sigma_z=Sigma_z,
                       **{"v_" + kind: fam.point_variance() for kind, fam in families.items()},
                       **{"ig_" + kind: fam for kind, fam in families.items()})


def _gaussian(problem, block, ig_w, ig_p, other):
    """One Gaussian block of the partial sweep: its mean and covariance.

    ``ig_w`` and ``ig_p`` are the IG families whose expectancies weight
    the block.  A block whose operator is ``banded_block`` carries its
    covariance as a band; a dense one runs the public dense update and
    keeps its plain array.
    """
    w, p = ig_w.inv_expectation(), ig_p.inv_expectation()
    if not problem._operators[block].banded_block:
        return (vba_update_f if block == "f" else vba_update_z)(problem, w, p, other)
    op, w, p, rhs = _system(problem, block, w, p, other)
    c = band_factor(op, w, p)
    return band_solve(c, rhs), _Covariance(band=selected_inverse(c), factor=c)


def _partial_sweep(problem, hyper, kinds, state):
    """q(f), then q(z) (indirect model), then the IG families ``kinds``."""
    prior = state.ig_f if problem.is_direct else state.ig_xi
    f, Sigma_f = _gaussian(problem, "f", state.ig_eps, prior, state.z_hat)
    z = Sigma_z = None
    if not problem.is_direct:
        z, Sigma_z = _gaussian(problem, "z", state.ig_xi, state.ig_z, f)
    return _vba_state(problem, hyper, kinds, f, z, Sigma_f, Sigma_z)


@_silent_overflow
def _dense_coordinates(problem, w, p, f):
    """The coordinate pass on a dense H: one dot and one axpy per coordinate,
    on the rows of the contiguous H' that H's operator keeps, with resid =
    g - H f.  Returns (f, diag of H' W H + diag(p))."""
    HT = problem._operators["f"].KT
    HTw = HT * w
    col_sq = (HTw * HT).sum(axis=1)
    denom = col_sq + p
    resid = problem.g - problem._operators["f"].matvec(f)
    f_list = f.tolist()
    for j, (c_j, d_j) in enumerate(zip(col_sq.tolist(), denom.tolist())):
        f_j = f_list[j]
        new_fj = (float(HTw[j] @ resid) + c_j * f_j) / d_j
        resid = daxpy(HT[j], resid, a=f_j - new_fj)
        f_list[j] = new_fj
    return np.array(f_list), denom


def _full_sweep(problem, hyper, kinds, state):
    """One pass over the f coordinates, then the IG families ``kinds``.

    The pass is one banded Gauss-Seidel solve when H's operator is
    ``banded_pass``, else the dense coordinate loop.  Raises
    SingularSystem unless the precision diagonal and the new f are
    finite.  The covariance stays the vector of coordinate variances, a
    diagonal.
    """
    w, p = state.ig_eps.inv_expectation(), state.ig_f.inv_expectation()
    f, denom = (band_gauss_seidel(*_normal_system(problem, "f", w, p), state.f_hat)
                if problem._operators["f"].banded_pass
                else _dense_coordinates(problem, w, p, state.f_hat))
    if not (np.isfinite(denom).all() and np.isfinite(f).all()):
        raise SingularSystem("coordinate pass produced non-finite values")
    return _vba_state(problem, hyper, kinds, f, None,
                      _Covariance(band=(1.0 / denom)[None]), None)


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
    return alternate(problem, hyper, config, order,
                     _vba_state(problem, hyper, kinds, f, z, None, None,
                                _seed_families(problem, hyper, f, z)), sweep)
