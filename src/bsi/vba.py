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

    partial, banded K: O(N M + M w (u + w)), w = max(u, 16).  The
             precision K' W K + diag(p) is built in band storage and
             factored once by LAPACK pbtrf (the banded factor JMAP uses);
             the mean is one pbtrs solve, the band of Sigma comes from the
             factor by selected inversion in blocks of w columns, batched
             over the blocks but for a u x u corner chain, and diag(Sigma) and
             diag(K Sigma K') read only that band.  The whole Sigma is
             never formed by the block: it returns the band and the
             factor, and ``np.asarray`` forms the matrix from the factor
             (O(M^2 u)) on each conversion.
    partial, dense K:  O(N M^2 + M^3).  The precision is formed with one
             gemm and inverted through its Cholesky factor (LAPACK potrf,
             then potri); each quadratic-form diagonal is one gemm plus a
             row sum.
    partial, dual K:   O(N^2 M), for a dense K with N well below M (the
             operator's ``dual`` flag).  The N x N dual C = diag(1/w) +
             K diag(1/p) K' is factored (potrf) in place of the M x M
             precision; the mean, diag(Sigma) and diag(K Sigma K') come
             from that factor with a few gemm and trsm calls, and Sigma =
             diag(1/p) - B' B is formed only by ``np.asarray``.  At
             64 x 128 the block took 155 us against 386 dense.
    full, banded H:    O(N M + M u^2).  The coordinate pass j = 0..M-1 is
             Gauss-Seidel on (H' Ve H + diag(vt_f)) f = H' Ve g, i.e. one
             triangular band solve; var = 1 / diag of that matrix.
    full, dense H:     O(N M).  The same Gauss-Seidel pass, in blocks of
             32 coordinates: per block one gemm for G = H_J' Ve H_J, two
             gemv and one triangular solve (BLAS trsv) with tril(G +
             diag(vt_f_J)).  Per pass, against the former loop of one dot
             and one axpy per coordinate (N x M, one BLAS thread, ms):
             8 x 16 0.045/0.021, 64 x 128 0.45/0.12, 128 x 128 0.49/0.10,
             256 x 512 3.1/0.83, 1024 x 1024 12.2/4.9, 4096 x 256 7.9/5.7.
    In both full cases the covariance is diagonal and stays a vector, in
    the returned state too.  The O(N M) terms are the products H f and
    H' (Ve g), which ``model._Operator.matvec``/``rmatvec`` run on the
    diagonals of a large banded K, in O(M u).

Every Gaussian block passes LAPACK's ``info``, its factor and its
results to the failure rule, ``model._solved``.  A coordinate pass has
no factor, so the pass, and :func:`vba_full_coordinate_update`, pass
the precision diagonal (the denominator) in its place, with the new f.
Both run with numpy's overflow warnings silenced, as the system's
formation does (the pass, a step of the full sweep, under the guard
``jmap.alternate`` holds over every sweep), so the typed error comes
alone.  The partial-scheme block, the public :func:`vba_update_f` and
:func:`vba_update_z`, holds that guard itself, and also passes the mean
on the dense path and the covariance band on the banded one to the
rule, so a library call gets the typed error alone too.

Every Gaussian block, partial or full, solves the normal equations
``(K' W K + diag(p)) x = rhs`` that ``model._normal_system`` forms for
JMAP too, with the expectancies <v^-1> where JMAP has 1/v.  Every IG
factor is ``model.IgFamily.posterior``, whose mode is JMAP's variance
block.

Every block keeps its covariance in the form it produced: a plain array
from a dense block, else a :class:`_Covariance` in band, dual or
diagonal form.  The scale updates read only its diagonal and
quadratic-form diagonal.

The public :func:`vba_update_f` and :func:`vba_update_z` are the partial
sweep's Gaussian blocks: the sweep calls them with the expectancies of
its IG factors, so a library caller runs the same code, on the same
path and at the same cost.  They return Sigma in their block's form;
``np.asarray(Sigma)`` gives the whole matrix.

Banded, dual or dense is chosen from the operator alone (its shape and
half-bandwidth u), per block: a dense H with D = I runs a dense f block
and a banded z block.  Each block reads the choice from the flags of
``model._Operator``, built once per problem: ``banded_solve`` and
``dual`` for a partial-scheme block, the flags JMAP's solve reads, so
both solvers factor each operator the same way; ``banded_pass`` for the
coordinate pass; and ``banded_solve`` for ``diag(K Sigma K')`` of a band
or diagonal Sigma.
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
from scipy.linalg.blas import dtrmv, dtrsv

from ._linalg import (
    band_factor,
    band_gauss_seidel,
    band_inverse,
    band_quad_diag,
    band_solve,
    dual_factor,
    dual_roots,
    dual_solve,
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
# coordinates per block of the dense coordinate pass: of 16, 32 and 64,
# 32 was the fastest or within 25 % of it on every shape measured (N x M
# from 8 x 16 to 1024 x 1024 and 4096 x 256, one BLAS thread)
_PASS_BLOCK = 32


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


def vba_update_f(problem, vtilde_eps, vtilde_xi, z_hat=None):
    """Normal factor of f: its mean and covariance, the partial sweep's f block.

    ``vtilde_*`` are precision expectancies <v^-1>, not variances.  For
    the direct model pass the f-family expectancies as ``vtilde_xi`` and
    leave z_hat None.  The block takes the path of H's operator (see
    :func:`_gaussian`), so Sigma_f is a plain M x M array on the dense
    path and a :class:`_Covariance` in band or dual form otherwise;
    ``np.asarray(Sigma_f)`` gives the whole matrix in every case.
    """
    return _gaussian(problem, "f", vtilde_eps, vtilde_xi, z_hat)


def vba_update_z(problem, vtilde_xi, vtilde_z, f_hat):
    """Normal factor of z: its mean and covariance, the partial sweep's z
    block; indirect model only.  Sigma_z as in :func:`vba_update_f`, on
    D's operator."""
    return _gaussian(problem, "z", vtilde_xi, vtilde_z, f_hat)


@_silent_overflow
def _gaussian(problem, block, w, p, other):
    """Mean and covariance of the Gaussian block ``block`` at the precisions
    w and p, which are checked positive under the ``_PRECISIONS`` names:
    the one body of :func:`vba_update_f` and :func:`vba_update_z`.

    A block whose operator is ``banded_solve`` factors its precision in
    band storage and carries the covariance as a band and the factor, a
    ``dual`` one factors the N x N dual and carries the dual form; any
    other inverts the dense precision and returns the plain array.  On
    every path the factor, the mean and the covariance pass the failure
    rule (``model._solved``), with numpy's overflow warnings silenced
    (``model._silent_overflow``), as in ``jmap_update_f``.
    """
    w_name, p_name = _PRECISIONS[block]
    op, w, p, rhs = _normal_system(problem, block, _check_positive(w, w_name),
                                   _check_positive(p, p_name), other)
    if op.banded_solve:
        c = band_factor(op, w, p)
        S = _solved(f"{block} block: the covariance band", selected_inverse(c))
        return band_solve(c, rhs), _Covariance(band=S, factor=c)
    if op.dual:
        L, KP = dual_factor(op, w, p)
        return dual_solve(op, L, p, rhs), _Covariance(prior=1.0 / p, roots=dual_roots(L, KP, w))
    Sigma = spd_inverse(normal_matrix(op.K, w, p))
    return _solved(f"{block} block: the dense mean", Sigma @ rhs), Sigma


@dataclass(frozen=True)
class _Covariance:
    """Covariance of a Gaussian block, kept in the form its block produced.

    A dense block returns its plain array, which :meth:`of` keeps as
    ``dense``, the whole matrix.  A banded block gives
    ``band``, the lower band storage ``band[d, j] = Sigma[j + d, j]``, and
    ``factor``, the banded Cholesky factor of the precision.  A diagonal
    covariance is a ``band`` of one row with no factor.  A dual block
    gives ``prior``, the vector 1/p, and ``roots``, the N x M and N x N
    matrices ``(B, R)`` of ``_linalg.dual_roots``, with ``Sigma =
    diag(prior) - B' B``.  The scale updates read only :meth:`diag` and
    :meth:`quad_diag`; the whole matrix is formed only by ``np.asarray``.
    """

    dense: Optional[np.ndarray] = None
    band: Optional[np.ndarray] = None
    factor: Optional[np.ndarray] = None
    prior: Optional[np.ndarray] = None
    roots: Optional[tuple] = None

    @classmethod
    def of(cls, Sigma, m, name):
        """``Sigma`` as this type: a 2-D array is dense, a 1-D one a diagonal,
        and an instance is kept.

        Raises DimensionMismatch unless the array is M x M or of length M,
        or the instance is of size M.  An instance's size is read from its
        fields (the last axis of ``band``, ``dense`` or ``prior``), not from
        :meth:`diag`, which costs O(N M) in the dual form.
        """
        if Sigma is None:
            return None
        if isinstance(Sigma, cls):
            size = (Sigma.band if Sigma.band is not None
                    else Sigma.dense if Sigma.dense is not None else Sigma.prior).shape[-1]
            if size != m:
                raise DimensionMismatch(f"{name} is a covariance of size {size}, expected {m}")
            return Sigma
        Sigma = np.asarray(Sigma, dtype=float)
        if Sigma.shape not in ((m,), (m, m)):
            raise DimensionMismatch(f"{name} must be {m} x {m} or a diagonal of length {m}, "
                                    f"got shape {Sigma.shape}")
        return cls(dense=Sigma) if Sigma.ndim == 2 else cls(band=Sigma[None])

    def diag(self):
        """diag(Sigma); ``prior - colsum(B^2)`` in the dual form."""
        if self.roots is not None:
            B = self.roots[0]
            return self.prior - (B * B).sum(axis=0)
        return self.band[0] if self.dense is None else np.diag(self.dense)

    def quad_diag(self, op):
        """diag(K Sigma K') for the operator ``op`` of K: one gemm for a dense
        Sigma, else from the bands when ``op.banded_solve``, else O(NM) for
        a diagonal Sigma.  In the dual form, where K is the block's own,
        it is ``colsum(R * (B K'))``, one gemm.

        The dual form avoids ``diag(G) - colsum((B K')^2)``, G = K
        diag(prior) K', which cancels where diag(K Sigma K') is much below
        diag(G): on random wide K against an extended-precision oracle,
        that form was off by up to 7 eps diag(G) / diag(K Sigma K')
        elementwise, 1.5e-12 at a scaled condition number up to 1e3 and
        1.8e-9 up to 1e6, where this one stayed within 1.5e-14 and
        1.1e-13.
        """
        if self.roots is not None:
            B, R = self.roots
            return (R * (B @ op.K.T)).sum(axis=0)
        if self.dense is not None:
            return ((op.K @ self.dense) * op.K).sum(axis=1)
        if op.banded_solve:
            return band_quad_diag(op, self.band)
        return (op.K * op.K) @ self.band[0]

    def __array__(self, dtype=None, copy=None):
        """The whole Sigma: the dense matrix itself, else formed anew on each
        call, from the factor for a band (O(M^2 u)), as ``diag(prior) - B'
        B`` in the dual form (O(N M^2)) and by np.diag for a diagonal."""
        if self.roots is not None:
            B = self.roots[0]
            return np.asarray(np.diag(self.prior) - B.T @ B, dtype=dtype)
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


def _partial_sweep(problem, hyper, kinds, state, _):
    """q(f), then q(z) (indirect model), then the IG families ``kinds``;
    (state, None) in the sweep protocol of ``jmap.alternate``."""
    prior = state.ig_f if problem.is_direct else state.ig_xi
    f, Sigma_f = vba_update_f(problem, state.ig_eps.inv_expectation(), prior.inv_expectation(),
                              state.z_hat)
    z = Sigma_z = None
    if not problem.is_direct:
        z, Sigma_z = vba_update_z(problem, state.ig_xi.inv_expectation(),
                                  state.ig_z.inv_expectation(), f)
    return _vba_state(problem, hyper, kinds, f, z, Sigma_f, Sigma_z), None


def _dense_coordinates(problem, w, p, f):
    """The coordinate pass on a dense H, j = 0..M-1, in blocks J of
    _PASS_BLOCK coordinates, on the rows of the contiguous H' that H's
    operator keeps.  Returns (f, diag of H' W H + diag(p)).

    With resid = g - H f at the start of a block and G = H_J' W H_J, the
    coordinate updates of J solve ``tril(G + diag(p_J)) x = H_J' W resid
    + tril(G) f_J``: one BLAS ``trsv``, then resid -= H_J (x - f_J).  This
    is the exact Gauss-Seidel sweep of ``_linalg.band_gauss_seidel`` on
    a dense H.  Only the full sweep calls it, under the loop's overflow
    guard.
    """
    HT = problem._operators["f"].KT
    HTw = HT * w
    resid = problem.g - problem._operators["f"].matvec(f)
    f = np.array(f, dtype=float)
    denom = np.empty_like(f)
    for start in range(0, f.size, _PASS_BLOCK):
        J = slice(start, start + _PASS_BLOCK)
        f_J = f[J]
        G = HTw[J] @ HT[J].T
        # G.T is G's buffer in Fortran order, and its upper triangle is
        # tril(G): trans=1 applies tril(G) and solves with it
        r = HTw[J] @ resid + dtrmv(G.T, f_J, trans=1)
        G.flat[::G.shape[0] + 1] += p[J]
        denom[J] = np.diagonal(G)
        x = dtrsv(G.T, r, trans=1, overwrite_x=1)
        resid -= HT[J].T @ (x - f_J)
        f[J] = x
    return f, denom


def _full_sweep(problem, hyper, kinds, state, _):
    """One pass over the f coordinates, then the IG families ``kinds``;
    (state, None) as :func:`_partial_sweep`.

    The pass is one banded Gauss-Seidel solve when H's operator is
    ``banded_pass``, else the blocked dense pass.  The precision diagonal
    and the new f pass the failure rule (``model._solved``).  The
    covariance stays the vector of coordinate variances, a diagonal.
    """
    w, p = state.ig_eps.inv_expectation(), state.ig_f.inv_expectation()
    f, denom = (band_gauss_seidel(*_normal_system(problem, "f", w, p), state.f_hat)
                if problem._operators["f"].banded_pass
                else _dense_coordinates(problem, w, p, state.f_hat))
    _solved("coordinate pass", denom, f)
    return _vba_state(problem, hyper, kinds, f, None,
                      _Covariance(band=(1.0 / denom)[None]), None), None


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
