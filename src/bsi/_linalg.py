"""Linear algebra of the solvers' Gaussian blocks, and every choice of path.

Every Gaussian block solves normal equations ``(K' diag(w) K + diag(p))
x = rhs``.  ``model._normal_system`` gives each block its ``(op, w, p,
rhs)``, in the argument order of :func:`gaussian_block`, where ``op`` is
the ``model._Operator`` of K: the dense K, its ``kl`` sub- and ``ku``
super-diagonals, its band layout and the flags that choose between the
dense, banded and dual paths.  This is the one module that reads those
flags, so JMAP and VBA hold no path of their own:

- :func:`gaussian_block` is the partial-scheme Gaussian block of both
  solvers, JMAP's solve (the mean) and VBA's block (the mean and a
  covariance); it reads ``banded_solve`` and ``dual``;
- :func:`coordinate_pass` is the VBA full-scheme pass over the f
  coordinates; it reads ``banded_pass``;
- :class:`_Covariance` keeps a VBA covariance in the form its block
  produced, and reads ``banded_solve`` for ``diag(K Sigma K')``.

A new operator kind adds its branch to :func:`gaussian_block` and
:func:`coordinate_pass`, and the solvers take it unchanged.

On the banded path the matrix has half-bandwidth ``kl + ku`` and is
built and factored in band storage, in O(M (kl + ku)^2) instead of O(N
M^2 + M^3 / 3).  :func:`band_factor` is that one banded factor.  JMAP
solves with it; VBA also takes from it the band of the covariance
(:func:`selected_inverse`), which gives ``diag(K Sigma K')``
(:func:`band_quad_diag`); :func:`band_inverse` forms the whole
covariance from the factor, only when a caller converts a returned band
covariance to an array.  :func:`band_gauss_seidel` is the coordinate
pass on the same band storage, :func:`dense_gauss_seidel` the pass on a
dense K.  Each reads the band layout the operator built once.  For a
dense wide K (the operator's ``dual`` flag) :func:`dual_factor` factors
the N x N dual ``diag(1/w) + K diag(1/p) K'`` instead, in O(N^2 M);
JMAP solves with it (:func:`dual_solve`), and VBA also takes from it
the two triangular solves (:func:`dual_roots`) that give diag(Sigma)
and ``diag(K Sigma K')``.

Each factorization is one direct LAPACK call: ``posv`` for the dense
solve (:func:`spd_solve`, JMAP), ``potrf`` then ``potri`` for the dense
inverse (:func:`spd_inverse`, VBA), ``pbtrf`` for the banded factor and
``pbtrs`` for its solves, ``potrf`` for the dual factor and ``potrs``
for its solves.  Each passes LAPACK's ``info``, its factor and its
result to the failure rule, ``model._solved``.  The coordinate pass has
no factor; its caller passes the precision diagonal it returns in the
factor's place.  The matrix and the right-hand side
are formed with numpy's overflow warnings silenced
(``model._silent_overflow``): an extreme precision makes them
non-finite, and the rule raises SingularSystem with no warning before
it.

Explicit dense inversion is confined to :func:`spd_inverse`, which the
variational updates need on dense operators because downstream scale
updates consume the covariance diagonal and quadratic forms.  Forming
the inverse from the factor with ``potri`` costs about M^3 flops in
all, against 7/3 M^3 for solving against the identity.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg.blas import dtbsv, dtrmv, dtrsv
from scipy.linalg.lapack import (dpbtrf, dpbtrs, dposv, dpotrf, dpotri, dpotrs, dtbtrs,
                                 dtrtri, dtrtrs)

from .model import DimensionMismatch, _silent_overflow, _solved

_TINY = float(np.finfo(float).tiny)
# columns per block of selected_inverse: of 8, 12, 16, 24 and 32, 16 was the
# fastest or within 10 % of it at M = 128-2048, u = 2 and 8 (one BLAS
# thread, interleaved runs); wider blocks make the stacked-identity solve
# dearer, narrower ones lengthen the sequential corner chain
_SELINV_BLOCK = 16
# columns per pass of selected_inverse: past the band, its peak memory is
# 7-10 arrays of _SELINV_PASS (u + w) doubles whatever M (4 MiB at u = 2,
# 25 MiB at u = 40); at M = 16384 and 65536 (u = 2 and 8, one BLAS
# thread) passes this wide were as fast as one pass over all M or faster
_SELINV_PASS = 4096
# coordinates per block of the dense coordinate pass: of 16, 32 and 64,
# 32 was the fastest or within 25 % of it on every shape measured (N x M
# from 8 x 16 to 1024 x 1024 and 4096 x 256, one BLAS thread)
_PASS_BLOCK = 32


def spd_solve(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A x = b for symmetric positive-definite A: one LAPACK ``posv``.

    The failure rule (``model._solved``) reads ``info``, the factor (with
    A's other triangle, which ``posv`` leaves as is) and x.
    """
    c, x, info = dposv(A, b)
    return _solved("SPD solve (posv)", x, c, info=info)


@_silent_overflow
def normal_matrix(K: np.ndarray, w: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Dense ``K' diag(w) K + diag(p)``."""
    A = K.T @ (K * w[:, None])
    A.flat[::A.shape[0] + 1] += p
    return A


@_silent_overflow
def _normal_band(op, w, p):
    """Upper band storage (LAPACK ``pbtrf`` layout, ``ab[u + i - j, j] = A[i, j]``)
    of ``A = K' diag(w) K + diag(p)`` for the operator ``op`` of K, with
    ``u = kl + ku``."""
    Kb, rows, _ = op.layout
    u, m = op.kl + op.ku, Kb.shape[1]
    Kbw = Kb * w[rows]
    ab = np.zeros((u + 1, m))
    for d in range(u + 1):
        # A[j, j + d] = sum over rows i = j - ku + r of K[i, j] w_i K[i, j + d]
        ab[u - d, d:] = (Kbw[d:, :m - d] * Kb[:u + 1 - d, d:]).sum(axis=0)
    ab[u] += p
    return ab


def band_factor(op, w: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Banded Cholesky factor U (``A = U' U``) of ``A = K' diag(w) K + diag(p)``.

    ``op`` is the operator of K.  U is in the upper band storage of
    LAPACK ``pbtrf``, ``(kl + ku + 1) x M``.  The failure rule
    (``model._solved``) reads ``info`` and the factor.
    """
    c, info = dpbtrf(_normal_band(op, w, p), overwrite_ab=1)
    return _solved("banded Cholesky (pbtrf)", c, info=info)


def band_solve(c: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``U' U x = rhs`` for the :func:`band_factor` output U; the
    failure rule (``model._solved``) reads ``info`` and x."""
    x, info = dpbtrs(c, rhs)
    return _solved("banded SPD solve (pbtrs)", x, info=info)


def band_inverse(c: np.ndarray) -> np.ndarray:
    """Whole inverse of ``U' U`` from the banded factor, exactly symmetric; O(M^2 u)."""
    inv = band_solve(c, np.eye(c.shape[1]))
    return 0.5 * (inv + inv.T)


def selected_inverse(c: np.ndarray) -> np.ndarray:
    """Band of ``Sigma = (U' U)^-1`` from the banded factor U.

    Returns the lower band storage ``S[d, j] = Sigma[j + d, j]``,
    ``(u + 1) x M``.  A factor of denormal entries has an inverse past the
    float range: the only caller, :func:`gaussian_block` with a
    covariance (VBA's block), runs it under that block's overflow guard
    and raises SingularSystem unless the band is finite.  This is the
    recurrence of Takahashi, Fagan & Chin (1973) (Rue & Held, *Gaussian
    Markov Random Fields*, 2005, sec. 2.3; Lin et al., "SelInv", *ACM
    TOMS* 37, 2011), taken a block of columns J at a time.  With L = U', T0 the u columns after J (the only rows
    after J where L[:, J] is nonzero) and X = L[T0, J] L[J, J]^-1,

        Sigma[T0, J] = -Sigma[T0, T0] X,
        Sigma[J, J]  = (L[J, J] L[J, J]')^-1 + X' Sigma[T0, T0] X.

    The blocks are w = max(_SELINV_BLOCK, u) columns wide, the last one
    padded with identity columns to that width.  They are taken in passes
    of about _SELINV_PASS columns, from the last pass back, each in three
    phases:

    1. every block of the pass at once: one banded triangular solve
       (LAPACK ``tbtrs``) of the block-diagonal part of L against stacked
       identities gives every L[J, J]^-1, and one batched matmul every X;
    2. backwards over the blocks, the one sequential part: the u x u
       corners ``Sigma[T0, T0]`` of the block before, ``W[:u, :u] +
       X[:, :u]' Sigma[T0, T0] X[:, :u]`` with W = (L[J, J] L[J, J]')^-1,
       each made exactly symmetric; the pass's first block gives the
       corner of the pass before;
    3. every block of the pass at once: ``[L[J, J]^-1; X]' [L[J, J]^-1;
       Sigma[T0, T0] X]`` is ``Sigma[J, J]`` in one batched matmul, and one
       indexed read takes the band of it and of ``Sigma[T0, J]``.

    O(M w (u + w)) flops in all, in a fixed number of numpy calls per pass
    plus about five per block for the corners.  Besides the band, a pass
    holds O(_SELINV_PASS (u + w)) numbers, whatever M.
    """
    u, m = c.shape[0] - 1, c.shape[1]
    if not u:
        return 1.0 / (c * c)
    w = max(_SELINV_BLOCK, u)
    span = w * max(1, _SELINV_PASS // w)
    out = np.empty((u + 1, m))
    S = np.zeros((1, u, u))                     # no T0 after the last block
    for start in range(span * ((m - 1) // span), -1, -span):
        nb, cross, corner, eye, band, lower = _selinv_layout(u, w, min(span, m - start))
        # ext[u - d, j] = L[j, j - d]: U, identity columns up to nb w, the
        # next u columns of U (for L[T0, J] of the last block) and zeros
        ext = np.zeros((u + 1, nb * w + u + 1))
        ext[:, :min(nb * w + u, m - start)] = c[:, start:start + nb * w + u]
        ext[u, m - start:nb * w] = 1.0
        Lc = ext.flat[corner]   # L[T0, J] on the last u columns of each J
        ext.flat[cross] = 0.0   # now the factor of the block diagonal of L
        Y, info = dtbtrs(ext[:, :nb * w], eye, trans="T")
        _solved("selected inversion (tbtrs)", info=info)
        Linv = Y.T.reshape(w, nb, w).transpose(1, 2, 0)        # L[J, J]^-1 of block k
        A = np.concatenate((Linv, Lc @ Linv[:, w - u:]), axis=1)   # [L[J, J]^-1; X]
        Wc = Linv[:, :, :u].transpose(0, 2, 1) @ Linv[:, :, :u]
        Xc = np.ascontiguousarray(A[:, w:, :u])
        # S[k + 1] = Sigma[T0, T0] of block k, S[0] that of the pass before.
        # Each corner is made exactly symmetric from its lower triangle: an
        # antisymmetric rounding error is not damped by the chain, and on an
        # ill-conditioned factor (large X) it grew to 50x the error of the
        # quadratic forms diag(K Sigma K') that VBA reads
        S = np.concatenate((np.empty((nb, u, u)), S[:1]))
        for k in range(nb - 1, -1 if start else 0, -1):
            x = Xc[k]
            s = Wc[k] + x.T.dot(S[k + 1].dot(x))
            S[k] = np.where(lower, s, s.T)
        B = np.concatenate((Linv, S[1:] @ A[:, w:]), axis=1)  # [L[J, J]^-1; Sigma[T0, T0] X]
        G = np.concatenate((A.transpose(0, 2, 1) @ B, -B[:, w:]), axis=1)
        out[:, start:start + span] = G.ravel()[band]   # G = [Sigma[J, J]; Sigma[T0, J]]
    return out


@functools.lru_cache(maxsize=16)
def _selinv_layout(u, w, m):
    """Index arrays of one pass of :func:`selected_inverse` over M columns
    in blocks of w, half-bandwidth u, shared between calls and never
    written; M is at most one pass, so the cache holds no array that grows
    with the problem.

    With ``ext[u - d, j] = L[j, j - d]`` on ``nb w + u + 1`` columns,
    returns ``(nb, cross, corner, eye, band, lower)``: the block count;
    the flat indices in ext of the entries that couple two blocks (c's
    unreferenced corner among them); those of ``L[T0, J]`` on the last u
    columns of every block, ``(nb, u, u)``, its zeros below the diagonal
    read from ext's last entry, which stays zero; nb stacked w x w
    identities (Fortran order, for ``tbtrs``); the flat index into the
    ``(nb, w + u, w)`` stack of ``[Sigma[J, J]; Sigma[T0, J]]`` of every
    entry of the band; and the u x u lower-triangle mask.
    """
    nb = -(-m // w)
    n = nb * w + u + 1
    d, j = u - np.arange(u + 1)[:, None], np.arange(n)
    k, a, b = np.ogrid[:nb, :u, :u]
    # L[(k + 1) w + a, k w + w - u + b] = ext[b - a, (k + 1) w + a] for b >= a
    corner = np.where(b >= a, (b - a) * n + (k + 1) * w + a, (u + 1) * n - 1)
    kb, cb = np.divmod(np.arange(m), w)
    band = kb * (w + u) * w + (cb + np.arange(u + 1)[:, None]) * w + cb
    return (nb, np.flatnonzero((j - d) // w != j // w), corner,
            np.asfortranarray(np.tile(np.eye(w), (nb, 1))), band, np.tri(u, dtype=bool))


def band_quad_diag(op, S: np.ndarray) -> np.ndarray:
    """``diag(K Sigma K')`` for the operator ``op`` of K and the band S of a
    symmetric Sigma.

    S is the lower band storage of Sigma, ``S[d, j] = Sigma[j + d, j]``,
    with at most ``kl + ku + 1`` rows (one row is a diagonal Sigma).
    Sigma entries outside the band are never read: row i of K spans
    columns ``i - kl .. i + ku``.
    """
    n, m = op.K.shape
    Kb, rows, inside = op.layout
    # T[r, j] = sum over k >= j of Sigma[k, j] K[i, k], the terms k > j
    # doubled, for the row i = j - ku + r; then diag(K Sigma K')[i] is
    # the sum over j of K[i, j] T[r, j]
    T = Kb * S[0]
    for d in range(1, S.shape[0]):
        T[d:, :m - d] += 2.0 * Kb[:-d, d:] * S[d, :m - d]
    return np.bincount(rows[inside], weights=(Kb * T)[inside], minlength=n)


def band_gauss_seidel(op, w: np.ndarray, p: np.ndarray, rhs: np.ndarray, x: np.ndarray):
    """One Gauss-Seidel sweep, coordinates 0..M-1, on ``A x = rhs``.

    ``A = K' diag(w) K + diag(p)`` for the operator ``op`` of a banded K.
    The sweep solves ``tril(A) x_new = rhs - triu(A, 1) x`` with one
    triangular band solve (BLAS ``tbsv`` on the upper band, transposed),
    in O(M u^2) for u = kl + ku.  Returns ``(x_new, diag(A))``.
    """
    ab = _normal_band(op, w, p)
    u, m = ab.shape[0] - 1, ab.shape[1]
    r = np.array(rhs, dtype=float)
    for d in range(1, u + 1):
        r[:m - d] -= ab[u - d, d:] * x[d:]
    return dtbsv(u, ab, r, trans=1, overwrite_x=1), ab[u]


def dense_gauss_seidel(op, w: np.ndarray, p: np.ndarray, g: np.ndarray, f: np.ndarray):
    """One Gauss-Seidel sweep, coordinates 0..M-1, on ``A f = K' diag(w) g``.

    ``A = K' diag(w) K + diag(p)`` for the operator ``op`` of a dense K, N
    x M.  Returns ``(f_new, diag(A))``, as :func:`band_gauss_seidel`.  The
    sweep runs in blocks J of _PASS_BLOCK coordinates, on the rows of the
    contiguous K' that the operator keeps (``op.KT``).  With resid = g -
    K f at the start of a block and G = K_J' W K_J, the coordinate updates
    of J solve ``tril(G + diag(p_J)) x = K_J' W resid + tril(G) f_J``:
    one BLAS ``trsv``, then resid -= K_J (x - f_J).  O(N M) per sweep:
    per block one gemm for G, two gemv and the trsv.  A loop of one dot
    and one axpy per coordinate against this sweep (N x M, one BLAS
    thread, ms per sweep): 8 x 16 0.045/0.021, 64 x 128 0.45/0.12, 128 x 128
    0.49/0.10, 256 x 512 3.1/0.83, 1024 x 1024 12.2/4.9, 4096 x 256
    7.9/5.7.
    """
    KT = op.KT
    KTw = KT * w
    resid = g - op.matvec(f)
    f = np.array(f, dtype=float)
    denom = np.empty_like(f)
    for start in range(0, f.size, _PASS_BLOCK):
        J = slice(start, start + _PASS_BLOCK)
        f_J = f[J]
        G = KTw[J] @ KT[J].T
        # G.T is G's buffer in Fortran order, and its upper triangle is
        # tril(G): trans=1 applies tril(G) and solves with it
        r = KTw[J] @ resid + dtrmv(G.T, f_J, trans=1)
        G.flat[::G.shape[0] + 1] += p[J]
        denom[J] = np.diagonal(G)
        x = dtrsv(G.T, r, trans=1, overwrite_x=1)
        resid -= KT[J].T @ (x - f_J)
        f[J] = x
    return f, denom


def coordinate_pass(op, w: np.ndarray, p: np.ndarray, g: np.ndarray, f: np.ndarray):
    """The full-scheme pass over the coordinates of f, j = 0..M-1, from f.

    One Gauss-Seidel sweep on ``(K' diag(w) K + diag(p)) f = K' diag(w)
    g`` for the operator ``op`` of K; returns ``(f_new, diag of that
    matrix)``.  The operator's ``banded_pass`` flag sends it through
    :func:`band_gauss_seidel` (O(N M + M u^2)), else through
    :func:`dense_gauss_seidel` (O(N M)).  The O(N M) terms are the
    products ``op.matvec`` and ``op.rmatvec``, which run on the diagonals
    of a large banded K, in O(M u).  The caller passes both results to
    the failure rule and runs the pass under numpy's overflow guard.
    """
    return (band_gauss_seidel(op, w, p, op.rmatvec(w * g), f) if op.banded_pass
            else dense_gauss_seidel(op, w, p, g, f))


@_silent_overflow
def dual_factor(op, w: np.ndarray, p: np.ndarray):
    """Factor of the N x N dual ``C = diag(1/w) + K diag(1/p) K'`` of
    ``A = K' diag(w) K + diag(p)``, for the operator ``op`` of a wide K.

    Returns ``(L, K diag(1/p))`` with L the lower Cholesky factor of C
    (LAPACK ``potrf``).  By the Woodbury identity ``A^-1 = diag(1/p) -
    diag(1/p) K' C^-1 K diag(1/p)``, so C stands in for A at O(N^2 M)
    instead of O(N M^2 + M^3).  The failure rule (``model._solved``)
    reads ``info``, L, w and p: an infinite precision, which the factor
    of A would hold, is a zero variance in C.
    """
    KP = op.K / p
    C = KP @ op.K.T
    C.flat[::C.shape[0] + 1] += 1.0 / w
    # C.T is C's buffer in Fortran order: potrf factors it in place
    L, info = dpotrf(C.T, lower=1, overwrite_a=1)
    return _solved("dual Cholesky (potrf)", L, w, p, info=info), KP


@_silent_overflow
def dual_solve(op, L: np.ndarray, p: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``A^-1 rhs = y - diag(1/p) K' C^-1 K y``, ``y = rhs / p``, from the
    :func:`dual_factor` L of C (LAPACK ``potrs``); the failure rule
    (``model._solved``) reads ``info`` and x."""
    y = rhs / p
    s, info = dpotrs(L, op.K @ y, lower=1)
    x = y - (op.K.T @ s) / p
    return _solved("dual SPD solve (potrs)", x, info=info)


def dual_roots(L: np.ndarray, KP: np.ndarray, w: np.ndarray):
    """``(B, R) = (L^-1 K diag(1/p), L^-1 diag(1/w))`` from the
    :func:`dual_factor` output (LAPACK ``trtrs`` and ``trtri``).

    ``A^-1 = diag(1/p) - B' B``, and ``diag(K A^-1 K') = colsum(R * (B
    K'))``: that is ``diag(W^-1 C^-1 G)`` for ``G = K diag(1/p) K'``,
    since ``K A^-1 K' = G - G C^-1 G = W^-1 C^-1 G``.  The failure rule
    (``model._solved``) reads both ``info`` values, B and R.  Only
    :func:`gaussian_block` with a covariance (VBA's partial-scheme block)
    calls it, under that block's overflow guard.
    """
    B, info = dtrtrs(L, KP, lower=1)
    Linv, info_inv = dtrtri(L, lower=1)
    R = Linv / w
    return _solved("dual triangular solve (trtrs, trtri)", B, R, info=info or info_inv), R


def spd_inverse(A: np.ndarray) -> np.ndarray:
    """Full inverse of a symmetric positive-definite matrix, exactly symmetric.

    One LAPACK ``potrf`` factor, then ``potri``.  The failure rule
    (``model._solved``) reads each ``info``, the factor and the inverse.
    """
    L, info = dpotrf(A, lower=1)
    _solved("SPD inverse (potrf)", L, info=info)
    low, info = dpotri(L, lower=1, overwrite_c=1)
    _solved("SPD inverse (potri)", info=info)
    # potri writes the lower triangle and leaves the factor's zero upper
    # triangle as is; adding the transpose doubles only the diagonal,
    # and halving it again is exact
    inv = low + low.T
    inv.flat[::inv.shape[0] + 1] *= 0.5
    return _solved("SPD inverse", inv)


def gaussian_block(op, w: np.ndarray, p: np.ndarray, rhs: np.ndarray, covariance=False):
    """Solve ``(K' diag(w) K + diag(p)) x = rhs`` for the weights w, p > 0.

    Returns ``(x, Sigma)``, where Sigma, the inverse of that matrix, is
    None unless ``covariance``: JMAP's blocks take x, VBA's
    partial-scheme blocks both.  ``op`` is the operator of K, and its
    flags choose the path, the same for both solvers, per block (a dense
    H with D = I runs a dense f block and a banded z block).  Per block,
    with u = kl + ku:

    - ``banded_solve``: O(N M + M v (u + v)), v = max(u, 16).  The
      precision is built in band storage and factored once
      (:func:`band_factor`); x is one ``pbtrs`` solve.  Sigma is a
      :class:`_Covariance` of the factor and the band of Sigma, by
      selected inversion (:func:`selected_inverse`); diag(Sigma) and
      diag(K Sigma K') read only that band.
    - ``dual``: O(N^2 M), for a dense K with N well below M.  The N x N
      dual is factored (:func:`dual_factor`) in place of the M x M
      precision, and x, diag(Sigma) and diag(K Sigma K') come from that
      factor with a few gemm and trsm calls (:func:`dual_solve`,
      :func:`dual_roots`).  At 64 x 128 the VBA block took 155 us
      against 386 dense.
    - else dense: O(N M^2 + M^3).  The precision is formed with one gemm
      (:func:`normal_matrix`).  Without a covariance it is solved by
      :func:`spd_solve`, else inverted through its Cholesky factor
      (:func:`spd_inverse`) and Sigma is the plain M x M array, whose
      quadratic-form diagonal is one gemm plus a row sum.

    The whole Sigma of a band or dual covariance is formed only by
    ``np.asarray``.  The factor, x and Sigma pass the failure rule
    (``model._solved``); a caller asking for Sigma holds numpy's overflow
    guard (``model._silent_overflow``), under which the inverses
    overflow to a typed error alone.
    """
    if op.banded_solve:
        c = band_factor(op, w, p)
        return band_solve(c, rhs), (
            _Covariance(band=_solved("the covariance band", selected_inverse(c)), factor=c)
            if covariance else None)
    if op.dual:
        L, KP = dual_factor(op, w, p)
        return dual_solve(op, L, p, rhs), (
            _Covariance(prior=1.0 / p, roots=dual_roots(L, KP, w)) if covariance else None)
    A = normal_matrix(op.K, w, p)
    if not covariance:
        return spd_solve(A, rhs), None
    Sigma = spd_inverse(A)
    return _solved("the dense mean", Sigma @ rhs), Sigma


@dataclass(frozen=True)
class _Covariance:
    """Covariance of a Gaussian block, kept in the form its block produced.

    A dense block returns its plain array, which :meth:`of` keeps as
    ``dense``, the whole matrix.  A banded block gives
    ``band``, the lower band storage ``band[d, j] = Sigma[j + d, j]``, and
    ``factor``, the banded Cholesky factor of the precision.  A diagonal
    covariance is a ``band`` of one row with no factor.  A dual block
    gives ``prior``, the vector 1/p, and ``roots``, the N x M and N x N
    matrices ``(B, R)`` of :func:`dual_roots`, with ``Sigma =
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


def rel_change(new: np.ndarray, old: np.ndarray) -> float:
    """Relative iterate change ||new - old|| / max(||new||, tiny), a Python float.

    0/0 gives 0.0; a zero iterate after a non-zero one gives inf.
    """
    # math.sqrt of x.dot(x) is what np.linalg.norm computes, bit for bit
    d = new - old
    diff = math.sqrt(d.dot(d))
    if diff == 0.0:
        return 0.0
    # Python float division overflows to inf without a warning
    return diff / max(math.sqrt(new.dot(new)), _TINY)
