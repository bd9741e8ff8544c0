"""SPD solve/inverse helpers shared by the solvers.

Every Gaussian block solves normal equations ``(K' diag(w) K + diag(p))
x = rhs``.  ``model._normal_system`` gives each block its ``(op, w, p,
rhs)``, in the argument order of :func:`solve_normal` (both JMAP
blocks) and :func:`band_gauss_seidel`, where ``op`` is the
``model._Operator`` of K: the dense K, its ``kl`` sub- and ``ku``
super-diagonals, its band layout and the flags that make every
dense-or-banded choice.  On the banded path the matrix has
half-bandwidth ``kl + ku`` and is built and factored in band storage,
in O(M (kl + ku)^2) instead of O(N M^2 + M^3 / 3).  :func:`band_factor`
is that one banded factor.  JMAP solves with it; VBA also takes from it
the band of the covariance (:func:`selected_inverse`), which gives
``diag(K Sigma K')`` (:func:`band_quad_diag`); :func:`band_inverse`
forms the whole covariance from the factor, only when a caller converts
a returned band covariance to an array.  :func:`band_gauss_seidel` is
the VBA coordinate pass on the same band storage.  Each reads the band
layout the operator built once.  For a dense wide K (the operator's
``dual`` flag) :func:`dual_factor` factors the N x N dual ``diag(1/w) +
K diag(1/p) K'`` instead, in O(N^2 M); JMAP solves with it
(:func:`dual_solve`), and VBA also takes from it the two triangular
solves (:func:`dual_roots`) that give diag(Sigma) and ``diag(K Sigma
K')``.

Each factorization is one direct LAPACK call: ``posv`` for the dense
solve (:func:`spd_solve`, JMAP), ``potrf`` then ``potri`` for the dense
inverse (:func:`spd_inverse`, VBA), ``pbtrf`` for the banded factor and
``pbtrs`` for its solves, ``potrf`` for the dual factor and ``potrs``
for its solves.  Every one follows one failure rule: it
raises SingularSystem unless LAPACK's ``info`` is 0 and both the factor
and the result are finite.  An infinite diagonal entry passes Cholesky
with ``info`` 0 and yields a finite, meaningless result; the factor
holds the infinity, so the rule catches it.  The coordinate pass has no
factor; its caller applies the rule to the precision diagonal it
returns, in the factor's place.  The matrix and the right-hand side
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

import numpy as np
from scipy.linalg.blas import dtbsv
from scipy.linalg.lapack import (dpbtrf, dpbtrs, dposv, dpotrf, dpotri, dpotrs, dtrtri,
                                 dtrtrs)

from .model import SingularSystem, _silent_overflow

_TINY = float(np.finfo(float).tiny)
# columns per dense block of selected_inverse: of 16, 32 and 64, 32 was
# the fastest on most problems measured (M = 64-2048, u = 2-64, one BLAS
# thread)
_SELINV_BLOCK = 32


def spd_solve(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A x = b for symmetric positive-definite A: one LAPACK ``posv``.

    Raises SingularSystem unless ``info`` is 0 and both the factor (with
    A's other triangle, which ``posv`` leaves as is) and x are finite.
    """
    c, x, info = dposv(A, b)
    if info != 0 or not (np.isfinite(c).all() and np.isfinite(x).all()):
        raise SingularSystem(f"SPD solve failed: posv info={info}")
    return x


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
    LAPACK ``pbtrf``, ``(kl + ku + 1) x M``.  Raises SingularSystem when
    A is not positive definite or the factor is not finite (an infinite
    diagonal passes Cholesky and yields a finite, meaningless solve).
    """
    c, info = dpbtrf(_normal_band(op, w, p), overwrite_ab=1)
    if info != 0 or not np.isfinite(c).all():
        raise SingularSystem(f"banded Cholesky failed: pbtrf info={info}")
    return c


def band_solve(c: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``U' U x = rhs`` for the :func:`band_factor` output U."""
    x, info = dpbtrs(c, rhs)
    if info != 0 or not np.isfinite(x).all():
        raise SingularSystem(f"banded SPD solve failed: pbtrs info={info}")
    return x


def band_inverse(c: np.ndarray) -> np.ndarray:
    """Whole inverse of ``U' U`` from the banded factor, exactly symmetric; O(M^2 u)."""
    inv = band_solve(c, np.eye(c.shape[1]))
    return 0.5 * (inv + inv.T)


def selected_inverse(c: np.ndarray) -> np.ndarray:
    """Band of ``Sigma = (U' U)^-1`` from the banded factor U.

    Returns the lower band storage ``S[d, j] = Sigma[j + d, j]``,
    ``(u + 1) x M``.  This is the recurrence of Takahashi, Fagan & Chin
    (1973) (Rue & Held, *Gaussian Markov Random Fields*, 2005, sec. 2.3),
    taken a block of columns J at a time from the last block back.  With
    L = U', T the columns after J and T0 the first u of them (the only
    rows of T where L[:, J] is nonzero), X = L[T0, J] L[J, J]^-1 and

        Sigma[T0, J] = -Sigma[T0, T0] X,
        Sigma[J, J]  = (L[J, J] L[J, J]')^-1 + X' Sigma[T0, T0] X,

    where Sigma[T0, T0] lies in the band already computed.  The blocks
    are dense and w = max(_SELINV_BLOCK, u) columns wide: O(M w^2) flops
    in all, with the Python work spread over w columns.  Only the band of
    each block is kept.
    """
    u1, m = c.shape
    u = u1 - 1
    if not u:
        return 1.0 / (c * c)
    band = np.zeros((u1, m))
    width = max(_SELINV_BLOCK, u)
    sym = np.tri(u, dtype=bool)
    S00 = None
    end = m
    while end > 0:
        start = max(end - width, 0)
        b, t = end - start, min(u, m - end)
        r, col, d = _panel_band(b, t, u)
        panel = np.zeros((b + t, b))           # L[start:end + t, start:end]
        panel[r, col] = c[u - d, start + r]     # L[i, j] = U[j, i] = c[u + j - i, i]
        block = panel[:b]
        W, info = dpotri(block, lower=1)      # lower triangle of Sigma[J, J]
        if info != 0:
            raise SingularSystem(f"selected inversion failed: potri info={info}")
        if t:
            Xt, info = dtrtrs(block, panel[b:].T, lower=1, trans=1)
            SX = S00 @ Xt.T
            W = np.vstack((W + Xt @ SX, -SX))
        band[d, start + col] = W[r, col]
        # Sigma[T0, T0] of the next block; every block but the one at
        # column 0 is at least u wide, so it holds that u x u corner
        S00 = np.where(sym, W[:u, :u], W[:u, :u].T) if start else None
        end = start
    return band


@functools.lru_cache(maxsize=64)
def _panel_band(b, t, u):
    """Row, column and diagonal index of the band entries of a (b + t) x b
    lower panel of half-bandwidth u (read-only, shared between calls)."""
    r, col = np.nonzero(np.tri(b + t, b, dtype=bool) & ~np.tri(b + t, b, -u - 1, dtype=bool))
    d = r - col
    for a in (r, col, d):
        a.flags.writeable = False
    return r, col, d


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
    triangular band solve (BLAS ``tbsv`` on the upper band, transposed).
    Returns ``(x_new, diag(A))``.
    """
    ab = _normal_band(op, w, p)
    u, m = ab.shape[0] - 1, ab.shape[1]
    r = np.array(rhs, dtype=float)
    for d in range(1, u + 1):
        r[:m - d] -= ab[u - d, d:] * x[d:]
    return dtbsv(u, ab, r, trans=1, overwrite_x=1), ab[u]


@_silent_overflow
def dual_factor(op, w: np.ndarray, p: np.ndarray):
    """Factor of the N x N dual ``C = diag(1/w) + K diag(1/p) K'`` of
    ``A = K' diag(w) K + diag(p)``, for the operator ``op`` of a wide K.

    Returns ``(L, K diag(1/p))`` with L the lower Cholesky factor of C
    (LAPACK ``potrf``).  By the Woodbury identity ``A^-1 = diag(1/p) -
    diag(1/p) K' C^-1 K diag(1/p)``, so C stands in for A at O(N^2 M)
    instead of O(N M^2 + M^3).  Raises SingularSystem unless ``info`` is
    0 and L, w and p are finite: an infinite precision, which the factor
    of A would hold, is a zero variance in C.
    """
    KP = op.K / p
    C = KP @ op.K.T
    C.flat[::C.shape[0] + 1] += 1.0 / w
    # C.T is C's buffer in Fortran order: potrf factors it in place
    L, info = dpotrf(C.T, lower=1, overwrite_a=1)
    if info != 0 or not (np.isfinite(L).all() and np.isfinite(w).all()
                         and np.isfinite(p).all()):
        raise SingularSystem(f"dual Cholesky failed: potrf info={info}")
    return L, KP


@_silent_overflow
def dual_solve(op, L: np.ndarray, p: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``A^-1 rhs = y - diag(1/p) K' C^-1 K y``, ``y = rhs / p``, from the
    :func:`dual_factor` L of C (LAPACK ``potrs``)."""
    y = rhs / p
    s, info = dpotrs(L, op.K @ y, lower=1)
    x = y - (op.K.T @ s) / p
    if info != 0 or not np.isfinite(x).all():
        raise SingularSystem(f"dual SPD solve failed: potrs info={info}")
    return x


@_silent_overflow
def dual_roots(L: np.ndarray, KP: np.ndarray, w: np.ndarray):
    """``(B, R) = (L^-1 K diag(1/p), L^-1 diag(1/w))`` from the
    :func:`dual_factor` output (LAPACK ``trtrs`` and ``trtri``).

    ``A^-1 = diag(1/p) - B' B``, and ``diag(K A^-1 K') = colsum(R * (B
    K'))``: that is ``diag(W^-1 C^-1 G)`` for ``G = K diag(1/p) K'``,
    since ``K A^-1 K' = G - G C^-1 G = W^-1 C^-1 G``.  Raises
    SingularSystem unless each ``info`` is 0 and B and R are finite.
    """
    B, info = dtrtrs(L, KP, lower=1)
    Linv, info_inv = dtrtri(L, lower=1)
    R = Linv / w
    if info != 0 or info_inv != 0 or not (np.isfinite(B).all() and np.isfinite(R).all()):
        raise SingularSystem(f"dual triangular solve failed: trtrs info={info}, "
                             f"trtri info={info_inv}")
    return B, R


def solve_normal(op, w: np.ndarray, p: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``(K' diag(w) K + diag(p)) x = rhs`` for the weights w, p > 0.

    ``op`` is the operator of K; its ``banded_solve`` flag sends the
    solve through :func:`band_factor`, its ``dual`` flag through
    :func:`dual_factor`, else it runs through the dense
    :func:`spd_solve`.
    """
    if op.banded_solve:
        return band_solve(band_factor(op, w, p), rhs)
    if op.dual:
        return dual_solve(op, dual_factor(op, w, p)[0], p, rhs)
    return spd_solve(normal_matrix(op.K, w, p), rhs)


def spd_inverse(A: np.ndarray) -> np.ndarray:
    """Full inverse of a symmetric positive-definite matrix, exactly symmetric.

    One LAPACK ``potrf`` factor, then ``potri``.  Raises SingularSystem
    unless each ``info`` is 0 and both the factor and the inverse are
    finite.
    """
    L, info = dpotrf(A, lower=1)
    if info != 0 or not np.isfinite(L).all():
        raise SingularSystem(f"SPD inverse failed: potrf info={info}")
    low, info = dpotri(L, lower=1, overwrite_c=1)
    if info != 0:
        raise SingularSystem(f"SPD inverse failed: potri info={info}")
    # potri writes the lower triangle and leaves the factor's zero upper
    # triangle as is; adding the transpose doubles only the diagonal,
    # and halving it again is exact
    inv = low + low.T
    inv.flat[::inv.shape[0] + 1] *= 0.5
    if not np.isfinite(inv).all():
        raise SingularSystem("SPD inverse produced non-finite values")
    return inv


def rel_change(new: np.ndarray, old: np.ndarray) -> float:
    """Relative iterate change ||new - old|| / max(||new||, tiny), a Python float.

    0/0 gives 0.0; a zero iterate after a non-zero one gives inf.
    """
    diff = float(np.linalg.norm(np.asarray(new) - np.asarray(old)))
    if diff == 0.0:
        return 0.0
    # Python float division overflows to inf without a warning
    return diff / max(float(np.linalg.norm(new)), _TINY)
