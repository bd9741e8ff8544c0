"""SPD solve/inverse helpers shared by the solvers.

Every Gaussian block solves normal equations ``(K' diag(w) K + diag(p))
x = rhs``.  ``model._normal_system`` gives each block its ``(K, bands,
w, p, rhs)``, in the argument order of :func:`solve_normal` (both JMAP
blocks) and :func:`band_gauss_seidel`.  When K is banded with ``kl`` sub- and ``ku``
super-diagonals, the matrix is banded with half-bandwidth ``kl + ku``
and is built and factored in band storage, in O(M (kl + ku)^2) instead
of O(N M^2 + M^3 / 3).  :func:`band_factor` is that one banded factor.
JMAP solves with it; VBA also takes from it the band of the covariance
(:func:`selected_inverse`), which gives ``diag(K Sigma K')``
(:func:`band_quad_diag`); :func:`band_inverse` forms the whole
covariance from the factor, only when a caller converts a returned
band covariance to an array.  :func:`band_gauss_seidel` is the VBA
coordinate pass on the same band storage.

Explicit dense inversion is confined to :func:`spd_inverse`, which the
variational updates need on dense operators because downstream scale
updates consume the covariance diagonal and quadratic forms.  It
factors once with Cholesky and forms the inverse from the factor with
LAPACK ``potri``: about M^3 flops in all, against 7/3 M^3 for solving
against the identity.
"""

from __future__ import annotations

import functools

import numpy as np
import scipy.linalg
from scipy.linalg.blas import dtbsv
from scipy.linalg.lapack import dpbtrf, dpbtrs, dpotri, dtrtrs

from .model import SingularSystem

_TINY = float(np.finfo(float).tiny)
# columns per dense block of selected_inverse: of 16, 32 and 64, 32 was
# the fastest on most problems measured (M = 64-2048, u = 2-64, one BLAS
# thread)
_SELINV_BLOCK = 32


def spd_solve(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A x = b for symmetric positive-definite A via Cholesky."""
    try:
        c, low = scipy.linalg.cho_factor(A, check_finite=False)
        x = scipy.linalg.cho_solve((c, low), b, check_finite=False)
    except (scipy.linalg.LinAlgError, ValueError) as exc:
        raise SingularSystem(f"SPD solve failed: {exc}") from exc
    if not np.all(np.isfinite(x)):
        raise SingularSystem("SPD solve produced non-finite values")
    return x


def normal_matrix(K: np.ndarray, w: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Dense ``K' diag(w) K + diag(p)``."""
    A = K.T @ (K * w[:, None])
    A[np.diag_indices_from(A)] += p
    return A


def _banded(bands, m: int) -> bool:
    """Whether band storage pays for an M-column K with these bandwidths.

    Measured with one BLAS thread on random banded K, the banded solve
    beat the dense one up to kl + ku of about M / 5 at M = 128 and M / 4
    at M = 1024, but only up to 2-3 at M = 16-32, where the kl + ku + 1
    vector operations that form the band cost more than dense BLAS.
    Requiring kl + ku <= M / 8 stays on the winning side at every M.
    """
    return 8 * (bands[0] + bands[1]) <= m


def _band_gather(K, kl, ku):
    """General band storage of K, ``Kb[r, j] = K[j - ku + r, j]``, zero outside K.

    Also returns the row index ``j - ku + r`` of every entry (0 where
    it falls outside K) and the mask of entries inside K.
    """
    n, m = K.shape
    rows = np.arange(m) + np.arange(-ku, kl + 1)[:, None]
    inside = (rows >= 0) & (rows < n)
    rows[~inside] = 0
    return np.where(inside, K[rows, np.arange(m)], 0.0), rows, inside


def _normal_band(K, kl, ku, w, p):
    """Upper band storage (LAPACK ``pbtrf`` layout, ``ab[u + i - j, j] = A[i, j]``)
    of ``A = K' diag(w) K + diag(p)``, with ``u = kl + ku``."""
    m = K.shape[1]
    u = kl + ku
    Kb, rows, _ = _band_gather(K, kl, ku)
    Kbw = Kb * w[rows]
    ab = np.zeros((u + 1, m))
    for d in range(u + 1):
        # A[j, j + d] = sum over rows i = j - ku + r of K[i, j] w_i K[i, j + d]
        ab[u - d, d:] = (Kbw[d:, :m - d] * Kb[:u + 1 - d, d:]).sum(axis=0)
    ab[u] += p
    return ab


def band_factor(K: np.ndarray, bands, w: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Banded Cholesky factor U (``A = U' U``) of ``A = K' diag(w) K + diag(p)``.

    ``bands`` is ``(kl, ku)`` of K.  U is in the upper band storage of
    LAPACK ``pbtrf``, ``(kl + ku + 1) x M``.  Raises SingularSystem when
    A is not positive definite or the factor is not finite (an infinite
    diagonal passes Cholesky and yields a finite, meaningless solve).
    """
    c, info = dpbtrf(_normal_band(K, bands[0], bands[1], w, p), overwrite_ab=1)
    if info != 0 or not np.all(np.isfinite(c)):
        raise SingularSystem(f"banded Cholesky failed: pbtrf info={info}")
    return c


def band_solve(c: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``U' U x = rhs`` for the :func:`band_factor` output U."""
    x, info = dpbtrs(c, rhs)
    if info != 0 or not np.all(np.isfinite(x)):
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
    lower = np.zeros((u1, m))                  # lower[d, j] = L[j + d, j]
    for d in range(u1):
        lower[d, :m - d] = c[u - d, d:]
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
        panel[r, col] = lower[d, start + col]
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


def band_quad_diag(K: np.ndarray, bands, S: np.ndarray) -> np.ndarray:
    """``diag(K Sigma K')`` for a banded K and the band S of a symmetric Sigma.

    ``bands`` is ``(kl, ku)`` of K; S is the lower band storage of
    Sigma, ``S[d, j] = Sigma[j + d, j]``, with at most ``kl + ku + 1``
    rows (one row is a diagonal Sigma).  Sigma entries outside the band
    are never read: row i of K spans columns ``i - kl .. i + ku``.
    """
    kl, ku = bands
    m = K.shape[1]
    Kb, rows, inside = _band_gather(K, kl, ku)
    # T[r, j] = sum over k >= j of Sigma[k, j] K[i, k], the terms k > j
    # doubled, for the row i = j - ku + r; then diag(K Sigma K')[i] is
    # the sum over j of K[i, j] T[r, j]
    T = Kb * S[0]
    for d in range(1, S.shape[0]):
        T[d:, :m - d] += 2.0 * Kb[:-d, d:] * S[d, :m - d]
    return np.bincount(rows[inside], weights=(Kb * T)[inside], minlength=K.shape[0])


def band_gauss_seidel(K: np.ndarray, bands, w: np.ndarray, p: np.ndarray,
                      rhs: np.ndarray, x: np.ndarray):
    """One Gauss-Seidel sweep, coordinates 0..M-1, on ``A x = rhs``.

    ``A = K' diag(w) K + diag(p)`` with K banded, ``bands = (kl, ku)``.
    The sweep solves ``tril(A) x_new = rhs - triu(A, 1) x`` with one
    triangular band solve (BLAS ``tbsv`` on the upper band, transposed).
    Returns ``(x_new, diag(A))``.
    """
    ab = _normal_band(K, bands[0], bands[1], w, p)
    u, m = ab.shape[0] - 1, ab.shape[1]
    r = np.array(rhs, dtype=float)
    for d in range(1, u + 1):
        r[:m - d] -= ab[u - d, d:] * x[d:]
    return dtbsv(u, ab, r, trans=1, overwrite_x=1), ab[u]


def solve_normal(K: np.ndarray, bands, w: np.ndarray, p: np.ndarray,
                 rhs: np.ndarray) -> np.ndarray:
    """Solve ``(K' diag(w) K + diag(p)) x = rhs`` for the weights w, p > 0.

    ``bands`` is ``(kl, ku)`` of K (any pair at least as wide as its
    nonzeros).  A narrow band goes through :func:`band_factor`, a wide
    one through the dense :func:`spd_solve`.
    """
    if not _banded(bands, K.shape[1]):
        A = normal_matrix(K, w, p)
        _require_finite(A)
        return spd_solve(A, rhs)
    return band_solve(band_factor(K, bands, w, p), rhs)


def _require_finite(A):
    # an infinite diagonal passes Cholesky and yields a finite, meaningless x
    if not np.all(np.isfinite(A)):
        raise SingularSystem("normal-equation matrix has non-finite entries")


def spd_inverse(A: np.ndarray) -> np.ndarray:
    """Full inverse of a symmetric positive-definite matrix, exactly symmetric."""
    try:
        L = scipy.linalg.cholesky(A, lower=True, check_finite=False)
    except (scipy.linalg.LinAlgError, ValueError) as exc:
        raise SingularSystem(f"SPD inverse failed: {exc}") from exc
    potri, = scipy.linalg.get_lapack_funcs(("potri",), (L,))
    low, info = potri(L, lower=1, overwrite_c=1)
    if info != 0:
        raise SingularSystem(f"SPD inverse failed: potri info={info}")
    # potri writes the lower triangle and leaves the factor's zero upper
    # triangle as is; adding the transpose doubles only the diagonal,
    # and halving it again is exact
    inv = low + low.T
    inv.flat[::inv.shape[0] + 1] *= 0.5
    if not np.all(np.isfinite(inv)):
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
