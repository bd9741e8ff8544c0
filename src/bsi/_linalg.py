"""SPD solve/inverse helpers shared by the solvers.

Every Gaussian block solves normal equations ``(K' diag(w) K + diag(p))
x = rhs``; :func:`solve_normal` forms and solves them once for both
JMAP blocks.  When K is banded with ``kl`` sub- and ``ku``
super-diagonals, the matrix is banded with half-bandwidth ``kl + ku``
and is built and factored in band storage, in O(M (kl + ku)^2) instead
of O(N M^2 + M^3 / 3).

Explicit matrix inversion is confined to :func:`spd_inverse`, which the
variational updates need because downstream scale updates consume the
covariance diagonal and quadratic forms.  It factors once with Cholesky
and forms the inverse from the factor with LAPACK ``potri``: about M^3
flops in all, against 7/3 M^3 for solving against the identity.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .model import SingularSystem


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


def _normal_band(K, kl, ku, w, p):
    """Upper band storage (``solveh_banded`` layout) of ``K' diag(w) K + diag(p)``."""
    n, m = K.shape
    u = kl + ku
    # general band storage of K: Kb[r, j] = K[j - ku + r, j]
    rows = np.arange(m) + np.arange(-ku, kl + 1)[:, None]
    inside = (rows >= 0) & (rows < n)
    rows[~inside] = 0
    Kb = np.where(inside, K[rows, np.arange(m)], 0.0)
    Kbw = Kb * w[rows]
    ab = np.zeros((u + 1, m))
    for d in range(u + 1):
        # A[j, j + d] = sum over rows i = j - ku + r of K[i, j] w_i K[i, j + d]
        ab[u - d, d:] = (Kbw[d:, :m - d] * Kb[:u + 1 - d, d:]).sum(axis=0)
    ab[u] += p
    return ab


def solve_normal(K: np.ndarray, bands, w: np.ndarray, p: np.ndarray,
                 rhs: np.ndarray) -> np.ndarray:
    """Solve ``(K' diag(w) K + diag(p)) x = rhs`` for the weights w, p > 0.

    ``bands`` is ``(kl, ku)`` of K (any pair at least as wide as its
    nonzeros).  A narrow band goes through a banded Cholesky
    (``solveh_banded``), a wide one through the dense :func:`spd_solve`.
    """
    kl, ku = bands
    if not _banded(bands, K.shape[1]):
        A = normal_matrix(K, w, p)
        _require_finite(A)
        return spd_solve(A, rhs)
    ab = _normal_band(K, kl, ku, w, p)
    _require_finite(ab)
    try:
        x = scipy.linalg.solveh_banded(ab, rhs, check_finite=False)
    except (scipy.linalg.LinAlgError, ValueError) as exc:
        raise SingularSystem(f"banded SPD solve failed: {exc}") from exc
    if not np.all(np.isfinite(x)):
        raise SingularSystem("banded SPD solve produced non-finite values")
    return x


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
    """Relative iterate change ||new - old|| / max(||new||, tiny)."""
    denom = max(float(np.linalg.norm(new)), np.finfo(float).tiny)
    return float(np.linalg.norm(np.asarray(new) - np.asarray(old))) / denom
