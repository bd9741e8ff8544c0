"""Dense SPD solve/inverse helpers shared by the solvers.

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
