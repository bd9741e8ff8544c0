"""Domain types and the joint negative-log-posterior criterion.

Hierarchical model for the linear inverse problem g = H f + eps:

    indirect sparsity       f = D z + xi,  z sparse
        g | f, v_eps   ~ N(H f, V_eps),    v_eps_i ~ IG(alpha_eps, beta_eps)
        f | z, v_xi    ~ N(D z, V_xi),     v_xi_j  ~ IG(alpha_xi,  beta_xi)
        z | v_z        ~ N(0,   V_z),      v_z_j   ~ IG(alpha_z,   beta_z)

    direct sparsity         f itself sparse (no D, no z)
        g | f, v_eps   ~ N(H f, V_eps),    v_eps_i ~ IG(alpha_eps, beta_eps)
        f | v_f        ~ N(0,   V_f),      v_f_j   ~ IG(alpha_f,   beta_f)

All V are diagonal with per-component variances.  Minus the log of the
joint posterior, up to an additive constant, is the criterion

    L = 1/2 (g - Hf)' Veps^-1 (g - Hf) + (alpha_eps + 3/2) sum ln v_eps_i
        + sum beta_eps / v_eps_i
      + 1/2 (f - Dz)' Vxi^-1 (f - Dz)  + (alpha_xi + 3/2) sum ln v_xi_j
        + sum beta_xi / v_xi_j
      + 1/2 z' Vz^-1 z                 + (alpha_z + 3/2) sum ln v_z_j
        + sum beta_z / v_z_j

with the xi-block replaced by the (f, v_f, alpha_f, beta_f) block in the
direct model.  L is defined only up to a state-independent constant, so
consumers must compare L differences or argmins, never absolute values.

Every Gaussian block of both solvers solves the normal equations that
:func:`_normal_system` forms, ``(K' diag(w) K + diag(p)) x = rhs`` with
K = H (f block) or D (z block).  Each K is a :class:`_Operator`, built
once per problem (``ForwardProblem._operators``): the dense array, its
bandwidths, its band layout and the four measured flags that make
every dense-or-banded choice.  Every product with H or D in the solvers
is its operator's ``matvec`` or ``rmatvec``.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Optional, Union

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from numpy.typing import ArrayLike


class DimensionMismatch(ValueError):
    """Shapes of g, H, D or state vectors are mutually inconsistent."""


class NonFinite(ValueError):
    """A NaN or infinity was found where a finite value is required."""


class NonPositiveHyper(ValueError):
    """A hyperparameter is zero, negative or non-finite."""


class NonPositiveVariance(ValueError):
    """A variance entry is zero or negative."""


class SingularSystem(RuntimeError):
    """A symmetric positive-definite solve failed at working precision."""


class ModelMismatch(ValueError):
    """Operation requires the other sparsity model (direct vs indirect)."""


# Where a normal system or a criterion term is formed, an extreme
# precision can overflow, and so can the squared residual of a variance
# step.  numpy's warnings are silenced there: the non-finite result fails
# the finite-factor rule (see ``_linalg``) or the finite-scale check of
# the variance step, so SingularSystem comes alone, and an overflowing L
# is +inf.
_silent_overflow = np.errstate(over="ignore", invalid="ignore")


def _as_vector(x, name: str, size=None) -> np.ndarray:
    """x as a float vector; DimensionMismatch unless 1-D and, when given, of ``size``."""
    a = np.asarray(x, dtype=float)
    if a.ndim != 1 or size not in (None, a.size):
        length = "" if size is None else f" of length {size}"
        raise DimensionMismatch(f"{name} must be one-dimensional{length}, got shape {a.shape}")
    return a


@dataclass(frozen=True)
class ForwardProblem:
    """Observations g (length N), operator H (N x M), optional transform D (M x M).

    D absent selects the direct-sparsity model (f itself sparse); D present
    selects the indirect model (z sparse, f = D z + xi).
    """

    g: np.ndarray
    H: np.ndarray
    D: Optional[np.ndarray] = None

    def __post_init__(self):
        object.__setattr__(self, "g", np.asarray(self.g, dtype=float).reshape(-1))
        object.__setattr__(self, "H", np.asarray(self.H, dtype=float))
        if self.D is not None:
            object.__setattr__(self, "D", np.asarray(self.D, dtype=float))

    @property
    def n_obs(self) -> int:
        return self.g.shape[0]

    @property
    def n_coef(self) -> int:
        return self.H.shape[1] if self.H.ndim == 2 else 0

    @property
    def is_direct(self) -> bool:
        return self.D is None

    @cached_property
    def _operators(self) -> dict:
        """The :class:`_Operator` of each Gaussian block's K, built once per
        problem: H for the f block and, in the indirect model, D for the z
        block."""
        return {block: _Operator(K) for block, K in (("f", self.H), ("z", self.D))
                if K is not None}


def bandwidths(K: np.ndarray) -> tuple:
    """(kl, ku): how many diagonals below and above the main one hold nonzeros.

    An all-zero K gives (0, 0).  A dense N x M matrix gives (N - 1, M - 1).
    """
    nz = K != 0
    rows = np.flatnonzero(nz.any(axis=1))
    if rows.size == 0:
        return 0, 0
    first = nz[rows].argmax(axis=1)
    last = K.shape[1] - 1 - nz[rows, ::-1].argmax(axis=1)
    return max(int((rows - first).max()), 0), max(int((last - rows).max()), 0)


class _Operator:
    """A matrix K (H or D) with its band layout and its dense-or-banded choices.

    ``K`` is the dense array itself, which every dense path reads, so a
    dense path keeps its bits.  ``kl`` and ``ku`` count its sub- and
    super-diagonals (:func:`bandwidths` unless ``bands`` gives a pair at
    least as wide), and u = kl + ku is the half-bandwidth of
    ``K' diag(w) K``.  Every dense-or-banded choice is one of four flags,
    each a measured rule on the shape and u, with one BLAS thread on
    random banded K:

    ``banded_solve``, 8 u <= M: a JMAP solve, and ``diag(K Sigma K')`` of
    a band or diagonal Sigma, run in band storage.  The banded solve beat
    the dense one up to kl + ku of about M / 5 at M = 128 and M / 4 at
    M = 1024, but only up to 2-3 at M = 16-32, where the kl + ku + 1
    vector operations that form the band cost more than dense BLAS.
    Requiring kl + ku <= M / 8 stays on the winning side at every M.

    ``banded_block``, u = 0, or M >= 96 and 16 u <= M, or M >= 160 and
    8 u <= M: a partial-scheme VBA block runs banded.  Measured (N = M)
    for the block's mean, diag(Sigma) and diag(K Sigma K'), banded
    against dense: the banded block costs about 1.5-3 us per column
    (mostly the selected inversion), so it lost at M = 16-64 for every
    u >= 1 (0.5-0.9x).  It won at M = 96 up to u = 4 (1.1-1.4x) and at
    M = 128 up to u = 8 (1.1-2.3x), and lost at M = 96, u = 8-12
    (0.7-0.9x) and M = 128, u = 16-32 (0.5-0.9x).  From M = 160 it won
    up to u = M / 8 (1.3-6x at M = 160-512) and lost from about u = M / 5
    (0.8-1.0x).  A diagonal block (u = 0) won from M = 16 up and tied
    below.

    ``banded_pass``, 8 u <= M and u^2 <= 4 M: the full-scheme coordinate
    pass runs as one banded Gauss-Seidel solve.  Measured as for
    ``banded_block``: the band won wherever 8 u <= M holds (1.0x at M = 8
    up to 30x at M = 1024), except when u^2 outgrows M: at M = 1024 it won
    at u = 64 (1.5x) and lost at u = 128 (0.4x), where building the band
    costs O(M u^2) against the O(N M) of the dense pass.

    ``banded_product``, 16384 (u + 1) <= N M: :meth:`matvec` and
    :meth:`rmatvec` are one slice-axpy per diagonal of the band layout,
    about 2.3 us each, against a dense product that grows with N M.
    Measured (N = M), dense against banded ``K @ x``: at u = 2, 4.1/7.0
    us at M = 128, 8.3/8.1 at 192, 12.7/7.3 at 256 and 380/11 at 1024;
    at u = 8, 12/21 at M = 256, 23/22 at 384 and 72/27 at 512; at u = 0,
    4.8/3.2 at M = 128.  The rule takes the band only where it won or
    tied, and stays dense in a few cases the band won (M = 512, u = 16;
    M = 1024, u = 64).  Its sums run in another order, so a banded product
    differs from the dense one in the last bits (within 1e-12 of
    ``|K| @ |x|``).  ``banded_solve``'s rule would not do here: it sends
    3-tap products from M = 16 up to the band, and dense was faster at
    M = 64-128 (2.4/7.1 and 4.1/7.0 us).

    The band layout (:attr:`layout`), its diagonals as slices, and the
    contiguous K' of the dense coordinate pass (:attr:`KT`) are built on
    first use, once.
    """

    def __init__(self, K: np.ndarray, bands=None):
        self.K = K
        self.kl, self.ku = bands or bandwidths(K)
        u, (n, m) = self.kl + self.ku, K.shape
        self.banded_solve = 8 * u <= m
        self.banded_block = u == 0 or (m >= 96 and 16 * u <= m) or (m >= 160 and self.banded_solve)
        self.banded_pass = self.banded_solve and u * u <= 4 * m
        self.banded_product = 16384 * (u + 1) <= n * m

    def matvec(self, x) -> np.ndarray:
        """``K @ x``: one slice-axpy per diagonal when ``banded_product``,
        which raises DimensionMismatch unless x is a vector of length M."""
        if not self.banded_product:
            return self.K @ x
        x = _as_vector(x, "x", self.K.shape[1])
        y = np.zeros(self.K.shape[0])
        for diagonal, rows, cols in self._diagonals:
            y[rows] += diagonal * x[cols]
        return y

    def rmatvec(self, y) -> np.ndarray:
        """``K' @ y``: one slice-axpy per diagonal when ``banded_product``,
        which raises DimensionMismatch unless y is a vector of length N."""
        if not self.banded_product:
            return self.K.T @ y
        y = _as_vector(y, "y", self.K.shape[0])
        x = np.zeros(self.K.shape[1])
        for diagonal, rows, cols in self._diagonals:
            x[cols] += diagonal * y[rows]
        return x

    @cached_property
    def _diagonals(self) -> list:
        """Each diagonal of K inside K, from :attr:`layout`: ``(values, rows,
        cols)`` with ``K[rows, cols] = values``, the index ranges as slices."""
        Kb = self.layout[0]
        n, m = self.K.shape
        out = []
        for r in range(self.kl + self.ku + 1):
            d = r - self.ku   # row i = j + d of column j
            lo, hi = max(0, -d), min(m, n - d)
            if lo < hi:
                out.append((Kb[r, lo:hi], slice(lo + d, hi + d), slice(lo, hi)))
        return out

    @cached_property
    def layout(self) -> tuple:
        """General band storage of K, ``Kb[r, j] = K[j - ku + r, j]``, zero outside K.

        Also the row index ``j - ku + r`` of every entry (0 where it falls
        outside K) and the mask of entries inside K: ``(Kb, rows, inside)``.
        """
        n, m = self.K.shape
        rows = np.arange(m) + np.arange(-self.ku, self.kl + 1)[:, None]
        inside = (rows >= 0) & (rows < n)
        rows[~inside] = 0
        return np.where(inside, self.K[rows, np.arange(m)], 0.0), rows, inside

    @cached_property
    def KT(self) -> np.ndarray:
        """K' in C order: row j is column j of K."""
        return np.ascontiguousarray(self.K.T)


@dataclass(frozen=True)
class HyperParams:
    """Inverse-Gamma hyperparameters, one (shape, scale) pair per variance family.

    (alpha_eps, beta_eps, alpha_xi, beta_xi, alpha_z, beta_z) drive the
    indirect model; (alpha_eps, beta_eps, alpha_f, beta_f) the direct one.
    Values are validated by :func:`validate_problem`, not at construction.
    """

    alpha_eps: float = 1.0
    beta_eps: float = 1.0
    alpha_xi: float = 1.0
    beta_xi: float = 1.0
    alpha_z: float = 1.0
    beta_z: float = 1.0
    alpha_f: float = 1.0
    beta_f: float = 1.0

    def as_dict(self) -> dict:
        return {
            "alpha_eps": self.alpha_eps, "beta_eps": self.beta_eps,
            "alpha_xi": self.alpha_xi, "beta_xi": self.beta_xi,
            "alpha_z": self.alpha_z, "beta_z": self.beta_z,
            "alpha_f": self.alpha_f, "beta_f": self.beta_f,
        }


@dataclass(frozen=True)
class JmapConfig:
    """Iteration limits, stopping tolerances and initialization.

    ``init`` is "zeros", "least-squares", or an explicit starting vector
    for f.  The run stops when the relative change of f AND the relative
    decrease of L both fall below their tolerances, or at max_iter.
    """

    max_iter: int = 100
    tol_rel_f: float = 1e-8
    tol_rel_L: float = 1e-8
    init: Union[str, np.ndarray] = "zeros"

    def __post_init__(self):
        _check_limits(self.max_iter, self.init, tol_rel_f=self.tol_rel_f,
                      tol_rel_L=self.tol_rel_L)


def _is_integer(value) -> bool:
    """Whether value is an integer: a Python or numpy integer, not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _check_limits(max_iter, init, **tolerances):
    """Checks shared by JmapConfig and VbaConfig; raises ValueError.

    max_iter must be an integer >= 1 (numpy integers too, bool not),
    every tolerance strictly positive (NaN is not), a string init known
    and a vector init finite.
    """
    if not _is_integer(max_iter):
        raise ValueError(f"max_iter must be an integer, got {max_iter!r}")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    for name, tol in tolerances.items():
        if not tol > 0:
            raise ValueError(f"{name} must be strictly positive, got {tol!r}")
    if isinstance(init, str):
        if init not in ("zeros", "least-squares"):
            raise ValueError(f"unknown init {init!r}")
    elif not np.all(np.isfinite(np.asarray(init, dtype=float))):
        raise ValueError("init vector must be finite")


@dataclass(frozen=True)
class IgFamily:
    """Inverse-Gamma factor parameters, one (shape, scale) per component."""

    alpha_hat: np.ndarray
    beta_hat: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "alpha_hat", np.asarray(self.alpha_hat, dtype=float))
        object.__setattr__(self, "beta_hat", np.asarray(self.beta_hat, dtype=float))

    @classmethod
    def posterior(cls, alpha, beta, spread):
        """IG(alpha + 1/2, beta + spread / 2) per component, the factor of a
        family with prior IG(alpha, beta) and per-component ``spread`` (the
        squared residual, plus its covariance terms under VBA).

        Its mode (beta + spread / 2) / (alpha + 3/2) is the JMAP variance
        block; VBA keeps the whole factor.  Raises SingularSystem unless
        every scale is finite (a spread that overflowed).
        """
        beta_hat = beta + 0.5 * spread
        if not np.isfinite(beta_hat).all():
            raise SingularSystem("variance update produced non-finite values")
        return cls(np.full(spread.size, alpha + 0.5), beta_hat)

    def inv_expectation(self) -> np.ndarray:
        """Per-component <v^-1> = alpha_hat / beta_hat."""
        return self.alpha_hat / self.beta_hat

    def point_variance(self) -> np.ndarray:
        """1 / <v^-1>, the variance value the updates effectively use."""
        return self.beta_hat / self.alpha_hat


@dataclass(frozen=True)
class SolverState:
    """Current iterates of either solver.

    JMAP fills the point variances (v_eps plus v_xi/v_z or v_f); VBA
    additionally carries the Normal covariances and the Inverse-Gamma
    family parameters, with v_* holding the point values 1/<v^-1> =
    beta_hat/alpha_hat actually used by the updates.

    VBA keeps each covariance in the form its block produced: a dense
    block gives a plain array, a banded block its band and factor, the
    full scheme a diagonal.  ``np.asarray(state.Sigma_f)`` gives the
    whole matrix, formed again on each conversion.
    """

    f_hat: np.ndarray
    z_hat: Optional[np.ndarray] = None
    v_eps: Optional[np.ndarray] = None
    v_xi: Optional[np.ndarray] = None
    v_f: Optional[np.ndarray] = None
    v_z: Optional[np.ndarray] = None
    Sigma_f: Optional["ArrayLike"] = None   # np.asarray gives the whole matrix
    Sigma_z: Optional["ArrayLike"] = None
    ig_eps: Optional[IgFamily] = None
    ig_xi: Optional[IgFamily] = None
    ig_z: Optional[IgFamily] = None
    ig_f: Optional[IgFamily] = None


@dataclass
class IterationRecord:
    """One solver iteration: criterion value, iterate changes and wall time.

    Iteration 0 is the initial state; its relative changes are None.
    """

    iteration: int
    criterion: float
    rel_change_f: Optional[float]
    rel_change_z: Optional[float]
    seconds: float


@dataclass
class RunTrace:
    """Per-iteration history of a solver run.

    ``update_order`` documents the fixed block-update cycle; ``converged``
    is False when the run stopped at max_iter (not an error).
    """

    update_order: tuple
    records: list = field(default_factory=list)
    converged: bool = False
    stop_reason: str = "max_iter"

    def append(self, criterion, rel_change_f=None, rel_change_z=None, seconds=0.0):
        index = self.records[-1].iteration + 1 if self.records else 0
        self.records.append(
            IterationRecord(index, float(criterion), rel_change_f, rel_change_z, seconds)
        )

    def criterion_values(self) -> np.ndarray:
        return np.array([r.criterion for r in self.records])

    @property
    def iterations(self) -> int:
        """Number of completed update sweeps (record 0 is the initial state)."""
        return len(self.records) - 1 if self.records else 0


def validate_problem(problem: ForwardProblem, hyper: HyperParams) -> None:
    """Check type invariants and mutual shape consistency.

    Raises DimensionMismatch, NonFinite or NonPositiveHyper; returns None
    when the pair is usable by the solvers.
    """
    g, H, D = problem.g, problem.H, problem.D
    if H.ndim != 2:
        raise DimensionMismatch(f"H must be a matrix, got array of ndim {H.ndim}")
    n, m = H.shape
    if n < 1 or m < 1:
        raise DimensionMismatch(f"H must be at least 1x1, got {n}x{m}")
    if g.shape != (n,):
        raise DimensionMismatch(f"g has length {g.shape[0]}, H has {n} rows")
    if D is not None:
        if D.ndim != 2 or D.shape != (m, m):
            raise DimensionMismatch(
                f"D must be {m}x{m} to match H, got shape {D.shape}"
            )
        if not np.all(np.isfinite(D)):
            raise NonFinite("D contains NaN or Inf entries")
    if not np.all(np.isfinite(H)):
        raise NonFinite("H contains NaN or Inf entries")
    if not np.all(np.isfinite(g)):
        raise NonFinite("g contains NaN or Inf entries")
    for name, value in hyper.as_dict().items():
        if not np.isfinite(value) or value <= 0.0:
            raise NonPositiveHyper(f"hyperparameter {name} must be finite and > 0, got {value}")


def _check_positive(v: np.ndarray, name: str, size=None) -> np.ndarray:
    v = _as_vector(v, name, size)
    if v.size and not (np.isfinite(v).all() and (v > 0.0).all()):
        raise NonPositiveVariance(f"{name} must be strictly positive and finite")
    return v


def _check_ig(alpha, beta):
    """Raise ValueError unless an IG shape and scale are finite and > 0."""
    if not (0 < alpha < np.inf and 0 < beta < np.inf):
        raise ValueError(f"alpha and beta must be finite and strictly positive, "
                         f"got {alpha!r} and {beta!r}")


@_silent_overflow
def _normal_system(problem: ForwardProblem, block: str, w, p, other=None) -> tuple:
    """The normal equations ``(K' diag(w) K + diag(p)) x = rhs`` of a Gaussian block.

    Returns ``(op, w, p, rhs)``, in the argument order of the solvers in
    ``_linalg``; ``op`` is the :class:`_Operator` of K, whose flags choose
    the dense or banded path.  ``w`` and ``p`` are the block's
    precisions, checked by the caller.  The f block has K = H and rhs =
    H'(w g), plus the coupling p * (D z) when ``other`` is z (indirect
    model); the z block has K = D and rhs = D'(w f) with ``other`` = f.
    JMAP and VBA differ only in the precisions they pass: 1/v or <v^-1>.
    """
    if problem.is_direct and (block == "z" or other is not None):
        raise ModelMismatch("z and its block require the indirect model (D present)")
    other = None if other is None else np.asarray(other, dtype=float)
    op, data = problem._operators[block], (problem.g if block == "f" else other)
    n, m = op.K.shape
    if np.shape(w) != (n,) or np.shape(p) != (m,) or (other is not None and other.shape != (m,)):
        raise DimensionMismatch(
            f"{block} block: w, p and the other block have lengths {np.size(w)}, "
            f"{np.size(p)}, {'-' if other is None else other.size}; "
            f"expected {n}, {m}, {m}")
    rhs = op.rmatvec(w * data)
    if block == "f" and other is not None:
        rhs = rhs + p * problem._operators["z"].matvec(other)
    return op, w, p, rhs


def _variance_families(problem: ForwardProblem, hyper: HyperParams, f, z) -> tuple:
    """The model's variance families as ``(kind, alpha, beta, residual)``.

    eps comes first, then f (direct model) or xi and z (indirect model).
    ``kind`` names the state fields ``v_<kind>`` and ``ig_<kind>``; the
    residual is the quantity whose variance the family holds at (f, z).
    """
    ops = problem._operators
    eps = ("eps", hyper.alpha_eps, hyper.beta_eps, problem.g - ops["f"].matvec(f))
    if problem.is_direct:
        return eps, ("f", hyper.alpha_f, hyper.beta_f, f)
    return (eps, ("xi", hyper.alpha_xi, hyper.beta_xi, f - ops["z"].matvec(z)),
            ("z", hyper.alpha_z, hyper.beta_z, z))


@_silent_overflow
def neg_log_posterior(state: SolverState, problem: ForwardProblem, hyper: HyperParams) -> float:
    """Joint negative-log-posterior L at a state (constants dropped).

    Compare L differences or argmins only; the absolute level depends on
    the dropped normalization constants.  A term that overflows makes L
    +inf.
    """
    f = _as_vector(state.f_hat, "f_hat")
    z = None if problem.is_direct else _as_vector(state.z_hat, "z_hat")
    total = 0.0
    for kind, alpha, beta, residual in _variance_families(problem, hyper, f, z):
        v = _check_positive(getattr(state, "v_" + kind), "v_" + kind)
        # the quadratic and log-barrier terms of one variance family
        total += float(0.5 * np.sum(residual * residual / v)
                       + (alpha + 1.5) * np.sum(np.log(v)) + np.sum(beta / v))
    return total
