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
bandwidths, its band layout and the four measured flags that choose
between the dense, banded and dual paths.  Every product with H or D in
the solvers is its operator's ``matvec`` or ``rmatvec``.

Every solver step, in ``_linalg``, ``jmap``, ``vba`` and here, ends a
degenerate solve in SingularSystem through one helper, :func:`_solved`,
which holds the failure rule.
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


def _solved(what: str, *arrays, info=0):
    """The failure rule of every solver step; returns the first array.

    Raises SingularSystem unless LAPACK's ``info`` is 0 and every array
    is finite.  ``what`` names the step in the message.  Each step passes
    the factor it made (an infinite diagonal passes Cholesky with
    ``info`` 0 and yields a finite, meaningless result, but the factor
    holds the infinity) and its result; a step with no factor, such as
    the VBA coordinate pass, passes its precision diagonal in the
    factor's place, and a variance step its new variances or scales.
    No other code raises SingularSystem.
    """
    if info != 0:
        raise SingularSystem(f"{what} failed: info={info}")
    for a in arrays:
        if not np.isfinite(a).all():
            raise SingularSystem(f"{what} is not finite")
    return arrays[0] if arrays else None


# Where a normal system or a criterion term is formed, an extreme
# precision can overflow, and so can the squared residual of a variance
# step.  numpy's warnings are silenced there: the non-finite result fails
# the failure rule (:func:`_solved`), so SingularSystem comes alone, and
# an overflowing L is +inf.
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
    selects the indirect model (z sparse, f = D z + xi).  g must be
    one-dimensional (DimensionMismatch).
    """

    g: np.ndarray
    H: np.ndarray
    D: Optional[np.ndarray] = None

    def __post_init__(self):
        object.__setattr__(self, "g", _as_vector(self.g, "g"))
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
    # argmax over every row, then the rows kept: no copy of nz[rows].  The
    # reversed-view argmax stays: on numpy 2.4 a forward cumsum-argmax of
    # a 1024 x 1024 mask took 6.7 ms, against 0.5-0.7 ms for this one
    first = nz.argmax(axis=1)[rows]
    last = K.shape[1] - 1 - nz[:, ::-1].argmax(axis=1)[rows]
    return max(int((rows - first).max()), 0), max(int((last - rows).max()), 0)


class _Operator:
    """A matrix K (H or D) with its band layout and its dense-or-banded choices.

    ``K`` is the dense array itself, which every dense path reads, so a
    dense path keeps its bits.  ``kl`` and ``ku`` count its sub- and
    super-diagonals (:func:`bandwidths` unless ``bands`` gives a pair at
    least as wide), and u = kl + ku is the half-bandwidth of
    ``K' diag(w) K``.  Every dense-or-banded choice is one of three flags,
    and the choice of the dual a fourth, each a measured rule on the shape
    and u, with one BLAS thread on random banded K:

    ``banded_solve``, u = 0 or 4 u + 44 <= M: every partial-scheme
    Gaussian block, a JMAP solve and a VBA-partial block alike, runs in
    band storage, and so does ``diag(K Sigma K')`` of a band or diagonal
    Sigma.  ``tools/path_rules.py`` prints the banded / dense time of
    10-sweep solves of each solver (N = M, M = 16-512 at u = 0-64, and
    M = 512-1024 at u = 96-256; the README has its tables).  The band's
    kl + ku + 1 vector operations cost more than dense BLAS at small M,
    and the VBA block's selected inversion makes it lose at a smaller u
    than JMAP.  On the first table the rule keeps both within 1.25x of
    the faster path.  On the second the solvers part near 4 u = M (JMAP's
    band wins up to u = M / 4, the VBA block's loses from about u = M / 5),
    and one of them misses by up to 1.4x whichever path is picked.

    ``banded_pass``, ``banded_solve`` and u^2 <= 4 M: the full-scheme
    coordinate pass runs as one banded Gauss-Seidel solve.  In the same
    table the pass the rule picks is within 1.2x of the faster one.
    Where u^2 outgrows M the band lost, 1.4-2.3x at M = 128-512, u =
    32-64, and at M = 1024 it won at u = 64 (1.5x) and lost at u = 128
    (0.4x): building the band costs O(M u^2) against the O(N M) of the
    dense pass.

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
    3-tap products from M = 52 up to the band, and dense was faster at
    M = 64-128 (2.4/7.1 and 4.1/7.0 us).

    ``dual``, not ``banded_solve``, and M >= 32 with 2 N <= M, or M >= 64
    with 4 N <= 3 M: a JMAP solve and a partial-scheme VBA block factor
    the N x N dual ``diag(1/w) + K diag(1/p) K'`` in place of the M x M
    normal matrix (``_linalg.dual_factor``), O(N^2 M) instead of
    O(N M^2 + M^3).  Measured on random dense K, dense against dual time
    of the JMAP solve and of the VBA block (mean, diag(Sigma) and
    diag(K Sigma K')): at M = 16 the dual lost at every N (0.9-1.0x); at
    M = 32 it won up to N = M / 2 (1.1-1.4x) and tied or lost above; at
    M = 48-512 it won up to N = 3 M / 4 (1.1-1.9x), by 2.3-7x at
    N = M / 4 and M >= 128, and tied or lost at N = M (0.7-1.05x).  The
    rule keeps to the clear wins (at M = 48, N = 3 M / 4 gave 1.1x).  At
    64 x 128 the JMAP solve took 152 us dense and 56 dual, the VBA block
    386 and 155.  D is square, so a z block is never dual.

    The band layout (:attr:`layout`), its diagonals as slices, and the
    contiguous K' of the dense coordinate pass (:attr:`KT`) are built on
    first use, once.
    """

    def __init__(self, K: np.ndarray, bands=None):
        self.K = K
        self.kl, self.ku = bands or bandwidths(K)
        u, (n, m) = self.kl + self.ku, K.shape
        self.banded_solve = u == 0 or 4 * u + 44 <= m
        self.banded_pass = self.banded_solve and u * u <= 4 * m
        self.banded_product = 16384 * (u + 1) <= n * m
        self.dual = not self.banded_solve and ((m >= 32 and 2 * n <= m)
                                               or (m >= 64 and 4 * n <= 3 * m))

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
        block; VBA keeps the whole factor.  The scales follow the failure
        rule (:func:`_solved`): a spread that overflowed raises
        SingularSystem.
        """
        beta_hat = _solved("variance update", beta + 0.5 * spread)
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
    block gives a plain array, a banded block its band and factor, a
    dual block 1/p and the matrices of its dual, the full scheme a
    diagonal.  ``np.asarray(state.Sigma_f)`` gives the whole matrix,
    formed again on each conversion.
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
    +inf.  Raises DimensionMismatch unless f_hat and z_hat have length M
    and each v_<kind> the length of its family's residual (N for v_eps),
    and ValueError unless the alpha and beta of every family the model
    has are finite and > 0.
    """
    m = problem.n_coef
    f = _as_vector(state.f_hat, "f_hat", m)
    z = None if problem.is_direct else _as_vector(state.z_hat, "z_hat", m)
    families = _variance_families(problem, hyper, f, z)
    for _, alpha, beta, _ in families:
        _check_ig(alpha, beta)
    return _criterion(state, families, lambda v, name:
                      _check_positive(v, name, problem.n_obs if name == "v_eps" else m))


def _criterion(state, families, check) -> float:
    """L from a state's variance families, each v checked by ``check(v, name)``."""
    total = 0.0
    for kind, alpha, beta, residual in families:
        v = check(getattr(state, "v_" + kind), "v_" + kind)
        # the quadratic and log-barrier terms of one variance family
        total += float(0.5 * (residual * residual / v).sum()
                       + (alpha + 1.5) * np.log(v).sum() + (beta / v).sum())
    return total
