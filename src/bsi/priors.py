"""Heavy-tailed prior toolkit.

Generalized Hyperbolic density and its building blocks: the modified
Bessel function of the second kind K_lambda, the generalized Inverse
Gaussian mixing density, closed-form reference densities (Student-t,
Cauchy, Laplace, Hyperbolic, Variance-Gamma, NIG, generalized Gaussian,
symmetric Weibull/Rayleigh), and a quadrature of the normal
variance-mean mixture, by one vectorized exp-sinh (double-exponential)
rule, that serves as the independent oracle for the closed forms.

The GH density with parameters (lambda, alpha, beta, delta, mu) and
gamma = sqrt(alpha^2 - beta^2), writing q(x) = sqrt(delta^2 + (x-mu)^2):

    GH(x) = (gamma/delta)^lambda / (sqrt(2 pi) K_lambda(delta gamma))
            * K_{lambda-1/2}(alpha q) / (q/alpha)^{1/2-lambda}
            * exp(beta (x - mu))

It is the marginal of x | v ~ N(mu + beta v, v) with
v ~ GIG(gamma^2, delta^2, lambda),

    GIG(v) = (gamma/delta)^lambda / (2 K_lambda(delta gamma))
             * v^{lambda-1} * exp(-(gamma^2 v + delta^2 / v) / 2)

Limiting members: Student-t (lambda=-nu/2, beta=0, delta=sqrt(nu),
alpha -> 0), Hyperbolic (lambda=1), Laplace (lambda=1, alpha=1/b,
delta -> 0), Variance-Gamma (delta -> 0, lambda > 0) and NIG
(lambda=-1/2).  Limits are exercised at small finite surrogate values,
never symbolically.

Each reference density is a function of x and its parameters by name;
:func:`reference_pdf` looks the family up in one table and checks the
parameter names against the function's own, so a missing, unknown,
non-numeric or non-finite parameter raises DomainError.  The GH
parameter rule (alpha > 0 and finite, |beta| < alpha) is written once,
in the helper that returns gamma for :meth:`GhParams.validate`,
:attr:`GhParams.gamma` and the GH-type references.

:func:`bessel_k` and :func:`gh_marginal_quadrature` take arrays (the
quadrature one mixture per row), and an entry of an array call has the
bits of its scalar or one-row call.  :func:`priors_report` runs all of
these checks on seeded random draws, in batches: one call per Bessel
order for its 50 identity draws, and one exp-sinh rule that integrates
every mixture draw.  It is the body of the ``verify-priors`` command.
``scipy.special`` is imported only by the functions that call it, so
the settings and error types load with numpy alone; the quadrature
needs numpy alone.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np

from .model import _is_bool, _is_integer
from .rng import SplitMix64

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


class DomainError(ValueError):
    """Evaluation point or parameters outside the density's domain."""


class SingularDensity(DomainError):
    """Density diverges at the requested point (no finite analytic limit)."""


class QuadratureFailure(RuntimeError):
    """Adaptive quadrature could not reach the requested tolerance."""


def _finite(*values) -> bool:
    """Whether every value is a finite number, none a bool (True would read as 1)."""
    return not any(map(_is_bool, values)) and all(map(math.isfinite, values))


def _require_positive(value, name):
    if not (_finite(value) and value > 0):
        raise DomainError(f"{name} must be a positive finite number, not a bool, got {value!r}")


def _gh_gamma(alpha, beta):
    """gamma = sqrt(alpha^2 - beta^2) of GH parameters, after checking that
    alpha is positive and finite and |beta| < alpha (NaN fails the test),
    neither a bool."""
    _require_positive(alpha, "alpha")
    if _is_bool(beta) or not abs(beta) < alpha:
        raise DomainError(f"beta must be a number with |beta| < alpha, "
                          f"got beta={beta!r}, alpha={alpha!r}")
    return math.sqrt(alpha * alpha - beta * beta)


@dataclass(frozen=True)
class GhParams:
    """(lambda, alpha, beta, delta, mu) of the Generalized Hyperbolic density.

    :meth:`validate` (and :attr:`gamma` for alpha and beta) raises
    DomainError unless alpha and delta are positive, |beta| < alpha and
    every field is finite; no field may be a bool.
    """

    lam: float
    alpha: float
    beta: float = 0.0
    delta: float = 1.0
    mu: float = 0.0

    @property
    def gamma(self) -> float:
        """sqrt(alpha^2 - beta^2), always recomputed, after the GH parameter
        rule of :func:`_gh_gamma` (DomainError)."""
        return _gh_gamma(self.alpha, self.beta)

    def validate(self):
        _gh_gamma(self.alpha, self.beta)
        _require_positive(self.delta, "delta")
        if not _finite(self.lam, self.mu):
            raise DomainError(f"lam and mu must be finite numbers, not bools, got {self}")


@dataclass(frozen=True)
class GigParams:
    """(gamma^2, delta^2, lambda) of the generalized Inverse Gaussian density.

    :meth:`validate` raises DomainError unless every field is a finite
    number, not a bool, gamma^2 and delta^2 are >= 0 and not both zero.
    """

    gamma_sq: float
    delta_sq: float
    lam: float

    def validate(self):
        if not _finite(self.gamma_sq, self.delta_sq, self.lam):
            raise DomainError(f"gamma_sq, delta_sq and lam must be finite numbers, "
                              f"not bools, got {self}")
        if self.gamma_sq < 0 or self.delta_sq < 0:
            raise DomainError(f"gamma_sq and delta_sq must be nonnegative, got {self}")
        if self.gamma_sq == 0 and self.delta_sq == 0:
            raise DomainError("gamma_sq and delta_sq cannot both be zero")


# scipy's kv/kve return nan for subnormal orders.  K_lambda(x) equals
# K_0(x) (1 + O(lambda^2 log^2 x)), so orders below this are read as 0.
_TINY_ORDER = 1e-154


def bessel_k(lam, x):
    """Modified Bessel function of the second kind K_lambda(x), x > 0.

    Symmetric in the order (K_lambda = K_{-lambda}).  For tiny x with
    large |lambda| the value exceeds the double range and +inf is
    returned.  ``lam`` and ``x`` broadcast against each other: arrays give
    an array whose entries have the bits of the scalar calls, scalars a
    float.  DomainError unless every order is finite and every x is
    positive and finite.
    """
    import scipy.special

    lam_arr = np.asarray(lam, dtype=float)
    x_arr = np.asarray(x, dtype=float)
    if not np.isfinite(lam_arr).all():
        raise DomainError(f"bessel_k needs a finite order, got {lam}")
    if not ((x_arr > 0).all() and np.isfinite(x_arr).all()):
        raise DomainError(f"bessel_k needs x > 0, got {x}")
    out = scipy.special.kv(np.where(np.abs(lam_arr) < _TINY_ORDER, 0.0, lam_arr), x_arr)
    return out if out.ndim else float(out)


def log_bessel_k(lam, x, scale=1.0):
    """log K_lambda(scale x) for positive scale x, stable for small and large x.

    Vectorized over x.  Falls back to the small-argument asymptote
    Gamma(|lambda|) 2^{|lambda|-1} z^{-|lambda|} (-log(z/2) - euler_gamma
    at lambda = 0) when the scaled Bessel value overflows, with log z taken
    as log x + log scale, so that it holds where scale x underflows to zero.
    DomainError unless the order is finite.
    """
    import scipy.special

    if not math.isfinite(lam):
        raise DomainError(f"log_bessel_k needs a finite order, got {lam}")
    if abs(lam) < _TINY_ORDER:
        lam = 0.0
    x = np.asarray(x, dtype=float)
    z = scale * x
    out = np.log(scipy.special.kve(lam, z)) - z
    bad = ~np.isfinite(out)
    if bad.any():
        out = np.array(out)  # writable, also for a 0-d x
        a, log_z = abs(lam), np.log(x[bad]) + math.log(scale)
        if a > 0:
            out[bad] = scipy.special.gammaln(a) + (a - 1.0) * math.log(2.0) - a * log_z
        else:
            out[bad] = np.log(math.log(2.0) - log_z - np.euler_gamma)
    return out


def _gig_log_norm(params: GigParams) -> float:
    """Log normalizing constant c of the GIG density, validated, so that

        log GIG(v) = c + (lambda - 1) log v - (gamma^2 v + delta^2 / v) / 2.

    delta^2 = 0 is the Gamma(lambda, rate gamma^2/2) reduction (lambda > 0),
    gamma^2 = 0 the Inverse Gamma(-lambda, delta^2/2) one (lambda < 0).
    """
    import scipy.special

    params.validate()
    lam = params.lam
    if params.delta_sq == 0.0:
        if lam <= 0:
            raise DomainError("delta_sq = 0 requires lambda > 0 (Gamma reduction)")
        return float(lam * math.log(0.5 * params.gamma_sq) - scipy.special.gammaln(lam))
    if params.gamma_sq == 0.0:
        if lam >= 0:
            raise DomainError("gamma_sq = 0 requires lambda < 0 (Inverse-Gamma reduction)")
        return float(-lam * math.log(0.5 * params.delta_sq) - scipy.special.gammaln(-lam))
    gamma = math.sqrt(params.gamma_sq)
    delta = math.sqrt(params.delta_sq)
    return float(lam * (math.log(gamma) - math.log(delta)) - math.log(2.0)
                 - log_bessel_k(lam, delta * gamma))


def gig_pdf(v, params: GigParams):
    """Generalized Inverse Gaussian density at v > 0 (scalar or vector).

    The degenerate boundaries dispatch to the reduced closed forms:
    delta^2 = 0 is a Gamma(lambda, rate gamma^2/2) density (lambda > 0),
    gamma^2 = 0 an Inverse Gamma(-lambda, delta^2/2) density (lambda < 0).
    """
    c = _gig_log_norm(params)
    v_arr = np.asarray(v, dtype=float)
    if np.any(v_arr <= 0) or not np.all(np.isfinite(v_arr)):
        raise DomainError("gig_pdf needs v > 0")
    out = np.exp(c + (params.lam - 1.0) * np.log(v_arr)
                 - 0.5 * (params.gamma_sq * v_arr + params.delta_sq / v_arr))
    return out if v_arr.ndim else float(out)


def gh_pdf(x, params: GhParams):
    """Generalized Hyperbolic density at x (scalar or vector)."""
    params.validate()
    gamma = params.gamma
    x_arr = np.asarray(x, dtype=float)
    dx = x_arr - params.mu
    q = np.sqrt(params.delta * params.delta + dx * dx)
    logpdf = params.lam * (math.log(gamma) - math.log(params.delta)) \
        - 0.5 * math.log(2.0 * math.pi) \
        - log_bessel_k(params.lam, params.delta * gamma) \
        + log_bessel_k(params.lam - 0.5, params.alpha * q) \
        - (0.5 - params.lam) * (np.log(q) - math.log(params.alpha)) \
        + params.beta * dx
    out = np.exp(logpdf)
    return out if x_arr.ndim else float(out)


def _student_t(x, nu, mu=0.0):
    import scipy.special

    lognorm = scipy.special.gammaln(0.5 * (nu + 1.0)) - scipy.special.gammaln(0.5 * nu) \
        - 0.5 * math.log(math.pi * nu)
    return np.exp(lognorm - 0.5 * (nu + 1.0) * np.log1p((x - mu) ** 2 / nu))


def _cauchy(x, mu=0.0):
    return 1.0 / (math.pi * (1.0 + (x - mu) ** 2))


def _laplace(x, b, mu=0.0):
    return np.exp(-np.abs(x - mu) / b) / (2.0 * b)


def _hyperbolic(x, alpha, delta, beta=0.0, mu=0.0):
    gamma = _gh_gamma(alpha, beta)
    q = np.sqrt(delta * delta + (x - mu) ** 2)
    norm = gamma / (2.0 * alpha * delta)
    return norm * np.exp(-log_bessel_k(1.0, delta * gamma) - alpha * q + beta * (x - mu))


def _nig(x, alpha, delta, beta=0.0, mu=0.0):
    gamma = _gh_gamma(alpha, beta)
    q = np.sqrt(delta * delta + (x - mu) ** 2)
    return alpha * delta / (math.pi * q) \
        * np.exp(log_bessel_k(1.0, alpha * q) + gamma * delta + beta * (x - mu))


def _variance_gamma(x, alpha, lam, beta=0.0, mu=0.0):
    """Variance-Gamma density; K_{lam-1/2}(alpha |x-mu|) diverges at x = mu
    for lam <= 1/2, where only lam > 1/2 admits a finite analytic limit."""
    import scipy.special

    gamma = _gh_gamma(alpha, beta)
    ax = np.abs(x - mu)
    at_mu = ax == 0.0
    if np.any(at_mu) and lam <= 0.5:
        raise SingularDensity("variance_gamma diverges at x = mu for lam <= 1/2")
    lognorm = 2.0 * lam * math.log(gamma) - 0.5 * math.log(math.pi) \
        - scipy.special.gammaln(lam) - (lam - 0.5) * math.log(2.0 * alpha)
    safe = np.where(at_mu, 1.0, ax)
    logval = lognorm + (lam - 0.5) * np.log(safe) \
        + log_bessel_k(lam - 0.5, safe, alpha) + beta * (x - mu)
    out = np.exp(logval)
    if np.any(at_mu):
        # analytic limit of |t|^{lam-1/2} K_{lam-1/2}(alpha |t|) as t -> 0
        limit = math.exp(
            lognorm + scipy.special.gammaln(lam - 0.5)
            + (lam - 1.5) * math.log(2.0) - (lam - 0.5) * math.log(alpha)
        )
        out = np.where(at_mu, limit, out)
    return out


def _gen_gaussian(x, alpha, beta, mu=0.0):
    norm = beta / (2.0 * alpha * math.gamma(1.0 / beta))
    return norm * np.exp(-((np.abs(x - mu) / alpha) ** beta))


def _sym_weibull(x, k, b):
    ax = np.abs(x)
    with np.errstate(divide="ignore"):
        out = 0.5 * b * k * ax ** (k - 1.0) * np.exp(-b * ax ** k)
    if k == 1.0:
        out = np.where(ax == 0.0, 0.5 * b, out)
    return out


def _sym_rayleigh(x, sigma):
    s2 = sigma * sigma
    return np.abs(x) / (2.0 * s2) * np.exp(-x * x / (2.0 * s2))


def _keywords(density):
    """The parameter names of ``density(x, ...)`` as a set, and the required
    ones as a tuple in signature order."""
    params = list(inspect.signature(density).parameters.values())[1:]
    return {p.name for p in params}, tuple(p.name for p in params if p.default is p.empty)


# family -> (density, its parameter names, the required ones), read once.
# A density takes x and its parameters by name; the ones without a
# default are scales and shapes, which reference_pdf checks are positive.
_FAMILIES = {family: (density, *_keywords(density)) for family, density in {
    "student_t": _student_t, "cauchy": _cauchy, "laplace": _laplace,
    "hyperbolic": _hyperbolic, "variance_gamma": _variance_gamma, "nig": _nig,
    "gen_gaussian": _gen_gaussian, "sym_weibull": _sym_weibull,
    "sym_rayleigh": _sym_rayleigh}.items()}


def reference_pdf(family: str, params: Mapping, x):
    """Closed-form reference density of one named family at x.

    Families and their parameters, by name (defaults in brackets):
    student_t(nu, mu [0]), cauchy(mu [0]), laplace(b, mu [0]),
    hyperbolic(alpha, delta, beta [0], mu [0]), variance_gamma(alpha,
    lam, beta [0], mu [0]), nig(alpha, delta, beta [0], mu [0]),
    gen_gaussian(alpha, beta, mu [0]), sym_weibull(k, b),
    sym_rayleigh(sigma).  Each value goes through ``float()``; a missing,
    unknown, non-numeric (a bool too) or non-finite parameter raises
    DomainError, an unknown family ValueError.  The parameters without a default are
    scales and shapes, and DomainError is raised unless they are
    positive.  All integrate to one; the symmetric Weibull/Rayleigh forms
    carry the 1/2 two-sided normalization.
    """
    if family not in _FAMILIES:
        raise ValueError(f"unknown density family {family!r}")
    density, names, required = _FAMILIES[family]
    keys = set(params)
    if not (keys.issuperset(required) and keys <= names):
        raise DomainError(f"{family} takes parameters {sorted(names)}, of which "
                          f"{sorted(required)} are required; got {list(params)}")
    if any(map(_is_bool, params.values())):
        raise DomainError(f"{family} parameters must be numbers, not bools, got {dict(params)}")
    try:
        values = {name: float(value) for name, value in params.items()}
    except (TypeError, ValueError):
        raise DomainError(f"{family} parameters must be numbers, got {dict(params)}") from None
    if not all(math.isfinite(value) for value in values.values()):
        raise DomainError(f"{family} parameters must be finite, got {values}")
    for name in required:
        _require_positive(values[name], name)
    x_arr = np.asarray(x, dtype=float)
    # a scalar x is the one-point vector, so it has the vector call's bits
    out = density(np.atleast_1d(x_arr), **values)
    return out if x_arr.ndim else float(out[0])


def _ordered_sum(terms, inside):
    """Row sums of ``terms`` over ``inside``, added left to right: zeros
    padded around a row's own nodes add exactly, so a row's sum has the
    same bits whatever other rows share the node grid."""
    return np.cumsum(np.where(inside, terms, 0.0), axis=1)[:, -1]


def _exp_sinh(log_f, centre, tol):
    """Integrals of exp(log_f(log v)) over v in (0, inf), one per row.

    The double-exponential rule of Takahasi & Mori (1974) for a half line
    (Mori & Sugihara 2001, J. Comput. Appl. Math. 127): v = c exp(pi/2
    sinh t), so dv = v pi/2 cosh t dt, and the trapezoid rule in t.
    ``centre`` is a column of c, one row per integral, each the mode of
    v f(v); ``log_f`` maps an array of log v with the same rows to the
    log integrand.  A row's t range ends on each side at the first node
    of step 1/2 whose term is at most eps times the row's largest such
    term.  The step then halves until three levels agree: the estimate
    max(|I_k - I_{k-1}|, |I_{k-1} - I_{k-2}|) is at most ``tol``.  It
    never falls below 50 eps I_k, the rounding QUADPACK also assumes of a
    sum.  Each row stops at its own level and sums its own nodes in
    order, so its value has the same bits in any batch.
    QuadratureFailure if a term leaves the double range, a range would
    pass |t| = 12 or a row has not converged after 8 halvings.
    """
    eps = np.finfo(float).eps
    # pi/2 sinh 12 is about 1.3e5: v spans c e^(+-1.3e5)
    last, step = 24, 0.5
    with np.errstate(divide="ignore"):
        log_c = np.log(centre)

    def terms(t):
        log_v = log_c + 0.5 * math.pi * np.sinh(t)
        with np.errstate(over="ignore", invalid="ignore"):
            return np.exp(log_f(log_v) + log_v + np.log(0.5 * math.pi * np.cosh(t)))

    grid = step * np.arange(-last, last + 1)
    coarse = terms(grid)
    small = coarse <= eps * coarse.max(axis=1, keepdims=True)
    # the first small node from t = 0 outwards, left and right
    left, right = small[:, last - 1::-1], small[:, last + 1:]
    if not (left.any(axis=1).all() and right.any(axis=1).all()):
        raise QuadratureFailure(f"integrand not negligible at |t| = {step * last}")
    lo = -step * (left.argmax(axis=1) + 1)[:, None]
    hi = step * (right.argmax(axis=1) + 1)[:, None]
    value = step * _ordered_sum(coarse, (grid >= lo) & (grid <= hi))
    result = np.full(len(value), np.nan)
    todo = np.ones(len(value), dtype=bool)
    change = np.full(len(value), np.inf)
    for _ in range(8):
        if not todo.any():
            return result
        if not np.isfinite(value[todo]).all():
            raise QuadratureFailure("integrand exceeds the double range")
        step *= 0.5
        mid = np.arange(lo.min() + step, hi.max(), 2.0 * step)
        new = 0.5 * value + step * _ordered_sum(terms(mid), (mid > lo) & (mid < hi))
        # two coarse levels can agree by chance (both 5.9e-8 off at h = 1/2
        # and 1/4 on a criterion-8 draw), so the last two changes must pass
        change, previous = np.abs(new - value), change
        err = np.maximum(np.maximum(change, previous), 50.0 * eps * new)
        now = todo & (err <= tol)
        result[now] = new[now]
        todo &= ~now
        value = new
    if todo.any():
        worst = float(np.max(err[todo]))
        raise QuadratureFailure(f"quadrature error {worst:.3g} above tolerance {tol:.3g}")
    return result


def _mixture_integrand(x, mu, beta, gig):
    """(log_f, centre) of the mixture integrals at the points ``x``.

    ``x`` holds one mixture per row (a scalar or 1-D ``x`` is one row),
    and ``mu``, ``beta`` and ``gig`` are one value shared by every row or
    one per row.  The integrand v -> N(x | mu + beta v, v) GIG(v) is, up
    to a constant, a GIG(alpha^2, q^2, lambda - 1/2) density in v, with
    alpha^2 = gamma^2 + beta^2 and q^2 = delta^2 + (x - mu)^2:

        log f(v) = c + beta (x - mu) + (lambda - 3/2) log v
                   - q^2 / (2 v) - alpha^2 v / 2,

    c the GIG log normalizer minus log(2 pi) / 2.  ``log_f`` takes log v
    with one row per point, the points of a row after those of the row
    before.  ``centre`` is the column of the modes of v f(v), written so
    that they do not cancel.  Each row is worked out on its own, with the
    operations of a one-row call, so a point has the same bits in any
    batch.  DomainError unless x, mu and beta are finite and every row
    has its parameters; then row by row, before any evaluation, the GIG
    check and SingularDensity if some x = mu while delta^2 = 0 and lambda
    <= 1/2, where the integral diverges.
    """
    rows = np.atleast_2d(np.asarray(x, dtype=float))
    n, points = len(rows), math.prod(rows.shape[1:])
    rows = rows.reshape(n, points)
    gigs = [gig] * n if isinstance(gig, GigParams) else list(gig)
    try:
        mus, betas = (np.broadcast_to(np.asarray(v, dtype=float), (n,)) for v in (mu, beta))
    except ValueError:
        raise DomainError(f"mu and beta must be scalars or one per row of x, "
                          f"got {(mu, beta)} for {n} rows") from None
    if len(gigs) != n:
        raise DomainError(f"gig must be one GigParams or one per row of x, "
                          f"got {len(gigs)} for {n} rows")
    if not (np.isfinite(rows).all() and np.isfinite(mus).all() and np.isfinite(betas).all()):
        raise DomainError(f"x, mu and beta must be finite, got {(x, mu, beta)}")
    columns = np.empty((5, n, points))
    const, shape, log_hq, log_ha, centre = columns
    for i, (dx, beta_i, gig_i) in enumerate(zip(rows - mus[:, None], betas, gigs)):
        c = _gig_log_norm(gig_i) - _HALF_LOG_2PI
        if gig_i.delta_sq == 0.0 and gig_i.lam <= 0.5 and np.any(dx == 0.0):
            raise SingularDensity("the mixture diverges at x = mu for delta_sq = 0, lam <= 1/2")
        q_sq = gig_i.delta_sq + dx * dx
        alpha_sq = gig_i.gamma_sq + beta_i * beta_i
        p = gig_i.lam - 0.5
        s = np.sqrt(p * p + alpha_sq * q_sq)
        centre[i] = (p + s) / alpha_sq if p >= 0 else q_sq / (s - p)
        const[i] = c + beta_i * dx
        shape[i] = gig_i.lam - 1.5
        with np.errstate(divide="ignore"):  # log 0 = -inf drops a vanishing term
            log_hq[i] = np.log(0.5 * q_sq)
            log_ha[i] = np.log(0.5 * alpha_sq)
    const, shape, log_hq, log_ha, centre = columns.reshape(5, -1, 1)

    def log_f(log_v):
        return const + shape * log_v - np.exp(log_hq - log_v) - np.exp(log_ha + log_v)

    return log_f, centre


def gh_marginal_quadrature(x, mu, beta, gig, tol: float = 1e-9):
    """Normal variance-mean mixture integral, evaluated by quadrature.

    Integrates N(x | mu + beta v, v) GIG(v | gamma^2, delta^2, lambda)
    over v in (0, inf) to absolute tolerance ``tol`` at each point of
    ``x``, with one exp-sinh rule for all points.  ``x`` is a scalar, a
    1-D array of points of one mixture, or a 2-D array with one mixture
    per row; ``mu`` and ``beta`` are scalars or one per row, ``gig`` one
    :class:`GigParams` or a sequence of one per row.  The result has the
    shape of ``x`` (a float for a scalar), and each point has the bits of
    the same point in a one-row call.  Serves as the independent oracle
    for :func:`gh_pdf`.  DomainError unless x, mu and beta are finite,
    every row has its parameters and tol is a positive finite number, not
    a bool; then, row by row, the GIG check (DomainError) and
    SingularDensity where the integral diverges, all before any
    evaluation; QuadratureFailure if ``tol`` is not met.
    """
    _require_positive(tol, "tol")
    x_arr = np.asarray(x, dtype=float)
    out = _exp_sinh(*_mixture_integrand(x_arr, mu, beta, gig), tol)
    return out.reshape(x_arr.shape) if x_arr.ndim else float(out[0])


_LIMIT_CASES = ("student_t_alpha", "laplace_delta")
# grid points a report may evaluate: the default grid has 2001
_MAX_GRID_POINTS = 10 ** 6


def _check_levels(levels):
    """Raises ValueError unless levels are finite, positive, strictly
    decreasing numbers, none a bool."""
    if (any(map(_is_bool, levels)) or not all(0 < v < math.inf for v in levels)  # NaN fails too
            or any(a <= b for a, b in zip(levels, levels[1:]))):
        raise ValueError("levels must be strictly decreasing finite positive values")


def limit_deviation(limit_case: str, levels, grid, nu: float = 1.0, b: float = 1.0):
    """Sup-norm gap between the GH density and a limiting member.

    For each level (the vanishing parameter held at a finite surrogate)
    returns sup over the x grid of |gh_pdf - reference_pdf|:

    - student_t_alpha: GH(-nu/2, alpha=level, 0, sqrt(nu), 0) against the
      Student-t with nu degrees of freedom;
    - laplace_delta: GH(1, 1/b, 0, delta=level, 0) against Laplace(0, b).

    DomainError unless nu and b are positive finite numbers, not bools,
    in both cases, the one a case does not read too.
    """
    if limit_case not in _LIMIT_CASES:
        raise ValueError(f"limit_case must be one of {_LIMIT_CASES}, got {limit_case!r}")
    _require_positive(nu, "nu")
    _require_positive(b, "b")
    # a bool is kept as it is, for the check to refuse
    levels = [v if _is_bool(v) else float(v) for v in levels]
    _check_levels(levels)
    grid = np.asarray(grid, dtype=float)

    if limit_case == "student_t_alpha":
        reference = reference_pdf("student_t", {"nu": nu, "mu": 0.0}, grid)
        def density(level):
            return gh_pdf(grid, GhParams(lam=-0.5 * nu, alpha=level, beta=0.0,
                                         delta=math.sqrt(nu), mu=0.0))
    else:
        reference = reference_pdf("laplace", {"b": b, "mu": 0.0}, grid)
        def density(level):
            return gh_pdf(grid, GhParams(lam=1.0, alpha=1.0 / b, beta=0.0,
                                         delta=level, mu=0.0))

    return [float(np.max(np.abs(density(level) - reference))) for level in levels]


@dataclass(frozen=True)
class PriorsSettings:
    """Grid, limit levels and draw count of :func:`priors_report`.

    Raises ValueError unless the grid bounds are finite with grid_lo <
    grid_hi, grid_step, nu and b are finite and positive, the grid has
    at most ``_MAX_GRID_POINTS`` points, mixture_draws is an integer >= 0
    (numpy integers too, bool not) and the levels are finite, positive and
    strictly decreasing.  No value is a bool.
    """

    levels: tuple = (1.0, 0.1, 0.01, 0.001)
    grid_lo: float = -10.0
    grid_hi: float = 10.0
    grid_step: float = 0.01
    nu: float = 1.0
    b: float = 1.0
    mixture_draws: int = 10

    def __post_init__(self):
        if any(map(_is_bool, (self.grid_lo, self.grid_hi, self.grid_step, self.nu, self.b))):
            raise ValueError("grid_lo, grid_hi, grid_step, nu and b must be numbers, not bools")
        # the comparisons are written so that NaN fails them
        if not -math.inf < self.grid_lo < self.grid_hi < math.inf:
            raise ValueError("grid_lo < grid_hi must hold, both finite")
        if not 0 < self.grid_step < math.inf:
            raise ValueError("grid_step must be finite and > 0")
        # an overflowing span is inf and fails too
        if not (self.grid_hi - self.grid_lo) / self.grid_step < _MAX_GRID_POINTS:
            raise ValueError(f"the grid must have at most {_MAX_GRID_POINTS} points")
        if not (0 < self.nu < math.inf and 0 < self.b < math.inf):
            raise ValueError("nu and b must be finite and > 0")
        if not _is_integer(self.mixture_draws):
            raise ValueError(f"mixture_draws must be an integer, got {self.mixture_draws!r}")
        if self.mixture_draws < 0:
            raise ValueError("mixture_draws must be >= 0")
        _check_levels(self.levels)


def priors_report(settings: PriorsSettings, seed: int) -> dict:
    """Bessel, GH identity, limit and quadrature checks as one report.

    Every random parameter is drawn from ``SplitMix64(seed)`` in a fixed
    order, so equal settings and seed give an identical report.  The
    checks run in batches, with the bits of one call per value: the 50
    Bessel draws in one :func:`bessel_k` call per order (K_lambda serves
    both identities), the mixture draws in one
    :func:`gh_marginal_quadrature` call with a row of 21 points per draw,
    and the 20 Inverse-Gamma draws in one exp-sinh rule.  Each maximum is
    Python's ``max`` over the draws, which skips a NaN after the first.
    """
    levels = list(settings.levels)
    step = settings.grid_step
    grid = np.arange(settings.grid_lo, settings.grid_hi + 0.5 * step, step)
    rng = SplitMix64(seed)

    half_order = abs(bessel_k(0.5, 1.0) - math.sqrt(math.pi / 2.0) * math.exp(-1.0))
    # 50 (lambda, x) draws, each checked for K_lambda = K_-lambda and
    # K_{lambda+1} = K_{lambda-1} + 2 lambda / x K_lambda in one call per order
    lam, x = (np.array(column) for column in zip(*[
        (-5.0 + 10.0 * rng.uniform(), 0.1 + 5.0 * rng.uniform()) for _ in range(50)]))
    k = bessel_k(lam, x)
    sym = np.abs(k - bessel_k(-lam, x)) / np.abs(k)
    lhs = bessel_k(lam + 1.0, x)
    rhs = bessel_k(lam - 1.0, x) + 2.0 * lam / x * k
    rec = np.abs(lhs - rhs) / np.abs(lhs)
    # Python's max, which skips a NaN after the first value
    sym_max, rec_max = max([0.0, *sym.tolist()]), max([0.0, *rec.tolist()])

    def draw_gh():
        alpha = 0.6 + 2.0 * rng.uniform()
        beta = (2.0 * rng.uniform() - 1.0) * 0.7 * alpha
        delta = 0.5 + 1.5 * rng.uniform()
        lam = -1.5 + 3.0 * rng.uniform()
        mu = -0.5 + rng.uniform()
        return GhParams(lam=lam, alpha=alpha, beta=beta, delta=delta, mu=mu)

    ident_grid = np.linspace(-8.0, 8.0, 201)
    ident_max = {"hyperbolic": 0.0, "nig": 0.0}
    for _ in range(5):
        params = draw_gh()
        ref = {"alpha": params.alpha, "beta": params.beta,
               "delta": params.delta, "mu": params.mu}
        for family, lam in (("hyperbolic", 1.0), ("nig", -0.5)):
            gap = gh_pdf(ident_grid, replace(params, lam=lam)) \
                - reference_pdf(family, ref, ident_grid)
            ident_max[family] = max(ident_max[family], float(np.max(np.abs(gap))))

    deviations = {case: limit_deviation(case, levels, grid, nu=settings.nu, b=settings.b)
                  for case in _LIMIT_CASES}

    # one exp-sinh rule integrates every draw's 21 points, a row per draw
    mixtures = [draw_gh() for _ in range(settings.mixture_draws)]
    xs = np.array([np.linspace(p.mu - 3.0, p.mu + 3.0, 21) for p in mixtures]).reshape(-1, 21)
    mix = gh_marginal_quadrature(
        xs, [p.mu for p in mixtures], [p.beta for p in mixtures],
        [GigParams(gamma_sq=p.gamma ** 2, delta_sq=p.delta ** 2, lam=p.lam) for p in mixtures])
    mix_max = max([0.0, *(float(np.max(np.abs(row - gh_pdf(points, p))))
                          for row, points, p in zip(mix, xs, mixtures))])

    draws = []
    for _ in range(20):
        alpha = 0.5 + 9.5 * rng.uniform()
        beta = 0.5 + 9.5 * rng.uniform()
        draws.append((alpha, beta, alpha * math.log(beta) - math.lgamma(alpha)))
    alpha, beta, log_norm = (np.array(column)[:, None] for column in zip(*draws))
    # the IG(alpha, beta) density times 1/x, in log x; x times it peaks at
    # x = beta / (alpha + 1).  One call integrates all 20.
    inverse_mean = _exp_sinh(
        lambda log_x: log_norm - (alpha + 2.0) * log_x - beta * np.exp(-log_x),
        beta / (alpha + 1.0), 1e-12)
    ig_max = float(np.max(np.abs(inverse_mean - (alpha / beta)[:, 0])))

    return {
        "bessel": {
            "half_order_abs_error": half_order,
            "symmetry_max_rel": sym_max,
            "recurrence_max_rel": rec_max,
        },
        "identities": {family + "_max_abs": gap for family, gap in ident_max.items()},
        "limits": {case: {
            "levels": levels,
            "sup_deviation": devs,
            "strictly_decreasing": all(a > b for a, b in zip(devs, devs[1:])),
        } for case, devs in deviations.items()},
        "scale_mixture": {
            "draws": settings.mixture_draws,
            "grid_points": 21,
            "max_abs_deviation": mix_max,
        },
        "ig_inverse_expectation": {"max_abs_error": ig_max},
    }
