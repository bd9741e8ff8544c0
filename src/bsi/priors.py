"""Heavy-tailed prior toolkit.

Generalized Hyperbolic density and its building blocks: the modified
Bessel function of the second kind K_lambda, the generalized Inverse
Gaussian mixing density, closed-form reference densities (Student-t,
Cauchy, Laplace, Hyperbolic, Variance-Gamma, NIG, generalized Gaussian,
symmetric Weibull/Rayleigh), and an adaptive-quadrature evaluation of
the normal variance-mean mixture that serves as the independent oracle
for the closed forms.

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

:func:`priors_report` runs all of these checks on seeded random draws;
it is the body of the ``verify-priors`` command.  ``scipy.integrate``
is imported only by the functions that integrate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np
import scipy.special

from .rng import SplitMix64

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


class DomainError(ValueError):
    """Evaluation point or parameters outside the density's domain."""


class SingularDensity(DomainError):
    """Density diverges at the requested point (no finite analytic limit)."""


class QuadratureFailure(RuntimeError):
    """Adaptive quadrature could not reach the requested tolerance."""


@dataclass(frozen=True)
class GhParams:
    """(lambda, alpha, beta, delta, mu) of the Generalized Hyperbolic density."""

    lam: float
    alpha: float
    beta: float = 0.0
    delta: float = 1.0
    mu: float = 0.0

    @property
    def gamma(self) -> float:
        """sqrt(alpha^2 - beta^2), always recomputed."""
        s = self.alpha * self.alpha - self.beta * self.beta
        if s < 0:
            raise DomainError(f"|beta| must not exceed alpha, got {self}")
        return math.sqrt(s)

    def validate(self):
        if not (self.alpha > 0 and math.isfinite(self.alpha)):
            raise DomainError(f"alpha must be positive and finite, got {self.alpha}")
        if abs(self.beta) >= self.alpha:
            raise DomainError(f"|beta| must be < alpha, got {self}")
        if not (self.delta > 0 and math.isfinite(self.delta)):
            raise DomainError(f"delta must be positive for the GH density, got {self.delta}")


@dataclass(frozen=True)
class GigParams:
    """(gamma^2, delta^2, lambda) of the generalized Inverse Gaussian density."""

    gamma_sq: float
    delta_sq: float
    lam: float

    def validate(self):
        if self.gamma_sq < 0 or self.delta_sq < 0:
            raise DomainError(f"gamma_sq and delta_sq must be nonnegative, got {self}")
        if self.gamma_sq == 0 and self.delta_sq == 0:
            raise DomainError("gamma_sq and delta_sq cannot both be zero")


# scipy's kv/kve return nan for subnormal orders.  K_lambda(x) equals
# K_0(x) (1 + O(lambda^2 log^2 x)), so orders below this are read as 0.
_TINY_ORDER = 1e-154


def bessel_k(lam: float, x: float) -> float:
    """Modified Bessel function of the second kind K_lambda(x), x > 0.

    Symmetric in the order (K_lambda = K_{-lambda}).  For tiny x with
    large |lambda| the value exceeds the double range and +inf is
    returned.
    """
    if not (x > 0 and math.isfinite(x)):
        raise DomainError(f"bessel_k needs x > 0, got {x}")
    if abs(lam) < _TINY_ORDER:
        lam = 0.0
    return float(scipy.special.kv(lam, x))


def log_bessel_k(lam, x):
    """log K_lambda(x) for positive x, stable for small and large x.

    Vectorized over x.  Falls back to the small-argument asymptote
    Gamma(|lambda|) 2^{|lambda|-1} x^{-|lambda|} when the scaled Bessel
    value overflows.
    """
    if abs(lam) < _TINY_ORDER:
        lam = 0.0
    x = np.asarray(x, dtype=float)
    out = np.log(scipy.special.kve(lam, x)) - x
    bad = ~np.isfinite(out)
    if np.any(bad):
        out = np.array(out)  # writable, also for a 0-d x
        a = abs(lam)
        if a > 0:
            out[bad] = scipy.special.gammaln(a) + (a - 1.0) * math.log(2.0) \
                - a * np.log(x[bad])
        else:
            out[bad] = np.log(-np.log(x[bad] / 2.0) - np.euler_gamma)
    return out


def _gig_log_norm(params: GigParams) -> float:
    """Log normalizing constant c of the GIG density, validated, so that

        log GIG(v) = c + (lambda - 1) log v - (gamma^2 v + delta^2 / v) / 2.

    delta^2 = 0 is the Gamma(lambda, rate gamma^2/2) reduction (lambda > 0),
    gamma^2 = 0 the Inverse Gamma(-lambda, delta^2/2) one (lambda < 0).
    """
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


def _param(params: Mapping, key: str, default=None):
    if default is None and key not in params:
        raise DomainError(f"missing required parameter {key!r}")
    return float(params.get(key, default) if default is not None else params[key])


def _require_positive(value, name):
    if not (value > 0 and math.isfinite(value)):
        raise DomainError(f"{name} must be positive and finite, got {value}")
    return value


def reference_pdf(family: str, params: Mapping, x):
    """Closed-form reference density of one named family at x.

    Families: student_t(nu, mu), cauchy(mu), laplace(mu, b),
    hyperbolic(alpha, beta, delta, mu), variance_gamma(alpha, beta, lam,
    mu), nig(alpha, beta, delta, mu), gen_gaussian(mu, alpha, beta),
    sym_weibull(k, b), sym_rayleigh(sigma).  All integrate to one; the
    symmetric Weibull/Rayleigh forms carry the 1/2 two-sided
    normalization.
    """
    x_arr = np.asarray(x, dtype=float)
    scalar = x_arr.ndim == 0

    if family == "student_t":
        nu = _require_positive(_param(params, "nu"), "nu")
        mu = _param(params, "mu", 0.0)
        lognorm = scipy.special.gammaln(0.5 * (nu + 1.0)) - scipy.special.gammaln(0.5 * nu) \
            - 0.5 * math.log(math.pi * nu)
        out = np.exp(lognorm - 0.5 * (nu + 1.0) * np.log1p((x_arr - mu) ** 2 / nu))
    elif family == "cauchy":
        mu = _param(params, "mu", 0.0)
        out = 1.0 / (math.pi * (1.0 + (x_arr - mu) ** 2))
    elif family == "laplace":
        b = _require_positive(_param(params, "b"), "b")
        mu = _param(params, "mu", 0.0)
        out = np.exp(-np.abs(x_arr - mu) / b) / (2.0 * b)
    elif family == "hyperbolic":
        out = _hyperbolic_pdf(params, x_arr)
    elif family == "variance_gamma":
        out = _variance_gamma_pdf(params, x_arr)
    elif family == "nig":
        out = _nig_pdf(params, x_arr)
    elif family == "gen_gaussian":
        alpha = _require_positive(_param(params, "alpha"), "alpha")
        beta = _require_positive(_param(params, "beta"), "beta")
        mu = _param(params, "mu", 0.0)
        norm = beta / (2.0 * alpha * math.gamma(1.0 / beta))
        out = norm * np.exp(-((np.abs(x_arr - mu) / alpha) ** beta))
    elif family == "sym_weibull":
        k = _require_positive(_param(params, "k"), "k")
        b = _require_positive(_param(params, "b"), "b")
        ax = np.abs(x_arr)
        with np.errstate(divide="ignore"):
            out = 0.5 * b * k * ax ** (k - 1.0) * np.exp(-b * ax ** k)
        if k == 1.0:
            out = np.where(ax == 0.0, 0.5 * b, out)
    elif family == "sym_rayleigh":
        sigma = _require_positive(_param(params, "sigma"), "sigma")
        s2 = sigma * sigma
        out = np.abs(x_arr) / (2.0 * s2) * np.exp(-x_arr * x_arr / (2.0 * s2))
    else:
        raise ValueError(f"unknown density family {family!r}")
    return float(out) if scalar else out


def _gh_like_params(params):
    alpha = _require_positive(_param(params, "alpha"), "alpha")
    beta = _param(params, "beta", 0.0)
    if abs(beta) >= alpha:
        raise DomainError(f"|beta| must be < alpha, got beta={beta}, alpha={alpha}")
    mu = _param(params, "mu", 0.0)
    return alpha, beta, mu, math.sqrt(alpha * alpha - beta * beta)


def _hyperbolic_pdf(params, x):
    alpha, beta, mu, gamma = _gh_like_params(params)
    delta = _require_positive(_param(params, "delta"), "delta")
    q = np.sqrt(delta * delta + (x - mu) ** 2)
    norm = gamma / (2.0 * alpha * delta)
    return norm * np.exp(-log_bessel_k(1.0, delta * gamma) - alpha * q + beta * (x - mu))


def _nig_pdf(params, x):
    alpha, beta, mu, gamma = _gh_like_params(params)
    delta = _require_positive(_param(params, "delta"), "delta")
    q = np.sqrt(delta * delta + (x - mu) ** 2)
    return alpha * delta / (math.pi * q) \
        * np.exp(log_bessel_k(1.0, alpha * q) + gamma * delta + beta * (x - mu))


def _variance_gamma_pdf(params, x):
    """Variance-Gamma density; K_{lam-1/2}(alpha |x-mu|) diverges at x = mu
    for lam <= 1/2, where only lam > 1/2 admits a finite analytic limit."""
    alpha, beta, mu, gamma = _gh_like_params(params)
    lam = _require_positive(_param(params, "lam"), "lam")
    ax = np.abs(x - mu)
    at_mu = ax == 0.0
    if np.any(at_mu) and lam <= 0.5:
        raise SingularDensity("variance_gamma diverges at x = mu for lam <= 1/2")
    lognorm = 2.0 * lam * math.log(gamma) - 0.5 * math.log(math.pi) \
        - scipy.special.gammaln(lam) - (lam - 0.5) * math.log(2.0 * alpha)
    safe = np.where(at_mu, 1.0, ax)
    logval = lognorm + (lam - 0.5) * np.log(safe) \
        + log_bessel_k(lam - 0.5, alpha * safe) + beta * (x - mu)
    out = np.exp(logval)
    if np.any(at_mu):
        # analytic limit of |t|^{lam-1/2} K_{lam-1/2}(alpha |t|) as t -> 0
        limit = math.exp(
            lognorm + scipy.special.gammaln(lam - 0.5)
            + (lam - 1.5) * math.log(2.0) - (lam - 0.5) * math.log(alpha)
        )
        out = np.where(at_mu, limit, out)
    return out


def _mixture_integrand(x: float, mu: float, beta: float, gig: GigParams):
    """v -> N(x | mu + beta v, v) GIG(v), fused into one scalar exponent

        c + (lambda - 3/2) log v - ((x - mu - beta v)^2 / 2 + delta^2 / 2) / v
          - gamma^2 v / 2,

    with c the GIG log normalizer minus log(2 pi) / 2.  Validates ``gig``
    now, not per point.  An exponent past the double range raises
    QuadratureFailure.
    """
    c = _gig_log_norm(gig) - _HALF_LOG_2PI
    shape = gig.lam - 1.5
    half_delta_sq = 0.5 * gig.delta_sq
    half_gamma_sq = 0.5 * gig.gamma_sq
    exp, log = math.exp, math.log

    def integrand(v):
        r = x - (mu + beta * v)
        try:
            return exp(c + shape * log(v) - (0.5 * r * r + half_delta_sq) / v
                       - half_gamma_sq * v)
        except OverflowError:
            raise QuadratureFailure(
                f"mixture integrand exceeds the double range at v = {v!r}") from None

    return integrand


def gh_marginal_quadrature(x: float, mu: float, beta: float, gig: GigParams,
                           tol: float = 1e-9) -> float:
    """Normal variance-mean mixture integral, evaluated by quadrature.

    Integrates N(x | mu + beta v, v) GIG(v | gamma^2, delta^2, lambda)
    over v in (0, inf) to absolute tolerance ``tol``.  Serves as the
    independent oracle for :func:`gh_pdf`.
    """
    import scipy.integrate

    if not all(math.isfinite(t) for t in (x, mu, beta)):
        raise DomainError(f"x, mu and beta must be finite, got {(x, mu, beta)}")
    integrand = _mixture_integrand(x, mu, beta, gig)
    value, err = scipy.integrate.quad(integrand, 0.0, np.inf,
                                      epsabs=tol, epsrel=1e-12, limit=400)
    if err > tol or value == 0.0:
        # retry with the mass split around the mixing density's scale; the
        # integrand is positive, so a zero means every sample underflowed
        # (the mass sits below the smallest v the (0, inf) map reaches)
        scale = math.sqrt((gig.delta_sq + 1.0) / (gig.gamma_sq + 1.0))
        cuts = [0.0, 0.1 * scale, scale, 10.0 * scale]
        value, err = 0.0, 0.0
        for lo, hi in zip(cuts, cuts[1:] + [np.inf]):
            v, e = scipy.integrate.quad(integrand, lo, hi,
                                        epsabs=tol / 4, epsrel=1e-12, limit=400)
            value += v
            err += e
        if err > tol:
            raise QuadratureFailure(
                f"mixture quadrature error {err:.3g} above tolerance {tol:.3g}"
            )
    return value


_LIMIT_CASES = ("student_t_alpha", "laplace_delta")
# grid points a report may evaluate: the default grid has 2001
_MAX_GRID_POINTS = 10 ** 6


def _check_levels(levels):
    """Raises ValueError unless levels are finite, positive, strictly decreasing."""
    if (not all(0 < v < math.inf for v in levels)  # NaN fails too
            or any(a <= b for a, b in zip(levels, levels[1:]))):
        raise ValueError("levels must be strictly decreasing finite positive values")


def limit_deviation(limit_case: str, levels, grid, nu: float = 1.0, b: float = 1.0):
    """Sup-norm gap between the GH density and a limiting member.

    For each level (the vanishing parameter held at a finite surrogate)
    returns sup over the x grid of |gh_pdf - reference_pdf|:

    - student_t_alpha: GH(-nu/2, alpha=level, 0, sqrt(nu), 0) against the
      Student-t with nu degrees of freedom;
    - laplace_delta: GH(1, 1/b, 0, delta=level, 0) against Laplace(0, b).
    """
    if limit_case not in _LIMIT_CASES:
        raise ValueError(f"limit_case must be one of {_LIMIT_CASES}, got {limit_case!r}")
    levels = [float(v) for v in levels]
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
    at most ``_MAX_GRID_POINTS`` points, mixture_draws is >= 0 and the
    levels are finite, positive and strictly decreasing.
    """

    levels: tuple = (1.0, 0.1, 0.01, 0.001)
    grid_lo: float = -10.0
    grid_hi: float = 10.0
    grid_step: float = 0.01
    nu: float = 1.0
    b: float = 1.0
    mixture_draws: int = 10

    def __post_init__(self):
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
        if self.mixture_draws < 0:
            raise ValueError("mixture_draws must be >= 0")
        _check_levels(self.levels)


def priors_report(settings: PriorsSettings, seed: int) -> dict:
    """Bessel, GH identity, limit and quadrature checks as one report.

    Every random parameter is drawn from ``SplitMix64(seed)`` in a fixed
    order, so equal settings and seed give an identical report.
    """
    import scipy.integrate

    levels = list(settings.levels)
    step = settings.grid_step
    grid = np.arange(settings.grid_lo, settings.grid_hi + 0.5 * step, step)
    rng = SplitMix64(seed)

    half_order = abs(bessel_k(0.5, 1.0) - math.sqrt(math.pi / 2.0) * math.exp(-1.0))
    sym_max = 0.0
    rec_max = 0.0
    for _ in range(50):
        lam = -5.0 + 10.0 * rng.uniform()
        x = 0.1 + 5.0 * rng.uniform()
        k0, k1 = bessel_k(lam, x), bessel_k(-lam, x)
        sym_max = max(sym_max, abs(k0 - k1) / abs(k0))
        lhs = bessel_k(lam + 1.0, x)
        rhs = bessel_k(lam - 1.0, x) + 2.0 * lam / x * bessel_k(lam, x)
        rec_max = max(rec_max, abs(lhs - rhs) / abs(lhs))

    def draw_gh():
        alpha = 0.6 + 2.0 * rng.uniform()
        beta = (2.0 * rng.uniform() - 1.0) * 0.7 * alpha
        delta = 0.5 + 1.5 * rng.uniform()
        lam = -1.5 + 3.0 * rng.uniform()
        mu = -0.5 + rng.uniform()
        return GhParams(lam=lam, alpha=alpha, beta=beta, delta=delta, mu=mu)

    ident_grid = np.linspace(-8.0, 8.0, 201)
    hyp_max = 0.0
    nig_max = 0.0
    for _ in range(5):
        params = draw_gh()
        ref = {"alpha": params.alpha, "beta": params.beta,
               "delta": params.delta, "mu": params.mu}
        hyp = reference_pdf("hyperbolic", ref, ident_grid)
        got = gh_pdf(ident_grid, GhParams(lam=1.0, alpha=params.alpha,
                                          beta=params.beta, delta=params.delta,
                                          mu=params.mu))
        hyp_max = max(hyp_max, float(np.max(np.abs(got - hyp))))
        nig = reference_pdf("nig", ref, ident_grid)
        got = gh_pdf(ident_grid, GhParams(lam=-0.5, alpha=params.alpha,
                                          beta=params.beta, delta=params.delta,
                                          mu=params.mu))
        nig_max = max(nig_max, float(np.max(np.abs(got - nig))))

    student_devs = limit_deviation("student_t_alpha", levels, grid, nu=settings.nu)
    laplace_devs = limit_deviation("laplace_delta", levels, grid, b=settings.b)

    mix_max = 0.0
    for _ in range(settings.mixture_draws):
        params = draw_gh()
        gig = GigParams(gamma_sq=params.gamma ** 2, delta_sq=params.delta ** 2,
                        lam=params.lam)
        xs = np.linspace(params.mu - 3.0, params.mu + 3.0, 21)
        closed = gh_pdf(xs, params)
        for x, c in zip(xs, closed):
            mix_max = max(mix_max, abs(gh_marginal_quadrature(
                float(x), params.mu, params.beta, gig) - c))

    ig_max = 0.0
    for _ in range(20):
        alpha = 0.5 + 9.5 * rng.uniform()
        beta = 0.5 + 9.5 * rng.uniform()
        # IG(alpha, beta) density times 1/x, its log normalizer hoisted
        log_norm = alpha * math.log(beta) - math.lgamma(alpha)
        shape = alpha + 1.0
        val, _err = scipy.integrate.quad(
            lambda x: (1.0 / x) * math.exp(log_norm - shape * math.log(x) - beta / x),
            0.0, np.inf, epsabs=1e-12, epsrel=1e-12, limit=300)
        ig_max = max(ig_max, abs(val - alpha / beta))

    def strictly_decreasing(seq):
        return all(a > b_ for a, b_ in zip(seq, seq[1:]))

    return {
        "bessel": {
            "half_order_abs_error": half_order,
            "symmetry_max_rel": sym_max,
            "recurrence_max_rel": rec_max,
        },
        "identities": {
            "hyperbolic_max_abs": hyp_max,
            "nig_max_abs": nig_max,
        },
        "limits": {
            "student_t_alpha": {
                "levels": levels,
                "sup_deviation": student_devs,
                "strictly_decreasing": strictly_decreasing(student_devs),
            },
            "laplace_delta": {
                "levels": levels,
                "sup_deviation": laplace_devs,
                "strictly_decreasing": strictly_decreasing(laplace_devs),
            },
        },
        "scale_mixture": {
            "draws": settings.mixture_draws,
            "grid_points": 21,
            "max_abs_deviation": mix_max,
        },
        "ig_inverse_expectation": {"max_abs_error": ig_max},
    }
