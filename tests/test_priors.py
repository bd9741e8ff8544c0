import math
import sys
import warnings

import numpy as np
import pytest
import scipy.integrate
from hypothesis import example, given, settings, strategies as st

from bsi import (
    DomainError,
    GhParams,
    GigParams,
    PriorsSettings,
    QuadratureFailure,
    SingularDensity,
    bessel_k,
    gh_marginal_quadrature,
    gh_pdf,
    gig_pdf,
    limit_deviation,
    reference_pdf,
)
from bsi.priors import _exp_sinh, _gig_log_norm, _mixture_integrand, log_bessel_k

# high-precision values frozen from an arbitrary-precision evaluation of
# K_lambda(x) (independent of the scipy code path under test)
BESSEL_TABLE = [
    (-60.0, 0.37, 6.4630568017789449e+123),
    (-7.3, 1e-06, 6.3209048474460355e+48),
    (-0.5, 2.0, 0.11993777196806145),
    (0.0, 0.0001, 9.3262719134502749),
    (0.5, 1.0, 0.46106850444789456),
    (3.25, 0.01, 38346548.463220744),
    (12.7, 4.2, 6289.8241486853359),
    (60.0, 55.5, 1.1921499464386698e-12),
    (25.0, 700.0, 7.2948903569446604e-306),
    (0.5, 700.0, 4.6706097999361335e-306),
]


class TestBesselK:
    def test_half_order_explicit_form(self):
        assert bessel_k(0.5, 1.0) == pytest.approx(
            math.sqrt(math.pi / 2.0) * math.exp(-1.0), rel=1e-13)
        assert bessel_k(0.5, 1.0) == pytest.approx(0.46106850444789456, abs=1e-10)

    def test_negative_half_order_symmetry(self):
        assert bessel_k(-0.5, 2.0) == pytest.approx(bessel_k(0.5, 2.0), rel=1e-14)
        assert bessel_k(-0.5, 2.0) == pytest.approx(0.11993777196806145, rel=1e-12)

    def test_small_argument_asymptote(self):
        # K_1(x) ~ Gamma(1) 2^0 x^-1 for x -> 0
        assert bessel_k(1.0, 1e-4) == pytest.approx(1e4, rel=1e-3)

    def test_wide_domain_accuracy(self):
        for lam, x, expected in BESSEL_TABLE:
            assert bessel_k(lam, x) == pytest.approx(expected, rel=1e-10), (lam, x)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            bessel_k(1.0, 0.0)
        with pytest.raises(DomainError):
            bessel_k(1.0, -1.0)

    def test_overflow_reported_as_inf(self):
        assert bessel_k(60.0, 1e-8) == math.inf

    def test_subnormal_order_is_order_zero(self):
        # scipy's kv gives nan at orders below the normal double range
        assert bessel_k(5e-324, 1.0) == bessel_k(0.0, 1.0)
        assert gig_pdf(1.0, GigParams(1.0, 1.0, 5e-324)) == gig_pdf(1.0, GigParams(1.0, 1.0, 0.0))
        assert gh_pdf(0.3, GhParams(lam=5e-324, alpha=1.0)) == gh_pdf(0.3, GhParams(lam=0.0, alpha=1.0))

    def test_log_overflow_fallback_keeps_shape(self):
        xs = np.array([1e-300, 1e-290, 1.0])
        got = log_bessel_k(60.0, xs)
        assert got.shape == (3,)
        for x, value in zip(xs, got):
            assert float(log_bessel_k(60.0, x)) == value
        assert np.ndim(log_bessel_k(60.0, 1e-300)) == 0
        # small-argument asymptote log(Gamma(60) 2^59 x^-60)
        assert got[0] == pytest.approx(math.lgamma(60.0) + 59.0 * math.log(2.0)
                                       + 60.0 * 300.0 * math.log(10.0), rel=1e-12)
        assert got[2] == pytest.approx(math.log(bessel_k(60.0, 1.0)), rel=1e-13)

    def test_order_symmetry_random(self):
        rng = np.random.RandomState(2)
        for _ in range(50):
            lam = rng.uniform(-10.0, 10.0)
            x = rng.uniform(0.05, 30.0)
            assert bessel_k(lam, x) == pytest.approx(bessel_k(-lam, x), rel=1e-12)

    def test_recurrence_random(self):
        # K_{l+1}(x) = K_{l-1}(x) + (2 l / x) K_l(x)
        rng = np.random.RandomState(7)
        for _ in range(50):
            lam = rng.uniform(-5.0, 5.0)
            x = rng.uniform(0.1, 20.0)
            lhs = bessel_k(lam + 1.0, x)
            rhs = bessel_k(lam - 1.0, x) + 2.0 * lam / x * bessel_k(lam, x)
            assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_integral_representation(self):
        # K_lambda(x) = int_0^inf exp(-x cosh t) cosh(lambda t) dt
        def integrand(t, lam, x):
            if t > 30.0:  # x cosh(t) >> 745 for every tested x: exact zero
                return 0.0
            a = -x * math.cosh(t)
            return math.exp(a) * math.cosh(lam * t) if a > -700.0 else 0.0

        for lam, x in [(0.0, 1.0), (0.7, 0.5), (1.5, 2.3), (3.0, 4.0)]:
            val, _ = scipy.integrate.quad(integrand, 0.0, np.inf, args=(lam, x),
                                          epsabs=1e-13, epsrel=1e-13)
            assert bessel_k(lam, x) == pytest.approx(val, rel=1e-9)


class TestGigPdf:
    def test_composes_with_bessel(self):
        value = gig_pdf(1.0, GigParams(gamma_sq=1.0, delta_sq=1.0, lam=1.0))
        assert value == pytest.approx(math.exp(-1.0) / (2.0 * bessel_k(1.0, 1.0)),
                                      rel=1e-12)
        assert value == pytest.approx(0.30559480158669518, rel=1e-12)

    def test_normalization(self):
        params = GigParams(gamma_sq=2.0, delta_sq=3.0, lam=-0.5)
        val, _ = scipy.integrate.quad(lambda v: gig_pdf(v, params), 0.0, np.inf,
                                      epsabs=1e-10, epsrel=1e-10)
        assert abs(val - 1.0) < 1e-6

    def test_exponential_reduction(self):
        # lambda = 1, delta^2 -> 0 is Exponential with rate gamma^2 / 2
        value = gig_pdf(1.0, GigParams(gamma_sq=1.0, delta_sq=1e-12, lam=1.0))
        assert value == pytest.approx(0.5 * math.exp(-0.5), rel=1e-3)

    def test_gamma_boundary(self):
        # delta^2 = 0 dispatches to the exact Gamma closed form
        value = gig_pdf(2.0, GigParams(gamma_sq=3.0, delta_sq=0.0, lam=2.0))
        rate = 1.5
        assert value == pytest.approx(rate ** 2 * 2.0 * math.exp(-rate * 2.0), rel=1e-13)

    def test_inverse_gamma_boundary(self):
        # gamma^2 = 0 dispatches to the exact Inverse-Gamma closed form
        value = gig_pdf(0.7, GigParams(gamma_sq=0.0, delta_sq=4.0, lam=-1.5))
        a, b = 1.5, 2.0
        expected = b ** a / math.gamma(a) * 0.7 ** (-a - 1.0) * math.exp(-b / 0.7)
        assert value == pytest.approx(expected, rel=1e-13)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            gig_pdf(0.0, GigParams(1.0, 1.0, 1.0))
        with pytest.raises(DomainError):
            gig_pdf(1.0, GigParams(0.0, 0.0, 1.0))
        with pytest.raises(DomainError):
            gig_pdf(1.0, GigParams(gamma_sq=0.0, delta_sq=1.0, lam=1.0))
        with pytest.raises(DomainError):
            gig_pdf(1.0, GigParams(gamma_sq=1.0, delta_sq=0.0, lam=-1.0))

    @pytest.mark.parametrize("params", [
        GigParams(math.nan, 1.0, 0.5), GigParams(1.0, math.nan, 0.5),
        GigParams(1.0, 1.0, math.nan), GigParams(math.inf, 1.0, 0.5),
        GigParams(1.0, math.inf, 0.5), GigParams(1.0, 1.0, -math.inf),
    ])
    def test_non_finite_parameters_are_domain_errors(self, params):
        with pytest.raises(DomainError, match="finite"):
            gig_pdf(1.0, params)


def random_gh(rng):
    alpha = rng.uniform(0.6, 2.5)
    return GhParams(
        lam=rng.uniform(-1.5, 1.5), alpha=alpha,
        beta=rng.uniform(-0.7, 0.7) * alpha,
        delta=rng.uniform(0.5, 2.0), mu=rng.uniform(-0.5, 0.5),
    )


class TestGhPdf:
    def test_laplace_limit_at_origin(self):
        value = gh_pdf(0.0, GhParams(lam=1.0, alpha=1.0, beta=0.0, delta=1e-3, mu=0.0))
        assert value == pytest.approx(0.5, abs=1e-3)

    def test_nig_identity(self):
        params = GhParams(lam=-0.5, alpha=2.0, beta=0.5, delta=1.0, mu=0.0)
        ref = reference_pdf("nig", {"alpha": 2.0, "beta": 0.5, "delta": 1.0,
                                    "mu": 0.0}, 0.3)
        assert gh_pdf(0.3, params) == pytest.approx(ref, abs=1e-10)

    def test_hyperbolic_identity_pointwise(self):
        rng = np.random.RandomState(10)
        grid = np.linspace(-6.0, 6.0, 101)
        for _ in range(5):
            p = random_gh(rng)
            got = gh_pdf(grid, GhParams(lam=1.0, alpha=p.alpha, beta=p.beta,
                                        delta=p.delta, mu=p.mu))
            ref = reference_pdf("hyperbolic", {"alpha": p.alpha, "beta": p.beta,
                                               "delta": p.delta, "mu": p.mu}, grid)
            assert np.max(np.abs(got - ref)) < 1e-10

    def test_symmetry_when_beta_zero(self):
        rng = np.random.RandomState(14)
        for _ in range(10):
            p = random_gh(rng)
            params = GhParams(lam=p.lam, alpha=p.alpha, beta=0.0,
                              delta=p.delta, mu=p.mu)
            t = rng.uniform(0.0, 5.0)
            assert gh_pdf(p.mu + t, params) == pytest.approx(
                gh_pdf(p.mu - t, params), rel=1e-12)

    def test_normalization_random_params(self):
        rng = np.random.RandomState(15)
        for _ in range(5):
            p = random_gh(rng)
            val, _ = scipy.integrate.quad(lambda x: gh_pdf(x, p),
                                          -np.inf, np.inf,
                                          epsabs=1e-10, epsrel=1e-10, limit=300)
            assert abs(val - 1.0) < 1e-6

    def test_nonnegative_everywhere(self):
        rng = np.random.RandomState(16)
        grid = np.linspace(-20.0, 20.0, 401)
        for _ in range(5):
            assert np.all(gh_pdf(grid, random_gh(rng)) >= 0.0)

    def test_variance_gamma_surrogate(self):
        # delta = 1e-8 approximates the VG density away from the x = mu kink
        rng = np.random.RandomState(18)
        for _ in range(5):
            alpha = rng.uniform(0.8, 2.0)
            beta = rng.uniform(-0.5, 0.5) * alpha
            lam = rng.uniform(0.3, 2.0)
            mu = rng.uniform(-0.5, 0.5)
            xs = mu + np.concatenate([np.linspace(-4.0, -0.05, 40),
                                      np.linspace(0.05, 4.0, 40)])
            got = gh_pdf(xs, GhParams(lam=lam, alpha=alpha, beta=beta,
                                      delta=1e-8, mu=mu))
            ref = reference_pdf("variance_gamma", {"alpha": alpha, "beta": beta,
                                                   "lam": lam, "mu": mu}, xs)
            assert np.max(np.abs(got - ref)) < 1e-4

    @pytest.mark.parametrize("alpha, beta", [(-2.0, 1.0), (1.0, 1.0), (math.nan, 0.0)],
                             ids=["negative-alpha", "beta-equals-alpha", "nan-alpha"])
    def test_gamma_follows_the_gh_rule(self, alpha, beta):
        # used to give 1.732, 0.0 and nan
        assert GhParams(lam=1.0, alpha=2.0, beta=1.0).gamma == math.sqrt(3.0)
        with pytest.raises(DomainError):
            GhParams(lam=1.0, alpha=alpha, beta=beta).gamma

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            gh_pdf(0.0, GhParams(lam=1.0, alpha=1.0, beta=1.5, delta=1.0))
        with pytest.raises(DomainError):
            gh_pdf(0.0, GhParams(lam=1.0, alpha=1.0, beta=0.0, delta=0.0))
        for params in (GhParams(lam=1.0, alpha=1.0, beta=math.nan),
                       GhParams(lam=math.nan, alpha=1.0),
                       GhParams(lam=1.0, alpha=1.0, mu=math.inf)):
            with pytest.raises(DomainError):
                gh_pdf(0.5, params)


class TestReferencePdf:
    def test_cauchy_mode(self):
        assert reference_pdf("cauchy", {}, 0.0) == pytest.approx(1.0 / math.pi)

    def test_laplace_mode(self):
        assert reference_pdf("laplace", {"mu": 0.0, "b": 1.0}, 0.0) == pytest.approx(0.5)

    def test_gen_gaussian_reduces_to_laplace(self):
        xs = np.linspace(-4.0, 4.0, 33)
        gg = reference_pdf("gen_gaussian", {"mu": 0.0, "alpha": 1.0, "beta": 1.0}, xs)
        lap = reference_pdf("laplace", {"mu": 0.0, "b": 1.0}, xs)
        assert gg == pytest.approx(lap, rel=1e-12)

    def test_student_nu_one_is_cauchy(self):
        xs = np.linspace(-5.0, 5.0, 21)
        st = reference_pdf("student_t", {"nu": 1.0}, xs)
        cauchy = reference_pdf("cauchy", {}, xs)
        assert st == pytest.approx(cauchy, rel=1e-12)

    @pytest.mark.parametrize("family,params", [
        ("student_t", {"nu": 1.7, "mu": 0.3}),
        ("cauchy", {"mu": -0.2}),
        ("laplace", {"mu": 0.1, "b": 0.8}),
        ("hyperbolic", {"alpha": 1.4, "beta": 0.3, "delta": 0.9, "mu": 0.2}),
        ("variance_gamma", {"alpha": 1.2, "beta": -0.2, "lam": 1.4, "mu": 0.0}),
        ("nig", {"alpha": 1.5, "beta": 0.4, "delta": 1.1, "mu": -0.3}),
        ("gen_gaussian", {"mu": 0.0, "alpha": 1.3, "beta": 1.6}),
        ("sym_weibull", {"k": 1.5, "b": 0.7}),
        ("sym_weibull", {"k": 0.8, "b": 1.2}),
        ("sym_rayleigh", {"sigma": 0.9}),
    ])
    def test_each_family_normalizes(self, family, params):
        pieces = [(-np.inf, -1.0), (-1.0, 0.0), (0.0, 1.0), (1.0, np.inf)]
        total = 0.0
        for lo, hi in pieces:
            val, _ = scipy.integrate.quad(
                lambda x: reference_pdf(family, params, x), lo, hi,
                epsabs=1e-10, epsrel=1e-10, limit=300)
            total += val
        assert abs(total - 1.0) < 1e-6

    def test_variance_gamma_singularity(self):
        with pytest.raises(SingularDensity):
            reference_pdf("variance_gamma",
                          {"alpha": 1.0, "beta": 0.0, "lam": 0.3, "mu": 0.0}, 0.0)
        # lam > 1/2 has a finite analytic limit at x = mu
        at_mu = reference_pdf("variance_gamma",
                              {"alpha": 1.0, "beta": 0.0, "lam": 0.8, "mu": 0.0}, 0.0)
        near = reference_pdf("variance_gamma",
                             {"alpha": 1.0, "beta": 0.0, "lam": 0.8, "mu": 0.0}, 1e-7)
        assert at_mu == pytest.approx(near, rel=1e-3)

    def test_variance_gamma_where_the_bessel_argument_underflows(self):
        # alpha |x - mu| = 0.5 * 5e-324 rounds to zero.  Near mu the density
        # goes as |x - mu|^{2 lam - 1} for lam < 1/2, as log|x - mu| at
        # lam = 1/2 and to its finite limit for lam > 1/2; x = 1e-300 keeps
        # the argument normal, and both points are deep in the asymptote
        tiny, small = 5e-324, 1e-300
        for lam in (0.3, 0.5, 0.8, 1.0):
            params = {"alpha": 0.5, "beta": 0.0, "lam": lam, "mu": 0.0}
            got = reference_pdf("variance_gamma", params, np.array([tiny, small]))
            if lam < 0.5:
                ratio = (tiny / small) ** (2.0 * lam - 1.0)
            elif lam == 0.5:
                ratio = (math.log(4.0) - math.log(tiny) - np.euler_gamma) \
                    / (math.log(4.0) - math.log(small) - np.euler_gamma)
            else:
                ratio = 1.0
                assert got[0] == pytest.approx(
                    reference_pdf("variance_gamma", params, 0.0), rel=1e-12)
            assert np.isfinite(got).all()
            assert got[0] / got[1] == pytest.approx(ratio, rel=1e-12)
        with pytest.raises(SingularDensity):
            reference_pdf("variance_gamma", dict(params, lam=0.3), np.array([1.0, 0.0]))

    def test_domain_errors(self):
        for family, params in [
            ("student_t", {"nu": -1.0}),
            ("laplace", {"b": 0.0}),
            ("student_t", {"nu": 3.0, "loc": 1.0}),     # an unknown key
            ("laplace", {"b": 1.0, "scale": 2.0}),
            ("hyperbolic", {"alpha": 1.0, "mu": 0.0}),  # delta missing
            ("student_t", {}),
            ("student_t", {"nu": None}),                # not a number
            ("laplace", {"b": "wide"}),
            ("hyperbolic", {"alpha": 1.0, "delta": 1.0, "beta": math.nan}),
            ("laplace", {"b": 1.0, "mu": math.nan}),     # not finite
            ("cauchy", {"mu": math.inf}),
        ]:
            with pytest.raises(DomainError):
                reference_pdf(family, params, 0.0)
        with pytest.raises(ValueError):
            reference_pdf("not_a_family", {}, 0.0)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_scalar_is_the_vector_point(self, data):
        positive = st.floats(0.1, 5.0)
        ratio = st.floats(-0.95, 0.95)
        family, params = data.draw(st.sampled_from([
            ("student_t", {"nu": positive, "mu": st.floats(-3.0, 3.0)}),
            ("cauchy", {"mu": st.floats(-3.0, 3.0)}),
            ("laplace", {"b": positive, "mu": st.floats(-3.0, 3.0)}),
            ("hyperbolic", {"alpha": positive, "beta": ratio, "delta": positive,
                            "mu": st.floats(-3.0, 3.0)}),
            ("variance_gamma", {"alpha": positive, "beta": ratio, "lam": st.floats(0.6, 5.0),
                                "mu": st.floats(-3.0, 3.0)}),
            ("nig", {"alpha": positive, "beta": ratio, "delta": positive,
                     "mu": st.floats(-3.0, 3.0)}),
            ("gen_gaussian", {"alpha": positive, "beta": st.floats(0.3, 5.0),
                              "mu": st.floats(-3.0, 3.0)}),
            ("sym_weibull", {"k": st.floats(0.3, 5.0), "b": positive}),
            ("sym_rayleigh", {"sigma": positive}),
        ]))
        params = {name: data.draw(strategy) for name, strategy in params.items()}
        if "beta" in params and family != "gen_gaussian":
            params["beta"] *= params["alpha"]           # |beta| < alpha
        xs = np.array(data.draw(st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=20)))
        vector = reference_pdf(family, params, xs)
        for x, expected in zip(xs, vector):
            value = reference_pdf(family, params, x)
            assert type(value) is float
            assert value == expected                    # bit for bit


@st.composite
def gig_params(draw):
    branch = draw(st.sampled_from(["general", "gamma", "inverse_gamma"]))
    scale = st.floats(1e-2, 1e2)
    if branch == "gamma":
        return GigParams(gamma_sq=draw(scale), delta_sq=0.0,
                         lam=draw(st.floats(0.0, 5.0, exclude_min=True)))
    if branch == "inverse_gamma":
        return GigParams(gamma_sq=0.0, delta_sq=draw(scale),
                         lam=draw(st.floats(-5.0, 0.0, exclude_max=True)))
    return GigParams(gamma_sq=draw(scale), delta_sq=draw(scale),
                     lam=draw(st.floats(-5.0, 5.0)))


class TestMarginalQuadrature:
    def test_matches_gh_closed_form(self):
        rng = np.random.RandomState(20)
        for _ in range(3):
            p = random_gh(rng)
            gig = GigParams(gamma_sq=p.gamma ** 2, delta_sq=p.delta ** 2, lam=p.lam)
            xs = np.linspace(p.mu - 3.0, p.mu + 3.0, 7)
            closed = gh_pdf(xs, p)
            for x, c in zip(xs, closed):
                assert abs(gh_marginal_quadrature(float(x), p.mu, p.beta, gig) - c) < 1e-6

    def test_student_t_limit_by_quadrature(self):
        # beta = 0, lam = -nu/2, delta = sqrt(nu), gamma surrogate 1e-4
        nu = 1.0
        gig = GigParams(gamma_sq=1e-8, delta_sq=nu, lam=-0.5 * nu)
        for x in (0.0, 1.0, 2.0):
            mix = gh_marginal_quadrature(x, 0.0, 0.0, gig)
            ref = reference_pdf("student_t", {"nu": nu}, x)
            assert abs(mix - ref) < 2e-3

    def test_unreachable_tolerance_raises(self):
        gig = GigParams(gamma_sq=1.0, delta_sq=1.0, lam=0.5)
        with pytest.raises(QuadratureFailure):
            gh_marginal_quadrature(0.0, 0.0, 0.0, gig, tol=1e-18)

    @pytest.mark.parametrize("gamma_sq", [2e4, 2e6, 2e8])
    def test_concentrated_gamma_mixing(self, gamma_sq):
        # Gamma(lam, rate = gamma^2 / 2) mixing at x = mu, beta = 0 gives
        # E[(2 pi v)^-1/2] = sqrt(rate / 2 pi) Gamma(lam - 1/2) / Gamma(lam);
        # at large rates the mass lies below every v the first pass samples
        lam, rate = 5.0, 0.5 * gamma_sq
        exact = math.sqrt(rate / (2.0 * math.pi)) * math.gamma(lam - 0.5) / math.gamma(lam)
        got = gh_marginal_quadrature(0.0, 0.0, 0.0, GigParams(gamma_sq, 0.0, lam))
        assert abs(got - exact) <= 1e-12 * exact

    def test_normal_inverse_gamma_mixture_is_student(self):
        # IG(alpha, beta) mixing gives Student-t with nu = 2 alpha and
        # scale sqrt(beta / alpha); at alpha = beta = 1 that is nu = 2.
        gig = GigParams(gamma_sq=0.0, delta_sq=2.0, lam=-1.0)
        for x in (0.0, 0.7, 1.5, 3.0):
            mix = gh_marginal_quadrature(x, 0.0, 0.0, gig)
            ref = reference_pdf("student_t", {"nu": 2.0}, x)
            assert abs(mix - ref) < 1e-6

    def test_matches_quadrature_of_composed_densities(self):
        # the draws of acceptance criterion 8, integrated once more with the
        # unfused normal-pdf-times-gig_pdf integrand and the same settings
        rng = np.random.RandomState(88)
        for _ in range(10):
            alpha = 0.6 + 2.0 * rng.uniform()
            p = GhParams(lam=-1.5 + 3.0 * rng.uniform(), alpha=alpha,
                         beta=(2.0 * rng.uniform() - 1.0) * 0.7 * alpha,
                         delta=0.5 + 1.5 * rng.uniform(), mu=-0.5 + rng.uniform())
            gig = GigParams(gamma_sq=p.gamma ** 2, delta_sq=p.delta ** 2, lam=p.lam)
            for x in np.linspace(p.mu - 3.0, p.mu + 3.0, 21):
                x = float(x)
                oracle, err = scipy.integrate.quad(
                    lambda v: composed_integrand(x, p.mu, p.beta, gig, v),
                    0.0, np.inf, epsabs=1e-9, epsrel=1e-12, limit=400)
                assert err <= 1e-9
                assert abs(gh_marginal_quadrature(x, p.mu, p.beta, gig) - oracle) <= 1e-12

    @pytest.mark.parametrize("gig", [
        GigParams(gamma_sq=1.0, delta_sq=0.0, lam=0.0),
        GigParams(gamma_sq=1.0, delta_sq=0.0, lam=-1.0),
        GigParams(gamma_sq=0.0, delta_sq=1.0, lam=0.0),
        GigParams(gamma_sq=0.0, delta_sq=1.0, lam=2.0),
        GigParams(gamma_sq=0.0, delta_sq=0.0, lam=-1.0),
        GigParams(gamma_sq=-1.0, delta_sq=1.0, lam=1.0),
        GigParams(gamma_sq=math.nan, delta_sq=1.0, lam=0.5),
        GigParams(gamma_sq=1.0, delta_sq=math.inf, lam=0.5),
        GigParams(gamma_sq=1.0, delta_sq=1.0, lam=math.nan),
    ])
    def test_domain_error_before_quadrature(self, gig, no_rule):
        with pytest.raises(DomainError):
            gh_marginal_quadrature(0.5, 0.0, 0.0, gig)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-9])
    def test_bad_tolerance_is_domain_error_before_quadrature(self, tol, no_rule):
        with pytest.raises(DomainError, match="tol"):
            gh_marginal_quadrature(0.5, 0.0, 0.0, GigParams(1.0, 1.0, 0.5), tol=tol)

    @pytest.mark.parametrize("lam", [0.25, 0.5])
    def test_divergent_mixture_is_singular_before_quadrature(self, lam, no_rule):
        # delta^2 = 0 and lam <= 1/2: v^(lam - 3/2) is not integrable at
        # v = 0 when x = mu, as the Variance-Gamma reference says
        with pytest.raises(SingularDensity):
            gh_marginal_quadrature(0.0, 0.0, 0.0, GigParams(1.0, 0.0, lam))
        with pytest.raises(SingularDensity):
            gh_marginal_quadrature([1.0, 0.0], 0.0, 0.0, GigParams(1.0, 0.0, lam))
        with pytest.raises(SingularDensity):
            reference_pdf("variance_gamma", {"alpha": 1.0, "lam": lam}, 0.0)

    def test_convergent_gamma_mixture_at_mu(self):
        # lam = 3/4: the integrand decays only as v^(-3/4) towards v = 0,
        # so the t range must widen past |t| = 4
        expected = reference_pdf("variance_gamma", {"alpha": 1.0, "lam": 0.75}, 0.0)
        assert abs(expected - 0.83462684167) <= 1e-11
        got = gh_marginal_quadrature(0.0, 0.0, 0.0, GigParams(1.0, 0.0, 0.75))
        assert abs(got - expected) <= 1e-9

    @pytest.mark.parametrize("p,dx", [
        # steps 1/2 and 1/4 of the exp-sinh rule agree to 8.6e-10 here
        # while both are 5.9e-8 off, so one agreement is not enough
        (GhParams(lam=-0.6408577228163391, alpha=2.4891001782285853,
                  beta=0.6104670321005986, delta=0.505076042427967,
                  mu=-0.0475379390374745), -1.2),
        # QUADPACK returned a value 1.1e-5 off here as converged, which
        # failed criterion 8 in a benchmark round
        (GhParams(lam=1.4520024890446068, alpha=1.5002124643678494,
                  beta=-0.1060739893172509, delta=1.617753270161023,
                  mu=0.40867683548261713), -0.3),
    ])
    def test_draws_that_fooled_an_error_estimate(self, p, dx):
        gig = GigParams(gamma_sq=p.gamma ** 2, delta_sq=p.delta ** 2, lam=p.lam)
        x = p.mu + dx
        assert abs(gh_marginal_quadrature(x, p.mu, p.beta, gig) - gh_pdf(x, p)) <= 1e-12

    @pytest.mark.parametrize("x,mu,beta", [(math.nan, 0.0, 0.0), (0.0, math.inf, 0.0),
                                           (0.0, 0.0, -math.inf),
                                           ([0.0, math.inf], 0.0, 0.0)])
    def test_nonfinite_arguments_rejected(self, x, mu, beta):
        with pytest.raises(DomainError):
            gh_marginal_quadrature(x, mu, beta, GigParams(1.0, 1.0, 0.5))

    def test_exponent_overflow_is_typed(self):
        # Gamma mixing with rate 1e300 at x = mu: near v = 1e-301 the
        # mixture integrand is about 1e450, past the double range ...
        gig = GigParams(gamma_sq=2e300, delta_sq=0.0, lam=1.0)
        log_f, _ = _mixture_integrand(np.zeros(1), 0.0, 0.0, gig)
        assert log_f(np.log([[1e-301]]))[0, 0] > math.log(sys.float_info.max)
        # ... but v times it, which the rule exponentiates, is not:
        # E[(2 pi v)^-1/2] = sqrt(rate / 2 pi) Gamma(1/2) / Gamma(1)
        exact = math.sqrt(1e300 / (2.0 * math.pi)) * math.sqrt(math.pi)
        got = gh_marginal_quadrature(0.0, 0.0, 0.0, gig, tol=1e-12 * exact)
        assert abs(got - exact) <= 1e-12 * exact
        # an absolute tolerance below the rounding of the sum is not met
        with pytest.raises(QuadratureFailure):
            gh_marginal_quadrature(0.0, 0.0, 0.0, gig)
        # and a term past the double range raises, not returns inf
        with pytest.raises(QuadratureFailure, match="double range"):
            _exp_sinh(lambda log_v: 800.0 - log_v * log_v, np.ones((1, 1)), 1.0)

    @settings(max_examples=150, deadline=None)
    @given(gig=gig_params(), xs=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=4),
           mu=st.floats(-10.0, 10.0), beta=st.floats(-3.0, 3.0))
    @example(gig=GigParams(2e8, 0.0, 5.0), xs=[0.0], mu=0.0, beta=0.0)
    @example(gig=GigParams(3.0, 0.0, 0.625), xs=[3.922654634200432e-38], mu=0.0, beta=0.0)
    def test_vector_is_scalars_and_matches_quadpack(self, gig, xs, mu, beta):
        if gig.delta_sq == 0.0 and gig.lam <= 0.5 and mu in xs:  # the mixture diverges
            with pytest.raises(SingularDensity):
                gh_marginal_quadrature(xs, mu, beta, gig)
            return
        scalars = []
        for x in xs:
            try:
                scalars.append(gh_marginal_quadrature(x, mu, beta, gig))
            except QuadratureFailure:
                scalars.append(None)
        try:
            vector = gh_marginal_quadrature(xs, mu, beta, gig)
        except QuadratureFailure:
            assert None in scalars
            return
        assert all(type(s) is float for s in scalars)
        assert vector.tobytes() == np.array(scalars).tobytes()  # bit for bit
        for x, value in zip(xs, scalars):
            oracle, err = quadpack_mixture(x, mu, beta, gig)
            if err <= 1e-10:
                assert abs(value - oracle) <= 1e-9  # the default tol


def quadpack_mixture(x, mu, beta, gig):
    """(value, error estimate) of the mixture integral by QUADPACK.

    The normal and GIG densities are written out separately.  The
    integral is split at the largest v f(v) on a grid of u = log v: the
    left part is taken in v, where QUADPACK's extrapolation handles the
    algebraic singularities of f at v = 0, the right part in u, so that
    the map of the half line sees the mass wherever it lies.  Where q^2 =
    delta^2 + (x - mu)^2 > 0, the factor exp(-q^2 / 2v) of the normal and
    the GIG cuts f off below the cut v = q^2, and above it f grows like
    v^(lam - 3/2).  A cut below the peak is a cusp QUADPACK misses in v
    (at x - mu = 4e-38, delta = 0, it returned the x = mu value, 1.3e-9
    off, with an error estimate of 5e-12), so the left part is then taken
    in u too, split at the cut.  The cut is q^2, not (x - mu)^2: below
    delta^2 the u interval up to the peak is hundreds long, and at
    x - mu = 6e-150, delta^2 = 76 QUADPACK found 0.313 of a 0.376
    integral on it, with an error estimate of 1.5e-11.
    A QUADPACK warning makes the error estimate inf.
    """
    lam, gamma_sq, delta_sq = gig.lam, gig.gamma_sq, gig.delta_sq
    c = _gig_log_norm(gig)

    def log_f(u):
        v = np.exp(u)
        log_normal = -0.5 * (x - mu - beta * v) ** 2 / v - 0.5 * np.log(2.0 * math.pi * v)
        return log_normal + c + (lam - 1.0) * u - 0.5 * (gamma_sq * v + delta_sq / v)

    def finite_exp(value):
        return float(np.nan_to_num(np.exp(value)))  # 0 / 0 where v is 0 or inf: no mass

    def in_u(u):
        return finite_exp(log_f(u) + u)

    grid = np.arange(-700.0, 700.0, 0.25)
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("error", scipy.integrate.IntegrationWarning)
        peak = float(grid[np.nanargmax(log_f(grid) + grid)])
        cut = delta_sq + (x - mu) ** 2
        if 0.0 < cut < math.exp(peak):
            left = [(in_u, -np.inf, math.log(cut)), (in_u, math.log(cut), peak)]
        else:
            left = [(lambda v: finite_exp(log_f(math.log(v))), 0.0, math.exp(peak))]
        parts = left + [(in_u, peak, np.inf)]
        try:
            pieces = [scipy.integrate.quad(fn, lo, hi, epsabs=1e-11, epsrel=1e-13, limit=400)
                      for fn, lo, hi in parts]
        except scipy.integrate.IntegrationWarning:
            return math.nan, math.inf
    return sum(p[0] for p in pieces), sum(p[1] for p in pieces)


@pytest.fixture
def no_rule(monkeypatch):
    """Makes any evaluation by the exp-sinh rule fail the test."""
    def no_quadrature(*args, **kwargs):
        raise AssertionError("quadrature started")

    monkeypatch.setattr("bsi.priors._exp_sinh", no_quadrature)


def composed_integrand(x, mu, beta, gig, v):
    """N(x | mu + beta v, v) times gig_pdf(v): the integrand before fusing.

    x - mu is taken first: x - (mu + beta v) rounds mu + beta v, which the
    difference can magnify (at x = -10, mu = -9.9375, beta v = 1e-5 its
    square over 2v, about 195, was 2.4e-12 off)."""
    normal = np.exp(-0.5 * ((x - mu) - beta * v) ** 2 / v) / np.sqrt(2.0 * math.pi * v)
    return normal * gig_pdf(v, gig)


class TestMixtureIntegrand:
    @settings(max_examples=300, deadline=None)
    @given(gig=gig_params(), x=st.floats(-10.0, 10.0), mu=st.floats(-10.0, 10.0),
           beta=st.floats(-3.0, 3.0), log10_v=st.floats(-6.0, 6.0))
    def test_matches_composed_densities(self, gig, x, mu, beta, log10_v):
        v = 10.0 ** log10_v
        with np.errstate(over="ignore", under="ignore"):
            expected = float(composed_integrand(x, mu, beta, gig, v))
        if not sys.float_info.min <= expected < math.inf:
            return  # the product is zero, subnormal or infinite
        if gig.delta_sq == 0.0 and gig.lam <= 0.5 and x == mu:
            return  # see test_divergent_mixture_is_singular_before_quadrature
        log_f, _ = _mixture_integrand(np.array([x]), mu, beta, gig)
        got = math.exp(log_f(np.array([[math.log(v)]]))[0, 0])
        assert abs(got - expected) <= 1e-12 * expected


class TestLimitDeviation:
    def test_student_levels_strictly_decreasing(self):
        grid = np.arange(-10.0, 10.0 + 0.005, 0.01)
        devs = limit_deviation("student_t_alpha", (1.0, 0.1, 0.01, 0.001), grid, nu=1.0)
        assert all(a > b for a, b in zip(devs, devs[1:]))
        assert devs[-1] < 1e-2

    def test_laplace_levels_strictly_decreasing(self):
        grid = np.arange(-10.0, 10.0 + 0.005, 0.01)
        devs = limit_deviation("laplace_delta", (1.0, 0.1, 0.01, 0.001), grid, b=1.0)
        assert all(a > b for a, b in zip(devs, devs[1:]))
        assert devs[-1] < 1e-2

    def test_tiny_level_already_converged(self):
        grid = np.linspace(-10.0, 10.0, 501)
        devs = limit_deviation("laplace_delta", [1e-6], grid)
        assert devs[0] < 1e-4

    def test_rejects_unordered_levels(self):
        with pytest.raises(ValueError):
            limit_deviation("student_t_alpha", (0.1, 1.0), np.linspace(-1, 1, 5))
        with pytest.raises(ValueError):
            limit_deviation("bogus", (1.0, 0.1), np.linspace(-1, 1, 5))


class TestPriorsSettings:
    @pytest.mark.parametrize("values", [
        {"grid_step": 0.0}, {"grid_step": -0.1}, {"grid_step": math.inf},
        {"grid_lo": 5.0, "grid_hi": -5.0}, {"grid_lo": 1.0, "grid_hi": 1.0},
        {"grid_hi": math.inf}, {"grid_lo": math.nan},
        {"nu": 0.0}, {"nu": math.inf}, {"b": -1.0}, {"b": math.nan},
        {"mixture_draws": -1},
        {"levels": (0.1, 1.0)}, {"levels": (1.0, 0.0)}, {"levels": (math.inf, 1.0)},
        {"levels": (math.nan,)},
        {"grid_lo": -1e300, "grid_hi": 1e300, "grid_step": 1.0},
        {"grid_lo": -1.7e308, "grid_hi": 1.7e308}, {"grid_step": 1e-9},
    ])
    def test_degenerate_settings_rejected(self, values):
        with pytest.raises(ValueError):
            PriorsSettings(**values)

    def test_edge_settings_accepted(self):
        PriorsSettings(levels=(), grid_lo=0.0, grid_hi=1e-9, grid_step=1.0, mixture_draws=0)
