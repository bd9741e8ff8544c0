import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bsi import (
    DimensionMismatch,
    ForwardProblem,
    HyperParams,
    NonFinite,
    NonPositiveHyper,
    NonPositiveVariance,
    SolverState,
    neg_log_posterior,
    validate_problem,
)
from bsi.model import _Operator


def unit_hyper():
    return HyperParams(*(1.0,) * 8)


def scalar_problem(g=0.0):
    return ForwardProblem(g=[g], H=[[1.0]], D=[[1.0]])


def scalar_state(f=0.0, z=0.0, v_eps=1.0, v_xi=1.0, v_z=1.0):
    return SolverState(
        f_hat=np.array([f]), z_hat=np.array([z]),
        v_eps=np.array([v_eps]), v_xi=np.array([v_xi]), v_z=np.array([v_z]),
    )


class TestValidateProblem:
    def test_identity_case_ok(self):
        problem = ForwardProblem(g=[0.0, 0.0], H=np.eye(2))
        validate_problem(problem, unit_hyper())

    def test_shape_mismatch(self):
        problem = ForwardProblem(g=[0.0, 0.0, 0.0], H=np.zeros((2, 3)))
        with pytest.raises(DimensionMismatch):
            validate_problem(problem, unit_hyper())

    def test_nonpositive_hyper(self):
        problem = ForwardProblem(g=[0.0], H=[[1.0]])
        with pytest.raises(NonPositiveHyper):
            validate_problem(problem, HyperParams(alpha_eps=0.0))

    def test_bad_transform_shape(self):
        problem = ForwardProblem(g=[0.0, 0.0], H=np.eye(2), D=np.zeros((2, 3)))
        with pytest.raises(DimensionMismatch):
            validate_problem(problem, unit_hyper())

    def test_nonfinite_entries(self):
        problem = ForwardProblem(g=[np.nan], H=[[1.0]])
        with pytest.raises(NonFinite):
            validate_problem(problem, unit_hyper())
        problem = ForwardProblem(g=[0.0], H=[[np.inf]])
        with pytest.raises(NonFinite):
            validate_problem(problem, unit_hyper())


class TestNegLogPosterior:
    def test_all_unit_state(self):
        # zero residuals, unit variances: only the three beta/v terms remain
        L = neg_log_posterior(scalar_state(), scalar_problem(), unit_hyper())
        assert L == pytest.approx(3.0, abs=1e-14)

    def test_inflated_noise_variance(self):
        # hand-evaluated closed form: 2.5 ln 2 + 0.5 + 2
        L = neg_log_posterior(scalar_state(v_eps=2.0), scalar_problem(), unit_hyper())
        assert L == pytest.approx(2.5 * math.log(2.0) + 2.5, rel=1e-14)
        assert L == pytest.approx(4.232867951399863, rel=1e-12)

    def test_unit_residual(self):
        # residual 2 at v_eps = 1 adds 2^2/2 to the all-unit case
        L = neg_log_posterior(scalar_state(), scalar_problem(g=2.0), unit_hyper())
        assert L == pytest.approx(5.0, abs=1e-14)

    def test_direct_model_drops_z_block(self):
        problem = ForwardProblem(g=[0.0], H=[[1.0]])
        state = SolverState(f_hat=np.zeros(1), v_eps=np.ones(1), v_f=np.ones(1))
        L = neg_log_posterior(state, problem, unit_hyper())
        assert L == pytest.approx(2.0, abs=1e-14)

    def test_rejects_nonpositive_variance(self):
        with pytest.raises(NonPositiveVariance):
            neg_log_posterior(scalar_state(v_xi=0.0), scalar_problem(), unit_hyper())
        with pytest.raises(NonPositiveVariance):
            neg_log_posterior(scalar_state(v_z=-1.0), scalar_problem(), unit_hyper())

    def test_length_one_variances_do_not_broadcast(self):
        # [2.0] used to broadcast in the quadratic term and count once in
        # the log term: L = 5.778 against 14.710 at length 3, which is
        # |g|^2 / 4 plus, per family, (1 + 3/2) 3 ln 2 and 3 / 2
        problem = ForwardProblem(g=[1.0, -2.0, 0.5], H=np.eye(3))
        state = SolverState(f_hat=np.zeros(3), v_eps=np.full(3, 2.0), v_f=np.full(3, 2.0))
        assert neg_log_posterior(state, problem, unit_hyper()) == pytest.approx(
            5.25 / 4 + 2 * (7.5 * math.log(2.0) + 1.5), rel=1e-14)
        with pytest.raises(DimensionMismatch):
            neg_log_posterior(SolverState(f_hat=np.zeros(3), v_eps=[2.0], v_f=[2.0]),
                              problem, unit_hyper())

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf],
                             ids=["zero", "negative", "nan", "inf"])
    @pytest.mark.parametrize("name", list(HyperParams().as_dict()))
    @pytest.mark.parametrize("model", ["direct", "indirect"])
    def test_rejects_bad_hyperparameters_of_the_families_it_reads(self, model, name, bad):
        # alpha_eps = -1 with beta_f = -2 used to give L = -1.5 at unit
        # variances, a NaN gave nan; a family the model does not have is
        # not read
        direct = model == "direct"
        problem = ForwardProblem(g=np.ones(3), H=np.eye(3), D=None if direct else np.eye(3))
        state = SolverState(f_hat=np.zeros(3), z_hat=None if direct else np.zeros(3),
                            v_eps=np.ones(3), v_f=np.ones(3), v_xi=np.ones(3), v_z=np.ones(3))
        hyper = HyperParams(**{name: bad})
        if name.split("_")[1] in (("eps", "f") if direct else ("eps", "xi", "z")):
            with pytest.raises(ValueError, match="finite and strictly positive"):
                neg_log_posterior(state, problem, hyper)
        else:
            L = neg_log_posterior(state, problem, hyper)
            assert L == pytest.approx(7.5 if direct else 10.5)

    @pytest.mark.parametrize("m", [3, 128], ids=["dense", "banded"])
    @pytest.mark.parametrize("model", ["direct", "indirect"])
    def test_rejects_vectors_of_the_wrong_length(self, model, m):
        # N = M + 1, so a v_eps of length M is wrong too; f_hat and z_hat
        # of the wrong length raised numpy's own ValueError on a dense H or D
        problem = ForwardProblem(g=np.ones(m + 1), H=np.eye(m + 1, m),
                                 D=None if model == "direct" else np.eye(m))
        assert all(op.banded_product is (m == 128) for op in problem._operators.values())
        good = {"f_hat": np.zeros(m), "v_eps": np.full(m + 1, 2.0)}
        good.update({"v_f": np.full(m, 2.0)} if model == "direct" else
                    {"z_hat": np.zeros(m), "v_xi": np.full(m, 2.0), "v_z": np.full(m, 2.0)})
        assert np.isfinite(neg_log_posterior(SolverState(**good), problem, unit_hyper()))
        for name, value in good.items():
            for bad in (value[:1], value[:-1], np.append(value, value[0])):
                with pytest.raises(DimensionMismatch, match=name):
                    neg_log_posterior(SolverState(**dict(good, **{name: bad})), problem,
                                      unit_hyper())


def random_instance(rng, n=None, m=None):
    n = n or rng.randint(2, 7)
    m = m or rng.randint(2, 7)
    problem = ForwardProblem(g=rng.randn(n), H=rng.randn(n, m), D=rng.randn(m, m))
    hyper = HyperParams(*rng.uniform(0.5, 3.0, size=8))
    state = SolverState(
        f_hat=rng.randn(m), z_hat=rng.randn(m),
        v_eps=rng.uniform(0.2, 2.0, size=n),
        v_xi=rng.uniform(0.2, 2.0, size=m),
        v_z=rng.uniform(0.2, 2.0, size=m),
    )
    return problem, hyper, state


class TestCriterionProperties:
    def test_row_permutation_invariance(self):
        rng = np.random.RandomState(11)
        for _ in range(20):
            problem, hyper, state = random_instance(rng)
            perm = rng.permutation(problem.n_obs)
            permuted = ForwardProblem(g=problem.g[perm], H=problem.H[perm], D=problem.D)
            pstate = SolverState(
                f_hat=state.f_hat, z_hat=state.z_hat,
                v_eps=state.v_eps[perm], v_xi=state.v_xi, v_z=state.v_z,
            )
            assert neg_log_posterior(state, problem, hyper) == pytest.approx(
                neg_log_posterior(pstate, permuted, hyper), rel=1e-12)

    def test_midpoint_convexity_in_f_z(self):
        # for fixed variances L is a convex quadratic in (f, z)
        rng = np.random.RandomState(12)
        for _ in range(20):
            problem, hyper, state = random_instance(rng)
            f1, z1 = rng.randn(problem.n_coef), rng.randn(problem.n_coef)
            f2, z2 = rng.randn(problem.n_coef), rng.randn(problem.n_coef)

            def at(f, z):
                s = SolverState(f_hat=f, z_hat=z, v_eps=state.v_eps,
                                v_xi=state.v_xi, v_z=state.v_z)
                return neg_log_posterior(s, problem, hyper)

            mid = at(0.5 * (f1 + f2), 0.5 * (z1 + z2))
            assert mid <= 0.5 * at(f1, z1) + 0.5 * at(f2, z2) + 1e-10

    def test_divergence_as_variance_vanishes(self):
        # shrinking any family's variances by 10 with nonzero residual/beta grows L
        rng = np.random.RandomState(13)
        problem, hyper, state = random_instance(rng)
        for family in ("v_eps", "v_xi", "v_z"):
            values = []
            scale = 1.0
            for _ in range(8):
                fields = {
                    "f_hat": state.f_hat, "z_hat": state.z_hat,
                    "v_eps": state.v_eps.copy(), "v_xi": state.v_xi.copy(),
                    "v_z": state.v_z.copy(),
                }
                fields[family] = fields[family] * scale
                values.append(neg_log_posterior(SolverState(**fields), problem, hyper))
                scale /= 10.0
            diffs = np.diff(values)
            assert np.all(diffs[2:] > 0), f"{family}: L not increasing {values}"
            assert values[-1] > values[0]


def banded_matrix(n, m, kl, ku, seed, zero=False):
    """N x M with random entries on the diagonals -kl..ku (all zero if ``zero``)."""
    K = np.random.RandomState(seed).randn(n, m)
    i, j = np.indices((n, m))
    K[(i - j > kl) | (j - i > ku)] = 0.0
    return 0.0 * K if zero else K


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 320), m=st.integers(1, 320), kl=st.integers(0, 6),
       ku=st.integers(0, 6), zero=st.booleans(), seed=st.integers(0, 2**31))
@example(n=300, m=200, kl=1, ku=3, zero=False, seed=0)    # N != M, kl != ku, banded
@example(n=90, m=110, kl=2, ku=0, zero=False, seed=1)     # the same shape kinds, dense
@example(n=128, m=128, kl=0, ku=0, zero=False, seed=2)    # u = 0, banded
@example(n=127, m=128, kl=0, ku=0, zero=False, seed=3)    # u = 0, dense
@example(n=200, m=150, kl=3, ku=3, zero=True, seed=4)     # all zero, banded
@example(n=5, m=7, kl=3, ku=3, zero=True, seed=5)         # all zero, dense
def test_products_match_the_dense_product(n, m, kl, ku, zero, seed):
    K = banded_matrix(n, m, min(kl, n - 1), min(ku, m - 1), seed, zero)
    op = _Operator(K)
    assert op.banded_product == (16384 * (op.kl + op.ku + 1) <= n * m)
    rng = np.random.RandomState(seed + 1)
    x, y = rng.randn(m), rng.randn(n)
    for got, dense, scale in ((op.matvec(x), K @ x, np.abs(K) @ np.abs(x)),
                              (op.rmatvec(y), K.T @ y, np.abs(K).T @ np.abs(y))):
        if op.banded_product:
            assert np.all(np.abs(got - dense) <= 1e-12 * scale)
        else:
            assert got.tobytes() == dense.tobytes()


def test_banded_products_reject_a_wrong_length():
    # the slices would silently drop entries of a longer vector; the dense
    # product raises numpy's own ValueError
    op = _Operator(banded_matrix(300, 200, 1, 1, 0))
    assert op.banded_product
    for product, size in ((op.matvec, 200), (op.rmatvec, 300)):
        for bad in (np.ones(size + 1), np.ones(size - 1), np.ones((size, 1))):
            with pytest.raises(DimensionMismatch):
                product(bad)


@pytest.mark.parametrize("m, banded", [(128, False), (192, False), (256, True), (1024, True)])
def test_three_tap_products_turn_banded_from_m_256(m, banded):
    # the u = 2 crossover measured for the rule: dense won at M = 128 and
    # 192, the band from M = 256
    assert _Operator(banded_matrix(m, m, 1, 1, 0)).banded_product is banded
