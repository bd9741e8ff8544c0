import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bsi import (
    ForwardProblem,
    NonPositiveVariance,
    SingularSystem,
    HyperParams,
    JmapConfig,
    ModelMismatch,
    SolverState,
    jmap_update_f,
    jmap_update_variance,
    jmap_update_z,
    solve_jmap,
    generate_operator,
    generate_sparse_signal,
    OperatorSpec,
    SignalSpec,
    reconstruction_metrics,
)


class TestUpdateF:
    def test_scalar_no_coupling(self):
        p = ForwardProblem(g=[2.0], H=[[1.0]], D=[[1.0]])
        assert jmap_update_f(p, [1.0], [1.0], [0.0]) == pytest.approx([1.0])

    def test_scalar_with_coupling(self):
        p = ForwardProblem(g=[2.0], H=[[1.0]], D=[[1.0]])
        assert jmap_update_f(p, [1.0], [1.0], [2.0]) == pytest.approx([2.0])

    def test_diagonal_two_by_two(self):
        # (H'H + I) f = H'g with H = diag(1, 2), g = (2, 4): f = (1, 1.6)
        p = ForwardProblem(g=[2.0, 4.0], H=np.diag([1.0, 2.0]), D=np.eye(2))
        f = jmap_update_f(p, [1.0, 1.0], [1.0, 1.0], [0.0, 0.0])
        oracle = np.linalg.solve(np.diag([2.0, 5.0]), np.array([2.0, 8.0]))
        assert f == pytest.approx(oracle, rel=1e-14)
        assert f == pytest.approx([1.0, 1.6], rel=1e-14)

    def test_direct_model_rejects_z(self):
        p = ForwardProblem(g=[2.0], H=[[1.0]])
        with pytest.raises(ModelMismatch):
            jmap_update_f(p, [1.0], [1.0], [0.0])

    def test_identity_with_direct_formula(self):
        # indirect update with D = I and z = 0 is the direct-model formula
        rng = np.random.RandomState(3)
        n, m = 5, 4
        H, g = rng.randn(n, m), rng.randn(n)
        v_eps = rng.uniform(0.5, 2.0, n)
        v = rng.uniform(0.5, 2.0, m)
        indirect = ForwardProblem(g=g, H=H, D=np.eye(m))
        direct = ForwardProblem(g=g, H=H)
        assert jmap_update_f(indirect, v_eps, v, np.zeros(m)) == pytest.approx(
            jmap_update_f(direct, v_eps, v), rel=1e-13)


    def test_overflowing_weight_rejected(self):
        # 1 / 1e-320 overflows to inf: a typed error, not a meaningless f
        p = ForwardProblem(g=[1.0, 2.0, 3.0], H=np.eye(3))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(SingularSystem):
            jmap_update_f(p, [1.0, 1e-320, 1.0], [1.0, 1.0, 1.0])


class TestUpdateZ:
    def test_scalar(self):
        p = ForwardProblem(g=[0.0], H=[[1.0]], D=[[1.0]])
        assert jmap_update_z(p, [1.0], [1.0], [3.0]) == pytest.approx([1.5])

    def test_zero_maps_to_zero(self):
        p = ForwardProblem(g=[0.0], H=[[1.0]], D=[[1.0]])
        assert jmap_update_z(p, [1.0], [1.0], [0.0]) == pytest.approx([0.0])

    def test_upper_triangular(self):
        D = np.array([[1.0, 1.0], [0.0, 1.0]])
        p = ForwardProblem(g=[0.0, 0.0], H=np.eye(2), D=D)
        f = np.array([1.0, 1.0])
        z = jmap_update_z(p, [1.0, 1.0], [1.0, 1.0], f)
        oracle = np.linalg.solve(D.T @ D + np.eye(2), D.T @ f)
        assert z == pytest.approx(oracle, rel=1e-14)

    def test_direct_model_rejected(self):
        p = ForwardProblem(g=[0.0], H=[[1.0]])
        with pytest.raises(ModelMismatch):
            jmap_update_z(p, [1.0], [1.0], [0.0])


class TestUpdateVariance:
    def test_zero_residual(self):
        assert jmap_update_variance("eps", 1.0, 1.0, 0.0) == pytest.approx(0.4)

    def test_z_family(self):
        assert jmap_update_variance("z", 0.5, 1.0, 2.0) == pytest.approx(1.5)

    def test_xi_family(self):
        assert jmap_update_variance("xi", 2.0, 3.0, 1.0) == pytest.approx(1.0)

    def test_sign_flip_invariance(self):
        rng = np.random.RandomState(5)
        for _ in range(20):
            alpha, beta = rng.uniform(0.5, 3.0, 2)
            r = rng.randn()
            assert jmap_update_variance("f_direct", alpha, beta, r) == pytest.approx(
                jmap_update_variance("f_direct", alpha, beta, -r), rel=1e-15)

    def test_vectorized(self):
        out = jmap_update_variance("eps", 1.0, 1.0, np.array([0.0, 2.0]))
        assert out == pytest.approx([0.4, 1.2])

    def test_rejects_bad_kind(self):
        with pytest.raises(ValueError):
            jmap_update_variance("nope", 1.0, 1.0, 0.0)

    @pytest.mark.parametrize("alpha, beta", [
        (0.0, 1.0), (1.0, -1.0), (np.nan, 1.0), (1.0, np.nan), (np.inf, 1.0), (1.0, np.inf)])
    def test_rejects_bad_parameters(self, alpha, beta):
        with pytest.raises(ValueError, match="finite and strictly positive"):
            jmap_update_variance("eps", alpha, beta, 0.0)


def random_jmap_state(rng, problem, hyper):
    m, n = problem.n_coef, problem.n_obs
    return SolverState(
        f_hat=rng.randn(m), z_hat=rng.randn(m),
        v_eps=rng.uniform(0.3, 2.0, n), v_xi=rng.uniform(0.3, 2.0, m),
        v_z=rng.uniform(0.3, 2.0, m),
    )


class TestSolveJmap:
    def test_direct_monotone_descent(self):
        p = ForwardProblem(g=[1.0, 0.0, 0.0, 0.0], H=np.eye(4))
        state, trace = solve_jmap(p, HyperParams(), JmapConfig(max_iter=50))
        L = trace.criterion_values()
        assert np.all(np.diff(L) <= 1e-10 * np.abs(L[:-1]))
        assert np.all(np.isfinite(state.f_hat))

    def test_zero_data_fixed_point(self):
        p = ForwardProblem(g=[0.0], H=[[1.0]], D=[[1.0]])
        state, trace = solve_jmap(p, HyperParams(), JmapConfig(max_iter=30))
        assert state.f_hat == pytest.approx([0.0], abs=1e-300)
        assert state.z_hat == pytest.approx([0.0], abs=1e-300)
        # variances settle at beta / (alpha + 3/2) for every family
        assert state.v_eps == pytest.approx([0.4])
        assert state.v_xi == pytest.approx([0.4])
        assert state.v_z == pytest.approx([0.4])
        assert trace.converged

    def test_indirect_recovery_beats_zero_init(self):
        H = generate_operator(OperatorSpec(kind="gaussian_random", n_rows=16,
                                           n_cols=16, seed=7))
        z_true = generate_sparse_signal(SignalSpec(length=16, sparsity=3,
                                                   amplitude_range=(1.0, 2.0), seed=7))
        f_true = z_true.copy()          # D = I
        p = ForwardProblem(g=H @ f_true, H=H, D=np.eye(16))
        hyper = HyperParams(1.0, 1e-3, 1.0, 1e-3, 1.0, 1e-3, 1.0, 1e-3)
        state, trace = solve_jmap(p, hyper, JmapConfig(max_iter=200))
        final = reconstruction_metrics(state.f_hat, f_true).rel_l2
        start = reconstruction_metrics(np.zeros(16), f_true).rel_l2
        assert start == pytest.approx(1.0)
        assert final < start

    @settings(max_examples=400, deadline=None)
    @given(model=st.sampled_from(["direct", "indirect"]), n=st.integers(1, 9),
           m=st.integers(1, 9), zero_cols=st.lists(st.integers(0, 8), max_size=3),
           init=st.sampled_from(["zeros", "least-squares", "vector"]),
           hyper=st.lists(st.floats(1e-3, 3.0), min_size=8, max_size=8),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_monotone_descent_random(self, model, n, m, zero_cols, init, hyper, seed):
        rng = np.random.RandomState(seed)
        H = rng.randn(n, m)
        H[:, [j for j in zero_cols if j < m]] = 0.0
        p = ForwardProblem(g=rng.randn(n), H=H,
                           D=rng.randn(m, m) if model == "indirect" else None)
        if init == "vector":
            init = rng.randn(m)
        try:
            state, trace = solve_jmap(p, HyperParams(*hyper),
                                      JmapConfig(max_iter=40, init=init))
        except (SingularSystem, NonPositiveVariance):
            return
        L = trace.criterion_values()
        assert np.all(np.diff(L) <= 1e-10 * np.abs(L[:-1]))
        assert np.all(np.isfinite(state.f_hat))

    def test_fixed_point_consistency(self):
        # at convergence every block update leaves its block unchanged
        rng = np.random.RandomState(8)
        p = ForwardProblem(g=rng.randn(6), H=rng.randn(6, 5), D=rng.randn(5, 5))
        hyper = HyperParams(*rng.uniform(0.8, 2.0, 8))
        state, trace = solve_jmap(p, hyper, JmapConfig(max_iter=4000, tol_rel_f=1e-14,
                                                       tol_rel_L=1e-14))
        f2 = jmap_update_f(p, state.v_eps, state.v_xi, state.z_hat)
        assert np.linalg.norm(f2 - state.f_hat) < 1e-8 * np.linalg.norm(state.f_hat)
        z2 = jmap_update_z(p, state.v_xi, state.v_z, state.f_hat)
        assert np.linalg.norm(z2 - state.z_hat) < 1e-8 * max(np.linalg.norm(state.z_hat), 1e-12)
        v2 = jmap_update_variance("xi", hyper.alpha_xi, hyper.beta_xi,
                                  state.f_hat - p.D @ state.z_hat)
        assert np.linalg.norm(v2 - state.v_xi) < 1e-8 * np.linalg.norm(state.v_xi)

    def test_residual_shrinks_as_prior_relaxes(self):
        # scaling v_xi up by 10 repeatedly moves f toward the data solution
        rng = np.random.RandomState(9)
        n = 5
        H = rng.randn(n, n) + 3.0 * np.eye(n)
        p = ForwardProblem(g=rng.randn(n), H=H, D=np.eye(n))
        v_eps = rng.uniform(0.5, 1.5, n)
        z = rng.randn(n)
        v_xi = rng.uniform(0.5, 1.5, n)
        residuals = []
        for _ in range(6):
            f = jmap_update_f(p, v_eps, v_xi, z)
            residuals.append(np.linalg.norm(p.g - H @ f))
            v_xi = v_xi * 10.0
        assert all(a > b for a, b in zip(residuals, residuals[1:]))

    def test_trace_indices_strictly_increasing(self):
        p = ForwardProblem(g=[1.0], H=[[1.0]])
        _, trace = solve_jmap(p, HyperParams(), JmapConfig(max_iter=10))
        indices = [r.iteration for r in trace.records]
        assert indices == list(range(len(indices)))
        assert indices[0] == 0

    def test_least_squares_init(self):
        rng = np.random.RandomState(30)
        H = rng.randn(6, 6) + 4.0 * np.eye(6)
        f_star = rng.randn(6)
        p = ForwardProblem(g=H @ f_star, H=H)
        hyper = HyperParams(alpha_eps=1.0, beta_eps=1e-8, alpha_f=1.0, beta_f=5.0)
        state, trace = solve_jmap(p, hyper, JmapConfig(max_iter=100,
                                                       init="least-squares"))
        L = trace.criterion_values()
        assert np.all(np.diff(L) <= 1e-10 * np.abs(L[:-1]))
        assert reconstruction_metrics(state.f_hat, f_star).rel_l2 < 0.05

    def test_provided_init_vector(self):
        p = ForwardProblem(g=[2.0, 0.0], H=np.eye(2))
        f0 = np.array([1.0, 1.0])
        _, trace = solve_jmap(p, HyperParams(), JmapConfig(max_iter=5, init=f0))
        assert trace.records[0].criterion == pytest.approx(
            solve_jmap(p, HyperParams(),
                       JmapConfig(max_iter=5, init=f0.copy()))[1].records[0].criterion)
        with pytest.raises(ValueError):
            solve_jmap(p, HyperParams(), JmapConfig(max_iter=5, init=np.ones(3)))


    def test_max_iter_exit_is_not_an_error(self):
        rng = np.random.RandomState(40)
        p = ForwardProblem(g=rng.randn(5), H=rng.randn(5, 5), D=rng.randn(5, 5))
        state, trace = solve_jmap(p, HyperParams(), JmapConfig(max_iter=1))
        assert not trace.converged
        assert trace.stop_reason == "max_iter"
        assert trace.iterations == 1
        assert np.all(np.isfinite(state.f_hat))


class TestJmapConfig:
    def test_rejects_bad_limits(self):
        with pytest.raises(ValueError):
            JmapConfig(max_iter=0)
        with pytest.raises(ValueError):
            JmapConfig(tol_rel_f=0.0)
        with pytest.raises(ValueError):
            JmapConfig(init="warm")
        for bad in ({"max_iter": 2.5}, {"max_iter": 3.0}, {"max_iter": True},
                    {"max_iter": np.float64(4.0)}, {"tol_rel_f": float("nan")},
                    {"tol_rel_L": float("nan")}, {"init": np.array([0.0, np.nan])}):
            with pytest.raises(ValueError):
                JmapConfig(**bad)
        assert JmapConfig(max_iter=np.int64(3)).max_iter == 3


INITS = ("zeros", "least-squares", "vector")


def dense_reference_jmap(problem, hyper, sweeps, f0, z0):
    """The JMAP sweep with every Gaussian block formed and solved densely.

    Starts at (f0, z0); every variance starts at its zero-residual mode
    beta / (alpha + 3/2), whatever the start.
    """
    H, g, D = problem.H, problem.g, problem.D
    m = problem.n_coef

    def gaussian(K, w, p, rhs):
        return np.linalg.solve(K.T @ (K * w[:, None]) + np.diag(p), rhs)

    def mode(alpha, beta, r):
        return (beta + 0.5 * r * r) / (alpha + 1.5)

    f = f0
    v_eps = np.full(problem.n_obs, hyper.beta_eps / (hyper.alpha_eps + 1.5))
    if D is None:
        v_f = np.full(m, hyper.beta_f / (hyper.alpha_f + 1.5))
        for _ in range(sweeps):
            v_f = mode(hyper.alpha_f, hyper.beta_f, f)
            v_eps = mode(hyper.alpha_eps, hyper.beta_eps, g - H @ f)
            f = gaussian(H, 1.0 / v_eps, 1.0 / v_f, H.T @ (g / v_eps))
        return f, v_eps, v_f
    z = z0
    v_xi = np.full(m, hyper.beta_xi / (hyper.alpha_xi + 1.5))
    v_z = np.full(m, hyper.beta_z / (hyper.alpha_z + 1.5))
    for _ in range(sweeps):
        f = gaussian(H, 1.0 / v_eps, 1.0 / v_xi, H.T @ (g / v_eps) + D @ z / v_xi)
        z = gaussian(D, 1.0 / v_xi, 1.0 / v_z, D.T @ (f / v_xi))
        v_xi = mode(hyper.alpha_xi, hyper.beta_xi, f - D @ z)
        v_eps = mode(hyper.alpha_eps, hyper.beta_eps, g - H @ f)
        v_z = mode(hyper.alpha_z, hyper.beta_z, z)
    return f, v_eps, v_xi


@pytest.mark.parametrize("model,init", [
    pytest.param(model, init, id=model if init == "zeros" else f"{model}-{init}")
    for init in INITS for model in ("direct", "indirect")])
def test_banded_solve_matches_dense_reference(model, init, oracle_start):
    """On a convolution H (and D = I) the banded blocks track dense solves."""
    m = 96
    H = generate_operator(OperatorSpec(kind="convolution", n_rows=m, n_cols=m,
                                       kernel=(0.1, 0.25, 0.5, 0.25, 0.1)))
    f_true = generate_sparse_signal(SignalSpec(length=m, sparsity=6,
                                               amplitude_range=(2.0, 4.0), seed=4))
    g = H @ f_true + 0.05 * np.random.RandomState(4).randn(m)
    problem = ForwardProblem(g=g, H=H, D=np.eye(m) if model == "indirect" else None)
    op = problem._operators["f"]
    assert (op.kl, op.ku) == (2, 2)
    hyper = HyperParams(3.0, 0.05, 1.0, 0.1, 1.0, 0.5, 1.0, 0.5)
    init, f0, z0 = oracle_start(problem, init)
    state, _ = solve_jmap(problem, hyper, JmapConfig(max_iter=30, tol_rel_f=1e-300,
                                                     tol_rel_L=1e-300, init=init))
    f, v_eps, v_second = dense_reference_jmap(problem, hyper, 30, f0, z0)
    got = state.v_f if model == "direct" else state.v_xi
    for a, b in ((state.f_hat, f), (state.v_eps, v_eps), (got, v_second)):
        assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()
