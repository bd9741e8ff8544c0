import math
import tracemalloc

import numpy as np
import pytest
import scipy.integrate

import bsi.vba
from bsi._linalg import band_factor, band_inverse, band_quad_diag, selected_inverse
from bsi.model import _Operator

from bsi import (
    ForwardProblem,
    HyperParams,
    IgFamily,
    IndexOutOfRange,
    ModelMismatch,
    OperatorSpec,
    SignalSpec,
    VbaConfig,
    generate_operator,
    generate_sparse_signal,
    ig_inv_expectation,
    solve_vba,
    vba_full_coordinate_update,
    vba_update_f,
    vba_update_ig,
    vba_update_z,
)


def ig_pdf(x, alpha, beta):
    # written out directly so the quadrature oracle is independent of bsi
    return math.exp(alpha * math.log(beta) - math.lgamma(alpha)
                    - (alpha + 1.0) * math.log(x) - beta / x)


class TestIgInvExpectation:
    def test_simple_ratio(self):
        assert ig_inv_expectation(2.0, 4.0) == pytest.approx(0.5)

    def test_identity_case(self):
        assert ig_inv_expectation(1.0, 1.0) == pytest.approx(1.0)

    @pytest.mark.parametrize("alpha, beta", [
        (0.0, 1.0), (1.0, -1.0), (np.nan, 1.0), (1.0, np.nan), (np.inf, 1.0), (1.0, np.inf)])
    def test_rejects_bad_parameters(self, alpha, beta):
        with pytest.raises(ValueError, match="finite and strictly positive"):
            ig_inv_expectation(alpha, beta)

    def test_matches_quadrature(self):
        alpha, beta = 3.7, 2.2
        val, _ = scipy.integrate.quad(lambda x: ig_pdf(x, alpha, beta) / x,
                                      0.0, np.inf, epsabs=1e-12, epsrel=1e-12)
        assert ig_inv_expectation(alpha, beta) == pytest.approx(1.6818181818181818, rel=1e-12)
        assert abs(ig_inv_expectation(alpha, beta) - val) < 1e-8

    def test_quadrature_sweep(self):
        rng = np.random.RandomState(17)
        for _ in range(20):
            alpha = rng.uniform(0.5, 10.0)
            beta = rng.uniform(0.5, 10.0)
            val, _ = scipy.integrate.quad(lambda x: ig_pdf(x, alpha, beta) / x,
                                          0.0, np.inf, epsabs=1e-12, epsrel=1e-12)
            assert abs(ig_inv_expectation(alpha, beta) - val) < 1e-8


class TestUpdateF:
    def test_scalar(self):
        p = ForwardProblem(g=[4.0], H=[[1.0]], D=[[1.0]])
        f, Sigma = vba_update_f(p, [2.0], [2.0], [0.0])
        assert f == pytest.approx([2.0])
        assert np.asarray(Sigma)[0, 0] == pytest.approx(0.25)

    def test_zero_data(self):
        p = ForwardProblem(g=[0.0], H=[[1.0]], D=[[1.0]])
        f, Sigma = vba_update_f(p, [2.0], [2.0], [0.0])
        assert f == pytest.approx([0.0])
        assert np.asarray(Sigma)[0, 0] > 0

    def test_dense_oracle(self):
        H = np.diag([1.0, 3.0])
        p = ForwardProblem(g=[1.0, 1.0], H=H, D=np.eye(2))
        z = np.array([1.0, 0.0])
        f, Sigma = vba_update_f(p, [1.0, 1.0], [1.0, 1.0], z)
        A = H.T @ H + np.eye(2)
        assert f == pytest.approx(np.linalg.solve(A, z + H.T @ p.g), rel=1e-14)
        assert Sigma == pytest.approx(np.linalg.inv(A), rel=1e-13)


class TestUpdateZ:
    def test_scalar(self):
        p = ForwardProblem(g=[0.0], H=[[1.0]], D=[[1.0]])
        z, Sigma = vba_update_z(p, [1.0], [1.0], [3.0])
        assert z == pytest.approx([1.5])
        assert np.asarray(Sigma)[0, 0] == pytest.approx(0.5)

    def test_zero_input(self):
        p = ForwardProblem(g=[0.0], H=[[1.0]], D=[[1.0]])
        z, _ = vba_update_z(p, [1.0], [1.0], [0.0])
        assert z == pytest.approx([0.0])

    def test_dense_oracle(self):
        D = np.array([[1.0, 1.0], [0.0, 1.0]])
        p = ForwardProblem(g=[0.0, 0.0], H=np.eye(2), D=D)
        f = np.array([1.0, 1.0])
        z, Sigma = vba_update_z(p, [1.0, 1.0], [1.0, 1.0], f)
        A = D.T @ D + np.eye(2)
        assert z == pytest.approx(np.linalg.solve(A, D.T @ f), rel=1e-14)
        assert Sigma == pytest.approx(np.linalg.inv(A), rel=1e-13)

    def test_direct_model_rejected(self):
        p = ForwardProblem(g=[0.0], H=[[1.0]])
        with pytest.raises(ModelMismatch):
            vba_update_z(p, [1.0], [1.0], [0.0])


class TestUpdateIg:
    def test_z_zero_case(self):
        p = ForwardProblem(g=[0.0], H=[[1.0]], D=[[1.0]])
        hyper = HyperParams(alpha_z=2.0, beta_z=1.0)
        fam = vba_update_ig("z", hyper, np.zeros(1), np.zeros((1, 1)),
                            np.zeros(1), np.zeros((1, 1)), problem=p)
        assert fam.beta_hat == pytest.approx([1.0])
        assert fam.alpha_hat == pytest.approx([2.5])

    def test_eps_hand_value(self):
        # residual 2 and quadratic form 1: beta_hat = 1 + (4 + 1)/2 = 3.5
        p = ForwardProblem(g=[2.0], H=[[1.0]])
        fam = vba_update_ig("eps", HyperParams(beta_eps=1.0), np.zeros(1),
                            np.array([[1.0]]), problem=p)
        assert fam.beta_hat == pytest.approx([3.5])

    def test_xi_hand_value(self):
        # zero residual, Sigma_f diag 0.5 and D Sigma_z D' = 0.5: beta_hat = 1.5
        p = ForwardProblem(g=[0.0], H=[[1.0]], D=[[1.0]])
        fam = vba_update_ig("xi", HyperParams(beta_xi=1.0), np.ones(1),
                            np.array([[0.5]]), np.ones(1), np.array([[0.5]]),
                            problem=p)
        assert fam.beta_hat == pytest.approx([1.5])

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf],
                             ids=["zero", "negative", "nan", "inf"])
    @pytest.mark.parametrize("param", ["alpha", "beta"])
    @pytest.mark.parametrize("kind, model", [("eps", "direct"), ("f", "direct"),
                                             ("eps", "indirect"), ("xi", "indirect"),
                                             ("z", "indirect")])
    def test_rejects_bad_hyperparameters(self, kind, model, param, bad):
        # used to return alpha_hat = alpha + 1/2 < 0, or a scale from a
        # negative beta, or SingularSystem for a NaN; another family's
        # hyperparameter is not read
        problem = ForwardProblem(g=np.ones(3), H=np.eye(3),
                                 D=None if model == "direct" else np.eye(3))
        args = (np.zeros(3), np.eye(3), np.zeros(3), np.eye(3))
        with pytest.raises(ValueError, match="finite and strictly positive"):
            vba_update_ig(kind, HyperParams(**{f"{param}_{kind}": bad}), *args, problem=problem)
        other = "z" if kind == "eps" else "eps"
        fam = vba_update_ig(kind, HyperParams(**{f"{param}_{other}": bad}), *args,
                            problem=problem)
        assert fam.alpha_hat == pytest.approx([1.5] * 3)

    def test_model_mismatch(self):
        direct = ForwardProblem(g=[0.0], H=[[1.0]])
        with pytest.raises(ModelMismatch):
            vba_update_ig("xi", HyperParams(), np.zeros(1), np.zeros((1, 1)),
                          np.zeros(1), np.zeros((1, 1)), problem=direct)
        with pytest.raises(ModelMismatch):
            vba_update_ig("z", HyperParams(), np.zeros(1), np.zeros((1, 1)),
                          np.zeros(1), np.zeros((1, 1)), problem=direct)

    def test_sign_flip_and_floor(self):
        rng = np.random.RandomState(31)
        n, m = 5, 4
        for _ in range(10):
            H = rng.randn(n, m)
            g = rng.randn(n)
            f = rng.randn(m)
            S = rng.randn(m, m)
            Sigma_f = S @ S.T + 0.1 * np.eye(m)
            hyper = HyperParams(*rng.uniform(0.5, 2.0, 8))
            p_pos = ForwardProblem(g=g, H=H)
            p_neg = ForwardProblem(g=-g, H=H)
            fam = vba_update_ig("eps", hyper, f, Sigma_f, problem=p_pos)
            flipped = vba_update_ig("eps", hyper, -f, Sigma_f, problem=p_neg)
            assert fam.beta_hat == pytest.approx(flipped.beta_hat, rel=1e-13)
            assert np.all(fam.beta_hat >= hyper.beta_eps)


    def test_quadratic_forms_match_dense_oracle(self):
        # non-square H, so a transposed operand would show
        rng = np.random.RandomState(41)
        n, m = 7, 5
        H = rng.randn(n, m)
        D = rng.randn(m, m)
        g, f, z = rng.randn(n), rng.randn(m), rng.randn(m)
        S = rng.randn(m, m)
        Sigma_f = S @ S.T + 0.1 * np.eye(m)
        S = rng.randn(m, m)
        Sigma_z = S @ S.T + 0.1 * np.eye(m)
        hyper = HyperParams(*rng.uniform(0.5, 2.0, 8))
        p = ForwardProblem(g=g, H=H, D=D)
        r = g - H @ f
        oracle = hyper.beta_eps + 0.5 * (r * r + np.diag(H @ Sigma_f @ H.T))
        fam = vba_update_ig("eps", hyper, f, Sigma_f, problem=p)
        np.testing.assert_allclose(fam.beta_hat, oracle, rtol=1e-12)
        r = f - D @ z
        oracle = hyper.beta_xi + 0.5 * (r * r + np.diag(Sigma_f)
                                        + np.diag(D @ Sigma_z @ D.T))
        fam = vba_update_ig("xi", hyper, f, Sigma_f, z, Sigma_z, problem=p)
        np.testing.assert_allclose(fam.beta_hat, oracle, rtol=1e-12)

    def test_vector_covariance_is_diagonal(self):
        rng = np.random.RandomState(43)
        n, m = 6, 4
        H, D = rng.randn(n, m), rng.randn(m, m)
        g, f, z = rng.randn(n), rng.randn(m), rng.randn(m)
        var_f, var_z = rng.uniform(0.1, 2.0, m), rng.uniform(0.1, 2.0, m)
        hyper = HyperParams(*rng.uniform(0.5, 2.0, 8))
        cases = [(ForwardProblem(g=g, H=H), kind) for kind in ("eps", "f")]
        cases += [(ForwardProblem(g=g, H=H, D=D), kind) for kind in ("eps", "xi", "z")]
        for p, kind in cases:
            dense = vba_update_ig(kind, hyper, f, np.diag(var_f), z, np.diag(var_z),
                                  problem=p)
            vector = vba_update_ig(kind, hyper, f, var_f, z, var_z, problem=p)
            np.testing.assert_allclose(vector.beta_hat, dense.beta_hat, rtol=1e-12)
            np.testing.assert_array_equal(vector.alpha_hat, dense.alpha_hat)


class TestCoordinateUpdate:
    def test_scalar(self):
        p = ForwardProblem(g=[2.0], H=[[1.0]])
        fj, var = vba_full_coordinate_update(p, HyperParams(), np.zeros(1),
                                             [1.0], [1.0], 0)
        assert fj == pytest.approx(1.0)
        assert var == pytest.approx(0.5)

    def test_zero_data_zero_rest(self):
        p = ForwardProblem(g=[0.0, 0.0], H=np.eye(2))
        fj, _ = vba_full_coordinate_update(p, HyperParams(), np.zeros(2),
                                           [1.0, 1.0], [1.0, 1.0], 1)
        assert fj == pytest.approx(0.0)

    def test_orthogonal_columns_ignore_other_coordinates(self):
        p = ForwardProblem(g=[2.0, 4.0], H=np.eye(2))
        f = np.array([0.0, 5.0])
        fj, var = vba_full_coordinate_update(p, HyperParams(), f,
                                             [1.0, 1.0], [1.0, 1.0], 0)
        assert fj == pytest.approx(1.0)
        assert var == pytest.approx(0.5)

    def test_index_out_of_range(self):
        p = ForwardProblem(g=[0.0, 0.0], H=np.eye(2))
        for j in (2, -1, 1.5, True, np.float64(0.0)):  # an integer in 0..M-1, not a bool
            with pytest.raises(IndexOutOfRange):
                vba_full_coordinate_update(p, HyperParams(), np.zeros(2),
                                           [1.0, 1.0], [1.0, 1.0], j)
        fj, _ = vba_full_coordinate_update(p, HyperParams(), np.zeros(2),
                                           [1.0, 1.0], [1.0, 1.0], np.int64(1))
        assert fj == 0.0

    def test_indirect_rejected(self):
        p = ForwardProblem(g=[0.0], H=[[1.0]], D=[[1.0]])
        with pytest.raises(ModelMismatch):
            vba_full_coordinate_update(p, HyperParams(), np.zeros(1),
                                       [1.0], [1.0], 0)


class TestVbaConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            VbaConfig(max_iter=0)
        with pytest.raises(ValueError):
            VbaConfig(tol_rel_f=-1.0)
        with pytest.raises(ValueError):
            VbaConfig(separability="half")
        with pytest.raises(ValueError):
            VbaConfig(init="warm")
        for bad in ({"max_iter": 2.5}, {"max_iter": 3.0}, {"max_iter": True},
                    {"max_iter": np.float64(4.0)}, {"tol_rel_f": float("nan")},
                    {"init": np.array([np.inf, 0.0])}):
            with pytest.raises(ValueError):
                VbaConfig(**bad)
        assert VbaConfig(max_iter=np.int64(3)).max_iter == 3


class TestSolveVba:
    def test_degenerate_gaussian_check(self):
        # with precisions frozen a single q1 update is exact conjugate inference
        rng = np.random.RandomState(4)
        n, m = 12, 9
        H = rng.randn(n, m)
        g = rng.randn(n)
        p_eps = rng.uniform(0.5, 3.0, n)
        p_f = rng.uniform(0.5, 3.0, m)
        problem = ForwardProblem(g=g, H=H)
        f, _ = vba_update_f(problem, p_eps, p_f)
        oracle = np.linalg.solve(H.T @ (H * p_eps[:, None]) + np.diag(p_f),
                                 H.T @ (p_eps * g))
        assert f == pytest.approx(oracle, rel=1e-12)

    def test_zero_data_fixed_point(self):
        p = ForwardProblem(g=[0.0], H=[[1.0]], D=[[1.0]])
        hyper = HyperParams()
        state, trace = solve_vba(p, hyper, VbaConfig(max_iter=200, tol_rel_f=1e-13))
        assert state.f_hat == pytest.approx([0.0], abs=1e-12)
        assert state.z_hat == pytest.approx([0.0], abs=1e-12)
        # scales converge to beta + diag terms / 2
        assert state.ig_z.beta_hat == pytest.approx(
            hyper.beta_z + 0.5 * np.diag(state.Sigma_z), rel=1e-10)
        assert state.ig_eps.beta_hat[0] >= hyper.beta_eps

    def test_fixed_point_residuals_small_indirect(self):
        rng = np.random.RandomState(3)
        n = m = 8
        H = rng.randn(n, m)
        f_true = np.zeros(m)
        f_true[rng.choice(m, 2, replace=False)] = [1.5, -2.0]
        g = H @ f_true + 0.05 * rng.randn(n)
        p = ForwardProblem(g=g, H=H, D=np.eye(m))
        hyper = HyperParams(*np.full(8, 1.0))
        state, trace = solve_vba(p, hyper, VbaConfig(max_iter=5000, tol_rel_f=1e-14))
        assert trace.converged
        f2, _ = vba_update_f(p, state.ig_eps.inv_expectation(),
                             state.ig_xi.inv_expectation(), state.z_hat)
        assert np.linalg.norm(f2 - state.f_hat) < 1e-8 * np.linalg.norm(state.f_hat)
        z2, Sigma_z2 = vba_update_z(p, state.ig_xi.inv_expectation(),
                                    state.ig_z.inv_expectation(), state.f_hat)
        assert np.linalg.norm(z2 - state.z_hat) < 1e-8 * np.linalg.norm(state.z_hat)
        fam = vba_update_ig("z", hyper, state.f_hat, state.Sigma_f,
                            state.z_hat, state.Sigma_z, problem=p)
        assert np.linalg.norm(fam.beta_hat - state.ig_z.beta_hat) \
            < 1e-8 * np.linalg.norm(state.ig_z.beta_hat)

    def test_full_requires_direct(self):
        p = ForwardProblem(g=[0.0], H=[[1.0]], D=[[1.0]])
        with pytest.raises(ModelMismatch):
            solve_vba(p, HyperParams(), VbaConfig(separability="full"))

    def test_covariances_stay_symmetric_pd(self):
        rng = np.random.RandomState(6)
        n = m = 6
        p = ForwardProblem(g=rng.randn(n), H=rng.randn(n, m), D=rng.randn(m, m))
        hyper = HyperParams(*rng.uniform(0.5, 2.0, 8))
        from bsi.vba import _seed_families
        f, z = np.zeros(m), np.zeros(m)
        ig_eps, ig_xi, ig_z = _seed_families(p, hyper, f, z).values()
        for _ in range(15):
            f, Sigma_f = vba_update_f(p, ig_eps.inv_expectation(),
                                      ig_xi.inv_expectation(), z)
            z, Sigma_z = vba_update_z(p, ig_xi.inv_expectation(),
                                      ig_z.inv_expectation(), f)
            for S in (Sigma_f, Sigma_z):
                assert np.linalg.norm(S - S.T) <= 1e-10 * np.linalg.norm(S)
                assert np.min(np.linalg.eigvalsh(S)) > 0
            ig_xi = vba_update_ig("xi", hyper, f, Sigma_f, z, Sigma_z, problem=p)
            ig_eps = vba_update_ig("eps", hyper, f, Sigma_f, problem=p)
            ig_z = vba_update_ig("z", hyper, f, Sigma_f, z, Sigma_z, problem=p)

    def test_frozen_updates_minimize_joint_gaussian_energy(self):
        # q1/q2 outputs are the conditional means: no perturbation lowers
        # the fixed-precision quadratic energy over their block
        rng = np.random.RandomState(50)
        n = m = 6
        p = ForwardProblem(g=rng.randn(n), H=rng.randn(n, m), D=rng.randn(m, m))
        pe = rng.uniform(0.5, 2.0, n)
        px = rng.uniform(0.5, 2.0, m)
        pz = rng.uniform(0.5, 2.0, m)
        z0 = rng.randn(m)

        def energy(f, z):
            r_eps = p.g - p.H @ f
            r_xi = f - p.D @ z
            return 0.5 * (r_eps @ (pe * r_eps) + r_xi @ (px * r_xi) + z @ (pz * z))

        f_hat, _ = vba_update_f(p, pe, px, z0)
        z_hat, _ = vba_update_z(p, px, pz, f_hat)
        for _ in range(20):
            d = rng.randn(m)
            d /= np.linalg.norm(d)
            assert energy(f_hat + 1e-4 * d, z0) >= energy(f_hat, z0)
            assert energy(f_hat - 1e-4 * d, z0) >= energy(f_hat, z0)
            assert energy(f_hat, z_hat + 1e-4 * d) >= energy(f_hat, z_hat)
            assert energy(f_hat, z_hat - 1e-4 * d) >= energy(f_hat, z_hat)

    def test_frozen_variance_block_gauss_seidel_converges(self):
        # q1 <-> q2 with fixed precisions is block Gauss-Seidel on an SPD system
        rng = np.random.RandomState(44)
        n = m = 7
        p = ForwardProblem(g=rng.randn(n), H=rng.randn(n, m), D=rng.randn(m, m))
        pe = rng.uniform(0.5, 2.0, n)
        px = rng.uniform(0.5, 2.0, m)
        pz = rng.uniform(0.5, 2.0, m)
        f, z = np.zeros(m), np.zeros(m)
        changes = []
        for _ in range(25):
            f_old, z_old = f, z
            f, _ = vba_update_f(p, pe, px, z)
            z, _ = vba_update_z(p, px, pz, f)
            changes.append(np.linalg.norm(f - f_old) + np.linalg.norm(z - z_old))
        changes = np.array(changes)
        assert changes[-1] < 1e-6 * changes[0]
        assert np.all(changes[5:] < changes[4:-1] + 1e-15)

    def test_full_solver_sweep_matches_public_coordinate_op(self):
        # the solver's incremental-residual sweep must equal naive updates
        rng = np.random.RandomState(77)
        n, m = 9, 6
        p = ForwardProblem(g=rng.randn(n), H=rng.randn(n, m))
        hyper = HyperParams(*rng.uniform(0.5, 2.0, 8))
        state, _ = solve_vba(p, hyper, VbaConfig(max_iter=1, separability="full"))
        from bsi.vba import _seed_families
        ig_eps, ig_f = _seed_families(p, hyper, np.zeros(m), None).values()
        f = np.zeros(m)
        var = np.zeros(m)
        for j in range(m):
            f[j], var[j] = vba_full_coordinate_update(
                p, hyper, f, ig_eps.inv_expectation(), ig_f.inv_expectation(), j)
        assert state.f_hat == pytest.approx(f, rel=1e-12)
        assert np.diag(state.Sigma_f) == pytest.approx(var, rel=1e-12)

    def test_full_matches_partial_direct_frozen(self):
        rng = np.random.RandomState(55)
        for _ in range(5):
            n, m = rng.randint(4, 17), rng.randint(4, 17)
            p = ForwardProblem(g=rng.randn(n), H=rng.randn(n, m))
            pe = rng.uniform(0.5, 2.0, n)
            pf = rng.uniform(0.5, 2.0, m)
            target, _ = vba_update_f(p, pe, pf)
            f = np.zeros(m)
            hyper = HyperParams()
            for _sweep in range(3000):
                f_old = f.copy()
                for j in range(m):
                    f[j], _ = vba_full_coordinate_update(p, hyper, f, pe, pf, j)
                if np.linalg.norm(f - f_old) <= 1e-13 * max(np.linalg.norm(f), 1e-12):
                    break
            assert np.linalg.norm(f - target) <= 1e-6 * np.linalg.norm(target)


INITS = ("zeros", "least-squares", "vector")


def reference_vba(problem, hyper, separability, sweeps, f0, z0):
    """Plain numpy VBA from the start (f0, z0), with einsum quadratic forms
    and np.linalg.inv covariances: an oracle independent of bsi's linear
    algebra.  The scales start at beta plus half the squared residuals of
    the start."""
    H, g, D = problem.H, problem.g, problem.D
    m = H.shape[1]
    f = f0
    r = g - H @ f0
    b_eps = hyper.beta_eps + 0.5 * r * r
    b_f = hyper.beta_f + 0.5 * f0 * f0
    if D is not None:
        z = z0
        r = f0 - D @ z0
        b_xi, b_z = hyper.beta_xi + 0.5 * r * r, hyper.beta_z + 0.5 * z0 * z0
    a_eps, a_f = hyper.alpha_eps + 0.5, hyper.alpha_f + 0.5
    a_xi, a_z = hyper.alpha_xi + 0.5, hyper.alpha_z + 0.5
    for _ in range(sweeps):
        vt_eps = a_eps / b_eps
        if D is not None:
            vt_xi, vt_z = a_xi / b_xi, a_z / b_z
            Sigma_f = np.linalg.inv(H.T @ np.diag(vt_eps) @ H + np.diag(vt_xi))
            f = Sigma_f @ (H.T @ (vt_eps * g) + vt_xi * (D @ z))
            Sigma_z = np.linalg.inv(D.T @ np.diag(vt_xi) @ D + np.diag(vt_z))
            z = Sigma_z @ (D.T @ (vt_xi * f))
            r = f - D @ z
            b_xi = hyper.beta_xi + 0.5 * (r * r + np.diag(Sigma_f)
                                          + np.einsum("ij,jk,ik->i", D, Sigma_z, D))
            b_z = hyper.beta_z + 0.5 * (z * z + np.diag(Sigma_z))
        elif separability == "partial":
            vt_f = a_f / b_f
            Sigma_f = np.linalg.inv(H.T @ np.diag(vt_eps) @ H + np.diag(vt_f))
            f = Sigma_f @ (H.T @ (vt_eps * g))
            b_f = hyper.beta_f + 0.5 * (f * f + np.diag(Sigma_f))
        else:
            vt_f = a_f / b_f
            f = f.copy()
            var = np.empty(m)
            for j in range(m):
                col = H[:, j]
                rest = g - H @ f + col * f[j]
                denom = col @ (vt_eps * col) + vt_f[j]
                f[j] = col @ (vt_eps * rest) / denom
                var[j] = 1.0 / denom
            Sigma_f = np.diag(var)
            b_f = hyper.beta_f + 0.5 * (f * f + var)
        r = g - H @ f
        b_eps = hyper.beta_eps + 0.5 * (r * r + np.einsum("ij,jk,ik->i", H, Sigma_f, H))
    out = {"f_hat": f, "ig_eps": b_eps, "Sigma_f": Sigma_f}
    if D is None:
        out["ig_f"] = b_f
    else:
        out.update(ig_xi=b_xi, ig_z=b_z, Sigma_z=Sigma_z)
    return out


def assert_matches_reference(state, expected):
    """Every array of ``reference_vba`` to 1e-12 relative (IG families by scale)."""
    for name, want in expected.items():
        value = getattr(state, name)
        got = value.beta_hat if name.startswith("ig_") else value
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), name


@pytest.mark.parametrize("model,separability,init", [
    pytest.param(model, separability, init, id=f"{model}-{separability}"
                 + ("" if init == "zeros" else f"-{init}"))
    for init in INITS
    for model, separability in (("direct", "partial"), ("indirect", "partial"),
                                ("direct", "full"))])
def test_solve_vba_matches_reference_iteration(model, separability, init, oracle_start):
    rng = np.random.RandomState(47)
    n, m = 11, 8
    H = rng.randn(n, m)
    D = rng.randn(m, m) if model == "indirect" else None
    problem = ForwardProblem(g=rng.randn(n), H=H, D=D)
    hyper = HyperParams(*rng.uniform(0.5, 2.0, 8))
    init, f0, z0 = oracle_start(problem, init)
    state, trace = solve_vba(problem, hyper, VbaConfig(
        max_iter=5, tol_rel_f=1e-300, separability=separability, init=init))
    assert trace.iterations == 5
    expected = reference_vba(problem, hyper, separability, 5, f0, z0)
    assert_matches_reference(state, expected)


@pytest.mark.parametrize("model,separability,init", [
    pytest.param(model, separability, init, id=f"{model}-{separability}-{init}")
    for init in INITS
    for model, separability in (("direct", "partial"), ("indirect", "partial"),
                                ("direct", "full"))])
def test_wide_dense_solve_matches_reference_iteration(model, separability, init, oracle_start):
    """A wide dense H runs the dual f block and the blocked coordinate pass
    (three blocks, the last one partial); both track the dense oracle."""
    rng = np.random.RandomState(48)
    n, m = 24, 70
    H = rng.randn(n, m) / np.sqrt(n)
    D = np.eye(m) + 0.3 * rng.randn(m, m) / np.sqrt(m) if model == "indirect" else None
    problem = ForwardProblem(g=H @ rng.randn(m) + 0.05 * rng.randn(n), H=H, D=D)
    assert problem._operators["f"].dual
    hyper = HyperParams(3.0, 0.05, 1.0, 0.1, 1.0, 0.5, 1.0, 0.5)
    init, f0, z0 = oracle_start(problem, init)
    state, _ = solve_vba(problem, hyper, VbaConfig(
        max_iter=10, tol_rel_f=1e-300, separability=separability, init=init))
    expected = reference_vba(problem, hyper, separability, 10, f0, z0)
    assert_matches_reference(state, expected)


def convolution_problem(model, m=96):
    """5-tap convolution H (kl = ku = 2) and, for the indirect model, D = I."""
    H = generate_operator(OperatorSpec(kind="convolution", n_rows=m, n_cols=m,
                                       kernel=(0.1, 0.25, 0.5, 0.25, 0.1)))
    f_true = generate_sparse_signal(SignalSpec(length=m, sparsity=6,
                                               amplitude_range=(2.0, 4.0), seed=4))
    g = H @ f_true + 0.05 * np.random.RandomState(4).randn(m)
    return ForwardProblem(g=g, H=H, D=np.eye(m) if model == "indirect" else None)


@pytest.mark.parametrize("model,separability,init", [
    pytest.param(model, separability, init, id=f"{model}-{separability}-{init}")
    for init in INITS
    for model, separability in (("direct", "partial"), ("indirect", "partial"),
                                ("direct", "full"))])
def test_banded_solve_matches_reference_iteration(model, separability, init, oracle_start):
    """On a convolution H (and D = I) the banded blocks track the dense oracle,
    down to the whole returned covariance."""
    problem = convolution_problem(model)
    op = problem._operators["f"]
    assert (op.kl, op.ku) == (2, 2)
    hyper = HyperParams(3.0, 0.05, 1.0, 0.1, 1.0, 0.5, 1.0, 0.5)
    init, f0, z0 = oracle_start(problem, init)
    state, _ = solve_vba(problem, hyper, VbaConfig(
        max_iter=20, tol_rel_f=1e-300, separability=separability, init=init))
    expected = reference_vba(problem, hyper, separability, 20, f0, z0)
    assert_matches_reference(state, expected)


def test_dense_inverse_only_for_dense_operators(monkeypatch):
    """Convolution H and D = I never form a dense inverse; a dense H still does."""
    calls = []
    real = bsi.vba.spd_inverse
    monkeypatch.setattr(bsi.vba, "spd_inverse",
                        lambda A: calls.append(A.shape) or real(A))
    hyper = HyperParams(3.0, 0.05, 1.0, 0.1, 1.0, 0.5, 1.0, 0.5)
    for model, separability in (("direct", "partial"), ("indirect", "partial"),
                                ("direct", "full")):
        solve_vba(convolution_problem(model), hyper,
                  VbaConfig(max_iter=3, separability=separability))
    assert calls == []
    m = 96
    H = generate_operator(OperatorSpec(kind="gaussian_random", n_rows=m, n_cols=m, seed=3))
    g = np.random.RandomState(5).randn(m)
    solve_vba(ForwardProblem(g=g, H=H, D=np.eye(m)), hyper,
              VbaConfig(max_iter=3, tol_rel_f=1e-300))
    assert calls == [(m, m)] * 3                 # the f block; the z block (D = I) is banded


PATHS = (("direct", "partial"), ("indirect", "partial"), ("direct", "full"))


def test_solve_never_forms_the_banded_covariance(monkeypatch):
    """The returned state keeps the band and the factor: no whole Sigma is
    formed in a solve on a convolution H (and D = I)."""
    calls = []
    real = bsi.vba.band_inverse
    monkeypatch.setattr(bsi.vba, "band_inverse",
                        lambda c: calls.append(c.shape) or real(c))
    hyper = HyperParams(3.0, 0.05, 1.0, 0.1, 1.0, 0.5, 1.0, 0.5)
    for model, separability in PATHS:
        solve_vba(convolution_problem(model), hyper,
                  VbaConfig(max_iter=3, separability=separability))
    assert calls == []


@pytest.mark.parametrize("model,separability", PATHS)
def test_banded_solve_allocates_no_whole_covariance(model, separability):
    """A 10-sweep solve on a 3-tap H at M = 1024 peaks far below one M x M
    array (8 MiB)."""
    m = 1024
    H = generate_operator(OperatorSpec(kind="convolution", n_rows=m, n_cols=m,
                                       kernel=(0.25, 0.5, 0.25)))
    g = H @ generate_sparse_signal(SignalSpec(length=m, sparsity=20, seed=4))
    problem = ForwardProblem(g=g, H=H, D=np.eye(m) if model == "indirect" else None)
    # building the operators scans the whole of H and D: build them before tracing
    _ = problem._operators
    hyper = HyperParams(3.0, 0.05, 1.0, 0.1, 1.0, 0.5, 1.0, 0.5)
    tracemalloc.start()
    try:
        state, _ = solve_vba(problem, hyper, VbaConfig(
            max_iter=10, tol_rel_f=1e-300, separability=separability))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20
    # the whole matrix is still there on demand
    assert np.asarray(state.Sigma_f).shape == (m, m)



def test_public_updates_hold_no_whole_covariance_on_a_band():
    """vba_update_f and vba_update_z on a 3-tap H and D = I at M = 2048
    are the sweep's banded blocks: together they peak far below one M x M
    array (32 MiB)."""
    m = 2048
    H = generate_operator(OperatorSpec(kind="convolution", n_rows=m, n_cols=m,
                                       kernel=(0.25, 0.5, 0.25)))
    rng = np.random.RandomState(6)
    problem = ForwardProblem(g=rng.randn(m), H=H, D=np.eye(m))
    w, p = 10.0 ** rng.uniform(-1, 1, (2, m))
    z = rng.randn(m)

    def updates():
        f, Sigma_f = vba_update_f(problem, w, p, z)
        return Sigma_f, vba_update_z(problem, p, w, f)[1]

    # the first call builds the operators, which scan the whole of H and D
    updates()
    tracemalloc.start()
    try:
        Sigma_f, Sigma_z = updates()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert problem._operators["f"].banded_solve and problem._operators["z"].banded_solve
    assert peak < 8 * 2 ** 20
    assert np.asarray(Sigma_f).shape == np.asarray(Sigma_z).shape == (m, m)

def hann_problem(seed, m=300):
    """A 17-tap Hann kernel (u = 16) at M = 300 and its hyperparameters: the
    least-squares start makes the first sweep's precision ill-conditioned
    (condition number ~5e9 at seed 4)."""
    H = generate_operator(OperatorSpec(kind="convolution", n_rows=m, n_cols=m,
                                       kernel=tuple(np.hanning(19)[1:-1])))
    f_true = generate_sparse_signal(SignalSpec(length=m, sparsity=10,
                                               amplitude_range=(2.0, 4.0), seed=seed))
    g = H @ f_true + 0.05 * np.random.RandomState(seed).randn(m)
    return ForwardProblem(g=g, H=H), HyperParams(1.0, 1e-3, 0.7, 2e-3, 1.5, 1e-3, 0.9, 3e-3)


def test_ill_conditioned_first_block_keeps_its_quadratic_forms():
    """On the first sweep's factor of the Hann problem, diag(H Sigma H') from
    the selected band stays within 2 eps kappa of the one from the whole
    inverse (kappa the condition number of the diagonally scaled
    precision), elementwise.  Measured with one BLAS thread (two): 0.63
    (0.52) eps kappa, against 0.71 (1.07) for the per-block recurrence it
    replaced and 53 (43) with each u x u corner left as the chain computed
    it, not made symmetric."""
    problem, hyper = hann_problem(4)
    H = problem.H
    f0 = np.linalg.lstsq(H, problem.g, rcond=None)[0]
    r = problem.g - H @ f0
    w = IgFamily.posterior(hyper.alpha_eps, hyper.beta_eps, r * r).inv_expectation()
    p = IgFamily.posterior(hyper.alpha_f, hyper.beta_f, f0 * f0).inv_expectation()
    op = problem._operators["f"]
    c = band_factor(op, w, p)
    A = H.T @ (H * w[:, None]) + np.diag(p)
    d = np.sqrt(np.diag(A))
    kappa = np.linalg.cond(A / np.outer(d, d))
    assert kappa > 1e9
    quad = band_quad_diag(op, selected_inverse(c))
    oracle = ((H @ band_inverse(c)) * H).sum(axis=1)
    assert (np.abs(quad - oracle) <= 2 * np.finfo(float).eps * kappa * oracle).all()


@pytest.mark.parametrize("seed", [1, 8, 20])
def test_ill_conditioned_banded_block_ends_near_the_dense_block(seed):
    """The Hann problem: banded and dense blocks, equally accurate, end
    about eps kappa apart.  The batched selected inversion must not widen
    the gap: after 15 sweeps f_hat, v_eps and v_f stay within 1.3e-8
    normwise of the dense blocks'.  The gap amplifies last-bit differences
    from sweep to sweep, so it moves with the BLAS thread count; on these
    seeds it stayed at or below 3.7e-9 with one and two threads, with this
    recurrence and with the per-block one it replaced.  On seeds 1-20 of
    this construction the two recurrences ended about as far apart as each
    other, from 1e-10 to 5.5e-6: the conditioning, not the path."""
    problem, hyper = hann_problem(seed)
    m = problem.n_coef
    states = []
    for bands in (None, (m - 1, m - 1)):       # wide bands make every block dense
        case = ForwardProblem(g=problem.g, H=problem.H)
        case.__dict__["_operators"] = {"f": _Operator(case.H, bands)}
        assert case._operators["f"].banded_solve == (bands is None)
        states.append(solve_vba(case, hyper, VbaConfig(
            max_iter=15, tol_rel_f=1e-300, init="least-squares"))[0])
    banded, dense = states
    for name in ("f_hat", "v_eps", "v_f"):
        a, b = getattr(banded, name), getattr(dense, name)
        assert np.abs(a - b).max() <= 1.3e-8 * np.abs(b).max(), name
