"""The Gaussian block updates of JMAP and VBA against the normal equations.

Both solvers' f and z blocks solve ``(K' diag(w) K + diag(p)) x = rhs``
with K = H, rhs = H'(w g) + p * (D z) (f block) or K = D, rhs = D'(w f)
(z block); JMAP takes variances v = 1/w, 1/p, VBA the precisions.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bsi import (
    DimensionMismatch,
    ForwardProblem,
    HyperParams,
    NonPositiveVariance,
    SingularSystem,
    VbaConfig,
    jmap_update_f,
    jmap_update_z,
    solve_jmap,
    solve_vba,
    vba_full_coordinate_update,
    vba_update_f,
    vba_update_ig,
    vba_update_z,
)
from bsi.vba import _Covariance


def three_tap(rng, m):
    """M x M convolution by a random 3-tap kernel, zero-padded at the ends."""
    lower, centre, upper = rng.uniform(0.2, 1.0, 3)
    return (np.diag(np.full(m, centre)) + np.diag(np.full(m - 1, lower), -1)
            + np.diag(np.full(m - 1, upper), 1))


def path(op):
    """The partial-scheme path the operator ``op`` takes."""
    return "band" if op.banded_solve else "dual" if op.dual else "dense"


@st.composite
def block_problems(draw):
    """(problem, w_f, p_f, w_z, p_z, z, paths): a small problem, its block
    precisions, a non-zero z (None in the direct model) and the paths its
    f and z blocks must take.

    Small draws (M <= 24) are dense but for a 1 x 1 K (u = 0, banded); a
    3-tap H at M = 52..64 (u = 2) is banded, and a dense H with 2 N <= M
    at M = 32..40 is dual.  D = I is banded, and a dense D is dense.
    """
    rng = np.random.RandomState(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["dense", "3-tap", "banded 3-tap", "dual"]))
    if kind == "banded 3-tap":
        m = draw(st.integers(52, 64))
        H, f_path = three_tap(rng, m), "band"
    elif kind == "dual":
        m = draw(st.integers(32, 40))
        H, f_path = rng.randn(draw(st.integers(1, m // 2)), m), "dual"
    else:
        m = draw(st.integers(1, 24))
        H = rng.randn(draw(st.integers(1, 12)), m) if kind == "dense" else three_tap(rng, m)
        f_path = "band" if H.size == 1 else "dense"
    model = draw(st.sampled_from(["direct", "identity", "dense"]))
    D = {"direct": None, "identity": np.eye(m),
         "dense": np.eye(m) + 0.3 * rng.randn(m, m) / np.sqrt(m)}[model]
    z_path = {"direct": None, "identity": "band", "dense": "band" if m == 1 else "dense"}[model]
    n = H.shape[0]
    problem = ForwardProblem(g=rng.randn(n), H=H, D=D)
    z = None if D is None else rng.randn(m)
    return (problem, 10.0 ** rng.uniform(-1, 1, n), 10.0 ** rng.uniform(-1, 1, m),
            10.0 ** rng.uniform(-1, 1, m), 10.0 ** rng.uniform(-1, 1, m), z, (f_path, z_path))


def precision(K, w, p):
    return K.T @ (K * w[:, None]) + np.diag(p)


def oracle(K, w, p, rhs):
    return np.linalg.solve(precision(K, w, p), rhs)


def within(x, expected, rtol=1e-10):
    return np.abs(x - expected).max() <= rtol * np.abs(expected).max()


@settings(max_examples=200, deadline=None)
@given(block_problems())
def test_block_means_solve_the_normal_equations(case):
    """Both solvers' public blocks, which are the blocks their sweeps run,
    against the normal equations on every path: the means, and VBA's
    covariance against the dense inverse."""
    problem, w_f, p_f, w_z, p_z, z, (f_path, z_path) = case
    H, D, g = problem.H, problem.D, problem.g
    assert path(problem._operators["f"]) == f_path
    rhs = H.T @ (w_f * g)
    if z is not None:
        rhs = rhs + p_f * (D @ z)                       # the coupling term
    f_star = oracle(H, w_f, p_f, rhs)
    assert within(jmap_update_f(problem, 1.0 / w_f, 1.0 / p_f, z), f_star)
    f, Sigma_f = vba_update_f(problem, w_f, p_f, z)
    assert within(f, f_star)
    assert within(np.asarray(Sigma_f), np.linalg.inv(precision(H, w_f, p_f)))
    if z is None:
        return
    assert path(problem._operators["z"]) == z_path
    z_star = oracle(D, w_z, p_z, D.T @ (w_z * f_star))
    assert within(jmap_update_z(problem, 1.0 / w_z, 1.0 / p_z, f_star), z_star)
    z_hat, Sigma_z = vba_update_z(problem, w_z, p_z, f_star)
    assert within(z_hat, z_star)
    assert within(np.asarray(Sigma_z), np.linalg.inv(precision(D, w_z, p_z)))


ONES, ONES3, ONE = [1.0, 1.0], [1.0, 1.0, 1.0], [1.0]
HYPER, EYE, EYE3, WIDE = HyperParams(), np.eye(2), np.eye(3), np.ones((2, 3))


def update_ig(problem, *args):
    return vba_update_ig(*args, problem=problem)


def coordinate(problem, *args):
    return vba_full_coordinate_update(problem, HYPER, *args)


@pytest.mark.parametrize("K", [np.eye(2), np.array([[1.0, 0.5], [0.5, 1.0]])],
                         ids=["banded", "dense"])
@pytest.mark.parametrize("update, args", [
    (jmap_update_f, (ONE, ONES)),                       # w of length 1, N = 2
    (jmap_update_f, (ONES, ONES3)),                     # p of length 3, M = 2
    (jmap_update_f, (ONES, ONES, ONE)),                 # z of length 1
    (vba_update_f, (ONES3, ONES)),
    (vba_update_f, (ONES, ONE)),
    (vba_update_f, (ONES, ONES, ONES3)),
    (jmap_update_z, (ONE, ONES, ONES)),
    (jmap_update_z, (ONES, ONE, ONES)),
    (jmap_update_z, (ONES, ONES, ONE)),                 # f of length 1
    (vba_update_z, (ONES3, ONES, ONES)),
    (vba_update_z, (ONES, ONES3, ONES)),
    (vba_update_z, (ONES, ONES, ONES3)),
    (update_ig, ("eps", HYPER, ONE, None)),             # f_hat of length 1
    (update_ig, ("eps", HYPER, ONES, EYE3)),            # Sigma_f 3 x 3
    (update_ig, ("eps", HYPER, ONES, WIDE)),            # Sigma_f 2 x 3
    (update_ig, ("xi", HYPER, ONES, EYE, ONE, EYE)),    # z_hat of length 1
    (update_ig, ("xi", HYPER, ONES, EYE, ONES, ONE)),   # diagonal Sigma_z of length 1
    (update_ig, ("z", HYPER, ONES, EYE, ONES3, EYE)),
    (update_ig, ("z", HYPER, ONES, EYE, ONES, EYE3)),
    (update_ig, ("eps", HYPER, ONES, None)),            # a covariance it reads is None
    (update_ig, ("xi", HYPER, ONES, None, ONES, EYE)),
    (update_ig, ("xi", HYPER, ONES, EYE, ONES, None)),
    (update_ig, ("z", HYPER, ONES, EYE, ONES, None)),
])
def test_wrong_lengths_are_dimension_mismatch(K, update, args):
    problem = ForwardProblem(g=[1.0, 2.0], H=K, D=K)
    with pytest.raises(DimensionMismatch):
        update(problem, *args)


@pytest.mark.parametrize("K", [np.eye(2), np.array([[1.0, 0.5], [0.5, 1.0]])],
                         ids=["banded", "dense"])
@pytest.mark.parametrize("update, args", [
    (jmap_update_f, (ONE, ONES)), (vba_update_f, (ONES3, ONES)),
    (coordinate, (ONES, ONE, ONES, 0)),                 # vtilde_eps of length 1
    (coordinate, (ONES, ONES, ONE, 0)),                 # vtilde_f of length 1
    (coordinate, (ONES3, ONES, ONES, 0)),               # f_hat of length 3
    (update_ig, ("f", HYPER, ONES, ONE)),               # diagonal Sigma_f of length 1
    (update_ig, ("f", HYPER, ONES3, EYE)),
    (update_ig, ("eps", HYPER, ONES, EYE3)),
    (update_ig, ("f", HYPER, ONES, None)),              # the Sigma_f it reads is None
])
def test_wrong_lengths_direct_model(K, update, args):
    with pytest.raises(DimensionMismatch):
        update(ForwardProblem(g=[1.0, 2.0], H=K), *args)


def test_covariance_the_kind_does_not_read_may_be_none():
    problem = ForwardProblem(g=[1.0, 2.0], H=EYE, D=EYE)
    expected = vba_update_ig("z", HYPER, ONES, EYE, ONES, EYE, problem=problem)
    got = vba_update_ig("z", HYPER, ONES, None, ONES, EYE, problem=problem)
    np.testing.assert_array_equal(got.beta_hat, expected.beta_hat)



def covariance(form, m):
    """A covariance of size m in one form of ``vba._Covariance``."""
    if form == "solved":    # the band (u = 0) and factor of a solve's last block
        problem = ForwardProblem(g=np.ones(m), H=2.0 * np.eye(m))
        return solve_vba(problem, HYPER, VbaConfig(max_iter=2))[0].Sigma_f
    return {"dense": _Covariance(dense=np.eye(m)),
            "band": _Covariance(band=np.ones((3, m)), factor=np.ones((3, m))),
            "diagonal": _Covariance(band=np.ones((1, m))),
            "dual": _Covariance(prior=np.ones(m), roots=(np.zeros((1, m)), np.ones((1, 1))))}[form]


@pytest.mark.parametrize("size, m", [(1, 3), (10, 3), (1, 12), (10, 12)])
@pytest.mark.parametrize("form", ["solved", "dense", "band", "diagonal", "dual"])
@pytest.mark.parametrize("kind, model, slot", [
    ("eps", "direct", "Sigma_f"), ("f", "direct", "Sigma_f"), ("eps", "indirect", "Sigma_f"),
    ("xi", "indirect", "Sigma_f"), ("xi", "indirect", "Sigma_z"), ("z", "indirect", "Sigma_z")])
def test_covariance_object_of_the_wrong_size_is_dimension_mismatch(size, m, form, kind,
                                                                    model, slot):
    """A covariance object of another size used to broadcast into the scale
    update; read in the slot its kind reads, it raises as an array does."""
    indirect = model == "indirect"
    problem = ForwardProblem(g=np.ones(m), H=np.eye(m), D=np.eye(m) if indirect else None)
    Sigma = {"Sigma_f": np.eye(m), "Sigma_z": np.eye(m) if indirect else None}
    Sigma[slot] = covariance(form, size)
    with pytest.raises(DimensionMismatch):
        vba_update_ig(kind, HYPER, np.zeros(m), Sigma["Sigma_f"],
                      np.zeros(m) if indirect else None, Sigma["Sigma_z"], problem=problem)

# A precision of 1e308 on a column of 2 overflows the normal matrix's
# diagonal to inf.  Cholesky passes it with info 0 and yields a finite,
# meaningless result; every block must raise instead.
H_PROBE = np.array([[2.0, 0.0], [0.5, 1.0]])
G_PROBE = np.array([0.0, 2.5])
HUGE = np.array([1e308, 1.0])
HYPER_PROBE = HyperParams(alpha_eps=1.0, beta_eps=1e-308, alpha_f=1.0, beta_f=1.0)


def solve_probe(H, g, separability):
    return solve_vba(ForwardProblem(g=g, H=H), HYPER_PROBE, VbaConfig(separability=separability))


def two_i_probe():
    g = np.random.RandomState(0).randn(16)
    g[0] = 0.0
    return 2.0 * np.eye(16), g


@pytest.mark.parametrize("run", [
    lambda: jmap_update_f(ForwardProblem(g=G_PROBE, H=H_PROBE), 1.0 / HUGE, ONES),
    lambda: jmap_update_z(ForwardProblem(g=G_PROBE, H=EYE, D=H_PROBE), 1.0 / HUGE, ONES, ONES),
    lambda: vba_update_f(ForwardProblem(g=G_PROBE, H=H_PROBE), HUGE, ONES),
    lambda: vba_update_z(ForwardProblem(g=G_PROBE, H=EYE, D=H_PROBE), HUGE, ONES, ONES),
    lambda: vba_full_coordinate_update(ForwardProblem(g=G_PROBE, H=H_PROBE), HYPER,
                                       [0.0, 0.0], HUGE, ONES, 0),
    lambda: solve_jmap(ForwardProblem(g=G_PROBE, H=H_PROBE), HYPER_PROBE),
    lambda: solve_probe(H_PROBE, G_PROBE, "partial"),
    lambda: solve_probe(H_PROBE, G_PROBE, "full"),
    lambda: solve_probe(*two_i_probe(), "full"),       # the banded pass
], ids=["jmap_f", "jmap_z", "vba_f", "vba_z", "coordinate", "jmap", "vba_partial",
        "vba_full", "vba_full_banded"])
def test_non_finite_block_is_singular_system(run):
    # with no np.errstate here: the typed error must come with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularSystem):
            run()


TINY = 1e-320
# a 3-tap kernel of ones: a column sum of squares of 3 overflows w = 1e308;
# 64 >= 4 u + 44, so it is banded
TAP_PROBE = np.eye(64) + np.eye(64, k=1) + np.eye(64, k=-1)


@pytest.mark.parametrize("block, expected, problem, w, p", [
    # precisions of 1e-320 factor into denormals whose inverse overflows
    ("f", "band", ForwardProblem(g=np.ones(4), H=np.eye(4)), TINY, TINY),        # u = 0
    ("z", "band", ForwardProblem(g=np.ones(4), H=np.eye(4), D=np.eye(4)), TINY, TINY),
    ("f", "band", ForwardProblem(g=np.ones(64), H=TAP_PROBE), TINY, TINY),       # u = 2
    ("z", "band", ForwardProblem(g=np.ones(64), H=np.eye(64), D=TAP_PROBE), TINY, TINY),
    ("f", "band", ForwardProblem(g=np.ones(64), H=TAP_PROBE), 1e308, 1.0),
    ("z", "band", ForwardProblem(g=np.ones(64), H=np.eye(64), D=TAP_PROBE), 1e308, 1.0),
    # D is square, so only an f block can be dual
    ("f", "dual", ForwardProblem(g=np.ones(16), H=np.random.RandomState(0).randn(16, 64)),
     1.0, TINY),
    # w g overflows the right-hand side, so the dense mean is not finite
    ("f", "dense", ForwardProblem(g=[1e200, 1e200], H=H_PROBE), 1e150, 1.0),
    ("z", "dense", ForwardProblem(g=[1.0, 1.0], H=EYE, D=H_PROBE), 1e150, 1.0),
], ids=["f_u0", "z_u0", "f_band", "z_band", "f_band_huge", "z_band_huge", "f_dual",
        "f_dense_mean", "z_dense_mean"])
def test_public_vba_block_is_singular_system_on_every_path(block, expected, problem, w, p):
    op = problem._operators[block]
    assert path(op) == expected
    n, m = op.K.shape
    w, p, other = np.full(n, w), np.full(m, p), np.full(m, 1e200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularSystem):
            if block == "f":
                vba_update_f(problem, w, p, None if problem.is_direct else other)
            else:
                vba_update_z(problem, w, p, other)


@pytest.mark.parametrize("H, expected, step", [
    (TAP_PROBE, "band", "banded SPD solve"),
    (np.random.RandomState(0).randn(16, 64), "dual", "dual SPD solve"),
], ids=["band", "dual"])
def test_overflowing_right_hand_side_is_singular_system_at_the_solve(H, expected, step):
    # w g overflows the right-hand side while the factor stays finite: only
    # the failure rule on the solve's result, x, catches it
    problem = ForwardProblem(g=np.full(H.shape[0], 1e200), H=H)
    assert path(problem._operators["f"]) == expected
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularSystem, match=step):
            jmap_update_f(problem, np.full(H.shape[0], 1e-150), np.ones(64))


@pytest.mark.parametrize("method", ["jmap", "partial", "full"])
def test_overflowing_residual_is_singular_system(method):
    # r * r overflows in the variance step (JMAP) or the seed (VBA): the
    # typed error comes alone, and not as NonPositiveVariance about v_eps
    problem = ForwardProblem(g=[1e200, 1e200], H=EYE)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularSystem):
            if method == "jmap":
                solve_jmap(problem, HyperParams())
            else:
                solve_vba(problem, HyperParams(), VbaConfig(separability=method))
        with pytest.raises(SingularSystem):
            vba_update_ig("eps", HyperParams(), [0.0, 0.0], EYE, problem=problem)


@pytest.mark.parametrize("K, banded", [(np.eye(2), True),
                                       (np.array([[1.0, 0.5], [0.5, 1.0]]), False)],
                         ids=["banded", "dense"])
@pytest.mark.parametrize("block", ["f", "z"])
def test_partial_sweep_block_checks_precisions(K, banded, block):
    # the banded block and the dense one both reject a non-positive precision
    problem = ForwardProblem(g=[1.0, 2.0], H=K, D=K)
    assert problem._operators[block].banded_solve is banded
    update = vba_update_f if block == "f" else vba_update_z
    good, bad = ONES, [1.0, -1.0]
    for w, p in ((bad, good), (good, bad)):
        with pytest.raises(NonPositiveVariance):
            update(problem, w, p, ONES)


def test_probes_take_the_paths_they_name():
    op = ForwardProblem(g=G_PROBE, H=H_PROBE)._operators["f"]
    assert not op.banded_solve and not op.banded_pass
    H, g = two_i_probe()
    assert ForwardProblem(g=g, H=H)._operators["f"].banded_pass
