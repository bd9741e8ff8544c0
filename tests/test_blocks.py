"""The Gaussian block updates of JMAP and VBA against the normal equations.

Both solvers' f and z blocks solve ``(K' diag(w) K + diag(p)) x = rhs``
with K = H, rhs = H'(w g) + p * (D z) (f block) or K = D, rhs = D'(w f)
(z block); JMAP takes variances v = 1/w, 1/p, VBA the precisions.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bsi.vba
from bsi import (
    DimensionMismatch,
    ForwardProblem,
    HyperParams,
    IgFamily,
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


def three_tap(rng, m):
    """M x M convolution by a random 3-tap kernel, zero-padded at the ends."""
    lower, centre, upper = rng.uniform(0.2, 1.0, 3)
    return (np.diag(np.full(m, centre)) + np.diag(np.full(m - 1, lower), -1)
            + np.diag(np.full(m - 1, upper), 1))


@st.composite
def block_problems(draw):
    """(problem, w_f, p_f, w_z, p_z, z): a small problem, its block
    precisions and a non-zero z (None in the direct model)."""
    rng = np.random.RandomState(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(1, 24))
    if draw(st.sampled_from(["dense", "3-tap"])) == "dense":
        H = rng.randn(draw(st.integers(1, 12)), m)
    else:
        H = three_tap(rng, m)
    D = {"direct": None, "identity": np.eye(m),
         "dense": np.eye(m) + 0.3 * rng.randn(m, m) / np.sqrt(m)}[
        draw(st.sampled_from(["direct", "identity", "dense"]))]
    n = H.shape[0]
    problem = ForwardProblem(g=rng.randn(n), H=H, D=D)
    z = None if D is None else rng.randn(m)
    return (problem, 10.0 ** rng.uniform(-1, 1, n), 10.0 ** rng.uniform(-1, 1, m),
            10.0 ** rng.uniform(-1, 1, m), 10.0 ** rng.uniform(-1, 1, m), z)


def oracle(K, w, p, rhs):
    return np.linalg.solve(K.T @ (K * w[:, None]) + np.diag(p), rhs)


def within(x, expected, rtol=1e-10):
    return np.abs(x - expected).max() <= rtol * np.abs(expected).max()


@settings(max_examples=200, deadline=None)
@given(block_problems())
def test_block_means_solve_the_normal_equations(case):
    problem, w_f, p_f, w_z, p_z, z = case
    H, D, g = problem.H, problem.D, problem.g
    rhs = H.T @ (w_f * g)
    if z is not None:
        rhs = rhs + p_f * (D @ z)                       # the coupling term
    f_star = oracle(H, w_f, p_f, rhs)
    assert within(jmap_update_f(problem, 1.0 / w_f, 1.0 / p_f, z), f_star)
    assert within(vba_update_f(problem, w_f, p_f, z)[0], f_star)
    f_block = bsi.vba._gaussian(problem, "f", IgFamily(w_f, 1.0), IgFamily(p_f, 1.0), z)
    assert within(f_block[0], f_star)
    if z is None:
        return
    z_star = oracle(D, w_z, p_z, D.T @ (w_z * f_star))
    assert within(jmap_update_z(problem, 1.0 / w_z, 1.0 / p_z, f_star), z_star)
    assert within(vba_update_z(problem, w_z, p_z, f_star)[0], z_star)
    z_block = bsi.vba._gaussian(problem, "z", IgFamily(w_z, 1.0), IgFamily(p_z, 1.0), f_star)
    assert within(z_block[0], z_star)


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
    # the banded block solves on its own, the dense one calls the public
    # update: both reject a non-positive precision
    problem = ForwardProblem(g=[1.0, 2.0], H=K, D=K)
    assert problem._operators[block].banded_block is banded
    good, bad = IgFamily(ONES, 1.0), IgFamily([1.0, -1.0], 1.0)
    for ig_w, ig_p in ((bad, good), (good, bad)):
        with pytest.raises(NonPositiveVariance):
            bsi.vba._gaussian(problem, block, ig_w, ig_p, ONES)


def test_probes_take_the_paths_they_name():
    op = ForwardProblem(g=G_PROBE, H=H_PROBE)._operators["f"]
    assert not op.banded_solve and not op.banded_block and not op.banded_pass
    H, g = two_i_probe()
    assert ForwardProblem(g=g, H=H)._operators["f"].banded_pass
