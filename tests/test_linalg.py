import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings, strategies as st

from bsi import (
    ForwardProblem,
    HyperParams,
    OperatorSpec,
    SingularSystem,
    generate_operator,
    jmap_update_f,
    jmap_update_z,
    vba_full_coordinate_update,
    vba_update_f,
)
import bsi.vba
from bsi import _linalg
from bsi._linalg import (
    _normal_band,
    band_factor,
    band_inverse,
    band_gauss_seidel,
    band_quad_diag,
    band_solve,
    dual_factor,
    dual_roots,
    dual_solve,
    normal_matrix,
    rel_change,
    selected_inverse,
    solve_normal,
    spd_inverse,
    spd_solve,
)
from bsi.model import _Operator, bandwidths
from bsi.vba import _Covariance, _dense_coordinates


@pytest.mark.parametrize("m", [1, 2, 7, 40])
def test_spd_inverse_matches_numpy(m):
    rng = np.random.RandomState(m)
    S = rng.randn(m, m)
    A = S @ S.T + m * np.eye(m)
    inv = spd_inverse(A)
    np.testing.assert_array_equal(inv, inv.T)
    oracle = np.linalg.inv(A)
    assert np.abs(inv - oracle).max() <= 1e-12 * np.abs(oracle).max()


def test_spd_inverse_leaves_input_unchanged():
    A = np.array([[4.0, 1.0], [1.0, 3.0]])
    before = A.copy()
    spd_inverse(A)
    np.testing.assert_array_equal(A, before)


@pytest.mark.parametrize("A", [
    np.array([[1.0, 2.0], [2.0, 1.0]]),
    np.zeros((3, 3)),
    np.array([[1.0, np.nan], [np.nan, 1.0]]),
], ids=["indefinite", "zero", "nan"])
def test_spd_inverse_rejects_non_spd(A):
    with pytest.raises(SingularSystem):
        spd_inverse(A)


def test_spd_inverse_rejects_an_inverse_past_the_float_range():
    # the factor of diag(1e-320) is finite (1e-160), its inverse is not;
    # at block level the dense mean's check would mask this one
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularSystem, match="SPD inverse is not finite"):
            spd_inverse(np.diag([1e-320, 1e-320]))


def banded(rng, n, m, kl, ku):
    K = rng.uniform(-1.0, 1.0, (n, m))
    i, j = np.indices((n, m))
    K[(j - i > ku) | (i - j > kl)] = 0.0
    return K


@st.composite
def normal_systems(draw):
    """(K, (kl, ku), w, p, rhs); K banded, diagonal or the identity."""
    rng = np.random.RandomState(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["band", "diagonal", "identity"]))
    m = draw(st.integers(1, 48))
    if kind == "band":
        n = max(1, m + draw(st.integers(-6, 6)))
        kl, ku = draw(st.integers(0, 3)), draw(st.integers(0, 3))
        K = banded(rng, n, m, kl, ku)
        K[:, rng.rand(m) < 0.2] = 0.0                  # zero columns
    else:
        n, kl, ku = m, 0, 0
        K = np.eye(m) if kind == "identity" else np.diag(rng.uniform(-2.0, 2.0, m))
    w = 10.0 ** rng.uniform(-2.0, 2.0, n)
    p = 10.0 ** rng.uniform(-8.0, 8.0, m)
    return K, (kl, ku), w, p, rng.randn(m)


def dense_oracle(K, w, p, rhs):
    A = K.T @ (K * w[:, None]) + np.diag(p)
    return A, np.linalg.solve(A, rhs)


def rel_err(x, oracle):
    return np.abs(x - oracle).max() / np.abs(oracle).max()


def within(x, oracle, rtol):
    """max |x - oracle| <= rtol max |oracle|; an all-zero oracle needs x == 0."""
    return np.abs(x - oracle).max() <= rtol * np.abs(oracle).max()


@settings(max_examples=150, deadline=None)
@given(normal_systems())
def test_solve_normal_matches_dense_oracle(system):
    K, bands, w, p, rhs = system
    A, oracle = dense_oracle(K, w, p, rhs)
    # Any backward-stable solver is off by about eps times the condition
    # number of the diagonally scaled matrix; p over 16 decades makes that
    # unbounded, so the 1e-12 bound is checked where it is attainable.
    d = np.sqrt(np.diag(A))
    assume(np.linalg.cond(A / np.outer(d, d)) <= 1e3)
    detected = bandwidths(K)
    assert detected[0] <= bands[0] and detected[1] <= bands[1]
    m = K.shape[1]
    for b in (bands, detected, (bands[0] + 1, bands[1])):
        op = _Operator(K, b)
        assert rel_err(solve_normal(op, w, p, rhs), oracle) <= 1e-12
        u = b[0] + b[1]
        if u < m:                               # the band, whichever path runs
            assert rel_err(band_solve(band_factor(op, w, p), rhs), oracle) <= 1e-12
            ab = _normal_band(op, w, p)
            for d in range(u + 1):
                np.testing.assert_allclose(ab[u - d, d:], np.diagonal(A, d),
                                           rtol=1e-13, atol=1e-13 * np.abs(A).max())


@settings(max_examples=150, deadline=None)
@given(normal_systems())
def test_band_kernels_match_dense_oracles(system):
    K, bands, w, p, rhs = system
    n, m = K.shape
    u = bands[0] + bands[1]
    assume(u < m)                               # band storage needs kl + ku < M
    A, _ = dense_oracle(K, w, p, rhs)
    # As for solve_normal: errors scale with the condition number of the
    # diagonally scaled matrix, which p over 16 decades leaves unbounded.
    d = np.sqrt(np.diag(A))
    assume(np.linalg.cond(A / np.outer(d, d)) <= 1e3)
    # The oracle is the extended-precision inverse: a band entry far below
    # the rest of its diagonal is known to spd_inverse only to its own
    # rounding (in one draw Sigma[2, 0] = 3.5e-17, the only nonzero of its
    # diagonal, was 1.9e-10 of itself off in spd_inverse and 8.9e-11 in
    # the selected band, against Sherman-Morrison in long double).
    Sigma = extended_oracle(K, w, p, rhs)[0].astype(float)
    op = _Operator(K, bands)
    S = selected_inverse(band_factor(op, w, p))
    assert S.shape == (u + 1, m)
    for k in range(u + 1):
        assert within(S[k, :m - k], np.diagonal(Sigma, -k), 1e-10)
    assert within(band_quad_diag(op, S), np.diag(K @ Sigma @ K.T), 1e-10)
    v = np.diag(Sigma)                          # a diagonal Sigma is the u = 0 band
    assert within(band_quad_diag(op, v[None]), np.diag(K @ np.diag(v) @ K.T), 1e-10)
    # one Gauss-Seidel sweep from rhs is the coordinate update for j = 0..M-1
    g = np.random.RandomState(m).randn(n)
    f, diag = band_gauss_seidel(op, w, p, K.T @ (w * g), rhs)
    problem, loop, var = ForwardProblem(g=g, H=K), rhs.copy(), np.empty(m)
    for j in range(m):
        loop[j], var[j] = vba_full_coordinate_update(problem, HyperParams(), loop, w, p, j)
    assert within(f, loop, 1e-12)
    assert within(1.0 / diag, var, 1e-12)


@st.composite
def wide_systems(draw):
    """(K, w, p, rhs) for a dense wide K on the dual side of its rule."""
    rng = np.random.RandomState(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(32, 96))
    n = draw(st.integers(1, 3 * m // 4 if m >= 64 else m // 2))
    K = rng.randn(n, m) * 10.0 ** rng.uniform(-1.0, 1.0, m)
    K[:, rng.rand(m) < 0.1] = 0.0                  # zero columns
    w = 10.0 ** rng.uniform(-2.0, 2.0, n)
    # the prior precisions span up to 4 decades, about a level anywhere in
    # 16: drawn entry by entry over all 16, no draw passes the filter
    level = rng.uniform(-8.0, 8.0)
    p = 10.0 ** rng.uniform(level, level + rng.uniform(0.0, 4.0), m)
    return K, w, p, rng.randn(m)


def extended_oracle(K, w, p, rhs):
    """A^-1, A^-1 rhs and diag(K A^-1 K') in np.longdouble, for
    ``A = K' diag(w) K + diag(p)`` formed in np.longdouble: the float64
    inverse refined by two Newton steps, the mean by one residual step."""
    Kl = K.astype(np.longdouble)
    A = Kl.T @ (Kl * w[:, None]) + np.diag(p.astype(np.longdouble))
    X = np.linalg.inv(A.astype(float)).astype(np.longdouble)
    eye = np.eye(len(p), dtype=np.longdouble)
    for _ in range(2):
        X = X + X @ (eye - A @ X)
    x = X @ rhs
    x = x + X @ (rhs - A @ x)
    return X, x, np.einsum("ij,jk,ik->i", Kl, X, Kl)


@settings(max_examples=80, deadline=None)
@given(wide_systems())
def test_dual_block_matches_dense_block_and_extended_oracle(system):
    """The dual path against the dense one and an extended-precision oracle.

    Errors scale with the condition number c of the diagonally scaled A
    (the filter of the solve_normal property, here up to 1e6), so every
    output is held to 50 eps c of the oracle: diag(Sigma) and diag(K
    Sigma K') entry by entry, relative to themselves, the mean and Sigma
    normwise.  Over 1200 draws the largest errors, in units of eps c,
    were 10 (diag(Sigma)), 8.9 (diag(K Sigma K')), 0.9 (mean) and 1.7
    (Sigma); the dense block's were 2.9, 4.6, 2.7 and 2.5.  At c <= 1e3
    no dual error passed 2.9e-13, at c <= 1e6 none passed 1.9e-11.
    """
    K, w, p, rhs = system
    op = _Operator(K)
    assert op.dual
    A = normal_matrix(K, w, p)
    d = np.sqrt(np.diag(A))
    tol = 50 * np.finfo(float).eps * np.linalg.cond(A / np.outer(d, d))
    assume(tol <= 50 * np.finfo(float).eps * 1e6)
    X, x, quad = extended_oracle(K, w, p, rhs)
    L, KP = dual_factor(op, w, p)
    mean = dual_solve(op, L, p, rhs)
    np.testing.assert_array_equal(solve_normal(op, w, p, rhs), mean)   # JMAP's solve
    Sigma = _Covariance(prior=1.0 / p, roots=dual_roots(L, KP, w))
    diag = np.diagonal(X)
    assert within(mean, x, tol)
    assert (np.abs(Sigma.diag() - diag) <= tol * diag).all()
    assert (np.abs(Sigma.quad_diag(op) - quad) <= tol * quad).all()
    whole = np.asarray(Sigma)
    np.testing.assert_array_equal(whole, whole.T)
    assert within(whole, X, tol)
    dense = spd_inverse(A)                      # the dense block's Sigma
    assert within(dense @ rhs, mean, 2 * tol)
    assert within(dense, whole, 2 * tol)


@pytest.mark.parametrize("w_bad, p_bad", [(np.inf, 1.0), (np.nan, 1.0), (1.0, np.inf),
                                          (1.0, 1e-320)],
                         ids=["w-inf", "w-nan", "p-inf", "p-subnormal"])
def test_dual_factor_follows_the_failure_rule(w_bad, p_bad):
    """An infinite precision is a zero variance in C, so the rule checks w
    and p themselves; a precision whose inverse overflows fails the factor."""
    rng = np.random.RandomState(3)
    op = _Operator(rng.randn(16, 64))
    assert op.dual
    w, p = np.ones(16), np.ones(64)
    w[2], p[5] = w_bad, p_bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularSystem):
            solve_normal(op, w, p, rng.randn(64))


@st.composite
def dense_passes(draw):
    """(H, w, p, g, f) with M below, at, above and off multiples of the
    pass's 32-coordinate blocks, and N on both sides of M."""
    rng = np.random.RandomState(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.sampled_from([1, 7, 31, 32, 33, 64, 70, 97]))
    n = draw(st.integers(1, 2 * m + 8))
    H = rng.randn(n, m) * 10.0 ** rng.uniform(-1.0, 1.0, m)
    H[:, rng.rand(m) < 0.1] = 0.0
    w = 10.0 ** rng.uniform(-2.0, 2.0, n)
    p = 10.0 ** rng.uniform(-8.0, 8.0, m)
    return H, w, p, rng.randn(n), rng.randn(m)


@settings(max_examples=80, deadline=None)
@given(dense_passes())
def test_blocked_pass_is_the_coordinate_loop(system):
    """The blocked dense pass is the loop of vba_full_coordinate_update,
    j = 0..M-1, to 1e-12 of the loop's largest entry (f) and of each
    variance.  Over 1500 such draws the largest gaps were 3.3e-14 (f) and
    8.3e-16 (variances)."""
    H, w, p, g, f0 = system
    n, m = H.shape
    problem = ForwardProblem(g=g, H=H)
    f, denom = _dense_coordinates(problem, w, p, f0)
    loop, var = f0.copy(), np.empty(m)
    for j in range(m):
        loop[j], var[j] = vba_full_coordinate_update(problem, HyperParams(), loop, w, p, j)
    assert within(f, loop, 1e-12)
    assert (np.abs(1.0 / denom - var) <= 1e-12 * var).all()


@pytest.mark.parametrize("bands", [(1, 0), (1, 1), (3, 2), (20, 20)])
def test_selected_inverse_across_blocks(bands):
    """Many column blocks, a short first block, and a band wider than a block."""
    rng = np.random.RandomState(9)
    m = 170
    K = banded(rng, m + 3, m, *bands)
    w, p = rng.uniform(0.5, 2.0, m + 3), rng.uniform(0.5, 2.0, m)
    Sigma = np.linalg.inv(K.T @ (K * w[:, None]) + np.diag(p))
    S = selected_inverse(band_factor(_Operator(K, bands), w, p))
    for k in range(sum(bands) + 1):
        assert within(S[k, :m - k], np.diagonal(Sigma, -k), 1e-12)


@st.composite
def band_factors(draw):
    """(U, A): the upper band factor (LAPACK ``pbtrf``) of a random SPD band
    matrix A of half-bandwidth u = 0..8 on M = 1 to three blocks of
    ``selected_inverse`` plus one column, so most M are no multiple of the
    block width.  A is a diagonally dominant band, its margin 1e-3..1,
    scaled on both sides by a diagonal that spreads over up to 8 decades."""
    rng = np.random.RandomState(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(1, 3 * _linalg._SELINV_BLOCK + 1))
    u = draw(st.integers(0, min(8, m - 1)))
    A = np.zeros((m, m))
    for d in range(1, u + 1):
        off = rng.uniform(-1.0, 1.0, m - d)
        A += np.diag(off, d) + np.diag(off, -d)
    A += np.diag(np.abs(A).sum(axis=1) + 10.0 ** rng.uniform(-3.0, 0.0))
    scale = 10.0 ** (draw(st.floats(0.0, 8.0)) * (rng.rand(m) - 0.5))
    A *= np.outer(scale, scale)
    ab = np.zeros((u + 1, m))
    for d in range(u + 1):
        ab[u - d, d:] = np.diagonal(A, d)
    c, info = scipy.linalg.lapack.dpbtrf(ab)
    assert info == 0
    return c, A


@settings(max_examples=200, deadline=None)
@given(band_factors())
def test_selected_inverse_matches_band_inverse(factor):
    """Each band entry within 10 eps kappa of ``band_inverse``'s, relative to
    sqrt(Sigma_ii Sigma_jj), with kappa the condition number of the
    diagonally scaled A; over 3000 such draws the largest gap was 1.7 eps
    kappa.  Entries past the last row of Sigma are zero.  The same holds
    when every pass is one block wide, so that each block's corner is
    carried from the pass after it."""
    c, A = factor
    u, m = c.shape[0] - 1, c.shape[1]
    S = selected_inverse(c)
    with mock.patch.object(_linalg, "_SELINV_PASS", _linalg._SELINV_BLOCK):
        one_block_passes = selected_inverse(c)
    full = band_inverse(c)
    d = np.sqrt(np.diag(A))
    bound = 10 * np.finfo(float).eps * np.linalg.cond(A / np.outer(d, d))
    sd = np.sqrt(np.diag(full))
    for S in (S, one_block_passes):
        assert S.shape == (u + 1, m)
        for k in range(u + 1):
            gap = np.abs(S[k, :m - k] - np.diagonal(full, -k)) / (sd[:m - k] * sd[k:])
            assert (gap <= bound).all(), (k, gap.max() / bound)
            assert (S[k, m - k:] == 0.0).all()


def selected_inverse_memory(u, m):
    """(peak, held) bytes that selected_inverse traces past the band it
    returns, from an empty layout cache, on a random band factor."""
    ab = np.zeros((u + 1, m))
    rng = np.random.RandomState(u)
    for d in range(1, u + 1):
        ab[u - d, d:] = rng.uniform(-1.0, 1.0, m - d)
    ab[u] = 2.0 * u + 1.0
    c, info = scipy.linalg.lapack.dpbtrf(ab)
    assert info == 0
    _linalg._selinv_layout.cache_clear()
    tracemalloc.start()
    try:
        S = selected_inverse(c)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - S.nbytes, held - S.nbytes


@pytest.mark.parametrize("u", [2, 8])
def test_selected_inverse_memory_does_not_grow_with_the_problem(u):
    """Past the band it returns, selected_inverse peaks at M = 2^16 + 5 as
    at M = 2^14, below 10 arrays of one pass's (u + w) x _SELINV_PASS
    numbers (7.2 at u = 2, 8.0 at u = 8; 4 and 6 MiB), and its layout
    cache keeps as much, below 2 of them."""
    w = max(_linalg._SELINV_BLOCK, u)
    unit = 8 * _linalg._SELINV_PASS * (u + w)
    peak, held = selected_inverse_memory(u, 2 ** 14)
    large_peak, large_held = selected_inverse_memory(u, 2 ** 16 + 5)
    assert large_peak <= 1.25 * peak and large_peak < 10 * unit
    assert large_held <= 1.25 * held and large_held < 2 * unit


@pytest.mark.parametrize("bands", [(0, 0), (1, 1), (2, 0)])
def test_solve_normal_keeps_the_solveh_banded_bits(bands):
    """For kl + ku != 1 the banded factor is what solveh_banded ran (pbsv)."""
    rng = np.random.RandomState(8)
    m = 64
    K = banded(rng, m, m, *bands)
    w, p, rhs = rng.uniform(0.5, 2.0, m), rng.uniform(0.5, 2.0, m), rng.randn(m)
    op = _Operator(K, bands)
    expected = scipy.linalg.solveh_banded(_normal_band(op, w, p), rhs, check_finite=False)
    np.testing.assert_array_equal(solve_normal(op, w, p, rhs), expected)


def test_bandwidths():
    K = np.zeros((5, 8))
    assert bandwidths(K) == (0, 0)
    K[4, 1] = 1.0
    K[0, 6] = -1.0
    assert bandwidths(K) == (3, 6)
    assert bandwidths(np.ones((4, 6))) == (3, 5)
    assert bandwidths(np.eye(6)) == (0, 0)
    op = _Operator(K)                           # the operator finds them itself
    assert (op.kl, op.ku) == (3, 6)


def parent_rules(m, kl, ku):
    """The two dense-or-banded rules written out apart from the operator:
    every partial-scheme block (JMAP solve and VBA block), and the VBA
    full pass."""
    u = kl + ku
    solve = u == 0 or 4 * u + 44 <= m
    return solve, solve and u * u <= 4 * m


# (N, M, kl, ku) on the banded and on the dense side of every boundary of
# the rules, and which flag (0 solve, 1 pass) the boundary flips
BOUNDARIES = {
    "u=0/1": ((40, 40, 0, 0), (40, 40, 1, 0), 0),
    "4u+44=M/M-1, u=1": ((48, 48, 1, 0), (47, 47, 1, 0), 0),
    "4u+44=M/M-1, u=13": ((96, 96, 7, 6), (95, 95, 7, 6), 0),
    "4u+44=M/M-1, u=176": ((748, 748, 88, 88), (747, 747, 88, 88), 0),
    "u^2=4M/4M+1": ((256, 256, 16, 16), (272, 272, 16, 17), 1),
}
RULE_TABLE = [row for a, b, _ in BOUNDARIES.values() for row in (a, b)] + [
    (1, 1, 0, 0), (16, 16, 0, 0), (8, 8, 1, 0), (8, 8, 0, 1), (20, 16, 1, 1),
    (32, 32, 1, 1), (64, 64, 2, 2), (64, 64, 3, 3), (96, 96, 4, 3), (100, 96, 6, 0),
    (128, 128, 6, 6), (128, 128, 11, 10), (128, 128, 11, 11), (159, 159, 10, 10),
    (160, 160, 0, 20), (150, 160, 11, 10), (70, 64, 8, 0), (63, 63, 0, 8),
    (256, 256, 16, 17), (272, 272, 17, 16), (300, 272, 33, 0),
    (1024, 1024, 64, 64), (1024, 1024, 85, 85), (1024, 1024, 86, 85),
    (64, 128, 63, 127), (128, 128, 127, 127),
]


@pytest.mark.parametrize("n, m, kl, ku", RULE_TABLE)
def test_path_rules_are_the_parent_formulas(n, m, kl, ku):
    op = _Operator(np.zeros((n, m)), (kl, ku))
    assert (op.banded_solve, op.banded_pass) == parent_rules(m, kl, ku)


@pytest.mark.parametrize("n, m, kl, ku, dual", [
    (16, 32, 15, 31, True), (17, 32, 16, 31, False), (15, 31, 14, 30, False),
    (48, 64, 47, 63, True), (49, 64, 48, 63, False), (31, 63, 30, 62, True),
    (32, 63, 31, 62, False), (64, 128, 63, 127, True), (96, 128, 95, 127, True),
    (128, 128, 127, 127, False), (16, 128, 1, 1, False), (16, 128, 11, 10, False),
    (16, 128, 11, 11, True),
])
def test_dual_rule(n, m, kl, ku, dual):
    """M >= 32 with 2 N <= M, or M >= 64 with 4 N <= 3 M, off the banded solve."""
    assert _Operator(np.zeros((n, m)), (kl, ku)).dual is dual


@pytest.mark.parametrize("boundary", BOUNDARIES)
def test_rule_table_straddles_every_boundary(boundary):
    (_, m_in, kl_in, ku_in), (_, m_out, kl_out, ku_out), flag = BOUNDARIES[boundary]
    assert parent_rules(m_in, kl_in, ku_in)[flag] is True
    assert parent_rules(m_out, kl_out, ku_out)[flag] is False


@pytest.mark.parametrize("bands", [(1, 1), (40, 40)], ids=["banded", "dense"])
@pytest.mark.parametrize("w_bad", [np.nan, np.inf, 1e300], ids=["nan", "inf", "overflow"])
def test_solve_normal_rejects_non_finite_weights(bands, w_bad):
    rng = np.random.RandomState(1)
    m = 64
    K = banded(rng, m, m, 1, 1) * 1e10
    op = _Operator(K, bands)
    assert op.banded_solve is (bands == (1, 1))
    w = np.ones(m)
    w[7] = w_bad
    # the system is formed with overflow silenced: SingularSystem comes alone
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularSystem):
            solve_normal(op, w, np.ones(m), rng.randn(m))
        if bands == (1, 1):                     # the factor VBA reads raises too
            with pytest.raises(SingularSystem):
                band_factor(op, w, np.ones(m))
        else:                                   # so do the dense LAPACK calls
            with pytest.raises(SingularSystem):
                spd_solve([[np.inf, 0.5], [0.5, 1.0]], [1.0, 1.0])
            # a precision of 1e308 on a column of 2 overflows the diagonal
            probe = np.array([[2.0, 0.0], [0.5, 1.0]])
            with pytest.raises(SingularSystem):
                spd_inverse(normal_matrix(probe, np.array([1e308, 1.0]), np.ones(2)))


def test_banded_path_is_taken_by_structure(monkeypatch):
    """Convolution operators go through the banded factor; dense ones never do."""
    calls = []
    real = _linalg.band_factor
    monkeypatch.setattr(_linalg, "band_factor",
                        lambda *a, **k: calls.append(1) or real(*a, **k))
    m = 64
    rng = np.random.RandomState(2)
    conv = generate_operator(OperatorSpec(kind="convolution", n_rows=m, n_cols=m,
                                          kernel=(0.25, 0.5, 0.25)))
    dense = generate_operator(OperatorSpec(kind="gaussian_random", n_rows=m,
                                           n_cols=m, seed=3))
    v_eps, v_f = rng.uniform(0.5, 2.0, m), rng.uniform(0.5, 2.0, m)
    for H, expect in ((conv, 1), (dense, 0)):
        calls.clear()
        problem = ForwardProblem(g=rng.randn(m), H=H)
        f = jmap_update_f(problem, v_eps, v_f)
        assert len(calls) == expect
        _, oracle = dense_oracle(H, 1.0 / v_eps, 1.0 / v_f, H.T @ (problem.g / v_eps))
        assert rel_err(f, oracle) <= 1e-12
    calls.clear()
    jmap_update_z(ForwardProblem(g=rng.randn(m), H=dense, D=np.eye(m)),
                  v_eps, v_f, rng.randn(m))
    assert len(calls) == 1                     # D = I is a diagonal solve


@pytest.mark.parametrize("n, m, kl, ku", [row for a, b, flag in BOUNDARIES.values()
                                           if flag == 0 for row in (a, b)]
                         + [(128, 128, 6, 6), (112, 112, 8, 8), (64, 128, 63, 127)])
def test_one_path_per_operator(monkeypatch, n, m, kl, ku):
    """JMAP's f solve and VBA's partial-scheme f block factor an operator
    the same way: both call the banded factor, or neither does."""
    calls = []
    real = _linalg.band_factor

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(_linalg, "band_factor", counted)
    monkeypatch.setattr(bsi.vba, "band_factor", counted)
    rng = np.random.RandomState(m + kl)
    problem = ForwardProblem(g=rng.randn(n), H=banded(rng, n, m, kl, ku))
    v_eps, v_f = rng.uniform(0.5, 2.0, n), rng.uniform(0.5, 2.0, m)
    jmap_update_f(problem, v_eps, v_f)
    jmap_calls = len(calls)
    vba_update_f(problem, 1.0 / v_eps, 1.0 / v_f)
    assert jmap_calls == len(calls) - jmap_calls == problem._operators["f"].banded_solve


def test_benchmark_operators_keep_their_paths():
    """The 3-tap deconvolution H is banded at M = 128 and 1024 and dense at
    the M = 32 of the harness's smoke run (which records the dense VBA
    spans); the sensing H (64 x 128, and 16 x 32 in the smoke run) is dual
    and its square D dense."""
    def conv(m):
        return _Operator(generate_operator(OperatorSpec(
            kind="convolution", n_rows=m, n_cols=m, kernel=(0.25, 0.5, 0.25))))

    assert conv(128).banded_solve and conv(128).banded_pass
    assert conv(1024).banded_solve and conv(1024).banded_pass
    assert not (conv(32).banded_solve or conv(32).banded_pass or conv(32).dual)
    for n, m in ((64, 128), (16, 32)):
        H, D = (_Operator(generate_operator(OperatorSpec(
            kind="gaussian_random", n_rows=rows, n_cols=m, seed=rows))) for rows in (n, m))
        assert H.dual and not H.banded_solve
        assert not (D.banded_solve or D.dual)


def test_rel_change_returns_python_floats_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        same = rel_change(np.zeros(3), np.zeros(3))
        jump = rel_change(np.zeros(3), 10.0 * np.ones(3))
        step = rel_change(np.array([3.0, 4.0]), np.array([3.0, 3.0]))
    assert type(same) is float and same == 0.0
    assert type(jump) is float and jump == np.inf
    assert type(step) is float and step == 0.2
