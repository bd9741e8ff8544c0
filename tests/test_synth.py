import copy
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bsi.rng
from bsi import (
    ForwardProblem,
    HyperParams,
    JmapConfig,
    NoiseSpec,
    OperatorSpec,
    SignalSpec,
    SpecError,
    SplitMix64,
    generate_operator,
    generate_sparse_signal,
    reconstruction_metrics,
    solve_jmap,
    synthesize_observation,
)


class TestSparseSignal:
    def test_zero_sparsity(self):
        out = generate_sparse_signal(SignalSpec(length=6, sparsity=0, seed=1))
        assert np.all(out == 0.0)

    def test_full_support_unit_amplitudes(self):
        out = generate_sparse_signal(SignalSpec(length=5, sparsity=5,
                                                amplitude_range=(1.0, 1.0), seed=3))
        assert np.all(np.abs(out) == 1.0)

    def test_exact_support_size_and_range(self):
        spec = SignalSpec(length=40, sparsity=7, amplitude_range=(2.0, 3.0), seed=9)
        out = generate_sparse_signal(spec)
        support = np.nonzero(out)[0]
        assert len(support) == 7
        mags = np.abs(out[support])
        assert np.all((mags >= 2.0) & (mags <= 3.0))

    def test_determinism(self):
        spec = SignalSpec(length=16, sparsity=4, seed=11)
        a = generate_sparse_signal(spec)
        b = generate_sparse_signal(spec)
        assert np.array_equal(a, b)

    def test_seed_sensitivity(self):
        for seed in range(10):
            a = generate_sparse_signal(SignalSpec(length=32, sparsity=6, seed=seed))
            b = generate_sparse_signal(SignalSpec(length=32, sparsity=6, seed=seed + 1000))
            assert not np.array_equal(a, b)

    def test_invalid_spec(self):
        with pytest.raises(SpecError):
            generate_sparse_signal(SignalSpec(length=4, sparsity=5, seed=0))
        with pytest.raises(SpecError):
            generate_sparse_signal(SignalSpec(length=4, sparsity=1,
                                              amplitude_range=(2.0, 1.0), seed=0))


def bits(values):
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


def _invalid_specs():
    """Each spec with one non-finite parameter, as a callable that validates it."""
    conv = dict(kind="convolution", n_rows=4, n_cols=4)
    return {
        "kernel-nan": lambda: OperatorSpec(kernel=(math.nan,), **conv).validate(),
        "kernel-inf": lambda: OperatorSpec(kernel=(0.25, math.inf, 0.25), **conv).validate(),
        "sigma-nan": lambda: NoiseSpec.stationary(math.nan).validate(),
        "sigma-inf": lambda: NoiseSpec.stationary(math.inf).validate(),
        "alpha-nan": lambda: NoiseSpec.nonstationary(math.nan, 1.0).validate(),
        "alpha-inf": lambda: NoiseSpec.nonstationary(math.inf, 1.0).validate(),
        "beta-inf": lambda: NoiseSpec.nonstationary(3.0, math.inf).validate(),
        "amplitude-inf": lambda: SignalSpec(length=4, sparsity=1,
                                            amplitude_range=(1.0, math.inf)).validate(),
    }


@pytest.mark.parametrize("case", sorted(_invalid_specs()))
def test_non_finite_spec_rejected(case):
    with pytest.raises(SpecError):
        _invalid_specs()[case]()


def _mistyped_specs():
    """Each spec with one parameter of the wrong type, as a callable that
    generates from it: sizes that are not integers (numpy integers are,
    bool is not) and numbers that are bools or not numbers."""
    conv = dict(kind="convolution", n_rows=4, n_cols=4)
    f = np.ones(3)
    return {
        "length-4.5": lambda: generate_sparse_signal(SignalSpec(length=4.5, sparsity=1)),
        "length-true": lambda: generate_sparse_signal(SignalSpec(length=True, sparsity=1)),
        "sparsity-1.5": lambda: generate_sparse_signal(SignalSpec(length=4, sparsity=1.5)),
        "n_rows-2.5": lambda: generate_operator(OperatorSpec("gaussian_random", 2.5, 3)),
        "n_rows-true": lambda: generate_operator(OperatorSpec("gaussian_random", True, 3)),
        "n_cols-3.0": lambda: generate_operator(OperatorSpec("identity", 3, np.float64(3.0))),
        "kernel-true": lambda: generate_operator(OperatorSpec(kernel=(True,), **conv)),
        "kernel-str": lambda: generate_operator(OperatorSpec(kernel=("a",), **conv)),
        "amplitude-true": lambda: generate_sparse_signal(
            SignalSpec(length=4, sparsity=1, amplitude_range=(True, True))),
        "amplitude-str": lambda: generate_sparse_signal(
            SignalSpec(length=4, sparsity=1, amplitude_range=("1", 2.0))),
        "sigma-true": lambda: synthesize_observation(
            np.eye(3), f, NoiseSpec(kind="stationary", sigma=True)),
        "ig-true": lambda: synthesize_observation(
            np.eye(3), f, NoiseSpec(kind="nonstationary", ig_alpha=True, ig_beta=True)),
        "ig_beta-str": lambda: synthesize_observation(
            np.eye(3), f, NoiseSpec(kind="nonstationary", ig_alpha=3.0, ig_beta="2")),
    }


@pytest.mark.parametrize("case", sorted(_mistyped_specs()))
def test_mistyped_spec_is_spec_error(case):
    """Non-integer sizes used to end in a bare numpy TypeError, a bool
    weight, amplitude or noise parameter was read as 1.0 and a string
    weight was a TypeError."""
    with pytest.raises(SpecError):
        _mistyped_specs()[case]()


def test_numpy_integer_sizes_are_accepted():
    """They used to overflow the splitmix64 stream's Python-int arithmetic."""
    signal = generate_sparse_signal(SignalSpec(length=np.int64(4), sparsity=np.int32(1)))
    assert bits(signal) == bits(generate_sparse_signal(SignalSpec(length=4, sparsity=1)))
    for kind in ("identity", "gaussian_random"):
        spec = OperatorSpec(kind, np.int64(3), np.int32(3))
        assert bits(generate_operator(spec)) == bits(generate_operator(OperatorSpec(kind, 3, 3)))


class TestOperator:
    def test_identity(self):
        H = generate_operator(OperatorSpec(kind="identity", n_rows=3, n_cols=3))
        assert np.array_equal(H, np.eye(3))

    def test_delta_kernel_is_identity(self):
        H = generate_operator(OperatorSpec(kind="convolution", n_rows=4, n_cols=4,
                                           kernel=(1.0,)))
        assert np.array_equal(H, np.eye(4))

    def test_smoothing_kernel_first_row(self):
        H = generate_operator(OperatorSpec(kind="convolution", n_rows=4, n_cols=4,
                                           kernel=(0.25, 0.5, 0.25)))
        assert H[0] == pytest.approx([0.5, 0.25, 0.0, 0.0])
        assert H[1] == pytest.approx([0.25, 0.5, 0.25, 0.0])
        assert H[3] == pytest.approx([0.0, 0.0, 0.25, 0.5])

    def test_gaussian_scaling_and_determinism(self):
        spec = OperatorSpec(kind="gaussian_random", n_rows=64, n_cols=32, seed=5)
        H = generate_operator(spec)
        assert np.array_equal(H, generate_operator(spec))
        # entries scaled by 1/sqrt(N): column norms concentrate near 1
        assert np.std(H) * np.sqrt(64) == pytest.approx(1.0, rel=0.1)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (33, 65), (64, 128),
                                       (128, 128)])
    @pytest.mark.parametrize("seed", [0, 7, 2 ** 63, 2 ** 64 - 1])
    def test_gaussian_matches_scalar_loop(self, shape, seed, scalar_synth):
        spec = OperatorSpec(kind="gaussian_random", n_rows=shape[0], n_cols=shape[1],
                            seed=seed)
        assert bits(generate_operator(spec)) == bits(scalar_synth.operator(spec))

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 12), m=st.integers(1, 12), data=st.data())
    def test_convolution_matches_sum_of_eyes(self, n, m, data, scalar_synth):
        # kernels up to 25 taps, wider than the 12 x 12 operators
        taps = 2 * data.draw(st.integers(0, 12)) + 1
        weight = st.one_of(st.just(-0.0), st.floats(allow_nan=False, allow_infinity=False))
        kernel = tuple(data.draw(st.lists(weight, min_size=taps, max_size=taps)))
        spec = OperatorSpec(kind="convolution", n_rows=n, n_cols=m, kernel=kernel)
        assert bits(generate_operator(spec)) == bits(scalar_synth.operator(spec))

    def test_spec_errors(self):
        with pytest.raises(SpecError):
            generate_operator(OperatorSpec(kind="identity", n_rows=3, n_cols=4))
        with pytest.raises(SpecError):
            generate_operator(OperatorSpec(kind="convolution", n_rows=4, n_cols=4,
                                           kernel=(0.5, 0.5)))


class TestObservation:
    def test_noiseless(self):
        H = np.eye(3)
        f = np.array([1.0, -2.0, 0.0])
        g, v = synthesize_observation(H, f, NoiseSpec.none(), seed=1)
        assert np.array_equal(g, f)
        assert np.all(v == 0.0)

    def test_zero_sigma_is_noiseless(self):
        H = np.eye(3)
        f = np.array([1.0, -2.0, 0.0])
        g0, v0 = synthesize_observation(H, f, NoiseSpec.stationary(0.0), seed=1)
        g1, v1 = synthesize_observation(H, f, NoiseSpec.none(), seed=1)
        assert np.array_equal(g0, g1)
        assert np.array_equal(v0, v1)

    def test_stationary_variances(self):
        H = np.ones((100, 1))
        g, v = synthesize_observation(H, np.array([0.0]), NoiseSpec.stationary(0.5),
                                      seed=4)
        assert np.all(v == 0.25)
        assert np.std(g) == pytest.approx(0.5, rel=0.3)

    def test_nonstationary_variance_mean(self):
        # IG(3, 2) has mean beta / (alpha - 1) = 1; large-sample check
        H = np.ones((100000, 1))
        _, v = synthesize_observation(H, np.array([0.0]),
                                      NoiseSpec.nonstationary(3.0, 2.0), seed=8)
        assert abs(np.mean(v) - 1.0) < 0.05

    def test_determinism(self):
        H = np.eye(8)
        f = np.arange(8.0)
        noise = NoiseSpec.nonstationary(3.0, 2.0)
        g0, v0 = synthesize_observation(H, f, noise, seed=21)
        g1, v1 = synthesize_observation(H, f, noise, seed=21)
        assert np.array_equal(g0, g1) and np.array_equal(v0, v1)
        g2, _ = synthesize_observation(H, f, noise, seed=22)
        assert not np.array_equal(g0, g2)


    @pytest.mark.parametrize("noise", [
        NoiseSpec.stationary(1e200),           # sigma ** 2 overflows
        NoiseSpec.stationary(1e-200),          # sigma ** 2 underflows to zero
        NoiseSpec.nonstationary(1.0, 1e308),   # beta / Gamma draw is inf
        NoiseSpec.nonstationary(1e-300, 1.0),  # the Gamma draw underflows to zero
    ])
    def test_unrepresentable_variances_rejected(self, noise):
        with pytest.raises(SpecError):
            synthesize_observation(np.eye(3), np.zeros(3), noise, seed=1)


class TestMetrics:
    def test_perfect_reconstruction(self):
        m = reconstruction_metrics([1.0, 0.0, 2.0], [1.0, 0.0, 2.0])
        assert m.rel_l2 == 0.0
        assert m.mse == 0.0
        assert m.support_precision == 1.0
        assert m.support_recall == 1.0

    def test_all_zero_estimate(self):
        m = reconstruction_metrics([0.0, 0.0], [3.0, 0.0])
        assert m.rel_l2 == pytest.approx(1.0)
        assert m.support_recall == 0.0

    def test_extra_support(self):
        m = reconstruction_metrics([1.0, 1.0], [1.0, 0.0])
        assert m.rel_l2 == pytest.approx(1.0)
        assert m.support_precision == pytest.approx(0.5)
        assert m.support_recall == 1.0
        assert m.mse == pytest.approx(0.5)

    def test_length_mismatch(self):
        with pytest.raises(SpecError):
            reconstruction_metrics([1.0], [1.0, 2.0])

    def test_empty_rejected(self):
        with pytest.raises(SpecError):
            reconstruction_metrics([], [])

    @pytest.mark.parametrize("threshold", [math.nan, -1.0, True, math.inf],
                             ids=["nan", "negative", "bool", "inf"])
    def test_support_threshold_must_be_finite_and_nonnegative(self, threshold):
        """Each of these used to report a perfect support precision and
        recall where the default threshold gives 0.0 and 0.0."""
        f_hat, f_true = [1.0, 0.0, 0.5, 0.0], [0.0, 3.0, 0.0, -2.0]
        m = reconstruction_metrics(f_hat, f_true)
        assert (m.support_precision, m.support_recall) == (0.0, 0.0)
        assert reconstruction_metrics(f_hat, f_true, support_threshold=0.0).support_recall == 0.0
        with pytest.raises(SpecError, match="support_threshold"):
            reconstruction_metrics(f_hat, f_true, support_threshold=threshold)


class TestRngMoments:
    def test_uniform_range_and_mean(self):
        rng = SplitMix64(1)
        us = np.array([rng.uniform() for _ in range(20000)])
        assert 0.0 <= us.min() and us.max() < 1.0
        assert abs(us.mean() - 0.5) < 0.01

    def test_normal_moments(self):
        rng = SplitMix64(2)
        xs = np.array([rng.normal() for _ in range(20000)])
        assert abs(xs.mean()) < 0.03
        assert abs(xs.var() - 1.0) < 0.05

    def test_gamma_mean(self):
        rng = SplitMix64(3)
        for shape in (0.5, 1.5, 4.0):
            xs = np.array([rng.gamma(shape) for _ in range(20000)])
            assert abs(xs.mean() - shape) < 0.1 * shape + 0.02

    def test_stream_is_stable(self):
        # first outputs of the documented splitmix64 stream for seed 0
        rng = SplitMix64(0)
        assert rng.next_u64() == 16294208416658607535


_SCALAR_DRAWS = st.one_of(
    st.tuples(st.sampled_from(["_u64s", "_normals"]), st.integers(0, 300)),
    st.tuples(st.sampled_from(["uniform", "normal"]), st.none()),
    st.tuples(st.just("gamma"), st.sampled_from([0.5, 1.0, 3.0])),
)


def _scalar_draw(rng, name, arg):
    """The draw ``name`` makes, as the scalar calls that define it."""
    if name == "_u64s":
        return [rng.next_u64() for _ in range(arg)]
    if name == "_normals":
        return bits([rng.normal() for _ in range(arg)])
    return bits([getattr(rng, name)() if arg is None else getattr(rng, name)(arg)])


def _block_draw(rng, name, arg):
    if name == "_u64s":
        return rng._u64s(arg).tolist()
    if name == "_normals":
        return bits(rng._normals(arg))
    return bits([getattr(rng, name)() if arg is None else getattr(rng, name)(arg)])


class TestBlockDraws:
    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2 ** 64 - 1), pending=st.booleans(),
           chunk=st.sampled_from([2, 3, 5, 64, bsi.rng._CHUNK]),
           draws=st.lists(_SCALAR_DRAWS, min_size=1, max_size=8))
    def test_block_draws_follow_the_scalar_stream(self, seed, pending, chunk, draws):
        block, scalar = SplitMix64(seed), SplitMix64(seed)
        if pending:  # one normal() leaves the other of its pair cached
            assert bits([block.normal()]) == bits([scalar.normal()])
        with mock.patch.object(bsi.rng, "_CHUNK", chunk):
            for name, arg in draws:
                assert _block_draw(block, name, arg) == _scalar_draw(scalar, name, arg)
                ahead, scalar_ahead = copy.copy(block), copy.copy(scalar)
                assert (bits([ahead.normal(), ahead.uniform(), ahead.normal()])
                        == bits([scalar_ahead.normal(), scalar_ahead.uniform(),
                                 scalar_ahead.normal()]))


class TestNoiselessRecovery:
    def test_identity_jmap_recovers(self):
        # tiny beta_eps pins the posterior mode to the data when g = f
        f_true = generate_sparse_signal(SignalSpec(length=12, sparsity=3,
                                                   amplitude_range=(1.0, 2.0), seed=2))
        problem = ForwardProblem(g=f_true.copy(), H=np.eye(12))
        hyper = HyperParams(alpha_eps=1.0, beta_eps=1e-10, alpha_f=1.0, beta_f=1.0)
        state, _ = solve_jmap(problem, hyper,
                              JmapConfig(max_iter=500, tol_rel_f=1e-14, tol_rel_L=1e-14))
        assert reconstruction_metrics(state.f_hat, f_true).rel_l2 < 1e-6
