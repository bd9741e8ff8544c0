import math
from types import SimpleNamespace

import numpy as np
import pytest

from bsi import SplitMix64


@pytest.fixture
def oracle_start():
    """start(problem, init) -> (config init, f0, z0), the start the solvers derive.

    ``init`` is "zeros", "least-squares" or "vector" (a fixed random
    start, passed to the config as an array).  z0 is the least-squares
    pullback lstsq(D, f0), and zero for the zero start.
    """
    def start(problem, init):
        m = problem.n_coef
        if init == "zeros":
            f0 = np.zeros(m)
        elif init == "least-squares":
            f0 = np.linalg.lstsq(problem.H, problem.g, rcond=None)[0]
        else:
            f0 = np.random.RandomState(5).randn(m)
        config_init = f0.copy() if init == "vector" else init
        if problem.D is None:
            return config_init, f0, None
        z0 = np.zeros(m) if init == "zeros" else np.linalg.lstsq(problem.D, f0, rcond=None)[0]
        return config_init, f0, z0

    return start


def _scalar_operator(spec):
    """generate_operator as loops: one eye per kernel tap, one normal() per entry."""
    if spec.kind == "identity":
        return np.eye(spec.n_rows)
    if spec.kind == "convolution":
        half = (len(spec.kernel) - 1) // 2
        H = np.zeros((spec.n_rows, spec.n_cols))
        for offset, weight in enumerate(spec.kernel):
            H += weight * np.eye(spec.n_rows, spec.n_cols, k=half - offset)
        return H
    rng = SplitMix64(spec.seed)
    scale = 1.0 / math.sqrt(spec.n_rows)
    H = np.empty((spec.n_rows, spec.n_cols))
    for i in range(spec.n_rows):
        for j in range(spec.n_cols):
            H[i, j] = rng.normal() * scale
    return H


def _scalar_observation(H, f_true, noise, seed):
    """synthesize_observation with one normal() call per sample."""
    n = H.shape[0]
    clean = H @ f_true
    if noise.kind == "none" or (noise.kind == "stationary" and noise.sigma == 0.0):
        return clean, np.zeros(n)
    rng = SplitMix64(seed)
    if noise.kind == "stationary":
        v_true = np.full(n, noise.sigma ** 2)
    else:
        v_true = np.array([rng.inverse_gamma(noise.ig_alpha, noise.ig_beta)
                           for _ in range(n)])
    eps = np.array([math.sqrt(v_true[i]) * rng.normal() for i in range(n)])
    return clean + eps, v_true


def _scalar_matrix_text(matrix):
    """The text write_matrix writes, with one repr per entry."""
    a = np.asarray(matrix, dtype=float)
    if a.ndim == 1:
        a = a[:, None]
    return f"# rows={a.shape[0]} cols={a.shape[1]}\n" + "".join(
        ",".join(repr(float(v)) for v in row) + "\n" for row in a)


@pytest.fixture(scope="session")
def scalar_synth():
    """The synthetic-data path drawn and written one scalar at a time.

    ``operator(spec)``, ``observation(H, f_true, noise, seed)`` and
    ``matrix_text(matrix)`` are the block-free references that
    generate_operator, synthesize_observation and write_matrix must
    match bit for bit and byte for byte.
    """
    return SimpleNamespace(operator=_scalar_operator, observation=_scalar_observation,
                           matrix_text=_scalar_matrix_text)
