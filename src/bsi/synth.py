"""Synthetic sparse problems and reconstruction metrics.

Generates spike trains, forward operators (identity, zero-padded
convolution, scaled Gaussian random) and observations under stationary
or non-stationary noise, the latter drawing one Inverse-Gamma variance
per sample and then a zero-mean normal with that variance.  Everything
is a pure function of its spec and seed through the splitmix64 stream
in :mod:`bsi.rng`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .rng import SplitMix64


class SpecError(ValueError):
    """Generator specification is internally inconsistent."""


@dataclass(frozen=True)
class SignalSpec:
    """Sparse spike-train description: length, support size, amplitudes, seed."""

    length: int
    sparsity: int
    amplitude_range: Tuple[float, float] = (1.0, 2.0)
    seed: int = 0

    def validate(self):
        if self.length < 1:
            raise SpecError("length must be >= 1")
        if not 0 <= self.sparsity <= self.length:
            raise SpecError("sparsity must lie in 0..length")
        low, high = self.amplitude_range
        if not (0 < low <= high < math.inf):  # NaN fails too
            raise SpecError("amplitude_range must satisfy 0 < low <= high < inf")


@dataclass(frozen=True)
class OperatorSpec:
    """Forward-operator description.

    kind is "identity", "convolution" (odd kernel, zero-padded boundary)
    or "gaussian_random" (iid standard normal entries scaled by
    1/sqrt(N)).
    """

    kind: str
    n_rows: int
    n_cols: int
    kernel: Optional[Tuple[float, ...]] = None
    seed: int = 0

    def validate(self):
        if self.kind not in ("identity", "convolution", "gaussian_random"):
            raise SpecError(f"unknown operator kind {self.kind!r}")
        if self.n_rows < 1 or self.n_cols < 1:
            raise SpecError("operator dimensions must be >= 1")
        if self.kind == "identity" and self.n_rows != self.n_cols:
            raise SpecError("identity operator requires N = M")
        if self.kind == "convolution":
            if not self.kernel or len(self.kernel) % 2 == 0:
                raise SpecError("convolution kernel length must be odd")
            if not all(math.isfinite(w) for w in self.kernel):
                raise SpecError("convolution kernel weights must be finite")


@dataclass(frozen=True)
class NoiseSpec:
    """Observation noise: none, stationary(sigma) or nonstationary(alpha, beta)."""

    kind: str = "none"
    sigma: float = 0.0
    ig_alpha: float = 0.0
    ig_beta: float = 0.0

    @classmethod
    def none(cls):
        return cls(kind="none")

    @classmethod
    def stationary(cls, sigma: float):
        return cls(kind="stationary", sigma=float(sigma))

    @classmethod
    def nonstationary(cls, ig_alpha: float, ig_beta: float):
        return cls(kind="nonstationary", ig_alpha=float(ig_alpha), ig_beta=float(ig_beta))

    def validate(self):
        if self.kind not in ("none", "stationary", "nonstationary"):
            raise SpecError(f"unknown noise kind {self.kind!r}")
        # the comparisons are written so that NaN fails them
        if self.kind == "stationary" and not 0 <= self.sigma < math.inf:
            raise SpecError("sigma must be finite and >= 0")
        if self.kind == "nonstationary" and not (0 < self.ig_alpha < math.inf
                                                 and 0 < self.ig_beta < math.inf):
            raise SpecError("nonstationary noise needs finite alpha, beta > 0")


def generate_sparse_signal(spec: SignalSpec) -> np.ndarray:
    """Spike train with exactly K nonzeros at distinct uniform positions.

    Magnitudes are uniform in the amplitude range with random signs;
    identical seeds give bitwise-identical vectors.
    """
    spec.validate()
    rng = SplitMix64(spec.seed)
    signal = np.zeros(spec.length)
    # partial Fisher-Yates over the index list for distinct positions
    indices = list(range(spec.length))
    for k in range(spec.sparsity):
        swap = k + rng.randint(spec.length - k)
        indices[k], indices[swap] = indices[swap], indices[k]
    low, high = spec.amplitude_range
    for k in range(spec.sparsity):
        magnitude = low + (high - low) * rng.uniform()
        sign = 1.0 if rng.uniform() < 0.5 else -1.0
        signal[indices[k]] = sign * magnitude
    return signal


def generate_operator(spec: OperatorSpec) -> np.ndarray:
    """Dense operator per spec: identity, banded Toeplitz, or random Gaussian."""
    spec.validate()
    if spec.kind == "identity":
        return np.eye(spec.n_rows)
    n, m = spec.n_rows, spec.n_cols
    if spec.kind == "convolution":
        half = (len(spec.kernel) - 1) // 2
        H = np.zeros((n, m))
        for offset, weight in enumerate(spec.kernel):
            diag = half - offset  # kernel center sits on the main diagonal
            rows = np.arange(max(0, -diag), min(n, m - diag))
            H[rows, rows + diag] = weight + 0.0  # a -0.0 weight stores +0.0
        return H
    # row-major draws, one normal per entry
    H = SplitMix64(spec.seed)._normals(n * m).reshape(n, m)
    H *= 1.0 / math.sqrt(n)
    return H


def synthesize_observation(H: np.ndarray, f_true: np.ndarray, noise: NoiseSpec,
                           seed: int = 0):
    """g = H f + eps under the requested noise model.

    Returns (g, v_eps_true); the per-sample ground-truth variances are
    zero-filled for noiseless data so downstream evaluation can tell the
    cases apart.  Noise whose variances overflow, or underflow to zero,
    raises SpecError.
    """
    noise.validate()
    H = np.asarray(H, dtype=float)
    f_true = np.asarray(f_true, dtype=float).reshape(-1)
    if H.ndim != 2 or H.shape[1] != f_true.shape[0]:
        raise SpecError(f"H {H.shape} is not compatible with f of length {f_true.size}")
    n = H.shape[0]
    clean = H @ f_true
    if noise.kind == "none" or (noise.kind == "stationary" and noise.sigma == 0.0):
        return clean, np.zeros(n)
    rng = SplitMix64(seed)
    try:
        if noise.kind == "stationary":
            v_true = np.full(n, noise.sigma ** 2)
        else:
            v_true = np.array([rng.inverse_gamma(noise.ig_alpha, noise.ig_beta)
                               for _ in range(n)])
    except (OverflowError, ZeroDivisionError) as exc:  # sigma**2, beta / Gamma draw
        raise SpecError(f"noise variances out of the float range: {exc}") from exc
    if not np.all((v_true > 0) & (v_true < math.inf)):
        raise SpecError("noise variances must be finite and > 0")
    eps = np.sqrt(v_true) * rng._normals(n)
    return clean + eps, v_true


@dataclass(frozen=True)
class ReconstructionMetrics:
    rel_l2: float
    mse: float
    support_precision: float
    support_recall: float

    def as_dict(self) -> dict:
        return {
            "rel_l2": self.rel_l2, "mse": self.mse,
            "support_precision": self.support_precision,
            "support_recall": self.support_recall,
        }


def reconstruction_metrics(f_hat, f_true, support_threshold: float = 0.01) -> ReconstructionMetrics:
    """Relative l2 error, MSE and support precision/recall.

    Support membership uses |value| > support_threshold * max|f_true|
    (default 1 percent of the peak).  Empty sets resolve to: precision 1
    when nothing is predicted and nothing is true, 0 when predictions
    are missing against a nonempty truth; recall 1 for an empty truth.
    Vectors of unequal or zero length raise SpecError.
    """
    f_hat = np.asarray(f_hat, dtype=float).reshape(-1)
    f_true = np.asarray(f_true, dtype=float).reshape(-1)
    if f_hat.shape != f_true.shape:
        raise SpecError("f_hat and f_true must have equal lengths")
    if not f_true.size:
        raise SpecError("f_hat and f_true must not be empty")
    diff = f_hat - f_true
    denom = max(float(np.linalg.norm(f_true)), np.finfo(float).tiny)
    rel_l2 = float(np.linalg.norm(diff)) / denom
    mse = float(diff @ diff) / f_true.size
    cut = support_threshold * float(np.max(np.abs(f_true)))
    predicted = np.abs(f_hat) > cut
    actual = np.abs(f_true) > cut
    tp = int(np.sum(predicted & actual))
    n_pred, n_true = int(predicted.sum()), int(actual.sum())
    if n_pred == 0:
        precision = 1.0 if n_true == 0 else 0.0
    else:
        precision = tp / n_pred
    recall = 1.0 if n_true == 0 else tp / n_true
    return ReconstructionMetrics(rel_l2, mse, precision, recall)
