"""Seedable, platform-portable random generator for the synthesizers.

The core stream is splitmix64: the 64-bit state advances by the constant
0x9E3779B97F4A7C15 and each output is the finalizer

    z ^= z >> 30; z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27; z *= 0x94D049BB133111EB
    z ^= z >> 31

(all mod 2^64).  Uniform doubles take the top 53 bits; normals come from
the Box-Muller transform (pairs, one cached); Gamma variates use the
Marsaglia-Tsang squeeze (shape >= 1, boosted from shape + 1 otherwise)
and Inverse-Gamma variates are beta / Gamma(alpha, scale=1).  Every draw
is a pure function of the seed, so runs are bit-reproducible across
platforms and library versions.

The stream is counter-based (Steele, Lea & Flood, OOPSLA 2014): output
``i`` after state ``s`` is ``mix(s + i * 0x9E3779B97F4A7C15)``.  So the
private block draws ``_u64s(n)`` and ``_normals(n)`` compute n draws at
once in wrapping ``uint64`` arithmetic, in chunks of ``_CHUNK`` draws so
that temporaries stay small, and leave the generator exactly where n
scalar calls would: ``_normals`` returns a pending cached normal first
and caches the odd last value.  They return the scalar methods' bits.
NumPy does the finalizer, the integer-to-double conversions, the
products and ``sqrt`` (all exact or correctly rounded); ``log``, ``sin``
and ``cos`` go through :mod:`math`, because ``np.log`` and ``math.log``
round differently on some inputs.
"""

from __future__ import annotations

import math

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_CHUNK = 1 << 12  # block draws per chunk: 32 KiB per uint64 temporary


class SplitMix64:
    """splitmix64 stream with uniform / normal / gamma / inverse-gamma draws."""

    def __init__(self, seed: int):
        self._state = int(seed) & _MASK
        self._cached_normal = None

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """Uniform double in [0, 1) from the top 53 bits."""
        return (self.next_u64() >> 11) * 2.0 ** -53

    def uniform_open(self) -> float:
        """Uniform double in (0, 1], safe as a log argument."""
        return ((self.next_u64() >> 11) + 1) * 2.0 ** -53

    def randint(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection from the 64-bit stream."""
        if n <= 0:
            raise ValueError("n must be positive")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n

    def normal(self) -> float:
        """Standard normal via Box-Muller; draws two, caches one."""
        if self._cached_normal is not None:
            value, self._cached_normal = self._cached_normal, None
            return value
        u1 = self.uniform_open()
        u2 = self.uniform()
        r = math.sqrt(-2.0 * math.log(u1))
        self._cached_normal = r * math.sin(2.0 * math.pi * u2)
        return r * math.cos(2.0 * math.pi * u2)

    def _u64s(self, n: int) -> np.ndarray:
        """The next n outputs of :meth:`next_u64`, as one ``uint64`` array."""
        out = np.empty(n, dtype=np.uint64)
        for start in range(0, n, _CHUNK):
            count = min(_CHUNK, n - start)
            z = np.arange(1, count + 1, dtype=np.uint64)
            z *= np.uint64(_GOLDEN)
            z += np.uint64(self._state)
            self._state = (self._state + count * _GOLDEN) & _MASK
            z ^= z >> np.uint64(30)
            z *= np.uint64(_MIX1)
            z ^= z >> np.uint64(27)
            z *= np.uint64(_MIX2)
            z ^= z >> np.uint64(31)
            out[start:start + count] = z
        return out

    def _normals(self, n: int) -> np.ndarray:
        """The next n outputs of :meth:`normal`, as one float array."""
        out = np.empty(n)
        done = 0
        if n and self._cached_normal is not None:
            out[0], self._cached_normal = self._cached_normal, None
            done = 1
        while done < n:
            pairs = min(_CHUNK // 2, (n - done + 1) // 2)
            bits = self._u64s(2 * pairs) >> np.uint64(11)
            u1 = (bits[0::2] + np.uint64(1)) * 2.0 ** -53
            theta = (2.0 * math.pi) * (bits[1::2] * 2.0 ** -53)
            r = np.sqrt(-2.0 * np.fromiter(map(math.log, u1.tolist()), float, pairs))
            block = np.empty(2 * pairs)
            block[0::2] = r * np.fromiter(map(math.cos, theta.tolist()), float, pairs)
            block[1::2] = r * np.fromiter(map(math.sin, theta.tolist()), float, pairs)
            take = min(2 * pairs, n - done)
            out[done:done + take] = block[:take]
            if take < 2 * pairs:
                self._cached_normal = float(block[-1])
            done += take
        return out

    def gamma(self, shape: float) -> float:
        """Gamma(shape, scale=1) via Marsaglia-Tsang rejection."""
        if shape <= 0:
            raise ValueError("shape must be positive")
        if shape < 1.0:
            # boost: Gamma(a) = Gamma(a + 1) * U^(1/a)
            return self.gamma(shape + 1.0) * self.uniform_open() ** (1.0 / shape)
        d = shape - 1.0 / 3.0
        c = 1.0 / math.sqrt(9.0 * d)
        while True:
            x = self.normal()
            t = 1.0 + c * x
            if t <= 0.0:
                continue
            v = t * t * t
            u = self.uniform_open()
            if u < 1.0 - 0.0331 * x * x * x * x:
                return d * v
            if math.log(u) < 0.5 * x * x + d * (1.0 - v + math.log(v)):
                return d * v

    def inverse_gamma(self, alpha: float, beta: float) -> float:
        """Inverse-Gamma(alpha, beta) as beta / Gamma(alpha, scale=1)."""
        if alpha <= 0 or beta <= 0:
            raise ValueError("alpha and beta must be positive")
        return beta / self.gamma(alpha)
