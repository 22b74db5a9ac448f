"""Counter-based deterministic random stream.

The generator is SplitMix64 (Steele, Lea, Flood 2014) used in counter mode:
output(seed, n) = finalize(seed + (n+1) * GOLDEN) where finalize is the
standard 64-bit avalanche. Gaussians come from Box-Muller on consecutive
53-bit uniforms. The stream for a given seed is therefore a pure function of
(seed, counter), reproducible across processes and platforms.

Stream.normals computes a whole block of counter words in one numpy uint64
expression; the Box-Muller transcendentals stay on the math module, so the
block yields bit for bit the values of repeated normal_pair calls.
"""

from __future__ import annotations

import math

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4B8B1
_MIX2 = 0x94D049BB133111EB


def splitmix64(seed: int, counter: int) -> int:
    """n-th 64-bit output of the SplitMix64 stream for this seed."""
    z = (seed + (counter + 1) * _GOLDEN) & _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


# normal_pair evaluates 2.0 * math.pi * u2 left to right, i.e. _TWO_PI * u2
_TWO_PI = 2.0 * math.pi
# numpy uint64 twins of the constants and shifts, built once
_U_GOLDEN, _U_MIX1, _U_MIX2 = np.uint64(_GOLDEN), np.uint64(_MIX1), np.uint64(_MIX2)
_U11, _U27, _U30, _U31 = (np.uint64(k) for k in (11, 27, 30, 31))


def _splitmix64_block(seed: int, counter: int, n: int) -> np.ndarray:
    """splitmix64(seed, counter + i) for i in 0..n-1, as a uint64 array."""
    z = np.arange(n, dtype=np.uint64)
    z *= _U_GOLDEN
    z += np.uint64((seed + (counter + 1) * _GOLDEN) & _MASK)
    z ^= z >> _U30
    z *= _U_MIX1
    z ^= z >> _U27
    z *= _U_MIX2
    z ^= z >> _U31
    return z


def derive_seed(seed: int, index: int) -> int:
    """Child seed for a numbered subtask (fuzz trial, generator draw)."""
    return splitmix64(seed & _MASK, index)


class Stream:
    """Sequential view over the counter-based stream."""

    def __init__(self, seed: int):
        self.seed = seed & _MASK
        self.counter = 0

    def next_u64(self) -> int:
        z = splitmix64(self.seed, self.counter)
        self.counter += 1
        return z

    def uniform(self) -> float:
        """Uniform in [0, 1) with 53-bit resolution."""
        return (self.next_u64() >> 11) * 2.0**-53

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi]. Modulo bias is irrelevant at our ranges."""
        if hi < lo:
            raise ValueError(f"empty range [{lo}, {hi}]")
        return lo + self.next_u64() % (hi - lo + 1)

    def normal_pair(self) -> tuple[float, float]:
        # u1 shifted into (0, 1] so log() is safe
        u1 = 1.0 - self.uniform()
        u2 = self.uniform()
        r = math.sqrt(-2.0 * math.log(u1))
        t = 2.0 * math.pi * u2
        return r * math.cos(t), r * math.sin(t)

    def normals(self, n: int) -> list[float]:
        """n standard Gaussians: the first n values of ceil(n/2) normal_pair draws."""
        if n <= 0:
            return []
        m = n + (n & 1)
        u = ((_splitmix64_block(self.seed, self.counter, m) >> _U11) * 2.0**-53).tolist()
        self.counter += m
        log, sqrt, cos, sin = math.log, math.sqrt, math.cos, math.sin
        out: list[float] = []
        for i in range(0, m, 2):
            r = sqrt(-2.0 * log(1.0 - u[i]))
            t = _TWO_PI * u[i + 1]
            out.append(r * cos(t))
            out.append(r * sin(t))
        return out[:n]
