"""A fixed calibration task that gauges how fast the machine runs right now.

On a shared machine the same Python-and-numpy work can run 15% faster or
slower from one half-minute to the next, while the ratio between two such
workloads run side by side stays within about 1%. Each workload therefore
interleaves units of this task with its own operations, and the end-to-end
times are reported at the reference speed: an operation's raw time t becomes
t * NOMINAL / unit, where unit is the mean time of the reference units run
just before and after it. The task never calls sspread, so a change to
sspread moves the workload and leaves the reference alone.

A unit is a frozen miniature of the verifier pipeline: a pure-Python
SplitMix64 Gaussian draw, Hermitian validation, eigh and SVD, the compact
scale, the spread and its partial-sum margins. The small unit works at dims
2..8 like a fuzz campaign; the large unit at dims 32..64 like replay-large.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time

import numpy as np

# seconds per unit on the machine the benchmark was tuned on (2-core x86,
# Python 3.11, numpy 2.4, OpenBLAS on one thread); only the ratio matters
NOMINAL = {"small": 0.0087, "large": 0.0100}
_MASK = (1 << 64) - 1


def _normals(seed: int, n: int) -> list[float]:
    out: list[float] = []
    c = 0
    while len(out) < n:
        u = []
        for _ in range(2):
            z = (seed + (c + 1) * 0x9E3779B97F4A7C15) & _MASK
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4B8B1) & _MASK
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
            u.append(((z ^ (z >> 31)) >> 11) * 2.0**-53)
            c += 1
        r = math.sqrt(-2.0 * math.log(1.0 - u[0]))
        out += [r * math.cos(2.0 * math.pi * u[1]), r * math.sin(2.0 * math.pi * u[1])]
    return out[:n]


def _judge(h: np.ndarray, g: np.ndarray) -> float:
    """Validate, decompose and compare one matrix pair; returns the worst margin."""
    scale = max(1.0, float(np.max(np.abs(h))))
    if float(np.max(np.abs(h - h.conj().T))) > 1e-10 * scale:
        raise ValueError("reference matrix is not Hermitian")
    if not np.all(np.isfinite(g.real)):
        raise ValueError("reference matrix is not finite")
    d = h.shape[0]
    w = np.linalg.eigh(h)[0][::-1].copy()
    s = np.linalg.svd(g, compute_uv=False)
    pos = np.concatenate([np.sort(w[w > 0.0])[::-1], np.zeros(2 * d)])[: 2 * d]
    neg = np.concatenate([np.sort(w[w < 0.0]), np.zeros(2 * d)])[: 2 * d]
    spread = pos - neg
    if np.any(np.diff(spread) > 1e-12 * max(1.0, float(np.max(spread)))):
        raise ValueError("reference spread is not non-increasing")
    lhs = np.concatenate([s, np.zeros(2 * d - len(s))]) * np.linalg.norm(h, 2) / max(s[0], 1e-300)
    return float(np.min(np.cumsum(spread) - np.cumsum(lhs) / 4.0))


class Reference:
    """Runs reference units and keeps their count and total time."""

    def __init__(self, kind: str, seed: int):
        self.kind = kind
        self.units = 0
        self.seconds = 0.0
        self.ends: list[float] = []
        self.durations: list[float] = []
        self._seed = seed
        rng = np.random.default_rng(seed)
        self._large = []
        for d in (32, 48, 64):
            g = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / math.sqrt(2.0)
            self._large.append(((g + g.conj().T) / 2.0, g))

    def _small_unit(self) -> float:
        worst = math.inf
        for rep in range(4):
            for d in range(2, 9):
                z = _normals(self._seed * 64 + rep * 8 + d, 2 * d * d)
                g = (np.array(z[: d * d]) + 1j * np.array(z[d * d:])).reshape(d, d)
                worst = min(worst, _judge((g + g.conj().T) / 2.0, g))
        return worst

    def _large_unit(self) -> float:
        worst = math.inf
        for h, g in self._large:
            worst = min(worst, _judge(h, g), _judge(h @ h, g @ h))
            _normals(self._seed, 2 * h.shape[0])  # the Python share of a verifier call
        return worst

    def unit(self) -> None:
        """Run one unit and account its time."""
        t0 = time.perf_counter()
        self._small_unit() if self.kind == "small" else self._large_unit()
        t1 = time.perf_counter()
        self.seconds += t1 - t0
        self.units += 1
        self.ends.append(t1)
        self.durations.append(t1 - t0)

    @property
    def slowdown(self) -> float:
        """Mean unit time over its nominal: above 1 when the machine runs slow."""
        return self.seconds / self.units / NOMINAL[self.kind]

    def slowdown_at(self, t: float, half: int = 3) -> float:
        """Slowdown over the `half` units before and after the clock reading t."""
        i = bisect.bisect(self.ends, t)
        window = self.durations[max(0, i - half): i + half]
        return statistics.fmean(window) / NOMINAL[self.kind]
