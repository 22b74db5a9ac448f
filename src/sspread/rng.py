"""Counter-based deterministic random stream.

The generator is SplitMix64 (Steele, Lea, Flood 2014) used in counter mode:
output(seed, n) = finalize(seed + (n+1) * GOLDEN) where finalize is the
standard 64-bit avalanche. Each Gaussian is the inverse normal CDF of one
word's 53-bit uniform, read off a committed table of Phi^-1 knots by integer
shifts and masks and one multiply-add (_normals_of). Every step is an
integer op or a correctly rounded IEEE operation, with no call into the C
library's log, cos or sin, so the stream for a given seed is a pure function
of (seed, counter), bit for bit on every platform.

A Stream carries a batch of seeds with one shared counter, so a draw takes
the same counter words from every seed's stream and row b of a batch draw is
bit for bit what a stream of seed b alone would draw. A stream of one int
seed is a batch of one that returns Python numbers. Every draw has one body,
and computes its own words for the whole batch in one numpy uint64
expression.
"""

from __future__ import annotations

import functools
from pathlib import Path

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


# numpy uint64 twins of the constants and shifts, built once as 0-d arrays,
# which numpy's ufuncs take faster than numpy scalars
_U_GOLDEN, _U_MIX1, _U_MIX2, _U1, _U10, _U11, _U27, _U30, _U31 = (
    np.array(k, dtype=np.uint64) for k in (_GOLDEN, _MIX1, _MIX2, 1, 10, 11, 27, 30, 31))
_I63 = np.array(63, dtype=np.int64)

# the inverse-CDF table (tools/make_normal_table.py): 53 binary octaves of
# p in (0, 1/2), 128 cells each. The float bits of v = p * 2^54 shifted right
# by _CELL_SHIFT are v's exponent and top 7 mantissa bits; less those of
# v = 1 (_I_BASE), they index v's cell, and the low bits place v across it
_TABLE_FILE = Path(__file__).with_name("normal_table.npy")
_CELL_SHIFT = 45
_U_SHIFT, _I_BASE, _U_FRAC, _U_SIGN = (
    np.array(k, dtype=dt) for k, dt in ((_CELL_SHIFT, np.uint64),
                                        (1023 << (52 - _CELL_SHIFT), np.int64),
                                        ((1 << _CELL_SHIFT) - 1, np.uint64),
                                        (1 << 63, np.uint64)))


@functools.cache
def _normal_table() -> tuple[np.ndarray, np.ndarray]:
    """(knot, slope) of every cell, read from the package's table on first
    use: Phi^-1 at the cell's left end, and the step to the next knot times
    2^-_CELL_SHIFT, the weight of one unit of a cell's offset bits (a power
    of two, so the product is exact)."""
    knots = np.load(_TABLE_FILE, allow_pickle=False)
    return knots[:-1], np.diff(knots) * 2.0**-_CELL_SHIFT


def _splitmix64_block(seed, counter: int, n: int) -> np.ndarray:
    """splitmix64(seed, counter + i) for i in 0..n-1, as a uint64 array.

    seed is an int, giving shape (n,), or a 1-d uint64 array of B seeds,
    giving (B, n) with row b the block of seed b.
    """
    # (counter + 1 + i) * GOLDEN, wrapping mod 2^64 as the scalar form's mask
    z = np.arange(counter + 1, counter + 1 + n, dtype=np.uint64)
    z *= _U_GOLDEN
    if not isinstance(seed, np.ndarray):
        seed = np.array(seed & _MASK, dtype=np.uint64)
    z = seed[..., None] + z
    shifted = np.empty_like(z)
    z ^= np.right_shift(z, _U30, out=shifted)
    z *= _U_MIX1
    z ^= np.right_shift(z, _U27, out=shifted)
    z *= _U_MIX2
    z ^= np.right_shift(z, _U31, out=shifted)
    return z


def _normals_of(w: np.ndarray) -> np.ndarray:
    """The standard Gaussian of each word of a (B, n) uint64 array.

    Word w gives u = (m + 1/2) * 2^-53 with m = w >> 11, so u lies in
    (0, 1) and w and ~w give u and 1 - u. p = min(u, 1 - u) = v * 2^-54
    with v = 2m' + 1 odd, m' being m or, when u > 1/2 (the top bit of w),
    m with its 53 bits flipped. v < 2^53 is exact as a float: its
    exponent and its top 7 mantissa bits name the cell of the table, and
    its other 45 bits the offset t in [0, 1) across the cell. The value
    knot + t * slope is Phi^-1(p) to within 4e-6 (a knot itself for
    v < 2^8, as deep as p = 2^-54), and its sign is flipped when
    u > 1/2, so x(~w) = -x(w) bit for bit.
    """
    knot, slope = _normal_table()
    # flipping all 64 bits of w when its top bit is set leaves that bit 0
    # and m' in bits 11..63, so bits 10..63 with bit 0 set are v = 2m' + 1
    v = w ^ (w.view(np.int64) >> _I63).view(np.uint64)
    v >>= _U10
    v |= _U1
    bits = v.astype(np.float64).view(np.uint64)
    cell = (bits >> _U_SHIFT).view(np.int64)
    cell -= _I_BASE
    bits &= _U_FRAC
    x = bits.astype(np.float64)
    x *= slope.take(cell)
    x += knot.take(cell)
    x.view(np.uint64)[...] ^= w & _U_SIGN
    return x


def derive_seed(seed: int, index: int) -> int:
    """Child seed for a numbered subtask (fuzz trial, generator draw)."""
    return splitmix64(seed & _MASK, index)


class Stream:
    """Sequential view over the counter-based streams of a batch of seeds.

    Every seed of the batch shares one counter, so a draw takes the same
    counter words from each seed's stream. Stream(seeds) with a 1-d uint64
    array of B seeds has `shape` (B,): a single draw returns a (B,) array and
    a draw of n values a (B, n) array, row b being what Stream(int(seeds[b]))
    draws at the same counter. Stream(seed) with an int seed is the scalar
    stream: it draws as a batch of one and hands back row 0 as Python
    numbers, so `shape` is (), next_u64, uniform and randint return Python
    numbers, and uniforms and normals return lists.

    counter may be set by hand: the words are a function of the counter
    alone.
    """

    def __init__(self, seed):
        if isinstance(seed, np.ndarray):
            if seed.ndim != 1:
                raise ValueError(f"a batch of seeds is a 1-d array, got shape {seed.shape}")
            self.seeds = seed.astype(np.uint64, copy=False)
            self.seed = None
            self.shape = self.seeds.shape
        else:
            self.seed = seed & _MASK
            self.seeds = np.array([self.seed], dtype=np.uint64)
            self.shape = ()
        self.counter = 0

    def take(self, rows) -> Stream:
        """The streams of these rows of the batch (an index array or a slice),
        at the current counter; on the scalar stream, a copy of it."""
        sub = Stream(self.seeds[rows] if self.shape else self.seed)
        sub.counter = self.counter
        return sub

    def _words(self, n: int) -> np.ndarray:
        """The next n counter words of every row: (B, n) uint64."""
        words = _splitmix64_block(self.seeds, self.counter, n)
        self.counter += n
        return words

    def _out(self, x: np.ndarray):
        """A draw (B, ...) as this stream returns it: row 0 as Python
        numbers on the scalar stream."""
        return x if self.shape else x[0].tolist()

    def next_u64(self):
        return self._out(self._words(1)[:, 0])

    def uniform(self):
        """Uniform in [0, 1) with 53-bit resolution."""
        return self._out((self._words(1)[:, 0] >> _U11) * 2.0**-53)

    def uniforms(self, n: int):
        """n consecutive uniform() draws of every row."""
        return self._out((self._words(max(n, 0)) >> _U11) * 2.0**-53)

    def randint(self, lo: int, hi):
        """Uniform integer in [lo, hi]. Modulo bias is irrelevant at our ranges.

        hi may be an array of upper bounds: one word is drawn per bound, in
        order, as that many scalar-bound calls would draw them, and the
        result carries the bounds' shape after the batch axis.
        """
        if isinstance(hi, int):
            if hi < lo:
                raise ValueError(f"empty range [{lo}, {hi}]")
            return self._out(lo + (self._words(1)[:, 0] % (hi - lo + 1)).astype(np.int64))
        span = np.asarray(hi) - lo + 1
        if np.any(span < 1):
            raise ValueError(f"empty range [{lo}, {hi}]")
        z = self._words(span.size).reshape(self.seeds.shape + span.shape)
        return self._out(lo + (z % span.astype(np.uint64)).astype(np.int64))

    def normals(self, n: int):
        """n standard Gaussians per row, the _normals_of n words, a list on
        the scalar stream; n + (n & 1) words are drawn, the last one unused
        for odd n."""
        n = max(n, 0)
        return self._out(_normals_of(self._words(n + (n & 1))[:, :n]))
