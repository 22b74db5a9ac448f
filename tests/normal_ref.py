"""A pure-Python scalar reference of Stream.normals: one 64-bit word to one
standard Gaussian through the committed inverse-CDF table, with Python ints,
math.frexp and float arithmetic in place of the numpy body's bit shifts."""

import math

import numpy as np

from sspread.rng import _TABLE_FILE

KNOTS = np.load(_TABLE_FILE).tolist()
CELLS = 128


def word_of(v: int, upper: bool) -> int:
    """The word whose uniform is v * 2^-54 (odd v below 2^53), or 1 minus
    that when upper; the low 11 bits, which the draw ignores, are 0."""
    word = (v - 1) // 2 << 11
    return word ^ (2**53 - 1) << 11 if upper else word


def lookup(word: int) -> float:
    """The Gaussian Stream.normals makes of this word."""
    k = 2 * (word >> 11) + 1  # u = k * 2^-54
    upper = k > 2**53
    v = 2**54 - k if upper else k  # p = min(u, 1 - u) = v * 2^-54
    f, e = math.frexp(v)  # v = f * 2^e, 1/2 <= f < 1
    q = (2.0 * f - 1.0) * CELLS  # exact: where v lies across its octave
    c = int(q)
    i = (e - 1) * CELLS + c
    x = KNOTS[i] + (q - c) * (KNOTS[i + 1] - KNOTS[i])
    return -x if upper else x


def lookups(words: np.ndarray) -> np.ndarray:
    """lookup of every word of an array, as an array of its shape."""
    return np.array([lookup(w) for w in words.ravel().tolist()]).reshape(words.shape)
