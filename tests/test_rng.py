"""The SplitMix64 stream is pinned: literal outputs, and the block draw of
Stream.normals against the scalar normal_pair reference."""

import math

import numpy as np
import pytest

from sspread.harness import _crandn
from sspread.rng import Stream, derive_seed, splitmix64

# splitmix64(seed, counter) literals: a change here is a stream-version break
PINNED = [
    (0, 0, 0x4F16FE10986D766A),
    (1, 0, 0x7A9E8EAC4BFFD607),
    (1, 1, 0xBC83D1385EE5C18D),
    (42, 7, 0x545531147DE51C0E),
    (2**64 - 1, 3, 0x4FF9D57ECA11FBB8),
    (0x9E3779B97F4A7C15, 1000, 0x8237FA00D1EF4302),
]


@pytest.mark.parametrize("seed, counter, expected", PINNED)
def test_splitmix64_pinned_outputs(seed, counter, expected):
    assert splitmix64(seed, counter) == expected


def test_normals_pinned_values():
    s = Stream(7)
    got = [float.hex(x) for x in s.normals(5)]
    assert got == [
        "-0x1.834028079bc4cp-1", "0x1.4649096c3fb9ap-2", "-0x1.cba84ce448d97p-1",
        "0x1.9e52776e02ba7p-1", "-0x1.ed26e2e962ae7p-1",
    ]
    assert s.counter == 6
    assert s.uniform().hex() == "0x1.047837886a587p-1"


def _scalar_normals(stream: Stream, n: int) -> list[float]:
    out: list[float] = []
    while len(out) < n:
        out.extend(stream.normal_pair())
    return out[:n]


@pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 8, 63, 64, 129])
@pytest.mark.parametrize("counter", [0, 1, 5, 2**40 + 3])
@pytest.mark.parametrize("seed", [0, 3, derive_seed(11, 4), 2**64 - 1])
def test_block_normals_match_normal_pair(seed, counter, n):
    block, scalar = Stream(seed), Stream(seed)
    block.counter = scalar.counter = counter
    assert block.normals(n) == _scalar_normals(scalar, n)  # bitwise, not approx
    assert block.counter == scalar.counter
    assert block.uniform() == scalar.uniform()


def test_normals_nonpositive_count_draws_nothing():
    s = Stream(5)
    assert s.normals(0) == [] and s.normals(-4) == []
    assert s.counter == 0


@pytest.mark.parametrize("rows, cols", [(1, 1), (3, 3), (2, 4), (5, 3)])
def test_crandn_single_block_equals_two_draws(rows, cols):
    one, two = Stream(17), Stream(17)
    n = rows * cols
    re = np.array(two.normals(n))
    im = np.array(two.normals(n))
    expected = ((re + 1j * im) / math.sqrt(2.0)).reshape(rows, cols)
    assert np.array_equal(_crandn(one, rows, cols), expected)
    assert one.counter == two.counter
