"""The SplitMix64 stream is pinned: literal outputs, the block draw of
Stream.normals against the scalar normal_pair reference, and every row of a
batch stream against the scalar stream of its seed."""

import math

import numpy as np
import pytest

from sspread.harness import _crandn
from sspread.rng import Stream, _splitmix64_block, derive_seed, splitmix64

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


BATCH = np.array([0, 3, derive_seed(11, 4), 2**64 - 1, 3], dtype=np.uint64)


@pytest.mark.parametrize("counter", [0, 5, 2**40 + 3])
def test_batch_block_rows_are_the_seed_blocks(counter):
    block = _splitmix64_block(BATCH, counter, 9)
    assert block.shape == (5, 9)
    for b, seed in enumerate(BATCH.tolist()):
        assert block[b].tolist() == _splitmix64_block(seed, counter, 9).tolist()
        assert block[b, 4] == splitmix64(seed, counter + 4)


@pytest.mark.parametrize("n", [0, 1, 2, 7, 64, 129])
@pytest.mark.parametrize("counter", [0, 1, 2**40 + 3])
def test_batch_draws_are_the_scalar_draws_row_by_row(counter, n):
    # one sequence of every kind of draw on a batch, then on each seed alone
    batch = Stream(BATCH)
    batch.counter = counter
    got = [batch.next_u64(), batch.uniform(), batch.randint(3, 9), batch.uniforms(n),
           batch.normals(n), batch.randint(0, 2**40), batch.normals(3)]
    assert batch.shape == (5,)
    assert [g.shape for g in got] == [(5,), (5,), (5,), (5, n), (5, n), (5,), (5, 3)]
    for b, seed in enumerate(BATCH.tolist()):
        one = Stream(seed)
        one.counter = counter
        ref = [one.next_u64(), one.uniform(), one.randint(3, 9), one.uniforms(n),
               one.normals(n), one.randint(0, 2**40), one.normals(3)]
        assert [g[b].tolist() for g in got] == ref  # bitwise, not approx
        assert one.counter == batch.counter


def test_scalar_stream_keeps_python_types():
    s = Stream(-5)
    assert s.shape == () and s.seed == 2**64 - 5
    assert type(s.next_u64()) is int and type(s.uniform()) is float
    assert type(s.randint(1, 4)) is int
    assert isinstance(s.normals(3), list) and isinstance(s.uniforms(3), list)


def test_take_keeps_the_counter():
    batch = Stream(BATCH)
    batch.normals(5)
    sub = batch.take(np.array([4, 1]))
    assert sub.counter == batch.counter and sub.seeds.tolist() == BATCH[[4, 1]].tolist()
    assert sub.normals(4).tolist() == batch.normals(4)[[4, 1]].tolist()
    one = Stream(7)
    one.uniform()
    copy = one.take(slice(None))
    assert copy.shape == () and copy.uniform() == one.uniform()


def test_batch_seeds_must_be_one_dimensional():
    with pytest.raises(ValueError, match="1-d"):
        Stream(np.zeros((2, 2), dtype=np.uint64))


@pytest.mark.parametrize("rows, cols", [(1, 1), (3, 3), (2, 4)])
def test_crandn_batch_rows_are_scalar_draws(rows, cols):
    got = _crandn(Stream(BATCH), rows, cols)
    assert got.shape == (5, rows, cols)
    for b, seed in enumerate(BATCH.tolist()):
        assert got[b].tobytes() == _crandn(Stream(seed), rows, cols).tobytes()
