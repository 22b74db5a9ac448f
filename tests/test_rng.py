"""The SplitMix64 stream is pinned: literal outputs, the draws of
Stream.normals against the pure-Python lookup of tests/normal_ref.py, their
distribution and their distance from Phi^-1, and every row of a batch stream
against the scalar stream of its seed."""

import cmath
import importlib.util
import math
import statistics
from pathlib import Path

import numpy as np
import pytest

from normal_ref import lookup, lookups, word_of
from sspread import rng
from sspread.harness import _crandn, _crandns
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
        "-0x1.216af3c3c34b9p-1", "-0x1.47277adfacc4ep-3", "0x1.77b958e5412cfp-5",
        "-0x1.301696e7bead8p-2", "0x1.ba066541b7cd6p-3",
    ]
    assert s.counter == 6
    assert s.uniform().hex() == "0x1.047837886a587p-1"


@pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 8, 63, 64, 129])
@pytest.mark.parametrize("counter", [0, 1, 5, 2**40 + 3])
@pytest.mark.parametrize("seed", [0, 3, derive_seed(11, 4), 2**64 - 1])
def test_block_normals_match_the_scalar_lookup(seed, counter, n):
    block = Stream(seed)
    block.counter = counter
    want = [lookup(splitmix64(seed, counter + i)) for i in range(n)]
    assert block.normals(n) == want  # bitwise, not approx
    # one word per value, and an odd count skips a word
    assert block.counter == counter + n + (n & 1)
    assert block.next_u64() == splitmix64(seed, block.counter - 1)


def test_normals_nonpositive_count_draws_nothing():
    s = Stream(5)
    assert s.normals(0) == [] and s.normals(-4) == []
    assert s.counter == 0


# -- the inverse-CDF lookup against the normal distribution

DRAWS = np.asarray(Stream(np.arange(100, dtype=np.uint64)).normals(10_000)).ravel()


def test_normals_moments():
    n = len(DRAWS)
    assert n == 10**6
    x = DRAWS
    mean = x.mean()
    var = ((x - mean) ** 2).mean()
    skew = ((x - mean) ** 3).mean() / var**1.5
    kurt = ((x - mean) ** 4).mean() / var**2
    # within 5 standard errors of N(0, 1): sqrt(1/n), sqrt(2/n), sqrt(6/n),
    # sqrt(24/n); a table without finer tail cells puts kurtosis near 3.04
    assert abs(mean) < 5 * (1 / n) ** 0.5
    assert abs(var - 1.0) < 5 * (2 / n) ** 0.5
    assert abs(skew) < 5 * (6 / n) ** 0.5
    assert abs(kurt - 3.0) < 5 * (24 / n) ** 0.5
    # the deepest draws of a million sit near Phi^-1(1e-6) = -4.75
    assert 4.0 < -x.min() < 6.0 and 4.0 < x.max() < 6.0


def test_normals_ks_distance():
    x = np.sort(DRAWS)
    n = len(x)
    cdf = 0.5 * (1.0 + np.frompyfunc(math.erf, 1, 1)(x / math.sqrt(2.0)).astype(float))
    i = np.arange(1, n + 1)
    ks = max((i / n - cdf).max(), (cdf - (i - 1) / n).max())
    # the 1% critical value of the Kolmogorov-Smirnov statistic
    assert ks < 1.63 / n**0.5


def _grid():
    """(v, upper) on a dense grid of every octave of p = v * 2^-54, p from
    2^-54 to just below 1/2: both ends and 16 points across each cell."""
    vs = {1, 3, 5, 7, 2**53 - 1}
    for e in range(53):
        for j in range(16 * 128):
            vs.add(int(2**e + j * 2**e / 2048) | 1)
    vs = sorted(v for v in vs if v < 2**53)
    return [(v, up) for v in vs for up in (False, True)]


def test_normals_track_inv_cdf_into_the_tails():
    inv = statistics.NormalDist().inv_cdf
    grid = _grid()
    words = np.array([[word_of(v, up) for v, up in grid]], dtype=np.uint64)
    got = rng._normals_of(words)[0].tolist()
    err = 0.0
    for x, (v, up) in zip(got, grid):
        p = v * 2.0**-54
        want = -inv(p) if up else inv(p)
        err = max(err, abs(x - want))
    assert err <= 1e-5
    # both sides of 1/2 at u = 2^-54 and 1 - 2^-54
    assert got[0] == -got[1] < -8.0


def _generator():
    path = Path(__file__).resolve().parent.parent / "tools" / "make_normal_table.py"
    spec = importlib.util.spec_from_file_location("make_normal_table", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_committed_table_is_the_generator_output():
    gen = _generator()
    fresh = gen.knots()
    committed = np.load(rng._TABLE_FILE)
    assert committed.dtype == np.dtype("<f8") and committed.shape == fresh.shape
    assert fresh.shape == (gen.OCTAVES * gen.CELLS + 1,) and gen.CELLS == 128
    # inv_cdf calls the C library's log and sqrt, which may round otherwise
    # elsewhere; the draws read the committed file, never the generator
    assert np.all(np.abs(committed - fresh) <= 4 * np.spacing(np.abs(fresh)))
    # knots rise to Phi^-1(1/2) = 0, the top of the last cell
    assert np.all(np.diff(committed) > 0) and committed[-1] == 0.0


def test_a_draw_calls_no_transcendental(monkeypatch):
    seeds = np.array([0, 3, 2**64 - 1], dtype=np.uint64)
    want = Stream(seeds).normals(300)

    def refuse(*args, **kwargs):
        raise AssertionError("a draw called a transcendental function")

    for module, names in ((math, ("log", "exp", "cos", "sin", "sqrt", "pow")),
                          (cmath, ("rect", "exp", "log")),
                          (np, ("log", "exp", "cos", "sin", "sqrt", "power"))):
        for name in names:
            monkeypatch.setattr(module, name, refuse)
    rng._normal_table.cache_clear()  # the table is read under the patch too
    got = Stream(seeds).normals(300)
    assert got.tobytes() == want.tobytes()


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


@pytest.mark.parametrize("seed", [17, BATCH])
def test_crandns_one_call_equals_crandn_calls_in_turn(seed):
    # odd entry counts: each matrix still takes a multiple of 4 words
    shapes = [(3, 3), (1, 1), (2, 3), (4, 4), (3, 2)]
    one, turn = Stream(seed), Stream(seed)
    got = _crandns(one, *shapes)
    for g, (rows, cols) in zip(got, shapes):
        assert g.tobytes() == _crandn(turn, rows, cols).tobytes()
    assert one.counter == turn.counter


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


# -- every draw is the words of _splitmix64_block at its counter


def _ref_uniforms(seeds, counter, n):
    return (_splitmix64_block(seeds, counter, n) >> np.uint64(11)) * 2.0**-53


def _ref_normals(seeds, counter, n):
    """The scalar lookup of each of these words."""
    return lookups(_splitmix64_block(seeds, counter, n))


def _draw_and_reference(stream, rnd):
    """One random draw on stream and what _splitmix64_block gives for it at
    the stream's counter, both as (B, ...) arrays."""
    seeds = stream.seeds
    counter = stream.counter
    kind = rnd.choice(["next_u64", "uniform", "uniforms", "randint", "normals"])
    n = rnd.choice([0, 1, 2, 3, rnd.randint(4, 60), rnd.randint(200, 700)])
    if kind == "next_u64":
        got, ref = stream.next_u64(), _splitmix64_block(seeds, counter, 1)[:, 0]
    elif kind == "uniform":
        got, ref = stream.uniform(), _ref_uniforms(seeds, counter, 1)[:, 0]
    elif kind == "uniforms":
        got, ref = stream.uniforms(n), _ref_uniforms(seeds, counter, n)
    elif kind == "randint":
        hi = np.array([rnd.randint(0, 2**40) for _ in range(n)]).reshape(-1, 1)
        got = stream.randint(-3, hi)
        span = (hi + 4).astype(np.uint64).ravel()
        ref = -3 + (_splitmix64_block(seeds, counter, n) % span).astype(np.int64)
        ref = ref.reshape((len(seeds),) + hi.shape)
    else:
        got, ref = stream.normals(n), _ref_normals(seeds, counter, n)
    return kind, np.asarray(got).reshape(ref.shape), ref


@pytest.mark.parametrize("seeds", [BATCH, np.array([9], dtype=np.uint64), 12345])
def test_interleaved_draws_are_the_block_words(seeds):
    import random

    rnd = random.Random(4)
    stream = Stream(seeds)
    for _ in range(120):
        before = stream.counter
        kind, got, ref = _draw_and_reference(stream, rnd)
        assert got.tobytes() == ref.tobytes(), (kind, before)  # bitwise, not approx


def test_take_shares_the_block_and_both_sides_keep_drawing():
    import random

    rnd = random.Random(8)
    for rows in (slice(1, 4), np.array([4, 0, 2]), None):
        parent = Stream(BATCH) if rows is not None else Stream(77)
        parent.uniforms(250)
        parent.normals(10)
        child = parent.take(slice(None) if rows is None else rows)
        if rows is None:
            assert child.shape == () and child.seed == parent.seed
        else:
            assert child.seeds.tolist() == BATCH[rows].tolist()
        assert child.counter == parent.counter
        for _ in range(30):
            for stream in (child, parent, parent, child):
                kind, got, ref = _draw_and_reference(stream, rnd)
                assert got.tobytes() == ref.tobytes(), kind


def test_counter_set_by_hand():
    s = Stream(BATCH)
    s.uniforms(10)
    for counter in (3, 0, 2**40 + 7, 2**40 + 9, 2**40 + 8, 2**40 + 300, 5):
        s.counter = counter
        assert s.uniforms(4).tobytes() == _ref_uniforms(BATCH, counter, 4).tobytes()
        assert s.counter == counter + 4
    scalar = Stream(3)
    scalar.normals(9)
    scalar.counter = 1
    assert scalar.next_u64() == splitmix64(3, 1)
    scalar.counter = 1000
    assert scalar.next_u64() == splitmix64(3, 1000)


def test_draws_are_not_views_of_the_block():
    s = Stream(BATCH)
    draws = [s.next_u64(), s.uniform(), s.uniforms(5), s.randint(0, np.array([9, 99])),
             s.normals(6)]
    assert not any(np.shares_memory(x, y) for i, x in enumerate(draws) for y in draws[i + 1:])
    assert not any(np.shares_memory(x, s.seeds) for x in draws)
    for x in draws:
        x[...] = 0
    s.counter = 0
    again = [s.next_u64(), s.uniform(), s.uniforms(5), s.randint(0, np.array([9, 99])),
             s.normals(6)]
    assert again[0].tolist() == _splitmix64_block(BATCH, 0, 1)[:, 0].tolist()
    assert not np.any(again[2] == 0)


def test_a_million_row_stream_computes_only_its_words():
    import tracemalloc

    seeds = np.arange(10**6, dtype=np.uint64)
    s = Stream(seeds)
    tracemalloc.start()
    d = s.randint(2, 8)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert d.shape == (10**6,) and d[:3].tolist() == (2 + _splitmix64_block(seeds[:3], 0, 1)[:, 0] % np.uint64(7)).tolist()
    # the one word per row and a few one-word temporaries of 8 MB each
    assert peak <= 6 * seeds.nbytes


@pytest.mark.parametrize("seeds", [7, np.array([7], dtype=np.uint64), np.arange(40, dtype=np.uint64)])
def test_each_draw_computes_exactly_the_words_it_consumes(seeds, monkeypatch):
    computed = []

    def counting(seed, counter, n):
        words = _splitmix64_block(seed, counter, n)
        computed.append(words.size)
        return words

    monkeypatch.setattr(rng, "_splitmix64_block", counting)
    s = Stream(seeds)
    draws = [
        (lambda: s.next_u64(), 1), (lambda: s.uniform(), 1), (lambda: s.uniforms(5), 5),
        (lambda: s.uniforms(0), 0), (lambda: s.randint(2, 9), 1),
        (lambda: s.randint(0, np.array([[3, 4, 5], [6, 7, 8]])), 6),
        (lambda: s.normals(4), 4), (lambda: s.normals(3), 4), (lambda: s.normals(0), 0),
    ]
    for draw, words in draws:
        computed.clear()
        before = s.counter
        draw()
        assert sum(computed) == len(s.seeds) * words and s.counter == before + words
    last = len(s.seeds) - 1
    for rows in (slice(None), slice(last, None), np.array([last, 0])):
        computed.clear()
        sub = s.take(rows)
        sub.uniforms(300)
        assert sum(computed) == len(sub.seeds) * 300 and sub.counter == s.counter + 300
