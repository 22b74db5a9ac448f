"""Helpers rewritten for fewer numpy calls, each against the formulation it
replaced, which is kept here as the reference. Results are compared bit for
bit through .view(np.uint64), so a signed zero counts, and draws also by the
words they consume."""

import functools
import itertools
import math
import random
from pathlib import Path

import numpy as np
import pytest

from normal_ref import KNOTS, lookups, word_of
from sspread import cli, harness, linalg, major, spectra
from sspread.errors import ParseError
from sspread.harness import _crandns, _split
from sspread.rng import Stream, _normals_of, _splitmix64_block, derive_seed


def _bits(x) -> np.ndarray:
    a = np.ascontiguousarray(x)
    return a.view(np.uint64) if a.dtype != np.complex128 else a.view(np.float64).view(np.uint64)


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(_bits(a), _bits(b))


# ---------------------------------------------------------------------------
# harness._split


def _split_ref(values):
    if np.all(values == values[0]):
        return [(values[0].item(), slice(None))]
    return [(v.item(), np.flatnonzero(values == v)) for v in np.unique(values)]


SPLIT_CASES = {
    "one value": np.full(7, 3),
    "one row": np.array([6]),
    "all distinct": np.array([5, 2, 9, 3, 7]),
    "unsorted rows": np.array([3, 1, 3, 2, 1, 3, 2, 2, 1]),
    "bools": np.array([True, False, False, True, True]),
    # long enough that an unstable sort would reorder a value's rows
    "long": np.random.default_rng(5).integers(2, 9, 600),
    # the draws the families split on: a per-row dimension and a per-row coin
    "randint draw": Stream(np.arange(40, dtype=np.uint64)).randint(2, 6),
    "coin draw": Stream(np.arange(40, dtype=np.uint64)).uniform() < 0.5,
}


@pytest.mark.parametrize("case", sorted(SPLIT_CASES))
def test_split_matches_the_unique_form(case):
    values = SPLIT_CASES[case]
    got, ref = _split(values), _split_ref(values)
    assert [v for v, _ in got] == [v for v, _ in ref]
    assert [type(v) for v, _ in got] == [type(v) for v, _ in ref]
    for (_, rows), (_, want) in zip(got, ref):
        if isinstance(want, slice):
            assert rows == want
        else:
            assert rows.dtype == want.dtype and rows.tolist() == want.tolist()
    if len(got) > 1:
        # ascending values, and every row in exactly one group
        assert [v for v, _ in got] == sorted({v for v, _ in got})
        covered = np.concatenate([rows for _, rows in got]).tolist()
        assert sorted(covered) == list(range(len(values)))


# ---------------------------------------------------------------------------
# Stream.randint with an int bound


@pytest.mark.parametrize("lo, hi", [(2, 8), (1, 1), (0, 3), (5, 5), (1, 2**40)])
@pytest.mark.parametrize("seeds", [None, np.array([0, 9, derive_seed(5, 3), 2**64 - 1],
                                                   dtype=np.uint64)])
def test_randint_int_bound_matches_the_0d_bound(seeds, lo, hi):
    a, b = (Stream(3 if seeds is None else seeds) for _ in range(2))
    a.counter = b.counter = 7
    got, ref = a.randint(lo, hi), b.randint(lo, np.array(hi))
    assert type(got) is type(ref)
    if seeds is None:
        assert isinstance(got, int) and got == ref
    else:
        assert _same_bits(got, ref)
    assert lo <= np.min(got) and np.max(got) <= hi
    assert a.counter == b.counter == 8
    assert np.array_equal(a.next_u64(), b.next_u64())


def test_randint_int_bound_refuses_an_empty_range():
    s = Stream(1)
    with pytest.raises(ValueError, match="empty range"):
        s.randint(3, 2)
    with pytest.raises(ValueError, match="empty range"):
        s.randint(3, np.array(2))
    assert s.counter == 0


# ---------------------------------------------------------------------------
# rng._normals_of, the Gaussian map of Stream.normals


def _edge_words() -> list[int]:
    """Words at the ends of the unit interval, on either side of 1/2, and on
    both sides of every octave and of cell boundaries in every octave, for
    u below and above 1/2."""
    ws = {0, 1, 2**11 - 1, 2**11, 2**63 - 2**11, 2**63 - 1, 2**63, 2**63 + 2**11,
          2**64 - 2**11, 2**64 - 1}
    for e in range(1, 54):
        vs = {2**e - 1, 2**e + 1}
        if e >= 8:  # the first and the middle cell boundaries of the octave
            vs |= {2**e + (2**e >> 7) + d for d in (-1, 1)}
            vs |= {2**e + (2**e >> 1) + d for d in (-1, 1)}
        ws |= {word_of(v, up) for v in vs if v < 2**53 for up in (False, True)}
    return sorted(ws)


EDGE_WORDS = _edge_words()


def test_normals_match_the_lookup_at_edge_words():
    words = np.array([EDGE_WORDS], dtype=np.uint64)
    ref = lookups(words)
    assert _same_bits(_normals_of(words), ref)
    # the ends are the first knot, u = 1/2 - 2^-54 and 1/2 + 2^-54 give the
    # two values nearest 0, and words in order of u give values in order
    x = ref[0]
    assert x[0] == KNOTS[0] < -8.0 and x[-1] == -KNOTS[0]
    below, above = EDGE_WORDS.index(2**63 - 1), EDGE_WORDS.index(2**63)
    assert -1e-15 < x[below] < 0.0 < x[above] < 1e-15
    assert np.all(np.diff(x) >= 0.0) and np.all(x != 0.0)


def test_normals_match_the_lookup_on_random_words():
    words = np.random.default_rng(11).integers(0, 2**64, (4, 25_000), dtype=np.uint64)
    assert _same_bits(_normals_of(words), lookups(words))
    # an odd count keeps the first n values of n + 1 words
    s = Stream(np.arange(4, dtype=np.uint64))
    assert _same_bits(s.normals(7), lookups(_splitmix64_block(s.seeds, 0, 8)[:, :7]))
    assert s.counter == 8


def test_normals_are_odd_in_the_word():
    # ~w gives 1 - u, and its value is the negated value, bit for bit
    words = np.random.default_rng(12).integers(0, 2**64, (3, 5_000), dtype=np.uint64)
    assert _same_bits(_normals_of(words), -_normals_of(~words))


# ---------------------------------------------------------------------------
# harness._crandns


def _crandns_ref(stream, *shapes):
    sizes = [rows * cols for rows, cols in shapes]
    evens = [n + (n & 1) for n in sizes]
    z = np.asarray(stream.normals(2 * sum(evens)))
    out = []
    at = 0
    for (rows, cols), n, m in zip(shapes, sizes, evens):
        g = (z[..., at:at + n] + 1j * z[..., at + m:at + m + n]) / math.sqrt(2.0)
        out.append(g.reshape(stream.shape + (rows, cols)))
        at += 2 * m
    return out


CRANDNS_SHAPES = [[(3, 3)], [(1, 1)], [(2, 2), (3, 1), (2, 3)], [(4, 4), (4, 4)]]


@pytest.mark.parametrize("shapes", CRANDNS_SHAPES)
@pytest.mark.parametrize("seed", [5, np.array([0, 5, 2**64 - 1], dtype=np.uint64)])
def test_crandns_matches_the_complex_sum_form(seed, shapes):
    a, b = Stream(seed), Stream(seed)
    got, ref = _crandns(a, *shapes), _crandns_ref(b, *shapes)
    assert a.counter == b.counter
    assert all(_same_bits(g, r) for g, r in zip(got, ref))


class _FixedNormals:
    """A stand-in stream whose normals are given values: no word makes a
    zero, but _crandns keeps the bits of the complex-sum form for any."""

    def __init__(self, z: np.ndarray):
        self.z = z
        self.shape = z.shape[:1]

    def normals(self, n: int) -> np.ndarray:
        return self.z[:, :n].copy()


@pytest.mark.parametrize("shapes", CRANDNS_SHAPES)
def test_crandns_matches_at_signed_zero_normals(shapes):
    # normals of -0.0 and +0.0 in real and imaginary positions, against each
    # other and against nonzero values
    n = 2 * sum(2 * ((r * c + 1) // 2) for r, c in shapes)
    z = np.random.default_rng(n).choice(np.array([0.0, -0.0, 1.5, -1.5]), (500, n))
    got = _crandns(_FixedNormals(z), *shapes)
    ref = _crandns_ref(_FixedNormals(z), *shapes)
    assert all(_same_bits(g, r) for g, r in zip(got, ref))
    assert any(np.signbit(g.view(float)[g.view(float) == 0.0]).any() for g in ref)


# ---------------------------------------------------------------------------
# spectra._eig_sides, linalg._pad


def _eig_sides_ref(mu, k=None):
    d = mu.shape[-1]
    if k is None:
        k = 2 * d
    pad = np.zeros(mu.shape[:-1] + (k - d,))
    pos = np.concatenate([np.where(mu > 0.0, mu, 0.0), pad], axis=-1)
    neg = np.concatenate([np.where(mu < 0.0, mu, 0.0)[..., ::-1], pad], axis=-1)
    return pos, neg


EIGS = np.array([[2.5, 0.0, -0.0, -1.0], [0.0, -0.0, -0.0, -3.0], [-0.0, -0.0, 0.0, 0.0],
                 [4.0, 1.0, 0.5, 0.0], [np.nan, 1.0, -0.0, -2.0]])


@pytest.mark.parametrize("k", [None, 4, 5, 9])
def test_eig_sides_matches_the_where_form(k):
    for mu in (EIGS, EIGS[0], EIGS[:, :1]):
        kk = k if k is None else max(k, mu.shape[-1])
        got, ref = spectra._eig_sides(mu, kk), _eig_sides_ref(mu, kk)
        assert _same_bits(got[0], ref[0]) and _same_bits(got[1], ref[1])


@pytest.mark.parametrize("k", [3, 4, 7])
def test_pad_matches_the_concatenate_form(k):
    s = np.array([[3.0, -0.0, 0.0], [2.0, 1.0, -0.0]])
    got = linalg._pad(s, k)
    ref = np.concatenate([s, np.zeros(s.shape[:-1] + (k - s.shape[-1],))], axis=-1)
    assert _same_bits(got, ref)
    got[...] = 9.0  # a new array even at k == n
    assert s[0, 0] == 3.0


# ---------------------------------------------------------------------------
# the generator and kernel trims


def _ct(m):
    return m.conj().swapaxes(-1, -2)


# every complex entry from {+0, -0, 1.5, -1.5}^2 in every position of a 2x2 matrix
_SIGNED = [complex(a, b) for a, b in itertools.product([0.0, -0.0, 1.5, -1.5], repeat=2)]
G_EDGE = np.array(list(itertools.product(_SIGNED, repeat=4))).reshape(-1, 2, 2)


def test_herm_and_psd_match_their_scaled_forms():
    g = np.concatenate([G_EDGE.reshape(-1, 4, 4),
                        _crandns(Stream(np.arange(9, dtype=np.uint64)), (4, 4))[0]])
    for scale in (1.0, 2.5, np.linspace(1.0, 10.0, len(g))[:, None, None]):
        assert _same_bits(harness._herm(g, scale), scale * (g + _ct(g)) / 2.0)
    assert _same_bits(harness._herm(g), 1.0 * (g + _ct(g)) / 2.0)
    for m in (g, G_EDGE):
        assert _same_bits(harness._psd(m), 1.0 * (_ct(m) @ m))


def test_haar_matches_the_copied_phase_form():
    g = np.concatenate([_crandns(Stream(np.arange(5, dtype=np.uint64)), (4, 4))[0],
                        np.zeros((1, 4, 4), dtype=np.complex128)])
    q, r = np.linalg.qr(g)
    ph = np.diagonal(r, axis1=-2, axis2=-1).copy()
    with np.errstate(invalid="ignore"):
        ph = np.where(np.abs(ph) > 0, ph / np.abs(ph), 1.0)
        got = linalg._haar(g)
    assert _same_bits(got, q * ph[..., None, :])


def test_size_matches_the_reduce_form():
    stacks = [np.array([[1.0, -3.0], [-0.0, 0.0]]), np.array([[[2.0j]], [[-0.0]]]),
              np.array([[0.5, np.nan], [1.0, 2.0]])]
    for k in range(1, 4):
        for chosen in itertools.combinations(stacks, k):
            ref = functools.reduce(np.maximum, [np.abs(s).max(axis=tuple(range(1, s.ndim)),
                                                               initial=0.0) for s in chosen])
            assert _same_bits(linalg._size(*chosen), ref)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
def test_schatten_rows_matches_the_scalar_power_form(p):
    rng = np.random.default_rng(3)
    v = np.abs(rng.standard_normal((400, 5))) * 10.0 ** rng.uniform(-200, 200, (400, 1))
    v[:3] = [[0.0] * 5, [2.0**-1074] * 5, [1.0, 0.0, 0.0, 0.0, 0.0]]
    with np.errstate(over="ignore"):  # a sum of powers may overflow to inf
        ref = np.array([s ** (1.0 / p) for s in (np.abs(v) ** p).sum(axis=-1)])
        assert _same_bits(major._schatten_rows(v, p), ref)


# ---------------------------------------------------------------------------
# linalg's LAPACK doorway against the public numpy.linalg calls it replaced


def _haar_phase_form(g):
    q, r = np.linalg.qr(g)
    ph = np.diagonal(r, axis1=-2, axis2=-1)
    return q * np.where(np.abs(ph) > 0, ph / np.abs(ph), 1.0)[..., None, :]


# entry -> (the doorway call, the numpy.linalg call whose bits it gives)
DOORWAY = {
    "eigvalsh": (linalg._eigvalsh, lambda m: np.linalg.eigvalsh(m)[..., ::-1]),
    "eigh": (lambda m: tuple(linalg._eigh(m)),
             lambda m: tuple(x[..., ::-1] for x in np.linalg.eigh(m))),
    "sv_array": (linalg._sv_array, lambda m: np.linalg.svd(m, compute_uv=False)),
    "haar": (linalg._haar, _haar_phase_form),
}


def _doorway_stacks(entry, d):
    """Stacks of one and of four members, one member all zero, Hermitian for
    the eigensolvers; sv_array also takes d x n and n x d ones."""
    rng = np.random.default_rng(d)
    shapes = [(d, d)]
    if entry == "sv_array":
        shapes += [(d, d + 2), (d + 2, d)]
    for rows, cols in shapes:
        g = rng.standard_normal((4, rows, cols)) + 1j * rng.standard_normal((4, rows, cols))
        g[2] = 0.0
        if entry.startswith("eig"):
            g = g + _ct(g)
        yield from (g[:1], g[2:3], g)


@pytest.mark.parametrize("d", range(9))
@pytest.mark.parametrize("entry", DOORWAY)
def test_doorway_matches_numpys_public_call(entry, d):
    ours, numpys = DOORWAY[entry]
    for m in _doorway_stacks(entry, d):
        with np.errstate(invalid="ignore"):  # the zero member's 0/0 phase
            got, ref = ours(m), numpys(m)
        for a, b in zip(*(x if isinstance(x, tuple) else (x,) for x in (got, ref))):
            assert _same_bits(a, b), m.shape


# ---------------------------------------------------------------------------
# cli.parse_complex


def _parse_complex_ref(tok: str) -> complex:
    t = tok.strip()
    if not t:
        raise ParseError("empty entry")
    if t[-1] in "iI":
        body = t[:-1]
        split = -1
        for j in range(len(body) - 1, 0, -1):
            if body[j] in "+-" and body[j - 1] not in "eE":
                split = j
                break
        try:
            if split > 0:
                re = float(body[:split])
                imag_txt = body[split:]
            else:
                re = 0.0
                imag_txt = body
            if imag_txt in ("", "+"):
                im = 1.0
            elif imag_txt == "-":
                im = -1.0
            else:
                im = float(imag_txt)
        except ValueError as exc:
            raise ParseError(f"bad complex literal {tok!r}") from exc
        return complex(re, im)
    try:
        return complex(float(t), 0.0)
    except ValueError as exc:
        raise ParseError(f"bad number {tok!r}") from exc


def _parsed(parse, tok: str):
    """The bits of the parsed number, or the ParseError message."""
    try:
        z = parse(tok)
    except ParseError as exc:
        return str(exc)
    assert type(z) is complex
    return tuple(_bits(np.array([z.real, z.imag])).tolist())


EDGE_TOKENS = ["-0.0i", "0.0-0.0i", "i", "-i", "+i", "1e+5i", "1-1e-3i", "infi", "1_0i",
               "1+-2i", "e5i", "(1+2i)", "1+2j", "1j+2i", "", "  ", " 2.5-i ", "-nani",
               "nan-infI", "-0.0", "1e309i", "4.9e-324-4.9e-324i"]

# pieces of number syntax, joined at random into tokens without whitespace
_PIECES = ["0", "1", "7", "25", "3.5", ".", ".5", "1.", "e", "E", "e5", "e-3", "E+2", "-",
           "+", "_", "inf", "nan", "infinity", "i", "I", "j", "J", "(", ")", "x", "-0.0"]


def _random_tokens(seed: int, n: int) -> list[str]:
    rnd = random.Random(seed)
    return ["".join(rnd.choices(_PIECES, k=rnd.randint(1, 5))) + rnd.choice(["", "i", "I"])
            for _ in range(n)]


def test_parse_complex_matches_the_sign_scan_form():
    root = Path(__file__).resolve().parent.parent
    fixture = [t for f in sorted(root.glob("fixtures/*.txt")) for t in f.read_text().split()]
    assert fixture
    randoms = _random_tokens(19, 100_000)
    outcomes = []
    for tok in fixture + EDGE_TOKENS + randoms:
        want = _parsed(_parse_complex_ref, tok)
        assert _parsed(cli.parse_complex, tok) == want, tok
        outcomes.append(want)
    # the random tokens reach every outcome: reals, non-real numbers, both errors
    outcomes = outcomes[-len(randoms):]
    numbers = [o for o in outcomes if isinstance(o, tuple)]
    errors = [o for o in outcomes if isinstance(o, str)]
    assert sum(o[1] != 0 for o in numbers) > 5000 and sum(o[1] == 0 for o in numbers) > 2000
    assert sum("literal" in o for o in errors) > 5000 and sum("number" in o for o in errors) > 5000
