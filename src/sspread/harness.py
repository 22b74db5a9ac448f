"""Deterministic generators, the fuzz families (four draw recipes, each
stating a hypothesis class once, and six draws of their own), the verifier
registry and the campaign engine of fuzz and the property suite
(properties.py). The fixture reproductions live in examples.py.

All randomness flows through the counter-based stream in rng.py: a campaign
at seed s gives trial t the child seed derive_seed(s, t), so any failing
instance can be rebuilt from its reported worst_seed alone. Nothing here
reads a clock, so every result is a function of the arguments alone.

A campaign (a fuzz run, or one property) derives all child seeds in one
expression and draws every trial's d at counter 0 of its stream. It then
draws the trials of one d together, on one Stream over their seeds: every
generator builds a stack (B, rows, cols) whose row b is bit for bit what the
scalar stream of seed b draws alone, and a family or property splits its
rows further where a draw sets a shape or a shared scalar argument. Each
group goes to one judge call over stacks, and _rows puts the rows back in
trial order for _campaign's one reduction, so a report does not depend on
grouping or chunking. trial_args() draws as a batch of one; the scalar
stream serves direct calls of the generators.
"""

from __future__ import annotations

import inspect
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import ineq, linalg
from .errors import UnknownInequality
from .linalg import _ct, _haar
from .rng import _MASK, Stream, _splitmix64_block


@dataclass(frozen=True)
class FuzzSummary:
    """Aggregate outcome of a fuzz campaign for one inequality family."""

    ineq_id: str
    trials: int
    failures: int
    worst_margin: float
    worst_seed: int


def _crandns(stream: Stream, *shapes: tuple[int, int]) -> list[np.ndarray]:
    """i.i.d. standard complex Gaussian matrices of these (rows, cols) shapes,
    row-major draw order, from one normals call.

    A matrix of n entries takes a block of 2m normals, m = n rounded up to
    even: the stream that two normals(n) calls (real parts, then imaginary
    parts) would consume. Each normal is a function of its own word, so one
    call over all the blocks draws the values of one call per block, and the
    matrices are those of _crandn calls in turn. Like every generator here,
    each is one matrix on the scalar stream and a stack (B, rows, cols) on a
    batch of B seeds.
    """
    sizes = [rows * cols for rows, cols in shapes]
    evens = [n + (n & 1) for n in sizes]
    z = np.asarray(stream.normals(2 * sum(evens)))
    out = []
    at = 0
    for (rows, cols), n, m in zip(shapes, sizes, evens):
        g = np.empty(z.shape[:-1] + (n,), dtype=np.complex128)
        g.real = z[..., at:at + n]
        # the bits of (re + 1j * im) / sqrt(2) without its temporaries: that
        # sum's imaginary parts are im + 0.0 (a -0.0 becomes +0.0), and its
        # real parts differ from re only in the sign of a zero next to an
        # imaginary part of sign +, which the division's re + im*0 erases
        np.add(z[..., at + m:at + m + n], 0.0, out=g.imag)
        g /= math.sqrt(2.0)
        out.append(g.reshape(stream.shape + (rows, cols)))
        at += 2 * m
    return out


def _crandn(stream: Stream, rows: int, cols: int) -> np.ndarray:
    """One complex Gaussian matrix (or stack), as _crandns draws it."""
    return _crandns(stream, (rows, cols))[0]


def _herm(g: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """The Hermitian matrix of a Gaussian draw g: scale * (g + g*) / 2.0.

    The product by scale is kept at 1.0 too, as it can flip the sign of a
    zero part, which the division keeps.
    """
    h = g + _ct(g)
    h *= scale
    h /= 2.0
    return h


def _psd(g: np.ndarray) -> np.ndarray:
    """The positive matrix of a Gaussian draw g: g* g."""
    return _ct(g) @ g


def _hermitian(stream: Stream, d: int, scale: float = 1.0) -> np.ndarray:
    return _herm(_crandn(stream, d, d), scale)


def _positive(stream: Stream, d: int) -> np.ndarray:
    return _psd(_crandn(stream, d, d))


def _unitary(stream: Stream, d: int) -> np.ndarray:
    return _haar(_crandn(stream, d, d))


def _lead(rank, d: int) -> np.ndarray:
    """1.0 on the first `rank` of d entries and 0.0 after, per row of rank."""
    return (np.arange(d) < np.asarray(rank)[..., None]).astype(float)


def _projection(stream: Stream, d: int, rank=None) -> np.ndarray:
    if rank is None:
        rank = 1 if d == 1 else stream.randint(1, d - 1)
    v = _unitary(stream, d)
    return (v * _lead(rank, d)[..., None, :]) @ _ct(v)


def _partition(stream: Stream, d: int, rank=None,
               positive: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(C, S, P) with C*C + S*S = P by construction.

    positive=True draws C, S positive semidefinite (shared eigenbasis), the
    hypothesis class of the paired arithmetic-geometric-mean bound.
    """
    if rank is None:
        rank = stream.randint(1, d)
    if positive:
        v = _unitary(stream, d)
        w = _ct(v)
    else:
        v, w = _haar(np.stack(_crandns(stream, (d, d), (d, d))))
    theta = np.asarray(stream.uniforms(d)) * math.pi / 2.0
    mask = _lead(rank, d)
    c = (v * (np.cos(theta) * mask)[..., None, :]) @ w
    s = (v * (np.sin(theta) * mask)[..., None, :]) @ w
    p = (_ct(w) * mask[..., None, :]) @ w
    return c, s, p


# ---------------------------------------------------------------------------
# fuzz families: each draws its verifier's arguments for a stream's trials
#
# A family draw(stream, d) returns the groups one kernel call each can judge:
# [(rows, args)], rows indexing the stream's batch (slice(None) for all of
# them) and args the kernel's arguments for those rows. A per-row draw that
# sets a shape (n) or a shared scalar argument (a split, an absent E2) splits
# the rows by its value. Families run on batch streams only. A recipe below
# builds a family from the one thing its members vary in; one that two rows
# share is bound to one name, as an alias row shares its theorem's (check,
# draw) objects.


def _split(values) -> list[tuple]:
    """(value, rows) for each distinct value of a per-row draw, in increasing
    order; rows is slice(None) when every row shares the value."""
    # a stable sort keeps each value's rows in increasing order
    order = np.argsort(values, kind="stable")
    ranked = values[order]
    cuts = (np.flatnonzero(ranked[1:] != ranked[:-1]) + 1).tolist()
    if not cuts:
        return [(ranked[0].item(), slice(None))]
    bounds = [0, *cuts, len(order)]
    return [(ranked[a].item(), order[a:b]) for a, b in zip(bounds, bounds[1:])]


def _whole(*args) -> list[tuple]:
    """Every row in one group."""
    return [(slice(None), args)]


def _operands(*maps) -> Callable[[Stream, int], list]:
    """Operands on one space: one _crandns call of d x d Gaussian blocks, each
    taken through its map (_herm, _psd or _haar; None keeps the Gaussian)."""
    def draw(stream: Stream, d: int):
        gs = _crandns(stream, *[(d, d)] * len(maps))
        return _whole(*(g if m is None else m(g) for m, g in zip(maps, gs)))
    return draw


def _with_split(gen) -> Callable[[Stream, int], list]:
    """The matrix gen(stream, d), then a split in [1, d - 1] per row."""
    def draw(stream: Stream, d: int):
        f = gen(stream, d)
        return [(rows, (f[rows], k)) for k, rows in _split(stream.randint(1, d - 1))]
    return draw


def _coupling(m) -> Callable[[Stream, int], list]:
    """A (d x d) and B (n x n) through the class map m (None keeps the Gaussian),
    n in [2, d] drawn per row, and X (d x n), each n's rows on their own stream."""
    def draw(stream: Stream, d: int):
        groups = []
        for n, rows in _split(stream.randint(2, d)):
            a, b, x = _crandns(stream.take(rows), (d, d), (n, n), (d, n))
            groups.append((rows, (a, b, x) if m is None else (m(a), m(b), x)))
        return groups
    return draw


def _splitting(identity: bool = False) -> Callable[[Stream, int], list]:
    """S and C of a splitting of a random projection (or the identity), then E."""
    def draw(stream: Stream, d: int):
        c, s, _ = _partition(stream, d, rank=d if identity else None)
        return _whole(s, c, _hermitian(stream, d))
    return draw


_herm_pair = _operands(_herm, _herm)
_herm_coupling = _coupling(_herm)
_agm_split = _splitting()


def _fam_trace(stream: Stream, d: int):
    rank = stream.randint(1, d)
    v = _unitary(stream, d)
    w = np.where(_lead(rank, d) > 0.0, stream.normals(d), 0.0)
    a = (v * w[..., None, :]) @ _ct(v)
    return _whole(a, _hermitian(stream, d))


def _fam_unitary(stream: Stream, d: int):
    ga, gx = _crandns(stream, (d, d), (d, d))
    a, x = _herm(ga), _herm(gx)
    nrm = np.abs(linalg._eigvalsh(x)).max(-1)
    # a zero X stays zero whatever it is scaled by
    scale = math.pi * stream.uniform() / np.where(nrm > 0, nrm, 1.0)
    return _whole(a, x * scale[..., None, None])


def _fam_agm_pair(stream: Stream, d: int):
    c, s, _ = _partition(stream, d, positive=True)
    e1 = _hermitian(stream, d)
    return [(rows, (s[rows], c[rows], e1[rows],
                    None if absent else _hermitian(stream.take(rows), d)))
            for absent, rows in _split(stream.uniform() < 0.5)]


def _fam_agm_general(stream: Stream, d: int):
    a, b = _crandns(stream, (d, d), (d, d))
    e = np.empty_like(a)
    for positive, rows in _split(stream.uniform() < 0.5):
        e[rows] = (_positive if positive else _hermitian)(stream.take(rows), d)
    return _whole(a, b, e)


def _fam_offdiag(stream: Stream, d: int):
    return _whole(_hermitian(stream, d), _projection(stream, d))


def _fam_control_gap(stream: Stream, d: int):
    w, v = linalg._eigh(_hermitian(stream, d))
    w[..., 0] = np.maximum(w[..., 0], 0.5)
    w[..., -1] = np.minimum(w[..., -1], -0.5)
    return _whole((v * w[..., None, :]) @ _ct(v))


# ---------------------------------------------------------------------------
# the verifier registry


# the largest dimension fuzz and the property suite draw; a matrix of it
# holds 16 MiB of complex128
MAX_DIM = 1024

# the most trials fuzz and the property suite run at once: each holds a
# seed, a d, a margin and a verdict or message per trial, about 25 MB here
MAX_TRIALS = 10**6

# a fuzz chunk takes trials until the sum of their d*d reaches this many
# entries (a family draws one to four matrices of about that size per
# trial), so a campaign at large dims never holds all of its trials'
# matrices at once
FUZZ_CHUNK_ENTRIES = 1 << 18


@dataclass(frozen=True)
class Verifier:
    """One member of the paper's inequality family.

    `check` names the public ineq function that judges it; `sspread check`
    looks it up on the module at call time, so a wrapped or patched ineq
    function is the one that runs, and reads its file list off that
    function's parameters (ineq._matrix_params). `judge` runs the kernel
    behind it, `inspect.unwrap(getattr(ineq, check))`, on stacks of trials;
    each campaign looks the kernel up once, when it reads `judge`.
    `draw(stream, d)`, a recipe's family or one of its own above, draws the
    verifier's arguments for the trials of a stream at dimension d, as
    groups; `trial_args` rebuilds one trial's public arguments. A row that
    shares its check and draw objects with a theorem row re-runs that
    theorem under the name of one of the equivalent formulations.
    """

    id: str
    kind: str  # "theorem", "equivalent" or "control"
    check: str
    draw: Callable[[Stream, int], list]
    lo, hi = 2, MAX_DIM  # every family needs d >= 2; not fields

    @property
    def judge(self) -> Callable[..., tuple]:
        """The judge of a campaign's groups: the kernel behind `check`, looked
        up once, when the campaign reads this."""
        kernel = inspect.unwrap(getattr(ineq, self.check))

        def judge(*args) -> tuple:
            rows = kernel(*args)
            return rows.holds, rows.margin, None
        return judge


VERIFIERS = {v.id: v for v in (
    Verifier("tao_positive", "theorem", "check_tao_positive", _with_split(_positive)),
    Verifier("key", "theorem", "check_key", _with_split(_hermitian)),
    Verifier("trace_pairing", "theorem", "check_trace_pairing", _fam_trace),
    Verifier("commutator_scale", "theorem", "check_commutator_scale", _herm_pair),
    Verifier("commutator_sv", "theorem", "check_commutator_sv", _herm_pair),
    Verifier("mixed_commutator", "theorem", "check_mixed_commutator", _herm_coupling),
    Verifier("general_commutator", "theorem", "check_general_commutator", _coupling(None)),
    Verifier("unitary_conj", "theorem", "check_unitary_conj", _fam_unitary),
    Verifier("agm_projection", "theorem", "check_agm_projection", _agm_split),
    Verifier("agm_pair", "theorem", "check_agm_pair", _fam_agm_pair),
    Verifier("agm_compact", "theorem", "check_agm_compact", _agm_split),
    Verifier("agm_general", "theorem", "check_agm_general", _fam_agm_general),
    Verifier("zhan", "theorem", "check_zhan", _herm_pair),
    Verifier("equiv1", "equivalent", "check_offdiag_projection", _fam_offdiag),
    Verifier("equiv2", "equivalent", "check_commutator_sv", _herm_pair),
    Verifier("equiv3", "equivalent", "check_mixed_commutator", _herm_coupling),
    Verifier("equiv4", "equivalent", "check_zhan", _herm_pair),
    Verifier("equiv5", "equivalent", "check_identity_split", _splitting(identity=True)),
    Verifier("equiv_compact1", "equivalent", "check_offdiag_compact", _fam_offdiag),
    # not an alias of agm_general: E here is always Hermitian, never drawn positive
    Verifier("equiv_compact2", "equivalent", "check_agm_general", _operands(None, None, _herm)),
    Verifier("control_kittaneh", "control", "control_kittaneh_positive", _coupling(_psd)),
    Verifier("control_bhatia_kittaneh", "control", "control_bhatia_kittaneh",
             _operands(None, None)),
    Verifier("control_strict_gap", "control", "control_strict_gap", _fam_control_gap),
)}


def _lookup(ineq_id: str) -> Verifier:
    """The registry row of an inequality id; raises UnknownInequality."""
    try:
        return VERIFIERS[ineq_id]
    except KeyError:
        raise UnknownInequality(f"unknown inequality {ineq_id!r}") from None


def _check_dims(dims: tuple[int, int], what: str, trials: int = 0) -> None:
    if not 0 <= trials <= MAX_TRIALS:
        raise ValueError(f"{what} runs from 0 up to {MAX_TRIALS} trials, got {trials}")
    if dims[0] < 1:
        raise ValueError(f"{what} draws dimensions of 1 or more (a >= 1), got {dims}")
    if dims[1] < dims[0]:
        raise ValueError(f"{what} needs a dimension range a..b with a <= b, got {dims}")
    if dims[1] < 2:
        raise ValueError(f"{what} needs dimension 2 or more in its range (d >= 2), got {dims}")
    if dims[1] > MAX_DIM:
        raise ValueError(f"{what} draws dimensions up to {MAX_DIM}, got {dims}")


def _d_range(entry: Verifier, dims: tuple[int, int]) -> tuple[int, int]:
    """dims cut to [entry.lo, entry.hi]: the range the entry's trials draw d from."""
    hi = min(entry.hi, dims[1])
    return min(max(entry.lo, dims[0]), hi), hi


def _groups(entry: Verifier, seeds: np.ndarray, lo: int, hi: int):
    """Draw the trials of these child seeds in groups; yields (trial numbers,
    kernel arguments) for each group.

    Every trial draws its d at counter 0, all in one expression. The trials
    are then taken in chunks of about FUZZ_CHUNK_ENTRIES entries, and the
    trials of a chunk that share d are drawn by one call of the family,
    which splits them further where a draw sets a shape or a shared scalar.
    """
    stream = Stream(seeds)
    d = stream.randint(lo, hi)
    reach = np.cumsum(d * d)
    start = 0
    while start < len(seeds):
        budget = (reach[start - 1] if start else 0) + FUZZ_CHUNK_ENTRIES
        stop = min(int(np.searchsorted(reach, budget)) + 1, len(seeds))
        chunk = np.arange(start, stop)
        for dv, rows in _split(d[chunk]):
            index = chunk[rows]
            for sub, args in entry.draw(stream.take(index), dv):
                yield index[sub], args
        start = stop


def _rows(entry: Verifier, judge: Callable, seeds: np.ndarray, dims: tuple[int, int]):
    """(holds, margins, messages) of these child seeds' trials in trial order,
    drawn in groups (_groups) and each group judged by one judge(*args) call."""
    holds = np.ones(len(seeds), dtype=bool)
    margin = np.empty(len(seeds))
    detail = [None] * len(seeds)
    for index, args in _groups(entry, seeds, *_d_range(entry, dims)):
        holds[index], margin[index], msgs = judge(*args)
        for t, msg in zip(index.tolist(), msgs or ()):
            detail[t] = msg
    return holds, margin, detail


def _campaign(entry: Verifier, judge: Callable, seeds: np.ndarray, dims: tuple[int, int]):
    """(failures, worst margin, worst seed, first failure's message) of these
    child seeds' trials. A NaN margin never wins, and the first trial within
    _tol(|worst|) of the smallest margin names it, so a tie broken by
    rounding names the same trial on every BLAS build."""
    holds, margin, detail = _rows(entry, judge, seeds, dims)
    margin = np.where(np.isnan(margin), math.inf, margin)
    worst = float(margin.min(initial=math.inf))
    worst_seed = 0
    if worst < math.inf:
        worst_seed = int(seeds[np.argmax(margin <= worst + linalg._tol(abs(worst)))])
    failed = np.flatnonzero(~holds)
    return len(failed), worst, worst_seed, detail[failed[0]] if len(failed) else None


def trial_args(ineq_id: str, child_seed: int, dims: tuple[int, int] = (2, 8)) -> tuple:
    """The arguments of the fuzz trial with this child seed, in the order
    the id's public verifier takes them.

    A trial is fixed by its child seed and the dimension range, so a
    campaign's worst_seed rebuilds its worst instance:
    getattr(ineq, VERIFIERS[id].check)(*trial_args(id, worst_seed, dims)).
    It draws through _groups, as fuzz does, on a batch of one seed, and
    returns row 0 of each stacked argument.
    """
    _check_dims(dims, "trial_args")
    entry = _lookup(ineq_id)
    seeds = np.array([child_seed & _MASK], dtype=np.uint64)
    ((_, args),) = _groups(entry, seeds, *_d_range(entry, dims))
    return tuple(a[0] if isinstance(a, np.ndarray) else a for a in args)


def fuzz(ineq_id: str, trials: int = 500, dims: tuple[int, int] = (2, 8),
         seed: int = 0) -> FuzzSummary:
    """Run one inequality family on `trials` generated instances.

    Trial t uses the child seed derive_seed(seed, t). The trials are judged
    by the verifier's kernel and reduced by _campaign. Every family needs
    d >= 2: a lower bound of 1 is raised to 2. A lower bound below 1, an
    empty range, a range with no d >= 2 or above MAX_DIM raises ValueError
    (_check_dims), as does a trial count below 0 or above MAX_TRIALS.
    """
    _check_dims(dims, "fuzz", trials)
    entry = _lookup(ineq_id)
    # derive_seed(seed, t) for every t at once
    seeds = _splitmix64_block(seed & _MASK, 0, trials)
    failures, worst, worst_seed, _ = _campaign(entry, entry.judge, seeds, dims)
    return FuzzSummary(
        ineq_id=ineq_id, trials=trials, failures=failures,
        worst_margin=0.0 if trials == 0 else worst, worst_seed=worst_seed,
    )
