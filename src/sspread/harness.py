"""Deterministic generators, fixture reproductions, the verifier registry,
fuzz campaigns, and the property suite.

All randomness flows through the counter-based stream in rng.py: a campaign
at seed s gives trial t the child seed derive_seed(s, t), so any failing
instance can be rebuilt from its reported worst_seed alone. Nothing here
reads a clock, so every result is a function of the arguments alone.

A fuzz campaign, and each property of the property suite, derives all child
seeds in one expression and draws every trial's d at counter 0 of its stream.
It then draws the trials of one d together, on one Stream over their seeds:
every generator builds a stack (B, rows, cols) whose row b is bit for bit
what the scalar stream of seed b draws alone, and a family or property splits
its rows further where a draw sets a shape or a shared scalar argument. Each
group goes to one call of the verifier's kernel or the property's judge over
stacks, and the rows are reduced in trial order, so a report does not depend
on grouping or chunking. generate() and trial_args() call the same
generators on the scalar stream, a batch of one.
"""

from __future__ import annotations

import functools
import inspect
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import ineq, linalg, major
from .errors import UnknownExample, UnknownInequality, UnknownKind
from .ineq import _size
from .linalg import _ct, _diag, _pad, _sv_array, _tol
from .major import _dec
from .rng import _MASK, Stream, _splitmix64_block, derive_seed
from .spectra import (
    DiagSpec,
    _eig_sides,
    _eig_spread,
    _matrix_spread,
    compact_scale,
    diag_scale,
    spread_plus,
)


@dataclass(frozen=True)
class GenSpec:
    """Recipe for one random matrix (or matrix family)."""

    kind: str
    dim: int
    seed: int
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in GEN_KINDS:
            raise UnknownKind(f"unknown generator kind {self.kind!r}")
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")


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
    parts) would consume. Each block is a multiple of 4 words, so the
    Box-Muller pairs of one call over all the blocks are those of one call
    per block, and the matrices are those of _crandn calls in turn. Like
    every generator here, each is one matrix on the scalar stream and a stack
    (B, rows, cols) on a batch of B seeds.
    """
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


def _crandn(stream: Stream, rows: int, cols: int) -> np.ndarray:
    """One complex Gaussian matrix (or stack), as _crandns draws it."""
    return _crandns(stream, (rows, cols))[0]


def _herm(g: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """The Hermitian matrix of a Gaussian draw g."""
    return scale * (g + _ct(g)) / 2.0


def _psd(g: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """The positive matrix of a Gaussian draw g."""
    return scale * (_ct(g) @ g)


def _hermitian(stream: Stream, d: int, scale: float = 1.0) -> np.ndarray:
    return _herm(_crandn(stream, d, d), scale)


def _positive(stream: Stream, d: int, scale: float = 1.0) -> np.ndarray:
    return _psd(_crandn(stream, d, d), scale)


def _haar(g: np.ndarray) -> np.ndarray:
    """The unitary of a Gaussian draw g, or of a stack of draws."""
    q, r = np.linalg.qr(g)
    ph = np.diagonal(r, axis1=-2, axis2=-1).copy()
    ph = np.where(np.abs(ph) > 0, ph / np.abs(ph), 1.0)
    return q * ph[..., None, :]  # fixes the phase so the factorization is unique


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


# generator kind -> its draw on a stream for a GenSpec
_KINDS = {
    "hermitian": lambda stream, spec: _hermitian(stream, spec.dim, spec.scale),
    "positive": lambda stream, spec: _positive(stream, spec.dim, spec.scale),
    "unitary": lambda stream, spec: _unitary(stream, spec.dim),
    "projection": lambda stream, spec: _projection(stream, spec.dim),
    "partition_isometry": lambda stream, spec: _partition(stream, spec.dim),
    "complex_general": lambda stream, spec: spec.scale * _crandn(stream, spec.dim, spec.dim),
}
GEN_KINDS = tuple(_KINDS)


def generate(spec: GenSpec):
    """Build the matrix (or (C, S, P) triple) a GenSpec describes."""
    return _KINDS[spec.kind](Stream(spec.seed), spec)


# ---------------------------------------------------------------------------
# fixture reproductions


def fixture_matrices(example_id: str) -> dict:
    """Exact inputs for the documented examples, by construction."""
    if example_id == "kittaneh-fail":
        return {
            "A": np.eye(2, dtype=np.complex128),
            "B": np.array([[1.0, 2.0], [2.0, 1.0]], dtype=np.complex128),
            "X": np.array([[2.0, 1.0], [1.0, 2.0]], dtype=np.complex128),
        }
    if example_id == "agm-fail-2x2":
        t1, t2 = math.pi / 3.0, math.pi / 5.0
        return {
            "S": np.diag([math.sin(t1), math.sin(t2)]).astype(np.complex128),
            "C": np.diag([math.cos(t1), math.cos(t2)]).astype(np.complex128),
            "E": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128),
        }
    if example_id == "agm-fail-3x3":
        return {
            "A": np.array(
                [[1.0, 0.0, -1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 1.0]],
                dtype=np.complex128,
            ),
            "B": np.array(
                [[-1.0, 0.0, 0.5], [0.0, 1.0, 0.0], [0.5, 0.0, 1.0]],
                dtype=np.complex128,
            ),
            "E": np.array(
                [[1.0, 0.0, 2.0], [0.0, 1.0, 0.0], [2.0, 0.0, 1.0]],
                dtype=np.complex128,
            ),
        }
    if example_id == "diag-scale":
        return {
            "spec": DiagSpec(
                head=(), liminf=-1.0, limsup=1.0,
                generator="alt_harmonic", params={"upper": 1.0, "lower": -1.0},
            )
        }
    raise UnknownExample(f"unknown example id {example_id!r}")


EXAMPLE_IDS = ("diag-scale", "kittaneh-fail", "agm-fail-2x2", "agm-fail-3x3")


def _plain(value):
    if np.isscalar(value):
        return float(value)
    return [float(x) for x in np.asarray(value, dtype=float)]


def _item(name: str, computed, expected, tol: float) -> dict:
    if np.isscalar(expected):
        err = abs(float(computed) - float(expected))
    else:
        c = np.asarray(computed, dtype=float)
        e = np.asarray(expected, dtype=float)
        err = float(np.max(np.abs(c - e))) if c.shape == e.shape else math.inf
    return {
        "name": name,
        "computed": _plain(computed),
        "expected": _plain(expected),
        "tol": tol,
        "pass": bool(err <= tol),
    }


def _flag(name: str, value: bool, expected: bool = True) -> dict:
    return {
        "name": name, "computed": bool(value), "expected": expected,
        "tol": 0.0, "pass": bool(value) == expected,
    }


def repro(example_id: str) -> dict:
    """Recompute every quoted number of one documented example."""
    mats = fixture_matrices(example_id)
    checks: list[dict] = []
    if example_id == "kittaneh-fail":
        a, b, x = mats["A"], mats["B"], mats["X"]
        checks.append(_item("s(AX-XB)", linalg.sv_array(a @ x - x @ b), (6.0, 2.0), 1e-9))
        sc = compact_scale(linalg.direct_sum(a, b), 8)
        checks.append(_item("scale(A+B) pos head", sc.pos[:4], (3.0, 1.0, 1.0, 0.0), 1e-9))
        checks.append(_item("scale(A+B) neg head", sc.neg[:4], (-1.0, 0.0, 0.0, 0.0), 1e-9))
        checks.append(_item("s(X)", linalg.sv_array(x), (3.0, 1.0), 1e-9))
        spr = spread_plus(sc)
        checks.append(_item("spread(A+B) head", spr.values[:4], (4.0, 1.0, 1.0, 0.0), 1e-9))
        sx = linalg.sv_array(x)
        checks.append(
            _item("spread_2(A+B) * s_2(X)", float(spr.values[1] * sx[1]), 1.0, 1e-9)
        )
        v = ineq.check_mixed_commutator(a, b, x)
        checks.append(_flag("submajorization holds", v.holds))
        checks.append(_flag("entrywise fails at i=2", not v.entrywise_holds))
        checks.append(
            _item("entrywise slack at i=2", float(v.entrywise_margins[1]), -1.0, 1e-9)
        )
    elif example_id == "agm-fail-2x2":
        s, c, e = mats["S"], mats["C"], mats["E"]
        sec = s @ e @ c.conj().T
        fro = major.schatten(linalg.sv_array(sec), 2)
        checks.append(_item("|SEC*|_2", fro, 0.7598, 5e-4))
        half_e = 0.5 * major.schatten(linalg.sv_array(e), 2)
        checks.append(_item("|E|_2 / 2", half_e, math.sqrt(2.0) / 2.0, 1e-9))
        checks.append(_flag("identity-model norm bound fails", fro > half_e))
        checks.append(_item("spread(E)", spread_plus(compact_scale(e)).values, (2.0, 0.0, 0.0, 0.0), 1e-9))
        v = ineq.check_agm_compact(s, c, e)
        checks.append(_flag("compact-model bound holds", v.holds))
        checks.append(_flag("identity-model flag in verdict", not v.extras["fro"]["identity_ok"]))
    elif example_id == "agm-fail-3x3":
        a, b, e = mats["A"], mats["B"], mats["E"]
        f2 = a.conj().T @ a + b.conj().T @ b
        checks.append(_item("F = A*A+B*B diagonal", np.diagonal(f2).real, (3.25, 2.0, 3.25), 1e-9))
        checks.append(
            _item("F off-diagonal mass", float(np.max(np.abs(f2 - np.diag(np.diagonal(f2))))), 0.0, 1e-12)
        )
        w, v_ = linalg.eigh(f2)
        froot = ineq._psd_root(w, v_)
        g = froot @ e @ froot
        wg = linalg.eigh(g).values
        checks.append(_item("eigenvalues of F^(1/2)EF^(1/2)", wg, (9.75, 2.0, -3.25), 1e-9))
        spr_g = spread_plus(compact_scale(g))
        checks.append(_item("spread head", spr_g.values[:3], (13.0, 2.0, 0.0), 1e-9))
        s_aeb = linalg.sv_array(a @ e @ b.conj().T)
        checks.append(_item("s(AEB*)", s_aeb, (4.74, 1.58, 1.0), 5e-2))
        checks.append(_item("2 s_2(AEB*) - 2 > 0 gap", float(2.0 * s_aeb[1] - 2.0), 1.16, 5e-2))
        v = ineq.check_agm_general(a, b, e)
        checks.append(_flag("submajorization holds", v.holds))
        checks.append(_flag("entrywise fails at i=2", not v.entrywise_holds))
    elif example_id == "diag-scale":
        spec = mats["spec"]
        k = 50
        sc = diag_scale(spec, k)
        checks.append(_item("lambda_i = 1 + 1/i", sc.pos, [1.0 + 1.0 / i for i in range(1, k + 1)], 1e-12))
        checks.append(_item("lambda_-i = -1", sc.neg, [-1.0] * k, 1e-12))
        checks.append(_item("tails", (sc.pos_tail, sc.neg_tail), (1.0, -1.0), 0.0))
        spr = spread_plus(sc)
        checks.append(_item("spread_i = 2 + 1/i", spr.values, [2.0 + 1.0 / i for i in range(1, k + 1)], 1e-12))
        checks.append(_item("spread tail", spr.tail, 2.0, 0.0))
    return {"example_id": example_id, "checks": checks, "holds": all(c["pass"] for c in checks)}


# ---------------------------------------------------------------------------
# fuzz families: each draws its verifier's arguments for a stream's trials
#
# A family draw(stream, d) returns the groups one kernel call each can judge:
# [(rows, args)], rows indexing the stream's batch (slice(None) for all of
# them) and args the kernel's arguments for those rows. A per-row draw that
# sets a shape (n) or a shared scalar argument (a split, an absent E2) splits
# the rows by its value. On the scalar stream there is one group, and args
# are the public verifier's arguments for that one trial.


def _split(values) -> list[tuple]:
    """(value, rows) for each distinct value of a per-row draw, in increasing
    order; rows is slice(None) when every row shares the value, as the one
    row of the scalar stream always does."""
    if np.ndim(values) == 0:
        return [(values, slice(None))]
    if np.all(values == values[0]):
        return [(values[0].item(), slice(None))]
    return [(v.item(), np.flatnonzero(values == v)) for v in np.unique(values)]


def _whole(*args) -> list[tuple]:
    """Every row in one group."""
    return [(slice(None), args)]


def _by_n(stream: Stream, d: int, draw) -> list[tuple]:
    """Draw a second dimension n in [2, d] per row, then each n's rows on
    their own stream: draw(stream of those rows, n) gives their arguments."""
    return [(rows, draw(stream.take(rows), n)) for n, rows in _split(stream.randint(2, d))]


def _fam_tao(stream: Stream, d: int):
    f = _positive(stream, d)
    return [(rows, (f[rows], k)) for k, rows in _split(stream.randint(1, d - 1))]


def _fam_key(stream: Stream, d: int):
    a = _hermitian(stream, d)
    return [(rows, (a[rows], k)) for k, rows in _split(stream.randint(1, d - 1))]


def _fam_trace(stream: Stream, d: int):
    rank = stream.randint(1, d)
    v = _unitary(stream, d)
    w = np.where(_lead(rank, d) > 0.0, np.asarray(stream.normals(d)), 0.0)
    a = (v * w[..., None, :]) @ _ct(v)
    return _whole(a, _hermitian(stream, d))


def _fam_herm_pair(stream: Stream, d: int):
    ga, gb = _crandns(stream, (d, d), (d, d))
    return _whole(_herm(ga), _herm(gb))


def _fam_mixed(stream: Stream, d: int):
    def draw(sub, n):
        ga, gb, x = _crandns(sub, (d, d), (n, n), (d, n))
        return _herm(ga), _herm(gb), x
    return _by_n(stream, d, draw)


def _fam_general_comm(stream: Stream, d: int):
    return _by_n(stream, d, lambda sub, n: tuple(_crandns(sub, (d, d), (n, n), (d, n))))


def _fam_unitary(stream: Stream, d: int):
    ga, gx = _crandns(stream, (d, d), (d, d))
    a, x = _herm(ga), _herm(gx)
    nrm = _sv_array(x)[..., 0]
    # a zero X stays zero whatever it is scaled by
    scale = math.pi * np.asarray(stream.uniform()) / np.where(nrm > 0, nrm, 1.0)
    return _whole(a, x * scale[..., None, None])


def _fam_agm_split(stream: Stream, d: int):
    c, s, _ = _partition(stream, d)
    return _whole(s, c, _hermitian(stream, d))


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


def _fam_equiv5(stream: Stream, d: int):
    c, s, _ = _partition(stream, d, rank=d)
    return _whole(s, c, _hermitian(stream, d))


def _fam_equiv_c2(stream: Stream, d: int):
    a, b, ge = _crandns(stream, (d, d), (d, d), (d, d))
    return _whole(a, b, _herm(ge))


def _fam_control_kittaneh(stream: Stream, d: int):
    def draw(sub, n):
        gc, gd, x = _crandns(sub, (d, d), (n, n), (d, n))
        return _psd(gc), _psd(gd), x
    return _by_n(stream, d, draw)


def _fam_control_bk(stream: Stream, d: int):
    return _whole(*_crandns(stream, (d, d), (d, d)))


def _fam_control_gap(stream: Stream, d: int):
    w, v = linalg._eigh(_hermitian(stream, d))
    w[..., 0] = np.maximum(w[..., 0], 0.5)
    w[..., -1] = np.minimum(w[..., -1], -0.5)
    return _whole((v * w[..., None, :]) @ _ct(v))


# ---------------------------------------------------------------------------
# the verifier registry


@dataclass(frozen=True)
class Verifier:
    """One member of the paper's inequality family.

    `check` names the public ineq function that judges it; `sspread check`
    looks it up on the module at call time, so a wrapped or patched ineq
    function is the one that runs, and reads its file list off that
    function's parameters (ineq._matrix_params). fuzz runs the kernel
    behind it, `inspect.unwrap(getattr(ineq, check))`, on stacks of trials.
    `draw(stream, d)` draws the verifier's arguments for the trials of a
    stream at dimension d, as the groups of the fuzz families above;
    `trial_args` rebuilds one trial's public arguments. A row that shares
    its check and draw with a theorem row re-runs that theorem under the
    name of one of the equivalent formulations.
    """

    id: str
    kind: str  # "theorem", "equivalent" or "control"
    check: str
    draw: Callable[[Stream, int], list]


VERIFIERS = {v.id: v for v in (
    Verifier("tao_positive", "theorem", "check_tao_positive", _fam_tao),
    Verifier("key", "theorem", "check_key", _fam_key),
    Verifier("trace_pairing", "theorem", "check_trace_pairing", _fam_trace),
    Verifier("commutator_scale", "theorem", "check_commutator_scale", _fam_herm_pair),
    Verifier("commutator_sv", "theorem", "check_commutator_sv", _fam_herm_pair),
    Verifier("mixed_commutator", "theorem", "check_mixed_commutator", _fam_mixed),
    Verifier("general_commutator", "theorem", "check_general_commutator", _fam_general_comm),
    Verifier("unitary_conj", "theorem", "check_unitary_conj", _fam_unitary),
    Verifier("agm_projection", "theorem", "check_agm_projection", _fam_agm_split),
    Verifier("agm_pair", "theorem", "check_agm_pair", _fam_agm_pair),
    Verifier("agm_compact", "theorem", "check_agm_compact", _fam_agm_split),
    Verifier("agm_general", "theorem", "check_agm_general", _fam_agm_general),
    Verifier("zhan", "theorem", "check_zhan", _fam_herm_pair),
    Verifier("equiv1", "equivalent", "check_offdiag_projection", _fam_offdiag),
    Verifier("equiv2", "equivalent", "check_commutator_sv", _fam_herm_pair),
    Verifier("equiv3", "equivalent", "check_mixed_commutator", _fam_mixed),
    Verifier("equiv4", "equivalent", "check_zhan", _fam_herm_pair),
    Verifier("equiv5", "equivalent", "check_identity_split", _fam_equiv5),
    Verifier("equiv_compact1", "equivalent", "check_offdiag_compact", _fam_offdiag),
    # not an alias of agm_general: E here is always Hermitian, never drawn positive
    Verifier("equiv_compact2", "equivalent", "check_agm_general", _fam_equiv_c2),
    Verifier("control_kittaneh", "control", "control_kittaneh_positive", _fam_control_kittaneh),
    Verifier("control_bhatia_kittaneh", "control", "control_bhatia_kittaneh", _fam_control_bk),
    Verifier("control_strict_gap", "control", "control_strict_gap", _fam_control_gap),
)}


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


def _check_dims(dims: tuple[int, int], what: str, trials: int = 0) -> None:
    if not 0 <= trials <= MAX_TRIALS:
        raise ValueError(f"{what} runs from 0 up to {MAX_TRIALS} trials, got {trials}")
    if dims[1] < max(2, dims[0]):
        raise ValueError(f"{what} needs a dimension range containing d >= 2, got {dims}")
    if dims[1] > MAX_DIM:
        raise ValueError(f"{what} draws dimensions up to {MAX_DIM}, got {dims}")


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


def trial_args(ineq_id: str, child_seed: int, dims: tuple[int, int] = (2, 8)) -> tuple:
    """The arguments of the fuzz trial with this child seed, in the order
    the id's public verifier takes them.

    A trial is fixed by its child seed and the dimension range, so a
    campaign's worst_seed rebuilds its worst instance:
    getattr(ineq, VERIFIERS[id].check)(*trial_args(id, worst_seed, dims)).
    It draws through the family on the scalar stream, a batch of one.
    """
    if ineq_id not in VERIFIERS:
        raise UnknownInequality(f"no fuzz family for {ineq_id!r}")
    _check_dims(dims, "trial_args")
    stream = Stream(child_seed)
    ((_, args),) = VERIFIERS[ineq_id].draw(stream, stream.randint(max(2, dims[0]), dims[1]))
    return args


def fuzz(ineq_id: str, trials: int = 500, dims: tuple[int, int] = (2, 8),
         seed: int = 0) -> FuzzSummary:
    """Run one inequality family on `trials` generated instances.

    Trial t uses the child seed derive_seed(seed, t); worst_margin is the
    smallest judged margin seen, worst_seed the child seed of the first trial
    that produced it. Every family needs d >= 2: a lower bound of 1 is raised
    to 2, and a range with no d >= 2 or above MAX_DIM raises ValueError, as
    does a trial count below 0 or above MAX_TRIALS.

    The trials are drawn in groups (see _groups), each group is judged by
    one kernel call, and the rows are put back in trial order before the
    reduction, so the report does not depend on the grouping.
    """
    if ineq_id not in VERIFIERS:
        raise UnknownInequality(f"no fuzz family for {ineq_id!r}")
    _check_dims(dims, "fuzz", trials)
    entry = VERIFIERS[ineq_id]
    kernel = inspect.unwrap(getattr(ineq, entry.check))
    # derive_seed(seed, t) for every t at once
    seeds = _splitmix64_block(seed & _MASK, 0, trials)
    holds = np.ones(trials, dtype=bool)
    margin = np.empty(trials)
    for index, args in _groups(entry, seeds, max(2, dims[0]), dims[1]):
        rows = kernel(*args)
        holds[index] = rows.holds
        margin[index] = rows.margin
    worst = math.inf
    worst_seed = 0
    if trials:
        # the first trial of smallest margin; a NaN margin never wins
        i = int(np.argmin(np.where(np.isnan(margin), math.inf, margin)))
        if margin[i] < worst:
            worst, worst_seed = float(margin[i]), int(seeds[i])
    return FuzzSummary(
        ineq_id=ineq_id, trials=trials, failures=int(trials - np.count_nonzero(holds)),
        worst_margin=0.0 if trials == 0 else worst, worst_seed=worst_seed,
    )


# ---------------------------------------------------------------------------
# property suite
#
# A property draws its inputs for a stream's trials as the fuzz families do,
# [(rows, args)], and judge(*args) returns the rows' margins and their
# failure messages (None where a row holds), through _judged, from checks
# whose tol is linalg._tol of the size of the judge's inputs. Judges work on
# stacks through the same private helpers the public functions run on a
# batch of one.


@dataclass(frozen=True)
class Property:
    """One property; d is drawn from the suite's dims cut to [lo, hi], or is hi above it."""

    draw: Callable[[Stream, int], list]
    judge: Callable[..., tuple]
    lo: int = 1
    hi: int = MAX_DIM


def _judged(*checks) -> tuple[np.ndarray, list]:
    """(margins, messages) of (message, margin, tol) checks over a stack's rows.

    A margin is the bound minus the value, and a check holds on a row where
    its margin is at least -tol. A row's margin is the smallest of its
    checks', and its message names the first check it fails, with that
    check's margin and tol.
    """
    margin = functools.reduce(np.minimum, (m for _, m, _ in checks))
    detail = [None] * len(margin)
    for msg, m, tol in checks:
        bad = ~np.greater_equal(m, -tol)
        if bad.any():
            m, tol, bad = (np.broadcast_to(x, margin.shape) for x in (m, tol, bad))
            for i in np.flatnonzero(bad):
                if detail[i] is None:
                    detail[i] = f"{msg} (margin {m[i]:.3e}, tol {tol[i]:.3e})"
    return margin, detail


def _relation(msg: str, sides: Callable, **how) -> Callable:
    """The judge of one (sub)majorization, major._maj_rows(*sides(*args), **how);
    a classic majorization's total-sum defect is a check of its own."""
    def judge(*args):
        rows = major._maj_rows(*sides(*args), **how)
        checks = [(msg, rows.margin, rows.tol)]
        if rows.defect is not None:
            checks.append((f"{msg}: total sums differ", -np.abs(rows.defect), rows.tol))
        return _judged(*checks)
    return judge


def _rand_perm(stream: Stream, n: int) -> np.ndarray:
    """A Fisher-Yates permutation of range(n) per row.

    The swap partners of steps i = n-1 .. 1 are drawn at once, one word per
    step in step order, as a randint(0, i) per step would draw them.
    """
    perm = np.tile(np.arange(n), stream.shape + (1,))
    rows = np.arange(len(perm))
    steps = np.arange(n - 1, 0, -1)
    for i, j in zip(steps, stream.randint(0, steps).T):
        perm[rows, i], perm[rows, j] = perm[rows, j], perm[rows, i]
    return perm


def _mix(stream: Stream, y: np.ndarray, rounds: int = 6) -> np.ndarray:
    """A vector classically majorized by each row of y: a convex mix of its permutations."""
    weights = stream.uniforms(rounds) + 1e-3
    weights /= weights.sum(axis=-1, keepdims=True)
    acc = np.zeros(y.shape)
    for w in weights.T:
        acc = acc + w[:, None] * np.take_along_axis(y, _rand_perm(stream, y.shape[-1]), -1)
    return acc


def _matrix_multiset(mu: np.ndarray) -> np.ndarray:
    """The matrix-mode scale of eigenvalues mu as a multiset (pos, then neg)."""
    return np.concatenate([mu, mu[..., ::-1]], axis=-1)


def _d_eigh(stream: Stream, d: int):
    a = _hermitian(stream, d, (1.0 + 9.0 * stream.uniform())[:, None, None])
    forced = np.flatnonzero(stream.uniform() < 0.25)
    if forced.size:
        # force eigenvalue multiplicities
        w, v = linalg._eigh(a[forced])
        b = (v * np.round(w)[..., None, :]) @ _ct(v)
        a[forced] = (b + _ct(b)) / 2.0
    return _whole(a)


def _j_eigh(a):
    d = a.shape[-1]
    w, v = linalg._eigh(a)
    resid = np.linalg.norm(a @ v - v @ _diag(w), axis=(-2, -1))
    return _judged(
        ("eigh residual", -resid, _tol(_size(w), d)),
        # the eigenvectors have norm 1 at every scale of A
        ("eigenvector basis defect", -_size(_ct(v) @ v - np.eye(d)), _tol(1.0, d)),
        ("eigenvalues not sorted", np.min(-np.diff(w, axis=-1), axis=-1, initial=math.inf), 0.0),
    )


def _j_hat(e):
    d = e.shape[-1]
    pos, neg = _eig_sides(linalg._eigvalsh(linalg._offdiag_embed(e)), 4 * d)
    s = _sv_array(e)
    ref_pos, ref_neg = major._updown(np.concatenate([s, -s], axis=-1), 4 * d)
    err = _size(pos - ref_pos, neg - ref_neg)
    return _judged(("hat-trick mismatch", -err, _tol(s[:, 0], 2 * d)))


def _j_sv_invariance(a, u, v):
    s = _sv_array(a)
    err = _size(_sv_array(u @ a @ v) - s)
    return _judged(("s(UAV) != s(A)", -err, _tol(s[:, 0], a.shape[-1])))


def _j_sv_product(a, x, y):
    lhs = _sv_array(x @ a @ y)
    bound = (linalg._opnorm(x) * linalg._opnorm(y))[:, None] * _sv_array(a)
    return _judged(("s(XAY) bound violated", np.min(bound - lhs, axis=-1),
                    _tol(bound[:, 0], a.shape[-1])))


def _j_weyl_scale(a, b):
    wa, wb, wab = linalg._eigvalsh(a), linalg._eigvalsh(b), linalg._eigvalsh(a + b)
    m = major._maj_rows(_matrix_multiset(wab), _matrix_multiset(wa) + _matrix_multiset(wb))
    (pa, na), (pb, nb) = _eig_sides(wa), _eig_sides(wb)
    c = major._maj_rows(np.concatenate(_eig_sides(wab), axis=-1),
                        np.concatenate([pa + pb, na + nb], axis=-1), True, True)
    return _judged(("matrix-mode scale Weyl failed", m.margin, m.tol),
                   ("compact-mode scale Weyl failed", c.margin, c.tol))


def _d_ky_fan(stream: Stream, d: int):
    a = _hermitian(stream, d)
    k = stream.randint(1, d)
    ps = [_projection(stream, d, rank=k) for _ in range(4)]
    return [(rows, (a[rows], kv, *(p[rows] for p in ps))) for kv, rows in _split(k)]


def _j_ky_fan(a, k, *ps):
    d = a.shape[-1]
    w, v = linalg._eigh(a)
    top = np.sum(w[:, :k], axis=-1)
    tr_top = np.trace(_ct(v[:, :, :k]) @ a @ v[:, :, :k], axis1=-2, axis2=-1).real
    bottom = np.sum(w[:, d - k:], axis=-1)
    tol = _tol(_size(w), d)
    checks = [("top-k eigenprojection trace mismatch", -np.abs(top - tr_top), tol)]
    for p in ps:
        tr = np.trace(p @ a, axis1=-2, axis2=-1).real
        checks += [("Ky Fan extremality violated", top - tr, tol),
                   ("Ky Fan extremality violated", tr - bottom, tol)]
    return _judged(*checks)


def _d_interlacing(stream: Stream, d: int):
    a, r = _hermitian(stream, d), stream.randint(1, d - 1)
    p = _projection(stream, d, rank=r)
    return [(rows, (a[rows], p[rows])) for _, rows in _split(r)]


def _j_interlacing(a, p):
    # A_P is Hermitian up to rounding only, so it is validated as eigh would
    comp = linalg._as_hermitians(linalg._compressed(a, p))
    wa, wc = linalg._eigh(a).values, linalg._eigh(comp).values
    d, r = wa.shape[-1], wc.shape[-1]
    tol = _tol(_size(wa), d)
    # lambda_j(A) >= lambda_j(A_P), and at the bottom lambda_{r-j}(A_P) >= lambda_{d-j}(A)
    return _judged(("interlacing violated", np.min(wa[:, :r] - wc, axis=-1), tol),
                   ("interlacing violated", np.min(wc - wa[:, d - r:], axis=-1), tol))


def _j_scale_ordering(a):
    # exact: a spread is pos - neg of sides with pos >= 0 >= neg
    dsc = diag_scale(DiagSpec(liminf=-1.0, limsup=1.0, generator="alt_harmonic"), 8)
    return _judged(("compact scale ordering violated",
                    np.min(_eig_spread(linalg._eigvalsh(a)), axis=-1), 0.0),
                   ("diag scale ordering violated", float(np.min(dsc.pos - dsc.neg)), 0.0))


def _j_translation(a, c):
    w = linalg._eigvalsh(a)
    shifted = linalg._eigvalsh(a + c[:, None, None] * np.eye(a.shape[-1]))
    err = _size(_matrix_spread(w) - _matrix_spread(shifted))
    return _judged(("translation changed the spread", -err,
                    _tol(_size(w) + np.abs(c), a.shape[-1])))


def _j_homogeneity(a, c):
    mu, mu_c = linalg._eigvalsh(a), linalg._eigvalsh(c[:, None, None] * a)
    err = _size(*[spread(mu_c) - np.abs(c)[:, None] * spread(mu)
                  for spread in (_matrix_spread, _eig_spread)])
    return _judged(("homogeneity defect", -err, _tol(np.abs(c) * _size(mu), a.shape[-1])))


def _j_zero_block(a):
    k = 2 * a.shape[-1]
    w = linalg._eigvalsh(a)
    padded = linalg._eigvalsh(linalg._direct_sum(a, np.zeros(a.shape)))
    err = _size(_eig_spread(w, k) - _eig_spread(padded, k))
    return _judged(("zero block changed the compact spread", -err, _tol(_size(w), k)))


def _j_spread_vs_sv(a, p):
    d = a.shape[-1]
    pos, neg = _eig_sides(linalg._eigvalsh(a))
    s, sp = _pad(_sv_array(a), 2 * d), _pad(_sv_array(p), 2 * d)
    size = np.abs(pos) + np.abs(neg)
    # each comparison at the scale of its own matrix: P = G*G is larger than A
    tol, tol_p = _tol(s[:, 0], d), _tol(sp[:, 0], d)
    return _judged(
        ("spread vs singular-value sandwich failed", np.min(size - (pos - neg), axis=-1), tol),
        ("spread vs singular-value sandwich failed", np.min(2.0 * s - size, axis=-1), tol),
        ("positive case spread <= s failed",
         np.min(sp - _eig_spread(linalg._eigvalsh(p)), axis=-1), tol_p))


def _j_doubling(a):
    d = a.shape[-1]
    w = linalg._eigvalsh(a)
    dbl = _eig_spread(linalg._eigvalsh(linalg._direct_sum(a, a)), 4 * d)
    single = _eig_spread(w, 2 * d)
    err = _size(dbl - _dec(np.concatenate([single, single], axis=-1)))
    rep = major._sub_rows(0.5 * dbl, _pad(_sv_array(a), 4 * d))
    return _judged(("doubled spread mismatch", -err, _tol(_size(w), 2 * d)),
                   ("half doubled spread vs s(A) failed", rep.margin, rep.tol))


def _d_monotone(stream: Stream, d: int):
    b = _hermitian(stream, d)
    weights = stream.uniforms(3) + 1e-3
    weights /= weights.sum(axis=-1, keepdims=True)
    a = np.zeros(b.shape, dtype=np.complex128)
    for w in weights.T:
        u = _unitary(stream, d)
        a = a + w[:, None, None] * (_ct(u) @ b @ u)
    return _whole((a + _ct(a)) / 2.0, b)


def _j_monotone(a, b):
    wa, wb = linalg._eigvalsh(a), linalg._eigvalsh(b)
    prem = major._maj_rows(_matrix_multiset(wa), _matrix_multiset(wb))
    rep = major._sub_rows(_eig_spread(wa), _eig_spread(wb))
    return _judged(("averaged conjugates failed the scale premise", prem.margin, prem.tol),
                   ("spread monotonicity under majorization failed", rep.margin, rep.tol))


def _subadditive_sides(a, b):
    k = 2 * a.shape[-1]
    va, vb, vab = (_eig_spread(linalg._eigvalsh(m), k) for m in (a, b, a + b))
    return np.concatenate([vab, -vab], axis=-1), np.concatenate([va + vb, -va + -vb], axis=-1)


def _updown_sum_sides(x, y):
    (xp, xn), (yp, yn) = major._updown(x, x.shape[-1]), major._updown(y, y.shape[-1])
    return x + y, np.concatenate([xp + yp, xn + yn], axis=-1)


def _d_abs(stream: Stream, n: int):
    y = stream.normals(n)
    return _whole(_mix(stream, y), y)


def _d_sorted_sum(stream: Stream, n: int):
    z, w = _dec(stream.normals(n)), _dec(stream.normals(n))
    return _whole(_mix(stream, z), _mix(stream, w), z, w)


def _d_interleave(stream: Stream, n: int):
    y, w = np.abs(stream.normals(n)), np.abs(stream.normals(n))
    x = stream.uniform()[:, None] * _mix(stream, y)
    return _whole(x, stream.uniform()[:, None] * _mix(stream, w), y, w)


def _d_product_monotone(stream: Stream, n: int):
    y, z = _dec(np.abs(stream.normals(n))), _dec(np.abs(stream.normals(n)))
    return _whole(stream.uniform()[:, None] * _mix(stream, y), y, z)


def _j_product_chain(x, y):
    mid = x * y
    low = major._sub_rows(_dec(x) * np.sort(y, axis=-1), mid)
    high = major._sub_rows(mid, _dec(x) * _dec(y))
    return _judged(("rearranged product chain failed", low.margin, low.tol),
                   ("rearranged product chain failed", high.margin, high.tol))


def _d_weighted(stream: Stream, n: int):
    y = _dec(stream.normals(n))
    # lowering entries of a mixed copy keeps x weakly below y, signs and all
    drop = stream.uniform()[:, None] * np.abs(stream.normals(n))
    x = _dec(_mix(stream, y) - drop)
    return _whole(x, y, _dec(np.abs(stream.normals(n))))


def _j_weighted(x, y, z):
    # z is non-negative and non-increasing, so z[:, 0] is its size
    return _judged(("weighted sum ordering failed", np.sum((y - x) * z, axis=-1),
                    _tol(_size(x, y) * z[:, 0], x.shape[-1])))


def _d_gauge(stream: Stream, n: int):
    y = np.abs(stream.normals(n))
    return _whole(stream.uniform()[:, None] * _mix(stream, y), y)


def _j_gauge(x, y):
    n = x.shape[-1]
    xs, ys = _dec(x), _dec(y)
    tol = _tol(ys[:, 0], n)
    return _judged(*((f"the {nid} gauge decreased under submajorization",
                      major._gauge_rows(ys, nid) - major._gauge_rows(xs, nid), tol)
                     for nid in ("op", "kyfan:2", "schatten:1", "schatten:2", "schatten:3")
                     if nid != "kyfan:2" or n >= 2))


def _d_contracts(stream: Stream, d: int):
    seeds = stream.next_u64()
    c, s, pp = _partition(Stream(seeds), d)
    twice = [_hermitian(Stream(seeds), d) for _ in range(2)]
    return _whole(_projection(Stream(seeds), d), c, s, pp, _unitary(Stream(seeds), d), *twice)


def _j_contracts(p, c, s, pp, u, again, first):
    d = p.shape[-1]
    # projections, contractions and unitaries: every operand has norm at most 1
    tol = _tol(1.0, d)
    return _judged(
        ("projection residual", -_size(p @ p - p), tol),
        ("partition residual", -np.linalg.norm(_ct(c) @ c + _ct(s) @ s - pp, axis=(-2, -1)), tol),
        ("unitary residual", -_size(_ct(u) @ u - np.eye(d)), tol),
        ("generator is not deterministic", -_size(again - first), 0.0),
    )


PROPERTIES = {
    "eigh_residual": Property(_d_eigh, _j_eigh, hi=16),
    "hat_trick": Property(lambda s, d: _whole(_crandn(s, d, d)), _j_hat),
    "sv_unitary_invariance": Property(
        lambda s, d: _whole(_crandn(s, d, d), _unitary(s, d), _unitary(s, d)), _j_sv_invariance),
    "sv_product_bound": Property(
        lambda s, d: _whole(*(_crandn(s, d, d) for _ in range(3))), _j_sv_product),
    "weyl_scale": Property(_fam_herm_pair, _j_weyl_scale),
    "weyl_sv": Property(_fam_control_bk, _relation(
        "singular-value triangle submajorization failed",
        lambda a, b: (_sv_array(a + b), _sv_array(a) + _sv_array(b)), lower=False)),
    "ky_fan_extremality": Property(_d_ky_fan, _j_ky_fan),
    "interlacing": Property(_d_interlacing, _j_interlacing, lo=2),
    "scale_ordering": Property(lambda s, d: _whole(_hermitian(s, d)), _j_scale_ordering),
    "spread_translation_invariance": Property(
        lambda s, d: _whole(_hermitian(s, d), 4.0 * (s.uniform() - 0.5)), _j_translation),
    "spread_homogeneity": Property(
        lambda s, d: _whole(_hermitian(s, d), 4.0 * (s.uniform() - 0.5)), _j_homogeneity),
    "spread_zero_block": Property(lambda s, d: _whole(_hermitian(s, d)), _j_zero_block),
    "spread_vs_sv": Property(
        lambda s, d: _whole(_hermitian(s, d), _positive(s, d)), _j_spread_vs_sv),
    "spread_doubling": Property(lambda s, d: _whole(_hermitian(s, d)), _j_doubling),
    "spread_monotone": Property(_d_monotone, _j_monotone),
    "spread_subadditive": Property(_fam_herm_pair, _relation(
        "spread subadditivity failed", _subadditive_sides, clip_a=True, clip_b=True)),
    "updown_sum": Property(
        lambda s, n: _whole(s.normals(2 * n), s.normals(2 * n)), _relation(
            "x+y vs rearranged sum majorization failed", _updown_sum_sides,
            clip_a=True, clip_b=True)),
    "abs_majorization": Property(_d_abs, _relation(
        "|x| submajorization failed", lambda x, y: (np.abs(x), np.abs(y)), lower=False)),
    "sorted_sum": Property(_d_sorted_sum, _relation(
        "sum of majorized pairs failed", lambda x, y, z, w: (x + y, z + w), sums=True)),
    "interleave_pairs": Property(_d_interleave, _relation(
        "interleaved pair submajorization failed",
        lambda x, z, y, w: (np.concatenate([x, z], axis=-1), np.concatenate([y, w], axis=-1)),
        clip_a=True, clip_b=True, lower=False)),
    "product_sorting": Property(
        lambda s, n: _whole(np.abs(s.normals(n)), np.abs(s.normals(n))), _relation(
            "product vs sorted product failed",
            lambda x, y: (x * y, _dec(x) * _dec(y)), lower=False)),
    "product_monotone": Property(_d_product_monotone, _relation(
        "product with a decreasing weight failed", lambda x, y, z: (x * z, y * z), lower=False)),
    "product_chain": Property(
        lambda s, n: _whole(np.abs(s.normals(n)), np.abs(s.normals(n))), _j_product_chain),
    "weighted_sums": Property(_d_weighted, _j_weighted),
    "gauge_monotone": Property(_d_gauge, _j_gauge),
    "generator_contracts": Property(_d_contracts, _j_contracts),
}


def _property_rows(prop: Property, seeds: np.ndarray, dims: tuple[int, int]):
    """(margins, messages) of these child seeds' trials, drawn and judged in groups as fuzz's."""
    margin = np.empty(len(seeds))
    detail = [None] * len(seeds)
    hi = min(prop.hi, dims[1])
    for index, args in _groups(prop, seeds, min(max(prop.lo, dims[0]), hi), hi):
        margin[index], msgs = prop.judge(*args)
        for t, msg in zip(index.tolist(), msgs):
            detail[t] = msg
    return margin, detail


def property_suite(seed: int, trials: int = 500, dims: tuple[int, int] = (2, 8)) -> dict:
    """Run every module-level property `trials` times; report per-property.

    Trial t of the property numbered i (in name order) uses the child seed
    derive_seed(derive_seed(seed, i), t). A property fails at its first
    failing trial, whose message is its detail; worst_margin is the smallest
    margin of the trials before it. A lower bound below 1 is raised to 1;
    like fuzz, it raises ValueError on a dimension range with no d >= 2 or
    above MAX_DIM and on a trial count below 0 or above MAX_TRIALS.
    """
    _check_dims(dims, "property_suite", trials)
    results = []
    for idx, (name, prop) in enumerate(sorted(PROPERTIES.items())):
        seeds = _splitmix64_block(derive_seed(seed, idx), 0, trials)
        margin, detail = _property_rows(prop, seeds, dims)
        fail = next((t for t, msg in enumerate(detail) if msg is not None), len(detail))
        # the first smallest margin before the failure; a NaN margin never wins
        head = np.where(np.isnan(margin[:fail]), math.inf, margin[:fail])
        worst = float(head[np.argmin(head)]) if fail else math.inf
        results.append({
            "name": name,
            "holds": fail == len(detail),
            "worst_margin": 0.0 if worst == math.inf else worst,
            "detail": detail[fail] if fail < len(detail) else None,
        })
    return {
        "seed": seed,
        "trials": trials,
        "properties": results,
        "holds": all(r["holds"] for r in results),
    }
