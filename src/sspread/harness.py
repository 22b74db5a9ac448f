"""Deterministic generators, fixture reproductions, the verifier registry,
fuzz campaigns, and the property suite.

All randomness flows through the counter-based stream in rng.py: a campaign
at seed s gives trial t the child seed derive_seed(s, t), so any failing
instance can be rebuilt from its reported worst_seed alone.

A fuzz campaign derives all child seeds in one expression and draws every
trial's d at counter 0 of its stream. It then draws the trials of one d
together, on one Stream over their seeds: every generator builds a stack
(B, rows, cols) whose row b is bit for bit what the scalar stream of seed b
draws alone, and a family splits its rows further where a draw sets a shape
or a shared scalar argument. Each group goes to one call of the verifier's
kernel over stacks, and the rows are reduced in trial order, so a report does
not depend on grouping or chunking. The property suite, generate() and
trial_args() call the same generators on the scalar stream, a batch of one.
"""

from __future__ import annotations

import functools
import math
import time
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import ineq, linalg, major
from .errors import UnknownExample, UnknownInequality, UnknownKind
from .linalg import _ct, _diag
from .rng import _MASK, Stream, _splitmix64_block, derive_seed
from .spectra import (
    DiagSpec,
    SpreadSeq,
    TwoSidedSeq,
    compact_scale,
    diag_scale,
    matrix_scale,
    spread_full,
    spread_plus,
)

GEN_KINDS = (
    "hermitian", "positive", "unitary", "projection",
    "partition_isometry", "complex_general",
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
    runtime_ms: float


def _crandn(stream: Stream, rows: int, cols: int) -> np.ndarray:
    """i.i.d. standard complex Gaussian entries, row-major draw order.

    One block of 2m normals, m = n rounded up to even, is the stream that two
    normals(n) calls (real parts, then imaginary parts) would consume. Like
    every generator here, it returns one matrix on the scalar stream and a
    stack (B, rows, cols) on a batch of B seeds.
    """
    n = rows * cols
    m = n + (n & 1)
    z = np.asarray(stream.normals(2 * m))
    g = (z[..., :n] + 1j * z[..., m:m + n]) / math.sqrt(2.0)
    return g.reshape(stream.shape + (rows, cols))


def _hermitian(stream: Stream, d: int, scale: float = 1.0) -> np.ndarray:
    g = _crandn(stream, d, d)
    return scale * (g + _ct(g)) / 2.0


def _positive(stream: Stream, d: int, scale: float = 1.0) -> np.ndarray:
    g = _crandn(stream, d, d)
    return scale * (_ct(g) @ g)


def _unitary(stream: Stream, d: int) -> np.ndarray:
    g = _crandn(stream, d, d)
    q, r = np.linalg.qr(g)
    ph = np.diagonal(r, axis1=-2, axis2=-1).copy()
    ph = np.where(np.abs(ph) > 0, ph / np.abs(ph), 1.0)
    return q * ph[..., None, :]  # fixes the phase so the factorization is unique


def _lead(rank, d: int) -> np.ndarray:
    """1.0 on the first `rank` of d entries and 0.0 after, per row of rank."""
    return (np.arange(d) < np.asarray(rank)[..., None]).astype(float)


def _projection(stream: Stream, d: int, rank=None) -> np.ndarray:
    if rank is None:
        rank = 1 if d == 1 else stream.randint(1, d - 1)
    v = _unitary(stream, d)
    return v @ _diag(_lead(rank, d)) @ _ct(v)


def _partition(stream: Stream, d: int, rank=None,
               positive: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(C, S, P) with C*C + S*S = P by construction.

    positive=True draws C, S positive semidefinite (shared eigenbasis), the
    hypothesis class of the paired arithmetic-geometric-mean bound.
    """
    if rank is None:
        rank = stream.randint(1, d)
    v = _unitary(stream, d)
    w = _ct(v) if positive else _unitary(stream, d)
    theta = np.asarray(stream.uniforms(d)) * math.pi / 2.0
    mask = _lead(rank, d)
    c = v @ _diag(np.cos(theta) * mask) @ w
    s = v @ _diag(np.sin(theta) * mask) @ w
    p = _ct(w) @ _diag(mask) @ w
    return c, s, p


def generate(spec: GenSpec):
    """Build the matrix (or (C, S, P) triple) a GenSpec describes."""
    stream = Stream(spec.seed)
    d = spec.dim
    if spec.kind == "hermitian":
        return _hermitian(stream, d, spec.scale)
    if spec.kind == "positive":
        return _positive(stream, d, spec.scale)
    if spec.kind == "unitary":
        return _unitary(stream, d)
    if spec.kind == "projection":
        return _projection(stream, d)
    if spec.kind == "partition_isometry":
        return _partition(stream, d)
    if spec.kind == "complex_general":
        return spec.scale * _crandn(stream, d, d)
    raise UnknownKind(f"unknown generator kind {spec.kind!r}")


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
        froot = v_ @ np.diag(np.sqrt(np.clip(w, 0.0, None))) @ v_.conj().T
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
    report = {
        "example_id": example_id,
        "checks": checks,
        "holds": all(c["pass"] for c in checks),
    }
    return report


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
    a = v @ _diag(w) @ _ct(v)
    return _whole(a, _hermitian(stream, d))


def _fam_herm_pair(stream: Stream, d: int):
    return _whole(_hermitian(stream, d), _hermitian(stream, d))


def _fam_mixed(stream: Stream, d: int):
    return _by_n(stream, d, lambda sub, n: (
        _hermitian(sub, d), _hermitian(sub, n), _crandn(sub, d, n)))


def _fam_general_comm(stream: Stream, d: int):
    return _by_n(stream, d, lambda sub, n: (
        _crandn(sub, d, d), _crandn(sub, n, n), _crandn(sub, d, n)))


def _fam_unitary(stream: Stream, d: int):
    a = _hermitian(stream, d)
    x = _hermitian(stream, d)
    nrm = linalg._sv_array(x)[..., 0]
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
    a = _crandn(stream, d, d)
    b = _crandn(stream, d, d)
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
    return _whole(_crandn(stream, d, d), _crandn(stream, d, d), _hermitian(stream, d))


def _fam_control_kittaneh(stream: Stream, d: int):
    return _by_n(stream, d, lambda sub, n: (
        _positive(sub, d), _positive(sub, n), _crandn(sub, d, n)))


def _fam_control_bk(stream: Stream, d: int):
    return _whole(_crandn(stream, d, d), _crandn(stream, d, d))


def _fam_control_gap(stream: Stream, d: int):
    w, v = linalg._eigh(_hermitian(stream, d))
    w[..., 0] = np.maximum(w[..., 0], 0.5)
    w[..., -1] = np.minimum(w[..., -1], -0.5)
    return _whole(v @ _diag(w) @ _ct(v))


# ---------------------------------------------------------------------------
# the verifier registry


@dataclass(frozen=True)
class Verifier:
    """One member of the paper's inequality family.

    `check` names the public ineq function that judges it; `sspread check`
    looks it up on the module at call time, so a wrapped or patched ineq
    function is the one that runs, and fuzz runs its kernel,
    `ineq.KERNELS[check]`, on stacks of trials. `draw(stream, d)` draws the
    verifier's arguments for the trials of a stream at dimension d, as the
    groups of the fuzz families above; `trial_args` rebuilds one trial's
    public arguments. `files` is the `sspread
    check` file signature, one letter per matrix file ("H" Hermitian, "G"
    general complex, a trailing "?" makes the last file optional), or None
    when the id is fuzzed only; `split` appends the `--split` value to the
    call. An alias re-runs another id's generator
    and verifier under the name of one of the equivalent formulations.
    """

    id: str
    kind: str  # "theorem", "equivalent" or "control"
    check: str
    draw: Callable[[Stream, int], list]
    files: str | None = None
    split: bool = False
    alias: str | None = None


VERIFIERS = {v.id: v for v in (
    Verifier("tao_positive", "theorem", "check_tao_positive", _fam_tao, "H", split=True),
    Verifier("key", "theorem", "check_key", _fam_key, "H", split=True),
    Verifier("trace_pairing", "theorem", "check_trace_pairing", _fam_trace, "HH"),
    Verifier("commutator_scale", "theorem", "check_commutator_scale", _fam_herm_pair, "HH"),
    Verifier("commutator_sv", "theorem", "check_commutator_sv", _fam_herm_pair, "HH"),
    Verifier("mixed_commutator", "theorem", "check_mixed_commutator", _fam_mixed, "HHG"),
    Verifier("general_commutator", "theorem", "check_general_commutator", _fam_general_comm, "GGG"),
    Verifier("unitary_conj", "theorem", "check_unitary_conj", _fam_unitary, "HH"),
    Verifier("agm_projection", "theorem", "check_agm_projection", _fam_agm_split, "GGH"),
    Verifier("agm_pair", "theorem", "check_agm_pair", _fam_agm_pair, "HHHH?"),
    Verifier("agm_compact", "theorem", "check_agm_compact", _fam_agm_split, "GGH"),
    Verifier("agm_general", "theorem", "check_agm_general", _fam_agm_general, "GGH"),
    Verifier("zhan", "theorem", "check_zhan", _fam_herm_pair, "HH"),
    Verifier("equiv1", "equivalent", "check_offdiag_projection", _fam_offdiag, "HG"),
    Verifier("equiv2", "equivalent", "check_commutator_sv", _fam_herm_pair, alias="commutator_sv"),
    Verifier("equiv3", "equivalent", "check_mixed_commutator", _fam_mixed, alias="mixed_commutator"),
    Verifier("equiv4", "equivalent", "check_zhan", _fam_herm_pair, alias="zhan"),
    Verifier("equiv5", "equivalent", "check_identity_split", _fam_equiv5, "GGH"),
    Verifier("equiv_compact1", "equivalent", "check_offdiag_compact", _fam_offdiag, "HG"),
    # not an alias of agm_general: E here is always Hermitian, never drawn positive
    Verifier("equiv_compact2", "equivalent", "check_agm_general", _fam_equiv_c2),
    Verifier("control_kittaneh", "control", "control_kittaneh_positive", _fam_control_kittaneh),
    Verifier("control_bhatia_kittaneh", "control", "control_bhatia_kittaneh", _fam_control_bk),
    Verifier("control_strict_gap", "control", "control_strict_gap", _fam_control_gap),
)}


# the largest dimension fuzz and the property suite draw; a matrix of it
# holds 16 MiB of complex128
MAX_DIM = 1024

# a fuzz chunk takes trials until the sum of their d*d reaches this many
# entries (a family draws one to four matrices of about that size per
# trial), so a campaign at large dims never holds all of its trials'
# matrices at once
FUZZ_CHUNK_ENTRIES = 1 << 18


def _check_dims(dims: tuple[int, int], what: str) -> None:
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
    to 2, and a range with no d >= 2 or above MAX_DIM raises ValueError.

    The trials are drawn in groups (see _groups), each group is judged by
    one kernel call, and the rows are put back in trial order before the
    reduction, so the report does not depend on the grouping.
    """
    if ineq_id not in VERIFIERS:
        raise UnknownInequality(f"no fuzz family for {ineq_id!r}")
    _check_dims(dims, "fuzz")
    entry = VERIFIERS[ineq_id]
    kernel = ineq.KERNELS[entry.check]
    t0 = time.perf_counter()
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
    runtime_ms = (time.perf_counter() - t0) * 1000.0
    return FuzzSummary(
        ineq_id=ineq_id, trials=trials, failures=int(trials - np.count_nonzero(holds)),
        worst_margin=0.0 if trials == 0 else worst,
        worst_seed=worst_seed, runtime_ms=runtime_ms,
    )


# ---------------------------------------------------------------------------
# property suite


def _add_twosided(x: TwoSidedSeq, y: TwoSidedSeq) -> TwoSidedSeq:
    if x.mode != y.mode or x.K != y.K:
        raise ValueError("summands must share mode and horizon")
    pt = None if x.pos_tail is None else x.pos_tail + y.pos_tail
    nt = None if x.neg_tail is None else x.neg_tail + y.neg_tail
    return TwoSidedSeq(
        pos=x.pos + y.pos, neg=x.neg + y.neg,
        pos_tail=pt, neg_tail=nt, K=x.K, mode=x.mode,
    )


def _mix(stream: Stream, y: np.ndarray, rounds: int = 6) -> np.ndarray:
    """A random vector classically majorized by y (convex mix of permutations)."""
    n = len(y)
    acc = np.zeros(n)
    weights = np.array([stream.uniform() for _ in range(rounds)]) + 1e-3
    weights /= weights.sum()
    for w in weights:
        perm = _rand_perm(stream, n)
        acc = acc + w * y[perm]
    return acc


def _rand_perm(stream: Stream, n: int) -> np.ndarray:
    perm = np.arange(n)
    for i in range(n - 1, 0, -1):
        j = stream.randint(0, i)
        perm[i], perm[j] = perm[j], perm[i]
    return perm


class _PropertyFailure(Exception):
    pass


def _expect(cond: bool, msg: str):
    if not cond:
        raise _PropertyFailure(msg)


def _prop_eigh_residual(stream: Stream, dims):
    d = stream.randint(dims[0], min(16, max(dims[1], dims[0])))
    a = _hermitian(stream, d, scale=1.0 + 9.0 * stream.uniform())
    if stream.uniform() < 0.25:
        # force eigenvalue multiplicities
        w, v = linalg.eigh(a)
        w = np.round(w)
        a = v @ np.diag(w) @ v.conj().T
        a = (a + a.conj().T) / 2.0
    w, v = linalg.eigh(a)
    resid = float(np.linalg.norm(a @ v - v @ np.diag(w)))
    gate = 1e-10 * max(1.0, float(np.linalg.norm(a)))
    _expect(resid <= gate, f"eigh residual {resid:.3e} above {gate:.3e}")
    ortho = float(np.max(np.abs(v.conj().T @ v - np.eye(d))))
    _expect(ortho <= 1e-12 * d, f"eigenvector basis defect {ortho:.3e}")
    _expect(bool(np.all(np.diff(w) <= 1e-12)), "eigenvalues not sorted")
    return min(gate - resid, 1e-12 * d - ortho)


def _prop_hat_trick(stream: Stream, dims):
    d = stream.randint(dims[0], dims[1])
    e = _crandn(stream, d, d)
    hat = linalg.offdiag_embed(e)
    sc = compact_scale(hat, 4 * d)
    s = linalg.sv_array(e)
    ref = major.updown_rearrange(np.concatenate([s, -s]), 4 * d)
    err = max(
        float(np.max(np.abs(sc.pos - ref.pos))),
        float(np.max(np.abs(sc.neg - ref.neg))),
    )
    _expect(err <= 1e-9, f"hat-trick mismatch {err:.3e}")
    return 1e-9 - err


def _prop_sv_invariance(stream: Stream, dims):
    d = stream.randint(dims[0], dims[1])
    a = _crandn(stream, d, d)
    u = _unitary(stream, d)
    v = _unitary(stream, d)
    err = float(np.max(np.abs(linalg.sv_array(u @ a @ v) - linalg.sv_array(a))))
    _expect(err <= 1e-9, f"s(UAV) != s(A): {err:.3e}")
    return 1e-9 - err


def _prop_sv_product(stream: Stream, dims):
    d = stream.randint(dims[0], dims[1])
    a = _crandn(stream, d, d)
    x = _crandn(stream, d, d)
    y = _crandn(stream, d, d)
    lhs = linalg.sv_array(x @ a @ y)
    bound = linalg.opnorm(x) * linalg.opnorm(y) * linalg.sv_array(a)
    margin = float(np.min(bound - lhs))
    _expect(margin >= -1e-9 * max(1.0, float(bound[0])), f"s(XAY) bound violated by {margin:.3e}")
    return margin


def _prop_weyl_scale(stream: Stream, dims):
    d = stream.randint(dims[0], dims[1])
    a = _hermitian(stream, d)
    b = _hermitian(stream, d)
    rep_m = major.majorizes(matrix_scale(a + b), _add_twosided(matrix_scale(a), matrix_scale(b)))
    _expect(rep_m.holds, "matrix-mode scale Weyl failed")
    rep_c = major.majorizes(compact_scale(a + b), _add_twosided(compact_scale(a), compact_scale(b)))
    _expect(rep_c.holds, "compact-mode scale Weyl failed")
    return min(rep_m.min_margin(), rep_c.min_margin())


def _prop_weyl_sv(stream: Stream, dims):
    d = stream.randint(dims[0], dims[1])
    a = _crandn(stream, d, d)
    b = _crandn(stream, d, d)
    rep = major.submajorizes(
        linalg.sv_array(a + b), linalg.sv_array(a) + linalg.sv_array(b)
    )
    _expect(rep.holds, "singular-value triangle submajorization failed")
    return rep.min_margin()


def _prop_ky_fan(stream: Stream, dims):
    d = stream.randint(dims[0], dims[1])
    a = _hermitian(stream, d)
    w, v = linalg.eigh(a)
    k = stream.randint(1, d)
    top = float(np.sum(w[:k]))
    basis = v[:, :k]
    tr_top = float(np.trace(basis.conj().T @ a @ basis).real)
    _expect(abs(top - tr_top) <= 1e-9 * max(1.0, abs(top)), "top-k eigenprojection trace mismatch")
    bottom = float(np.sum(w[d - k:]))
    margin = math.inf
    for _ in range(4):
        p = _projection(stream, d, rank=k)
        tr = float(np.trace(p @ a).real)
        margin = min(margin, top - tr, tr - bottom)
    _expect(margin >= -1e-9 * max(1.0, abs(top)), f"Ky Fan extremality violated by {margin:.3e}")
    return margin


def _prop_interlacing(stream: Stream, dims):
    d = stream.randint(max(2, dims[0]), dims[1])
    a = _hermitian(stream, d)
    r = stream.randint(1, d - 1)
    p = _projection(stream, d, rank=r)
    comp = linalg.compress(a, p).compressed
    wa = linalg.eigh(a).values
    wc = linalg.eigh(comp).values
    margin = math.inf
    for j in range(r):
        margin = min(margin, wa[j] - wc[j])            # lambda_j(A) >= lambda_j(A_P)
        margin = min(margin, wc[r - 1 - j] - wa[d - 1 - j])  # bottom interlacing
    _expect(margin >= -1e-9 * max(1.0, float(np.max(np.abs(wa)))), "interlacing violated")
    return margin


@functools.cache
def _alt_harmonic_gap() -> float:
    """min(pos - neg) of the alternating-harmonic diag scale at horizon 8.

    The operator is fixed, so its scale is built once, not on every trial.
    """
    spec = DiagSpec(head=(), liminf=-1.0, limsup=1.0, generator="alt_harmonic",
                    params={"upper": 1.0, "lower": -1.0})
    dsc = diag_scale(spec, 8)
    return float(np.min(dsc.pos - dsc.neg))


def _prop_scale_ordering(stream: Stream, dims):
    d = stream.randint(dims[0], dims[1])
    a = _hermitian(stream, d)
    sc = compact_scale(a)
    margin = float(np.min(sc.pos - sc.neg))
    _expect(margin >= 0.0, "compact scale ordering violated")
    margin = min(margin, _alt_harmonic_gap())
    _expect(margin >= 0.0, "diag scale ordering violated")
    return margin


def _prop_translation(stream: Stream, dims):
    d = stream.randint(dims[0], dims[1])
    a = _hermitian(stream, d)
    c = 4.0 * (stream.uniform() - 0.5)
    base = spread_plus(matrix_scale(a)).values
    shifted = spread_plus(matrix_scale(a + c * np.eye(d))).values
    err = float(np.max(np.abs(base - shifted)))
    _expect(err <= 1e-9 * max(1.0, float(np.max(base, initial=0.0))), f"translation changed the spread by {err:.3e}")
    return 1e-9 - err


def _prop_scaling(stream: Stream, dims):
    d = stream.randint(dims[0], dims[1])
    a = _hermitian(stream, d)
    c = 4.0 * (stream.uniform() - 0.5)
    err = 0.0
    for mode_scale in (matrix_scale, compact_scale):
        base = spread_plus(mode_scale(a)).values
        scaled = spread_plus(mode_scale(c * a)).values
        err = max(err, float(np.max(np.abs(scaled - abs(c) * base))))
    _expect(err <= 1e-9, f"homogeneity defect {err:.3e}")
    return 1e-9 - err


def _prop_zero_block(stream: Stream, dims):
    d = stream.randint(dims[0], dims[1])
    a = _hermitian(stream, d)
    k = 2 * d
    base = spread_plus(compact_scale(a, k)).values
    padded = spread_plus(compact_scale(linalg.direct_sum(a, np.zeros((d, d))), k)).values
    err = float(np.max(np.abs(base - padded)))
    _expect(err <= 1e-12, f"zero block changed the compact spread by {err:.3e}")
    return 1e-12 - err


def _prop_spread_vs_sv(stream: Stream, dims):
    d = stream.randint(dims[0], dims[1])
    a = _hermitian(stream, d)
    sc = compact_scale(a)
    spr = spread_plus(sc).values
    s = linalg.svd_values(a, horizon=sc.K).values
    tol = 1e-9 * max(1.0, float(np.max(s, initial=0.0)))
    m1 = float(np.min((np.abs(sc.pos) + np.abs(sc.neg)) - spr))
    m2 = float(np.min(2.0 * s - (np.abs(sc.pos) + np.abs(sc.neg))))
    margin = min(m1, m2)
    _expect(margin >= -tol, "spread vs singular-value sandwich failed")
    p = _positive(stream, d)
    scp = compact_scale(p)
    m3 = float(np.min(linalg.svd_values(p, horizon=scp.K).values - spread_plus(scp).values))
    margin = min(margin, m3)
    _expect(m3 >= -tol, "positive case spread <= s failed")
    return margin


def _prop_doubling(stream: Stream, dims):
    d = stream.randint(dims[0], dims[1])
    a = _hermitian(stream, d)
    k = 4 * d
    dbl = spread_plus(compact_scale(linalg.direct_sum(a, a), k)).values
    single = spread_plus(compact_scale(a, 2 * d)).values
    ref = np.sort(np.concatenate([single, single]))[::-1]
    err = float(np.max(np.abs(dbl - ref)))
    _expect(err <= 1e-9, f"doubled spread mismatch {err:.3e}")
    rep = major.submajorizes(
        SpreadSeq(values=0.5 * dbl), linalg.svd_values(a, horizon=k)
    )
    _expect(rep.holds, "half doubled spread vs s(A) failed")
    return min(1e-9 - err, rep.min_margin())


def _prop_spread_monotone(stream: Stream, dims):
    d = stream.randint(dims[0], dims[1])
    b = _hermitian(stream, d)
    weights = np.array([stream.uniform() + 1e-3 for _ in range(3)])
    weights /= weights.sum()
    a = np.zeros((d, d), dtype=np.complex128)
    for w in weights:
        u = _unitary(stream, d)
        a = a + w * (u.conj().T @ b @ u)
    a = (a + a.conj().T) / 2.0
    prem = major.majorizes(matrix_scale(a), matrix_scale(b))
    _expect(prem.holds, "averaged conjugates failed the scale premise")
    rep = major.submajorizes(
        spread_plus(compact_scale(a)), spread_plus(compact_scale(b))
    )
    _expect(rep.holds, "spread monotonicity under majorization failed")
    return min(prem.min_margin(), rep.min_margin())


def _prop_additive_spread(stream: Stream, dims):
    d = stream.randint(dims[0], dims[1])
    a = _hermitian(stream, d)
    b = _hermitian(stream, d)
    k = 2 * d
    lhs = spread_full(compact_scale(a + b, k))
    rhs = _add_twosided(spread_full(compact_scale(a, k)), spread_full(compact_scale(b, k)))
    rep = major.majorizes(lhs, rhs)
    _expect(rep.holds, "spread subadditivity failed")
    return rep.min_margin()


def _prop_lemma_updown_sum(stream: Stream, dims):
    n = stream.randint(dims[0], dims[1])
    x = np.array(stream.normals(2 * n))
    y = np.array(stream.normals(2 * n))
    lhs = major.Interleaved(neg_values=(x + y)[:n], pos_values=(x + y)[n:])
    rhs = _add_twosided(major.updown_rearrange(x, 2 * n), major.updown_rearrange(y, 2 * n))
    rep = major.majorizes(lhs, rhs)
    _expect(rep.holds, "x+y vs rearranged sum majorization failed")
    return rep.min_margin()


def _prop_lemma_abs(stream: Stream, dims):
    n = stream.randint(dims[0], dims[1])
    y = np.array(stream.normals(n))
    x = _mix(stream, y)
    rep = major.submajorizes(np.abs(x), np.abs(y))
    _expect(rep.holds, "|x| submajorization failed")
    return rep.min_margin()


def _prop_lemma_sorted_sum(stream: Stream, dims):
    n = stream.randint(dims[0], dims[1])
    z = major.dec_rearrange(np.array(stream.normals(n)))
    w = major.dec_rearrange(np.array(stream.normals(n)))
    x = _mix(stream, z)
    y = _mix(stream, w)
    rep = major.majorizes(x + y, z + w)
    _expect(rep.holds, "sum of majorized pairs failed")
    return rep.min_margin()


def _prop_lemma_interleave(stream: Stream, dims):
    n = stream.randint(dims[0], dims[1])
    y = np.abs(np.array(stream.normals(n)))
    w = np.abs(np.array(stream.normals(n)))
    x = stream.uniform() * _mix(stream, y)
    z = stream.uniform() * _mix(stream, w)
    rep = major.submajorizes(major.interleave(x, z), major.interleave(y, w))
    _expect(rep.holds, "interleaved pair submajorization failed")
    return rep.min_margin()


def _prop_lemma_product_sort(stream: Stream, dims):
    n = stream.randint(dims[0], dims[1])
    x = np.abs(np.array(stream.normals(n)))
    y = np.abs(np.array(stream.normals(n)))
    rep = major.submajorizes(x * y, major.dec_rearrange(x) * major.dec_rearrange(y))
    _expect(rep.holds, "product vs sorted product failed")
    return rep.min_margin()


def _prop_lemma_product_monotone(stream: Stream, dims):
    n = stream.randint(dims[0], dims[1])
    y = major.dec_rearrange(np.abs(np.array(stream.normals(n))))
    z = major.dec_rearrange(np.abs(np.array(stream.normals(n))))
    x = stream.uniform() * _mix(stream, y)
    rep = major.submajorizes(x * z, y * z)
    _expect(rep.holds, "product with a decreasing weight failed")
    return rep.min_margin()


def _prop_product_rearranged_chain(stream: Stream, dims):
    n = stream.randint(dims[0], dims[1])
    x = np.abs(np.array(stream.normals(n)))
    y = np.abs(np.array(stream.normals(n)))
    low = major.dec_rearrange(x) * np.sort(y)
    mid = x * y
    rep1 = major.submajorizes(low, mid)
    rep2 = major.submajorizes(mid, major.dec_rearrange(x) * major.dec_rearrange(y))
    _expect(rep1.holds and rep2.holds, "rearranged product chain failed")
    return min(rep1.min_margin(), rep2.min_margin())


def _prop_weighted_sum_order(stream: Stream, dims):
    n = stream.randint(dims[0], dims[1])
    y = major.dec_rearrange(np.array(stream.normals(n)))
    # lowering entries of a mixed copy keeps x weakly below y, signs and all
    drop = stream.uniform() * np.abs(np.array(stream.normals(n)))
    x = major.dec_rearrange(_mix(stream, y) - drop)
    z = major.dec_rearrange(np.abs(np.array(stream.normals(n))))
    margin = float(np.dot(y, z) - np.dot(x, z))
    _expect(margin >= -1e-9 * max(1.0, float(np.max(np.abs(y))) * n), "weighted sum ordering failed")
    return margin


def _prop_gauge_monotone(stream: Stream, dims):
    n = stream.randint(dims[0], dims[1])
    y = np.abs(np.array(stream.normals(n)))
    x = stream.uniform() * _mix(stream, y)
    xs = SpreadSeq(values=major.dec_rearrange(x))
    ys = SpreadSeq(values=major.dec_rearrange(y))
    margin = math.inf
    for nid in ("op", "kyfan:2", "schatten:1", "schatten:2", "schatten:3"):
        if nid == "kyfan:2" and n < 2:
            continue
        margin = min(margin, major.gauge(ys, nid) - major.gauge(xs, nid))
    _expect(margin >= -1e-9, "a symmetric gauge decreased under submajorization")
    return margin


def _prop_generate_contracts(stream: Stream, dims):
    d = stream.randint(dims[0], dims[1])
    seed = stream.next_u64()
    p = generate(GenSpec(kind="projection", dim=d, seed=seed))
    err = float(np.max(np.abs(p @ p - p)))
    _expect(err <= 1e-12, f"projection residual {err:.3e}")
    c, s, pp = generate(GenSpec(kind="partition_isometry", dim=d, seed=seed))
    err2 = float(np.linalg.norm(c.conj().T @ c + s.conj().T @ s - pp))
    _expect(err2 <= 1e-12, f"partition residual {err2:.3e}")
    u = generate(GenSpec(kind="unitary", dim=d, seed=seed))
    err3 = float(np.max(np.abs(u.conj().T @ u - np.eye(d))))
    _expect(err3 <= 1e-12 * d, f"unitary residual {err3:.3e}")
    again = generate(GenSpec(kind="hermitian", dim=d, seed=seed))
    first = generate(GenSpec(kind="hermitian", dim=d, seed=seed))
    _expect(bool(np.array_equal(again, first)), "generator is not deterministic")
    return min(1e-12 - err, 1e-12 - err2)


PROPERTIES = {
    "eigh_residual": _prop_eigh_residual,
    "hat_trick": _prop_hat_trick,
    "sv_unitary_invariance": _prop_sv_invariance,
    "sv_product_bound": _prop_sv_product,
    "weyl_scale": _prop_weyl_scale,
    "weyl_sv": _prop_weyl_sv,
    "ky_fan_extremality": _prop_ky_fan,
    "interlacing": _prop_interlacing,
    "scale_ordering": _prop_scale_ordering,
    "spread_translation_invariance": _prop_translation,
    "spread_homogeneity": _prop_scaling,
    "spread_zero_block": _prop_zero_block,
    "spread_vs_sv": _prop_spread_vs_sv,
    "spread_doubling": _prop_doubling,
    "spread_monotone": _prop_spread_monotone,
    "spread_subadditive": _prop_additive_spread,
    "updown_sum": _prop_lemma_updown_sum,
    "abs_majorization": _prop_lemma_abs,
    "sorted_sum": _prop_lemma_sorted_sum,
    "interleave_pairs": _prop_lemma_interleave,
    "product_sorting": _prop_lemma_product_sort,
    "product_monotone": _prop_lemma_product_monotone,
    "product_chain": _prop_product_rearranged_chain,
    "weighted_sums": _prop_weighted_sum_order,
    "gauge_monotone": _prop_gauge_monotone,
    "generator_contracts": _prop_generate_contracts,
}


def property_suite(seed: int, trials: int = 500, dims: tuple[int, int] = (2, 8)) -> dict:
    """Run every module-level property `trials` times; report per-property.

    Like fuzz, a dimension range with no d >= 2 or above MAX_DIM raises
    ValueError.
    """
    _check_dims(dims, "property_suite")
    results = []
    for idx, (name, fn) in enumerate(sorted(PROPERTIES.items())):
        base = derive_seed(seed, idx)
        worst = math.inf
        fail = None
        for t in range(trials):
            stream = Stream(derive_seed(base, t))
            try:
                margin = fn(stream, dims)
            except _PropertyFailure as exc:
                fail = str(exc)
                break
            if margin < worst:
                worst = margin
        results.append({
            "name": name,
            "holds": fail is None,
            "worst_margin": 0.0 if worst is math.inf else float(worst),
            "detail": fail,
        })
    return {
        "seed": seed,
        "trials": trials,
        "properties": results,
        "holds": all(r["holds"] for r in results),
    }
