"""The property suite: seeded checks of the identities and inequalities the
verifiers rest on (eigensolver residuals, Weyl and Ky Fan bounds, the spread's
invariances, the majorization calculus, the generators' contracts).

A property draws its inputs for a stream's trials as the fuzz families of
harness.py do, [(rows, args)], through the same recipes where a draw is
operands on one space (harness._operands), and judge(*args) returns the rows' verdicts,
margins and failure messages (None where a row holds), through _judged, from
checks whose tol is linalg._tol of the size of the judge's inputs. Judges
work on stacks through the same private helpers the public functions run on
a batch of one. The suite runs each property through fuzz's campaign engine
(harness._campaign): the same grouped draw and the same reduction.
"""

from __future__ import annotations

import functools
import inspect
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import linalg, major
from .harness import (
    MAX_DIM,
    _campaign,
    _check_dims,
    _herm,
    _herm_pair,
    _hermitian,
    _operands,
    _partition,
    _projection,
    _psd,
    _split,
    _unitary,
    _whole,
)
from .linalg import _ct, _diag, _haar, _pad, _size, _sv_array, _tol
from .major import _dec
from .rng import Stream, _splitmix64_block, derive_seed
from .spectra import (
    GENERATORS,
    DiagSpec,
    _eig_sides,
    _eig_spread,
    _matrix_spread,
    diag_scale,
)


@dataclass(frozen=True)
class Property:
    """One property; d is drawn from the suite's dims cut to [lo, hi] (harness._d_range)."""

    draw: Callable[[Stream, int], list]
    judge: Callable[..., tuple]
    lo: int = 1
    hi: int = MAX_DIM


def _judged(*checks) -> tuple[np.ndarray, np.ndarray, list]:
    """(holds, margins, messages) of (message, margin, tol) checks over a stack's rows.

    A margin is the bound minus the value, and a check holds on a row where
    its margin is at least -tol. A row holds where every check does; its
    margin is the smallest of its checks', and its message names the first
    check it fails, with that check's margin and tol.
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
    return np.array([msg is None for msg in detail], dtype=bool), margin, detail


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
    """A uniform permutation of range(n) per row: the stable argsort of the
    row's n uniforms, so a tie (two equal uniforms) keeps index order."""
    return np.argsort(stream.uniforms(n), axis=-1, kind="stable")


def _mix(stream: Stream, y: np.ndarray, rounds: int = 6) -> np.ndarray:
    """A vector classically majorized by each row of y: a convex mix of its permutations."""
    weights = stream.uniforms(rounds) + 1e-3
    weights /= weights.sum(axis=-1, keepdims=True)
    return sum(w[:, None] * np.take_along_axis(y, _rand_perm(stream, y.shape[-1]), -1)
               for w in weights.T)


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
                        np.concatenate([pa + pb, na + nb], axis=-1), True)
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
    wa, wc = linalg._eigvalsh(a), linalg._eigvalsh(linalg._compressed(a, p))
    d, r = wa.shape[-1], wc.shape[-1]
    tol = _tol(_size(wa), d)
    # lambda_j(A) >= lambda_j(A_P), and at the bottom lambda_{r-j}(A_P) >= lambda_{d-j}(A)
    return _judged(("interlacing violated", np.min(wa[:, :r] - wc, axis=-1), tol),
                   ("interlacing violated", np.min(wc - wa[:, d - r:], axis=-1), tol))


# each generator rule with the names of its parameters
_RULES = tuple((name, tuple(inspect.signature(rule).parameters)[1:])
               for name, rule in GENERATORS.items())


def _d_scale_ordering(stream: Stream, d: int):
    """A Hermitian matrix, then a consistent DiagSpec and a horizon per row,
    as a stack of each (the specs in an object array).

    Every row draws the same words: a rule, two parameters in [-2, 2) of
    which the rule takes its first ones, a head length 0..3, three head
    entries in [-3, 3) of which the head takes the first ones, and a horizon
    1..8. The band is the one the rule declares for its parameters. An
    affine map of a uniform gives no -0.0, so no side of a scale is -0.0.
    """
    a = _hermitian(stream, d)
    rule = stream.randint(0, len(_RULES) - 1)
    params = 4.0 * stream.uniforms(2) - 2.0
    size = stream.randint(0, 3)
    head = 6.0 * stream.uniforms(3) - 3.0
    horizon = stream.randint(1, 8)
    specs = np.empty(len(rule), dtype=object)
    for i, (r, values, n, entries) in enumerate(zip(rule.tolist(), params.tolist(),
                                                    size.tolist(), head.tolist())):
        name, takes = _RULES[r]
        kw = dict(zip(takes, values))
        liminf, limsup = GENERATORS[name](np.arange(0), **kw)[1]
        specs[i] = DiagSpec(head=entries[:n], liminf=liminf, limsup=limsup,
                            generator=name, params=kw)
    return _whole(a, specs, horizon)


def _j_scale_ordering(a, specs, horizons):
    # exact: a spread is pos - neg of sides with pos >= 0 >= neg, and a diag
    # scale's pos >= limsup >= liminf >= neg
    diag = [float(np.min(sc.pos - sc.neg))
            for sc in map(diag_scale, specs, horizons.tolist())]
    return _judged(("compact scale ordering violated",
                    np.min(_eig_spread(linalg._eigvalsh(a)), axis=-1), 0.0),
                   ("diag scale ordering violated", np.array(diag), 0.0))


def _d_shift(stream: Stream, d: int):
    """A Hermitian matrix and a shift or factor c in [-2, 2) per row."""
    return _whole(_hermitian(stream, d), 4.0 * (stream.uniform() - 0.5))


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


def _d_abs_pair(stream: Stream, n: int):
    """Two vectors of |Gaussian| entries, for the two product properties."""
    return _whole(np.abs(stream.normals(n)), np.abs(stream.normals(n)))


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
    "hat_trick": Property(_operands(None), _j_hat),
    "sv_unitary_invariance": Property(_operands(None, _haar, _haar), _j_sv_invariance),
    "sv_product_bound": Property(_operands(None, None, None), _j_sv_product),
    "weyl_scale": Property(_herm_pair, _j_weyl_scale),
    "weyl_sv": Property(_operands(None, None), _relation(
        "singular-value triangle submajorization failed",
        lambda a, b: (_sv_array(a + b), _sv_array(a) + _sv_array(b)), lower=False)),
    "ky_fan_extremality": Property(_d_ky_fan, _j_ky_fan),
    "interlacing": Property(_d_interlacing, _j_interlacing, lo=2),
    "scale_ordering": Property(_d_scale_ordering, _j_scale_ordering),
    "spread_translation_invariance": Property(_d_shift, _j_translation),
    "spread_homogeneity": Property(_d_shift, _j_homogeneity),
    "spread_zero_block": Property(_operands(_herm), _j_zero_block),
    "spread_vs_sv": Property(_operands(_herm, _psd), _j_spread_vs_sv),
    "spread_doubling": Property(_operands(_herm), _j_doubling),
    "spread_monotone": Property(_d_monotone, _j_monotone),
    "spread_subadditive": Property(_herm_pair, _relation(
        "spread subadditivity failed", _subadditive_sides, clip=True)),
    "updown_sum": Property(
        lambda s, n: _whole(s.normals(2 * n), s.normals(2 * n)), _relation(
            "x+y vs rearranged sum majorization failed", _updown_sum_sides, clip=True)),
    "abs_majorization": Property(_d_abs, _relation(
        "|x| submajorization failed", lambda x, y: (np.abs(x), np.abs(y)), lower=False)),
    "sorted_sum": Property(_d_sorted_sum, _relation(
        "sum of majorized pairs failed", lambda x, y, z, w: (x + y, z + w), sums=True)),
    "interleave_pairs": Property(_d_interleave, _relation(
        "interleaved pair submajorization failed",
        lambda x, z, y, w: (np.concatenate([x, z], axis=-1), np.concatenate([y, w], axis=-1)),
        clip=True, lower=False)),
    "product_sorting": Property(_d_abs_pair, _relation(
        "product vs sorted product failed", lambda x, y: (x * y, _dec(x) * _dec(y)), lower=False)),
    "product_monotone": Property(_d_product_monotone, _relation(
        "product with a decreasing weight failed", lambda x, y, z: (x * z, y * z), lower=False)),
    "product_chain": Property(_d_abs_pair, _j_product_chain),
    "weighted_sums": Property(_d_weighted, _j_weighted),
    "gauge_monotone": Property(_d_gauge, _j_gauge),
    "generator_contracts": Property(_d_contracts, _j_contracts),
}


def property_suite(seed: int, trials: int = 500, dims: tuple[int, int] = (2, 8)) -> dict:
    """Run every module-level property `trials` times; report per-property.

    Trial t of the property numbered i (in name order) uses the child seed
    derive_seed(derive_seed(seed, i), t), reduced by harness._campaign as
    fuzz's trials are and reported as it reduces them: detail is the first
    failing trial's message and worst_margin the smallest margin of every
    trial (0.0 for no trials, inf where no margin is finite, as in fuzz's
    summary). Like fuzz, it raises ValueError on a dimension range that
    _check_dims refuses and on a trial count below 0 or above MAX_TRIALS.
    """
    _check_dims(dims, "property_suite", trials)
    results = []
    for idx, (name, prop) in enumerate(sorted(PROPERTIES.items())):
        seeds = _splitmix64_block(derive_seed(seed, idx), 0, trials)
        failures, worst, _, detail = _campaign(prop, prop.judge, seeds, dims)
        results.append({
            "name": name,
            "holds": failures == 0,
            "worst_margin": worst,
            "detail": detail,
        })
    return {
        "seed": seed,
        "trials": trials,
        "properties": results,
        "holds": all(r["holds"] for r in results),
    }
