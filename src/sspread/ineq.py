"""Verifiers for the spectral-spread inequality family.

Each check_* function evaluates one inequality on concrete matrices and
returns a Verdict carrying the full margin data: the submajorization report,
entrywise margins where the entrywise form is the interesting contrast, and
any norm-form side conditions. A False verdict on a theorem's hypothesis
class indicates an implementation bug, so the whole family doubles as a
self-test; the known entrywise failures are recorded, not judged.

Every verifier is a kernel over stacks: its matrix arguments carry a leading
batch axis (B, rows, cols), every member of a stack has the same shape, and
scalar arguments (a split, an absent E2) are shared by the whole batch. A
kernel validates its stacks once, on entry, member by member, then works
only through the private stacked helpers of linalg, spectra and major, and
returns Rows: a record of per-row columns (verdict and judged margin as
arrays, the validated input stacks, the SubRows of the submajorization, the
entrywise margins, a per-row extras function), from which Rows.verdict(i)
builds row i's Verdict for every kernel alike. Each kernel is written once,
under its public check_*/control_* name, and _verifier turns it into the
public function, the kernel on a batch of one; harness.fuzz reaches the
kernel behind the public name with inspect.unwrap and runs it on groups of
trials of equal shape. numpy runs LAPACK, matmul, sorts and partial sums
member by member, so a row's numbers do not depend on the batch around it,
and a kernel that needs the eigenvalues of several stacks of one shape gets
them from one _eigvalsh call over the stacks put together (_eigvalsh_each),
after every gate and validation that precedes them.
Every gate and comparison is made at linalg._tol of the input operands'
size (e.g. ||A|| ||X|| for a commutator, read off a decomposition the kernel
makes anyway), never of a computed bound, which can cancel.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import math
from collections.abc import Callable
from typing import NamedTuple

import numpy as np

from .errors import (
    DimMismatch,
    NotHermitian,
    NotPositive,
    NotProjection,
    NotProjectionSum,
)
from .linalg import (
    _absmax,
    _as_cmatrices,
    _as_hermitians,
    _as_projections,
    _ct,
    _eigh,
    _eigvalsh,
    _herm_sv,
    _opnorm,
    _pad,
    _sv_array,
    _tol,
    _unitary_exp,
)
from .major import SubRows, _gauge_rows, _schatten_rows, _sub_rows
from .spectra import _eig_sides, _eig_spread, _matrix_spread


class Verdict:
    """Outcome of one inequality check on one instance.

    `witness` is the sha256 digest of the validated inputs. A verifier hands
    over the input matrices and the digest is computed when `witness` is
    first read; a caller may pass the digest string itself.
    """

    __slots__ = ("ineq_id", "holds", "report", "mode", "entrywise_margins",
                 "entrywise_holds", "extras", "_witness")

    def __init__(self, ineq_id: str, holds: bool, report: object | None,
                 witness: str | tuple, mode: str,
                 entrywise_margins: np.ndarray | None = None,
                 entrywise_holds: bool | None = None, extras: dict | None = None):
        self.ineq_id = ineq_id
        self.holds = holds
        self.report = report
        self._witness = witness
        self.mode = mode
        self.entrywise_margins = entrywise_margins
        self.entrywise_holds = entrywise_holds
        self.extras = {} if extras is None else extras

    @property
    def witness(self) -> str:
        if not isinstance(self._witness, str):
            self._witness = _digest(*self._witness)
        return self._witness

    def __repr__(self) -> str:
        return f"Verdict(ineq_id={self.ineq_id!r}, holds={self.holds!r}, mode={self.mode!r})"


class Rows(NamedTuple):
    """A kernel's judgement of a batch: one column per Verdict field.

    holds and margin are (B,) arrays. margin is the judged margin: the
    report's smallest margin, else the smallest entrywise margin, else
    extras["margin"]. inputs are the validated input stacks, whose row i is
    the witness of row i; sub holds the submajorization claim's SubRows,
    entrywise the (margins (B, n), holds (B,)) pair of an entrywise form,
    and extras(i) row i's extras. verdict(i) builds row i's Verdict.
    """

    ineq_id: str
    mode: str
    holds: np.ndarray
    margin: np.ndarray
    inputs: tuple
    sub: SubRows | None = None
    entrywise: tuple[np.ndarray, np.ndarray] | None = None
    extras: Callable[[int], dict] | None = None

    def verdict(self, i: int) -> Verdict:
        ew = self.entrywise
        return Verdict(
            self.ineq_id, bool(self.holds[i]), None if self.sub is None else self.sub.report(i),
            tuple(m[i] for m in self.inputs), self.mode,
            entrywise_margins=None if ew is None else ew[0][i],
            entrywise_holds=None if ew is None else bool(ew[1][i]),
            extras=None if self.extras is None else self.extras(i),
        )


def _digest(*mats) -> str:
    h = hashlib.sha256()
    for m in mats:
        a = np.ascontiguousarray(np.asarray(m, dtype=np.complex128))
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _one(a) -> np.ndarray:
    """One matrix argument as a stack of one.

    Always a copy: the Verdict hashes its inputs only when its witness is
    first read, and a caller may change its own array before that.
    """
    return np.array(a, dtype=np.complex128)[None]


def _spr_sum(*eigs: np.ndarray, k: int | None = None) -> np.ndarray:
    """Compact-model spread of the direct sum of blocks with these eigenvalues.

    A block-diagonal matrix has the union of its blocks' spectra, so no block
    matrix is built or decomposed. A zero block adds only zeros, which the
    compact model drops: its size enters through the horizon k alone. Works
    along the last axis, so stacks of spectra give stacks of spreads.
    """
    merged = np.sort(np.concatenate(eigs, axis=-1), axis=-1)[..., ::-1]
    return _eig_spread(merged, k)


def _eigvalsh_each(*stacks: np.ndarray) -> np.ndarray:
    """_eigvalsh of stacks of one shape (B, d, d) in one call, split back:
    (len(stacks), B, d), to unpack one spectrum stack per input stack. numpy
    decomposes a stack member by member, so each spectrum has the bits of a
    lone call."""
    w = _eigvalsh(np.concatenate(stacks))
    return w.reshape((len(stacks),) + stacks[0].shape[:-1])


def _positive_gate(w: np.ndarray, fail: str | None = None):
    """Positivity gate on non-increasing eigenvalues w (..., d) of Hermitian matrices.

    A spectrum passes when its smallest entry is at least -_tol(max|w|).
    Returns a bool for one spectrum and a bool array for a stack. With a
    message template, a failing spectrum raises instead:
    NotPositive(fail.format(smallest eigenvalue)) for the first that fails.
    """
    ok = w.min(axis=-1, initial=math.inf) >= -_tol(_absmax(w, -1))
    if fail is not None and not ok.all():
        first = np.flatnonzero(~np.ravel(ok))[0]
        raise NotPositive(fail.format(w.reshape(-1, w.shape[-1])[first, -1]))
    return bool(ok) if w.ndim == 1 else ok


def _psd_root(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Square root of a gated positive matrix (or stack) from its eigenpair."""
    return (v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]) @ _ct(v)


def _entrywise(margins: np.ndarray, mag: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(holds, smallest margin) per row: every margin clears -_tol(operand size mag).

    A row with no margins holds, and its smallest margin is inf.
    """
    low = margins.min(axis=-1, initial=math.inf)
    return low >= -_tol(mag), low


def _size(*stacks: np.ndarray) -> np.ndarray:
    """Largest |entry| of each row over stacks (B, ...): an operand's size."""
    return functools.reduce(np.maximum, [np.abs(s).max(axis=tuple(range(1, s.ndim)),
                                                        initial=0.0) for s in stacks])


def _same_shape(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape[1:] != b.shape[1:]:
        raise DimMismatch(f"shapes {a.shape[1:]} and {b.shape[1:]} differ")


def _cut(split: int | None, d: int) -> int:
    """The split of a d x d matrix into corner blocks; defaults to d // 2."""
    if split is None:
        split = d // 2
    if not 1 <= split <= d - 1:
        raise DimMismatch(f"split {split} does not cut a {d}x{d} matrix")
    return split


_NORM_IDS = ("op", "schatten:1", "schatten:2")


def _norm_forms(lhs: np.ndarray, rhs: np.ndarray, mag: np.ndarray,
                c=1.0) -> tuple[dict, np.ndarray]:
    """The norm forms ||lhs|| <= c ||rhs|| for the _NORM_IDS, row by row, at
    _tol(operand size mag).

    Returns ({id: (lhs norms, bounds, ok)}, ok for every id).
    """
    forms = {}
    ok = np.ones(lhs.shape[0], dtype=bool)
    for nid in _NORM_IDS:
        lv = _gauge_rows(lhs, nid)
        bv = c * _gauge_rows(rhs, nid)
        good = lv <= bv + _tol(mag)
        forms[nid] = (lv, bv, good)
        ok &= good
    return forms, ok


def _norm_row(forms: dict, i: int) -> dict:
    return {nid: {"lhs": float(lv[i]), "bound": float(bv[i]), "ok": bool(good[i])}
            for nid, (lv, bv, good) in forms.items()}


def _matrix_params(sig: inspect.Signature) -> list[inspect.Parameter]:
    """A verifier's matrix parameters, in order: every parameter but split.

    One with a default (agm_pair's E2) may be left out; `sspread check`
    takes one file for each.
    """
    return [p for p in sig.parameters.values() if p.name != "split"]


def _verifier(kernel: Callable[..., Rows]) -> Callable[..., Verdict]:
    """The public verifier of a kernel: the kernel on a batch of one.

    Each matrix argument becomes a stack of one (a None, agm_pair's absent
    E2, stays None), a split passes as given, and the result is row 0's
    Verdict. The roles are read off the kernel's parameters here, once, so a
    call binds nothing. The public function keeps the kernel's name,
    docstring and parameters, and its __wrapped__ is the kernel, which
    inspect.unwrap reaches through any wrapper that sets __wrapped__ too.
    """
    sig = inspect.signature(kernel)
    matrices = frozenset(p.name for p in _matrix_params(sig))
    roles = tuple(name in matrices for name in sig.parameters)

    def stack(a):
        return None if a is None else _one(a)

    @functools.wraps(kernel)
    def public(*args, **kwargs):
        return kernel(*[stack(a) if m else a for m, a in zip(roles, args)], *args[len(roles):],
                      **{k: stack(v) if k in matrices else v for k, v in kwargs.items()}
                      ).verdict(0)

    public.__signature__ = sig.replace(return_annotation="Verdict")
    public.__annotations__ = {**kernel.__annotations__, "return": "Verdict"}
    return public


# ---------------------------------------------------------------------------
# verifiers: each is written as its kernel, which takes stacks and returns
# Rows, under the public name that _verifier gives its batch-of-one form


@_verifier
def check_tao_positive(f, split: int | None = None) -> Rows:
    """Off-diagonal block bound for a positive 2x2 block matrix.

    For F = [[A, B], [B*, C]] >= 0 with top-left block of size `split`,
    checks 2 s_i(B) <= s_i(F) for every i up to the number of singular
    values of B.
    """
    fm = _as_hermitians(f)
    sf = _eigvalsh(fm)
    _positive_gate(sf, "F has eigenvalue {:.3e}")
    split = _cut(split, fm.shape[-1])
    sb = _sv_array(fm[:, :split, split:])
    margins = sf[:, : sb.shape[-1]] - 2.0 * sb
    ok, low = _entrywise(margins, _size(sf))
    return Rows("tao_positive", "matrix", ok, low, (fm,), entrywise=(margins, ok),
                extras=lambda i: {"split": split})


@_verifier
def check_key(a, split: int | None = None) -> Rows:
    """Doubled off-diagonal block of a Hermitian matrix vs its spread.

    For Hermitian A with corner block B (rows < split, columns >= split):
    2 s(B) weakly submajorized by the compact-model spread of A.
    """
    am = _as_hermitians(a)
    d = am.shape[-1]
    split = _cut(split, d)
    lhs = 2.0 * _pad(_sv_array(am[:, :split, split:]), 2 * d)
    w = _eigvalsh(am)
    sub = _sub_rows(lhs, _eig_spread(w), _size(w))
    return Rows("key", "compact", sub.holds, sub.margin, (am,), sub,
                extras=lambda i: {"split": split})


@_verifier
def check_trace_pairing(a, b) -> Rows:
    """tr(AB) bounded by the index-paired product of the two-sided scales."""
    am = _as_hermitians(a)
    bm = _as_hermitians(b)
    _same_shape(am, bm)
    d = am.shape[-1]
    lhs = np.trace(am @ bm, axis1=-2, axis2=-1).real
    wa, wb = _eigvalsh_each(am, bm)
    a_pos, a_neg = _eig_sides(wa, 2 * d)
    b_pos, b_neg = _eig_sides(wb, 2 * d)
    # matmul of a (1 x k) row by a (k x 1) column runs BLAS's dot on each
    # row, the bits np.dot gives; an elementwise product summed would not
    rhs = (a_pos[:, None, :] @ b_pos[:, :, None] + a_neg[:, None, :] @ b_neg[:, :, None])[:, 0, 0]
    margin = rhs - lhs
    rank = np.sum(np.abs(wa) > _tol(_size(wa))[:, None], axis=-1)
    ok = margin >= -_tol(_size(wa) * _size(wb), d)
    return Rows("trace_pairing", "compact", ok, margin, (am, bm), extras=lambda i: {
        "lhs": float(lhs[i]), "rhs": float(rhs[i]),
        "margin": float(margin[i]), "rank_a": int(rank[i])})


@_verifier
def check_commutator_scale(a, x) -> Rows:
    """Positive scale of i[A,X] vs half the product of the two spreads."""
    am = _as_hermitians(a)
    xm = _as_hermitians(x)
    _same_shape(am, xm)
    wc, wa, wx = _eigvalsh_each(1j * (am @ xm - xm @ am), am, xm)
    lhs = _eig_sides(wc)[0]
    rhs = 0.5 * (_eig_spread(wa) * _eig_spread(wx))
    sub = _sub_rows(lhs, rhs, _size(wa) * _size(wx))
    return Rows("commutator_scale", "compact", sub.holds, sub.margin, (am, xm), sub)


@_verifier
def check_commutator_sv(a, x) -> Rows:
    """s([A,X]) vs half the product of the doubled spreads, plus norm forms."""
    am = _as_hermitians(a)
    xm = _as_hermitians(x)
    _same_shape(am, xm)
    d = am.shape[-1]
    # s(AX - XA) = s(i[A, X]), and i[A, X] is Hermitian
    wc, wa, wx = _eigvalsh_each(1j * (am @ xm - xm @ am), am, xm)
    lhs = _pad(_herm_sv(wc), 4 * d)
    rhs = 0.5 * (_spr_sum(wa, wa) * _spr_sum(wx, wx))
    mag = _size(wa) * _size(wx)
    sub = _sub_rows(lhs, rhs, mag)
    norms, norms_ok = _norm_forms(lhs, rhs, mag)
    return Rows("commutator_sv", "compact", sub.holds & norms_ok, sub.margin, (am, xm), sub,
                extras=lambda i: {"norms": _norm_row(norms, i)})


@_verifier
def check_mixed_commutator(a, b, x) -> Rows:
    """s(AX-XB) vs spread-of-direct-sum times s(X); entrywise form recorded.

    The submajorization is the claim; the entrywise comparison is kept in the
    verdict because it can fail (and does, on the documented fixture).
    """
    am = _as_hermitians(a)
    bm = _as_hermitians(b)
    xm = _as_cmatrices(x)
    m, n = am.shape[-1], bm.shape[-1]
    if xm.shape[1:] != (m, n):
        raise DimMismatch(f"X is {xm.shape[1:]}, expected {(m, n)}")
    k = 2 * (m + n)
    lhs_vals = _sv_array(am @ xm - xm @ bm)
    wa, wb, sx = _eigvalsh(am), _eigvalsh(bm), _sv_array(xm)
    rhs = _spr_sum(wa, wb) * _pad(sx, k)
    mag = _size(wa, wb) * _size(sx)
    sub = _sub_rows(_pad(lhs_vals, k), rhs, mag)
    margins = rhs[:, : lhs_vals.shape[-1]] - lhs_vals
    e_ok, _ = _entrywise(margins, mag)
    return Rows("mixed_commutator", "compact", sub.holds, sub.margin, (am, bm, xm), sub,
                (margins, e_ok))


def _herm_parts(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    if c.shape[-2] != c.shape[-1]:
        raise DimMismatch(f"matrix is {c.shape[-2]}x{c.shape[-1]}, not square")
    return (c + _ct(c)) / 2.0, (c - _ct(c)) / 2j


@_verifier
def check_general_commutator(a, b, x) -> Rows:
    """s(AX-XB) for non-normal A, B via their Hermitian parts.

    Bound: (spread of the real parts' direct sum plus spread of the
    imaginary parts') times s(X). Also evaluates the scalar corollary
    using the extreme eigenvalues of each part, for the op, trace, and
    Frobenius norms.
    """
    am = _as_cmatrices(a)
    bm = _as_cmatrices(b)
    xm = _as_cmatrices(x)
    a1, a2 = _herm_parts(am)
    b1, b2 = _herm_parts(bm)
    m, n = a1.shape[-1], b1.shape[-1]
    if xm.shape[1:] != (m, n):
        raise DimMismatch(f"X is {xm.shape[1:]}, expected {(m, n)}")
    k = 2 * (m + n)
    lhs = _pad(_sv_array(am @ xm - xm @ bm), k)
    w_a1, w_a2 = _eigvalsh_each(a1, a2)
    w_b1, w_b2 = _eigvalsh_each(b1, b2)
    spread_sum = _spr_sum(w_a1, w_b1) + _spr_sum(w_a2, w_b2)
    sx = _sv_array(xm)
    mag = (_size(w_a1, w_b1) + _size(w_a2, w_b2)) * _size(sx)
    sub = _sub_rows(lhs, spread_sum * _pad(sx, k), mag)
    scalar = (
        np.maximum(w_a1[:, 0], w_b1[:, 0]) - np.minimum(w_a1[:, -1], w_b1[:, -1])
        + np.maximum(w_a2[:, 0], w_b2[:, 0]) - np.minimum(w_a2[:, -1], w_b2[:, -1])
    )
    corollary, coro_ok = _norm_forms(lhs, sx, mag, scalar)
    return Rows("general_commutator", "compact", sub.holds & coro_ok, sub.margin, (am, bm, xm),
                sub, extras=lambda i: {"scalar": float(scalar[i]),
                                       "corollary": _norm_row(corollary, i)})


@_verifier
def check_unitary_conj(a, x) -> Rows:
    """s(A - U*AU) with U = e^{iX}, against the doubled-spread product."""
    am = _as_hermitians(a)
    xm = _as_hermitians(x)
    _same_shape(am, xm)
    d = am.shape[-1]
    wx, vx = _eigh(xm)
    u = _unitary_exp(wx, vx)
    wc, wa = _eigvalsh_each(am - _ct(u) @ am @ u, am)
    lhs = _pad(_herm_sv(wc), 4 * d)
    rhs = 0.5 * (_spr_sum(wx, wx) * _spr_sum(wa, wa))
    # ||A|| alone: U = e^{iX} has norm 1 at every scale of X
    sub = _sub_rows(lhs, rhs, _size(wa))
    return Rows("unitary_conj", "compact", sub.holds, sub.margin, (am, xm), sub)


def _require_splitting(sm: np.ndarray, cm: np.ndarray) -> np.ndarray:
    """Validate C*C + S*S as an orthogonal projection; return it.

    S and C are already validated stacks; only their sum is checked here, as
    a sum of d products: its defects may reach _tol(max|P|, d).
    """
    _same_shape(sm, cm)
    p = _ct(cm) @ cm + _ct(sm) @ sm
    try:
        return _as_projections(p, k=p.shape[-1])
    except (NotProjection, NotHermitian) as exc:
        raise NotProjectionSum(f"C*C + S*S is not a projection: {exc}") from exc


@_verifier
def check_agm_projection(s, c, e) -> Rows:
    """Doubled s(SEC*) vs the spread of the compressed operator plus a zero block."""
    em = _as_hermitians(e)
    sm, cm = _as_cmatrices(s), _as_cmatrices(c)
    p = _require_splitting(sm, cm)
    _same_shape(p, em)
    k = 4 * em.shape[-1]
    lhs = 2.0 * _pad(_sv_array(sm @ em @ _ct(cm)), k)
    rhs = _eig_spread(_eigvalsh(p @ em @ p), k)  # PEP oplus 0
    sub = _sub_rows(lhs, rhs, _size(em))  # S and C are contractions
    return Rows("agm_projection", "compact", sub.holds, sub.margin, (sm, cm, em), sub)


@_verifier
def check_agm_pair(s, c, e1, e2=None) -> Rows:
    """s(S E1 C + C E2 S) for a positive splitting pair C^2 + S^2 = P.

    With E1 = E2 = E the arithmetic-geometric-mean corollary
    s(Re(SEC)) weakly below s(E)/2 is evaluated as well, along with the
    identity spread(E oplus -E) = 2 s(E) it rests on.
    """
    sm = _as_hermitians(s)
    _positive_gate(_eigvalsh(sm), "S has eigenvalue {:.3e}")
    cm = _as_hermitians(c)
    _positive_gate(_eigvalsh(cm), "C has eigenvalue {:.3e}")
    p = _require_splitting(sm, cm)
    same = e2 is None
    e1m = _as_hermitians(e1)
    e2m = e1m if same else _as_hermitians(e2)
    if e1m.shape[1:] != p.shape[1:] or e2m.shape[1:] != p.shape[1:]:
        raise DimMismatch("operator dimensions do not match the splitting")
    d = p.shape[-1]
    k = 4 * d
    pair = sm @ e1m @ cm + cm @ e2m @ sm
    # with E2 = E1 the pair SEC + CES = SEC + (SEC)* is Hermitian
    if same:
        w_pair, w1, we = _eigvalsh_each(pair, p @ e1m @ p, e1m)
        s_pair, w2 = _herm_sv(w_pair), w1
    else:
        s_pair = _sv_array(pair)
        w1, w2 = _eigvalsh_each(p @ e1m @ p, p @ e2m @ p)
    lhs = _pad(s_pair, k)
    mag = _size(e1m, e2m)
    sub = _sub_rows(lhs, 0.5 * _spr_sum(w1, -w2, k=k), mag)
    rows = Rows("agm_pair", "compact", sub.holds, sub.margin, (sm, cm, e1m, e2m), sub)
    if not same:
        return rows
    se = _herm_sv(we)
    coro = _sub_rows(_pad(s_pair / 2.0, 2 * d), 0.5 * _pad(se, 2 * d), mag)
    doubled = 2.0 * _pad(se, 4 * d)
    defect = np.max(np.abs(_spr_sum(we, -we, k=4 * d) - doubled), axis=-1)
    id_ok = defect <= _tol(_size(doubled))
    return rows._replace(holds=sub.holds & coro.holds & id_ok, extras=lambda i: {
        "coro_holds": bool(coro.holds[i]),
        "identity_defect": float(defect[i]),
        "identity_ok": bool(id_ok[i]),
    })


@_verifier
def check_agm_compact(s, c, e) -> Rows:
    """Doubled s(SEC*) vs the compact-model spread of E itself.

    Also records: the compression monotonicity spread(PEP) <= spread(E)
    entrywise, the Frobenius comparison against the compact bound, and the
    identity-model Frobenius bound ||SEC*||_2 <= ||E||_2 / 2, which is only a
    theorem for positive E and fails on the documented indefinite fixture.
    """
    em = _as_hermitians(e)
    sm, cm = _as_cmatrices(s), _as_cmatrices(c)
    p = _require_splitting(sm, cm)
    _same_shape(p, em)
    k = 2 * em.shape[-1]
    s_sec = _sv_array(sm @ em @ _ct(cm))
    w_e, w_pep = _eigvalsh_each(em, p @ em @ p)
    s_e = _herm_sv(w_e)
    mag = _size(w_e)
    rhs = _spr_sum(w_e, k=k)
    sub = _sub_rows(2.0 * _pad(s_sec, k), rhs, mag)
    margins = rhs - _eig_spread(w_pep, k)
    sub_ok, _ = _entrywise(margins, mag)
    fro_lhs = _schatten_rows(s_sec, 2)
    compact_bound = 0.5 * _schatten_rows(rhs, 2)
    identity_bound = 0.5 * _schatten_rows(s_e, 2)
    compact_ok = fro_lhs <= compact_bound + _tol(mag)
    identity_ok = fro_lhs <= identity_bound + _tol(mag)
    e_positive = _positive_gate(w_e)
    pos_norms, pos_ok = _norm_forms(s_sec, s_e, mag, 0.5)
    ok = sub.holds & sub_ok & compact_ok & (pos_ok | ~e_positive)

    def extras(i: int) -> dict:
        out = {
            "compression_monotone": bool(sub_ok[i]),
            "fro": {
                "lhs": float(fro_lhs[i]),
                "compact_bound": float(compact_bound[i]),
                "identity_bound": float(identity_bound[i]),
                "compact_ok": bool(compact_ok[i]),
                "identity_ok": bool(identity_ok[i]),
            },
            "e_positive": bool(e_positive[i]),
        }
        if e_positive[i]:
            out["positive_norms"] = _norm_row(pos_norms, i)
        return out

    return Rows("agm_compact", "compact", ok, sub.margin, (sm, cm, em), sub, (margins, sub_ok),
                extras)


@_verifier
def check_agm_general(a, b, e) -> Rows:
    """s(AEB*) vs half the spread of F^(1/2) E F^(1/2), F = A*A + B*B.

    Verified in the compact model and again with a zero block appended. The
    spectrum of G oplus 0 is G's plus zeros, so that second spread comes
    from G's eigenvalues at the doubled horizon; the property suite checks
    the union on explicit block matrices. The entrywise comparison is
    recorded because it fails on the documented 3x3 fixture. For positive E
    the equivalent formulation 2 s(AEB*) weakly below s(E^(1/2) F E^(1/2))
    is cross-checked.
    """
    am = _as_cmatrices(a)
    bm = _as_cmatrices(b)
    em = _as_hermitians(e)
    d = em.shape[-1]
    if am.shape[1:] != (d, d) or bm.shape[1:] != (d, d):
        raise DimMismatch("A, B, E must share one square dimension")
    f2 = _ct(am) @ am + _ct(bm) @ bm
    w_f, v_f = _eigh(f2)
    _positive_gate(w_f, "square root of a non-positive matrix ({:.3e})")
    we = _eigvalsh(em)
    mag = _size(w_f) * _size(we)  # bounds G and AEB*, and cannot cancel
    froot = _psd_root(w_f, v_f)
    gh = _as_hermitians(froot @ em @ froot, mag, d)
    s_aeb = _sv_array(am @ em @ _ct(bm))
    wg = _eigvalsh(gh)
    k = 2 * d
    lhs = _pad(s_aeb, k)
    spr_g = _spr_sum(wg, k=k)
    sub = _sub_rows(lhs, 0.5 * spr_g, mag)
    sub0 = _sub_rows(_pad(s_aeb, 4 * d), 0.5 * _spr_sum(wg, k=4 * d), mag)  # G oplus 0
    margins = spr_g[:, :d] - 2.0 * s_aeb
    e_ok, _ = _entrywise(margins, mag)
    ok = sub.holds & sub0.holds
    # E's eigenvectors feed E^(1/2), so they are computed only for the rows
    # whose E passes the gate
    positive = np.flatnonzero(_positive_gate(we))
    cross = {}
    if positive.size:
        eroot = _psd_root(*_eigh(em[positive]))
        cross_rhs = _pad(_herm_sv(_eigvalsh(eroot @ f2[positive] @ eroot)), k)
        rows = _sub_rows(2.0 * lhs[positive], cross_rhs, mag[positive])
        cross = dict(zip(positive.tolist(), rows.holds.tolist()))
        ok[positive] &= rows.holds

    def extras(i: int) -> dict:
        out = {"zero_block_holds": bool(sub0.holds[i])}
        if i in cross:
            out["positive_cross_holds"] = cross[i]
        return out

    return Rows("agm_general", "compact", ok, sub.margin, (am, bm, em), sub, (margins, e_ok),
                extras)


@_verifier
def check_zhan(e, f) -> Rows:
    """s(E - F) vs the compact-model spread of E oplus F."""
    em = _as_hermitians(e)
    fm = _as_hermitians(f)
    _same_shape(em, fm)
    k = 4 * em.shape[-1]
    we, wf, wd = _eigvalsh_each(em, fm, em - fm)
    sub = _sub_rows(_pad(_herm_sv(wd), k), _spr_sum(we, wf, k=k), _size(we, wf))
    return Rows("zhan", "compact", sub.holds, sub.margin, (em, fm), sub)


@_verifier
def check_offdiag_projection(e, p) -> Rows:
    """Doubled corner s-values vs the d-dimensional spread of E.

    This is the bounded-operator form: the spread is taken in the matrix
    model (no zero padding of the spectrum), and the comparison runs over
    the ceil(d/2) entries that model carries. The corner PE(I-P) maps
    range(I-P) into range(P), so rank PE(I-P) <= min(rank P, d - rank P)
    <= floor(d/2); the discarded singular values are asserted to vanish.
    """
    em = _as_hermitians(e)
    pm = _as_projections(p)
    _same_shape(em, pm)
    d = em.shape[-1]
    half = math.ceil(d / 2)
    sv = _sv_array(pm @ em @ (np.eye(d) - pm))
    # rank(PE(I-P)) <= floor(d/2), so the discarded values are rounding noise
    dropped = np.max(sv[:, half:], axis=-1, initial=0.0)
    we = _eigvalsh(em)
    sub = _sub_rows(2.0 * sv[:, :half], _matrix_spread(we), _size(we))
    noise_ok = dropped <= _tol(_size(we), d)
    return Rows("equiv1", "matrix", sub.holds & noise_ok, sub.margin, (em, pm), sub,
                extras=lambda i: {"dropped_sv": float(dropped[i])})


@_verifier
def check_offdiag_compact(e, p) -> Rows:
    """Doubled corner s-values vs the compact-model spread of E."""
    em = _as_hermitians(e)
    pm = _as_projections(p)
    _same_shape(em, pm)
    d = em.shape[-1]
    lhs = 2.0 * _pad(_sv_array(pm @ em @ (np.eye(d) - pm)), 2 * d)
    we = _eigvalsh(em)
    sub = _sub_rows(lhs, _eig_spread(we), _size(we))
    return Rows("equiv_compact1", "compact", sub.holds, sub.margin, (em, pm), sub)


@_verifier
def check_identity_split(s, c, e) -> Rows:
    """Full splitting C*C + S*S = I: doubled s(SEC*) vs spread of E plus a zero block."""
    em = _as_hermitians(e)
    sm, cm = _as_cmatrices(s), _as_cmatrices(c)
    p = _require_splitting(sm, cm)
    d = em.shape[-1]
    _same_shape(p, em)
    if np.any(_size(p - np.eye(d)) > _tol(_size(p), d)):
        raise NotProjectionSum("C*C + S*S must equal the identity here")
    k = 4 * d
    lhs = 2.0 * _pad(_sv_array(sm @ em @ _ct(cm)), k)
    we = _eigvalsh(em)
    sub = _sub_rows(lhs, _eig_spread(we, k), _size(we))  # E oplus 0
    return Rows("equiv5", "compact", sub.holds, sub.margin, (sm, cm, em), sub)


@_verifier
def control_kittaneh_positive(c, d, x) -> Rows:
    """Entrywise s_i(CX - XD) <= ||X|| s_i(C oplus D) for positive C, D."""
    cm = _as_hermitians(c)
    wc = _eigvalsh(cm)
    _positive_gate(wc, "C has eigenvalue {:.3e}")
    dm = _as_hermitians(d)
    wd = _eigvalsh(dm)
    _positive_gate(wd, "D has eigenvalue {:.3e}")
    xm = _as_cmatrices(x)
    if xm.shape[1:] != (cm.shape[-1], dm.shape[-1]):
        raise DimMismatch(f"X is {xm.shape[1:]}, expected {(cm.shape[-1], dm.shape[-1])}")
    lhs = _sv_array(cm @ xm - xm @ dm)
    top = _opnorm(xm)
    s_cd = _herm_sv(np.concatenate([wc, wd], axis=-1))
    rhs = top[:, None] * s_cd[:, : lhs.shape[-1]]  # ||X|| s(C oplus D)
    margins = rhs - lhs
    ok, low = _entrywise(margins, _size(wc, wd) * top)
    return Rows("control_kittaneh", "matrix", ok, low, (cm, dm, xm), entrywise=(margins, ok))


@_verifier
def control_bhatia_kittaneh(a, b) -> Rows:
    """Entrywise 2 s_i(AB*) <= s_i(A*A + B*B)."""
    am = _as_cmatrices(a)
    bm = _as_cmatrices(b)
    _same_shape(am, bm)
    lhs = 2.0 * _sv_array(am @ _ct(bm))
    s_f = _herm_sv(_eigvalsh(_ct(am) @ am + _ct(bm) @ bm))
    margins = s_f[:, : lhs.shape[-1]] - lhs
    ok, low = _entrywise(margins, _size(s_f))  # a sum of positives cannot cancel
    return Rows("control_bhatia_kittaneh", "matrix", ok, low, (am, bm), entrywise=(margins, ok))


@_verifier
def control_strict_gap(e) -> Rows:
    """Strict Frobenius gap ||E||_2 < g_2(spread(E)) for indefinite E."""
    em = _as_hermitians(e)
    w = _eigvalsh(em)
    edge = _tol(_size(w))
    if not (w.shape[-1] and np.all((w[:, 0] > edge) & (w[:, -1] < -edge))):
        raise NotPositive("an indefinite operator (both signs present) is required")
    fro = _schatten_rows(_herm_sv(w), 2)
    g2 = _schatten_rows(_spr_sum(w), 2)
    margin = g2 - fro
    return Rows("control_strict_gap", "compact", margin > _tol(fro), margin, (em,),
                extras=lambda i: {"fro": float(fro[i]), "g2_spread": float(g2[i]),
                                  "margin": float(margin[i])})
