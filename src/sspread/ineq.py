"""Verifiers for the spectral-spread inequality family.

Each check_* function evaluates one inequality on concrete matrices and
returns a Verdict carrying the full margin data: the submajorization report,
entrywise margins where the entrywise form is the interesting contrast, and
any norm-form side conditions. A False verdict on a theorem's hypothesis
class indicates an implementation bug, so the whole family doubles as a
self-test; the known entrywise failures are recorded, not judged.

Each verifier validates its arguments once, on entry, and then works only
through the private helpers of linalg and spectra, which do not re-check
matrices the verifier has built or already validated.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import (
    DimMismatch,
    NotHermitian,
    NotPositive,
    NotProjection,
    NotProjectionSum,
    RangeNotContained,
)
from .linalg import _eigh, _eigvalsh, _sv_array, _svd_values, _unitary_exp
from .major import gauge, maj_tol, schatten, seq_product, submajorizes
from .spectra import (
    SpreadSeq,
    _compact_scale,
    _eig_scale,
    _matrix_spread,
    _presorted,
    spread_plus,
)

POS_GATE = 1e-10
DOUGLAS_TOL = 1e-8
PINV_CUTOFF = 1e-10


@dataclass(frozen=True)
class Verdict:
    """Outcome of one inequality check on one instance."""

    ineq_id: str
    holds: bool
    report: object | None
    witness: str
    mode: str
    entrywise_margins: np.ndarray | None = None
    entrywise_holds: bool | None = None
    extras: dict = field(default_factory=dict)


def _digest(*mats) -> str:
    h = hashlib.sha256()
    for m in mats:
        a = np.ascontiguousarray(np.asarray(m, dtype=np.complex128))
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _scale_seq(seq: SpreadSeq, c: float) -> SpreadSeq:
    """c * seq for a constant c >= 0, which keeps the sequence sorted."""
    return _presorted(SpreadSeq, values=c * seq.values, tail=c * seq.tail, mode=seq.mode)


def _add_seq(a: SpreadSeq, b: SpreadSeq) -> SpreadSeq:
    k = max(len(a), len(b))
    return _presorted(
        SpreadSeq, values=a.padded(k) + b.padded(k), tail=a.tail + b.tail, mode="compact"
    )


def _spr(m: np.ndarray, k: int | None = None) -> SpreadSeq:
    """Compact-model spectral spread of a Hermitian matrix (not re-checked)."""
    return spread_plus(_compact_scale(m, k))


def _spr_sum(*eigs: np.ndarray, k: int | None = None) -> SpreadSeq:
    """Compact-model spread of the direct sum of blocks with these eigenvalues.

    A block-diagonal matrix has the union of its blocks' spectra, so no block
    matrix is built or decomposed. A zero block adds only zeros, which the
    compact model drops: its size enters through the horizon k alone.
    """
    return spread_plus(_eig_scale(np.sort(np.concatenate(eigs))[::-1], k))


def _positive_gate(w: np.ndarray, fail: str | None = None) -> bool:
    """Positivity gate on the non-increasing eigenvalues w of a Hermitian matrix.

    w passes when its smallest entry is at least -POS_GATE * max(1, max|w|).
    A failing w gives False, or raises NotPositive(fail.format(smallest
    eigenvalue)) when a message template is given.
    """
    scale = max(1.0, float(np.max(np.abs(w))) if w.size else 0.0)
    if not w.size or float(w[-1]) >= -POS_GATE * scale:
        return True
    if fail is None:
        return False
    raise NotPositive(fail.format(w[-1]))


def _psd_root(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Square root of a gated positive matrix from its eigenpair."""
    return v @ np.diag(np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


def _entry_tol(rhs: np.ndarray) -> float:
    return 1e-9 * max(1.0, float(np.max(np.abs(rhs))) if len(rhs) else 0.0)


def check_tao_positive(f, split: int | None = None) -> Verdict:
    """Off-diagonal block bound for a positive 2x2 block matrix.

    For F = [[A, B], [B*, C]] >= 0 with top-left block of size `split`,
    checks 2 s_i(B) <= s_i(F) for every i up to the number of singular
    values of B.
    """
    fm = linalg.as_hermitian(f)
    sf = _eigvalsh(fm)
    _positive_gate(sf, "F has eigenvalue {:.3e}")
    d = fm.shape[0]
    if split is None:
        split = d // 2
    if not 1 <= split <= d - 1:
        raise DimMismatch(f"split {split} does not cut a {d}x{d} matrix")
    b = fm[:split, split:]
    sb = _sv_array(b)
    margins = sf[: len(sb)] - 2.0 * sb
    ok = bool(len(margins) == 0 or float(np.min(margins)) >= -_entry_tol(sf))
    return Verdict(
        ineq_id="tao_positive", holds=ok, report=None, witness=_digest(fm),
        mode="matrix", entrywise_margins=margins, entrywise_holds=ok,
        extras={"split": split},
    )


def check_key(a, split: int | None = None) -> Verdict:
    """Doubled off-diagonal block of a Hermitian matrix vs its spread.

    For Hermitian A with corner block B (rows < split, columns >= split):
    2 s(B) weakly submajorized by the compact-model spread of A.
    """
    am = linalg.as_hermitian(a)
    d = am.shape[0]
    if split is None:
        split = d // 2
    if not 1 <= split <= d - 1:
        raise DimMismatch(f"split {split} does not cut a {d}x{d} matrix")
    b = am[:split, split:]
    lhs = _scale_seq(_svd_values(b, horizon=2 * d), 2.0)
    rhs = _spr(am)
    rep = submajorizes(lhs, rhs)
    return Verdict(
        ineq_id="key", holds=rep.holds, report=rep, witness=_digest(am),
        mode="compact", extras={"split": split},
    )


def check_trace_pairing(a, b) -> Verdict:
    """tr(AB) bounded by the index-paired product of the two-sided scales."""
    am = linalg.as_hermitian(a)
    bm = linalg.as_hermitian(b)
    if am.shape != bm.shape:
        raise DimMismatch(f"shapes {am.shape} and {bm.shape} differ")
    d = am.shape[0]
    lhs = float(np.trace(am @ bm).real)
    wa = _eigvalsh(am)
    sa = _eig_scale(wa, 2 * d)
    sb = _compact_scale(bm, 2 * d)
    rhs = float(np.dot(sa.pos, sb.pos) + np.dot(sa.neg, sb.neg))
    margin = rhs - lhs
    tol = 1e-9 * max(1.0, abs(rhs), abs(lhs))
    cutoff = 1e-10 * max(1.0, float(np.max(np.abs(wa))))
    rank = int(np.sum(np.abs(wa) > cutoff))
    return Verdict(
        ineq_id="trace_pairing", holds=bool(margin >= -tol), report=None,
        witness=_digest(am, bm), mode="compact",
        extras={"lhs": lhs, "rhs": rhs, "margin": margin, "rank_a": rank},
    )


def check_commutator_scale(a, x) -> Verdict:
    """Positive scale of i[A,X] vs half the product of the two spreads."""
    am = linalg.as_hermitian(a)
    xm = linalg.as_hermitian(x)
    if am.shape != xm.shape:
        raise DimMismatch(f"shapes {am.shape} and {xm.shape} differ")
    comm = 1j * (am @ xm - xm @ am)
    lhs = _presorted(SpreadSeq, values=_compact_scale(comm).pos, tail=0.0, mode="compact")
    rhs = _scale_seq(seq_product(_spr(am), _spr(xm)), 0.5)
    rep = submajorizes(lhs, rhs)
    return Verdict(
        ineq_id="commutator_scale", holds=rep.holds, report=rep,
        witness=_digest(am, xm), mode="compact",
    )


_NORM_IDS = ("op", "schatten:1", "schatten:2")


def check_commutator_sv(a, x) -> Verdict:
    """s([A,X]) vs half the product of the doubled spreads, plus norm forms."""
    am = linalg.as_hermitian(a)
    xm = linalg.as_hermitian(x)
    if am.shape != xm.shape:
        raise DimMismatch(f"shapes {am.shape} and {xm.shape} differ")
    d = am.shape[0]
    lhs = _svd_values(am @ xm - xm @ am, horizon=4 * d)
    wa, wx = _eigvalsh(am), _eigvalsh(xm)
    rhs = _scale_seq(seq_product(_spr_sum(wa, wa), _spr_sum(wx, wx)), 0.5)
    rep = submajorizes(lhs, rhs)
    norms = {}
    ok = rep.holds
    for nid in _NORM_IDS:
        lv = gauge(lhs, nid)
        bv = gauge(rhs, nid)
        good = bool(lv <= bv + 1e-9 * max(1.0, bv))
        norms[nid] = {"lhs": lv, "bound": bv, "ok": good}
        ok = ok and good
    return Verdict(
        ineq_id="commutator_sv", holds=bool(ok), report=rep,
        witness=_digest(am, xm), mode="compact", extras={"norms": norms},
    )


def check_mixed_commutator(a, b, x) -> Verdict:
    """s(AX-XB) vs spread-of-direct-sum times s(X); entrywise form recorded.

    The submajorization is the claim; the entrywise comparison is kept in the
    verdict because it can fail (and does, on the documented fixture).
    """
    am = linalg.as_hermitian(a)
    bm = linalg.as_hermitian(b)
    xm = linalg.as_cmatrix(x)
    m, n = am.shape[0], bm.shape[0]
    if xm.shape != (m, n):
        raise DimMismatch(f"X is {xm.shape}, expected {(m, n)}")
    k = 2 * (m + n)
    lhs_vals = _sv_array(am @ xm - xm @ bm)
    lhs = _svd_values(lhs_vals, horizon=k)
    rhs = seq_product(
        _spr_sum(_eigvalsh(am), _eigvalsh(bm)), _svd_values(xm, horizon=k)
    )
    rep = submajorizes(lhs, rhs)
    q = len(lhs_vals)
    margins = rhs.values[:q] - lhs_vals
    e_ok = bool(q == 0 or float(np.min(margins)) >= -_entry_tol(rhs.values))
    return Verdict(
        ineq_id="mixed_commutator", holds=rep.holds, report=rep,
        witness=_digest(am, bm, xm), mode="compact",
        entrywise_margins=margins, entrywise_holds=e_ok,
    )


def _herm_parts(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    if c.shape[0] != c.shape[1]:
        raise DimMismatch(f"matrix is {c.shape[0]}x{c.shape[1]}, not square")
    return (c + c.conj().T) / 2.0, (c - c.conj().T) / 2j


def check_general_commutator(a, b, x) -> Verdict:
    """s(AX-XB) for non-normal A, B via their Hermitian parts.

    Bound: (spread of the real parts' direct sum plus spread of the
    imaginary parts') times s(X). Also evaluates the scalar corollary
    using the extreme eigenvalues of each part, for the op, trace, and
    Frobenius norms.
    """
    am = linalg.as_cmatrix(a)
    bm = linalg.as_cmatrix(b)
    xm = linalg.as_cmatrix(x)
    a1, a2 = _herm_parts(am)
    b1, b2 = _herm_parts(bm)
    m, n = a1.shape[0], b1.shape[0]
    if xm.shape != (m, n):
        raise DimMismatch(f"X is {xm.shape}, expected {(m, n)}")
    k = 2 * (m + n)
    lhs = _svd_values(am @ xm - xm @ bm, horizon=k)
    w_a1, w_b1 = _eigvalsh(a1), _eigvalsh(b1)
    w_a2, w_b2 = _eigvalsh(a2), _eigvalsh(b2)
    spread_sum = _add_seq(_spr_sum(w_a1, w_b1), _spr_sum(w_a2, w_b2))
    sx = _svd_values(xm)
    rhs = seq_product(spread_sum, _svd_values(sx.values, horizon=k))
    rep = submajorizes(lhs, rhs)
    scalar = (
        max(w_a1[0], w_b1[0]) - min(w_a1[-1], w_b1[-1])
        + max(w_a2[0], w_b2[0]) - min(w_a2[-1], w_b2[-1])
    )
    corollary = {}
    ok = rep.holds
    for nid in _NORM_IDS:
        lv = gauge(lhs, nid)
        bv = scalar * gauge(sx, nid)
        good = bool(lv <= bv + 1e-9 * max(1.0, bv))
        corollary[nid] = {"lhs": lv, "bound": bv, "ok": good}
        ok = ok and good
    return Verdict(
        ineq_id="general_commutator", holds=bool(ok), report=rep,
        witness=_digest(am, bm, xm), mode="compact",
        extras={"scalar": float(scalar), "corollary": corollary},
    )


def check_unitary_conj(a, x) -> Verdict:
    """s(A - U*AU) with U = e^{iX}, against the doubled-spread product."""
    am = linalg.as_hermitian(a)
    xm = linalg.as_hermitian(x)
    if am.shape != xm.shape:
        raise DimMismatch(f"shapes {am.shape} and {xm.shape} differ")
    d = am.shape[0]
    wx, vx = _eigh(xm)
    u = _unitary_exp(wx, vx)
    lhs = _svd_values(am - u.conj().T @ am @ u, horizon=4 * d)
    wa = _eigvalsh(am)
    rhs = _scale_seq(seq_product(_spr_sum(wx, wx), _spr_sum(wa, wa)), 0.5)
    rep = submajorizes(lhs, rhs)
    return Verdict(
        ineq_id="unitary_conj", holds=rep.holds, report=rep,
        witness=_digest(am, xm), mode="compact",
    )


def _pinv(b, cutoff: float = PINV_CUTOFF) -> np.ndarray:
    """Spectral pseudoinverse at a relative singular-value cutoff."""
    m = linalg.as_cmatrix(b)
    w, v = _eigh(m.conj().T @ m)
    s = np.sqrt(np.clip(w, 0.0, None))
    smax = float(s[0]) if s.size else 0.0
    keep = s > cutoff * max(smax, 1e-300)
    if not np.any(keep):
        return np.zeros((m.shape[1], m.shape[0]), dtype=np.complex128)
    vr = v[:, keep]
    sr = s[keep]
    ur = m @ vr / sr
    return vr @ np.diag(1.0 / sr) @ ur.conj().T


def douglas_factorize(a, b, tol: float = DOUGLAS_TOL) -> np.ndarray:
    """Solve A = BC for the unique C with range(C) orthogonal to ker(B).

    Args:
        a: matrix whose range must lie inside range(B).
        b: factor matrix; its pseudoinverse is cut off at PINV_CUTOFF.
        tol: residual gate, relative to max(1, ||A||_F).

    Raises:
        RangeNotContained: ||(I - BB+)A||_F exceeds the gate.
    """
    am = linalg.as_cmatrix(a)
    bm = linalg.as_cmatrix(b)
    if am.shape[0] != bm.shape[0]:
        raise DimMismatch(f"row counts {am.shape[0]} and {bm.shape[0]} differ")
    bp = _pinv(bm)
    c = bp @ am
    resid = float(np.linalg.norm(am - bm @ c))
    if resid > tol * max(1.0, float(np.linalg.norm(am))):
        raise RangeNotContained(f"projection residual {resid:.3e} exceeds the gate")
    return c


def _require_splitting(sm: np.ndarray, cm: np.ndarray, proj_tol: float = 1e-8) -> np.ndarray:
    """Validate C*C + S*S as an orthogonal projection; return it.

    S and C are already validated matrices; only their sum is checked here.
    """
    if sm.shape != cm.shape:
        raise DimMismatch(f"shapes {sm.shape} and {cm.shape} differ")
    p = cm.conj().T @ cm + sm.conj().T @ sm
    try:
        return linalg.as_projection(p, tol=proj_tol)
    except (NotProjection, NotHermitian) as exc:
        raise NotProjectionSum(f"C*C + S*S is not a projection: {exc}") from exc


def check_agm_projection(s, c, e) -> Verdict:
    """Doubled s(SEC*) vs the spread of the compressed operator plus a zero block."""
    em = linalg.as_hermitian(e)
    sm, cm = linalg.as_cmatrix(s), linalg.as_cmatrix(c)
    p = _require_splitting(sm, cm)
    if p.shape != em.shape:
        raise DimMismatch(f"shapes {p.shape} and {em.shape} differ")
    d = em.shape[0]
    k = 4 * d
    lhs = _scale_seq(_svd_values(sm @ em @ cm.conj().T, horizon=k), 2.0)
    rhs = _spr(p @ em @ p, k)  # PEP oplus 0
    rep = submajorizes(lhs, rhs)
    return Verdict(
        ineq_id="agm_projection", holds=rep.holds, report=rep,
        witness=_digest(sm, cm, em), mode="compact",
    )


def check_agm_pair(s, c, e1, e2=None) -> Verdict:
    """s(S E1 C + C E2 S) for a positive splitting pair C^2 + S^2 = P.

    With E1 = E2 = E the arithmetic-geometric-mean corollary
    s(Re(SEC)) weakly below s(E)/2 is evaluated as well, along with the
    identity spread(E oplus -E) = 2 s(E) it rests on.
    """
    sm = linalg.as_hermitian(s)
    _positive_gate(_eigvalsh(sm), "S has eigenvalue {:.3e}")
    cm = linalg.as_hermitian(c)
    _positive_gate(_eigvalsh(cm), "C has eigenvalue {:.3e}")
    p = _require_splitting(sm, cm)
    same = e2 is None
    e1m = linalg.as_hermitian(e1)
    e2m = e1m if same else linalg.as_hermitian(e2)
    if e1m.shape != p.shape or e2m.shape != p.shape:
        raise DimMismatch("operator dimensions do not match the splitting")
    d = p.shape[0]
    k = 4 * d
    lhs = _svd_values(sm @ e1m @ cm + cm @ e2m @ sm, horizon=k)
    w1 = _eigvalsh(p @ e1m @ p)
    w2 = w1 if same else _eigvalsh(p @ e2m @ p)
    rhs = _scale_seq(_spr_sum(w1, -w2, k=k), 0.5)
    rep = submajorizes(lhs, rhs)
    ok = rep.holds
    extras = {}
    if same:
        re_sec = (sm @ e1m @ cm + cm @ e1m @ sm) / 2.0
        se = _sv_array(e1m)
        coro = submajorizes(
            _svd_values(re_sec, horizon=2 * d),
            _scale_seq(_svd_values(se, horizon=2 * d), 0.5),
        )
        we = _eigvalsh(e1m)
        spr_pair = _spr_sum(we, -we, k=4 * d)
        doubled = _scale_seq(_svd_values(se, horizon=4 * d), 2.0)
        defect = float(np.max(np.abs(spr_pair.values - doubled.values)))
        id_ok = bool(defect <= 1e-9 * max(1.0, float(np.max(doubled.values, initial=0.0))))
        extras = {
            "coro_holds": coro.holds,
            "identity_defect": defect,
            "identity_ok": id_ok,
        }
        ok = ok and coro.holds and id_ok
    return Verdict(
        ineq_id="agm_pair", holds=bool(ok), report=rep,
        witness=_digest(sm, cm, e1m, e2m), mode="compact", extras=extras,
    )


def check_agm_compact(s, c, e) -> Verdict:
    """Doubled s(SEC*) vs the compact-model spread of E itself.

    Also records: the compression monotonicity spread(PEP) <= spread(E)
    entrywise, the Frobenius comparison against the compact bound, and the
    identity-model Frobenius bound ||SEC*||_2 <= ||E||_2 / 2, which is only a
    theorem for positive E and fails on the documented indefinite fixture.
    """
    em = linalg.as_hermitian(e)
    sm, cm = linalg.as_cmatrix(s), linalg.as_cmatrix(c)
    p = _require_splitting(sm, cm)
    if p.shape != em.shape:
        raise DimMismatch(f"shapes {p.shape} and {em.shape} differ")
    d = em.shape[0]
    k = 2 * d
    s_sec = _sv_array(sm @ em @ cm.conj().T)
    s_e = _sv_array(em)
    w_e = _eigvalsh(em)
    lhs = _scale_seq(_svd_values(s_sec, horizon=k), 2.0)
    rhs = _spr_sum(w_e, k=k)
    rep = submajorizes(lhs, rhs)
    spr_pep = _spr(p @ em @ p, k)
    margins = rhs.values - spr_pep.values
    sub_ok = bool(float(np.min(margins)) >= -_entry_tol(rhs.values)) if len(margins) else True
    fro_lhs = schatten(s_sec, 2)
    compact_bound = 0.5 * schatten(rhs, 2)
    identity_bound = 0.5 * schatten(s_e, 2)
    e_positive = _positive_gate(w_e)
    extras = {
        "compression_monotone": sub_ok,
        "fro": {
            "lhs": fro_lhs,
            "compact_bound": compact_bound,
            "identity_bound": identity_bound,
            "compact_ok": bool(fro_lhs <= compact_bound + 1e-9 * max(1.0, compact_bound)),
            "identity_ok": bool(fro_lhs <= identity_bound + 1e-9 * max(1.0, identity_bound)),
        },
        "e_positive": e_positive,
    }
    ok = rep.holds and sub_ok and extras["fro"]["compact_ok"]
    if e_positive:
        pos_norms = {}
        for nid in _NORM_IDS:
            lv = gauge(_svd_values(s_sec), nid)
            bv = 0.5 * gauge(_svd_values(s_e), nid)
            good = bool(lv <= bv + 1e-9 * max(1.0, bv))
            pos_norms[nid] = {"lhs": lv, "bound": bv, "ok": good}
            ok = ok and good
        extras["positive_norms"] = pos_norms
    return Verdict(
        ineq_id="agm_compact", holds=bool(ok), report=rep,
        witness=_digest(sm, cm, em), mode="compact",
        entrywise_margins=margins, entrywise_holds=sub_ok, extras=extras,
    )


def check_agm_general(a, b, e) -> Verdict:
    """s(AEB*) vs half the spread of F^(1/2) E F^(1/2), F = A*A + B*B.

    Verified in the compact model and again with a zero block appended. The
    spectrum of G oplus 0 is G's plus zeros, so that second spread comes
    from G's eigenvalues at the doubled horizon; the property suite checks
    the union on explicit block matrices. The entrywise comparison is
    recorded because it fails on the documented 3x3 fixture. For positive E
    the equivalent formulation 2 s(AEB*) weakly below s(E^(1/2) F E^(1/2))
    is cross-checked.
    """
    am = linalg.as_cmatrix(a)
    bm = linalg.as_cmatrix(b)
    em = linalg.as_hermitian(e)
    d = em.shape[0]
    if am.shape != (d, d) or bm.shape != (d, d):
        raise DimMismatch("A, B, E must share one square dimension")
    f2 = am.conj().T @ am + bm.conj().T @ bm
    w_f, v_f = _eigh(f2)
    _positive_gate(w_f, "square root of a non-positive matrix ({:.3e})")
    froot = _psd_root(w_f, v_f)
    g = froot @ em @ froot
    gh = linalg.as_hermitian(g, tol=1e-8)
    s_aeb = _sv_array(am @ em @ bm.conj().T)
    wg = _eigvalsh(gh)
    k = 2 * d
    lhs = _svd_values(s_aeb, horizon=k)
    spr_g = _spr_sum(wg, k=k)
    rhs = _scale_seq(spr_g, 0.5)
    rep = submajorizes(lhs, rhs)
    rhs0 = _scale_seq(_spr_sum(wg, k=4 * d), 0.5)  # G oplus 0
    rep0 = submajorizes(_svd_values(s_aeb, horizon=4 * d), rhs0)
    margins = spr_g.values[:d] - 2.0 * s_aeb
    e_ok = bool(float(np.min(margins)) >= -_entry_tol(spr_g.values)) if len(margins) else True
    ok = rep.holds and rep0.holds
    extras = {"zero_block_holds": rep0.holds}
    # E's eigenvectors feed E^(1/2), so they are computed only once E passes
    if _positive_gate(_eigvalsh(em)):
        eroot = _psd_root(*_eigh(em))
        cross = submajorizes(
            _scale_seq(lhs, 2.0),
            _svd_values(eroot @ f2 @ eroot, horizon=k),
        )
        extras["positive_cross_holds"] = cross.holds
        ok = ok and cross.holds
    return Verdict(
        ineq_id="agm_general", holds=bool(ok), report=rep,
        witness=_digest(am, bm, em), mode="compact",
        entrywise_margins=margins, entrywise_holds=e_ok, extras=extras,
    )


def check_zhan(e, f) -> Verdict:
    """s(E - F) vs the compact-model spread of E oplus F."""
    em = linalg.as_hermitian(e)
    fm = linalg.as_hermitian(f)
    if em.shape != fm.shape:
        raise DimMismatch(f"shapes {em.shape} and {fm.shape} differ")
    d = em.shape[0]
    k = 4 * d
    lhs = _svd_values(em - fm, horizon=k)
    rhs = _spr_sum(_eigvalsh(em), _eigvalsh(fm), k=k)
    rep = submajorizes(lhs, rhs)
    return Verdict(
        ineq_id="zhan", holds=rep.holds, report=rep,
        witness=_digest(em, fm), mode="compact",
    )


def check_offdiag_projection(e, p) -> Verdict:
    """Doubled corner s-values vs the d-dimensional spread of E.

    This is the bounded-operator form: the spread is taken in the matrix
    model (no zero padding of the spectrum), and the comparison runs over
    the ceil(d/2) entries that model carries. The corner PE(I-P) has rank
    at most floor(d/2)-ish, never more than ceil(d/2); the discarded
    singular values are asserted to vanish.
    """
    em = linalg.as_hermitian(e)
    pm = linalg.as_projection(p)
    if em.shape != pm.shape:
        raise DimMismatch(f"shapes {em.shape} and {pm.shape} differ")
    d = em.shape[0]
    half = math.ceil(d / 2)
    corner = pm @ em @ (np.eye(d) - pm)
    sv = _sv_array(corner)
    # rank(PE(I-P)) <= floor(d/2), so the discarded values are rounding noise
    dropped = float(np.max(sv[half:], initial=0.0))
    lhs = 2.0 * sv[:half]
    rhs = _matrix_spread(_eigvalsh(em)).values
    rep = submajorizes(lhs, rhs)
    noise_ok = dropped <= 1e-7 * max(1.0, float(np.max(sv, initial=0.0)))
    return Verdict(
        ineq_id="equiv1", holds=bool(rep.holds and noise_ok), report=rep,
        witness=_digest(em, pm), mode="matrix", extras={"dropped_sv": dropped},
    )


def check_offdiag_compact(e, p) -> Verdict:
    """Doubled corner s-values vs the compact-model spread of E."""
    em = linalg.as_hermitian(e)
    pm = linalg.as_projection(p)
    if em.shape != pm.shape:
        raise DimMismatch(f"shapes {em.shape} and {pm.shape} differ")
    d = em.shape[0]
    corner = pm @ em @ (np.eye(d) - pm)
    lhs = _scale_seq(_svd_values(corner, horizon=2 * d), 2.0)
    rhs = _spr(em)
    rep = submajorizes(lhs, rhs)
    return Verdict(
        ineq_id="equiv_compact1", holds=rep.holds, report=rep,
        witness=_digest(em, pm), mode="compact",
    )


def check_identity_split(s, c, e) -> Verdict:
    """Full splitting C*C + S*S = I: doubled s(SEC*) vs spread of E plus a zero block."""
    em = linalg.as_hermitian(e)
    sm, cm = linalg.as_cmatrix(s), linalg.as_cmatrix(c)
    p = _require_splitting(sm, cm)
    d = em.shape[0]
    if p.shape != em.shape:
        raise DimMismatch(f"shapes {p.shape} and {em.shape} differ")
    if float(np.max(np.abs(p - np.eye(d)))) > 1e-8:
        raise NotProjectionSum("C*C + S*S must equal the identity here")
    k = 4 * d
    lhs = _scale_seq(_svd_values(sm @ em @ cm.conj().T, horizon=k), 2.0)
    rhs = _spr(em, k)  # E oplus 0
    rep = submajorizes(lhs, rhs)
    return Verdict(
        ineq_id="equiv5", holds=rep.holds, report=rep,
        witness=_digest(sm, cm, em), mode="compact",
    )


def control_kittaneh_positive(c, d, x) -> Verdict:
    """Entrywise s_i(CX - XD) <= ||X|| s_i(C oplus D) for positive C, D."""
    cm = linalg.as_hermitian(c)
    _positive_gate(_eigvalsh(cm), "C has eigenvalue {:.3e}")
    dm = linalg.as_hermitian(d)
    _positive_gate(_eigvalsh(dm), "D has eigenvalue {:.3e}")
    xm = linalg.as_cmatrix(x)
    if xm.shape != (cm.shape[0], dm.shape[0]):
        raise DimMismatch(f"X is {xm.shape}, expected {(cm.shape[0], dm.shape[0])}")
    lhs = _sv_array(cm @ xm - xm @ dm)
    s_x = _sv_array(xm)
    s_cd = np.sort(np.concatenate([_sv_array(cm), _sv_array(dm)]))[::-1]  # s(C oplus D)
    rhs = (float(s_x[0]) if s_x.size else 0.0) * s_cd[: len(lhs)]
    margins = rhs - lhs
    ok = bool(len(margins) == 0 or float(np.min(margins)) >= -_entry_tol(rhs))
    return Verdict(
        ineq_id="control_kittaneh", holds=ok, report=None,
        witness=_digest(cm, dm, xm), mode="matrix",
        entrywise_margins=margins, entrywise_holds=ok,
    )


def control_bhatia_kittaneh(a, b) -> Verdict:
    """Entrywise 2 s_i(AB*) <= s_i(A*A + B*B)."""
    am = linalg.as_cmatrix(a)
    bm = linalg.as_cmatrix(b)
    if am.shape != bm.shape:
        raise DimMismatch(f"shapes {am.shape} and {bm.shape} differ")
    lhs = 2.0 * _sv_array(am @ bm.conj().T)
    rhs = _sv_array(am.conj().T @ am + bm.conj().T @ bm)[: len(lhs)]
    margins = rhs - lhs
    ok = bool(len(margins) == 0 or float(np.min(margins)) >= -_entry_tol(rhs))
    return Verdict(
        ineq_id="control_bhatia_kittaneh", holds=ok, report=None,
        witness=_digest(am, bm), mode="matrix",
        entrywise_margins=margins, entrywise_holds=ok,
    )


def control_strict_gap(e) -> Verdict:
    """Strict Frobenius gap ||E||_2 < g_2(spread(E)) for indefinite E."""
    em = linalg.as_hermitian(e)
    w = _eigvalsh(em)
    if not (w.size and w[0] > 0.0 and w[-1] < 0.0):
        raise NotPositive("an indefinite operator (both signs present) is required")
    fro = schatten(_sv_array(em), 2)
    g2 = schatten(_spr_sum(w), 2)
    margin = g2 - fro
    ok = bool(margin > 1e-9 * fro)
    return Verdict(
        ineq_id="control_strict_gap", holds=ok, report=None,
        witness=_digest(em), mode="compact",
        extras={"fro": fro, "g2_spread": g2, "margin": margin},
    )
