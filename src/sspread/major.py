"""Rearrangements, partial-sum margins, and (sub)majorization verdicts.

submajorizes and majorizes read every operand the same way, as a multiset
with a clipping flag, a tail and a mode:
    raw 1-d arrays      - R^n convention: plain sorted partial sums; classic
                          majorization includes total-sum equality.
    SpreadSeq           - non-negative one-sided sequence; classic sums, like
                          an array; its tail feeds the tail verdict.
    TwoSidedSeq         - two-sided sequence over Z0, read as its 2K-entry
                          multiset. Upper partial sums in compact/diag mode
                          clip entries at 0 from below (an infinite zero pool
                          is always available to a k-subset), lower sums clip
                          at 0 from above; matrix mode sums the plain
                          multiset. Majorization has no total-sum condition.
    Interleaved         - a pair (a, b) occupying the negative/positive index
                          rays; a compact two-sided sequence of its multiset.

One alignment rule applies to every pair. A one-sided operand (array,
SpreadSeq) against a two-sided one, or two operands of different modes,
raise ModeError. At unequal lengths, compact operands (compact SpreadSeq and
TwoSidedSeq, Interleaved) are zero-padded to the longer length; plain arrays
and matrix or diag operands raise HorizonMismatch. So every partial sum of
both operands is compared.
Every comparison is made at linalg._tol(size, k) over the k partial sums,
size being the largest |entry| or |tail| of either operand, or the size of
the matrices a verifier computed them from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import HorizonMismatch, ModeError
from .linalg import _size, _tol
from .spectra import SpreadSeq, TwoSidedSeq, _eig_sides


@dataclass(frozen=True)
class Interleaved:
    """Two-sided sequence built from a pair: a on indices < 0, b on indices > 0."""

    neg_values: np.ndarray
    pos_values: np.ndarray
    neg_tail: float = 0.0
    pos_tail: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "neg_values", np.asarray(self.neg_values, dtype=float))
        object.__setattr__(self, "pos_values", np.asarray(self.pos_values, dtype=float))

    def multiset(self) -> np.ndarray:
        return np.concatenate([self.neg_values, self.pos_values])


@dataclass(frozen=True)
class MajorizationReport:
    """Margins of a (sub)majorization comparison a vs b.

    margins_upper[k-1] = (sum of k largest of b) - (sum of k largest of a);
    margins_lower, for two-sided or classic majorization, is the mirrored
    lower-sum slack (a's lower sums minus b's). All margins must be
    >= -tol for the relation to hold. worst_k is 1-based; a negative value
    -k marks the k-th lower margin as the worst.
    """

    kind: str
    margins_upper: np.ndarray
    margins_lower: np.ndarray | None
    holds: bool
    worst_k: int
    tail_verdict: str
    tol: float
    sum_defect: float | None = None

    def min_margin(self) -> float:
        m = float(np.min(self.margins_upper)) if len(self.margins_upper) else math.inf
        if self.margins_lower is not None and len(self.margins_lower):
            m = min(m, float(np.min(self.margins_lower)))
        return m


def dec_rearrange(x) -> np.ndarray:
    """Decreasing rearrangement of a finite real multiset."""
    return _dec(np.asarray(x, dtype=float).ravel())


def _dec(x: np.ndarray) -> np.ndarray:
    """Decreasing rearrangement along the last axis."""
    return np.sort(x, axis=-1)[..., ::-1]


def _upper_sums(m: np.ndarray, clip: bool = False) -> np.ndarray:
    """Sums of the k largest entries of each multiset m (..., n), k = 1..n.

    clip counts a negative entry as 0: in the compact model a k-subset can
    always take zeros from the infinite zero pool instead.
    """
    v = _dec(m)
    return (np.maximum(v, 0.0) if clip else v).cumsum(axis=-1)


def _lower_sums(m: np.ndarray, clip: bool = False) -> np.ndarray:
    """Sums of the k smallest entries, a positive entry counting as 0 under clip."""
    v = np.sort(m, axis=-1)
    return (np.minimum(v, 0.0) if clip else v).cumsum(axis=-1)


class SubRows(NamedTuple):
    """(Sub)majorization a vs b judged row by row over a stack.

    upper is (B, k), and so is lower for a majorization; tol, margin (the
    smallest margin, as min_margin gives it), holds and a classic
    majorization's total-sum defect are (B,). report(i) builds row i's
    MajorizationReport: the public functions are this on a batch of one.
    """

    upper: np.ndarray
    tol: np.ndarray
    margin: np.ndarray
    holds: np.ndarray
    lower: np.ndarray | None = None
    defect: np.ndarray | None = None

    def report(self, i: int, verdict: str = "conclusive") -> MajorizationReport:
        # argmin returns the first minimum and a lower margin must be strictly
        # smaller to win, so ties go to the earliest upper index
        upper = self.upper[i]
        lower = None if self.lower is None else self.lower[i]
        worst_k = int(np.argmin(upper)) + 1 if len(upper) else 1
        worst = upper[worst_k - 1] if len(upper) else math.inf
        if lower is not None and len(lower) and np.min(lower) < worst:
            worst_k = -(int(np.argmin(lower)) + 1)
        return MajorizationReport(
            kind="submajorization" if lower is None else "majorization",
            margins_upper=upper, margins_lower=lower,
            holds=verdict != "tail_violated" and bool(self.holds[i]), worst_k=worst_k,
            tail_verdict=verdict, tol=float(self.tol[i]),
            sum_defect=None if self.defect is None else float(self.defect[i]),
        )


def _maj_rows(a: np.ndarray, b: np.ndarray, clip: bool = False, mag=None,
              lower: bool = True, sums: bool = False) -> SubRows:
    """Majorization a vs b on stacks of multisets (B, m) and (B, n).

    Partial sums compare over the first k = min(m, n) indices, each row at
    _tol(mag, k), mag (B,) defaulting to the row's max|b|. clip reads both
    sides as two-sided sequences of a clipping model; lower=False judges
    submajorization, sums=True adds the classic total-sum condition.
    """
    k = min(a.shape[-1], b.shape[-1])
    upper = _upper_sums(b, clip)[..., :k] - _upper_sums(a, clip)[..., :k]
    tol = _tol(_size(b) if mag is None else mag, k)
    margin = upper.min(axis=-1, initial=math.inf)
    low = defect = None
    if lower:
        low = _lower_sums(a, clip)[..., :k] - _lower_sums(b, clip)[..., :k]
        least = low.min(axis=-1, initial=math.inf)
        margin = np.where(least < margin, least, margin)
    holds = margin >= -tol
    if sums:
        defect = a.sum(axis=-1) - b.sum(axis=-1)
        holds &= np.abs(defect) <= tol
    return SubRows(upper, tol, margin, holds, low, defect)


def _sub_rows(a: np.ndarray, b: np.ndarray, mag=None) -> SubRows:
    """submajorizes on stacks (B, k) of non-negative sequences or plain arrays."""
    return _maj_rows(a, b, mag=mag, lower=False)


def updown_rearrange(x, k: int | None = None) -> TwoSidedSeq:
    """Up-down rearrangement of a finitely supported sequence.

    Positive entries are listed downward on the positive index ray, negative
    entries upward on the negative ray, zeros fill both sides; this is the
    scale of the diagonal operator the multiset defines. Accepts a flat
    multiset, an Interleaved pair, or a compact TwoSidedSeq.
    """
    if isinstance(x, TwoSidedSeq):
        if x.mode != "compact":
            raise ModeError(f"up-down rearrangement undefined in {x.mode} mode")
        vals = np.concatenate([x.pos, x.neg])
    elif isinstance(x, Interleaved):
        vals = x.multiset()
    else:
        vals = np.asarray(x, dtype=float).ravel()
    if k is None:
        k = len(vals)
    if k < max(np.count_nonzero(vals > 0.0), np.count_nonzero(vals < 0.0)):
        raise HorizonMismatch(f"horizon {k} cannot hold {len(vals)} signed entries")
    pos, neg = _updown(vals, k)
    return TwoSidedSeq(pos=pos, neg=neg, pos_tail=0.0, neg_tail=0.0, K=k, mode="compact")


def _updown(vals: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(pos, neg) of the up-down rearrangement of each multiset (..., n) at horizon k.

    The sign split of the compact scale of the sorted multiset, cut to k: a
    horizon below n drops only zeros.
    """
    pos, neg = _eig_sides(_dec(vals), max(k, vals.shape[-1]))
    return pos[..., :k], neg[..., :k]


def interleave(a, b) -> Interleaved:
    """Pair two equal-length sequences into a two-sided sequence (a | b)."""
    av, at = _values_and_tail(a)
    bv, bt = _values_and_tail(b)
    if len(av) != len(bv):
        raise HorizonMismatch(f"lengths {len(av)} and {len(bv)} differ")
    return Interleaved(neg_values=av, pos_values=bv, neg_tail=at, pos_tail=bt)


def _values_and_tail(x) -> tuple[np.ndarray, float]:
    if isinstance(x, SpreadSeq):
        return x.values, x.tail
    return np.asarray(x, dtype=float).ravel(), 0.0


def _side(x) -> tuple:
    """(multiset, clip, tail, settled, mode, two_sided) of one operand.

    mode is None for a plain array; an Interleaved pair is compact.
    """
    if isinstance(x, TwoSidedSeq):
        return (np.concatenate([x.pos, x.neg]), x.mode != "matrix", x.pos_tail,
                x.settled(), x.mode, True)
    if isinstance(x, Interleaved):
        # np.max, unlike max, keeps a NaN tail for _relation to refuse
        return x.multiset(), True, np.max([x.pos_tail, x.neg_tail]), True, "compact", True
    if isinstance(x, SpreadSeq):
        return x.values, False, x.tail, x.settled(), x.mode, False
    return np.asarray(x, dtype=float).ravel(), False, None, True, None, False


def _relation(a, b, lower: bool) -> MajorizationReport:
    """The one alignment rule and judgement behind submajorizes and majorizes."""
    # clip follows sidedness and mode, which the checks below make equal
    ma, clip, ta, sa, mode_a, two_a = _side(a)
    mb, _, tb, sb, mode_b, two_b = _side(b)
    if two_a != two_b:
        raise ModeError("a one-sided operand cannot be compared with a two-sided one")
    if None not in (mode_a, mode_b) and mode_a != mode_b:
        raise ModeError(f"modes differ: {mode_a} vs {mode_b}")
    if len(ma) != len(mb):
        if mode_a is None or mode_b is None:
            raise HorizonMismatch(
                f"plain arrays compare at equal length only ({len(ma)} vs {len(mb)})")
        if mode_a != "compact":
            raise HorizonMismatch(f"lengths {len(ma)} and {len(mb)} differ in {mode_a} mode")
        n = max(len(ma), len(mb))
        ma, mb = np.pad(ma, (0, n - len(ma))), np.pad(mb, (0, n - len(mb)))
    # one max over entries and tails, through which NaN and inf propagate
    mag = float(np.max(np.abs(np.concatenate([ma, mb, [ta or 0.0, tb or 0.0]]))))
    if not math.isfinite(mag):
        raise ValueError("operand entries and tails must be finite")
    rows = _maj_rows(ma[None], mb[None], clip, np.array([mag]), lower,
                     sums=lower and not two_a)
    if ta is not None and tb is not None and ta > tb + _tol(mag):
        return rows.report(0, "tail_violated")
    return rows.report(0, "conclusive" if sa and sb else "horizon_limited")


def submajorizes(a, b) -> MajorizationReport:
    """Weak submajorization a <=_w b with margin bookkeeping.

    Margins are the bound's upper partial sums minus the candidate's; the
    relation holds when every margin clears -tol and the tails are
    compatible. Operands align, and tol follows, the module docstring.
    """
    return _relation(a, b, False)


def majorizes(a, b) -> MajorizationReport:
    """Majorization a <= b: upper and lower partial-sum conditions.

    For one-sided operands (plain arrays, SpreadSeqs) this is classic
    majorization and the total sums must agree (sum_defect tracks the
    difference). For TwoSidedSeqs and Interleaved pairs it is the two-sided
    relation: b's upper sums dominate and b's lower sums are dominated, with
    no total-sum condition. Operands align as for submajorizes.
    """
    return _relation(a, b, True)


def ky_fan(a, k: int) -> float:
    """Ky Fan value: sum of the k largest entries of a non-negative sequence."""
    return float(_ky_fan_rows(_values_and_tail(a)[0][None], k)[0])


def schatten(a, p: float) -> float:
    """(sum a_i^p)^(1/p) for p >= 1; math.inf gives the top entry."""
    return float(_schatten_rows(_values_and_tail(a)[0][None], p)[0])


def gauge(a, norm_id: str) -> float:
    """Evaluate a named symmetric gauge: 'op', 'kyfan:k', or 'schatten:p'."""
    return float(_gauge_rows(_values_and_tail(a)[0][None], norm_id)[0])


def _gauge_rows(v: np.ndarray, norm_id: str) -> np.ndarray:
    """gauge of every row of a stack (B, n) of non-negative sequences."""
    if norm_id == "op":
        return _ky_fan_rows(v, 1)
    if norm_id.startswith("kyfan:"):
        return _ky_fan_rows(v, int(norm_id.split(":", 1)[1]))
    if norm_id.startswith("schatten:"):
        arg = norm_id.split(":", 1)[1]
        return _schatten_rows(v, math.inf if arg in ("inf", "oo") else float(arg))
    raise ValueError(f"unknown gauge {norm_id!r}")


def _ky_fan_rows(v: np.ndarray, k: int) -> np.ndarray:
    if k < 1:
        raise ValueError("k must be >= 1")
    return _dec(v)[..., :k].sum(axis=-1)


def _schatten_rows(v: np.ndarray, p: float) -> np.ndarray:
    if not p >= 1.0:
        raise ValueError(f"p = {p} is not >= 1, not a norm")
    if v.shape[-1] == 0:
        return np.zeros(v.shape[:-1])
    if p == math.inf:
        return v.max(axis=-1)
    # the root is taken value by value with the C library's pow, which
    # math.pow calls: an array power of 0.5 would be a square root, which
    # can differ from pow in the last bit
    e = 1.0 / p
    return np.array([math.pow(s, e) for s in (np.abs(v) ** p).sum(axis=-1).tolist()])
