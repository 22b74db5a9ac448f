"""Spectral scales and spread sequences in three operator models.

Modes:
    "matrix"  - plain d-dimensional convention: the two-sided scale lists the
                eigenvalues downward on the positive side and upward on the
                negative side, with K = d and no tails. The ordering
                neg[i] <= pos[i] does NOT hold in this mode.
    "compact" - the matrix viewed as a compact operator (A oplus an infinite
                zero block): positive eigenvalues padded with zeros, negative
                eigenvalues padded with zeros, both tails 0.
    "diag"    - bounded diagonal operator described by a DiagSpec; entries
                outside the essential band [liminf, limsup] are listed, the
                rest collapse to the tails. The band of a generated sequence
                is its rule's limits, and the scale is exact at every horizon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from inspect import signature

import numpy as np

from . import linalg
from .errors import HorizonMismatch, ModeError

MODES = ("matrix", "compact", "diag")


def _check_mode(mode: str) -> str:
    if mode not in MODES:
        raise ModeError(f"unknown mode {mode!r}")
    return mode


@dataclass(frozen=True)
class TwoSidedSeq:
    """Two-sided scale (lambda_1..lambda_K, lambda_-1..lambda_-K) with tails.

    pos is non-increasing, neg is non-decreasing (read as lambda_{-1}, ...,
    lambda_{-K}). In compact/diag mode neg[i] <= pos[i] holds for every i;
    matrix mode is exempt. Tails are None in matrix mode.
    """

    pos: np.ndarray
    neg: np.ndarray
    pos_tail: float | None
    neg_tail: float | None
    K: int
    mode: str = "compact"

    def __post_init__(self):
        object.__setattr__(self, "pos", np.asarray(self.pos, dtype=float))
        object.__setattr__(self, "neg", np.asarray(self.neg, dtype=float))
        _check_mode(self.mode)
        if len(self.pos) != self.K or len(self.neg) != self.K:
            raise ValueError(f"arrays must have length K={self.K}")
        slack = _slack(self.pos, self.neg, self.pos_tail, self.neg_tail)
        if np.any(np.diff(self.pos) > slack):
            raise ValueError("pos side must be non-increasing")
        if np.any(np.diff(self.neg) < -slack):
            raise ValueError("neg side must be non-decreasing")
        if self.mode != "matrix" and np.any(self.neg > self.pos + slack):
            raise ValueError("ordering neg[i] <= pos[i] violated")
        if self.pos_tail is not None and self.K > 0 and self.pos[-1] < self.pos_tail - slack:
            raise ValueError("pos side dips below its declared tail")
        if self.neg_tail is not None and self.K > 0 and self.neg[-1] > self.neg_tail + slack:
            raise ValueError("neg side rises above its declared tail")

    def settled(self) -> bool:
        """True when entries beyond the horizon are pinned to the tails."""
        if self.mode in ("matrix", "compact"):
            return True
        slack = _slack(self.pos, self.neg, self.pos_tail, self.neg_tail)
        return bool(
            self.pos[-1] <= self.pos_tail + slack
            and self.neg[-1] >= self.neg_tail - slack
        )


@dataclass(frozen=True)
class SpreadSeq:
    """Non-negative, non-increasing one-sided sequence with a tail limit."""

    values: np.ndarray
    tail: float = 0.0
    mode: str = "compact"

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        _check_mode(self.mode)
        slack = _slack(self.values, self.tail)
        if np.any(self.values < -slack):
            raise ValueError("spread values must be non-negative")
        if np.any(np.diff(self.values) > slack):
            raise ValueError("spread values must be non-increasing")
        if self.tail < -slack:
            raise ValueError("tail must be non-negative")

    def __len__(self) -> int:
        return len(self.values)

    def settled(self) -> bool:
        if self.mode in ("matrix", "compact"):
            return True
        return bool(len(self.values) == 0
                    or self.values[-1] <= self.tail + _slack(self.values, self.tail))


@dataclass(frozen=True)
class DiagSpec:
    """Bounded real sequence a defining a diagonal operator D_a.

    head lists explicit leading entries; entries past the head come from the
    named GENERATORS rule, which declares its parameters' defaults. With a
    generator, [liminf, limsup] must be the rule's (liminf a_n, limsup a_n);
    without one, the head is the whole sequence and the band is as declared.
    params takes a mapping of the rule's parameters and keeps them as
    (name, value) pairs sorted by name, so a spec cannot change after its
    checks and hashes as a whole.
    """

    head: tuple[float, ...] = ()
    liminf: float = 0.0
    limsup: float = 0.0
    generator: str | None = None
    params: tuple[tuple[str, float], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "head", tuple(float(x) for x in self.head))
        params = dict(self.params)
        object.__setattr__(self, "params", tuple(sorted(params.items())))
        if not all(map(math.isfinite, (*self.head, self.liminf, self.limsup,
                                       *params.values()))):
            raise ValueError("head, liminf, limsup and generator parameters must be finite")
        if self.liminf > self.limsup:
            raise ValueError("liminf must not exceed limsup")
        if self.generator is None:
            if self.params:
                raise ValueError("generator parameters given without a generator")
            return
        rule = GENERATORS.get(self.generator)
        if rule is None:
            raise ValueError(f"unknown generator {self.generator!r}")
        takes = list(signature(rule).parameters)[1:]
        if not set(params) <= set(takes):
            raise ValueError(f"generator {self.generator} takes {takes}, got {sorted(params)}")
        band = rule(np.arange(0), **params)[1]
        if (self.liminf, self.limsup) != band:
            raise ValueError(f"generator {self.generator} has band [{band[0]!r}, {band[1]!r}], "
                             f"not [{self.liminf!r}, {self.limsup!r}]")

    def sample(self, m: int) -> np.ndarray:
        """First min(m, available) entries."""
        head = np.array(self.head, dtype=float)
        if self.generator is None or m <= len(head):
            return head[:max(m, 0)]
        n = np.arange(len(head) + 1, m + 1)
        return np.concatenate([head, GENERATORS[self.generator](n, **dict(self.params))[0]])


def _alt_harmonic(n: np.ndarray, upper: float = 1.0, lower: float = -1.0):
    # odd entries upper + 1/k, even entries lower + 1/k, k = ceil(n/2)
    entries = np.where(n % 2 == 1, upper, lower) + 1.0 / ((n + 1) // 2)
    return entries, (min(upper, lower), max(upper, lower))


# generator rules: each maps an array of 1-based indices n and its parameters,
# whose defaults it declares, to (entries a_n, (liminf a_n, limsup a_n))
GENERATORS = {
    "constant": lambda n, value=0.0: (np.full(n.shape, value), (value, value)),
    "zero": lambda n: (np.zeros(n.shape), (0.0, 0.0)),
    "harmonic": lambda n, limit=0.0, coef=1.0: (limit + coef / n, (limit, limit)),
    "alt_harmonic": _alt_harmonic,
}


def _slack(*parts) -> float:
    """linalg._tol of a sequence's size: the largest |entry| of its arrays and tails."""
    sizes = [float(np.max(np.abs(p), initial=0.0)) for p in parts if p is not None]
    if not all(map(math.isfinite, sizes)):
        raise ValueError("sequence entries and tails must be finite")
    return linalg._tol(max(sizes))


def matrix_scale(a) -> TwoSidedSeq:
    """Two-sided scale of a Hermitian matrix in the d-dimensional convention."""
    mu = linalg._eigvalsh(linalg.as_hermitian(a))
    return TwoSidedSeq(
        pos=mu, neg=mu[::-1].copy(), pos_tail=None, neg_tail=None, K=len(mu), mode="matrix"
    )


def compact_scale(a, k: int | None = None) -> TwoSidedSeq:
    """Scale of a Hermitian matrix viewed as a compact operator (A oplus 0).

    Args:
        a: Hermitian matrix of dimension d.
        k: horizon, defaults to 2*d; must satisfy k >= d.
    """
    pos, neg = _eig_sides(linalg._eigvalsh(linalg.as_hermitian(a)), k)
    return TwoSidedSeq(pos=pos, neg=neg, pos_tail=0.0, neg_tail=0.0, K=len(pos), mode="compact")


def _eig_sides(mu: np.ndarray, k: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(pos, neg) of the compact-model scale from eigenvalues mu (..., d).

    mu is non-increasing along its last axis, so the positive entries lead and
    the negative ones trail, and both sides come out sorted without a sort.
    Zeros, of either sign, become +0.0. The horizon k defaults to 2*d.
    """
    d = mu.shape[-1]
    if k is None:
        k = 2 * d
    if k < d:
        raise HorizonMismatch(f"horizon {k} is below the dimension {d}")
    pos = np.zeros(mu.shape[:-1] + (k,))
    neg = np.zeros(mu.shape[:-1] + (k,))
    np.copyto(pos[..., :d], mu, where=mu > 0.0)
    up = mu[..., ::-1]
    np.copyto(neg[..., :d], up, where=up < 0.0)
    return pos, neg


def _eig_spread(mu: np.ndarray, k: int | None = None) -> np.ndarray:
    """Compact-model Spr+ values from non-increasing eigenvalues mu (..., d)."""
    pos, neg = _eig_sides(mu, k)
    return pos - neg


def _matrix_spread(mu: np.ndarray) -> np.ndarray:
    """Matrix-mode Spr+ values from non-increasing eigenvalues mu (..., d).

    Equal bit for bit to spread_plus(matrix_scale(A)).values on the same
    eigenvalues. fl(mu_i - mu_{d+1-i}) is non-increasing and non-negative for
    i <= ceil(d/2), so no SpreadSeq checks are needed.
    """
    half = math.ceil(mu.shape[-1] / 2)
    return mu[..., :half] - mu[..., ::-1][..., :half]


def diag_scale(a: DiagSpec, k: int) -> TwoSidedSeq:
    """Scale of the diagonal operator D_a up to horizon k, exact.

    Entries strictly above limsup (below liminf) rank on the positive
    (negative) side, largest (smallest) first and ties in index order; the
    rest collapse to the tails. Past the head, every rule is monotone toward
    its limit along each parity of n: `constant` and `zero` put no entry
    strictly outside the band, `harmonic` L + c/n moves toward L, and
    `alt_harmonic` falls toward upper on odd n and toward lower on even n,
    never below min(upper, lower). Rounding keeps each parity monotone, as a
    correctly rounded quotient or sum is monotone in its operands. So an
    entry that ranks among the first k lies in the head or among the first
    k entries of its parity past it, and the head plus 2k generated entries
    is an exact window. Without a generator the head is the whole sequence.
    """
    if k < 1:
        raise ValueError("horizon must be >= 1")
    window = a.sample(len(a.head) + 2 * k)
    # a stable sort keeps ties, +0.0 against -0.0 included, in index order
    up = -np.sort(-window[window > a.limsup], kind="stable")[:k]
    down = np.sort(window[window < a.liminf], kind="stable")[:k]
    pos = np.concatenate([up, np.full(k - len(up), a.limsup)])
    neg = np.concatenate([down, np.full(k - len(down), a.liminf)])
    return TwoSidedSeq(
        pos=pos, neg=neg, pos_tail=a.limsup, neg_tail=a.liminf, K=k, mode="diag"
    )


def spread_full(scale: TwoSidedSeq) -> TwoSidedSeq:
    """Full spread Spr_i = lambda_i - lambda_{-i}, antisymmetric two-sided."""
    vals = scale.pos - scale.neg
    if scale.pos_tail is None:
        tails = (None, None)
    else:
        t = scale.pos_tail - scale.neg_tail
        tails = (t, -t)
    return TwoSidedSeq(
        pos=vals, neg=-vals, pos_tail=tails[0], neg_tail=tails[1],
        K=scale.K, mode=scale.mode,
    )


def spread_plus(scale: TwoSidedSeq) -> SpreadSeq:
    """Spectral spread Spr+, the positive-index part of the full spread.

    In matrix mode only the first ceil(d/2) entries are non-negative (the
    rest mirror them with opposite sign), so only those are returned.
    """
    vals = scale.pos - scale.neg
    if scale.mode == "matrix":
        half = math.ceil(scale.K / 2)
        return SpreadSeq(values=vals[:half], tail=0.0, mode="matrix")
    tail = 0.0 if scale.pos_tail is None else scale.pos_tail - scale.neg_tail
    return SpreadSeq(values=vals, tail=tail, mode=scale.mode)
