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
                rest collapse to the tails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import HorizonMismatch, InsufficientSampling, ModeError

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

    def padded(self, k: int) -> np.ndarray:
        """Values zero-padded to length k (compact mode only)."""
        if k < len(self.values):
            raise HorizonMismatch(f"cannot shrink horizon {len(self.values)} to {k}")
        if k == len(self.values):
            return self.values
        if self.mode != "compact":
            raise ModeError(f"zero-padding undefined in {self.mode} mode")
        return np.concatenate([self.values, np.zeros(k - len(self.values))])


@dataclass(frozen=True)
class DiagSpec:
    """Bounded real sequence a defining a diagonal operator D_a.

    head lists explicit leading entries; entries past the head come from the
    named generator rule. Entries past the sampling window are assumed to lie
    inside [liminf, limsup].
    """

    head: tuple[float, ...] = ()
    liminf: float = 0.0
    limsup: float = 0.0
    generator: str | None = None
    params: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "head", tuple(float(x) for x in self.head))
        if not all(map(math.isfinite, (*self.head, self.liminf, self.limsup,
                                       *self.params.values()))):
            raise ValueError("head, liminf, limsup and generator parameters must be finite")
        if self.liminf > self.limsup:
            raise ValueError("liminf must not exceed limsup")
        if self.generator is not None and self.generator not in GENERATORS:
            raise ValueError(f"unknown generator {self.generator!r}")

    def entry(self, n: int) -> float:
        """n-th entry (1-based)."""
        if n < 1:
            raise ValueError("indices are 1-based")
        if n <= len(self.head):
            return self.head[n - 1]
        if self.generator is None:
            raise IndexError(f"entry {n} is beyond the head and no generator is set")
        return GENERATORS[self.generator](n, self.params)

    def sample(self, m: int) -> np.ndarray:
        """First min(m, available) entries."""
        stop = m if self.generator is not None else min(m, len(self.head))
        return np.array([self.entry(n) for n in range(1, stop + 1)])


def _gen_constant(n: int, p: dict) -> float:
    return p.get("value", 0.0)


def _gen_zero(n: int, p: dict) -> float:
    return 0.0


def _gen_harmonic(n: int, p: dict) -> float:
    return p.get("limit", 0.0) + p.get("coef", 1.0) / n


def _gen_alt_harmonic(n: int, p: dict) -> float:
    # odd entries upper + 1/k, even entries lower + 1/k, k = ceil(n/2)
    k = (n + 1) // 2
    base = p.get("upper", 1.0) if n % 2 == 1 else p.get("lower", -1.0)
    return base + 1.0 / k


GENERATORS = {
    "constant": _gen_constant,
    "zero": _gen_zero,
    "harmonic": _gen_harmonic,
    "alt_harmonic": _gen_alt_harmonic,
}


def _slack(*parts) -> float:
    """linalg._tol of a sequence's size: the largest |entry| of its arrays and tails."""
    return linalg._tol(max(float(np.max(np.abs(p), initial=0.0)) for p in parts if p is not None))


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
    pad = np.zeros(mu.shape[:-1] + (k - d,))
    pos = np.concatenate([np.where(mu > 0.0, mu, 0.0), pad], axis=-1)
    neg = np.concatenate([np.where(mu < 0.0, mu, 0.0)[..., ::-1], pad], axis=-1)
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


def diag_scale(a: DiagSpec, k: int, m_factor: int = 64) -> TwoSidedSeq:
    """Scale of the diagonal operator D_a, certified up to horizon k.

    Entries strictly above limsup (below liminf) rank on the positive
    (negative) side; everything else collapses to the tails. The sampling
    window is m_factor * k entries when a generator is present, otherwise the
    head alone (which is then authoritative).

    Raises:
        InsufficientSampling: a generator-produced candidate that ranks among
        the first k scale entries first appears in the late half of the
        window, so the window cannot be trusted to have seen every ranking
        candidate.
    """
    if k < 1:
        raise ValueError("horizon must be >= 1")
    window = a.sample(m_factor * k)
    up = [(v, i) for i, v in enumerate(window) if v > a.limsup]
    down = [(v, i) for i, v in enumerate(window) if v < a.liminf]
    up.sort(key=lambda t: (-t[0], t[1]))
    down.sort(key=lambda t: (t[0], t[1]))
    if a.generator is not None:
        late = len(window) // 2
        for v, i in up[:k] + down[:k]:
            if i >= late:
                raise InsufficientSampling(
                    f"ranking entry {v!r} first appears at sample {i + 1} of {len(window)}"
                )
    pos = np.array([up[i][0] if i < len(up) else a.limsup for i in range(k)])
    neg = np.array([down[i][0] if i < len(down) else a.liminf for i in range(k)])
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
