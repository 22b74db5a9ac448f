"""Inputs for the replay-large workload.

Every case is drawn from the hypothesis class of the verifier it feeds, with
numpy's PCG64 generator rather than sspread's own SplitMix64 stream, so the
timed region replays verifier calls on prebuilt inputs and draws nothing.
"""

from __future__ import annotations

import math

import numpy as np

# the nineteen public verifiers: 16 checks and 3 controls
VERIFIERS = (
    "check_tao_positive", "check_key", "check_trace_pairing",
    "check_commutator_scale", "check_commutator_sv", "check_mixed_commutator",
    "check_general_commutator", "check_unitary_conj", "check_agm_projection",
    "check_agm_pair", "check_agm_compact", "check_agm_general", "check_zhan",
    "check_offdiag_projection", "check_offdiag_compact", "check_identity_split",
    "control_kittaneh_positive", "control_bhatia_kittaneh", "control_strict_gap",
)


def crandn(rng, rows: int, cols: int) -> np.ndarray:
    g = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    return g / math.sqrt(2.0)


def hermitian(rng, d: int) -> np.ndarray:
    g = crandn(rng, d, d)
    return (g + g.conj().T) / 2.0


def _positive(rng, d: int) -> np.ndarray:
    g = crandn(rng, d, d)
    return g.conj().T @ g


def _unitary(rng, d: int) -> np.ndarray:
    q, r = np.linalg.qr(crandn(rng, d, d))
    ph = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * ph


def _projection(rng, d: int) -> np.ndarray:
    v = _unitary(rng, d)[:, : int(rng.integers(1, d))]
    return v @ v.conj().T


def _partition(rng, d: int, rank: int, positive: bool = False):
    """(C, S) with C*C + S*S the projection onto `rank` rows of a basis."""
    v = _unitary(rng, d)
    w = v.conj().T if positive else _unitary(rng, d)
    theta = rng.uniform(0.0, math.pi / 2.0, d)
    mask = (np.arange(d) < rank).astype(float)
    c = v @ np.diag(np.cos(theta) * mask) @ w
    s = v @ np.diag(np.sin(theta) * mask) @ w
    return c, s


def _indefinite(rng, d: int) -> np.ndarray:
    w, v = np.linalg.eigh(hermitian(rng, d))
    w[-1] = max(w[-1], 0.5)
    w[0] = min(w[0], -0.5)
    return (v * w) @ v.conj().T


def _args(name: str, rng, d: int, share: float, flip: bool) -> tuple:
    """Inputs for one call. `share` sets the second dimension n = share * d of
    the rectangular cases and `flip` picks between the two input variants
    where a verifier has two, so every seed runs the same mix of sizes."""
    n = max(2, round(share * d))
    if name in ("check_tao_positive", "check_key"):
        f = _positive(rng, d) if name == "check_tao_positive" else hermitian(rng, d)
        return f, int(rng.integers(1, d))
    if name == "check_trace_pairing":
        v = _unitary(rng, d)
        w = rng.standard_normal(d)
        w[int(rng.integers(1, d + 1)):] = 0.0
        return (v * w) @ v.conj().T, hermitian(rng, d)
    if name in ("check_commutator_scale", "check_commutator_sv", "check_zhan"):
        return hermitian(rng, d), hermitian(rng, d)
    if name == "check_mixed_commutator":
        return hermitian(rng, d), hermitian(rng, n), crandn(rng, d, n)
    if name == "check_general_commutator":
        return crandn(rng, d, d), crandn(rng, n, n), crandn(rng, d, n)
    if name == "check_unitary_conj":
        x = hermitian(rng, d)
        x *= math.pi * rng.uniform() / np.linalg.norm(x, 2)
        return hermitian(rng, d), x
    if name in ("check_agm_projection", "check_agm_compact"):
        c, s = _partition(rng, d, int(rng.integers(1, d + 1)))
        return s, c, hermitian(rng, d)
    if name == "check_agm_pair":
        c, s = _partition(rng, d, int(rng.integers(1, d + 1)), positive=True)
        e2 = hermitian(rng, d) if flip else None
        return s, c, hermitian(rng, d), e2
    if name == "check_agm_general":
        e = _positive(rng, d) if flip else hermitian(rng, d)
        return crandn(rng, d, d), crandn(rng, d, d), e
    if name in ("check_offdiag_projection", "check_offdiag_compact"):
        return hermitian(rng, d), _projection(rng, d)
    if name == "check_identity_split":
        c, s = _partition(rng, d, d)
        return s, c, hermitian(rng, d)
    if name == "control_kittaneh_positive":
        return _positive(rng, d), _positive(rng, n), crandn(rng, d, n)
    if name == "control_bhatia_kittaneh":
        return crandn(rng, d, d), crandn(rng, d, d)
    if name == "control_strict_gap":
        return (_indefinite(rng, d),)
    raise KeyError(name)


def build(seed: int, dims: tuple[int, ...], copies: int) -> list[tuple[str, int, tuple]]:
    """`copies` (verifier, dim, args) cases per verifier and dimension, in a
    fixed order; copy k uses n = (k + 1) / copies of d and variant k % 2."""
    rng = np.random.default_rng(seed)
    return [(name, d, _args(name, rng, d, (k + 1) / copies, k % 2 == 0))
            for k in range(copies) for d in dims for name in VERIFIERS]
