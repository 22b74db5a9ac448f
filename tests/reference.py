"""Literal reference forms of verifier claims, in plain numpy.

Each function restates a verifier's claim from its docstring by the most
direct computation, and shares no code with sspread: a square root from
np.linalg.eigh, singular values from np.linalg.svd of the formed operand,
compact-model spreads from a sorted np.linalg.eigvalsh, partial sums by
np.cumsum. A verdict that agrees with its reference was reached twice, by two
paths. The tolerance is sspread's, restated: 1e-12 * k * the operands' size,
for a claim over k partial sums.
"""

from typing import NamedTuple

import numpy as np

TOL = 1e-12


class Claim(NamedTuple):
    """A weak submajorization lhs <w rhs over k partial sums."""

    holds: bool
    margins: np.ndarray  # (k,) partial sums of rhs minus those of lhs
    tol: float


def _ct(m: np.ndarray) -> np.ndarray:
    return m.conj().T


def padded(x: np.ndarray, k: int) -> np.ndarray:
    """x followed by zeros, length k."""
    return np.concatenate([x, np.zeros(k - len(x))])


def spread(m: np.ndarray, k: int) -> np.ndarray:
    """Compact-model spread of a Hermitian m at horizon k: its positive
    eigenvalues in decreasing order minus its negative ones in increasing
    order, each side padded with zeros to length k."""
    w = np.sort(np.linalg.eigvalsh(m))
    return padded(w[w > 0][::-1], k) - padded(w[w < 0], k)


def submajorized(lhs: np.ndarray, rhs: np.ndarray, size: float) -> Claim:
    """lhs weakly submajorized by rhs, both already sorted and of length k,
    judged at TOL * k * size."""
    margins = np.cumsum(rhs) - np.cumsum(lhs)
    tol = TOL * len(lhs) * size
    return Claim(bool(margins.min() >= -tol), margins, tol)


def psd_root(m: np.ndarray) -> np.ndarray:
    """The positive square root of a positive m, from its eigenpairs."""
    w, v = np.linalg.eigh(m)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ _ct(v)


def agm_size(a, b, e) -> float:
    """The size of an agm_general instance: tr F max|E|, F = A*A + B*B, where
    tr F = ||A||_F^2 + ||B||_F^2 bounds ||F||."""
    return (np.linalg.norm(a) ** 2 + np.linalg.norm(b) ** 2) * np.abs(e).max()


def agm_general(a, b, e) -> tuple[Claim, np.ndarray]:
    """s(AEB*) weakly below half the compact spread of G = F^(1/2) E F^(1/2),
    F = A*A + B*B, at horizon 2d; and the entrywise margins
    Spr_j(G) - 2 s_j(AEB*), j <= d. The size is agm_size."""
    d = e.shape[0]
    f = _ct(a) @ a + _ct(b) @ b
    root = psd_root(f)
    spr_g = spread(root @ e @ root, 2 * d)
    s_aeb = np.linalg.svd(a @ e @ _ct(b), compute_uv=False)
    return submajorized(padded(s_aeb, 2 * d), spr_g / 2.0, agm_size(a, b, e)), spr_g[:d] - 2.0 * s_aeb


def agm_general_positive(a, b, e) -> Claim:
    """For a positive E, the same claim in the form s(AEB*) weakly below half
    of s(E^(1/2) F E^(1/2)), at horizon 2d: G = XX* and E^(1/2) F E^(1/2) = X*X
    with X = F^(1/2) E^(1/2) have the same nonzero eigenvalues."""
    d = e.shape[0]
    f = _ct(a) @ a + _ct(b) @ b
    root = psd_root(e)
    s_efe = np.linalg.svd(root @ f @ root, compute_uv=False)
    s_aeb = np.linalg.svd(a @ e @ _ct(b), compute_uv=False)
    return submajorized(padded(s_aeb, 2 * d), padded(s_efe, 2 * d) / 2.0, agm_size(a, b, e))


def is_positive(e: np.ndarray) -> bool:
    """E's smallest eigenvalue clears -TOL * ||E||."""
    w = np.linalg.eigvalsh(e)
    return bool(w[0] >= -TOL * np.abs(w).max())
