"""Dense complex linear algebra: Hermitian eigenvalues and eigendecomposition,
singular values, block constructions and compressions.

Matrices are numpy complex128 arrays. Inputs that must be Hermitian or
projections are validated and rejected (never symmetrized) at `_tol`, the
one tolerance of every gate and comparison in the package. Each public
function validates its input once and then calls a private helper of the
same name with a leading underscore; code inside the package calls those
helpers directly on matrices it has built or already validated.

The private helpers also take stacks (B, rows, cols) with a leading batch
axis, and `_as_cmatrices`/`_as_hermitians`/`_as_projections` validate a stack
member by member at the same tolerances as the public one-matrix checks,
which are those checks on a stack of one. numpy runs LAPACK and matmul once
per stack member, so each member gets the bits a lone call would give.
A product with a real diagonal matrix is a column scaling,
(v * x[..., None, :]) @ w: each entry of v D is the one rounded product
v_ij x_j either way (a zero product may differ in sign, which a sum with a
nonzero term absorbs), so the bits are those of v @ diag(x) @ w.

This module is the package's one doorway to LAPACK. It calls numpy's LAPACK
gufuncs (numpy.linalg._umath_linalg, numpy 2.x names) directly, at their
complex signatures, under numpy.linalg's error state: these are the calls
numpy.linalg.eigvalsh, eigh, svd (values only) and qr make on a complex128
stack, so the bits are theirs, and a failure raises NoConvergence with
numpy's message. (A real stack is cast and goes to the complex routine.)

Scales, spreads and positivity gates need eigenvalues only; they come from
LAPACK's values-only Hermitian driver (`_eigvalsh`). Eigenvectors (`_eigh`)
are computed only where the vectors are used: in a verifier only for the
e^{iX} of unitary conjugation, and outside the verifiers for compressions,
a generator, the property suite and a reproduction. No verifier takes a
square root: agm_general takes the spectrum of G = F^(1/2) E F^(1/2) from
R E R*, where R (`_qr_r`, no Q formed) is the R factor of [A; B], so that
R*R = F and R = W F^(1/2) for a unitary W.

Singular values come from LAPACK's SVD (`_sv_array`), except that a
Hermitian operand's singular values are |eigenvalues| from the values-only
eigensolver (`_herm_sv(_eigvalsh(m))`), with the same absolute accuracy
eps * s_1. An operand that is i times Hermitian goes there as i * m, and one
that is Hermitian only up to rounding (a computed commutator, A - U*AU) goes
there as it is, neither symmetrized nor gated: the eigensolver reads one
triangle.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import NoConvergence, NotHermitian, NotProjection


def _tol(magnitude, k: int = 1):
    """The one tolerance, 1e-12 * k * magnitude: magnitude is the size of the
    operands (per row for an array), never of a result, which can cancel; k
    counts the terms an error can pile up over. No verdict depends on scale."""
    return 1e-12 * k * magnitude


def _size(*stacks: np.ndarray) -> np.ndarray:
    """Largest |entry| of each row over stacks (B, ...): an operand's size."""
    size = None
    for s in stacks:
        m = np.abs(s).max(axis=tuple(range(1, s.ndim)), initial=0.0)
        size = m if size is None else np.maximum(size, m)
    return size


def as_cmatrix(a) -> np.ndarray:
    """Validate and return a 2-d complex128 matrix with finite entries."""
    return _as_cmatrices(np.asarray(a, dtype=np.complex128)[None])[0]


def as_hermitian(a) -> np.ndarray:
    """Validate a square matrix as Hermitian, relative to its own size.

    Raises:
        NotHermitian: if the defect max|A - A*| exceeds _tol(max|A|).
    """
    return _as_hermitians(np.asarray(a, dtype=np.complex128)[None])[0]


def _ct(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose over the last two axes."""
    return m.conj().swapaxes(-1, -2)


def _as_cmatrices(a, sized: bool = False):
    """Validate a stack (B, rows, cols) of finite complex128 matrices.

    sized=True returns (stack, each member's max|entry|) and reads finiteness
    off that maximum, through which NaN and inf propagate.
    """
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 3:
        raise ValueError(f"expected a 2-d matrix, got shape {m.shape[1:]}")
    size = _size(m) if sized else None
    if not np.isfinite(m if size is None else size).all():
        raise ValueError("matrix entries must be finite")
    return m if size is None else (m, size)


def _as_hermitians(a, magnitude=None, k: int = 1, sized: bool = False):
    """as_hermitian over a stack at _tol(magnitude, k), magnitude defaulting to
    each member's max|entry|; the message names the first failing member.
    sized=True returns (stack, each member's max|entry|)."""
    m, size = _as_cmatrices(a, sized=True)
    if m.shape[1] != m.shape[2]:
        raise NotHermitian(f"matrix is {m.shape[1]}x{m.shape[2]}, not square")
    limit = _tol(size if magnitude is None else magnitude, k)
    defect = _size(m - _ct(m))
    bad = defect > limit
    if bad.any():
        i = bad.argmax()  # the first True
        raise NotHermitian(f"Hermitian defect {defect[i]:.3e} exceeds {limit[i]:.3e}")
    return (m, size) if sized else m


def _as_projections(p, k: int = 1) -> np.ndarray:
    """as_projection over a stack, both defects at _tol(max|P|, k); the message
    names the first failing member."""
    m, size = _as_hermitians(p, k=k, sized=True)
    limit = _tol(size, k)
    defect = _size(m @ m - m)
    bad = defect > limit
    if bad.any():
        i = bad.argmax()  # the first True
        raise NotProjection(f"idempotency defect {defect[i]:.3e} exceeds {limit[i]:.3e}")
    return m


def _diag(x: np.ndarray) -> np.ndarray:
    """Diagonal matrices from the last axis of x: (..., n) -> (..., n, n)."""
    n = x.shape[-1]
    out = np.zeros(x.shape + (n,), dtype=x.dtype)
    i = np.arange(n)
    out[..., i, i] = x
    return out


def _lapack(gufunc, signature: str, message: str):
    """gufunc(*args) at this complex signature, as numpy.linalg calls it: under
    numpy.linalg's error state, where a failure LAPACK reports raises
    NoConvergence with numpy's own message."""

    def failed(err, flag):
        raise NoConvergence(message)

    @np.errstate(call=failed, invalid="call", over="ignore", divide="ignore", under="ignore")
    def call(*args):
        return gufunc(*args, signature=signature)

    return call


_eigvalsh_lo = _lapack(_umath_linalg.eigvalsh_lo, "D->d", "Eigenvalues did not converge")
_eigh_lo = _lapack(_umath_linalg.eigh_lo, "D->dD", "Eigenvalues did not converge")
_QR_FAILED = "Incorrect argument found while performing QR factorization"
_qr_r_raw = _lapack(_umath_linalg.qr_r_raw, "D->D", _QR_FAILED)
_qr_reduced = _lapack(_umath_linalg.qr_reduced, "DD->D", _QR_FAILED)


class EigenPair(NamedTuple):
    """Eigenvalues (non-increasing) and matching orthonormal eigenvectors."""

    values: np.ndarray
    vectors: np.ndarray


class CompressResult(NamedTuple):
    """Compression A_P on an orthonormal basis of range(P), plus full-space PAP."""

    compressed: np.ndarray
    pap: np.ndarray


def eigh(a) -> EigenPair:
    """Hermitian eigendecomposition with non-increasing eigenvalues.

    Args:
        a: Hermitian matrix (validated as by as_hermitian).

    Returns:
        EigenPair(values, vectors) with the residual
        ||A @ vectors - vectors @ diag(values)||_F at most _tol(||A||_2, d) for
        a d x d A, the bound the eigh_residual property checks.

    Raises:
        NotHermitian: input fails the Hermiticity gate.
        NoConvergence: the underlying solver did not converge.
    """
    return _eigh(as_hermitian(a))


def _eigh(m: np.ndarray) -> EigenPair:
    """eigh of a matrix or of a stack of them (..., d, d), not re-checked."""
    w, v = _eigh_lo(m)
    return EigenPair(w[..., ::-1].copy(), v[..., ::-1].copy())


def _eigvalsh(m: np.ndarray) -> np.ndarray:
    """Non-increasing eigenvalues of a Hermitian matrix or of a stack of them,
    without eigenvectors."""
    return _eigvalsh_lo(m)[..., ::-1].copy()


def sv_array(x) -> np.ndarray:
    """Singular values of X, non-increasing, length min(rows, cols).

    Computed by LAPACK's SVD (values only), so small singular values are
    accurate to machine precision relative to s_1(X). Square roots of the
    eigenvalues of X*X would only be accurate to sqrt(eps) * s_1(X). Inside
    the package a Hermitian operand takes |eigenvalues| from the values-only
    Hermitian eigensolver instead, with the same absolute accuracy eps * s_1.

    Raises:
        NoConvergence: the SVD did not converge.
    """
    return _sv_array(as_cmatrix(x))


# sv_array of a matrix or of a stack of them, along the last axis
_sv_array = _lapack(_umath_linalg.svd, "D->d", "SVD did not converge")


def _herm_sv(w: np.ndarray) -> np.ndarray:
    """Singular values of Hermitian matrices from their eigenvalues w (..., d):
    |w| in non-increasing order along the last axis, as _sv_array gives them."""
    return np.sort(np.abs(w), axis=-1)[..., ::-1].copy()


def opnorm(x) -> float:
    """Operator (spectral) norm, i.e. s_1(X)."""
    return float(_opnorm(as_cmatrix(x)))


def _opnorm(m: np.ndarray) -> np.ndarray:
    """s_1 of a matrix or of each of a stack (0.0 when empty)."""
    return _sv_array(m).max(axis=-1, initial=0.0)


def direct_sum(a, b) -> np.ndarray:
    """Block-diagonal matrix diag(A, B)."""
    return _direct_sum(as_cmatrix(a), as_cmatrix(b))


def _direct_sum(ma: np.ndarray, mb: np.ndarray) -> np.ndarray:
    """direct_sum of two matrices or of two stacks, member by member."""
    (r, c), (p, q) = ma.shape[-2:], mb.shape[-2:]
    out = np.zeros(ma.shape[:-2] + (r + p, c + q), dtype=np.complex128)
    out[..., :r, :c] = ma
    out[..., r:, c:] = mb
    return out


def offdiag_embed(b) -> np.ndarray:
    """Hermitian embedding [[0, B], [B*, 0]] of an arbitrary matrix B."""
    return _offdiag_embed(as_cmatrix(b))


def _offdiag_embed(m: np.ndarray) -> np.ndarray:
    """offdiag_embed of a matrix or of each of a stack."""
    rows, cols = m.shape[-2:]
    out = np.zeros(m.shape[:-2] + (rows + cols, rows + cols), dtype=np.complex128)
    out[..., :rows, rows:] = m
    out[..., rows:, :rows] = _ct(m)
    return out


def _haar(g: np.ndarray) -> np.ndarray:
    """The unitary of a Gaussian draw g, or of a stack of draws: Q of g = QR
    with the phase of each diagonal entry of R moved into its column of Q,
    which makes the factorization unique. These are numpy.linalg.qr's calls,
    but R's diagonal is read where qr_r_raw leaves it, in the factored copy."""
    a = g.astype(np.complex128, copy=True)
    tau = _qr_r_raw(a)  # factors a in place: R on and above the diagonal
    q = _qr_reduced(a, tau)
    ph = np.diagonal(a, axis1=-2, axis2=-1)
    size = np.abs(ph)
    ph = np.where(size > 0, ph / size, 1.0)
    return q * ph[..., None, :]


def _qr_r(m: np.ndarray) -> np.ndarray:
    """R of m = QR for a matrix or a stack (..., rows, cols), as
    numpy.linalg.qr(m, mode="r") computes it: (..., min(rows, cols), cols),
    upper triangular. Q is never formed."""
    a = m.astype(np.complex128, copy=True)
    _qr_r_raw(a)  # factors a in place: R on and above the diagonal
    return np.triu(a[..., :min(a.shape[-2:]), :])


def _unitary_exp(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """e^{iX} from the eigenpair (w, v) of a Hermitian X, or of a stack of them."""
    # a matmul, not a column scaling: a BLAS kernel may form the complex
    # products v_ij e^{iw_j} with fused multiply-adds (OpenBLAS does from
    # d = 4), numpy's multiply does not, and the last bits of U would move
    u = v @ _diag(np.exp(1j * w)) @ _ct(v)
    d = u.shape[-1]
    if np.any(_size(_ct(u) @ u - np.eye(d)) > _tol(1.0, d)):
        raise NoConvergence("e^{iX} failed the unitarity residual")
    return u


def as_projection(p) -> np.ndarray:
    """Validate P as an orthogonal projection (P = P* = P^2) at _tol(max|P|)."""
    return _as_projections(np.asarray(p, dtype=np.complex128)[None])[0]


def compress(a, p) -> CompressResult:
    """Compression of A to range(P).

    Args:
        a: Hermitian matrix.
        p: orthogonal projection (validated).

    Returns:
        CompressResult: A_P of dimension rank(P) on an orthonormal basis of
        range(P), and PAP on the full space.
    """
    ma = as_hermitian(a)
    mp = as_projection(p)
    if ma.shape != mp.shape:
        raise ValueError(f"dimension mismatch {ma.shape} vs {mp.shape}")
    return CompressResult(_compressed(ma, mp), mp @ ma @ mp)


def _compressed(ma: np.ndarray, mp: np.ndarray) -> np.ndarray:
    """A_P of a matrix or of each of a stack, whose projections share one rank."""
    w, v = _eigh(mp)
    # the eigenvalues fall, so those above 1/2 lead
    rank = np.count_nonzero(w > 0.5, axis=-1)
    if np.any(rank != rank.flat[0]):
        raise ValueError("the projections of a stack must share one rank")
    basis = v[..., : rank.flat[0]].copy()
    return _ct(basis) @ ma @ basis


def svd_values(x, horizon: int | None = None):
    """Singular values as a compact-mode SpreadSeq, zero-padded to horizon."""
    from .spectra import SpreadSeq

    s = _sv_array(as_cmatrix(x))
    if horizon is None:
        horizon = len(s)
    if horizon < len(s):
        raise ValueError(f"horizon {horizon} is below the value count {len(s)}")
    return SpreadSeq(values=_pad(s, horizon), tail=0.0, mode="compact")


def _pad(s: np.ndarray, k: int) -> np.ndarray:
    """Zero-pad the last axis to length k, in a new array."""
    out = np.zeros(s.shape[:-1] + (k,))
    out[..., :s.shape[-1]] = s
    return out
