"""Verifiers for the spectral-spread inequality family.

Each check_* function evaluates one inequality on concrete matrices and
returns a Verdict carrying the full margin data: the submajorization report,
entrywise margins where the entrywise form is the interesting contrast, and
the side claims a kernel judges or records in extras. Each claim is judged
once: a weak submajorization implies the same inequality in every unitarily
invariant norm (Fan dominance), so no norm form of a judged submajorization
is judged again. A False verdict on a theorem's hypothesis class indicates
an implementation bug, so the whole family doubles as a self-test; the known
entrywise failures are recorded, not judged.

Every verifier is a kernel over stacks: its matrix arguments carry a leading
batch axis (B, rows, cols), every member of a stack has the same shape, and
scalar arguments (a split, an absent E2) are shared by the whole batch. A
kernel works only through the private stacked helpers of linalg, spectra
and major, and returns Rows: per-row columns only (verdict and judged margin
as arrays, the input stacks, the SubRows of the submajorization, the
entrywise margins, a per-row extras function). Each kernel is written once,
under its public check_*/control_* name, and @_verifier(ineq_id, mode), the
one statement of its verdicts' id and model, turns it into the public
function, the kernel on a batch of one; harness.fuzz reaches the kernel
behind the public name with inspect.unwrap and runs it on groups of
trials of equal shape. numpy runs LAPACK, matmul, sorts and partial sums
member by member, so a row's numbers do not depend on the batch around it.
A kernel decomposes each operand stack by a call of its own, after every
gate that precedes it.

Input is validated once, at the public boundary: each kernel parameter's
annotation names its operand's class (Matrix, Hermitian, Positive or
Projection), and the public function runs that class's gate on every
operand, in parameter order, naming the operand in a gate's error. Kernels,
which harness.fuzz also feeds stacks drawn in class by construction, then
run only the gates of what they compute: _positive (a positive operand's
eigenvalues; NotPositive names it), _projection_sum (C*C + S*S = P, with
the operators on its space), agm_general's R E R* (G up to a unitary),
_coupling (an X from one space to another) and _same_shape (operands on one
space); every DimMismatch comes from these, _cut or _herm_parts. Every gate
and comparison is made at linalg._tol of the input operands' size (e.g.
||A|| ||X|| for a commutator, read off a decomposition the kernel makes
anyway, or tr F max|E| for agm_general, which decomposes neither), never of
a computed bound, which can cancel. Only unitary_conj computes eigenvectors,
for e^{iX}. A public verifier raises ValueError naming the claim by its verdict
id at the first overflow or invalid operation, or on a non-finite margin.
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
    SpreadError,
)
from .linalg import (
    _as_cmatrices,
    _as_hermitians,
    _as_projections,
    _ct,
    _eigh,
    _eigvalsh,
    _herm_sv,
    _opnorm,
    _pad,
    _qr_r,
    _size,
    _sv_array,
    _tol,
    _unitary_exp,
)
from .major import SubRows, _dec, _schatten_rows, _sub_rows
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
    """A kernel's judgement of a batch: its per-row columns.

    holds and margin are (B,) arrays. margin is the judged margin: the
    report's smallest margin, else the smallest entrywise margin, else
    extras["margin"]. inputs are the validated input stacks, whose row i is
    the witness of row i; sub holds the submajorization claim's SubRows,
    entrywise the (margins (B, n), holds (B,)) pair of an entrywise form,
    and extras(i) row i's extras. verdict(i, ineq_id, mode) builds row i's
    Verdict, with the id and model that the kernel's _verifier declares.
    """

    holds: np.ndarray
    margin: np.ndarray
    inputs: tuple
    sub: SubRows | None = None
    entrywise: tuple[np.ndarray, np.ndarray] | None = None
    extras: Callable[[int], dict] | None = None

    def verdict(self, i: int, ineq_id: str, mode: str) -> Verdict:
        ew = self.entrywise
        return Verdict(
            ineq_id, bool(self.holds[i]), None if self.sub is None else self.sub.report(i),
            tuple(m[i] for m in self.inputs), mode,
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
    return _eig_spread(_dec(np.concatenate(eigs, axis=-1)), k)


def _positive_gate(w: np.ndarray, fail: str | None = None) -> np.ndarray:
    """Positivity gate on a stack (B, d) of non-increasing eigenvalues of
    Hermitian matrices.

    A spectrum passes when its smallest entry is at least -_tol(max|w|);
    returns the bool per row. With a message template, a failing spectrum
    raises instead: NotPositive(fail.format(smallest eigenvalue)) for the
    first that fails.
    """
    ok = w.min(axis=-1, initial=math.inf) >= -_tol(_size(w))
    if fail is not None and not ok.all():
        first = ok.argmin()  # the first False
        raise NotPositive(fail.format(w[first, -1]))
    return ok


def _gram_trace(m: np.ndarray) -> np.ndarray:
    """tr M*M = ||M||_F^2 of each member of a stack, with its max|entry|
    factored out of the squares, so that it overflows no earlier than ||M*M||."""
    size = _size(m)
    unit = np.where(size > 0, size, 1.0)[:, None, None]
    return size * size * np.sum(np.abs(m / unit) ** 2, axis=(-2, -1))


def _entrywise(margins: np.ndarray, mag: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(holds, smallest margin) per row: every margin clears -_tol(operand size mag).

    A row with no margins holds, and its smallest margin is inf.
    """
    low = margins.min(axis=-1, initial=math.inf)
    return low >= -_tol(mag), low


def _same_shape(first: np.ndarray, *others: np.ndarray) -> None:
    """Shape gate of stacks of operators on one space; raises DimMismatch
    naming the first member shape that differs from first's."""
    for o in others:
        if o.shape[1:] != first.shape[1:]:
            raise DimMismatch(f"shapes {first.shape[1:]} and {o.shape[1:]} differ")


def _positive(m: np.ndarray, name: str) -> np.ndarray:
    """The non-increasing eigenvalues of a positive operand's stack, gated;
    NotPositive names the operand and its smallest eigenvalue."""
    w = _eigvalsh(m)
    _positive_gate(w, name + " has eigenvalue {:.3e}")
    return w


def _coupling(x: np.ndarray, m: int, n: int) -> None:
    """Shape gate of a stack of X from an n- to an m-dimensional space."""
    if x.shape[1:] != (m, n):
        raise DimMismatch(f"X is {x.shape[1:]}, expected {(m, n)}")


def _cut(split: int | None, d: int) -> int:
    """The split of a d x d matrix into corner blocks; defaults to d // 2."""
    if split is None:
        split = d // 2
    if not 1 <= split <= d - 1:
        raise DimMismatch(f"split {split} does not cut a {d}x{d} matrix")
    return split


# an operand's class, as its kernel parameter's annotation names it ("| None"
# where it may be left out), and the boundary gate of that class; a positive
# operand's kernel gates the eigenvalues it computes anyway (_positive)
Matrix = Hermitian = Positive = Projection = np.ndarray  # each a stack
_GATES = {"Matrix": _as_cmatrices, "Hermitian": _as_hermitians, "Positive": _as_hermitians,
          "Projection": _as_projections}


def _matrix_params(sig: inspect.Signature) -> list[inspect.Parameter]:
    """A verifier's matrix parameters, in order: every parameter but split. One
    with a default (agm_pair's E2) may be left out; `sspread check` takes one
    file for each."""
    return [p for p in sig.parameters.values() if p.name != "split"]


def _operand(role: tuple, a):
    """An argument at the public boundary: an operand as a stack of one passed
    by its gate, whose error is raised again prefixed by the operand's name
    in upper case; a split, or an absent E2 (None), as given."""
    gate, name = role
    if gate is None or a is None:
        return a
    try:
        return gate(_one(a))
    except (ValueError, SpreadError) as exc:
        raise type(exc)(f"{name.upper()}: {exc}") from None


def _finite_margin(rows: Rows, ineq_id: str) -> Rows:
    """rows, when row 0's judged margin and its submajorization's tol are
    finite: the backstop for an overflow that no error state reports (LAPACK
    runs with overflow ignored). A verdict on a NaN or an infinity would be
    undefined or vacuous, so ValueError names the claim instead. A claim that
    compares nothing (empty operands) keeps its margin inf."""
    sub, ew = rows.sub, rows.entrywise
    margin = float(rows.margin[0])
    tol = 0.0 if sub is None else float(sub.tol[0])
    compared = sub.upper.shape[-1] if sub is not None else 1 if ew is None else ew[0].shape[-1]
    if math.isnan(margin) or (compared and math.isinf(margin)) or not math.isfinite(tol):
        at = "" if sub is None else f" at tol {tol:.3e}"
        raise ValueError(f"{ineq_id}: the judged margin is {margin:.3e}{at}: "
                         "the operands' scale overflows the claim")
    return rows


def _verifier(ineq_id: str, mode: str) -> Callable[[Callable[..., Rows]], Callable[..., Verdict]]:
    """The public verifier of a kernel, the kernel on a batch of one, whose
    verdicts carry ineq_id and mode ("matrix" or "compact").

    Each matrix argument, as a stack of one, passes the gate of its class in
    parameter order, and the kernel then runs its own gates, under an error
    state that stops them at the first overflow or invalid operation with a
    ValueError naming ineq_id, and warns of nothing (kernels stay unguarded).
    The result is row 0's Verdict, once _finite_margin has passed it. Roles
    are read off the kernel's parameters once, so a call binds nothing. The
    public function keeps the kernel's name, docstring and parameters, and
    its __wrapped__ is the kernel, which inspect.unwrap reaches through any
    wrapper that sets __wrapped__ too.
    """
    def wrap(kernel: Callable[..., Rows]) -> Callable[..., Verdict]:
        sig = inspect.signature(kernel)
        matrices = {p.name for p in _matrix_params(sig)}
        roles = tuple((_GATES[p.annotation.removesuffix(" | None")] if p.name in matrices
                       else None, p.name) for p in sig.parameters.values())

        @functools.wraps(kernel)
        def public(*args, **kwargs):
            try:
                with np.errstate(over="raise", invalid="raise"):
                    # positional arguments precede keyword ones in parameter order
                    given = [*map(_operand, roles, args), *args[len(roles):]]
                    kwargs.update({r[1]: _operand(r, kwargs[r[1]])
                                   for r in roles if r[1] in kwargs})
                    rows = kernel(*given, **kwargs)
            except FloatingPointError as exc:
                raise ValueError(f"{ineq_id}: {exc}: the operands' scale overflows "
                                 "the claim") from None
            return _finite_margin(rows, ineq_id).verdict(0, ineq_id, mode)

        public.__signature__ = sig.replace(return_annotation="Verdict")
        public.__annotations__ = {**kernel.__annotations__, "return": "Verdict"}
        return public
    return wrap


# ---------------------------------------------------------------------------
# verifiers: each is written as its kernel, which takes stacks and returns
# Rows, under the public name that _verifier gives its batch-of-one form


@_verifier("tao_positive", "matrix")
def check_tao_positive(f: Positive, split: int | None = None) -> Rows:
    """Off-diagonal block bound for a positive 2x2 block matrix.

    For F = [[A, B], [B*, C]] >= 0 with top-left block of size `split`,
    checks 2 s_i(B) <= s_i(F) for every i up to the number of singular
    values of B.
    """
    sf = _positive(f, "F")
    split = _cut(split, f.shape[-1])
    sb = _sv_array(f[:, :split, split:])
    margins = sf[:, : sb.shape[-1]] - 2.0 * sb
    ok, low = _entrywise(margins, _size(sf))
    return Rows(ok, low, (f,), entrywise=(margins, ok), extras=lambda i: {"split": split})


@_verifier("key", "compact")
def check_key(a: Hermitian, split: int | None = None) -> Rows:
    """Doubled off-diagonal block of a Hermitian matrix vs its spread.

    For Hermitian A with corner block B (rows < split, columns >= split):
    2 s(B) weakly submajorized by the compact-model spread of A.
    """
    d = a.shape[-1]
    split = _cut(split, d)
    lhs = 2.0 * _pad(_sv_array(a[:, :split, split:]), 2 * d)
    w = _eigvalsh(a)
    sub = _sub_rows(lhs, _eig_spread(w), _size(w))
    return Rows(sub.holds, sub.margin, (a,), sub, extras=lambda i: {"split": split})


@_verifier("trace_pairing", "compact")
def check_trace_pairing(a: Hermitian, b: Hermitian) -> Rows:
    """tr(AB) bounded by the index-paired product of the two-sided scales."""
    _same_shape(a, b)
    d = a.shape[-1]
    lhs = np.trace(a @ b, axis1=-2, axis2=-1).real
    wa, wb = _eigvalsh(a), _eigvalsh(b)
    a_pos, a_neg = _eig_sides(wa, 2 * d)
    b_pos, b_neg = _eig_sides(wb, 2 * d)
    # matmul of a (1 x k) row by a (k x 1) column runs BLAS's dot on each
    # row, the bits np.dot gives; an elementwise product summed would not
    rhs = (a_pos[:, None, :] @ b_pos[:, :, None] + a_neg[:, None, :] @ b_neg[:, :, None])[:, 0, 0]
    margin = rhs - lhs
    rank = np.sum(np.abs(wa) > _tol(_size(wa))[:, None], axis=-1)
    ok = margin >= -_tol(_size(wa) * _size(wb), d)
    return Rows(ok, margin, (a, b), extras=lambda i: {
        "lhs": float(lhs[i]), "rhs": float(rhs[i]),
        "margin": float(margin[i]), "rank_a": int(rank[i])})


@_verifier("commutator_scale", "compact")
def check_commutator_scale(a: Hermitian, x: Hermitian) -> Rows:
    """Positive scale of i[A,X] vs half the product of the two spreads."""
    _same_shape(a, x)
    wc, wa, wx = _eigvalsh(1j * (a @ x - x @ a)), _eigvalsh(a), _eigvalsh(x)
    lhs = _eig_sides(wc)[0]
    rhs = 0.5 * (_eig_spread(wa) * _eig_spread(wx))
    sub = _sub_rows(lhs, rhs, _size(wa) * _size(wx))
    return Rows(sub.holds, sub.margin, (a, x), sub)


@_verifier("commutator_sv", "compact")
def check_commutator_sv(a: Hermitian, x: Hermitian) -> Rows:
    """s([A,X]) vs half the product of the doubled spreads."""
    _same_shape(a, x)
    d = a.shape[-1]
    # s(AX - XA) = s(i[A, X]), and i[A, X] is Hermitian
    wc, wa, wx = _eigvalsh(1j * (a @ x - x @ a)), _eigvalsh(a), _eigvalsh(x)
    lhs = _pad(_herm_sv(wc), 4 * d)
    rhs = 0.5 * (_spr_sum(wa, wa) * _spr_sum(wx, wx))
    sub = _sub_rows(lhs, rhs, _size(wa) * _size(wx))
    return Rows(sub.holds, sub.margin, (a, x), sub)


@_verifier("mixed_commutator", "compact")
def check_mixed_commutator(a: Hermitian, b: Hermitian, x: Matrix) -> Rows:
    """s(AX-XB) vs spread-of-direct-sum times s(X); entrywise form recorded.

    The submajorization is the claim; the entrywise comparison is kept in the
    verdict because it can fail (and does, on the documented fixture).
    """
    m, n = a.shape[-1], b.shape[-1]
    _coupling(x, m, n)
    k = 2 * (m + n)
    lhs_vals = _sv_array(a @ x - x @ b)
    wa, wb, sx = _eigvalsh(a), _eigvalsh(b), _sv_array(x)
    rhs = _spr_sum(wa, wb) * _pad(sx, k)
    mag = _size(wa, wb) * _size(sx)
    sub = _sub_rows(_pad(lhs_vals, k), rhs, mag)
    margins = rhs[:, : lhs_vals.shape[-1]] - lhs_vals
    e_ok, _ = _entrywise(margins, mag)
    return Rows(sub.holds, sub.margin, (a, b, x), sub, (margins, e_ok))


def _herm_parts(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    if c.shape[-2] != c.shape[-1]:
        raise DimMismatch(f"matrix is {c.shape[-2]}x{c.shape[-1]}, not square")
    return (c + _ct(c)) / 2.0, (c - _ct(c)) / 2j


@_verifier("general_commutator", "compact")
def check_general_commutator(a: Matrix, b: Matrix, x: Matrix) -> Rows:
    """s(AX-XB) for non-normal A, B via their Hermitian parts.

    Bound: (spread of the real parts' direct sum plus spread of the
    imaginary parts') times s(X). Also judges the scalar corollary, s(AX-XB)
    weakly below (the sum of the two parts' spectral diameters) times s(X),
    which the bound does not imply: a spread's first entry can exceed the
    diameter.
    """
    a1, a2 = _herm_parts(a)
    b1, b2 = _herm_parts(b)
    m, n = a1.shape[-1], b1.shape[-1]
    _coupling(x, m, n)
    k = 2 * (m + n)
    lhs = _pad(_sv_array(a @ x - x @ b), k)
    w_a1, w_a2, w_b1, w_b2 = _eigvalsh(a1), _eigvalsh(a2), _eigvalsh(b1), _eigvalsh(b2)
    # each part's direct-sum spectrum, non-increasing, merged as _spr_sum merges it
    s1 = _dec(np.concatenate([w_a1, w_b1], axis=-1))
    s2 = _dec(np.concatenate([w_a2, w_b2], axis=-1))
    spread_sum = _eig_spread(s1) + _eig_spread(s2)
    sx = _sv_array(x)
    mag = (_size(w_a1, w_b1) + _size(w_a2, w_b2)) * _size(sx)
    sub = _sub_rows(lhs, spread_sum * _pad(sx, k), mag)
    # the scalar corollary's diameters of those spectra; an empty direct sum has 0
    scalar = np.zeros(len(s1)) if m + n == 0 else s1[:, 0] - s1[:, -1] + s2[:, 0] - s2[:, -1]
    coro = _sub_rows(lhs, scalar[:, None] * _pad(sx, k), mag)
    return Rows(sub.holds & coro.holds, sub.margin, (a, b, x), sub, extras=lambda i: {
        "scalar": float(scalar[i]), "coro_holds": bool(coro.holds[i])})


@_verifier("unitary_conj", "compact")
def check_unitary_conj(a: Hermitian, x: Hermitian) -> Rows:
    """s(A - U*AU) with U = e^{iX}, against the doubled-spread product."""
    _same_shape(a, x)
    d = a.shape[-1]
    wx, vx = _eigh(x)
    u = _unitary_exp(wx, vx)
    wc, wa = _eigvalsh(a - _ct(u) @ a @ u), _eigvalsh(a)
    lhs = _pad(_herm_sv(wc), 4 * d)
    rhs = 0.5 * (_spr_sum(wx, wx) * _spr_sum(wa, wa))
    # ||A|| alone: U = e^{iX} has norm 1 at every scale of X
    sub = _sub_rows(lhs, rhs, _size(wa))
    return Rows(sub.holds, sub.margin, (a, x), sub)


def _projection_sum(s: np.ndarray, c: np.ndarray, *on: np.ndarray) -> np.ndarray:
    """P = C*C + S*S of a splitting, validated as an orthogonal projection,
    with the operators `on` checked to act on its space.

    Only the sum is checked here, as a sum of d products: its defects may
    reach _tol(max|P|, d).
    """
    _same_shape(s, c)
    p = _ct(c) @ c + _ct(s) @ s
    try:
        _as_projections(p, k=p.shape[-1])
    except (NotProjection, NotHermitian) as exc:
        raise NotProjectionSum(f"C*C + S*S is not a projection: {exc}") from exc
    _same_shape(p, *on)
    return p


@_verifier("agm_projection", "compact")
def check_agm_projection(s: Matrix, c: Matrix, e: Hermitian) -> Rows:
    """Doubled s(SEC*) vs the spread of the compressed operator plus a zero block."""
    p = _projection_sum(s, c, e)
    k = 4 * e.shape[-1]
    lhs = 2.0 * _pad(_sv_array(s @ e @ _ct(c)), k)
    rhs = _eig_spread(_eigvalsh(p @ e @ p), k)  # PEP oplus 0
    sub = _sub_rows(lhs, rhs, _size(e))  # S and C are contractions
    return Rows(sub.holds, sub.margin, (s, c, e), sub)


@_verifier("agm_pair", "compact")
def check_agm_pair(s: Positive, c: Positive, e1: Hermitian,
                  e2: Hermitian | None = None) -> Rows:
    """s(S E1 C + C E2 S) for a positive splitting pair C^2 + S^2 = P.

    E2 left out is E1 = E. The arithmetic-geometric-mean corollary
    s(Re(SEC)) weakly below s(E)/2 is then implied by the judged claim, so
    it is not judged again: Spr(PEP oplus -PEP)/2 = s(PEP), and
    s_i(PEP) <= s_i(E) for the contraction P.
    """
    _positive(s, "S")
    _positive(c, "C")
    same = e2 is None
    e2 = e1 if same else e2
    p = _projection_sum(s, c, e1, e2)
    k = 4 * p.shape[-1]
    pair = s @ e1 @ c + c @ e2 @ s
    w1 = _eigvalsh(p @ e1 @ p)
    if same:  # the pair SEC + CES = SEC + (SEC)* is Hermitian
        s_pair, w2 = _herm_sv(_eigvalsh(pair)), w1
    else:
        s_pair, w2 = _sv_array(pair), _eigvalsh(p @ e2 @ p)
    sub = _sub_rows(_pad(s_pair, k), 0.5 * _spr_sum(w1, -w2, k=k), _size(e1, e2))
    return Rows(sub.holds, sub.margin, (s, c, e1, e2), sub)


@_verifier("agm_compact", "compact")
def check_agm_compact(s: Matrix, c: Matrix, e: Hermitian) -> Rows:
    """Doubled s(SEC*) vs the compact-model spread of E itself.

    Also judges the compression monotonicity spread(PEP) <= spread(E)
    entrywise, as the verdict's entrywise form, and records the
    identity-model Frobenius bound ||SEC*||_2 <= ||E||_2 / 2, which is only
    a theorem for positive E and fails on the documented indefinite fixture.
    For positive E the compact spread of E is s(E), so the judged
    submajorization is then that bound in every unitarily invariant norm.
    """
    p = _projection_sum(s, c, e)
    k = 2 * e.shape[-1]
    s_sec = _sv_array(s @ e @ _ct(c))
    w_e, w_pep = _eigvalsh(e), _eigvalsh(p @ e @ p)
    s_e = _herm_sv(w_e)
    mag = _size(w_e)
    rhs = _eig_spread(w_e, k)
    sub = _sub_rows(2.0 * _pad(s_sec, k), rhs, mag)
    margins = rhs - _eig_spread(w_pep, k)
    sub_ok, _ = _entrywise(margins, mag)
    fro_lhs = _schatten_rows(s_sec, 2)
    identity_bound = 0.5 * _schatten_rows(s_e, 2)
    identity_ok = fro_lhs <= identity_bound + _tol(mag)
    e_positive = _positive_gate(w_e)
    return Rows(sub.holds & sub_ok, sub.margin, (s, c, e), sub, (margins, sub_ok), lambda i: {
        "fro": {"lhs": float(fro_lhs[i]), "identity_bound": float(identity_bound[i]),
                "identity_ok": bool(identity_ok[i])},
        "e_positive": bool(e_positive[i]),
    })


@_verifier("agm_general", "compact")
def check_agm_general(a: Matrix, b: Matrix, e: Hermitian) -> Rows:
    """s(AEB*) vs half the spread of F^(1/2) E F^(1/2), F = A*A + B*B.

    Verified in the compact model, where a zero block appended to G changes
    nothing: the spectrum of G oplus 0 is G's plus zeros, which the compact
    spread drops. The entrywise comparison is recorded because it fails on
    the documented 3x3 fixture. For positive E, G = XX* with
    X = F^(1/2) E^(1/2) is positive, so its spread is s(G), the nonzero
    eigenvalues of X*X = E^(1/2) F E^(1/2): the formulation 2 s(AEB*) weakly
    below s(E^(1/2) F E^(1/2)) is the judged claim itself, not another one.

    Neither G nor F is formed: the R factor of the stacked [A; B] = QR has
    R*R = F, so R = W F^(1/2) for a unitary W, and R E R* = W G W* has G's
    eigenvalues. The size is tr F max|E|, tr F = ||A||_F^2 + ||B||_F^2 >= ||F||.
    """
    _same_shape(a, b, e)
    d = e.shape[-1]
    m = np.concatenate([a, b], axis=-2)  # M = [A; B], F = M*M
    mag = _gram_trace(m) * _size(e)  # bounds G and AEB*, and cannot cancel
    r = _qr_r(m)
    g = _as_hermitians(r @ e @ _ct(r), mag, d)
    s_aeb = _sv_array(a @ e @ _ct(b))
    k = 2 * d
    spr_g = _eig_spread(_eigvalsh(g), k)
    sub = _sub_rows(_pad(s_aeb, k), 0.5 * spr_g, mag)
    margins = spr_g[:, :d] - 2.0 * s_aeb
    e_ok, _ = _entrywise(margins, mag)
    return Rows(sub.holds, sub.margin, (a, b, e), sub, (margins, e_ok))


@_verifier("zhan", "compact")
def check_zhan(e: Hermitian, f: Hermitian) -> Rows:
    """s(E - F) vs the compact-model spread of E oplus F."""
    _same_shape(e, f)
    k = 4 * e.shape[-1]
    we, wf, wd = _eigvalsh(e), _eigvalsh(f), _eigvalsh(e - f)
    sub = _sub_rows(_pad(_herm_sv(wd), k), _spr_sum(we, wf, k=k), _size(we, wf))
    return Rows(sub.holds, sub.margin, (e, f), sub)


@_verifier("equiv1", "matrix")
def check_offdiag_projection(e: Hermitian, p: Projection) -> Rows:
    """Doubled corner s-values vs the d-dimensional spread of E.

    This is the bounded-operator form: the spread is taken in the matrix
    model (no zero padding of the spectrum), and the comparison runs over
    the ceil(d/2) entries that model carries. The corner PE(I-P) maps
    range(I-P) into range(P), so rank PE(I-P) <= min(rank P, d - rank P)
    <= floor(d/2); the discarded singular values are asserted to vanish.
    """
    _same_shape(e, p)
    d = e.shape[-1]
    half = math.ceil(d / 2)
    sv = _sv_array(p @ e @ (np.eye(d) - p))
    # rank(PE(I-P)) <= floor(d/2), so the discarded values are rounding noise
    dropped = np.max(sv[:, half:], axis=-1, initial=0.0)
    we = _eigvalsh(e)
    sub = _sub_rows(2.0 * sv[:, :half], _matrix_spread(we), _size(we))
    noise_ok = dropped <= _tol(_size(we), d)
    return Rows(sub.holds & noise_ok, sub.margin, (e, p), sub,
                extras=lambda i: {"dropped_sv": float(dropped[i])})


@_verifier("equiv_compact1", "compact")
def check_offdiag_compact(e: Hermitian, p: Projection) -> Rows:
    """Doubled corner s-values vs the compact-model spread of E."""
    _same_shape(e, p)
    d = e.shape[-1]
    lhs = 2.0 * _pad(_sv_array(p @ e @ (np.eye(d) - p)), 2 * d)
    we = _eigvalsh(e)
    sub = _sub_rows(lhs, _eig_spread(we), _size(we))
    return Rows(sub.holds, sub.margin, (e, p), sub)


@_verifier("equiv5", "compact")
def check_identity_split(s: Matrix, c: Matrix, e: Hermitian) -> Rows:
    """Full splitting C*C + S*S = I: doubled s(SEC*) vs spread of E plus a zero block."""
    p = _projection_sum(s, c, e)
    d = e.shape[-1]
    if np.any(_size(p - np.eye(d)) > _tol(_size(p), d)):
        raise NotProjectionSum("C*C + S*S must equal the identity here")
    k = 4 * d
    lhs = 2.0 * _pad(_sv_array(s @ e @ _ct(c)), k)
    we = _eigvalsh(e)
    sub = _sub_rows(lhs, _eig_spread(we, k), _size(we))  # E oplus 0
    return Rows(sub.holds, sub.margin, (s, c, e), sub)


@_verifier("control_kittaneh", "matrix")
def control_kittaneh_positive(c: Positive, d: Positive, x: Matrix) -> Rows:
    """Entrywise s_i(CX - XD) <= ||X|| s_i(C oplus D) for positive C, D."""
    wc, wd = _positive(c, "C"), _positive(d, "D")
    _coupling(x, c.shape[-1], d.shape[-1])
    lhs = _sv_array(c @ x - x @ d)
    top = _opnorm(x)
    s_cd = _herm_sv(np.concatenate([wc, wd], axis=-1))
    rhs = top[:, None] * s_cd[:, : lhs.shape[-1]]  # ||X|| s(C oplus D)
    margins = rhs - lhs
    ok, low = _entrywise(margins, _size(wc, wd) * top)
    return Rows(ok, low, (c, d, x), entrywise=(margins, ok))


@_verifier("control_bhatia_kittaneh", "matrix")
def control_bhatia_kittaneh(a: Matrix, b: Matrix) -> Rows:
    """Entrywise 2 s_i(AB*) <= s_i(A*A + B*B)."""
    _same_shape(a, b)
    lhs = 2.0 * _sv_array(a @ _ct(b))
    s_f = _herm_sv(_eigvalsh(_ct(a) @ a + _ct(b) @ b))
    margins = s_f[:, : lhs.shape[-1]] - lhs
    ok, low = _entrywise(margins, _size(s_f))  # a sum of positives cannot cancel
    return Rows(ok, low, (a, b), entrywise=(margins, ok))


@_verifier("control_strict_gap", "compact")
def control_strict_gap(e: Hermitian) -> Rows:
    """Strict Frobenius gap ||E||_2 < g_2(spread(E)) for indefinite E."""
    w = _eigvalsh(e)
    edge = _tol(_size(w))
    if not (w.shape[-1] and np.all((w[:, 0] > edge) & (w[:, -1] < -edge))):
        raise NotPositive("an indefinite operator (both signs present) is required")
    fro = _schatten_rows(_herm_sv(w), 2)
    g2 = _schatten_rows(_eig_spread(w), 2)
    margin = g2 - fro
    return Rows(margin > _tol(fro), margin, (e,), extras=lambda i: {
        "fro": float(fro[i]), "g2_spread": float(g2[i]), "margin": float(margin[i])})
