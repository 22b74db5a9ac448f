"""Eigen/singular-value plumbing against closed-form and char-poly oracles."""

import math

import numpy as np
import pytest

from sspread import (
    NoConvergence,
    NotHermitian,
    NotPositive,
    NotProjection,
    as_hermitian,
    as_projection,
    compress,
    direct_sum,
    eigh,
    offdiag_embed,
    opnorm,
    sv_array,
    svd_values,
)
from sspread import harness, linalg
from sspread.harness import _crandn, _hermitian, _projection, _unitary
from sspread.rng import Stream


def _herm(d, seed, scale=1.0):
    return _hermitian(Stream(seed), d, scale)


def _gen(d, seed):
    return _crandn(Stream(seed), d, d)


def test_eigh_identity():
    w, v = eigh(np.eye(3))
    assert np.allclose(w, [1.0, 1.0, 1.0], atol=1e-14)
    assert np.allclose(v.conj().T @ v, np.eye(3), atol=1e-14)


def test_eigh_two_by_two_exact():
    # [[1,2],[2,1]] has eigenvalues 3 and -1
    w, _ = eigh([[1.0, 2.0], [2.0, 1.0]])
    assert np.allclose(w, [3.0, -1.0], atol=1e-12)


def test_eigh_matches_characteristic_polynomial():
    # independent oracle: roots of det(tI - A) via the companion matrix
    a = np.array(
        [
            [2.0, 1.0 + 1.0j, 0.5j],
            [1.0 - 1.0j, -1.0, 2.0 - 0.5j],
            [-0.5j, 2.0 + 0.5j, 0.5],
        ]
    )
    tr = float(np.trace(a).real)
    minors = 0.0
    for i in range(3):
        idx = [j for j in range(3) if j != i]
        sub = a[np.ix_(idx, idx)]
        minors += float(np.linalg.det(sub).real)
    det = float(np.linalg.det(a).real)
    roots = np.sort(np.roots([1.0, -tr, minors, -det]).real)[::-1]
    w, v = eigh(a)
    assert np.allclose(w, roots, atol=1e-9)
    assert np.allclose(v @ np.diag(w) @ v.conj().T, a, atol=1e-10)


def test_eigh_descending_and_orthonormal():
    for seed in range(5):
        a = _herm(6, seed, scale=3.0)
        w, v = eigh(a)
        assert np.all(np.diff(w) <= 1e-12)
        assert np.allclose(v.conj().T @ v, np.eye(6), atol=1e-12)
        assert np.allclose(v @ np.diag(w) @ v.conj().T, a, atol=1e-10)


def test_eigh_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        eigh([[1.0, 2.0], [3.0, 4.0]])


@pytest.mark.parametrize("d", [*range(2, 9), *range(32, 65, 8)])
def test_eigvalsh_matches_eigh_values(d):
    # the values-only driver may differ from eigh in the last digits only
    for seed in range(3):
        a = _herm(d, 100 * d + seed, scale=10.0 ** (seed - 1))
        w = linalg._eigvalsh(a)
        ref = linalg._eigh(a).values
        assert w.shape == (d,) and np.all(np.diff(w) <= 0.0)
        tol = 32 * np.finfo(float).eps * float(np.max(np.abs(ref)))
        assert float(np.max(np.abs(w - ref))) <= tol


@pytest.mark.parametrize("d", [*range(2, 9), *range(32, 65)])
def test_herm_sv_matches_sv_array(d):
    # a Hermitian operand's singular values as |eigenvalues| from the
    # values-only eigensolver agree with the SVD to 32 ulps of s_1 at every
    # scale, the accuracy sv_array promises (not sqrt(eps) * s_1): on
    # Hermitian stacks, on computed commutators [H, X] (skew-Hermitian up to
    # rounding) through i[H, X], and on Gram sums A*A + B*B
    stream = Stream(np.arange(3, dtype=np.uint64) + 1000 * d)
    g, a, b = (harness._crandn(stream, d, d) for _ in range(3))
    x = harness._hermitian(stream, d)
    for scale in (1e-6, 1.0, 1e6):
        herm = scale * (g + linalg._ct(g)) / 2.0
        skew = herm @ x - x @ herm
        gram = linalg._ct(scale * a) @ (scale * a) + linalg._ct(scale * b) @ (scale * b)
        for m, h in ((herm, herm), (skew, 1j * skew), (gram, gram)):
            got = linalg._herm_sv(linalg._eigvalsh(h))
            ref = linalg._sv_array(m)
            assert got.shape == ref.shape == (3, d)
            assert np.all(np.diff(got, axis=-1) <= 0.0)
            tol = 32 * np.finfo(float).eps * ref[:, :1]
            assert np.all(np.abs(got - ref) <= tol), scale


@pytest.mark.parametrize("d", [*range(2, 9), *range(32, 65)])
def test_stacked_calls_match_single_calls_bit_for_bit(d):
    # the batched verifiers rest on this premise: numpy runs LAPACK and
    # matmul once per member of a stack, so a member's bits do not depend on
    # the stack around it (a numpy or BLAS change that breaks it fails here)
    herm = np.stack([_herm(d, 1000 * d + i, scale=2.0 ** i) for i in range(5)])
    gen = np.stack([_gen(d, 2000 * d + i) for i in range(5)])
    rect = gen[:, :, : d - 1]
    w = linalg._eigvalsh(herm)
    w_v, v = linalg._eigh(herm)
    s, s_rect = linalg._sv_array(gen), linalg._sv_array(rect)
    # the generators' forms: a diagonal of reals between unitaries or
    # general matrices, from a stacked QR
    q, r = np.linalg.qr(gen)
    x = np.cos(np.arange(5 * d).reshape(5, d)) * (np.arange(d) < d // 2 + 1)
    dx = linalg._diag(x)
    products = {
        "A @ H": (gen @ herm, lambda i: gen[i] @ herm[i]),
        "A* @ A": (linalg._ct(gen) @ gen, lambda i: gen[i].conj().T @ gen[i]),
        "A @ H @ A*": (gen @ herm @ linalg._ct(gen), lambda i: gen[i] @ herm[i] @ gen[i].conj().T),
        "rect* @ rect": (linalg._ct(rect) @ rect, lambda i: rect[i].conj().T @ rect[i]),
        "Q @ diag(x) @ Q*": (q @ dx @ linalg._ct(q), lambda i: q[i] @ np.diag(x[i]) @ q[i].conj().T),
        "Q @ diag(x) @ A": (q @ dx @ gen, lambda i: q[i] @ np.diag(x[i]) @ gen[i]),
        "Q @ diag(x) @ Q*, x shared": (q @ linalg._diag(x[0]) @ linalg._ct(q),
                                       lambda i: q[i] @ np.diag(x[0]) @ q[i].conj().T),
        # a real diagonal as a column scaling gives the matmul's bits
        "(Q * x) @ Q*": ((q * x[:, None, :]) @ linalg._ct(q),
                         lambda i: q[i] @ np.diag(x[i]) @ q[i].conj().T),
        "(Q * x) @ A": ((q * x[:, None, :]) @ gen, lambda i: q[i] @ np.diag(x[i]) @ gen[i]),
    }
    for i in range(5):
        qi, ri = np.linalg.qr(gen[i])
        assert np.array_equal(q[i], qi) and np.array_equal(r[i], ri)
        assert np.array_equal(w[i], linalg._eigvalsh(herm[i]))
        one = linalg._eigh(herm[i])
        assert np.array_equal(w_v[i], one.values) and np.array_equal(v[i], one.vectors)
        assert np.array_equal(s[i], linalg._sv_array(gen[i]))
        assert np.array_equal(s_rect[i], linalg._sv_array(rect[i]))
        for name, (stacked, single) in products.items():
            assert np.array_equal(stacked[i], single(i)), name


@pytest.mark.parametrize("entry, message", [("_eigvalsh", "Eigenvalues did not converge"),
                                            ("_eigh", "Eigenvalues did not converge"),
                                            ("_sv_array", "SVD did not converge")])
def test_nan_member_raises_no_convergence(entry, message):
    # LAPACK fails on the NaN member; the message is numpy.linalg's own
    m = np.stack([np.eye(3, dtype=complex), np.full((3, 3), np.nan, dtype=complex)])
    with pytest.raises(NoConvergence, match=f"^{message}$"):
        getattr(linalg, entry)(m)


def test_sv_two_by_two_closed_form():
    # s_{+-}^2 = (T +- sqrt(T^2 - 4D)) / 2 with T = |X|_F^2, D = |det X|^2
    for seed in range(8):
        x = _gen(2, seed)
        t = float(np.sum(np.abs(x) ** 2))
        d = abs(np.linalg.det(x)) ** 2
        disc = math.sqrt(max(t * t - 4.0 * d, 0.0))
        expected = [math.sqrt((t + disc) / 2.0), math.sqrt(max((t - disc) / 2.0, 0.0))]
        assert np.allclose(sv_array(x), expected, atol=1e-10)


def test_sv_rectangular_and_zero():
    x = np.array([[3.0, 0.0, 0.0], [0.0, 4.0, 0.0]])
    assert np.allclose(sv_array(x), [4.0, 3.0], atol=1e-12)
    assert np.allclose(sv_array(np.zeros((2, 2))), [0.0, 0.0], atol=0.0)


def test_sv_rank_deficient_matches_svd_to_machine_precision():
    # rank 2 in 5x4: the square-root-of-X*X path would leave the zero
    # singular values at sqrt(eps) scale instead of near 1e-16
    for seed in range(6):
        g = _gen(5, seed)
        x = g[:, :2] @ g[:2, :4]
        s = sv_array(x)
        ref = np.linalg.svd(x, compute_uv=False)
        assert s.shape == (4,)
        assert float(np.max(np.abs(s - ref))) <= 1e-14
        assert float(np.max(s[2:])) <= 1e-14


def test_svd_values_padding_and_horizon():
    x = np.diag([2.0, 1.0])
    seq = svd_values(x, horizon=5)
    assert np.allclose(seq.values, [2.0, 1.0, 0.0, 0.0, 0.0], atol=1e-12)
    assert seq.tail == 0.0 and seq.mode == "compact"
    with pytest.raises(ValueError):
        svd_values(x, horizon=1)


def test_opnorm_of_unitary_is_one():
    u = _unitary(Stream(11), 5)
    assert abs(opnorm(u) - 1.0) < 1e-10


def test_offdiag_embed_eigs_are_signed_singular_values():
    for seed in range(5):
        b = _gen(3, seed)
        s = sv_array(b)
        w, _ = eigh(offdiag_embed(b))
        assert np.allclose(w[:3], s, atol=1e-10)
        assert np.allclose(w[3:], -s[::-1], atol=1e-10)


def test_offdiag_embed_rectangular():
    b = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
    w, _ = eigh(offdiag_embed(b))
    assert np.allclose(w, [2.0, 1.0, 0.0, -1.0, -2.0], atol=1e-12)


def test_direct_sum_blocks():
    out = direct_sum(np.eye(2), -3.0 * np.eye(1))
    assert out.shape == (3, 3)
    w, _ = eigh(out)
    assert np.allclose(w, [1.0, 1.0, -3.0], atol=1e-14)


def _unitary_exp(x):
    return linalg._unitary_exp(*linalg._eigh(x))


def test_unitary_exp_diagonal_phases():
    theta = np.array([0.3, -1.2, 2.5])
    u = _unitary_exp(np.diag(theta))
    assert np.allclose(np.diag(u), np.exp(1j * theta), atol=1e-12)
    assert np.allclose(_unitary_exp(np.zeros((3, 3))), np.eye(3), atol=1e-14)


def test_unitary_exp_is_unitary():
    x = _herm(5, 23, scale=2.0)
    u = _unitary_exp(x)
    assert np.allclose(u.conj().T @ u, np.eye(5), atol=1e-10)


def test_unitary_exp_gate_at_the_one_tolerance():
    # a basis that is orthonormal only to ~1e-11 gives a U whose max|U*U - I|
    # is far above _tol(1, 2) = 2e-12; the Frobenius gate at 1e-10 let it by
    w = np.array([0.7, -0.4])
    v = np.eye(2, dtype=complex)
    v[1, 0] = 1e-11
    u = v @ np.diag(np.exp(1j * w)) @ v.conj().T
    assert 1e-11 < np.abs(u.conj().T @ u - np.eye(2)).max() < 1e-10
    with pytest.raises(NoConvergence, match="unitarity"):
        linalg._unitary_exp(w[None], v[None])
    assert linalg._unitary_exp(w[None], np.eye(2)[None]).shape == (1, 2, 2)


def test_as_projection_accepts_and_rejects():
    p = _projection(Stream(5), 4)
    q = as_projection(p)
    assert np.allclose(q @ q, q, atol=1e-9)
    with pytest.raises(NotProjection):
        as_projection(np.diag([1.0, 0.5]))


def test_a_nan_idempotency_defect_fails_the_gate():
    # P P overflows to inf, so P P - P holds inf - inf = NaN, which no
    # comparison with the limit passes
    big = 1e200 * _projection(Stream(3), 4, rank=2)
    with np.errstate(all="ignore"):
        with pytest.raises(NotProjection, match="idempotency defect nan exceeds "):
            as_projection(big)
        with pytest.raises(NotProjection, match="idempotency defect nan exceeds "):
            linalg._as_projections(np.stack([_projection(Stream(3), 4, rank=2), big]))


def test_empty_matrix_is_a_projection_as_it_is_hermitian():
    # a 0x0 matrix has no entry, so no defect: both gates accept it alike
    for gate in (as_hermitian, as_projection):
        assert gate(np.zeros((0, 0))).shape == (0, 0)


def test_compress_interlaces():
    # Cauchy interlacing: lambda_{j+d-r}(A) <= lambda_j(A_P) <= lambda_j(A)
    for seed in range(6):
        a = _herm(6, 100 + seed, scale=2.0)
        p = _projection(Stream(200 + seed), 6)
        comp = compress(a, p)
        r = comp.compressed.shape[0]
        wa = eigh(a).values
        wc = eigh(comp.compressed).values
        for j in range(r):
            assert wc[j] <= wa[j] + 1e-10
            assert wc[j] >= wa[j + 6 - r] - 1e-10
        # PAP carries the same nonzero spectrum padded with zeros
        wp = eigh(comp.pap).values
        padded = np.sort(np.concatenate([wc, np.zeros(6 - r)]))[::-1]
        assert np.allclose(wp, padded, atol=1e-10)


def test_as_hermitian_symmetrizes_roundoff():
    a = np.array([[1.0, 2.0 + 1e-13], [2.0, 1.0]])
    h = as_hermitian(a)
    assert np.allclose(h, h.conj().T, atol=0.0)


def test_not_positive_importable():
    assert issubclass(NotPositive, Exception)
