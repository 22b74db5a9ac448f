"""Inequality verifiers: equality cases, hand oracles, documented failures."""

import inspect
import math
import sys

import numpy as np
import pytest

from sspread import (
    DimMismatch,
    NotHermitian,
    NotPositive,
    NotProjectionSum,
    compact_scale,
    direct_sum,
    offdiag_embed,
    spread_plus,
)
from sspread import ineq, linalg
from sspread import eigh as linalg_eigh
from sspread import sv_array as linalg_sv
from sspread.examples import fixture_matrices
from sspread.harness import (
    VERIFIERS, _crandn, _hermitian, _partition, _positive, _projection, trial_args,
)
from sspread.rng import Stream


def _herm(d, seed, scale=1.0):
    return _hermitian(Stream(seed), d, scale)


def _pos(d, seed):
    return _positive(Stream(seed), d)


def _gen(d, seed):
    return _crandn(Stream(seed), d, d)


# -- tao_positive ------------------------------------------------------------

def test_tao_positive_equality_case():
    v = ineq.check_tao_positive([[1.0, 1.0], [1.0, 1.0]], split=1)
    assert v.holds
    assert v.entrywise_margins[0] == pytest.approx(0.0, abs=1e-12)


def test_tao_positive_random_psd():
    for seed in range(5):
        v = ineq.check_tao_positive(_pos(5, seed), split=2)
        assert v.holds


def test_tao_positive_rejects_indefinite():
    with pytest.raises(NotPositive, match=r"^F has eigenvalue -1\.000e\+00$"):
        ineq.check_tao_positive(np.diag([1.0, -1.0]))


def test_positive_gate():
    gate = ineq._positive_gate
    assert gate(linalg._eigvalsh(_pos(4, 3)[None])).tolist() == [True]
    assert gate(np.empty((1, 0))).tolist() == [True]
    # the gate is relative, per row: -_tol(max|w|) still passes
    edge = linalg._tol(100.0)
    assert gate(np.array([[100.0, -edge], [100.0, -0.9 * edge],
                          [100.0, -2.0 * edge]])).tolist() == [True, True, False]
    # below unit scale the edge stays relative, with no absolute floor
    small = linalg._tol(0.5)
    assert gate(np.array([[0.5, -0.9 * small], [0.5, -2.0 * small],
                          1e-12 * np.array([0.5, -1e-3])])).tolist() == [True, False, False]
    # a message names the first failing row's smallest eigenvalue
    with pytest.raises(NotPositive, match=r"^root \(-2\.000e-08\)$"):
        gate(np.array([[1.0, 0.0], [100.0, -2e-8], [1.0, -1.0]]), "root ({:.3e})")
    # the same edge reached through a verifier's values-only spectrum
    assert ineq.check_tao_positive(np.diag([100.0, -0.9 * edge])).holds
    with pytest.raises(NotPositive, match=r"^F has eigenvalue -2\.000e-08$"):
        ineq.check_tao_positive(np.diag([100.0, -2e-8]))


def _members(m):
    """The matrices of a stack (..., rows, cols), each copied; one for a 2-d m."""
    m = np.asarray(m)
    return [np.array(x, copy=True) for x in m.reshape(-1, *m.shape[-2:])]


def _count_eigh(monkeypatch):
    """Record every Hermitian decomposition, values-only or with vectors.

    Returns (all_calls, vector_calls): lists of the matrices decomposed, one
    entry per member of a decomposed stack.
    """
    calls, vector_calls = [], []
    real_eigh, real_eigvalsh = linalg._eigh, linalg._eigvalsh

    def eigh(m):
        calls.extend(_members(m))
        vector_calls.extend(_members(m))
        return real_eigh(m)

    def eigvalsh(m):
        calls.extend(_members(m))
        return real_eigvalsh(m)

    for mod in (linalg, ineq):
        monkeypatch.setattr(mod, "_eigh", eigh)
        monkeypatch.setattr(mod, "_eigvalsh", eigvalsh)
    return calls, vector_calls


def test_positive_gate_one_eigh_per_matrix(monkeypatch):
    # each gated matrix is decomposed once, values-only where the vectors
    # are not used
    seen, with_vectors = _count_eigh(monkeypatch)

    def count(m, calls):
        return sum(np.array_equal(x, m) for x in calls)

    f = _pos(4, 5)
    ineq.check_tao_positive(f, split=2)
    assert (count(f, seen), count(f, with_vectors)) == (1, 0)
    c, s, _ = _splitting(4, 9, positive=True)
    ineq.check_agm_pair(s, c, _herm(4, 10))
    assert [(count(m, seen), count(m, with_vectors)) for m in (s, c)] == [(1, 0)] * 2
    p, q = _pos(3, 12), _pos(2, 13)
    ineq.control_kittaneh_positive(p, q, _gen(3, 14)[:, :2])
    assert [(count(m, seen), count(m, with_vectors)) for m in (p, q)] == [(1, 0)] * 2
    # agm_general decomposes E once, values only, whether E is positive or
    # not: the one square root it takes is F's
    for e in (_pos(3, 6), _herm(3, 6)):
        v = ineq.check_agm_general(_gen(3, 7), _gen(3, 8), e)
        assert v.holds and v.extras == {}
        assert (count(e, seen), count(e, with_vectors)) == (1, 0)


@pytest.mark.parametrize("d", [*range(2, 9), *range(32, 65, 8)])
def test_direct_sum_spread_from_block_spectra(d):
    # the merged block spectra give the spread of the explicit block matrix
    a, b = _herm(d, d), _herm(d, d + 100)
    wa, wb = linalg_eigh(a).values, linalg_eigh(b).values
    cases = (
        (a, b, ineq._spr_sum(wa, wb)),
        (a, a, ineq._spr_sum(wa, wa)),
        (a, -a, ineq._spr_sum(wa, -wa)),
        (a, np.zeros((d, d)), ineq._spr_sum(wa, k=4 * d)),
    )
    for x, y, got in cases:
        ref = spread_plus(compact_scale(direct_sum(x, y)))
        assert len(got) == len(ref) == 4 * d
        tol = 32 * np.finfo(float).eps * max(linalg_sv(x)[0], linalg_sv(y)[0])
        assert float(np.max(np.abs(got - ref.values))) <= tol


def test_one_decomposition_per_matrix_and_no_block_matrix(monkeypatch):
    # every verifier decomposes each matrix at most once per kind (Hermitian
    # eigenvalues with or without vectors, SVD), none decomposes a matrix
    # larger than its largest input, and eigenvectors are computed only for
    # e^{iX} (unitary_conj) and the square root of F (agm_general), whether
    # E is positive or not
    eighs, with_vectors = _count_eigh(monkeypatch)
    seen = {"eigh": eighs, "svd": []}
    real_sv = linalg._sv_array

    def sv_array(m):
        seen["svd"].extend(_members(m))
        return real_sv(m)

    for mod in (linalg, ineq):
        monkeypatch.setattr(mod, "_sv_array", sv_array)
    runs = {}
    for entry in VERIFIERS.values():
        runs.setdefault(entry.check, [trial_args(entry.id, 11, (6, 6))])
    assert len(runs) == 19
    # both branches of agm_pair (E2 given or not), and a positive and an
    # indefinite E for agm_compact and agm_general; E2 is a generic
    # Hermitian: S and C commute, so with E2 = E1 + I the pair would be
    # exactly Hermitian
    s, c, e1, _ = runs["check_agm_pair"][0]
    e2 = _herm(6, 5)
    runs["check_agm_pair"] += [(s, c, e1, None), (s, c, e1, e2)]
    s, c, _ = runs["check_agm_compact"][0]
    runs["check_agm_compact"] += [(s, c, _pos(6, 1)), (s, c, _herm(6, 2))]
    a, b, _ = runs["check_agm_general"][0]
    runs["check_agm_general"] += [(a, b, _pos(6, 3)), (a, b, _herm(6, 4))]
    positive_e = []
    e2_svd = False
    for name, arg_sets in runs.items():
        for args in arg_sets:
            if name == "check_unitary_conj":
                expected = [args[1]]
            elif name == "check_agm_general":
                a, b, e = args
                expected = [a.conj().T @ a + b.conj().T @ b]
                positive_e.append(bool(ineq._positive_gate(np.linalg.eigvalsh(e)[None, ::-1])[0]))
            else:
                expected = []
            start = {kind: len(calls) for kind, calls in seen.items()}
            start_vectors = len(with_vectors)
            getattr(ineq, name)(*args)
            largest = max(max(np.shape(m)) for m in args if isinstance(m, np.ndarray))
            for kind, calls in seen.items():
                mats = calls[start[kind]:]
                too_large = sum(max(m.shape) > largest for m in mats)
                repeats = len(mats) - len({(m.shape, m.tobytes()) for m in mats})
                assert (too_large, repeats) == (0, 0), (name, kind)
            got = with_vectors[start_vectors:]
            assert len(got) == len(expected), name
            assert all(np.array_equal(g, x) for g, x in zip(got, expected)), name
            if name == "check_agm_pair" and args[3] is e2:
                # the E2-given branch takes the pair's singular values by SVD
                sa, ca, ea, _ = args
                pair = sa @ ea @ ca + ca @ e2 @ sa
                assert any(np.allclose(m, pair, rtol=0, atol=1e-13)
                           for m in seen["svd"][start["svd"]:])
                e2_svd = True
    assert seen["eigh"] and seen["svd"]
    assert e2_svd
    # agm_general ran with both a positive and a non-positive E
    assert True in positive_e and False in positive_e


def test_no_svd_of_a_hermitian_operand(monkeypatch):
    # a Hermitian operand's singular values are |eigenvalues| from the
    # values-only eigensolver, and s(iH) = s(H): no call site hands the SVD
    # matrices that are all Hermitian, or all i times Hermitian, at
    # _tol(max|entry|). A site is judged over every operand it is handed,
    # because one instance can be Hermitian by accident: with a rank-1
    # splitting (S, C sharing their left singular vector) SEC* is a real
    # multiple of vv*
    handed = {}
    real_sv = linalg._sv_array

    def sv_array(m):
        caller = sys._getframe(1)
        site = (caller.f_code.co_filename, caller.f_lineno)
        handed.setdefault(site, []).extend(_members(m))
        return real_sv(m)

    for mod in (linalg, ineq):
        monkeypatch.setattr(mod, "_sv_array", sv_array)
    runs = [(entry.check, trial_args(entry.id, seed, (2, 8)))
            for entry in VERIFIERS.values() for seed in range(5)]
    # both branches of agm_pair (E2 given or not), and a positive and an
    # indefinite E for agm_compact and agm_general
    s, c, e1, _ = trial_args("agm_pair", 11, (6, 6))
    runs += [("check_agm_pair", (s, c, e1, None)), ("check_agm_pair", (s, c, e1, _herm(6, 5)))]
    s, c, _ = trial_args("agm_compact", 11, (6, 6))
    runs += [("check_agm_compact", (s, c, _pos(6, 1))), ("check_agm_compact", (s, c, _herm(6, 2)))]
    a, b, _ = trial_args("agm_general", 11, (6, 6))
    runs += [("check_agm_general", (a, b, _pos(6, 3))), ("check_agm_general", (a, b, _herm(6, 4)))]
    for name, args in runs:
        getattr(ineq, name)(*args)
    assert handed

    def symmetric(m, sign):  # m = sign * m*, at the operand's own scale
        return (m.shape[0] == m.shape[1]
                and np.max(np.abs(m - sign * m.conj().T)) <= linalg._tol(np.max(np.abs(m))))

    for site, mats in handed.items():
        for sign in (1, -1):
            assert not all(symmetric(m, sign) for m in mats), (site, sign, len(mats))


def test_tao_positive_bad_split():
    with pytest.raises(DimMismatch):
        ineq.check_tao_positive(np.eye(3), split=3)


# -- key ---------------------------------------------------------------------

def test_key_equality_on_offdiag_embedding():
    # A = [[0, B], [B*, 0]] with B = diag(3, 1): spread (6, 2, 0, ...) and
    # 2 s(B) = (6, 2): the bound is attained at k = 1 and 2
    a = offdiag_embed(np.diag([3.0, 1.0]))
    v = ineq.check_key(a, split=2)
    assert v.holds
    assert v.report.margins_upper[0] == pytest.approx(0.0, abs=1e-10)
    assert v.report.margins_upper[1] == pytest.approx(0.0, abs=1e-10)


def test_key_random():
    for seed in range(5):
        assert ineq.check_key(_herm(6, seed, scale=2.0)).holds


def test_key_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        ineq.check_key([[0.0, 1.0], [2.0, 0.0]])


# -- trace_pairing -----------------------------------------------------------

def test_trace_pairing_commuting_equality():
    v = ineq.check_trace_pairing(np.diag([3.0, -2.0]), np.diag([5.0, -4.0]))
    assert v.holds
    assert v.extras["lhs"] == pytest.approx(23.0)
    assert v.extras["rhs"] == pytest.approx(23.0)
    assert v.extras["margin"] == pytest.approx(0.0, abs=1e-12)
    assert v.extras["rank_a"] == 2


def test_trace_pairing_hand_case():
    v = ineq.check_trace_pairing(np.diag([2.0, -1.0]), np.eye(2))
    assert v.extras["lhs"] == pytest.approx(1.0)
    assert v.extras["rhs"] == pytest.approx(2.0)
    assert v.holds


def test_trace_pairing_rank_counts_nonzero_eigs():
    v = ineq.check_trace_pairing(np.diag([1.0, 0.0, -2.0]), np.eye(3))
    assert v.extras["rank_a"] == 2


def test_trace_pairing_random():
    for seed in range(8):
        v = ineq.check_trace_pairing(_herm(4, seed), _herm(4, 100 + seed))
        assert v.holds


def test_trace_pairing_dim_mismatch():
    with pytest.raises(DimMismatch):
        ineq.check_trace_pairing(np.eye(2), np.eye(3))


# -- commutators -------------------------------------------------------------

A_FLIP = np.diag([1.0, -1.0])
X_SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])


def test_commutator_scale_equality_case():
    v = ineq.check_commutator_scale(A_FLIP, X_SWAP)
    assert v.holds
    assert v.report.margins_upper[0] == pytest.approx(0.0, abs=1e-10)


def test_commutator_sv_equality_case():
    # both spreads double under A -> A oplus A, and s([A,X]) = (2, 2) meets
    # the bound in every partial sum, so in every unitarily invariant norm
    v = ineq.check_commutator_sv(A_FLIP, X_SWAP)
    assert v.holds
    assert np.allclose(v.report.margins_upper, 0.0, atol=1e-10)
    assert v.extras == {}


def test_commutator_random():
    for seed in range(5):
        a, x = _herm(4, seed), _herm(4, 50 + seed)
        assert ineq.check_commutator_scale(a, x).holds
        assert ineq.check_commutator_sv(a, x).holds


def test_mixed_commutator_rectangular():
    a = np.array([[2.0]])
    b = np.diag([1.0, -1.0])
    x = np.array([[1.0, 1.0]])
    v = ineq.check_mixed_commutator(a, b, x)
    assert v.holds
    assert v.entrywise_margins is not None
    with pytest.raises(DimMismatch):
        ineq.check_mixed_commutator(a, b, x.T)


def test_mixed_commutator_fixture_dual_verdict():
    m = fixture_matrices("kittaneh-fail")
    v = ineq.check_mixed_commutator(m["A"], m["B"], m["X"])
    assert v.holds  # the submajorization form survives
    assert not v.entrywise_holds  # the entrywise form does not
    assert float(np.min(v.entrywise_margins)) == pytest.approx(-1.0, abs=1e-9)


def test_general_commutator_scalar_bound():
    a = np.array([[1.0 + 1.0j]])
    b = np.array([[0.0]])
    x = np.array([[1.0]])
    v = ineq.check_general_commutator(a, b, x)
    assert v.holds
    assert v.extras["scalar"] == pytest.approx(2.0)
    assert v.extras["coro_holds"]
    # s(AX - XB) = |1 + i| against a bound of 2 from either claim
    assert v.report.margins_upper[0] == pytest.approx(2.0 - math.sqrt(2.0))


def test_general_commutator_reduces_to_hermitian_case():
    a, b, x = _herm(3, 7), _herm(3, 8), _gen(3, 9)
    v = ineq.check_general_commutator(a, b, x)
    assert v.holds
    assert v.extras["coro_holds"]


def test_general_commutator_non_normal():
    for seed in range(5):
        v = ineq.check_general_commutator(_gen(3, seed), _gen(3, 40 + seed), _gen(3, 80 + seed))
        assert v.holds


def test_general_commutator_corollary_sums_no_squares():
    # at 2^256 a Frobenius norm of the corollary's sides would square values
    # near 1e154 to inf; the corollary is judged as a submajorization instead
    args = trial_args("general_commutator", 3, (4, 4))
    v = ineq.check_general_commutator(*[2.0**256 * m for m in args])
    assert v.holds
    assert v.extras["coro_holds"]


def test_every_verifier_takes_empty_operands():
    # 0x0 operands, and an X from a 2- to a 0-dimensional space, give a
    # Verdict or a SpreadError, never a bare numpy error
    from sspread import SpreadError, Verdict

    empty, b = np.zeros((0, 0)), np.diag([1.0, 2.0])
    for entry in VERIFIERS.values():
        check = getattr(ineq, entry.check)
        params = ineq._matrix_params(inspect.signature(check))
        cases = [[empty] * len(params)]
        if [p.name for p in params] in (["a", "b", "x"], ["c", "d", "x"]):
            cases.append([empty, b, np.zeros((0, 2))])
        for args in cases:
            try:
                v = check(*args)
            except SpreadError:
                continue
            assert isinstance(v, Verdict), entry.id
    # the scalar corollary's diameters: 0 for an empty direct sum, and
    # max - min of B's spectrum when A is empty
    assert ineq.check_general_commutator(empty, empty, empty).extras["scalar"] == 0.0
    assert ineq.check_general_commutator(empty, b, np.zeros((0, 2))).extras["scalar"] == 1.0


def test_unitary_conj_zero_generator():
    a = _herm(4, 3)
    v = ineq.check_unitary_conj(a, np.zeros((4, 4)))
    assert v.holds
    assert float(np.min(v.report.margins_upper)) >= 0.0


def test_unitary_conj_random():
    for seed in range(5):
        assert ineq.check_unitary_conj(_herm(4, seed), _herm(4, 60 + seed)).holds


# -- range factorization -----------------------------------------------------

def test_douglas_agm_factor():
    # A*A <= F^2 = A*A + B*B puts range(A*) inside range(F), so A* = F W
    a, b = _gen(3, 11), _gen(3, 12)
    f2 = a.conj().T @ a + b.conj().T @ b
    wf, vf = linalg._eigh(f2)
    ineq._positive_gate(wf[None], "F^2 has eigenvalue {:.3e}")
    froot = ineq._psd_root(wf, vf)
    # the least-norm solution of F W = A*, the quotient Douglas's lemma names
    w = np.linalg.lstsq(froot, a.conj().T, rcond=None)[0]
    assert np.allclose(froot @ w, a.conj().T, atol=1e-8)
    assert np.max(linalg_sv(w)) <= 1.0 + 1e-8  # the quotient is a contraction


# -- arithmetic-geometric-mean family ----------------------------------------

def _splitting(d, seed, positive=False):
    c, s, p = _partition(Stream(seed), d, positive=positive)
    return c, s, p


def test_agm_projection_random():
    for seed in range(5):
        c, s, p = _splitting(4, seed)
        e = _herm(4, 300 + seed)
        v = ineq.check_agm_projection(s, c, e)
        assert v.holds


def test_agm_projection_rejects_non_splitting():
    e = _herm(2, 1)
    half = np.eye(2) / 2.0
    with pytest.raises(NotProjectionSum):
        ineq.check_agm_projection(half, half, e)


def test_agm_pair_same_operator_extras():
    c, s, _ = _splitting(3, 21, positive=True)
    e = _herm(3, 22)
    v = ineq.check_agm_pair(s, c, e)
    assert v.holds
    # the AGM corollary is implied by the judged claim, so it is not recorded
    assert v.extras == {}


def test_agm_pair_near_the_largest_float():
    # 2 s(E) overflows at this scale; the verdict judges the pair only, and
    # compares no difference of infinities
    s, c, e, e2 = trial_args("agm_pair", 1, (3, 3))
    assert e2 is None
    with np.errstate(over="ignore"):
        v = ineq.check_agm_pair(s, c, 6e307 * e)
    assert v.holds
    assert v.extras == {}


def test_agm_pair_two_operators():
    c, s, _ = _splitting(3, 31, positive=True)
    v = ineq.check_agm_pair(s, c, _herm(3, 32), _herm(3, 33))
    assert v.holds
    assert v.extras == {}


def test_agm_pair_requires_positive_halves():
    with pytest.raises(NotPositive, match=r"^S has eigenvalue -1\.000e\+00$"):
        ineq.check_agm_pair(-np.eye(2), np.zeros((2, 2)), np.eye(2))
    with pytest.raises(NotPositive, match=r"^C has eigenvalue -2\.000e\+00$"):
        ineq.check_agm_pair(np.zeros((2, 2)), -2.0 * np.eye(2), np.eye(2))


def test_agm_compact_fixture_dual_verdict():
    m = fixture_matrices("agm-fail-2x2")
    v = ineq.check_agm_compact(m["S"], m["C"], m["E"])
    assert v.holds  # compact-model bound
    assert not v.extras["fro"]["identity_ok"]  # identity-model bound fails
    assert not v.extras["e_positive"]
    assert v.entrywise_holds  # compression monotonicity is intact here


def test_agm_compact_positive_operator_norms():
    c, s, p = _splitting(3, 41)
    e = _pos(3, 42)
    v = ineq.check_agm_compact(s, c, e)
    assert v.holds
    assert v.extras["e_positive"]
    # for positive E the judged bound, half the compact spread of E, is
    # s(E) / 2, so the submajorization is the norm form in every norm
    spr = spread_plus(compact_scale(e)).values
    assert np.allclose(spr[:3], linalg_sv(e)) and np.allclose(spr[3:], 0.0)
    assert v.extras["fro"]["identity_ok"]  # theorem for positive E


def test_agm_general_fixture_dual_verdict():
    m = fixture_matrices("agm-fail-3x3")
    v = ineq.check_agm_general(m["A"], m["B"], m["E"])
    assert v.holds
    assert v.extras == {}
    assert not v.entrywise_holds  # 2 s_2(AEB*) > Spr_2 on this instance


def test_agm_general_dim_mismatch():
    with pytest.raises(DimMismatch):
        ineq.check_agm_general(np.eye(2), np.eye(3), np.eye(3))


# -- zhan and equivalents ----------------------------------------------------

def test_zhan_equality_case():
    # E = -F = diag(1): s(E - F) = (2) while E oplus F = diag(1, -1) has
    # spread (2, 0, ...): attained at k = 1
    v = ineq.check_zhan(np.array([[1.0]]), np.array([[-1.0]]))
    assert v.holds
    assert v.report.margins_upper[0] == pytest.approx(0.0, abs=1e-10)


def test_zhan_identical_operators():
    e = _herm(3, 61)
    v = ineq.check_zhan(e, e)
    assert v.holds
    assert float(np.min(v.report.margins_upper)) >= -1e-12


def test_zhan_random():
    for seed in range(5):
        assert ineq.check_zhan(_herm(4, seed), _herm(4, 70 + seed)).holds


def test_offdiag_projection_matrix_model():
    e = _herm(5, 81, scale=2.0)
    p = _projection(Stream(82), 5)
    v = ineq.check_offdiag_projection(e, p)
    assert v.holds
    assert v.mode == "matrix"
    assert v.extras["dropped_sv"] <= 1e-7 * 10


def test_offdiag_projection_zero_corner():
    e = np.diag([3.0, 1.0])
    p = np.diag([1.0, 0.0])  # commutes with E: the corner vanishes
    v = ineq.check_offdiag_projection(e, p)
    assert v.holds
    assert float(np.min(v.report.margins_upper)) >= -1e-12


def test_offdiag_compact_random():
    for seed in range(5):
        e = _herm(4, seed, scale=2.0)
        p = _projection(Stream(90 + seed), 4)
        assert ineq.check_offdiag_compact(e, p).holds


def test_identity_split_requires_full_projection():
    c, s, p = _splitting(4, 95)
    if np.allclose(p, np.eye(4)):  # rank happened to be full: perturb
        pytest.skip("splitting came out full rank")
    with pytest.raises(NotProjectionSum):
        ineq.check_identity_split(s, c, _herm(4, 96))


def test_identity_split_full_rank():
    stream = Stream(97)
    c, s, p = _partition(stream, 3, rank=3)
    assert np.allclose(p, np.eye(3), atol=1e-10)
    v = ineq.check_identity_split(s, c, _herm(3, 98))
    assert v.holds


# -- controls ----------------------------------------------------------------

def test_control_kittaneh_positive_random():
    for seed in range(5):
        v = ineq.control_kittaneh_positive(_pos(3, seed), _pos(3, 30 + seed), _gen(3, 60 + seed))
        assert v.holds


def test_control_kittaneh_rejects_indefinite():
    with pytest.raises(NotPositive, match=r"^C has eigenvalue -1\.000e\+00$"):
        ineq.control_kittaneh_positive(np.diag([1.0, -1.0]), np.eye(2), np.eye(2))
    with pytest.raises(NotPositive, match=r"^D has eigenvalue -3\.000e\+00$"):
        ineq.control_kittaneh_positive(np.eye(2), np.diag([1.0, -3.0]), np.eye(2))


def test_control_bhatia_kittaneh_equality():
    v = ineq.control_bhatia_kittaneh(np.eye(2), np.eye(2))
    assert v.holds
    assert float(np.max(np.abs(v.entrywise_margins))) == pytest.approx(0.0, abs=1e-12)


def test_control_bhatia_kittaneh_random():
    for seed in range(5):
        assert ineq.control_bhatia_kittaneh(_gen(4, seed), _gen(4, 40 + seed)).holds


def test_control_strict_gap_indefinite():
    v = ineq.control_strict_gap(np.diag([2.0, -1.0]))
    assert v.holds
    assert v.extras["g2_spread"] == pytest.approx(3.0)
    assert v.extras["fro"] == pytest.approx(math.sqrt(5.0))


def test_control_strict_gap_requires_indefinite():
    with pytest.raises(NotPositive):
        ineq.control_strict_gap(np.diag([1.0, 2.0]))
    with pytest.raises(NotPositive):
        ineq.control_strict_gap(np.diag([-1.0, -2.0]))


# -- extras --------------------------------------------------------------------

# the extras keys each verifier records, by check function; agm_compact's
# and agm_general's keys are pinned with E both indefinite and positive, and
# agm_pair's with E2 left out and given, by test_agm_extras_keys_in_each_case
EXTRAS = {
    "check_tao_positive": {"split"},
    "check_key": {"split"},
    "check_trace_pairing": {"lhs", "rhs", "margin", "rank_a"},
    "check_commutator_scale": set(),
    "check_commutator_sv": set(),
    "check_mixed_commutator": set(),
    "check_general_commutator": {"scalar", "coro_holds"},
    "check_unitary_conj": set(),
    "check_agm_projection": set(),
    "check_agm_pair": set(),
    "check_agm_compact": {"fro", "e_positive"},
    "check_agm_general": set(),
    "check_zhan": set(),
    "check_offdiag_projection": {"dropped_sv"},
    "check_offdiag_compact": set(),
    "check_identity_split": set(),
    "control_kittaneh_positive": set(),
    "control_bhatia_kittaneh": set(),
    "control_strict_gap": {"fro", "g2_spread", "margin"},
}


def test_every_verifier_has_its_extras_pinned():
    checks = {entry.check for entry in VERIFIERS.values()}
    assert checks == EXTRAS.keys()


@pytest.mark.parametrize("ineq_id", list(VERIFIERS))
def test_extras_keys_are_pinned(ineq_id):
    # a claim restated in extras, or a key dropped, shows up here
    check = getattr(ineq, VERIFIERS[ineq_id].check)
    for seed in range(1, 5):
        assert check(*trial_args(ineq_id, seed, (2, 6))).extras.keys() == EXTRAS[check.__name__]


def test_agm_extras_keys_in_each_case():
    c, s, _ = _splitting(3, 21, positive=True)
    e, e2 = _herm(3, 22), _herm(3, 23)
    assert np.linalg.eigvalsh(e)[0] < 0.0  # indefinite
    assert ineq.check_agm_pair(s, c, e).extras.keys() == EXTRAS["check_agm_pair"]
    assert ineq.check_agm_pair(s, c, e, e2).extras.keys() == EXTRAS["check_agm_pair"]
    c, s, _ = _splitting(3, 41)
    a, b = _gen(3, 51), _gen(3, 52)
    for op, positive in ((e, False), (_pos(3, 42), True)):
        v = ineq.check_agm_compact(s, c, op)
        assert v.extras.keys() == EXTRAS["check_agm_compact"]
        assert v.extras["fro"].keys() == {"lhs", "identity_bound", "identity_ok"}
        assert v.extras["e_positive"] is positive
        assert ineq.check_agm_general(a, b, op).extras.keys() == EXTRAS["check_agm_general"]


# -- witnesses -----------------------------------------------------------------

def test_witness_digest_is_input_keyed():
    a, b = _herm(3, 1), _herm(3, 2)
    v1 = ineq.check_zhan(a, b)
    v2 = ineq.check_zhan(a, b)
    v3 = ineq.check_zhan(b, a)
    assert v1.witness == v2.witness
    assert v1.witness != v3.witness


def test_witness_is_hashed_on_first_read(monkeypatch):
    a, b = _herm(3, 1), _herm(3, 2)
    expected = ineq._digest(a, b)
    calls = []
    real = ineq._digest

    def digest(*mats):
        calls.append(len(mats))
        return real(*mats)

    monkeypatch.setattr(ineq, "_digest", digest)
    v = ineq.check_zhan(a, b)
    assert calls == []
    assert v.witness == expected and v.witness == expected
    assert calls == [2]
    # a campaign never reads a witness, so it hashes nothing
    from sspread.harness import fuzz

    fuzz("zhan", trials=10, seed=1)
    assert calls == [2]
    # the digest is of the inputs as checked, even if the caller's array
    # changes before the witness is read
    v = ineq.check_zhan(a, b)
    a[0, 0] += 1.0
    assert v.witness == expected
    # a digest given at construction is kept as is
    assert ineq.Verdict("zhan", True, None, "0" * 64, "matrix").witness == "0" * 64
