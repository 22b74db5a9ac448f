"""Majorization engine vs a brute-force zero-pool oracle."""

import math

import numpy as np
import pytest

from sspread import (
    DiagSpec,
    HorizonMismatch,
    Interleaved,
    ModeError,
    SpreadSeq,
    TwoSidedSeq,
    dec_rearrange,
    diag_scale,
    gauge,
    interleave,
    ky_fan,
    majorizes,
    matrix_scale,
    schatten,
    submajorizes,
    updown_rearrange,
)
from sspread.linalg import _tol
from sspread.rng import Stream


def pooled_upper(multiset, k):
    # sum of the k largest entries of the multiset joined with k zeros:
    # the partial sums of a two-sided sequence over Z_0 stop growing once
    # only negative entries remain
    pool = sorted(list(multiset) + [0.0] * k, reverse=True)
    return sum(pool[:k])


def pooled_lower(multiset, k):
    pool = sorted(list(multiset) + [0.0] * k)
    return sum(pool[:k])


def test_tol_scaling():
    # one rule at every scale: proportional to magnitude and index count,
    # with no absolute floor below unit scale
    assert _tol(2.0, 5) == pytest.approx(1e-11)
    assert _tol(0.1, 3) == pytest.approx(3e-13)
    assert _tol(2e-10, 3) == pytest.approx(1e-9 * _tol(0.2, 3))
    assert _tol(0.0, 0) == 0.0
    assert np.allclose(_tol(np.array([1.0, 1e-8]), 4), [4e-12, 4e-20], rtol=1e-15, atol=0.0)
    # a relation's report carries the tolerance of its operands' size
    assert submajorizes([1.0, 0.5], [3.0, 0.0]).tol == pytest.approx(_tol(3.0, 2))
    assert not submajorizes([2e-10], [1e-10]).holds


def test_dec_rearrange():
    assert np.allclose(dec_rearrange([1.0, -2.0, 3.0]), [3.0, 1.0, -2.0])


def test_updown_rearrange_flat():
    t = updown_rearrange([3.0, -1.0, 2.0, 0.0])
    assert np.allclose(t.pos, [3.0, 2.0, 0.0, 0.0])
    assert np.allclose(t.neg, [-1.0, 0.0, 0.0, 0.0])
    assert t.mode == "compact"
    with pytest.raises(HorizonMismatch):
        updown_rearrange([3.0, 2.0, 1.0], k=2)


def test_updown_rearrange_rejects_diag_input():
    t = TwoSidedSeq(pos=[2.0], neg=[-1.0], pos_tail=1.0, neg_tail=-1.0,
                    K=1, mode="diag")
    with pytest.raises(ModeError):
        updown_rearrange(t)


def test_interleave():
    a = SpreadSeq(values=[2.0, 1.0])
    b = SpreadSeq(values=[4.0, 3.0])
    pair = interleave(a, b)
    assert isinstance(pair, Interleaved)
    assert np.allclose(pair.multiset(), [2.0, 1.0, 4.0, 3.0])
    with pytest.raises(HorizonMismatch):
        interleave(a, SpreadSeq(values=[1.0, 1.0, 1.0]))


def test_classic_submajorization_hand_case():
    rep = submajorizes([2.0, 1.0], [3.0, 1.0])
    assert rep.holds
    assert np.allclose(rep.margins_upper, [1.0, 1.0])
    rep = submajorizes([4.0, 0.0], [3.0, 1.0])
    assert not rep.holds
    assert rep.worst_k == 1
    assert rep.margins_upper[0] == pytest.approx(-1.0)


def test_classic_majorization_requires_equal_sums():
    # x is an average of y's coordinates: x majorized by y
    rep = majorizes([2.0, 2.0], [3.0, 1.0])
    assert rep.holds and rep.sum_defect == pytest.approx(0.0)
    # strictly smaller sum: weak relation holds, classic fails
    rep = majorizes([1.0, 1.0], [3.0, 1.0])
    assert not rep.holds
    assert abs(rep.sum_defect) == pytest.approx(2.0)
    assert submajorizes([1.0, 1.0], [3.0, 1.0]).holds


def test_classic_majorization_doubly_stochastic_oracle():
    stream = Stream(42)
    for _ in range(50):
        n = stream.randint(2, 6)
        y = np.array([stream.uniform() * 4.0 - 2.0 for _ in range(n)])
        # convex combination of permutations is doubly stochastic
        t = np.zeros((n, n))
        total = 0.0
        for _ in range(3):
            w = stream.uniform() + 1e-3
            perm = np.random.RandomState(stream.randint(0, 2**31 - 1)).permutation(n)
            m = np.zeros((n, n))
            m[np.arange(n), perm] = 1.0
            t += w * m
            total += w
        x = (t / total) @ y
        rep = majorizes(x, y)
        assert rep.holds, (x, y, rep)


def test_mismatched_lengths_raise():
    with pytest.raises(HorizonMismatch):
        submajorizes([1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(HorizonMismatch):
        majorizes([1.0], [1.0, 0.0])


def test_spreadseq_padding_alignment():
    a = SpreadSeq(values=[2.0, 1.0])
    b = SpreadSeq(values=[2.0, 1.0, 0.5, 0.0])
    rep = submajorizes(a, b)
    assert rep.holds
    assert len(rep.margins_upper) == 4
    assert rep.margins_upper[2] == pytest.approx(0.5)


def test_twosided_clipped_sums_match_pool_oracle():
    stream = Stream(7)
    for _ in range(60):
        n = stream.randint(1, 6)
        xs = [stream.uniform() * 6.0 - 3.0 for _ in range(n)]
        ys = [stream.uniform() * 6.0 - 3.0 for _ in range(n)]
        k = n + stream.randint(0, 3)
        a = updown_rearrange(np.array(xs), k)
        b = updown_rearrange(np.array(ys), k)
        rep = majorizes(a, b)
        for i in range(1, k + 1):
            exp_u = pooled_upper(ys, i) - pooled_upper(xs, i)
            exp_l = pooled_lower(xs, i) - pooled_lower(ys, i)
            assert rep.margins_upper[i - 1] == pytest.approx(exp_u, abs=1e-12)
            assert rep.margins_lower[i - 1] == pytest.approx(exp_l, abs=1e-12)


def test_matrix_mode_uses_plain_multiset_sums():
    # matrix mode has no zero pool: sums run over all 2K entries as-is
    a = TwoSidedSeq(pos=[1.0, -2.0], neg=[-2.0, 1.0], pos_tail=None,
                    neg_tail=None, K=2, mode="matrix")
    b = TwoSidedSeq(pos=[2.0, -1.0], neg=[-1.0, 2.0], pos_tail=None,
                    neg_tail=None, K=2, mode="matrix")
    rep = majorizes(a, b)
    xs, ys = [1.0, -2.0, -2.0, 1.0], [2.0, -1.0, -1.0, 2.0]
    for i in range(1, 5):
        exp_u = sum(sorted(ys, reverse=True)[:i]) - sum(sorted(xs, reverse=True)[:i])
        assert rep.margins_upper[i - 1] == pytest.approx(exp_u, abs=1e-12)
        exp_l = sum(sorted(xs)[:i]) - sum(sorted(ys)[:i])
        assert rep.margins_lower[i - 1] == pytest.approx(exp_l, abs=1e-12)


def test_twosided_mode_mixing_rejected():
    a = updown_rearrange([1.0, -1.0])
    b = TwoSidedSeq(pos=[1.0, 0.0], neg=[-1.0, 0.0], pos_tail=None,
                    neg_tail=None, K=2, mode="matrix")
    with pytest.raises(ModeError):
        submajorizes(a, b)


def test_twosided_compact_horizon_padding():
    a = updown_rearrange([2.0, -1.0], k=2)
    b = updown_rearrange([3.0, -1.0], k=5)
    rep = submajorizes(a, b)
    assert rep.holds
    # sums run over the pooled two-sided multiset: 2K entries after padding
    assert len(rep.margins_upper) == 10


def test_interleaved_pairs_judged_with_zero_pool():
    # (x | y) over Z_0 clips at zero even when every entry is negative
    pair_a = Interleaved(neg_values=np.array([-1.0]), pos_values=np.array([-2.0]))
    pair_b = Interleaved(neg_values=np.array([0.0]), pos_values=np.array([0.0]))
    rep = submajorizes(pair_a, pair_b)
    assert rep.holds  # upper clipped sums of a are all 0, as are b's


def test_interleaved_pairs_compare_every_partial_sum():
    # a's total of 10 exceeds b's 5; comparing only the first 2 of a's 10
    # partial sums missed it
    rep = submajorizes(interleave([1.0] * 5, [1.0] * 5), interleave([5.0], [0.0]))
    assert not rep.holds
    assert len(rep.margins_upper) == 10
    assert rep.margins_upper[-1] == pytest.approx(-5.0)


def test_spreadseq_majorization_judges_tails():
    a = SpreadSeq([2.0, 1.0], tail=1.0, mode="diag")
    b = SpreadSeq([2.0, 1.0], tail=0.0, mode="diag")
    for relation in (submajorizes, majorizes):
        rep = relation(a, b)
        assert rep.tail_verdict == "tail_violated" and not rep.holds


def test_one_sided_against_two_sided_rejected():
    one = (np.array([2.0, 1.0]), SpreadSeq([2.0, 1.0]))
    two = (updown_rearrange([2.0, -1.0]), interleave([2.0], [1.0]))
    for a in one:
        for b in two:
            for relation in (submajorizes, majorizes):
                with pytest.raises(ModeError):
                    relation(a, b)
                with pytest.raises(ModeError):
                    relation(b, a)


KINDS = ("array", "spread_compact", "spread_diag", "matrix", "compact", "diag", "interleaved")


def _operand(kind, vals, k, tail):
    """An operand of this kind holding vals zero-padded to length k."""
    v = np.concatenate([vals, np.zeros(k - len(vals))])
    if kind == "array":
        return v
    if kind.startswith("spread"):
        mode = kind.split("_")[1]
        return SpreadSeq(dec_rearrange(np.abs(v)), tail=tail if mode == "diag" else 0.0, mode=mode)
    if kind == "matrix":
        return matrix_scale(np.diag(v))
    if kind == "compact":
        return updown_rearrange(v)
    if kind == "diag":
        return diag_scale(DiagSpec(head=tuple(v), liminf=-tail, limsup=tail), k)
    return Interleaved(neg_values=v[: k // 2], pos_values=v[k // 2:])


@pytest.mark.parametrize("kind_a, kind_b", [(k, k) for k in KINDS]
                         + [("compact", "interleaved"), ("interleaved", "compact")])
def test_majorization_implies_submajorization(kind_a, kind_b):
    rng = np.random.default_rng(KINDS.index(kind_a) + 10 * KINDS.index(kind_b))
    held = 0
    for trial in range(80):
        n = int(rng.integers(1, 5))
        b_vals = rng.normal(size=n)
        if kind_b.startswith("spread"):
            b_vals = np.abs(b_vals)
        if trial % 2:
            # averaging two entries of b gives an a majorized by b in every model
            a_vals = b_vals.copy()
            i, j = rng.integers(0, n, size=2)
            a_vals[[i, j]] = (b_vals[i] + b_vals[j]) / 2.0
        else:
            a_vals = rng.normal(size=n)
        k_a, k_b = n + int(rng.integers(0, 3)), n + int(rng.integers(0, 3))
        tail_a, tail_b = rng.uniform(0.0, 0.2, size=2)
        a = _operand(kind_a, a_vals, k_a, tail_a)
        b = _operand(kind_b, b_vals, k_b, tail_b)
        try:
            maj = majorizes(a, b)
        except (HorizonMismatch, ModeError) as exc:
            # both relations align their operands by one rule
            with pytest.raises(type(exc)):
                submajorizes(a, b)
            continue
        sub = submajorizes(a, b)
        assert sub.tol == maj.tol and sub.tail_verdict == maj.tail_verdict
        if maj.holds:
            held += 1
            assert sub.holds, (trial, a, b)
    assert held >= 5


@pytest.mark.parametrize("relation", [submajorizes, majorizes])
def test_diag_tail_violation(relation):
    a = TwoSidedSeq(pos=[3.0, 2.0], neg=[0.0, 0.0], pos_tail=2.0, neg_tail=0.0,
                    K=2, mode="diag")
    b = TwoSidedSeq(pos=[4.0, 1.0], neg=[0.0, 0.0], pos_tail=1.0, neg_tail=0.0,
                    K=2, mode="diag")
    rep = relation(a, b)
    assert rep.tail_verdict == "tail_violated"
    assert not rep.holds


@pytest.mark.parametrize("relation", [submajorizes, majorizes])
def test_diag_horizon_limited(relation):
    spike = TwoSidedSeq(pos=[3.0, 2.5], neg=[0.0, 0.0], pos_tail=2.0,
                        neg_tail=0.0, K=2, mode="diag")
    bound = TwoSidedSeq(pos=[4.0, 4.0], neg=[0.0, 0.0], pos_tail=4.0,
                        neg_tail=0.0, K=2, mode="diag")
    rep = relation(spike, bound)
    assert rep.holds
    assert rep.tail_verdict == "horizon_limited"  # spike never settles


def test_worst_k_signs():
    # all-negative candidate below an all-negative bound: every upper clipped
    # sum is 0, the failure lives entirely on the lower side
    a = updown_rearrange([-3.0])
    b = updown_rearrange([-1.0])
    rep = majorizes(a, b)
    assert rep.worst_k == -1
    assert not rep.holds
    assert rep.min_margin() == pytest.approx(-2.0)


def test_ky_fan_and_schatten_oracles():
    v = [3.0, 1.0, 2.0]
    assert ky_fan(v, 2) == pytest.approx(5.0)
    assert ky_fan(v, 3) == pytest.approx(6.0)
    with pytest.raises(ValueError):
        ky_fan(v, 0)
    assert schatten(v, 1) == pytest.approx(6.0)
    assert schatten(v, 2) == pytest.approx(math.sqrt(14.0))
    assert schatten(v, math.inf) == pytest.approx(3.0)
    assert schatten([], 2) == 0.0
    with pytest.raises(ValueError):
        schatten(v, 0.5)


def test_nan_schatten_exponent_is_refused():
    # nan compares false with everything, so it would slip past p < 1
    with pytest.raises(ValueError, match="not a norm"):
        schatten([3.0, 1.0], math.nan)
    with pytest.raises(ValueError, match="not a norm"):
        gauge([3.0, 1.0], "schatten:nan")


def test_non_finite_operands_are_refused():
    # a NaN margin compares false with every tolerance, so a NaN operand
    # would come back as a failing report rather than an error
    for bad in ([math.nan], [math.inf], [1.0, -math.inf]):
        for relation in (submajorizes, majorizes):
            with pytest.raises(ValueError, match="finite"):
                relation(bad, [1.0] * len(bad))
            with pytest.raises(ValueError, match="finite"):
                relation([1.0] * len(bad), bad)
    for tails in ((math.nan, 0.0), (0.0, math.inf)):
        pair = Interleaved([1.0], [2.0], *tails)
        with pytest.raises(ValueError, match="finite"):
            submajorizes(pair, interleave([1.0], [2.0]))
    with pytest.raises(ValueError, match="finite"):
        submajorizes(Interleaved([math.nan], [2.0]), interleave([1.0], [2.0]))


def test_gauge_dispatch():
    v = SpreadSeq(values=[3.0, 2.0, 1.0])
    assert gauge(v, "op") == pytest.approx(3.0)
    assert gauge(v, "kyfan:2") == pytest.approx(5.0)
    assert gauge(v, "schatten:2") == pytest.approx(math.sqrt(14.0))
    assert gauge(v, "schatten:inf") == pytest.approx(3.0)
    assert gauge(v, "schatten:oo") == pytest.approx(3.0)
    with pytest.raises(ValueError):
        gauge(v, "nuclear")


def test_gauge_monotone_under_submajorization():
    # symmetric gauges respect weak submajorization on non-negative input
    stream = Stream(12)
    for _ in range(40):
        n = stream.randint(2, 6)
        y = sorted((stream.uniform() * 3.0 for _ in range(n)), reverse=True)
        drop = [stream.uniform() * 0.3 for _ in range(n)]
        x = dec_rearrange(np.maximum(np.array(y) - drop, 0.0))
        assert submajorizes(x, np.array(y)).holds
        for gid in ("op", "kyfan:2", "schatten:1", "schatten:2", "schatten:inf"):
            assert gauge(x, gid) <= gauge(np.array(y), gid) + 1e-9
