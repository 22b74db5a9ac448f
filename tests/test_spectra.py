"""Scale construction in the three operator models."""

import math

import numpy as np
import pytest

from sspread import (
    DiagSpec,
    HorizonMismatch,
    InsufficientSampling,
    ModeError,
    SpreadSeq,
    TwoSidedSeq,
    compact_scale,
    diag_scale,
    matrix_scale,
    spread_full,
    spread_plus,
)
from sspread import linalg, spectra
from sspread.harness import GenSpec, generate

A3 = np.diag([3.0, 1.0, -2.0])


def test_matrix_scale_convention():
    sc = matrix_scale(A3)
    assert sc.mode == "matrix" and sc.K == 3
    assert np.allclose(sc.pos, [3.0, 1.0, -2.0])
    assert np.allclose(sc.neg, [-2.0, 1.0, 3.0])
    assert sc.pos_tail is None and sc.neg_tail is None
    # the neg <= pos ordering is deliberately not required in this mode
    assert sc.neg[2] > sc.pos[2]


def test_compact_scale_padding_and_default_horizon():
    sc = compact_scale(A3)
    assert sc.mode == "compact" and sc.K == 6
    assert np.allclose(sc.pos, [3.0, 1.0, 0.0, 0.0, 0.0, 0.0])
    assert np.allclose(sc.neg, [-2.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    assert sc.pos_tail == 0.0 and sc.neg_tail == 0.0
    assert sc.settled()


def test_compact_scale_horizon_below_dim():
    with pytest.raises(HorizonMismatch):
        compact_scale(A3, 2)


def test_compact_scale_all_negative():
    sc = compact_scale(np.diag([-1.0, -4.0]), 3)
    assert np.allclose(sc.pos, [0.0, 0.0, 0.0])
    assert np.allclose(sc.neg, [-4.0, -1.0, 0.0])


def test_spread_matrix_mode_truncates_to_half():
    spr = spread_plus(matrix_scale(A3))
    # Spr_i = mu_i - mu_{d+1-i} is non-negative only for i <= ceil(d/2)
    assert spr.mode == "matrix"
    assert np.allclose(spr.values, [5.0, 0.0])


@pytest.mark.parametrize("d", [1, 2, 3, 4, 7, 8, 33, 64])
def test_matrix_spread_from_eigenvalues_is_the_public_spread(d):
    a = generate(GenSpec(kind="hermitian", dim=d, seed=d))
    mu = linalg._eigvalsh(a)
    got = spectra._matrix_spread(mu)
    ref = spread_plus(matrix_scale(a))
    assert np.array_equal(got, ref.values)
    assert (ref.tail, ref.mode) == (0.0, "matrix")
    # the same eigenvalues through an explicitly built, validated scale
    built = TwoSidedSeq(pos=mu, neg=mu[::-1], pos_tail=None, neg_tail=None, K=d, mode="matrix")
    assert np.array_equal(got, spread_plus(built).values)
    # it passes the SpreadSeq checks it skips
    SpreadSeq(values=got, tail=0.0, mode="matrix")


def test_spread_compact_mode():
    spr = spread_plus(compact_scale(A3, 4))
    assert np.allclose(spr.values, [5.0, 1.0, 0.0, 0.0])
    assert spr.tail == 0.0


def test_spread_full_antisymmetry():
    full = spread_full(compact_scale(A3, 4))
    assert np.allclose(full.pos, -full.neg[: len(full.pos)])
    assert full.pos_tail == 0.0 and full.neg_tail == 0.0


def test_twosided_ordering_enforced_outside_matrix_mode():
    with pytest.raises(ValueError):
        TwoSidedSeq(pos=[1.0, 0.0], neg=[2.0, 0.0], pos_tail=0.0,
                    neg_tail=0.0, K=2, mode="compact")


def test_twosided_monotonicity_enforced():
    with pytest.raises(ValueError):
        TwoSidedSeq(pos=[1.0, 2.0], neg=[0.0, 0.0], pos_tail=0.0,
                    neg_tail=0.0, K=2, mode="compact")
    with pytest.raises(ValueError):
        TwoSidedSeq(pos=[3.0, 2.0], neg=[0.0, -1.0], pos_tail=0.0,
                    neg_tail=0.0, K=2, mode="compact")


def test_twosided_tail_consistency():
    with pytest.raises(ValueError):
        TwoSidedSeq(pos=[0.2], neg=[-1.0], pos_tail=0.5, neg_tail=-1.0,
                    K=1, mode="diag")


def test_spreadseq_contract():
    with pytest.raises(ValueError):
        SpreadSeq(values=[1.0, -0.5])
    with pytest.raises(ValueError):
        SpreadSeq(values=[0.5, 1.0])
    seq = SpreadSeq(values=[2.0, 1.0])
    assert len(seq) == 2
    assert np.allclose(seq.padded(4), [2.0, 1.0, 0.0, 0.0])
    with pytest.raises(HorizonMismatch):
        seq.padded(1)
    with pytest.raises(ModeError):
        SpreadSeq(values=[2.0, 1.0], tail=1.0, mode="diag").padded(4)


def test_diag_entry_and_sample():
    spec = DiagSpec(head=(5.0, -3.0), liminf=-1.0, limsup=1.0,
                    generator="harmonic", params={"limit": 0.0, "coef": 1.0})
    assert spec.entry(1) == 5.0
    assert spec.entry(2) == -3.0
    assert spec.entry(3) == pytest.approx(1.0 / 3.0)
    assert np.allclose(spec.sample(4), [5.0, -3.0, 1.0 / 3.0, 0.25])

    head_only = DiagSpec(head=(2.0,), liminf=0.0, limsup=0.0)
    assert np.allclose(head_only.sample(10), [2.0])
    with pytest.raises(IndexError):
        head_only.entry(2)
    with pytest.raises(ValueError):
        head_only.entry(0)


def test_diag_spec_validation():
    with pytest.raises(ValueError):
        DiagSpec(liminf=1.0, limsup=0.0)
    with pytest.raises(ValueError):
        DiagSpec(generator="nope")
    # nan compares false with everything, so it would slip past the band
    # checks and drop entries from the scale
    for bad in ({"head": (3.0, math.nan)}, {"liminf": -math.inf}, {"limsup": math.nan},
                {"generator": "harmonic", "params": {"coef": math.nan}}):
        with pytest.raises(ValueError, match="finite"):
            DiagSpec(**bad)


def test_diag_scale_head_only():
    spec = DiagSpec(head=(3.0, 0.5, -2.0), liminf=-1.0, limsup=1.0)
    sc = diag_scale(spec, 2)
    assert np.allclose(sc.pos, [3.0, 1.0])
    assert np.allclose(sc.neg, [-2.0, -1.0])
    assert sc.pos_tail == 1.0 and sc.neg_tail == -1.0
    assert sc.mode == "diag"


def test_diag_scale_alternating_harmonic():
    spec = DiagSpec(head=(), liminf=-1.0, limsup=1.0,
                    generator="alt_harmonic", params={"upper": 1.0, "lower": -1.0})
    sc = diag_scale(spec, 8)
    assert np.allclose(sc.pos, [1.0 + 1.0 / i for i in range(1, 9)])
    assert np.allclose(sc.neg, [-1.0] * 8)
    spr = spread_plus(sc)
    assert np.allclose(spr.values, [2.0 + 1.0 / i for i in range(1, 9)])
    assert spr.tail == 2.0
    assert not sc.settled()  # pos entries stay strictly above the tail


def test_diag_scale_settles_when_band_absorbs_everything():
    spec = DiagSpec(head=(), liminf=0.0, limsup=2.0,
                    generator="harmonic", params={"limit": 0.0, "coef": 1.0})
    sc = diag_scale(spec, 4)
    assert np.allclose(sc.pos, [2.0] * 4)
    assert np.allclose(sc.neg, [0.0] * 4)
    assert sc.settled()


def test_diag_scale_flags_late_candidates():
    # entries 2 - 1/n climb toward 2 > limsup, so the top candidates of any
    # finite window sit at its very end: the window proves nothing
    spec = DiagSpec(head=(), liminf=-1.0, limsup=1.0,
                    generator="harmonic", params={"limit": 2.0, "coef": -1.0})
    with pytest.raises(InsufficientSampling):
        diag_scale(spec, 3)


def test_diag_scale_flags_late_negative_candidates():
    spec = DiagSpec(head=(), liminf=-1.0, limsup=1.0,
                    generator="harmonic", params={"limit": -2.0, "coef": 1.0})
    with pytest.raises(InsufficientSampling):
        diag_scale(spec, 3)


def test_diag_scale_head_is_authoritative_without_generator():
    # a late head candidate is fine: the head is the whole sequence
    spec = DiagSpec(head=tuple([0.0] * 50 + [4.0]), liminf=-1.0, limsup=1.0)
    sc = diag_scale(spec, 2)
    assert np.allclose(sc.pos, [4.0, 1.0])


def test_diag_scale_unsettled_single_spike():
    spec = DiagSpec(head=(), liminf=0.0, limsup=0.5,
                    generator="harmonic", params={"limit": 0.0, "coef": 1.0})
    sc = diag_scale(spec, 1)
    assert sc.pos[0] == 1.0
    assert not sc.settled()


def test_generator_formulas():
    const = DiagSpec(liminf=0.0, limsup=3.0, generator="constant",
                     params={"value": 3.0})
    assert const.entry(7) == 3.0
    zero = DiagSpec(liminf=0.0, limsup=0.0, generator="zero")
    assert zero.entry(2) == 0.0
    alt = DiagSpec(liminf=-1.0, limsup=1.0, generator="alt_harmonic",
                   params={"upper": 1.0, "lower": -1.0})
    assert alt.entry(1) == 2.0
    assert alt.entry(2) == 0.0
    assert alt.entry(3) == 1.5
    assert alt.entry(4) == -0.5


def test_mode_gate():
    with pytest.raises(ModeError):
        SpreadSeq(values=[1.0], mode="banana")
