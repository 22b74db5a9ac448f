"""Scale construction in the three operator models."""

import math
from pathlib import Path

import numpy as np
import pytest

from sspread import (
    DiagSpec,
    HorizonMismatch,
    ModeError,
    SpreadSeq,
    TwoSidedSeq,
    compact_scale,
    diag_scale,
    matrix_scale,
    spread_full,
    spread_plus,
)
from sspread import cli, linalg, spectra
from sspread.harness import _hermitian
from sspread.rng import Stream

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
    a = _hermitian(Stream(d), d)
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


def test_diag_entry_and_sample():
    spec = DiagSpec(head=(5.0, -3.0), liminf=0.0, limsup=0.0,
                    generator="harmonic", params={"limit": 0.0, "coef": 1.0})
    assert spec.sample(1)[0] == 5.0
    assert spec.sample(2)[1] == -3.0
    assert spec.sample(3)[2] == pytest.approx(1.0 / 3.0)
    assert np.allclose(spec.sample(4), [5.0, -3.0, 1.0 / 3.0, 0.25])

    head_only = DiagSpec(head=(2.0,), liminf=0.0, limsup=0.0)
    assert np.allclose(head_only.sample(10), [2.0])


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
    # a band wider than the harmonic rule's limits is not its band
    with pytest.raises(ValueError, match="band"):
        DiagSpec(head=(), liminf=0.0, limsup=2.0,
                 generator="harmonic", params={"limit": 0.0, "coef": 1.0})
    for spec in (DiagSpec(head=(1.5, 0.5), liminf=0.0, limsup=2.0),
                 DiagSpec(head=(2.0,), liminf=2.0, limsup=2.0, generator="constant",
                          params={"value": 2.0})):
        sc = diag_scale(spec, 4)
        assert np.array_equal(sc.pos, [2.0] * 4)
        assert np.array_equal(sc.neg, [spec.liminf] * 4)
        assert sc.settled()


def test_diag_scale_flags_late_candidates():
    # entries 2 - 1/n climb toward 2, so [-1, 1] is not their band
    with pytest.raises(ValueError, match="band"):
        DiagSpec(head=(), liminf=-1.0, limsup=1.0,
                 generator="harmonic", params={"limit": 2.0, "coef": -1.0})


def test_diag_scale_flags_late_negative_candidates():
    with pytest.raises(ValueError, match="band"):
        DiagSpec(head=(), liminf=-1.0, limsup=1.0,
                 generator="harmonic", params={"limit": -2.0, "coef": 1.0})


def test_diag_scale_head_is_authoritative_without_generator():
    # a late head candidate is fine: the head is the whole sequence
    spec = DiagSpec(head=tuple([0.0] * 50 + [4.0]), liminf=-1.0, limsup=1.0)
    sc = diag_scale(spec, 2)
    assert np.allclose(sc.pos, [4.0, 1.0])



def test_diag_scale_reads_the_whole_head():
    # a spike deep in a long head still ranks first
    head = (0.0,) * 150 + (4.0,) + (0.0,) * 49
    for spec in (DiagSpec(head=head, liminf=-1.0, limsup=1.0),
                 DiagSpec(head=head, generator="harmonic", params={"coef": -1.0})):
        assert diag_scale(spec, 1).pos[0] == 4.0

def test_diag_scale_unsettled_single_spike():
    with pytest.raises(ValueError, match="band"):
        DiagSpec(head=(), liminf=0.0, limsup=0.5,
                 generator="harmonic", params={"limit": 0.0, "coef": 1.0})
    spec = DiagSpec(head=(), liminf=0.0, limsup=0.0,
                    generator="harmonic", params={"limit": 0.0, "coef": 1.0})
    sc = diag_scale(spec, 3)
    assert np.array_equal(sc.pos, [1.0, 1.0 / 2.0, 1.0 / 3.0])
    assert np.array_equal(sc.neg, [0.0] * 3)
    assert not sc.settled()


def test_generator_formulas():
    const = DiagSpec(liminf=3.0, limsup=3.0, generator="constant",
                     params={"value": 3.0})
    assert const.sample(7)[6] == 3.0
    zero = DiagSpec(liminf=0.0, limsup=0.0, generator="zero")
    assert zero.sample(2)[1] == 0.0
    alt = DiagSpec(liminf=-1.0, limsup=1.0, generator="alt_harmonic",
                   params={"upper": 1.0, "lower": -1.0})
    assert alt.sample(1)[0] == 2.0
    assert alt.sample(2)[1] == 0.0
    assert alt.sample(3)[2] == 1.5
    assert alt.sample(4)[3] == -0.5



def test_diag_spec_refuses_what_its_rule_cannot_mean():
    for bad in (
        {"generator": "harmonic", "params": {"limit": 0.0, "coeff": 3.0}},  # no such parameter
        {"generator": "zero", "params": {"value": 0.0}},
        {"params": {"value": 5.0}},  # parameters without a generator
        {"liminf": 0.0, "limsup": 0.0, "generator": "constant", "params": {"value": 5.0}},
        {"liminf": -1.0, "limsup": 1.0, "generator": "zero"},
        {"liminf": 0.0, "limsup": 1.0, "generator": "alt_harmonic", "params": {"lower": 0.5}},
    ):
        with pytest.raises(ValueError):
            DiagSpec(**bad)
    # each rule's band is (liminf a_n, limsup a_n), and the defaults fill in
    DiagSpec(liminf=5.0, limsup=5.0, generator="constant", params={"value": 5.0})
    DiagSpec(generator="constant")
    DiagSpec(generator="zero")
    DiagSpec(liminf=2.0, limsup=2.0, generator="harmonic", params={"limit": 2.0})
    DiagSpec(liminf=-1.0, limsup=1.0, generator="alt_harmonic")
    DiagSpec(liminf=0.5, limsup=3.0, generator="alt_harmonic", params={"upper": 0.5, "lower": 3.0})


def test_diag_spec_is_immutable_and_hashable():
    spec = DiagSpec(generator="harmonic", params={"coef": 1.0, "limit": 0.0})
    # the checks of construction cannot be bypassed afterwards
    with pytest.raises(TypeError):
        spec.params["limit"] = 5.0
    assert spec.params == (("coef", 1.0), ("limit", 0.0))
    # equal whatever the key order, and usable as a key
    same = DiagSpec(generator="harmonic", params={"limit": 0.0, "coef": 1.0})
    assert spec == same and hash(spec) == hash(same)
    assert len({spec, same, DiagSpec(generator="harmonic")}) == 2
    assert diag_scale(spec, 3).pos.tolist() == [1.0, 0.5, 1.0 / 3.0]


_SCALAR_RULES = {
    "constant": lambda n, p: p.get("value", 0.0),
    "zero": lambda n, p: 0.0,
    "harmonic": lambda n, p: p.get("limit", 0.0) + p.get("coef", 1.0) / n,
    "alt_harmonic": lambda n, p: ((p.get("upper", 1.0) if n % 2 == 1 else p.get("lower", -1.0))
                                  + 1.0 / ((n + 1) // 2)),
}


def _reference_diag_scale(spec, k):
    """(pos, neg) by a 64k-entry window of scalar-formula entries, ranked by
    sorting (value, index) pairs; a ranking entry in the window's late half
    would leave the window unproven."""
    window = [spec.head[n - 1] if n <= len(spec.head)
              else _SCALAR_RULES[spec.generator](n, dict(spec.params))
              for n in range(1, 64 * k + 1)]
    up = sorted(((v, i) for i, v in enumerate(window) if v > spec.limsup),
                key=lambda t: (-t[0], t[1]))
    down = sorted(((v, i) for i, v in enumerate(window) if v < spec.liminf),
                  key=lambda t: (t[0], t[1]))
    assert all(i < len(window) // 2 for _, i in up[:k] + down[:k])
    pos = np.array([up[i][0] if i < len(up) else spec.limsup for i in range(k)])
    neg = np.array([down[i][0] if i < len(down) else spec.liminf for i in range(k)])
    return pos, neg


def _random_consistent_spec(rng, rule, head_len):
    pool = (-2.0, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0)

    def draw():
        return float(rng.choice(pool)) if rng.random() < 0.7 else float(rng.normal())

    params = {"constant": lambda: {"value": draw()},
              "zero": dict,
              "harmonic": lambda: {"limit": draw(), "coef": draw()},
              "alt_harmonic": lambda: {"upper": draw(), "lower": draw()}}[rule]()
    # drop some parameters, so that their defaults are exercised too
    params = {key: v for key, v in params.items() if rng.random() < 0.8}
    lo, hi = spectra.GENERATORS[rule](np.arange(0), **params)[1]
    # a zero band may be declared with either sign; it is the rule's band all the same
    lo, hi = (-0.0 if v == 0.0 and rng.random() < 0.5 else v for v in (lo, hi))
    head = tuple(draw() for _ in range(head_len))
    return DiagSpec(head=head, liminf=lo, limsup=hi, generator=rule, params=params)


def test_diag_scale_is_exact():
    rng = np.random.default_rng(20261019)
    for rule in sorted(spectra.GENERATORS):
        for head_len in range(7):
            for k in (1, 50, *rng.integers(2, 50, size=4)):
                spec = _random_consistent_spec(rng, rule, head_len)
                sc = diag_scale(spec, int(k))
                pos, neg = _reference_diag_scale(spec, int(k))
                assert sc.pos.tobytes() == pos.tobytes(), (spec, k)
                assert sc.neg.tobytes() == neg.tobytes(), (spec, k)
                assert (sc.pos_tail, sc.neg_tail) == (spec.limsup, spec.liminf)


def test_diag_scale_fixture_at_the_horizon_cap():
    spec, _, _ = cli.load_file(str(Path(__file__).resolve().parent.parent
                                / "fixtures" / "diag_scale.diag"))
    k = cli._MAX_HORIZON
    sc = diag_scale(spec, k)
    assert np.array_equal(sc.pos, 1.0 + 1.0 / np.arange(1, k + 1))
    assert np.array_equal(sc.neg, np.full(k, -1.0))
    assert (sc.pos_tail, sc.neg_tail) == (1.0, -1.0)


def test_sequences_refuse_non_finite_values():
    # nan compares false with every ordering check, so it would pass them all
    for bad in ({"values": [math.nan]}, {"values": [2.0, math.inf]},
                {"values": [1.0], "tail": math.nan}, {"values": [], "tail": math.inf}):
        with pytest.raises(ValueError, match="finite"):
            SpreadSeq(**bad)
    good = {"pos": [1.0], "neg": [-1.0], "pos_tail": 0.0, "neg_tail": 0.0, "K": 1}
    for key, value in (("pos", [math.nan]), ("neg", [-math.inf]), ("pos_tail", math.nan),
                       ("neg_tail", -math.inf)):
        with pytest.raises(ValueError, match="finite"):
            TwoSidedSeq(**{**good, key: value})
    TwoSidedSeq(**good)


def test_mode_gate():
    with pytest.raises(ModeError):
        SpreadSeq(values=[1.0], mode="banana")
