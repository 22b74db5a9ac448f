"""Scale equivariance: no verdict changes when every input is scaled.

Every inequality of the family is positively homogeneous (Spr+(cA) =
|c| Spr+(A), s(cX) = |c| s(X)), and every gate and comparison of the
verifiers and of the property judges is made at linalg._tol of its operands'
size, so a verdict read at c = 10^j, j = -12..12, must equal the one read at
c = 1. Operands that scaling would take out of their hypothesis class stay
fixed: a projection P, a unitary, and the contractions S, C of a splitting
C*C + S*S = P.
"""

import inspect

import numpy as np
import pytest

from sspread import NotHermitian, NotPositive, SpreadSeq, as_hermitian, ineq, submajorizes
from sspread.harness import PROPERTIES, VERIFIERS, _groups, fixture_matrices
from sspread.linalg import _ct
from sspread.rng import _splitmix64_block

SCALES = np.array([10.0**j for j in range(-12, 13)])

# argument positions each id keeps fixed
FIXED = {
    "equiv1": {1},
    "equiv_compact1": {1},
    "agm_projection": {0, 1},
    "agm_pair": {0, 1},
    "agm_compact": {0, 1},
    "equiv5": {0, 1},
}


def _scaled(args, fixed=()):
    """Each stack argument tiled once per scale, (S*B, ...), scaled unless fixed;
    a scalar argument (a split, an absent E2) is shared as it is."""
    out = []
    for i, a in enumerate(args):
        if not isinstance(a, np.ndarray):
            out.append(a)
            continue
        tiled = np.concatenate([a] * len(SCALES))
        if i not in fixed:
            tiled = tiled * np.repeat(SCALES, len(a)).reshape((-1,) + (1,) * (a.ndim - 1))
        out.append(tiled)
    return out


def _columns(rows):
    ew = None if rows.entrywise is None else rows.entrywise[1]
    return rows.holds, ew


def _flips(kernel, args, fixed=()):
    """(scale, row) of every verdict that differs from its unit-scale value."""
    holds, ew = _columns(kernel(*args))
    s_holds, s_ew = _columns(kernel(*_scaled(args, fixed)))
    bad = s_holds.reshape(len(SCALES), -1) != holds
    if ew is not None:
        bad |= s_ew.reshape(len(SCALES), -1) != ew
    return [(float(SCALES[j]), int(r)) for j, r in zip(*np.nonzero(bad))]


def _kernel(name):
    """The kernel over stacks behind a public verifier."""
    return inspect.unwrap(getattr(ineq, name))


@pytest.mark.parametrize("ineq_id", sorted(VERIFIERS))
def test_registry_verdicts_are_scale_free(ineq_id):
    entry = VERIFIERS[ineq_id]
    kernel = _kernel(entry.check)
    seeds = _splitmix64_block(20211, 0, 50)
    flips = []
    for _, args in _groups(entry, seeds, 2, 8):
        flips += _flips(kernel, args, FIXED.get(ineq_id, ()))
    assert not flips, f"{len(flips)} verdicts flip, e.g. (scale, row) {flips[:5]}"


# argument positions each property keeps fixed: unitaries, projections and
# the multiplier c of spread_homogeneity (translation's shift c scales
# with A); an integer k is shared as it is
PROPERTY_FIXED = {
    "sv_unitary_invariance": {1, 2},
    "ky_fan_extremality": {2, 3, 4, 5},
    "interlacing": {1},
    "spread_homogeneity": {1},
}
# its inputs are projections, splittings and unitaries: none is homogeneous
NOT_HOMOGENEOUS = {"generator_contracts"}


def _property_holds(judge, args):
    return np.array([msg is None for msg in judge(*args)[1]])


@pytest.mark.parametrize("name", sorted(set(PROPERTIES) - NOT_HOMOGENEOUS))
def test_property_verdicts_are_scale_free(name):
    prop = PROPERTIES[name]
    seeds = _splitmix64_block(20211, 0, 50)
    hi = min(prop.hi, 8)
    flips = []
    for _, args in _groups(prop, seeds, min(max(prop.lo, 2), hi), hi):
        holds = _property_holds(prop.judge, args)
        scaled = _property_holds(prop.judge, _scaled(args, PROPERTY_FIXED.get(name, ())))
        bad = scaled.reshape(len(SCALES), -1) != holds
        flips += [(float(SCALES[j]), int(r)) for j, r in zip(*np.nonzero(bad))]
    assert not flips, f"{len(flips)} verdicts flip, e.g. (scale, row) {flips[:5]}"


def _stack(*mats):
    return [np.asarray(m, dtype=np.complex128)[None] for m in mats]


def test_fixture_failures_hold_at_every_scale():
    m = fixture_matrices("kittaneh-fail")
    rows = _kernel("check_mixed_commutator")(*_scaled(_stack(m["A"], m["B"], m["X"])))
    assert rows.holds.all() and not rows.entrywise[1].any()

    m = fixture_matrices("agm-fail-3x3")
    rows = _kernel("check_agm_general")(*_scaled(_stack(m["A"], m["B"], m["E"])))
    assert rows.holds.all() and not rows.entrywise[1].any()

    m = fixture_matrices("agm-fail-2x2")
    rows = _kernel("check_agm_compact")(*_scaled(_stack(m["S"], m["C"], m["E"]), {0, 1}))
    assert rows.holds.all()
    assert not any(rows.verdict(i).extras["fro"]["identity_ok"] for i in range(len(SCALES)))


def test_small_relations_are_judged_at_their_own_scale():
    assert not submajorizes([2e-10], [1e-10]).holds
    assert not submajorizes([2e10], [1e10]).holds
    # a diag tail above the bound's tail is a violation at any scale
    rep = submajorizes(SpreadSeq([2e-10], tail=2e-10, mode="diag"),
                       SpreadSeq([2e-10], tail=1e-10, mode="diag"))
    assert rep.tail_verdict == "tail_violated" and not rep.holds
    # and a relative excess of 5e-15 is rounding, not a violation
    rep = submajorizes(SpreadSeq([2e10], tail=2e10, mode="diag"),
                       SpreadSeq([2e10], tail=2e10 - 1e-4, mode="diag"))
    assert rep.tail_verdict == "conclusive" and rep.holds


@pytest.mark.parametrize("c", [1.0, 1e-6, 1e-12])
def test_gates_are_relative_at_every_scale(c):
    with pytest.raises(NotHermitian):
        as_hermitian(c * np.array([[1.0, 1.0 + 1e-3], [1.0, 1.0]]))
    with pytest.raises(NotPositive):
        ineq.check_tao_positive(c * np.diag([1.0, -1e-3]))


def test_all_zero_operands_get_tolerance_zero():
    v = ineq.check_key(np.zeros((4, 4)))
    assert v.holds and v.report.tol == 0.0 and v.report.min_margin() == 0.0
    v = ineq.check_zhan(np.zeros((3, 3)), np.zeros((3, 3)))
    assert v.holds and v.report.tol == 0.0
    v = ineq.check_mixed_commutator(np.zeros((2, 2)), np.zeros((3, 3)), np.zeros((2, 3)))
    assert v.holds and v.entrywise_holds and v.report.tol == 0.0
    rep = submajorizes([0.0, 0.0], [0.0, 0.0])
    assert rep.holds and rep.tol == 0.0


# -- degenerate equality cases ---------------------------------------------------
# Both sides of each instance vanish, or are equal, in exact arithmetic, so the
# computed margins are rounding noise of the operands' size; a tolerance taken
# from the computed bound, which cancels too, would fail them.

DRAWS = 50


def _unitaries(rng, n, d):
    g = rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
    return np.linalg.qr(g)[0]


def _diag(x):
    return x[..., :, None] * np.eye(x.shape[-1])


def _cut(rng, n, d):
    """A 0/1 mask per draw whose first r entries are 1, r in [1, d-1]."""
    r = rng.integers(1, d, size=n)
    return (np.arange(d) < r[:, None]).astype(float)


def _hermitians(rng, n, d):
    g = rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
    return (g + _ct(g)) / 2.0


def _trace_null_product(rng, d):
    # A >= 0 and B <= 0 on complementary eigenspaces: AB = 0
    v, mask = _unitaries(rng, DRAWS, d), _cut(rng, DRAWS, d)
    w = rng.uniform(0.5, 2.0, size=(DRAWS, d))
    a = v @ _diag(w * mask) @ _ct(v)
    b = -(v @ _diag(w[:, ::-1] * (1.0 - mask)) @ _ct(v))
    return _kernel("check_trace_pairing"), (a, b), ()


def _splitting_off_support(rng, d, positive):
    # C*C + S*S = P and E lives on range(I - P): SE = 0 and PEP = 0
    v, mask = _unitaries(rng, DRAWS, d), _cut(rng, DRAWS, d)
    theta = rng.uniform(0.0, np.pi / 2.0, size=(DRAWS, d))
    w = _ct(v) if positive else _unitaries(rng, DRAWS, d)
    c = v @ _diag(np.cos(theta) * mask) @ w
    s = v @ _diag(np.sin(theta) * mask) @ w
    q = _ct(w) @ _diag(1.0 - mask)
    e = q @ _hermitians(rng, DRAWS, d) @ _ct(q)
    if positive:
        return _kernel("check_agm_pair"), (s, c, e), (0, 1)
    return _kernel("check_agm_projection"), (s, c, e), (0, 1)


def _agm_common_null(rng, d):
    # A and B vanish on one subspace N and E lives on N: AEB* = 0, G = 0
    v, mask = _unitaries(rng, DRAWS, d), _cut(rng, DRAWS, d)
    keep = v @ _diag(mask) @ _ct(v)
    null = v @ _diag(1.0 - mask)
    a = _hermitians(rng, DRAWS, d) @ keep
    b = (rng.standard_normal((DRAWS, d, d)) + 0j) @ keep
    e = null @ _hermitians(rng, DRAWS, d) @ _ct(null)
    return _kernel("check_agm_general"), (a, b, e), ()


def _key_offdiag(rng, d):
    # A = [[0, B], [B*, 0]] has spread exactly 2 s(B)
    split = int(rng.integers(1, d))
    g = rng.standard_normal((DRAWS, split, d - split)) + 1j * rng.standard_normal(
        (DRAWS, split, d - split))
    a = np.zeros((DRAWS, d, d), dtype=np.complex128)
    a[:, :split, split:] = g
    a[:, split:, :split] = _ct(g)
    return _kernel("check_key"), (a, split), ()


DEGENERATE = {
    "trace_pairing": _trace_null_product,
    "agm_projection": lambda rng, d: _splitting_off_support(rng, d, False),
    "agm_pair": lambda rng, d: _splitting_off_support(rng, d, True),
    "agm_general": _agm_common_null,
    "key": _key_offdiag,
}


@pytest.mark.parametrize("name", sorted(DEGENERATE))
def test_degenerate_equality_holds_at_every_scale(name):
    rng = np.random.default_rng(20210617)
    for d in range(2, 9):
        kernel, args, fixed = DEGENERATE[name](rng, d)
        rows = kernel(*_scaled(args, fixed))
        bad = np.flatnonzero(~rows.holds)
        assert not bad.size, (
            f"d={d}: {bad.size} of {rows.holds.size} fail, first at scale "
            f"{SCALES[bad[0] // DRAWS]:.0e}, margin {rows.margin[bad[0]]:.3e}")
