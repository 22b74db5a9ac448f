"""Verdicts against their literal reference forms in reference.py: the same
holds, and margins within the claim's tolerance of the literal ones."""

import numpy as np
import pytest

import reference
from sspread import ineq
from sspread.examples import fixture_matrices
from sspread.harness import _crandn, _hermitian, _positive, _projection, trial_args
from sspread.rng import Stream


def _agm_general_agrees(a, b, e) -> bool:
    """Judge one agm_general instance by the kernel and by the literal G form
    and assert they agree; for a positive E, also assert that the
    E^(1/2) F E^(1/2) form agrees with the G form. Returns whether E is
    positive."""
    v = ineq.check_agm_general(a, b, e)
    ref, entrywise = reference.agm_general(a, b, e)
    tol = ref.tol / len(ref.margins)  # without the count of partial sums
    assert v.holds == ref.holds
    assert v.report.tol == pytest.approx(ref.tol, rel=1e-12)
    assert np.max(np.abs(v.report.margins_upper - ref.margins)) <= ref.tol
    assert np.max(np.abs(v.entrywise_margins - entrywise)) <= tol
    if not reference.is_positive(e):
        return False
    cross = reference.agm_general_positive(a, b, e)
    assert cross.holds == ref.holds
    assert np.max(np.abs(cross.margins - ref.margins)) <= tol
    return True


@pytest.mark.parametrize("dims", [(2, 8), (12, 16)], ids=["2..8", "12..16"])
def test_agm_general_matches_its_literal_forms(dims):
    positive = [_agm_general_agrees(*trial_args("agm_general", seed, dims))
                for seed in range(1, 21)]
    # the family draws E positive or indefinite with equal odds
    assert sum(positive) >= 5 and not all(positive)


def test_agm_general_positive_instance_matches_both_forms():
    a, b = _crandn(Stream(51), 3, 3), _crandn(Stream(52), 3, 3)
    e = _positive(Stream(53), 3)
    assert ineq.check_agm_general(a, b, e).holds
    assert _agm_general_agrees(a, b, e)


@pytest.mark.parametrize("positive", [True, False], ids=["positive E", "indefinite E"])
def test_agm_general_singular_f_matches_its_literal_forms(positive):
    # A and B vanish on one subspace, the kernel of a projection P, so
    # F = P (A*A + B*B) P is singular and G = F^(1/2) E F^(1/2) vanishes there
    draw = _positive if positive else _hermitian
    for seed in range(1, 11):
        d = 2 + seed % 6
        p = _projection(Stream(seed), d, rank=1 + seed % (d - 1))
        a, b = _crandn(Stream(100 + seed), d, d) @ p, _crandn(Stream(200 + seed), d, d) @ p
        e = draw(Stream(300 + seed), d)
        assert _agm_general_agrees(a, b, e) == positive


def test_agm_general_fixture_matches_its_literal_form():
    m = fixture_matrices("agm-fail-3x3")
    assert not _agm_general_agrees(m["A"], m["B"], m["E"])  # E is indefinite
