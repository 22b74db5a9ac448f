"""Outside input is validated at the public boundary.

The verifiers and the linalg/spectra entry points check their arguments once
and then run on unchecked private helpers. These tests feed each public entry
point one bad argument at a time: a non-finite entry must raise ValueError,
and a non-Hermitian matrix where a Hermitian one (or a projection, or a
positive operator) is required must raise NotHermitian.
"""

import numpy as np
import pytest

from sspread import NotHermitian, compact_scale, eigh, ineq, sv_array
from sspread.harness import GenSpec, _partition, generate
from sspread.rng import Stream

D = 4


def _herm(seed, d=D):
    return generate(GenSpec(kind="hermitian", dim=d, seed=seed))


def _pos(seed, d=D):
    return generate(GenSpec(kind="positive", dim=d, seed=seed))


def _gen(seed, rows=D, cols=D):
    return generate(GenSpec(kind="complex_general", dim=max(rows, cols), seed=seed))[:rows, :cols]


def _proj(seed):
    return generate(GenSpec(kind="projection", dim=D, seed=seed))


def _split(positive=False, rank=None):
    c, s, _ = _partition(Stream(5), D, rank=rank, positive=positive)
    return s, c


def _indefinite():
    return np.diag([2.0, 0.5, -0.5, -1.0]).astype(np.complex128)


# entry point -> (valid arguments, indices of arguments that must be Hermitian)
CASES = {
    "check_tao_positive": (lambda: [_pos(1)], [0]),
    "check_key": (lambda: [_herm(1)], [0]),
    "check_trace_pairing": (lambda: [_herm(1), _herm(2)], [0, 1]),
    "check_commutator_scale": (lambda: [_herm(1), _herm(2)], [0, 1]),
    "check_commutator_sv": (lambda: [_herm(1), _herm(2)], [0, 1]),
    "check_mixed_commutator": (lambda: [_herm(1), _herm(2, 3), _gen(3, D, 3)], [0, 1]),
    "check_general_commutator": (lambda: [_gen(1), _gen(2, 3, 3), _gen(3, D, 3)], []),
    "check_unitary_conj": (lambda: [_herm(1), _herm(2)], [0, 1]),
    "check_agm_projection": (lambda: [*_split(), _herm(3)], [2]),
    "check_agm_pair": (lambda: [*_split(positive=True), _herm(3), _herm(4)], [0, 1, 2, 3]),
    "check_agm_compact": (lambda: [*_split(), _herm(3)], [2]),
    "check_agm_general": (lambda: [_gen(1), _gen(2), _herm(3)], [2]),
    "check_zhan": (lambda: [_herm(1), _herm(2)], [0, 1]),
    "check_offdiag_projection": (lambda: [_herm(1), _proj(2)], [0, 1]),
    "check_offdiag_compact": (lambda: [_herm(1), _proj(2)], [0, 1]),
    "check_identity_split": (lambda: [*_split(rank=D), _herm(3)], [2]),
    "control_kittaneh_positive": (lambda: [_pos(1), _pos(2, 3), _gen(3, D, 3)], [0, 1]),
    "control_bhatia_kittaneh": (lambda: [_gen(1), _gen(2)], []),
    "control_strict_gap": (lambda: [_indefinite()], [0]),
    "eigh": (lambda: [_herm(1)], [0]),
    "sv_array": (lambda: [_gen(1, D, 3)], []),
    "compact_scale": (lambda: [_herm(1)], [0]),
}

_LINALG = {"eigh": eigh, "sv_array": sv_array, "compact_scale": compact_scale}


def _fn(name):
    return _LINALG[name] if name in _LINALG else getattr(ineq, name)


def test_every_public_verifier_is_covered():
    public = {n for n in vars(ineq) if n.startswith(("check_", "control_"))}
    assert public == set(CASES) - set(_LINALG)


def test_valid_arguments_are_accepted():
    for name, (make, _) in CASES.items():
        _fn(name)(*make())


_NONFINITE = [
    (name, i, bad)
    for name, (make, _) in CASES.items()
    for i in range(len(make()))
    for bad in (np.nan, np.inf)
]
_NON_HERMITIAN = [(name, i) for name, (_, herm) in CASES.items() for i in herm]


@pytest.mark.parametrize("name, index, bad", _NONFINITE)
def test_nonfinite_entry_raises_value_error(name, index, bad):
    args = CASES[name][0]()
    m = np.array(args[index], dtype=np.complex128)
    m[0, 0] = bad
    args[index] = m
    with pytest.raises(ValueError):
        _fn(name)(*args)


@pytest.mark.parametrize("name, index", _NON_HERMITIAN)
def test_non_hermitian_raises_not_hermitian(name, index):
    args = CASES[name][0]()
    m = np.array(args[index], dtype=np.complex128)
    m[0, 1] += 0.5
    args[index] = m
    with pytest.raises(NotHermitian):
        _fn(name)(*args)
