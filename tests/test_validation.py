"""Outside input is validated at the public boundary.

The verifiers and the linalg/spectra entry points check their arguments once
and then run on unchecked private helpers. These tests feed each public entry
point one bad argument at a time: a non-finite entry must raise ValueError,
and a non-Hermitian matrix where a Hermitian one (or a projection, or a
positive operator) is required must raise NotHermitian.
"""

import inspect

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


# -- stacks ----------------------------------------------------------------------
# A kernel validates a stack member by member: a stack whose member 1 is bad
# raises what the public call on that member raises, message included.

_KERNEL_CASES = {n: c for n, c in CASES.items() if n not in _LINALG}


def _outcome(fn, *args):
    try:
        fn(*args)
    except Exception as exc:  # the class and message are what is compared
        return type(exc), str(exc)
    return None


def _stacked_outcome(name, bad_args, bad_too=None):
    """Outcome of the kernel on three-member stacks: member 0 is the valid
    instance, member 1 the bad one, member 2 valid or `bad_too`."""
    good = CASES[name][0]()
    last = good if bad_too is None else bad_too
    stacks = [np.stack([np.asarray(g, dtype=np.complex128), np.asarray(b, dtype=np.complex128),
                        np.asarray(z, dtype=np.complex128)])
              for g, b, z in zip(good, bad_args, last)]
    return _outcome(inspect.unwrap(getattr(ineq, name)), *stacks)


def _with(args, index, m):
    args = list(args)
    args[index] = m
    return args


def _bad_members():
    """(name, bad args, second bad args or None) for every kind of bad member."""
    for name, (make, herm) in _KERNEL_CASES.items():
        args = make()
        for i in range(len(args)):
            m = np.array(args[i], dtype=np.complex128)
            m[0, 0] = np.nan
            yield f"{name}-nan-{i}", name, _with(args, i, m), None
        for i in herm:
            m1 = np.array(args[i], dtype=np.complex128)
            m2 = m1.copy()
            m1[0, 1] += 0.5
            m2[0, 1] += 0.9
            yield f"{name}-hermitian-{i}", name, _with(args, i, m1), _with(args, i, m2)
    pos = {"check_tao_positive": [0], "check_agm_pair": [0, 1],
           "control_kittaneh_positive": [0, 1], "control_strict_gap": [0]}
    for name, indices in pos.items():
        args = CASES[name][0]()
        for i in indices:
            flipped = -np.asarray(args[i]) if name != "control_strict_gap" else np.abs(args[i])
            yield f"{name}-gate-{i}", name, _with(args, i, flipped), None
    for name in ("check_agm_projection", "check_agm_pair", "check_agm_compact",
                 "check_identity_split"):
        args = CASES[name][0]()
        yield f"{name}-splitting", name, _with(args, 0, 2.0 * np.asarray(args[0])), None
    for name in ("check_offdiag_projection", "check_offdiag_compact"):
        args = CASES[name][0]()
        yield f"{name}-projection", name, _with(args, 1, np.diag([1.0, 0.5, 0.0, 0.0])), None


_BAD = list(_bad_members())


@pytest.mark.parametrize("name, bad, bad_too", [c[1:] for c in _BAD], ids=[c[0] for c in _BAD])
def test_stack_with_one_bad_member_raises_like_the_member(name, bad, bad_too):
    expected = _outcome(_fn(name), *bad)
    assert expected is not None, "the bad member must be rejected on its own"
    assert _stacked_outcome(name, bad, bad_too) == expected


@pytest.mark.parametrize("name", sorted(_KERNEL_CASES))
def test_stack_shape_mismatch_raises_like_the_member(name):
    # one argument's members one size larger (a zero row and column keep
    # every matrix class): where the public call rejects the mismatch, so
    # does the kernel, with the same class and message
    args = CASES[name][0]()
    checked = 0
    for i in range(len(args)):
        grown = _with(args, i, np.pad(np.asarray(args[i], dtype=np.complex128), ((0, 1), (0, 1))))
        expected = _outcome(_fn(name), *grown)
        if expected is None:
            continue
        checked += 1
        stacks = [np.stack([np.asarray(a, dtype=np.complex128)] * 3) for a in grown]
        assert _outcome(inspect.unwrap(getattr(ineq, name)), *stacks) == expected
    if len(args) > 1:
        assert checked, "some argument of a multi-argument verifier must be size-checked"
