"""Outside input is validated at the public boundary.

The verifiers and the linalg/spectra entry points check their arguments once
and then run on unchecked private helpers. These tests feed each public entry
point one bad argument at a time: a non-finite entry must raise ValueError,
and a non-Hermitian matrix where a Hermitian one (or a projection, or a
positive operator) is required must raise NotHermitian. A verifier validates
its operands in parameter order, naming the one that fails, and then runs
its kernel's own gates (positivity, a splitting's sum, shapes), so given two
bad arguments it reports the one that order reaches first. A kernel
validates none of its stacks again: on the fuzz path only the gates of the
operands it computes run.
"""

import inspect
import warnings

import numpy as np
import pytest

from sspread import (NotHermitian, NotPositive, SpreadError, compact_scale, eigh, harness, ineq,
                     linalg, sv_array)
from sspread.harness import _crandn, _hermitian, _partition, _positive, _projection
from sspread.rng import Stream

D = 4


def _herm(seed, d=D):
    return _hermitian(Stream(seed), d)


def _pos(seed, d=D):
    return _positive(Stream(seed), d)


def _gen(seed, rows=D, cols=D):
    n = max(rows, cols)
    return _crandn(Stream(seed), n, n)[:rows, :cols]


def _proj(seed):
    return _projection(Stream(seed), D)


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
# Every gate runs member by member: a stack whose member 1 is bad, passed
# through the gate its kernel's signature declares for it and then through
# the kernel's own gates (positivity, a splitting's sum), raises what the
# public call on that member raises, message and operand name included.

_KERNEL_CASES = {n: c for n, c in CASES.items() if n not in _LINALG}


def _outcome(fn, *args):
    try:
        fn(*args)
    except Exception as exc:  # the class and message are what is compared
        return type(exc), str(exc)
    return None


def _gated(kernel, *stacks):
    """The kernel on stacks that first pass, in parameter order, the gate of
    the class each parameter's annotation declares, a gate's error prefixed
    by the operand's name in upper case."""
    checked = []
    for p, stack in zip(inspect.signature(kernel).parameters.values(), stacks):
        gate = ineq._GATES[p.annotation.removesuffix(" | None")]
        try:
            checked.append(gate(stack))
        except (ValueError, SpreadError) as exc:
            raise type(exc)(f"{p.name.upper()}: {exc}") from None
    return kernel(*checked)


def _stacked_outcome(name, bad_args, bad_too=None):
    """Outcome of the gated kernel on three-member stacks: member 0 is the
    valid instance, member 1 the bad one, member 2 valid or `bad_too`."""
    good = CASES[name][0]()
    last = good if bad_too is None else bad_too
    stacks = [np.stack([np.asarray(g, dtype=np.complex128), np.asarray(b, dtype=np.complex128),
                        np.asarray(z, dtype=np.complex128)])
              for g, b, z in zip(good, bad_args, last)]
    return _outcome(_gated, inspect.unwrap(getattr(ineq, name)), *stacks)


def _with(args, index, m):
    args = list(args)
    args[index] = m
    return args


def _bad_members():
    """(id, name, bad args, second bad args or None) for every kind of bad
    member: one each operand's class gate rejects, or a kernel's own gate."""
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


# the ids whose kernels validate an operand they compute, once per call: G
# for agm_general's, C*C + S*S as a projection for a splitting's
COMPUTED_GATES = {"agm_general", "equiv_compact2", "agm_projection", "agm_pair", "agm_compact",
                  "equiv5"}


@pytest.mark.parametrize("ineq_id", sorted(harness.VERIFIERS))
def test_fuzz_validates_only_computed_operands(monkeypatch, ineq_id):
    # fuzz draws every operand in its class, so no kernel validates one again;
    # every validator enters linalg._as_cmatrices, under any name it is called
    entered, kernel_calls = [], []
    real = linalg._as_cmatrices

    def as_cmatrices(*args, **kwargs):
        entered.append(1)
        return real(*args, **kwargs)

    for mod in (linalg, ineq):
        monkeypatch.setattr(mod, "_as_cmatrices", as_cmatrices, raising=False)
    name = harness.VERIFIERS[ineq_id].check
    kernel = inspect.unwrap(getattr(ineq, name))

    def counted(*args):
        kernel_calls.append(1)
        return kernel(*args)

    def public(*args, **kwargs):
        raise AssertionError("fuzz runs the kernel, not the public verifier")

    public.__wrapped__ = counted
    monkeypatch.setattr(ineq, name, public)
    harness.fuzz(ineq_id, trials=20)
    assert kernel_calls
    assert len(entered) == (len(kernel_calls) if ineq_id in COMPUTED_GATES else 0)


# -- error precedence ------------------------------------------------------------
# Two bad arguments at once: the operands are validated in parameter order,
# then the kernel's own gates run, and these outcomes, class and message, are
# pinned.

_MULTI = sorted(n for n, (make, _) in _KERNEL_CASES.items() if len(make()) > 1)


def _faulted(name, faults):
    """CASES[name]'s valid arguments with the faults ((index, kind), ...)."""
    args = CASES[name][0]()
    for i, kind in faults:
        m = np.array(args[i], dtype=np.complex128)
        if kind == "non-hermitian":
            m[0, 1] += 0.5
        elif kind == "non-finite":
            m[0, 0] = np.nan
        elif kind == "mis-shaped":
            m = np.pad(m, ((0, 1), (0, 1)))  # a zero row and column keep every class
        else:
            m = -m  # non-positive
        args[i] = m
    return args


def _finite(operand):
    return ValueError, f"{operand}: matrix entries must be finite"


def _defect(operand, limit):
    return NotHermitian, f"{operand}: Hermitian defect 5.000e-01 exceeds {limit}"


def _operand(name, i):
    """The upper-case name of a verifier's argument i, as its errors give it."""
    return list(inspect.signature(_fn(name)).parameters)[i].upper()


PRECEDENCE = {
    # a non-Hermitian first argument with a non-finite second one: arguments
    # that need not be Hermitian (S, A, a general B) pass the first fault
    **{(name, ((0, "non-hermitian"), (1, "non-finite"))): out for name, out in {
        "check_agm_compact": _finite("C"),
        "check_agm_general": _finite("B"),
        "check_agm_pair": _defect("S", "5.421e-13"),
        "check_agm_projection": _finite("C"),
        "check_commutator_scale": _defect("A", "1.805e-12"),
        "check_commutator_sv": _defect("A", "1.805e-12"),
        "check_general_commutator": _finite("B"),
        "check_identity_split": _finite("C"),
        "check_mixed_commutator": _defect("A", "1.805e-12"),
        "check_offdiag_compact": _defect("E", "1.805e-12"),
        "check_offdiag_projection": _defect("E", "1.805e-12"),
        "check_trace_pairing": _defect("A", "1.805e-12"),
        "check_unitary_conj": _defect("A", "1.805e-12"),
        "check_zhan": _defect("E", "1.805e-12"),
        "control_bhatia_kittaneh": _finite("B"),
        "control_kittaneh_positive": _defect("C", "6.842e-12"),
    }.items()},
    # a non-Hermitian third argument with a non-finite first one: the first
    # is validated first
    **{(name, ((2, "non-hermitian"), (0, "non-finite"))): out for name, out in {
        "check_agm_compact": _finite("S"),
        "check_agm_general": _finite("A"),
        "check_agm_pair": _finite("S"),
        "check_agm_projection": _finite("S"),
        "check_general_commutator": _finite("A"),
        "check_identity_split": _finite("S"),
        "check_mixed_commutator": _finite("A"),
        "control_kittaneh_positive": _finite("C"),
    }.items()},
    # a non-finite argument with a mis-shaped one, in either order: shapes are
    # compared only after every operand is validated
    **{(name, faults): _finite(_operand(name, bad)) for name in _MULTI
       for bad, faults in ((0, ((0, "non-finite"), (1, "mis-shaped"))),
                           (1, ((0, "mis-shaped"), (1, "non-finite"))))},
    # a non-positive S, C or D with a wrongly shaped E1 or X: the gate comes first
    ("check_agm_pair", ((0, "non-positive"), (2, "mis-shaped"))):
        (NotPositive, "S has eigenvalue -4.728e-01"),
    ("check_agm_pair", ((1, "non-positive"), (2, "mis-shaped"))):
        (NotPositive, "C has eigenvalue -9.696e-01"),
    ("control_kittaneh_positive", ((0, "non-positive"), (2, "mis-shaped"))):
        (NotPositive, "C has eigenvalue -8.633e+00"),
    ("control_kittaneh_positive", ((1, "non-positive"), (2, "mis-shaped"))):
        (NotPositive, "D has eigenvalue -4.437e+00"),
}


def test_precedence_covers_every_multi_argument_verifier():
    assert {name for name, _ in PRECEDENCE} == set(_MULTI)


@pytest.mark.parametrize("name, faults", sorted(PRECEDENCE),
                         ids=[f"{n}-" + "-".join(f"{k}{i}" for i, k in f)
                              for n, f in sorted(PRECEDENCE)])
def test_two_faults_raise_in_validation_order(name, faults):
    assert _outcome(_fn(name), *_faulted(name, faults)) == PRECEDENCE[name, faults]


def test_keyword_operands_are_validated_in_parameter_order():
    faults = ((0, "non-hermitian"), (1, "non-finite"))
    e, f = _faulted("check_zhan", faults)
    assert _outcome(lambda: ineq.check_zhan(f=f, e=e)) == PRECEDENCE["check_zhan", faults]


# -- non-finite margins ------------------------------------------------------------
# Finite operands whose scale overflows a claim's arithmetic: the kernel's
# judged margin (or its tol) comes out NaN or infinite, and the public verifier
# stops at the first overflow and raises an input error naming the claim by its
# verdict id instead of a NaN or a vacuous verdict. The kernels stay unguarded;
# fuzz draws at unit scale.

OVERFLOW = r"(overflow|invalid value) encountered in \w+: the operands' scale overflows the claim$"

# id: (the trial rebuilt, the operands scaled, their scale, the kernel's margin)
OVERFLOWS = {
    "trace_pairing": (("trace_pairing", 3, (4, 4)), (0, 1), 1e200, "nan"),
    "control_strict_gap": (("control_strict_gap", 3, (4, 4)), (0,), 1e200, "nan"),
    "unitary_conj": (("unitary_conj", 3, (4, 4)), (0, 1), 1e200, "inf"),
    "agm_pair": (("agm_pair", 1, (3, 3)), (2,), 6e307, "inf"),  # E1; S, C a splitting
}


@pytest.mark.parametrize("claim", sorted(OVERFLOWS))
def test_overflowing_scale_names_the_claim(claim):
    trial, scaled, scale, margin = OVERFLOWS[claim]
    args = list(harness.trial_args(*trial))
    for i in scaled:
        args[i] = scale * args[i]
    check = getattr(ineq, harness.VERIFIERS[claim].check)
    with np.errstate(all="ignore"):
        rows = inspect.unwrap(check)(*(None if a is None else a[None] for a in args))
        assert str(rows.margin[0]) == margin
        with pytest.raises(ValueError, match=f"^{claim}: {OVERFLOW}"):
            check(*args)


# id: (the trial rebuilt, the scale of every operand, the verdict id)
STOPPED = {
    "general_commutator": (("general_commutator", 3, (4, 4)), 1e200, "general_commutator"),
    # tr F max|E| overflows, and with it R E R*
    "agm_general": (("agm_general", 1, (2, 8)), 2.0**400, "agm_general"),
    "equiv_compact2": (("equiv_compact2", 1, (2, 8)), 2.0**400, "agm_general"),
}


@pytest.mark.parametrize("ineq_id", sorted(STOPPED))
def test_overflow_stops_the_public_verifier(ineq_id):
    # stopped at the first overflow: no NoConvergence, no gate's message,
    # and no RuntimeWarning before the error
    trial, scale, verdict_id = STOPPED[ineq_id]
    args = [scale * a for a in harness.trial_args(*trial)]
    check = getattr(ineq, harness.VERIFIERS[ineq_id].check)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match=f"^{verdict_id}: {OVERFLOW}"):
            check(*args)
    assert caught == []


def test_a_non_finite_margin_meets_the_backstop():
    # finite operands whose overflow only LAPACK meets, which runs with
    # overflow ignored: A's eigenvalue 2e308 is inf, so the spread of A oplus
    # B and the tol are inf, while s(AX - XB) is finite. No error state
    # reports it: the margin check names the claim, after no RuntimeWarning
    args = (np.full((2, 2), 1e308), np.eye(2), 1e-300 * np.ones((2, 2)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError) as exc:
            ineq.check_mixed_commutator(*args)
    assert str(exc.value) == ("mixed_commutator: the judged margin is inf at tol inf: "
                              "the operands' scale overflows the claim")
    assert caught == []


@pytest.mark.parametrize("ineq_id", sorted(harness.VERIFIERS))
def test_overflow_error_names_the_verdict_id(ineq_id, monkeypatch):
    # the id an overflow names is the one the verifier's verdicts carry
    args = harness.trial_args(ineq_id, 1)
    check = getattr(ineq, harness.VERIFIERS[ineq_id].check)
    verdict_id = check(*args).ineq_id

    def overflow(role, a):
        raise FloatingPointError("overflow encountered in multiply")

    monkeypatch.setattr(ineq, "_operand", overflow)
    with pytest.raises(ValueError, match=f"^{verdict_id}: {OVERFLOW}"):
        check(*args)
