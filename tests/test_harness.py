"""Generator determinism, fuzz reproducibility, and fixture reproduction."""

import dataclasses
import inspect
import math
import sys

import numpy as np
import pytest

import sspread
from sspread import (
    UnknownExample, UnknownInequality, cli, harness, ineq, linalg, properties, spectra,
)
from sspread.examples import EXAMPLE_IDS, fixture_matrices, repro
from sspread.harness import (
    VERIFIERS, _crandn, _hermitian, _partition, _positive, _projection, _unitary, fuzz,
    trial_args,
)
from sspread.properties import PROPERTIES, property_suite
from sspread.rng import Stream, _splitmix64_block, derive_seed


def test_generate_is_deterministic():
    def gen_general(stream, d):
        return _crandn(stream, d, d)

    for gen in (_hermitian, _positive, _unitary, _projection, gen_general):
        a = gen(Stream(123), 5)
        b = gen(Stream(123), 5)
        assert np.array_equal(a, b), gen.__name__
        c = gen(Stream(124), 5)
        assert not np.array_equal(a, c), gen.__name__


def test_generator_contracts():
    h = _hermitian(Stream(1), 6)
    assert np.allclose(h, h.conj().T, atol=0.0)
    p = _positive(Stream(2), 6)
    assert np.min(np.linalg.eigvalsh(p)) >= -1e-12
    u = _unitary(Stream(3), 6)
    assert np.allclose(u.conj().T @ u, np.eye(6), atol=1e-12)
    q = _projection(Stream(4), 6)
    assert np.allclose(q @ q, q, atol=1e-12)
    r = int(round(float(np.trace(q).real)))
    assert 1 <= r <= 5


def test_partition_isometry_contract():
    for positive in (False, True):
        c, s, p = _partition(Stream(9), 5, positive=positive)
        assert np.allclose(c.conj().T @ c + s.conj().T @ s, p, atol=1e-12)
        assert np.allclose(p @ p, p, atol=1e-12)
        if positive:
            assert np.min(np.linalg.eigvalsh((c + c.conj().T) / 2)) >= -1e-10
            assert np.allclose(c, c.conj().T, atol=1e-12)


def test_scale_parameter():
    a = _hermitian(Stream(5), 4, 1.0)
    b = _hermitian(Stream(5), 4, 3.0)
    assert np.allclose(3.0 * a, b, atol=1e-12)


def test_fixture_matrices_catalog():
    for ex in EXAMPLE_IDS:
        mats = fixture_matrices(ex)
        assert isinstance(mats, dict) and mats
    with pytest.raises(UnknownExample):
        fixture_matrices("nope")


def test_fixture_values_pinned():
    m = fixture_matrices("kittaneh-fail")
    assert np.array_equal(m["A"], np.eye(2, dtype=np.complex128))
    assert np.array_equal(m["B"], np.array([[1.0, 2.0], [2.0, 1.0]], dtype=np.complex128))
    assert np.array_equal(m["X"], np.array([[2.0, 1.0], [1.0, 2.0]], dtype=np.complex128))


def test_repro_all_examples_pass():
    for ex in EXAMPLE_IDS:
        rep = repro(ex)
        assert rep["example_id"] == ex
        assert rep["holds"], [c for c in rep["checks"] if not c["pass"]]
        for c in rep["checks"]:
            assert set(c) == {"name", "computed", "expected", "tol", "pass"}
    with pytest.raises(UnknownExample):
        repro("nope")


def test_fuzz_is_deterministic():
    s1 = fuzz("zhan", trials=25, dims=(2, 5), seed=11)
    s2 = fuzz("zhan", trials=25, dims=(2, 5), seed=11)
    assert s1.failures == s2.failures == 0
    assert s1.worst_margin == s2.worst_margin
    assert s1.worst_seed == s2.worst_seed
    s3 = fuzz("zhan", trials=25, dims=(2, 5), seed=12)
    assert s3.worst_seed != s1.worst_seed


def test_fuzz_worst_seed_replays():
    # the reported child seed alone rebuilds the worst instance
    summary = fuzz("key", trials=30, dims=(2, 6), seed=3)
    v = ineq.check_key(*trial_args("key", summary.worst_seed, (2, 6)))
    assert v.report.min_margin() == pytest.approx(summary.worst_margin, rel=1e-12)


def test_fuzz_child_seed_schedule():
    summary = fuzz("zhan", trials=5, dims=(2, 4), seed=77)
    children = {derive_seed(77, t) for t in range(5)}
    assert summary.worst_seed in children


def test_agm_pair_campaign_has_no_false_failure():
    # trial 31 of this campaign has a singular value near 2e-17; the old
    # sqrt(eig(X*X)) path put it at 1.24e-8 and failed the bound by 1.04e-8
    s = fuzz("agm_pair", trials=40, dims=(2, 8), seed=109000353)
    assert s.failures == 0
    assert s.worst_margin > 0.0


def _judged_margin(v):
    """The margin a campaign judges one verdict by."""
    if v.report is not None:
        return v.report.min_margin()
    if v.entrywise_margins is not None and len(v.entrywise_margins):
        return float(np.min(v.entrywise_margins))
    if "margin" in v.extras:
        return float(v.extras["margin"])
    return math.inf


def _campaign_one_call_per_trial(ineq_id, trials, dims, seed):
    """(failures, worst_margin, worst_seed) of a campaign run trial by trial
    through the public verifier."""
    check = getattr(ineq, VERIFIERS[ineq_id].check)
    failures, worst, worst_seed = 0, math.inf, 0
    for t in range(trials):
        ts = derive_seed(seed, t)
        v = check(*trial_args(ineq_id, ts, dims))
        failures += not v.holds
        m = _judged_margin(v)
        if m < worst:
            worst, worst_seed = m, ts
    return failures, worst, worst_seed


@pytest.mark.parametrize("dims", [(2, 8), (30, 33)])
@pytest.mark.parametrize("ineq_id", list(VERIFIERS))
def test_fuzz_report_does_not_depend_on_grouping(ineq_id, dims):
    # fuzz judges trials in shape groups through the kernels; a loop of
    # public calls, one trial at a time, must report exactly the same
    for seed in (1, 2, 3):
        s = fuzz(ineq_id, trials=60, dims=dims, seed=seed)
        got = (s.failures, s.worst_margin, s.worst_seed)
        assert got == _campaign_one_call_per_trial(ineq_id, 60, dims, seed), seed


def _bits(args) -> list:
    return [(a.shape, a.dtype.str, a.tobytes()) if isinstance(a, np.ndarray) else a
            for a in args]


@pytest.mark.parametrize("dims", [(2, 8), (30, 33)])
@pytest.mark.parametrize("ineq_id", list(VERIFIERS))
def test_grouped_draw_equals_batch_of_one_draw(ineq_id, dims):
    # fuzz draws each group of trials as one stack; row j of every stacked
    # argument must be, bit for bit, what trial_args draws for that trial's
    # child seed alone, as a batch of one
    entry = VERIFIERS[ineq_id]
    for seed in (1, 2, 3):
        seeds = _splitmix64_block(seed, 0, 40)
        drawn = []
        for index, args in harness._groups(entry, seeds, *harness._d_range(entry, dims)):
            for j, t in enumerate(index):
                row = tuple(a[j] if isinstance(a, np.ndarray) else a for a in args)
                assert _bits(row) == _bits(trial_args(ineq_id, int(seeds[t]), dims)), (seed, t)
            drawn.extend(index.tolist())
        assert sorted(drawn) == list(range(40))


@pytest.mark.parametrize("ineq_id", list(VERIFIERS))
def test_every_row_gets_its_own_verdict(ineq_id):
    # row i of a kernel's Rows must build, witness included, the verdict the
    # public verifier gives on that row's arguments alone
    entry = VERIFIERS[ineq_id]
    check = getattr(ineq, entry.check)
    kernel = inspect.unwrap(check)
    largest = 0
    for index, args in harness._groups(entry, _splitmix64_block(4, 0, 24), 2, 3):
        rows = kernel(*args)
        largest = max(largest, len(index))
        for j in range(len(index)):
            row = [a[j] if isinstance(a, np.ndarray) else a for a in args]
            got = cli.canonical_json(cli.verdict_to_dict(rows.verdict(j)))
            assert got == cli.canonical_json(cli.verdict_to_dict(check(*row))), (ineq_id, j)
    assert largest >= 3


def test_child_seeds_are_derive_seed():
    seeds = _splitmix64_block(2**64 + 77, 0, 50)
    assert seeds.tolist() == [derive_seed(77, t) for t in range(50)]


def test_trial_args_rejects_what_fuzz_rejects():
    with pytest.raises(UnknownInequality):
        trial_args("nope", 1)
    with pytest.raises(ValueError, match="d >= 2"):
        trial_args("zhan", 1, (1, 1))
    # the range is judged before the id is looked up, as the CLI's exit 2 needs
    with pytest.raises(ValueError, match="d >= 2"):
        trial_args("nope", 1, (1, 1))
    with pytest.raises(ValueError, match="d >= 2"):
        fuzz("nope", trials=1, dims=(1, 1))


def test_fuzz_report_does_not_depend_on_chunking(monkeypatch):
    ids = ("zhan", "tao_positive", "agm_pair", "mixed_commutator", "control_strict_gap")
    ref = {i: fuzz(i, trials=40, seed=5) for i in ids}
    # a budget of one entry closes every chunk after its first trial
    monkeypatch.setattr(harness, "FUZZ_CHUNK_ENTRIES", 1)
    for i, s in ref.items():
        one = fuzz(i, trials=40, seed=5)
        assert (one.failures, one.worst_margin, one.worst_seed) == (s.failures, s.worst_margin, s.worst_seed)


def test_fuzz_zero_trials():
    s = fuzz("zhan", trials=0, seed=1)
    assert s.trials == 0 and s.failures == 0
    assert s.worst_margin == 0.0
    # the property suite reduces an empty campaign by the same rule
    rep = property_suite(1, trials=0)
    assert rep["holds"] and len(rep["properties"]) == len(PROPERTIES)
    assert all((p["worst_margin"], p["detail"]) == (0.0, None) for p in rep["properties"])


def test_fuzz_unknown_family():
    with pytest.raises(UnknownInequality):
        fuzz("nope", trials=1)


def test_fuzz_covers_all_declared_families():
    bad = {}
    for fam in VERIFIERS:
        s = fuzz(fam, trials=2, dims=(2, 4), seed=2)
        if s.trials != 2 or s.failures:
            bad[fam] = s
    assert not bad, bad


# each refused range has its own message: no d >= 2, a lower bound below 1,
# an empty range
REFUSED_DIMS = {(1, 1): "d >= 2", (0, 1): "a >= 1", (5, 4): "a <= b",
                (0, 4): "a >= 1", (-3, 5): "a >= 1", (4, 2): "a <= b"}


@pytest.mark.parametrize("dims", [(1, 1), (0, 1), (5, 4)])
def test_fuzz_rejects_dims_without_d2(dims):
    # checked before the first trial, so even an empty campaign is refused
    for trials in (0, 1):
        with pytest.raises(ValueError, match=REFUSED_DIMS[dims]):
            fuzz("zhan", trials=trials, dims=dims)


@pytest.mark.parametrize("dims", [(0, 4), (-3, 5), (4, 2)])
def test_bounds_below_one_and_empty_ranges_are_refused(dims):
    # never a silently raised lower bound, and an empty range called empty
    msg = REFUSED_DIMS[dims]
    for trials in (0, 3):
        with pytest.raises(ValueError, match=f"^fuzz .*{msg}"):
            fuzz("key", trials=trials, dims=dims)
        with pytest.raises(ValueError, match=f"^property_suite .*{msg}"):
            property_suite(1, trials=trials, dims=dims)
    with pytest.raises(ValueError, match=f"^trial_args .*{msg}"):
        trial_args("key", 1, dims)


@pytest.mark.parametrize("dims", [(2, harness.MAX_DIM + 1), (2, 100000)])
def test_dims_above_max_are_refused(dims):
    # checked before any draw: a matrix of d = 100000 exhausts memory
    for trials in (0, 3):
        with pytest.raises(ValueError, match=f"up to {harness.MAX_DIM}"):
            fuzz("key", trials=trials, dims=dims)
        with pytest.raises(ValueError, match=f"up to {harness.MAX_DIM}"):
            property_suite(1, trials=trials, dims=dims)
    with pytest.raises(ValueError, match=f"up to {harness.MAX_DIM}"):
        trial_args("key", 1, dims)


@pytest.mark.parametrize("dims", [(1, 1), (0, 1), (5, 4)])
def test_property_suite_rejects_dims_without_d2(dims):
    for trials in (0, 1):
        with pytest.raises(ValueError, match=REFUSED_DIMS[dims]):
            property_suite(1, trials=trials, dims=dims)


def test_fuzz_raises_lower_bound_one_to_two():
    s1 = fuzz("zhan", trials=20, dims=(1, 2), seed=5)
    s2 = fuzz("zhan", trials=20, dims=(2, 2), seed=5)
    assert (s1.worst_margin, s1.worst_seed) == (s2.worst_margin, s2.worst_seed)


def test_property_suite_structure_and_determinism():
    rep1 = property_suite(4, trials=8, dims=(2, 5))
    rep2 = property_suite(4, trials=8, dims=(2, 5))
    assert rep1 == rep2
    assert rep1["holds"]
    assert rep1["seed"] == 4 and rep1["trials"] == 8
    names = [p["name"] for p in rep1["properties"]]
    assert names == sorted(names)
    assert len(names) == 26
    for p in rep1["properties"]:
        assert p["holds"], p
        assert p["detail"] is None


def test_property_suite_does_not_depend_on_chunking(monkeypatch):
    ref = property_suite(6, trials=12, dims=(2, 8))
    # a budget of one entry closes every chunk after its first trial
    monkeypatch.setattr(harness, "FUZZ_CHUNK_ENTRIES", 1)
    assert repr(property_suite(6, trials=12, dims=(2, 8))) == repr(ref)


@pytest.mark.parametrize("dims", [(2, 8), (1, 12)])
@pytest.mark.parametrize("name", sorted(PROPERTIES))
def test_property_rows_equal_trials_judged_alone(name, dims):
    # the suite draws and judges a property's trials in groups; each row must
    # be, bit for bit, what the trial drawn and judged on its own gives
    prop = PROPERTIES[name]
    seeds = _splitmix64_block(derive_seed(3, 17), 0, 30)
    holds, margin, detail = harness._rows(prop, prop.judge, seeds, dims)
    for t in range(len(seeds)):
        ok, one, msg = harness._rows(prop, prop.judge, seeds[t:t + 1], dims)
        assert (ok.tolist(), one.tobytes(), msg) == \
            (holds[t:t + 1].tolist(), margin[t:t + 1].tobytes(), detail[t:t + 1]), t


def test_scale_ordering_judges_a_drawn_spec_per_trial(monkeypatch):
    # each trial draws a DiagSpec and a horizon after its Hermitian matrix,
    # so the diag half judges many scales, and every row's margin stays 0.0
    seen = []

    def record(spec, k):
        seen.append((spec, k))
        return spectra.diag_scale(spec, k)

    monkeypatch.setattr(properties, "diag_scale", record)
    seeds = _splitmix64_block(derive_seed(2, 8), 0, 40)
    prop = PROPERTIES["scale_ordering"]
    _, margin, detail = harness._rows(prop, prop.judge, seeds, (2, 8))
    assert len(seen) == 40 and len(set(seen)) > 1
    assert {spec.generator for spec, _ in seen} == set(spectra.GENERATORS)
    assert {len(spec.head) for spec, _ in seen} == {0, 1, 2, 3}
    assert {k for _, k in seen} <= set(range(1, 9)) and len({k for _, k in seen}) > 1
    assert detail == [None] * 40 and margin.tobytes() == np.zeros(40).tobytes()


def test_property_failure_reports_its_first_failing_trial(monkeypatch):
    name = "weyl_sv"
    prop = PROPERTIES[name]
    seeds = _splitmix64_block(derive_seed(4, sorted(PROPERTIES).index(name)), 0, 20)
    margin = harness._rows(prop, prop.judge, seeds, (2, 8))[1]
    # fail at the trial of the smallest margin, and at a later one
    t = int(np.argmin(margin))
    assert 0 < t < 19
    failing = {int(seeds[t]): "first", int(seeds[19]): "later"}

    def draw(stream, d):
        return [(rows, (stream.seeds[rows], *args)) for rows, args in prop.draw(stream, d)]

    def judge(trial_seeds, *args):
        holds, m, detail = prop.judge(*args)
        bad = np.array([int(s) in failing for s in trial_seeds])
        return holds & ~bad, m, [failing.get(int(s), msg) for s, msg in zip(trial_seeds, detail)]

    monkeypatch.setitem(PROPERTIES, name, dataclasses.replace(prop, draw=draw, judge=judge))
    got = {p["name"]: p for p in property_suite(4, trials=20)["properties"]}[name]
    assert (got["holds"], got["detail"]) == (False, "first")
    # worst_margin is the smallest margin over every trial, as fuzz's is:
    # the failing trial's own margin counts
    assert got["worst_margin"] == float(margin[t]) < float(np.min(margin[:t]))


def test_judged_names_the_first_failing_check():
    holds, margin, detail = properties._judged(
        ("first", np.array([1.0, -2e-12, -1.0, np.nan, -1e-12]),
         np.array([0.0, 1e-12, 1e-12, 1.0, 1e-12])),
        ("second", np.array([-0.5, 0.0, -3.0, 0.0, 2.0]), 0.0),
    )
    # a row's margin is the smallest of its checks'; it holds where every
    # margin clears -tol, and a NaN margin never does
    assert holds.tolist() == [False, False, False, False, True]
    assert margin.tolist()[:3] + margin.tolist()[4:] == [-0.5, -2e-12, -3.0, -1e-12]
    assert np.isnan(margin[3])
    assert detail == ["second (margin -5.000e-01, tol 0.000e+00)",
                      "first (margin -2.000e-12, tol 1.000e-12)",
                      "first (margin -1.000e+00, tol 1.000e-12)",
                      "first (margin nan, tol 1.000e+00)",
                      None]


def test_property_suite_refuses_a_lower_bound_below_one():
    # the bound is not raised to 1, and 1 itself draws d = 1
    with pytest.raises(ValueError, match="a >= 1"):
        property_suite(2, trials=6, dims=(-3, 4))
    assert property_suite(2, trials=6, dims=(1, 4))["holds"]


def test_property_suite_runs_above_the_eigh_residual_cap():
    # eigh_residual draws d <= 16, so a range above that draws d = 16
    prop = PROPERTIES["eigh_residual"]
    seeds = _splitmix64_block(5, 0, 3)
    assert harness._rows(prop, prop.judge, seeds, (17, 18))[1].tobytes() == \
        harness._rows(prop, prop.judge, seeds, (16, 16))[1].tobytes()
    assert property_suite(5, trials=2, dims=(17, 18))["holds"]


def test_trials_outside_range_are_refused():
    # checked before any allocation: 10**13 trials' child seeds exhaust memory
    for trials in (-1, harness.MAX_TRIALS + 1, 10**13):
        with pytest.raises(ValueError, match=f"up to {harness.MAX_TRIALS} trials"):
            fuzz("key", trials=trials)
        with pytest.raises(ValueError, match=f"up to {harness.MAX_TRIALS} trials"):
            property_suite(1, trials=trials)


PUBLIC_VERIFIERS = sorted(n for n in vars(ineq) if n.startswith(("check_", "control_")))

# each verifier's public parameters: sspread check takes one matrix file per
# parameter but split, in this order, and reads --split into split
CHECK_PARAMS = {
    "check_tao_positive": ("f", "split"),
    "check_key": ("a", "split"),
    "check_trace_pairing": ("a", "b"),
    "check_commutator_scale": ("a", "x"),
    "check_commutator_sv": ("a", "x"),
    "check_mixed_commutator": ("a", "b", "x"),
    "check_general_commutator": ("a", "b", "x"),
    "check_unitary_conj": ("a", "x"),
    "check_agm_projection": ("s", "c", "e"),
    "check_agm_pair": ("s", "c", "e1", "e2"),
    "check_agm_compact": ("s", "c", "e"),
    "check_agm_general": ("a", "b", "e"),
    "check_zhan": ("e", "f"),
    "check_offdiag_projection": ("e", "p"),
    "check_offdiag_compact": ("e", "p"),
    "check_identity_split": ("s", "c", "e"),
    "control_kittaneh_positive": ("c", "d", "x"),
    "control_bhatia_kittaneh": ("a", "b"),
    "control_strict_gap": ("e",),
}


def test_registry_holds_the_paper_family():
    kinds = [v.kind for v in VERIFIERS.values()]
    assert len(VERIFIERS) == 23
    assert (kinds.count("theorem"), kinds.count("equivalent"), kinds.count("control")) == (13, 7, 3)
    # theorems first, then equivalents, then controls: the suite reports in this order
    assert kinds == sorted(kinds, key=("theorem", "equivalent", "control").index)
    assert [f.name for f in dataclasses.fields(harness.Verifier)] == ["id", "kind", "check", "draw"]
    for v in VERIFIERS.values():
        params = inspect.signature(getattr(ineq, v.check)).parameters
        assert tuple(params) == CHECK_PARAMS[v.check], v.id
        # only split and agm_pair's E2 may be left out
        assert {n for n, p in params.items() if p.default is not p.empty} <= {"split", "e2"}, v.id


def test_public_names_resolve_and_tables_agree():
    missing = [name for name in sspread.__all__ if not hasattr(sspread, name)]
    assert missing == []
    # every registry id names a public verifier, and every public verifier
    # has a registry id
    assert {v.check for v in VERIFIERS.values()} == set(PUBLIC_VERIFIERS)
    for name in PUBLIC_VERIFIERS:
        check = getattr(ineq, name)
        assert check.__name__ == name
        assert inspect.unwrap(check) is not check, name


def _traced(name, fn, calls):
    # a span wrapper as bench/tracer.py makes one: no functools.wraps, only
    # __wrapped__, so no attribute of fn shows through it
    def wrapper(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    wrapper.__wrapped__ = fn
    return wrapper


def test_fuzz_and_check_run_through_a_tracing_wrapper(monkeypatch, tmp_path, capsys):
    plain = {i: harness.fuzz(i, trials=30, seed=8) for i in VERIFIERS}
    calls = []
    for name in PUBLIC_VERIFIERS:
        monkeypatch.setattr(ineq, name, _traced(name, getattr(ineq, name), calls))
    # fuzz runs the kernel behind the wrapper, so the wrapper sees no call
    assert {i: harness.fuzz(i, trials=30, seed=8) for i in VERIFIERS} == plain
    assert calls == []
    # check reads its files off the wrapper's signature and calls the wrapper
    s, c, e1 = trial_args("agm_pair", 5)[:3]
    files = []
    for name, m in (("S", s), ("C", c), ("E1", e1)):
        path = tmp_path / f"{name}.txt"
        path.write_text(cli.write_matrix_text(m))
        files.append(str(path))
    assert cli.main(["check", "agm_pair", *files]) == 0, capsys.readouterr().err
    assert calls == ["check_agm_pair"]


def test_fuzz_looks_its_kernel_up_once(monkeypatch):
    # a campaign reads its kernel off ineq once, however many trial groups it
    # judges; a wrapper set before the campaign is the one it unwraps
    plain = fuzz("key", trials=40, seed=3)
    kernel = inspect.unwrap(ineq.check_key)
    groups, lookups = [], []

    def counted(*args):
        groups.append(len(args[0]))
        return kernel(*args)

    def public(*args, **kwargs):
        raise AssertionError("fuzz runs the kernel, not the public verifier")

    public.__wrapped__ = counted
    monkeypatch.setattr(ineq, "check_key", public)
    real_unwrap = inspect.unwrap

    def unwrap(fn, **kwargs):
        lookups.append(fn)
        return real_unwrap(fn, **kwargs)

    monkeypatch.setattr(inspect, "unwrap", unwrap)
    assert fuzz("key", trials=40, seed=3) == plain
    assert sum(groups) == 40 and len(groups) > 1
    assert lookups == [public]


def test_aliases_rerun_their_target():
    # an alias is a non-theorem row that shares check and draw with a theorem row
    theorems = {(v.check, v.draw): v.id for v in VERIFIERS.values() if v.kind == "theorem"}
    aliases = {v.id: theorems[v.check, v.draw] for v in VERIFIERS.values()
               if v.kind != "theorem" and (v.check, v.draw) in theorems}
    assert aliases == {"equiv2": "commutator_sv", "equiv3": "mixed_commutator", "equiv4": "zhan"}
    for fam, target in aliases.items():
        assert VERIFIERS[fam].kind == "equivalent"
        sa = fuzz(fam, trials=30, seed=7)
        st = fuzz(target, trials=30, seed=7)
        assert (sa.failures, sa.worst_margin, sa.worst_seed) == (st.failures, st.worst_margin, st.worst_seed)


def _rand_perm_per_step(seed: int, counter: int, n: int) -> list[int]:
    """Fisher-Yates on the scalar stream, one randint(0, i) per step."""
    stream = Stream(seed)
    stream.counter = counter
    perm = list(range(n))
    for i in range(n - 1, 0, -1):
        j = stream.randint(0, i)
        perm[i], perm[j] = perm[j], perm[i]
    return perm


@pytest.mark.parametrize("n", [1, 2, 3, 8, 17])
def test_rand_perm_matches_the_per_step_shuffle_row_by_row(n):
    seeds = np.array([0, 9, derive_seed(5, 3), 2**64 - 1], dtype=np.uint64)
    stream = Stream(seeds)
    stream.counter = 11
    perm = properties._rand_perm(stream, n)
    assert stream.counter == 11 + n - 1
    for b, seed in enumerate(seeds.tolist()):
        assert perm[b].tolist() == _rand_perm_per_step(seed, 11, n)


def test_randint_over_bounds_draws_one_word_per_bound():
    bounds = np.array([5, 2, 2**40, 3])
    batch, one = Stream(np.array([4, 2**63], dtype=np.uint64)), Stream(2**63)
    got, alone = batch.randint(2, bounds), one.randint(2, bounds)
    assert got.shape == (2, 4) and batch.counter == one.counter == 4
    ref = Stream(2**63)
    assert got[1].tolist() == alone == [ref.randint(2, int(h)) for h in bounds]
    with pytest.raises(ValueError, match="empty range"):
        one.randint(2, np.array([4, 1]))


# -- the linalg policy outside the verifiers ------------------------------------

# the properties whose reference form is the SVD of a Hermitian matrix: each
# compares a spread with the singular values of the same operand
HERMITIAN_SVD = {"spread_vs_sv", "spread_doubling"}
# the functions that may compute eigenvectors: functional calculus on a drawn
# spectrum (control_strict_gap's family, eigh_residual's draw), the two
# properties about eigenvectors (eigh_residual, ky_fan_extremality), and the
# basis of a projection's range in linalg._compressed
EIGH_SITES = {"_fam_control_gap", "_d_eigh", "_j_eigh", "_j_ky_fan", "_compressed"}


def test_linalg_policy_outside_the_verifiers(monkeypatch):
    # no fuzz family and no property but HERMITIAN_SVD hands the SVD a
    # Hermitian (or i times Hermitian) matrix, whose singular values are
    # |eigenvalues| from the values-only solver, and eigenvectors are
    # computed only at EIGH_SITES
    label = None
    svd, eigh = {}, {}
    real_sv, real_eigh = linalg._sv_array, linalg._eigh

    def members(m):
        return [np.array(x) for x in np.reshape(m, (-1, *np.shape(m)[-2:]))]

    def sv_array(m):
        svd.setdefault(label, []).extend(members(m))
        return real_sv(m)

    def eigh_(m):
        eigh.setdefault(sys._getframe(1).f_code.co_name, []).extend(members(m))
        return real_eigh(m)

    for mod in (linalg, harness, properties):
        for name, fn in (("_sv_array", sv_array), ("_eigh", eigh_)):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, fn)
    # enough trials that eigh_residual's draw forces multiplicities in some
    seeds = _splitmix64_block(30, 0, 32)
    for entry in VERIFIERS.values():
        label = entry.id
        assert entry.draw(Stream(seeds), 6)
    for name, prop in PROPERTIES.items():
        label = name
        for _, args in prop.draw(Stream(seeds), 6):
            prop.judge(*args)

    def symmetric(m, sign):  # m = sign * m*, at the operand's own scale
        return (m.shape[0] == m.shape[1]
                and np.max(np.abs(m - sign * m.conj().T)) <= linalg._tol(np.max(np.abs(m))))

    hermitian = {who for who, mats in svd.items()
                 if any(symmetric(m, sign) for m in mats for sign in (1, -1))}
    assert HERMITIAN_SVD <= PROPERTIES.keys()
    assert hermitian == HERMITIAN_SVD
    assert len(svd) > len(HERMITIAN_SVD)
    assert eigh.keys() == EIGH_SITES
    # _compressed decomposes the projection only
    assert all(symmetric(p, 1) and np.allclose(p @ p, p, rtol=0.0, atol=1e-12)
               for p in eigh["_compressed"])
