"""Verdict-level golden for `sspread suite --seed 1`.

Pins every verdict of the default suite: each fuzz row's failures and
worst_seed, each property's and each reproduction's holds, and every
worst_margin to 1e-12 relative to the pinned margin itself, so that a margin
of rounding noise near zero is pinned to its own digits too. A speed-up may
move last digits; it may not move a verdict. A byte-level pin would break
across BLAS builds; criterion 5 only compares two runs with each other.
"""

import json
import math

import pytest

from sspread import cli, harness, ineq, linalg

# id: (failures, worst_seed, worst_margin)
FUZZ = {
    "tao_positive": (0, 10411298932273842707, 0.045382926846108784),
    "key": (0, 12768544984176317161, 0.002620686381484827),
    "trace_pairing": (0, 7282698155641351611, 0.01628758109054157),
    "commutator_scale": (0, 5492700368183686452, 0.010909391533773682),
    "commutator_sv": (0, 5492700368183686452, 0.010909391533773682),
    "mixed_commutator": (0, 6209254782910845600, 0.3483658356667503),
    "general_commutator": (0, 6209254782910845600, 2.672737532338073),
    "unitary_conj": (0, 11902882338924681093, 0.009195699921825045),
    "agm_projection": (0, 9601295706578493983, 0.0028953147885675823),
    "agm_pair": (0, 98677823320942108, 0.0029273944417345654),
    "agm_compact": (0, 9953069616274762764, 0.018066825429976063),
    "agm_general": (0, 2785315027234401036, 0.021605659688697987),
    "zhan": (0, 16391929014852575892, 0.03079185322155409),
    "equiv1": (0, 10411298932273842707, 0.011534068630713934),
    "equiv2": (0, 5492700368183686452, 0.010909391533773682),
    "equiv3": (0, 6209254782910845600, 0.3483658356667503),
    "equiv4": (0, 16391929014852575892, 0.03079185322155409),
    "equiv5": (0, 7282698155641351611, 0.02015865347421464),
    "equiv_compact1": (0, 10411298932273842707, 0.011534068630713934),
    "equiv_compact2": (0, 16391929014852575892, 0.008642609973949167),
    "control_kittaneh": (0, 12768544984176317161, 1.0421152035014902),
    "control_bhatia_kittaneh": (0, 9095065823743835211, 0.05836764729561561),
    "control_strict_gap": (0, 5492700368183686452, 0.2928932188134523),
}

# name: worst_margin; every property holds
PROPERTIES = {
    "abs_majorization": -4.440892098500626e-16,
    "eigh_residual": -4.722977304521997e-14,
    "gauge_monotone": 0.01589246056002014,
    "generator_contracts": -1.4320321171024282e-15,
    "hat_trick": -6.217248937900877e-15,
    "interlacing": 0.003054972226406605,
    "interleave_pairs": 0.22046904488420904,
    "ky_fan_extremality": -5.329070518200751e-15,
    "product_chain": 0.0,
    "product_monotone": 0.03295453572873874,
    "product_sorting": 0.0,
    "scale_ordering": 0.0,
    "sorted_sum": -2.6645352591003757e-15,
    "spread_doubling": -3.552713678800501e-15,
    "spread_homogeneity": -7.105427357601002e-15,
    "spread_monotone": -1.2434497875801753e-14,
    "spread_subadditive": 0.20187929379695602,
    "spread_translation_invariance": -6.217248937900877e-15,
    "spread_vs_sv": -1.4210854715202004e-14,
    "spread_zero_block": -3.552713678800501e-15,
    "sv_product_bound": 0.21265269741888337,
    "sv_unitary_invariance": -4.440892098500626e-15,
    "updown_sum": 0.0,
    "weighted_sums": 0.10040271025940647,
    "weyl_scale": -1.3322676295501878e-14,
    "weyl_sv": 0.1942012535880564,
}

REPROS = ("diag-scale", "kittaneh-fail", "agm-fail-2x2", "agm-fail-3x3")


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= 1e-12 * abs(want)


@pytest.fixture(scope="module")
def report():
    args = cli.build_parser().parse_args(["suite", "--seed", "1", "--json"])
    rep, _ = args.func(args)
    # the figures as printed; 17 significant digits round-trip every double
    return json.loads(cli.canonical_json(rep))


def test_suite_fuzz_rows(report):
    rows = {f["ineq_id"]: f for f in report["fuzz"]}
    assert list(rows) == list(FUZZ)
    for ineq_id, (failures, worst_seed, worst_margin) in FUZZ.items():
        row = rows[ineq_id]
        assert (row["failures"], row["worst_seed"]) == (failures, worst_seed), ineq_id
        assert _close(row["worst_margin"], worst_margin), (ineq_id, row["worst_margin"])


def test_suite_properties(report):
    props = report["properties"]
    assert props["holds"] is True
    rows = {p["name"]: p for p in props["properties"]}
    assert list(rows) == list(PROPERTIES)
    for name, worst_margin in PROPERTIES.items():
        assert rows[name]["holds"] is True, name
        assert _close(rows[name]["worst_margin"], worst_margin), (name, rows[name]["worst_margin"])


def test_suite_repros_and_verdict(report):
    assert [(r["example_id"], r["holds"]) for r in report["repro"]] == [
        (ex, True) for ex in REPROS
    ]
    assert report["holds"] is True


def test_control_strict_gap_worst_seed_is_a_tie():
    # every d = 2 trial whose eigenvalues both sit at the family's clamp,
    # +-1/2, has margin 1 - 1/sqrt(2) in exact arithmetic, so rounding picks
    # the worst_seed among them: the seed an SVD of E picked and the one
    # |eigenvalues of E| pick are both such trials, as is the worst_seed of
    # `fuzz control_strict_gap --trials 500 --seed 1`
    for seed in (9095065823743835211, FUZZ["control_strict_gap"][1], 5224829058895712923):
        (e,) = harness.trial_args("control_strict_gap", seed, (2, 8))
        assert e.shape == (2, 2)
        extras = ineq.control_strict_gap(e).extras
        assert abs(extras["margin"] - (1.0 - 1.0 / math.sqrt(2.0))) <= linalg._tol(extras["fro"])
