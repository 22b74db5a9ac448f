"""Acceptance gate: the five release criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
print. Every tolerance here is pinned; loosening one is a release decision,
not a test fix.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import sspread
from sspread import properties
from sspread.examples import EXAMPLE_IDS, repro
from sspread.harness import VERIFIERS, fuzz
from sspread.properties import PROPERTIES, property_suite
from sspread.rng import _splitmix64_block, derive_seed

SEED = 1
FUZZ_IDS = [v.id for v in VERIFIERS.values() if v.kind in ("theorem", "equivalent")]


def _line(tag: str, ok: bool, detail: str = ""):
    mark = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"{mark}: {tag}{suffix}")


def test_criterion_1_fixture_reproduction():
    failures = []
    slow = []
    for ex in EXAMPLE_IDS:
        t0 = time.perf_counter()
        rep = repro(ex)
        dt = time.perf_counter() - t0
        if dt >= 1.0:
            slow.append((ex, dt))
        if not rep["holds"]:
            bad = [c["name"] for c in rep["checks"] if not c["pass"]]
            failures.append((ex, bad))
    ok = not failures and not slow
    _line("criterion 1: fixture reproduction (4 examples, pinned tolerances)", ok,
          f"failures={failures or 'none'}")
    assert not failures, failures
    assert not slow, slow


def test_criterion_2_theorem_fuzz_500_trials():
    t0 = time.perf_counter()
    bad = []
    for fam in FUZZ_IDS:
        s = fuzz(fam, trials=500, dims=(2, 8), seed=SEED)
        if s.failures:
            bad.append((fam, s.failures, s.worst_margin, s.worst_seed))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 60.0
    _line("criterion 2: 500-trial fuzz, 13 theorems + 7 equivalents, dims 2..8",
          ok, f"{elapsed:.1f}s")
    assert not bad, bad
    assert elapsed < 60.0, f"fuzz took {elapsed:.1f}s"


def test_criterion_3_infrastructure_properties():
    rep = property_suite(SEED, trials=500, dims=(2, 8))
    bad = [p for p in rep["properties"] if not p["holds"]]
    # the eigenvalue-residual property must clear 1000 matrices in total:
    # 500 above plus 500 more on the child seeds derive_seed(SEED + 1, t)
    seeds = _splitmix64_block(SEED + 1, 0, 500)
    assert int(seeds[499]) == derive_seed(SEED + 1, 499)
    _, detail = properties._property_rows(PROPERTIES["eigh_residual"], seeds, (2, 8))
    extra_fail = next((msg for msg in detail if msg is not None), None)
    ok = not bad and extra_fail is None
    _line("criterion 3: infrastructure properties, 500 trials each "
          "(eigh residual on 1000 matrices)", ok)
    assert not bad, bad
    assert extra_fail is None, extra_fail


def test_criterion_4_controls():
    results = {
        "control_bhatia_kittaneh": fuzz("control_bhatia_kittaneh", trials=500,
                                        dims=(2, 8), seed=SEED),
        "control_kittaneh": fuzz("control_kittaneh", trials=500,
                                 dims=(2, 8), seed=SEED),
        "control_strict_gap": fuzz("control_strict_gap", trials=200,
                                   dims=(2, 8), seed=SEED),
    }
    assert set(results) == {v.id for v in VERIFIERS.values() if v.kind == "control"}
    bad = {k: v.failures for k, v in results.items() if v.failures}
    _line("criterion 4: entrywise controls (500+500) and strict gap (200)",
          not bad, f"failures={bad or 'none'}")
    assert not bad, bad


def test_criterion_5_suite_determinism():
    cmd = [sys.executable, "-m", "sspread", "suite", "--seed", "1", "--json"]
    # the child imports the package under test, installed or not
    src = str(Path(sspread.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + path if path else src}
    r1 = subprocess.run(cmd, capture_output=True, timeout=300, env=env)
    r2 = subprocess.run(cmd, capture_output=True, timeout=300, env=env)
    ok = r1.returncode == 0 and r2.returncode == 0 and r1.stdout == r2.stdout
    _line("criterion 5: suite --seed 1 twice, byte-identical JSON", ok,
          f"{len(r1.stdout)} bytes")
    assert r1.returncode == 0, r1.stderr.decode()
    assert r2.returncode == 0, r2.stderr.decode()
    assert r1.stdout == r2.stdout
