"""Smoke test of the benchmark: every workload at its smallest size, untraced
and traced.

    python3 -m pytest bench/test_smoke.py -q

It checks that each run prints every metric BENCHMARK.json names, with its
unit, that no operation failed, that replay-large draws nothing from sspread's
RNG, and that per operation the traced self times add up to the wall time
measured outside the tracer.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> tuple[int, dict, dict]:
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    if out.returncode != 0:
        return out.returncode, {}, {}
    lines = out.stdout.strip().splitlines()
    return 0, json.loads(lines[-2])["info"], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload(workload, trace):
    code, info, res = _run(workload, trace)
    assert code == 0
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {n: m["unit"] for n, m in res["metrics"].items()} == wanted
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    assert info["fail_ratio"] == 0
    if trace:
        assert info["selfsum_outside_slack"] == 0, info["selfsum_max_rel_err"]
        if workload == "replay-large":
            assert res["metrics"]["rng.draws"]["value"] == 0
            assert res["metrics"]["rng.normals.calls"]["value"] == 0
    else:
        assert all(m["value"] > 0 for m in res["metrics"].values())


def test_refuses_without_the_program(tmp_path):
    # a checkout holding only the benchmark must fail without a result line
    (tmp_path / "bench").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "bench" / f.name).write_bytes(f.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli-cold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
