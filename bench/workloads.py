"""The three benchmark workloads and the metrics they report.

Each workload is a single-process closed loop: one caller issues an
operation, waits for its result, checks it, and issues the next.

    campaign-small  harness.fuzz over all 23 families at dims 2..8; an
                    operation is one fuzz call of 40 trials
    replay-large    one ineq verifier call on inputs built during set-up,
                    19 verifiers at dims 32..64
    cli-cold        one `python -m sspread` subprocess: `suite --json` once
                    per round, then short check/repro/spread/scale commands
                    on the shipped fixtures

A pass repeats whole rounds (a sweep over the families, a cycle over the
cases, a suite plus the short commands) until its time is up, so every pass
runs the same mix.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import cases
from reference import Reference
from tracer import Tracer, layer_of
from sspread import cli, harness, ineq, linalg

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 5
LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MASK63 = (1 << 63) - 1
# per operation, summed span self times may miss the outside wall time by
# this share plus this many seconds (a stall between the clock reads)
SELFSUM_SLACK = (0.05, 1e-3)
# an untraced pass runs one reference unit after the first operation that
# ends this many seconds after the previous unit
REF_EVERY = 0.15

# the fuzz families: 13 theorems, 7 equivalent formulations, 3 controls
FAMILIES = (
    "tao_positive", "key", "trace_pairing", "commutator_scale", "commutator_sv",
    "mixed_commutator", "general_commutator", "unitary_conj", "agm_projection",
    "agm_pair", "agm_compact", "agm_general", "zhan",
    "equiv1", "equiv2", "equiv3", "equiv4", "equiv5", "equiv_compact1", "equiv_compact2",
    "control_kittaneh", "control_bhatia_kittaneh", "control_strict_gap",
)

_FIX = "fixtures/"
# short CLI commands on the shipped fixtures, with their documented exit code
SHORT_COMMANDS = (
    (["spread", _FIX + "diag_scale.diag", "--horizon", "6", "--json"], 0),
    (["scale", _FIX + "kittaneh_fail_A.txt", "--json"], 0),
    (["check", "agm_compact", _FIX + "agm_fail_2x2_S.txt", _FIX + "agm_fail_2x2_C.txt",
      _FIX + "agm_fail_2x2_E.txt", "--json"], 0),
    (["check", "agm_general", _FIX + "agm_fail_3x3_A.txt", _FIX + "agm_fail_3x3_B.txt",
      _FIX + "agm_fail_3x3_E.txt", "--json"], 0),
    (["check", "mixed_commutator", _FIX + "kittaneh_fail_A.txt", _FIX + "kittaneh_fail_B.txt",
      _FIX + "kittaneh_fail_X.txt", "--json"], 0),
    (["repro", "diag-scale", "--json"], 0),
    (["repro", "kittaneh-fail", "--json"], 0),
    (["repro", "agm-fail-2x2", "--json"], 0),
    (["repro", "agm-fail-3x3", "--json"], 0),
)

_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import sspread.cli; "
    "print(time.perf_counter() - t)"
)


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def import_probe() -> float:
    """Seconds a fresh interpreter spends importing sspread.cli."""
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE], cwd=ROOT, env=child_env(),
        capture_output=True, text=True, check=True, timeout=60,
    )
    return float(out.stdout.strip())


class Pass:
    """Counters and samples of one timed pass."""

    def __init__(self, ref: Reference | None = None):
        self.ref = ref
        self._ref_last = time.perf_counter()
        self.ops = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        # (seconds, clock reading at its end) of every operation, of the
        # operations whose latency is reported, and of each round's operations
        self.op_times: list[tuple[float, float]] = []
        self.latencies: list[tuple[float, float]] = []
        self.rounds: list[list[tuple[float, float]]] = []
        self.last_end = 0.0
        self.op_wall: list[float] = []
        self.elapsed = 0.0
        self.digests: dict[str, str] = {}
        self.report_bytes = 0

    def fail(self, msg: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(msg)

    def call(self, tracer: Tracer | None, fn, *args, **kwargs):
        """Run one operation; return (result, wall seconds)."""
        if tracer is None:
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            self.last_end = t1 = time.perf_counter()
            self.op_times.append((t1 - t0, t1))
            if self.ref is not None and t1 - self._ref_last >= REF_EVERY:
                self.ref.unit()
                self._ref_last = time.perf_counter()
            return out, t1 - t0
        tracer.op = len(self.op_wall)
        t0 = time.perf_counter()
        sid = tracer.open("bench.op")
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(sid)
            self.last_end = time.perf_counter()
            self.op_wall.append(self.last_end - t0)
            tracer.op = -1
        return out, self.op_wall[-1]

    @property
    def ops_per_s(self) -> float:
        """Operations per second of a pass that ran no reference units."""
        return self.ops / self.elapsed

    def scaled(self, slowdown_at, tail_cap: float) -> dict[str, float]:
        """The end-to-end figures with every operation's time divided by the
        slowdown `slowdown_at(end)` around it (1.0 for raw figures)."""
        def secs(samples):
            return [dt / slowdown_at(end) for dt, end in samples]

        lat = secs(self.latencies)
        pct, tail_s, beyond = tail(lat, tail_cap)
        return {
            "ops_per_s": self.ops / sum(secs(self.op_times)),
            "op_p50_ms": statistics.median(lat) * 1e3,
            "op_tail_ms": tail_s * 1e3,
            "suite_s": statistics.median(sum(secs(r)) for r in self.rounds),
            "tail_percentile": pct,
            "tail_beyond": beyond,
        }


def _margin(v) -> float:
    if v.report is not None:
        return v.report.min_margin()
    if v.entrywise_margins is not None and len(v.entrywise_margins):
        return float(np.min(v.entrywise_margins))
    return float(v.extras.get("margin", math.inf))


class CampaignSmall:
    name = "campaign-small"
    ref_kind = "small"
    tail_cap = 95.0
    lapack_dims = tuple(range(2, 9))

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.trials = 2 if tiny else 40
        self.dims = (2, 3) if tiny else (2, 8)

    def setup(self) -> None:
        for fam in FAMILIES:
            harness.fuzz(fam, trials=1, dims=self.dims, seed=self.seed)

    def run_pass(self, seconds: float, tracer: Tracer | None = None,
                 ref: Reference | None = None) -> Pass:
        p = Pass(ref)
        digest = hashlib.sha256()
        t_start = time.perf_counter()
        sweep = 0
        while True:
            round_ops = []
            seed = (self.seed * 1_000_003 + sweep) & MASK63
            for fam in FAMILIES:
                p.attempted += 1
                try:
                    s, dt = p.call(tracer, harness.fuzz, fam, trials=self.trials,
                                   dims=self.dims, seed=seed)
                except Exception as exc:  # a crashing campaign is a failed operation
                    p.fail(f"{fam} seed {seed}: {exc!r}")
                    continue
                p.ops += s.trials
                p.latencies.append((dt, p.last_end))
                round_ops.append((dt, p.last_end))
                if s.failures or s.trials != self.trials:
                    p.fail(f"{fam} seed {seed}: {s.failures} of {s.trials} trials failed")
                if sweep == 0:
                    # runtime_ms left out so parent and change compare byte for byte
                    digest.update(f"{s.ineq_id} {s.trials} {s.failures} "
                                  f"{s.worst_margin!r} {s.worst_seed}\n".encode())
            p.rounds.append(round_ops)
            sweep += 1
            if time.perf_counter() - t_start >= seconds:
                break
        p.elapsed = time.perf_counter() - t_start
        p.digests["campaign_sha256"] = digest.hexdigest()
        return p

    trace_pass = run_pass


class ReplayLarge:
    name = "replay-large"
    ref_kind = "large"
    tail_cap = 99.0

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.lapack_dims = (4, 6) if tiny else (32, 40, 48, 56, 64)
        self.copies = 1 if tiny else 3
        self.cases: list = []

    def setup(self) -> None:
        self.cases = cases.build(self.seed, self.lapack_dims, self.copies)
        for name, _, args in self.cases[: len(cases.VERIFIERS)]:
            getattr(ineq, name)(*args)

    def run_pass(self, seconds: float, tracer: Tracer | None = None,
                 ref: Reference | None = None) -> Pass:
        # resolved per pass, so a traced pass calls the wrapped verifiers
        calls = [(getattr(ineq, name), name, d, args) for name, d, args in self.cases]
        p = Pass(ref)
        digest = hashlib.sha256()
        t_start = time.perf_counter()
        cycle = 0
        while True:
            round_ops = []
            for fn, name, d, args in calls:
                p.attempted += 1
                try:
                    v, dt = p.call(tracer, fn, *args)
                except Exception as exc:  # any exception fails the call
                    p.fail(f"{name} d={d}: {exc!r}")
                    continue
                p.ops += 1
                p.latencies.append((dt, p.last_end))
                round_ops.append((dt, p.last_end))
                if v.holds is not True:
                    p.fail(f"{name} d={d}: verdict fails on its hypothesis class")
                if cycle == 0:
                    digest.update(f"{name} {d} {v.holds} {_margin(v)!r}\n".encode())
            p.rounds.append(round_ops)
            cycle += 1
            if time.perf_counter() - t_start >= seconds:
                break
        p.elapsed = time.perf_counter() - t_start
        p.digests["replay_sha256"] = digest.hexdigest()
        return p

    trace_pass = run_pass


def _judge(argv: list[str], expected: int, code: int, stdout: str) -> str | None:
    """Why a CLI result is wrong, or None when it is right."""
    if code != expected:
        return f"{' '.join(argv)}: exit {code}, expected {expected}"
    try:
        rep = json.loads(stdout)
    except ValueError:
        return f"{' '.join(argv)}: stdout is not one JSON report"
    if argv[0] == "suite":
        verdict = rep.get("holds")
    elif argv[0] in ("check", "repro"):
        verdict = rep.get(argv[0], {}).get("holds")
    else:
        verdict = True
    if verdict is not True:
        return f"{' '.join(argv)}: report does not hold"
    return None


class CliCold:
    name = "cli-cold"
    ref_kind = "small"
    tail_cap = 75.0
    lapack_dims = tuple(range(2, 9))

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.suite_argv = ["suite", "--seed", str(seed), "--json"]
        if tiny:
            self.suite_argv += ["--trials", "2", "--dims", "2..3"]

    def setup(self) -> None:
        for argv, _ in SHORT_COMMANDS:
            for arg in argv:
                if arg.startswith(_FIX) and not (ROOT / arg).is_file():
                    raise FileNotFoundError(arg)

    @staticmethod
    def _subprocess(argv: list[str]) -> tuple[int, str]:
        out = subprocess.run(
            [sys.executable, "-m", "sspread", *argv], cwd=ROOT, env=child_env(),
            capture_output=True, text=True, timeout=120,
        )
        return out.returncode, out.stdout

    @staticmethod
    def _in_process(argv: list[str]) -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue()

    def _pass(self, seconds: float, runner, tracer: Tracer | None,
              ref: Reference | None = None) -> Pass:
        p = Pass(ref)
        suite_out: str | None = None
        shorts = hashlib.sha256()
        t_start = time.perf_counter()
        first = True
        while True:
            for argv, expected in [(self.suite_argv, 0), *SHORT_COMMANDS]:
                p.attempted += 1
                try:
                    (code, stdout), dt = p.call(tracer, runner, argv)
                except Exception as exc:  # a crash or a hung child fails the command
                    p.fail(f"{' '.join(argv)}: {exc!r}")
                    continue
                p.ops += 1
                why = _judge(argv, expected, code, stdout)
                if argv is self.suite_argv:
                    p.rounds.append([(dt, p.last_end)])
                    if suite_out is None:
                        suite_out = stdout
                    elif stdout != suite_out and why is None:
                        why = "suite stdout differs between two runs at one seed"
                else:
                    p.latencies.append((dt, p.last_end))
                    if first:
                        shorts.update(stdout.encode())
                if why:
                    p.fail(why)
            first = False
            if time.perf_counter() - t_start >= seconds:
                break
        p.elapsed = time.perf_counter() - t_start
        if suite_out is not None:
            p.report_bytes = len(suite_out.encode())
            p.digests["suite_sha256"] = hashlib.sha256(suite_out.encode()).hexdigest()
        p.digests["short_commands_sha256"] = shorts.hexdigest()
        return p

    def run_pass(self, seconds: float, tracer: Tracer | None = None,
                 ref: Reference | None = None) -> Pass:
        return self._pass(seconds, self._subprocess, tracer, ref)

    def trace_pass(self, seconds: float, tracer: Tracer | None = None) -> Pass:
        # traced in process, since spans cannot cross into a child interpreter
        return self._pass(seconds, self._in_process, tracer)


WORKLOADS = {w.name: w for w in (CampaignSmall, ReplayLarge, CliCold)}


def tail(latencies: list[float], cap: float) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it): the highest ladder percentile,
    at most `cap`, that leaves at least ten samples above it."""
    xs = sorted(latencies)
    n = len(xs)
    for pct in LADDER:
        if pct > cap:
            continue
        rank = math.ceil(pct / 100.0 * n)
        if n - rank >= 10:
            return pct, xs[rank - 1], n - rank
    return 100.0, xs[-1], 0


def reference_rows(dims: tuple[int, ...], seed: int, reps: int) -> dict[str, float]:
    """Mean microseconds per call: raw numpy LAPACK next to the sspread wrappers."""
    rng = np.random.default_rng(seed)
    herm = [cases.hermitian(rng, d) for d in dims]
    gen = [cases.crandn(rng, d, d) for d in dims]
    fns = {
        "np_eigh": (np.linalg.eigh, herm),
        "np_eigvalsh": (np.linalg.eigvalsh, herm),
        "np_svd": (lambda m: np.linalg.svd(m, compute_uv=False), gen),
        "linalg_eigh": (linalg.eigh, herm),
        "linalg_sv_array": (linalg.sv_array, gen),
    }
    totals = dict.fromkeys(fns, 0.0)
    for _ in range(reps):
        for key, (fn, mats) in fns.items():
            t0 = time.perf_counter()
            for m in mats:
                fn(m)
            totals[key] += time.perf_counter() - t0
    return {key: totals[key] / (reps * len(dims)) * 1e6 for key in fns}


# name -> (unit, better) for the traced run; the order is the print order
PER_LAYER = {
    "rng.normals.calls": ("count", "lower"),
    "rng.normals.self_ms": ("ms", "lower"),
    "rng.draws": ("count", "lower"),
    "rng.derive_seed.calls": ("count", "lower"),
    "rng.self_ms": ("ms", "lower"),
    "harness.fuzz.calls": ("count", "lower"),
    "harness.gen.self_ms": ("ms", "lower"),
    "harness.property_suite.self_ms": ("ms", "lower"),
    "harness.repro.self_ms": ("ms", "lower"),
    "harness.self_ms": ("ms", "lower"),
    "linalg.as_hermitian.calls_per_op": ("count/op", "lower"),
    "linalg.as_hermitian.self_ms": ("ms", "lower"),
    "linalg.eigh.calls": ("count", "lower"),
    "linalg.eigh.self_ms": ("ms", "lower"),
    "linalg.sv_array.calls": ("count", "lower"),
    "linalg.sv_array.self_ms": ("ms", "lower"),
    "linalg.self_ms": ("ms", "lower"),
    "linalg.overhead_ratio": ("ratio", "lower"),
    "lapack.calls": ("count", "lower"),
    "lapack.ms": ("ms", "lower"),
    "lapack.share": ("ratio", "higher"),
    "ref.np_eigh_us": ("us", "lower"),
    "ref.np_eigvalsh_us": ("us", "lower"),
    "ref.np_svd_us": ("us", "lower"),
    "ref.linalg_eigh_us": ("us", "lower"),
    "ref.linalg_sv_array_us": ("us", "lower"),
    **{f"spectra.{f}.{k}": (u, "lower")
       for f in ("compact_scale", "matrix_scale", "spread_plus", "seq_validate")
       for k, u in (("calls", "count"), ("self_ms", "ms"))},
    "spectra.self_ms": ("ms", "lower"),
    **{f"major.{f}.{k}": (u, "lower")
       for f in ("submajorizes", "majorizes")
       for k, u in (("calls", "count"), ("self_ms", "ms"))},
    "major.self_ms": ("ms", "lower"),
    **{f"ineq.{f}.us_per_call": ("us", "lower") for f in cases.VERIFIERS},
    "ineq.self_ms": ("ms", "lower"),
    "cli.import_s": ("s", "lower"),
    "cli.canonical_json.calls": ("count", "lower"),
    "cli.canonical_json.self_ms": ("ms", "lower"),
    "cli.parse_ms": ("ms", "lower"),
    "cli.report_bytes": ("bytes", "lower"),
    "cli.self_ms": ("ms", "lower"),
    "bench.self_ms": ("ms", "lower"),
    "trace.ops_per_s": ("1/s", "higher"),
    "trace.untraced_ops_per_s": ("1/s", "higher"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.spans": ("count", "lower"),
}


def layer_metrics(tracer: Tracer, traced: Pass, untraced: Pass, import_s: float,
                  ref: dict[str, float]) -> dict[str, float]:
    stats = tracer.by_name()

    def calls(n: str) -> int:
        return stats[n]["calls"] if n in stats else 0

    def self_ms(n: str) -> float:
        return stats[n]["self_ns"] / 1e6 if n in stats else 0.0

    def total_ms(*names: str) -> float:
        return sum(stats[n]["total_ns"] for n in names if n in stats) / 1e6

    layer_ms: dict[str, float] = {}
    for n, st in stats.items():
        layer_ms[layer_of(n)] = layer_ms.get(layer_of(n), 0.0) + st["self_ns"] / 1e6
    lapack = [n for n in stats if layer_of(n) == "lapack"]
    wall_ms = total_ms("bench.op")
    commands = calls("cli.main")
    m = {
        "rng.normals.calls": calls("rng.normals"),
        "rng.normals.self_ms": self_ms("rng.normals"),
        "rng.draws": sum(s.counter for s in tracer.streams),
        "rng.derive_seed.calls": calls("rng.derive_seed"),
        "harness.fuzz.calls": calls("harness.fuzz"),
        "harness.gen.self_ms": self_ms("harness.fuzz"),
        "harness.property_suite.self_ms": self_ms("harness.property_suite"),
        "harness.repro.self_ms": self_ms("harness.repro"),
        "linalg.as_hermitian.calls_per_op": calls("linalg.as_hermitian") / traced.ops,
        "linalg.as_hermitian.self_ms": self_ms("linalg.as_hermitian"),
        "linalg.eigh.calls": calls("linalg.eigh"),
        "linalg.eigh.self_ms": self_ms("linalg.eigh"),
        "linalg.sv_array.calls": calls("linalg.sv_array"),
        "linalg.sv_array.self_ms": self_ms("linalg.sv_array"),
        "linalg.overhead_ratio": (ref["linalg_eigh"] + ref["linalg_sv_array"])
        / (ref["np_eigh"] + ref["np_svd"]),
        "lapack.calls": sum(calls(n) for n in lapack),
        "lapack.ms": layer_ms.get("lapack", 0.0),
        "lapack.share": layer_ms.get("lapack", 0.0) / wall_ms,
        **{f"ref.{k}_us": v for k, v in ref.items()},
        "cli.import_s": import_s,
        "cli.canonical_json.calls": calls("cli.canonical_json"),
        "cli.canonical_json.self_ms": self_ms("cli.canonical_json"),
        "cli.parse_ms": total_ms("cli.build_parser", "cli.parse_args", "cli.load_file")
        / commands if commands else 0.0,
        "cli.report_bytes": traced.report_bytes,
        "trace.ops_per_s": traced.ops_per_s,
        "trace.untraced_ops_per_s": untraced.ops_per_s,
        "trace.overhead_ratio": untraced.ops_per_s / traced.ops_per_s,
        "trace.spans": len(tracer.start),
    }
    for f in ("compact_scale", "matrix_scale", "spread_plus", "seq_validate"):
        m[f"spectra.{f}.calls"] = calls(f"spectra.{f}")
        m[f"spectra.{f}.self_ms"] = self_ms(f"spectra.{f}")
    for f in ("submajorizes", "majorizes"):
        m[f"major.{f}.calls"] = calls(f"major.{f}")
        m[f"major.{f}.self_ms"] = self_ms(f"major.{f}")
    for f in cases.VERIFIERS:
        n = f"ineq.{f}"
        m[f"{n}.us_per_call"] = total_ms(n) * 1e3 / calls(n) if calls(n) else 0.0
    for layer in ("rng", "harness", "linalg", "spectra", "major", "ineq", "cli", "bench"):
        m[f"{layer}.self_ms"] = layer_ms.get(layer, 0.0)
    return {name: m[name] for name in PER_LAYER}


def selfsum_check(tracer: Tracer, traced: Pass) -> tuple[float, int]:
    """Compare, per operation, the summed self times of its spans with its wall
    time taken outside the tracer. Returns the largest relative gap and the
    number of operations whose gap exceeds SELFSUM_SLACK."""
    own = tracer.self_ns_by_op() / 1e9
    wall = np.array(traced.op_wall)
    if len(own) != len(wall):
        raise RuntimeError(f"{len(own)} traced operations against {len(wall)} timed")
    gap = np.abs(wall - own)
    rel, floor = SELFSUM_SLACK
    return float(np.max(gap / wall)), int(np.sum(gap > rel * wall + floor))


def run(name: str, seed: int, seconds: float, trace: bool, tiny: bool):
    """Run one workload; return (metrics with units, attempted, failed, info)."""
    w = WORKLOADS[name](seed, tiny)
    setup_s, import_s = [], []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        import_s.append(import_probe())
        w.setup()
        setup_s.append(time.perf_counter() - t0)
    info: dict = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace)}
    if not trace:
        ref = Reference(w.ref_kind, seed)
        p = w.run_pass(seconds, ref=ref)
        if ref.units == 0:
            ref.unit()
        raw = p.scaled(lambda end: 1.0, w.tail_cap)
        # times at the reference speed of the machine around each operation
        scaled = p.scaled(ref.slowdown_at, w.tail_cap)
        who = resource.RUSAGE_CHILDREN if name == "cli-cold" else resource.RUSAGE_SELF
        metrics = {
            "setup_s": (statistics.median(setup_s), "s"),
            "ops_per_s": (scaled["ops_per_s"], "1/s"),
            "op_p50_ms": (scaled["op_p50_ms"], "ms"),
            "op_tail_ms": (scaled["op_tail_ms"], "ms"),
            "suite_s": (scaled["suite_s"], "s"),
            "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, "MB"),
        }
        info.update(raw=raw, slowdown=ref.slowdown, reference_units=ref.units,
                    tail_percentile=scaled["tail_percentile"],
                    tail_beyond=scaled["tail_beyond"], samples=len(p.latencies),
                    rounds=len(p.rounds))
        if name == "cli-cold":
            info["cli_call_s"] = raw["op_p50_ms"] / 1e3
    else:
        w.trace_pass(0)  # one warm round, so both halves start alike
        untraced = w.trace_pass(seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            p = w.trace_pass(seconds / 2, tracer)
        finally:
            tracer.uninstall()
        reps = 3 if tiny else (300 if max(w.lapack_dims) <= 8 else 10)
        rows = reference_rows(w.lapack_dims, seed, reps)
        units = {n: u for n, (u, _) in PER_LAYER.items()}
        values = layer_metrics(tracer, p, untraced, statistics.median(import_s), rows)
        metrics = {n: (v, units[n]) for n, v in values.items()}
        info["selfsum_max_rel_err"], info["selfsum_outside_slack"] = selfsum_check(tracer, p)
        p.attempted += untraced.attempted
        p.failed += untraced.failed
        p.errors += untraced.errors
    info.update(p.digests)
    info.update(ops=p.ops, attempted=p.attempted, failed=p.failed,
                fail_ratio=p.failed / p.attempted, elapsed_s=p.elapsed, errors=p.errors)
    return metrics, p.attempted, p.failed, info
