"""Command-line frontend: file formats, reports, and subcommands.

Matrix files: a header line "dim <n>", then n rows of n whitespace-separated
complex entries written as a+bi (bare reals accepted on input), with optional
"mode: matrix|compact" and "#" comment lines. Diagonal-operator files start
with "diag" and carry "head:", "liminf:", "limsup:", and an optional
"generator: <name> key=value ..." line, each key at most once.

The JSON report is the machine interface; the human text output is a
rendering of the same report. Floats are serialized with 17 significant
digits and dictionary keys are sorted, so identical runs produce identical
bytes. Exit codes: 0 holds, 1 fails, 2 parse or input-contract error,
3 mode violation, 4 unknown identifier.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import inspect
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__, harness, ineq, linalg, major
from .errors import (
    DimMismatch,
    HorizonMismatch,
    ModeError,
    NoConvergence,
    NotHermitian,
    NotPositive,
    NotProjection,
    NotProjectionSum,
    ParseError,
    UnknownExample,
    UnknownInequality,
)
from .spectra import DiagSpec, diag_scale, compact_scale, matrix_scale, spread_full, spread_plus

EXIT_HOLDS = 0
EXIT_FAILS = 1
EXIT_PARSE = 2
EXIT_MODE = 3
EXIT_UNKNOWN = 4

_PARSE_ERRORS = (
    ParseError, NotHermitian, NotPositive, NotProjection, NotProjectionSum,
    DimMismatch, OSError, NoConvergence, ValueError,
)
_MODE_ERRORS = (ModeError, HorizonMismatch)
_UNKNOWN_ERRORS = (UnknownInequality, UnknownExample)

# the largest --horizon of scale and spread: the report lists two numbers per step
_MAX_HORIZON = 10_000


# ---------------------------------------------------------------------------
# complex literals and file formats


def parse_complex(tok: str) -> complex:
    t = tok.strip()
    if not t:
        raise ParseError("empty entry")
    if t[-1] in "iI":
        body = t[:-1]
        split = -1
        for j in range(len(body) - 1, 0, -1):
            if body[j] in "+-" and body[j - 1] not in "eE":
                split = j
                break
        try:
            if split > 0:
                re = float(body[:split])
                imag_txt = body[split:]
            else:
                re = 0.0
                imag_txt = body
            if imag_txt in ("", "+"):
                im = 1.0
            elif imag_txt == "-":
                im = -1.0
            else:
                im = float(imag_txt)
        except ValueError as exc:
            raise ParseError(f"bad complex literal {tok!r}") from exc
        return complex(re, im)
    try:
        return complex(float(t), 0.0)
    except ValueError as exc:
        raise ParseError(f"bad number {tok!r}") from exc


def format_complex(z: complex) -> str:
    re, im = float(z.real), float(z.imag)
    # the sign bit, so that -0.0 survives a round trip through parse_complex
    sign = "-" if math.copysign(1.0, im) < 0 else "+"
    return f"{re!r}{sign}{abs(im)!r}i"


def _content_lines(text: str) -> list[str]:
    out = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append(line)
    return out


def parse_matrix_text(text: str) -> tuple[np.ndarray | DiagSpec, str | None]:
    """Parse a matrix or diag file; returns (payload, declared mode or None)."""
    lines = _content_lines(text)
    if not lines:
        raise ParseError("empty file")
    if lines[0].lower() == "diag":
        return _parse_diag(lines[1:]), "diag"
    mode = None
    if lines[0].lower().startswith("mode:"):
        mode = _parse_mode_directive(lines.pop(0))
    if not lines or not lines[0].lower().startswith("dim"):
        raise ParseError("expected a 'dim <n>' header")
    head = lines.pop(0).split()
    if len(head) != 2:
        raise ParseError(f"malformed header {' '.join(head)!r}")
    try:
        n = int(head[1])
    except ValueError as exc:
        raise ParseError(f"bad dimension {head[1]!r}") from exc
    if n < 1:
        raise ParseError(f"dimension must be >= 1, got {n}")
    if lines and lines[0].lower().startswith("mode:"):
        mode = _parse_mode_directive(lines.pop(0))
    if len(lines) != n:
        raise ParseError(f"expected {n} rows, found {len(lines)}")
    rows = []
    for line in lines:
        toks = line.split()
        if len(toks) != n:
            raise ParseError(f"expected {n} entries per row, found {len(toks)}")
        rows.append([parse_complex(t) for t in toks])
    return np.array(rows, dtype=np.complex128), mode


def _parse_mode_directive(line: str) -> str:
    mode = line.split(":", 1)[1].strip().lower()
    if mode not in ("matrix", "compact"):
        raise ParseError(f"unknown mode directive {mode!r}")
    return mode


def _parse_diag(lines: list[str]) -> DiagSpec:
    head: tuple[float, ...] = ()
    liminf = limsup = None
    generator = None
    params: dict[str, float] = {}
    seen: set[str] = set()
    for line in lines:
        if ":" not in line:
            raise ParseError(f"malformed diag line {line!r}")
        key, rest = [x.strip() for x in line.split(":", 1)]
        key = key.lower()
        if key in seen:
            raise ParseError(f"diag key {key!r} given twice")
        seen.add(key)
        try:
            if key == "head":
                head = tuple(float(t) for t in rest.split())
            elif key == "liminf":
                liminf = float(rest)
            elif key == "limsup":
                limsup = float(rest)
            elif key == "generator":
                toks = rest.split()
                if not toks:
                    raise ParseError("generator line needs a rule name")
                generator = toks[0]
                for t in toks[1:]:
                    if "=" not in t:
                        raise ParseError(f"bad generator parameter {t!r}")
                    k, v = t.split("=", 1)
                    if k in params:
                        raise ParseError(f"generator parameter {k!r} given twice")
                    params[k] = float(v)
            else:
                raise ParseError(f"unknown diag key {key!r}")
        except ValueError as exc:
            raise ParseError(f"bad diag value in {line!r}") from exc
    if liminf is None or limsup is None:
        raise ParseError("diag file needs liminf: and limsup: lines")
    try:
        return DiagSpec(head=head, liminf=liminf, limsup=limsup,
                        generator=generator, params=params)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def write_matrix_text(m, mode: str | None = None) -> str:
    a = linalg.as_cmatrix(m)
    if a.shape[0] != a.shape[1]:
        raise ValueError("matrix files hold square matrices")
    lines = [f"dim {a.shape[0]}"]
    if mode is not None:
        lines.insert(0, f"mode: {mode}")
    for row in a:
        lines.append(" ".join(format_complex(z) for z in row))
    return "\n".join(lines) + "\n"


def load_file(path: str) -> tuple[np.ndarray | DiagSpec, str | None]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_matrix_text(fh.read())


def _load_matrix(path: str) -> tuple[np.ndarray, str | None]:
    """A matrix file's matrix as parsed, and its declared mode or None; the
    verifier that takes the matrix validates it."""
    payload, declared = load_file(path)
    if isinstance(payload, DiagSpec):
        raise ModeError(f"{path} holds a diagonal-operator description, not a matrix")
    return payload, declared


# ---------------------------------------------------------------------------
# canonical JSON


def _fmt_float(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        return "null"
    return "%.17g" % x


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, floats at 17 significant digits."""
    if obj is None or isinstance(obj, bool):
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        return canonical_json(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(canonical_json(v) for v in obj) + "]"
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: str(kv[0]))
        return "{" + ",".join(json.dumps(str(k)) + ":" + canonical_json(v) for k, v in items) + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def report_to_dict(rep: major.MajorizationReport | None) -> dict | None:
    if rep is None:
        return None
    return {
        "kind": rep.kind,
        "margins": list(rep.margins_upper),
        "margins_lower": None if rep.margins_lower is None else list(rep.margins_lower),
        "holds": rep.holds,
        "worst_k": rep.worst_k,
        "tail_verdict": rep.tail_verdict,
        "tol": rep.tol,
    }


def verdict_to_dict(v: ineq.Verdict) -> dict:
    return {
        "ineq_id": v.ineq_id,
        "holds": v.holds,
        "mode": v.mode,
        "witness": v.witness,
        "report": report_to_dict(v.report),
        "entrywise_margins": None if v.entrywise_margins is None else list(v.entrywise_margins),
        "entrywise_holds": v.entrywise_holds,
        "extras": v.extras,
    }


def _report(command: str, paths=(), seed: int | None = None, **body) -> dict:
    """A command's report: its own fields in the envelope every report
    carries (command, input files with their sha256, seed, versions)."""
    inputs = []
    for p in paths:
        with open(p, "rb") as fh:
            inputs.append({"path": p, "digest": hashlib.sha256(fh.read()).hexdigest()})
    return {"command": command, "inputs": inputs, "seed": seed,
            "versions": {"sspread": __version__}, **body}


# ---------------------------------------------------------------------------
# subcommands


def _default_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("SSPREAD_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ParseError(f"SSPREAD_SEED={env!r} is not an integer") from exc
    return 1


def _scale_of(payload, declared: str | None, args):
    if args.horizon is not None and args.horizon > _MAX_HORIZON:
        raise ParseError(f"horizon goes up to {_MAX_HORIZON}, got {args.horizon}")
    if isinstance(payload, DiagSpec):
        if args.mode not in (None, "diag"):
            raise ModeError(f"a diagonal-operator file cannot be read in {args.mode} mode")
        return diag_scale(payload, 8 if args.horizon is None else args.horizon)
    mode = args.mode or declared or "compact"
    if mode == "matrix":
        if args.horizon is not None:
            raise ModeError("matrix mode has no horizon parameter")
        return matrix_scale(payload)
    if mode == "compact":
        return compact_scale(payload, args.horizon)
    raise ModeError(f"unknown mode {mode!r}")


def cmd_scale(args) -> tuple[dict, int]:
    payload, declared = load_file(args.file)
    sc = _scale_of(payload, declared, args)
    report = _report("scale", [args.file], mode=sc.mode, K=sc.K, pos=list(sc.pos),
                     neg=list(sc.neg), pos_tail=sc.pos_tail, neg_tail=sc.neg_tail)
    return report, EXIT_HOLDS


def cmd_spread(args) -> tuple[dict, int]:
    payload, declared = load_file(args.file)
    sc = _scale_of(payload, declared, args)
    spr = spread_plus(sc)
    report = _report("spread", [args.file], mode=sc.mode, values=list(spr.values),
                     tail=spr.tail)
    if args.full:
        full = spread_full(sc)
        report["full_pos"] = list(full.pos)
        report["full_neg"] = list(full.neg)
        report["full_pos_tail"] = full.pos_tail
        report["full_neg_tail"] = full.neg_tail
    return report, EXIT_HOLDS


def cmd_check(args) -> tuple[dict, int]:
    entry = harness.VERIFIERS.get(args.ineq_id)
    if entry is None:
        raise UnknownInequality(f"unknown inequality {args.ineq_id!r}")
    check = getattr(ineq, entry.check)
    # one file per matrix parameter, optional where it has a default
    sig = inspect.signature(check)
    files = ineq._matrix_params(sig)
    split = {} if args.split is None else {"split": args.split}
    if split and "split" not in sig.parameters:
        raise ParseError(f"{args.ineq_id} takes no --split")
    lo = sum(p.default is p.empty for p in files)
    if not lo <= len(args.files) <= len(files):
        want = str(lo) if lo == len(files) else f"{lo} or {len(files)}"
        raise ParseError(f"{args.ineq_id} takes {want} matrix files, got {len(args.files)}")
    loaded = [_load_matrix(p) for p in args.files]
    v = check(*(m for m, _ in loaded), **split)
    for path, (_, declared) in zip(args.files, loaded):
        if declared not in (None, v.mode):
            raise ModeError(f"{path} declares mode {declared}, but {v.ineq_id} is judged"
                            f" in {v.mode} mode")
    report = _report("check", args.files, check=verdict_to_dict(v))
    return report, EXIT_HOLDS if v.holds else EXIT_FAILS


def cmd_fuzz(args) -> tuple[dict, int]:
    t0 = time.perf_counter()
    seed = _default_seed(args)
    s = harness.fuzz(args.ineq_id, trials=args.trials, dims=args.dims, seed=seed)
    dt = (time.perf_counter() - t0) * 1e3
    print(f"fuzz {args.ineq_id}: {s.trials} trials in {dt:.0f} ms", file=sys.stderr)
    report = _report("fuzz", seed=seed, dims=list(args.dims), summary=dataclasses.asdict(s))
    return report, EXIT_HOLDS if s.failures == 0 else EXIT_FAILS


def cmd_repro(args) -> tuple[dict, int]:
    rep = harness.repro(args.example_id)
    return _report("repro", repro=rep), EXIT_HOLDS if rep["holds"] else EXIT_FAILS


def cmd_suite(args) -> tuple[dict, int]:
    t0 = time.perf_counter()
    seed = _default_seed(args)
    repros = [harness.repro(ex) for ex in harness.EXAMPLE_IDS]
    fuzzes = [
        dataclasses.asdict(harness.fuzz(f, trials=args.trials, dims=args.dims, seed=seed))
        for f in harness.VERIFIERS
    ]
    props = harness.property_suite(seed, trials=args.trials, dims=args.dims)
    ok = (
        all(r["holds"] for r in repros)
        and all(f["failures"] == 0 for f in fuzzes)
        and props["holds"]
    )
    report = _report("suite", seed=seed, trials=args.trials, dims=list(args.dims),
                     repro=repros, fuzz=fuzzes, properties=props, holds=ok)
    # timing goes to stderr only, keeping the report byte-stable per seed
    dt = (time.perf_counter() - t0) * 1e3
    print(f"suite: {len(fuzzes)} families, {args.trials} trials each, {dt:.0f} ms", file=sys.stderr)
    return report, EXIT_HOLDS if ok else EXIT_FAILS


# ---------------------------------------------------------------------------
# rendering


def _render_human(report: dict) -> str:
    cmd = report.get("command")
    lines: list[str] = []
    if cmd == "scale":
        lines.append(f"mode {report['mode']}  K={report['K']}")
        lines.append("pos: " + " ".join("%.12g" % x for x in report["pos"]))
        lines.append("neg: " + " ".join("%.12g" % x for x in report["neg"]))
        if report["pos_tail"] is not None:
            lines.append(f"tails: pos={report['pos_tail']!r} neg={report['neg_tail']!r}")
    elif cmd == "spread":
        lines.append(f"mode {report['mode']}")
        lines.append("spread: " + " ".join("%.12g" % x for x in report["values"]))
        lines.append(f"tail: {report['tail']!r}")
        if "full_neg" in report:
            lines.append("full neg: " + " ".join("%.12g" % x for x in report["full_neg"]))
    elif cmd == "check":
        c = report["check"]
        lines.append(f"{c['ineq_id']}: {'holds' if c['holds'] else 'FAILS'}  (mode {c['mode']})")
        rep = c.get("report")
        if rep is not None:
            lines.append(
                f"  worst margin {min(rep['margins']):.3e} at k={rep['worst_k']}"
                f", tol {rep['tol']:.1e}, tail {rep['tail_verdict']}"
            )
        if c.get("entrywise_holds") is not None:
            lines.append(f"  entrywise: {'holds' if c['entrywise_holds'] else 'fails'}")
    elif cmd == "fuzz":
        s = report["summary"]
        lines.append(
            f"fuzz {s['ineq_id']}: trials={s['trials']} failures={s['failures']}"
            f" worst_margin={s['worst_margin']:.3e} worst_seed={s['worst_seed']}"
        )
    elif cmd == "repro":
        r = report["repro"]
        lines.append(f"repro {r['example_id']}: {'PASS' if r['holds'] else 'FAIL'}")
        for c in r["checks"]:
            mark = "ok " if c["pass"] else "XX "
            lines.append(f"  {mark}{c['name']}: computed={c['computed']} expected={c['expected']} tol={c['tol']}")
    elif cmd == "suite":
        lines.append(f"suite seed={report['seed']} trials={report['trials']}: "
                     f"{'PASS' if report['holds'] else 'FAIL'}")
        for r in report["repro"]:
            lines.append(f"  repro {r['example_id']}: {'ok' if r['holds'] else 'FAIL'}")
        for f in report["fuzz"]:
            mark = "ok" if f["failures"] == 0 else "FAIL"
            lines.append(f"  fuzz {f['ineq_id']}: {mark} ({f['trials']} trials)")
        p = report["properties"]
        mark = "ok" if p["holds"] else "FAIL"
        lines.append(f"  properties: {mark} ({len(p['properties'])} properties)")
    else:
        lines.append(canonical_json(report))
    return "\n".join(lines)


def _parse_dims(text: str) -> tuple[int, int]:
    if ".." not in text:
        raise ParseError(f"dims must look like a..b, got {text!r}")
    lo_s, hi_s = text.split("..", 1)
    try:
        lo, hi = int(lo_s), int(hi_s)
    except ValueError as exc:
        raise ParseError(f"dims must be integers, got {text!r}") from exc
    if lo < 1 or hi < lo:
        raise ParseError(f"empty dimension range {text!r}")
    if hi < 2:
        raise ParseError(f"fuzz families need dimension 2 or more, got {text!r}")
    if hi > harness.MAX_DIM:
        raise ParseError(f"dimensions go up to {harness.MAX_DIM}, got {text!r}")
    return lo, hi


def _parse_trials(text: str) -> int:
    try:
        n = int(text)
    except ValueError as exc:
        raise ParseError(f"trials must be an integer, got {text!r}") from exc
    if not 1 <= n <= harness.MAX_TRIALS:
        raise ParseError(f"trials must be in [1, {harness.MAX_TRIALS}], got {n}")
    return n


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ParseError(message)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="sspread", description="spectral spread toolkit")
    sub = p.add_subparsers(dest="cmd", required=True)

    def common(sp, horizon=False, mode=False, seed=False, trials=None, dims=False):
        sp.add_argument("--json", action="store_true", help="emit the JSON report")
        if mode:
            sp.add_argument("--mode", choices=["matrix", "compact"], default=None)
        if horizon:
            sp.add_argument("--horizon", type=int, default=None, metavar="K")
        if seed:
            sp.add_argument("--seed", type=int, default=None)
        if trials is not None:
            sp.add_argument("--trials", type=_parse_trials, default=trials)
        if dims:
            sp.add_argument("--dims", type=_parse_dims, default=(2, 8), metavar="a..b")

    sp = sub.add_parser("scale", help="two-sided spectral scale of a file")
    sp.add_argument("file")
    common(sp, horizon=True, mode=True)
    sp.set_defaults(func=cmd_scale)

    sp = sub.add_parser("spread", help="spectral spread of a file")
    sp.add_argument("file")
    sp.add_argument("--full", action="store_true", help="include the two-sided spread")
    common(sp, horizon=True, mode=True)
    sp.set_defaults(func=cmd_spread)

    sp = sub.add_parser("check", help="run one inequality verifier on files")
    sp.add_argument("ineq_id")
    sp.add_argument("files", nargs="*")
    sp.add_argument("--split", type=int, default=None, help="top-left block size")
    common(sp)
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("fuzz", help="run a seeded fuzz campaign")
    sp.add_argument("ineq_id")
    common(sp, seed=True, trials=500, dims=True)
    sp.set_defaults(func=cmd_fuzz)

    sp = sub.add_parser("repro", help="recompute a documented example")
    sp.add_argument("example_id")
    common(sp)
    sp.set_defaults(func=cmd_repro)

    sp = sub.add_parser("suite", help="repro + properties + fuzz, deterministically")
    common(sp, seed=True, trials=60, dims=True)
    sp.set_defaults(func=cmd_suite)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        report, code = args.func(args)
    except _MODE_ERRORS as exc:
        print(f"sspread: mode violation: {exc}", file=sys.stderr)
        return EXIT_MODE
    except _UNKNOWN_ERRORS as exc:
        print(f"sspread: {exc}", file=sys.stderr)
        return EXIT_UNKNOWN
    except _PARSE_ERRORS as exc:
        print(f"sspread: {exc}", file=sys.stderr)
        return EXIT_PARSE
    if args.json:
        print(canonical_json(report))
    else:
        print(_render_human(report))
    return code


def run() -> None:
    sys.exit(main())
