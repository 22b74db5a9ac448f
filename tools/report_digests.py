"""Digests of the reports and draws that a refactor must leave byte-identical.

Usage, from inside the checkout to digest:

    python3 tools/report_digests.py > digests.txt
    python3 tools/report_digests.py --out DIR > digests.txt

It digests the checkout that holds the working directory (the nearest of it
and its ancestors with a src/sspread directory), not the one that holds this
file; from a directory outside every checkout it exits with status 2 before
it imports numpy or sspread. It runs, in this process and from that
checkout's root:

    suite --seed 1 --json
    fuzz ID --trials 500 --seed S --json     for every verifier id, S = 1..3
    the short fixture commands of bench/workloads.py (SHORT_COMMANDS)
    scale|spread fixtures/diag_scale.diag --horizon H --json, H = 1, 50, 10000

and prints one line per command: the argv, the exit code and the sha256 of
stdout. It then runs a fixed list of invalid `check` commands (ERRORS) that
trips every input gate, and then overflows the arithmetic of trace_pairing,
general_commutator and agm_general on finite fuzz trials times 1e200 or
2**400, on matrix files it writes to a temporary directory and names
relative to it, so that no message holds a path. Then it runs a fixed list
of `fuzz`, `suite`, `scale` and `repro` commands whose --dims (a lower
bound of 0 among them: `--dims 0..4`), --trials, --horizon or id is refused
before any work (BOUNDARY), and prints one line per command:

    error ARGV CODE SHA      the exit code and the sha256 of stderr

None of those reports returns one trial's draw, and none draws on the
scalar stream (a Stream of one int seed), so it then prints one line per
single-trial draw:

    trial_args ID S 2..8     harness.trial_args(ID, S, (2, 8)), S = 1..4
    generate KIND D S        the harness generator of KIND (GENERATORS) on
                             Stream(S) at dimension D, D in 1, 2, 3, 6 and
                             S = 1..3

each with the sha256 over every returned matrix's shape and bytes, as
ineq._digest hashes a witness (a shared scalar argument, a split or an
absent E2, enters as its repr). A campaign report keeps only its worst
margin, so it then prints one line per whole verdict and per property row
set, which see a margin that moves no campaign minimum:

    verdict ID S A..B        cli.canonical_json(cli.verdict_to_dict(check(
                             *harness.trial_args(ID, S, (A, B))))), S = 1..4,
                             (A, B) = (2, 8) and (12, 16): every margin, the
                             extras and the witness
    property NAME S          the margins and details harness._rows gives the
                             trials of NAME at `suite --seed S`, S = 1..3
                             (60 trials, dims 2..8)
    diag_scale RULE K        spectra.diag_scale of one spec with a head per
                             generator rule, K = 1, 8, 50
    fuzz-rows ID S           every trial of `fuzz ID --trials 500 --seed S`
                             (dims 2..8), S = 1..3, as harness._rows gives
                             them to fuzz's reduction

each with the sha256 of that text, of the margins' bytes and the details'
canonical JSON, of the scale's sides and tails, or of the trials' holds
bytes then margin bytes in trial order. Two trees give the same reports when
their outputs are equal. Run one copy of this file in both, e.g. with T its
absolute path, `diff <(cd A && python3 T) <(cd B && python3 T)`.
With --out DIR, each command's stdout is also written to DIR, one file per
command named after its argv (e.g. `fuzz_zhan_--trials_500_--seed_1_--json.txt`),
so that two trees' reports can be compared field by field with `diff -r`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path


def checkout(start: Path) -> Path | None:
    """The nearest of start and its ancestors that holds src/sspread, or None."""
    return next((p for p in (start, *start.parents) if (p / "src" / "sspread").is_dir()), None)


ROOT = checkout(Path.cwd().resolve())
if ROOT is None:
    print(f"report_digests: no directory from {Path.cwd()} up holds src/sspread; "
          "run it from inside the checkout to digest", file=sys.stderr)
    sys.exit(2)
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import numpy as np  # noqa: E402

from sspread import cli, harness, ineq, spectra  # noqa: E402
from sspread.properties import PROPERTIES  # noqa: E402
from sspread.rng import Stream, _splitmix64_block, derive_seed  # noqa: E402
from workloads import SHORT_COMMANDS  # noqa: E402


def commands() -> list[list[str]]:
    out = [["suite", "--seed", "1", "--json"]]
    for ineq_id in sorted(harness.VERIFIERS):
        for seed in (1, 2, 3):
            out.append(["fuzz", ineq_id, "--trials", "500", "--seed", str(seed), "--json"])
    out += [list(argv) for argv, _ in SHORT_COMMANDS]
    for cmd in ("scale", "spread"):
        for horizon in ("1", "50", "10000"):
            out.append([cmd, "fixtures/diag_scale.diag", "--horizon", horizon, "--json"])
    return out


def report(argv: list[str]) -> tuple[int, str, str]:
    """The exit code, stdout and stderr of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


I2 = ("1 0", "0 1")
I3 = ("1 0 0", "0 1 0", "0 0 1")
E11 = ("1 0", "0 0")
E22 = ("0 0", "0 1")

# (id, {file: rows}): each command trips one input gate; a file holds
# `dim n` and its n rows, or the text of a matrix
ERRORS = (
    ("zhan", {"E": I2, "F": I3}),  # a mis-shaped pair
    ("key", {"A": ("1 1", "0 1")}),  # a non-Hermitian operand
    ("tao_positive", {"F": ("1 0", "0 -1")}),  # a non-positive F
    ("agm_pair", {"S": ("-1 0", "0 0"), "C": E22, "E": I2}),  # a non-positive S
    ("agm_pair", {"S": E11, "C": ("0 0", "0 -1"), "E": I2}),  # a non-positive C
    ("control_kittaneh", {"C": ("1 0", "0 -1"), "D": I2, "X": I2}),  # a non-positive C
    ("control_kittaneh", {"C": I2, "D": ("1 0", "0 -1"), "X": I2}),  # a non-positive D
    ("control_kittaneh", {"C": I2, "D": I2, "X": I3}),  # a wrongly shaped X
    ("agm_projection", {"S": ("2 0", "0 0"), "C": E22, "E": I2}),  # C*C + S*S no projection
    ("agm_compact", {"S": E11, "C": E22, "E": I3}),  # E off the splitting's space
    ("agm_pair", {"S": E11, "C": E22, "E": I3}),  # agm_pair's shape mismatch
    ("agm_general", {"A": I2, "B": I2, "E": I3}),  # agm_general's shape mismatch
    ("key", {"A": ("1 2ii", "0 1")}),  # a bad complex literal
    ("key", {"A": ("1 1.2.3", "0 1")}),  # a bad number
    ("no_such_id", {"A": I2}),  # an unknown id
) + tuple(
    # finite operands whose scale overflows the claim's arithmetic: a file
    # holds a matrix of a fuzz trial times the scale
    (ineq_id, {name: scale * m for name, m in zip(names, harness.trial_args(ineq_id, *trial))})
    for ineq_id, names, trial, scale in (
        ("trace_pairing", "AB", (3, (4, 4)), 1e200),
        ("general_commutator", "ABX", (1, (4, 4)), 1e200),  # X square, as a file holds
        ("agm_general", "ABE", (1, (2, 8)), 2.0**400),  # tr F max|E| overflows
    )
)


# commands refused at the CLI boundary: a --dims range below 1, without
# d >= 2, above MAX_DIM, empty or malformed; --trials below 1 or above MAX_TRIALS; a
# compact horizon below d, a diag horizon of 0 or above 10,000, a matrix-mode
# horizon; and an unknown fuzz or repro id
BOUNDARY = tuple(
    [cmd, *(["key"] if cmd == "fuzz" else []), flag, value, "--json"]
    for cmd in ("fuzz", "suite")
    for flag, value in (("--dims", "0..4"), ("--dims", "1..1"), ("--dims", "2..1025"),
                        ("--dims", "4..2"), ("--dims", "3"), ("--trials", "0"),
                        ("--trials", "1000001"))
) + (
    ["scale", "fixtures/agm_fail_2x2_S.txt", "--horizon", "1", "--json"],
    ["scale", "fixtures/diag_scale.diag", "--horizon", "0", "--json"],
    ["scale", "fixtures/diag_scale.diag", "--horizon", "10001", "--json"],
    ["scale", "fixtures/agm_fail_2x2_S.txt", "--mode", "matrix", "--horizon", "2", "--json"],
    ["fuzz", "no_such_id", "--json"],
    ["repro", "no_such_example", "--json"],
)


def errors() -> list[tuple[list[str], int, str]]:
    """(argv, exit code, stderr) of every ERRORS command, then of every
    BOUNDARY command; each ERRORS command's files go to its own numbered
    directory, named relative to the temporary one."""
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for n, (ineq_id, files) in enumerate(ERRORS):
                os.mkdir(str(n))
                for name, rows in files.items():
                    text = (cli.write_matrix_text(rows) if isinstance(rows, np.ndarray)
                            else f"dim {len(rows)}\n" + "\n".join(rows))
                    Path(f"{n}/{name}.txt").write_text(text)
                argv = ["check", ineq_id, *(f"{n}/{name}.txt" for name in files)]
                code, _, err = report(argv)
                out.append((argv, code, err))
        finally:
            os.chdir(ROOT)
    for argv in BOUNDARY:
        code, _, err = report(argv)
        out.append((argv, code, err))
    return out


# generator kind -> its draw on a stream at dimension d; the kind names keep
# the labels of earlier digests, so two versions' outputs compare line by line
GENERATORS = {
    "hermitian": harness._hermitian,
    "positive": harness._positive,
    "unitary": harness._unitary,
    "projection": harness._projection,
    "partition_isometry": harness._partition,
    "complex_general": lambda stream, d: harness._crandn(stream, d, d),
}


def draws() -> list[tuple[str, object]]:
    """(label, value) of every single-trial draw the digest covers."""
    out = []
    for ineq_id in sorted(harness.VERIFIERS):
        for seed in (1, 2, 3, 4):
            out.append((f"trial_args {ineq_id} {seed} 2..8",
                        harness.trial_args(ineq_id, seed, (2, 8))))
    for kind, gen in GENERATORS.items():
        for dim in (1, 2, 3, 6):
            for seed in (1, 2, 3):
                out.append((f"generate {kind} {dim} {seed}", gen(Stream(seed), dim)))
    return out


def verdicts() -> list[tuple[str, str]]:
    """(label, sha256) of the whole verdict of every trial_args trial covered."""
    out = []
    for ineq_id in sorted(harness.VERIFIERS):
        check = getattr(ineq, harness.VERIFIERS[ineq_id].check)
        for dims in ((2, 8), (12, 16)):
            for seed in (1, 2, 3, 4):
                v = check(*harness.trial_args(ineq_id, seed, dims))
                text = cli.canonical_json(cli.verdict_to_dict(v))
                out.append((f"verdict {ineq_id} {seed} {dims[0]}..{dims[1]}",
                            hashlib.sha256(text.encode()).hexdigest()))
    return out


def properties() -> list[tuple[str, str]]:
    """(label, sha256) of every property's rows at `suite --seed S`, S = 1..3,
    numbered as property_suite numbers them."""
    out = []
    for seed in (1, 2, 3):
        for idx, (name, prop) in enumerate(sorted(PROPERTIES.items())):
            seeds = _splitmix64_block(derive_seed(seed, idx), 0, 60)
            _, margin, detail = harness._rows(prop, prop.judge, seeds, (2, 8))
            h = hashlib.sha256(margin.tobytes())
            h.update(cli.canonical_json(detail).encode())
            out.append((f"property {name} {seed}", h.hexdigest()))
    return out


# one spec per generator rule, each with a head that crosses its band; the
# constant spec's head puts -0.0 and +0.0 below it, so their order shows
DIAG_SPECS = {
    "constant": spectra.DiagSpec(head=(3.0, -0.0, 1.0, 0.0, -1.0), liminf=1.0, limsup=1.0,
                                 generator="constant", params={"value": 1.0}),
    "zero": spectra.DiagSpec(head=(1.5, -0.0, 0.0, -2.0), generator="zero"),
    "harmonic": spectra.DiagSpec(head=(0.5, 4.0, -1.0), liminf=1.0, limsup=1.0,
                                 generator="harmonic", params={"limit": 1.0, "coef": -2.0}),
    "alt_harmonic": spectra.DiagSpec(head=(2.5, -3.0), liminf=-0.5, limsup=0.25,
                                     generator="alt_harmonic",
                                     params={"upper": -0.5, "lower": 0.25}),
}


def diag_scales() -> list[tuple[str, str]]:
    """(label, sha256) of the diag scale of each DIAG_SPECS spec at K = 1, 8, 50."""
    out = []
    for rule, spec in DIAG_SPECS.items():
        for k in (1, 8, 50):
            sc = spectra.diag_scale(spec, k)
            h = hashlib.sha256(sc.pos.tobytes() + sc.neg.tobytes())
            h.update(repr((sc.pos_tail, sc.neg_tail)).encode())
            out.append((f"diag_scale {rule} {k}", h.hexdigest()))
    return out


def fuzz_rows() -> list[tuple[str, str]]:
    """(label, sha256) of every trial's holds and margin in the fuzz campaigns
    covered, which see a margin that moves no campaign minimum."""
    out = []
    for ineq_id in sorted(harness.VERIFIERS):
        entry = harness.VERIFIERS[ineq_id]
        for seed in (1, 2, 3):
            seeds = _splitmix64_block(seed, 0, 500)
            holds, margin, _ = harness._rows(entry, entry.judge, seeds, (2, 8))
            out.append((f"fuzz-rows {ineq_id} {seed}",
                        hashlib.sha256(holds.tobytes() + margin.tobytes()).hexdigest()))
    return out


def digest(value) -> str:
    """sha256 over the shape and bytes of each matrix of a draw, in order."""
    h = hashlib.sha256()
    for part in value if isinstance(value, tuple) else (value,):
        if isinstance(part, np.ndarray):
            a = np.ascontiguousarray(part, dtype=np.complex128)
            h.update(repr(a.shape).encode())
            h.update(a.tobytes())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()


def file_name(argv: list[str]) -> str:
    """A file name for argv's report: its words joined by '_', path
    separators replaced."""
    return "_".join(argv).replace("/", "-") + ".txt"


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, help="also write each command's stdout here")
    args = parser.parse_args(argv)
    out = None if args.out is None else args.out.resolve()
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
    os.chdir(ROOT)
    for cmd in commands():
        code, text, _ = report(cmd)
        if out is not None:
            (out / file_name(cmd)).write_text(text)
        print(" ".join(cmd), code, hashlib.sha256(text.encode()).hexdigest())
    for cmd, code, err in errors():
        print("error", " ".join(cmd), code, hashlib.sha256(err.encode()).hexdigest())
    for label, value in draws():
        print(label, digest(value))
    for label, sha in verdicts() + properties() + diag_scales() + fuzz_rows():
        print(label, sha)


if __name__ == "__main__":
    main()
