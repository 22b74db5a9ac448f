"""Digests of the CLI reports that a refactor must leave byte-identical.

Usage, from any directory:

    python3 tools/report_digests.py > digests.txt
    python3 tools/report_digests.py --out DIR > digests.txt

Runs, in this process and from the repository root:

    suite --seed 1 --json
    fuzz ID --trials 500 --seed S --json     for every verifier id, S = 1..3
    the short fixture commands of bench/workloads.py (SHORT_COMMANDS)

and prints one line per command: the argv, the exit code and the sha256 of
stdout. Two trees give the same reports when their outputs are equal, e.g.
`diff <(python3 A/tools/report_digests.py) <(python3 B/tools/report_digests.py)`.
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
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from sspread import cli, harness  # noqa: E402
from workloads import SHORT_COMMANDS  # noqa: E402


def commands() -> list[list[str]]:
    out = [["suite", "--seed", "1", "--json"]]
    for ineq_id in sorted(harness.VERIFIERS):
        for seed in (1, 2, 3):
            out.append(["fuzz", ineq_id, "--trials", "500", "--seed", str(seed), "--json"])
    return out + [list(argv) for argv, _ in SHORT_COMMANDS]


def report(argv: list[str]) -> tuple[int, str]:
    """The exit code and stdout of one in-process CLI call."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, buf.getvalue()


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
        code, text = report(cmd)
        if out is not None:
            (out / file_name(cmd)).write_text(text)
        print(" ".join(cmd), code, hashlib.sha256(text.encode()).hexdigest())


if __name__ == "__main__":
    main()
