"""Digests of the CLI reports that a refactor must leave byte-identical.

Usage, from any directory:

    python3 tools/report_digests.py > digests.txt

Runs, in this process and from the repository root:

    suite --seed 1 --json
    fuzz ID --trials 500 --seed S --json     for every verifier id, S = 1..3
    the short fixture commands of bench/workloads.py (SHORT_COMMANDS)

and prints one line per command: the argv, the exit code and the sha256 of
stdout. Two trees give the same reports when their outputs are equal, e.g.
`diff <(python3 A/tools/report_digests.py) <(python3 B/tools/report_digests.py)`.
"""

from __future__ import annotations

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


def digest(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, hashlib.sha256(buf.getvalue().encode()).hexdigest()


def main() -> None:
    os.chdir(ROOT)
    for argv in commands():
        code, sha = digest(argv)
        print(" ".join(argv), code, sha)


if __name__ == "__main__":
    main()
