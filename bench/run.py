"""sspread benchmark: one workload, one run, one JSON result line.

Usage, from the repository root:

    python3 bench/run.py --workload campaign-small --seed 1 --seconds 20 --trace 0

--trace 0 measures the end-to-end metrics with nothing wrapped; --trace 1 is
a separate run that reports the per-layer metrics from spans. The last line
of stdout is {"correct", "attempted", "failed", "metrics"}; the line before
it records the environment, the tail percentile, the failure ratio and the
sha256 digests of the reports. BLAS runs on one thread, here and in every
child process.
"""

from __future__ import annotations

import os

# before numpy loads, so that OpenBLAS starts single-threaded
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("campaign-small", "replay-large", "cli-cold")


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "threads": {v: os.environ[v] for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smallest inputs, for the smoke test only")
    args = ap.parse_args()

    missing = [p for p in ("src/sspread/__init__.py", "fixtures") if not (ROOT / p).exists()]
    if missing:
        print(f"bench: {', '.join(missing)} not found under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)

    import workloads

    metrics, attempted, failed, info = workloads.run(
        args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    for msg in info["errors"]:
        print(f"bench: FAILED {msg}", file=sys.stderr)
    info["env"] = environment()
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
