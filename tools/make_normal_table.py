"""Write the inverse normal CDF table that sspread.rng.Stream.normals reads.

Usage, from any directory:

    python3 tools/make_normal_table.py     # rewrites src/sspread/normal_table.npy

The table holds the knots of a piecewise-linear Phi^-1 on (0, 1/2]. The
lower half of the unit interval is cut into OCTAVES binary octaves
[2^(o - 54), 2^(o - 53)), o = 0 .. OCTAVES - 1, each into CELLS equal cells.
Knot o * CELLS + c is Phi^-1(2^(o - 54) * (1 + c / CELLS)), and the last
knot is Phi^-1(1/2) = 0. Values come from statistics.NormalDist().inv_cdf
(Wichura's AS 241, relative error about 1e-16), so a rerun on another C
library may move a knot by an ulp or so; the draws read the committed file,
never this script. The file is an .npy of little-endian float64.
"""

from __future__ import annotations

import math
import statistics
from pathlib import Path

import numpy as np

# p = v * 2^-54 for odd v in [1, 2^53): octaves 2^0 .. 2^52 of v
OCTAVES = 53
CELLS = 128
TABLE = Path(__file__).resolve().parent.parent / "src" / "sspread" / "normal_table.npy"


def knots() -> np.ndarray:
    """The OCTAVES * CELLS + 1 knots, as float64."""
    inv = statistics.NormalDist().inv_cdf
    out = [inv(math.ldexp(1.0 + c / CELLS, o - 54)) for o in range(OCTAVES) for c in range(CELLS)]
    out.append(inv(0.5))
    return np.array(out, dtype="<f8")


def main() -> int:
    np.save(TABLE, knots(), allow_pickle=False)
    print(f"wrote {OCTAVES * CELLS + 1} knots to {TABLE}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
