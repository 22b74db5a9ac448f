"""Fixture reproductions: the paper's documented examples, rebuilt from
their exact inputs, with every quoted number recomputed and checked.

`sspread repro ID` and `sspread suite` run `repro`; the matrices are those of
the files under fixtures/, built here by construction.
"""

from __future__ import annotations

import math

import numpy as np

from . import ineq, linalg, major
from .errors import UnknownExample
from .spectra import DiagSpec, compact_scale, diag_scale, spread_plus


def _psd_root(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Square root of a positive matrix from its eigenpair: the literal
    F^(1/2) of the agm-fail-3x3 reproduction."""
    return (v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]) @ linalg._ct(v)


def fixture_matrices(example_id: str) -> dict:
    """Exact inputs for the documented examples, by construction."""
    if example_id == "kittaneh-fail":
        return {
            "A": np.eye(2, dtype=np.complex128),
            "B": np.array([[1.0, 2.0], [2.0, 1.0]], dtype=np.complex128),
            "X": np.array([[2.0, 1.0], [1.0, 2.0]], dtype=np.complex128),
        }
    if example_id == "agm-fail-2x2":
        t1, t2 = math.pi / 3.0, math.pi / 5.0
        return {
            "S": np.diag([math.sin(t1), math.sin(t2)]).astype(np.complex128),
            "C": np.diag([math.cos(t1), math.cos(t2)]).astype(np.complex128),
            "E": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128),
        }
    if example_id == "agm-fail-3x3":
        return {
            "A": np.array(
                [[1.0, 0.0, -1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 1.0]],
                dtype=np.complex128,
            ),
            "B": np.array(
                [[-1.0, 0.0, 0.5], [0.0, 1.0, 0.0], [0.5, 0.0, 1.0]],
                dtype=np.complex128,
            ),
            "E": np.array(
                [[1.0, 0.0, 2.0], [0.0, 1.0, 0.0], [2.0, 0.0, 1.0]],
                dtype=np.complex128,
            ),
        }
    if example_id == "diag-scale":
        return {
            "spec": DiagSpec(
                head=(), liminf=-1.0, limsup=1.0,
                generator="alt_harmonic", params={"upper": 1.0, "lower": -1.0},
            )
        }
    raise UnknownExample(f"unknown example id {example_id!r}")


EXAMPLE_IDS = ("diag-scale", "kittaneh-fail", "agm-fail-2x2", "agm-fail-3x3")


def _plain(value):
    if np.isscalar(value):
        return float(value)
    return [float(x) for x in np.asarray(value, dtype=float)]


def _item(name: str, computed, expected, tol: float) -> dict:
    if np.isscalar(expected):
        err = abs(float(computed) - float(expected))
    else:
        c = np.asarray(computed, dtype=float)
        e = np.asarray(expected, dtype=float)
        err = float(np.max(np.abs(c - e))) if c.shape == e.shape else math.inf
    return {
        "name": name,
        "computed": _plain(computed),
        "expected": _plain(expected),
        "tol": tol,
        "pass": bool(err <= tol),
    }


def _flag(name: str, value: bool, expected: bool = True) -> dict:
    return {
        "name": name, "computed": bool(value), "expected": expected,
        "tol": 0.0, "pass": bool(value) == expected,
    }


def repro(example_id: str) -> dict:
    """Recompute every quoted number of one documented example."""
    mats = fixture_matrices(example_id)
    checks: list[dict] = []
    if example_id == "kittaneh-fail":
        a, b, x = mats["A"], mats["B"], mats["X"]
        checks.append(_item("s(AX-XB)", linalg.sv_array(a @ x - x @ b), (6.0, 2.0), 1e-9))
        sc = compact_scale(linalg.direct_sum(a, b), 8)
        checks.append(_item("scale(A+B) pos head", sc.pos[:4], (3.0, 1.0, 1.0, 0.0), 1e-9))
        checks.append(_item("scale(A+B) neg head", sc.neg[:4], (-1.0, 0.0, 0.0, 0.0), 1e-9))
        checks.append(_item("s(X)", linalg.sv_array(x), (3.0, 1.0), 1e-9))
        spr = spread_plus(sc)
        checks.append(_item("spread(A+B) head", spr.values[:4], (4.0, 1.0, 1.0, 0.0), 1e-9))
        sx = linalg.sv_array(x)
        checks.append(
            _item("spread_2(A+B) * s_2(X)", float(spr.values[1] * sx[1]), 1.0, 1e-9)
        )
        v = ineq.check_mixed_commutator(a, b, x)
        checks.append(_flag("submajorization holds", v.holds))
        checks.append(_flag("entrywise fails at i=2", not v.entrywise_holds))
        checks.append(
            _item("entrywise slack at i=2", float(v.entrywise_margins[1]), -1.0, 1e-9)
        )
    elif example_id == "agm-fail-2x2":
        s, c, e = mats["S"], mats["C"], mats["E"]
        sec = s @ e @ c.conj().T
        fro = major.schatten(linalg.sv_array(sec), 2)
        checks.append(_item("|SEC*|_2", fro, 0.7598, 5e-4))
        half_e = 0.5 * major.schatten(linalg.sv_array(e), 2)
        checks.append(_item("|E|_2 / 2", half_e, math.sqrt(2.0) / 2.0, 1e-9))
        checks.append(_flag("identity-model norm bound fails", fro > half_e))
        checks.append(_item("spread(E)", spread_plus(compact_scale(e)).values, (2.0, 0.0, 0.0, 0.0), 1e-9))
        v = ineq.check_agm_compact(s, c, e)
        checks.append(_flag("compact-model bound holds", v.holds))
        checks.append(_flag("identity-model flag in verdict", not v.extras["fro"]["identity_ok"]))
    elif example_id == "agm-fail-3x3":
        a, b, e = mats["A"], mats["B"], mats["E"]
        f2 = a.conj().T @ a + b.conj().T @ b
        checks.append(_item("F = A*A+B*B diagonal", np.diagonal(f2).real, (3.25, 2.0, 3.25), 1e-9))
        checks.append(
            _item("F off-diagonal mass", float(np.max(np.abs(f2 - np.diag(np.diagonal(f2))))), 0.0, 1e-12)
        )
        w, v_ = linalg.eigh(f2)
        froot = _psd_root(w, v_)
        g = froot @ e @ froot
        wg = linalg.eigh(g).values
        checks.append(_item("eigenvalues of F^(1/2)EF^(1/2)", wg, (9.75, 2.0, -3.25), 1e-9))
        spr_g = spread_plus(compact_scale(g))
        checks.append(_item("spread head", spr_g.values[:3], (13.0, 2.0, 0.0), 1e-9))
        s_aeb = linalg.sv_array(a @ e @ b.conj().T)
        checks.append(_item("s(AEB*)", s_aeb, (4.74, 1.58, 1.0), 5e-2))
        checks.append(_item("2 s_2(AEB*) - 2 > 0 gap", float(2.0 * s_aeb[1] - 2.0), 1.16, 5e-2))
        v = ineq.check_agm_general(a, b, e)
        checks.append(_flag("submajorization holds", v.holds))
        checks.append(_flag("entrywise fails at i=2", not v.entrywise_holds))
    elif example_id == "diag-scale":
        spec = mats["spec"]
        k = 50
        sc = diag_scale(spec, k)
        checks.append(_item("lambda_i = 1 + 1/i", sc.pos, [1.0 + 1.0 / i for i in range(1, k + 1)], 1e-12))
        checks.append(_item("lambda_-i = -1", sc.neg, [-1.0] * k, 1e-12))
        checks.append(_item("tails", (sc.pos_tail, sc.neg_tail), (1.0, -1.0), 0.0))
        spr = spread_plus(sc)
        checks.append(_item("spread_i = 2 + 1/i", spr.values, [2.0 + 1.0 / i for i in range(1, k + 1)], 1e-12))
        checks.append(_item("spread tail", spr.tail, 2.0, 0.0))
    return {"example_id": example_id, "checks": checks, "holds": all(c["pass"] for c in checks)}
