"""Spectral spread of Hermitian operators: scales, majorization, verifiers.

The public names below load their module on first use (PEP 562), so
`import sspread` costs only the error types, and `python -m sspread CMD`
loads only the modules CMD runs.
"""

import importlib

from . import errors

__version__ = "0.2.0"

# public name -> the submodule that defines it
_HOMES = {
    **dict.fromkeys((
        "SpreadError", "NotHermitian", "NoConvergence", "NotProjection",
        "NotPositive", "NotProjectionSum", "ModeError",
        "HorizonMismatch", "DimMismatch", "UnknownExample",
        "UnknownInequality", "ParseError",
    ), "errors"),
    **dict.fromkeys((
        "DiagSpec", "SpreadSeq", "TwoSidedSeq",
        "matrix_scale", "compact_scale", "diag_scale", "spread_full", "spread_plus",
    ), "spectra"),
    **dict.fromkeys((
        "Interleaved", "MajorizationReport", "dec_rearrange", "updown_rearrange",
        "interleave", "submajorizes", "majorizes",
        "ky_fan", "schatten", "gauge",
    ), "major"),
    **dict.fromkeys((
        "as_cmatrix", "as_hermitian", "as_projection", "eigh", "sv_array",
        "svd_values", "opnorm", "direct_sum", "offdiag_embed", "compress",
    ), "linalg"),
    "Verdict": "ineq",
    "Stream": "rng",
    "derive_seed": "rng",
}

__all__ = ["__version__", *_HOMES]


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{home}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
