"""Spectral spread of Hermitian operators: scales, majorization, verifiers."""

__version__ = "0.1.0"

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
    SpreadError,
    UnknownExample,
    UnknownInequality,
    UnknownKind,
)
from .spectra import (
    DiagSpec,
    SpreadSeq,
    TwoSidedSeq,
    compact_scale,
    diag_scale,
    matrix_scale,
    spread_full,
    spread_plus,
)
from .major import (
    Interleaved,
    MajorizationReport,
    dec_rearrange,
    gauge,
    interleave,
    ky_fan,
    majorizes,
    schatten,
    submajorizes,
    updown_rearrange,
)
from .linalg import (
    as_cmatrix,
    as_hermitian,
    as_projection,
    compress,
    direct_sum,
    eigh,
    offdiag_embed,
    opnorm,
    sv_array,
    svd_values,
)
from .ineq import Verdict
from .rng import Stream, derive_seed

__all__ = [
    "__version__",
    "SpreadError", "NotHermitian", "NoConvergence", "NotProjection",
    "NotPositive", "NotProjectionSum", "ModeError",
    "HorizonMismatch", "DimMismatch", "UnknownKind",
    "UnknownExample", "UnknownInequality", "ParseError",
    "DiagSpec", "SpreadSeq", "TwoSidedSeq",
    "matrix_scale", "compact_scale", "diag_scale", "spread_full", "spread_plus",
    "Interleaved", "MajorizationReport", "dec_rearrange", "updown_rearrange",
    "interleave", "submajorizes", "majorizes",
    "ky_fan", "schatten", "gauge",
    "as_cmatrix", "as_hermitian", "as_projection", "eigh", "sv_array",
    "svd_values", "opnorm", "direct_sum", "offdiag_embed", "compress",
    "Verdict",
    "Stream", "derive_seed",
]
