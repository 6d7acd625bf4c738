"""Defining equations of multi-Rees algebras over a permutable weak
regular sequence, constructed through binary quasi-minors of the
presentation matrix and certified two independent ways: a Buchberger-style
S-pair check over the coefficient ring, and a degree-bounded kernel
oracle that works straight from the monomial fibers of the presentation
map.
"""
from .poly import (
    CapExceeded,
    GuardExceeded,
    Mono,
    MonomialOrder,
    Poly,
    SpecError,
    UniverseMismatch,
    VarUniverse,
    ZeroPolynomial,
    default_t_precedence,
    leading,
    mono_text,
)
from .sseq import (
    SeqSpec,
    TaylorComplex,
    syzygy_generators,
    taylor_complex,
)
from .quasimat import (
    Binomial,
    QuasiMatrix,
    binary_subquasi_enumerate,
    quasi_determinants,
)
from .grobner import (
    INCONCLUSIVE,
    REDUCED_TO_ZERO,
    BuchbergerReport,
    ReductionCert,
    buchberger_check,
    default_order_suite,
    s_poly,
    top_reduce,
)
from .rees import (
    FULL,
    RESTRICTED,
    SINGLE,
    Generator,
    NormalityReport,
    Presentation,
    ReesSpec,
    build_presentation,
    defining_generators,
    normality_report,
    spec_from_dict,
    spec_from_json,
    spec_to_dict,
)
from .oracle import (
    ImageData,
    KernelPiece,
    OracleReport,
    SpanReport,
    default_degrees,
    kernel_piece,
    oracle_check,
    source_monomials,
    span_compare,
)

__version__ = "0.1.0"

__all__ = [
    "Binomial",
    "BuchbergerReport",
    "CapExceeded",
    "FULL",
    "Generator",
    "GuardExceeded",
    "ImageData",
    "INCONCLUSIVE",
    "KernelPiece",
    "Mono",
    "MonomialOrder",
    "NormalityReport",
    "OracleReport",
    "Poly",
    "Presentation",
    "QuasiMatrix",
    "REDUCED_TO_ZERO",
    "RESTRICTED",
    "ReductionCert",
    "ReesSpec",
    "SINGLE",
    "SeqSpec",
    "SpanReport",
    "SpecError",
    "TaylorComplex",
    "UniverseMismatch",
    "VarUniverse",
    "ZeroPolynomial",
    "binary_subquasi_enumerate",
    "buchberger_check",
    "build_presentation",
    "default_degrees",
    "default_order_suite",
    "default_t_precedence",
    "defining_generators",
    "kernel_piece",
    "leading",
    "mono_text",
    "normality_report",
    "oracle_check",
    "quasi_determinants",
    "s_poly",
    "source_monomials",
    "span_compare",
    "spec_from_dict",
    "spec_from_json",
    "spec_to_dict",
    "syzygy_generators",
    "taylor_complex",
    "top_reduce",
]
