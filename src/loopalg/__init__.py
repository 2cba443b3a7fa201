"""Exact-arithmetic engine for truncated loop spaces.

Sparse rational polynomials in Laurent-indexed variables, precision-tracked
two-way Laurent series, a non-Archimedean semi-norm family, localisation at
evaluated hypersurface elements, and Euler-operator coefficient extractors.
"""

from .errors import (
    DimensionMismatchError,
    GoodElementViolationError,
    LoopAlgError,
    NonInvertibleLeadingTermError,
    PolyParseError,
    PrecisionExhaustedError,
    UnknownVariableError,
    ZeroPolynomialError,
)
from .exactpoly import AMBIENT, Poly, VarRef, const, parse_poly, xvar, yvar
from .laurent import AtLeastCap, TruncSeries
from .localized import LocalizedCoef, LocalizedElem
from .projector import NuPoly, make_projector

__all__ = [
    "AMBIENT",
    "AtLeastCap",
    "DimensionMismatchError",
    "GoodElementViolationError",
    "LocalizedCoef",
    "LocalizedElem",
    "LoopAlgError",
    "NonInvertibleLeadingTermError",
    "NuPoly",
    "Poly",
    "PolyParseError",
    "PrecisionExhaustedError",
    "TruncSeries",
    "UnknownVariableError",
    "VarRef",
    "ZeroPolynomialError",
    "const",
    "make_projector",
    "parse_poly",
    "xvar",
    "yvar",
]
