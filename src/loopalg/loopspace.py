"""Coordinate evaluation series, truncated loop relations, and inversion.

The evaluation map sends an ambient coordinate to its universal Laurent
series sum(x{i}_j z^j, j >= -n) at truncation level n. Composing a
hypersurface polynomial with these series and reading off z-coefficients
produces the generators of the truncated loop space of its zero locus; on
the complement side the generators come from y(z) * f(x(z)) - 1. The lowest
coefficient of f(x(z)) is the single denominator needed to invert the whole
series recursively, which is what the localized coefficient model runs on.
"""

from functools import partial
from typing import NamedTuple

from .errors import NonInvertibleLeadingTermError
from .exactpoly import Poly, power, xvar, yvar
from .laurent import TruncSeries, require_window
from .localized import LocalizedElem, loc_to_model_with


def _check_shape(dim: int, level: int) -> None:
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    if level < 0:
        raise ValueError("truncation level must be >= 0")


def ev_series(dim: int, level: int, cap: int):
    """The vector of coordinate evaluation series at one truncation level.

    Entry i (1-based coordinate) is sum of x{i}_j z^j over -level <= j < cap,
    with floor -level; an empty window raises PrecisionExhaustedError.
    """
    _check_shape(dim, level)
    return [TruncSeries.window(partial(xvar, i), -level, cap) for i in range(1, dim + 1)]


def compose(f: Poly, series_list) -> TruncSeries:
    """Substitute the given series for the ambient variables of f.

    Precision follows the series arithmetic rules; a constant term of f is
    exact and costs nothing.
    """
    if not f.is_ambient():
        raise ValueError("compose expects an ambient polynomial (x1..xd, no indices)")
    dim = len(series_list)
    for ref in f.variables():
        if not 1 <= ref.coord <= dim:
            raise ValueError(f"polynomial uses x{ref.coord} but only {dim} series given")
    # One power table per coordinate series, shared by every monomial.
    tables = {coord: {1: x} for coord, x in enumerate(series_list, 1)}
    total = TruncSeries.zero()
    for mono, coeff in f.terms.items():
        if not mono:
            term = TruncSeries.exact({0: Poly.const(coeff)})
        else:
            term = None
            for ref, exponent in mono:
                p = power(tables[ref.coord], exponent)
                term = p if term is None else term * p
            term = term.scale(coeff)
        total = total + term
    return total


class Relation(NamedTuple):
    """One ideal generator: the z^exponent coefficient of an equation."""

    exponent: int
    generator: Poly


def _relations_of(series: TruncSeries, floor: int, cap: int):
    """One Relation per exponent of the output window [floor, cap), in
    increasing order."""
    return [Relation(e, series.coeffs.get(e, Poly.zero())) for e in range(floor, cap)]


def _factor_window(k: int, dim: int, level: int, cap: int):
    """The output window's floor -k*level, and the cap of k factors with
    floor -level whose product has the output window [-k*level, cap) (each
    other factor's floor lowers the product's cap by level). Bad dim or
    level is reported before an empty window."""
    _check_shape(dim, level)
    require_window(-k * level, cap)
    return -k * level, cap + (k - 1) * level


def relations(f: Poly, dim: int, level: int, cap: int):
    """Defining relations of the truncated loop space of {f = 0}.

    `cap` bounds the output window [-level*deg f, cap) of f(x(z)) (for a
    constant f, [-level, cap)), every coefficient of which is exact; one
    Relation per window exponent is emitted, in increasing order.
    """
    floor, factor_cap = _factor_window(max(1, f.total_degree()), dim, level, cap)
    return _relations_of(compose(f, ev_series(dim, level, factor_cap)), floor, cap)


def complement_relations(f: Poly, dim: int, level: int, cap: int):
    """Defining relations of the truncated loops into the complement of f=0:
    y(z) * f(x(z)) - 1 on the output window [-level*(deg f + 1), cap)."""
    floor, factor_cap = _factor_window(f.total_degree() + 1, dim, level, cap)
    fe = compose(f, ev_series(dim, level, factor_cap))
    y_series = TruncSeries.window(yvar, -level, factor_cap)
    return _relations_of(y_series * fe - TruncSeries.constant(Poly.const(1)), floor, cap)


def invert_series(s: TruncSeries, level: int) -> TruncSeries:
    """Inverse of s in the localized coefficient model: the image of 1/s.

    The lowest stored coefficient becomes the denominator generator. With W
    known coefficients of s starting at z^m, t gets W known coefficients
    starting at z^-m, so the product is exactly 1 on [0, W).
    """
    if s.coeffs and not s.coeffs[min(s.coeffs)].project(level):
        raise NonInvertibleLeadingTermError(
            f"leading coefficient dies at projection level {level}"
        )
    return loc_to_model_with(LocalizedElem(TruncSeries.constant(Poly.const(1)), 1), s)
