"""Coordinate evaluation series, truncated loop relations, and inversion.

The evaluation map sends an ambient coordinate to its universal Laurent
series sum(x{i}_j z^j, j >= -n) at truncation level n. Composing a
hypersurface polynomial with these series and reading off z-coefficients
produces the generators of the truncated loop space of its zero locus; on
the complement side the generators come from y(z) * f(x(z)) - 1. The lowest
coefficient of f(x(z)) is the single denominator needed to invert the whole
series recursively, which is what the localized coefficient model runs on.
"""

from typing import NamedTuple

from .errors import NonInvertibleLeadingTermError, PrecisionExhaustedError
from .exactpoly import Poly, xvar, yvar
from .laurent import TruncSeries
from .localized import LocalizedCoef, LocalizedElem, loc_to_model_with


def ev_series(dim: int, level: int, cap: int):
    """The vector of coordinate evaluation series at one truncation level.

    Entry i (1-based coordinate) is sum of x{i}_j z^j over -level <= j < cap,
    with floor -level.
    """
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    if level < 0:
        raise ValueError("truncation level must be >= 0")
    if cap <= -level:
        raise ValueError(f"cap {cap} leaves an empty window at level {level}")
    return [
        TruncSeries(
            {j: xvar(i, j) for j in range(-level, cap)}, cap, floor=-level
        )
        for i in range(1, dim + 1)
    ]


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
    # Powers of each coordinate series, shared by every monomial: x^k is
    # x^(k-1)*x for odd k and (x^(k/2))^2 for even k, so an exponent costs
    # at most twice its bit length in products, each power made once.
    tables = {}

    def power(coord, exponent):
        x = series_list[coord - 1]
        table = tables.setdefault(coord, {1: x})
        missing = []
        k = exponent
        while k not in table:
            missing.append(k)
            k = k - 1 if k % 2 else k // 2
        for k in reversed(missing):
            table[k] = table[k - 1] * x if k % 2 else table[k // 2] * table[k // 2]
        return table[exponent]

    total = TruncSeries.zero()
    for mono, coeff in f.terms.items():
        if not mono:
            term = TruncSeries.exact({0: Poly.const(coeff)})
        else:
            term = None
            for ref, exponent in mono:
                p = power(ref.coord, exponent)
                term = p if term is None else term * p
            term = term.scale(coeff)
        total = total + term
    return total


class Relation(NamedTuple):
    """One ideal generator: the z^exponent coefficient of an equation."""

    exponent: int
    generator: Poly


def _relations_of(series: TruncSeries):
    """One Relation per exponent of the series' window, in increasing order;
    an exact series gives its stored exponents."""
    if series.cap is None:
        exponents = sorted(series.coeffs)
    else:
        exponents = range(series.floor, series.cap)
    return [Relation(e, series.coeffs.get(e, Poly.zero())) for e in exponents]


def relations(f: Poly, dim: int, level: int, cap: int):
    """Defining relations of the truncated loop space of {f = 0}.

    `cap` bounds the emitted window: the evaluation series is built at
    enough internal precision that every coefficient of f(x(z)) below z^cap
    is exact, and one Relation per window exponent is emitted (in
    increasing exponent order).
    """
    internal_cap = cap + max(0, f.total_degree() - 1) * level
    return _relations_of(compose(f, ev_series(dim, level, internal_cap)))


def complement_relations(f: Poly, dim: int, level: int, cap: int):
    """Defining relations of the truncated loops into the complement of f=0:
    the z-coefficients of y(z) * f(x(z)) - 1 up to z^cap."""
    degree = f.total_degree()
    boost = level * degree
    if cap + boost <= -level:
        raise PrecisionExhaustedError(
            "complement window is empty", required_cap=-level - boost + 1
        )
    fe = compose(f, ev_series(dim, level, cap + boost))
    y_series = TruncSeries(
        {j: yvar(j) for j in range(-level, cap + boost)}, cap + boost, floor=-level
    )
    return _relations_of(y_series * fe - TruncSeries.constant(Poly.const(1)))


def invert_series(s: TruncSeries, level: int) -> TruncSeries:
    """Inverse of s in the localized coefficient model: the image of 1/s.

    The lowest stored coefficient becomes the denominator generator. With W
    known coefficients of s starting at z^m, t gets W known coefficients
    starting at z^-m, so the product is exactly 1 on [0, W).
    """
    if s.is_zero_window():
        raise NonInvertibleLeadingTermError("cannot invert a series with no known terms")
    if not s.coeffs[min(s.coeffs)].project(level):
        raise NonInvertibleLeadingTermError(
            f"leading coefficient dies at projection level {level}"
        )
    return loc_to_model_with(LocalizedElem(TruncSeries.constant(Poly.const(1)), 1), s)


def substitute_y(generator: Poly, inverse: TruncSeries, base: Poly) -> LocalizedCoef:
    """Evaluate a complement-side generator with y_j := coefficient j of
    `inverse`, leaving the x-variables untouched.

    Unknown coefficients (beyond the inverse's cap) raise rather than
    silently substituting zero.
    """
    total = LocalizedCoef(Poly.zero(), 0, base)
    for mono, coeff in generator.terms.items():
        x_part = tuple(
            (ref, exp) for ref, exp in mono if ref.family == "x"
        )
        factor = LocalizedCoef(Poly({x_part: coeff}), 0, base)
        dead = False
        for ref, exp in mono:
            if ref.family != "y":
                continue
            value = inverse.coefficient(ref.index)
            if value is None:
                raise PrecisionExhaustedError(
                    f"inverse coefficient at z^{ref.index} is beyond the cap",
                    required_cap=ref.index + 1,
                )
            if not value:
                dead = True
                break
            factor = factor * value ** exp
        if not dead:
            total = total + factor
    return total
