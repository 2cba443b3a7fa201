"""Helpers shared by the test modules.

`value` reads an order back as the CLI prints it. `nu` is the Euler
operator z d/dz written out termwise, the reference the tests hold
`projector.apply_nu_poly` against. `substitute_y` is the
factoring witness of the complement relations: substituting the
coefficients of the inverse of f(x(z)) for the y-variables of a generator
of y(z) * f(x(z)) - 1 must give zero in the localized coefficient model.
"""

from fractions import Fraction

from loopalg.cli import value_from_order
from loopalg.errors import PrecisionExhaustedError
from loopalg.exactpoly import Poly
from loopalg.laurent import TruncSeries
from loopalg.localized import LocalizedCoef


def value(order, epsilon=Fraction(1, 2)):
    """The semi-norm eps^order as `norm`, `converge` and `approx` print it,
    read back as (value, is_upper_bound)."""
    text, bound = value_from_order(order, epsilon)
    return Fraction(text), bound


def nu(series: TruncSeries) -> TruncSeries:
    """z d/dz: the z^m coefficient times m, in the same window."""
    return TruncSeries(
        {m: m * c for m, c in series.coeffs.items()}, series.cap, series.floor
    )


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
            coefficient = inverse.coefficient(ref.index)
            if coefficient is None:
                raise PrecisionExhaustedError(
                    f"inverse coefficient at z^{ref.index} is beyond the cap",
                    required_cap=ref.index + 1,
                )
            if not coefficient:
                dead = True
                break
            factor = factor * coefficient ** exp
        if not dead:
            total = total + factor
    return total
