"""Seeded random generators for the property suites.

Everything here is driven by a caller-supplied ``random.Random`` so that a
seed pins the whole suite; no global randomness.
"""

from fractions import Fraction

from .exactpoly import Poly, xvar
from .laurent import TruncSeries
from .loopspace import _check_shape


def random_coefficient(rng) -> Fraction:
    num = rng.choice([-3, -2, -1, 1, 2, 3, 5])
    den = rng.choice([1, 1, 1, 2, 3])
    return Fraction(num, den)


def random_poly(rng, dim: int, level: int) -> Poly:
    """A sparse polynomial in the indexed variables at one truncation level:
    up to 3 terms of degree up to 2.

    May be zero (with small probability); indices range over [-level, 3).
    """
    total = Poly.zero()
    for _ in range(rng.randint(0, 3)):
        term = Poly.const(random_coefficient(rng))
        for _ in range(rng.randint(0, 2)):
            # The index is drawn before the coordinate; seeded suites pin it.
            index = rng.randrange(-level, 3)
            term = term * xvar(rng.randint(1, dim), index)
        total = total + term
    return total


def random_series(rng, dim: int, level: int, floor: int, cap: int) -> TruncSeries:
    """A truncated series with random polynomial coefficients (some zero).

    Raises ValueError when dim < 1 or level < 0, and PrecisionExhaustedError
    when [floor, cap) is empty: such a sample would only ever give upper
    bounds.
    """
    _check_shape(dim, level)
    return TruncSeries.window(
        lambda m: random_poly(rng, dim, level) if rng.random() < 0.8 else 0, floor, cap
    )
