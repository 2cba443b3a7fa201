"""Seeded random generators for the property suites.

Everything here is driven by a caller-supplied ``random.Random`` so that a
seed pins the whole suite; no global randomness.
"""

from fractions import Fraction

from .exactpoly import Poly, xvar, yvar
from .laurent import TruncSeries


def random_coefficient(rng) -> Fraction:
    num = rng.choice([-3, -2, -1, 1, 2, 3, 5])
    den = rng.choice([1, 1, 1, 2, 3])
    return Fraction(num, den)


def random_poly(rng, dim: int, level: int, include_y: bool = False) -> Poly:
    """A sparse polynomial in the indexed variables at one truncation level:
    up to 3 terms of degree up to 2.

    May be zero (with small probability); indices range over [-level, 3).
    """
    total = Poly.zero()
    for _ in range(rng.randint(0, 3)):
        term = Poly.const(random_coefficient(rng))
        for _ in range(rng.randint(0, 2)):
            index = rng.randrange(-level, 3)
            if include_y and rng.random() < 0.3:
                term = term * yvar(index)
            else:
                term = term * xvar(rng.randint(1, dim), index)
        total = total + term
    return total


def random_series(rng, dim: int, level: int, floor: int, cap: int,
                  include_y: bool = False) -> TruncSeries:
    """A truncated series with random polynomial coefficients (some zero).

    Raises ValueError when dim < 1, or when cap <= floor: a sample with no
    coefficient window would only ever give upper bounds.
    """
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    if cap <= floor:
        raise ValueError(f"cap {cap} leaves an empty window at level {-floor}")
    coeffs = {}
    for m in range(floor, cap):
        if rng.random() < 0.8:
            poly = random_poly(rng, dim, level, include_y=include_y)
            if poly:
                coeffs[m] = poly
    return TruncSeries(coeffs, cap, floor=floor)
