"""Algebraic localisation at an evaluated hypersurface element.

Two fraction-like types live here:

  * ``LocalizedCoef``: a polynomial numerator over a power of a fixed nonzero
    polynomial ``base`` (the lowest-order coefficient of the evaluated
    hypersurface). These are the coefficients of inverted series.
  * ``LocalizedElem``: a series numerator over a power of the evaluated
    hypersurface series ``a`` itself. These are the elements of the
    algebraic localisation; ``a`` is not stored. The Euler-operator action
    (``projector.apply_nu_poly_localized``) builds each element over one
    common power of ``a`` and reduces it once, with ``LocalizedElem.reduced``.

A ``LocalizedCoef`` is reduced once, in its constructor, which cancels the
base while it divides the numerator. The coefficient ring is an integral
domain, so the reduced form is unique and equality is structural.

The model map sends num/a^p to a series over the lowest coefficient L = s_m
of a = sum s_k z^k without dividing. As a = L z^m (1 + sum_k s_{m+k}
L^(k-1) (z/L)^k), the inverse of a is N_r / L^(r+1) at z^(r-m), where
N_0 = 1 and N_r = -sum_{k=1..r} s_{m+k} L^(k-1) N_{r-k}. In the p-th power
of these numerators offset r sits over L^(r+p); entering num's coefficient
at offset j as num_j L^j keeps offset r of the product over L^(r+p).
"""

from fractions import Fraction

from . import laurent
from .exactpoly import Poly, div_exact, sum_of_products
from .errors import (
    GoodElementViolationError,
    NonInvertibleLeadingTermError,
    PrecisionExhaustedError,
)
from .laurent import AtLeastCap, TruncSeries
from .seminorm import projection_zero_test, seminorm_order


def _cancel(num, power, base, divide):
    """num/base^power with base cancelled while `divide(num, base)` is exact;
    `divide` returns the quotient or None."""
    while power > 0:
        quotient = divide(num, base)
        if quotient is None:
            break
        num, power = quotient, power - 1
    return num, power


class LocalizedCoef:
    """num / base^pow, reduced: base does not divide num unless pow is 0."""

    __slots__ = ("num", "pow", "base")
    __hash__ = None

    def __init__(self, num: Poly, power: int, base: Poly):
        if not base:
            raise ZeroDivisionError("localisation base must be nonzero")
        if power < 0:
            raise ValueError("denominator power must be >= 0")
        num, power = _cancel(num, power, base, div_exact)
        if not num:
            power = 0
        self.num = num
        self.pow = power
        self.base = base

    def _coerce(self, other):
        if isinstance(other, LocalizedCoef):
            if other.base != self.base:
                raise ValueError("mixed localisation bases")
            return other
        if isinstance(other, Poly):
            return LocalizedCoef(other, 0, self.base)
        if isinstance(other, (int, Fraction)):
            return LocalizedCoef(Poly.const(other), 0, self.base)
        return None

    def __bool__(self):
        return bool(self.num)

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        p = max(self.pow, other.pow)
        num = (
            self.num * self.base ** (p - self.pow)
            + other.num * self.base ** (p - other.pow)
        )
        return LocalizedCoef(num, p, self.base)

    __radd__ = __add__

    def __neg__(self):
        return LocalizedCoef(-self.num, self.pow, self.base)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return LocalizedCoef(self.num * other, self.pow, self.base)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return LocalizedCoef(self.num * other.num, self.pow + other.pow, self.base)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        return LocalizedCoef(self.num ** exponent, self.pow * exponent, self.base)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        # Both sides are reduced over one base, and reduced forms are unique.
        return self.num == other.num and self.pow == other.pow

    def __str__(self):
        if self.pow == 0:
            return str(self.num)
        num = f"({self.num})" if len(self.num.terms) > 1 else str(self.num)
        base = f"({self.base})" if len(self.base.terms) > 1 else str(self.base)
        exponent = f"^{self.pow}" if self.pow > 1 else ""
        return f"{num}/{base}{exponent}"

    def __repr__(self):
        return f"LocalizedCoef({self})"


class LocalizedElem:
    """num / a^pow, for `a` the evaluated hypersurface series (not stored).

    Built either denominator-free or by `reduced`, which cancels `a` as far
    as the numerator's window allows.
    """

    __slots__ = ("num", "pow")
    __hash__ = None

    def __init__(self, num: TruncSeries, power: int):
        if power < 0:
            raise ValueError("denominator power must be >= 0")
        if num.is_zero_window() and num.is_exact():
            power = 0
        self.num = num
        self.pow = power

    @classmethod
    def reduced(cls, num: TruncSeries, power: int, a: TruncSeries) -> "LocalizedElem":
        """Construct with exact cancellation of `a` where the numerator allows."""
        return cls(*_cancel(num, power, a, laurent.divide_exact))

    def __str__(self):
        if self.pow == 0:
            return str(self.num)
        return f"({self.num}) / ev(f)^{self.pow}"

    def __repr__(self):
        return f"LocalizedElem({self})"


def loc_seminorm(u: LocalizedElem, a: TruncSeries, level: int):
    """Order of num/a^pow at the level, ord num - pow * ord a, defined only
    where the order of a is exact. An exact order stays exact, a bound stays
    a bound, and the exact zero stays AtLeastCap(INF), as INF - shift is INF."""
    a_order = seminorm_order(a, level)
    if isinstance(a_order, AtLeastCap):
        raise GoodElementViolationError(
            f"denominator semi-norm at level {level} is zero or only bounded"
        )
    order, shift = seminorm_order(u.num, level), u.pow * a_order
    if not isinstance(order, AtLeastCap):
        return order - shift
    return AtLeastCap(order.cap - shift)


# -- the comparison map into the localized coefficient model -------------------


def lift_series(series: TruncSeries, base: Poly) -> TruncSeries:
    """View a polynomial-coefficient series inside the localized model."""
    return series.map_coefficients(lambda c: LocalizedCoef(c, 0, base))


def loc_to_model_with(u: LocalizedElem, a: TruncSeries) -> TruncSeries:
    """Map u = num/a^pow into the localized coefficient model of a, on graded
    Poly numerators (see the module docstring)."""
    if a.is_zero_window():
        raise NonInvertibleLeadingTermError("cannot invert a series with no known terms")
    m_low = min(a.coeffs)
    lead = a.coeffs[m_low]
    if u.pow == 0:
        return lift_series(u.num, lead)
    if a.is_exact() and len(a.coeffs) > 1:
        raise PrecisionExhaustedError(
            "inverse of an exact multi-term series has unbounded support; "
            "truncate the input to a finite cap first"
        )
    width = 1 if a.is_exact() else a.cap - m_low
    # The steps -s_(m+k) L^(k-1), negated once so that each N_r is one sum.
    steps = [
        (k, -(a.coeffs[m_low + k] * lead ** (k - 1)))
        for k in range(1, width)
        if m_low + k in a.coeffs
    ]
    nums = [Poly.const(1)]
    for r in range(1, width):
        nums.append(sum_of_products([(step, nums[r - k]) for k, step in steps if k <= r]))
    inverse = TruncSeries(
        {r - m_low: n for r, n in enumerate(nums)},
        a.cap - 2 * m_low,
        floor=-m_low,
    )
    graded = TruncSeries(
        {j: c * lead ** (j - u.num.floor) for j, c in u.num.coeffs.items()},
        u.num.cap,
        u.num.floor,
    )
    # Plain inversion (pow 1) takes no series power; the invert trace expects none.
    product = graded * (inverse if u.pow == 1 else inverse ** u.pow)
    return TruncSeries(
        {
            e: LocalizedCoef(t, e - product.floor + u.pow, lead)
            for e, t in product.coeffs.items()
        },
        product.cap,
        product.floor,
    )


def model_zero_test(level: int, base: Poly):
    """Zero test for LocalizedCoef coefficients at a projection level.

    The level must keep the base alive: the projection of num/base^pow makes
    sense only in the localisation of the level's discrete algebra.
    """
    is_zero = projection_zero_test(level)
    if is_zero(base):
        raise GoodElementViolationError(
            f"localisation base dies at projection level {level}"
        )
    return lambda coeff: is_zero(coeff.num)


def model_seminorm(series: TruncSeries, level: int, base: Poly):
    """Order of a localized-model series at the given level."""
    return series.z_order(model_zero_test(level, base))
