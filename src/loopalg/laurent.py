"""Two-way truncated Laurent series with explicit precision tracking.

A ``TruncSeries`` stores finitely many coefficients of an element of C((z))
(C any commutative ring given by duck typing: +, -, *, ==, bool as the zero
test, and scalar multiplication by int/Fraction):

    coeffs : {exponent m: nonzero coefficient}
    cap    : every exponent m >= cap is UNKNOWN; an int, or INF (+infinity)
             for a series known exactly at every exponent
    floor  : int   -> every exponent below floor is known to be zero

So the known window is [floor, cap) plus "zero below floor"; an exact series
(cap INF) is known everywhere, and the window rules below hold for it
unchanged, since INF + n = INF and min(INF, n) = n.  Window propagation:

    add:  cap = min of the caps, floor = min of the floors
    mul:  cap = min(cap(s) + floor(t), cap(t) + floor(s)), floor = sum

The mul rule is what makes negative exponents honest: an unknown coefficient
at cap(s) multiplies the lowest possible term z^floor(t) and pollutes
everything from cap(s), floor(t) upward.  A product whose window closes
raises PrecisionExhaustedError rather than returning an empty answer.
"""

import math
from typing import NamedTuple, Union

from .errors import PrecisionExhaustedError
from .exactpoly import Poly, div_exact, power, sum_of_products

# The cap of an exact series, +infinity: it compares above every exponent.
INF = math.inf


class AtLeastCap(NamedTuple):
    """z-adic order bounded below by the precision cap.

    ``cap=INF`` means the projected series is exactly zero (order +infinity);
    a finite cap means only that no known coefficient survived.
    """

    cap: Union[int, float]


def require_window(floor: int, cap: int) -> None:
    """Refuse an empty window [floor, cap), naming the least cap that works."""
    if cap <= floor:
        raise PrecisionExhaustedError(
            f"cap {cap} leaves the window [{floor}, {cap}) empty", required_cap=floor + 1
        )


class TruncSeries:
    """Immutable-by-convention truncated Laurent series."""

    __slots__ = ("coeffs", "cap", "floor")
    __hash__ = None

    def __init__(self, coeffs, cap, floor=None):
        clean = {m: c for m, c in coeffs.items() if c}
        if floor is None:
            floor = min(clean, default=0)
        if clean:
            lowest = min(clean)
            if lowest < floor:
                raise ValueError(f"coefficient at {lowest} lies below floor {floor}")
            if max(clean) >= cap:
                raise ValueError(f"coefficient at {max(clean)} is beyond cap {cap}")
        self.coeffs = clean
        self.cap = cap
        self.floor = floor

    # -- constructors --------------------------------------------------------

    @classmethod
    def exact(cls, coeffs) -> "TruncSeries":
        """A series known at every exponent (unstored coefficients are zero)."""
        return cls(coeffs, cap=INF)

    @classmethod
    def zero(cls) -> "TruncSeries":
        return cls.exact({})

    @classmethod
    def constant(cls, value) -> "TruncSeries":
        return cls.exact({0: value})

    @classmethod
    def window(cls, coefficient, floor: int, cap: int) -> "TruncSeries":
        """coefficient(m) at each m in [floor, cap), called in increasing m."""
        require_window(floor, cap)
        return cls({m: coefficient(m) for m in range(floor, cap)}, cap, floor)

    # -- window bookkeeping ----------------------------------------------------

    def is_exact(self) -> bool:
        return self.cap == INF

    def is_zero_window(self) -> bool:
        """No known nonzero coefficient (the window itself may be truncated)."""
        return not self.coeffs

    def _below(self, cap):
        """The stored coefficients at exponents below `cap`."""
        return {m: c for m, c in self.coeffs.items() if m < cap}

    def coefficient(self, exponent: int):
        """The coefficient at `exponent`; int 0 when known-zero, None if unknown."""
        if exponent in self.coeffs:
            return self.coeffs[exponent]
        if exponent >= self.cap:
            return None
        return 0

    # -- ring operations -------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        # An exact zero window covers everything and costs no precision.
        if other.is_exact() and other.is_zero_window():
            return self
        if self.is_exact() and self.is_zero_window():
            return other
        cap = min(self.cap, other.cap)
        out = self._below(cap)
        for m, c in other._below(cap).items():
            prev = out.get(m)
            out[m] = c if prev is None else prev + c
        return TruncSeries(out, cap, min(self.floor, other.floor))

    def __neg__(self):
        return TruncSeries({m: -c for m, c in self.coeffs.items()}, self.cap, self.floor)

    def __sub__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        if (self.is_exact() and self.is_zero_window()) or (
            other.is_exact() and other.is_zero_window()
        ):
            return TruncSeries.zero()
        cap = min(self.cap + other.floor, other.cap + self.floor)
        floor = self.floor + other.floor
        if cap <= floor:
            raise PrecisionExhaustedError(
                f"product window [{floor}, {cap}) is empty"
            )
        pairs = {}
        for m1, c1 in self.coeffs.items():
            for m2, c2 in other.coeffs.items():
                m = m1 + m2
                if m < cap:
                    pairs.setdefault(m, []).append((c1, c2))
        return TruncSeries(
            {m: sum_of_products(terms) for m, terms in pairs.items()}, cap, floor
        )

    def scale(self, scalar):
        """Multiply every coefficient by a ring or rational scalar."""
        if not scalar:
            # 0 * unknown is known: scaling by exact zero is exact.
            return TruncSeries.zero()
        return TruncSeries(
            {m: scalar * c for m, c in self.coeffs.items()}, self.cap, self.floor
        )

    def map_coefficients(self, fn) -> "TruncSeries":
        """Apply fn to every stored coefficient (dropping any that map to zero)."""
        return TruncSeries(
            {m: fn(c) for m, c in self.coeffs.items()}, self.cap, self.floor
        )

    def __pow__(self, exponent: int):
        # [k*floor, cap + (k-1)*floor) is the window in any multiplication order.
        return power({0: TruncSeries.constant(1), 1: self}, exponent)

    # -- comparisons -------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return (
            self.cap == other.cap
            and self.floor == other.floor
            and self.coeffs == other.coeffs
        )

    def agrees_with(self, other: "TruncSeries") -> bool:
        """Coefficientwise equality below the joint cap (floors are knowledge:
        absent coefficients count as zero). No zero coefficient is ever
        stored, so this is equality of the stored coefficients below it."""
        cap = min(self.cap, other.cap)
        return self._below(cap) == other._below(cap)

    # -- order --------------------------------------------------------------------

    def z_order(self, is_zero=None):
        """Least exponent whose coefficient is nonzero under `is_zero`.

        `is_zero` decides zero in whatever image ring the caller cares about
        (default: the coefficient's own zero test). When every known
        coefficient dies the result is AtLeastCap(cap); for an exact series
        that means the image is exactly zero.
        """
        if is_zero is None:
            is_zero = lambda c: not c
        for m in sorted(self.coeffs):
            if not is_zero(self.coeffs[m]):
                return m
        return AtLeastCap(self.cap)

    # -- printing -------------------------------------------------------------------

    def __str__(self):
        parts = []
        for m, c in sorted(self.coeffs.items()):
            text = str(c)
            if " " in text or text.startswith("-"):
                text = f"({text})"
            parts.append(f"{text}*z^{m}")
        if not self.is_exact():
            parts.append(f"O(z^{self.cap})")
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"TruncSeries({self})"


def divide_exact(num: TruncSeries, den: TruncSeries):
    """Exact quotient q with q*den == num of two `Poly`-coefficient series, or
    None.

    Each coefficient quotient is `exactpoly.div_exact` by den's lowest stored
    coefficient, and None there means no quotient. The quotient is only
    produced when it can be solved without losing any of num's precision
    (den must be known far enough up); otherwise None is returned and the
    caller keeps the unreduced representation.
    """
    if not den.coeffs:
        return None
    if num.is_exact() and num.is_zero_window():
        return TruncSeries.zero()
    low = min(den.coeffs)
    lead = den.coeffs[low]
    if num.is_exact():
        # Exact numerators are only reduced against single-term exact
        # denominators; anything else may have an infinite quotient.
        if not den.is_exact() or len(den.coeffs) != 1:
            return None
        out = {}
        for m, c in num.coeffs.items():
            q = div_exact(c, lead)
            if q is None:
                return None
            out[m - low] = q
        return TruncSeries.exact(out)
    floor_q = num.floor - low
    if den.cap + floor_q < num.cap:
        return None
    cap_q = num.cap - low
    one = Poly.const(1)
    tail = [(k, -c) for k, c in den.coeffs.items() if k != low]
    quot = {}
    for target in range(num.floor, num.cap):
        # num_target - sum over k of q_(target-k) * den_k, in one kernel call.
        pairs = [(quot[target - k], c) for k, c in tail if target - k in quot]
        if target in num.coeffs:
            pairs.append((num.coeffs[target], one))
        acc = sum_of_products(pairs)
        if not acc:
            continue
        q = div_exact(acc, lead)
        if q is None:
            return None
        quot[target - low] = q
    return TruncSeries(quot, cap_q, floor_q)
