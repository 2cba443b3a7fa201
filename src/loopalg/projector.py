"""Euler-operator polynomials and coefficient-extraction experiments.

The Euler operator nu = z d/dz acts diagonally on z-powers, so a polynomial
p(nu) acts on a series by multiplying the z^m coefficient by p(m). The
coefficient extractor for slot j at band width n is the normalized product
of (nu - i) over i in [-n, n] except j; it fixes z^j, kills every other
z-power in the band, and converges to "take the z^j term" as n grows. The
experiments below measure that convergence as the exact z-adic order of the
distance, both on the plain coordinate series and on inverted series in the
localisation.
"""

import math
from fractions import Fraction
from typing import NamedTuple, Optional, Union

from .errors import PrecisionExhaustedError
from .exactpoly import Poly, _exact
from .laurent import AtLeastCap, TruncSeries, require_window
from .localized import LocalizedElem, loc_to_model_with, model_seminorm, model_zero_test
from .loopspace import compose, ev_series, invert_series
from .seminorm import projection_zero_test


class NuPoly:
    """A polynomial in the Euler operator, stored low power first; each
    coefficient is an int when integral and a Fraction otherwise, as in
    `Poly`, so an integral p(m) costs no Fraction arithmetic."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = [_exact(c) for c in coeffs]
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        self.coeffs = tuple(coeffs) or (0,)

    def __call__(self, m: int):
        value = 0
        for c in reversed(self.coeffs):
            value = value * m + c
        return value

    def __repr__(self):
        return f"NuPoly({list(self.coeffs)})"


def make_projector(j: int, n: int) -> NuPoly:
    """The coefficient extractor for z^j over the band [-n, n].

    Product of (nu - i) for i in the band except j, scaled so that the
    operator fixes z^j exactly. j may lie outside the band, in which case no
    factor is skipped.
    """
    if n < 0:
        raise ValueError("band width must be >= 0")
    coeffs = [Fraction(1)]
    scale = Fraction(1)
    for i in range(-n, n + 1):
        if i == j:
            continue
        # multiply by (nu - i)
        coeffs = [Fraction(0)] + coeffs
        for k in range(len(coeffs) - 1):
            coeffs[k] -= i * coeffs[k + 1]
        scale *= j - i
    return NuPoly([c / scale for c in coeffs])


# The Euler operator nu = z d/dz itself.
NU = NuPoly([0, 1])


def apply_nu_poly(p: NuPoly, series: TruncSeries) -> TruncSeries:
    """Diagonal action: the z^m coefficient is scaled by p(m)."""
    out = {}
    for m, c in series.coeffs.items():
        factor = p(m)
        if factor:
            out[m] = factor * c
    return TruncSeries(out, series.cap, series.floor)


def apply_nu_poly_localized(
    p: NuPoly, u: LocalizedElem, a: TruncSeries
) -> LocalizedElem:
    """The same operator on u = N/a^q inside the localisation.

    Horner form p(nu)u = c_0 u + nu(c_1 u + nu(... + nu(c_D u))) over one
    common denominator, with nu = z d/dz acting by the quotient rule

        nu(M/a^r) = (a nu(M) - r M nu(a)) / a^(r+1).

    After s steps the denominator is a^(q+s), so c_k u enters as c_k N a^s;
    N a^s grows by one series product per step. The c_k are cleared to
    integers by the lcm of their denominators, which is divided out once,
    just before the one reduction. An element without denominator takes the
    diagonal action, so an exact numerator stays exact.
    """
    if u.pow == 0:
        return LocalizedElem(apply_nu_poly(p, u.num), 0)
    scale = math.lcm(*(c.denominator for c in p.coeffs))
    *lower, top = [int(c * scale) for c in p.coeffs]
    nu_a = apply_nu_poly(NU, a)
    num, power, lifted = u.num.scale(top), u.pow, u.num
    for c in reversed(lower):
        num = a * apply_nu_poly(NU, num) - (num * nu_a).scale(power)
        power += 1
        lifted = lifted * a
        if c:
            num = num + lifted.scale(c)
    return LocalizedElem.reduced(num.scale(Fraction(1, scale)), power, a)


class ConvergenceRow(NamedTuple):
    n: int
    order: Union[int, AtLeastCap]


def _complement_setup(f, dim, j, norm_level, cap, loop_level):
    """The evaluated series a = f(x(z)) at the loop level, and its inverse.

    A negative norm level is refused first, before a loop level is derived
    from it; a negative loop level given outright names the loop level.
    """
    projection_zero_test(norm_level)
    degree = f.total_degree()
    if loop_level is None:
        loop_level = min(norm_level, j // degree) if degree else norm_level
    elif loop_level < 0:
        raise ValueError("truncation level must be >= 0")
    if loop_level < 0 or degree * loop_level > j:
        raise ValueError(
            f"slot {j} lies below the inverse support at loop level {loop_level}"
        )
    a = compose(f, ev_series(dim, loop_level, cap))
    return a, invert_series(a, loop_level)


def _reference_term(series: TruncSeries, j: int, name: str) -> TruncSeries:
    """The single z^j term of `series`, which the slot-j extractor targets."""
    reference = series.coefficient(j)
    if reference is None:
        raise PrecisionExhaustedError(
            f"{name} coefficient z^{j} is beyond the cap", required_cap=j + 1
        )
    return TruncSeries.exact({j: reference}) if reference else TruncSeries.zero()


def convergence_experiment(
    dim: int,
    f: Optional[Poly],
    j: int,
    n_values,
    norm_level: int,
    cap: int,
    loop_level: Optional[int] = None,
):
    """Distance table for the coefficient extractors, one row per band width.

    Plain case (f None): the target is the first coordinate series and the
    reference term is x1_j z^j. Complement case: the target is the inverse
    of f(x(z)) and the reference term is its z^j coefficient. Each row holds
    the z-adic order of the extractor's distance from the reference term at
    the given semi-norm level: an int, or an AtLeastCap.
    """
    n_values = sorted(n_values)
    if not n_values:
        return []
    # Each difference's first term past the band, z^(n+1), must be known.
    require_window(max(n_values) + 1, cap)
    if f is None:
        is_zero, name = projection_zero_test(norm_level), "target"
        if loop_level is None:
            loop_level = max(norm_level, abs(j))
        target = ev_series(dim, loop_level, cap)[0]
    else:
        a, target = _complement_setup(f, dim, j, norm_level, cap, loop_level)
        is_zero, name = model_zero_test(norm_level, a.coeffs[min(a.coeffs)]), "inverse"
    ref_series = _reference_term(target, j, name)
    rows = []
    for n in n_values:
        diff = apply_nu_poly(make_projector(j, n), target) - ref_series
        rows.append(ConvergenceRow(n, diff.z_order(is_zero)))
    return rows


class ApproxResult(NamedTuple):
    element: LocalizedElem
    order: Union[int, AtLeastCap]
    model: TruncSeries
    commutes: bool


def approximate_coefficient(
    f: Poly,
    dim: int,
    j: int,
    n: int,
    norm_level: int,
    cap: int,
    loop_level: Optional[int] = None,
) -> ApproxResult:
    """Apply the slot-j extractor to 1/f(x(z)) inside the localisation.

    Returns the localized element itself (denominator an explicit power of
    the evaluated series), the z-adic order at the given level of its
    distance from the single reference term of the inverse series, and
    whether mapping to the model commutes with the diagonal action (it must).
    """
    a, inverse = _complement_setup(f, dim, j, norm_level, cap, loop_level)
    p = make_projector(j, n)
    u = LocalizedElem.reduced(TruncSeries.constant(Poly.const(1)), 1, a)
    element = apply_nu_poly_localized(p, u, a)
    model = loc_to_model_with(element, a)
    # The inverse is the model image of u = 1/a.
    commutes = model.agrees_with(apply_nu_poly(p, inverse))
    diff = model - _reference_term(inverse, j, "inverse")
    order = model_seminorm(diff, norm_level, a.coeffs[min(a.coeffs)])
    return ApproxResult(element, order, model, commutes)
