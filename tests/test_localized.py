from fractions import Fraction

import pytest
from hypothesis import given
import hypothesis.strategies as strat

from loopalg import laurent, localized
from loopalg.errors import GoodElementViolationError
from loopalg.exactpoly import Poly, const, div_exact, parse_poly, xvar
from loopalg.laurent import INF, AtLeastCap, TruncSeries
from loopalg.localized import (
    LocalizedCoef,
    LocalizedElem,
    lift_series,
    loc_seminorm,
    loc_to_model_with,
    model_seminorm,
    model_zero_test,
)
from loopalg.loopspace import compose, ev_series, invert_series
from loopalg.projector import (
    NU,
    apply_nu_poly,
    apply_nu_poly_localized,
    make_projector,
)
from loopalg.seminorm import seminorm_order

from .helpers import nu, value
from .strategies import poly_series


def _build(cap):
    a = compose(parse_poly("x1", 1), ev_series(1, 1, cap))
    return a, a.coeffs[-1], invert_series(a, 1)


# Shared across the hypothesis suites below; elements are never mutated.
_WIDE = _build(10)


@pytest.fixture
def setting():
    a, lead, inverse = _build(8)
    return parse_poly("x1", 1), a, lead, inverse


def elem(series, power):
    return LocalizedElem(series, power)


def poly_const_series(c):
    return TruncSeries.constant(Poly.const(c))


def z_power(k):
    return TruncSeries.exact({k: Poly.const(1)})


class TestLocalizedCoef:
    def test_normalization_cancels_base(self):
        base = xvar(1, -1)
        c = LocalizedCoef(xvar(1, 0) * base ** 2, 3, base)
        assert c.pow == 1 and c.num == xvar(1, 0)

    def test_constant_base_dissolves(self):
        c = LocalizedCoef(xvar(1, 0), 2, const(2))
        assert c.pow == 0 and c.num == Fraction(1, 4) * xvar(1, 0)

    def test_cross_multiplied_equality(self):
        base = xvar(1, -1)
        u = LocalizedCoef(xvar(1, 0), 1, base)
        v = LocalizedCoef(xvar(1, 0) * base, 2, base)
        assert u == v

    def test_arithmetic(self):
        base = xvar(1, -1)
        u = LocalizedCoef(Poly.const(1), 1, base)
        v = LocalizedCoef(xvar(1, 0), 0, base)
        assert (u + v).num == const(1) + xvar(1, 0) * base
        assert (u * v) == LocalizedCoef(xvar(1, 0), 1, base)
        assert u - u == Poly.zero()
        assert (u ** 2).pow == 2

    def test_zero_power_normalizes(self):
        base = xvar(1, -1)
        assert LocalizedCoef(Poly.zero(), 5, base).pow == 0


class TestCancellationLooksUpItsDivision:
    """Both reductions divide through the module attribute as it is at call
    time (localized.div_exact, laurent.divide_exact), which is what a
    wrapper installed on the module sees."""

    def _spy(self, monkeypatch, module, name):
        calls = []
        original = getattr(module, name)

        def spy(num, den):
            calls.append(den)
            return original(num, den)

        monkeypatch.setattr(module, name, spy)
        return calls

    def test_coef_calls_localized_div_exact(self, monkeypatch):
        calls = self._spy(monkeypatch, localized, "div_exact")
        base = xvar(1, -1)
        c = LocalizedCoef(xvar(1, 0) * base ** 2, 3, base)
        assert c.pow == 1 and c.num == xvar(1, 0)
        assert calls == [base] * 3
        monkeypatch.setattr(localized, "div_exact", lambda num, den: None)
        c = LocalizedCoef(base, 1, base)
        assert (c.num, c.pow) == (base, 1)

    def test_elem_calls_laurent_divide_exact(self, monkeypatch, setting):
        _, a, _, _ = setting
        calls = self._spy(monkeypatch, laurent, "divide_exact")
        two = poly_const_series(2)
        out = LocalizedElem.reduced(two * a * a, 3, a)
        assert out.pow == 1 and out.num.agrees_with(two)
        assert len(calls) == 3 and all(den is a for den in calls)
        monkeypatch.setattr(laurent, "divide_exact", lambda num, den: None)
        assert LocalizedElem.reduced(a, 1, a).pow == 1


class TestFractionOps:
    """Sums and products formed on numerators over one power of a; reduction
    cancels a exactly as far as it divides the numerator."""

    def test_add_cancels(self, setting):
        _, a, _, _ = setting
        b = poly_const_series(3)
        out = LocalizedElem.reduced(b + b.scale(-1), 1, a)
        assert out.num.is_zero_window() and out.pow == 0

    def test_add_same_denominator(self, setting):
        _, a, _, _ = setting
        out = LocalizedElem.reduced(poly_const_series(2) + poly_const_series(3), 0, a)
        assert out.pow == 0 and out.num.coeffs == {0: Poly.const(5)}

    def test_add_mixed_powers(self, setting):
        # 1/a + 1/a^2 = (a + 1)/a^2
        _, a, _, _ = setting
        one = poly_const_series(1)
        out = LocalizedElem.reduced(one * a + one, 2, a)
        assert out.pow == 2
        assert out.num.agrees_with(a + one)

    def test_mul_cancels_into_polynomial(self, setting):
        _, a, _, _ = setting
        b = TruncSeries({0: xvar(1, 5)}, 4, floor=0)
        out = LocalizedElem.reduced(b * a, 1, a)
        assert out.pow == 0 and out.num.agrees_with(b)

    def test_mul_powers_add(self, setting):
        _, a, _, _ = setting
        one = poly_const_series(1)
        out = LocalizedElem.reduced(one * one, 1 + 1, a)
        assert out.pow == 2 and out.num.coeffs == {0: Poly.const(1)}

    def test_mul_z_shift(self, setting):
        _, a, _, _ = setting
        out = LocalizedElem.reduced(z_power(1) * z_power(1), 1 + 1, a)
        assert out.pow == 2 and out.num.coeffs == {2: Poly.const(1)}


class TestLocSemiNorm:
    def test_z_squared_over_a(self, setting):
        _, a, _, _ = setting
        u = elem(z_power(2), 1)
        # ord z^2 - ord a = 2 - (-1) at level 1.
        assert loc_seminorm(u, a, 1) == 3
        assert value(loc_seminorm(u, a, 1)) == (Fraction(1, 8), False)

    def test_unit(self, setting):
        _, a, _, _ = setting
        assert value(loc_seminorm(elem(poly_const_series(1), 0), a, 1)) == (1, False)

    def test_zero(self, setting):
        _, a, _, _ = setting
        u = elem(TruncSeries.zero(), 3)
        assert loc_seminorm(u, a, 1) == AtLeastCap(INF)
        assert value(loc_seminorm(u, a, 1)) == (Fraction(0), False)

    def test_dead_denominator_rejected(self):
        a = TruncSeries({-1: xvar(1, -1)}, 3, floor=-1)
        with pytest.raises(GoodElementViolationError):
            loc_seminorm(elem(poly_const_series(1), 1), a, 0)


def _reference_loc_seminorm(u, a, level, epsilon):
    """|num| * |a|^(-pow) as (value, is_upper_bound), with the order-to-value
    rule written out by hand, as loc_seminorm computed it on values."""
    a_order = seminorm_order(a, level)
    if isinstance(a_order, AtLeastCap):
        raise GoodElementViolationError(
            f"denominator semi-norm at level {level} is zero or only bounded"
        )
    num_order = seminorm_order(u.num, level)
    if isinstance(num_order, AtLeastCap):
        if num_order.cap == INF:
            return Fraction(0), False
        return epsilon ** (num_order.cap - u.pow * a_order), True
    return epsilon ** (num_order - u.pow * a_order), False


_NORM_BASES = {
    text: compose(parse_poly(text, 2), ev_series(2, 1, 4))
    for text in ("x1", "x1^2 + x1", "x1*x2 + 1")
}

# Truncated windows whose coefficients die at low levels (indices down to
# -2), the same coefficients known exactly, and the exact zero.
_numerators = strat.one_of(
    poly_series(dim=2, level=2, min_floor=-2, max_width=4),
    poly_series(dim=2, level=2, min_floor=-2, max_width=4).map(
        lambda s: TruncSeries.exact(s.coeffs)
    ),
    strat.just(TruncSeries.zero()),
)


class TestLocSemiNormMatchesReference:
    def test_random_numerators(self):
        seen = set()

        @given(_numerators, strat.integers(min_value=0, max_value=3),
               strat.sampled_from(sorted(_NORM_BASES)),
               strat.integers(min_value=0, max_value=2))
        def check(num, power, name, level):
            a, u = _NORM_BASES[name], elem(num, power)
            got = value(loc_seminorm(u, a, level), Fraction(2, 3))
            assert got == _reference_loc_seminorm(u, a, level, Fraction(2, 3))
            seen.add("bound" if got[1] else "zero" if not got[0] else "exact")

        check()
        assert seen == {"bound", "zero", "exact"}


class TestLocDerivative:
    """nu = z d/dz on a localized element, by the quotient rule
    nu(N/a^q) = (a nu(N) - q N nu(a)) / a^(q+1)."""

    def test_inverse(self, setting):
        # nu(1/a^2) = -2 nu(a)/a^3
        _, a, _, _ = setting
        out = apply_nu_poly_localized(NU, elem(poly_const_series(1), 2), a)
        assert out.pow == 3
        assert out.num.agrees_with(nu(a).scale(-2))

    def test_denominator_free(self, setting):
        _, a, _, _ = setting
        b = TruncSeries({2: xvar(1, 1)}, 5, floor=2)
        out = apply_nu_poly_localized(NU, elem(b, 0), a)
        assert out.pow == 0 and out.num == nu(b)

    def test_quotient_rule_shape(self, setting):
        # nu(z/a) = (a z - z nu(a))/a^2
        _, a, _, _ = setting
        z = z_power(1)
        out = apply_nu_poly_localized(NU, elem(z, 1), a)
        assert out.pow == 2
        assert out.num.agrees_with(a * z - z * nu(a))


class TestModelMap:
    def test_inverse_maps_to_inverse(self, setting):
        f, a, lead, inverse = setting
        model = loc_to_model_with(elem(poly_const_series(1), 1), a)
        assert model.agrees_with(inverse)

    def test_a_over_a_is_one(self, setting):
        _, a, lead, inverse = setting
        model = loc_to_model_with(elem(a, 1), a)
        assert model.agrees_with(TruncSeries.constant(LocalizedCoef(Poly.const(1), 0, lead)))

    def test_power_zero_unchanged(self, setting):
        _, a, lead, inverse = setting
        b = TruncSeries({0: xvar(1, 1)}, 3, floor=0)
        model = loc_to_model_with(elem(b, 0), a)
        assert model.agrees_with(lift_series(b, lead))

    @given(poly_series(level=1, min_floor=0), poly_series(level=1, min_floor=0),
           strat.integers(min_value=0, max_value=2),
           strat.integers(min_value=0, max_value=2))
    def test_model_map_is_ring_homomorphism(self, b1, b2, p1, p2):
        a, lead, inverse = _WIDE
        u, v = elem(b1, p1), elem(b2, p2)
        power = max(p1, p2)
        total = LocalizedElem.reduced(b1 * a ** (power - p1) + b2 * a ** (power - p2), power, a)
        lhs_add = loc_to_model_with(total, a)
        rhs_add = loc_to_model_with(u, a) + loc_to_model_with(v, a)
        assert lhs_add.agrees_with(rhs_add)
        lhs_mul = loc_to_model_with(LocalizedElem.reduced(b1 * b2, p1 + p2, a), a)
        rhs_mul = loc_to_model_with(u, a) * loc_to_model_with(v, a)
        assert lhs_mul.agrees_with(rhs_mul)

    @given(poly_series(level=1, min_floor=0), strat.integers(min_value=0, max_value=2))
    def test_seminorm_preserved_in_model(self, b, power):
        a, lead, inverse = _WIDE
        u = elem(b, power)
        direct = value(loc_seminorm(u, a, 1))
        model = value(model_seminorm(loc_to_model_with(u, a), 1, lead))
        if direct[1] or model[1]:
            return
        assert direct == model

    @given(poly_series(level=1, min_floor=0), strat.integers(min_value=0, max_value=2))
    def test_derivative_commutes_with_model_map(self, b, power):
        a, lead, inverse = _WIDE
        u = elem(b, power)
        # nu(b/a^q) = (nu(b) a - q b nu(a))/a^(q+1)
        if power == 0:
            derivative = elem(nu(b), 0)
        else:
            num = nu(b) * a - b.scale(power) * nu(a)
            derivative = LocalizedElem.reduced(num, power + 1, a)
        lhs = loc_to_model_with(derivative, a)
        rhs = nu(loc_to_model_with(u, a))
        assert lhs.agrees_with(rhs)


def _reference_inverse(s):
    """Inverse of s solved from s*t = 1 in LocalizedCoef arithmetic, which
    reduces after every sum and product."""
    m_low = min(s.coeffs)
    lead = s.coeffs[m_low]
    one_over_lead = LocalizedCoef(Poly.const(1), 1, lead)
    if s.is_exact():
        return TruncSeries.exact({-m_low: one_over_lead})
    coeffs = {-m_low: one_over_lead}
    for r in range(1, s.cap - m_low):
        acc = LocalizedCoef(Poly.zero(), 0, lead)
        for e, se in s.coeffs.items():
            if e != m_low and r - e in coeffs:
                acc = acc + se * coeffs[r - e]
        if acc:
            coeffs[r - m_low] = -(acc * one_over_lead)
    return TruncSeries(coeffs, s.cap - 2 * m_low, floor=-m_low)


def _reference_model(u, a):
    """The model map as lift(num) * inverse^pow, in LocalizedCoef arithmetic."""
    lifted = lift_series(u.num, a.coeffs[min(a.coeffs)])
    return lifted if u.pow == 0 else lifted * _reference_inverse(a) ** u.pow


_DIFF_SERIES = {
    text: compose(parse_poly(text, 2), ev_series(2, 1, 4))
    for text in ("x1", "x1 + x2", "x1*x2 + 1")
}
_DIFF_SERIES["exact 2*x1_-1*z^-1"] = TruncSeries.exact({-1: 2 * xvar(1, -1)})


class TestModelMapMatchesReference:
    @given(strat.sampled_from(sorted(_DIFF_SERIES)),
           poly_series(dim=2, level=1, min_floor=-2, max_width=4),
           strat.integers(min_value=0, max_value=3))
    def test_random_numerators(self, name, num, power):
        a = _DIFF_SERIES[name]
        u = elem(num, power)
        assert loc_to_model_with(u, a) == _reference_model(u, a)

    @pytest.mark.parametrize("name", sorted(_DIFF_SERIES))
    @pytest.mark.parametrize("power", [0, 1, 2, 3])
    def test_numerators_one_and_a(self, name, power):
        a = _DIFF_SERIES[name]
        for num in (poly_const_series(1), a):
            u = elem(num, power)
            assert loc_to_model_with(u, a) == _reference_model(u, a)


def _to_sympy(sympy, poly):
    """A Poly (or the int 0 of a known-zero coefficient) as a sympy expression."""
    total = sympy.Integer(0)
    for mono, coeff in (poly.terms.items() if poly else ()):
        term = sympy.Rational(coeff.numerator, coeff.denominator)
        for ref, exp in mono:
            term *= sympy.Symbol(ref.render()) ** exp
        total += term
    return total


def _sympy_composite(sympy, text, level, cap):
    """z and f(x(z)) with each coordinate summed over the window [-level, cap)."""
    z = sympy.Symbol("z")
    coords = {
        name: sum(sympy.Symbol(f"{name}_{j}") * z**j for j in range(-level, cap))
        for name in ("x1", "x2")
    }
    return z, sympy.sympify(text.replace("^", "**"), locals=coords)


class TestInverseAgainstSympy:
    """Each inverse coefficient num/L^pow is sympy's series coefficient of
    1/f(x(z)), and num is reduced: L does not divide it when pow > 0. The
    composite f(x(z)) and the extractors' action on it are checked against
    sympy's expansion and its z d/dz."""

    @pytest.mark.parametrize("text", ["x1", "x1 + x2", "x1*x2 + 1", "2*x1 + x2^2"])
    @pytest.mark.parametrize("level", [1, 2])
    @pytest.mark.parametrize("cap", [3, 4])
    def test_coefficients(self, text, level, cap):
        sympy = pytest.importorskip("sympy")
        from sympy.polys.fields import field

        a = compose(parse_poly(text, 2), ev_series(2, level, cap))
        inverse = invert_series(a, level)
        z, f_of_z = _sympy_composite(sympy, text, level, cap)
        m_low = min(a.coeffs)
        shifted = sympy.expand(f_of_z * z**-m_low)
        series = sympy.expand(sympy.series(1 / shifted, z, 0, inverse.cap + m_low).removeO())
        symbols = sorted(f_of_z.free_symbols - {z}, key=str)
        rational_functions, *_ = field(symbols, sympy.QQ)

        assert (inverse.floor, inverse.cap) == (-m_low, a.cap - 2 * m_low)
        for e in range(inverse.floor, inverse.cap):
            want = rational_functions.from_expr(series.coeff(z, e + m_low))
            c = inverse.coefficient(e)
            if not c:
                assert want == 0
                continue
            base = rational_functions.from_expr(_to_sympy(sympy, c.base))
            got = rational_functions.from_expr(_to_sympy(sympy, c.num)) / base ** c.pow
            assert got == want
            if c.pow > 0:
                assert div_exact(c.num, c.base) is None

    @pytest.mark.parametrize(
        "text", ["x1", "x1*x2 + 1", "2*x1 + x2^2", "3*x1^2*x2 - x2 + 5", "7"]
    )
    @pytest.mark.parametrize("level", [0, 1, 2])
    @pytest.mark.parametrize("cap", [1, 3])
    def test_compose_coefficients(self, text, level, cap):
        # The window is [-level*deg f, cap - (deg f - 1)*level), and within it
        # no coordinate coefficient at or past the cap can reach a product.
        sympy = pytest.importorskip("sympy")
        f = parse_poly(text, 2)
        degree = f.total_degree()
        a = compose(f, ev_series(2, level, cap))
        z, f_of_z = _sympy_composite(sympy, text, level, cap)
        expanded = sympy.expand(f_of_z)
        if degree:
            assert (a.floor, a.cap) == (-level * degree, cap - (degree - 1) * level)
            exponents = range(a.floor, a.cap)
        else:
            assert a.cap == INF
            exponents = [0]
        for e in exponents:
            got = _to_sympy(sympy, a.coefficient(e))
            assert sympy.expand(got - expanded.coeff(z, e)) == 0

    @pytest.mark.parametrize("text", ["x1", "x1*x2 + 1", "2*x1 + x2^2"])
    @pytest.mark.parametrize("j, n", [(0, 0), (1, 1), (-1, 2), (2, 1), (4, 2)])
    def test_apply_nu_poly_coefficients(self, text, j, n):
        # The extractor is the product over i in [-n, n], i != j, of
        # (nu - i)/(j - i) with nu = z d/dz; sympy applies each factor in turn.
        sympy = pytest.importorskip("sympy")
        level, cap = 1, 4
        a = compose(parse_poly(text, 2), ev_series(2, level, cap))
        image = apply_nu_poly(make_projector(j, n), a)
        # nu acts diagonally, so the terms of f(x(z)) past the window, which
        # the truncated coordinates get wrong, stay past it.
        z, f_of_z = _sympy_composite(sympy, text, level, cap)
        want = sympy.expand(f_of_z)
        for i in range(-n, n + 1):
            if i != j:
                want = sympy.expand((z * sympy.diff(want, z) - i * want) / (j - i))
        assert (image.floor, image.cap) == (a.floor, a.cap)
        for e in range(a.floor, a.cap):
            got = _to_sympy(sympy, image.coefficient(e))
            assert sympy.expand(got - want.coeff(z, e)) == 0


class TestMultiplicativity:
    @given(strat.integers(min_value=0, max_value=2), strat.integers(min_value=0, max_value=2))
    def test_norm_multiplies_on_clean_powers(self, p1, p2):
        f = parse_poly("x1", 1)
        a = compose(f, ev_series(1, 1, 10))
        u = elem(z_power(2), p1)
        v = elem(TruncSeries.exact({1: xvar(1, 0)}), p2)
        product = LocalizedElem.reduced(u.num * v.num, p1 + p2, a)
        norms = [value(loc_seminorm(w, a, 1))[0] for w in (product, u, v)]
        assert norms[0] == norms[1] * norms[2]


def test_model_zero_test_requires_live_base():
    with pytest.raises(GoodElementViolationError):
        model_zero_test(0, xvar(1, -1))
    test = model_zero_test(1, xvar(1, -1))
    assert test(LocalizedCoef(xvar(1, -2), 1, xvar(1, -1)))
    assert not test(LocalizedCoef(xvar(1, 0), 1, xvar(1, -1)))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: LocalizedCoef(xvar(1, 0), 1, Poly.zero()), ZeroDivisionError,
         "localisation base must be nonzero"),
        (lambda: LocalizedCoef(xvar(1, 0), -1, xvar(1, -1)), ValueError,
         "denominator power must be >= 0"),
        (lambda: LocalizedCoef(const(1), 1, xvar(1, -1)) + LocalizedCoef(const(1), 1, xvar(2, -1)),
         ValueError, "mixed localisation bases"),
        (lambda: LocalizedElem(TruncSeries.constant(const(1)), -1), ValueError,
         "denominator power must be >= 0"),
    ],
)
def test_refusals(call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call()
