from fractions import Fraction

import pytest
from hypothesis import example, given
import hypothesis.strategies as strat

from loopalg.errors import PrecisionExhaustedError
from loopalg.exactpoly import Poly, const, xvar
from loopalg.laurent import INF, AtLeastCap, TruncSeries, divide_exact
from loopalg.localized import LocalizedCoef
from loopalg.projector import NU, apply_nu_poly

from .helpers import nu
from .strategies import poly_series, rational_series


def frac_series(coeffs, cap, floor=None):
    return TruncSeries({m: Fraction(c) for m, c in coeffs.items()}, cap, floor=floor)


class TestAdd:
    def test_cap_is_min(self):
        s = frac_series({-1: 1, 0: 1}, cap=3)
        t = frac_series({-1: -1}, cap=2)
        out = s + t
        assert out.coeffs == {0: 1} and out.cap == 2

    def test_exact_zero_is_free(self):
        s = frac_series({1: 2}, cap=5)
        assert s + TruncSeries.zero() == s
        assert TruncSeries.zero() + s == s

    def test_terms_beyond_joint_cap_drop(self):
        s = frac_series({1: 1}, cap=2)
        t = frac_series({2: 1}, cap=5)
        out = s + t
        assert out.coeffs == {1: 1} and out.cap == 2

    def test_floor_is_min(self):
        s = frac_series({0: 1}, cap=3, floor=-2)
        t = frac_series({1: 1}, cap=3, floor=0)
        assert (s + t).floor == -2

    # Localized coefficients over the two-term base L = x1_-1 + x2_0.
    _L = xvar(1, -1) + xvar(2, 0)

    @given(poly_series(dim=2), poly_series(dim=2))
    # Disjoint supports, Poly coefficients.
    @example(TruncSeries({-1: xvar(1, -1), 0: xvar(1, 0)}, cap=2),
             TruncSeries({1: xvar(2, 0) + const(1), 3: xvar(1, 1)}, cap=4, floor=1))
    # A coefficient cancelling to zero, Poly coefficients, one side exact.
    @example(TruncSeries({0: xvar(1, 0) + const(1), 1: xvar(1, 1)}, cap=3),
             TruncSeries.exact({0: -xvar(1, 0) - const(1), 2: const(2)}))
    # Disjoint supports, localized coefficients.
    @example(TruncSeries({-1: LocalizedCoef(xvar(1, 0), 1, _L)}, cap=2, floor=-2),
             TruncSeries({0: LocalizedCoef(const(1), 2, _L),
                          1: LocalizedCoef(xvar(1, 1), 0, _L)}, cap=3))
    # Localized coefficients: one sum cancels to zero, one to L/L^2 = 1/L.
    @example(TruncSeries({0: LocalizedCoef(xvar(1, 0), 1, _L),
                          1: LocalizedCoef(xvar(1, 0), 2, _L)}, cap=4),
             TruncSeries({0: LocalizedCoef(-xvar(1, 0), 1, _L),
                          1: LocalizedCoef(_L - xvar(1, 0), 2, _L),
                          2: LocalizedCoef(const(3), 1, _L)}, cap=3))
    def test_matches_zero_padded_sum(self, s, t):
        # Oracle: pad a missing coefficient with 0, as in sum_m (s_m + t_m) z^m.
        cap = min(s.cap, t.cap)
        padded = {
            m: s.coeffs.get(m, 0) + t.coeffs.get(m, 0)
            for m in set(s.coeffs) | set(t.coeffs)
            if m < cap
        }
        assert s + t == TruncSeries(padded, cap, min(s.floor, t.floor))


class TestMul:
    def test_monomial_cap_rule(self):
        s = frac_series({-1: 1}, cap=2)
        t = frac_series({1: 1}, cap=2)
        out = s * t
        assert out.coeffs == {0: 1} and out.cap == 1 and out.floor == 0

    def test_polynomial_product(self):
        s = frac_series({0: 1, 1: 1}, cap=3)
        t = frac_series({0: 1, 1: -1}, cap=3)
        out = s * t
        assert out.coeffs == {0: 1, 2: -1} and out.cap == 3

    def test_coordinate_square(self):
        # (x1_-1 z^-1 + x1_0 + O(z)) squared, expanded by hand
        s = TruncSeries({-1: xvar(1, -1), 0: xvar(1, 0)}, cap=1, floor=-1)
        out = s * s
        assert out.cap == 0 and out.floor == -2
        assert out.coeffs == {
            -2: xvar(1, -1) ** 2,
            -1: 2 * xvar(1, -1) * xvar(1, 0),
        }

    def test_empty_window_raises(self):
        # A collapsed window (nothing known) poisons any product.
        collapsed = TruncSeries({}, cap=0, floor=0)
        with pytest.raises(PrecisionExhaustedError):
            collapsed * frac_series({0: 1}, cap=2)

    def test_exact_times_truncated(self):
        one = TruncSeries.constant(Fraction(1))
        s = frac_series({2: 5}, cap=4)
        assert one * s == s

    @given(rational_series(), rational_series())
    def test_matches_naive_convolution(self, s, t):
        # Independent oracle: plain dict convolution, then window filter.
        cap = min(s.cap + t.floor, t.cap + s.floor)
        if cap <= s.floor + t.floor:
            with pytest.raises(PrecisionExhaustedError):
                s * t
            return
        expected = {}
        for m1, c1 in s.coeffs.items():
            for m2, c2 in t.coeffs.items():
                expected[m1 + m2] = expected.get(m1 + m2, Fraction(0)) + c1 * c2
        expected = {m: c for m, c in expected.items() if c and m < cap}
        out = s * t
        assert out.coeffs == expected
        assert out.cap == cap and out.floor == s.floor + t.floor

    _L = xvar(1, -1) + xvar(2, 0)

    @given(poly_series(dim=2), poly_series(dim=2), strat.sampled_from([None, 0, 1, 2]))
    # (x1_0 + z)(x1_0 - z): the z^1 coefficient cancels to zero.
    @example(TruncSeries({0: xvar(1, 0), 1: const(1)}, cap=3),
             TruncSeries({0: xvar(1, 0), 1: const(-1)}, cap=3), None)
    @example(TruncSeries({0: xvar(1, 0), 1: const(1)}, cap=3),
             TruncSeries({0: xvar(1, 0), 1: const(-1)}, cap=3), 1)
    def test_matches_naive_poly_and_localized_convolution(self, s, t, power):
        # Oracle: the per-pair convolution, a running `+` of each `*`.
        if power is not None:
            # Localized coefficients over a two-term base.
            s, t = (u.map_coefficients(lambda c: LocalizedCoef(c, power, self._L))
                    for u in (s, t))
        cap = min(s.cap + t.floor, t.cap + s.floor)
        if cap <= s.floor + t.floor:
            with pytest.raises(PrecisionExhaustedError):
                s * t
            return
        expected = {}
        for m1, c1 in s.coeffs.items():
            for m2, c2 in t.coeffs.items():
                if m1 + m2 < cap:
                    prev = expected.get(m1 + m2)
                    expected[m1 + m2] = c1 * c2 if prev is None else prev + c1 * c2
        assert s * t == TruncSeries(expected, cap, s.floor + t.floor)

    def test_poly_coefficients_build_no_per_pair_product(self, monkeypatch):
        # Each output coefficient is one sum of products: no Poly * Poly.
        calls = []
        original = Poly.__mul__

        def spy(self, other):
            calls.append(other)
            return original(self, other)

        monkeypatch.setattr(Poly, "__mul__", spy)
        s = TruncSeries({0: xvar(1, 0), 1: xvar(1, 1) + const(2)}, cap=4)
        t = TruncSeries({-1: xvar(2, -1), 0: const(3), 2: xvar(1, 0)}, cap=3, floor=-1)
        out = s * t
        assert calls == []
        monkeypatch.undo()
        assert out.coeffs[0] == xvar(1, 1) * xvar(2, -1) + 2 * xvar(2, -1) + 3 * xvar(1, 0)


class TestPow:
    @given(rational_series(), strat.integers(min_value=0, max_value=5))
    def test_matches_repeated_multiplication(self, s, k):
        expected = TruncSeries.constant(1)
        for _ in range(k):
            expected = expected * s
        power = s ** k
        assert power == expected
        if k:
            assert (power.floor, power.cap) == (k * s.floor, s.cap + (k - 1) * s.floor)

    def test_negative_exponent_is_refused(self):
        with pytest.raises(ValueError, match="negative powers are not defined here"):
            TruncSeries({0: xvar(1, 0)}, cap=2) ** -1

    def test_zero_exponent_is_the_exact_one(self):
        power = TruncSeries({-1: xvar(1, -1)}, cap=1, floor=-1) ** 0
        assert power == TruncSeries.constant(1) and power.is_exact()

    @pytest.mark.parametrize("k", range(1, 65))
    def test_products_are_the_binary_method_count(self, monkeypatch, k):
        # bit_length(k) - 1 squarings and popcount(k) - 1 multiplications by
        # the base; repeated multiplication would take k - 1 from k = 4 on.
        products = []
        mul = TruncSeries.__mul__

        def counted(self, other):
            products.append(1)
            return mul(self, other)

        monkeypatch.setattr(TruncSeries, "__mul__", counted)
        s = TruncSeries({0: 1, 1: 1}, cap=3)
        power = s ** k
        assert len(products) == k.bit_length() + bin(k).count("1") - 2
        binomials = {0: 1, 1: k, 2: k * (k - 1) // 2}
        assert power.coeffs == {m: c for m, c in binomials.items() if c}


class TestDerivative:
    """The Euler derivative nu = z d/dz, which acts on a series only through
    `apply_nu_poly`: the z^m coefficient times m, in the same window."""

    _L = xvar(1, -1) + xvar(2, 0)

    def test_square(self):
        s = frac_series({2: 1}, cap=5, floor=-1)
        out = apply_nu_poly(NU, s)
        assert out.coeffs == {2: 2} and out.cap == 5 and out.floor == -1

    def test_constant(self):
        out = apply_nu_poly(NU, TruncSeries.constant(Fraction(7)))
        assert out.coeffs == {} and out.is_exact()

    @given(poly_series(dim=2), strat.sampled_from([None, 0, 1, 2]))
    def test_termwise(self, s, power):
        if power is not None:
            # Localized coefficients over a two-term base.
            s = s.map_coefficients(lambda c: LocalizedCoef(c, power, self._L))
        assert apply_nu_poly(NU, s) == nu(s)

    @given(rational_series(), rational_series())
    def test_leibniz(self, s, t):
        try:
            st = s * t
        except PrecisionExhaustedError:
            return
        lhs = apply_nu_poly(NU, st)
        rhs = apply_nu_poly(NU, s) * t + s * apply_nu_poly(NU, t)
        assert lhs.agrees_with(rhs) and rhs.cap == st.cap


def reference_agrees_with(s, t):
    """The coefficientwise loop agrees_with ran before it compared the two
    filtered dicts: a coefficient missing on one side must be falsy on the
    other, one present on both must be equal."""
    cap = min(s.cap, t.cap)
    for m in set(s.coeffs) | set(t.coeffs):
        if m >= cap:
            continue
        a = s.coeffs.get(m)
        b = t.coeffs.get(m)
        if a is None:
            if b:
                return False
        elif b is None:
            if a:
                return False
        elif a != b:
            return False
    return True


class TestAgreesWith:
    _L = xvar(1, -1) + xvar(2, 0)

    @given(
        poly_series(dim=2), poly_series(dim=2), strat.integers(min_value=-4, max_value=6),
        strat.booleans(), strat.booleans(), strat.sampled_from([None, 0, 1, 2]),
    )
    def test_matches_reference(self, s, noise, cut, s_exact, t_exact, power):
        # t is s below `cut` and `noise` from `cut` on, with its own cap, so
        # the two agree on part of the window and either side may be exact.
        t_coeffs = {m: c for m, c in s.coeffs.items() if m < cut}
        t_coeffs.update((m, c) for m, c in noise.coeffs.items() if m >= cut)
        t = TruncSeries(t_coeffs, INF if t_exact else max(cut, noise.cap))
        if s_exact:
            s = TruncSeries.exact(s.coeffs)
        if power is not None:
            # Localized coefficients over a two-term base.
            s, t = (u.map_coefficients(lambda c: LocalizedCoef(c, power, self._L))
                    for u in (s, t))
        assert s.agrees_with(t) == reference_agrees_with(s, t)
        assert t.agrees_with(s) == reference_agrees_with(t, s)
        assert s.agrees_with(s)

    def test_agrees_below_the_joint_cap_only(self):
        s = frac_series({0: 1, 2: 5}, cap=3)
        assert s.agrees_with(frac_series({0: 1}, cap=2))
        assert not s.agrees_with(frac_series({0: 1}, cap=4))
        assert not s.agrees_with(frac_series({0: 1, 1: 1}, cap=2))


class TestPrecisionSoundness:
    @given(
        strat.lists(
            strat.fractions(min_value=-3, max_value=3, max_denominator=3),
            min_size=3,
            max_size=8,
        ),
        strat.integers(min_value=-2, max_value=0),
    )
    def test_larger_caps_refine(self, ground_truth, floor):
        # The same underlying series truncated at two caps: every operation
        # must agree below the smaller output cap.
        def truncated(width):
            known = {floor + i: c for i, c in enumerate(ground_truth[:width]) if c}
            return TruncSeries(known, floor + width, floor=floor)

        wide = truncated(len(ground_truth))
        narrow = truncated(len(ground_truth) - 2)
        assert (narrow * narrow).agrees_with(wide * wide)
        assert (narrow + narrow).agrees_with(wide + wide)
        assert apply_nu_poly(NU, narrow).agrees_with(apply_nu_poly(NU, wide))


class TestZOrder:
    def test_projection_kills_deep_coefficient(self):
        s = TruncSeries({-2: xvar(1, -2), 0: xvar(1, 0)}, cap=1, floor=-2)
        assert s.z_order(lambda c: not c.project(1)) == 0
        assert s.z_order(lambda c: not c.project(2)) == -2

    def test_all_killed_returns_cap(self):
        s = TruncSeries({-2: xvar(1, -2)}, cap=1, floor=-2)
        assert s.z_order(lambda c: not c.project(0)) == AtLeastCap(1)

    def test_exact_zero_image(self):
        s = TruncSeries.exact({-2: xvar(1, -2)})
        assert s.z_order(lambda c: not c.project(0)) == AtLeastCap(INF)

    @given(poly_series(), poly_series(), strat.integers(min_value=0, max_value=3))
    def test_order_subadditive(self, s, t, level):
        is_zero = lambda c: not c.project(level)
        try:
            prod_order = (s * t).z_order(is_zero)
        except PrecisionExhaustedError:
            return
        so, to = s.z_order(is_zero), t.z_order(is_zero)
        if isinstance(prod_order, AtLeastCap):
            return
        if isinstance(so, AtLeastCap) or isinstance(to, AtLeastCap):
            return
        assert prod_order >= so + to


class TestHelpers:
    def test_scale_by_zero_is_exact(self):
        s = frac_series({0: 1}, cap=3)
        assert s.scale(0) == TruncSeries.zero()

    def test_coefficient_lookup(self):
        s = frac_series({0: 1}, cap=2)
        assert s.coefficient(0) == 1
        assert s.coefficient(1) == 0
        assert s.coefficient(5) is None

    def test_print_format(self):
        s = TruncSeries(
            {-1: xvar(1, -1), 0: xvar(1, 0), 1: xvar(1, 1)}, cap=2, floor=-1
        )
        assert str(s) == "x1_-1*z^-1 + x1_0*z^0 + x1_1*z^1 + O(z^2)"
        assert str(TruncSeries.zero()) == "0"

    def test_multi_term_coefficient_is_parenthesized(self):
        s = TruncSeries({0: xvar(1, 0) + const(1)}, cap=1)
        assert str(s) == "(x1_0 + 1)*z^0 + O(z^1)"


class TestExactCap:
    """An exact series has cap INF, and the window rules run on it unchanged."""

    def test_exact_series_has_cap_inf(self):
        s = TruncSeries.exact({-1: Fraction(2)})
        assert s.cap == INF and s.is_exact()
        assert s.coefficient(10**9) == 0
        assert str(s) == "2*z^-1"

    def test_exact_times_truncated_takes_the_mul_rule(self):
        s = TruncSeries.exact({-1: Fraction(2)})
        t = frac_series({0: 1, 1: 3}, cap=3)
        out = s * t
        assert out.coeffs == {-1: 2, 0: 6} and out.cap == 2 and out.floor == -1
        assert not out.is_exact()

    def test_exact_stays_exact(self):
        s = TruncSeries.exact({-1: Fraction(2), 1: Fraction(1)})
        for out in (s + s, s - s, s * s, s ** 3, apply_nu_poly(NU, s), s.scale(3)):
            assert out.cap == INF and out.is_exact()


class TestDivideExact:
    def test_recovers_series_factor(self):
        a = TruncSeries({-1: xvar(1, -1), 0: xvar(1, 0), 1: xvar(1, 1)}, 3, floor=-1)
        b = TruncSeries({0: xvar(2, 0), 1: xvar(2, 1)}, 4, floor=0)
        q = divide_exact(b * a, a)
        assert q is not None and q.agrees_with(b)

    def test_refuses_when_precision_would_be_lost(self):
        a = TruncSeries({-1: xvar(1, -1)}, 0, floor=-1)
        num = TruncSeries({-1: xvar(1, -1) * xvar(2, 5)}, 4, floor=-1)
        assert divide_exact(num, a) is None

    def test_indivisible(self):
        a = TruncSeries({-1: xvar(1, -1), 0: xvar(1, 0)}, 2, floor=-1)
        num = TruncSeries({0: const(1)}, 3, floor=0)
        assert divide_exact(num, a) is None


@pytest.mark.parametrize(
    "coeffs, cap, floor, message",
    [
        ({-1: const(1)}, 2, 0, "coefficient at -1 lies below floor 0"),
        ({2: const(1)}, 2, 0, "coefficient at 2 is beyond cap 2"),
        ({0: const(1), 5: const(1)}, 3, None, "coefficient at 5 is beyond cap 3"),
    ],
)
def test_refuses_coefficients_outside_the_window(coeffs, cap, floor, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        TruncSeries(coeffs, cap, floor)
