from fractions import Fraction

import pytest
from hypothesis import given
import hypothesis.strategies as strat

from loopalg.errors import PrecisionExhaustedError
from loopalg.exactpoly import Poly, parse_poly, xvar
from loopalg.laurent import INF, AtLeastCap, TruncSeries
from loopalg.localized import LocalizedElem, loc_to_model_with
from loopalg.loopspace import compose, ev_series
from loopalg.projector import (
    NuPoly,
    apply_nu_poly,
    apply_nu_poly_localized,
    approximate_coefficient,
    convergence_experiment,
    make_projector,
)

from .helpers import nu, value
from .strategies import poly_series, polys

EPS = Fraction(1, 2)


class TestMakeProjector:
    def test_center_band_one(self):
        # -(nu+1)(nu-1) = 1 - nu^2, fixing z^0
        p = make_projector(0, 1)
        assert p.coeffs == (Fraction(1), Fraction(0), Fraction(-1))
        assert p(0) == 1

    def test_center_band_two(self):
        # (1/4)(nu+2)(nu+1)(nu-1)(nu-2)
        p = make_projector(0, 2)
        assert p.coeffs == (
            Fraction(1),
            Fraction(0),
            Fraction(-5, 4),
            Fraction(0),
            Fraction(1, 4),
        )

    def test_off_center(self):
        # (1/2) nu (nu+1)
        p = make_projector(1, 1)
        assert p.coeffs == (Fraction(0), Fraction(1, 2), Fraction(1, 2))

    @given(strat.integers(min_value=-4, max_value=4),
           strat.integers(min_value=0, max_value=4))
    def test_normalized_at_slot(self, j, n):
        p = make_projector(j, n)
        assert p(j) == 1
        assert len(p.coeffs) - 1 == (2 * n if -n <= j <= n else 2 * n + 1)

    @given(strat.integers(min_value=-3, max_value=3),
           strat.integers(min_value=0, max_value=3))
    def test_kills_band(self, j, n):
        p = make_projector(j, n)
        for i in range(-n, n + 1):
            if i != j:
                assert p(i) == 0


class TestApplyNuPoly:
    def test_eigenvector(self):
        nu = NuPoly([0, 1])
        s = TruncSeries.exact({3: Poly.const(1)})
        assert apply_nu_poly(nu, s).coeffs == {3: Poly.const(3)}

    def test_band_projector_on_coordinates(self):
        s = ev_series(1, 2, 3)[0]
        out = apply_nu_poly(make_projector(0, 1), s)
        assert out.coeffs == {
            -2: -3 * xvar(1, -2),
            0: xvar(1, 0),
            2: -3 * xvar(1, 2),
        }
        assert out.cap == s.cap and out.floor == s.floor

    def test_zero(self):
        assert apply_nu_poly(NuPoly([1, 2, 3]), TruncSeries.zero()).coeffs == {}

    @given(polys(), strat.integers(min_value=-3, max_value=3),
           strat.integers(min_value=-4, max_value=4),
           strat.integers(min_value=0, max_value=3))
    def test_fixes_normalized_slot(self, c, j, m, n):
        p = make_projector(j, n)
        s = TruncSeries.exact({j: c})
        assert apply_nu_poly(p, s).agrees_with(s)
        if -n <= m <= n and m != j:
            killed = apply_nu_poly(p, TruncSeries.exact({m: c}))
            assert killed.is_zero_window()


class TestApplyNuPolyLocalized:
    def setup_method(self):
        self.a = compose(parse_poly("x1", 1), ev_series(1, 1, 10))
        self.one_over_a = LocalizedElem.reduced(
            TruncSeries.constant(Poly.const(1)), 1, self.a
        )

    def test_single_euler_step(self):
        out = apply_nu_poly_localized(NuPoly([0, 1]), self.one_over_a, self.a)
        assert out.pow == 2
        assert out.num.agrees_with(-nu(self.a))

    def test_identity(self):
        out = apply_nu_poly_localized(NuPoly([1]), self.one_over_a, self.a)
        lhs = out.num * self.a ** self.one_over_a.pow
        assert lhs.agrees_with(self.one_over_a.num * self.a ** out.pow)

    @given(strat.sampled_from([(0, 1), (1, 1), (0, 2), (2, 2)]))
    def test_commutes_with_model_map(self, slot_band):
        j, n = slot_band
        p = make_projector(j, n)
        lhs = loc_to_model_with(apply_nu_poly_localized(p, self.one_over_a, self.a), self.a)
        rhs = apply_nu_poly(p, loc_to_model_with(self.one_over_a, self.a))
        assert lhs.agrees_with(rhs)


def _reference_apply_localized(p, u, a):
    """p(nu)u stepwise: w runs through nu^k u by the quotient rule
    nu(N/a^q) = (a nu(N) - q N nu(a))/a^(q+1), reduced at each step, and each
    c_k w joins the sum over the larger power of a, reduced again."""

    def add(x, y):
        power = max(x.pow, y.pow)
        num = x.num * a ** (power - x.pow) + y.num * a ** (power - y.pow)
        return LocalizedElem.reduced(num, power, a)

    acc = LocalizedElem(u.num.scale(p.coeffs[0]), u.pow)
    w = u
    for c in p.coeffs[1:]:
        if w.pow == 0:
            w = LocalizedElem(nu(w.num), 0)
        else:
            num = nu(w.num) * a - w.num.scale(w.pow) * nu(a)
            w = LocalizedElem.reduced(num, w.pow + 1, a)
        if c:
            acc = add(acc, LocalizedElem(w.num.scale(c), w.pow))
    return acc


_NU_SERIES = {
    text: compose(parse_poly(text, 2), ev_series(2, 1, 4))
    for text in ("x1", "x1^2+x1", "x1*x2+1", "2*x1+x2^2")
}
_NU_SERIES["exact unit 3"] = TruncSeries.exact({0: Poly.const(3)})
_NU_SERIES["exact 2*x1_-1*z^-1"] = TruncSeries.exact({-1: 2 * xvar(1, -1)})

_nu_polys = strat.one_of(
    strat.builds(make_projector, strat.integers(min_value=-2, max_value=3),
                 strat.integers(min_value=0, max_value=3)),
    strat.lists(strat.fractions(min_value=-5, max_value=5, max_denominator=4),
                min_size=1, max_size=6).map(NuPoly),
)


class TestApplyNuPolyLocalizedMatchesStepwise:
    @given(strat.sampled_from(sorted(_NU_SERIES)), _nu_polys)
    def test_inverse_is_structurally_equal(self, name, p):
        # u = 1/a built as approximate_coefficient builds it.
        a = _NU_SERIES[name]
        u = LocalizedElem.reduced(TruncSeries.constant(Poly.const(1)), 1, a)
        out = apply_nu_poly_localized(p, u, a)
        want = _reference_apply_localized(p, u, a)
        assert out.num == want.num and out.pow == want.pow

    @given(strat.sampled_from(sorted(_NU_SERIES)), _nu_polys,
           poly_series(dim=2, level=1, min_floor=-2, max_width=4),
           strat.integers(min_value=0, max_value=2), strat.booleans())
    def test_general_element_is_equal(self, name, p, num, power, exact):
        a = _NU_SERIES[name]
        if exact:
            num = TruncSeries.exact(num.coeffs)
        u = LocalizedElem(num, power)
        out = apply_nu_poly_localized(p, u, a)
        want = _reference_apply_localized(p, u, a)
        # Windows and powers may differ; the elements are equal as fractions.
        assert (out.num * a ** want.pow).agrees_with(want.num * a ** out.pow)
        if exact and power == 0:
            assert out.num.is_exact()


class TestConvergencePlain:
    def test_center_slot_level_one(self):
        rows = convergence_experiment(1, None, 0, range(1, 4), 1, 8)
        assert [(r.n, value(r.order)) for r in rows] == [
            (1, (Fraction(1, 4), False)),
            (2, (Fraction(1, 8), False)),
            (3, (Fraction(1, 16), False)),
        ]
        assert [r.order for r in rows] == [2, 3, 4]

    def test_center_slot_level_zero(self):
        rows = convergence_experiment(1, None, 0, [1], 0, 8)
        assert rows[0].order == 2 and value(rows[0].order)[0] == Fraction(1, 4)

    def test_exact_tail_exponent(self):
        for j in (-2, 0, 2):
            for level in (0, 1, 2):
                rows = convergence_experiment(1, None, j, range(1, 7), level, 9)
                for row in rows:
                    if row.n >= max(level, abs(j)) + 1:
                        assert value(row.order) == (EPS ** (row.n + 1), False)

    def test_monotone(self):
        rows = convergence_experiment(1, None, -1, range(1, 7), 2, 9)
        distances = [value(r.order)[0] for r in rows]
        assert all(a >= b for a, b in zip(distances, distances[1:]))

    def test_insufficient_cap(self):
        with pytest.raises(PrecisionExhaustedError) as info:
            convergence_experiment(1, None, 0, range(1, 9), 1, 6)
        assert info.value.required_cap == 10


class TestConvergenceComplement:
    def test_first_slot(self):
        f = parse_poly("x1", 1)
        rows = convergence_experiment(1, f, 1, range(1, 4), 1, 8)
        assert [(r.n, value(r.order)[0]) for r in rows] == [
            (1, Fraction(1, 4)),
            (2, Fraction(1, 8)),
            (3, Fraction(1, 16)),
        ]

    def test_matches_localized_route(self):
        f = parse_poly("x1", 1)
        rows = convergence_experiment(1, f, 1, [2], 1, 8)
        result = approximate_coefficient(f, 1, 1, 2, 1, 8)
        assert rows[0].order == result.order


class TestApproximateCoefficient:
    def test_band_one(self):
        result = approximate_coefficient(parse_poly("x1", 1), 1, 1, 1, 1, 8)
        assert value(result.order) == (Fraction(1, 4), False)
        assert result.commutes

    def test_band_three(self):
        result = approximate_coefficient(parse_poly("x1", 1), 1, 1, 3, 1, 8)
        assert value(result.order)[0] == Fraction(1, 16)

    def test_unit_hypersurface_is_fixed(self):
        result = approximate_coefficient(parse_poly("1", 1), 1, 0, 2, 1, 8)
        assert result.order == AtLeastCap(INF)
        assert value(result.order) == (Fraction(0), False)
        assert result.element.pow == 0

    def test_element_stays_in_localisation(self):
        result = approximate_coefficient(parse_poly("x1", 1), 1, 1, 2, 1, 8)
        assert isinstance(result.element, LocalizedElem)
        assert result.element.pow <= 2 * 2 + 1

    def test_slot_below_support_rejected(self):
        # The loop level derived from slot -1 is -1: the slot is named.
        with pytest.raises(ValueError, match="^slot -1 lies below the inverse support"):
            approximate_coefficient(parse_poly("x1", 1), 1, -1, 1, 1, 8)


def test_make_projector_refuses_a_negative_band():
    with pytest.raises(ValueError, match="^band width must be >= 0$"):
        make_projector(0, -1)


@pytest.mark.parametrize("f", [None, parse_poly("x1", 1)])
def test_convergence_experiment_without_band_widths_is_empty(f):
    assert convergence_experiment(1, f, 0, [], 1, 4) == []
