import json
import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as strat

from loopalg.cli import main
from loopalg.errors import NonInvertibleLeadingTermError, PrecisionExhaustedError
from loopalg.exactpoly import Poly, const, parse_poly, xvar, yvar
from loopalg.laurent import TruncSeries
from loopalg.localized import LocalizedCoef
from loopalg.loopspace import (
    complement_relations,
    compose,
    ev_series,
    invert_series,
    relations,
)

from .strategies import ambient_polys
from .helpers import substitute_y


def x(i, j):
    return xvar(i, j)


def ladder_compose(f, series_list):
    """compose as it was before powers were built by squaring: each
    coordinate's powers one series product at a time, every rung kept."""
    ladders = {}

    def power(coord, exponent):
        ladder = ladders.setdefault(coord, [None, series_list[coord - 1]])
        while len(ladder) <= exponent:
            ladder.append(ladder[-1] * series_list[coord - 1])
        return ladder[exponent]

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


class TestEvSeries:
    def test_window(self):
        (s,) = ev_series(1, 1, 2)
        assert s.coeffs == {-1: x(1, -1), 0: x(1, 0), 1: x(1, 1)}
        assert s.cap == 2 and s.floor == -1

    def test_two_coordinates_level_zero(self):
        s1, s2 = ev_series(2, 0, 1)
        assert s1.coeffs == {0: x(1, 0)} and s2.coeffs == {0: x(2, 0)}

    def test_empty_window_rejected(self):
        with pytest.raises(PrecisionExhaustedError) as info:
            ev_series(1, 0, 0)
        assert info.value.required_cap == 1


class TestCompose:
    def test_square(self):
        out = compose(parse_poly("x1^2", 1), ev_series(1, 1, 2))
        assert out.cap == 1 and out.floor == -2
        assert out.coeffs == {
            -2: x(1, -1) ** 2,
            -1: 2 * x(1, -1) * x(1, 0),
            0: x(1, 0) ** 2 + 2 * x(1, -1) * x(1, 1),
        }

    def test_constant_is_exact(self):
        out = compose(parse_poly("1", 1), ev_series(1, 1, 2))
        assert out.is_exact() and out.coeffs == {0: Poly.const(1)}

    def test_product_plus_one(self):
        out = compose(parse_poly("x1*x2 + 1", 2), ev_series(2, 1, 2))
        assert out.coeffs == {
            -2: x(1, -1) * x(2, -1),
            -1: x(1, -1) * x(2, 0) + x(1, 0) * x(2, -1),
            0: x(1, -1) * x(2, 1) + x(1, 0) * x(2, 0) + x(1, 1) * x(2, -1) + const(1),
        }
        assert out.cap == 1

    def test_matches_naive_substitution(self):
        # Independent oracle: expand f(x(z)) monomial by monomial with plain
        # dict convolutions, no TruncSeries involved.
        f = parse_poly("x1^2 + 2*x1 - 3", 1)
        level, cap = 1, 3
        window = {j: x(1, j) for j in range(-level, cap)}
        naive = {}

        def accumulate(scale, exps):
            for m, c in exps.items():
                naive[m] = naive.get(m, Poly.zero()) + scale * c

        square = {}
        for a, ca in window.items():
            for b, cb in window.items():
                square[a + b] = square.get(a + b, Poly.zero()) + ca * cb
        accumulate(Fraction(1), square)
        accumulate(Fraction(2), window)
        naive[0] = naive.get(0, Poly.zero()) + const(-3)
        out = compose(f, ev_series(1, level, cap))
        for m in range(out.floor, out.cap):
            assert out.coeffs.get(m, Poly.zero()) == naive.get(m, Poly.zero())

    @settings(deadline=None)
    @given(
        ambient_polys(dim=2, max_degree=6),
        strat.integers(min_value=0, max_value=1),
        strat.integers(min_value=1, max_value=2),
    )
    def test_matches_power_ladder(self, f, level, cap):
        # Exponents up to 6: at 4 and beyond squaring takes fewer products
        # than the ladder, and the windows must still agree.
        series = ev_series(2, level, cap)
        out, expected = compose(f, series), ladder_compose(f, series)
        assert (out.cap, out.floor, out.coeffs) == (expected.cap, expected.floor,
                                                    expected.coeffs)

    def test_huge_exponent_takes_logarithmically_many_products(self, monkeypatch):
        products = []
        mul = TruncSeries.__mul__

        def counted(self, other):
            products.append(1)
            return mul(self, other)

        monkeypatch.setattr(TruncSeries, "__mul__", counted)
        out = compose(parse_poly("x1^1000", 1), ev_series(1, 0, 1))
        assert out.coeffs == {0: x(1, 0) ** 1000}
        assert len(products) <= 2 * math.ceil(math.log2(1000))

    def test_exponents_up_to_three_take_the_ladders_products(self, monkeypatch):
        # x1^3 + 2*x1^2 builds x1^2 once and x1^3 from it, as the ladder did.
        products = []
        mul = TruncSeries.__mul__

        def counted(self, other):
            products.append((self.floor, self.cap, other.floor, other.cap))
            return mul(self, other)

        monkeypatch.setattr(TruncSeries, "__mul__", counted)
        compose(parse_poly("x1^3 + 2*x1^2", 1), ev_series(1, 1, 2))
        assert products == [(-1, 2, -1, 2), (-2, 1, -1, 2)]

    def test_huge_exponent_through_the_cli(self, capsys):
        exponent = "1" * 40
        code = main(["relations", "--f", f"x1^{exponent}", "--d", "1", "--n", "0",
                     "--cap", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert json.loads(out) == [{"exponent": 0, "generator": f"x1_0^{exponent}"}]

    def test_rejects_indexed_input(self):
        with pytest.raises(ValueError):
            compose(x(1, 0), ev_series(1, 1, 2))

    def test_rejects_missing_coordinate(self):
        with pytest.raises(ValueError):
            compose(parse_poly("x2", 2), ev_series(1, 1, 2))


class TestRelations:
    def test_line_through_origin(self):
        rels = relations(parse_poly("x1", 1), 1, 1, 2)
        assert [(r.exponent, r.generator) for r in rels] == [
            (-1, x(1, -1)),
            (0, x(1, 0)),
            (1, x(1, 1)),
        ]

    def test_double_point(self):
        rels = relations(parse_poly("x1^2", 1), 1, 1, 1)
        assert [(r.exponent, r.generator) for r in rels] == [
            (-2, x(1, -1) ** 2),
            (-1, 2 * x(1, -1) * x(1, 0)),
            (0, x(1, 0) ** 2 + 2 * x(1, -1) * x(1, 1)),
        ]

    def test_hyperbola(self):
        rels = relations(parse_poly("x1*x2 - 1", 2), 2, 1, 1)
        assert [(r.exponent, r.generator) for r in rels] == [
            (-2, x(1, -1) * x(2, -1)),
            (-1, x(1, -1) * x(2, 0) + x(1, 0) * x(2, -1)),
            (0, x(1, -1) * x(2, 1) + x(1, 0) * x(2, 0) + x(1, 1) * x(2, -1) - const(1)),
        ]

    def test_constant_emits_its_whole_window(self):
        # The window of a constant f is [-level, cap): the constant at z^0 and
        # a zero relation at every other exponent, none past the cap.
        assert [(r.exponent, r.generator) for r in relations(const(3), 1, 1, 3)] == [
            (-1, Poly.zero()),
            (0, const(3)),
            (1, Poly.zero()),
            (2, Poly.zero()),
        ]
        assert [(r.exponent, r.generator) for r in relations(const(3), 1, 1, 0)] == [
            (-1, Poly.zero()),
        ]

    def test_window_growth_appends(self):
        f = parse_poly("x1^2", 1)
        small = relations(f, 1, 1, 2)
        large = relations(f, 1, 1, 5)
        assert large[: len(small)] == small


class TestComplementRelations:
    def test_coordinate_complement(self):
        rels = complement_relations(parse_poly("x1", 1), 1, 1, 1)
        assert [(r.exponent, r.generator) for r in rels] == [
            (-2, x(1, -1) * yvar(-1)),
            (-1, x(1, 0) * yvar(-1) + x(1, -1) * yvar(0)),
            (0, x(1, 1) * yvar(-1) + x(1, 0) * yvar(0) + x(1, -1) * yvar(1) - const(1)),
        ]

    def test_unit_hypersurface_forces_y_equal_one(self):
        rels = complement_relations(parse_poly("1", 1), 1, 1, 2)
        assert [(r.exponent, r.generator) for r in rels] == [
            (-1, yvar(-1)),
            (0, yvar(0) - const(1)),
            (1, yvar(1)),
        ]

    def test_square_lowest_relation(self):
        rels = complement_relations(parse_poly("x1^2", 1), 1, 1, 1)
        assert rels[0].exponent == -3
        assert rels[0].generator == x(1, -1) ** 2 * yvar(-1)


def _lowest_coefficient(f, level):
    """The z^(-level * deg f) coefficient of f(x(z)), written down directly.

    At level 0 every x_i becomes x{i}_0. Above it only the top-degree part of
    f reaches the lowest exponent, with every x_i at x{i}_-level.
    """
    degree = f.total_degree()
    lead = Poly.zero()
    for mono, coeff in f.terms.items():
        if level and sum(exp for _, exp in mono) < degree:
            continue
        term = const(coeff)
        for ref, exp in mono:
            term = term * x(ref.coord, -level) ** exp
        lead = lead + term
    return lead


class TestInvertLowestTerm:
    """The first line of `invert`: the lowest term of the series it inverts."""

    @pytest.mark.parametrize("level", [0, 1, 2, 3])
    @pytest.mark.parametrize(
        "text", ["x1", "x1^2", "x1*x2 + 1", "x1*x2 - 1", "x1 + x2", "x1 - 1", "3"]
    )
    def test_first_line(self, capsys, text, level):
        f = parse_poly(text, 2)
        argv = ["invert", "--f", text, "--d", "2", "--n", str(level), "--cap", "1"]
        assert main(argv) == 0
        first = capsys.readouterr().out.splitlines()[0]
        exponent, lead = re.fullmatch(r"f_min: exponent (-?\d+), lead (.*)", first).groups()
        assert int(exponent) == -level * f.total_degree()
        assert lead == str(_lowest_coefficient(f, level))


class TestInvert:
    def test_coordinate_inverse(self):
        s = compose(parse_poly("x1", 1), ev_series(1, 1, 2))
        t = invert_series(s, 1)
        lead = x(1, -1)
        assert t.cap == 4 and t.floor == 1
        assert t.coeffs[1] == LocalizedCoef(Poly.const(1), 1, lead)
        assert t.coeffs[2] == LocalizedCoef(-x(1, 0), 2, lead)
        assert t.coeffs[3] == LocalizedCoef(
            x(1, 0) ** 2 - x(1, -1) * x(1, 1), 3, lead
        )

    def test_one(self):
        t = invert_series(TruncSeries.constant(Poly.const(1)), 1)
        assert t.is_exact() and t.coeffs[0] == 1

    def test_monomial(self):
        s = TruncSeries.exact({3: const(2)})
        t = invert_series(s, 0)
        assert t.is_exact() and t.coeffs == {-3: LocalizedCoef(Poly.const(1), 1, const(2))}
        assert t.coeffs[-3] == Fraction(1, 2)

    def test_zero_window_rejected(self):
        with pytest.raises(NonInvertibleLeadingTermError):
            invert_series(TruncSeries.zero(), 1)

    def test_exact_multi_term_rejected(self):
        s = TruncSeries.exact({0: const(1), 1: x(1, 0)})
        with pytest.raises(PrecisionExhaustedError):
            invert_series(s, 1)

    def test_dead_leading_term_rejected(self):
        s = TruncSeries({-2: x(1, -2)}, 2, floor=-2)
        with pytest.raises(NonInvertibleLeadingTermError):
            invert_series(s, 1)

    @given(
        strat.sampled_from(["x1", "x1^2", "x1*x2 + 1", "2*x1 + x2^2"]),
        strat.integers(min_value=1, max_value=2),
        strat.integers(min_value=3, max_value=6),
    )
    def test_roundtrip(self, text, level, cap):
        f = parse_poly(text, 2)
        s = compose(f, ev_series(2, level, cap))
        t = invert_series(s, level)
        product = s * t
        assert product.cap > 0
        for m, c in product.coeffs.items():
            assert c == 1 if m == 0 else not c
        assert product.coeffs[0] == 1


class TestFactoringWitness:
    @given(
        strat.sampled_from(["x1", "x1^2", "x1*x2 + 1"]),
        strat.integers(min_value=1, max_value=2),
    )
    def test_substitution_annihilates_generators(self, text, level):
        f = parse_poly(text, 2)
        s = compose(f, ev_series(2, level, 6))
        t = invert_series(s, level)
        lead = s.coeffs[min(s.coeffs)]
        window = (s.cap - min(s.coeffs)) - f.total_degree() * level
        for relation in complement_relations(f, 2, level, window):
            assert not substitute_y(relation.generator, t, lead)

    def test_unknown_coefficient_raises(self):
        f = parse_poly("x1", 1)
        s = compose(f, ev_series(1, 1, 3))
        t = invert_series(s, 1)
        generator = yvar(t.cap) * x(1, -1)
        with pytest.raises(PrecisionExhaustedError):
            substitute_y(generator, t, s.coeffs[-1])
