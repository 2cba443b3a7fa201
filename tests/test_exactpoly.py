import sys
from fractions import Fraction

import pytest
from hypothesis import given
import hypothesis.strategies as strat

from loopalg.errors import (
    DimensionMismatchError,
    PolyParseError,
    UnknownVariableError,
)
from loopalg.exactpoly import (
    AMBIENT,
    Poly,
    VarRef,
    _mono_degree,
    _mono_div,
    _mono_key,
    _mono_mul,
    const,
    div_exact,
    parse_poly,
    sum_of_products,
    xvar,
    yvar,
)

from .strategies import ambient_polys, polys


class TestArithmetic:
    def test_add_cancels(self):
        assert (xvar(1, -1) + const(2)) + (-xvar(1, -1)) == const(2)

    def test_add_identity(self):
        p = xvar(1, 0) * xvar(1, 1) + const(3)
        assert p + Poly.zero() == p

    def test_add_doubles(self):
        p = xvar(1, 0) * xvar(1, 1)
        assert p + p == 2 * p

    def test_mul_square(self):
        assert xvar(1, -1) * xvar(1, -1) == xvar(1, -1) ** 2

    def test_mul_identity(self):
        p = xvar(1, -1) + 5 * xvar(2, 3)
        assert p * const(1) == p

    def test_difference_of_squares(self):
        lhs = (xvar(1, -1) + xvar(1, 0)) * (xvar(1, -1) - xvar(1, 0))
        assert lhs == xvar(1, -1) ** 2 - xvar(1, 0) ** 2

    def test_rational_coefficients_stay_exact(self):
        p = Fraction(1, 3) * xvar(1, 0)
        assert p + p + p == xvar(1, 0)


class TestPow:
    def test_negative_exponent_is_refused(self):
        with pytest.raises(ValueError, match="negative powers are not defined here"):
            xvar(1, 0) ** -1

    def test_zero_exponent_is_one(self):
        assert (xvar(1, 0) + const(2)) ** 0 == Poly.const(1)
        assert Poly.zero() ** 0 == Poly.const(1)

    @pytest.mark.parametrize("k", range(1, 65))
    def test_products_are_the_binary_method_count(self, monkeypatch, k):
        # bit_length(k) - 1 squarings and popcount(k) - 1 multiplications by
        # the base; repeated multiplication would take k - 1 from k = 4 on.
        products = []
        mul = Poly.__mul__

        def counted(self, other):
            products.append(1)
            return mul(self, other)

        monkeypatch.setattr(Poly, "__mul__", counted)
        power = (xvar(1, 0) + const(1)) ** k
        assert len(products) == k.bit_length() + bin(k).count("1") - 2
        assert power.terms[((VarRef("x", 1, 0), 1),)] == k
        assert len(power.terms) == k + 1


class TestProject:
    def test_kills_deep_variable(self):
        p = xvar(1, -2) * xvar(1, 0) + xvar(1, 1)
        assert p.project(1) == xvar(1, 1)

    def test_keeps_everything(self):
        p = xvar(1, -2) * xvar(1, 0) + xvar(1, 1)
        assert p.project(5) == p

    def test_kills_inverse_family(self):
        assert yvar(-1) * xvar(1, 0) == (yvar(-1) * xvar(1, 0)).project(1)
        assert (yvar(-1) * xvar(1, 0)).project(0) == Poly.zero()

    @given(polys(include_y=True), polys(include_y=True),
           strat.integers(min_value=0, max_value=4))
    def test_projection_is_ring_homomorphism(self, p, q, n):
        assert (p + q).project(n) == p.project(n) + q.project(n)
        assert (p * q).project(n) == p.project(n) * q.project(n)

    @given(polys(include_y=True), strat.integers(min_value=0, max_value=4),
           strat.integers(min_value=0, max_value=4))
    def test_projection_tower_compatibility(self, p, n, m):
        assert p.project(n).project(m) == p.project(min(n, m))


class TestRingLaws:
    @given(polys(), polys(), polys())
    def test_associative(self, p, q, r):
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)

    @given(polys(), polys())
    def test_commutative(self, p, q):
        assert p + q == q + p
        assert p * q == q * p

    @given(polys(), polys(), polys())
    def test_distributive(self, p, q, r):
        assert p * (q + r) == p * q + p * r


class TestParse:
    def test_product_plus_one(self):
        assert parse_poly("x1*x2 + 1", 2) == xvar(1) * xvar(2) + const(1)

    def test_power(self):
        assert parse_poly("x1^2", 1) == xvar(1) ** 2

    def test_out_of_range_variable(self):
        with pytest.raises(UnknownVariableError):
            parse_poly("x3", 2)

    def test_unknown_identifier(self):
        with pytest.raises(UnknownVariableError):
            parse_poly("y1", 2)

    def test_syntax_error_carries_position(self):
        with pytest.raises(PolyParseError) as info:
            parse_poly("x1 + * 2", 1)
        assert info.value.position == 5

    def test_dangling_operator(self):
        with pytest.raises(PolyParseError):
            parse_poly("x1 +", 1)

    def test_zero_exponent_rejected(self):
        with pytest.raises(PolyParseError):
            parse_poly("x1^0", 1)

    def test_bad_dimension(self):
        with pytest.raises(DimensionMismatchError):
            parse_poly("x1", 0)

    def test_parentheses_and_unary_minus(self):
        assert parse_poly("-x1 + 5", 1) == const(5) - xvar(1)
        assert parse_poly("(x1 + 1)^2", 1) == xvar(1) ** 2 + 2 * xvar(1) + const(1)

    def test_whitespace_insignificant(self):
        assert parse_poly(" x1 * x2+1 ", 2) == parse_poly("x1*x2 + 1", 2)

    def test_zero_literal(self):
        assert parse_poly("0", 1) == Poly.zero()

    def test_nesting_depth_is_bounded(self):
        assert parse_poly("(" * 100 + "x1" + ")" * 100, 1) == xvar(1)
        for depth in (101, 1000):
            with pytest.raises(PolyParseError) as info:
                parse_poly("(" * depth + "x1" + ")" * depth, 1)
            assert info.value.position == 100

    @pytest.mark.parametrize("text, position, char", [
        ("²", 0, "²"),  # str.isdigit holds, int refuses it
        ("x1^²", 3, "²"),
        ("x1+٣", 3, "٣"),  # int reads it as 3
        ("x١", 1, "١"),  # an identifier x plus an Arabic-Indic digit one
        ("é", 0, "é"),
    ])
    def test_only_ascii_is_read(self, text, position, char):
        with pytest.raises(PolyParseError) as info:
            parse_poly(text, 1)
        assert type(info.value) is PolyParseError
        assert info.value.position == position
        assert str(info.value) == f"unexpected character {char!r} (at position {position})"

    def test_integers_past_the_digit_limit(self):
        # An exponent and a coordinate are read like a literal: `int` refuses
        # strings over the interpreter's 4300-digit limit.
        digits = "1" * 5000
        assert parse_poly(f"x1^{digits}", 1) == xvar(1) ** ((10 ** 5000 - 1) // 9)
        with pytest.raises(UnknownVariableError) as info:
            parse_poly(f"x{digits}", 1)
        assert info.value.position == 0
        assert str(info.value) == (
            f"unknown variable 'x{digits}' (expected x1..x1) (at position 0)"
        )

    @given(ambient_polys())
    def test_print_parse_roundtrip(self, p):
        assert parse_poly(str(p), 2) == p


class TestPrinting:
    def test_indexed_variables(self):
        p = xvar(1, -1) ** 2
        assert str(p) == "x1_-1^2"

    def test_canonical_order_is_stable(self):
        p = const(1) + xvar(1) * xvar(2)
        assert str(p) == "x1*x2 + 1"

    def test_zero(self):
        assert str(Poly.zero()) == "0"

    def test_negative_leading_term(self):
        assert str(-xvar(1) + const(5)) == "-x1 + 5"

    def test_exponent_past_the_digit_limit(self):
        # str() refuses the exponent; the factor text must not.
        repunit = (10 ** 5000 - 1) // 9
        assert str(xvar(1, 0) ** repunit) == "x1_0^" + "1" * 5000

    def test_degree_ties_across_families_and_indices(self):
        # Expected text printed by the comparator-sorted implementation.
        p = xvar(1, -1) * yvar(0) + xvar(1, 0) ** 2 + xvar(1, -1) * xvar(2, 1)
        assert str(p) == "x1_-1*x2_1 + x1_-1*y_0 + x1_0^2"
        q = (p + 3 * xvar(2) * xvar(1, 2) - yvar(-1) ** 2 + xvar(2, -1) * yvar(0)
             + xvar(1) + 2 * yvar(1) - 1)
        assert str(q) == (
            "x1_-1*x2_1 + x1_-1*y_0 + x1_0^2 + 3*x1_2*x2 + x2_-1*y_0 - y_-1^2"
            " + x1 + 2*y_1 - 1"
        )
        # Ties decided by a larger exponent, and by an ambient x1 (after every
        # indexed x1 in VarRef order, before any x2).
        r = (p + xvar(1, 0) * xvar(2, 1) - xvar(1, -1) ** 2 + xvar(2, 1) ** 2
             + xvar(1) * xvar(2))
        assert str(r) == (
            "-x1_-1^2 + x1_-1*x2_1 + x1_-1*y_0 + x1_0^2 + x1_0*x2_1 + x1*x2 + x2_1^2"
        )


def _reference_key(mono):
    """The term-order key before the per-factor table: built per monomial."""
    return (-sum(exp for _, exp in mono), tuple((ref, -exp) for ref, exp in mono))


def _reference_render(mono):
    return "*".join(
        ref.render() if exp == 1 else f"{ref.render()}^{exp}" for ref, exp in mono
    )


def _reference_str(poly):
    """The printer before the per-factor text table, kept as the reference."""
    if not poly.terms:
        return "0"
    parts = []
    ordered = sorted(poly.terms.items(), key=lambda kv: _reference_key(kv[0]))
    for i, (mono, coeff) in enumerate(ordered):
        sign = "-" if coeff < 0 else "+"
        mag = -coeff if coeff < 0 else coeff
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = _reference_render(mono)
        else:
            body = f"{mag}*{_reference_render(mono)}"
        if i == 0:
            parts.append(body if sign == "+" else f"-{body}")
        else:
            parts.append(f" {sign} {body}")
    return "".join(parts)


# Indexed x (negative indices included), ambient x and y, exponents up to 4;
# coefficients include +-1, ints and Fractions, and the constant monomial
# (an empty factor set) occurs.
_print_refs = strat.one_of(
    strat.builds(VarRef, strat.just("x"), strat.integers(1, 3),
                 strat.one_of(strat.integers(-3, 3), strat.just(AMBIENT))),
    strat.builds(VarRef, strat.just("y"), strat.just(0), strat.integers(-3, 3)),
)
_print_monos = strat.dictionaries(_print_refs, strat.integers(1, 4), max_size=3).map(
    lambda exps: tuple(sorted(exps.items()))
)
_print_coeffs = strat.one_of(
    strat.sampled_from([1, -1]),
    strat.integers(-1000, 1000),
    strat.fractions(min_value=-50, max_value=50, max_denominator=12),
)
_print_polys = strat.dictionaries(_print_monos, _print_coeffs, max_size=8).map(Poly)


class TestPrintingMatchesReference:
    @given(_print_polys)
    def test_str(self, p):
        assert str(p) == _reference_str(p)

    @given(_print_monos)
    def test_key(self, mono):
        assert _mono_key(mono) == _reference_key(mono)

    def test_coefficients_past_the_digit_limit(self):
        # str() refuses ints over the interpreter's digit limit; the printer
        # must not. The limit is lifted only to write the expected text.
        big = 99999 ** 1000
        get_limit = getattr(sys, "get_int_max_str_digits", None)
        limit = get_limit() if get_limit else 0
        try:
            if limit:
                sys.set_int_max_str_digits(0)
            expected = [str(big), str(big * 7 + 2)]
        finally:
            if limit:
                sys.set_int_max_str_digits(limit)
        x = xvar(1, 0)
        assert str(big * x - 3) == f"{expected[0]}*x1_0 - 3"
        assert str(-big * x) == f"-{expected[0]}*x1_0"
        # Both Fractions are in lowest terms: big is odd, big * 7 + 2 is odd
        # and prime to big.
        assert str(Fraction(2, big) * x + Fraction(big * 7 + 2, 2)) == (
            f"2/{expected[0]}*x1_0 + {expected[1]}/2"
        )
        assert str(Fraction(-big, big * 7 + 2) * x) == (
            f"-{expected[0]}/{expected[1]}*x1_0"
        )
        # Split at a power of ten, a lower half with leading zeros keeps them.
        text = "1" + "0" * 8999 + "7"
        assert str(const(10 ** 9000 + 7)) == text
        # The parser reads such a literal back.
        assert parse_poly(f"{text}*x1 - {text}", 1) == (10 ** 9000 + 7) * (xvar(1) - 1)


def _reference_mono_cmp(m1, m2):
    """The graded lex comparator the sort key replaced: total degree first,
    then the first variable (in VarRef order) whose exponents differ, the
    larger exponent winning."""
    d1, d2 = _mono_degree(m1), _mono_degree(m2)
    if d1 != d2:
        return -1 if d1 < d2 else 1
    e1, e2 = dict(m1), dict(m2)
    for ref in sorted(set(e1) | set(e2)):
        a, b = e1.get(ref, 0), e2.get(ref, 0)
        if a != b:
            return 1 if a > b else -1
    return 0


# Monomials of a product over few indexed x and y variables and ambient x:
# many share a degree, and the constant monomial occurs too.
_few = polys(min_index=-1, max_index=0, include_y=True)
mono_sets = (
    strat.tuples(_few, _few, ambient_polys())
    .map(lambda pqr: list((pqr[0] * pqr[1] * pqr[2]).terms))
    .filter(bool)
)
monos = mono_sets.flatmap(strat.sampled_from)


class TestTermOrder:
    @given(mono_sets)
    def test_key_matches_reference_comparator(self, mono_list):
        # Ascending key order is largest monomial first.
        for m1 in mono_list:
            for m2 in mono_list:
                k1, k2 = _mono_key(m1), _mono_key(m2)
                assert _reference_mono_cmp(m1, m2) == (k1 < k2) - (k1 > k2)

    @given(monos, monos, monos)
    def test_compatible_with_multiplication(self, m1, m2, m3):
        if _mono_key(m1) < _mono_key(m2):
            assert _mono_key(_mono_mul(m1, m3)) < _mono_key(_mono_mul(m2, m3))


class TestDivExact:
    @given(polys(), polys().filter(bool))
    def test_recovers_factor(self, p, q):
        assert div_exact(p * q, q) == p

    def test_indivisible(self):
        assert div_exact(xvar(1, 0), xvar(1, -1)) is None
        assert div_exact(xvar(1, 0) + const(1), xvar(1, 0)) is None

    def test_constant_divisor(self):
        assert div_exact(xvar(1, 0), const(2)) == Fraction(1, 2) * xvar(1, 0)


def _reference_terms(out):
    return {mono: Fraction(c) for mono, c in out.items() if Fraction(c)}


def _reference_add(p, q):
    """The Fraction-only sum the integer fast path replaced."""
    out = dict(p.terms)
    for mono, coeff in q.terms.items():
        out[mono] = out.get(mono, Fraction(0)) + coeff
    return _reference_terms(out)


def _reference_mul(p, q):
    """The Fraction-only product the integer fast path replaced."""
    out = {}
    for m1, c1 in p.terms.items():
        for m2, c2 in q.terms.items():
            mono = _mono_mul(m1, m2)
            out[mono] = out.get(mono, Fraction(0)) + Fraction(c1) * c2
    return _reference_terms(out)


def _reference_div_exact(num, den):
    """The Fraction-only long division the heap replaced: every step
    rescans the whole remainder for its leading term."""
    den_mono = min(den.terms, key=_mono_key)
    den_coeff = Fraction(den.terms[den_mono])
    quotient = {}
    rem = {mono: Fraction(c) for mono, c in num.terms.items()}
    while rem:
        mono = min(rem, key=_mono_key)
        q_mono = _mono_div(mono, den_mono)
        if q_mono is None:
            return None
        q_coeff = rem[mono] / den_coeff
        quotient[q_mono] = quotient.get(q_mono, Fraction(0)) + q_coeff
        for m2, c2 in den.terms.items():
            m = _mono_mul(q_mono, m2)
            new = rem.get(m, Fraction(0)) - q_coeff * c2
            if new:
                rem[m] = new
            else:
                rem.pop(m, None)
    return _reference_terms(quotient)


def _assert_exact(poly):
    """Every stored coefficient is a nonzero int, or a Fraction that is not
    integral; never a float, a bool or an integral Fraction."""
    for coeff in poly.terms.values():
        assert type(coeff) in (int, Fraction), coeff
        assert coeff != 0
        assert type(coeff) is int or coeff.denominator != 1, coeff


# Few variables and small exponents, so sums and products share monomials
# and cancel often. Coefficients mix ints, integral Fractions and proper
# Fractions, zero included (the constructor must drop it).
_pool = [VarRef("x", 1, -1), VarRef("x", 1, 0), VarRef("x", 2, 0), VarRef("y", 0, 0)]
_mixed_coeffs = strat.one_of(
    strat.integers(min_value=-4, max_value=4),
    strat.integers(min_value=-4, max_value=4).map(Fraction),
    strat.fractions(min_value=-4, max_value=4, max_denominator=3),
)
_pool_monos = strat.dictionaries(
    strat.sampled_from(_pool), strat.integers(min_value=1, max_value=2), max_size=2
).map(lambda exps: tuple(sorted(exps.items())))
_term_dicts = strat.dictionaries(_pool_monos, _mixed_coeffs, max_size=4)
mixed_polys = _term_dicts.map(Poly)
divisors = mixed_polys.filter(lambda q: len(q.terms) >= 2)


class TestKernelMatchesReference:
    @given(_term_dicts)
    def test_constructor_normalises(self, terms):
        p = Poly(terms)
        _assert_exact(p)
        assert p.terms == _reference_terms(terms)

    @given(mixed_polys, mixed_polys, strat.data())
    def test_add(self, p, q, data):
        # Part of q cancels part of p exactly.
        cancel = data.draw(strat.sets(strat.sampled_from(list(p.terms) or [()])))
        q = q + Poly({m: -p.terms[m] for m in cancel if m in p.terms})
        for total, expected in ((p + q, _reference_add(p, q)),
                                (p - p, {}),
                                (-p, _reference_terms({m: -c for m, c in p.terms.items()}))):
            _assert_exact(total)
            assert total.terms == expected

    @given(mixed_polys, mixed_polys, _mixed_coeffs)
    def test_mul(self, p, q, scalar):
        _assert_exact(p * q)
        assert (p * q).terms == _reference_mul(p, q)
        _assert_exact(p * scalar)
        assert (p * scalar).terms == _reference_mul(p, Poly.const(scalar))

    @given(strat.lists(strat.tuples(mixed_polys, mixed_polys), max_size=3), strat.data())
    def test_sum_of_products(self, pairs, data):
        # 0-4 pairs; the fourth, when drawn, cancels one of the others.
        if pairs and data.draw(strat.booleans()):
            p, q = data.draw(strat.sampled_from(pairs))
            pairs.append((-p, q))
        expected = {}
        for p, q in pairs:
            for mono, coeff in _reference_mul(p, q).items():
                expected[mono] = expected.get(mono, Fraction(0)) + coeff
        total = sum_of_products(pairs)
        _assert_exact(total)
        assert total.terms == _reference_terms(expected)

    @given(mixed_polys, divisors)
    def test_div_exact_multiple(self, p, q):
        quotient = div_exact(p * q, q)
        _assert_exact(quotient)
        assert quotient.terms == _reference_div_exact(p * q, q) == p.terms

    @given(mixed_polys, mixed_polys.filter(bool), mixed_polys)
    def test_div_exact_any(self, p, q, r):
        # A monomial and a general divisor, an exact multiple or not.
        num = p * q + r
        quotient, expected = div_exact(num, q), _reference_div_exact(num, q)
        if quotient is None:
            assert expected is None
        else:
            _assert_exact(quotient)
            assert quotient.terms == expected

    @given(mixed_polys, divisors, _mixed_coeffs.filter(bool))
    def test_div_exact_indivisible(self, p, q, c):
        # A multi-term divisor only divides multiples of itself, and
        # y_9 occurs nowhere else.
        num = p * q + c * yvar(9)
        assert div_exact(num, q) is None
        assert _reference_div_exact(num, q) is None

    def test_quotient_is_a_fraction(self):
        half = div_exact(3 * xvar(1, 0), const(2))
        (coeff,) = half.terms.values()
        assert type(coeff) is Fraction and coeff == Fraction(3, 2)
        assert str(half) == "3/2*x1_0"
        third = div_exact(xvar(1, 0) + 2 * xvar(1, -1), const(3))
        assert third.terms == {
            ((VarRef("x", 1, 0), 1),): Fraction(1, 3),
            ((VarRef("x", 1, -1), 1),): Fraction(2, 3),
        }
        _assert_exact(div_exact(6 * xvar(1, 0), const(3)))


class TestExactQuotients:
    """Quotients of int coefficients stay ints where they divide and are
    proper Fractions where they do not, on both paths of div_exact."""

    @pytest.mark.parametrize("num, den, expected", [
        (-6, -2, 3), (6, -3, -2), (-3, 2, Fraction(-3, 2)), (7, 3, Fraction(7, 3)),
    ])
    def test_coefficient_quotient(self, num, den, expected):
        x, y = xvar(1, 0), xvar(2, 0)
        # A constant and a monomial divisor, then a two-term one, den*(x + y).
        for dividend, divisor in ((const(num), const(den)), (num * x * y, den * y),
                                  (num * x * (x + y), den * (x + y))):
            (coeff,) = div_exact(dividend, divisor).terms.values()
            assert coeff == expected and type(coeff) is type(expected)

    @pytest.mark.parametrize("lead", [1, -1, 2, -2, 3])
    @pytest.mark.parametrize("tail", [0, 1, -2])
    def test_both_paths(self, lead, tail):
        # tail 0 is a monomial divisor; otherwise the divisor has two terms.
        x, y = xvar(1, 0), xvar(2, 0)
        den = lead * x + tail * y
        quotient = 6 * x ** 2 - 3 * x * y + Fraction(7, 3) * y + const(-4)
        out = div_exact(quotient * den, den)
        _assert_exact(out)
        assert out.terms == quotient.terms
        assert div_exact(quotient * den + yvar(9), den) is None


def test_ambient_flag():
    assert parse_poly("x1*x2", 2).is_ambient()
    assert not xvar(1, 3).is_ambient()
    assert not yvar(0).is_ambient()
    assert xvar(1).variables() == {("x", 1, AMBIENT)}


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: xvar(1, 0).project(-1), ValueError, "projection level must be >= 0"),
        (lambda: div_exact(xvar(1, 0), Poly.zero()), ZeroDivisionError,
         "division by the zero polynomial"),
        (lambda: xvar(0), ValueError, "coordinate index is 1-based"),
    ],
)
def test_refusals(call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call()
