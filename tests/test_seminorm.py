import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as strat

from loopalg.errors import PrecisionExhaustedError
from loopalg.exactpoly import xvar
from loopalg.laurent import INF, AtLeastCap, TruncSeries
from loopalg import cli, loopspace
from loopalg import seminorm as seminorm_module
from loopalg.sampling import random_series
from loopalg.seminorm import (
    CheckReport,
    check_good,
    check_isometry,
    check_ultrametric,
    order_exponent,
    seminorm_order,
)

from .helpers import value
from .strategies import ambient_polys, poly_series

EPS = Fraction(1, 2)


def norm(series, level, epsilon=EPS):
    """The semi-norm as the CLI prints it: (eps^order, is_upper_bound)."""
    return value(seminorm_order(series, level), epsilon)


class TestSemiNorm:
    def test_projection_changes_order(self):
        s = TruncSeries({-2: xvar(1, -2), 0: xvar(1, 0)}, cap=1, floor=-2)
        assert (seminorm_order(s, 1), seminorm_order(s, 2)) == (0, -2)
        assert norm(s, 1) == (Fraction(1), False)
        assert norm(s, 2) == (Fraction(4), False)

    def test_zero_series(self):
        assert seminorm_order(TruncSeries.zero(), 3) == AtLeastCap(INF)
        assert norm(TruncSeries.zero(), 3) == (Fraction(0), False)

    def test_killed_window_is_upper_bound(self):
        s = TruncSeries({-3: xvar(1, -3)}, cap=-1, floor=-3)
        assert seminorm_order(s, 0) == AtLeastCap(-1)
        assert norm(s, 0) == (EPS ** -1, True)

    def test_params_validated(self):
        # eps is checked where the CLI reads it, the level where an order is.
        with pytest.raises(ValueError, match="strictly between 0 and 1"):
            cli._epsilon("epsilon", "3/2")
        with pytest.raises(ValueError, match="^level must be >= 0$"):
            seminorm_order(TruncSeries.zero(), -1)


class TestCheckGood:
    def test_coordinate_series_is_good(self):
        s = loopspace.ev_series(1, 2, 4)[0]
        report = check_good(s, [0, 1, 2], 3)
        assert report.passed
        for n in (0, 1, 2):
            assert norm(s, n) == (EPS ** (-n), False)

    def test_square_is_good(self):
        f = xvar(1) ** 2
        s = loopspace.compose(f, loopspace.ev_series(1, 2, 4))
        assert check_good(s, [0, 1, 2], 3).passed

    def test_zero_fails_everywhere(self):
        report = check_good(TruncSeries.zero(), [0, 1, 2], 3)
        assert not report.passed
        assert all(not record["pass"] for record in report.records)

    def test_record_shape(self):
        s = loopspace.ev_series(1, 1, 3)[0]
        report = check_good(s, [1], 2)
        record = report.records[0]
        assert set(record) == {
            "level",
            "power",
            "lhs_exponent",
            "rhs_exponent",
            "pass",
            "upper_bound_involved",
        }
        assert report.to_jsonable()["suite"] == "good"

    def test_no_level_is_an_error(self):
        s = loopspace.ev_series(1, 1, 3)[0]
        with pytest.raises(ValueError, match="at least one level"):
            check_good(s, [], 3)


def _reference_check_good(series, levels, max_power):
    """`check_good` as it was before it read the lowest surviving term: it
    projected every coefficient, raised the floor to the lowest survivor and
    powered bottom slices of doubling width until an order appeared."""

    def tighten_floor(s):
        if not s.coeffs:
            return TruncSeries({}, s.cap, 0 if s.is_exact() else s.cap)
        return TruncSeries(s.coeffs, s.cap, min(s.coeffs))

    def slice_below(s, cap):
        if not s.is_exact() and cap >= s.cap:
            return s
        if s.is_exact() and (not s.coeffs or cap > max(s.coeffs)):
            return s
        return TruncSeries({m: c for m, c in s.coeffs.items() if m < cap}, cap, s.floor)

    def power_order(projected, k):
        if not projected.coeffs:
            return AtLeastCap(projected.cap + (k - 1) * projected.floor)
        width = 1
        while True:
            part = slice_below(projected, projected.floor + width)
            order = (part ** k).z_order()
            if not isinstance(order, AtLeastCap) or part.cap == projected.cap:
                return order
            width *= 2

    def exponent(order):
        if isinstance(order, AtLeastCap):
            # The exact zero's exponent is printed as None.
            return None if order.cap == INF else order.cap
        return order

    records = []
    for level in sorted(levels):
        projected = tighten_floor(series.map_coefficients(lambda c: c.project(level)))
        base = projected.z_order()
        base_ok = not isinstance(base, AtLeastCap)
        for k in range(1, max_power + 1):
            lhs = base if k == 1 else power_order(projected, k)
            records.append(
                {
                    "level": level,
                    "power": k,
                    "lhs_exponent": exponent(lhs),
                    "rhs_exponent": k * base if base_ok else None,
                    "pass": base_ok and not isinstance(lhs, AtLeastCap) and lhs == k * base,
                    "upper_bound_involved": isinstance(lhs, AtLeastCap) or not base_ok,
                }
            )
    return all(r["pass"] for r in records), tuple(records)


def _check_good_inputs():
    """Random, composite, exact, zero and dead-below-level-4 series."""
    sampled = strat.builds(
        lambda seed, floor, width: random_series(random.Random(seed), 2, 4, floor, floor + width),
        strat.integers(min_value=0, max_value=2**32),
        strat.integers(min_value=-4, max_value=1),
        strat.integers(min_value=1, max_value=6),
    )
    composite = strat.builds(
        lambda f, level, cap: loopspace.compose(f, loopspace.ev_series(2, level, cap)),
        ambient_polys(dim=2, max_degree=3),
        strat.integers(min_value=0, max_value=2),
        strat.integers(min_value=1, max_value=3),
    )
    exact = poly_series(dim=2, level=4).map(lambda s: TruncSeries.exact(s.coeffs))
    # Every coefficient a multiple of x1_-4: nothing survives below level 4.
    dead = strat.builds(
        lambda s, is_exact: TruncSeries(
            {m: c * xvar(1, -4) for m, c in s.coeffs.items()},
            INF if is_exact else s.cap,
            s.floor,
        ),
        poly_series(dim=2, level=4),
        strat.booleans(),
    )
    return strat.one_of(sampled, composite, exact, dead, strat.just(TruncSeries.zero()))


class TestCheckGoodMatchesReference:
    @settings(max_examples=300)
    @given(
        _check_good_inputs(),
        strat.lists(strat.integers(min_value=0, max_value=4), min_size=1, max_size=5),
        strat.integers(min_value=1, max_value=4),
    )
    def test_same_verdict_and_records(self, series, levels, max_power):
        report = check_good(series, levels, max_power)
        assert (report.passed, report.records) == _reference_check_good(
            series, levels, max_power
        )


class TestCheckIsometry:
    def test_single_series(self):
        a = TruncSeries({-1: xvar(1, -1)}, cap=2, floor=-1)
        report = check_isometry([(a, a)], [1])
        assert report.passed
        assert report.records[0]["lhs_exponent"] == -1

    def test_zero_pair(self):
        assert check_isometry([(TruncSeries.zero(), TruncSeries.zero())], [0, 1]).passed

    def test_mismatch_detected(self):
        a = TruncSeries({-1: xvar(1, -1)}, cap=2, floor=-1)
        b = TruncSeries({0: xvar(1, -1)}, cap=3, floor=0)  # z * a
        assert not check_isometry([(a, b)], [1]).passed

    @given(poly_series(level=4))
    def test_inclusion_is_isometric(self, series):
        report = check_isometry([(series, series)], range(5))
        assert report.passed

    def test_no_sample_or_level_is_an_error(self):
        a = TruncSeries({-1: xvar(1, -1)}, cap=2, floor=-1)
        with pytest.raises(ValueError, match="at least one sample"):
            check_isometry([], [0, 1])
        with pytest.raises(ValueError, match="at least one level"):
            check_isometry([(a, a)], [])


class TestUltrametricProperties:
    # |u| <= |v| is ord u >= ord v, as eps < 1; a left side that is only a
    # bound may have any order above its cap, so it never contradicts.

    @given(poly_series(), poly_series(), strat.integers(min_value=0, max_value=3))
    def test_ultrametric_inequality(self, s, t, level):
        lhs = seminorm_order(s + t, level)
        if not isinstance(lhs, AtLeastCap):
            assert lhs >= min(order_exponent(seminorm_order(u, level)) for u in (s, t))

    @given(poly_series(), poly_series(), strat.integers(min_value=0, max_value=3))
    def test_submultiplicative(self, s, t, level):
        try:
            lhs = seminorm_order(s * t, level)
        except PrecisionExhaustedError:
            return
        if not isinstance(lhs, AtLeastCap):
            assert lhs >= sum(order_exponent(seminorm_order(u, level)) for u in (s, t))

    def test_check_ultrametric_report(self):
        s = TruncSeries({0: xvar(1, 0)}, cap=3, floor=0)
        t = TruncSeries({1: xvar(1, 1)}, cap=3, floor=0)
        report = check_ultrametric([(s, t)], [0, 1])
        assert report.passed and isinstance(report, CheckReport)

    @pytest.mark.parametrize("failing, rhs_exponent", [
        ("ultrametric_pass", 1),  # max(|s|, |t|) = eps^min(1, 1)
        ("submultiplicative_pass", 2),  # |s| * |t| = eps^(1 + 1)
    ])
    def test_verdict_reads_both_inequalities(self, monkeypatch, failing, rhs_exponent):
        # ord s = ord t = 1 at every level, so the two right-hand sides differ;
        # _norm_at_most is made to fail on one of them only.
        s = TruncSeries({1: xvar(1, 0)}, cap=3, floor=0)
        monkeypatch.setattr(seminorm_module, "_norm_at_most",
                            lambda order, exponent: exponent != rhs_exponent)
        report = check_ultrametric([(s, s)], [0, 1])
        assert [r[failing] for r in report.records] == [False, False]
        assert not report.passed

    def test_check_ultrametric_needs_a_sample_and_a_level(self):
        s = TruncSeries({0: xvar(1, 0)}, cap=3, floor=0)
        with pytest.raises(ValueError, match="at least one sample"):
            check_ultrametric([], [0, 1])
        with pytest.raises(ValueError, match="at least one level"):
            check_ultrametric([(s, s)], [])


def test_suites_refuse_a_negative_level():
    # A level below 0 is refused before any order is read, also when no
    # coefficient is left to project.
    for s in (TruncSeries({0: xvar(1, 0)}, cap=3, floor=0), TruncSeries({}, cap=3, floor=0)):
        with pytest.raises(ValueError, match="^level must be >= 0$"):
            check_good(s, [0, -1], 3)
        for suite in (check_isometry, check_ultrametric):
            with pytest.raises(ValueError, match="^level must be >= 0$"):
                suite([(s, s)], [0, -1])


def _reference_check_ultrametric(pairs, levels, epsilon):
    """`check_ultrametric` as it was before it read orders: it turned each
    order into an eps-power and compared the values, a bound on the left
    counting as 0 and the right side's flag unread."""

    def norm_leq(lhs, rhs):
        lhs_low = Fraction(0) if lhs[1] else lhs[0]
        return lhs_low <= rhs

    records = []
    for sample, (s, t) in enumerate(pairs):
        total, product = s + t, s * t
        for level in sorted(levels):
            ns, nt, n_sum, n_prod = (norm(u, level, epsilon) for u in (s, t, total, product))
            records.append(
                {
                    "sample": sample,
                    "level": level,
                    "ultrametric_pass": norm_leq(n_sum, max(ns[0], nt[0])),
                    "submultiplicative_pass": norm_leq(n_prod, ns[0] * nt[0]),
                    "upper_bound_involved": any(v[1] for v in (ns, nt, n_sum, n_prod)),
                }
            )
    passed = all(r["ultrametric_pass"] and r["submultiplicative_pass"] for r in records)
    return passed, tuple(records)


def _ultrametric_inputs():
    """Series whose orders are exact, bounds, or the exact zero: truncated
    and exact series, ones dead below level 3, and zero."""
    exact = poly_series(level=3).map(lambda s: TruncSeries.exact(s.coeffs))
    # Every coefficient a multiple of x1_-3: nothing survives below level 3.
    dead = strat.builds(
        lambda s, is_exact: TruncSeries(
            {m: c * xvar(1, -3) for m, c in s.coeffs.items()},
            INF if is_exact else s.cap,
            s.floor,
        ),
        poly_series(level=3),
        strat.booleans(),
    )
    return strat.one_of(poly_series(level=3), exact, dead, strat.just(TruncSeries.zero()))


class TestCheckUltrametricMatchesReference:
    @settings(max_examples=300)
    @given(
        strat.lists(strat.tuples(_ultrametric_inputs(), _ultrametric_inputs()),
                    min_size=1, max_size=3),
        strat.lists(strat.integers(min_value=0, max_value=3), min_size=1, max_size=4),
        strat.sampled_from([Fraction(1, 2), Fraction(1, 3), Fraction(2, 3),
                            Fraction(99, 100), Fraction(1, 1000)]),
    )
    def test_same_verdict_and_records(self, pairs, levels, epsilon):
        try:
            expected = _reference_check_ultrametric(pairs, levels, epsilon)
        except PrecisionExhaustedError:
            with pytest.raises(PrecisionExhaustedError):
                check_ultrametric(pairs, levels)
            return
        report = check_ultrametric(pairs, levels)
        assert (report.passed, report.records) == expected


class TestTopologyWitness:
    def test_deep_monomials_tend_to_zero(self):
        # x1_{-m} z^{-m} dies under every fixed projection once m > level.
        for level in range(3):
            values = []
            for m in range(1, 7):
                s = TruncSeries.exact({-m: xvar(1, -m)})
                values.append(norm(s, level))
            assert values[level:] == [(Fraction(0), False)] * (6 - level)
            assert all(v == (EPS ** (-m), False) for m, v in zip(range(1, level + 1), values))


class TestHomogeneityOnGoodElements:
    @given(strat.integers(min_value=1, max_value=3), poly_series(level=1))
    def test_good_power_factors_out(self, k, t):
        s = loopspace.compose(xvar(1), loopspace.ev_series(1, 1, 6))
        assert check_good(s, [1], 3).passed
        level = 1
        order_t = seminorm_order(t, level)
        if isinstance(order_t, AtLeastCap):
            return
        try:
            combined = (s ** k) * t
        except PrecisionExhaustedError:
            return
        lhs = seminorm_order(combined, level)
        if isinstance(lhs, AtLeastCap):
            return
        assert lhs == k * seminorm_order(s, level) + order_t


def test_norm_at_most_reads_orders():
    norm_at_most = seminorm_module._norm_at_most
    assert norm_at_most(1, 0)  # eps^1 <= eps^0
    assert norm_at_most(AtLeastCap(0), 1)  # a bound could be any order from 0 up
    assert not norm_at_most(-1, 1)  # eps^-1 > eps^1
    assert norm_at_most(AtLeastCap(INF), INF)  # 0 <= 0
    assert not norm_at_most(5, INF)  # eps^5 > 0


def test_random_series_rejects_a_negative_level():
    # Indices are drawn from [-level, 3): a negative level has none to draw.
    with pytest.raises(ValueError, match="truncation level must be >= 0"):
        random_series(random.Random(0), 1, -1, 1, 3)


def test_check_good_refuses_a_max_power_below_one():
    s = TruncSeries({0: xvar(1, 0)}, cap=2)
    with pytest.raises(ValueError, match="^max_power must be >= 1$"):
        check_good(s, [0], 0)
