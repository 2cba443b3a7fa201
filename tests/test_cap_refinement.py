"""The cap-refinement contract: running again at a higher cap never changes a
known coefficient or an exact semi-norm value, and a bound never
contradicts the value found later.

Each operation runs on the same hypersurface at two caps c < c'. A run at c
may refuse (PrecisionExhaustedError, a dead leading coefficient); a result
at c must then be confirmed at c'.
"""

import random
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import assume, given
import hypothesis.strategies as strat

from loopalg.errors import LoopAlgError, PrecisionExhaustedError
from loopalg.exactpoly import parse_poly
from loopalg.laurent import TruncSeries, divide_exact
from loopalg.localized import LocalizedElem, loc_seminorm, loc_to_model_with
from loopalg.loopspace import (
    complement_relations,
    compose,
    ev_series,
    invert_series,
    relations,
)
from loopalg.projector import (
    NuPoly,
    apply_nu_poly_localized,
    approximate_coefficient,
    convergence_experiment,
)
from loopalg.sampling import random_series
from loopalg.seminorm import (
    check_good,
    check_isometry,
    check_ultrametric,
    seminorm_order,
)

from .helpers import value
from .strategies import ambient_polys

_HYPERSURFACES = ("x1", "x1 + x2", "x1^2 + x1", "x1*x2 + 1", "2*x1 + x2^2", "x1^3 + x2^2")


def _refines(coarse, fine):
    """An order at the lower cap against the one at the higher cap, compared
    as the values eps^order the CLI prints at eps 1/2: a bound is at least
    the value found later, and an exact value is that value."""
    coarse, fine = value(coarse), value(fine)
    if coarse[1]:
        return coarse[0] >= fine[0]
    return fine == coarse


def _attempt(run):
    try:
        return run()
    except LoopAlgError:
        return None


_hypersurfaces = strat.sampled_from(_HYPERSURFACES).map(lambda text: parse_poly(text, 2))
_loop_levels = strat.integers(min_value=0, max_value=2)
_norm_levels = strat.integers(min_value=0, max_value=2)
_slots = strat.integers(min_value=0, max_value=4)
_caps = strat.integers(min_value=1, max_value=5)
_steps = strat.integers(min_value=1, max_value=5)


def _assume_inverse_support(f, j, loop_level):
    """Slot j lies in the inverse's support at an explicit loop level;
    below it the complement setup refuses with a ValueError at every cap."""
    if loop_level is not None:
        assume(f.total_degree() * loop_level <= j)


def _composites(f, g, loop_level, cap):
    series = ev_series(2, loop_level, cap)
    return compose(f, series), compose(g, series)


@given(
    _hypersurfaces,
    _hypersurfaces,
    _loop_levels,
    _norm_levels,
    _caps,
    _steps,
    strat.integers(min_value=0, max_value=3),
)
def test_higher_cap_refines(f, g, loop_level, norm_level, cap, step, power):
    (a, num), (a_fine, num_fine) = (
        _composites(f, g, loop_level, c) for c in (cap, cap + step)
    )
    assert a.agrees_with(a_fine) and num.agrees_with(num_fine)

    inverse = _attempt(lambda: invert_series(a, loop_level))
    if inverse is not None:
        assert inverse.agrees_with(invert_series(a_fine, loop_level))

    assert _refines(seminorm_order(a, norm_level), seminorm_order(a_fine, norm_level))

    order = _attempt(lambda: loc_seminorm(LocalizedElem(num, power), a, norm_level))
    if order is not None:
        fine_order = loc_seminorm(LocalizedElem(num_fine, power), a_fine, norm_level)
        assert _refines(order, fine_order)


@given(
    _hypersurfaces,
    _hypersurfaces,
    _loop_levels,
    _caps,
    _steps,
    strat.integers(min_value=0, max_value=2),
    strat.lists(strat.integers(min_value=-3, max_value=3), max_size=4),
)
def test_model_images_refine(f, g, loop_level, cap, step, power, nu_coeffs):
    """The model image of g(x(z))/a^p, and of a Euler-operator polynomial
    applied to it in the localisation, keeps every coefficient it knows."""
    (a, num), (a_fine, num_fine) = (
        _composites(f, g, loop_level, c) for c in (cap, cap + step)
    )
    u, u_fine = LocalizedElem(num, power), LocalizedElem(num_fine, power)
    model = _attempt(lambda: loc_to_model_with(u, a))
    if model is None:
        return
    assert model.agrees_with(loc_to_model_with(u_fine, a_fine))
    p = NuPoly([Fraction(c, 2) for c in nu_coeffs])
    image = loc_to_model_with(apply_nu_poly_localized(p, u, a), a)
    assert image.agrees_with(
        loc_to_model_with(apply_nu_poly_localized(p, u_fine, a_fine), a_fine)
    )


@given(_hypersurfaces, _hypersurfaces, _loop_levels, _caps, _steps)
def test_exact_quotients_refine(f, g, loop_level, cap, step):
    """Where both caps give a quotient, the quotients agree. Divisibility
    itself is not monotone in the cap: x1 over x1*x2 + 1 at level 1 has a
    quotient at cap 1 and none at cap 2."""
    (a, num), (a_fine, num_fine) = (
        _composites(f, g, loop_level, c) for c in (cap, cap + step)
    )
    for top, bottom, top_fine, bottom_fine in (
        (num, a, num_fine, a_fine),
        (num * a, a, num_fine * a_fine, a_fine),
    ):
        quotient = divide_exact(top, bottom)
        quotient_fine = divide_exact(top_fine, bottom_fine)
        if quotient is not None and quotient_fine is not None:
            assert quotient.agrees_with(quotient_fine)


@given(
    _hypersurfaces,
    _slots,
    strat.integers(min_value=0, max_value=3),
    _norm_levels,
    strat.one_of(strat.none(), _loop_levels),
    _caps,
    _steps,
)
def test_approximant_distance_refines(f, j, band, norm_level, loop_level, cap, step):
    _assume_inverse_support(f, j, loop_level)

    def run(c):
        return approximate_coefficient(f, 2, j, band, norm_level, c, loop_level)

    result = _attempt(lambda: run(cap))
    if result is None:
        return
    fine = run(cap + step)
    assert result.model.agrees_with(fine.model)
    assert _refines(result.order, fine.order)


@given(
    strat.one_of(strat.none(), _hypersurfaces),
    _slots,
    strat.integers(min_value=1, max_value=3),
    _norm_levels,
    strat.one_of(strat.none(), _loop_levels),
    strat.integers(min_value=1, max_value=7),
    _steps,
)
def test_convergence_rows_refine(f, j, n_max, norm_level, loop_level, cap, step):
    if f is not None:
        _assume_inverse_support(f, j, loop_level)

    def run(c):
        return convergence_experiment(2, f, j, range(1, n_max + 1), norm_level, c,
                                      loop_level)

    rows = _attempt(lambda: run(cap))
    if rows is None:
        return
    fine_rows = run(cap + step)
    assert [row.n for row in rows] == [row.n for row in fine_rows]
    for row, fine in zip(rows, fine_rows):
        assert _refines(row.order, fine.order)


# The property suites on a series and on its truncation to a lower cap: an
# exact order a record reports at the lower cap is the one at the higher cap,
# and a bound is at most the order found later (None, the printed exponent
# of the exact zero, lies above every bound). A FAIL at the lower cap is a certain violation, so it
# stays a FAIL.


def _truncate(series, cap):
    """The same series known only below `cap`."""
    return TruncSeries({m: c for m, c in series.coeffs.items() if m < cap}, cap, series.floor)


def _bound_refines(coarse, fine):
    assert fine is None or coarse <= fine


def _series_and_lower_cap():
    """A composite, sampled or exact series and a cap in (floor, top], where
    top is its cap, or one past its last coefficient when it is exact."""
    composite = strat.builds(
        lambda f, level, cap: compose(f, ev_series(2, level, cap)),
        _hypersurfaces, _loop_levels, _caps,
    )
    sampled = strat.builds(
        lambda seed, floor, width: random_series(random.Random(seed), 2, 2, floor,
                                                 floor + width),
        strat.integers(min_value=0, max_value=2**32),
        strat.integers(min_value=-2, max_value=1),
        strat.integers(min_value=1, max_value=5),
    )
    exact = sampled.map(lambda s: TruncSeries.exact(s.coeffs))

    def with_cap(series):
        top = max(series.coeffs, default=0) + 1 if series.is_exact() else series.cap
        return strat.tuples(
            strat.just(series), strat.integers(min_value=series.floor + 1, max_value=top)
        )

    return strat.one_of(composite, sampled, exact).flatmap(with_cap)


_suite_levels = strat.lists(strat.integers(min_value=0, max_value=2), min_size=1, max_size=3)


@given(_series_and_lower_cap(), _suite_levels)
def test_check_good_refines(series_and_cap, levels):
    series, cap = series_and_cap
    coarse = check_good(_truncate(series, cap), levels, 3)
    fine = check_good(series, levels, 3)
    for low, high in zip(coarse.records, fine.records, strict=True):
        assert (low["level"], low["power"]) == (high["level"], high["power"])
        if low["upper_bound_involved"]:
            # The power-1 order is a bound, so every power's is.
            assert not low["pass"] and low["rhs_exponent"] is None
            _bound_refines(low["lhs_exponent"], high["lhs_exponent"])
        else:
            assert low == high


@given(_series_and_lower_cap(), _series_and_lower_cap(), _suite_levels)
def test_check_isometry_refines(first, second, levels):
    (s, s_cap), (t, t_cap) = first, second
    coarse = check_isometry([(_truncate(s, s_cap), _truncate(t, t_cap))], levels)
    fine = check_isometry([(s, t)], levels)
    for low, high in zip(coarse.records, fine.records, strict=True):
        if low["upper_bound_involved"]:
            # An exact side's exponent equals the later one, a bound's is below it.
            _bound_refines(low["lhs_exponent"], high["lhs_exponent"])
            _bound_refines(low["rhs_exponent"], high["rhs_exponent"])
        else:
            assert low == high


@given(_series_and_lower_cap(), _series_and_lower_cap(), _suite_levels)
def test_check_ultrametric_refines(first, second, levels):
    (s, s_cap), (t, t_cap) = first, second
    coarse = _attempt(
        lambda: check_ultrametric([(_truncate(s, s_cap), _truncate(t, t_cap))], levels)
    )
    if coarse is None:
        return
    fine = check_ultrametric([(s, t)], levels)
    for low, high in zip(coarse.records, fine.records, strict=True):
        if not low["upper_bound_involved"]:
            assert low == high
        for verdict in ("ultrametric_pass", "submultiplicative_pass"):
            assert low[verdict] or not high[verdict]


# `required_cap` is exact: every cap at or below an empty window's floor
# raises with floor + 1, and that cap gives a window of exactly one exponent.

_dim_and_f = strat.integers(min_value=1, max_value=2).flatmap(
    lambda dim: strat.tuples(strat.just(dim), ambient_polys(dim=dim).filter(bool))
)
_levels = strat.integers(min_value=0, max_value=3)
_below = strat.integers(min_value=0, max_value=4)


def _required_cap(run, cap):
    with pytest.raises(PrecisionExhaustedError) as info:
        run(cap)
    return info.value.required_cap


@given(_dim_and_f, _levels, _below, strat.booleans())
def test_relations_required_cap_is_exact(dim_and_f, level, below, complement):
    dim, f = dim_and_f
    degree = f.total_degree()
    if complement:
        build, k = complement_relations, degree + 1
    else:
        build, k = relations, max(1, degree)
    floor = -k * level
    run = partial(build, f, dim, level)
    assert _required_cap(run, floor - below) == floor + 1
    # One relation per exponent of the output window, a constant f included.
    assert [r.exponent for r in run(floor + 1)] == [floor]


@given(strat.integers(min_value=1, max_value=2), _levels, _below)
def test_ev_series_required_cap_is_exact(dim, level, below):
    run = partial(ev_series, dim, level)
    assert _required_cap(run, -level - below) == -level + 1
    for series in run(-level + 1):
        assert (series.floor, series.cap) == (-level, -level + 1)


@given(strat.integers(min_value=1, max_value=2), _levels, _below, strat.integers())
def test_random_series_required_cap_is_exact(dim, level, below, seed):
    def run(cap):
        return random_series(random.Random(seed), dim, level, -level, cap)

    assert _required_cap(run, -level - below) == -level + 1
    series = run(-level + 1)
    assert (series.floor, series.cap) == (-level, -level + 1)
