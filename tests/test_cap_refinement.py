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
from hypothesis import given
import hypothesis.strategies as strat

from loopalg.errors import LoopAlgError, PrecisionExhaustedError
from loopalg.exactpoly import parse_poly
from loopalg.localized import LocalizedElem, loc_seminorm
from loopalg.loopspace import (
    complement_relations,
    compose,
    ev_series,
    invert_series,
    relations,
)
from loopalg.sampling import random_series
from loopalg.seminorm import SemiNormParams, seminorm

from .strategies import ambient_polys

_HYPERSURFACES = ("x1", "x1 + x2", "x1^2 + x1", "x1*x2 + 1", "2*x1 + x2^2", "x1^3 + x2^2")


def _refines(coarse, fine):
    """A SemiNormValue at the lower cap against the one at the higher cap."""
    if coarse.is_upper_bound:
        return coarse.value >= fine.value
    return fine == coarse


def _attempt(run):
    try:
        return run()
    except LoopAlgError:
        return None


@given(
    strat.sampled_from(_HYPERSURFACES),
    strat.sampled_from(_HYPERSURFACES),
    strat.integers(min_value=0, max_value=2),
    strat.integers(min_value=0, max_value=2),
    strat.integers(min_value=1, max_value=5),
    strat.integers(min_value=1, max_value=5),
    strat.integers(min_value=0, max_value=3),
)
def test_higher_cap_refines(f_text, g_text, loop_level, norm_level, cap, step, power):
    f, g = parse_poly(f_text, 2), parse_poly(g_text, 2)
    params = SemiNormParams(Fraction(1, 2), norm_level)

    def composites(c):
        series = ev_series(2, loop_level, c)
        return compose(f, series), compose(g, series)

    (a, num), (a_fine, num_fine) = composites(cap), composites(cap + step)
    assert a.agrees_with(a_fine) and num.agrees_with(num_fine)

    inverse = _attempt(lambda: invert_series(a, loop_level))
    if inverse is not None:
        assert inverse.agrees_with(invert_series(a_fine, loop_level))

    assert _refines(seminorm(a, params), seminorm(a_fine, params))

    value = _attempt(lambda: loc_seminorm(LocalizedElem(num, power), a, params))
    if value is not None:
        fine_value = loc_seminorm(LocalizedElem(num_fine, power), a_fine, params)
        assert _refines(value, fine_value)


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
    # A constant f (not on the complement side) is exact: its one relation
    # is the constant itself, at z^0.
    exponent = 0 if degree == 0 and not complement else floor
    assert [r.exponent for r in run(floor + 1)] == [exponent]


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
