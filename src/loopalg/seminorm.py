"""The countable family of non-Archimedean semi-norms on truncated series.

At truncation level n the norm of a series is eps^(z-adic order of its image
under the level-n projection), for a fixed rational 0 < eps < 1. Every
inequality between these norms is one between orders, so the library works
with orders alone: an int, or an AtLeastCap when no known coefficient
survives (a bound) or the image is exactly zero, whose order is +infinity
(AtLeastCap(INF)). eps enters only where the CLI prints an order as a value,
and infinity turns into None only in `order_exponent`.
"""

from dataclasses import dataclass
from typing import Optional

from .laurent import INF, AtLeastCap, TruncSeries


def projection_zero_test(level: int):
    """Zero test for Poly coefficients inside the level-n discrete algebra;
    a negative level is refused here, before any coefficient is tested."""
    if level < 0:
        raise ValueError("level must be >= 0")
    return lambda coeff: not coeff.project(level)


def seminorm_order(series: TruncSeries, level: int):
    """z-adic order of the level-n projection: an int or AtLeastCap."""
    return series.z_order(projection_zero_test(level))


def _order_bound(order):
    """The least order an order allows: the order, or the cap bounding it
    (INF for the exact zero)."""
    return order.cap if isinstance(order, AtLeastCap) else order


def order_exponent(order) -> Optional[int]:
    """The exponent of eps an order gives, for printing: the order, the cap
    bounding it, or None for the exact zero, whose norm eps^INF is 0."""
    bound = _order_bound(order)
    return None if bound == INF else bound


@dataclass(frozen=True)
class CheckReport:
    """Outcome of a sampled property suite, one JSON-ready record per case."""

    name: str
    passed: bool
    records: tuple

    def to_jsonable(self):
        return {"suite": self.name, "passed": self.passed, "records": list(self.records)}


def _power_order(series: TruncSeries, level: int, base, k: int):
    """z-adic order of the level-n projection of series**k, given its order
    `base` at power 1.

    The projection is a ring map into a polynomial ring, an integral domain,
    so the lowest surviving coefficient c of the series gives c**k != 0 as
    the lowest term of the power: powering that one coefficient is exact.
    A series of which nothing survives gives the bound k * cap.
    """
    if isinstance(base, AtLeastCap):
        return AtLeastCap(k * base.cap)
    lowest = series.coeffs[base].project(level)
    return (TruncSeries({base: lowest}, base + 1) ** k).z_order()


def _require_cases(cases, what):
    """A suite with no level or no sample checks nothing, so it cannot pass."""
    if not cases:
        raise ValueError(f"a property suite needs at least one {what}")


def _sorted_levels(levels):
    """The levels in increasing order, refused when none or one below 0 (by
    `projection_zero_test`, the one place a level is checked)."""
    _require_cases(levels, "level")
    projection_zero_test(min(levels))
    return sorted(levels)


def check_good(series: TruncSeries, levels, max_power: int) -> CheckReport:
    """Verify power-multiplicativity of the norms of `series`.

    For each sampled level n and power 1 <= k <= max_power the record compares
    the order of series^k against k times the order of series; the power-1
    record also certifies that the norm is nonzero and not merely a bound.
    Projection commutes with products, so the order of series^k is read from
    the power of the lowest surviving coefficient (see `_power_order`).
    """
    if max_power < 1:
        raise ValueError("max_power must be >= 1")
    records = []
    for level in _sorted_levels(levels):
        base = seminorm_order(series, level)
        base_ok = not isinstance(base, AtLeastCap)
        for k in range(1, max_power + 1):
            lhs = base if k == 1 else _power_order(series, level, base, k)
            flagged = isinstance(lhs, AtLeastCap) or not base_ok
            records.append(
                {
                    "level": level,
                    "power": k,
                    "lhs_exponent": order_exponent(lhs),
                    "rhs_exponent": k * base if base_ok else None,
                    "pass": not flagged and lhs == k * base,
                    "upper_bound_involved": flagged,
                }
            )
    return CheckReport("good", all(r["pass"] for r in records), tuple(records))


def check_isometry(pairs, levels) -> CheckReport:
    """Compare norms of elements against their images under the variable
    inclusion into the complement-side algebra (expected: equal, i.e. the
    inclusion is isometric with constants 1)."""
    _require_cases(pairs, "sample")
    levels = _sorted_levels(levels)
    records = []
    for sample, (element, image) in enumerate(pairs):
        for level in levels:
            lhs = seminorm_order(element, level)
            rhs = seminorm_order(image, level)
            records.append(
                {
                    "sample": sample,
                    "level": level,
                    "lhs_exponent": order_exponent(lhs),
                    "rhs_exponent": order_exponent(rhs),
                    "pass": lhs == rhs,
                    "upper_bound_involved": isinstance(lhs, AtLeastCap)
                    or isinstance(rhs, AtLeastCap),
                }
            )
    return CheckReport("isometry", all(r["pass"] for r in records), tuple(records))


def _norm_at_most(order, exponent) -> bool:
    """|u| <= eps^exponent, read as ord u >= exponent since eps < 1. An
    AtLeastCap passes, as a bound or the exact zero; an exponent of INF is
    the norm 0, which no int order reaches."""
    return isinstance(order, AtLeastCap) or order >= exponent


def check_ultrametric(pairs, levels) -> CheckReport:
    """Ultrametric and sub-multiplicative inequalities on sampled pairs,
    decided on the orders of s, t, s+t and s*t at each level."""
    _require_cases(pairs, "sample")
    levels = _sorted_levels(levels)
    records = []
    for sample, (s, t) in enumerate(pairs):
        # Neither depends on the level; an empty product window raises here,
        # before any record of the pair, as it would at the first level.
        total, product = s + t, s * t
        for level in levels:
            orders = [seminorm_order(u, level) for u in (s, t, total, product)]
            es, et = _order_bound(orders[0]), _order_bound(orders[1])
            records.append(
                {
                    "sample": sample,
                    "level": level,
                    # max(|s|, |t|) is eps^(the lesser exponent).
                    "ultrametric_pass": _norm_at_most(orders[2], min(es, et)),
                    "submultiplicative_pass": _norm_at_most(orders[3], es + et),
                    "upper_bound_involved": any(
                        isinstance(o, AtLeastCap) and o.cap != INF for o in orders
                    ),
                }
            )
    passed = all(r["ultrametric_pass"] and r["submultiplicative_pass"] for r in records)
    return CheckReport("ultrametric", passed, tuple(records))
