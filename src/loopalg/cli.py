"""Command-line front end.

Subcommands: relations, ev, invert, norm, converge, approx, check.
Settings come from flags, optionally merged over a JSON config file
(flags win). All numeric output is exact rational text; identical inputs
and seed produce byte-identical output.

Exit codes: 0 success, 1 input error, 2 precision exhausted, 3 I/O error,
4 property-suite failure.
"""

import argparse
import csv
import io
import json
import random
import sys
from fractions import Fraction

from . import loopspace, projector, sampling, seminorm
from .errors import (
    GoodElementViolationError,
    LoopAlgError,
    NonInvertibleLeadingTermError,
    PolyParseError,
    PrecisionExhaustedError,
    ZeroPolynomialError,
    DimensionMismatchError,
)
from .exactpoly import parse_poly
from .seminorm import SemiNormParams

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_PRECISION = 2
EXIT_IO = 3
EXIT_PROPERTY = 4

_DEFAULTS = {
    "d": 1,
    "f": None,
    "n": 1,
    "cap": 8,
    "epsilon": "1/2",
    "level": 1,
    "levels": "0,1,2,3,4",
    "seed": 0,
    "samples": 100,
    "max_power": 3,
    "output": None,
    "format": None,
}


class _ArgumentError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; that slot belongs to
    # precision errors here, so convert to an input error instead.
    def error(self, message):
        raise _ArgumentError(message)


def _add_common(parser):
    parser.add_argument("--config", help="JSON file with default settings")
    parser.add_argument("--d", type=int, help="ambient dimension")
    parser.add_argument("--f", help="hypersurface polynomial, e.g. 'x1*x2 + 1'")
    parser.add_argument("--n", type=int, help="truncation level")
    parser.add_argument("--cap", type=int, help="series precision cap")
    parser.add_argument("--epsilon", help="semi-norm base as p/q in (0,1)")
    parser.add_argument("--level", type=int, help="semi-norm level")
    parser.add_argument("--levels", help="comma-separated semi-norm levels")
    parser.add_argument("--seed", type=int, help="seed for randomized suites")
    parser.add_argument("--output", help="write output to this path (default stdout)")
    parser.add_argument("--format", choices=["json", "csv", "text"])


def _build_parser():
    parser = _Parser(prog="loopalg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("relations", help="ideal generators of the truncated loops")
    p.add_argument("--complement", action="store_true",
                   help="relations of the hypersurface complement instead")
    _add_common(p)

    p = sub.add_parser("ev", help="print the coordinate evaluation series")
    _add_common(p)

    p = sub.add_parser("invert", help="lowest term of f(x(z)) and its inverse series")
    _add_common(p)

    p = sub.add_parser("norm", help="semi-norms of f(x(z)) at the chosen levels")
    _add_common(p)

    p = sub.add_parser("converge", help="extractor convergence distance table")
    p.add_argument("--mode", choices=["plain", "complement"], default="plain")
    p.add_argument("--j", type=int, default=0, help="target z-power")
    p.add_argument("--n-max", type=int, default=5, help="largest band width")
    p.add_argument("--N", type=int, dest="norm_level", help="semi-norm level")
    p.add_argument("--loop-level", type=int, help="truncation level of the target")
    _add_common(p)

    p = sub.add_parser("approx", help="one localized approximant and its distance")
    p.add_argument("--j", type=int, default=1)
    p.add_argument("--band", type=int, default=1, help="extractor band width")
    p.add_argument("--N", type=int, dest="norm_level", help="semi-norm level")
    p.add_argument("--loop-level", type=int)
    _add_common(p)

    p = sub.add_parser("check", help="run a property suite")
    p.add_argument("suite", choices=["good", "isometry", "ultrametric"])
    p.add_argument("--samples", type=int, help="number of random samples")
    p.add_argument("--max-power", type=int, dest="max_power")
    _add_common(p)

    return parser


def _merge_config(args):
    merged = dict(_DEFAULTS)
    if getattr(args, "config", None):
        with open(args.config) as handle:
            loaded = json.load(handle)
        if not isinstance(loaded, dict):
            raise ValueError(f"config file {args.config} must hold a JSON object")
        merged.update(loaded)
    for key in merged:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    return merged


def _int(key, value) -> int:
    """The setting `key` as an int. A config file can hold any JSON value
    there, so a wrong type is an input error, not a TypeError."""
    try:
        return int(value)
    except (TypeError, OverflowError):
        raise ValueError(f"{key} must be an integer, got {json.dumps(value)}") from None


def _epsilon(cfg) -> Fraction:
    eps = Fraction(str(cfg["epsilon"]))
    if not 0 < eps < 1:
        raise ValueError(f"epsilon must lie strictly between 0 and 1, got {eps}")
    return eps


def _levels(cfg):
    raw = cfg["levels"]
    if isinstance(raw, str):
        return [int(part) for part in raw.split(",") if part.strip() != ""]
    if not isinstance(raw, list):
        raise ValueError(f"levels must be a string or a list, got {json.dumps(raw)}")
    return [_int("levels", v) for v in raw]


def _require_f(cfg):
    if not cfg["f"]:
        raise ValueError("this command needs --f")
    poly = parse_poly(str(cfg["f"]), _int("d", cfg["d"]))
    if not poly:
        raise ZeroPolynomialError("the zero polynomial is degenerate here")
    return poly


def _emit(cfg, text):
    output = cfg["output"]
    if output:
        if not isinstance(output, str):
            raise ValueError(f"output must be a path, got {json.dumps(output)}")
        with open(output, "w", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _csv_text(header, rows) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def _norm_value_text(value) -> str:
    return str(value.value)


# -- commands -----------------------------------------------------------------


def cmd_relations(cfg, complement: bool) -> int:
    f = _require_f(cfg)
    d, n, cap = _int("d", cfg["d"]), _int("n", cfg["n"]), _int("cap", cfg["cap"])
    if complement:
        rels = loopspace.complement_relations(f, d, n, cap)
    else:
        rels = loopspace.relations([f], d, n, cap)
    records = [{"exponent": r.exponent, "generator": str(r.generator)} for r in rels]
    if cfg["format"] == "csv":
        text = _csv_text(
            ["exponent", "generator"],
            [[r["exponent"], r["generator"]] for r in records],
        )
    else:
        text = _json_text(records)
    _emit(cfg, text)
    return EXIT_OK


def cmd_ev(cfg) -> int:
    d, n, cap = _int("d", cfg["d"]), _int("n", cfg["n"]), _int("cap", cfg["cap"])
    series = loopspace.ev_series(d, n, cap)
    _emit(cfg, "".join(f"{s}\n" for s in series))
    return EXIT_OK


def cmd_invert(cfg) -> int:
    f = _require_f(cfg)
    d, n, cap = _int("d", cfg["d"]), _int("n", cfg["n"]), _int("cap", cfg["cap"])
    m_low, lead = loopspace.f_min(f, d, n)
    composite = loopspace.compose(f, loopspace.ev_series(d, n, cap))
    inverse = loopspace.invert_series(composite, n)
    text = f"f_min: exponent {m_low}, lead {lead}\ninverse: {inverse}\n"
    _emit(cfg, text)
    return EXIT_OK


def cmd_norm(cfg) -> int:
    f = _require_f(cfg)
    d, n, cap = _int("d", cfg["d"]), _int("n", cfg["n"]), _int("cap", cfg["cap"])
    eps = _epsilon(cfg)
    composite = loopspace.compose(f, loopspace.ev_series(d, n, cap))
    records = []
    for level in _levels(cfg):
        value = seminorm.seminorm(composite, SemiNormParams(eps, level))
        records.append(
            {
                "level": level,
                "value": _norm_value_text(value),
                "upper_bound": value.is_upper_bound,
            }
        )
    if cfg["format"] == "csv":
        text = _csv_text(
            ["level", "value", "upper_bound"],
            [[r["level"], r["value"], str(r["upper_bound"]).lower()] for r in records],
        )
    else:
        text = _json_text(records)
    _emit(cfg, text)
    return EXIT_OK


def _converge_rows_text(cfg, rows) -> str:
    if cfg["format"] == "json":
        return _json_text(
            [
                {
                    "n": r.n,
                    "ord_exponent": r.ord_exponent,
                    "distance": str(r.distance),
                    "upper_bound": r.upper_bound,
                }
                for r in rows
            ]
        )
    return _csv_text(
        ["n", "ord_exponent", "distance_as_rational", "upper_bound_flag"],
        [
            [r.n, r.ord_exponent, str(r.distance), str(r.upper_bound).lower()]
            for r in rows
        ],
    )


def cmd_converge(cfg, mode, j, n_max, norm_level, loop_level) -> int:
    d, cap = _int("d", cfg["d"]), _int("cap", cfg["cap"])
    eps = _epsilon(cfg)
    if norm_level is None:
        norm_level = _int("level", cfg["level"])
    f = _require_f(cfg) if mode == "complement" else None
    rows = projector.convergence_experiment(
        d, f, j, range(1, n_max + 1), norm_level, eps, cap, loop_level
    )
    _emit(cfg, _converge_rows_text(cfg, rows))
    return EXIT_OK


def cmd_approx(cfg, j, band, norm_level, loop_level) -> int:
    f = _require_f(cfg)
    d, cap = _int("d", cfg["d"]), _int("cap", cfg["cap"])
    eps = _epsilon(cfg)
    if norm_level is None:
        norm_level = _int("level", cfg["level"])
    result = projector.approximate_coefficient(
        f, d, j, band, norm_level, eps, cap, loop_level
    )
    payload = {
        "element": str(result.element),
        "denominator_power": result.element.pow,
        "distance": str(result.distance.value),
        "distance_is_upper_bound": result.distance.is_upper_bound,
        "model_commutes": result.commutes,
    }
    _emit(cfg, _json_text(payload))
    return EXIT_OK


def cmd_check(cfg, suite: str) -> int:
    d, n, cap = _int("d", cfg["d"]), _int("n", cfg["n"]), _int("cap", cfg["cap"])
    eps = _epsilon(cfg)
    levels = _levels(cfg)
    rng = random.Random(_int("seed", cfg["seed"]))
    if suite == "good":
        f = _require_f(cfg)
        composite = loopspace.compose(f, loopspace.ev_series(d, max(levels), cap))
        max_power = _int("max_power", cfg["max_power"])
        report = seminorm.check_good(composite, levels, max_power)
    elif suite == "isometry":
        pairs = []
        for _ in range(_int("samples", cfg["samples"])):
            s = sampling.random_series(rng, d, max(levels), -max(levels), cap)
            pairs.append((s, s))
        report = seminorm.check_isometry(pairs, levels)
    else:
        pairs = []
        for _ in range(_int("samples", cfg["samples"])):
            s = sampling.random_series(rng, d, max(levels), -max(levels), cap)
            t = sampling.random_series(rng, d, max(levels), -max(levels), cap)
            pairs.append((s, t))
        report = seminorm.check_ultrametric(pairs, levels, eps)
    _emit(cfg, _json_text(report.to_jsonable()))
    return EXIT_OK if report.passed else EXIT_PROPERTY


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _merge_config(args)
        if args.command == "relations":
            return cmd_relations(cfg, args.complement)
        if args.command == "ev":
            return cmd_ev(cfg)
        if args.command == "invert":
            return cmd_invert(cfg)
        if args.command == "norm":
            return cmd_norm(cfg)
        if args.command == "converge":
            return cmd_converge(
                cfg, args.mode, args.j, args.n_max, args.norm_level, args.loop_level
            )
        if args.command == "approx":
            return cmd_approx(cfg, args.j, args.band, args.norm_level, args.loop_level)
        if args.command == "check":
            return cmd_check(cfg, args.suite)
        raise _ArgumentError(f"unknown command {args.command}")
    except PrecisionExhaustedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECISION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (
        _ArgumentError,
        PolyParseError,
        DimensionMismatchError,
        ZeroPolynomialError,
        NonInvertibleLeadingTermError,
        GoodElementViolationError,
        LoopAlgError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
