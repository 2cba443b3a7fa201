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
import functools
import io
import json
import random
import sys
from fractions import Fraction

from . import loopspace, projector, sampling, seminorm
from .errors import LoopAlgError, PrecisionExhaustedError, ZeroPolynomialError
from .exactpoly import parse_poly
from .laurent import AtLeastCap

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_PRECISION = 2
EXIT_IO = 3
EXIT_PROPERTY = 4


class _ArgumentError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # A flag has one spelling: no prefix of it is accepted, so a flag a
    # command does not have is never read as a longer one it has.
    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    # argparse exits with status 2 on bad usage; that slot belongs to
    # precision errors here, so convert to an input error instead.
    def error(self, message):
        raise _ArgumentError(message)


# -- settings -----------------------------------------------------------------
#
# A converter takes a setting's name and its flag text or config value. A
# config value is read like its flag text: a string is that text, any other
# JSON value its JSON spelling, so {"cap": 3} is read like --cap 3 and
# {"cap": 2.7} is rejected like --cap 2.7.


def _flag_text(value) -> str:
    return value if isinstance(value, str) else json.dumps(value)


def _int(name, value) -> int:
    try:
        return int(_flag_text(value))
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {json.dumps(value)}") from None


def _epsilon(name, value) -> Fraction:
    try:
        eps = Fraction(_flag_text(value))
    except (ValueError, ZeroDivisionError):
        shown = json.dumps(value)
        raise ValueError(f"{name} must be a fraction p/q, got {shown}") from None
    if not 0 < eps < 1:
        raise ValueError(f"{name} must lie strictly between 0 and 1, got {eps}")
    return eps


def _levels(name, value) -> list:
    """Comma-separated text, or in a config file also a JSON list."""
    if isinstance(value, str):
        value = [part for part in value.split(",") if part.strip() != ""]
    if not isinstance(value, list):
        raise ValueError(f"{name} must be a string or a list, got {json.dumps(value)}")
    return [_int(name, v) for v in value]


def _path(name, value) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{name} must be a path, got {json.dumps(value)}")
    return value


_FORMATS = ("json", "csv", "text")


def _format(name, value) -> str:
    if value not in _FORMATS:
        raise ValueError(
            f"{name} must be one of {', '.join(_FORMATS)}, got {json.dumps(value)}"
        )
    return value


# name: (default, converter, help). Every setting is a config key, so one
# config file serves every command.
_SETTINGS = {
    "d": (1, _int, "ambient dimension"),
    "f": (None, lambda name, value: _flag_text(value),
          "hypersurface polynomial, e.g. 'x1*x2 + 1'"),
    "n": (1, _int, "truncation level"),
    "cap": (8, _int, "series precision cap"),
    "epsilon": (Fraction(1, 2), _epsilon, "semi-norm base as p/q in (0,1)"),
    "level": (1, _int, "semi-norm level"),
    "levels": ((0, 1, 2, 3, 4), _levels, "comma-separated semi-norm levels"),
    "seed": (0, _int, "seed for randomized suites"),
    "output": (None, _path, "write output to this path (default stdout)"),
    "format": (None, _format, None),
    "samples": (100, _int, "number of random samples"),
}

# The settings each command reads, which are its flags: --N for level,
# --NAME for the others.
_COMMAND_SETTINGS = {
    "relations": ("d", "f", "n", "cap", "output", "format"),
    "ev": ("d", "n", "cap", "output"),
    "invert": ("d", "f", "n", "cap", "output"),
    "norm": ("d", "f", "n", "cap", "epsilon", "levels", "output", "format"),
    "converge": ("d", "f", "cap", "epsilon", "level", "output", "format"),
    "approx": ("d", "f", "cap", "epsilon", "level", "output"),
    "check": ("d", "f", "cap", "levels", "seed", "samples", "output"),
}


def _settings(args) -> dict:
    """Each setting from its flag, else the config file, else its default;
    a flag or config value goes through the setting's converter."""
    loaded = {}
    if args.config:
        with open(args.config) as handle:
            loaded = json.load(handle)
        if not isinstance(loaded, dict):
            raise ValueError(f"config file {args.config} must hold a JSON object")
        unknown = sorted(set(loaded) - set(_SETTINGS))
        if unknown:
            names = ", ".join(unknown)
            raise ValueError(f"config file {args.config}: unknown setting {names}")
    settings = {}
    for name, (default, convert, _) in _SETTINGS.items():
        value = getattr(args, name, None)
        if value is None:
            value = loaded.get(name)
        # A config null unsets f, output and format, which have no default.
        if value is None and (name not in loaded or default is None):
            settings[name] = default
        else:
            settings[name] = convert(name, value)
    return settings


# Built on the first `main` call, not at import, and kept for the process.
# The parser holds no command functions: `main` looks each one up by name
# in this module at dispatch time, so a replaced cmd_* is the one called.
@functools.cache
def _build_parser():
    parser = _Parser(prog="loopalg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("relations", help="ideal generators of the truncated loops")
    p.add_argument("--complement", action="store_true",
                   help="relations of the hypersurface complement instead")

    sub.add_parser("ev", help="print the coordinate evaluation series")
    sub.add_parser("invert", help="lowest term of f(x(z)) and its inverse series")
    sub.add_parser("norm", help="semi-norms of f(x(z)) at the chosen levels")

    p = sub.add_parser("converge", help="extractor convergence distance table")
    p.add_argument("--mode", choices=["plain", "complement"], default="plain")
    p.add_argument("--j", type=int, default=0, help="target z-power")
    p.add_argument("--n-max", type=int, default=5, help="largest band width")
    p.add_argument("--loop-level", type=int, help="truncation level of the target")

    p = sub.add_parser("approx", help="one localized approximant and its distance")
    p.add_argument("--j", type=int, default=1)
    p.add_argument("--band", type=int, default=1, help="extractor band width")
    p.add_argument("--loop-level", type=int)

    p = sub.add_parser("check", help="run a property suite")
    p.add_argument("suite", choices=["good", "isometry", "ultrametric"])

    for command, p in sub.choices.items():
        p.add_argument("--config", help="JSON file with default settings")
        for name in _COMMAND_SETTINGS[command]:
            # --format shows its choices, as an argparse choices= list would.
            metavar = "{" + ",".join(_FORMATS) + "}" if name == "format" else None
            flag = "--N" if name == "level" else "--" + name
            p.add_argument(flag, dest=name, metavar=metavar, help=_SETTINGS[name][2])
    return parser


def _require_f(cfg):
    if not cfg["f"]:
        raise ValueError("this command needs --f")
    poly = parse_poly(cfg["f"], cfg["d"])
    if not poly:
        raise ZeroPolynomialError("the zero polynomial is degenerate here")
    return poly


def _emit(cfg, text):
    if cfg["output"]:
        with open(cfg["output"], "w", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _emit_table(cfg, records, header, default_format):
    """Write `records` as JSON, or as CSV rows of their values under `header`
    with booleans in lower case; no --format or --format text means
    `default_format`."""
    fmt = default_format if cfg["format"] in (None, "text") else cfg["format"]
    if fmt == "json":
        _emit(cfg, _json_text(records))
        return
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for record in records:
        writer.writerow(
            str(v).lower() if isinstance(v, bool) else v for v in record.values()
        )
    _emit(cfg, buffer.getvalue())


def value_from_order(order, epsilon: Fraction):
    """The semi-norm value eps^order as exact rational text, and whether it is
    only an upper bound. This is where eps meets the library's orders: an
    AtLeastCap with a cap bounds the value by eps^cap; the exact zero is 0."""
    exponent = seminorm.order_exponent(order)
    if exponent is None:
        return "0", False
    return str(epsilon ** exponent), isinstance(order, AtLeastCap)


# -- commands -----------------------------------------------------------------


def cmd_relations(cfg, args) -> int:
    f = _require_f(cfg)
    if args.complement:
        rels = loopspace.complement_relations(f, cfg["d"], cfg["n"], cfg["cap"])
    else:
        rels = loopspace.relations(f, cfg["d"], cfg["n"], cfg["cap"])
    records = [{"exponent": r.exponent, "generator": str(r.generator)} for r in rels]
    _emit_table(cfg, records, ["exponent", "generator"], "json")
    return EXIT_OK


def cmd_ev(cfg, args) -> int:
    series = loopspace.ev_series(cfg["d"], cfg["n"], cfg["cap"])
    _emit(cfg, "".join(f"{s}\n" for s in series))
    return EXIT_OK


def cmd_invert(cfg, args) -> int:
    f = _require_f(cfg)
    d, n = cfg["d"], cfg["n"]
    composite = loopspace.compose(f, loopspace.ev_series(d, n, cfg["cap"]))
    m_low = min(composite.coeffs)
    lead = composite.coeffs[m_low]
    inverse = loopspace.invert_series(composite, n)
    _emit(cfg, f"f_min: exponent {m_low}, lead {lead}\ninverse: {inverse}\n")
    return EXIT_OK


def cmd_norm(cfg, args) -> int:
    f = _require_f(cfg)
    composite = loopspace.compose(f, loopspace.ev_series(cfg["d"], cfg["n"], cfg["cap"]))
    records = []
    for level in cfg["levels"]:
        order = seminorm.seminorm_order(composite, level)
        value, bound = value_from_order(order, cfg["epsilon"])
        records.append({"level": level, "value": value, "upper_bound": bound})
    _emit_table(cfg, records, ["level", "value", "upper_bound"], "json")
    return EXIT_OK


def cmd_converge(cfg, args) -> int:
    f = _require_f(cfg) if args.mode == "complement" else None
    rows = projector.convergence_experiment(
        cfg["d"], f, args.j, range(1, args.n_max + 1), cfg["level"], cfg["cap"],
        args.loop_level,
    )
    records = []
    for n, order in rows:
        distance, bound = value_from_order(order, cfg["epsilon"])
        records.append(
            {"n": n, "ord_exponent": seminorm.order_exponent(order), "distance": distance,
             "upper_bound": bound}
        )
    header = ["n", "ord_exponent", "distance_as_rational", "upper_bound_flag"]
    _emit_table(cfg, records, header, "csv")
    return EXIT_OK


def cmd_approx(cfg, args) -> int:
    f = _require_f(cfg)
    result = projector.approximate_coefficient(
        f, cfg["d"], args.j, args.band, cfg["level"], cfg["cap"], args.loop_level
    )
    distance, bound = value_from_order(result.order, cfg["epsilon"])
    payload = {
        "element": str(result.element),
        "denominator_power": result.element.pow,
        "distance": distance,
        "distance_is_upper_bound": bound,
        "model_commutes": result.commutes,
    }
    _emit(cfg, _json_text(payload))
    return EXIT_OK


def cmd_check(cfg, args) -> int:
    d, cap, levels = cfg["d"], cfg["cap"], cfg["levels"]
    if not levels:
        raise ValueError("check needs at least one level")
    # Refused before the samples or the composite are built at the top level.
    seminorm.projection_zero_test(min(levels))
    top = max(levels)
    rng = random.Random(cfg["seed"])

    def draw():
        return sampling.random_series(rng, d, top, -top, cap)

    if args.suite == "good":
        f = _require_f(cfg)
        composite = loopspace.compose(f, loopspace.ev_series(d, top, cap))
        # Powers 1 to 3 of the series at each level.
        report = seminorm.check_good(composite, levels, 3)
    elif args.suite == "isometry":
        pairs = [(s, s) for s in (draw() for _ in range(cfg["samples"]))]
        report = seminorm.check_isometry(pairs, levels)
    else:
        # s is drawn before t: tuple displays evaluate left to right.
        pairs = [(draw(), draw()) for _ in range(cfg["samples"])]
        report = seminorm.check_ultrametric(pairs, levels)
    _emit(cfg, _json_text(report.to_jsonable()))
    return EXIT_OK if report.passed else EXIT_PROPERTY


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return globals()["cmd_" + args.command](_settings(args), args)
    except PrecisionExhaustedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECISION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (_ArgumentError, LoopAlgError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
