"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with `pytest -s` to see them all);
all numeric comparisons are exact rational equality, zero tolerance.
"""

import time
from fractions import Fraction

from loopalg.cli import main
from loopalg.exactpoly import parse_poly
from loopalg.localized import LocalizedElem
from loopalg.loopspace import (
    complement_relations,
    compose,
    ev_series,
    invert_series,
)
from loopalg.projector import approximate_coefficient, convergence_experiment
from loopalg.sampling import random_series
from loopalg.seminorm import (
    check_good,
    check_isometry,
    check_ultrametric,
    seminorm_order,
)

import random

from .helpers import substitute_y, value

EPS = Fraction(1, 2)
GRID = [("x1", 1), ("x1^2", 1), ("x1*x2+1", 2)]


def report(number, name, passed):
    print(f"criterion {number} ({name}): {'PASS' if passed else 'FAIL'}")
    assert passed


def test_criterion_1_inversion_oracle():
    started = time.monotonic()
    passed = True
    for text, dim in GRID:
        for level in (1, 2):
            f = parse_poly(text, dim)
            s = compose(f, ev_series(dim, level, 8))
            t = invert_series(s, level)
            product = s * t
            passed = passed and product.cap > 0
            for m, c in product.coeffs.items():
                passed = passed and (c == 1 if m == 0 else not c)
            passed = passed and product.coeffs[0] == 1
    elapsed = time.monotonic() - started
    report(1, "inversion oracle", passed and elapsed < 5.0)


def test_criterion_2_factoring_witness():
    passed = True
    for text, dim in GRID:
        for level in (1, 2):
            f = parse_poly(text, dim)
            s = compose(f, ev_series(dim, level, 8))
            t = invert_series(s, level)
            lead = s.coeffs[min(s.coeffs)]
            window = (s.cap - min(s.coeffs)) - f.total_degree() * level
            for relation in complement_relations(f, dim, level, window):
                value = substitute_y(relation.generator, t, lead)
                passed = passed and not value
    report(2, "factoring witness", passed)


def test_criterion_3_good_elements():
    passed = True
    for text, dim in GRID:
        f = parse_poly(text, dim)
        composite = compose(f, ev_series(dim, 4, 8))
        passed = passed and check_good(composite, range(5), 5).passed
    coordinate = compose(parse_poly("x1", 1), ev_series(1, 4, 8))
    for level in range(5):
        norm = value(seminorm_order(coordinate, level))
        passed = passed and norm == (EPS ** (-level), False)
    report(3, "good elements", passed)


def test_criterion_4_isometry():
    rng = random.Random(2026)
    pairs = []
    for _ in range(100):
        series = random_series(rng, dim=2, level=4, floor=-4, cap=4)
        pairs.append((series, series))
    result = check_isometry(pairs, range(5))
    report(4, "isometric inclusion", result.passed and len(pairs) == 100)


def test_criterion_5_projector_convergence():
    started = time.monotonic()
    passed = True
    for j in range(-2, 3):
        for norm_level in range(3):
            rows = convergence_experiment(
                1, None, j, range(1, 9), norm_level, 11
            )
            distances = [value(row.order)[0] for row in rows]
            passed = passed and all(
                a >= b for a, b in zip(distances, distances[1:])
            )
            for row in rows:
                if row.n >= max(norm_level, abs(j)) + 1:
                    passed = passed and value(row.order) == (EPS ** (row.n + 1), False)
    elapsed = time.monotonic() - started
    report(5, "projector convergence", passed and elapsed < 10.0)


def test_criterion_6_density_realization():
    f = parse_poly("x1", 1)
    passed = True
    for n in range(1, 7):
        result = approximate_coefficient(f, 1, 1, n, 1, 12)
        passed = passed and value(result.order) == (EPS ** (n + 1), False)
        passed = passed and isinstance(result.element, LocalizedElem)
        passed = passed and result.element.pow <= 2 * n + 1
        passed = passed and result.commutes
    report(6, "density realization", passed)


def test_criterion_7_ultrametric_and_submultiplicative():
    rng = random.Random(77)
    pairs = []
    for _ in range(200):
        s = random_series(rng, dim=1, level=3, floor=-3, cap=4)
        t = random_series(rng, dim=1, level=3, floor=-3, cap=4)
        pairs.append((s, t))
    result = check_ultrametric(pairs, range(4))
    report(7, "ultrametric and sub-multiplicative", result.passed and len(pairs) == 200)


def test_criterion_8_cli_determinism(tmp_path):
    commands = [
        ["relations", "--f", "x1*x2 + 1", "--d", "2", "--n", "1", "--cap", "3"],
        ["relations", "--complement", "--f", "x1", "--d", "1", "--n", "1",
         "--cap", "2"],
        ["ev", "--d", "2", "--n", "1", "--cap", "3"],
        ["invert", "--f", "x1^2", "--d", "1", "--n", "1", "--cap", "5"],
        ["norm", "--f", "x1", "--d", "1", "--n", "3", "--levels", "0,1,2,3"],
        ["converge", "--mode", "plain", "--j", "0", "--n-max", "5", "--N", "1",
         "--d", "1", "--cap", "8"],
        ["converge", "--mode", "complement", "--f", "x1", "--d", "1", "--j", "1",
         "--n-max", "3", "--N", "1", "--cap", "8"],
        ["approx", "--f", "x1", "--d", "1", "--j", "1", "--band", "2", "--N", "1",
         "--cap", "8"],
        ["check", "good", "--f", "x1^2", "--d", "1", "--cap", "6",
         "--levels", "0,1,2", "--seed", "5"],
        ["check", "isometry", "--d", "1", "--samples", "25", "--seed", "5"],
        ["check", "ultrametric", "--d", "1", "--samples", "25", "--seed", "5"],
    ]
    passed = True
    for index, command in enumerate(commands):
        first = tmp_path / f"first{index}"
        second = tmp_path / f"second{index}"
        code_a = main(command + ["--output", str(first)])
        code_b = main(command + ["--output", str(second)])
        passed = passed and code_a == 0 and code_b == 0
        passed = passed and first.read_bytes() == second.read_bytes()
    report(8, "CLI determinism", passed)
