"""Seeded operation lists for the loopalg benchmark, and the output checks.

An operation is one ``loopalg`` command line. Each workload in
``workloads.json`` lists slots; one round draws one operation per slot, in
an order shuffled by the seed, so every round has the same command mix and
cap ranges and only the drawn polynomials and parameters vary.

The checks run outside the timed region. Each command kind has an exact
oracle that reads the command's stdout:

* ``invert``: the printed inverse t satisfies s*t = 1 on its whole window,
  where s = f(x(z)) is rebuilt here without loopalg. The identity is tested
  by evaluating every polynomial at a random point modulo the prime 2^61-1
  (Schwartz-Zippel), so a wrong coefficient is missed with probability
  below 1e-15.
* ``approx``: ``model_commutes`` is true.
* ``check``: ``passed`` is true. A failed ``check good`` is rerun through
  the library at the cap that includes the (degree-1)*level boost, to say
  whether the FAIL is an artefact of the missing boost.
* ``relations``: one record per exponent of the window [floor, cap).
* ``norm`` and ``converge``: one row per level or band, every value 0 or a
  power of epsilon = 1/2.
"""

import csv
import io
import json
import random
import re
from collections import Counter
from fractions import Fraction
from typing import NamedTuple

COEFFS = (-2, -1, 1, 2, 3)
PRIME = (1 << 61) - 1


class Op(NamedTuple):
    index: int
    kind: str
    argv: tuple
    params: dict


# -- generation ---------------------------------------------------------------


def _draw(source, bounds):
    return source.randint(bounds[0], bounds[1])


def _monomial(source, d, degree):
    exps = [0] * d
    for _ in range(degree):
        exps[source.randrange(d)] += 1
    return tuple(exps)


def _hypersurface(shape, rng, d, degree, lead, extra_terms):
    """Terms {exponent tuple: int coefficient} of a random polynomial.

    The top-degree part is one monomial for lead "monomial" and two for
    "multiterm" (which needs d >= 2). At truncation level n >= 1 the lowest
    coefficient of f(x(z)) is that top-degree part evaluated at the
    x{i}_-n, so the lead shape is fixed here. `shape` draws the monomials;
    `rng` draws the coefficients and a relabelling of the coordinates,
    neither of which changes the amount of work much.
    """
    monos = []
    while len(monos) < (2 if lead == "multiterm" else 1):
        mono = _monomial(shape, d, degree)
        if mono not in monos:
            monos.append(mono)
    for _ in range(extra_terms):
        mono = _monomial(shape, d, shape.randrange(degree))
        if mono not in monos:
            monos.append(mono)
    perm = rng.sample(range(d), d)
    return {tuple(mono[p] for p in perm): rng.choice(COEFFS) for mono in monos}


def render_poly(terms):
    """Ambient polynomial text in the CLI's input grammar."""
    parts = []
    for exps, coeff in sorted(terms.items(), key=lambda kv: (-sum(kv[0]), kv[0])):
        factors = [
            f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}" for i, e in enumerate(exps) if e
        ]
        body = "*".join(factors)
        mag = abs(coeff)
        if not body:
            text = str(mag)
        elif mag == 1:
            text = body
        else:
            text = f"{mag}*{body}"
        if not parts:
            parts.append(f"-{text}" if coeff < 0 else text)
        else:
            parts.append(f" {'-' if coeff < 0 else '+'} {text}")
    return "".join(parts)


def _levels_text(top):
    return ",".join(str(level) for level in range(top + 1))


def _draw_op(shape, rng, slot):
    """One op of a slot. Everything that sets the amount of work (command,
    dimension, degrees, caps, levels, bands) comes from `shape`; the seeded
    `rng` draws coefficients, coordinate labels and sample seeds."""
    kind = slot["kind"]
    d = _draw(shape, slot["d"])
    params = {"d": d}
    if "degree" in slot:
        degree = _draw(shape, slot["degree"])
        lead = slot.get("lead", "monomial")
        if lead == "any":
            lead = "multiterm" if d > 1 and shape.random() < 0.5 else "monomial"
        terms = _hypersurface(shape, rng, d, degree, lead, _draw(shape, slot["extra_terms"]))
        params.update(terms=terms, degree=degree, lead=lead, f=render_poly(terms))
    cap = _draw(shape, slot["cap"])
    params["cap"] = cap
    common = ["--d", str(d), "--cap", str(cap)]
    if kind in ("invert", "relations", "relations_complement", "norm"):
        n = _draw(shape, slot["level"])
        params["n"] = n
        common += [f"--f={params['f']}", "--n", str(n)]
    if kind == "invert":
        argv = ["invert"] + common
    elif kind == "relations":
        argv = ["relations"] + common
    elif kind == "relations_complement":
        argv = ["relations", "--complement"] + common
    elif kind == "norm":
        params["levels"] = _levels_text(_draw(shape, slot["levels_max"]))
        argv = ["norm"] + common + ["--levels", params["levels"]]
    elif kind in ("approx", "converge"):
        # Slot j >= degree with norm level >= 1 puts the loop level at >= 1,
        # where the lowest coefficient is the single top-degree monomial.
        params["j"] = params["degree"] + shape.randint(0, 1)
        params["N"] = _draw(shape, slot["N"])
        tail = [f"--f={params['f']}", "--j", str(params["j"]), "--N", str(params["N"])]
        if kind == "approx":
            params["band"] = _draw(shape, slot["band"])
            argv = ["approx"] + common + tail + ["--band", str(params["band"])]
        else:
            # The widest band must stay below the cap (cap > n_max + 1).
            params["n_max"] = min(_draw(shape, slot["n_max"]), cap - 2)
            argv = (
                ["converge", "--mode", "complement"]
                + common
                + tail
                + ["--n-max", str(params["n_max"])]
            )
    elif kind == "check_good":
        params["levels"] = _levels_text(_draw(shape, slot["levels_max"]))
        argv = ["check", "good"] + common + [f"--f={params['f']}", "--levels", params["levels"]]
    elif kind == "check_ultrametric":
        params["levels"] = _levels_text(_draw(shape, slot["levels_max"]))
        argv = ["check", "ultrametric"] + common + [
            "--levels", params["levels"],
            "--samples", str(_draw(shape, slot["samples"])),
            "--seed", str(rng.randrange(10**6)),
        ]
    else:
        raise ValueError(f"unknown slot kind {kind!r}")
    return kind, tuple(argv), params


def validate(name, workload):
    """The recorded command mix and multi-term share must match the slots."""
    slots = workload["slots"]
    mix = Counter(slot["kind"] for slot in slots)
    if dict(mix) != workload["command_mix"]:
        raise ValueError(f"{name}: command_mix {workload['command_mix']} != slots {dict(mix)}")
    multi = sum(slot.get("lead") == "multiterm" for slot in slots)
    if multi != workload["multiterm_lead_slots"]:
        raise ValueError(f"{name}: multiterm_lead_slots is not {multi}")


def generate(workload, seed, rounds, cycle_rounds):
    """The operation list of one workload for one seed.

    Shapes repeat every `cycle_rounds` rounds and are the same for every
    seed, so a run of whole cycles does the same mix of work on any seed;
    the seed draws the rest, and the order of the ops within each round.
    """
    if rounds % cycle_rounds:
        raise ValueError("rounds must be a whole number of cycles")
    rng = random.Random(seed)
    ops = []
    for r in range(rounds):
        shape = random.Random(r % cycle_rounds)
        drawn = [_draw_op(shape, rng, slot) for slot in workload["slots"]]
        rng.shuffle(drawn)
        ops += [Op(len(ops) + i, *op) for i, op in enumerate(drawn)]
    return ops


# -- modular evaluation of rendered output ---------------------------------------

_TOKEN = re.compile(r"\s*(?:(\d+)|([xy]\d*_-?\d+)|(\S))")


class _Evaluator:
    """Evaluates loopalg's rendered rational expressions modulo PRIME.

    Grammar: expr := ['-'] term (('+'|'-') term)*; term := factor
    (('*'|'/') factor)*; factor := atom ['^' INT]; atom := INT | variable
    | '(' expr ')'. Variables get random residues drawn on first use.
    """

    def __init__(self, rng):
        self.rng = rng
        self.values = {}

    def var(self, name):
        value = self.values.get(name)
        if value is None:
            value = self.values[name] = self.rng.randrange(1, PRIME)
        return value

    def __call__(self, text):
        self.tokens = _TOKEN.finditer(text)
        self._advance()
        value = self.expr()
        if self.tok != ("", "", ""):
            raise ValueError(f"trailing text in {text[:60]!r}")
        return value

    def _advance(self):
        match = next(self.tokens, None)
        self.tok = match.groups("") if match else ("", "", "")

    def _peek(self):
        return self.tok[2]

    def expr(self):
        negate = self._peek() == "-"
        if negate:
            self._advance()
        value = self.term()
        if negate:
            value = -value % PRIME
        while self._peek() in ("+", "-"):
            op = self._peek()
            self._advance()
            rhs = self.term()
            value = (value + rhs if op == "+" else value - rhs) % PRIME
        return value

    def term(self):
        value = self.factor()
        while self._peek() in ("*", "/"):
            op = self._peek()
            self._advance()
            rhs = self.factor()
            if op == "*":
                value = value * rhs % PRIME
            else:
                if rhs == 0:
                    raise ZeroDivisionError("denominator vanished at the sample point")
                value = value * pow(rhs, PRIME - 2, PRIME) % PRIME
        return value

    def factor(self):
        value = self.atom()
        if self._peek() == "^":
            self._advance()
            value = pow(value, int(self.tok[0]), PRIME)
            self._advance()
        return value

    def atom(self):
        num, name, sym = self.tok
        self._advance()
        if num:
            return int(num) % PRIME
        if name:
            return self.var(name)
        if sym == "(":
            value = self.expr()
            self._advance()  # ')'
            return value
        raise ValueError(f"unexpected token {sym!r}")


def _split_series(text):
    """Top-level ' + ' parts of a rendered TruncSeries."""
    parts, depth, start = [], 0, 0
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0 and text.startswith(" + ", i):
            parts.append(text[start:i])
            i += 3
            start = i
            continue
        i += 1
    parts.append(text[start:])
    return parts


def _strip_wrap(text):
    """Drop the parentheses TruncSeries puts around a whole coefficient."""
    if not text.startswith("("):
        return text
    depth = 0
    for i, ch in enumerate(text):
        depth += ch == "("
        depth -= ch == ")"
        if depth == 0:
            return text[1:-1] if i == len(text) - 1 else text
    return text


def _parse_inverse(text, evaluate, lead_text):
    """Coefficients (exponent -> residue) and cap of a printed inverse.

    A LocalizedCoef prints as num/base^p with the base unparenthesized when
    it has one term, so "1/2*x1_-1" means 1/(2*x1_-1). The base is the
    printed lead, so the split is made at that known suffix.
    """
    base = f"({lead_text})" if " " in lead_text else lead_text
    suffix = re.compile("/" + re.escape(base) + r"(?:\^(\d+))?$")
    lead = evaluate(lead_text)
    coeffs, cap = {}, None
    for part in _split_series(text):
        if part.startswith("O(z^"):
            cap = int(part[4:-1])
            continue
        body, _, exponent = part.rpartition("*z^")
        body = _strip_wrap(body)
        match = suffix.search(body)
        if match:
            den = pow(lead, int(match.group(1) or 1), PRIME)
            value = evaluate(body[: match.start()]) * pow(den, PRIME - 2, PRIME)
        else:
            value = evaluate(body)
        coeffs[int(exponent)] = value % PRIME
    return coeffs, cap


def _laurent_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            out[ea + eb] = (out.get(ea + eb, 0) + ca * cb) % PRIME
    return out


def _composite(params, evaluate, n):
    """f(x(z)) with x{i}(z) = sum of x{i}_j z^j over j in [-n, cap), at the
    sample point, as exponent -> residue (every coefficient exact)."""
    d, cap = params["d"], params["cap"]
    coords = [
        {j: evaluate.var(f"x{i}_{j}") for j in range(-n, cap)} for i in range(1, d + 1)
    ]
    total = {}
    for exps, coeff in params["terms"].items():
        term = {0: coeff % PRIME}
        for i, e in enumerate(exps):
            for _ in range(e):
                term = _laurent_mul(term, coords[i])
        for m, c in term.items():
            total[m] = (total.get(m, 0) + c) % PRIME
    return total


_INVERT = re.compile(r"f_min: exponent (-?\d+), lead (.*)\ninverse: (.*)\n\Z", re.S)


def _check_invert(op, stdout, rng):
    match = _INVERT.match(stdout)
    if not match:
        return "stdout is not an f_min/inverse report"
    p = op.params
    n, degree = p["n"], p["degree"]
    m_low = -n * degree
    if int(match.group(1)) != m_low:
        return f"f_min exponent {match.group(1)}, expected {m_low}"
    evaluate = _Evaluator(rng)
    lead = sum(
        c * evaluate(
            "*".join(f"x{i + 1}_{-n}^{e}" for i, e in enumerate(exps) if e)
        )
        for exps, c in p["terms"].items()
        if sum(exps) == degree
    ) % PRIME
    if evaluate(match.group(2)) != lead:
        return "f_min lead is not the top-degree part at x_-n"
    t, cap_t = _parse_inverse(match.group(3), evaluate, match.group(2))
    width = p["cap"] + n
    if cap_t != width - m_low:
        return f"inverse cap {cap_t}, expected {width - m_low}"
    s = _composite(p, evaluate, n)
    for r in range(width):
        acc = sum(s.get(r - b, 0) * c for b, c in t.items()) % PRIME
        if acc != (1 if r == 0 else 0):
            return f"s*t differs from 1 at z^{r}"
    return None


def _is_power_of_half(text):
    value = Fraction(text)
    if value == 0:
        return True
    num, den = value.numerator, value.denominator
    return (num == 1 and den & (den - 1) == 0) or (den == 1 and num & (num - 1) == 0)


def _check_relations(op, stdout, complement):
    p = op.params
    floor = -p["n"] * (p["degree"] + (1 if complement else 0))
    records = json.loads(stdout)
    exponents = [r["exponent"] for r in records]
    if exponents != list(range(floor, p["cap"])):
        return f"exponents {exponents[:3]}..{exponents[-1:]} are not the window [{floor}, {p['cap']})"
    if not all(isinstance(r["generator"], str) for r in records):
        return "a generator is not a string"
    return None


def _check_norm(op, stdout):
    records = json.loads(stdout)
    levels = [int(v) for v in op.params["levels"].split(",")]
    if [r["level"] for r in records] != levels:
        return "not one record per level"
    if not all(_is_power_of_half(r["value"]) for r in records):
        return "a value is not 0 or a power of 1/2"
    return None


def _check_converge(op, stdout):
    rows = list(csv.reader(io.StringIO(stdout)))
    if rows[0] != ["n", "ord_exponent", "distance_as_rational", "upper_bound_flag"]:
        return "unexpected CSV header"
    if [int(r[0]) for r in rows[1:]] != list(range(1, op.params["n_max"] + 1)):
        return "not one row per band"
    if not all(_is_power_of_half(r[2]) for r in rows[1:]):
        return "a distance is not 0 or a power of 1/2"
    return None


def _check_good_rerun(op):
    """Whether a failed check good passes once the cap carries the boost."""
    from loopalg import loopspace, seminorm
    from loopalg.exactpoly import parse_poly

    p = op.params
    levels = [int(v) for v in p["levels"].split(",")]
    cap = p["cap"] + max(0, p["degree"] - 1) * max(levels)
    f = parse_poly(p["f"], p["d"])
    try:
        composite = loopspace.compose(f, loopspace.ev_series(p["d"], max(levels), cap))
        passed = seminorm.check_good(composite, levels, 3).passed
    except Exception as exc:  # the verdict only annotates a failure already counted
        return f"rerun at the boosted cap {cap} raised {type(exc).__name__}: {exc}"
    verdict = "false FAIL: passes" if passed else "FAIL persists"
    return f"{verdict} at the boosted cap {cap}"


def check(op, rc, stdout, stderr):
    """None when the output is right, else the reason the op failed."""
    if rc != 0 and not stdout:
        return f"exit {rc}: {stderr.strip()[:200]}"
    try:
        if op.kind == "invert":
            reason = _check_invert(op, stdout, random.Random(op.index))
        elif op.kind in ("relations", "relations_complement"):
            reason = _check_relations(op, stdout, op.kind == "relations_complement")
        elif op.kind == "norm":
            reason = _check_norm(op, stdout)
        elif op.kind == "converge":
            reason = _check_converge(op, stdout)
        elif op.kind == "approx":
            reason = None if json.loads(stdout)["model_commutes"] is True else "model_commutes is false"
        else:
            reason = None if json.loads(stdout)["passed"] is True else "passed is false"
            if reason and op.kind == "check_good":
                reason = f"{reason}; {_check_good_rerun(op)}"
    except (ValueError, KeyError, IndexError, TypeError, ZeroDivisionError) as exc:
        reason = f"unreadable output: {type(exc).__name__}: {exc}"
    if rc != 0:
        return f"exit {rc}" + (f"; {reason}" if reason else "")
    return reason
