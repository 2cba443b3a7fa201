"""Sparse multivariate polynomials over exact rationals.

The variable set is doubly indexed: for an ambient dimension d there are
coordinate families ``x1 .. xd``, each carrying an integer Laurent index
(``x1_-1``, ``x2_3``, ...), plus a single inverse family ``y_j`` used on the
hypersurface-complement side.  Ambient polynomials (inputs like ``x1*x2 + 1``)
use a sentinel Laurent index; the index only becomes meaningful once the
polynomial is composed with coordinate series.

Representation:

    Poly.terms : dict mapping a monomial to a nonzero coefficient, an int
                 when it is integral and a Fraction otherwise
    monomial   : tuple of (VarRef, exponent) pairs, sorted by VarRef,
                 exponents >= 1; the empty tuple is the constant monomial

Zero coefficients are never stored and every coefficient is in the form
``_exact`` gives it, so two polynomials are equal exactly when their term
dicts are equal. Integer coefficients stay machine-cheap ``int``s; a
``Fraction`` appears only where a real denominator does. The public
``Poly(terms)`` constructor checks and normalises what it is given; the
kernel's own results (sums, negations, products, quotients, projections)
are built by ``_trusted``, which takes a dict already in that form. A
product, and a whole sum of products (``sum_of_products``), adds every term
product into one term table and builds a single Poly from it at the end.

Terms are ordered by graded lex (total degree, then exponents in VarRef
order), largest first; the order is a single sort key, ``_mono_key``, used
both for printing and for picking leading terms in ``div_exact``. The
printed text of each (VarRef, exponent) factor is made once per process and
kept in a table keyed by the factor. Division by a multi-term divisor keeps
its remainder in a heap ordered by that key, so each step finds its leading
term without rescanning the remainder. All
coefficient arithmetic is exact rational arithmetic; nothing here ever
rounds.
"""

import re
from fractions import Fraction
from heapq import heapify, heappop, heappush
from operator import itemgetter
from typing import NamedTuple, Union

from .errors import DimensionMismatchError, PolyParseError, UnknownVariableError

# Sentinel Laurent index for ambient variables. Compares above every real
# index, which keeps VarRef totally ordered as a plain tuple.
AMBIENT = float("inf")


class VarRef(NamedTuple):
    """A single variable: family 'x' (coordinate, 1-based) or 'y' (inverse)."""

    family: str
    coord: int
    index: Union[int, float]

    def render(self) -> str:
        if self.family == "y":
            return f"y_{self.index}"
        if self.index == AMBIENT:
            return f"x{self.coord}"
        return f"x{self.coord}_{self.index}"


def _mono_mul(m1, m2):
    """Merge two sorted (VarRef, exp) tuples, adding exponents."""
    if not m1:
        return m2
    if not m2:
        return m1
    merged = dict(m1)
    for ref, exp in m2:
        merged[ref] = merged.get(ref, 0) + exp
    return tuple(sorted(merged.items()))


class _FactorTable(dict):
    """The printed text of each (VarRef, exponent) factor, made on the first
    lookup and kept for the rest of the process. A process sees few distinct
    factors (variables times exponents), while every printed term looks its
    factors up again."""

    def __missing__(self, factor):
        ref, exp = factor
        text = ref.render() if exp == 1 else f"{ref.render()}^{_digits(exp)}"
        self[factor] = text
        return text


_FACTOR_TEXT = _FactorTable()
_exponent = itemgetter(1)


def _mono_degree(mono):
    return sum(map(_exponent, mono))


def _mono_key(mono):
    """Sort key of the graded lexicographic term order, largest monomial first.

    Total degree first; ties broken on the first variable (in VarRef order)
    whose exponents differ, larger exponent winning. With degree and
    exponents negated this is plain ascending tuple order: where two
    (ref, -exp) lists first differ in ref, the smaller ref is absent from
    the other monomial (exponent 0) and so sorts first. Multiplying both
    monomials by a third shifts every exponent equally, so the order is
    compatible with multiplication; exact division depends on that.
    """
    return (-sum(map(_exponent, mono)), tuple([(ref, -exp) for ref, exp in mono]))


def _mono_div(mono, den_mono):
    """The monomial mono/den_mono, or None when den_mono does not divide mono."""
    exp = dict(mono)  # keeps mono's sorted order; no variable is added
    for ref, e in den_mono:
        if exp.get(ref, 0) < e:
            return None
        exp[ref] -= e
    return tuple((ref, e) for ref, e in exp.items() if e)


def _mono_text(mono):
    return "*".join(map(_FACTOR_TEXT.__getitem__, mono))


def _digits(n: int) -> str:
    """Decimal text of the int n. `str` refuses ints longer than the
    interpreter's digit limit (sys.get_int_max_str_digits); those are split
    at a power of ten into halves that it accepts."""
    try:
        return str(n)
    except ValueError:
        if n < 0:
            return "-" + _digits(-n)
        half = n.bit_length() * 3 // 20  # about half the decimal digits
        high, low = divmod(n, 10 ** half)
        return _digits(high) + _digits(low).zfill(half)


def _int_of_digits(text: str) -> int:
    """The int a digit string spells; `int` refuses strings over the digit
    limit, and those are split into halves that it accepts."""
    try:
        return int(text)
    except ValueError:
        half = len(text) // 2
        low = text[half:]
        return _int_of_digits(text[:half]) * 10 ** len(low) + _int_of_digits(low)


def _coeff_text(coeff) -> str:
    """Text of a coefficient, an int or a Fraction, as `str` writes it."""
    if type(coeff) is int:
        return _digits(coeff)
    return f"{_digits(coeff.numerator)}/{_digits(coeff.denominator)}"


def _exact(value):
    """value as a stored coefficient: an int when integral, else a Fraction."""
    if type(value) is int:
        return value
    if type(value) is not Fraction:
        value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


class Poly:
    """Immutable-by-convention sparse polynomial; coefficients are exact,
    an int when integral and a Fraction otherwise."""

    __slots__ = ("terms",)
    __hash__ = None

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for mono, coeff in terms.items():
                coeff = _exact(coeff)
                if coeff:
                    clean[mono] = coeff
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "Poly":
        return cls()

    @classmethod
    def const(cls, value) -> "Poly":
        return cls({(): value})

    @classmethod
    def variable(cls, ref: VarRef) -> "Poly":
        return _trusted({((ref, 1),): 1})

    # -- ring structure ----------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self.terms == Poly.const(other).terms
        return NotImplemented

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            prev = out.get(mono)
            if prev is None:
                out[mono] = coeff
                continue
            coeff = _exact(prev + coeff)
            if coeff:
                out[mono] = coeff
            else:
                del out[mono]
        return _trusted(out)

    __radd__ = __add__

    def __neg__(self):
        return _trusted({mono: -coeff for mono, coeff in self.terms.items()})

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            scalar = _exact(other)
            if not scalar:
                return Poly()
            return _trusted({m: _exact(c * scalar) for m, c in self.terms.items()})
        if not isinstance(other, Poly):
            return NotImplemented
        out = {}
        _accumulate(out, self, other)
        return _finish(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        return power({0: Poly.const(1), 1: self}, exponent)

    # -- structure queries -------------------------------------------------

    def total_degree(self) -> int:
        """Largest monomial degree; 0 for the zero polynomial."""
        return max((_mono_degree(m) for m in self.terms), default=0)

    def variables(self):
        refs = set()
        for mono in self.terms:
            refs.update(ref for ref, _ in mono)
        return refs

    def is_ambient(self) -> bool:
        """True when every variable is an un-indexed coordinate x{i}."""
        return all(
            ref.family == "x" and ref.index == AMBIENT for ref in self.variables()
        )

    # -- the projection homomorphisms ---------------------------------------

    def project(self, level: int) -> "Poly":
        """Substitute 0 for every variable whose Laurent index is < -level.

        This maps onto the discrete algebra at truncation `level`; it is a
        ring homomorphism (each surviving monomial passes through unchanged,
        each killed one vanishes entirely).
        """
        if level < 0:
            raise ValueError("projection level must be >= 0")
        out = {}
        for mono, coeff in self.terms.items():
            if all(ref.index >= -level for ref, _ in mono):
                out[mono] = coeff
        return _trusted(out)

    # -- printing ----------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for mono in sorted(self.terms, key=_mono_key):
            coeff = self.terms[mono]
            if coeff < 0:
                sign, coeff = " - ", -coeff
            else:
                sign = " + "
            if not mono:
                parts.append(sign + _coeff_text(coeff))
            elif coeff == 1:
                parts.append(sign + _mono_text(mono))
            else:
                parts.append(f"{sign}{_coeff_text(coeff)}*{_mono_text(mono)}")
        # The first term drops the spaces around its sign and a leading "+".
        first = parts[0]
        parts[0] = first[3:] if first[1] == "+" else "-" + first[3:]
        return "".join(parts)

    def __repr__(self):
        return f"Poly({self})"


def _trusted(terms):
    """A Poly holding `terms` itself: every coefficient nonzero and already
    in ``_exact`` form. Only the kernel's own results are built this way."""
    poly = object.__new__(Poly)
    poly.terms = terms
    return poly


def _accumulate(out, p, q):
    """Add every term product of the Polys p and q into the term table `out`,
    whose values are raw sums: zeros and integral Fractions are left for
    `_finish`."""
    q_terms = q.terms.items()
    for m1, c1 in p.terms.items():
        for m2, c2 in q_terms:
            mono = _mono_mul(m1, m2)
            prev = out.get(mono)
            out[mono] = c1 * c2 if prev is None else prev + c1 * c2


def _finish(out):
    """The Poly of a term table `_accumulate` filled."""
    return _trusted({m: _exact(c) for m, c in out.items() if c})


def sum_of_products(pairs):
    """The sum of a*b over the (a, b) pairs; the zero Poly when there are none.

    Every pair of two Polys adds its term products into one term table, so
    the sum builds a single Poly however many pairs it has (the accumulating
    design of S. C. Johnson, "Sparse polynomial arithmetic", EUROSAM 1974).
    Any other pair (a LocalizedCoef, an int or a Fraction) is multiplied and
    added with its own `*` and `+`.
    """
    out = {}
    rest = None
    for a, b in pairs:
        if type(a) is Poly and type(b) is Poly:
            _accumulate(out, a, b)
        else:
            rest = a * b if rest is None else rest + a * b
    if rest is None:
        return _finish(out)
    return rest + _finish(out) if out else rest


def power(table, exponent: int):
    """table[1] ** exponent, made from the powers `table` already holds and
    kept there; table[0], when present, is the result for exponent 0.

    x^k is x^(k-1)*x for odd k and (x^(k/2))^2 for even k: the left-to-right
    binary method (Knuth, TAOCP vol. 2, 4.6.3), bit_length + popcount - 2
    products for a fresh table, each power made once however many callers
    share the table.
    """
    if exponent < 0:
        raise ValueError("negative powers are not defined here")
    missing = []
    k = exponent
    while k > 1 and k not in table:
        missing.append(k)
        k = k - 1 if k & 1 else k >> 1
    for k in reversed(missing):
        if k & 1:
            table[k] = table[k - 1] * table[1]
        else:
            half = table[k >> 1]
            table[k] = half * half
    return table[exponent]


def _coerce(value):
    if isinstance(value, Poly):
        return value
    if isinstance(value, (int, Fraction)):
        return Poly.const(value)
    return NotImplemented


# -- convenience builders ----------------------------------------------------


def xvar(coord: int, index=AMBIENT) -> Poly:
    """The coordinate variable x{coord} (optionally with a Laurent index)."""
    if coord < 1:
        raise ValueError("coordinate index is 1-based")
    return Poly.variable(VarRef("x", coord, index))


def yvar(index: int) -> Poly:
    """The inverse-family variable y_{index}."""
    return Poly.variable(VarRef("y", 0, index))


def const(value) -> Poly:
    return Poly.const(value)


def _quotient(coeff, den_coeff, inverse):
    """coeff / den_coeff in ``_exact`` form, given inverse = 1/Fraction(den_coeff).
    Two ints that divide give their int quotient without a Fraction; any
    other quotient is the Fraction product with the inverse."""
    if type(coeff) is int and type(den_coeff) is int:
        quotient, remainder = divmod(coeff, den_coeff)
        if not remainder:
            return quotient
    return _exact(coeff * inverse)


def div_exact(num: Poly, den: Poly):
    """Exact polynomial quotient num/den, or None when den does not divide num.

    Long division against the single divisor `den`, cancelling leading terms
    in the canonical monomial order. For an exact multiple the remainder
    reaches zero; any step whose leading monomial is not divisible by
    den's leading monomial proves indivisibility. Each coefficient quotient
    is exact, so no division ever rounds (see `_quotient`).

    The remainder of a multi-term division lives in a dict and a heap of
    (_mono_key(m), m), after Monagan & Pearce, "Sparse polynomial division
    using a heap" (J. Symb. Comp. 46(7), 2011). Every term a step adds,
    q_mono*m2 for a non-leading m2 of den, sorts after the lead it cancels
    (the order is compatible with multiplication), so leads are popped in
    order and each monomial enters the heap once; a term that cancels stays
    in the dict as 0 until it is popped and skipped.
    """
    if not den:
        raise ZeroDivisionError("division by the zero polynomial")
    if not num:
        return Poly.zero()
    if len(den.terms) == 1:
        # Monomial divisor: divide every term directly.
        ((den_mono, den_coeff),) = den.terms.items()
        inverse = 1 / Fraction(den_coeff)
        out = {}
        for mono, coeff in num.terms.items():
            q_mono = _mono_div(mono, den_mono)
            if q_mono is None:
                return None
            out[q_mono] = _quotient(coeff, den_coeff, inverse)
        return _trusted(out)
    den_mono = min(den.terms, key=_mono_key)
    den_coeff = den.terms[den_mono]
    inverse = 1 / Fraction(den_coeff)
    tail = [(m, c) for m, c in den.terms.items() if m != den_mono]
    quotient = {}
    rem = dict(num.terms)
    heap = [(_mono_key(m), m) for m in rem]
    heapify(heap)
    while heap:
        mono = heappop(heap)[1]
        coeff = rem.pop(mono)
        if not coeff:
            continue
        q_mono = _mono_div(mono, den_mono)
        if q_mono is None:
            return None
        q_coeff = _quotient(coeff, den_coeff, inverse)
        quotient[q_mono] = q_coeff
        for m2, c2 in tail:
            m = _mono_mul(q_mono, m2)
            prev = rem.get(m)
            if prev is None:
                rem[m] = -q_coeff * c2
                heappush(heap, (_mono_key(m), m))
            else:
                rem[m] = prev - q_coeff * c2
    return _trusted(quotient)


# -- parsing ------------------------------------------------------------------

# One token per match: an ASCII integer, an ASCII identifier, an operator, or
# any other visible character, which is an error. Unicode digits and letters
# ("²", "٣", "é") fall in the last group, so nothing but ASCII is read.
_TOKEN = re.compile(r"\s*(?:([0-9]+)|([A-Za-z_][A-Za-z0-9_]*)|([-+*^()])|(\S))")


def _tokenize(text):
    tokens = []
    for match in _TOKEN.finditer(text):
        number, ident, op, other = match.groups()
        pos = match.start(match.lastindex)
        if other is not None:
            raise PolyParseError(f"unexpected character {other!r}", pos)
        if number is not None:
            tokens.append(("int", number, pos))
        elif ident is not None:
            tokens.append(("ident", ident, pos))
        else:
            tokens.append((op, op, pos))
    tokens.append(("end", "", len(text)))
    return tokens


# Parentheses are the parser's only recursion; this bound keeps deep nesting a
# parse error instead of a RecursionError, even under a deep caller stack.
_MAX_NESTING = 100


class _Parser:
    """Recursive-descent parser for the ambient-polynomial grammar:

        expr   := ['+'|'-'] term (('+'|'-') term)*
        term   := factor ('*' factor)*
        factor := atom ['^' INT]
        atom   := INT | x{i} | '(' expr ')'
    """

    def __init__(self, text, dim):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.dim = dim
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.advance()
        if tok[0] != kind:
            raise PolyParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def parse(self) -> Poly:
        poly = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise PolyParseError(f"unexpected trailing {tok[1]!r}", tok[2])
        return poly

    def expr(self) -> Poly:
        sign = 1
        if self.peek()[0] in ("+", "-"):
            sign = -1 if self.advance()[0] == "-" else 1
        poly = self.term() * sign
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            rhs = self.term()
            poly = poly + rhs if op == "+" else poly - rhs
        return poly

    def term(self) -> Poly:
        poly = self.factor()
        while self.peek()[0] == "*":
            self.advance()
            poly = poly * self.factor()
        return poly

    def factor(self) -> Poly:
        base = self.atom()
        if self.peek()[0] == "^":
            self.advance()
            tok = self.expect("int")
            exponent = _int_of_digits(tok[1])
            if exponent < 1:
                raise PolyParseError("exponent must be a positive integer", tok[2])
            return base ** exponent
        return base

    def atom(self) -> Poly:
        kind, text, pos = self.advance()
        if kind == "int":
            return Poly.const(_int_of_digits(text))
        if kind == "ident":
            if len(text) > 1 and text[0] == "x" and text[1:].isdigit():
                coord = _int_of_digits(text[1:])
                if 1 <= coord <= self.dim:
                    return xvar(coord)
            raise UnknownVariableError(
                f"unknown variable {text!r} (expected x1..x{self.dim})", pos
            )
        if kind == "(":
            if self.depth == _MAX_NESTING:
                raise PolyParseError(
                    f"parentheses nested more than {_MAX_NESTING} deep", pos
                )
            self.depth += 1
            poly = self.expr()
            self.expect(")")
            self.depth -= 1
            return poly
        raise PolyParseError(f"unexpected {text!r}", pos)


def parse_poly(text: str, dim: int) -> Poly:
    """Parse an ambient polynomial in the variables x1..x{dim}.

    Raises PolyParseError (syntax, with position), UnknownVariableError
    (bad identifier or coordinate out of range) or DimensionMismatchError
    (dim < 1).
    """
    if dim < 1:
        raise DimensionMismatchError(f"ambient dimension must be >= 1, got {dim}")
    return _Parser(text, dim).parse()
