"""Sparse multivariate polynomials over exact rationals.

The variable set is doubly indexed: for an ambient dimension d there are
coordinate families ``x1 .. xd``, each carrying an integer Laurent index
(``x1_-1``, ``x2_3``, ...), plus a single inverse family ``y_j`` used on the
hypersurface-complement side.  Ambient polynomials (inputs like ``x1*x2 + 1``)
use a sentinel Laurent index; the index only becomes meaningful once the
polynomial is composed with coordinate series.

Representation:

    Poly.terms : dict mapping a monomial to a nonzero Fraction
    monomial   : tuple of (VarRef, exponent) pairs, sorted by VarRef,
                 exponents >= 1; the empty tuple is the constant monomial

Zero coefficients are never stored, so two polynomials are equal exactly
when their term dicts are equal. Terms are ordered by graded lex (total
degree, then exponents in VarRef order), largest first; the order is a
single sort key, ``_mono_key``, used both for printing and for picking
leading terms in ``div_exact``. All coefficient arithmetic is exact
rational arithmetic; nothing here ever rounds.
"""

from fractions import Fraction
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


def _mono_degree(mono):
    return sum(exp for _, exp in mono)


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
    return (-_mono_degree(mono), tuple((ref, -exp) for ref, exp in mono))


def _mono_div(mono, den_mono):
    """The monomial mono/den_mono, or None when den_mono does not divide mono."""
    exp = dict(mono)  # keeps mono's sorted order; no variable is added
    for ref, e in den_mono:
        if exp.get(ref, 0) < e:
            return None
        exp[ref] -= e
    return tuple((ref, e) for ref, e in exp.items() if e)


def _mono_render(mono):
    return "*".join(
        ref.render() if exp == 1 else f"{ref.render()}^{exp}" for ref, exp in mono
    )


class Poly:
    """Immutable-by-convention sparse polynomial with Fraction coefficients."""

    __slots__ = ("terms",)
    __hash__ = None

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for mono, coeff in terms.items():
                coeff = Fraction(coeff)
                if coeff:
                    clean[mono] = coeff
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "Poly":
        return cls()

    @classmethod
    def const(cls, value) -> "Poly":
        return cls({(): Fraction(value)})

    @classmethod
    def variable(cls, ref: VarRef) -> "Poly":
        return cls({((ref, 1),): Fraction(1)})

    # -- ring structure ----------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

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
            out[mono] = out.get(mono, Fraction(0)) + coeff
        return Poly(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly({mono: -coeff for mono, coeff in self.terms.items()})

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            scalar = Fraction(other)
            return Poly({m: c * scalar for m, c in self.terms.items()})
        if not isinstance(other, Poly):
            return NotImplemented
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = _mono_mul(m1, m2)
                out[mono] = out.get(mono, Fraction(0)) + c1 * c2
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        return power_by_squaring(self, exponent, Poly.const(1))

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
        return Poly(out)

    # -- printing ----------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        ordered = sorted(self.terms.items(), key=lambda kv: _mono_key(kv[0]))
        for i, (mono, coeff) in enumerate(ordered):
            sign = "-" if coeff < 0 else "+"
            mag = -coeff if coeff < 0 else coeff
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = _mono_render(mono)
            else:
                body = f"{mag}*{_mono_render(mono)}"
            if i == 0:
                parts.append(body if sign == "+" else f"-{body}")
            else:
                parts.append(f" {sign} {body}")
        return "".join(parts)

    def __repr__(self):
        return f"Poly({self})"


def power_by_squaring(base, exponent: int, one):
    """base ** exponent by repeated squaring; `one` is the result for 0."""
    if exponent < 0:
        raise ValueError("negative powers are not defined here")
    result = None
    while exponent:
        if exponent & 1:
            result = base if result is None else result * base
        exponent >>= 1
        if exponent:
            base = base * base
    return one if result is None else result


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


def div_exact(num: Poly, den: Poly):
    """Exact polynomial quotient num/den, or None when den does not divide num.

    Long division against the single divisor `den`, cancelling leading terms
    in the canonical monomial order. For an exact multiple the remainder
    reaches zero; any step whose leading monomial is not divisible by
    den's leading monomial proves indivisibility.
    """
    if not den:
        raise ZeroDivisionError("division by the zero polynomial")
    if not num:
        return Poly.zero()
    if len(den.terms) == 1:
        # Monomial divisor: divide every term directly.
        ((den_mono, den_coeff),) = den.terms.items()
        out = {}
        for mono, coeff in num.terms.items():
            q_mono = _mono_div(mono, den_mono)
            if q_mono is None:
                return None
            out[q_mono] = coeff / den_coeff
        return Poly(out)
    den_mono = min(den.terms, key=_mono_key)
    den_coeff = den.terms[den_mono]
    quotient = {}
    rem = dict(num.terms)
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
    return Poly(quotient)


# -- parsing ------------------------------------------------------------------

_OPS = set("+-*^()")


def _tokenize(text):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPS:
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("int", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], i))
            i = j
            continue
        raise PolyParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", len(text)))
    return tokens


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
            exponent = int(tok[1])
            if exponent < 1:
                raise PolyParseError("exponent must be a positive integer", tok[2])
            return base ** exponent
        return base

    def atom(self) -> Poly:
        kind, text, pos = self.advance()
        if kind == "int":
            return Poly.const(int(text))
        if kind == "ident":
            if len(text) > 1 and text[0] == "x" and text[1:].isdigit():
                coord = int(text[1:])
                if 1 <= coord <= self.dim:
                    return xvar(coord)
            raise UnknownVariableError(
                f"unknown variable {text!r} (expected x1..x{self.dim})", pos
            )
        if kind == "(":
            poly = self.expr()
            self.expect(")")
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
