"""Exact multivariate polynomial arithmetic over the rationals.

A polynomial is a sparse map from exponent vectors to nonzero rational
coefficients over a fixed, ordered tuple of variable names; a coefficient
is stored as an int when its denominator is 1 and as a Fraction otherwise,
so the common integral case runs on int arithmetic.  The map is canonical
(no zero and no integral Fraction is stored), and an int compares and
hashes like the Fraction of its value, so equal polynomials have equal
term maps, equal hashes and identical printed forms.  Leading terms and
printing use the graded lexicographic order in the declared variable
order.  Values are immutable, so an operation that leaves its operand
unchanged (a product by 1) may return it, and a printed form is kept once
made.  Scalar substitution rewrites the term map; ``compose`` evaluates on
polynomial images, building each power of an image once.

Factorization is deliberately scoped.  The polynomials this engine has
to split are products of variables, linear forms and two fixed smooth
quadrics (a plane conic, and a bidegree-(2,2) form on a 2+2 variable
split), so ``factor`` implements content and monomial extraction,
square-free splitting via gcds with partial derivatives, rational
splitting of degenerate conics, a Gram-determinant irreducibility
certificate for conics, and block-content plus discriminant analysis
for bihomogeneous forms of bidegree at most (2,2).  Anything outside
that class raises FactorError instead of returning an unverified
answer.  Irreducible means irreducible over the algebraic closure of Q,
the constant field the engine assumes: a quadratic that splits only over
an extension of Q is outside the class.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd as _int_gcd, isqrt, lcm
from operator import add, sub
from typing import Iterator, Mapping, Sequence, Union

Scalar = Union[int, Fraction]
Exponents = tuple[int, ...]


class PolyError(Exception):
    """Base class for polynomial-kernel errors."""


class ParseError(PolyError):
    """Raised on malformed expression text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class FactorError(PolyError):
    """The polynomial lies outside the supported factorization class."""


def _grlex(e: Exponents) -> tuple[int, Exponents]:
    return (sum(e), e)


def _scalar(c: Scalar) -> Scalar:
    """An exact coefficient value: an int when integral, else a Fraction."""
    if type(c) is int:
        return c
    if isinstance(c, float):
        raise PolyError(f"inexact coefficient {c!r}; use an int or a Fraction")
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _ints(terms: dict[Exponents, Scalar]) -> dict[Exponents, Scalar]:
    """Store the integral Fraction values of a term map as ints, in place."""
    for e, c in terms.items():
        if type(c) is Fraction and c.denominator == 1:
            terms[e] = c.numerator
    return terms


def _quo(c: Scalar, d: Scalar) -> Scalar:
    """The exact quotient c / d, an int when d divides c."""
    q, r = divmod(c, d)
    return q if not r else Fraction(c) / d


class Poly:
    """Immutable sparse polynomial; int or Fraction coefficients as the
    module docstring describes, read back as Fraction by the accessors."""

    __slots__ = ("variables", "_terms", "_hash", "_str")

    def __init__(self, variables: Sequence[str], terms: Mapping[Exponents, Scalar]):
        vs = tuple(variables)
        n = len(vs)
        tm: dict[Exponents, Scalar] = {}
        for exps, c in terms.items():
            cf = _scalar(c)
            if cf == 0:
                continue
            e = tuple(exps)
            if len(e) != n:
                raise PolyError(f"exponent vector {e} does not match variables {vs}")
            if any(type(k) is not int or k < 0 for k in e):
                raise PolyError(f"exponents must be non-negative ints, got {e}")
            tm[e] = tm.get(e, 0) + cf
        self.variables = vs
        self._terms = _ints({e: c for e, c in tm.items() if c != 0})
        self._hash: int | None = None
        self._str: str | None = None

    @classmethod
    def _raw(cls, variables: tuple[str, ...], terms: dict[Exponents, Scalar]) -> Poly:
        # internal constructor: terms assumed canonical
        self = object.__new__(cls)
        self.variables = variables
        self._terms = terms
        self._hash = None
        self._str = None
        return self

    # ------------------------------------------------------------------ basics

    @staticmethod
    def zero(variables: Sequence[str]) -> Poly:
        return Poly._raw(tuple(variables), {})

    @staticmethod
    def const(variables: Sequence[str], value: Scalar) -> Poly:
        vs = tuple(variables)
        c = _scalar(value)
        if c == 0:
            return Poly._raw(vs, {})
        return Poly._raw(vs, {(0,) * len(vs): c})

    @staticmethod
    def var(variables: Sequence[str], name: str) -> Poly:
        vs = tuple(variables)
        if name not in vs:
            raise PolyError(f"unknown variable {name!r} for {vs}")
        e = [0] * len(vs)
        e[vs.index(name)] = 1
        return Poly._raw(vs, {tuple(e): 1})

    @staticmethod
    def monomial(variables: Sequence[str], exps: Mapping[str, int], coeff: Scalar = 1) -> Poly:
        vs = tuple(variables)
        e = [0] * len(vs)
        for name, k in exps.items():
            if name not in vs:
                raise PolyError(f"unknown variable {name!r} for {vs}")
            e[vs.index(name)] = k
        return Poly(vs, {tuple(e): coeff})

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return all(all(k == 0 for k in e) for e in self._terms)

    def constant_value(self) -> Fraction:
        if self.is_zero():
            return Fraction(0)
        if not self.is_constant():
            raise PolyError(f"{self} is not constant")
        return Fraction(next(iter(self._terms.values())))

    def terms(self) -> Iterator[tuple[Exponents, Scalar]]:
        """Terms in descending graded-lex order."""
        for e in sorted(self._terms, key=_grlex, reverse=True):
            yield e, self._terms[e]

    def coefficient(self, exps: Exponents) -> Fraction:
        return Fraction(self._terms.get(tuple(exps), 0))

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(sum(e) for e in self._terms)

    def _index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise PolyError(f"unknown variable {name!r} for {self.variables}") from None

    def degree_in(self, name: str) -> int:
        i = self._index(name)
        if not self._terms:
            return -1
        return max(e[i] for e in self._terms)

    def min_degree_in(self, name: str) -> int:
        i = self._index(name)
        if not self._terms:
            return 0
        return min(e[i] for e in self._terms)

    def effective_variables(self) -> tuple[str, ...]:
        return tuple(v for i, v in enumerate(self.variables)
                     if any(e[i] for e in self._terms))

    def leading(self) -> tuple[Exponents, Scalar]:
        if not self._terms:
            raise PolyError("zero polynomial has no leading term")
        e = max(self._terms, key=_grlex)
        return e, self._terms[e]

    # -------------------------------------------------------------- arithmetic

    def _check(self, other: Poly) -> None:
        if self.variables != other.variables:
            raise PolyError(
                f"variable lists differ: {self.variables} vs {other.variables}")

    def __add__(self, other: Poly | Scalar) -> Poly:
        if not isinstance(other, Poly):
            other = Poly.const(self.variables, other)
        self._check(other)
        out = dict(self._terms)
        for e, c in other._terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return Poly._raw(self.variables, _ints(out))

    __radd__ = __add__

    def __neg__(self) -> Poly:
        return Poly._raw(self.variables, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other: Poly | Scalar) -> Poly:
        if not isinstance(other, Poly):
            other = Poly.const(self.variables, other)
        return self + (-other)

    def __rsub__(self, other: Scalar) -> Poly:
        return (-self) + other

    def __mul__(self, other: Poly | Scalar) -> Poly:
        if not isinstance(other, Poly):
            c = _scalar(other)
            if c == 0:
                return Poly.zero(self.variables)
            if c == 1:
                return self
            return Poly._raw(self.variables,
                             _ints({e: k * c for e, k in self._terms.items()}))
        self._check(other)
        if not self._terms or not other._terms:
            return Poly.zero(self.variables)
        out: dict[Exponents, Scalar] = {}
        for ea, ca in self._terms.items():
            for eb, cb in other._terms.items():
                e = tuple(map(add, ea, eb))
                s = out.get(e, 0) + ca * cb
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return Poly._raw(self.variables, _ints(out))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> Poly:
        if not isinstance(k, int) or k < 0:
            raise PolyError(f"polynomial power must be a non-negative integer, got {k}")
        if k <= 1:
            return self if k else Poly.const(self.variables, 1)
        half = self ** (k >> 1)
        return half * half * self if k & 1 else half * half

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.variables == other.variables and self._terms == other._terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.variables, frozenset(self._terms.items())))
        return self._hash

    def __str__(self) -> str:
        """Grammar-compatible text: terms in descending graded-lex order,
        formatted on first use and kept."""
        if self._str is not None:
            return self._str
        pieces: list[str] = []
        for exps, c in self.terms():
            mono = "*".join(
                name if e == 1 else f"{name}^{e}"
                for name, e in zip(self.variables, exps) if e)
            mag = abs(c)
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag}*{mono}"
            sign = "-" if c < 0 else "+"
            if not pieces:
                pieces.append(body if sign == "+" else "-" + body)
            else:
                pieces.append(sign + body)
        self._str = "".join(pieces) or "0"
        return self._str

    def __repr__(self) -> str:
        return f"Poly({str(self)!r})"

    # ------------------------------------------------------------------- calc

    def substitute(self, bindings: Mapping[str, Poly | Scalar]) -> Poly:
        """Substitute polynomials or scalars for a subset of the variables.

        The result lives over the same variable tuple; bound variables
        simply no longer occur in it.  When every value is a scalar the
        term map is rewritten in place of any product; otherwise the
        polynomial is composed with the images of all its variables.
        """
        vs = self.variables
        for name in bindings:
            if name not in vs:
                raise PolyError(f"unknown variable {name!r} in bindings")
        if not any(isinstance(b, Poly) for b in bindings.values()):
            at = [(vs.index(name), _scalar(b)) for name, b in bindings.items()]
            out: dict[Exponents, Scalar] = {}
            for e, c in self._terms.items():
                ne = list(e)
                for i, b in at:
                    if ne[i]:
                        c *= b ** ne[i]
                        ne[i] = 0
                te = tuple(ne)
                out[te] = out.get(te, 0) + c
            return Poly._raw(vs, _ints({e: c for e, c in out.items() if c}))
        images = [bindings.get(name, Poly.var(vs, name)) for name in vs]
        return compose(self, [b if isinstance(b, Poly) else Poly.const(vs, b)
                              for b in images], vs)

    def derivative(self, name: str) -> Poly:
        i = self._index(name)
        out: dict[Exponents, Scalar] = {}
        for e, c in self._terms.items():
            if e[i] == 0:
                continue
            ne = list(e)
            ne[i] -= 1
            out[tuple(ne)] = c * e[i]
        return Poly._raw(self.variables, _ints(out))


def compose(p: Poly, images: Sequence[Poly], variables: Sequence[str]) -> Poly:
    """p evaluated at images[i] for its i-th variable; the images and the
    result live over `variables`.  Each distinct power of an image is built
    once, and the terms are summed in one dict."""
    vs = tuple(variables)
    if len(images) != len(p.variables) or any(q.variables != vs for q in images):
        raise PolyError(f"compose needs one image over {vs} per variable of {p.variables}")
    one = Poly.const(vs, 1)
    powers: dict[tuple[int, int], Poly] = {}
    out: dict[Exponents, Scalar] = {}
    for e, c in p._terms.items():
        m = one
        for i, k in enumerate(e):
            if k:
                if (i, k) not in powers:
                    powers[i, k] = images[i] ** k
                m = powers[i, k] if m is one else m * powers[i, k]
        for me, mc in m._terms.items():
            out[me] = out.get(me, 0) + c * mc
    return Poly._raw(vs, _ints({e: c for e, c in out.items() if c}))


# --------------------------------------------------------------------- parsing

_TOKEN = re.compile(r"(?P<ws>\s+)|(?P<nat>\d+)|(?P<name>[A-Za-z][A-Za-z0-9]*)|(?P<op>[-+*^()])")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    return tokens


MAX_NESTING = 100  # parenthesis levels; each costs four interpreter frames


class _Parser:
    """Recursive descent for:  expr := ['-'] term (('+'|'-') term)*;
    term := factor ('*' factor)*;  factor := base ('^' nat)?;
    base := nat | var | '(' expr ')'."""

    def __init__(self, text: str, variables: tuple[str, ...]):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0
        self.variables = variables

    def _peek(self) -> tuple[str, str, int] | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def _next(self) -> tuple[str, str, int]:
        tok = self._peek()
        if tok is None:
            raise ParseError("unexpected end of input", len(self.text))
        self.i += 1
        return tok

    def parse(self) -> Poly:
        p = self.expr()
        tok = self._peek()
        if tok is not None:
            raise ParseError(f"unexpected token {tok[1]!r}", tok[2])
        return p

    def expr(self) -> Poly:
        sign = 1
        tok = self._peek()
        if tok is not None and tok[1] == "-":
            self._next()
            sign = -1
        acc = self.term() * sign
        while True:
            tok = self._peek()
            if tok is None or tok[1] not in "+-":
                return acc
            self._next()
            t = self.term()
            acc = acc + t if tok[1] == "+" else acc - t

    def term(self) -> Poly:
        acc = self.factor()
        while True:
            tok = self._peek()
            if tok is None or tok[1] != "*":
                return acc
            self._next()
            acc = acc * self.factor()

    def factor(self) -> Poly:
        base = self.base()
        tok = self._peek()
        if tok is not None and tok[1] == "^":
            self._next()
            etok = self._peek()
            if etok is not None and etok[1] == "-":
                raise ParseError("negative exponent", etok[2])
            if etok is None or etok[0] != "nat":
                raise ParseError("expected a non-negative integer exponent",
                                 etok[2] if etok else len(self.text))
            self._next()
            return base ** int(etok[1])
        return base

    def base(self) -> Poly:
        kind, value, pos = self._next()
        if kind == "nat":
            return Poly.const(self.variables, int(value))
        if kind == "name":
            if value not in self.variables:
                raise ParseError(f"unknown variable {value!r}", pos)
            return Poly.var(self.variables, value)
        if value == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING} levels", pos)
            self.depth += 1
            p = self.expr()
            tok = self._peek()
            if tok is None or tok[1] != ")":
                raise ParseError("expected ')'", tok[2] if tok else len(self.text))
            self._next()
            self.depth -= 1
            return p
        raise ParseError(f"unexpected token {value!r}", pos)


def parse_poly(text: str, variables: Sequence[str]) -> Poly:
    """Parse an expression over the given variables into canonical form."""
    return _Parser(text, tuple(variables)).parse()


# ------------------------------------------------------------- normalization


def content(p: Poly) -> Fraction:
    """Positive rational content; error on the zero polynomial."""
    if p.is_zero():
        raise PolyError("zero polynomial has no content")
    cs = p._terms.values()
    return Fraction(_int_gcd(*(c.numerator for c in cs)), lcm(*(c.denominator for c in cs)))


def normalized_with_unit(p: Poly) -> tuple[Fraction, Poly]:
    """Write p = unit * primitive with integer coprime coefficients and a
    positive graded-lex leading coefficient."""
    if p.is_zero():
        raise PolyError("cannot normalize the zero polynomial")
    c = content(p)
    _, lead = p.leading()
    unit = c if lead > 0 else -c
    if unit == 1:
        return unit, p
    u = _scalar(unit)
    return unit, Poly._raw(p.variables, {e: _quo(k, u) for e, k in p._terms.items()})


def normalize(p: Poly) -> Poly:
    return normalized_with_unit(p)[1]


# ------------------------------------------------------------------- division


def exact_div(p: Poly, d: Poly) -> Poly | None:
    """Exact quotient p/d, or None when d does not divide p."""
    if d.is_zero():
        raise PolyError("division by the zero polynomial")
    p._check(d)
    if p.is_zero():
        return p
    dl, dc = d.leading()
    if d.is_constant():
        return Poly._raw(p.variables, {e: _quo(k, dc) for e, k in p._terms.items()})
    rem = dict(p._terms)
    out: dict[Exponents, Scalar] = {}
    while rem:
        le = max(rem, key=_grlex)
        lc = rem[le]
        diff = tuple(map(sub, le, dl))
        if any(k < 0 for k in diff):
            return None
        q = out[diff] = _quo(lc, dc)
        for de, dcf in d._terms.items():
            te = tuple(map(add, diff, de))
            nv = rem.get(te, 0) - q * dcf
            if nv:
                rem[te] = nv
            else:
                rem.pop(te, None)
    return Poly._raw(p.variables, out)


def divide_out(p: Poly, d: Poly) -> tuple[int, Poly]:
    """(k, p / d^k) for the largest k with d^k | p (p nonzero, d
    non-constant)."""
    if p.is_zero():
        raise PolyError("multiplicity in the zero polynomial is undefined")
    if d.is_zero() or d.is_constant():
        raise PolyError("multiplicity divisor must be non-constant")
    k = 0
    while True:
        q = exact_div(p, d)
        if q is None:
            return k, p
        p = q
        k += 1


# ------------------------------------------------------------------------ gcd


def _coeffs_in(p: Poly, vi: int) -> dict[int, Poly]:
    """Split p by the exponent of variable index vi; coefficient polys
    have zero degree in that variable."""
    out: dict[int, dict[Exponents, Scalar]] = {}
    for e, c in p._terms.items():
        k = e[vi]
        ne = list(e)
        ne[vi] = 0
        out.setdefault(k, {})[tuple(ne)] = c
    return {k: Poly._raw(p.variables, t) for k, t in out.items()}


def _content_in(p: Poly, vi: int) -> Poly:
    return gcd_all(list(_coeffs_in(p, vi).values()))


def _lead_in(p: Poly, vi: int) -> tuple[int, Poly]:
    cs = _coeffs_in(p, vi)
    d = max(cs)
    return d, cs[d]


def _prem(p: Poly, q: Poly, vi: int) -> Poly:
    """Pseudo-remainder of p by q with respect to variable index vi."""
    dq, lq = _lead_in(q, vi)
    r = p
    while not r.is_zero():
        dr, lr = _lead_in(r, vi)
        if dr < dq:
            break
        shift = [0] * len(p.variables)
        shift[vi] = dr - dq
        r = r * lq - q * lr * Poly._raw(p.variables, {tuple(shift): 1})
    return r


@lru_cache(maxsize=None)
def _gcd2(a: Poly, b: Poly) -> Poly:
    if a.is_zero():
        return normalize(b)
    if b.is_zero():
        return normalize(a)
    if a.is_constant() or b.is_constant():
        return Poly.const(a.variables, 1)
    active = [i for i in range(len(a.variables))
              if any(e[i] for e in a._terms) or any(e[i] for e in b._terms)]
    vi = active[-1]
    da = max(e[vi] for e in a._terms)
    db = max(e[vi] for e in b._terms)
    if da == 0:
        return _gcd2(a, _content_in(b, vi))
    if db == 0:
        return _gcd2(_content_in(a, vi), b)
    ca = _content_in(a, vi)
    cb = _content_in(b, vi)
    cg = _gcd2(ca, cb)
    pa = exact_div(a, ca)
    pb = exact_div(b, cb)
    if da < db:
        pa, pb = pb, pa
    while True:
        r = _prem(pa, pb, vi)
        if r.is_zero():
            g = pb
            break
        if max(e[vi] for e in r._terms) == 0:
            g = Poly.const(a.variables, 1)
            break
        pa, pb = pb, normalize(exact_div(r, _content_in(r, vi)))
    return normalize(cg * g)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Normalized gcd via a primitive pseudo-remainder sequence."""
    if a.is_zero() and b.is_zero():
        raise PolyError("gcd(0, 0) is undefined")
    a._check(b)
    return _gcd2(a, b)


def gcd_all(ps: Sequence[Poly]) -> Poly:
    """Normalized gcd of a nonempty list; constant iff the inputs are
    coprime as a set."""
    ps = list(ps)
    if not ps:
        raise PolyError("gcd of an empty list")
    nz = [p for p in ps if not p.is_zero()]
    if not nz:
        raise PolyError("gcd of all-zero inputs")
    g = normalize(nz[0])
    for p in nz[1:]:
        if g.is_constant():
            break
        g = poly_gcd(g, p)
    return g


# ---------------------------------------------------------- square-free parts


def _repeated_part(p: Poly) -> Poly:
    """gcd(p, all partial derivatives) = product of q^(e-1) over the
    irreducible factors q^e of p (characteristic zero)."""
    w = normalize(p)
    g: Poly | None = None
    for name in w.effective_variables():
        d = w.derivative(name)
        if d.is_zero():
            continue
        g = d if g is None else poly_gcd(g, d)
    if g is None:
        return Poly.const(p.variables, 1)
    return poly_gcd(w, g)


@lru_cache(maxsize=None)
def square_free_part(p: Poly) -> Poly:
    """The radical: product of the distinct irreducible factors, normalized."""
    if p.is_zero():
        raise PolyError("zero polynomial has no square-free part")
    w = normalize(p)
    if w.is_constant():
        return w
    rep = _repeated_part(w)
    q = exact_div(w, rep)
    assert q is not None
    return normalize(q)


@lru_cache(maxsize=None)
def square_class_part(p: Poly) -> Poly:
    """Product of the odd-multiplicity irreducible factors, normalized.

    This is the canonical representative of p modulo squares and nonzero
    constants; it is computed from gcds alone, without factoring.
    """
    if p.is_zero():
        raise PolyError("zero polynomial has no square class")
    w = normalize(p)
    if w.is_constant():
        return Poly.const(p.variables, 1)
    rep = _repeated_part(w)          # prod q^(e-1)
    rad = exact_div(w, rep)          # prod q
    assert rad is not None
    even = square_class_part(rep)    # prod of q with e even (e >= 2)
    out = exact_div(rad, even)
    assert out is not None
    return normalize(out)


def _fraction_sqrt(c: Fraction) -> Fraction | None:
    if c < 0:
        return None
    rn = isqrt(c.numerator)
    rd = isqrt(c.denominator)
    if rn * rn != c.numerator or rd * rd != c.denominator:
        return None
    return Fraction(rn, rd)


def poly_sqrt(p: Poly) -> Poly | None:
    """An exact polynomial square root of p, or None if p is not a square."""
    if p.is_zero():
        return p
    unit, prim = normalized_with_unit(p)
    ru = _fraction_sqrt(unit)
    if ru is None:
        return None
    root = _prim_sqrt(prim)
    if root is None:
        return None
    r = root * ru
    return r if r * r == p else None


def _prim_sqrt(p: Poly) -> Poly | None:
    if p.is_constant():
        c = _fraction_sqrt(p.constant_value())
        return None if c is None else Poly.const(p.variables, c)
    rep = _repeated_part(p)
    rad = exact_div(p, rep)
    assert rad is not None
    rest = exact_div(p, rad * rad)
    if rest is None:
        return None
    sub = _prim_sqrt(normalize(rest))
    if sub is None:
        return None
    cand = rad * sub
    unit = exact_div(p, cand * cand)
    if unit is None or not unit.is_constant():
        return None
    cu = _fraction_sqrt(unit.constant_value())
    return None if cu is None else cand * cu


# -------------------------------------------------------------------- degrees


def block_degree(p: Poly, blocks: Sequence[Sequence[int]]) -> tuple[int, ...] | None:
    """The degree of p in each block of variable indices; None when p is
    zero or not graded by the blocks (its terms disagree)."""
    degs = {tuple(sum(e[i] for i in b) for b in blocks) for e in p._terms}
    return degs.pop() if len(degs) == 1 else None


# -------------------------------------------------------------- factorization


@dataclass(frozen=True)
class FactoredPoly:
    """unit * product of irreducible normalized factor powers."""

    unit: Fraction
    factors: tuple[tuple[Poly, int], ...]

    def expand_over(self, variables: Sequence[str]) -> Poly:
        acc = Poly.const(variables, self.unit)
        for q, e in self.factors:
            acc = acc * q ** e
        return acc


_BIBLOCKS = ((0, 1), (2, 3))


def _is_bihomogeneous(p: Poly) -> bool:
    return len(p.variables) == 4 and block_degree(p, _BIBLOCKS) is not None


def _block_content(p: Poly, group: tuple[int, ...]) -> Poly:
    """gcd of the coefficient polys of p when grouped by the monomials in
    the given variable indices; the result involves only the other block."""
    groups: dict[Exponents, dict[Exponents, Scalar]] = {}
    for e, c in p._terms.items():
        key = tuple(e[i] for i in group)
        ne = list(e)
        for i in group:
            ne[i] = 0
        groups.setdefault(key, {})[tuple(ne)] = c
    return gcd_all([Poly._raw(p.variables, t) for t in groups.values()])


def gram_matrix(q: Poly, slots: Sequence[int | None]) -> list[list[Fraction]]:
    """Symmetric 3x3 matrix M with q = sum of M[i][j] * s_i * s_j over three
    slots s_i, each a variable index or None for the constant 1 (at most
    one None: two constant slots would count the constant term twice)."""

    def coeff(i: int, j: int) -> Fraction:
        e = [0] * len(q.variables)
        for k in (slots[i], slots[j]):
            if k is not None:
                e[k] += 1
        c = q.coefficient(tuple(e))
        return c if i == j else c / 2

    return [[coeff(i, j) for j in range(3)] for i in range(3)]


def det3(M: Sequence[Sequence[Scalar]]) -> Scalar:
    """Determinant of a 3x3 matrix."""
    return (M[0][0] * (M[1][1] * M[2][2] - M[1][2] * M[2][1])
            - M[0][1] * (M[1][0] * M[2][2] - M[1][2] * M[2][0])
            + M[0][2] * (M[1][0] * M[2][1] - M[1][1] * M[2][0]))


def _split_quadratic_by_formula(s: Poly, name: str) -> list[Poly] | None:
    """Split s = A*v^2 + B*v + C, of degree 2 in v = `name`, into two factors
    of degree 1 in v via the discriminant B^2 - 4AC, stripping the content
    in v from each factor.  None when the discriminant is not a constant
    times a square, so that s is irreducible even over the algebraic
    closure; FactorError when s splits only over an extension of Q."""
    vi = s._index(name)
    cs = _coeffs_in(s, vi)
    zero = Poly.zero(s.variables)
    A, B, C = (cs.get(k, zero) for k in (2, 1, 0))
    disc = B * B - A * C * 4
    sq = poly_sqrt(disc)
    if sq is None:
        if square_class_part(disc).is_constant():
            raise FactorError(
                f"{s} splits only over an extension of Q; outside the supported class")
        return None
    v = Poly.var(s.variables, name)
    for root in (sq, -sq):
        f = A * v * 2 + B - root   # nonzero: A != 0
        f = normalize(exact_div(f, _content_in(f, vi)))  # type: ignore[arg-type]
        g = exact_div(s, f)
        if g is not None:
            return [f, normalize(g)]
    raise FactorError(f"the rational split of {s} failed verification")


def _factor_quadratic(s: Poly) -> list[Poly]:
    """Irreducible factors of a square-free total-degree-2 polynomial in at
    most three slots (homogeneous ternary, or arbitrary in <= 2 variables)."""
    eff = s.effective_variables()
    homogeneous = block_degree(s, (range(len(s.variables)),)) is not None
    if len(eff) > 3 or (len(eff) == 3 and not homogeneous):
        raise FactorError(
            f"quadratic {s} needs more than three slots; outside the supported class")

    # Gram matrix over slots (v1, v2, v3) or (v1, v2, 1).  A quadratic in a
    # single variable has only the slots (v1, 1) and is always degenerate.
    if len(eff) > 1:
        slots = [s._index(v) for v in eff] + [None] * (3 - len(eff))
        if det3(gram_matrix(s, slots)) != 0:
            return [s]  # smooth conic: irreducible (even over C)

    # Degenerate conic: try a rational split.
    for name in eff:
        if s.degree_in(name) == 2:
            got = _split_quadratic_by_formula(s, name)
            if got is None:
                raise FactorError(f"degenerate conic {s} did not split")
            return got
    # Multilinear: a*u*v + b*u + c*v + d with det == 0 forcing a*d == b*c.
    if len(eff) != 2:
        raise FactorError(f"degenerate multilinear quadratic {s} not recognized")
    u, v = eff
    a = s.coefficient(tuple(1 if n in (u, v) else 0 for n in s.variables))
    f = normalize(Poly.var(s.variables, u) * a
                  + Poly.const(s.variables, s.coefficient(
                      tuple(1 if n == v else 0 for n in s.variables))))
    g = exact_div(s, f)
    if g is None:
        raise FactorError(f"degenerate multilinear quadratic {s} did not split")
    return [f, normalize(g)]


def _factor_bihom(s: Poly) -> list[Poly]:
    """Irreducible factors of a square-free bihomogeneous polynomial of
    bidegree at most (2,2) on the 2+2 variable split, with no variable
    factors."""
    xi, yi = _BIBLOCKS
    a, b = block_degree(s, _BIBLOCKS)  # type: ignore[misc]
    if a > 2 or b > 2:
        raise FactorError(f"bidegree ({a},{b}) exceeds the supported (2,2) bound")
    if a == 0 or b == 0:
        # binary form in a single block
        return _factor_quadratic(s) if s.total_degree() == 2 else [normalize(s)]
    # Strip block contents: any factor living in a single block divides one.
    cy = _block_content(s, xi)   # pure y-block factor
    if not cy.is_constant():
        rest = exact_div(s, cy)
        assert rest is not None
        return _factor_squarefree(normalize(cy)) + _factor_squarefree(normalize(rest))
    cx = _block_content(s, yi)   # pure x-block factor
    if not cx.is_constant():
        rest = exact_div(s, cx)
        assert rest is not None
        return _factor_squarefree(normalize(cx)) + _factor_squarefree(normalize(rest))
    if (a, b) != (2, 2):
        # content-free (1,1), (2,1), (1,2): every factor meets both blocks,
        # and no product of smaller such bidegrees fits — irreducible.
        return [s]
    # content-free (2,2): the only possible split is (1,1) x (1,1), read off
    # as a quadratic in x0 whose coefficients carry the y-block
    got = _split_quadratic_by_formula(s, s.variables[0])
    return [s] if got is None else got


def _factor_squarefree(s: Poly) -> list[Poly]:
    """Irreducible factors of a square-free primitive polynomial with no
    variable factors; raises FactorError outside the supported class."""
    if s.is_constant():
        return []
    d = s.total_degree()
    if d == 1:
        return [normalize(s)]
    if len(s.variables) == 4 and _is_bihomogeneous(s):
        return sorted(_factor_bihom(s), key=lambda q: (q.total_degree(), str(q)))
    if d == 2:
        return sorted(_factor_quadratic(s), key=lambda q: (q.total_degree(), str(q)))
    raise FactorError(
        f"degree-{d} square-free part {s} is outside the supported factorization class")


@lru_cache(maxsize=None)
def factor(p: Poly) -> FactoredPoly:
    """Complete factorization over Q within the supported class; every
    factor is irreducible over the algebraic closure of Q."""
    if p.is_zero():
        raise PolyError("cannot factor the zero polynomial")
    unit, w = normalized_with_unit(p)
    facs: list[tuple[Poly, int]] = []
    for name in p.variables:
        if w.is_constant():
            break
        k = w.min_degree_in(name)
        if k:
            v = Poly.var(p.variables, name)
            facs.append((v, k))
            q = exact_div(w, v ** k)
            assert q is not None
            w = q
    if not w.is_constant():
        rad = square_free_part(w)
        for q in _factor_squarefree(rad):
            facs.append((q, divide_out(w, q)[0]))
    facs.sort(key=lambda t: (t[0].total_degree(), str(t[0])))
    result = FactoredPoly(unit, tuple(facs))
    if result.expand_over(p.variables) != p:
        raise PolyError(f"internal factorization check failed for {p}")
    return result


def is_irreducible(p: Poly) -> bool:
    if p.is_zero() or p.is_constant():
        return False
    f = factor(p)
    return len(f.factors) == 1 and f.factors[0][1] == 1


# ------------------------------------------------------------------ fractions


class RatFn:
    """Reduced fraction of polynomials: gcd(num, den) constant, denominator
    primitive with positive leading coefficient.  The engine uses it for
    values on a rational curve, whose printed reduced form is part of a
    certificate; functions on the surface are polynomials."""

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num: Poly, den: Poly | None = None):
        if den is None:
            den = Poly.const(num.variables, 1)
        num._check(den)
        if den.is_zero():
            raise PolyError("rational function with zero denominator")
        if num.is_zero():
            den = Poly.const(num.variables, 1)
        else:
            g = den if den.is_constant() else poly_gcd(num, den)
            if not g.is_constant():
                num = exact_div(num, g)  # type: ignore[assignment]
                den = exact_div(den, g)  # type: ignore[assignment]
            unit, den = normalized_with_unit(den)
            num = num * (1 / unit)
        self.num = num
        self.den = den
        self._hash: int | None = None

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RatFn):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.num, self.den))
        return self._hash

    def __str__(self) -> str:
        if self.den.is_constant() and self.den.constant_value() == 1:
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self) -> str:
        return f"RatFn({self!s})"

