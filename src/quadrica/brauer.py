"""Two-torsion Brauer classes of the surface function field.

A class is a mod-2 set of symbols (a, b); each slot is stored by its
canonical square-free representative, since the symbol only depends on
the square classes of its entries.  The tame residue of (f, g) along a
prime divisor with valuations m = v(f), n = v(g) is the square class of
the restriction of f^n / g^m to the divisor; the sign (-1)^(mn) of the
general tame-symbol formula is a constant, hence a square over C, and
is dropped.  With f = pi^m * u and g = pi^n * w for units u, w, that
restriction is u^n / w^m, and restriction is a ring homomorphism, so the
residue is the class of u restricted when n is odd times that of w when
m is odd (the degree paddings of u and w cancel in the product).

Residue profiles are products of pair profiles: a symbol is bilinear and
constants are squares over C, so a class is a mod-2 sum of symbols (p, q)
of distinct chart primes, and the profile of each pair is computed once,
by tame_residue, and memoized per surface.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .funfield import (
    CurveClass,
    PrimeDivisor,
    SquareClass,
    SurfaceModel,
    homogenize,
    prime_divisor,
    require_chart,
    unit_part,
)
from .poly import Poly, PolyError, factor, square_class_part


@dataclass(frozen=True)
class BrauerClass:
    """Formal F_2-sum of symbols; slots are canonical square-free polys."""

    symbols: frozenset[tuple[Poly, Poly]]

    def sorted_symbols(self) -> tuple[tuple[Poly, Poly], ...]:
        return tuple(sorted(self.symbols, key=lambda ab: (str(ab[0]), str(ab[1]))))

    def __str__(self) -> str:
        if not self.symbols:
            return "0"
        return " + ".join(f"({a}, {b})" for a, b in self.sorted_symbols())


EMPTY_CLASS = BrauerClass(frozenset())


def symbol(a: SquareClass | Poly, b: SquareClass | Poly) -> BrauerClass:
    """The one-symbol class (a, b); trivial slots collapse it to zero.  A
    SquareClass slot is taken as its representative, which is already the
    canonical square-free form."""
    ra, rb = _slot(a), _slot(b)
    if ra.is_constant() or rb.is_constant():
        return EMPTY_CLASS
    return BrauerClass(frozenset({(ra, rb)}))


def _slot(f: SquareClass | Poly) -> Poly:
    if isinstance(f, SquareClass):
        return f.representative()
    if f.is_zero():
        raise PolyError("symbol entries must be nonzero")
    return square_class_part(f)


def add_classes(u: BrauerClass, v: BrauerClass) -> BrauerClass:
    return BrauerClass(u.symbols ^ v.symbols)


def tame_residue(u: BrauerClass, c: PrimeDivisor) -> CurveClass:
    """Product over symbols of the residue square classes along c, from one
    unit part per slot."""
    parts = {p: unit_part(p, c) for ab in u.symbols for p in ab}
    res = CurveClass.trivial()
    for a, b in u.sorted_symbols():
        if parts[b].valuation % 2:
            res = res * CurveClass.from_ratfn(parts[a].on_curve())
        if parts[a].valuation % 2:
            res = res * CurveClass.from_ratfn(parts[b].on_curve())
    return res


@dataclass(frozen=True)
class ResidueProfile:
    """The divisors with nontrivial residue, with their residue classes."""

    entries: tuple[tuple[PrimeDivisor, CurveClass], ...]  # sorted by divisor

    @property
    def is_empty(self) -> bool:
        return not self.entries

    def divisors(self) -> tuple[PrimeDivisor, ...]:
        return tuple(c for c, _ in self.entries)

    def residue_at(self, c: PrimeDivisor) -> CurveClass:
        for d, r in self.entries:
            if d == c:
                return r
        return CurveClass.trivial()

    def __str__(self) -> str:
        if not self.entries:
            return "unramified"
        return "; ".join(f"{d}: {r}" for d, r in self.entries)


def _primes(slot: Poly, s: SurfaceModel) -> tuple[Poly, ...]:
    """The chart primes of odd exponent in a symbol slot; constants are
    squares over C and drop out."""
    require_chart(s, slot)
    return tuple(q for q, e in factor(slot).factors if e % 2)


def _pairs(u: BrauerClass, s: SurfaceModel) -> list[tuple[Poly, Poly]]:
    """The unordered pairs {p, q} of distinct chart primes whose symbols
    (p, q) sum to u: (a, b) is the sum of (p, q) over the primes p of a and
    q of b, (q, p) = (p, q), and (p, p) = (p, -1) is trivial over C."""
    odd: set[tuple[Poly, Poly]] = set()
    for a, b in u.symbols:
        qs = _primes(b, s)
        for p in _primes(a, s):
            for q in qs:
                if p != q:
                    odd ^= {(p, q) if str(p) < str(q) else (q, p)}
    return sorted(odd, key=lambda pq: (str(pq[0]), str(pq[1])))


@lru_cache(maxsize=None)
def _pair_profile(p: Poly, q: Poly, s: SurfaceModel) -> ResidueProfile:
    """Residues of the symbol (p, q) of two chart primes along the
    boundary divisors and the divisors of p and q; along any other divisor
    both slots are units, so the symbol is unramified there."""
    u = symbol(p, q)
    divs = {*(PrimeDivisor(s, Poly.var(s.variables, v)) for v in s.boundary_vars),
            *(prime_divisor(s, homogenize(s, r)) for r in (p, q))}
    entries = ((c, tame_residue(u, c)) for c in sorted(divs, key=str))
    return ResidueProfile(tuple((c, r) for c, r in entries if not r.is_trivial))


def residue_profile(u: BrauerClass, s: SurfaceModel) -> ResidueProfile:
    """The residues of u: along each divisor, the product of the memoized
    residues of the prime pairs u expands into."""
    acc: dict[PrimeDivisor, CurveClass] = {}
    for p, q in _pairs(u, s):
        for c, r in _pair_profile(p, q, s).entries:
            acc[c] = acc[c] * r if c in acc else r
    return ResidueProfile(tuple(sorted(
        ((c, r) for c, r in acc.items() if not r.is_trivial), key=lambda cr: str(cr[0]))))

