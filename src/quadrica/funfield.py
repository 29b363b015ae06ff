"""Square classes and rational curves on the two base surfaces.

The function field K of the surface is presented through its affine
chart: on P^2 the chart z=1 with coordinates (x, y), on P^1 x P^1 the
chart x0=y0=1 with coordinates (x1, y1).  Every function the engine takes
on the surface is a chart polynomial; a fraction (RatFn, in the curve
parameter t) appears only when a unit is restricted to a rational curve.
Prime divisors are irreducible (bi)homogeneous polynomials on the
projective model, including the chart-boundary divisors.

The constant field is algebraically closed, so every nonzero rational
constant is a square: square classes drop constants, and squareness of
a restriction to a rational curve is decided by "the square-free part
over Q is constant", which is equivalent over C(t) because a
nonconstant square-free rational polynomial has a simple complex root.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd as _int_gcd

from .poly import (
    Poly,
    PolyError,
    RatFn,
    block_degree,
    compose,
    det3,
    divide_out,
    exact_div,
    factor,
    gram_matrix,
    is_irreducible,
    normalize,
    poly_gcd,
    square_class_part,
)

T_VARS = ("t",)


class UnsupportedCurveError(Exception):
    """The divisor is outside the parametrizable class."""


@dataclass(frozen=True)
class SurfaceModel:
    kind: str                            # "p2" | "p1xp1"
    variables: tuple[str, ...]           # projective coordinates
    blocks: tuple[tuple[str, ...], ...]  # grading blocks, boundary variable first
    chart_vars: tuple[str, ...]          # coordinates of the affine chart
    boundary_vars: tuple[str, ...]       # set to 1 on the chart

    def __str__(self) -> str:
        return self.kind


def _model(kind: str, variables: tuple[str, ...],
           blocks: tuple[tuple[str, ...], ...]) -> SurfaceModel:
    return SurfaceModel(kind, variables, blocks,
                        tuple(v for b in blocks for v in b[1:]),
                        tuple(b[0] for b in blocks))


_P2 = _model("p2", ("x", "y", "z"), (("z", "x", "y"),))
_P1XP1 = _model("p1xp1", ("x0", "x1", "y0", "y1"), (("x0", "x1"), ("y0", "y1")))


def surface(kind: str) -> SurfaceModel:
    if kind == "p2":
        return _P2
    if kind == "p1xp1":
        return _P1XP1
    raise ValueError(f"unknown surface {kind!r}")


def _block_indices(s: SurfaceModel) -> list[list[int]]:
    return [[s.variables.index(v) for v in b] for b in s.blocks]


def model_degree(s: SurfaceModel, p: Poly) -> tuple[int, ...] | None:
    """The degree of p in each grading block; None when p is zero or not
    (bi)homogeneous."""
    return block_degree(p, _block_indices(s))


def is_chart_poly(s: SurfaceModel, p: Poly) -> bool:
    return p.variables == s.variables and all(
        p.degree_in(v) <= 0 for v in s.boundary_vars)


def require_chart(s: SurfaceModel, p: Poly) -> None:
    if p.variables != s.variables:
        raise PolyError(f"expected polynomial over {s.variables}")
    if not is_chart_poly(s, p):
        raise PolyError(f"{p} involves a boundary variable of the {s.kind} chart")


def dehomogenize(s: SurfaceModel, p: Poly) -> Poly:
    return p.substitute({v: 1 for v in s.boundary_vars})


def homogenize(s: SurfaceModel, p: Poly) -> Poly:
    """Minimal (bi)homogenization of a chart polynomial: in each block the
    boundary variable pads each term up to the block's largest chart
    degree, and does not divide the result."""
    require_chart(s, p)
    if p.is_zero():
        raise PolyError("cannot homogenize the zero polynomial")
    blocks = _block_indices(s)
    tops = [max(sum(e[i] for i in b[1:]) for e in p._terms) for b in blocks]
    terms = {}
    for e, c in p._terms.items():
        ne = list(e)
        for b, top in zip(blocks, tops):
            ne[b[0]] = top - sum(e[i] for i in b[1:])
        terms[tuple(ne)] = c
    return Poly(s.variables, terms)


def _balance(s: SurfaceModel, pn: Poly, pd: Poly,
             pads: tuple[Poly, ...]) -> tuple[Poly, Poly]:
    """Equalize the degrees of two (bi)homogeneous polynomials: in each
    block the member of lower degree is multiplied by that block's padding
    form raised to the difference."""
    for a, b, pad in zip(model_degree(s, pn), model_degree(s, pd), pads):
        if a < b:
            pn = pn * pad ** (b - a)
        elif a > b:
            pd = pd * pad ** (a - b)
    return pn, pd


def graded_pair(s: SurfaceModel, f: Poly) -> tuple[Poly, Poly]:
    """A degree-zero presentation of a chart polynomial: two (bi)homogeneous
    polynomials of equal (bi)degree with f = first/second on the chart,
    the second a monomial in the boundary variables."""
    return _balance(s, homogenize(s, f), Poly.const(s.variables, 1),
                    tuple(Poly.var(s.variables, v) for v in s.boundary_vars))


# -------------------------------------------------------------- prime divisors


@dataclass(frozen=True)
class PrimeDivisor:
    surface: SurfaceModel
    poly: Poly  # irreducible, normalized, (bi)homogeneous

    def __str__(self) -> str:
        return str(self.poly)

    def __repr__(self) -> str:
        return f"PrimeDivisor({self})"


def prime_divisor(s: SurfaceModel, p: Poly) -> PrimeDivisor:
    if p.variables != s.variables:
        raise PolyError(f"divisor polynomial must live over {s.variables}")
    if p.is_zero() or p.is_constant():
        raise PolyError("a prime divisor needs a non-constant polynomial")
    q = normalize(p)
    if model_degree(s, q) is None:
        raise PolyError(f"{q} is not (bi)homogeneous on {s.kind}")
    if not is_irreducible(q):
        raise PolyError(f"{q} is not irreducible")
    return PrimeDivisor(s, q)


@dataclass(frozen=True)
class UnitPart:
    """f = pi^valuation * unit along the divisor pi = 0; the pair is the
    graded pair of f with every power of pi divided out of both members."""

    f: Poly
    divisor: PrimeDivisor
    valuation: int
    pair: tuple[Poly, Poly]

    def on_curve(self) -> RatFn:
        """The pair composed with the parametrization of the divisor: the
        restricted unit times a form of the pair's degree difference."""
        coords = parametrize(self.divisor).coords
        num_t, den_t = (_compose(p, coords) for p in self.pair)
        if num_t.is_zero() or den_t.is_zero():
            raise PolyError(f"restriction of {self.f} to {self.divisor} degenerated")
        return RatFn(num_t, den_t)


def unit_part(f: Poly, c: PrimeDivisor) -> UnitPart:
    """The valuation of f along c and its unit part, from one graded pair."""
    if f.is_zero():
        raise PolyError("zero has no valuation or unit part")
    pn, pd = graded_pair(c.surface, f)
    vn, pn = divide_out(pn, c.poly)
    vd, pd = divide_out(pd, c.poly)
    return UnitPart(f, c, vn - vd, (pn, pd))


# -------------------------------------------------------------- square classes


@dataclass(frozen=True)
class SquareClass:
    """Element of K*/(K*)^2 over an algebraically closed constant field,
    as the set of irreducible chart polynomials with odd exponent."""

    variables: tuple[str, ...]
    support: frozenset[Poly]

    @property
    def is_trivial(self) -> bool:
        return not self.support

    def __mul__(self, other: SquareClass) -> SquareClass:
        if self.variables != other.variables:
            raise PolyError("square classes over different variable sets")
        return SquareClass(self.variables, self.support ^ other.support)

    def representative(self) -> Poly:
        acc = Poly.const(self.variables, 1)
        for q in sorted(self.support, key=lambda q: (q.total_degree(), str(q))):
            acc = acc * q
        return acc

    def __str__(self) -> str:
        if not self.support:
            return "1"
        return "{" + ", ".join(
            str(q) for q in sorted(self.support, key=lambda q: (q.total_degree(), str(q)))) + "}"


def square_class(f: Poly) -> SquareClass:
    """Square-free support of f with exponents reduced mod 2, constants
    dropped (they are squares over C)."""
    if f.is_zero():
        raise PolyError("zero has no square class")
    return SquareClass(f.variables, frozenset(q for q, e in factor(f).factors if e % 2))


@dataclass(frozen=True)
class CurveClass:
    """Square class of C(t)*, canonically represented by the square-free
    normalized part of a defining rational function."""

    rep: Poly  # over ("t",); the constant 1 for the trivial class

    @staticmethod
    def trivial() -> CurveClass:
        return CurveClass(Poly.const(T_VARS, 1))

    @staticmethod
    def from_ratfn(r: RatFn) -> CurveClass:
        if r.is_zero():
            raise PolyError("zero has no square class on the curve")
        return CurveClass(square_class_part(r.num * r.den))

    @property
    def is_trivial(self) -> bool:
        return self.rep.is_constant()

    def __mul__(self, other: CurveClass) -> CurveClass:
        return CurveClass(square_class_part(self.rep * other.rep))

    def __str__(self) -> str:
        return str(self.rep)


# -------------------------------------------------------------------- curves


@dataclass(frozen=True)
class CurveParam:
    """Rational parametrization of a divisor: projective coordinates as
    polynomials in t (3 for P^2, 4 for P^1 x P^1)."""

    curve: PrimeDivisor
    coords: tuple[Poly, ...]
    point: tuple[int, ...] | None  # rational point used for a conic


def _normalize_int_vector(v: tuple[int, ...]) -> tuple[int, ...]:
    g = 0
    for a in v:
        g = _int_gcd(g, abs(a))
    if g:
        v = tuple(a // g for a in v)
    for a in v:
        if a:
            return v if a > 0 else tuple(-b for b in v)
    return v


def _line_points(coeffs: tuple[int, int, int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Two independent points spanning the line a*X + b*Y + c*Z = 0."""
    a, b, c = coeffs
    cands = [(b, -a, 0), (c, 0, -a), (0, c, -b)]
    kept: list[tuple[int, ...]] = []
    for v in cands:
        if all(k == 0 for k in v):
            continue
        nv = _normalize_int_vector(v)
        if nv not in kept:
            kept.append(nv)
    if len(kept) < 2:
        raise PolyError(f"degenerate line coefficients {coeffs}")
    return kept[0], kept[1]


def _int_coeffs(p: Poly, names: tuple[str, ...]) -> tuple[int, ...]:
    q = normalize(p)
    out = []
    for name in names:
        e = tuple(1 if v == name else 0 for v in p.variables)
        c = q.coefficient(e)
        assert c.denominator == 1
        out.append(c.numerator)
    return tuple(out)


def _search_conic_point(C: Poly, bound: int) -> tuple[int, int, int] | None:
    """First projective rational point of height <= bound on the ternary
    conic, in lexicographic scan order by growing height shells.  A definite
    Gram matrix has no real zero at all, so the search is skipped."""
    M = gram_matrix(C, (0, 1, 2))
    m1 = M[0][0]
    m2 = M[0][0] * M[1][1] - M[0][1] * M[1][0]
    m3 = det3(M)
    if (m1 > 0 and m2 > 0 and m3 > 0) or (m1 < 0 and m2 > 0 and m3 < 0):
        return None

    # integer evaluation: clear denominators once
    L = 1
    for c in C._terms.values():
        L = L * c.denominator // _int_gcd(L, c.denominator)
    terms = [(e, int(c * L)) for e, c in C._terms.items()]

    def value(a: int, b: int, c: int) -> int:
        total = 0
        for (i, j, k), coef in terms:
            total += coef * a ** i * b ** j * c ** k
        return total

    for h in range(bound + 1):
        for a in range(-h, h + 1):
            inner = abs(a) < h
            for b in range(-h, h + 1):
                cs = (range(-h, h + 1) if not (inner and abs(b) < h) else (-h, h))
                for c in cs:
                    if a == 0 and b == 0 and c == 0:
                        continue
                    if value(a, b, c) == 0:
                        return _normalize_int_vector((a, b, c))  # type: ignore[return-value]
    return None


def _compose(p: Poly, coords: tuple[Poly, ...]) -> Poly:
    """Evaluate a polynomial on t-parametrized coordinates."""
    return compose(p, coords, T_VARS)


def _verify_param(c: PrimeDivisor, coords: tuple[Poly, ...]) -> None:
    if not _compose(c.poly, coords).is_zero():
        raise PolyError(f"parametrization of {c} failed verification")
    # non-constant: some coordinate ratio must genuinely vary
    n = len(coords)
    for i in range(n):
        for j in range(i + 1, n):
            w = coords[i] * coords[j].derivative("t") - coords[j] * coords[i].derivative("t")
            if not w.is_zero():
                return
    raise PolyError(f"parametrization of {c} is constant")


CONIC_POINT_HEIGHT_BOUND = 100


@lru_cache(maxsize=None)
def parametrize(c: PrimeDivisor) -> CurveParam:
    """Rational parametrization of a line, ruling, or conic-type divisor."""
    s = c.surface
    deg = model_degree(s, c.poly)
    t = Poly.var(T_VARS, "t")
    one = Poly.const(T_VARS, 1)
    pt = None
    if s.kind == "p2":
        if deg[0] > 2:
            raise UnsupportedCurveError(f"degree-{deg[0]} curve {c} on p2 is unsupported")
        coords, pt = _plane_param(c.poly, c)
    elif deg == (1, 0):
        a, b = _int_coeffs(c.poly, ("x0", "x1"))
        coords = tuple(Poly.const(T_VARS, v) for v in _normalize_int_vector((b, -a))) + (one, t)
    elif deg == (0, 1):
        a, b = _int_coeffs(c.poly, ("y0", "y1"))
        coords = (one, t) + tuple(Poly.const(T_VARS, v) for v in _normalize_int_vector((b, -a)))
    else:
        chart = dehomogenize(s, c.poly)
        if chart.is_constant() or chart.total_degree() > 2:
            raise UnsupportedCurveError(
                f"divisor {c} of bidegree {deg} is outside the supported class")
        # plane model in the chart coordinates plus a homogenizing slot
        (U, V, W), pt = _plane_param(_to_plane(chart, s.chart_vars, ("u", "v", "w")), c)
        coords = _reduce_pair(W, U) + _reduce_pair(W, V)
    _verify_param(c, coords)
    return CurveParam(c, coords, pt)


def _plane_param(g: Poly, c: PrimeDivisor) -> tuple[tuple[Poly, Poly, Poly],
                                                    tuple[int, int, int] | None]:
    """Parametrization of the plane line or conic g, a model of c, with the
    rational point used for a conic."""
    if g.total_degree() == 1:
        va, vb = _line_points(_int_coeffs(g, g.variables))
        t = Poly.var(T_VARS, "t")
        return tuple(Poly.const(T_VARS, vb[k]) + t * va[k] for k in range(3)), None
    pt = _search_conic_point(g, CONIC_POINT_HEIGHT_BOUND)
    if pt is None:
        raise UnsupportedCurveError(
            f"no rational point of height <= {CONIC_POINT_HEIGHT_BOUND} on {c}")
    return _conic_param_checked(g, pt), pt


def _to_plane(chart: Poly, chart_vars: tuple[str, ...], aux: tuple[str, str, str]) -> Poly:
    """Homogenize a chart curve equation into the plane (u, v, w)."""
    d = chart.total_degree()
    i1 = chart.variables.index(chart_vars[0])
    i2 = chart.variables.index(chart_vars[1])
    terms = {}
    for e, c in chart._terms.items():
        a, b = e[i1], e[i2]
        terms[(a, b, d - a - b)] = c
    return Poly(aux, terms)


def _conic_param_checked(C: Poly, pt) -> tuple[Poly, Poly, Poly]:
    coords = _conic_param_raw(C, pt)
    if not _compose(C, coords).is_zero():
        raise PolyError("conic parametrization failed verification")
    return coords


def _conic_param_raw(C: Poly, point) -> tuple[Poly, Poly, Poly]:
    from fractions import Fraction
    M = gram_matrix(C, (0, 1, 2))

    def mdot(u, v) -> Fraction:
        return sum(u[i] * M[i][j] * v[j] for i in range(3) for j in range(3))

    P = point
    base = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1)]
    chosen = None
    for i in range(len(base)):
        for j in range(i + 1, len(base)):
            Qa, Qb = base[i], base[j]
            if det3((P, Qa, Qb)) == 0:
                continue
            if mdot(P, Qa) == 0 and mdot(P, Qb) == 0:
                continue
            chosen = (Qa, Qb)
            break
        if chosen:
            break
    assert chosen is not None
    Qa, Qb = chosen
    t = Poly.var(T_VARS, "t")
    R = [Poly.const(T_VARS, Qa[k]) + t * Qb[k] for k in range(3)]
    CR = Poly.const(T_VARS, mdot(Qa, Qa)) + t * (2 * mdot(Qa, Qb)) + t * t * mdot(Qb, Qb)
    BPR = Poly.const(T_VARS, 2 * mdot(P, Qa)) + t * (2 * mdot(P, Qb))
    coords = [CR * P[k] - BPR * R[k] for k in range(3)]
    g: Poly | None = None
    for c in coords:
        if c.is_zero():
            continue
        g = c if g is None else poly_gcd(g, c)
    if g is not None and not g.is_constant():
        coords = [exact_div(c, g) if not c.is_zero() else c for c in coords]  # type: ignore[list-item]
    return tuple(coords)  # type: ignore[return-value]


def _reduce_pair(w: Poly, u: Poly) -> tuple[Poly, Poly]:
    """Reduce one P^1 factor of a parametrized point (w : u)."""
    if w.is_zero() or u.is_zero():
        return w, u
    g = poly_gcd(w, u)
    if not g.is_constant():
        w = exact_div(w, g)  # type: ignore[assignment]
        u = exact_div(u, g)  # type: ignore[assignment]
    return w, u


# ------------------------------------------------------------------ restriction


def restrict_unit(f: Poly, c: PrimeDivisor) -> RatFn:
    """Restriction of a unit along c to the curve, as a rational function of
    the curve parameter t."""
    u = unit_part(f, c)
    if u.valuation:
        raise PolyError(f"{u.f} is not a unit along {c} (valuation {u.valuation})")
    return u.on_curve()


@dataclass(frozen=True)
class HenselWitness:
    """Record of the completed-local-ring square test for a discriminant."""

    divisor: PrimeDivisor
    valuation: int
    unit_restriction: RatFn | None  # restriction of d / pi^v to the curve
    is_square: bool | None
    passed: bool


def _padding_form(s: SurfaceModel, pi: Poly, block: tuple[str, ...]) -> Poly:
    for name in block:
        v = Poly.var(s.variables, name)
        if v != pi:
            return v
    raise PolyError("no padding form available")


@lru_cache(maxsize=None)
def hensel_report(d: Poly, c: PrimeDivisor) -> HenselWitness:
    """Decide whether d becomes a square in the fraction field of the
    completed local ring at c: even valuation, and the unit part restricts
    to a square in the residue field.  Memoized on (d, c)."""
    s = c.surface
    u = unit_part(d, c)
    if u.valuation % 2 != 0:
        return HenselWitness(c, u.valuation, None, None, False)
    # rebalance degrees with boundary-side units; the exponent shift is
    # v * deg(pi) per block, even, so the square class on the curve is safe
    pair = _balance(s, *u.pair, tuple(_padding_form(s, c.poly, b) for b in s.blocks))
    r = UnitPart(u.f, c, u.valuation, pair).on_curve()
    ok = CurveClass.from_ratfn(r).is_trivial
    return HenselWitness(c, u.valuation, r, ok, ok)
