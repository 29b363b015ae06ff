"""Diagonal quadratic forms over the base surfaces.

Covers bundle types, weak-bundle validity, the generic fiber over the
affine chart, discriminant and Clifford invariants, and the similarity
normalizer that recognizes forms whose fiber is, up to similarity, the
Hassett-Pirutka-Tschinkel quadric

    < y, x, xy, F(x, y, 1) >,   F = x^2 + y^2 + z^2 - 2(xy + xz + yz).

The normalizer searches the finite set of scalings given by subset
products of the entries (any similarity between forms with entries that
are monomials times the canonical quadric lies in that set modulo
squares) and matches the target pattern over all 24 orderings, all on
exponent vectors mod 2.  Every hit is returned with a replayable witness:
chart polynomials for the scale and the four square factors, rational
units and a permutation.  No fraction of functions on the surface is formed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from operator import add

from .brauer import BrauerClass, add_classes, symbol
from .funfield import (
    SquareClass,
    SurfaceModel,
    dehomogenize,
    is_chart_poly,
    model_degree,
    square_class,
    surface,
)
from .poly import Poly, divide_out, parse_poly


class QuadformError(Exception):
    """Invalid form or out-of-class normalizer input."""


# ------------------------------------------------------------ canonical data


@lru_cache(maxsize=None)
def canonical_quadric(s: SurfaceModel) -> Poly:
    """The degeneration quadric on the model: F on P^2, h on P^1 x P^1."""
    if s.kind == "p2":
        return parse_poly("x^2+y^2+z^2-2*(x*y+x*z+y*z)", s.variables)
    return parse_poly(
        "x1^2*y0^2+x0^2*y1^2+x0^2*y0^2-2*(x1*y1*x0*y0+x1*x0*y0^2+y1*y0*x0^2)",
        s.variables)


@lru_cache(maxsize=None)
def chart_quadric(s: SurfaceModel) -> Poly:
    return dehomogenize(s, canonical_quadric(s))


def chart_pair(s: SurfaceModel) -> tuple[Poly, Poly]:
    """The chart coordinates (x, y) resp. (x1, y1) as polynomials."""
    a, b = s.chart_vars
    return Poly.var(s.variables, a), Poly.var(s.variables, b)


def hpt_target(s: SurfaceModel) -> tuple[Poly, Poly, Poly, Poly]:
    xv, yv = chart_pair(s)
    return (yv, xv, xv * yv, chart_quadric(s))


def hpt_alpha(s: SurfaceModel) -> BrauerClass:
    xv, yv = chart_pair(s)
    return symbol(xv, yv)


# ------------------------------------------------------------------- forms


@dataclass(frozen=True)
class DiagForm:
    """Diagonal rank-4 quadratic form over the surface; entries are
    (bi)homogeneous on the projective model, or chart polynomials when
    affine."""

    entries: tuple[Poly, Poly, Poly, Poly]
    surface: SurfaceModel
    affine: bool

    def __str__(self) -> str:
        tag = "affine " if self.affine else ""
        return f"<{', '.join(str(e) for e in self.entries)}> ({tag}{self.surface.kind})"


def make_diag_form(entries, s: SurfaceModel) -> DiagForm:
    es = tuple(entries)
    if len(es) != 4:
        raise QuadformError("a diagonal quadric surface form needs exactly 4 entries")
    for e in es:
        if not isinstance(e, Poly) or e.variables != s.variables:
            raise QuadformError(f"entries must be polynomials over {s.variables}")
        if e.is_zero():
            raise QuadformError("weak bundle requires nonzero diagonal entries")
        if model_degree(s, e) is None:
            raise QuadformError(f"entry {e} is not (bi)homogeneous on {s.kind}")
    return DiagForm(es, s, affine=False)


def make_affine_form(entries, s: SurfaceModel) -> DiagForm:
    es = tuple(entries)
    if len(es) != 4:
        raise QuadformError("a diagonal quadric surface form needs exactly 4 entries")
    for e in es:
        if not isinstance(e, Poly) or e.variables != s.variables:
            raise QuadformError(f"entries must be polynomials over {s.variables}")
        if e.is_zero():
            raise QuadformError("affine form entries must be nonzero")
        if not is_chart_poly(s, e):
            raise QuadformError(f"entry {e} involves a boundary variable")
    return DiagForm(es, s, affine=True)


def generic_fiber(f: DiagForm) -> DiagForm:
    """Dehomogenize to the affine chart; entries stay nonzero."""
    if f.affine:
        return f
    es = tuple(dehomogenize(f.surface, e) for e in f.entries)
    for e in es:
        assert not e.is_zero()
    return DiagForm(es, f.surface, affine=True)


# -------------------------------------------------------------------- types


@dataclass(frozen=True)
class BundleType:
    """Sorted (bi)degree vector of a diagonal form."""

    surface_kind: str
    data: tuple  # 4 ints for p2, 4 int-pairs for p1xp1
    reordered: bool = False

    @staticmethod
    def of(surface_kind: str, seq) -> BundleType:
        """The type with the four components of seq, each a sequence of one
        degree per grading block, or a bare int on P^2."""
        n = len(surface(surface_kind).blocks)
        raw = []
        for p in seq:
            degs = tuple(p) if isinstance(p, (tuple, list)) else (p,)
            if len(degs) != n or not all(type(d) is int for d in degs):
                raise QuadformError(f"component {p!r} of a {surface_kind} type "
                                    "needs one degree per block, each an int")
            raw.append(degs if n > 1 else degs[0])
        if len(raw) != 4:
            raise QuadformError("a bundle type has exactly 4 components")
        srt = tuple(sorted(raw))
        return BundleType(surface_kind, srt, reordered=(srt != tuple(raw)))

    def degrees(self) -> tuple[tuple[int, ...], ...]:
        """Each component as its degrees, one per grading block."""
        if len(surface(self.surface_kind).blocks) > 1:
            return self.data
        return tuple((d,) for d in self.data)

    @property
    def parity_valid(self) -> bool:
        return all(len({d % 2 for d in col}) == 1 for col in zip(*self.degrees()))

    @property
    def nonnegative(self) -> bool:
        return all(d >= 0 for degs in self.degrees() for d in degs)

    def validate(self) -> None:
        if not self.nonnegative:
            raise QuadformError(f"type {self} has negative components")
        if not self.parity_valid:
            raise QuadformError(f"type {self} violates the parity constraint")

    def ds(self) -> tuple[int, int, int, int]:
        return tuple(degs[0] for degs in self.degrees())  # type: ignore[return-value]

    def es(self) -> tuple[int, int, int, int]:
        if self.surface_kind != "p1xp1":
            raise QuadformError("second degrees exist only on p1xp1")
        return tuple(degs[1] for degs in self.degrees())  # type: ignore[return-value]

    def __str__(self) -> str:
        return ",".join(":".join(str(d) for d in degs) for degs in self.degrees())


def type_of(f: DiagForm) -> BundleType:
    """Per-entry (bi)degrees, sorted lexicographically."""
    if f.affine:
        raise QuadformError("bundle types are read off the projective form")
    return BundleType.of(f.surface.kind, [model_degree(f.surface, e) for e in f.entries])


def weak_gcd(f: DiagForm) -> Poly:
    from .poly import gcd_all
    return gcd_all(list(f.entries))


def is_weak_bundle(f: DiagForm) -> bool:
    """True iff the entries have no common factor."""
    return weak_gcd(f).is_constant()


# ---------------------------------------------------------------- invariants


def discriminant(f: DiagForm) -> SquareClass:
    """Product of the square classes of the four entries over the chart."""
    e0, e1, e2, e3 = (square_class(e) for e in generic_fiber(f).entries)
    return e0 * e1 * e2 * e3


def clifford_invariant(f: DiagForm) -> BrauerClass:
    """Clifford invariant of the generic fiber.

    The form is scaled by its first entry to <1, -a, -b, abd> with
    a = e0*e1, b = e0*e2, d = e0*e1*e2*e3 modulo squares (signs are squares
    over C); the invariant of the scaled form is (a, b) + (ab, d).  All
    three are products of the entries' square classes in F_2 arithmetic,
    so the fourth slot, a*b*d = e0*e3, needs no check.
    """
    e0, e1, e2, e3 = (square_class(e) for e in generic_fiber(f).entries)
    a, b = e0 * e1, e0 * e2
    return add_classes(symbol(a, b), symbol(a * b, a * e2 * e3))


# --------------------------------------------------------------- normalizer


@dataclass(frozen=True)
class SimilarityWitness:
    """Certificate that scale * entry_i = unit_i * square_i^2 * target_perm(i)."""

    scale: Poly
    square_factors: tuple[Poly, Poly, Poly, Poly]
    units: tuple[Fraction, Fraction, Fraction, Fraction]
    permutation: tuple[int, int, int, int]  # source slot i -> target slot


def _monomial_quadric_parts(s: SurfaceModel, e: Poly) -> tuple[Fraction, tuple[int, ...]] | None:
    """(c, exponents + (k,)) for e = c * monomial * F^k with F the chart
    quadric; None when e has any other factor."""
    k, rest = divide_out(e, chart_quadric(s))
    if len(rest._terms) != 1:
        return None
    (exps, c), = rest._terms.items()
    return c, exps + (k,)


def normalize_to_hpt(f: DiagForm) -> SimilarityWitness | None:
    """Search for a similarity taking the affine form onto the canonical
    quadric fiber <y', x', x'y', F(x', y', 1)>; None when no witness exists.

    Every entry is c * monomial * F^k, so its class modulo squares is its
    exponent vector mod 2 and its square factor is read off the halved
    exponents."""
    if not f.affine:
        raise QuadformError("the normalizer takes the affine fiber")
    s = f.surface
    parts = []
    for e in f.entries:
        part = _monomial_quadric_parts(s, e)
        if part is None:
            raise QuadformError(
                f"entry {e} is outside the monomial x quadric class")
        parts.append(part)
    goal = [tuple(a % 2 for a in _monomial_quadric_parts(s, q)[1]) for q in hpt_target(s)]
    for size in range(5):
        for subset in combinations(range(4), size):
            lam_c, lam_exps = Fraction(1), (0,) * len(parts[0][1])
            for i in subset:
                lam_c *= parts[i][0]
                lam_exps = tuple(map(add, lam_exps, parts[i][1]))
            scaled = [(lam_c * c, tuple(map(add, lam_exps, exps))) for c, exps in parts]
            reps = [tuple(a % 2 for a in exps) for _, exps in scaled]
            for perm in permutations(range(4)):
                if all(reps[i] == goal[perm[i]] for i in range(4)):
                    lam = Poly.const(s.variables, 1)
                    for i in subset:
                        lam = lam * f.entries[i]
                    return SimilarityWitness(
                        scale=lam,
                        square_factors=tuple(
                            Poly(s.variables, {tuple(a // 2 for a in exps[:-1]): 1})
                            * chart_quadric(s) ** (exps[-1] // 2)
                            for _, exps in scaled),
                        units=tuple(c for c, _ in scaled),
                        permutation=perm,
                    )
    return None


def verify_witness(f: DiagForm, w: SimilarityWitness) -> bool:
    """Replay the witness arithmetic exactly.  A witness whose scale and
    square factors are not polynomials over the fiber's variables, whose
    units are not exact rationals, or whose permutation is not one of the
    four slots fails."""
    vs = f.surface.variables
    if not (len(w.square_factors) == len(w.units) == 4
            and all(isinstance(p, Poly) and p.variables == vs
                    for p in (w.scale, *w.square_factors))
            and all(isinstance(u, (int, Fraction)) for u in w.units)
            and sorted(w.permutation) == [0, 1, 2, 3]):
        return False
    target = hpt_target(f.surface)
    return all(w.scale * e == sq * sq * target[j] * u
               for e, sq, u, j in zip(f.entries, w.square_factors, w.units, w.permutation))
