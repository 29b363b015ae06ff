"""Square classes, prime divisors, curve parametrization, restriction and
the completed-local-ring square test."""

import random

import pytest

from quadrica.funfield import (
    CurveClass,
    UnsupportedCurveError,
    dehomogenize,
    hensel_report,
    homogenize,
    parametrize,
    prime_divisor,
    restrict_unit,
    square_class,
    unit_part,
)
from quadrica.poly import Poly, PolyError, RatFn, parse_poly

from conftest import P2_VARS, clear_residue_memos

T = ("t",)


def tpoly(text):
    return parse_poly(text, T)


def square_on_curve(f, c):
    """f, a unit along c, restricts to a square on the curve."""
    return CurveClass.from_ratfn(restrict_unit(f, c)).is_trivial


# ------------------------------------------------------------ square classes


def test_square_class_examples(F, Fb, xyz):
    x, y, _ = xyz
    assert square_class(x ** 2 * y ** 2 * Fb).support == frozenset({Fb})
    assert square_class(Poly.const(P2_VARS, 7)).is_trivial
    assert square_class(x * y).support == frozenset({x, y})
    with pytest.raises(PolyError):
        square_class(Poly.zero(P2_VARS))


def test_multiply_classes(F, xyz):
    x, y, _ = xyz
    cx, cy, cF = square_class(x), square_class(y), square_class(F)
    assert (cx * cy).support == frozenset({x, y})
    assert (cF * cF).is_trivial
    both = square_class(x * y) * (cy * cF)
    assert both.support == frozenset({x, F})


def test_square_class_multiplicative_randomized(F, xyz):
    rng = random.Random(31337)
    x, y, z = xyz
    pool = [x, y, z, F]

    def rand():
        p = Poly.const(P2_VARS, rng.choice([1, 2, -1]))
        for q in pool:
            p = p * q ** rng.randint(0, 2)
        return p

    for _ in range(200):
        f, g = rand(), rand()
        assert square_class(f * g) == square_class(f) * square_class(g)
        assert square_class(f * f).is_trivial


# ------------------------------------------------------------------ divisors


def test_prime_divisor_validation(p2, F, xyz):
    x, y, _ = xyz
    with pytest.raises(PolyError):
        prime_divisor(p2, x * y)           # reducible
    with pytest.raises(PolyError):
        prime_divisor(p2, x + y ** 2)      # inhomogeneous
    d = prime_divisor(p2, F * -1)
    assert d.poly == F                     # normalized


def test_homogenize_roundtrip(p2, p1xp1, Fb, hpoly):
    assert homogenize(p2, Fb) == parse_poly(
        "x^2+y^2+z^2-2*(x*y+x*z+y*z)", P2_VARS)
    assert dehomogenize(p1xp1, hpoly) == hpoly.substitute({"x0": 1, "y0": 1})
    assert homogenize(p1xp1, dehomogenize(p1xp1, hpoly)) == hpoly


def _count_products(monkeypatch):
    """Wrap Poly.__mul__ and its __rmul__ alias; return the live count."""
    calls = [0]
    mul = Poly.__mul__

    def counted(a, b):
        calls[0] += 1
        return mul(a, b)
    monkeypatch.setattr(Poly, "__mul__", counted)
    monkeypatch.setattr(Poly, "__rmul__", counted)
    return calls


def test_dehomogenize_and_compose_build_few_products(monkeypatch, p2, F):
    from quadrica.funfield import _compose
    p, chart = (parse_poly(text, P2_VARS) for text in (
        "x^5*y^3*z^2+3*x*y*z^8-x^10", "x^5*y^3+3*x*y-x^10"))
    coords = parametrize(prime_divisor(p2, F)).coords
    calls = _count_products(monkeypatch)
    assert dehomogenize(p2, p) == chart
    assert calls[0] == 0       # the term-by-term loop made 27
    assert _compose(F, coords).is_zero()
    assert calls[0] <= 12      # each power of a coordinate built once; was 27


def test_valuation_along(p2, Fb, xyz):
    x, y, z = xyz
    dz = prime_divisor(p2, z)
    dx = prime_divisor(p2, x)
    assert unit_part(x, dz).valuation == -1
    assert unit_part(Fb, dz).valuation == -2
    assert unit_part(Fb, dx).valuation == 0
    assert unit_part(x ** 2 * y ** 2 * Fb, dx).valuation == 2


# ------------------------------------------------------------- parametrize


def test_parametrize_coordinate_lines(p2, xyz):
    x, _, z = xyz
    px = parametrize(prime_divisor(p2, x))
    assert [str(c) for c in px.coords] == ["0", "t", "1"]
    pz = parametrize(prime_divisor(p2, z))
    assert [str(c) for c in pz.coords] == ["t", "1", "0"]


def test_parametrize_conic_through_found_point(p2, F):
    # F(1, 1, 0) = 1 + 1 + 0 - 2(1 + 0 + 0) = 0: the search must find it
    dF = prime_divisor(p2, F)
    param = parametrize(dF)
    assert param.point == (1, 1, 0)
    # exactness of the parametrization is re-verified here by substitution
    comp = Poly.zero(T)
    for e, c in F._terms.items():
        term = Poly.const(T, c)
        for k, exp in enumerate(e):
            term = term * param.coords[k] ** exp
        comp = comp + term
    assert comp.is_zero()


def test_parametrize_rulings(p1xp1, x4):
    x0, x1, y0, y1 = x4
    r = parametrize(prime_divisor(p1xp1, x0))
    assert [str(c) for c in r.coords] == ["0", "1", "1", "t"]
    r2 = parametrize(prime_divisor(p1xp1, y1))
    assert [str(c) for c in r2.coords] == ["1", "t", "1", "0"]


def test_parametrize_h_curve(p1xp1, hpoly):
    param = parametrize(prime_divisor(p1xp1, hpoly))
    comp = Poly.zero(T)
    for e, c in hpoly._terms.items():
        term = Poly.const(T, c)
        for k, exp in enumerate(e):
            term = term * param.coords[k] ** exp
        comp = comp + term
    assert comp.is_zero()


def test_parametrize_unsupported(p2, xyz):
    x, y, z = xyz
    cubic = x ** 3 + y ** 3 + z ** 3 - x * y * z * 3
    with pytest.raises((UnsupportedCurveError, PolyError)):
        parametrize(prime_divisor(p2, cubic))


def test_conic_without_small_point_reports_bound(p2, xyz):
    x, y, z = xyz
    # x^2 + y^2 + z^2 has no rational point at all
    d = prime_divisor(p2, x ** 2 + y ** 2 + z ** 2)
    with pytest.raises(UnsupportedCurveError, match="height"):
        parametrize(d)


# -------------------------------------------------------------- restriction


def test_restrict_examples(p2, Fb, xyz):
    x, y, _ = xyz
    dx = prime_divisor(p2, x)
    assert restrict_unit(y, dx) == RatFn(tpoly("t"))
    assert restrict_unit(Fb, dx) == RatFn(tpoly("t^2-2*t+1"))
    assert restrict_unit(Poly.const(P2_VARS, 1), dx) == RatFn(Poly.const(T, 1))


def test_restrict_requires_unit(p2, xyz):
    x, _, _ = xyz
    dx = prime_divisor(p2, x)
    with pytest.raises(PolyError, match="unit"):
        restrict_unit(x, dx)


def test_is_square_on_curve_examples(p2, Fb, xyz):
    x, y, _ = xyz
    dx = prime_divisor(p2, x)
    assert square_on_curve(Fb, dx)            # (t-1)^2
    assert not square_on_curve(y, dx)         # t


def test_hensel_examples(p2, Fb, xyz):
    x, _, z = xyz
    dx = prime_divisor(p2, x)
    dz = prime_divisor(p2, z)
    assert hensel_report(Fb, dx).passed
    assert not hensel_report(x, dx).passed   # odd valuation
    rep = hensel_report(Fb, dz)
    assert rep.valuation == -2 and rep.passed
    # the unit part restricts to the (X - Y)^2 pattern over the line at
    # infinity: F(t, 1, 0) = (t - 1)^2, divided by the balancing square t^2
    assert rep.unit_restriction == RatFn(tpoly("t^2-2*t+1"), tpoly("t^2"))


def test_hensel_square_stability(p2, F, Fb, xyz):
    rng = random.Random(2)
    x, y, z = xyz
    units = [Poly.const(P2_VARS, 1), x, y, x * y, Fb]
    divisors = [prime_divisor(p2, p) for p in (x, y, z, F)]
    for _ in range(60):
        u = units[rng.randrange(len(units))]
        c = divisors[rng.randrange(len(divisors))]
        assert hensel_report(Fb * u * u, c).passed == hensel_report(Fb, c).passed


def test_square_on_curve_of_squares_randomized(p2, Fb, xyz):
    rng = random.Random(3)
    x, y, z = xyz
    dx = prime_divisor(p2, x)
    pool = [y, y - 1, Fb, y ** 2 + 1]
    for _ in range(60):
        f = Poly.const(P2_VARS, 1)
        for q in pool:
            f = f * q ** rng.randint(0, 2)
        assert square_on_curve(f * f, dx)


def test_curve_class_algebra():
    a = CurveClass.from_ratfn(RatFn(tpoly("t^2-2*t+1")))
    assert a.is_trivial
    b = CurveClass.from_ratfn(RatFn(tpoly("t^3"), tpoly("t^2")))
    assert b == CurveClass.from_ratfn(RatFn(tpoly("t")))
    assert (b * b).is_trivial


# ------------------------------------------- differential test of the grading


def reference_homogenize(s, p):
    """The two-branch homogenization that the grading blocks replaced."""
    vs = s.variables
    terms = {}
    if s.kind == "p2":
        d = p.total_degree()
        for e, c in p._terms.items():
            ne = list(e)
            ne[vs.index("z")] = d - e[vs.index("x")] - e[vs.index("y")]
            terms[tuple(ne)] = c
        return Poly(vs, terms)
    dx, dy = p.degree_in("x1"), p.degree_in("y1")
    for e, c in p._terms.items():
        ne = list(e)
        ne[vs.index("x0")] = dx - e[vs.index("x1")]
        ne[vs.index("y0")] = dy - e[vs.index("y1")]
        terms[tuple(ne)] = c
    return Poly(vs, terms)


def reference_graded_pair(s, f):
    """f homogenized over the boundary power of its full degree."""
    vs = s.variables
    if s.kind == "p2":
        den = Poly.var(vs, "z") ** f.total_degree()
    else:
        den = Poly.var(vs, "x0") ** f.degree_in("x1") * Poly.var(vs, "y0") ** f.degree_in("y1")
    return reference_homogenize(s, f), den


def reference_unit_part(f, c):
    from quadrica.poly import divide_out
    pn, pd = reference_graded_pair(c.surface, f)
    vn, pn = divide_out(pn, c.poly)
    vd, pd = divide_out(pd, c.poly)
    return vn - vd, pn, pd


def reference_parametrize(c):
    """The parametrization with the line and conic code written out once
    per surface."""
    from quadrica.funfield import (CONIC_POINT_HEIGHT_BOUND, CurveParam, _conic_param_checked,
                                   _int_coeffs, _line_points, _normalize_int_vector,
                                   _reduce_pair, _search_conic_point, _to_plane,
                                   _verify_param)
    from quadrica.poly import block_degree
    s = c.surface
    t = Poly.var(T, "t")
    one = Poly.const(T, 1)
    if s.kind == "p2":
        d = c.poly.total_degree()
        if d == 1:
            va, vb = _line_points(_int_coeffs(c.poly, ("x", "y", "z")))
            param = CurveParam(c, tuple(Poly.const(T, vb[k]) + t * va[k] for k in range(3)), None)
        elif d == 2:
            pt = _search_conic_point(c.poly, CONIC_POINT_HEIGHT_BOUND)
            if pt is None:
                raise UnsupportedCurveError(
                    f"no rational point of height <= {CONIC_POINT_HEIGHT_BOUND} on {c}")
            param = CurveParam(c, _conic_param_checked(c.poly, pt), pt)
        else:
            raise UnsupportedCurveError(f"degree-{d} curve {c} on p2 is unsupported")
        _verify_param(c, param.coords)
        return param
    bd = block_degree(c.poly, ((0, 1), (2, 3)))
    if bd == (1, 0):
        a, b = _int_coeffs(c.poly, ("x0", "x1"))
        pt = _normalize_int_vector((b, -a))
        param = CurveParam(c, (Poly.const(T, pt[0]), Poly.const(T, pt[1]), one, t), None)
    elif bd == (0, 1):
        a, b = _int_coeffs(c.poly, ("y0", "y1"))
        pt = _normalize_int_vector((b, -a))
        param = CurveParam(c, (one, t, Poly.const(T, pt[0]), Poly.const(T, pt[1])), None)
    else:
        chart = dehomogenize(s, c.poly)
        if chart.is_constant() or chart.total_degree() > 2:
            raise UnsupportedCurveError(
                f"divisor {c} of bidegree {bd} is outside the supported class")
        aux_vars = ("u", "v", "w")
        g = _to_plane(chart, s.chart_vars, aux_vars)
        if g.total_degree() == 1:
            va, vb = _line_points(_int_coeffs(g, aux_vars))
            U, V, W = (Poly.const(T, vb[k]) + t * va[k] for k in range(3))
            pt3 = None
        else:
            pt3 = _search_conic_point(g, CONIC_POINT_HEIGHT_BOUND)
            if pt3 is None:
                raise UnsupportedCurveError(
                    f"no rational point of height <= {CONIC_POINT_HEIGHT_BOUND} on {c}")
            U, V, W = _conic_param_checked(g, pt3)
        param = CurveParam(c, _reduce_pair(W, U) + _reduce_pair(W, V), pt3)
    _verify_param(c, param.coords)
    return param


def reference_on_curve(pn, pd, c):
    from quadrica.funfield import _compose
    param = reference_parametrize(c)
    num_t, den_t = _compose(pn, param.coords), _compose(pd, param.coords)
    assert not num_t.is_zero() and not den_t.is_zero()
    return RatFn(num_t, den_t)


def reference_hensel_report(d, c):
    """The Hensel test with one padding branch per surface."""
    from quadrica.funfield import HenselWitness, _padding_form
    from quadrica.poly import block_degree
    s = c.surface
    v, pn, pd = reference_unit_part(d, c)
    if v % 2 != 0:
        return HenselWitness(c, v, None, None, False)
    if s.kind == "p2":
        diffs = [pn.total_degree() - pd.total_degree()]
        blocks = [("z", "x", "y")]
    else:
        blocks = [("x0", "x1"), ("y0", "y1")]
        dn, dd = block_degree(pn, ((0, 1), (2, 3))), block_degree(pd, ((0, 1), (2, 3)))
        diffs = [dn[0] - dd[0], dn[1] - dd[1]]
    for diff, block in zip(diffs, blocks):
        pad = _padding_form(s, c.poly, block)
        if diff < 0:
            pn = pn * pad ** (-diff)
        elif diff > 0:
            pd = pd * pad ** diff
    r = reference_on_curve(pn, pd, c)
    ok = CurveClass.from_ratfn(r).is_trivial
    return HenselWitness(c, v, r, ok, ok)


def units_met_while_certifying(monkeypatch):
    """Every (function, divisor) pair handed to the unit-part and Hensel
    tests by the verdicts of P^2 up to bound 8 and P^1 x P^1 up to bound 3,
    from cold residue and Hensel memos."""
    import quadrica.brauer as brauer
    import quadrica.certify as certify
    clear_residue_memos()
    met = {}
    for space, name in ((brauer, "unit_part"), (certify, "hensel_report")):
        def record(f, c, _fn=getattr(space, name)):
            met[(f, c)] = None
            return _fn(f, c)
        monkeypatch.setattr(space, name, record)
    for data in certify.enumerate_types("p2", 8):
        certify.verdict_for("p2", data)
    for data in certify.enumerate_types("p1xp1", 3):
        certify.verdict_for("p1xp1", data)
    return list(met)


def test_grading_matches_two_branch_reference(monkeypatch):
    from quadrica.funfield import graded_pair, model_degree
    pairs = units_met_while_certifying(monkeypatch)
    divisors = {c for _, c in pairs}
    assert {c.surface.kind for c in divisors} == {"p2", "p1xp1"}
    for c in divisors:
        assert parametrize(c) == reference_parametrize(c), c
    for f, c in pairs:
        s = c.surface
        assert homogenize(s, f) == reference_homogenize(s, f)
        pn, pd = graded_pair(s, f)
        qn, qd = reference_graded_pair(s, f)
        assert qn * pd == pn * qd
        assert model_degree(s, pn) == model_degree(s, pd) is not None
        v, un, ud = reference_unit_part(f, c)
        u = unit_part(f, c)
        assert u.valuation == v and un * u.pair[1] == u.pair[0] * ud
        if v == 0:
            assert restrict_unit(f, c) == reference_on_curve(un, ud, c), (f, c)
        assert hensel_report(f, c) == reference_hensel_report(f, c), (f, c)
