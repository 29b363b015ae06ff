"""Polynomial kernel: parsing, arithmetic, substitution, degrees,
factorization, gcd and valuations."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadrica.poly import (
    FactorError,
    ParseError,
    Poly,
    PolyError,
    RatFn,
    block_degree,
    divide_out,
    exact_div,
    factor,
    gcd_all,
    is_irreducible,
    normalize,
    parse_poly,
    poly_gcd,
    poly_sqrt,
    square_class_part,
    square_free_part,
)

from conftest import F_TEXT, H_TEXT, P1XP1_VARS, P2_VARS


# ----------------------------------------------------------------- parsing


def test_parse_canonical_quadric(F):
    # frozen term map of x^2+y^2+z^2-2(xy+xz+yz)
    expected = {
        (2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1,
        (1, 1, 0): -2, (1, 0, 1): -2, (0, 1, 1): -2,
    }
    assert F == Poly(P2_VARS, expected)


def test_parse_zero():
    assert parse_poly("0", P2_VARS).is_zero()
    assert parse_poly("0", P2_VARS) == Poly.zero(P2_VARS)


def test_parse_bidegree_22_form(hpoly):
    expected = {
        (0, 2, 2, 0): 1, (2, 0, 0, 2): 1, (2, 0, 2, 0): 1,
        (1, 1, 1, 1): -2, (1, 1, 2, 0): -2, (2, 0, 1, 1): -2,
    }
    assert hpoly == Poly(P1XP1_VARS, expected)


def test_parse_unknown_variable():
    with pytest.raises(ParseError) as exc:
        parse_poly("x+q", P2_VARS)
    assert exc.value.position == 2


def test_parse_negative_exponent():
    with pytest.raises(ParseError, match="negative exponent"):
        parse_poly("x^-2", P2_VARS)


def test_parse_syntax_error_position():
    with pytest.raises(ParseError) as exc:
        parse_poly("x^", P2_VARS)
    assert exc.value.position == 2
    with pytest.raises(ParseError):
        parse_poly("(x+y", P2_VARS)
    with pytest.raises(ParseError):
        parse_poly("x ** 2", P2_VARS)


def test_parse_nesting_limit():
    from quadrica.poly import MAX_NESTING
    x = Poly.var(P2_VARS, "x")
    deepest = "(" * MAX_NESTING + "x" + ")" * MAX_NESTING
    assert parse_poly(deepest, P2_VARS) == x
    assert parse_poly(f"{deepest}*{deepest}", P2_VARS) == x * x
    for depth in (MAX_NESTING + 1, 3000):
        with pytest.raises(ParseError, match=f"deeper than {MAX_NESTING} levels") as exc:
            parse_poly("(" * depth + "x" + ")" * depth, P2_VARS)
        assert exc.value.position == MAX_NESTING


def test_parse_unary_minus():
    x, y, _ = (Poly.var(P2_VARS, v) for v in P2_VARS)
    assert parse_poly("-x+y", P2_VARS) == y - x
    assert parse_poly("2*(-x+y)", P2_VARS) == (y - x) * 2


# -------------------------------------------------------------- arithmetic


def test_additive_inverse(F):
    assert (F + (-F)).is_zero()


def test_product_of_variables(xyz):
    x, y, _ = xyz
    assert x * y == parse_poly("x*y", P2_VARS)


def test_binomial_square(xyz):
    x, y, _ = xyz
    assert (x - y) ** 2 == parse_poly("x^2-2*x*y+y^2", P2_VARS)


def test_variable_mismatch():
    with pytest.raises(PolyError):
        Poly.var(P2_VARS, "x") + Poly.var(("x", "y"), "x")


def test_pow_negative_rejected(xyz):
    with pytest.raises(PolyError):
        xyz[0] ** -1


# ------------------------------------------------------------ substitution


def test_substitute_chart_point(F):
    # F(0, y, 1) = y^2 - 2y + 1, expanded by hand
    assert F.substitute({"x": 0, "z": 1}) == parse_poly("y^2-2*y+1", P2_VARS)


def test_substitute_h_chart_equals_F(hpoly):
    # h at x0 = y0 = 1 is the chart quadric in (x1, y1)
    chart = hpoly.substitute({"x0": 1, "y0": 1})
    assert chart == parse_poly("x1^2+y1^2+1-2*(x1*y1+x1+y1)", P1XP1_VARS)


def test_substitute_identity(F, xyz):
    x, y, z = xyz
    assert F.substitute({"x": x, "y": y, "z": z}) == F


@settings(max_examples=60, deadline=None)
@given(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4))
def test_substitute_matches_evaluation(a, b, c):
    F = parse_poly(F_TEXT, P2_VARS)
    v = F.substitute({"x": a, "y": b, "z": c}).constant_value()
    assert v == Fraction(a * a + b * b + c * c - 2 * (a * b + a * c + b * c))


# ----------------------------------------------------------------- degrees


def test_block_degree_examples(F, hpoly):
    assert block_degree(F, ((0, 1, 2),)) == (2,)
    assert block_degree(hpoly, ((0, 1), (2, 3))) == (2, 2)
    assert block_degree(parse_poly("x+y^2", P2_VARS), ((0, 1, 2),)) is None
    assert block_degree(Poly.zero(P2_VARS), ((0, 1, 2),)) is None


# ----------------------------------------------------------- factorization


def test_factor_monomial_times_quadric(F, xyz):
    x, y, _ = xyz
    # F is irreducible: its Gram matrix [[1,-1,-1],[-1,1,-1],[-1,-1,1]]
    # has determinant -4 != 0, so the conic is smooth.
    det = (Fraction(1) * (1 * 1 - (-1) * (-1))
           - Fraction(-1) * ((-1) * 1 - (-1) * (-1))
           + Fraction(-1) * ((-1) * (-1) - 1 * (-1)))
    assert det == -4
    f = factor(x ** 2 * y ** 2 * F)
    assert f.unit == 1
    assert f.factors == ((x, 2), (y, 2), (F, 1))


def test_factor_perfect_square():
    q = parse_poly("y^2-2*y+1", P2_VARS)
    f = factor(q)
    assert f.factors == ((parse_poly("y-1", P2_VARS), 2),)


def test_factor_constant():
    f = factor(Poly.const(P2_VARS, 6))
    assert f.unit == 6 and f.factors == ()


def test_factor_zero_rejected():
    with pytest.raises(PolyError):
        factor(Poly.zero(P2_VARS))


def test_factor_h_irreducible(hpoly):
    # Independent certificate: writing h = A*x0^2 + B*x0*x1 + C*x1^2 over
    # the y-block, a (1,1)x(1,1) split would force B^2 - 4AC to be a
    # square; here B^2 - 4AC = 16*y0^3*y1, of odd multiplicity in y0.
    A = Poly(P1XP1_VARS, {(0, 0, e[2], e[3]): c for e, c in hpoly._terms.items() if e[0] == 2})
    B = Poly(P1XP1_VARS, {(0, 0, e[2], e[3]): c for e, c in hpoly._terms.items() if e[0] == 1})
    C = Poly(P1XP1_VARS, {(0, 0, e[2], e[3]): c for e, c in hpoly._terms.items() if e[1] == 2})
    disc = B * B - A * C * 4
    assert disc == parse_poly("16*y0^3*y1", P1XP1_VARS)
    assert not square_class_part(disc).is_constant()
    assert poly_sqrt(disc) is None
    assert is_irreducible(hpoly)


def test_factor_bihomogeneous_branches(x4):
    x0, x1, y0, y1 = x4
    # content-free (2,2) splitting into two (1,1) factors via the
    # discriminant route: B^2 - 4AC = (y0^2 - y1^2)^2
    s = (x0 * y0 + x1 * y1) * (x0 * y1 + x1 * y0)
    fs = factor(s)
    assert {str(q) for q, _ in fs.factors} == {"x0*y0+x1*y1", "x0*y1+x1*y0"}
    # content-free (2,1): every factor would have to meet both blocks
    assert is_irreducible(x0 * x0 * y0 + x1 * x1 * y1)
    # pure-block content is split off first
    fm = factor((y0 + y1) * (x0 * y0 + x1 * y1))
    assert {str(q) for q, _ in fm.factors} == {"y0+y1", "x0*y0+x1*y1"}


def test_factor_rejects_out_of_class(xyz):
    x, y, z = xyz
    # an irreducible cubic is outside the supported class
    with pytest.raises(FactorError):
        factor(x ** 3 + y ** 3 + z ** 3 + x * y * z)


def test_factor_degenerate_conic_split():
    s = parse_poly("x^2-y^2", P2_VARS)
    f = factor(s)
    assert {str(q) for q, _ in f.factors} == {"x-y", "x+y"}
    # conjugate-line conic: a pair of lines over C that no rational split
    # exhibits, so it is outside the factorization class
    with pytest.raises(FactorError):
        is_irreducible(parse_poly("x^2+y^2", P2_VARS))


def test_factor_quadratic_in_one_variable_splits():
    # a quadratic in one variable has two roots over C: it never counts as
    # a smooth conic
    for text, roots in (("y^2-1", {"y-1", "y+1"}), ("y^2-3*y+2", {"y-1", "y-2"}),
                        ("x^2-4", {"x-2", "x+2"})):
        f = factor(parse_poly(text, P2_VARS))
        assert {str(q) for q, _ in f.factors} == roots
    with pytest.raises(FactorError):
        factor(parse_poly("y^2+1", P2_VARS))


def test_factor_rejects_split_over_an_extension(x4):
    x0, x1, y0, y1 = x4
    with pytest.raises(FactorError):
        factor(parse_poly("x^2+y^2", P2_VARS))
    with pytest.raises(FactorError):
        factor(parse_poly("x^2-2*y^2", P2_VARS))
    # content-free (2,2) with discriminant 8*x1^2*y0^2*y1^2: two (1,1) lines
    # over Q(sqrt 2)
    with pytest.raises(FactorError):
        factor(x0 ** 2 * y0 ** 2 - x1 ** 2 * y1 ** 2 * 2)


def test_factor_multilinear_split():
    s = parse_poly("x*y+x+y+1", P2_VARS)
    f = factor(s)
    assert {str(q) for q, _ in f.factors} == {"x+1", "y+1"}
    assert is_irreducible(parse_poly("x*y+1", P2_VARS))


# --------------------------------------------------------------------- gcd


def test_gcd_all_examples(F, xyz):
    x, y, z = xyz
    assert gcd_all([z ** 2, x * z, x * y, y * F]).is_constant()
    assert gcd_all([x, x * y]) == x
    assert gcd_all([F, F * x]) == F
    with pytest.raises(PolyError):
        gcd_all([Poly.zero(P2_VARS), Poly.zero(P2_VARS)])


def test_gcd_with_content():
    a = parse_poly("2*x^2*y+2*x*y", P2_VARS)
    b = parse_poly("4*x*y^2", P2_VARS)
    assert poly_gcd(a, b) == parse_poly("x*y", P2_VARS)


# -------------------------------------------------------------- valuations


def valuation(f, pi):
    return divide_out(f, pi)[0]


def test_valuation_examples(F, xyz):
    x, y, _ = xyz
    assert valuation(x ** 2 * y ** 2 * F, x) == 2
    # x does not divide F: F(0, y, z) = (y - z)^2 is nonzero
    assert F.substitute({"x": 0}) == parse_poly("y^2-2*y*z+z^2", P2_VARS)
    assert valuation(F, x) == 0


def test_valuation_errors(F, xyz):
    x, y, _ = xyz
    with pytest.raises(PolyError):
        divide_out(Poly.zero(P2_VARS), x)
    with pytest.raises(PolyError):
        divide_out(x, Poly.const(P2_VARS, 2))  # constant


# ----------------------------------------------------- randomized properties


def _random_poly(rng, variables, max_terms=4, max_exp=3, max_coeff=5):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        e = tuple(rng.randint(0, max_exp) for _ in variables)
        terms[e] = rng.randint(-max_coeff, max_coeff)
    return Poly(variables, terms)


def test_ring_axioms_randomized():
    rng = random.Random(20260809)
    for _ in range(220):
        a = _random_poly(rng, P2_VARS)
        b = _random_poly(rng, P2_VARS)
        c = _random_poly(rng, P2_VARS)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def _random_in_class(rng, F, xyz):
    """Random product of monomials and the fixed quadric."""
    x, y, z = xyz
    pool = [x, y, z, F]
    p = Poly.const(P2_VARS, rng.choice([1, 2, 3, -2]))
    for q in pool:
        p = p * q ** rng.randint(0, 2)
    return p


def test_factor_multiplicative_randomized(F, xyz):
    rng = random.Random(4069)
    for _ in range(200):
        p = _random_in_class(rng, F, xyz)
        q = _random_in_class(rng, F, xyz)
        fp, fq = factor(p), factor(q)
        fpq = factor(p * q)
        assert fpq.expand_over(P2_VARS) == p * q
        merged = {}
        for poly_, e in fp.factors + fq.factors:
            merged[poly_] = merged.get(poly_, 0) + e
        assert dict(fpq.factors) == merged
        assert fpq.unit == fp.unit * fq.unit


def test_factor_with_linear_forms(xyz):
    # products of monomials and one repeated linear form stay in class
    rng = random.Random(11)
    x, y, z = xyz
    for _ in range(60):
        p = (x ** rng.randint(0, 2) * y ** rng.randint(0, 2)
             * (x - y) ** rng.randint(0, 3) * (rng.choice([1, -3])))
        if p.is_constant():
            continue
        f = factor(p)
        assert f.expand_over(P2_VARS) == p


def test_valuation_additive_randomized(F, xyz):
    rng = random.Random(515)
    x, y, z = xyz
    primes = [x, y, z, x - y, F]
    for _ in range(200):
        f = _random_in_class(rng, F, xyz)
        g = _random_in_class(rng, F, xyz)
        pi = rng.choice(primes)
        assert valuation(f * g, pi) == valuation(f, pi) + valuation(g, pi)


def test_parse_format_roundtrip_randomized():
    rng = random.Random(99)
    for _ in range(200):
        p = _random_poly(rng, P2_VARS)
        assert parse_poly(str(p), P2_VARS) == p
    h = parse_poly(H_TEXT, P1XP1_VARS)
    assert parse_poly(str(h), P1XP1_VARS) == h


def test_substitute_commutes_with_product_randomized():
    rng = random.Random(7)
    bindings = {"z": 1}
    for _ in range(200):
        p = _random_poly(rng, P2_VARS)
        q = _random_poly(rng, P2_VARS)
        assert (p * q).substitute(bindings) == p.substitute(bindings) * q.substitute(bindings)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), max_size=3),
       st.integers(-3, 3))
def test_square_class_part_of_squares(exps, c):
    terms = {(a, b, 0): 1 for a, b in exps}
    p = Poly(P2_VARS, terms) + c
    if p.is_zero():
        return
    assert square_class_part(p * p).is_constant()


def test_square_free_vs_square_class_part(F, xyz):
    x, y, _ = xyz
    p = x ** 2 * y ** 3 * F
    assert square_free_part(p) == normalize(x * y * F)
    assert square_class_part(p) == normalize(y * F)


def test_poly_sqrt(F, xyz):
    x, y, _ = xyz
    p = (x * y * F) ** 2 * 9
    r = poly_sqrt(p)
    assert r is not None and r * r == p
    assert poly_sqrt(x * F) is None
    assert poly_sqrt(p * 2) is None


def test_exact_div_and_multiplicity(F, xyz):
    x, _, _ = xyz
    assert exact_div(F * x, x) == F
    assert exact_div(F, x) is None
    assert divide_out(x ** 3 * F, x) == (3, F)


def _to_sympy(sympy, p, gens):
    return sympy.Poly(sympy.Add(*(sympy.Rational(c.numerator, c.denominator)
                                  * sympy.Mul(*(g ** k for g, k in zip(gens, e)))
                                  for e, c in p.terms())), *gens)


def _primitive(q):
    """q divided by its content, with a positive leading coefficient."""
    q = q.primitive()[1]
    return q if q.LC() > 0 else -q


def test_factor_matches_sympy_oracle(F, hpoly):
    # products of variables and of pieces whose radical stays within the
    # supported class (degree <= 2 on P^2, bidegree <= (2,2) on P^1 x P^1)
    sympy = pytest.importorskip("sympy")
    from quadrica.funfield import square_class
    rng = random.Random(2718)
    surfaces = (
        (P2_VARS, [(parse_poly(t, P2_VARS), (1,)) for t in ("x+y", "x-2*z", "3*x+y-z")]
         + [(F, (2,))], (2,)),
        (P1XP1_VARS, [(parse_poly(t, P1XP1_VARS), d) for t, d in (
            ("x0+x1", (1, 0)), ("y0-2*y1", (0, 1)), ("x0*y1+x1*y0", (1, 1)),
            ("x0*y0-3*x1*y1", (1, 1)))] + [(hpoly, (2, 2))], (2, 2)),
    )
    checked = 0
    for variables, pieces, bound in surfaces:
        gens = sympy.symbols(variables)
        for _ in range(25):
            chosen = rng.sample(pieces, rng.randint(0, 2))
            if any(sum(col) > b for col, b in zip(zip(*(d for _, d in chosen)), bound)):
                continue
            p = Poly.const(variables, rng.choice((1, -2, 6)))
            for v in variables:
                p = p * Poly.var(variables, v) ** rng.randint(0, 3)
            for q, _ in chosen:
                p = p * q ** rng.randint(1, 3)
            _, oracle = sympy.factor_list(_to_sympy(sympy, p, gens).as_expr(), *gens)
            want = {(_primitive(sympy.Poly(q, *gens)), k) for q, k in oracle}
            got = {(_primitive(_to_sympy(sympy, q, gens)), k) for q, k in factor(p).factors}
            assert got == want, p
            assert {_primitive(_to_sympy(sympy, q, gens)) for q in square_class(p).support} == {
                q for q, k in want if k % 2}, p
            checked += 1
    assert checked >= 30


def test_gcd_remainders_stay_primitive(Fb):
    # each pseudo-remainder of the gcd is made primitive over Q; when its
    # integer content was kept, these two inputs took 25 s and 6 s
    import time
    from quadrica.brauer import add_classes, symbol, tame_residue
    from quadrica.funfield import prime_divisor, surface
    p = parse_poly("(x^3+y^2+1)*(x-y)", P2_VARS) * Fb
    t0 = time.perf_counter()
    assert square_free_part(p) == normalize(p)
    assert time.perf_counter() - t0 < 2.0
    a1, b1, a2, b2 = (parse_poly(t, P2_VARS) for t in (
        "x*y", "x^5+x^4+x^2*y^2+x*y^2+x^2+x",
        "x^5*y^2+x^2*y^4+x^5+x^4+2*x^2*y^2+x*y^2+x^2+x",
        "x^3-2*x^2*y+x*y^2-x^2-4*x*y+y^2-x-2*y+1"))
    along_F = prime_divisor(surface("p2"), parse_poly(F_TEXT, P2_VARS))
    t0 = time.perf_counter()
    res = tame_residue(add_classes(symbol(a1, b1), symbol(a2, b2)), along_F)
    assert time.perf_counter() - t0 < 2.0
    assert str(res) == ("5589*t^12+1260*t^11+3894*t^10+1620*t^9+2135*t^8+1144*t^7"
                        "+612*t^6+104*t^5+51*t^4-36*t^3+6*t^2+4*t+1")


def test_gcd_and_square_free_part_match_sympy_oracle(Fb):
    sympy = pytest.importorskip("sympy")
    gens = sympy.symbols(P2_VARS)
    pieces = [parse_poly(t, P2_VARS) for t in (
        "x", "y", "x-y", "x+y+1", "x^3+y^2+1",
        "x^3-2*x^2*y+x*y^2-x^2-4*x*y+y^2-x-2*y+1")] + [Fb]
    rng = random.Random(1618)

    def product():
        p = Poly.const(P2_VARS, rng.choice((1, -3, 4)))
        for q in rng.sample(pieces, rng.randint(1, 3)):
            p = p * q ** rng.randint(1, 2)
        return p

    for _ in range(30):
        a, b = product(), product()
        sa, sb = (_to_sympy(sympy, q, gens) for q in (a, b))
        assert _primitive(_to_sympy(sympy, poly_gcd(a, b), gens)) == _primitive(
            sympy.gcd(sa, sb)), (a, b)
        assert _primitive(_to_sympy(sympy, square_free_part(a), gens)) == _primitive(
            sympy.sqf_part(sa)), a


# -------------------------------------------------------- coefficient storage


def _stored_canonically(p):
    """Every integral coefficient is an int, every other one a Fraction."""
    return all(type(c) is int or (type(c) is Fraction and c.denominator != 1)
               for c in p._terms.values())


def _random_mixed_poly(rng, variables, max_terms=3, max_exp=2):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e = tuple(rng.randint(0, max_exp) for _ in variables)
        terms[e] = rng.choice((rng.randint(-6, 6), Fraction(rng.randint(-6, 6),
                                                            rng.randint(1, 4))))
    return Poly(variables, terms)


def test_int_storage_matches_sympy_oracle():
    sympy = pytest.importorskip("sympy")
    from quadrica.poly import content, normalized_with_unit
    gens = sympy.symbols(P2_VARS)

    def as_expr(p):
        return _to_sympy(sympy, p, gens).as_expr()

    def primitive_expr(q):
        q = q.primitive()[1]
        return (q if q.LC() > 0 else -q).as_expr()

    rng = random.Random(3141)
    checked = 0
    while checked < 40:
        g, u, v = (_random_mixed_poly(rng, P2_VARS) for _ in range(3))
        if g.is_zero() or u.is_zero() or v.is_zero():
            continue
        a, b = g * u, g * v
        sa, sb = _to_sympy(sympy, a, gens), _to_sympy(sympy, b, gens)
        for p in (g, u, v, a, b, a + b, a - u):
            assert _stored_canonically(p), p
        assert as_expr(a) == sympy.expand(as_expr(g) * as_expr(u))
        assert as_expr(a + b) == sympy.expand(as_expr(a) + as_expr(b))
        for num, den in ((a, u), (b, g), (a, v)):
            q = exact_div(num, den)
            oq, orem = sympy.div(_to_sympy(sympy, num, gens), _to_sympy(sympy, den, gens))
            if orem.is_zero:
                assert q is not None and _stored_canonically(q)
                assert as_expr(q) == oq.as_expr(), (num, den)
            else:
                assert q is None, (num, den)
        unit, prim = normalized_with_unit(a)
        assert _stored_canonically(prim) and prim * unit == a
        assert all(type(c) is int for c in prim._terms.values())
        assert prim.leading()[1] > 0
        assert as_expr(prim) in (primitive_expr(sa), -primitive_expr(sa))
        assert content(a) == abs(sympy.Rational(sa.primitive()[0]))
        if unit == 1:
            assert prim is a
        h = poly_gcd(a, b)
        assert _stored_canonically(h)
        assert primitive_expr(_to_sympy(sympy, h, gens)) == primitive_expr(
            sympy.Poly(sympy.gcd(sa, sb), *gens)), (a, b)
        checked += 1


def test_integral_coefficients_are_stored_as_ints():
    e = (1, 0, 2)
    p, q = Poly(P2_VARS, {e: Fraction(2)}), Poly(P2_VARS, {e: 2})
    assert p == q and hash(p) == hash(q) and str(p) == str(q) == "2*x*z^2"
    assert type(p._terms[e]) is int
    half = Poly(P2_VARS, {e: Fraction(1, 2)})
    assert type((half * 2)._terms[e]) is int
    assert type((half + half)._terms[e]) is int
    assert type(half.derivative("z")._terms[(1, 0, 1)]) is int
    assert type(p.coefficient(e)) is Fraction and p.coefficient(e) == 2
    assert type(p.coefficient((0, 0, 0))) is Fraction
    for value in (3, Fraction(3, 2), 0):
        c = Poly.const(P2_VARS, value)
        assert type(c.constant_value()) is Fraction and c.constant_value() == value


def test_float_coefficients_rejected(F):
    e = (1, 0, 0)
    with pytest.raises(PolyError):
        Poly(P2_VARS, {e: 0.5})
    with pytest.raises(PolyError):
        Poly.const(P2_VARS, 2.0)
    with pytest.raises(PolyError):
        F * 0.5
    with pytest.raises(PolyError):
        F + 1.0
    with pytest.raises(PolyError):
        Poly(("x", "y"), {(1.5, 0): 1})
    with pytest.raises(PolyError):
        Poly.monomial(("x", "y"), {"x": 2.7})


# ------------------------------------------- substitution and composition paths


def reference_substitute(p, bindings):
    """The term-by-term substitution loop the kernel had before its scalar
    path and `compose`: every term rebuilt by Poly products."""
    vs = p.variables
    vals = []
    for name in vs:
        b = bindings.get(name)
        vals.append(Poly.var(vs, name) if b is None
                    else b if isinstance(b, Poly) else Poly.const(vs, b))
    acc = Poly.zero(vs)
    for exps, c in p._terms.items():
        t = Poly.const(vs, c)
        for v, e in zip(vals, exps):
            if e:
                t = t * v ** e
        acc = acc + t
    return acc


def reference_compose(p, images, variables):
    """The evaluation loop `funfield._compose` had before `compose`."""
    acc = Poly.zero(variables)
    one = Poly.const(variables, 1)
    for e, c in p._terms.items():
        term = one * c
        for k, exp in enumerate(e):
            if exp:
                term = term * images[k] ** exp
        acc = acc + term
    return acc


def _printed_once(p):
    """str(p) is kept and equals the format of a fresh copy of the term map."""
    text = str(p)
    return p._str is text is str(p) and text == str(Poly(p.variables, p._terms))


SCALARS = (0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(4, 1))
DOMAINS = (P2_VARS, P1XP1_VARS, ("t",))


def _random_bindings(rng, variables, with_polys):
    names = rng.sample(variables, rng.randint(1, len(variables)))
    return {name: (_random_mixed_poly(rng, variables, max_terms=3, max_exp=2)
                   if with_polys and rng.random() < 0.6 else rng.choice(SCALARS))
            for name in names}


def test_substitute_and_compose_match_reference_loops():
    from quadrica.poly import compose
    rng = random.Random(2024)
    for _ in range(120):
        vs = rng.choice(DOMAINS)
        p = _random_mixed_poly(rng, vs, max_terms=6, max_exp=3)
        for with_polys in (False, True):
            bindings = _random_bindings(rng, vs, with_polys)
            got, want = p.substitute(bindings), reference_substitute(p, bindings)
            assert got == want, (p, bindings)
            assert _stored_canonically(got) and _printed_once(got) and str(got) == str(want)
        target = rng.choice(DOMAINS)
        images = [_random_mixed_poly(rng, target, max_terms=3, max_exp=2) for _ in vs]
        got, want = compose(p, images, target), reference_compose(p, images, target)
        assert got == want, (p, images)
        assert _stored_canonically(got) and _printed_once(got) and str(got) == str(want)


def test_scalar_substitution_examples(F):
    assert F.substitute({"z": 0}) == parse_poly("x^2-2*x*y+y^2", P2_VARS)
    assert F.substitute({"x": 0, "y": 0, "z": 0}).is_zero()
    assert F.substitute({"z": Fraction(1, 2)}) == F.substitute(
        {"z": Poly.const(P2_VARS, Fraction(1, 2))})
    half = F.substitute({"x": Fraction(1, 2), "y": 2, "z": Fraction(3, 2)})
    assert half.constant_value() == Fraction(1, 4) + 4 + Fraction(9, 4) - 2 * (
        1 + Fraction(3, 4) + 3)
    with pytest.raises(PolyError):
        F.substitute({"z": 0.5})
    with pytest.raises(PolyError):
        F.substitute({"w": 1})


def test_compose_rejects_mismatched_images(F):
    from quadrica.poly import compose
    t = Poly.var(("t",), "t")
    with pytest.raises(PolyError):
        compose(F, [t, t], ("t",))
    with pytest.raises(PolyError):
        compose(F, [t, t, Poly.var(P2_VARS, "x")], ("t",))


def test_substitute_and_compose_match_sympy_oracle():
    sympy = pytest.importorskip("sympy")
    from quadrica.poly import compose
    rng = random.Random(4242)

    def expr(q, gens):
        return _to_sympy(sympy, q, gens).as_expr()

    for _ in range(30):
        vs = rng.choice(DOMAINS)
        gens = sympy.symbols(vs)
        p = _random_mixed_poly(rng, vs, max_terms=5, max_exp=3)
        for with_polys in (False, True):
            bindings = _random_bindings(rng, vs, with_polys)
            subs = {gens[vs.index(name)]: expr(b, gens) if isinstance(b, Poly)
                    else sympy.Rational(b.numerator, b.denominator)
                    for name, b in bindings.items()}
            want = sympy.expand(expr(p, gens).subs(subs, simultaneous=True))
            assert sympy.expand(expr(p.substitute(bindings), gens) - want) == 0, (p, bindings)
        target = rng.choice(DOMAINS)
        tgens = sympy.symbols(target)
        images = [_random_mixed_poly(rng, target, max_terms=3, max_exp=2) for _ in vs]
        # rename the source variables first, so that shared names do not clash
        dummies = sympy.symbols(f"s0:{len(vs)}")
        renamed = expr(p, gens).subs(dict(zip(gens, dummies)), simultaneous=True)
        want = sympy.expand(renamed.subs({d: expr(q, tgens) for d, q in zip(dummies, images)}))
        assert sympy.expand(expr(compose(p, images, target), tgens) - want) == 0, (p, images)


F_TEXT_EXPANDED = "x^2-2*x*y-2*x*z+y^2-2*y*z+z^2"


def test_equal_polynomials_print_alike(F, xyz):
    x, y, z = xyz
    routes = [
        F,
        parse_poly("(x-y)^2+z^2-2*z*(x+y)", P2_VARS),
        (x - y) ** 2 + z * z - (x + y) * z * 2,
        F.substitute({"x": x, "y": y, "z": z}),
        Poly(P2_VARS, {e: c for e, c in reversed(list(F.terms()))}),
    ]
    assert all(q == F and str(q) == str(F) == F_TEXT_EXPANDED for q in routes)
    assert str(F) is str(F)



def test_power_starts_from_the_base():
    rng = random.Random(55)
    for _ in range(40):
        vs = rng.choice(DOMAINS)
        p = _random_mixed_poly(rng, vs)
        assert p ** 0 == Poly.const(vs, 1)
        assert p ** 1 == p
        acc = Poly.const(vs, 1)
        for k in range(1, 6):
            acc = acc * p
            assert p ** k == acc and _printed_once(p ** k)
    assert Poly.zero(P2_VARS) ** 0 == Poly.const(P2_VARS, 1)
    assert (Poly.zero(P2_VARS) ** 3).is_zero()


def test_ratfn_constant_denominator_matches_gcd_path(F, xyz):
    from quadrica.poly import normalized_with_unit
    x, y, _ = xyz

    def reference(num, den):
        """RatFn's reduction with the gcd taken whatever the denominator."""
        if num.is_zero():
            return num, Poly.const(num.variables, 1)
        g = poly_gcd(num, den)
        if not g.is_constant():
            num, den = exact_div(num, g), exact_div(den, g)
        unit, den = normalized_with_unit(den)
        return num * (1 / unit), den

    for num in (F, x * y - 3, F * Fraction(2, 3), Poly.zero(P2_VARS)):
        for c in (1, 6, -4, Fraction(3, 5), Fraction(-7, 2)):
            den = Poly.const(P2_VARS, c)
            r = RatFn(num, den)
            assert (r.num, r.den) == reference(num, den), (num, c)
            assert _stored_canonically(r.num) and r.den == Poly.const(P2_VARS, 1)
