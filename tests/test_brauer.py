"""Symbols, tame residues, ramification profiles, and residue-based
equality of two-torsion Brauer classes."""

import random

import pytest

from quadrica.brauer import (
    EMPTY_CLASS,
    add_classes,
    residue_profile,
    symbol,
    tame_residue,
)
from quadrica.funfield import CurveClass, prime_divisor, unit_part
from quadrica.poly import Poly, PolyError, RatFn, parse_poly

from conftest import P1XP1_VARS, P2_VARS, clear_residue_memos, same_class

T = ("t",)


def tcls(text):
    return CurveClass.from_ratfn(RatFn(parse_poly(text, T)))


def test_symbol_basics(xyz):
    x, y, _ = xyz
    a = symbol(x, y)
    assert len(a.symbols) == 1
    assert symbol(Poly.const(P2_VARS, 1), y) == EMPTY_CLASS
    with pytest.raises(PolyError):
        symbol(Poly.zero(P2_VARS), y)


def test_add_classes(xyz, Fb):
    x, y, _ = xyz
    a = symbol(x, y)
    assert add_classes(a, a) == EMPTY_CLASS
    two = add_classes(a, symbol(y, Fb))
    assert len(two.symbols) == 2
    assert add_classes(two, EMPTY_CLASS) == two


def test_tame_residue_examples(p2, Fb, xyz):
    x, y, z = xyz
    dx = prime_divisor(p2, x)
    dz = prime_divisor(p2, z)
    a = symbol(x, y)
    # v_x(x) = 1, v_x(y) = 0: residue is the class of y restricted, i.e. t
    assert tame_residue(a, dx) == tcls("t")
    # both slots are units along x = 0
    assert tame_residue(symbol(y, Fb), dx).is_trivial
    # v_z(x) = v_z(y) = -1: residue is the class of y/x on the line at
    # infinity, the coordinate t, nontrivial
    assert tame_residue(a, dz) == tcls("t")


def test_residue_profile_alpha(p2, xyz):
    x, y, _ = xyz
    prof = residue_profile(symbol(x, y), p2)
    assert [str(c) for c in prof.divisors()] == ["x", "y", "z"]
    assert all(str(r) == "t" for _, r in prof.entries)


def test_residue_profile_empty_class(p2):
    assert residue_profile(EMPTY_CLASS, p2).is_empty


def test_unramified_symbol_with_norm_slot(p2, Fb, xyz):
    # The chart quadric is a norm from K(sqrt(y)):
    #   (x - y - 1)^2 - 4y = x^2 + y^2 + 1 - 2xy - 2x - 2y
    # so the symbol (y, F(x,y,1)) is trivial and in particular unramified.
    x, y, _ = xyz
    u = x - y - 1
    assert u * u - y * 4 == Fb
    prof = residue_profile(symbol(y, Fb), p2)
    assert prof.is_empty
    assert same_class(symbol(y, Fb), EMPTY_CLASS, p2)


def test_is_unramified_examples(p2, xyz):
    x, y, _ = xyz
    assert not residue_profile(symbol(x, y), p2).is_empty
    assert residue_profile(EMPTY_CLASS, p2).is_empty
    # (x, x) = (x, -1) and -1 is a square over C
    assert residue_profile(symbol(x, x), p2).is_empty


def test_classes_equal_examples(p2, xyz):
    x, y, _ = xyz
    assert same_class(symbol(x, y), symbol(y, x), p2)
    assert same_class(symbol(x * y, x), symbol(y, x), p2)
    assert not same_class(symbol(x, y), EMPTY_CLASS, p2)


def test_classes_equal_is_equivalence(p2, Fb, xyz):
    x, y, _ = xyz
    classes = [symbol(x, y), symbol(y, x), symbol(x * y, x), symbol(y, Fb),
               EMPTY_CLASS, add_classes(symbol(x, y), symbol(y, Fb))]
    for u in classes:
        assert same_class(u, u, p2)
    for u in classes:
        for v in classes:
            assert same_class(u, v, p2) == same_class(v, u, p2)
    for u in classes:
        for v in classes:
            for w in classes:
                if same_class(u, v, p2) and same_class(v, w, p2):
                    assert same_class(u, w, p2)


def _pool(rng, chart_quadric, xyz):
    x, y, _ = xyz
    p = Poly.const(P2_VARS, rng.choice([1, 2, -1, -3]))
    for q in (x, y, chart_quadric):
        p = p * q ** rng.randint(0, 2)
    return p


def test_bilinearity_randomized(p2, F, Fb, xyz):
    rng = random.Random(808)
    x, y, z = xyz
    divisors = [prime_divisor(p2, q) for q in (x, y, z, F)]
    for _ in range(200):
        f = _pool(rng, Fb, xyz)
        g = _pool(rng, Fb, xyz)
        hp = _pool(rng, Fb, xyz)
        c = divisors[rng.randrange(len(divisors))]
        lhs = tame_residue(symbol(f * g, hp), c)
        rhs = tame_residue(symbol(f, hp), c) * tame_residue(symbol(g, hp), c)
        assert lhs == rhs


def test_steinberg_randomized(p2, Fb, xyz):
    rng = random.Random(17)
    for _ in range(200):
        f = _pool(rng, Fb, xyz)
        if f.is_constant():
            continue
        assert residue_profile(symbol(f, -f), p2).is_empty


def test_symmetry_randomized(p2, Fb, xyz):
    rng = random.Random(4242)
    for _ in range(60):
        a = _pool(rng, Fb, xyz)
        b = _pool(rng, Fb, xyz)
        if a.is_constant() or b.is_constant():
            continue
        assert same_class(symbol(a, b), symbol(b, a), p2)


def test_p1xp1_residue_properties(p1xp1, hpoly, x4):
    # the same calculus on the second surface, including the (2,2)-divisor
    rng = random.Random(2024)
    from conftest import P1XP1_VARS
    x0, x1, y0, y1 = x4
    Fc = hpoly.substitute({"x0": 1, "y0": 1})
    divisors = [prime_divisor(p1xp1, q) for q in (x0, x1, y0, y1, hpoly)]

    def pool():
        p = Poly.const(P1XP1_VARS, rng.choice([1, 2, -1]))
        for q in (x1, y1, Fc):
            p = p * q ** rng.randint(0, 2)
        return p

    for _ in range(100):
        f, g, w = pool(), pool(), pool()
        if f.is_constant() or g.is_constant() or w.is_constant():
            continue
        c = divisors[rng.randrange(len(divisors))]
        assert tame_residue(symbol(f * g, w), c) == (
            tame_residue(symbol(f, w), c) * tame_residue(symbol(g, w), c))
        assert residue_profile(symbol(f, -f), p1xp1).is_empty


def test_p1xp1_alpha_profile(p1xp1, x4):
    x0, x1, y0, y1 = x4
    prof = residue_profile(symbol(x1, y1), p1xp1)
    assert [str(c) for c in prof.divisors()] == ["x0", "x1", "y0", "y1"]


def test_residues_vanish_off_support(p2, F, Fb, xyz):
    rng = random.Random(5)
    x, y, z = xyz
    dF = prime_divisor(p2, F)
    for _ in range(200):
        # symbols in x, y only never ramify along the conic
        a = x ** rng.randint(0, 2) * y ** rng.randint(0, 2) + rng.randint(1, 3)
        b = x ** rng.randint(1, 2) * y ** rng.randint(0, 2)
        res = tame_residue(symbol(a, b), dF)
        assert res.is_trivial or not a.is_constant()
        # off-support skip: both valuations zero means trivial residue
        if unit_part(a, dF).valuation == 0 and unit_part(b, dF).valuation == 0:
            assert res.is_trivial


def reference_restrict(num, den, c):
    """The restriction of num / den, a unit along c, to the curve:
    homogenize both, pad them to equal degree with the boundary variables,
    divide c out of both and compose with the parametrization of c."""
    from quadrica.funfield import _compose, homogenize, model_degree, parametrize
    from quadrica.poly import divide_out
    s = c.surface
    hn, hd = homogenize(s, num), homogenize(s, den)
    for v, dn, dd in zip(s.boundary_vars, model_degree(s, hn), model_degree(s, hd)):
        pad = Poly.var(s.variables, v)
        hn, hd = hn * pad ** max(dd - dn, 0), hd * pad ** max(dn - dd, 0)
    (vn, hn), (vd, hd) = divide_out(hn, c.poly), divide_out(hd, c.poly)
    assert vn == vd
    coords = parametrize(c).coords
    return RatFn(_compose(hn, coords), _compose(hd, coords))


def reference_tame_residue(u, c):
    """The residue as it was computed before unit parts: restrict
    a^n / b^m for each symbol (a, b) with m = v(a), n = v(b)."""
    res = CurveClass.trivial()
    for a, b in u.sorted_symbols():
        m, n = unit_part(a, c).valuation, unit_part(b, c).valuation
        if m == 0 and n == 0:
            continue
        num = a ** max(n, 0) * b ** max(-m, 0)
        den = b ** max(m, 0) * a ** max(-n, 0)
        res = res * CurveClass.from_ratfn(reference_restrict(num, den, c))
    return res


def reference_candidate_divisors(u, s):
    """Factors of all symbol entries, homogenized, plus the coordinate
    divisors of the model (residues vanish along everything else)."""
    from quadrica.funfield import homogenize, require_chart
    from quadrica.poly import factor
    divs = {prime_divisor(s, Poly.var(s.variables, v)) for v in s.variables}
    for a, b in u.symbols:
        for slot in (a, b):
            require_chart(s, slot)
            if slot.is_constant():
                continue
            for q, _ in factor(slot).factors:
                divs.add(prime_divisor(s, homogenize(s, q)))
    return tuple(sorted(divs, key=str))


def reference_residue_profile(u, s):
    """The profile as it was computed before pair profiles: the residue of
    the whole class along each candidate divisor."""
    from quadrica.brauer import ResidueProfile
    entries = []
    for c in reference_candidate_divisors(u, s):
        r = tame_residue(u, c)
        if not r.is_trivial:
            entries.append((c, r))
    return ResidueProfile(tuple(entries))


@pytest.fixture(scope="module")
def classes_met_while_certifying():
    """Every (class, surface) whose residue profile the verdicts of P^2 up
    to bound 8 and P^1 x P^1 up to bound 3 compute, from cold memos."""
    import quadrica.brauer as brauer
    import quadrica.certify as certify
    met = {}

    def record(u, s, _fn=brauer.residue_profile):
        met[(u, s)] = None
        return _fn(u, s)
    clear_residue_memos()
    with pytest.MonkeyPatch.context() as mp:
        for space in (brauer, certify):
            mp.setattr(space, "residue_profile", record)
        for data in certify.enumerate_types("p2", 8):
            certify.verdict_for("p2", data)
        for data in certify.enumerate_types("p1xp1", 3):
            certify.verdict_for("p1xp1", data)
    return list(met)


def test_tame_residue_matches_reference_on_certificates(classes_met_while_certifying):
    pairs = [(u, c) for u, s in classes_met_while_certifying
             for c in reference_candidate_divisors(u, s)]
    assert {c.surface.kind for _, c in pairs} == {"p2", "p1xp1"}
    assert any(len(u.symbols) > 1 for u, _ in pairs)
    for u, c in pairs:
        assert tame_residue(u, c) == reference_tame_residue(u, c), (u, c)


def _random_class(rng, pool, variables):
    def slot():
        p = Poly.const(variables, rng.choice([1, 2, -1, -3]))
        for q in rng.sample(pool, rng.randint(1, 3)):
            p = p * q ** rng.randint(1, 2)
        return p
    u = EMPTY_CLASS
    for _ in range(rng.randint(1, 3)):
        u = add_classes(u, symbol(slot(), slot()))
    return u


def test_residue_profile_matches_reference(classes_met_while_certifying, p2, p1xp1, Fb,
                                           hpoly):
    for u, s in classes_met_while_certifying:
        assert residue_profile(u, s) == reference_residue_profile(u, s), (u, s)
    rng = random.Random(88)
    for s, (x, y), F in ((p2, (Poly.var(P2_VARS, "x"), Poly.var(P2_VARS, "y")), Fb),
                         (p1xp1, (Poly.var(P1XP1_VARS, "x1"), Poly.var(P1XP1_VARS, "y1")),
                          hpoly.substitute({"x0": 1, "y0": 1}))):
        pool = [x, y, F, x + 1, x - y, y + 1]
        for _ in range(60):
            u = _random_class(rng, pool, s.variables)
            try:
                want = reference_residue_profile(u, s)
            except PolyError as exc:
                with pytest.raises(type(exc)):
                    residue_profile(u, s)
                continue
            assert residue_profile(u, s) == want, (u, s)


def test_pair_profiles_are_memoized_per_surface(p2, xyz):
    from quadrica.brauer import _pair_profile
    x, y, _ = xyz
    clear_residue_memos()
    # (xy, y) = (x, y) + (y, -1) and (y, x) = (x, y) share the pair {x, y}
    want = reference_residue_profile(symbol(x, y), p2)
    assert residue_profile(symbol(x * y, y), p2) == want
    assert residue_profile(symbol(y, x), p2) == want
    assert residue_profile(add_classes(symbol(x * y, y), symbol(y, x)), p2).is_empty
    assert _pair_profile.cache_info().currsize == 1


def test_tame_residue_matches_reference_randomized(p2, F, Fb, xyz):
    # slots include polynomials the factorizer rejects (the two cubics);
    # symbol() reduces them by gcds alone.  The reference restricts
    # a^n / b^m without a gcd on the surface, so the cubics meet every
    # divisor, the line at infinity too.  A slot stands for the fraction
    # num / den by the product num * den, which has the same square class.
    rng = random.Random(606)
    x, y, z = xyz
    pool = [x, y, Fb, x + 1, y - 2, x - y, x ** 3 + y ** 2 + 1, x * y ** 2 + x + 1]
    divisors = [prime_divisor(p2, q) for q in (x, y, z, F, x + z, y - 2 * z, x - y)]
    for _ in range(80):
        c = rng.choice(divisors)

        def slot():
            return (rng.choice(pool) * x ** rng.randint(0, 1) * y ** rng.randint(0, 1)
                    * rng.choice(pool[3:6]) ** rng.randint(0, 1))
        u = EMPTY_CLASS
        for _ in range(rng.randint(1, 3)):
            u = add_classes(u, symbol(slot(), slot()))
        assert tame_residue(u, c) == reference_tame_residue(u, c), (u, c)


def test_symbol_takes_square_class_slots(Fb, xyz):
    from quadrica.funfield import square_class
    x, y, _ = xyz
    pieces = [x, y, Fb, x + 1, x * y - 1, 2 * x ** 2 * y]
    for a in pieces:
        for b in pieces:
            assert symbol(square_class(a) * square_class(Fb), square_class(b)) == (
                symbol(a * Fb, b))


def test_tame_residue_restricts_no_quotient(p2, Fb, xyz, count_calls):
    import quadrica.funfield as funfield
    x, y, z = xyz
    u = add_classes(symbol(x, y), symbol(x * y, Fb))
    counts = count_calls(funfield, "restrict_unit")
    for q in (x, y, z):
        tame_residue(u, prime_divisor(p2, q))
    assert counts == {"restrict_unit": 0}


def test_pair_profile_skips_coordinate_divisors_off_the_pair(p2, F, Fb, xyz, monkeypatch):
    # along y both slots of (x, F) are units, so only z, x and F are tried
    import quadrica.brauer as brauer
    x, _, z = xyz
    seen = []

    def recording(u, c):
        seen.append(c.poly)
        return tame_residue(u, c)
    monkeypatch.setattr(brauer, "tame_residue", recording)
    clear_residue_memos()
    u = symbol(x, Fb)
    assert residue_profile(u, p2) == reference_residue_profile(u, p2)
    assert sorted(seen, key=str) == sorted([z, x, F], key=str)
    clear_residue_memos()
