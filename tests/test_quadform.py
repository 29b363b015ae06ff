"""Diagonal forms: types, weak bundles, fibers, invariants under
similarity-preserving rewrites, and the similarity normalizer."""

import random
import re
from pathlib import Path

import pytest

from quadrica.brauer import EMPTY_CLASS, add_classes, symbol
from quadrica.funfield import square_class
from quadrica.poly import Poly, parse_poly, square_class_part
from quadrica.quadform import (
    BundleType,
    QuadformError,
    canonical_quadric,
    chart_quadric,
    clifford_invariant,
    discriminant,
    generic_fiber,
    hpt_alpha,
    hpt_target,
    is_weak_bundle,
    make_affine_form,
    make_diag_form,
    normalize_to_hpt,
    type_of,
    verify_witness,
    weak_gcd,
)

from conftest import P1XP1_VARS, P2_VARS, same_class

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference"


def one():
    return Poly.const(P2_VARS, 1)


def test_make_diag_form_validation(p2, F, xyz):
    x, y, z = xyz
    form = make_diag_form((z ** 2, x * z, x * y, y * F), p2)
    # a valid weak-bundle form even though the degrees are mixed parity
    assert not type_of(form).parity_valid
    with pytest.raises(QuadformError, match="nonzero"):
        make_diag_form((Poly.zero(P2_VARS), x, y, F), p2)
    with pytest.raises(QuadformError, match="homogeneous"):
        make_diag_form((x + 1, x, y, F), p2)


def test_type_of_examples(p2, F, xyz):
    x, y, z = xyz
    hpt = make_diag_form((y * z, x * z, x * y, F), p2)
    assert type_of(hpt).data == (2, 2, 2, 2)
    q1 = make_diag_form((z, x, x * y * z, y * F), p2)
    assert type_of(q1).data == (1, 1, 3, 3)


def test_type_of_p1xp1(p1xp1, hpoly, x4):
    x0, x1, y0, y1 = x4
    form = make_diag_form((x0 * y0, x0 * y1, x1 * y0, x1 * y1 * hpoly), p1xp1)
    assert type_of(form).data == ((1, 1), (1, 1), (1, 1), (3, 3))


def test_bundle_type_sorting_and_parity():
    t = BundleType.of("p2", (4, 0, 2, 2))
    assert t.data == (0, 2, 2, 4) and t.reordered
    assert t.parity_valid
    with pytest.raises(QuadformError):
        BundleType.of("p2", (1, 2, 2, 2)).validate()
    with pytest.raises(QuadformError):
        BundleType.of("p2", (-2, 2, 2, 2)).validate()
    from quadrica.certify import verdict_for
    # a component needs one degree per grading block of its surface, and
    # every degree is an int, not a float or a bool
    for kind, data in (("p1xp1", (1, 1, 1, 3)),
                       ("p2", ((1, 1), (1, 1), (1, 1), (3, 3))),
                       ("p1xp1", ((1, 1, 1), (1, 1), (1, 1), (3, 3))),
                       ("p2", (2.5, 2, 2, 2)),
                       ("p2", (True, 2, 2, 2)),
                       ("p1xp1", ((1.5, 1), (1, 1), (1, 1), (3, 3)))):
        with pytest.raises(QuadformError, match="one degree per block"):
            verdict_for(kind, data)


def test_is_weak_bundle(p2, F, xyz):
    x, y, z = xyz
    q2ish = make_diag_form((z ** 2, x * z, x * y, y * z * F), p2)
    assert is_weak_bundle(q2ish)
    bad = make_diag_form((x, x * y, x * z, x * F), p2)
    assert not is_weak_bundle(bad)
    assert weak_gcd(bad) == x
    hpt = make_diag_form((y * z, x * z, x * y, F), p2)
    assert is_weak_bundle(hpt)


def test_generic_fiber(p2, F, Fb, xyz):
    x, y, z = xyz
    hpt = make_diag_form((y * z, x * z, x * y, F), p2)
    fib = generic_fiber(hpt)
    assert fib.affine
    assert fib.entries == (y, x, x * y, Fb)


def test_generic_fiber_p1xp1(p1xp1, hpoly, x4):
    x0, x1, y0, y1 = x4
    Fc = chart_quadric(p1xp1)
    # subcase with even d0, e0: entries x1^2*y1^2, y0*y1, x0*x1*y0^2, x1*y1*h
    form = make_diag_form(
        (x1 ** 2 * y1 ** 2, y0 * y1, x0 * x1 * y0 ** 2, x1 * y1 * hpoly), p1xp1)
    fib = generic_fiber(form)
    assert fib.entries == (x1 ** 2 * y1 ** 2, y1, x1, x1 * y1 * Fc)


def test_discriminant_examples(p2, Fb, xyz):
    x, y, _ = xyz
    fib = make_affine_form((y, x, x * y, Fb), p2)
    assert discriminant(fib).support == frozenset({Fb})
    split = make_affine_form((one(), one(), one(), one()), p2)
    assert discriminant(split).is_trivial
    trivial_d = make_affine_form((one(), x, y, x * y), p2)
    assert discriminant(trivial_d).is_trivial


def test_clifford_invariant_hpt(p2, Fb, xyz):
    x, y, _ = xyz
    fib = make_affine_form((y, x, x * y, Fb), p2)
    cl = clifford_invariant(fib)
    # scaling by y gives <1, xy, x, yF>: a = xy, b = x, d = F;
    # (xy, x) + (x^2 y, F) = (x, y) + (y, F) over C
    want = add_classes(symbol(x, y), symbol(y, Fb))
    assert same_class(cl, want, p2)


def test_clifford_split_form(p2):
    fib = make_affine_form((one(), one(), one(), one()), p2)
    assert clifford_invariant(fib) == EMPTY_CLASS


def test_clifford_scale_law(p2, Fb, xyz):
    # cl(lambda * q) = cl(q) + (lambda, discr q)
    x, y, _ = xyz
    fib = make_affine_form((y, x, x * y, Fb), p2)
    base = clifford_invariant(fib)
    d_rep = discriminant(fib).representative()
    for lam in (x, y, x * y, Fb, x * y ** 2):
        scaled = clifford_invariant(make_affine_form([lam * e for e in fib.entries], p2))
        assert same_class(add_classes(scaled, base), symbol(lam, d_rep), p2)


def reference_discriminant(f):
    """The discriminant's representative as the gcd-based square-class
    part of the expanded product."""
    e0, e1, e2, e3 = generic_fiber(f).entries
    return square_class_part(e0 * e1 * e2 * e3)


def reference_clifford_invariant(f):
    """The Clifford invariant from gcd-based square-class parts of products
    of the entries."""
    e0, e1, e2, e3 = generic_fiber(f).entries
    a = square_class_part(e0 * e1)
    b = square_class_part(e0 * e2)
    d = square_class_part(e0 * e1 * e2 * e3)
    assert square_class_part(a * b * d) == square_class_part(e0 * e3)
    return add_classes(symbol(a, b), symbol(square_class_part(a * b), d))


def random_fibers(rng, s, n):
    """Affine forms whose entries are a constant times a chart monomial
    times a power of the chart quadric, a line or a product of two lines
    (radicals the factorizer supports)."""
    u, v = (Poly.var(s.variables, name) for name in s.chart_vars)
    pieces = [chart_quadric(s), u + 1, v - 2, u - v, (u + 1) * (v - 2)]
    for _ in range(n):
        yield make_affine_form(
            [rng.choice((1, -2, 3)) * u ** rng.randint(0, 2) * v ** rng.randint(0, 2)
             * rng.choice(pieces) ** rng.randint(0, 2) for _ in range(4)], s)


def test_invariants_match_reference_products(p2, p1xp1, Fb, xyz):
    rng = random.Random(31)
    fibers = (certified_fibers("p2", 8) + certified_fibers("p1xp1", 3)
              + list(move_closure_forms(p2, Fb, xyz))
              + list(random_fibers(rng, p2, 12)) + list(random_fibers(rng, p1xp1, 12)))
    for form in fibers:
        assert discriminant(form).representative() == reference_discriminant(form), form
        assert clifford_invariant(form) == reference_clifford_invariant(form), form


def test_invariants_run_no_gcd_square_class(p2, p1xp1, count_calls):
    import quadrica.poly as poly
    forms = certified_fibers("p2", 4) + list(random_fibers(random.Random(8), p1xp1, 5))
    assert len(forms) > 5
    counts = count_calls(poly, "square_class_part")
    for form in forms:
        discriminant(form)
        clifford_invariant(form)
    assert counts == {"square_class_part": 0}


def test_moves(p2, Fb, xyz):
    # absorbing squares entrywise keeps both invariants
    x, y, _ = xyz
    form = make_affine_form((y ** 2, x * y, x * y ** 2, y ** 2 * Fb), p2)
    absorbed = make_affine_form([square_class_part(e) for e in form.entries], p2)
    assert absorbed.entries == (one(), x * y, x, Fb)
    assert discriminant(absorbed) == discriminant(form)
    assert clifford_invariant(absorbed) == clifford_invariant(form)


def test_boundary_twists_on_p1xp1(p1xp1, hpoly, x4):
    x0, x1, y0, y1 = x4
    form = make_diag_form((x0 * y0, x0 * y1, x1 * y0, x1 * y1 * hpoly), p1xp1)
    # arbitrary boundary powers keep the fiber
    es = form.entries
    t2 = make_diag_form((es[0] * x0 * y0 ** 3, *es[1:]), p1xp1)
    assert generic_fiber(t2) == generic_fiber(form)
    assert type_of(t2).data[0] == (1, 1)  # sorted; entry 0 now has bidegree (2,4)


def test_discriminant_invariant_under_moves(p2, Fb, xyz):
    rng = random.Random(12)
    x, y, _ = xyz
    fib = make_affine_form((y, x, x * y, Fb), p2)
    moves = [lambda es: [x * e for e in es],
             lambda es: [y * x * e for e in es],
             lambda es: [square_class_part(e) for e in es],
             lambda es: (es[3], es[1], es[0], es[2]),
             lambda es: (es[0], x ** 2 * es[1], es[2], es[3]),
             lambda es: (es[0], es[1], y ** 4 * es[2], es[3])]
    d0 = discriminant(fib)
    form = fib
    for _ in range(40):
        form = make_affine_form(moves[rng.randrange(len(moves))](form.entries), p2)
        assert discriminant(form) == d0


def test_normalize_to_hpt_q2prime(p2, Fb, xyz):
    # q2' with d0 even and squares absorbed: <1, x, xy, yF>
    x, y, _ = xyz
    q2p = make_affine_form((one(), x, x * y, y * Fb), p2)
    w = normalize_to_hpt(q2p)
    assert w is not None
    assert verify_witness(q2p, w)
    # the witness scale is y modulo squares (x^2 y here)
    assert square_class(w.scale).support == frozenset({y})


def test_normalize_to_hpt_p1xp1_canonical(p1xp1, x4):
    x0, x1, y0, y1 = x4
    Fc = chart_quadric(p1xp1)
    q = make_affine_form((Poly.const(P1XP1_VARS, 1), y1, x1, x1 * y1 * Fc), p1xp1)
    w = normalize_to_hpt(q)
    assert w is not None and verify_witness(q, w)
    assert square_class(w.scale).support == frozenset({x1, y1})


def test_normalize_to_hpt_identity(p2, Fb, xyz):
    x, y, _ = xyz
    fib = make_affine_form((y, x, x * y, Fb), p2)
    w = normalize_to_hpt(fib)
    assert w is not None
    assert w.permutation == (0, 1, 2, 3)
    assert w.scale.is_constant()


def test_normalize_to_hpt_rejects_wrong_pattern(p2, Fb, xyz):
    x, y, _ = xyz
    assert normalize_to_hpt(make_affine_form((one(), x, y, Fb), p2)) is None


def test_normalize_to_hpt_out_of_class(p2, Fb, xyz):
    x, y, _ = xyz
    for bad in (y + 1, x ** 2 + y ** 2):
        with pytest.raises(QuadformError, match="class"):
            normalize_to_hpt(make_affine_form((bad, x, x * y, Fb), p2))


def move_closure_forms(p2, Fb, xyz):
    rng = random.Random(77)
    x, y, _ = xyz
    fib = make_affine_form((y, x, x * y, Fb), p2)
    moves = [lambda es: [x * e for e in es],
             lambda es: [y * e for e in es],
             lambda es: [square_class_part(e) for e in es],
             lambda es: (es[1], es[0], es[3], es[2]),
             lambda es: (es[2], es[3], es[0], es[1]),
             lambda es: (x ** 2 * es[0], es[1], es[2], es[3]),
             lambda es: (es[0], es[1], es[2], y ** 2 * es[3]),
             lambda es: [3 * x * e for e in es],
             lambda es: (es[0], 5 * x ** 2 * es[1], es[2], es[3])]
    form = fib
    for _ in range(25):
        form = make_affine_form(moves[rng.randrange(len(moves))](form.entries), p2)
        yield form


def test_normalize_move_closure(p2, Fb, xyz):
    units = set()
    for form in move_closure_forms(p2, Fb, xyz):
        w = normalize_to_hpt(form)
        assert w is not None and verify_witness(form, w)
        units.update(w.units)
    assert units - {1}


def reference_normalize_to_hpt(f):
    """The gcd-based search the normalizer replaced: square-class parts of
    the scaled entries, square factors by poly_sqrt (class check left out;
    it is only run on in-class fibers)."""
    from itertools import combinations, permutations

    from quadrica.poly import exact_div, normalized_with_unit, poly_sqrt, square_class_part
    from quadrica.quadform import SimilarityWitness
    target = hpt_target(f.surface)
    for size in range(5):
        for subset in combinations(range(4), size):
            lam = Poly.const(f.surface.variables, 1)
            for i in subset:
                lam = lam * f.entries[i]
            scaled = [lam * e for e in f.entries]
            reps = [square_class_part(p) for p in scaled]
            for perm in permutations(range(4)):
                if all(reps[i] == target[perm[i]] for i in range(4)):
                    squares, units = [], []
                    for i in range(4):
                        unit, prim = normalized_with_unit(exact_div(scaled[i], reps[i]))
                        squares.append(poly_sqrt(prim))
                        units.append(unit)
                    return SimilarityWitness(lam, tuple(squares), tuple(units), perm)
    return None


def certified_fibers(surface_kind, bound):
    """Distinct generic fibers of the NotStablyRational rows of the frozen
    benchmark table with every coordinate <= bound."""
    from quadrica.certify import construct_degeneration_p1xp1, construct_degeneration_p2
    from quadrica.cli import parse_type_string
    name = "p2_b16.tsv" if surface_kind == "p2" else "p1xp1_b5.tsv"
    fibers = {}
    for line in (REFERENCE / name).read_text().splitlines():
        key, outcome, reason, _ = line.split("\t")
        t = BundleType.of(surface_kind, parse_type_string(surface_kind, key))
        if outcome != "NotStablyRational" or max(map(int, re.split("[,:]", key))) > bound:
            continue
        if surface_kind == "p2":
            form, _ = construct_degeneration_p2(t)
        else:
            form = construct_degeneration_p1xp1(t, reason.removeprefix("degeneration-"))
        fibers[generic_fiber(form)] = None
    return list(fibers)


def test_normalize_matches_reference_search(p2, Fb, xyz):
    p2_fibers = certified_fibers("p2", 8)
    assert len(p2_fibers) == 9
    forms = p2_fibers + certified_fibers("p1xp1", 4) + list(move_closure_forms(p2, Fb, xyz))
    for form in forms:
        w = normalize_to_hpt(form)
        assert w is not None and w == reference_normalize_to_hpt(form), form


def test_normalizer_runs_no_gcd_search(p2, Fb, xyz, count_calls):
    import quadrica.poly as poly
    x, y, _ = xyz
    form = make_affine_form((2 * x ** 3 * y, x ** 2, x ** 2 * y, 3 * x * y ** 2 * Fb ** 3), p2)
    counts = count_calls(poly, "square_class_part", "poly_sqrt", "factor")
    w = normalize_to_hpt(form)
    assert w is not None and verify_witness(form, w)
    assert counts == {"square_class_part": 0, "poly_sqrt": 0, "factor": 0}


def test_type_shift_under_entry_twist(p1xp1, hpoly, x4):
    # twisting entry i by a monomial shifts exactly one multiset element
    # by the monomial's bidegree
    x0, x1, y0, y1 = x4
    form = make_diag_form((x0 * y0, x0 * y1, x1 * y0, x1 * y1 * hpoly), p1xp1)
    old = list(type_of(form).data)
    m = x0 ** 2 * y0
    twisted = make_diag_form((form.entries[0], form.entries[1] * m, *form.entries[2:]), p1xp1)
    new = list(type_of(twisted).data)
    old.remove((1, 1))
    new.remove((1 + 2, 1 + 1))
    assert sorted(old) == sorted(new)


def test_hpt_target_and_alpha(p2, p1xp1):
    tgt = hpt_target(p2)
    assert [str(e) for e in tgt] == ["y", "x", "x*y", "x^2-2*x*y+y^2-2*x-2*y+1"]
    assert str(hpt_alpha(p2)) == "(x, y)"
    tgt4 = hpt_target(p1xp1)
    assert [str(e) for e in tgt4][:3] == ["y1", "x1", "x1*y1"]


def test_canonical_quadric_consistency(p2, p1xp1, F, hpoly):
    assert canonical_quadric(p2) == F
    assert canonical_quadric(p1xp1) == hpoly
    # the chart quadric on p1xp1 is F in the chart coordinates
    Fc = chart_quadric(p1xp1)
    assert Fc == parse_poly("x1^2+y1^2+1-2*(x1*y1+x1+y1)", P1XP1_VARS)
