"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
report.  Expected values marked as derived below were computed by hand
from the residue and restriction formulas before being frozen here.
"""

import json
import random
import time

from quadrica.brauer import (
    EMPTY_CLASS,
    add_classes,
    residue_profile,
    symbol,
    tame_residue,
)
from quadrica.certify import (
    NOT_STABLY_RATIONAL,
    OPEN,
    RATIONAL,
    construct_degeneration_p1xp1,
    enumerate_types,
    replay_certificate,
    select_rule,
    verdict_p1xp1,
    verdict_p2,
)
from quadrica.cli import main
from quadrica.funfield import prime_divisor, square_class, surface, unit_part
from quadrica.poly import Poly
from quadrica.quadform import (
    clifford_invariant,
    discriminant,
    is_weak_bundle,
    make_affine_form,
    normalize_to_hpt,
    type_of,
)

from conftest import P2_VARS, same_class

T = ("t",)


def _report(n, name, elapsed=None):
    timing = "" if elapsed is None else f" ({elapsed:.2f}s)"
    print(f"ACCEPTANCE {n} [{name}]: PASS{timing}")


def test_acceptance_1_hpt_certification(capsys):
    t0 = time.perf_counter()
    code = main(["certify", "--surface", "p2", "--type", "2,2,2,2",
                 "--output", "json"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    assert code == 0
    data = json.loads(out)
    assert data["outcome"] == NOT_STABLY_RATIONAL
    cert = data["certificate"]
    # discriminant is the class of F(x, y, 1)
    fb = "x^2-2*x*y+y^2-2*x-2*y+1"
    assert cert["discriminant"] == {"support": [fb], "nontrivial": True}
    # nonzero alpha residues exactly at x = 0, y = 0, z = 0
    assert sorted(cert["alpha_residues"]) == ["x", "y", "z"]
    assert set(cert["alpha_residues"].values()) == {"t"}
    # residue matching holds at every divisor, with the Hensel witnesses
    # F(0,t,1) = (t-1)^2, F(t,0,1) = (t-1)^2, and F(t,1,0)/t^2 = (t-1)^2/t^2
    # (the unit along z = 0 is balanced by the square x^2)
    assert cert["pirutka"]["passed"] is True
    rows = {r["divisor"]: r for r in cert["pirutka"]["rows"]}
    assert sorted(rows) == ["x", "y", "z"]
    for div in ("x", "y", "z"):
        row = rows[div]
        assert row["alpha_nonzero"] and row["residues_match"]
        assert row["hensel"]["passed"] and row["hensel"]["is_square"]
    assert rows["x"]["hensel"]["unit_restriction"] == "t^2-2*t+1"
    assert rows["y"]["hensel"]["unit_restriction"] == "t^2-2*t+1"
    assert rows["z"]["hensel"]["unit_restriction"] == "(t^2-2*t+1)/(t^2)"
    assert rows["x"]["hensel"]["valuation"] == 0
    assert rows["z"]["hensel"]["valuation"] == -2
    assert elapsed < 1.0, f"HPT certification took {elapsed:.2f}s"
    with capsys.disabled():
        _report(1, "HPT certification", elapsed)


def test_acceptance_2_p2_sweep(capsys):
    t0 = time.perf_counter()
    mismatches = []
    for t in enumerate_types("p2", 8):
        v = verdict_p2(t)
        if sum(t) <= 4 or (t[0] == 0 and t[1] == 0):
            want = RATIONAL
        elif t in {(1, 1, 1, 3), (0, 2, 2, 2)}:
            want = OPEN
        else:
            want = NOT_STABLY_RATIONAL
        if v.outcome != want:
            mismatches.append((t, v.outcome, want))
            continue
        if v.outcome == NOT_STABLY_RATIONAL:
            if v.certificate is None or not replay_certificate(v.certificate):
                mismatches.append((t, "replay-failed", want))
    elapsed = time.perf_counter() - t0
    assert mismatches == []
    assert elapsed < 60.0, f"p2 sweep took {elapsed:.2f}s"
    with capsys.disabled():
        _report(2, "P^2 sweep <= 8, zero mismatches", elapsed)


def test_acceptance_3_p1xp1_sweep(capsys):
    t0 = time.perf_counter()
    mismatches = []
    count = 0
    for data in enumerate_types("p1xp1", 5):
        if data[3][0] < 3 or data[3][1] < 3:
            continue
        count += 1
        v = verdict_p1xp1(data)
        d = [p[0] for p in data]
        e = [p[1] for p in data]
        rational = (d[2] == 0
                    or (d[1] == 0 and e[1] == 0 and e[0] == 0)
                    or (e[0] == 0 and e[1] == 0 and e[2] == 0))
        want = RATIONAL if rational else NOT_STABLY_RATIONAL
        if v.outcome != want:
            mismatches.append((data, v.outcome, want))
            continue
        if v.outcome == NOT_STABLY_RATIONAL:
            c = v.certificate
            ok = (c is not None
                  and is_weak_bundle(c.degeneration)
                  and type_of(c.degeneration).data == tuple(data)
                  and normalize_to_hpt(c.fiber) is not None)
            if not ok:
                mismatches.append((data, "certificate-check-failed", want))
    elapsed = time.perf_counter() - t0
    assert mismatches == []
    assert count > 500
    assert elapsed < 300.0, f"p1xp1 sweep took {elapsed:.2f}s"
    with capsys.disabled():
        _report(3, f"P^1xP^1 sweep ({count} types), zero mismatches", elapsed)


def test_acceptance_4_constructor_soundness(capsys):
    t0 = time.perf_counter()
    # the selected case table never produces a negative exponent
    checked = 0
    for data in enumerate_types("p1xp1", 5):
        if data[3][0] < 3 or data[3][1] < 3:
            continue
        d = [p[0] for p in data]
        e = [p[1] for p in data]
        rational = (d[2] == 0
                    or (d[1] == 0 and e[1] == 0 and e[0] == 0)
                    or (e[0] == 0 and e[1] == 0 and e[2] == 0))
        if rational:
            continue
        from quadrica.quadform import BundleType
        t = BundleType.of("p1xp1", data)
        rule = select_rule(t)
        form = construct_degeneration_p1xp1(t, rule)  # raises on any negative exponent
        assert is_weak_bundle(form)
        checked += 1
    # the q3 branch precondition: d0 odd with d2 = 1 forces d3 >= 5
    for t in enumerate_types("p2", 12):
        if sum(t) >= 8 and t[1] >= 1 and t[0] % 2 == 1 and t[2] == 1:
            assert t[3] - 4 >= 1, f"exponent safety violated at {t}"
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        _report(4, f"constructor soundness ({checked} case-table forms)", elapsed)


def _chart_pool(rng, Fb):
    x = Poly.var(P2_VARS, "x")
    y = Poly.var(P2_VARS, "y")
    p = Poly.const(P2_VARS, rng.choice([1, 2, -1, 3]))
    for q in (x, y, Fb):
        p = p * q ** rng.randint(0, 2)
    return p


def test_acceptance_5_residue_property_suite(capsys, F, Fb):
    t0 = time.perf_counter()
    p2 = surface("p2")
    x = Poly.var(P2_VARS, "x")
    y = Poly.var(P2_VARS, "y")
    z = Poly.var(P2_VARS, "z")
    divisors = [prime_divisor(p2, q) for q in (x, y, z, F)]
    rng = random.Random(20260809)

    n = 0
    while n < 200:  # tame-symbol bilinearity
        f, g, w = (_chart_pool(rng, Fb) for _ in range(3))
        if f.is_constant() or g.is_constant() or w.is_constant():
            continue
        c = divisors[rng.randrange(len(divisors))]
        assert tame_residue(symbol(f * g, w), c) == (
            tame_residue(symbol(f, w), c) * tame_residue(symbol(g, w), c))
        n += 1

    n = 0
    while n < 200:  # (f, -f) is unramified over C
        f = _chart_pool(rng, Fb)
        if f.is_constant():
            continue
        assert residue_profile(symbol(f, -f), p2).is_empty
        n += 1

    n = 0
    while n < 200:  # symbol symmetry
        a, b = _chart_pool(rng, Fb), _chart_pool(rng, Fb)
        if a.is_constant() or b.is_constant():
            continue
        assert same_class(symbol(a, b), symbol(b, a), p2)
        n += 1

    n = 0
    while n < 200:  # residues vanish off support
        a, b = _chart_pool(rng, Fb), _chart_pool(rng, Fb)
        if a.is_constant() or b.is_constant():
            continue
        c = divisors[rng.randrange(len(divisors))]
        if unit_part(a, c).valuation == 0 and unit_part(b, c).valuation == 0:
            assert tame_residue(symbol(a, b), c).is_trivial
        n += 1

    for _ in range(200):  # square-class multiplicativity
        f, g = _chart_pool(rng, Fb), _chart_pool(rng, Fb)
        assert square_class(f * g) == square_class(f) * square_class(g)

    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        _report(5, "residue-calculus property suite (5 x 200 cases)", elapsed)


def test_acceptance_6_clifford_similarity_law(capsys, Fb):
    t0 = time.perf_counter()
    p2 = surface("p2")
    x = Poly.var(P2_VARS, "x")
    y = Poly.var(P2_VARS, "y")
    fiber = make_affine_form((y, x, x * y, Fb), p2)
    base = clifford_invariant(fiber)
    d_rep = discriminant(fiber).representative()
    rng = random.Random(606)
    count = 0
    while count < 50:
        lam = Poly.const(P2_VARS, 1)
        for q in (x, y, Fb):
            lam = lam * q ** rng.randint(0, 2)
        scaled = clifford_invariant(make_affine_form([lam * e for e in fiber.entries], p2))
        assert same_class(add_classes(scaled, base), symbol(lam, d_rep), p2)
        count += 1
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        _report(6, "Clifford similarity law (50 scalings)", elapsed)


def test_acceptance_7_equality_test_soundness(capsys, Fb):
    t0 = time.perf_counter()
    p2 = surface("p2")
    x = Poly.var(P2_VARS, "x")
    y = Poly.var(P2_VARS, "y")
    assert same_class(symbol(x * y, x), symbol(y, x), p2)
    assert not same_class(symbol(x, y), EMPTY_CLASS, p2)
    fiber = make_affine_form((y, x, x * y, Fb), p2)
    scaled = make_affine_form([y * e for e in fiber.entries], p2)
    cl = clifford_invariant(scaled)
    assert same_class(cl, add_classes(symbol(x, y), symbol(y, Fb)), p2)
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        _report(7, "equality-test soundness spot checks", elapsed)


def test_acceptance_8_table_determinism(capsys):
    t0 = time.perf_counter()
    outputs = []
    for jobs in ("1", "4", "8"):
        code = main(["table", "--surface", "p2", "--bound", "6", "--jobs", jobs])
        assert code == 0
        outputs.append(capsys.readouterr().out.encode())
    assert outputs[0] == outputs[1] == outputs[2]
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        _report(8, "table determinism across jobs 1, 4, 8", elapsed)
