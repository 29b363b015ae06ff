"""Verdict engine: trichotomies, degeneration constructors, the residue
diagnostic, nontriviality criterion, certificates and replay."""

import json

import pytest

from quadrica.brauer import EMPTY_CLASS, residue_profile, symbol
from quadrica.certify import (
    NOT_STABLY_RATIONAL,
    OPEN,
    RATIONAL,
    UNKNOWN,
    CertifyError,
    ConstructionError,
    arason_nontriviality,
    build_certificate,
    certificate_digest,
    certificate_json,
    construct_degeneration_p1xp1,
    construct_degeneration_p2,
    cor53_rule,
    enumerate_types,
    pirutka_check,
    replay_certificate,
    select_rule,
    verdict_for,
    verdict_json,
    verdict_p1xp1,
    verdict_p2,
)
from quadrica.funfield import CurveClass, surface
from quadrica.poly import FactorError, Poly, PolyError
from quadrica.quadform import (
    BundleType,
    QuadformError,
    canonical_quadric,
    clifford_invariant,
    discriminant,
    hpt_alpha,
    is_weak_bundle,
    make_affine_form,
    make_diag_form,
    normalize_to_hpt,
    type_of,
)

from conftest import P2_VARS, clear_residue_memos


def pirutka(fiber, alpha):
    s = fiber.surface
    return pirutka_check(discriminant(fiber), residue_profile(alpha, s),
                         residue_profile(clifford_invariant(fiber), s))


def arason(fiber, alpha):
    return arason_nontriviality(discriminant(fiber), residue_profile(alpha, fiber.surface))


# ------------------------------------------------------------- p2 verdicts


def test_verdict_p2_examples():
    assert verdict_p2((2, 2, 2, 2)).outcome == NOT_STABLY_RATIONAL
    assert verdict_p2((0, 0, 2, 4)).outcome == RATIONAL
    assert verdict_p2((1, 1, 1, 3)).outcome == OPEN
    assert verdict_p2((0, 2, 2, 2)).outcome == OPEN
    assert verdict_p2((1, 1, 1, 1)).outcome == RATIONAL
    assert verdict_p2((0, 0, 0, 0)).outcome == RATIONAL


def test_verdict_p2_parity_error():
    with pytest.raises(QuadformError, match="parity"):
        verdict_p2((1, 2, 2, 2))
    with pytest.raises(QuadformError, match="negative"):
        verdict_p2((-2, 2, 2, 2))


def test_verdict_p2_autosort_note():
    v = verdict_p2((4, 2, 0, 2))
    assert v.bundle_type.data == (0, 2, 2, 4)
    assert any("reordered" in n for n in v.notes)


def test_construct_degeneration_p2(p2, F, xyz):
    x, y, z = xyz
    form, rule = construct_degeneration_p2(BundleType.of("p2", (2, 2, 2, 2)))
    assert rule == "hpt-direct"
    assert form.entries == (y * z, x * z, x * y, F)

    form, rule = construct_degeneration_p2(BundleType.of("p2", (0, 2, 2, 4)))
    assert rule == "q2"
    assert form.entries == (Poly.const(P2_VARS, 1), x * z, x * y, y * z * F)

    form, rule = construct_degeneration_p2(BundleType.of("p2", (1, 1, 3, 3)))
    assert rule == "q1"
    assert form.entries == (z, x, x * y * z, y * F)

    form, rule = construct_degeneration_p2(BundleType.of("p2", (1, 1, 1, 5)))
    assert rule == "q3"
    assert form.entries == (z, x, y, x * y * z * F)

    with pytest.raises(ConstructionError):
        construct_degeneration_p2(BundleType.of("p2", (1, 1, 1, 3)))


def test_pirutka_check_hpt(p2, Fb, xyz):
    x, y, _ = xyz
    fiber = make_affine_form((y, x, x * y, Fb), p2)
    report = pirutka(fiber, hpt_alpha(p2))
    assert report.passed is True
    assert [str(r.divisor) for r in report.rows] == ["x", "y", "z"]
    for r in report.rows:
        assert r.alpha_nonzero and r.residues_match and r.hensel.passed


def test_pirutka_vacuous_for_empty_class(p2, Fb, xyz):
    x, y, _ = xyz
    fiber = make_affine_form((y, x, x * y, Fb), p2)
    report = pirutka(fiber, EMPTY_CLASS)
    assert report.passed is True
    for r in report.rows:
        assert not r.alpha_nonzero


def test_pirutka_trivial_discriminant_form(p2, xyz):
    x, y, _ = xyz
    one = Poly.const(P2_VARS, 1)
    fiber = make_affine_form((one, x, y, x * y), p2)
    report = pirutka(fiber, symbol(x, y))
    assert report.passed is not None  # decided by the data, not an error


def test_arason_examples(p2, Fb, xyz):
    x, y, _ = xyz
    one = Poly.const(P2_VARS, 1)
    fiber = make_affine_form((y, x, x * y, Fb), p2)
    res = arason(fiber, hpt_alpha(p2))
    assert res.passed and str(res.witness) == "x"
    assert not arason(fiber, EMPTY_CLASS).passed
    degenerate = make_affine_form((one, x, y, x * y), p2)
    res2 = arason(degenerate, symbol(x, y))
    assert not res2.passed and not res2.discriminant_nontrivial
    assert "kernel" in res2.note


def test_build_certificate_hpt(p2, Fb):
    cert = build_certificate(BundleType.of("p2", (2, 2, 2, 2)))
    assert cert.rule == "hpt-direct"
    assert cert.weak_bundle_ok
    assert cert.discriminant.support == frozenset({Fb})
    assert [str(c) for c in cert.alpha_residues.divisors()] == ["x", "y", "z"]
    assert cert.pirutka.passed is True
    assert cert.arason.passed
    assert replay_certificate(cert)


def test_build_certificate_q2(p2):
    cert = build_certificate(BundleType.of("p2", (0, 2, 2, 4)))
    assert cert.rule == "q2"
    assert replay_certificate(cert)
    # similarity witness scale is y modulo squares
    from quadrica.funfield import square_class
    y = Poly.var(P2_VARS, "y")
    assert square_class(cert.similarity.scale).support == frozenset({y})


def test_build_certificate_q3(p2):
    cert = build_certificate(BundleType.of("p2", (1, 1, 1, 5)))
    assert cert.rule == "q3"
    assert replay_certificate(cert)


def test_build_certificate_open_type_rejected():
    with pytest.raises(CertifyError):
        build_certificate(BundleType.of("p2", (1, 1, 1, 3)))


def test_replay_rejects_tampered_certificate(p2, xyz):
    import dataclasses
    x, y, z = xyz
    cert = build_certificate(BundleType.of("p2", (2, 2, 2, 2)))
    wrong_fiber = make_affine_form(
        (y, x, x * y, Poly.const(P2_VARS, 1)), p2)
    tampered = dataclasses.replace(cert, fiber=wrong_fiber)
    assert not replay_certificate(tampered)
    tampered2 = dataclasses.replace(cert, input_type=BundleType.of("p2", (0, 2, 2, 4)))
    assert not replay_certificate(tampered2)
    tampered3 = dataclasses.replace(cert, input_type=BundleType.of("p2", (1, 2, 2, 2)))
    assert not replay_certificate(tampered3)


def test_replay_rejects_tampered_unchecked_fields(p2, xyz):
    import dataclasses
    x, _, _ = xyz
    cert = build_certificate(BundleType.of("p2", (2, 2, 2, 2)))
    assert not replay_certificate(dataclasses.replace(cert, weak_gcd=x))
    assert not replay_certificate(
        dataclasses.replace(cert, conclusion=cert.conclusion[:-1]))
    row = cert.pirutka.rows[0]
    rows = (dataclasses.replace(row, beta_residue=CurveClass.trivial()),) + cert.pirutka.rows[1:]
    assert not replay_certificate(
        dataclasses.replace(cert, pirutka=dataclasses.replace(cert.pirutka, rows=rows)))
    # a relabelled rule, with the conclusion rewritten to match
    assert not replay_certificate(relabelled(cert, "q1"))
    a4 = build_certificate(BundleType.of("p1xp1", ((1, 1), (1, 1), (1, 1), (3, 3))))
    assert replay_certificate(a4)
    assert not replay_certificate(relabelled(a4, "A1"))


def test_replay_rejects_tampered_witness(xyz):
    import dataclasses
    from quadrica.poly import RatFn
    x, y, _ = xyz
    cert = build_certificate(BundleType.of("p2", (2, 4, 4, 6)))
    w = cert.similarity
    sq = w.square_factors
    assert sq[0] == x ** 2 and w.units[0] == 1

    def with_witness(**fields):
        return dataclasses.replace(cert, similarity=dataclasses.replace(w, **fields))
    # a fraction whose numerator is the true factor, the true factor as a
    # fraction, an inexact unit, a slot outside the four, and a missing
    # square factor: each is refused without raising
    for tampered in (with_witness(square_factors=(RatFn(x ** 2, y),) + sq[1:]),
                     with_witness(square_factors=(RatFn(sq[0]),) + sq[1:]),
                     with_witness(units=(1.0,) + w.units[1:]),
                     with_witness(permutation=w.permutation[:3] + (4,)),
                     with_witness(square_factors=sq[:3])):
        assert replay_certificate(tampered) is False


def relabelled(cert, rule):
    import dataclasses
    conclusion = (f"degeneration:{rule}",) + cert.conclusion[1:]
    return dataclasses.replace(cert, rule=rule, conclusion=conclusion)


# certificate digests of one type per rule, as frozen in perfbench/reference
PINNED_DIGESTS = [
    ("p2", "2,2,2,2", "a2676309f101d2b7"),    # hpt-direct
    ("p2", "1,1,3,3", "70e5565814ed61d0"),    # q1
    ("p2", "0,2,2,4", "68ec449ee7fda8a3"),    # q2
    ("p2", "1,1,1,5", "f72267bc94bd90fe"),    # q3
    ("p1xp1", "0:0,0:2,2:0,4:4", "1c81b4e263da3396"),  # A1
    ("p1xp1", "1:0,1:2,1:2,3:4", "9a60766fc53a4681"),  # A2
    ("p1xp1", "0:1,0:1,2:1,4:3", "611e20305e8c7f00"),  # A3
    ("p1xp1", "1:1,1:1,1:1,3:3", "a3345a7c5cc22a6e"),  # A4
    ("p1xp1", "0:2,2:0,2:0,4:4", "83c97ebcf1bf6a7f"),  # B1
    ("p1xp1", "1:2,3:0,3:0,3:4", "a01b57fb0f04980c"),  # B2
    ("p1xp1", "0:0,2:0,2:2,4:4", "f8308dee50661c56"),  # C1
    ("p1xp1", "1:0,1:0,1:2,3:4", "548037a5bebd337a"),  # C2
    ("p1xp1", "0:0,2:0,2:2,2:4", "3c943b136c2490a7"),  # Q1
    ("p1xp1", "0:1,2:1,2:3,4:1", "957d7f81fe9d62d9"),  # Q2
]


@pytest.mark.parametrize("surface_kind,type_text,digest", PINNED_DIGESTS)
def test_pinned_certificate_digests(surface_kind, type_text, digest):
    from quadrica.cli import parse_type_string
    v = verdict_for(surface_kind, parse_type_string(surface_kind, type_text))
    assert v.reason.startswith("degeneration-")
    assert certificate_digest(v.certificate) == digest
    assert replay_certificate(v.certificate)


def test_pinned_digests_from_cold_memos():
    from quadrica.cli import parse_type_string
    for surface_kind, type_text, digest in PINNED_DIGESTS:
        clear_residue_memos()
        v = verdict_for(surface_kind, parse_type_string(surface_kind, type_text))
        assert certificate_digest(v.certificate) == digest
        assert replay_certificate(v.certificate)


def test_p2_sweep_caches_three_pair_profiles():
    from quadrica.brauer import _pair_profile
    _pair_profile.cache_clear()
    for data in enumerate_types("p2", 8):
        verdict_for("p2", data)
    assert 0 < _pair_profile.cache_info().currsize <= 3


@pytest.mark.parametrize("surface_kind,data", [
    ("p2", (2, 2, 2, 2)), ("p1xp1", ((1, 1), (1, 1), (1, 1), (3, 3)))])
def test_failed_residue_link_gives_unknown(monkeypatch, surface_kind, data):
    import quadrica.certify as certify
    from quadrica.funfield import UnsupportedCurveError
    cert = build_certificate(BundleType.of(surface_kind, data))

    def refuse(u, s):
        raise UnsupportedCurveError("no parametrization")
    monkeypatch.setattr(certify, "residue_profile", refuse)
    v = verdict_for(surface_kind, data)
    assert (v.outcome, v.reason, v.certificate) == (UNKNOWN, "certificate-link-failed", None)
    assert v.notes[-1] == "link residues: inconclusive (no parametrization)"
    assert not replay_certificate(cert)


@pytest.mark.parametrize("surface_kind,text", [
    ("p2", "2,2,2,2"), ("p1xp1", "1:1,1:1,1:1,3:3")])
@pytest.mark.parametrize("link,name,error", [
    ("fiber", "generic_fiber", QuadformError),
    ("discriminant", "discriminant", FactorError),
    ("clifford", "clifford_invariant", PolyError)])
def test_failed_form_link_gives_unknown(monkeypatch, capsys, surface_kind, text, link, name,
                                        error):
    import quadrica.certify as certify
    from quadrica.cli import main, parse_type_string

    def refuse(arg):
        raise error("outside the supported class")
    monkeypatch.setattr(certify, name, refuse)
    v = verdict_for(surface_kind, parse_type_string(surface_kind, text))
    assert (v.outcome, v.reason, v.certificate) == (UNKNOWN, "certificate-link-failed", None)
    assert v.notes[-1] == f"link {link}: outside the supported class"
    assert main(["certify", "--surface", surface_kind, "--type", text]) == 3
    out, err = capsys.readouterr()
    assert "outcome: Unknown" in out and "Traceback" not in err


def test_chain_computes_each_invariant_once(monkeypatch):
    import quadrica.certify as certify
    counts = {}

    def counting(name):
        fn = getattr(certify, name)

        def wrapped(*args):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args)
        return wrapped

    for name in ("residue_profile", "discriminant", "clifford_invariant"):
        monkeypatch.setattr(certify, name, counting(name))
    cert = build_certificate(BundleType.of("p1xp1", ((1, 1), (1, 1), (1, 1), (3, 3))))
    want = {"residue_profile": 2, "discriminant": 1, "clifford_invariant": 1}
    assert counts == want
    counts.clear()
    assert replay_certificate(cert)
    assert counts == want


def test_certificate_json_roundtrip():
    cert = build_certificate(BundleType.of("p2", (2, 2, 2, 2)))
    blob = json.dumps(certificate_json(cert), sort_keys=True)
    data = json.loads(blob)
    assert data["schema"] == "quadrica-cert/1"
    assert data["base_fact"] == "HPT-Prop11"
    assert data["input_type"] == [2, 2, 2, 2]
    assert data["weak_bundle"]["ok"] is True
    assert data["pirutka"]["passed"] is True
    assert len(data["pirutka"]["rows"]) == 3
    assert data["arason"]["passed"] is True
    assert len(certificate_digest(cert)) == 16


def test_verdict_json_builds_the_certificate_json_once(count_calls):
    import quadrica.certify as certify
    v = verdict_for("p2", (2, 2, 2, 2))
    counts = count_calls(certify, "certificate_json")
    out = verdict_json(v)
    assert counts == {"certificate_json": 1}
    assert out["digest"] == certificate_digest(v.certificate)


# --------------------------------------------------------- p1xp1 verdicts


def test_verdict_p1xp1_examples():
    v = verdict_p1xp1(((1, 1), (1, 1), (1, 1), (3, 3)))
    assert v.outcome == NOT_STABLY_RATIONAL
    assert v.certificate.rule == "A4"

    # d2 = 0: conic bundle over the second factor has a section
    v2 = verdict_p1xp1(((0, 1), (0, 1), (0, 1), (4, 3)))
    assert v2.outcome == RATIONAL

    # all hypotheses fail: no guess
    v3 = verdict_p1xp1(((0, 0), (0, 0), (2, 0), (2, 0)))
    assert v3.outcome == UNKNOWN


def test_verdict_p1xp1_rational_conditions():
    # e0 = e1 = e2 = 0
    v = verdict_p1xp1(((1, 0), (1, 0), (1, 0), (3, 4)))
    assert v.outcome == RATIONAL, v.reason
    # d1 = e1 = e0 = 0
    v2 = verdict_p1xp1(((0, 0), (0, 0), (2, 4), (4, 4)))
    assert v2.outcome == RATIONAL


def test_select_rule_dispatch():
    mk = lambda data: BundleType.of("p1xp1", data)  # noqa: E731
    assert select_rule(mk(((0, 0), (2, 2), (2, 2), (4, 4)))) == "A1"
    assert select_rule(mk(((1, 0), (1, 2), (1, 2), (3, 4)))) == "A2"
    assert select_rule(mk(((0, 1), (2, 1), (2, 1), (4, 3)))) == "A3"
    assert select_rule(mk(((1, 1), (1, 1), (1, 1), (3, 3)))) == "A4"
    assert select_rule(mk(((0, 2), (2, 0), (2, 2), (4, 4)))) == "B1"
    assert select_rule(mk(((1, 2), (3, 0), (3, 2), (3, 4)))) == "B2"
    assert select_rule(mk(((0, 0), (2, 0), (2, 2), (4, 4)))) == "C1"
    assert select_rule(mk(((1, 0), (1, 0), (1, 2), (3, 4)))) == "C2"


def test_construct_b1_example(p1xp1, hpoly, x4):
    x0, x1, y0, y1 = x4
    t = BundleType.of("p1xp1", ((0, 2), (2, 0), (2, 2), (4, 4)))
    form = construct_degeneration_p1xp1(t, "B1")
    assert form.entries == (
        y0 * y1, x0 ** 2, x0 * x1 * y0 ** 2, x0 * y0 * x1 * y1 * hpoly)
    assert type_of(form).data == t.data
    assert is_weak_bundle(form)


def test_construct_a4_example(p1xp1, hpoly, x4):
    x0, x1, y0, y1 = x4
    t = BundleType.of("p1xp1", ((1, 1), (1, 1), (1, 1), (3, 3)))
    form = construct_degeneration_p1xp1(t, "A4")
    assert form.entries == (x0 * y0, x0 * y1, x1 * y0, x1 * y1 * hpoly)


def test_cor53_conditions():
    mk = lambda data: BundleType.of("p1xp1", data)  # noqa: E731
    assert cor53_rule(mk(((0, 0), (2, 0), (2, 2), (2, 4)))) == "Q1"
    assert cor53_rule(mk(((0, 0), (0, 0), (2, 0), (2, 4)))) != "Q1"  # d1 = 0
    assert cor53_rule(mk(((0, 2), (2, 2), (2, 4), (4, 2)))) == "Q2"
    assert cor53_rule(mk(((0, 0), (2, 0), (2, 2), (2, 2)))) != "Q2"  # e0 = 0


def test_cor53_certificates():
    v = verdict_p1xp1(((0, 0), (2, 0), (2, 2), (2, 4)))
    assert v.outcome == NOT_STABLY_RATIONAL and v.certificate.rule == "Q1"
    assert replay_certificate(v.certificate)
    v2 = verdict_p1xp1(((0, 2), (2, 2), (2, 4), (4, 2)))
    assert v2.outcome == NOT_STABLY_RATIONAL and v2.certificate.rule == "Q2"
    assert replay_certificate(v2.certificate)


def reference_cor53_form(t, rule):
    """The unscreened padding search the constructor replaced: every
    candidate form is built and tested with type_of and is_weak_bundle."""
    from itertools import permutations, product

    s = surface("p1xp1")
    h = canonical_quadric(s)
    mono = lambda **exps: Poly.monomial(s.variables, exps)  # noqa: E731
    if rule == "Q1":
        bases = [(mono(), (0, 0)), (mono(x1=1), (1, 0)), (mono(x1=1, y1=1), (1, 1)),
                 (mono(y1=1) * h, (2, 3))]
    else:
        bases = [(mono(y1=1), (0, 1)), (mono(x1=1), (1, 0)), (mono(x1=1, y1=1), (1, 1)),
                 (h, (2, 2))]
    slots = t.data
    best = None
    for assign in permutations(range(4)):
        if not all(slots[i][0] >= bases[assign[i]][1][0]
                   and slots[i][1] >= bases[assign[i]][1][1] for i in range(4)):
            continue
        pad_options = []
        for i in range(4):
            _, (p, q) = bases[assign[i]]
            dx, dy = slots[i][0] - p, slots[i][1] - q
            pad_options.append([(a, (dx - a) // 2, b, (dy - b) // 2)
                                for a in sorted({dx % 2, dx}) for b in sorted({dy % 2, dy})])
        for pads in product(*pad_options):
            entries = [bases[assign[i]][0] * mono(x0=a, x1=2 * bx, y0=b, y1=2 * by)
                       for i, (a, bx, b, by) in enumerate(pads)]
            form = make_diag_form(tuple(entries), s)
            if type_of(form).data != t.data or not is_weak_bundle(form):
                continue
            key = (sum(a + b for a, _, b, _ in pads), str(form), form)
            if best is None or key[:2] < best[:2]:
                best = key
    if best is None:
        raise ConstructionError(f"no degeneration of type {t} in the {rule} class")
    return best[2]


def test_cor53_matches_reference_search():
    seen = 0
    for data in enumerate_types("p1xp1", 4):
        t = BundleType.of("p1xp1", data)
        d, e = t.ds(), t.es()
        rule = cor53_rule(t)
        if rule is None or (d[3] >= 3 and e[3] >= 3):
            continue
        seen += 1
        try:
            want = reference_cor53_form(t, rule)
        except ConstructionError:
            with pytest.raises(ConstructionError):
                construct_degeneration_p1xp1(t, rule)
            continue
        assert construct_degeneration_p1xp1(t, rule) == want, t
    assert seen == 111


def test_cor53_search_builds_no_rejected_form(count_calls):
    import quadrica.quadform as quadform
    t = BundleType.of("p1xp1", ((0, 1), (2, 1), (2, 3), (4, 1)))
    counts = count_calls(quadform, "type_of", "is_weak_bundle", "weak_gcd")
    form = construct_degeneration_p1xp1(t, "Q2")
    assert counts == {"type_of": 0, "is_weak_bundle": 0, "weak_gcd": 0}
    assert type_of(form).data == t.data and is_weak_bundle(form)


def test_cor53_unconstructible_is_unknown():
    # satisfies the low-degree conditions literally, but no entry slot can
    # host the (2,2)-quadric block, so no such diagonal degeneration exists
    v = verdict_p1xp1(((1, 2), (1, 2), (1, 2), (3, 0)))
    assert v.outcome == UNKNOWN
    assert v.reason == "degeneration-unconstructible"


def test_p1xp1_prefers_main_corollary_and_records_alternative():
    v = verdict_p1xp1(((1, 1), (1, 1), (3, 1), (3, 3)))
    assert v.outcome == NOT_STABLY_RATIONAL
    assert v.certificate.rule == "A4"
    assert any("Q1" in n for n in v.notes)


# ------------------------------------------------------------- invariants


def test_p2_dispatch_completeness_bound_12():
    # with sum >= 8 and d1 >= 1, the only equal-parity sorted type with
    # d3 < 3 is (2,2,2,2)
    for t in enumerate_types("p2", 12):
        if sum(t) >= 8 and t[1] >= 1 and t[3] < 3:
            assert t == (2, 2, 2, 2)


def reference_construct_degeneration_p2(t):
    """The if-chain that wrote out the P^2 entries before the rule table."""
    s = surface("p2")
    t.validate()
    d0, d1, d2, d3 = t.ds()
    F = canonical_quadric(s)
    x, y, z = (Poly.var(s.variables, v) for v in s.variables)
    if (d0, d1, d2, d3) == (2, 2, 2, 2):
        return make_diag_form((y * z, x * z, x * y, F), s), "hpt-direct"
    if sum(t.ds()) < 8 or d1 < 1 or d3 < 3:
        raise ConstructionError(f"type {t} is not in a certifiable branch")
    if d0 % 2 == 0:
        entries = (z ** d0, x * z ** (d1 - 1), x ** (d2 - 1) * y, y * z ** (d3 - 3) * F)
        rule = "q2"
    elif d2 >= 3:
        entries = (z ** d0, x ** d1, x * y * z ** (d2 - 2), y * z ** (d3 - 3) * F)
        rule = "q1"
    else:
        assert d2 == 1 and d3 - 4 >= 1, f"exponent safety violated for {t}"
        entries = (z ** d0, x ** d1, y * z ** (d2 - 1), x * y * z ** (d3 - 4) * F)
        rule = "q3"
    return make_diag_form(entries, s), rule


def test_p2_rules_match_reference_chain():
    raised = 0
    for data in enumerate_types("p2", 20):
        t = BundleType.of("p2", data)
        try:
            want = reference_construct_degeneration_p2(t)
        except ConstructionError:
            raised += 1
            with pytest.raises(ConstructionError):
                construct_degeneration_p2(t)
            continue
        assert construct_degeneration_p2(t) == want, t
    assert 0 < raised < len(list(enumerate_types("p2", 20)))


# The P^1 x P^1 case tables before the rule table: the first three entries
# as (x-block, y-block) monomials, and a tail every rule shares.
REFERENCE_P1XP1_RULES = {
    "A1": (("x1", "y1"), ("x0", "y0*y1"), ("x0*x1", "y0")),
    "A2": (("x0", "y1"), ("x0", "y0*y1"), ("x1", "y0")),
    "A3": (("x1", "y0"), ("x0", "y1"), ("x0*x1", "y0")),
    "A4": (("x0", "y0"), ("x0", "y1"), ("x1", "y0")),
    "B1": (("x1", "y0*y1"), ("x0", ""), ("x0*x1", "y0")),
    "B2": (("x0", "y0*y1"), ("x0", ""), ("x1", "y0")),
    "C1": (("x1", ""), ("x0*x1", ""), ("x0", "y0*y1")),
    "C2": (("x0", ""), ("x1", ""), ("x0", "y0*y1")),
}


def reference_construct_rule_p1xp1(t, rule):
    def exps(mono, k):
        if not mono:
            return {}
        first, *rest = mono.split("*")
        return {first: k - len(rest), **{v: 1 for v in rest}}

    def mono(**exps):
        if any(k < 0 for k in exps.values()):
            raise ConstructionError(f"negative exponent in {exps}")
        return Poly.monomial(s.variables, exps)

    s = surface("p1xp1")
    t.validate()
    d, e = t.ds(), t.es()
    tail = mono(x0=d[3] - 3, y0=e[3] - 3, x1=1, y1=1) * canonical_quadric(s)
    entries = tuple(mono(**exps(xm, d[i]), **exps(ym, e[i]))
                    for i, (xm, ym) in enumerate(REFERENCE_P1XP1_RULES[rule])) + (tail,)
    form = make_diag_form(entries, s)
    if not is_weak_bundle(form):
        raise ConstructionError(f"rule {rule} produced non-coprime entries for {t}")
    return form


def test_p1xp1_rules_match_reference_table():
    built = raised = 0
    for data in enumerate_types("p1xp1", 4):
        t = BundleType.of("p1xp1", data)
        for rule in REFERENCE_P1XP1_RULES:
            try:
                want = reference_construct_rule_p1xp1(t, rule)
            except ConstructionError:
                raised += 1
                with pytest.raises(ConstructionError):
                    construct_degeneration_p1xp1(t, rule)
                continue
            built += 1
            assert construct_degeneration_p1xp1(t, rule) == want, (t, rule)
    assert built and raised


def test_exponent_safety_q3_branch():
    # on the d0-odd, d2 = 1 branch, d3 >= 5 always
    for t in enumerate_types("p2", 12):
        if sum(t) >= 8 and t[1] >= 1 and t[0] % 2 == 1 and t[2] == 1:
            assert t[3] - 4 >= 1


def test_constructor_soundness_small_sweep():
    for t in enumerate_types("p2", 6):
        v = verdict_p2(t)
        if v.outcome != NOT_STABLY_RATIONAL:
            continue
        c = v.certificate
        assert type_of(c.degeneration).data == t
        assert is_weak_bundle(c.degeneration)
        w = normalize_to_hpt(c.fiber)
        assert w is not None


def test_branch_exclusivity_and_determinism():
    for t in [(2, 2, 2, 2), (0, 0, 2, 4), (1, 1, 1, 3), (1, 1, 3, 5)]:
        v1 = verdict_p2(t)
        v2 = verdict_p2(t)
        assert v1.outcome == v2.outcome and v1.reason == v2.reason
        if v1.certificate is not None:
            assert certificate_digest(v1.certificate) == certificate_digest(v2.certificate)


def test_enumerations():
    assert len(list(enumerate_types("p2", 0))) == 1
    assert list(enumerate_types("p2", 0)) == [(0, 0, 0, 0)]
    assert len(list(enumerate_types("p2", 6))) == 50
    small = list(enumerate_types("p1xp1", 1))
    assert ((0, 0), (0, 0), (0, 0), (0, 0)) in small
    assert ((1, 1), (1, 1), (1, 1), (1, 1)) in small
    assert all(list(t) == sorted(t) for t in small)


def reference_enumerate_types_p2(bound):
    """The P^2 enumerator before `enumerate_types`."""
    from itertools import combinations_with_replacement
    out = []
    for parity in (0, 1):
        vals = range(parity, bound + 1, 2)
        out.extend(combinations_with_replacement(vals, 4))
    return sorted(out)


def reference_enumerate_types_p1xp1(bound):
    """The P^1 x P^1 enumerator before `enumerate_types`."""
    from itertools import combinations_with_replacement
    out = []
    for pd in (0, 1):
        for pe in (0, 1):
            pairs = [(d, e) for d in range(pd, bound + 1, 2)
                     for e in range(pe, bound + 1, 2)]
            out.extend(combinations_with_replacement(pairs, 4))
    return sorted(out)


def test_enumerate_types_matches_reference():
    for bound in range(9):
        assert list(enumerate_types("p2", bound)) == reference_enumerate_types_p2(bound)
        assert list(enumerate_types("p1xp1", bound)) == reference_enumerate_types_p1xp1(bound)


def test_enumeration_is_lazy():
    # the first rows of the largest sweep need no type list: a list of its
    # 650,966 types takes about 60 MB
    import tracemalloc
    from itertools import islice
    tracemalloc.start()
    try:
        first = list(islice(enumerate_types("p1xp1", 12), 3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first == [((0, 0),) * 4, ((0, 0),) * 3 + ((0, 2),), ((0, 0),) * 3 + ((0, 4),)]
    assert peak < 100_000


def reference_select_rule_p1xp1(t):
    """The case dispatch and the Q1/Q2 hypotheses before `select_rule`;
    None outside every certifiable branch."""
    d, e = t.ds(), t.es()
    if d[3] >= 3 and e[3] >= 3:
        if e[1] >= 1:
            sub = {(0, 0): "A1", (1, 0): "A2", (0, 1): "A3", (1, 1): "A4"}
            return sub[(d[0] % 2, e[0] % 2)]
        if e[0] >= 1:
            return "B1" if d[0] % 2 == 0 else "B2"
        return "C1" if d[0] % 2 == 0 else "C2"
    if d[1] >= 1 and d[3] >= 2 and e[1] + e[2] >= 1 and e[3] >= 3:
        return "Q1"
    if d[1] >= 1 and d[3] >= 2 and e[0] >= 1 and e[1] + e[2] >= 1 and e[2] >= 2:
        return "Q2"
    return None


def test_select_rule_matches_reference_dispatch():
    seen = set()
    for data in enumerate_types("p1xp1", 6):
        t = BundleType.of("p1xp1", data)
        want = reference_select_rule_p1xp1(t)
        if want is None:
            with pytest.raises(ConstructionError):
                select_rule(t)
            continue
        assert select_rule(t) == want, t
        seen.add(want)
    assert seen == {"A1", "A2", "A3", "A4", "B1", "B2", "C1", "C2", "Q1", "Q2"}
