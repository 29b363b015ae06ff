"""The verdict engine.

Encodes the rationality / open / not-stably-rational trichotomies for
quadric surface bundle types over P^2 and over P^1 x P^1, constructs the
explicit degeneration forms for the certifiable branch, runs the
Pirutka residue-matching diagnostic and the Arason nontriviality
criterion on the degenerate fiber, and assembles certificates in which
every boolean can be recomputed from the stored data.

The engine treats one statement as an imported base fact, cited in
certificates by the tag "HPT-Prop11": for the quadric given by
<y, x, xy, F(x,y,1)> over C(x,y), the pullback of the symbol (x, y) is
nonzero and unramified over C.  Everything the engine can check about
that fact (nonzero residues of (x, y), nontrivial discriminant, the
residue-matching condition at every divisor) is recomputed and recorded.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from heapq import merge
from itertools import combinations_with_replacement, permutations, product
from typing import Callable, Iterator

from . import __version__ as ENGINE_VERSION
from .brauer import BrauerClass, ResidueProfile, residue_profile
from .funfield import (
    CurveClass,
    HenselWitness,
    PrimeDivisor,
    SquareClass,
    UnsupportedCurveError,
    hensel_report,
    surface,
)
from .poly import Poly, PolyError
from .quadform import (
    BundleType,
    DiagForm,
    QuadformError,
    SimilarityWitness,
    canonical_quadric,
    clifford_invariant,
    discriminant,
    generic_fiber,
    hpt_alpha,
    is_weak_bundle,
    make_diag_form,
    normalize_to_hpt,
    type_of,
    verify_witness,
    weak_gcd,
)

BASE_FACT = "HPT-Prop11"

RATIONAL = "Rational"
NOT_STABLY_RATIONAL = "NotStablyRational"
OPEN = "Open"
UNKNOWN = "Unknown"

OPEN_P2_TYPES = {(1, 1, 1, 3), (0, 2, 2, 2)}


class CertifyError(Exception):
    """A certificate link failed; the message names the failing link."""


class ConstructionError(CertifyError):
    """No degeneration form of the requested type exists for the rule."""


# ----------------------------------------------------------------- reports


@dataclass(frozen=True)
class PirutkaRow:
    divisor: PrimeDivisor
    alpha_residue: CurveClass
    beta_residue: CurveClass
    hensel: HenselWitness

    @property
    def alpha_nonzero(self) -> bool:
        return not self.alpha_residue.is_trivial

    @property
    def residues_match(self) -> bool:
        return self.alpha_residue == self.beta_residue

    @property
    def satisfied(self) -> bool:
        return (not self.alpha_nonzero) or (self.residues_match and self.hensel.passed)


@dataclass(frozen=True)
class PirutkaReport:
    rows: tuple[PirutkaRow, ...]
    passed: bool | None           # None = inconclusive (unsupported divisor)
    problems: tuple[str, ...] = ()


@dataclass(frozen=True)
class ArasonResult:
    discriminant_nontrivial: bool
    alpha_ramified: bool
    witness: PrimeDivisor | None
    note: str

    @property
    def passed(self) -> bool:
        return self.discriminant_nontrivial and self.alpha_ramified


def pirutka_check(disc: SquareClass, alpha_prof: ResidueProfile,
                  beta_prof: ResidueProfile) -> PirutkaReport:
    """Residue-matching condition: wherever the residue of alpha is nonzero,
    it must equal the residue of the Clifford invariant beta, and the
    discriminant must become a square in the completed local ring."""
    problems: list[str] = []
    divisors = sorted(set(alpha_prof.divisors()) | set(beta_prof.divisors()), key=str)
    d_rep = disc.representative()
    rows: list[PirutkaRow] = []
    for c in divisors:
        try:
            hz = hensel_report(d_rep, c)
        except UnsupportedCurveError as exc:
            problems.append(f"{c}: {exc}")
            continue
        rows.append(PirutkaRow(
            divisor=c,
            alpha_residue=alpha_prof.residue_at(c),
            beta_residue=beta_prof.residue_at(c),
            hensel=hz,
        ))
    if problems:
        return PirutkaReport(tuple(rows), None, tuple(problems))
    return PirutkaReport(tuple(rows), all(r.satisfied for r in rows))


def arason_nontriviality(disc: SquareClass, alpha_prof: ResidueProfile) -> ArasonResult:
    """Nontrivial discriminant makes the pullback to the quadric injective,
    so a class with a nonzero residue pulls back to a nonzero class."""
    witness = alpha_prof.divisors()[0] if not alpha_prof.is_empty else None
    if disc.is_trivial:
        note = "discriminant trivial: the pullback kernel is {1, clifford}"
    elif alpha_prof.is_empty:
        note = "class has no nonzero residue; nontriviality not witnessed"
    else:
        note = f"nonzero residue at {witness} and nontrivial discriminant"
    return ArasonResult(not disc.is_trivial, not alpha_prof.is_empty, witness, note)


# -------------------------------------------------------------- certificates


@dataclass(frozen=True)
class Certificate:
    input_type: BundleType
    rule: str
    degeneration: DiagForm
    weak_bundle_ok: bool
    weak_gcd: Poly
    fiber: DiagForm
    similarity: SimilarityWitness
    discriminant: SquareClass
    alpha: BrauerClass
    alpha_residues: ResidueProfile
    clifford: BrauerClass
    pirutka: PirutkaReport
    arason: ArasonResult
    conclusion: tuple[str, ...]
    engine_version: str = ENGINE_VERSION
    base_fact: str = BASE_FACT


@dataclass(frozen=True)
class Verdict:
    outcome: str
    reason: str
    bundle_type: BundleType
    certificate: Certificate | None = None
    notes: tuple[str, ...] = ()


# ------------------------------------------------------------ degenerations


# Surface -> rule -> the four entries, each one monomial per grading block
# in the slot's degree k of that block: "v" is v^k, "v*w" is v^(k-1)*w
# (the first variable takes the degree the others leave), "" is 1.  The
# fourth entry is read two degrees lower in each block and multiplied by
# the canonical quadric.
_RULES = {
    "p2": {
        "hpt-direct": (("y*z",), ("x*z",), ("x*y",), ("z",)),
        "q1": (("z",), ("x",), ("z*x*y",), ("z*y",)),
        "q2": (("z",), ("z*x",), ("x*y",), ("z*y",)),
        "q3": (("z",), ("x",), ("z*y",), ("z*x*y",)),
    },
    "p1xp1": {
        "A1": (("x1", "y1"), ("x0", "y0*y1"), ("x0*x1", "y0"), ("x0*x1", "y0*y1")),
        "A2": (("x0", "y1"), ("x0", "y0*y1"), ("x1", "y0"), ("x0*x1", "y0*y1")),
        "A3": (("x1", "y0"), ("x0", "y1"), ("x0*x1", "y0"), ("x0*x1", "y0*y1")),
        "A4": (("x0", "y0"), ("x0", "y1"), ("x1", "y0"), ("x0*x1", "y0*y1")),
        "B1": (("x1", "y0*y1"), ("x0", ""), ("x0*x1", "y0"), ("x0*x1", "y0*y1")),
        "B2": (("x0", "y0*y1"), ("x0", ""), ("x1", "y0"), ("x0*x1", "y0*y1")),
        "C1": (("x1", ""), ("x0*x1", ""), ("x0", "y0*y1"), ("x0*x1", "y0*y1")),
        "C2": (("x0", ""), ("x1", ""), ("x0", "y0*y1"), ("x0*x1", "y0*y1")),
    },
}


def _block_exponents(mono: str, k: int) -> dict[str, int]:
    if not mono:
        return {}
    first, *rest = mono.split("*")
    return {first: k - len(rest), **{v: 1 for v in rest}}


def _rule_form(t: BundleType, rule: str) -> DiagForm:
    """The degeneration of type t that the rule's entry table gives; every
    exponent is checked non-negative."""
    s = surface(t.surface_kind)
    if rule not in _RULES[s.kind]:
        raise ConstructionError(f"unknown rule {rule!r}")
    entries = []
    for i, (monos, degs) in enumerate(zip(_RULES[s.kind][rule], t.degrees())):
        lower = 2 if i == 3 else 0
        exps: dict[str, int] = {}
        for mono, k in zip(monos, degs):
            exps.update(_block_exponents(mono, k - lower))
        for name, k in exps.items():
            if k < 0:
                raise ConstructionError(f"negative exponent {name}^{k}")
        entries.append(Poly.monomial(s.variables, exps))
    entries[3] = entries[3] * canonical_quadric(s)
    return make_diag_form(entries, s)


def _case_tables_apply(t: BundleType) -> bool:
    """P^1 x P^1 types with d3, e3 >= 3; the rest have only Q1 and Q2."""
    d, e = t.ds(), t.es()
    return d[3] >= 3 and e[3] >= 3


def select_rule(t: BundleType) -> str:
    """The one rule a certificate of type t is built with: hpt-direct or
    q1-q3 on P^2; on P^1 x P^1 a case table A1-C2 (family by which of e1,
    e0 is positive, number by the parities of d0, e0) or else Q1/Q2.
    Raises ConstructionError when t lies in no certifiable branch."""
    d = t.ds()
    if t.surface_kind == "p2":
        if d == (2, 2, 2, 2):
            return "hpt-direct"
        if sum(d) >= 8 and d[1] >= 1 and d[3] >= 3:
            return "q2" if d[0] % 2 == 0 else "q1" if d[2] >= 3 else "q3"
    elif _case_tables_apply(t):
        e = t.es()
        family = "A" if e[1] >= 1 else "B" if e[0] >= 1 else "C"
        return f"{family}{1 + d[0] % 2 + 2 * (e[0] % 2)}"
    elif (rule := cor53_rule(t)) is not None:
        return rule
    raise ConstructionError(f"type {t} is not in a certifiable branch")


def construct_degeneration_p2(t: BundleType) -> tuple[DiagForm, str]:
    """The explicit weak-bundle degeneration for a certifiable type."""
    t.validate()
    rule = select_rule(t)
    return _rule_form(t, rule), rule


def verdict_p2(data) -> Verdict:
    """Trichotomy for quadric surface bundle types over P^2."""
    t = BundleType.of("p2", data)
    t.validate()
    notes = ("input reordered to the lexicographic form",) if t.reordered else ()
    ds = t.ds()
    if ds[1] == 0:
        # at least two zero degrees: a constant 2x2 block gives a section
        return Verdict(RATIONAL, "section-constant-block", t, notes=notes)
    if sum(ds) <= 4:
        # remaining case is (1,1,1,1): projection of a (1,2)-hypersurface
        return Verdict(RATIONAL, "section-bidegree-12-projection", t, notes=notes)
    if ds in OPEN_P2_TYPES:
        return Verdict(OPEN, "open-sextic-k3", t, notes=notes)
    return _certified_verdict(t, notes)


def _certified_verdict(t: BundleType, notes: tuple[str, ...]) -> Verdict:
    """NotStablyRational with its certificate, or Unknown with the failed
    link as a note."""
    try:
        cert = build_certificate(t)
    except CertifyError as exc:
        reason = ("degeneration-unconstructible" if isinstance(exc, ConstructionError)
                  else "certificate-link-failed")
        return Verdict(UNKNOWN, reason, t, notes=(*notes, str(exc)))
    return Verdict(NOT_STABLY_RATIONAL, f"degeneration-{cert.rule}", t,
                   certificate=cert, notes=notes)


# ---------------------------------------------- degenerations over P^1 x P^1


def construct_degeneration_p1xp1(t: BundleType, rule: str) -> DiagForm:
    """The explicit degeneration for the selected rule."""
    t.validate()
    if rule in ("Q1", "Q2"):
        return _cor53_form(t, rule)
    form = _rule_form(t, rule)
    if not is_weak_bundle(form):
        raise ConstructionError(f"rule {rule} produced non-coprime entries for {t}")
    return form


def cor53_rule(t: BundleType) -> str | None:
    """The low-degree route Q1 or Q2 whose hypotheses t meets, if any."""
    d, e = t.ds(), t.es()
    if d[1] < 1 or d[3] < 2 or e[1] + e[2] < 1:
        return None
    if e[3] >= 3:
        return "Q1"
    return "Q2" if e[0] >= 1 and e[2] >= 2 else None


# Rule -> the starting entries as (x1 exponent, y1 exponent, power of h);
# an entry's bidegree is (x1 + 2 * h, y1 + 2 * h).
_COR53_BASES = {
    "Q1": ((0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 1)),   # <1, x1, x1*y1, y1*h>
    "Q2": ((0, 1, 0), (1, 0, 0), (1, 1, 0), (0, 0, 1)),   # <y1, x1, x1*y1, h>
}


def _cor53_form(t: BundleType, rule: str) -> DiagForm:
    """Pad a starting form of the requested similarity class up to the
    target type: boundary powers are free, chart powers must stay even.
    Among the valid assignments the one with the least total boundary
    exponent wins (ties broken by the printed form).

    Every padding has its slot's bidegree by construction, and h is
    divisible by no variable and sits in one entry, so the entries are
    coprime iff no variable divides all four monomial parts: candidates
    are screened on exponents and only a possible winner is built."""
    s = surface("p1xp1")
    h = canonical_quadric(s)
    bases = _COR53_BASES[rule]
    slots = t.data  # lex-sorted pairs
    best: tuple[int, str, DiagForm] | None = None
    for assign in permutations(range(4)):
        chosen = [bases[j] for j in assign]
        dxy = [(slots[i][0] - bx - 2 * bh, slots[i][1] - by - 2 * bh)
               for i, (bx, by, bh) in enumerate(chosen)]
        if any(dx < 0 or dy < 0 for dx, dy in dxy):
            continue
        # exponents of (x0, x1, y0, y1): x0^a, y0^b, the rest on x1, y1 in even steps
        pad_options = [[(a, bx + dx - a, b, by + dy - b)
                        for a in sorted({dx % 2, dx}) for b in sorted({dy % 2, dy})]
                       for (bx, by, _), (dx, dy) in zip(chosen, dxy)]
        for pads in product(*pad_options):
            if any(all(p[v] for p in pads) for v in range(4)):
                continue
            boundary_total = sum(p[0] + p[2] for p in pads)
            if best is not None and boundary_total > best[0]:
                continue
            form = make_diag_form(tuple(Poly(s.variables, {p: 1}) * h ** bh
                                        for p, (_, _, bh) in zip(pads, chosen)), s)
            key = (boundary_total, str(form), form)
            if best is None or (key[0], key[1]) < (best[0], best[1]):
                best = key
    if best is None:
        raise ConstructionError(
            f"no degeneration of type {t} exists in the {rule} similarity class")
    return best[2]


def verdict_p1xp1(data) -> Verdict:
    """Trichotomy for quadric surface bundle types over P^1 x P^1."""
    t = BundleType.of("p1xp1", data)
    t.validate()
    notes: list[str] = []
    if t.reordered:
        notes.append("input reordered to the lexicographic form")
    d, e = t.ds(), t.es()
    alt = cor53_rule(t)
    if _case_tables_apply(t):
        if d[2] == 0:
            return Verdict(RATIONAL, "section-conic-bundle-first-factor", t,
                           notes=tuple(notes))
        if d[1] == 0 and e[1] == 0 and e[0] == 0:
            return Verdict(RATIONAL, "section-constant-block", t, notes=tuple(notes))
        if e[0] == 0 and e[1] == 0 and e[2] == 0:
            return Verdict(RATIONAL, "section-conic-bundle-second-factor", t,
                           notes=tuple(notes))
        if alt is not None:
            notes.append(f"also certifiable via the low-degree route {alt}")
    elif alt is None:
        return Verdict(UNKNOWN, "outside-corollary-hypotheses", t, notes=tuple(notes))
    return _certified_verdict(t, tuple(notes))


def verdict_for(surface_kind: str, data) -> Verdict:
    if surface_kind == "p2":
        return verdict_p2(data)
    if surface_kind == "p1xp1":
        return verdict_p1xp1(data)
    raise ValueError(f"unknown surface {surface_kind!r}")


# --------------------------------------------------------- certificate build


def _degeneration(t: BundleType) -> tuple[DiagForm, str]:
    """The degeneration of type t under its selected rule, and the rule."""
    if t.surface_kind == "p2":
        return construct_degeneration_p2(t)
    rule = select_rule(t)
    return construct_degeneration_p1xp1(t, rule), rule


def build_certificate(t: BundleType) -> Certificate:
    """Run the full certification chain; any failed link raises with the
    link named."""
    t.validate()
    form, rule = _degeneration(t)
    return _certify(t, rule, form, normalize_to_hpt)


def _link(name: str, fn: Callable, *args):
    """fn(*args); a kernel or form error becomes a CertifyError naming the link."""
    try:
        return fn(*args)
    except (PolyError, QuadformError) as exc:
        raise CertifyError(f"link {name}: {exc}") from exc


def _certify(t: BundleType, rule: str, form: DiagForm,
             find_witness: Callable[[DiagForm], SimilarityWitness | None]) -> Certificate:
    """The certificate links, in order, on a degeneration of type t; the
    similarity witness comes from find_witness(fiber).  A failed link
    raises CertifyError naming it."""
    s = form.surface
    if type_of(form).data != t.data:
        raise CertifyError(f"link type-match: {type_of(form)} != {t}")
    g = weak_gcd(form)
    weak = g.is_constant()
    if not weak:
        raise CertifyError(f"link weak-bundle: entries share the factor {g}")
    fiber = _link("fiber", generic_fiber, form)
    witness = find_witness(fiber)
    if witness is None:
        raise CertifyError("link similarity: fiber is not similar to the canonical quadric")
    if not verify_witness(fiber, witness):
        raise CertifyError("link similarity: witness replay failed")
    alpha = hpt_alpha(s)
    disc = _link("discriminant", discriminant, fiber)
    if disc.is_trivial:
        raise CertifyError("link discriminant: trivial discriminant")
    beta = _link("clifford", clifford_invariant, fiber)
    try:
        alpha_prof = residue_profile(alpha, s)
        beta_prof = residue_profile(beta, s)
    except (UnsupportedCurveError, PolyError) as exc:
        raise CertifyError(f"link residues: inconclusive ({exc})") from exc
    aras = arason_nontriviality(disc, alpha_prof)
    if not aras.passed:
        raise CertifyError(f"link arason: {aras.note}")
    pir = pirutka_check(disc, alpha_prof, beta_prof)
    if pir.passed is None:
        raise CertifyError(f"link pirutka: inconclusive ({'; '.join(pir.problems)})")
    if not pir.passed:
        raise CertifyError("link pirutka: residue-matching condition failed")
    conclusion = (
        f"degeneration:{rule}",
        "weak-bundle-integrality",
        "fiber-similar-to-canonical-quadric",
        f"base-fact:{BASE_FACT}",
        "discriminant-nontrivial",
        "arason-nontriviality",
        "pirutka-residue-matching",
        "specialization:not-stably-rational",
    )
    return Certificate(
        input_type=t,
        rule=rule,
        degeneration=form,
        weak_bundle_ok=weak,
        weak_gcd=g,
        fiber=fiber,
        similarity=witness,
        discriminant=disc,
        alpha=alpha,
        alpha_residues=alpha_prof,
        clifford=beta,
        pirutka=pir,
        arason=aras,
        conclusion=conclusion,
    )


# ------------------------------------------------------------------- replay


def replay_certificate(cert: Certificate) -> bool:
    """Rebuild the degeneration from the stored type, then rerun the build
    chain on it with the stored similarity witness; the certificate holds
    iff the stored rule and degeneration are the ones `select_rule` and
    the constructor give, every link passes, and the result equals the
    stored certificate field by field."""
    t = cert.input_type
    try:
        form, rule = _degeneration(t)
        if (form, rule) != (cert.degeneration, cert.rule):
            return False
        fresh = _certify(t, rule, form, lambda fiber: cert.similarity)
    except (CertifyError, QuadformError):
        return False
    return fresh == cert


# --------------------------------------------------------------------- JSON


def certificate_json(cert: Certificate) -> dict:
    sim = cert.similarity
    return {
        "schema": "quadrica-cert/1",
        "engine_version": cert.engine_version,
        "base_fact": cert.base_fact,
        "surface": cert.input_type.surface_kind,
        "input_type": [list(p) if isinstance(p, tuple) else p for p in cert.input_type.data],
        "rule": cert.rule,
        "degeneration": [str(e) for e in cert.degeneration.entries],
        "weak_bundle": {"ok": cert.weak_bundle_ok, "gcd": str(cert.weak_gcd)},
        "fiber": [str(e) for e in cert.fiber.entries],
        "similarity": {
            "scale": str(sim.scale),
            "square_factors": [str(q) for q in sim.square_factors],
            "units": [str(u) for u in sim.units],
            "permutation": list(sim.permutation),
        },
        "discriminant": {
            "support": [str(q) for q in sorted(
                cert.discriminant.support, key=lambda q: (q.total_degree(), str(q)))],
            "nontrivial": not cert.discriminant.is_trivial,
        },
        "alpha": [[str(a), str(b)] for a, b in cert.alpha.sorted_symbols()],
        "alpha_residues": {str(c): str(r) for c, r in cert.alpha_residues.entries},
        "clifford": [[str(a), str(b)] for a, b in cert.clifford.sorted_symbols()],
        "pirutka": {
            "rows": [
                {
                    "divisor": str(r.divisor),
                    "alpha_residue": str(r.alpha_residue),
                    "beta_residue": str(r.beta_residue),
                    "alpha_nonzero": r.alpha_nonzero,
                    "residues_match": r.residues_match,
                    "hensel": {
                        "valuation": r.hensel.valuation,
                        "unit_restriction": (None if r.hensel.unit_restriction is None
                                             else str(r.hensel.unit_restriction)),
                        "is_square": r.hensel.is_square,
                        "passed": r.hensel.passed,
                    },
                    "satisfied": r.satisfied,
                }
                for r in cert.pirutka.rows
            ],
            "passed": cert.pirutka.passed,
        },
        "arason": {
            "discriminant_nontrivial": cert.arason.discriminant_nontrivial,
            "alpha_ramified": cert.arason.alpha_ramified,
            "alpha_nonzero_witness": (None if cert.arason.witness is None
                                      else str(cert.arason.witness)),
            "passed": cert.arason.passed,
            "note": cert.arason.note,
        },
        "conclusion": list(cert.conclusion),
    }


def _digest(blob: dict) -> str:
    payload = json.dumps(blob, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def certificate_digest(cert: Certificate) -> str:
    return _digest(certificate_json(cert))


def verdict_json(v: Verdict) -> dict:
    out = {
        "surface": v.bundle_type.surface_kind,
        "type": str(v.bundle_type),
        "outcome": v.outcome,
        "reason": v.reason,
        "notes": list(v.notes),
    }
    if v.certificate is not None:
        blob = out["certificate"] = certificate_json(v.certificate)
        out["digest"] = _digest(blob)
    return out


# -------------------------------------------------------------- enumeration


def enumerate_types(surface_kind: str, bound: int) -> Iterator[tuple]:
    """All lexicographically ordered parity-valid types with every degree
    <= bound, lazily in lexicographic order: the sorted streams of
    4-multisets of components, one per vector of per-block parities, are
    merged.  A P^2 component is a bare int."""
    n = len(surface(surface_kind).blocks)
    streams = []
    for parities in product((0, 1), repeat=n):
        ranges = (range(p, bound + 1, 2) for p in parities)
        comps = [c if n > 1 else c[0] for c in product(*ranges)]
        streams.append(combinations_with_replacement(comps, 4))
    return merge(*streams)
