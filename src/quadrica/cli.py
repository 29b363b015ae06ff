"""Command-line front end: invariant calculator, single-type certification,
and verdict-table sweeps.

Exit codes: 0 for any decided verdict, 2 for input errors, 3 for Unknown,
141 when the reader of a `table` closes its stdout early.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

from .brauer import BrauerClass, EMPTY_CLASS, add_classes, residue_profile, symbol
from .certify import (
    UNKNOWN,
    certificate_digest,
    enumerate_types,
    verdict_for,
    verdict_json,
)
from .funfield import UnsupportedCurveError, surface
from .poly import ParseError, Poly, PolyError, parse_poly
from .quadform import (
    QuadformError,
    clifford_invariant,
    discriminant,
    generic_fiber,
    make_affine_form,
    make_diag_form,
)

# largest --bound per surface: 1,716 rows on P^2 and 650,966 on P^1 x P^1
TABLE_BOUND_LIMIT = {"p2": 20, "p1xp1": 12}


class InputError(Exception):
    pass


def parse_type_string(surface_kind: str, text: str):
    n = len(surface(surface_kind).blocks)
    try:
        parts = [p.strip() for p in text.split(",")]
        if len(parts) != 4:
            raise ValueError("expected 4 comma-separated components")
        comps = []
        for p in parts:
            degs = tuple(int(d) for d in p.split(":"))
            if len(degs) != n:
                raise ValueError(f"component {p!r} needs {n} ':'-separated degree(s)")
            comps.append(degs if n > 1 else degs[0])
        return tuple(comps)
    except ValueError as exc:
        raise InputError(f"bad type string {text!r}: {exc}") from exc


def _parse_entries(s, text: str) -> tuple[Poly, ...]:
    parts = text.split(";")
    if len(parts) != 4:
        raise InputError(f"expected 4 ';'-separated entries, got {len(parts)}")
    out = []
    for part in parts:
        try:
            out.append(parse_poly(part.strip(), s.variables))
        except ParseError as exc:
            raise InputError(f"entry {part.strip()!r}: {exc}") from exc
    return tuple(out)


def _split_symbols(text: str) -> list[str]:
    """text split at each '+' that lies outside parentheses."""
    pieces, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        depth += (ch == "(") - (ch == ")")
        if ch == "+" and depth == 0:
            pieces.append(text[start:i])
            start = i + 1
    return pieces + [text[start:]]


def _parse_alpha(s, text: str) -> BrauerClass:
    cls = EMPTY_CLASS
    for piece in _split_symbols(text):
        piece = piece.strip()
        if not piece:
            continue
        if "|" not in piece:
            raise InputError(f"symbol {piece!r} must look like a|b")
        a_str, b_str = piece.split("|", 1)
        try:
            a = parse_poly(a_str.strip(), s.variables)
            b = parse_poly(b_str.strip(), s.variables)
            cls = add_classes(cls, symbol(a, b))
        except (ParseError, PolyError) as exc:
            raise InputError(f"symbol {piece!r}: {exc}") from exc
    return cls


def cmd_invariants(args) -> int:
    s = surface(args.surface)
    entries = _parse_entries(s, args.entries)
    alpha = None
    alpha_prof = None
    try:
        if args.homogeneous:
            form = make_diag_form(entries, s)
            fiber = generic_fiber(form)
        else:
            fiber = make_affine_form(entries, s)
        d = discriminant(fiber)
        cl = clifford_invariant(fiber)
        cl_prof = residue_profile(cl, s)
        if args.alpha:
            alpha = _parse_alpha(s, args.alpha)
            alpha_prof = residue_profile(alpha, s)
    except (QuadformError, PolyError, UnsupportedCurveError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.output == "json":
        out = {
            "surface": s.kind,
            "fiber": [str(e) for e in fiber.entries],
            "discriminant": {
                "support": [str(q) for q in sorted(d.support, key=str)],
                "nontrivial": not d.is_trivial,
            },
            "clifford": [[str(a), str(b)] for a, b in cl.sorted_symbols()],
            "clifford_residues": {str(c): str(r) for c, r in cl_prof.entries},
        }
        if alpha is not None:
            out["alpha"] = [[str(a), str(b)] for a, b in alpha.sorted_symbols()]
            out["alpha_residues"] = {str(c): str(r) for c, r in alpha_prof.entries}
        print(json.dumps(out, indent=2, sort_keys=True))
    else:
        print(f"fiber: <{', '.join(str(e) for e in fiber.entries)}>")
        print(f"discriminant: {d}")
        print(f"clifford: {cl}")
        print(f"clifford residues: {cl_prof}")
        if alpha is not None:
            print(f"alpha: {alpha}")
            print(f"alpha residues: {alpha_prof}")
    return 0


def cmd_certify(args) -> int:
    data = parse_type_string(args.surface, args.type)
    try:
        v = verdict_for(args.surface, data)
    except QuadformError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.output == "json":
        print(json.dumps(verdict_json(v), indent=2, sort_keys=True))
    else:
        print(f"type: {v.bundle_type} ({args.surface})")
        print(f"outcome: {v.outcome}")
        print(f"reason: {v.reason}")
        for note in v.notes:
            print(f"note: {note}")
        if v.certificate is not None:
            c = v.certificate
            print(f"rule: {c.rule}")
            print(f"degeneration: <{', '.join(str(e) for e in c.degeneration.entries)}>")
            print(f"fiber: <{', '.join(str(e) for e in c.fiber.entries)}>")
            print(f"discriminant: {c.discriminant}")
            print(f"alpha: {c.alpha}   residues: {c.alpha_residues}")
            print(f"clifford: {c.clifford}")
            print(f"arason: passed={c.arason.passed} witness={c.arason.witness}")
            print(f"pirutka: passed={c.pirutka.passed} over "
                  f"{len(c.pirutka.rows)} divisors")
            print(f"digest: {certificate_digest(c)}")
    return 3 if v.outcome == UNKNOWN else 0


def _table_row(job) -> str:
    surface_kind, data, fmt = job
    v = verdict_for(surface_kind, data)
    digest = "" if v.certificate is None else certificate_digest(v.certificate)
    if fmt == "json":
        return json.dumps({
            "type": str(v.bundle_type),
            "outcome": v.outcome,
            "reason": v.reason,
            "digest": digest,
        }, sort_keys=True)
    return f"{v.bundle_type}\t{v.outcome}\t{v.reason}\t{digest}"


def cmd_table(args) -> int:
    limit = TABLE_BOUND_LIMIT[args.surface]
    if args.bound < 0 or args.bound > limit:
        print(f"error: bound on {args.surface} must lie in 0..{limit}", file=sys.stderr)
        return 2
    if args.jobs < 1:
        print("error: --jobs must be at least 1", file=sys.stderr)
        return 2
    jobs = ((args.surface, data, args.output)
            for data in enumerate_types(args.surface, args.bound))
    workers = min(args.jobs, _usable_cpus())
    # rows come back in enumeration order, which is already canonical
    try:
        if workers > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                try:
                    for row in pool.map(_table_row, jobs, chunksize=8):
                        print(row)
                except BrokenPipeError:
                    pool.shutdown(cancel_futures=True)   # nobody reads the rest
                    raise
        else:
            for row in map(_table_row, jobs):
                print(row)
    except BrokenPipeError:
        # the reader is gone: the interpreter's final flush of stdout must
        # not fail again; 141 is what a shell reports for a SIGPIPE exit
        sys.stdout = open(os.devnull, "w")
        return 141
    return 0


def _usable_cpus() -> int:
    """CPUs this process may run on; more workers than that only add
    processes."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # platforms without affinity masks
        return os.cpu_count() or 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="quadrica",
        description="Exact stable-irrationality certification for quadric "
                    "surface bundles over P^2 and P^1xP^1.")
    sub = ap.add_subparsers(dest="command", required=True)

    p_inv = sub.add_parser("invariants", help="discriminant, Clifford class and residues")
    p_inv.add_argument("--surface", choices=("p2", "p1xp1"), required=True)
    p_inv.add_argument("--entries", required=True,
                       help="four ';'-separated diagonal entries")
    p_inv.add_argument("--alpha", default="",
                       help="optional class, symbols a|b joined by +, as in (x+1)|y+x|y")
    p_inv.add_argument("--homogeneous", action="store_true",
                       help="entries are (bi)homogeneous; take the chart fiber first")
    p_inv.add_argument("--output", choices=("text", "json"), default="text")
    p_inv.set_defaults(func=cmd_invariants)

    p_cert = sub.add_parser("certify", help="verdict and certificate for one type")
    p_cert.add_argument("--surface", choices=("p2", "p1xp1"), required=True)
    p_cert.add_argument("--type", required=True,
                        help="p2: d0,d1,d2,d3   p1xp1: d0:e0,d1:e1,d2:e2,d3:e3")
    p_cert.add_argument("--output", choices=("text", "json"), default="text")
    p_cert.set_defaults(func=cmd_certify)

    p_tab = sub.add_parser("table", help="verdict sweep over all types up to a bound")
    p_tab.add_argument("--surface", choices=("p2", "p1xp1"), required=True)
    p_tab.add_argument("--bound", type=int, required=True)
    p_tab.add_argument("--jobs", type=int, default=1,
                       help="worker processes, capped at the usable CPU count")
    p_tab.add_argument("--output", choices=("text", "json"), default="text")
    p_tab.set_defaults(func=cmd_table)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
