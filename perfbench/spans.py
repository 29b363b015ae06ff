"""Spans and counters around the engine's public functions, installed from
outside the engine.

`Tracer.install()` replaces each function named in `SPANS` in every
`quadrica` module namespace that binds it, and `Poly.__mul__` (with its
`__rmul__` alias) on the class, by a wrapper that records one span per
call: name, start, end, parent span and request index.  Spans are kept in
flat arrays in memory and written out by `dump()`; `summary()` turns them
into per-function call counts and self times (span duration minus the
part its child spans cover).

The engine is single-threaded, so spans nest strictly and no layer waits
on another: no wait time is recorded.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from pathlib import Path
from time import perf_counter_ns

# layer -> public functions wrapped with a span
SPANS = {
    "poly": ("exact_div", "poly_gcd", "square_class_part", "factor"),
    "funfield": ("graded_pair", "restrict_unit", "hensel_report", "square_class",
                 "parametrize"),
    "brauer": ("residue_profile", "tame_residue"),
    "quadform": ("normalize_to_hpt", "verify_witness", "generic_fiber", "discriminant",
                 "clifford_invariant", "weak_gcd", "type_of"),
    "certify": ("construct_degeneration_p2", "construct_degeneration_p1xp1",
                "build_certificate", "pirutka_check", "arason_nontriviality",
                "certificate_json", "certificate_digest", "verdict_for"),
}
MUL = "poly.mul"

# per-layer metric -> (module, attribute) of an lru_cache read through cache_info()
CACHES = {
    "poly.gcd.hit_ratio": ("poly", "_gcd2"),
    "poly.factor.hit_ratio": ("poly", "factor"),
    "poly.square_class_part.hit_ratio": ("poly", "square_class_part"),
    "poly.square_free_part.hit_ratio": ("poly", "square_free_part"),
    "funfield.parametrize.hit_ratio": ("funfield", "parametrize"),
}


def cache_counts() -> dict[str, tuple[int, int] | None]:
    """(hits, misses) of each cache in CACHES; None for a cache that is
    gone or no longer an lru_cache."""
    out: dict[str, tuple[int, int] | None] = {}
    for metric, (module, attr) in CACHES.items():
        fn = getattr(sys.modules.get(f"quadrica.{module}"), attr, None)
        info = getattr(fn, "cache_info", None)
        out[metric] = None if info is None else tuple(info()[:2])
    return out


class Tracer:
    """Spans and counters of one process; install() before the traced
    calls, uninstall() after them."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("i")
        self.span_request = array("i")
        self.stack: list[int] = []
        self.request = -1
        self.certify_errors = 0
        self.unsupported = 0
        self.diag_forms_in_p1xp1 = 0
        self._last_error: BaseException | None = None
        self._patches: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _note_error(self, exc: BaseException) -> None:
        if exc is self._last_error:       # already counted at an inner boundary
            return
        self._last_error = exc
        from quadrica.certify import CertifyError
        from quadrica.funfield import UnsupportedCurveError
        if isinstance(exc, CertifyError):
            self.certify_errors += 1
        elif isinstance(exc, UnsupportedCurveError):
            self.unsupported += 1

    def span(self, name: str, fn):
        nid = self._id(name)
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, requests, stack = self.span_parent, self.span_request, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            requests.append(self.request)
            ends.append(0)
            stack.append(idx)
            starts.append(perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                self._note_error(exc)
                raise
            finally:
                ends[idx] = perf_counter_ns()
                stack.pop()
        return traced

    def _count_diag_forms(self, fn):
        """make_diag_form calls made inside construct_degeneration_p1xp1:
        the candidate forms a P1xP1 construction builds."""
        cid = self._id("certify.construct_degeneration_p1xp1")

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if any(self.span_name[i] == cid for i in self.stack):
                self.diag_forms_in_p1xp1 += 1
            return fn(*args, **kwargs)
        return counted

    def install(self) -> None:
        import quadrica.poly
        import quadrica.quadform
        wrappers = {}
        for layer, fns in SPANS.items():
            module = sys.modules[f"quadrica.{layer}"]
            for fn_name in fns:
                original = getattr(module, fn_name, None)   # gone: reported as 0 calls
                if original is not None:
                    wrappers[id(original)] = (original,
                                              self.span(f"{layer}.{fn_name}", original))
        original = getattr(quadrica.quadform, "make_diag_form", None)
        if original is not None:
            wrappers[id(original)] = (original, self._count_diag_forms(original))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "quadrica" and not mod_name.startswith("quadrica."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, attr, hit[1])
        poly_cls = quadrica.poly.Poly
        mul = self.span(MUL, poly_cls.__mul__)
        for attr in ("__mul__", "__rmul__"):
            if attr in vars(poly_cls):
                self._patch(poly_cls, attr, mul)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls and self seconds."""
        n = len(self.span_name)
        child_ns = [0] * n
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child_ns[p] += ends[i] - starts[i]
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for i in range(n):
            k = self.span_name[i]
            calls[k] += 1
            self_ns[k] += ends[i] - starts[i] - child_ns[i]
        return {name: {"calls": calls[k], "self_s": self_ns[k] / 1e9}
                for k, name in enumerate(self.names)}

    def dump(self, path: Path) -> None:
        """Write the spans: `<path>.json` holds the names and the layout of
        `<path>.bin`, five columns stored one after another in the byte
        order the header names."""
        columns = (("name", self.span_name), ("start_ns", self.span_start),
                   ("end_ns", self.span_end), ("parent", self.span_parent),
                   ("request", self.span_request))
        with open(path.with_suffix(".bin"), "wb") as f:
            for _, col in columns:
                col.tofile(f)
        meta = {"names": self.names, "count": len(self.span_name), "byteorder": sys.byteorder,
                "columns": [[name, col.typecode, col.itemsize] for name, col in columns]}
        path.with_suffix(".json").write_text(json.dumps(meta))
