"""Workload inputs and runners.

Inputs come from the frozen reference tables in `reference/` (one row per
type of the sampling domain, as `quadrica table` printed them) and from
`--seed`; the engine sees only the generated types.  Every measured call
runs in a child forked from the benchmark process after `import quadrica`,
so each sweep and each cold request starts from the same engine state.
"""

from __future__ import annotations

import json
import os
import random
import resource
import select
import signal
import statistics
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import permutations
from pathlib import Path

import calibration
from spans import Tracer, cache_counts

HERE = Path(__file__).resolve().parent
REFERENCE = {"p2": HERE / "reference" / "p2_b16.tsv",
             "p1xp1": HERE / "reference" / "p1xp1_b5.tsv"}

OP_LIMIT_S = 10.0          # wall-clock limit of one verdict, digest or replay


# ---------------------------------------------------------------- reference


@dataclass(frozen=True)
class Row:
    index: int             # position in canonical (reference) order
    kind: str
    key: str               # the type as the engine prints it
    outcome: str
    reason: str
    digest: str

    @property
    def data(self):
        parts = self.key.split(",")
        if self.kind == "p2":
            return tuple(int(p) for p in parts)
        return tuple(tuple(int(a) for a in p.split(":")) for p in parts)

    @property
    def line(self) -> str:
        return f"{self.key}\t{self.outcome}\t{self.reason}\t{self.digest}"


def load_reference(kind: str) -> list[Row]:
    rows = []
    for i, line in enumerate(REFERENCE[kind].read_text().splitlines()):
        key, outcome, reason, digest = line.split("\t")
        rows.append(Row(i, kind, key, outcome, reason, digest))
    return rows


# ----------------------------------------------------------------- sampling


def padding_candidates(row: Row) -> int:
    """Size of the low-degree (Q1/Q2) search space of a P1xP1 type: slot
    permutations that fit the starting bidegrees, times the parity paddings
    of each slot.  It orders those strata by cost, so that a block sample
    covers cheap and expensive types alike."""
    rule = row.reason[-2:]
    if row.kind != "p1xp1" or rule not in ("Q1", "Q2"):
        return 0
    base = {"Q1": ((0, 0), (1, 0), (1, 1), (2, 3)),
            "Q2": ((0, 1), (1, 0), (1, 1), (2, 2))}[rule]
    slots = row.data
    total = 0
    for assign in permutations(base):
        pads = 1
        for (d, e), (p, q) in zip(slots, assign):
            if d < p or e < q:
                break
            pads *= len({(d - p) % 2, d - p}) * len({(e - q) % 2, e - q})
        else:
            total += pads
    return total


def block_sample(rows: list[Row], count: int, rng: random.Random) -> list[Row]:
    """`count` rows, split over the strata of equal reference reason in
    proportion to their size (largest remainders).  Within a stratum, sorted
    by padding_candidates and then canonically, one row is drawn from each
    of equal consecutive blocks.  Returned in canonical order."""
    strata: dict[str, list[Row]] = {}
    for r in rows:
        strata.setdefault(f"{r.outcome}/{r.reason}", []).append(r)
    names = sorted(strata)
    quotas = {n: count * len(strata[n]) / len(rows) for n in names}
    take = {n: int(quotas[n]) for n in names}
    spare = count - sum(take.values())
    for n in sorted(names, key=lambda n: (int(quotas[n]) - quotas[n], n))[:spare]:
        take[n] += 1
    picked = []
    for n in names:
        members = sorted(strata[n], key=lambda r: (padding_candidates(r), r.index))
        m = take[n]
        for b in range(m):
            lo, hi = b * len(members) // m, (b + 1) * len(members) // m
            picked.append(members[rng.randrange(lo, hi)])
    return sorted(picked, key=lambda r: r.index)


# ------------------------------------------------------------------ children


class OperationTimeout(BaseException):
    """Raised by SIGALRM in a child when one operation exceeds OP_LIMIT_S;
    a BaseException, so that no `except Exception` in the engine hides it."""


def _on_alarm(signum, frame):
    raise OperationTimeout(f"operation exceeded {OP_LIMIT_S} s")


@contextmanager
def op_limit():
    signal.setitimer(signal.ITIMER_REAL, OP_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def in_child(work, deadline: float) -> dict | None:
    """Run `work()` in a forked child and return the JSON-able dict it
    returns; None if the child failed or was still running at `deadline`
    (a time.monotonic() value), when it is killed."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            signal.signal(signal.SIGALRM, _on_alarm)
            payload = json.dumps(work()).encode()
            with os.fdopen(write_fd, "wb") as f:
                f.write(payload)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(write_fd)
    chunks = []
    killed = False
    with os.fdopen(read_fd, "rb", buffering=0) as f:
        while True:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([f], [], [], left)[0]:
                os.kill(pid, signal.SIGKILL)
                killed = True
                break
            chunk = f.read(1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    _, status = os.waitpid(pid, 0)
    if killed or status != 0:
        return None
    return json.loads(b"".join(chunks))


def _timed_row(engine, row: Row, out: dict):
    """A calibration chunk, then one `table` row timed under the operation
    limit: verdict_for, plus certificate_digest when there is a certificate.
    Appends the row (None if it failed), its time and the chunk's time to
    `out`; returns the certificate or None."""
    chunk = calibration.chunk()
    cert = None
    t0 = time.perf_counter()
    try:
        with op_limit():
            v = engine.verdict_for(row.kind, row.data)
            cert = v.certificate
            digest = "" if cert is None else engine.certificate_digest(cert)
        line = f"{v.bundle_type}\t{v.outcome}\t{v.reason}\t{digest}"
    except (Exception, OperationTimeout) as exc:
        line = None
        out["errors"].append(f"{row.key}: {exc!r}")
    out["latencies"].append(time.perf_counter() - t0)
    out["chunks"].append(chunk)
    out["lines"].append(line)
    return cert


def _replay(engine, row: Row, cert, out: dict) -> None:
    """The untimed check of one certificate."""
    out["replayed"] += 1
    try:
        with op_limit():
            replayed = engine.replay_certificate(cert)
    except (Exception, OperationTimeout) as exc:
        out["replay_failures"].append(f"{row.key}: replay raised {exc!r}")
    else:
        if not replayed:
            out["replay_failures"].append(f"{row.key}: replay returned False")


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _new_pass() -> dict:
    return {"lines": [], "latencies": [], "chunks": [], "errors": [], "replayed": 0,
            "replay_failures": [], "traces": [], "peak_rss_mb": 0.0}


def _child(rows: list[Row], check: bool, span_path: Path | None):
    """Decide `rows` in order in one process, caches carried across types as
    `table` does (a sweep pass, or one cold request when `rows` has one
    element).  With `check`, replay each certificate right after its timed
    row.  With `span_path`, trace the timed calls and write the spans there.
    The peak RSS is read after each timed row up to the first replay, so a
    checked sweep pass reports less than an unchecked one."""
    def work() -> dict:
        engine = sys.modules["quadrica"]
        out = _new_pass()
        tracer = None
        if span_path is not None:
            caches_before = cache_counts()
            tracer = Tracer()
            tracer.install()
        for r in rows:
            if tracer is not None:
                tracer.request = r.index
            cert = _timed_row(engine, r, out)
            if not out["replayed"]:
                out["peak_rss_mb"] = _peak_rss_mb()
            if check and cert is not None:
                _replay(engine, r, cert, out)
        if tracer is not None:
            tracer.uninstall()
            tracer.dump(span_path)
            out["traces"].append({
                "spans": tracer.summary(), "wall_s": sum(out["latencies"]),
                "caches": [caches_before, cache_counts()],
                "certify_errors": tracer.certify_errors, "unsupported": tracer.unsupported,
                "diag_forms_in_p1xp1": tracer.diag_forms_in_p1xp1})
        return out
    return work


# ----------------------------------------------------------------- workloads


@dataclass
class Outcome:
    """What one run measured and checked."""
    latencies: list[float]        # per input: median over the timed passes
    lines: list[str | None]       # first pass, in input order
    peak_rss_mb: float
    attempted: int
    failed: int
    problems: list[str]
    pass_totals: list[float]      # summed scaled time of each pass
    traces: list[dict]
    samples: int                  # timed operations over all passes


def _outcome(rows: list[Row], passes: list[dict], problems: list[str]) -> Outcome:
    """Score every pass against the reference and merge the passes.  A pass
    holds, per input, `lines` and scaled `latencies` (None where the child
    failed), and `peak_rss_mb`, `errors`, `replayed`, `replay_failures`."""
    failed = 0
    for p in passes:
        for r, line in zip(rows, p["lines"]):
            if line != r.line:
                failed += 1
                if line is not None:
                    problems.append(f"row differs from reference: got {line!r}, want {r.line!r}")
        problems.extend(p["errors"])
        problems.extend(p["replay_failures"])
        failed += len(p["replay_failures"])
    per_input = [[x for x in column if x is not None]
                 for column in zip(*(p["latencies"] for p in passes))]
    return Outcome(
        latencies=[statistics.median(xs) for xs in per_input if xs],
        lines=passes[0]["lines"],
        peak_rss_mb=max(p["peak_rss_mb"] for p in passes),
        attempted=len(rows) * len(passes) + sum(p["replayed"] for p in passes),
        failed=failed,
        problems=problems,
        pass_totals=[sum(x for x in p["latencies"] if x is not None) for p in passes],
        traces=[t for p in passes for t in p["traces"]],
        samples=sum(len(xs) for xs in per_input))


def _failed_pass(rows: list[Row]) -> dict:
    out = _new_pass()
    out["lines"] = [None] * len(rows)
    out["latencies"] = [None] * len(rows)
    out["chunks"] = [calibration.chunk()]
    return out


class Sweep:
    """A seeded block sample of one domain, decided in canonical order in
    one process (the `table` loop with jobs=1).  The sample is swept again,
    each time in a fresh child, until the timed loops add up to the run
    time, at least three times."""

    def __init__(self, kind: str, count: int):
        self.kind, self.count = kind, count

    def inputs(self, seed: int) -> list[Row]:
        return block_sample(load_reference(self.kind), self.count, random.Random(seed))

    def _pass(self, rows: list[Row], check: bool, span_path: Path | None,
              problems: list[str], deadline: float) -> dict:
        res = in_child(_child(rows, check, span_path), deadline)
        if res is None:
            problems.append("sweep child failed or timed out")
            return _failed_pass(rows)
        res["raw_s"] = sum(res["latencies"])
        res["latencies"] = calibration.scale(res["latencies"], res["chunks"])
        return res

    def run(self, rows: list[Row], seconds: float, span_dir: Path | None, tick,
            deadline: float) -> Outcome:
        """Untraced: timed passes until `seconds` are used, the first one
        checked.  Traced: one untraced pass (the overhead base, checked) and
        one traced pass.  `tick()` runs before each untraced pass.  A failed
        pass ends the run."""
        passes, problems = [], []
        if span_dir is None:
            timed = 0.0
            while (len(passes) < 3 or timed < seconds) and not problems:
                tick()
                passes.append(self._pass(rows, not passes, None, problems, deadline))
                timed += passes[-1].get("raw_s", 0.0)
        else:
            for span_path in (None, span_dir / "sweep"):
                if not problems:
                    passes.append(self._pass(rows, span_path is None, span_path, problems,
                                             deadline))
        return _outcome(rows, passes, problems)


class Cold:
    """A closed loop with one client: a seeded draw of NotStablyRational
    types, half from each surface, alternating; each request runs in a
    fresh child.  The request list is run again until the run time is used,
    at least twice; certificates are replayed on the first round."""

    TICK_EVERY = 64

    def __init__(self, count: int):
        self.count = count

    def inputs(self, seed: int) -> list[Row]:
        rng = random.Random(seed)
        halves = []
        for kind in ("p2", "p1xp1"):
            nsr = [r for r in load_reference(kind) if r.outcome == "NotStablyRational"]
            half = block_sample(nsr, self.count // 2, rng)
            rng.shuffle(half)
            halves.append(half)
        return [r for pair in zip(*halves) for r in pair]

    def _round(self, rows: list[Row], check: bool, span_dir: Path | None,
               problems: list[str], tick, deadline: float) -> dict:
        rnd = _new_pass()
        for i, r in enumerate(rows):
            if i % self.TICK_EVERY == 0:
                tick()
            path = None if span_dir is None else span_dir / f"request-{i:04d}"
            res = None
            if time.monotonic() < deadline:
                res = in_child(_child([r], check, path), deadline)
            if res is None:
                problems.append(f"{r.key}: request child failed or timed out")
                res = _failed_pass([r])
            for key in ("lines", "latencies", "chunks", "errors", "replay_failures", "traces"):
                rnd[key].extend(res[key])
            rnd["replayed"] += res["replayed"]
            rnd["peak_rss_mb"] = max(rnd["peak_rss_mb"], res["peak_rss_mb"])
        rnd["latencies"] = calibration.scale(rnd["latencies"], rnd["chunks"])
        return rnd

    def run(self, rows: list[Row], seconds: float, span_dir: Path | None, tick,
            deadline: float) -> Outcome:
        """Untraced: rounds until `seconds` are used, the first one checked.
        Traced: one untraced round (the overhead base, checked) and one
        traced round.  `tick()` runs every TICK_EVERY requests.  A round with
        a failed request ends the run."""
        problems: list[str] = []
        rounds: list[dict] = []
        start = time.monotonic()
        if span_dir is None:
            while (len(rounds) < 2 or time.monotonic() - start < seconds) and not problems:
                rounds.append(self._round(rows, not rounds, None, problems, tick, deadline))
        else:
            for path in (None, span_dir):
                if not problems:
                    rounds.append(self._round(rows, path is None, path, problems, tick,
                                              deadline))
        return _outcome(rows, rounds, problems)


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (statistics.quantiles, exclusive method)."""
    return statistics.quantiles(values, n=100)[q - 1]
