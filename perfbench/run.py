"""Benchmark of the quadrica engine: one workload per run.

Run from the repository root:

    python3 perfbench/run.py --workload p2_table --seed 1 --seconds 15 --trace 0

The engine is imported from ./src and driven through its public functions
only.  Every decided row is compared with the frozen reference in
perfbench/reference/ and every certificate is replayed in an untimed check.
With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
reports the per-layer metrics of a traced run (spans are written under
.perfbench_out/spans/).  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  BENCHMARK.json declares the
workloads and metrics; perfbench/README.md explains them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import CACHES, MUL, SPANS
from workloads import Cold, Outcome, Sweep, percentile

START = time.monotonic()
HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

WORKLOADS = {
    "p2_table": Sweep("p2", 250),
    "p1xp1_table": Sweep("p1xp1", 250),
    "certify_cold": Cold(110),
}

RUN_LIMIT_S = 160.0    # every child has ended by then, finished or killed
SETUP_PER_TICK = 2     # set-up samples taken at each tick of a workload
SETUP_CODE = """\
import time
t0 = time.perf_counter()
import quadrica, quadrica.cli
quadrica.surface("p2"), quadrica.surface("p1xp1")
elapsed = time.perf_counter() - t0
import calibration
print(calibration.scale([elapsed], [calibration.chunk() for _ in range(2 * calibration.WINDOW + 1)])[0])
"""

END_TO_END = {"setup_s": "s", "types_per_s": "1/s", "certify_p50_ms": "ms",
              "certify_p90_ms": "ms", "peak_rss_mb": "MB"}


def per_layer_units() -> dict[str, str]:
    units = {}
    for layer, fns in SPANS.items():
        for fn in fns:
            units[f"{layer}.{fn}.calls"] = "count"
            units[f"{layer}.{fn}.self_s"] = "s"
    units[f"{MUL}.calls"] = "count"
    units[f"{MUL}.self_s"] = "s"
    for layer in SPANS:
        units[f"{layer}.self_s"] = "s"
    units.update({
        "unattributed.self_s": "s",
        "trace.wall_s": "s",
        "trace.overhead_frac": "ratio",
        "certify.construct.candidates_per_form": "count",
        "certify.errors": "count",
        "funfield.unsupported": "count",
    })
    units.update({metric: "ratio" for metric in CACHES})
    return units


def setup_once() -> float:
    """`import quadrica`, the CLI module and both surface models, timed in
    a fresh interpreter and scaled by calibration chunks run after it in the
    same interpreter."""
    done = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH=f"{SRC}{os.pathsep}{HERE}"),
                          capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout)


def end_to_end(out: Outcome, setup_s: float) -> dict[str, float]:
    lat = out.latencies
    return {
        "setup_s": setup_s,
        "types_per_s": len(lat) / sum(lat),
        "certify_p50_ms": statistics.median(lat) * 1e3,
        "certify_p90_ms": percentile(lat, 90) * 1e3,
        "peak_rss_mb": out.peak_rss_mb,
    }


def per_layer(out: Outcome) -> dict[str, float | None]:
    """Sum the traced children's spans, counters and cache deltas."""
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    wall = 0.0
    hits: dict[str, list[int] | None] = {}
    certify_errors = unsupported = diag_forms = 0
    for t in out.traces:
        wall += t["wall_s"]
        for name, s in t["spans"].items():
            calls[name] = calls.get(name, 0) + s["calls"]
            self_s[name] = self_s.get(name, 0.0) + s["self_s"]
        before, after = t["caches"]
        for metric in CACHES:
            acc = hits.setdefault(metric, [0, 0])
            if acc is None or before[metric] is None or after[metric] is None:
                hits[metric] = None
                continue
            acc[0] += after[metric][0] - before[metric][0]
            acc[1] += after[metric][1] - before[metric][1]
        certify_errors += t["certify_errors"]
        unsupported += t["unsupported"]
        diag_forms += t["diag_forms_in_p1xp1"]
    m: dict[str, float | None] = {}
    names = [f"{layer}.{fn}" for layer, fns in SPANS.items() for fn in fns] + [MUL]
    for name in names:
        m[f"{name}.calls"] = calls.get(name, 0)
        m[f"{name}.self_s"] = self_s.get(name, 0.0)
    for layer in SPANS:
        m[f"{layer}.self_s"] = sum(v for k, v in self_s.items() if k.startswith(f"{layer}."))
    m["unattributed.self_s"] = wall - sum(self_s.values())
    m["trace.wall_s"] = wall
    untraced, traced = out.pass_totals
    m["trace.overhead_frac"] = traced / untraced - 1
    for metric, acc in hits.items():
        # a cache that no longer exists is null; one never looked up is 0.0
        m[metric] = None if acc is None else acc[0] / sum(acc) if sum(acc) else 0.0
    constructed = calls.get("certify.construct_degeneration_p1xp1", 0)
    m["certify.construct.candidates_per_form"] = diag_forms / constructed if constructed else 0.0
    m["certify.errors"] = certify_errors
    m["funfield.unsupported"] = unsupported
    return m


def check_declared(trace: bool) -> None:
    """The metrics this script reports must be the ones BENCHMARK.json declares."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = declared["per_layer" if trace else "end_to_end"]
    mine = per_layer_units() if trace else END_TO_END
    theirs = {m["name"]: m["unit"] for m in section}
    if theirs != mine:
        raise SystemExit(f"error: BENCHMARK.json declares {sorted(theirs)}, "
                         f"the benchmark reports {sorted(mine)}")


def machine_info(seed: int) -> dict:
    return {"machine": platform.machine(), "processor": platform.processor(),
            "system": platform.platform(), "nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "seed": seed}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "quadrica" / "__init__.py").is_file():
        print(f"error: no engine sources at {SRC / 'quadrica'}; run from the "
              "repository root", file=sys.stderr)
        return 2
    check_declared(bool(args.trace))
    sys.path.insert(0, str(SRC))
    import quadrica
    import quadrica.cli  # noqa: F401  (the parent holds what setup_s builds)
    if Path(quadrica.__file__).resolve().parent != (SRC / "quadrica").resolve():
        print(f"error: imported quadrica from {quadrica.__file__}", file=sys.stderr)
        return 2
    quadrica.surface("p2"), quadrica.surface("p1xp1")

    workload = WORKLOADS[args.workload]
    rows = workload.inputs(args.seed)
    span_dir = None
    if args.trace:
        span_dir = OUT / "spans" / args.workload
        shutil.rmtree(span_dir, ignore_errors=True)
        span_dir.mkdir(parents=True)
    setup_times: list[float] = []

    def tick() -> None:
        """Set-up samples, spread over the run between timed children."""
        if not args.trace:
            setup_times.extend(setup_once() for _ in range(SETUP_PER_TICK))

    if not args.trace:
        setup_once()        # compiles the bytecode, as any first run does
    out = workload.run(rows, args.seconds, span_dir, tick, START + RUN_LIMIT_S)
    if out.samples == 0 or (args.trace and not out.traces):
        metrics = {name: 0.0 for name in (per_layer_units() if args.trace else END_TO_END)}
    elif args.trace:
        metrics = per_layer(out)
    else:
        metrics = end_to_end(out, statistics.median(setup_times))
    units = per_layer_units() if args.trace else END_TO_END

    output = "".join(f"{line}\n" if line is not None else "<failed>\n" for line in out.lines)
    record = {
        "workload": args.workload, "trace": args.trace, **machine_info(args.seed),
        "inputs": len(rows), "timed_samples": out.samples, "setup_samples": len(setup_times),
        "output_sha256": hashlib.sha256(output.encode()).hexdigest(),
        "fail_frac": out.failed / out.attempted,
        "problems": out.problems[:20],
    }
    OUT.mkdir(exist_ok=True)
    result = {"correct": out.failed == 0 and not out.problems, "attempted": out.attempted,
              "failed": out.failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"info": record, **result}, indent=1))
    for k, v in metrics.items():
        print(f"{k:40s} {v!s:>22s} {units[k]}")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
