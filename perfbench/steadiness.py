"""Run workloads on several seeds and report how far each end-to-end metric
spreads: (Q3 - Q1) / median over the runs, quartiles as
statistics.quantiles(values, n=4) gives them.

Run from the repository root:

    python3 perfbench/steadiness.py --seeds 1-10 [--workload p2_table ...] [--out FILE]

Each run is `perfbench/run.py --workload W --seed S --seconds <run_seconds>`
with run_seconds from BENCHMARK.json.  A spread is compared with a third of
the metric's bound there.  With --out, the values, medians and spreads are
written to FILE as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    bench = json.loads(Path("BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {"run_seconds": bench["run_seconds"], "seeds": args.seeds, "workloads": {}}
    for workload in args.workload or [w["name"] for w in bench["workloads"]]:
        values: dict[str, list[float]] = {}
        runs = []
        for seed in args.seeds:
            t0 = time.monotonic()
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
                 str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True, check=True)
            result = json.loads(done.stdout.splitlines()[-1])
            runs.append({"seed": seed, "wall_s": time.monotonic() - t0,
                         "correct": result["correct"], "attempted": result["attempted"],
                         "failed": result["failed"]})
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        summary = {name: {"median": statistics.median(v), "spread": spread(v),
                          "bound": bounds[name], "values": v}
                   for name, v in values.items()}
        report["workloads"][workload] = {"runs": runs, "metrics": summary}
        print(f"{workload}: {len(runs)} runs, all correct: "
              f"{all(r['correct'] for r in runs)}, longest run "
              f"{max(r['wall_s'] for r in runs):.0f} s")
        for name, s in summary.items():
            flag = "" if s["spread"] < s["bound"] / 3 else "  (above a third of the bound)"
            print(f"  {name:16s} median {s['median']:12.4f}  spread {s['spread']:.3f}"
                  f"  bound {s['bound']}{flag}")
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
