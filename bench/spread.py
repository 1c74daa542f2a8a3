"""Run-to-run spread of the end-to-end metrics and the tracing overhead.

    python3 bench/spread.py --runs 10 [--first-seed 1] [--workload NAME ...]

Runs ``bench/run.py`` ``--runs`` times per workload (default: those of
BENCHMARK.json), one run at a time with seeds first-seed, first-seed+1, ...,
plus one traced run.  Prints, per workload and metric, the median, the
quartiles and the quartile distance as a share of the median next to the
metric's bound, then the traced run's ``run_s`` against the untraced
median.  Writes the same as JSON to bench/out/spread.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workload", action="append")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {}
    for name in args.workload or [w["name"] for w in spec["workloads"]]:
        results = [
            bench_run(name, args.first_seed + i, args.seconds, 0) for i in range(args.runs)
        ]
        traced = bench_run(name, args.first_seed, args.seconds, 1)
        entry = {
            "failed_share": [r["failed"] / r["attempted"] for r in results],
            "correct": all(r["correct"] for r in results),
            "metrics": {
                k: summarize([r["metrics"][k]["value"] for r in results])
                for k in results[0]["metrics"]
            },
        }
        run_med = entry["metrics"]["run_s"]["median"]
        traced_run = traced["metrics"]["trace.run_s"]["value"]
        entry["trace_overhead"] = {"traced_run_s": traced_run,
                                   "share": traced_run / run_med - 1.0}
        report[name] = entry
        print(f"{name}: {args.runs} runs, failed share "
              f"{sorted(set(entry['failed_share']))}, correct {entry['correct']}")
        for k, s in entry["metrics"].items():
            print(f"  {k:12s} median {s['median']:10.4f}  q1 {s['q1']:10.4f}  "
                  f"q3 {s['q3']:10.4f}  spread {s['spread']:.4f}  "
                  f"bound {bounds.get(k, float('nan'))}")
        print(f"  traced run_s {traced_run:.4f}, overhead "
              f"{100 * entry['trace_overhead']['share']:+.2f}% of the median run_s")
        sys.stdout.flush()
    out = HERE / "out" / "spread.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
