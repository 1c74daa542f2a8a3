"""Benchmark of the invlab CLI experiments.

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Each round runs the workload's CLI command once in a fresh process (one
operation), with the CLI's default single FFT worker, after ``PROBES``
set-up probes that stop on entry into the experiment function.  Rounds
repeat until ``--seconds`` have passed; at least one always runs, and a
round is never cut.  Every operation's outputs are checked (workloads.py).

With ``--trace 0`` the last line reports the end-to-end metrics, medians
over the rounds: ``setup_s`` (launch to experiment entry, median over the
probes and the operation), ``run_s`` (experiment entry until the reports
are written), ``cpu_s`` (user + system time of the process) and
``peak_rss_mb`` (its peak resident set, MiB).  With ``--trace 1`` the
operation runs under the tracer and the last line reports the per-layer
metrics.  ``--workload all`` runs every workload and prints a table.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
PROBES = 6

sys.path.insert(0, str(HERE))

from tracer import layer_metrics  # noqa: E402
from workloads import KNOWN_FAULT, WORKLOADS, check_outputs  # noqa: E402


def _launch(workload, seed: int, work: Path, *, probe=False, spans=None):
    """Run the workload's command once; returns (exit code, rusage, timing)."""
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    config = work / "config.json"
    config.write_text(json.dumps(workload.config))
    timing = work / "timing.json"
    cmd = [sys.executable, str(HERE / "child.py"), "--timing", str(timing)]
    if probe:
        cmd.append("--probe")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    cmd += ["--", workload.command, "--config", str(config), "--out", str(work / "out"),
            "--seed", str(seed)]
    log = open(work / "child.log", "w")
    try:
        launched = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        log.close()
    if not timing.exists():
        raise RuntimeError(
            f"{workload.command} did not reach its experiment "
            f"(exit {proc.returncode}); see {work / 'child.log'}:\n"
            + (work / "child.log").read_text()[-2000:]
        )
    stamps = json.loads(timing.read_text())
    stamps["setup_s"] = stamps["entry"] - launched
    return proc.returncode, usage, stamps


def run_round(name: str, seed: int, trace: bool) -> dict:
    """One round: the probes and one checked operation."""
    workload = WORKLOADS[name]
    work = OUT / name
    setups = []
    if not trace:
        for _ in range(PROBES):
            _, _, stamps = _launch(workload, seed, work, probe=True)
            setups.append(stamps["setup_s"])
    spans = work.parent / f"{name}.spans.json" if trace else None
    code, usage, stamps = _launch(workload, seed, work, spans=spans)
    setups.append(stamps["setup_s"])
    if "end" not in stamps:
        raise RuntimeError(f"{name}: reports were not written (exit {code})")
    problems, known = check_outputs(workload, work / "out", code)
    for msg in problems:
        print(f"{name}: PROBLEM {msg}", file=sys.stderr)
    if known:
        print(f"{name}: known fault, {KNOWN_FAULT}: {'; '.join(known)}", file=sys.stderr)
    run_s = stamps["end"] - stamps["entry"]
    if trace:
        metrics = layer_metrics(json.loads(spans.read_text()), run_s)
    else:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "run_s": (run_s, "s"),
            "cpu_s": (usage.ru_utime + usage.ru_stime, "s"),
            "peak_rss_mb": (usage.ru_maxrss / 1024.0, "MiB"),
        }
    return {"failed": bool(problems or known), "problem": bool(problems), "metrics": metrics}


def tally(rounds: list) -> dict:
    """Result object: counts and the median of each metric over the rounds."""
    names = rounds[0]["metrics"]
    return {
        "correct": not any(r["problem"] for r in rounds),
        "attempted": len(rounds),
        "failed": sum(1 for r in rounds if r["failed"]),
        "metrics": {
            k: {
                "value": statistics.median(r["metrics"][k][0] for r in rounds),
                "unit": names[k][1],
            }
            for k in names
        },
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    start = time.monotonic()
    rounds = []
    while not rounds or time.monotonic() - start < seconds:
        rounds.append(run_round(name, seed, trace))
    return tally(rounds)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "invlab" / "cli.py").is_file():
        print(f"invlab sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        if args.workload == "all":
            res = results[name]
            print(f"{name}: attempted {res['attempted']} failed {res['failed']} "
                  f"correct {res['correct']}")
            for metric, v in res["metrics"].items():
                print(f"  {metric} = {v['value']:.6g} {v['unit']}")
    print(json.dumps(results if args.workload == "all" else results[names[0]]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
