"""Benchmark workloads: one invlab CLI command and config each, plus the
checks its outputs must pass.

A check compares against a computation made apart from the program, or
against a property the method must have, recomputed here from the raw text
of ``records.csv``.  ``check_outputs`` returns two lists: ``problems``
(the outputs are wrong) and ``known`` (the outputs show a known program
fault, named in ``KNOWN_FAULT``).  An operation fails when either list is
not empty; the benchmark's results are correct when no operation shows a
problem.
"""

from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

KNOWN_FAULT = (
    "io._fmt writes repr(np.float64) under numpy 2, so records.csv holds "
    "text such as np.float64(0.0) that float() cannot read"
)
_NP_FLOAT = re.compile(r"np\.float64\((.*)\)")


def read_records(path) -> list:
    """Rows of one records.csv as dicts, values still as text."""
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def parse_value(text: str, known: list) -> float:
    """The value as a float; text in the known-fault form is noted in
    ``known`` and read from inside the wrapper.  Raises ValueError for any
    other text that is not a finite float."""
    try:
        value = float(text)
    except ValueError:
        match = _NP_FLOAT.fullmatch(text)
        if match is None:
            raise
        known.append(f"unparsable value {text!r}")
        value = float(match.group(1))
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    return value


def lsq_log_slope(ts, values) -> float:
    """Least-squares slope of log(value) against log(t)."""
    xs = [math.log(t) for t in ts]
    ys = [math.log(v) for v in values]
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    num = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    den = sum((x - mx) ** 2 for x in xs)
    return num / den


def _values(rows: list, known: list, problems: list) -> dict:
    """Every record value parsed; unreadable ones become problems."""
    out = {}
    for i, row in enumerate(rows):
        try:
            out[i] = parse_value(row["value"], known)
        except ValueError as err:
            problems.append(f"{row['quantity']}: {err}")
    return out


def check_gap(rows: list, known: list, problems: list) -> None:
    """solution_gap / initial_besov inside the heat-flow bracket.

    The datum lies in |xi| in [4/3, 3/2] 2^n, where the shell profile is 1,
    and eps = 2^-2n, so eps |xi|^2 lies in [16/9, 9/4] and the gap at time t
    is a fraction in [1 - e^(-16t/9), 1 - e^(-9t/4)] of the initial norm.
    """
    values = _values(rows, known, problems)
    initial = {
        r["n"]: values.get(i)
        for i, r in enumerate(rows)
        if r["quantity"] == "initial_besov"
    }
    gaps = [
        (r, values.get(i))
        for i, r in enumerate(rows)
        if r["quantity"] == "solution_gap"
    ]
    if not gaps:
        problems.append("no solution_gap records")
    for row, gap in gaps:
        base = initial.get(row["n"])
        if gap is None or not base:
            problems.append(f"solution_gap n={row['n']} t={row['t']}: no value to check")
            continue
        t = float(row["t"])
        ratio = gap / base
        lo, hi = 1.0 - math.exp(-16.0 * t / 9.0), 1.0 - math.exp(-9.0 * t / 4.0)
        if not lo <= ratio <= hi:
            problems.append(
                f"solution_gap/initial_besov at n={row['n']} t={t} is {ratio:.6g}, "
                f"outside [{lo:.6g}, {hi:.6g}]"
            )


RESIDUALS = (
    "euler_expansion_residual",
    "ns_duhamel_residual",
    "nonlinearity_drift_integral",
    "heat_defect_integral",
)


def check_residuals(rows: list, known: list, problems: list) -> None:
    """Each first-order remainder is quadratic in t: log-log slope in [1.8, 2.3]."""
    values = _values(rows, known, problems)
    for name in RESIDUALS:
        series = {}
        for i, r in enumerate(rows):
            if r["quantity"] == name and i in values:
                series.setdefault(r["n"], []).append((float(r["t"]), values[i]))
        if not series:
            problems.append(f"no {name} records")
        for n, points in series.items():
            if len(points) < 2 or any(v <= 0.0 for _, v in points):
                problems.append(f"{name} n={n}: need two or more positive values")
                continue
            slope = lsq_log_slope(*zip(*sorted(points)))
            if not 1.8 <= slope <= 2.3:
                problems.append(f"{name} n={n}: log-log slope {slope:.4f} outside [1.8, 2.3]")


# closed-form references of the validation suite: quantity -> (bound, is upper)
VALIDATE_BOUNDS = {
    # Taylor-Green decays exactly as exp(-2 eps t)
    "vortex_analytic_error": (1e-6, True),
    # classical RK4 is fourth order
    "stepper_convergence_order": (3.5, False),
    # discrete Parseval identity holds to rounding
    "parseval_defect": (1e-12, True),
}


def check_validate(rows: list, known: list, problems: list) -> None:
    values = _values(rows, known, problems)
    for name, (bound, upper) in VALIDATE_BOUNDS.items():
        found = [values[i] for i, r in enumerate(rows) if r["quantity"] == name and i in values]
        if not found:
            problems.append(f"no readable {name} record")
        for v in found:
            if (v > bound) if upper else (v < bound):
                rel = "<=" if upper else ">="
                problems.append(f"{name} = {v:.6g}, expected {rel} {bound:g}")


@dataclass(frozen=True)
class Workload:
    command: str
    config: dict
    check: Callable


# gap-n3 is runnable but left out of BENCHMARK.json: residuals-n3-strict
# makes the same two N=512 evolutions, and the runs of all three workloads
# would not fit the time an acceptance pass of the benchmark may take
WORKLOADS = {
    "residuals-n3-strict": Workload(
        "expansion-residuals", {"n_list": [3], "mode": "strict"}, check_residuals
    ),
    "validate-default": Workload("validate", {}, check_validate),
    "gap-n3": Workload("family-gap", {"n_list": [3]}, check_gap),
}


def check_outputs(workload: Workload, out_dir, exit_code: int):
    """(problems, known) for one finished CLI run."""
    problems: list = []
    known: list = []
    out_dir = Path(out_dir)
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    csv_path, summary_path = out_dir / "records.csv", out_dir / "summary.json"
    if not csv_path.exists() or not summary_path.exists():
        problems.append("records.csv or summary.json missing")
        return problems, known
    rows = read_records(csv_path)
    failed = [r["quantity"] for r in rows if r["verdict"] == "fail"]
    if failed:
        problems.append(f"fail verdicts: {', '.join(sorted(set(failed)))}")
    if json.loads(summary_path.read_text())["counts"]["fail"] != len(failed):
        problems.append("summary.json fail count disagrees with records.csv")
    workload.check(rows, known, problems)
    return problems, known
