"""Fast tests of the benchmark's own code: span arithmetic, failure
accounting and the output checks.

    python3 -m pytest -q bench/tests
"""

import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
from workloads import (  # noqa: E402
    RESIDUALS,
    WORKLOADS,
    read_records,
    check_gap,
    check_outputs,
    check_residuals,
    check_validate,
    lsq_log_slope,
    parse_value,
)


def span(name, parent, start, end, info=None):
    return [name, parent, start, end, info]


# -- span arithmetic ---------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    spans = [
        span("a", -1, 0.0, 10.0),
        span("b", 0, 1.0, 3.0),
        span("c", 1, 1.5, 2.5),
        span("d", 0, 4.0, 6.0),
    ]
    assert tracer.self_times(spans) == pytest.approx([6.0, 1.0, 1.0, 2.0])


def test_self_time_counts_overlapping_children_once():
    spans = [
        span("a", -1, 0.0, 10.0),
        span("b", 0, 1.0, 5.0),
        span("c", 0, 4.0, 7.0),
        span("d", 0, 9.0, 12.0),  # clipped to the parent's end
    ]
    assert tracer.self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_inside_marks_every_descendant():
    spans = [
        span("run", -1, 0, 9),
        span("evolve", 0, 1, 5),
        span("advect", 1, 2, 3),
        span("fft", 2, 2.1, 2.2),
        span("advect", 0, 6, 7),
    ]
    assert tracer.inside(spans, "evolve") == [False, False, True, True, False]


def test_layer_metrics_per_step_ratios_and_quadrature_count():
    spans = [
        span("experiments.run", -1, 0.0, 10.0),
        span("experiments.trajectory", 0, 0.5, 6.5),
        span("solvers.evolve", 1, 1.0, 6.0, {"steps": 2}),
        span("spectral.advect", 2, 1.0, 2.0),
        span("spectral.fft_inverse", 3, 1.0, 1.5, {"bytes": 10}),
        span("spectral.advect", 2, 3.0, 4.0),
        span("spectral.advect", 0, 7.0, 8.0),
        span("spectral.fft_forward", 6, 7.0, 7.5, {"bytes": 6}),
    ]
    m = tracer.layer_metrics(spans, run_s=10.0)
    assert m["solvers.evolve.steps"][0] == 2
    assert m["solvers.evolve.s_per_step"][0] == pytest.approx(2.5)
    assert m["solvers.evolve.advect_per_step"][0] == pytest.approx(1.0)
    assert m["solvers.evolve.fft_per_step"][0] == pytest.approx(0.5)
    assert m["solvers.evolve.self_s"][0] == pytest.approx(3.0)
    assert m["experiments.trajectory.misses"][0] == 1
    assert m["experiments.trajectory.self_share"][0] == pytest.approx(10.0)
    assert m["experiments.quadrature_advect_calls"][0] == 1
    assert m["experiments.run.self_s"][0] == pytest.approx(10.0 - 6.0 - 1.0)
    assert m["spectral.fft.bytes"][0] == 16
    assert m["spectral.advect.self_s"][0] == pytest.approx(0.5 + 1.0 + 0.5)


def test_tracer_closes_span_on_exception():
    t = tracer.Tracer()

    def boom():
        raise ValueError

    outer = t.wrap("outer", lambda: inner())
    inner = t.wrap("inner", boom)
    with pytest.raises(ValueError):
        outer()
    after = t.wrap("after", lambda: None)
    after()
    assert [s[1] for s in t.spans] == [-1, 0, -1]
    assert all(s[3] >= s[2] for s in t.spans)


def test_install_counts_a_small_evolution_and_uninstalls():
    from invlab import cli, constructions, experiments, solvers, spectral
    from invlab.constructions import taylor_green

    def bindings():
        return [
            solvers.evolve,
            solvers.advect,
            constructions.build_partition,
            spectral._fft,
            cli._EXPERIMENTS["validate"],
            experiments.ExperimentContext.trajectory,
        ]

    before = bindings()
    t = tracer.Tracer()
    uninstall = tracer.install(t)
    try:
        assert all(a is not b for a, b in zip(bindings(), before))
        u0 = taylor_green(spectral.Grid(2, 16, 1.0))
        solvers.evolve(u0, solvers.SolverConfig(eps=0.0, T=0.01), [0.01])
    finally:
        uninstall()
    assert all(a is b for a, b in zip(bindings(), before))
    m = tracer.layer_metrics(t.spans, run_s=1.0)
    steps = m["solvers.evolve.steps"][0]
    assert steps > 0
    assert m["solvers.evolve.advect_per_step"][0] == 4.0
    assert m["spectral.advect.calls"][0] == 4 * steps
    assert m["spectral.fft_inverse.calls"][0] > 0
    assert m["spectral.fft_forward.calls"][0] > 0


# -- failure accounting --------------------------------------------------------


def round_(failed, problem, value=1.0):
    return {"failed": failed, "problem": problem, "metrics": {"run_s": (value, "s")}}


def test_tally_counts_failures_and_takes_medians():
    res = run.tally([round_(False, False, 3.0), round_(True, False, 1.0), round_(False, False, 2.0)])
    assert (res["attempted"], res["failed"], res["correct"]) == (3, 1, True)
    assert res["metrics"]["run_s"] == {"value": 2.0, "unit": "s"}


def test_tally_is_incorrect_when_a_problem_shows():
    res = run.tally([round_(True, True), round_(False, False)])
    assert (res["attempted"], res["failed"], res["correct"]) == (2, 1, False)


# -- output checks -------------------------------------------------------------


def rows(*items):
    return [
        {"experiment": "x", "n": n, "eps": "", "t": t, "quantity": q, "value": v, "verdict": "info"}
        for q, n, t, v in items
    ]


def gap_records(ratio_at):
    items = [("initial_besov", "3", "", "2.0")]
    for t in (0.005, 0.05, 0.08):
        items.append(("solution_gap", "3", repr(t), repr(2.0 * ratio_at(t))))
    return rows(*items)


def bracket(t):
    return 1.0 - math.exp(-16.0 * t / 9.0), 1.0 - math.exp(-9.0 * t / 4.0)


def run_check(check, records):
    known, problems = [], []
    check(records, known, problems)
    return problems, known


def test_gap_check_accepts_the_bracket_midpoint():
    assert run_check(check_gap, gap_records(lambda t: sum(bracket(t)) / 2)) == ([], [])


@pytest.mark.parametrize("side", [0, 1])
def test_gap_check_rejects_a_ratio_outside_the_bracket(side):
    def moved(t):
        lo, hi = bracket(t)
        mid = (lo + hi) / 2
        if t != 0.05:
            return mid
        return lo * 0.99 if side == 0 else hi * 1.01

    problems, _ = run_check(check_gap, gap_records(moved))
    assert len(problems) == 1 and "t=0.05" in problems[0]


def residual_records(power_of):
    items = []
    for name in RESIDUALS:
        for t in (0.005, 0.01, 0.02, 0.04):
            items.append((name, "3", repr(t), repr(3.0 * t ** power_of(name))))
    return rows(*items)


def test_residual_check_accepts_quadratic_remainders():
    assert run_check(check_residuals, residual_records(lambda name: 2.0)) == ([], [])


@pytest.mark.parametrize("power", [1.7, 2.4])
def test_residual_check_rejects_a_slope_outside_the_window(power):
    moved = RESIDUALS[1]
    problems, _ = run_check(
        check_residuals, residual_records(lambda name: power if name == moved else 2.0)
    )
    assert len(problems) == 1 and moved in problems[0]


def test_lsq_log_slope_is_exact_on_a_power_law():
    ts = [0.01, 0.02, 0.05]
    assert lsq_log_slope(ts, [7.0 * t**2.1 for t in ts]) == pytest.approx(2.1)


GOOD_VALIDATE = {
    "vortex_analytic_error": "3e-9",
    "stepper_convergence_order": "4.01",
    "parseval_defect": "1.5e-16",
}


def validate_records(**changes):
    values = {**GOOD_VALIDATE, **changes}
    return rows(*[(q, "", "", v) for q, v in values.items()])


def test_validate_check_accepts_the_references():
    assert run_check(check_validate, validate_records()) == ([], [])


@pytest.mark.parametrize(
    "name,value",
    [
        ("vortex_analytic_error", "2e-6"),
        ("stepper_convergence_order", "3.4"),
        ("parseval_defect", "1e-11"),
        ("parseval_defect", "nan"),
        ("parseval_defect", "garbage"),
    ],
)
def test_validate_check_rejects_a_moved_value(name, value):
    problems, _ = run_check(check_validate, validate_records(**{name: value}))
    assert problems and all(name in p for p in problems)


def test_numpy_scalar_text_is_the_known_fault_and_still_checked():
    problems, known = run_check(
        check_validate, validate_records(parseval_defect="np.float64(1.5e-16)")
    )
    assert problems == [] and len(known) == 1
    problems, known = run_check(
        check_validate, validate_records(parseval_defect="np.float64(1e-11)")
    )
    assert len(problems) == 1 and len(known) == 1


def test_parse_value_reads_plain_floats_without_notes():
    known = []
    assert parse_value("0.25", known) == 0.25 and known == []
    with pytest.raises(ValueError):
        parse_value("inf", known)


def write_run(tmp_path, records, fail_count=0):
    with open(tmp_path / "records.csv", "w") as fh:
        fh.write("experiment,n,eps,t,quantity,value,verdict\n")
        for r in records:
            fh.write(",".join(r[k] for k in ("experiment", "n", "eps", "t", "quantity", "value", "verdict")) + "\n")
    (tmp_path / "summary.json").write_text(json.dumps({"counts": {"fail": fail_count}}))


def test_check_outputs_fails_on_exit_code_and_fail_verdicts(tmp_path):
    workload = WORKLOADS["validate-default"]
    records = validate_records()
    write_run(tmp_path, records)
    assert read_records(tmp_path / "records.csv") == records
    assert check_outputs(workload, tmp_path, 0) == ([], [])
    problems, _ = check_outputs(workload, tmp_path, 1)
    assert problems == ["exit code 1"]
    records[0]["verdict"] = "fail"
    write_run(tmp_path, records, fail_count=1)
    problems, _ = check_outputs(workload, tmp_path, 0)
    assert problems == ["fail verdicts: vortex_analytic_error"]


def test_check_outputs_needs_the_reports(tmp_path):
    problems, _ = check_outputs(WORKLOADS["gap-n3"], tmp_path, 0)
    assert problems == ["records.csv or summary.json missing"]
