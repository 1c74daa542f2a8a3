import json
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from invlab.errors import ConfigError, NumericsError
from invlab.experiments import (
    ExperimentConfig,
    ExperimentContext,
    ResultRecord,
    check,
    lsq_slope,
    run_expansion_residuals,
    run_family_gap,
    run_fixed_datum_limit,
    run_heat_law,
    run_nonlinear_drift,
    run_perturbed_gap,
    run_validation_suite,
    scaled,
    threaded_map,
)
from invlab.littlewood_paley import BesovParams
from invlab.spectral import SpectralField, divergence_defect

from conftest import bounded, half_spectrum_weights, thread_starts


@pytest.fixture(scope="module")
def small_cfg():
    return ExperimentConfig(
        n_list=(3,),
        t_grid=(0.005, 0.01, 0.02, 0.04),
        T0=0.1,
        t0=0.02,
        eps_exponents=(3, 4, 5),
    )


@pytest.fixture(scope="module")
def small_ctx(small_cfg):
    return ExperimentContext(small_cfg)


# Each experiment runs once per module on its own context, as the CLI runs
# it; the behaviour tests and the golden records share these runs.


@pytest.fixture(scope="module")
def heat_law_records(small_cfg):
    return run_heat_law(ExperimentContext(small_cfg))


@pytest.fixture(scope="module")
def drift_cfg(small_cfg):
    # shell 4's product grid (N = 2048) exceeds the N = 1024 budget, which at
    # p = 2 bounds no shell: no array of it is built
    return ExperimentConfig(n_list=(3, 4), t_grid=small_cfg.t_grid, T0=0.1, t0=0.02, N=1024)


@pytest.fixture(scope="module")
def drift_records(drift_cfg):
    return run_nonlinear_drift(ExperimentContext(drift_cfg))


@pytest.fixture(scope="module")
def family_gap_records(small_cfg):
    return run_family_gap(ExperimentContext(small_cfg))


@pytest.fixture(scope="module")
def two_shell_gap_records(small_cfg):
    # shells 3 and 4 on their own datum grids (N = 512 and 1024), with the
    # horizons and the resolution budget of small_cfg
    cfg = replace(small_cfg, n_list=(3, 4))
    return run_family_gap(ExperimentContext(cfg))


@pytest.fixture(scope="module")
def fixed_limit_ctx(small_cfg):
    return ExperimentContext(small_cfg)


@pytest.fixture(scope="module")
def fixed_limit_records(fixed_limit_ctx):
    return run_fixed_datum_limit(fixed_limit_ctx)


@pytest.fixture(scope="module")
def perturbed_ctx(small_cfg):
    return ExperimentContext(small_cfg)


@pytest.fixture(scope="module")
def perturbed_gap_records(perturbed_ctx):
    # the seeded random background
    return run_perturbed_gap(perturbed_ctx)


@pytest.fixture(scope="module")
def validation_ctx(small_cfg):
    return ExperimentContext(small_cfg)


@pytest.fixture(scope="module")
def validation_records(validation_ctx):
    return run_validation_suite(validation_ctx)


def by_quantity(records, name):
    return [r for r in records if r.quantity == name]


class TestHelpers:
    def test_lsq_slope_recovers_power_law(self):
        ts = np.array([0.01, 0.02, 0.04, 0.08])
        assert lsq_slope(ts, 3.0 * ts**1.7) == pytest.approx(1.7, rel=1e-12)

    def test_lsq_slope_nan_on_zero_values(self):
        assert np.isnan(lsq_slope([0.1, 0.2], [1.0, 0.0]))

    def test_tolerance_scaling(self):
        assert scaled(1.10, "relaxed") == pytest.approx(1.10)
        assert scaled(1.10, "strict") == pytest.approx(1.0 + 0.10 * 2 / 3)
        assert scaled(0.5, "relaxed") == pytest.approx(0.5)
        assert scaled(0.5, "strict") == pytest.approx(1.0 - 0.5 * 2 / 3)
        assert scaled(1.8, "strict", center=2.0) == pytest.approx(2.0 - 0.2 * 2 / 3)
        assert scaled(2.3, "strict", center=2.0) == pytest.approx(2.0 + 0.3 * 2 / 3)
        assert scaled(0.1, "strict", center=0.0) == pytest.approx(0.1 * 2 / 3)
        assert scaled(0.25, "strict") == 0.5

    def test_check_is_a_closed_interval(self):
        assert check(1.0, 1.0, 1.0) == "pass"
        assert check(2.0, hi=1.0) == "fail"
        assert check(0.5, lo=1.0) == "fail"
        assert check(float("inf")) == "pass"
        assert check(float("nan")) == "fail"


class TestConfigAndRecords:
    def test_eps_rule(self, small_cfg):
        assert small_cfg.eps_n(3) == 2.0**-6
        assert small_cfg.eps_n(5) == 2.0**-10

    def test_shift_defaults_to_half_period(self, small_cfg):
        assert small_cfg.shift_value == pytest.approx(np.pi * 12.0)

    def test_invalid_configs_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(mode="loose")
        with pytest.raises(ConfigError):
            ExperimentConfig(n_list=(2,))
        with pytest.raises(ConfigError):
            ExperimentConfig(t0=0.5, T0=0.1)
        with pytest.raises(ConfigError):
            ExperimentConfig(quadrature_nodes=8)
        with pytest.raises(ConfigError):
            ExperimentConfig(bp=BesovParams(2.0, 2.0, 2.0, 2))
        for bad in (
            {"N": 8}, {"N": 768}, {"R": 0.0}, {"psi_band": -1}, {"radius_bound": 0.0},
        ):
            with pytest.raises(ConfigError):
                ExperimentConfig(**bad)
        for key in ("n_list", "eps_exponents"):
            with pytest.raises(ConfigError, match=f"{key} repeats an entry"):
                ExperimentConfig(**{key: (3, 4, 3)})

    def test_record_validation(self):
        with pytest.raises(NumericsError, match=r"x record q \(n=3, t=0.5\)"):
            ResultRecord("x", "q", float("nan"), n=3, t=0.5)
        with pytest.raises(ConfigError):
            ResultRecord("x", "q", 1.0, verdict="maybe")


class TestContext:
    def test_datum_grids_scale_with_shell(self, small_ctx):
        for n, N in ((3, 512), (4, 1024), (5, 2048)):
            assert small_ctx.datum(n).grid.N == N
            assert small_ctx.box_datum(n).grid.N == N

    def test_datum_grid_needs_the_carrier_on_the_lattice(self):
        # the carrier 17/12 2**3 R of R = 13 is no lattice mode: the grid is
        # refused, as the datum itself would be
        ctx = ExperimentContext(ExperimentConfig(R=13.0))
        for datum in (ctx.datum, ctx.box_datum):
            with pytest.raises(ConfigError, match="not on the lattice"):
                datum(3)

    def test_product_grids_double(self, small_ctx):
        assert small_ctx.box_datum(3, order=2).grid.N == 1024
        assert small_ctx.box_datum(4, order=2).grid.N == 2048

    def test_layout_harmonics_equal_the_order_at_radius_12(self, small_ctx):
        # at R = 12 the ball of the power-of-two grid sized for order times
        # the datum's extent meets exactly ``order`` harmonics of the carrier
        for n in range(3, 13):
            for order in (1, 2):
                assert small_ctx.box_datum(n, order).layout.H == order, (n, order)

    def test_resolution_budget_bounds_arrays_not_shells(self, small_cfg):
        # the budget bounds the grids whose N x N arrays are built: the ball's
        # (datum), and at p != 2, where the norms exit to the half-spectrum,
        # a shell layout's; at p = 2 no array of it is built
        from invlab.errors import ResolutionError

        ctx = ExperimentContext(small_cfg)
        assert ctx.box_datum(5, order=2).grid.N == 4096 and ctx.box_datum(6).grid.N == 4096
        with pytest.raises(ResolutionError) as exc:
            ctx.datum(6)
        assert exc.value.required_n == 4096
        ctx = ExperimentContext(replace(small_cfg, bp=BesovParams(3.0, 4.0, 2.0)))
        for layout_datum in (lambda: ctx.box_datum(5, order=2), lambda: ctx.box_datum(6)):
            with pytest.raises(ResolutionError) as exc:
                layout_datum()
            assert exc.value.required_n == 4096

    def test_grids_hold_the_whole_datum_at_radius_60(self):
        # at R = 60 the n = 5 datum reaches 2720 + 14 = 2734: its grid needs
        # N >= 3 * 2734 + 1, so 16384, and its product 32768, over the budget
        # at p != 2; a half-width read on 16 points (8) would size them at
        # 8192 and 16384.  The ball's datum is sized under a budget of 8192,
        # so that no 16384 x 16384 array is built
        from invlab.errors import ResolutionError

        cfg = ExperimentConfig(R=60.0, N=16384, n_list=(5,))
        ctx = ExperimentContext(cfg)
        assert ctx.box_datum(5).grid.N == 16384
        assert ctx.box_datum(5, order=2).grid.N == 32768
        with pytest.raises(ResolutionError) as exc:
            ExperimentContext(replace(cfg, N=8192)).datum(5)
        assert exc.value.required_n == 16384
        ctx = ExperimentContext(replace(cfg, bp=BesovParams(3.0, 4.0, 2.0)))
        with pytest.raises(ResolutionError) as exc:
            ctx.box_datum(5, order=2)
        assert exc.value.required_n == 32768

    @pytest.mark.parametrize(
        "run, required",
        [(run_family_gap, 2048), (run_validation_suite, 2048)],
    )
    def test_budget_at_other_p_raises_before_any_evolution(self, run, required, monkeypatch):
        # at p = 4 the n = 5 datum's grid (N = 2048) exceeds a budget of
        # 1024: the run stops at shell 5's layout, before it evolves or
        # norms shell 3
        import invlab.experiments as experiments
        from invlab.errors import ResolutionError

        def no_work(*args, **kwargs):
            raise AssertionError("a norm or an evolution ran")

        for name in ("besov_norm", "block_lp_norms", "evolve"):
            monkeypatch.setattr(experiments, name, no_work)
        cfg = ExperimentConfig(bp=BesovParams(3.0, 4.0, 2.0), N=1024, n_list=(3, 5))
        ctx = ExperimentContext(cfg)
        with pytest.raises(ResolutionError) as exc:
            run(ctx)
        assert exc.value.required_n == required and ctx.evolutions == []


class TestTrajectoryBatch:
    """``ExperimentContext.trajectory`` evolves the requests of a batch side by side."""

    @pytest.fixture
    def threads_seen(self, monkeypatch):
        # the thread of each evolve call, and three CPUs, so that a batch
        # runs on several threads on any machine
        import os
        import threading

        import invlab.experiments as experiments
        from invlab.solvers import evolve

        seen = []

        def recorded(*args, **kwargs):
            seen.append(threading.get_ident())
            return evolve(*args, **kwargs)

        monkeypatch.setattr(experiments, "evolve", recorded)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        return seen

    def test_batch_equals_sequential_evolutions(self, small_cfg, threads_seen):
        import threading

        from invlab.constructions import taylor_green, taylor_green_two_mode
        from invlab.solvers import evolve

        ctx = ExperimentContext(small_cfg)
        g = ctx.grid(32)
        requests = [
            (taylor_green_two_mode(g), 0.0),
            (taylor_green_two_mode(g), 1e-2),
            (taylor_green(g), 1e-3),
            (taylor_green_two_mode(g), 1e-3),
        ]
        times = [0.02, 0.01, 0.04]
        batch = ctx.trajectory(requests, times)
        assert len(set(threads_seen)) == 3  # three threads took the four requests
        assert threading.get_ident() in threads_seen
        for traj, (u0, eps) in zip(batch, requests):
            alone = evolve(u0, eps, times)
            assert traj.times == alone.times == (0.01, 0.02, 0.04)
            assert traj.eps == eps
            for t, a, b in zip(traj.times, traj.increments, alone.increments):
                assert np.array_equal(a, b)
                assert np.array_equal(traj.state_at(t).coeffs, alone.state_at(t).coeffs)
            for key in alone.diagnostics:
                assert np.array_equal(traj.diagnostics[key], alone.diagnostics[key])
            assert traj.div_rel == alone.div_rel

    def test_single_request_runs_on_the_calling_thread(self, small_cfg, threads_seen):
        import threading

        from invlab.constructions import taylor_green

        ctx = ExperimentContext(small_cfg)
        before = threading.active_count()
        ctx.trajectory([(taylor_green(ctx.grid(32)), 1e-3)], [0.01])
        assert threads_seen == [threading.get_ident()]
        assert threading.active_count() == before

    def test_envelope_batch_runs_in_order_on_the_calling_thread(
        self, small_cfg, threads_seen, monkeypatch
    ):
        # two runs of the n = 3 shell on its boxes start no thread, even with
        # three CPUs, and each equals its evolution alone
        import threading

        from invlab.solvers import evolve

        ctx = ExperimentContext(small_cfg)
        u0 = ctx.box_datum(3)
        started = thread_starts(monkeypatch)
        batch = ctx.trajectory([(u0, 0.0), (u0, small_cfg.eps_n(3))], [0.01])
        assert threads_seen == [threading.get_ident()] * 2
        assert started == []
        assert [r["layout"] for r in ctx.evolutions] == ["envelopes"] * 2
        for traj in batch:
            alone = evolve(u0, traj.eps, [0.01])
            assert traj.layout == u0.layout
            assert np.array_equal(traj.increments[0], alone.increments[0])

    def test_every_request_evolves(self, small_cfg, threads_seen):
        # a request repeated in a batch, or asked for again, evolves again:
        # the context keeps no trajectory
        from invlab.constructions import taylor_green

        ctx = ExperimentContext(small_cfg)
        g = ctx.grid(32)
        a = taylor_green(g)
        ta, again = ctx.trajectory([(a, 1e-3), (a, 1e-3)], [0.01])
        (later,) = ctx.trajectory([(a, 1e-3)], [0.01])
        assert len({id(ta), id(again), id(later)}) == 3
        assert len(threads_seen) == len(ctx.evolutions) == 3
        for traj in (again, later):
            assert np.array_equal(traj.state_at(0.01).coeffs, ta.state_at(0.01).coeffs)

    def test_telemetry_follows_request_order(self, small_cfg, threads_seen):
        from invlab.constructions import taylor_green_two_mode

        ctx = ExperimentContext(small_cfg)
        g = ctx.grid(32)
        u0 = taylor_green_two_mode(g)
        ctx.trajectory([(u0, 0.0)], [0.01])
        sweep = [0.04, 0.0, 0.01, 0.02]
        trajs = ctx.trajectory([(u0, eps) for eps in sweep], [0.01])
        assert [tr.eps for tr in trajs] == sweep
        runs = ctx.evolutions
        assert [r["eps"] for r in runs] == [0.0, *sweep]
        assert all(r["N"] == 32 and r["steps"] == 64 for r in runs)
        assert all(r["wall_s"] > 0.0 for r in runs)

    def test_zero_step_evolution_reports_its_divergence(self, small_cfg):
        # only t = 0 is sampled: no step, so no dt range or energy drift, but
        # the largest divergence defect of the sampled states is the data's
        from invlab.constructions import taylor_green_two_mode

        ctx = ExperimentContext(small_cfg)
        u0 = taylor_green_two_mode(ctx.grid(32))
        (traj,) = ctx.trajectory([(u0, 1e-3)], [0.0])
        (run,) = ctx.evolutions
        assert run["steps"] == 0 and "dt_min" not in run
        assert run["div_rel_max"] == traj.div_rel[0] == divergence_defect(u0)

    def test_many_requests_on_more_threads_than_cores(self, small_cfg, monkeypatch):
        # six threads and a short switch interval: every request is taken
        # by exactly one thread, and each result lands at its own index
        import os
        import sys
        import threading

        import invlab.experiments as experiments
        from invlab.constructions import taylor_green_two_mode
        from invlab.solvers import evolve

        taken = []

        def recorded(u0, eps, times):
            taken.append(eps)
            return evolve(u0, eps, times)

        monkeypatch.setattr(experiments, "evolve", recorded)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(6)))
        ctx = ExperimentContext(small_cfg)
        u0 = taylor_green_two_mode(ctx.grid(16))
        sweep = [1e-3 * (i + 1) for i in range(24)]
        before = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            trajs = ctx.trajectory([(u0, eps) for eps in sweep], [0.01])
        finally:
            sys.setswitchinterval(interval)
        assert threading.active_count() == before
        assert sorted(taken) == sweep
        assert [tr.eps for tr in trajs] == sweep
        assert [r["eps"] for r in ctx.evolutions] == sweep

    @pytest.mark.parametrize("failing_first", [False, True], ids=["second", "first"])
    def test_failing_request_raises_as_in_sequence(self, small_cfg, threads_seen, failing_first):
        import threading

        from invlab.constructions import taylor_green_two_mode
        from invlab.solvers import evolve
        from invlab.spectral import Grid

        ctx = ExperimentContext(small_cfg)
        g = Grid(2, 32, 1.0)
        u0 = taylor_green_two_mode(g)
        # a datum with a NaN coefficient fails the admission
        coeffs = u0.coeffs.copy()
        coeffs[0, 1, 0] = np.nan
        bad = SpectralField(g, coeffs)
        with pytest.raises(NumericsError) as alone:
            evolve(bad, 1e-3, [2.0])
        requests = [(u0, 1e-3), (bad, 1e-3), (u0, 2e-3)]
        if failing_first:
            requests = requests[1:]
        before = threading.active_count()
        with pytest.raises(type(alone.value), match="non-finite"):
            ctx.trajectory(requests, [2.0])
        assert threading.active_count() == before
        # the requests before the failing one are kept, as in a sequence
        kept = 0 if failing_first else 1
        assert len(ctx.evolutions) == kept


class TestThreadedMap:
    """``threaded_map``: the work loop of the ball's batches."""

    @pytest.fixture(autouse=True)
    def cpus(self, monkeypatch):
        # six CPUs on any machine, so the jobs below spread over threads
        import os

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(6)))

    def test_in_order_results(self):
        # a short switch interval and more jobs than threads: each job runs
        # once, several threads take them, and each result lands at its index
        import sys
        import threading
        import time

        taken = []

        def job(i):
            taken.append((i, threading.get_ident()))
            time.sleep(1e-3)
            return i * i

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            out, err = bounded(lambda: list(threaded_map(job, range(40))))
        finally:
            sys.setswitchinterval(interval)
        assert err is None and out == [i * i for i in range(40)]
        assert sorted(i for i, _ in taken) == list(range(40))
        assert len({thread for _, thread in taken}) > 1

    def test_no_job_starts_after_a_failure(self):
        # jobs 5 and 6 fail, 6 at once and 5 late: jobs start in order and
        # none after a failure, so at most the five other threads' jobs
        # follow job 5, and the results before it come out, then its error
        import time

        started = []

        def job(i):
            started.append(i)
            if i == 5:
                time.sleep(0.05)
            if i in (5, 6):
                raise FloatingPointError(f"job {i}")
            time.sleep(1e-3)
            return i

        out = []

        def consume():
            for value in threaded_map(job, range(40)):
                out.append(value)

        _, err = bounded(consume)
        assert isinstance(err, FloatingPointError) and str(err) == "job 5"
        assert out == [0, 1, 2, 3, 4]
        assert sorted(started) == list(range(len(started)))
        assert len(started) <= 6 + 5

    def test_helpers_joined_before_the_first_result(self):
        # also when a job fails or the caller stops early
        import threading

        before = threading.active_count()
        results = threaded_map(lambda i: i, range(40))
        assert next(results) == 0
        assert threading.active_count() == before
        results.close()

        def fail(i):
            raise FloatingPointError("injected")

        with pytest.raises(FloatingPointError):
            next(threaded_map(fail, range(40)))
        assert threading.active_count() == before


class TestHeatLaw:
    def test_all_verdicts_pass(self, heat_law_records):
        records = heat_law_records
        fails = [r for r in records if r.verdict == "fail"]
        assert not fails
        # one shell: each spread is max/min of a single value, reported only
        spreads = [r for r in records if r.quantity.startswith("heat_defect_n_spread")]
        assert len(spreads) == 12
        assert all(r.value == 1.0 and r.verdict == "info" for r in spreads)

    def test_spreads_checked_over_two_shells(self):
        cfg = ExperimentConfig(n_list=(3, 4), t_grid=(0.005, 0.01), N=1024)
        records = run_heat_law(ExperimentContext(cfg))
        spreads = [r for r in records if r.quantity.startswith("heat_defect_n_spread")]
        assert len(spreads) == 6
        assert all(r.verdict == "pass" and r.value > 1.0 for r in spreads)

    def test_deterministic_records(self, small_cfg, heat_law_records):
        a = heat_law_records
        b = run_heat_law(ExperimentContext(small_cfg))
        assert [(r.key(), r.value, r.verdict) for r in a] == [
            (r.key(), r.value, r.verdict) for r in b
        ]

    def test_plancherel_oracle(self, small_cfg, small_ctx, heat_law_records):
        # independent spectral-route evaluation of the defect ratio
        from invlab.littlewood_paley import build_partition
        from invlab.spectral import heat_factor

        records = heat_law_records
        u0 = small_ctx.datum(3)
        g = u0.grid
        part = build_partition(g)
        t = small_cfg.t_grid[2]
        fac = heat_factor(g, t, small_cfg.eps_n(3)) - 1.0
        w = half_spectrum_weights(g)
        blocks = []
        for j in range(-1, part.j_max + 1):
            vals = part.theta(g.k_mag) if j == -1 else part.phi(g.k_mag / 2.0**j)
            blocks.append(
                np.sqrt(np.sum(w * np.abs(vals * fac * u0.coeffs) ** 2) / g.L**2)
            )
        j = np.arange(-1, part.j_max + 1)
        oracle = float(
            np.sqrt(np.sum((2.0 ** (j * small_cfg.bp.s) * np.array(blocks)) ** 2))
        ) / (t * 1.0)
        rec = next(
            r
            for r in by_quantity(records, "heat_defect_ratio[s+0]")
            if r.n == 3 and abs(r.t - t) < 1e-12
        )
        assert rec.value == pytest.approx(oracle, rel=1e-10)


class TestNonlinearDrift:
    def test_slopes_pass(self, drift_records):
        recs = drift_records
        slopes = by_quantity(recs, "heat_defect_of_advection_slope") + by_quantity(
            recs, "advection_drift_slope[s+0]"
        )
        assert slopes and all(r.verdict == "pass" for r in slopes)

    def test_support_bound_holds(self, drift_records):
        recs = drift_records
        sup = by_quantity(recs, "advection_support_radius")
        assert sup and all(r.verdict == "pass" for r in sup)

    def test_budget_does_not_limit_shells_at_p2(self, drift_cfg, drift_records):
        # shell 4's product grid is above the budget, and it runs
        recs = drift_records
        assert ExperimentContext(drift_cfg).box_datum(4, order=2).grid.N == 2048 > drift_cfg.N
        assert [r.n for r in by_quantity(recs, "advection_support_radius")] == [3, 4]
        growth = by_quantity(recs, "advection_drift_over_t_n_growth")
        assert [r.n for r in growth] == [4] * len(drift_cfg.t_grid)

    def test_budget_limited_shell_reported_at_p4(self):
        # at p != 2 the norms leave the boxes, so the budget bounds the
        # product grid: shell 3's needs N = 1024 > 512 and is recorded, not run
        cfg = ExperimentConfig(bp=BesovParams(3.0, 4.0, 2.0), N=512, n_list=(3,))
        recs = run_nonlinear_drift(ExperimentContext(cfg))
        assert [(r.quantity, r.n, r.value) for r in recs] == [("resolution_limited", 3, 1024.0)]

    def test_two_resolved_shells_pass(self, small_cfg):
        # A_i(t)/t falls about 16x from n = 3 to n = 4; only growth may fail
        cfg = ExperimentConfig(
            n_list=(3, 4), t_grid=small_cfg.t_grid, T0=0.1, t0=0.02, N=2048
        )
        recs = run_nonlinear_drift(ExperimentContext(cfg))
        assert not by_quantity(recs, "resolution_limited")
        assert not [r for r in recs if r.verdict == "fail"]
        growth = by_quantity(recs, "advection_drift_over_t_n_growth")
        assert len(growth) == len(cfg.t_grid)
        assert all(r.n == 4 and r.value < 1.0 for r in growth)


GOLDEN_RESIDUALS = Path(__file__).parent / "data" / "expansion_residuals_small.json"

# Golden values are compared at GOLDEN_REL relative; verdicts must be equal.
# Quantities formed by cancellation, or at the rounding level, move with the
# rounding of the terms that cancel instead of their own size, so they get an
# absolute tolerance scaled by those terms: ten times the largest spread
# measured between the velocity-form and the vorticity-form nonlinear term
# (same configs, every verdict equal), rounded up.
GOLDEN_REL = 1e-12
# The Euler, NS and drift remainders at t are differences of fields of size
# t ||P(u0 . grad u0)||_B (delta0 + t pa0, delta_eps - u2, -u2 - t phi1 pa0).
# Largest spread: 1.4e-14 of that scale (ns_duhamel_residual at t = 0.005,
# 5.5e-28 against 0.005 * 7.8e-12; its relative spread is 3.5e-11).  The
# heat-defect integral (t phi1 - t) pa0 is a multiplier times pa0, with no
# cancellation of its own: its spread, 1.8e-13 relative, is that of
# ||pa0||_B itself, and GOLDEN_REL applies.
CANCELLING_REMAINDERS = (
    "euler_expansion_residual", "ns_duhamel_residual", "nonlinearity_drift_integral",
)
REMAINDER_ATOL = 2e-13
# validate's *_defect and *_error records and divergence_preservation are
# rounding residues normalized by the size of their terms (scale 1).
# Largest spread: 2.5e-15, which divergence_preservation showed when the
# velocity form's Leray projection left 2.48e-15.  It is now the largest
# defect of the sampled states of a Biot-Savart evolution: 4.4e-18, against
# 9.1e-18 when every step's state was measured.  vortex_analytic_error moved
# by 1.8e-18, vortex_steady_error by 4.5e-19.
VALIDATION_ATOL = 2.5e-14
# stepper_convergence_order is min log2(d_M / d_2M) over the Cauchy
# differences d_M = |u_M - u_2M|, of which the smallest two are d_16 = 3.72e-8
# and d_32 = 2.31e-9 of |w0|: a spread delta |w0| in them moves it by
# (delta/d_16 + delta/d_32) / ln 2.  With delta = 7e-18, measured on the
# reference-based errors of the same size, that is 4.6e-9.
ORDER_ATOL = 4e-8
# additivity_defect (3.9e-4) is S(psi + u) - S(psi) - S(u) over states of
# Besov norm about 0.09, so GOLDEN_REL of it is 4e-15 of the terms; its
# measured spread is 4e-18 of them (9.8e-16 relative), and GOLDEN_REL applies.


def simpson_weights(t, nodes):
    w = np.ones(nodes)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (t / (nodes - 1) / 3.0)


def vf_rel_diff(a, b):
    num = np.sqrt(np.sum(np.abs(a.coeffs - b.coeffs) ** 2))
    return num / np.sqrt(np.sum(np.abs(b.coeffs) ** 2))


@pytest.fixture(scope="module")
def shell3_pair(small_cfg, small_ctx):
    """Shell 3 with its ideal and viscous runs over small_cfg.t_grid."""
    u0 = small_ctx.datum(3)
    traj0, traj_eps = small_ctx.trajectory(
        [(u0, 0.0), (u0, small_cfg.eps_n(3))], small_cfg.t_grid
    )
    return u0, traj0, traj_eps


def remainders_at(cfg, pair, t):
    """u0, P(u0.grad u0) and the remainder fields of shell 3 at time t."""
    from invlab.solvers import first_order_remainders
    from invlab.spectral import advect, leray_project

    u0, traj0, traj_eps = pair
    (rem,) = first_order_remainders(traj0, traj_eps, [t], cfg.quadrature_nodes)
    return u0, leray_project(advect(u0, u0)), rem


@pytest.fixture(scope="module")
def residual_records(small_cfg):
    return run_expansion_residuals(ExperimentContext(small_cfg))


class TestExpansionResiduals:
    def test_quadratic_slopes(self, residual_records):
        records = residual_records
        for name in ("euler_expansion_residual", "ns_duhamel_residual"):
            slope = by_quantity(records, f"{name}_slope")
            assert len(slope) == 1
            assert slope[0].verdict == "pass", f"{name}: {slope[0].value}"
        for name in ("nonlinearity_drift_integral", "heat_defect_integral"):
            slope = by_quantity(records, f"{name}_slope")
            assert slope[0].value >= 1.8

    def test_golden_records(self, small_cfg, small_ctx, residual_records):
        # remainders at REMAINDER_ATOL * t * ||pa0||_B, the rest at GOLDEN_REL;
        # a slope of log(value) against log(t) may move by what those allow
        from invlab.littlewood_paley import besov_norm
        from invlab.spectral import advect, leray_project

        golden = json.loads(GOLDEN_RESIDUALS.read_text())
        got = [(r.quantity, r.t, r.value, r.verdict) for r in residual_records]
        assert [tuple(g[:2]) for g in golden] == [g[:2] for g in got]
        u0 = small_ctx.datum(3)
        pa0 = besov_norm(leray_project(advect(u0, u0)), small_cfg.bp)
        tol = {
            (q, t): REMAINDER_ATOL * t * pa0
            if q in CANCELLING_REMAINDERS
            else GOLDEN_REL * abs(float(value))
            for q, t, value, _ in golden
            if t is not None
        }
        for (quantity, t, value, verdict), (_, _, v, vd) in zip(golden, got):
            assert vd == verdict, (quantity, t)
            if t is None:
                # slope = sum_i a_i log(v_i), a_i = (x_i - mean x) / sum (x - mean x)^2
                pts = [(tt, float(vv)) for q, tt, vv, _ in golden if f"{q}_slope" == quantity]
                x = np.log([tt for tt, _ in pts])
                a = (x - x.mean()) / ((x - x.mean()) ** 2).sum()
                allowed = sum(
                    abs(ai) * tol[(quantity[: -len("_slope")], tt)] / vv
                    for ai, (tt, vv) in zip(a, pts)
                )
            else:
                allowed = tol[(quantity, t)]
            assert abs(v - float(value)) <= allowed, (quantity, t, v, value)

    def test_heat_defect_integral_matches_closed_form(self, small_cfg, shell3_pair):
        # program: (t phi1(x) - t) pa0, x = t eps k^2; reference: Simpson in
        # tau of (exp(-(t - tau) eps k^2) - 1) pa0
        from invlab.spectral import heat_factor

        t = 0.02
        u0, pa0, rem = remainders_at(small_cfg, shell3_pair, t)
        g, eps = u0.grid, small_cfg.eps_n(3)
        nodes = small_cfg.quadrature_nodes
        factor = np.zeros(g.spectral_shape)
        for w, tau in zip(simpson_weights(t, nodes), np.linspace(0.0, t, nodes)):
            factor += w * (heat_factor(g, t - tau, eps) - 1.0)
        quad = SpectralField(g, factor * pa0.coeffs)
        assert vf_rel_diff(rem.heat_defect, quad) <= 1e-8

    def test_drift_integral_matches_direct_simpson(self, small_cfg, shell3_pair):
        # program: -u2 - t phi1 pa0; reference: Simpson in tau of
        # exp((t - tau) eps Lap) (P(u1.grad u1)(tau) - pa0)
        from invlab.spectral import advect, heat_factor, heat_propagate, leray_project

        t = 0.02
        u0, pa0, rem = remainders_at(small_cfg, shell3_pair, t)
        g, eps = u0.grid, small_cfg.eps_n(3)
        nodes = small_cfg.quadrature_nodes
        acc = np.zeros_like(pa0.coeffs)
        for w, tau in zip(simpson_weights(t, nodes), np.linspace(0.0, t, nodes)):
            u1 = heat_propagate(u0, tau, eps)
            term = leray_project(advect(u1, u1))
            acc += w * heat_factor(g, t - tau, eps) * (term.coeffs - pa0.coeffs)
        quad = SpectralField(g, acc)
        assert vf_rel_diff(rem.drift, quad) <= 1e-8


class TestFamilyGap:
    def test_gap_checks_pass(self, family_gap_records):
        records = family_gap_records
        for name in (
            "gap_positive",
            "gap_dominance",
            "gap_linear_floor",
            "uniform_bound",
            "radius_bound_check",
        ):
            recs = by_quantity(records, name)
            assert recs and all(r.verdict == "pass" for r in recs), name
        assert by_quantity(records, "c0_proxy")[0].value > 0
        # one shell: the spread is reported, not checked
        (spread,) = by_quantity(records, "gap_rate_n_spread")
        assert (spread.value, spread.verdict) == (1.0, "info")

    def test_two_shells_checked(self, two_shell_gap_records):
        # the uniformity claim: the gap rate d(t0)/t0 of shells 3 and 4 is
        # checked against the spread cap, and nothing fails
        records = two_shell_gap_records
        (spread,) = by_quantity(records, "gap_rate_n_spread")
        assert spread.verdict == "pass" and spread.value > 1.0
        assert {r.n for r in by_quantity(records, "solution_gap")} == {3, 4}
        assert not [r for r in records if r.verdict == "fail"]


class TestFixedDatumLimit:
    def test_monotone_decrease(self, fixed_limit_records):
        records = fixed_limit_records
        mono = by_quantity(records, "gap_monotone_in_eps")
        assert mono[0].verdict == "pass"
        gaps = [
            r.value
            for r in by_quantity(records, "solution_gap_vs_eps")
            if r.eps and r.eps > 0
        ]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))

    def test_euler_gap_is_zero(self, fixed_limit_records):
        records = fixed_limit_records
        zero = [
            r for r in by_quantity(records, "solution_gap_vs_eps") if r.eps == 0.0
        ]
        assert zero[0].value == 0.0


class TestEvolutionLayouts:
    def test_bare_shell_runs_on_envelopes(self, fixed_limit_ctx, fixed_limit_records):
        # each entry names its layout: the shell's boxes of W = 10 on an
        # M = 32 envelope grid, one harmonic on the ball of N = 512, and the
        # largest ring share the guard measured
        runs = fixed_limit_ctx.evolutions
        assert len(runs) == 1 + 3
        for r in runs:
            assert (r["layout"], r["N"], r["M"], r["W"], r["H"]) == ("envelopes", 512, 32, 10, 1)
            assert 0.0 < r["ring_share_max"] <= 1e-14

    def test_background_runs_on_the_ball(self, perturbed_ctx, perturbed_gap_records):
        # a background fills a low box that no shell's envelopes hold, so the
        # runs that carry it evolve on the ball; the bare shell's runs evolve
        # on its boxes of the same grid, whose ball states they equal up to
        # rounding outside the boxes
        runs = perturbed_ctx.evolutions
        ball = [r for r in runs if r["layout"] == "ball"]
        boxes = [r for r in runs if r["layout"] == "envelopes"]
        assert len(ball) == 5 and not any("M" in r for r in ball)
        assert len(boxes) == 3
        for r in boxes:
            assert (r["N"], r["M"], r["W"], r["H"]) == (512, 32, 10, 1)
            assert 0.0 < r["ring_share_max"] <= 1e-14


GOLDEN_P4 = Path(__file__).parent / "data" / "family_gap_p4_small.json"


class TestEnvelopeRecordsOnTheBoxes:
    """An envelope run's states, gaps and remainders are ``BoxField``; their
    one exit to the half-spectrum (``BoxField.spectral``, through
    ``solvers._embed``) serves only the norms at p != 2."""

    @pytest.mark.parametrize("run", [run_expansion_residuals, run_family_gap])
    def test_p2_run_never_leaves_the_boxes(self, small_cfg, run, monkeypatch):
        import invlab.solvers as solvers

        def no_exit(*args, **kwargs):
            raise AssertionError("a field was scattered to the half-spectrum")

        # the datum is built in constructions, without the exit
        monkeypatch.setattr(solvers, "_embed", no_exit)
        cfg = replace(small_cfg, t_grid=(0.01, 0.02))
        records = run(ExperimentContext(cfg))
        assert records and not [r for r in records if r.verdict == "fail"]

    def test_envelope_run_admits_and_norms_on_the_boxes(self, small_cfg, monkeypatch):
        # at p = 2 no check or L2 sum of the half-spectrum runs: the datum,
        # born on its boxes, is admitted on its entries by Envelopes.data once
        # per evolve or u2_duhamel call, and first_order_remainders admits
        # nothing beyond the call of its sweep
        from invlab import experiments, littlewood_paley, solvers
        from invlab.solvers import Envelopes, evolve, first_order_remainders, u2_duhamel

        def no_half_spectrum(*args, **kwargs):
            raise AssertionError("a half-spectrum check or L2 sum ran")

        for module in (solvers, littlewood_paley, experiments):
            for name in ("divergence_defect", "require_in_ball", "half_spectrum_l2",
                         "l2_norm_spectral"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, no_half_spectrum)
        data, admitted = Envelopes.data, []

        def counted(self, u0):
            admitted.append(u0)
            return data(self, u0)

        monkeypatch.setattr(Envelopes, "data", counted)
        cfg = replace(small_cfg, t_grid=(0.01, 0.02))
        ctx = ExperimentContext(cfg)
        u0, eps = ctx.box_datum(3), cfg.eps_n(3)
        traj0, traj_eps = (evolve(u0, e, cfg.t_grid) for e in (0.0, eps))
        assert len(admitted) == 2
        assert len(list(u2_duhamel(u0, cfg.t_grid, eps))) == 2
        assert len(admitted) == 3
        assert len(list(first_order_remainders(traj0, traj_eps, cfg.t_grid))) == 2
        assert len(admitted) == 4
        records = run_family_gap(ctx)
        assert len(admitted) == 4 + 2  # the two evolutions of the shell
        assert records and not [r for r in records if r.verdict == "fail"]
        assert all(isinstance(u, solvers.BoxField) for u in admitted)

    def test_other_p_takes_the_exit(self, small_cfg, monkeypatch):
        # at (s, p, r) = (3, 4, 2) the datum, its heat defect and each gap
        # and state leave the boxes once, and the records are those of the
        # half-spectrum fields of the datum and of the scattered slab
        # increments (golden file, written before the boxes kept their
        # fields), within GOLDEN_REL
        import invlab.solvers as solvers

        embed, calls = solvers._embed, []

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return embed(*args, **kwargs)

        monkeypatch.setattr(solvers, "_embed", counted)
        cfg = replace(small_cfg, bp=BesovParams(3.0, 4.0, 2.0), t_grid=(0.01, 0.02))
        records = run_family_gap(ExperimentContext(cfg))
        # the datum and its heat defect, the gaps, and the states of two runs
        assert len(calls) == 2 + 2 + 2 * 2
        golden = json.loads(GOLDEN_P4.read_text())
        assert [row[:5] for row in golden] == [
            [r.experiment, r.quantity, r.n, r.eps, r.t] for r in records
        ]
        for row, r in zip(golden, records):
            assert r.verdict == row[6], row[:5]
            assert abs(r.value - float(row[5])) <= GOLDEN_REL * abs(float(row[5])), row[:5]


class TestQuadraticTermsOnTheBoxes:
    """validate's product laws and ``nonlinear-drift`` form u0 . grad u0 on the
    envelopes of the datum of order 2 (``ExperimentContext.box_datum``)."""

    @staticmethod
    def guard_product_grid(monkeypatch, grid):
        # advect, the exit to the half-spectrum and the datum's construction
        # raise on ``grid``; elsewhere they run as before
        from invlab import constructions, experiments, solvers, spectral

        def guarded(fn, of):
            def call(*args, **kwargs):
                if of(*args) == grid:
                    raise AssertionError(f"{fn.__name__} ran on the product grid")
                return fn(*args, **kwargs)

            return call

        advect = guarded(spectral.advect, lambda u, v: u.grid)
        shell = guarded(constructions.shell_velocity, lambda datum, g: g)
        for module in (spectral, experiments):
            monkeypatch.setattr(module, "advect", advect)
        for module in (constructions, experiments):
            monkeypatch.setattr(module, "shell_velocity", shell)
        monkeypatch.setattr(solvers, "_embed", guarded(solvers._embed, lambda v, g: g))

    def test_p2_validate_builds_nothing_on_the_product_grid(
        self, small_cfg, validation_records, monkeypatch
    ):
        ctx = ExperimentContext(small_cfg)
        grid = ctx.box_datum(3, order=2).grid
        self.guard_product_grid(monkeypatch, grid)
        records = run_validation_suite(ctx)
        assert [(r.key(), r.value, r.verdict) for r in records] == [
            (r.key(), r.value, r.verdict) for r in validation_records
        ]
        assert by_quantity(records, "product_law_constant")
        # no frequency array of the N = 1024 grid was built (they are lazy)
        assert not {"k_sq", "k_mag", "biot_savart"} & set(vars(grid))

    def test_p2_drift_builds_nothing_on_the_product_grid(
        self, drift_cfg, drift_records, monkeypatch
    ):
        ctx = ExperimentContext(drift_cfg)
        grid = ctx.box_datum(3, order=2).grid
        self.guard_product_grid(monkeypatch, grid)
        records = run_nonlinear_drift(ctx)
        assert [(r.key(), r.value, r.verdict) for r in records] == [
            (r.key(), r.value, r.verdict) for r in drift_records
        ]
        assert not {"k_sq", "k_mag", "biot_savart"} & set(vars(grid))

    def test_p4_drift_takes_the_exit_and_matches_the_ball(self, monkeypatch):
        # at (s, p, r) = (3, 4, 2) each drift and heat defect leaves the boxes
        # once; the records equal, within GOLDEN_REL, the ball's values:
        # spectral.advect of the datum and of its heat flow on the product grid
        import invlab.solvers as solvers
        from invlab.constructions import ShellDatum, shell_velocity
        from invlab.littlewood_paley import (
            besov_from_blocks, besov_norm, block_lp_norms, field_support_range,
        )
        from invlab.spectral import advect, heat_factor

        embed, calls = solvers._embed, []

        def counted(*args, **kwargs):
            calls.append(args[1].N)
            return embed(*args, **kwargs)

        monkeypatch.setattr(solvers, "_embed", counted)
        cfg = ExperimentConfig(bp=BesovParams(3.0, 4.0, 2.0), n_list=(3,), N=1024,
                               t_grid=(0.01, 0.02), T0=0.1, t0=0.02)
        records = run_nonlinear_drift(ExperimentContext(cfg))
        assert calls == [1024] * 2 * len(cfg.t_grid)

        g, eps = ExperimentContext(cfg).box_datum(3, order=2).grid, cfg.eps_n(3)
        u0 = shell_velocity(ShellDatum(3, cfg.bp), g)
        pa = advect(u0, u0)
        ball = {("advection_support_radius", None): field_support_range(pa)[1]}
        for t in cfg.t_grid:
            hf = heat_factor(g, t, eps)
            ut = SpectralField(g, hf * u0.coeffs)
            blocks = block_lp_norms(SpectralField(g, advect(ut, ut).coeffs - pa.coeffs), 4.0)
            for k in (-1, 0, 1):
                ball[(f"advection_drift[s{k:+d}]", t)] = besov_from_blocks(
                    blocks, cfg.bp.shifted(k)
                )
            ball[("heat_defect_of_advection", t)] = besov_norm(
                SpectralField(g, (hf - 1.0) * pa.coeffs), cfg.bp
            )
        for k in (-1, 0, 1):
            series = [ball[(f"advection_drift[s{k:+d}]", t)] for t in cfg.t_grid]
            ball[(f"advection_drift_slope[s{k:+d}]", None)] = lsq_slope(cfg.t_grid, series)
        series = [ball[("heat_defect_of_advection", t)] for t in cfg.t_grid]
        ball[("heat_defect_of_advection_slope", None)] = lsq_slope(cfg.t_grid, series)

        assert sorted(ball, key=str) == sorted(((r.quantity, r.t) for r in records), key=str)
        for r in records:
            ref = ball[(r.quantity, r.t)]
            assert abs(r.value - ref) <= GOLDEN_REL * abs(ref), (r.quantity, r.t)
        assert not [r for r in records if r.verdict == "fail"]


def raising_frequency_arrays(monkeypatch, above: int):
    """Make ``Grid.k_sq`` and ``Grid.k_mag`` raise on every grid with N above
    ``above``; on the others they are computed on each read."""
    from invlab.spectral import Grid

    for name in ("k_sq", "k_mag"):
        compute = getattr(Grid, name).func

        def read(self, compute=compute, name=name):
            if self.N > above:
                raise AssertionError(f"Grid.{name} was built at N={self.N}")
            return compute(self)

        monkeypatch.setattr(Grid, name, property(read))


class TestNoLargeArray:
    """A shell run builds no N x N array: its datum is born on its boxes, and
    at p = 2 every norm is a Parseval sum over them."""

    def test_p2_family_gap_at_shell_8(self, monkeypatch):
        # shell 8 sits on a grid of N = 16384, beyond the budget of 2048; each
        # gap at t lies in the heat-flow bracket [1 - e^(-16t/9), 1 -
        # e^(-9t/4)] of the datum's norm (eps |xi|^2 in [16/9, 9/4])
        raising_frequency_arrays(monkeypatch, above=0)
        cfg = ExperimentConfig(n_list=(8,), t_grid=(0.025, 0.05), t0=0.05)
        ctx = ExperimentContext(cfg)
        records = run_family_gap(ctx)
        assert not [r for r in records if r.verdict == "fail"]
        assert {(r["N"], r["layout"]) for r in ctx.evolutions} == {(16384, "envelopes")}
        (b0,) = by_quantity(records, "initial_besov")
        gaps = by_quantity(records, "solution_gap")
        assert [r.t for r in gaps] == list(cfg.t_grid)
        for r in gaps:
            lo, hi = (1.0 - np.exp(-c * r.t) for c in (16.0 / 9.0, 9.0 / 4.0))
            assert lo <= r.value / b0.value <= hi

    def test_validation_suite_builds_no_array_above_256(self, monkeypatch):
        # the default config's shells 3, 4 and 5 (N = 512 to 2048) and their
        # product grids (up to N = 4096) are normed on their boxes, and so are
        # shell 3's derivative bracket and borderline norm; the lattice checks
        # run on N = 256.  The records are those of an unguarded run, with the
        # n = 5 product laws among them
        cfg = ExperimentConfig()
        free = run_validation_suite(ExperimentContext(cfg))
        raising_frequency_arrays(monkeypatch, above=256)
        records = run_validation_suite(ExperimentContext(cfg))
        assert [(r.key(), r.value, r.verdict) for r in records] == [
            (r.key(), r.value, r.verdict) for r in free
        ]
        assert [r.n for r in by_quantity(records, "product_law_growth")] == [4, 5]
        assert not [r for r in records if r.verdict == "fail"]


class TestPerturbedGap:
    def test_zero_background_reduces_to_family_gap(
        self, small_cfg, family_gap_records, monkeypatch
    ):
        import invlab.experiments as experiments

        d_ref = next(
            r.value
            for r in family_gap_records
            if r.quantity == "solution_gap" and r.n == 3 and abs(r.t - 0.02) < 1e-12
        )
        # shell 5 is above the shells perturbed-gap evolves: it gets one
        # record and no run, and the background grid is sized from shell 3
        ctx = ExperimentContext(replace(small_cfg, n_list=(3, 5)))

        def zero(g, *args):
            return SpectralField(g, np.zeros((2,) + g.spectral_shape, dtype=complex))

        monkeypatch.setattr(experiments, "background_field", zero)
        records = run_perturbed_gap(ctx)
        skipped = by_quantity(records, "shell_not_evaluated")
        assert [(r.n, r.value, r.verdict) for r in skipped] == [(5, 4.0, "info")]
        assert {r.n for r in records} == {3, 5}
        # S_3 passes the zero background whole, so the truncated run is the
        # full viscous run: three ball runs and the bare shell's two runs on
        # its boxes, then one of each for the shift
        layouts = ["ball"] * 3 + ["envelopes"] * 2 + ["ball", "envelopes"]
        assert [r["layout"] for r in ctx.evolutions] == layouts
        assert {r["N"] for r in ctx.evolutions} == {512}
        pert = next(r.value for r in records if r.quantity == "perturbed_gap")
        assert pert == pytest.approx(d_ref, rel=1e-12)
        # the translated shell on the boxes of the background grid gaps as
        # family-gap's shell on its own
        (ref,) = by_quantity(records, "unperturbed_gap_reference")
        assert ref.value == pytest.approx(d_ref, rel=GOLDEN_REL)
        defect = next(r.value for r in records if r.quantity == "additivity_defect")
        assert defect <= 1e-12 * d_ref
        assert by_quantity(records, "truncation_not_evaluated")
        assert not by_quantity(records, "truncation_constant")
        (sensitivity,) = by_quantity(records, "truncation_sensitivity")
        assert sensitivity.value == 0.0

    def test_random_background_records(self, perturbed_gap_records, perturbed_ctx):
        records = perturbed_gap_records
        # four ball runs and the bare shell's two on its boxes, then one of
        # each for the shift comparison, which reuses the background run
        layouts = ["ball"] * 4 + ["envelopes"] * 2 + ["ball", "envelopes"]
        assert [r["layout"] for r in perturbed_ctx.evolutions] == layouts
        floor = by_quantity(records, "perturbed_gap_floor")
        assert floor and all(r.verdict == "pass" for r in floor)
        hp = by_quantity(records, "high_pass_background")
        assert hp and all(r.value > 0 for r in hp)
        sens = by_quantity(records, "truncation_sensitivity")
        assert sens and all(r.value > 0 for r in sens)
        pert = by_quantity(records, "perturbed_gap")
        ref = by_quantity(records, "unperturbed_gap_reference")
        assert pert and all(p.value != r.value for p, r in zip(pert, ref))
        assert by_quantity(records, "truncation_constant")
        assert by_quantity(records, "additivity_defect_constant")
        ratio = by_quantity(records, "additivity_defect_shift_ratio")
        assert all(np.isfinite(r.value) for r in ratio)


class TestValidationSuite:
    def test_all_pass(self, validation_records):
        records = validation_records
        fails = [r for r in records if r.verdict == "fail"]
        assert not fails, [(r.quantity, r.value) for r in fails]

    def test_record_keys_unique(self, validation_records):
        keys = [r.key() for r in validation_records]
        assert len(keys) == len(set(keys))

    def test_product_laws_skipped_above_the_budget_at_p4(self):
        # at p = 4 shell 3's product grid (N = 1024) is above the budget of
        # 512: its product laws are recorded as resolution-limited, with the
        # grid they need, and every other check runs
        cfg = ExperimentConfig(bp=BesovParams(3.0, 4.0, 2.0), N=512, n_list=(3,))
        records = run_validation_suite(ExperimentContext(cfg))
        assert not [r for r in records if "_law_" in r.quantity]
        limited = by_quantity(records, "resolution_limited")
        assert [(r.quantity, r.n, r.value) for r in limited] == [
            ("resolution_limited", 3, 1024.0)
        ]
        assert not [r for r in records if r.verdict == "fail"]
        assert [r.n for r in by_quantity(records, "single_block_defect")] == [3]
        assert by_quantity(records, "vortex_analytic_error")

    def test_every_evolution_is_listed(self, validation_ctx, validation_records):
        # four cellular-vortex runs of 64 steps, then the stepper-order runs
        # at fixed steps T/8, T/16, T/32 and T/64, with no reference run:
        # 376 steps in all
        runs = validation_ctx.evolutions
        assert [r["steps"] for r in runs] == [64] * 4 + [8, 16, 32, 64]
        assert all(r["dt_min"] == r["dt_max"] for r in runs[4:])

    def test_each_section_frees_its_fields(self, small_cfg):
        # A section's fields die when it returns, so the traced peak is the
        # largest section's live set.  That is the gradient-part symmetry:
        # u, v, the two gradient parts, their difference and one advection
        # product, six N = 256 vector half-spectra of 2 * 256 * 129 * 16 B =
        # 1.06 MB each (6.3 MB), with advect's samples of 256^2 * 8 B =
        # 0.52 MB each beside them.  The grid's cached arrays (k_mag, k_sq and
        # the partition's blocks, 256 * 129 * 8 B = 0.26 MB each) and the
        # datum's boxes add about 2.2 MB.  About 9.5 MB in all (8.9 MiB
        # measured) against the bound of 12 MiB; with every section's fields
        # alive to the end, as in one long body, the peak is about 25 MiB.
        ctx = ExperimentContext(small_cfg)
        tracemalloc.start()
        try:
            run_validation_suite(ctx)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12 * 2**20


GOLDEN_SMALL = Path(__file__).parent / "data" / "golden_small.json"


@pytest.mark.parametrize(
    "fixture",
    [
        "heat_law_records",
        "drift_records",
        "family_gap_records",
        "fixed_limit_records",
        "perturbed_gap_records",
        "validation_records",
    ],
)
def test_golden_records_small(fixture, request):
    # rows: experiment, quantity, n, eps, t, repr(value), verdict; keys in
    # order, verdicts equal, values within the tolerances above
    records = request.getfixturevalue(fixture)
    experiment = records[0].experiment
    golden = [
        row for row in json.loads(GOLDEN_SMALL.read_text()) if row[0] == experiment
    ]
    assert [row[:5] for row in golden] == [
        [r.experiment, r.quantity, r.n, r.eps, r.t] for r in records
    ]
    for row, r in zip(golden, records):
        quantity, value = row[1], float(row[5])
        allowed = GOLDEN_REL * abs(value)
        if experiment == "validation" and quantity == "stepper_convergence_order":
            allowed = ORDER_ATOL
        elif experiment == "validation" and (
            quantity.endswith(("_defect", "_error")) or quantity == "divergence_preservation"
        ):
            allowed = VALIDATION_ATOL
        assert r.verdict == row[6], row[:5]
        assert abs(float(r.value) - value) <= allowed, (row[:5], r.value, value)
