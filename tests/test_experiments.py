import json
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
)
from invlab.littlewood_paley import BesovParams
from invlab.spectral import SpectralField, divergence_defect

from conftest import half_spectrum_weights


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
    return run_heat_law(small_cfg, ExperimentContext(small_cfg))


@pytest.fixture(scope="module")
def drift_records(small_cfg):
    # the N=1024 budget resolves shell 3 only
    cfg = ExperimentConfig(
        n_list=(3, 4), t_grid=small_cfg.t_grid, T0=0.1, t0=0.02, N=1024
    )
    return run_nonlinear_drift(cfg, ExperimentContext(cfg))


@pytest.fixture(scope="module")
def family_gap_records(small_cfg):
    return run_family_gap(small_cfg, ExperimentContext(small_cfg))


@pytest.fixture(scope="module")
def two_shell_gap_records(small_cfg):
    # shells 3 and 4 on their own datum grids (N = 512 and 1024), with the
    # horizons and the resolution budget of small_cfg
    cfg = replace(small_cfg, n_list=(3, 4))
    return run_family_gap(cfg, ExperimentContext(cfg))


@pytest.fixture(scope="module")
def fixed_limit_ctx(small_cfg):
    return ExperimentContext(small_cfg)


@pytest.fixture(scope="module")
def fixed_limit_records(small_cfg, fixed_limit_ctx):
    return run_fixed_datum_limit(small_cfg, fixed_limit_ctx)


@pytest.fixture(scope="module")
def perturbed_ctx(small_cfg):
    return ExperimentContext(small_cfg)


@pytest.fixture(scope="module")
def perturbed_gap_records(small_cfg, perturbed_ctx):
    # the seeded random background
    return run_perturbed_gap(small_cfg, perturbed_ctx)


@pytest.fixture(scope="module")
def validation_ctx(small_cfg):
    return ExperimentContext(small_cfg)


@pytest.fixture(scope="module")
def validation_records(small_cfg, validation_ctx):
    return run_validation_suite(small_cfg, validation_ctx)


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
        assert small_ctx.datum_grid(3).N == 512
        assert small_ctx.datum_grid(4).N == 1024
        assert small_ctx.datum_grid(5).N == 2048

    def test_datum_grid_needs_the_carrier_on_the_lattice(self):
        # the carrier 17/12 2**3 R of R = 13 is no lattice mode: the grid is
        # refused, as the datum itself would be
        with pytest.raises(ConfigError, match="not on the lattice"):
            ExperimentContext(ExperimentConfig(R=13.0)).datum_grid(3)

    def test_product_grids_double(self, small_ctx):
        assert small_ctx.product_grid(3).N == 1024
        assert small_ctx.product_grid(4).N == 2048

    def test_resolution_budget_enforced(self, small_cfg):
        from invlab.errors import ResolutionError

        ctx = ExperimentContext(small_cfg)
        with pytest.raises(ResolutionError):
            ctx.product_grid(5)  # would need 4096 > budget 2048

    def test_grids_hold_the_whole_datum_at_radius_60(self):
        # at R = 60 the n = 5 datum reaches 2720 + 14 = 2734: its grid needs
        # N >= 3 * 2734 + 1, so 16384, and its product 32768, over the budget;
        # a half-width read on 16 points (8) would size them at 8192 and 16384
        from invlab.errors import ResolutionError

        ctx = ExperimentContext(ExperimentConfig(R=60.0, N=16384, n_list=(5,)))
        assert ctx.datum_grid(5).N == 16384
        with pytest.raises(ResolutionError) as exc:
            ctx.product_grid(5)
        assert exc.value.required_n == 32768


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
        from invlab.solvers import EXPONENT_LIMIT, evolve
        from invlab.spectral import Grid

        ctx = ExperimentContext(small_cfg)
        g = Grid(2, 32, 1.0)
        u0 = taylor_green_two_mode(g)
        # eps * T * max|xi|^2 = 1 * 2 * 512 exceeds the limit on N = 32, R = 1
        assert 1.0 * 2.0 * g.k_sq.max() > EXPONENT_LIMIT
        with pytest.raises(NumericsError) as alone:
            evolve(u0, 1.0, [2.0])
        requests = [(u0, 1e-3), (u0, 1.0), (u0, 2e-3)]
        if failing_first:
            requests = requests[1:]
        before = threading.active_count()
        with pytest.raises(type(alone.value), match="exceeds"):
            ctx.trajectory(requests, [2.0])
        assert threading.active_count() == before
        # the requests before the failing one are kept, as in a sequence
        kept = 0 if failing_first else 1
        assert len(ctx.evolutions) == kept


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
        records = run_heat_law(cfg, ExperimentContext(cfg))
        spreads = [r for r in records if r.quantity.startswith("heat_defect_n_spread")]
        assert len(spreads) == 6
        assert all(r.verdict == "pass" and r.value > 1.0 for r in spreads)

    def test_deterministic_records(self, small_cfg, heat_law_records):
        a = heat_law_records
        b = run_heat_law(small_cfg, ExperimentContext(small_cfg))
        assert [(r.key(), r.value, r.verdict) for r in a] == [
            (r.key(), r.value, r.verdict) for r in b
        ]

    def test_plancherel_oracle(self, small_cfg, small_ctx, heat_law_records):
        # independent spectral-route evaluation of the defect ratio
        from invlab.littlewood_paley import build_partition
        from invlab.spectral import heat_factor

        records = heat_law_records
        g = small_ctx.datum_grid(3)
        part = build_partition(g)
        u0 = small_ctx.datum(3)
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

    def test_budget_limited_shell_reported(self, drift_records):
        recs = drift_records
        limited = by_quantity(recs, "resolution_limited")
        assert [r.n for r in limited] == [4]
        assert limited[0].value == 2048.0

    def test_two_resolved_shells_pass(self, small_cfg):
        # A_i(t)/t falls about 16x from n = 3 to n = 4; only growth may fail
        cfg = ExperimentConfig(
            n_list=(3, 4), t_grid=small_cfg.t_grid, T0=0.1, t0=0.02, N=2048
        )
        recs = run_nonlinear_drift(cfg, ExperimentContext(cfg))
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
# stepper_convergence_order is min log2(e_M / e_2M) over step errors
# e_16 = 4.0e-8 and e_32 = 2.5e-9 of |w0|, themselves differences of states:
# a spread delta |w0| in them moves it by (delta/e_16 + delta/e_32) / ln 2.
# Measured: delta = 7e-18 (e_32 moved 2.9e-9 relative), order 3.9e-9.
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
    return run_expansion_residuals(small_cfg, ExperimentContext(small_cfg))


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
        # the additivity defect subtracts runs with and without a background,
        # so all of them evolve one system: the ball
        runs = perturbed_ctx.evolutions
        assert runs and all(r["layout"] == "ball" and "M" not in r for r in runs)


class TestPerturbedGap:
    def test_zero_background_reduces_to_family_gap(self, small_cfg, family_gap_records):
        d_ref = next(
            r.value
            for r in family_gap_records
            if r.quantity == "solution_gap" and r.n == 3 and abs(r.t - 0.02) < 1e-12
        )
        ctx = ExperimentContext(small_cfg)
        g = ctx.background_grid(3)
        zero = SpectralField(g, np.zeros((2,) + g.spectral_shape, dtype=complex))
        records = run_perturbed_gap(small_cfg, ctx, background=zero)
        # S_3 passes the zero background whole, so the truncated run is the
        # full viscous run: five runs for the shell, two for the shift
        assert len(ctx.evolutions) == 5 + 2
        pert = next(r.value for r in records if r.quantity == "perturbed_gap")
        assert pert == pytest.approx(d_ref, rel=1e-12)
        defect = next(r.value for r in records if r.quantity == "additivity_defect")
        assert defect <= 1e-12 * d_ref
        assert by_quantity(records, "truncation_not_evaluated")
        assert not by_quantity(records, "truncation_constant")
        (sensitivity,) = by_quantity(records, "truncation_sensitivity")
        assert sensitivity.value == 0.0

    def test_random_background_records(self, perturbed_gap_records, perturbed_ctx):
        records = perturbed_gap_records
        # six runs for the shell, two for the shift comparison, which reuses
        # the shell's background run
        assert len(perturbed_ctx.evolutions) == 6 + 2
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

    def test_every_evolution_is_listed(self, validation_ctx, validation_records):
        # four cellular-vortex runs, then the stepper-order runs: a T/512
        # reference and T/8, T/16 and T/32, each at its fixed step
        runs = validation_ctx.evolutions
        assert len(runs) == 8
        assert [r["steps"] for r in runs[4:]] == [512, 8, 16, 32]
        assert all(r["dt_min"] == r["dt_max"] for r in runs[4:])


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
