import json
from pathlib import Path

import numpy as np
import pytest

from invlab.constructions import background_field
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
from invlab.spectral import SpectralField, VectorField

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
def fixed_limit_records(small_cfg):
    return run_fixed_datum_limit(small_cfg, ExperimentContext(small_cfg))


@pytest.fixture(scope="module")
def perturbed_gap_records(small_cfg):
    # the seeded random background
    return run_perturbed_gap(small_cfg, ExperimentContext(small_cfg))


@pytest.fixture(scope="module")
def validation_records(small_cfg):
    return run_validation_suite(small_cfg, ExperimentContext(small_cfg))


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

    def test_product_grids_double(self, small_ctx):
        assert small_ctx.product_grid(3).N == 1024
        assert small_ctx.product_grid(4).N == 2048

    def test_resolution_budget_enforced(self, small_cfg):
        from invlab.errors import ResolutionError

        ctx = ExperimentContext(small_cfg)
        with pytest.raises(ResolutionError):
            ctx.product_grid(5)  # would need 4096 > budget 2048

    def test_trajectory_cache_hits_only_identical_requests(self, small_cfg):
        # the step cap T/64 depends on the horizon, so a trajectory sampled
        # at other times is another computation, even at a shared time
        from invlab.constructions import taylor_green_two_mode
        from invlab.solvers import SolverConfig, evolve

        ctx = ExperimentContext(small_cfg)
        u0 = taylor_green_two_mode(ctx.grid(32))
        first = ctx.trajectory("probe", u0, 1e-3, [0.02, 0.01])
        assert ctx.trajectory("probe", u0, 1e-3, [0.01, 0.02]) is first
        assert ctx.cache_hits == 1
        subset = ctx.trajectory("probe", u0, 1e-3, [0.01])
        assert subset is not first and subset.times == (0.01,)
        fresh = evolve(u0, SolverConfig(eps=1e-3, T=0.01), [0.01])
        for a, b in zip(subset.state_at(0.01), fresh.state_at(0.01)):
            assert np.array_equal(a.coeffs, b.coeffs)
        assert ctx.telemetry()["trajectory_cache"] == {"hits": 1, "misses": 2}

    def test_trajectory_cache_keyed_by_data(self, small_cfg):
        from invlab.constructions import taylor_green

        ctx = ExperimentContext(small_cfg)
        g = ctx.grid(32)
        ta = ctx.trajectory("probe", taylor_green(g), 1e-3, [0.01])
        tb = ctx.trajectory("probe", taylor_green(g, amplitude=0.5), 1e-3, [0.01])
        assert tb is not ta
        assert not np.array_equal(
            ta.state_at(0.01)[0].coeffs, tb.state_at(0.01)[0].coeffs
        )
        assert ctx.trajectory("other", taylor_green(g), 1e-3, [0.01]) is ta


class TestHeatLaw:
    def test_all_verdicts_pass(self, heat_law_records):
        records = heat_law_records
        fails = [r for r in records if r.verdict == "fail"]
        assert not fails
        spreads = by_quantity(records, "heat_defect_n_spread[s+0]")
        assert spreads and all(r.value <= 1.1 for r in spreads)

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
            vals = part.block_multiplier(j)
            blocks.append(
                np.sqrt(
                    sum(np.sum(w * np.abs(vals * fac * c.coeffs) ** 2) for c in u0)
                    / g.L**2
                )
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


def simpson_weights(t, nodes):
    w = np.ones(nodes)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (t / (nodes - 1) / 3.0)


def vf_rel_diff(a, b):
    num = np.sqrt(
        sum(np.sum(np.abs(x.coeffs - y.coeffs) ** 2) for x, y in zip(a, b))
    )
    den = np.sqrt(sum(np.sum(np.abs(y.coeffs) ** 2) for y in b))
    return num / den


def remainders_at(cfg, ctx, t):
    """u0, P(u0.grad u0) and the remainder fields of shell 3 at time t."""
    from invlab.solvers import first_order_remainders
    from invlab.spectral import advect, leray_project

    u0 = ctx.datum(3)
    traj0 = ctx.trajectory("u0n3", u0, 0.0, cfg.t_grid)
    traj_eps = ctx.trajectory("u0n3", u0, cfg.eps_n(3), cfg.t_grid)
    (rem,) = first_order_remainders(
        u0, traj0, traj_eps, [t], cfg.quadrature_nodes
    )
    return u0, leray_project(advect(u0, u0, verify_support=False)), rem


@pytest.fixture(scope="module")
def residual_records(small_cfg, small_ctx):
    return run_expansion_residuals(small_cfg, small_ctx)


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

    def test_golden_records(self, residual_records):
        # residuals bitwise; closed-form integrals and slopes at 1e-12
        golden = json.loads(GOLDEN_RESIDUALS.read_text())
        got = [(r.quantity, r.t, r.value, r.verdict) for r in residual_records]
        assert [tuple(g[:2]) for g in golden] == [g[:2] for g in got]
        for (quantity, t, value, verdict), (_, _, v, vd) in zip(golden, got):
            assert vd == verdict, (quantity, t)
            if quantity in ("euler_expansion_residual", "ns_duhamel_residual"):
                assert v == float(value), (quantity, t)
            else:
                assert v == pytest.approx(float(value), rel=1e-12), (quantity, t)

    def test_heat_defect_integral_matches_closed_form(self, small_cfg, small_ctx):
        # program: (t phi1(x) - t) pa0, x = t eps k^2; reference: Simpson in
        # tau of (exp(-(t - tau) eps k^2) - 1) pa0
        from invlab.spectral import heat_factor

        t = 0.02
        u0, pa0, rem = remainders_at(small_cfg, small_ctx, t)
        g, eps = u0.grid, small_cfg.eps_n(3)
        nodes = small_cfg.quadrature_nodes
        factor = np.zeros(g.spectral_shape)
        for w, tau in zip(simpson_weights(t, nodes), np.linspace(0.0, t, nodes)):
            factor += w * (heat_factor(g, t - tau, eps) - 1.0)
        quad = VectorField(tuple(SpectralField(g, factor * c.coeffs) for c in pa0))
        assert vf_rel_diff(rem.heat_defect, quad) <= 1e-8

    def test_drift_integral_matches_direct_simpson(self, small_cfg, small_ctx):
        # program: -u2 - t phi1 pa0; reference: Simpson in tau of
        # exp((t - tau) eps Lap) (P(u1.grad u1)(tau) - pa0)
        from invlab.spectral import advect, heat_factor, heat_propagate, leray_project

        t = 0.02
        u0, pa0, rem = remainders_at(small_cfg, small_ctx, t)
        g, eps = u0.grid, small_cfg.eps_n(3)
        nodes = small_cfg.quadrature_nodes
        acc = [np.zeros(g.spectral_shape, dtype=np.complex128) for _ in range(g.d)]
        for w, tau in zip(simpson_weights(t, nodes), np.linspace(0.0, t, nodes)):
            u1 = heat_propagate(u0, tau, eps)
            term = leray_project(advect(u1, u1, verify_support=False))
            back = heat_factor(g, t - tau, eps)
            for a, c, c0 in zip(acc, term, pa0):
                a += w * back * (c.coeffs - c0.coeffs)
        quad = VectorField(tuple(SpectralField(g, a) for a in acc))
        assert vf_rel_diff(rem.drift, quad) <= 1e-8


class TestFamilyGap:
    def test_gap_checks_pass(self, family_gap_records):
        records = family_gap_records
        for name in (
            "gap_positive",
            "gap_dominance",
            "gap_linear_floor",
            "gap_rate_n_spread",
            "uniform_bound",
            "radius_bound_check",
        ):
            recs = by_quantity(records, name)
            assert recs and all(r.verdict == "pass" for r in recs), name
        assert by_quantity(records, "c0_proxy")[0].value > 0


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


class TestPerturbedGap:
    def test_zero_background_reduces_to_family_gap(
        self, small_cfg, small_ctx, family_gap_records
    ):
        d_ref = next(
            r.value
            for r in family_gap_records
            if r.quantity == "solution_gap" and r.n == 3 and abs(r.t - 0.02) < 1e-12
        )
        g = small_ctx.background_grid(3)
        zero = VectorField(
            tuple(
                SpectralField(g, np.zeros(g.spectral_shape, dtype=complex))
                for _ in range(2)
            )
        )
        records = run_perturbed_gap(small_cfg, small_ctx, background=zero)
        pert = next(r.value for r in records if r.quantity == "perturbed_gap")
        assert pert == pytest.approx(d_ref, rel=1e-12)
        defect = next(r.value for r in records if r.quantity == "additivity_defect")
        assert defect <= 1e-12 * d_ref
        assert by_quantity(records, "truncation_not_evaluated")
        assert not by_quantity(records, "truncation_constant")

    def test_random_background_records(self, perturbed_gap_records):
        records = perturbed_gap_records
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
    # rows: experiment, quantity, n, eps, t, repr(value), verdict; values and
    # verdicts must match exactly, keys in order
    records = request.getfixturevalue(fixture)
    experiment = records[0].experiment
    golden = [
        row for row in json.loads(GOLDEN_SMALL.read_text()) if row[0] == experiment
    ]
    assert [row[:5] for row in golden] == [
        [r.experiment, r.quantity, r.n, r.eps, r.t] for r in records
    ]
    for row, r in zip(golden, records):
        assert (repr(float(r.value)), r.verdict) == (row[5], row[6]), row[:5]
