import threading
import types

import numpy as np
import pytest

from invlab.constructions import (
    ShellDatum,
    shell_velocity,
    taylor_green,
    taylor_green_two_mode,
)
from invlab.errors import (
    NumericsError,
    QuadratureError,
    ResolutionError,
    SolverDivergenceError,
)
from invlab.experiments import DEFAULT_T_GRID
from invlab.littlewood_paley import BesovParams, DyadicPartition, besov_norm
from invlab.solvers import (
    REFINE_TOL,
    RING_TOL,
    Ball,
    BoxField,
    Envelopes,
    RhsWork,
    Trajectory,
    evolve,
    first_order_remainders,
    trajectory_gap,
    u2_duhamel,
    vorticity_rhs,
    _check_same_run,
)
from invlab.spectral import (
    Grid,
    SpectralField,
    advect,
    curl,
    divergence,
    divergence_defect,
    gradient,
    heat_factor,
    heat_integral_multiplier,
    heat_propagate,
    l2_norm_spectral,
    leray_project,
    perp_gradient,
    _embed,
    _forward,
    _inverse,
    translate,
    zero_outside_ball,
)

from conftest import (
    ball_mask,
    bounded,
    gathered,
    random_vector_field,
    spectral_of,
    thread_starts,
)


def full_rhs(g, w, mean):
    """``vorticity_rhs`` of the slab of ``w``, a half-spectrum, embedded back
    into a half-spectrum."""
    out = np.empty(g.slab_shape, dtype=np.complex128)
    vorticity_rhs(g, w[g.slab], mean, RhsWork(g), out)
    return _embed(out, g)


def vf_rel_diff(a, b):
    num = np.sqrt(np.sum(np.abs(a.coeffs - b.coeffs) ** 2))
    den = max(
        np.sqrt(np.sum(np.abs(a.coeffs) ** 2)),
        np.sqrt(np.sum(np.abs(b.coeffs) ** 2)),
        1e-300,
    )
    return num / den


@pytest.fixture(scope="module")
def shell_setup():
    bp = BesovParams(3.0, 2.0, 2.0, 2)
    g = Grid(2, 512, 12.0)
    u0 = shell_velocity(ShellDatum(3, bp), g)
    return bp, g, u0


@pytest.fixture(scope="module")
def shell_trajectories(shell_setup):
    bp, g, u0 = shell_setup
    times = (0.005, 0.01, 0.02, 0.04)
    eps = 2.0**-6
    traj0 = evolve(u0, 0.0, times)
    traj_eps = evolve(u0, eps, times)
    return times, eps, traj0, traj_eps


# the entry points of the Galerkin system, each given bad data and good data,
# a Taylor-Green vortex of TG_GRID: on the ball, and on envelopes whose box 0
# holds its modes (+/-1, +/-1), as the fields of the boxes read from them
TG_GRID = Grid(2, 64, 1.0)
TG_ENVELOPES = Envelopes(TG_GRID, 4, 1, 1)
ENTRY_POINTS = {
    "evolve": lambda bad, good: evolve(bad, 0.0, [0.1]),
    "u2_duhamel": lambda bad, good: u2_duhamel(bad, [0.1], 0.0),
    "advect-first": lambda bad, good: advect(bad, good),
    "advect-second": lambda bad, good: advect(good, bad),
    "evolve-envelopes": lambda bad, good: evolve(gathered(TG_ENVELOPES, bad), 0.0, [0.1]),
    "u2_duhamel-envelopes": lambda bad, good: u2_duhamel(
        gathered(TG_ENVELOPES, bad), [0.1], 0.0
    ),
}


def refuse_work(monkeypatch, entry):
    """Make every right-hand side and transform raise.  An envelope entry
    admits on its boxes, so the half-spectrum's checks raise too."""
    import invlab.solvers as solvers
    import invlab.spectral as spectral

    def no_work(*args, **kwargs):
        raise AssertionError("a right-hand side, a transform or a half-spectrum check ran")

    monkeypatch.setattr(solvers, "vorticity_rhs", no_work)
    monkeypatch.setattr(Envelopes, "rhs", no_work)
    names = ("rfftn", "irfftn", "fftn", "ifftn")
    monkeypatch.setattr(spectral, "_fft", types.SimpleNamespace(**dict.fromkeys(names, no_work)))
    if entry.endswith("envelopes"):
        monkeypatch.setattr(solvers, "divergence_defect", no_work)
        monkeypatch.setattr(solvers, "require_in_ball", no_work)


class TestEvolve:
    def test_rejects_viscosity_outside_unit_interval(self):
        tg = taylor_green(Grid(2, 32, 1.0))
        for eps in (-0.1, 1.5):
            with pytest.raises(ValueError, match="viscosity"):
                evolve(tg, eps, [0.1])

    def test_rejects_negative_or_no_sample_times(self):
        tg = taylor_green(Grid(2, 32, 1.0))
        for times in ([-0.1, 0.1], []):
            with pytest.raises(ValueError, match="sample times"):
                evolve(tg, 0.0, times)

    def test_default_step_is_horizon_over_64(self):
        # the horizon is the last sample time, 0.64, so the step cap is 0.01;
        # the CFL step 0.5 dx / max|u| of Taylor-Green on this grid is larger
        tg = taylor_green(Grid(2, 16, 1.0))
        traj = evolve(tg, 0.0, [0.64, 0.16])
        dt = traj.diagnostics["dt"]
        assert len(dt) == 64
        assert dt == pytest.approx(np.full(64, 0.01), rel=1e-12)

    @pytest.mark.parametrize("times", [[0.1], [0.05], [0.025, 0.05]], ids=str)
    def test_no_sliver_step_before_a_sample_time(self, times):
        # 64 additions of T/64 can fall short of T by an ulp or two; the
        # last step absorbs that shortfall, with no 65th step of ~1e-16
        w = taylor_green_two_mode(Grid(2, 64, 1.0))
        T = times[-1]
        d = evolve(w, 0.05, times).diagnostics
        assert len(d["dt"]) == 64
        assert d["dt"] == pytest.approx(np.full(64, T / 64), rel=1e-12)
        assert set(times) <= set(d["t"])

    def test_zero_step_diagnostics_are_aligned(self):
        # only t = 0 sampled: no step, so every per-step column is empty
        g = Grid(2, 16, 1.0)
        traj = evolve(taylor_green(g), 0.0, [0.0])
        d = traj.diagnostics
        assert [len(d[k]) for k in ("t", "dt", "energy", "max_speed")] == [0, 0, 0, 0]
        (inc,) = traj.increments
        assert inc.shape == g.slab_shape and not np.any(inc)

    def test_zero_data_stays_zero(self):
        g = Grid(2, 32, 1.0)
        zero = SpectralField(g, np.zeros((2,) + g.spectral_shape, dtype=complex))
        traj = evolve(zero, 0.1, [0.25, 0.5])
        for inc in traj.increments:
            assert inc.shape == g.slab_shape and not np.any(inc)

    @pytest.mark.parametrize(
        "dt", [0.0, -0.01, float("nan")], ids=["zero", "negative", "nan"]
    )
    def test_fixed_step_must_be_positive(self, dt):
        # a step that is not > 0 would never reach the sample time
        with pytest.raises(ValueError, match="fixed step"):
            evolve(taylor_green(Grid(2, 16, 1.0)), 0.0, [0.1], dt_fixed=dt)

    def test_taylor_green_viscous_decay(self):
        g = Grid(2, 64, 1.0)
        tg = taylor_green(g)
        traj = evolve(tg, 0.01, [1.0])
        decay = np.exp(-2.0 * 0.01)
        ref = SpectralField(g, decay * tg.coeffs)
        assert vf_rel_diff(traj.state_at(1.0), ref) <= 1e-6

    def test_taylor_green_ideal_steady(self):
        g = Grid(2, 64, 1.0)
        tg = taylor_green(g)
        traj = evolve(tg, 0.0, [1.0])
        assert vf_rel_diff(traj.state_at(1.0), tg) <= 1e-8

    def test_exact_hit_on_irregular_sample_times(self):
        g = Grid(2, 32, 1.0)
        tg = taylor_green(g)
        traj = evolve(tg, 0.01, [0.013, 0.071, 0.1])
        assert traj.times == (0.013, 0.071, 0.1)
        assert np.isclose(traj.diagnostics["t"], 0.013, atol=1e-15).any()

    def test_rejects_non_divergence_free_data(self, rng):
        g = Grid(2, 32, 1.0)
        V = gradient(spectral_of(g, rng.standard_normal(g.shape)))
        with pytest.raises(ValueError):
            evolve(V, 0.0, [0.1])

    def test_blowup_guard_trips(self):
        g = Grid(2, 32, 1.0)
        w = taylor_green_two_mode(g)
        with pytest.raises((SolverDivergenceError, NumericsError)):
            evolve(w, 0.0, [10.0], dt_fixed=0.8)

    def test_viscous_decay_at_a_large_heat_exponent(self):
        # eps * T * max|xi|^2 = 1 * 0.5 * 2048 on Grid(2, 64, 1): every
        # integrating factor is a decay, so none overflows
        g = Grid(2, 64, 1.0)
        tg = taylor_green(g)
        with np.errstate(over="raise", invalid="raise"):
            traj = evolve(tg, 1.0, [0.5])
        ref = SpectralField(g, np.exp(-2.0 * 0.5) * tg.coeffs)
        assert vf_rel_diff(traj.state_at(0.5), ref) <= 1e-6

    def test_envelopes_past_the_mask_exponent_evolve_cleanly(self):
        # the shell datum n = 3 at eps = 1 up to eps T max|xi|^2 = 699 on the
        # layout's mask, and above 700 on its other entries: no factor
        # overflows anywhere, and the energy only falls
        from invlab.experiments import ExperimentConfig, ExperimentContext

        u0 = ExperimentContext(ExperimentConfig()).box_datum(3)
        lay = u0.layout
        T = 699.0 / float(lay.k_sq[lay.mask].max())
        assert T * float(lay.k_sq.max()) > 700.0
        with np.errstate(all="raise", under="ignore"):
            traj = evolve(u0, 1.0, [T / 2.0, T])
        energy = traj.diagnostics["energy"]
        assert np.all(np.diff(energy) < 0.0)
        assert energy[0] < lay.l2(u0.coeffs)
        assert all(np.isfinite(inc).all() for inc in traj.increments)

    @pytest.mark.parametrize(
        "defect, entry",
        [
            (defect, entry)
            for defect in ("row", "column", "nan")
            for entry in ENTRY_POINTS
            # a field of the boxes has no entry outside the ball
            if defect == "nan" or not entry.endswith("envelopes")
        ],
        ids=lambda v: v,
    )
    def test_data_outside_the_ball_rejected(self, monkeypatch, entry, defect):
        # one 1e-300 coefficient just outside the 2/3 ball, on a mode whose
        # divergence it leaves exactly zero, or a NaN inside the ball (in a
        # box): the admission refuses the data before any right-hand side or
        # transform runs
        g = TG_GRID
        good = taylor_green(g)
        c = good.coeffs.copy()
        out = g.dealias_keep + 1
        if defect == "row":
            c[1, out, 0] = c[1, -out, 0] = 1e-300  # u2 at (+/-out, 0): xi2 = 0
        elif defect == "column":
            c[0, 0, out] = 1e-300  # u1 at (0, out): xi1 = 0
        else:
            c[0, 1, 1] = np.nan
        bad = SpectralField(g, c)
        refuse_work(monkeypatch, entry)
        if defect == "nan":
            with pytest.raises(NumericsError, match="non-finite"):
                ENTRY_POINTS[entry](bad, good)
        else:
            assert divergence_defect(bad) <= 1e-10
            with pytest.raises(ResolutionError, match="outside the 2/3-rule ball") as exc:
                ENTRY_POINTS[entry](bad, good)
            assert exc.value.required_n == 2 * g.N

    @pytest.mark.parametrize("entry", [e for e in ENTRY_POINTS if not e.startswith("advect")])
    def test_gradient_part_rejected(self, monkeypatch, entry):
        # a gradient part on the modes of the vortex (in the ball and in box
        # 0): the admission of each layout refuses it before any work
        g = TG_GRID
        good = taylor_green(g)
        phi = np.zeros(g.spectral_shape, dtype=np.complex128)
        phi[1, 1] = 1e-6
        bad = SpectralField(g, good.coeffs + gradient(SpectralField(g, phi)).coeffs)
        refuse_work(monkeypatch, entry)
        with pytest.raises(ValueError, match="not divergence-free"):
            ENTRY_POINTS[entry](bad, good)

    def test_mean_velocity_carried_bitwise(self):
        # Taylor-Green plus a constant flow U solves the system as the decaying
        # vortex translated by U t; the mean itself never changes
        g = Grid(2, 32, 1.0)
        mean = (0.3 * g.L**2, -0.2 * g.L**2)

        def with_mean(V, factor=1.0):
            arrays = factor * V.coeffs
            arrays[:, 0, 0] = mean
            return SpectralField(g, arrays)

        tg = taylor_green(g)
        u0 = with_mean(tg)
        eps, times = 0.01, (0.05, 0.1)
        traj = evolve(u0, eps, times)
        for t in times:
            state = traj.state_at(t)
            assert list(state.coeffs[:, 0, 0]) == list(mean)
            moved = translate(with_mean(tg, np.exp(-2.0 * eps * t)), (0.3 * t, -0.2 * t))
            assert vf_rel_diff(state, moved) <= 1e-12

    def test_energy_conservation_ideal(self):
        g = Grid(2, 64, 1.0)
        w = taylor_green_two_mode(g)
        traj = evolve(w, 0.0, [0.1])
        e0 = l2_norm_spectral(w)
        assert np.max(np.abs(traj.diagnostics["energy"] - e0)) <= 1e-7 * e0

    def test_energy_monotone_viscous(self):
        g = Grid(2, 64, 1.0)
        w = taylor_green_two_mode(g)
        traj = evolve(w, 0.05, [0.1])
        en = np.concatenate([[l2_norm_spectral(w)], traj.diagnostics["energy"]])
        assert np.max(np.diff(en)) <= 1e-12 * en[0]

    def test_divergence_preserved(self):
        g = Grid(2, 64, 1.0)
        w = taylor_green_two_mode(g)
        traj = evolve(w, 0.01, [0.1])
        assert len(traj.div_rel) == 1 and max(traj.div_rel) <= 1e-9

    def test_divergence_measured_on_each_sampled_state(self):
        # data with a gradient part of relative divergence near 1e-11, which
        # evolve admits (1e-10): the evolved increment is a Biot-Savart image,
        # divergence-free to rounding (about 1e-17 relative), so the defect
        # of each sampled state is that of the heat-flowed gradient part
        g = Grid(2, 64, 1.0)
        tg = taylor_green_two_mode(g)
        x1, x2 = g.x_1d[:, None], g.x_1d[None, :]
        phi = spectral_of(g, np.cos(x1 / g.R) * np.cos(2.0 * x2 / g.R))
        zero_outside_ball(phi.coeffs, g)  # the transform's rounding residue
        grad = gradient(phi)
        scale = 1e-11 / divergence_defect(grad) * l2_norm_spectral(tg) / l2_norm_spectral(grad)
        u0 = SpectralField(g, tg.coeffs + scale * grad.coeffs)
        assert 5e-12 <= divergence_defect(u0) <= 2e-11
        eps, times = 0.01, (0.05, 0.1)
        traj = evolve(u0, eps, times)
        assert len(traj.div_rel) == len(traj.times) == 2
        for t, d in zip(traj.times, traj.div_rel):
            flowed = SpectralField(g, heat_factor(g, t, eps) * (scale * grad.coeffs))
            expected = l2_norm_spectral(divergence(flowed)) / l2_norm_spectral(traj.state_at(t))
            assert d > 1e-12
            assert d == pytest.approx(expected, rel=1e-4)

    def test_self_convergence_order(self):
        g = Grid(2, 64, 1.0)
        w = taylor_green_two_mode(g)
        T = 0.5
        ref = evolve(w, 0.0, [T], dt_fixed=T / 512).state_at(T).coeffs
        sols = [evolve(w, 0.0, [T], dt_fixed=T / M).state_at(T).coeffs for M in (8, 16, 32, 64)]
        errs = [np.sqrt(np.sum(np.abs(sol - ref) ** 2)) for sol in sols[:3]]
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= 3.5
        # validate's estimate, from Cauchy differences d_M = |u_M - u_2M| of
        # the same runs.  With h = T/M and u_M = u* + C h^4 + D h^5 + O(h^6),
        # e_M = |C| h^4 (1 + k h) and d_M = (15/16) |C| h^4 (1 + (31/30) k h)
        # to first order (k = Re<C, D> / |C|^2).  Both orders are 4 + O(h),
        # and the Cauchy one's O(h) term is 31/30 of the reference one's, so
        # they differ by |order - 4| / 30: 3.3e-4 at this norm's order 4.0098,
        # 3.9e-4 measured with the O(h^2) terms.  The bound is |order - 4| / 10.
        diffs = [np.sqrt(np.sum(np.abs(a - b) ** 2)) for a, b in zip(sols, sols[1:])]
        cauchy = [np.log2(diffs[i] / diffs[i + 1]) for i in range(2)]
        assert abs(min(cauchy) - min(orders)) <= abs(min(orders) - 4.0) / 10


def recording_backend(monkeypatch):
    """Route spectral._fft through wrappers; return the list of passes, one
    ``(kind, axis, input shape, out)`` per transformed axis."""
    import invlab.spectral as spectral

    backend = spectral._fft
    passes = []

    def recorded(kind, fn):
        def call(a, *args, axes, out=None, **kwargs):
            for ax in axes:
                passes.append((kind, ax, np.shape(a), out))
            return fn(a, *args, axes=axes, out=out, **kwargs)

        return call

    monkeypatch.setattr(
        spectral,
        "_fft",
        types.SimpleNamespace(
            fftn=recorded("forward", backend.fftn),
            rfftn=recorded("forward", backend.rfftn),
            ifftn=recorded("inverse", backend.ifftn),
            irfftn=recorded("inverse", backend.irfftn),
        ),
    )
    return passes


class TestTransformCount:
    @pytest.mark.parametrize("eps", [0.0, 0.02], ids=["ideal", "viscous"])
    def test_transforms_per_evolution_and_step(self, monkeypatch, eps):
        # per RK4 step 4 vorticity right-hand sides, each one inverse of the
        # stack of w, u1 and u2 and one forward of the stack of u1 w and u2 w,
        # and stage 1's u1, u2 also give the CFL speed, on the first step the
        # blow-up guard's reference too: 4 forward and 4 inverse per step.
        # Each transform is a row pass (axis -1) and a column pass (axis -2),
        # the column pass over the keep + 1 columns of the 2/3 ball only.
        g = Grid(2, 32, 1.0)
        w = taylor_green_two_mode(g)
        passes = recording_backend(monkeypatch)
        traj = evolve(w, eps, [0.05, 0.1])
        steps = len(traj.diagnostics["dt"])
        assert steps == 64
        counts = {}
        for kind, ax, in_shape, _ in passes:
            counts[(kind, ax, in_shape)] = counts.get((kind, ax, in_shape), 0) + 1
        N, K = g.N, g.dealias_keep + 1
        assert counts == {
            ("inverse", -2, (3, N, K)): 4 * steps,
            ("inverse", -1, (3, N, K)): 4 * steps,
            ("forward", -1, (2, N, N)): 4 * steps,
            ("forward", -2, (2, N, K)): 4 * steps,
        }

    def test_stage_reuses_its_arrays(self, monkeypatch):
        # every pass writes into an array it is handed, the same arrays after
        # 8 steps as after 64: the samples of w, u1 and u2 (the inverse's row
        # pass), and the front of the row buffer, where the inverse's column
        # pass runs in place on the stacked slabs and the forward's row pass
        # writes, and whose leading columns take its column pass in place
        g = Grid(2, 32, 1.0)
        w = taylor_green_two_mode(g)
        passes = recording_backend(monkeypatch)
        traj = evolve(w, 0.0, [0.1])
        assert len(traj.diagnostics["dt"]) == 64
        assert all(p[3] is not None for p in passes)
        written = [p[3].__array_interface__["data"][0] for p in passes]
        per_step = 2 * (4 + 4)
        assert len(written) == 64 * per_step
        assert set(written[: 8 * per_step]) == set(written)
        assert len(set(written)) == 2


class TestVorticityRhs:
    def test_matches_full_spectrum_reference(self, grid, rng):
        # P(u . grad u) in velocity form from full complex numpy transforms,
        # on a random divergence-free field with a mean inside the 2/3 ball;
        # the Biot-Savart image of the vorticity form must give it back
        N, d, h = grid.N, grid.d, grid.spectral_shape[-1]
        m = np.fft.fftfreq(N, d=1.0 / N)
        inside = ball_mask(grid, full=True)
        xi = (m[:, None] / grid.R, m[None, :] / grid.R)
        k_sq = xi[0] ** 2 + xi[1] ** 2
        to_coeffs, to_samples = grid.dx**d, (N / grid.L) ** d
        psi = np.where(inside, np.fft.fftn(rng.standard_normal(grid.shape)) * to_coeffs, 0.0)
        u_full = [-1j * xi[1] * psi, 1j * xi[0] * psi]
        for c, mean in zip(u_full, (0.7, -1.3)):
            c[0, 0] = mean * grid.L**2
        u_phys = [np.fft.ifftn(c).real * to_samples for c in u_full]
        adv = []
        for ui in u_full:
            prod = sum(
                u_phys[j] * np.fft.ifftn(1j * xi[j] * ui).real * to_samples
                for j in range(d)
            )
            adv.append(np.where(inside, np.fft.fftn(prod) * to_coeffs, 0.0))
        div = (xi[0] * adv[0] + xi[1] * adv[1]) / np.where(k_sq > 0, k_sq, 1.0)
        expected = [a - x * div for a, x in zip(adv, xi)]
        for a, e in zip(expected, adv):
            a[0, 0] = e[0, 0]

        # the right-hand side of the slab, columns 0 .. keep, into an array
        # of the caller
        u = SpectralField(grid, np.stack([c[..., :h] for c in u_full]))
        K = grid.dealias_keep + 1
        r = np.zeros(grid.spectral_shape, dtype=np.complex128)
        work = RhsWork(grid)
        samples = vorticity_rhs(grid, curl(u).coeffs[:, :K], u.coeffs[:, 0, 0], work, r[:, :K])
        scale = max(np.max(np.abs(e)) for e in expected)
        for b, e in zip(grid.biot_savart, expected):
            assert np.max(np.abs(-b * r - e[..., :h])) <= 1e-13 * scale
        for a, e in zip(samples, u_phys):
            assert np.max(np.abs(a - e)) <= 1e-13 * np.max(np.abs(e))
        assert not np.any(r[~ball_mask(grid)])
        # the samples are views of the work object's arrays
        assert all(np.shares_memory(a, work.phys) for a in samples)

    @pytest.mark.parametrize("N", [32, 64, 256])
    def test_equals_per_component_reference_bitwise(self, N, rng):
        # the stacked transforms give each field the values of its own call,
        # and the arithmetic after them is the reference's, in its order
        g = Grid(2, N, 1.5)
        u = random_vector_field(g, rng, band=g.dealias_keep)
        mean = np.array([0.7, -1.3])
        w = curl(u).coeffs[g.slab].copy()
        out, ref = (np.full(g.slab_shape, np.nan + 0j) for _ in range(2))
        work = RhsWork(g)
        for _ in range(2):  # a second call on the same work arrays
            samples = vorticity_rhs(g, w, mean, work, out)
            expected = vorticity_rhs_reference(g, w, mean, ref)
            assert np.array_equal(out, ref)
            assert all(np.array_equal(a, e) for a, e in zip(samples, expected))
        assert np.any(out != 0.0)


def vorticity_rhs_reference(grid, w, mean, out):
    """``vorticity_rhs`` one field per transform: 3 inverse (w, u1, u2)
    and 2 forward (u1 w, u2 w) calls, each on its own arrays."""
    w_phys, u1, u2 = (np.empty(grid.shape) for _ in range(3))
    scratch = np.empty(grid.slab_shape, dtype=np.complex128)
    rows = np.empty(grid.spectral_shape, dtype=np.complex128)
    vel = rows[grid.slab]

    def velocity_slab(ax):
        np.multiply(grid.biot_savart[ax][grid.slab], w, out=vel)
        vel[0, 0] = mean[ax]
        return vel

    _inverse(w, grid, w_phys, scratch)
    _inverse(velocity_slab(0), grid, u1, scratch)
    _forward(np.multiply(u1, w_phys, out=u2), grid, out, rows)
    zero_outside_ball(out, grid)
    out *= -1j * grid.freq_axis(0)
    _inverse(velocity_slab(1), grid, u2, scratch)
    f = _forward(np.multiply(u2, w_phys, out=w_phys), grid, scratch, rows)
    zero_outside_ball(f, grid)
    f *= 1j * grid.freq_axis(1)[grid.slab]
    out -= f
    return u1, u2


class TestTrajectory:
    def test_increments_are_slabs(self):
        # each increment is the slab of a vorticity; increment_at is the
        # Biot-Savart image of the slab zero-padded to a half-spectrum, with
        # the mean set to 0
        g = Grid(2, 32, 1.0)
        traj = evolve(taylor_green_two_mode(g), 0.01, [0.05, 0.1])
        for t, w_inc in zip(traj.times, traj.increments):
            assert w_inc.shape == g.slab_shape
            padded = np.zeros(g.spectral_shape, dtype=complex)
            padded[:, : g.dealias_keep + 1] = w_inc
            expected = g.biot_savart * padded
            expected[:, 0, 0] = 0.0
            assert np.array_equal(traj.increment_at(t).coeffs, expected)

    def test_state_lookup(self):
        # increment_at builds the Biot-Savart image of the slab vorticity, a
        # velocity of zero mean, anew on every call
        g = Grid(2, 32, 1.0)
        w = taylor_green_two_mode(g)
        traj = evolve(w, 0.01, [0.05, 0.1])
        w_inc = traj.increments[0]
        inc = traj.increment_at(0.05)
        assert inc is not traj.increment_at(0.05)
        assert inc.coeffs.shape == (2,) + g.spectral_shape
        assert not np.any(inc.coeffs[:, 0, 0])
        scale = np.max(np.abs(w_inc))
        assert scale > 0.0
        assert np.max(np.abs(curl(inc).coeffs - _embed(w_inc, g))) <= 1e-13 * scale
        factor = heat_factor(g, 0.05, 0.01)
        for a, b, c in zip(traj.state_at(0.05).coeffs, w.coeffs, inc.coeffs):
            assert np.array_equal(a, factor * b + c)
            # the data lie in the 2/3 ball exactly, and so does the state
            assert not np.any(b[~ball_mask(g)])
            assert not np.any(a[~ball_mask(g)])
        with pytest.raises(ValueError):
            traj.increment_at(0.07)
        with pytest.raises(ValueError):
            traj.state_at(0.07)

    def test_invariant_enforced_at_construction(self, rng):
        # an increment must be a vorticity on the slab of the grid of u0: a
        # stacked velocity slab, a whole half-spectrum, a slab of another
        # grid or a field is rejected; and the state must be
        # divergence-free, which data with a gradient part are not
        g = Grid(2, 32, 1.0)
        tg = taylor_green(g)
        diagnostics = {"energy": np.array([1.0])}
        other = Grid(2, 64, 1.0)
        rejected = (
            np.zeros((2,) + g.slab_shape, dtype=complex),
            np.zeros(g.spectral_shape, dtype=complex),
            np.zeros(other.slab_shape, dtype=complex),
            SpectralField(g, np.zeros(g.spectral_shape, dtype=complex)),
        )
        for inc in rejected:
            with pytest.raises(ValueError, match="vorticity"):
                Trajectory(
                    times=(0.0,), increments=(inc,), eps=0.0, u0=tg, diagnostics=diagnostics
                )
        bad = gradient(spectral_of(g, rng.standard_normal(g.shape)))
        zero = np.zeros(g.slab_shape, dtype=complex)
        with pytest.raises(NumericsError):
            Trajectory(
                times=(0.0,),
                increments=(zero,),
                eps=0.0,
                u0=SpectralField(g, tg.coeffs + bad.coeffs),
                diagnostics=diagnostics,
            )

    def test_invariant_checked_on_the_state(self, rng):
        # the Biot-Savart image of any vorticity is divergence-free to
        # rounding, so a random increment of the size of the data's
        # vorticity leaves the state clean; the check on the state is then
        # decided by the data: a gradient part of relative size 1e-8 (a
        # defect above 1e-9) fails it, one of 1e-12 passes
        g = Grid(2, 64, 1.0)
        tg = taylor_green(g)
        diagnostics = {"energy": np.array([1.0])}
        noise = spectral_of(g, rng.standard_normal(g.shape))
        scale = l2_norm_spectral(curl(tg)) / l2_norm_spectral(noise)
        w_inc = scale * noise.coeffs[g.slab]
        traj = Trajectory(
            times=(0.0,), increments=(w_inc,), eps=0.0, u0=tg, diagnostics=diagnostics
        )
        assert divergence_defect(traj.increment_at(0.0)) <= 1e-12
        assert divergence_defect(traj.state_at(0.0)) <= 1e-12
        grad = gradient(spectral_of(g, rng.standard_normal(g.shape)))
        unit = l2_norm_spectral(tg) / l2_norm_spectral(grad)
        zero = np.zeros(g.slab_shape, dtype=complex)
        for size, clean in ((1e-8, False), (1e-12, True)):
            u0 = SpectralField(g, tg.coeffs + (size * unit) * grad.coeffs)
            assert (divergence_defect(u0) <= 1e-9) == clean
            if clean:
                Trajectory(
                    times=(0.0,), increments=(zero,), eps=0.0, u0=u0, diagnostics=diagnostics
                )
            else:
                with pytest.raises(NumericsError):
                    Trajectory(
                        times=(0.0,), increments=(zero,), eps=0.0, u0=u0,
                        diagnostics=diagnostics,
                    )


class TestTrajectoryGap:
    def test_matches_difference_of_states(self):
        g = Grid(2, 64, 1.0)
        w = taylor_green_two_mode(g)
        a = evolve(w, 0.02, [0.05, 0.1])
        b = evolve(w, 0.0, [0.05, 0.1])
        for t in (0.05, 0.1):
            direct = SpectralField(g, a.state_at(t).coeffs - b.state_at(t).coeffs)
            gap = trajectory_gap(a, b, t)
            assert vf_rel_diff(gap, direct) <= 1e-12
            assert np.array_equal(-gap.coeffs, trajectory_gap(b, a, t).coeffs)
            assert l2_norm_spectral(trajectory_gap(a, a, t)) == 0.0

    def test_different_data_rejected(self):
        g = Grid(2, 32, 1.0)
        a = evolve(taylor_green(g), 0.01, [0.1])
        b = evolve(taylor_green_two_mode(g), 0.0, [0.1])
        with pytest.raises(ValueError, match="different initial data"):
            trajectory_gap(a, b, 0.1)

    def test_same_data_object_not_compared(self):
        # one u0 object is one datum: no pass over its coefficients
        class Untouchable:
            @property
            def coeffs(self):
                raise AssertionError("the coefficients were compared")

        u0 = Untouchable()
        run = types.SimpleNamespace(layout=None, u0=u0)
        _check_same_run(run, types.SimpleNamespace(**vars(run)))


class TestFirstOrderApproximants:
    def test_u1_identity_cases(self, shell_setup):
        # a new field, as every public operation returns, with the values of u0
        bp, g, u0 = shell_setup
        for t, eps in ((0.0, 0.3), (0.3, 0.0)):
            out = heat_propagate(u0, t, eps)
            assert out is not u0 and out.coeffs is not u0.coeffs
            assert np.array_equal(out.coeffs, u0.coeffs)

    def test_u1_matches_heat_factor(self, shell_setup):
        bp, g, u0 = shell_setup
        out = heat_propagate(u0, 0.02, 2.0**-6)
        factor = heat_factor(g, 0.02, 2.0**-6)
        assert np.array_equal(out.coeffs, factor * u0.coeffs)

    def test_u2_zero_time(self, shell_setup):
        bp, g, u0 = shell_setup
        out = list(u2_duhamel(u0, [0.0, 0.005, 0.0], 2.0**-6))
        assert len(out) == 3
        assert l2_norm_spectral(out[0]) == l2_norm_spectral(out[2]) == 0.0
        assert l2_norm_spectral(out[1]) > 0.0

    def test_u2_node_validation(self, shell_setup):
        bp, g, u0 = shell_setup
        with pytest.raises(ValueError):
            u2_duhamel(u0, [0.01], 0.0, nodes=8)
        with pytest.raises(ValueError):
            u2_duhamel(u0, [0.01, 0.02], 0.0, nodes=7)
        with pytest.raises(ValueError, match="non-negative"):
            u2_duhamel(u0, [0.01, -0.02], 0.0)

    def test_u2_ideal_case_closed_form(self, shell_setup):
        # with eps = 0 the integrand is constant: u2 = -t P(u0.grad u0)
        bp, g, u0 = shell_setup
        ref = leray_project(advect(u0, u0))
        times = [0.03, 0.01]
        for t, out in zip(times, u2_duhamel(u0, times, 0.0)):
            scale = np.max(np.abs(ref.coeffs)) * t
            diff = np.max(np.abs(out.coeffs + t * ref.coeffs))
            assert diff <= 1e-10 * scale

    def test_u2_quadrature_refinement(self, shell_setup):
        bp, g, u0 = shell_setup
        eps = 2.0**-6
        times = [0.02, 0.04]
        for a, b in zip(
            u2_duhamel(u0, times, eps, nodes=17), u2_duhamel(u0, times, eps, nodes=33)
        ):
            assert vf_rel_diff(a, b) <= 1e-8

    def test_u2_refinement_failure_raises(self, shell_setup, monkeypatch):
        import invlab.solvers as solvers

        bp, g, u0 = shell_setup
        monkeypatch.setattr(solvers, "REFINE_TOL", 1e-30)
        with pytest.raises(QuadratureError):
            u2_duhamel(u0, [0.02], 2.0**-6, nodes=9, refine=True)

    def test_u2_refinement_failure_at_one_of_several_times(self, shell_setup, monkeypatch):
        # a tolerance between the relative changes of the two times: the
        # check of the later time alone trips, and the error names it
        import invlab.solvers as solvers

        bp, g, u0 = shell_setup
        times, eps = [0.005, 0.08], 2.0**-6
        small, large = (u2_reference(u0, t, eps, 9, refine=True)[1] for t in times)
        assert 0.0 < small < 1e-3 * large
        monkeypatch.setattr(solvers, "REFINE_TOL", np.sqrt(small * large))
        with pytest.raises(QuadratureError, match="at t=0.08"):
            u2_duhamel(u0, times, eps, nodes=9, refine=True)
        monkeypatch.setattr(solvers, "REFINE_TOL", 2.0 * large)
        assert len(list(u2_duhamel(u0, times, eps, nodes=9, refine=True))) == 2

    def test_u2_non_finite_integrand_raises(self, monkeypatch):
        # a NaN in the integrand at one node makes the refinement change NaN,
        # which no comparison with REFINE_TOL can trip
        import invlab.solvers as solvers

        g = Grid(2, 64, 1.0)
        u0 = taylor_green_two_mode(g)
        calls = []
        take = threading.Lock()

        def poisoned(g, w, mean, work, out):
            samples = vorticity_rhs(g, w, mean, work, out)
            with take:
                calls.append(None)
                n = len(calls)
            if n == 2:
                out[1, 1] = np.nan
            return samples

        monkeypatch.setattr(solvers, "vorticity_rhs", poisoned)
        with pytest.raises(NumericsError, match="non-finite"):
            u2_duhamel(u0, [0.05, 0.1], 2.0**-6, refine=True)


def u2_reference(u0, t, eps, nodes=17, refine=False):
    """The per-time Simpson loop that ``u2_duhamel``'s sweep replaced.

    Returns ``u2`` at ``t`` and, with ``refine`` set, the relative change of
    the ``nodes``-point sum against the doubled one (0.0 without).
    """
    g = u0.grid
    fine_nodes = 2 * (nodes - 1) + 1 if refine else nodes

    def weights(n):
        h = t / (n - 1)
        w = np.full(n, 2.0)
        w[1::2] = 4.0
        w[0] = w[-1] = 1.0
        return w * (h / 3.0)

    w, w_coarse = weights(fine_nodes), weights(nodes)
    w0, mean = curl(u0).coeffs, u0.coeffs[:, 0, 0]
    acc = np.zeros(g.spectral_shape, dtype=np.complex128)
    coarse = np.zeros_like(acc)
    for i, (wi, tau) in enumerate(zip(w, np.linspace(0.0, t, fine_nodes))):
        term = full_rhs(g, heat_factor(g, tau, eps) * w0, mean)
        term *= heat_factor(g, t - tau, eps)
        acc += wi * term
        if refine and i % 2 == 0:
            coarse += w_coarse[i // 2] * term
    u2 = SpectralField(g, g.biot_savart * acc)
    if not refine:
        return u2, 0.0
    diff = l2_norm_spectral(SpectralField(g, g.biot_savart * (coarse - acc)))
    return u2, diff / l2_norm_spectral(u2)


@pytest.fixture(scope="module")
def ball_datum():
    """A random divergence-free field of zero mean, band-limited inside the 2/3 ball."""
    g = Grid(2, 64, 1.0)
    rng = np.random.default_rng(16)
    psi = spectral_of(g, rng.standard_normal(g.shape)).coeffs
    psi = np.where(ball_mask(g, band=8), psi, 0.0)
    return perp_gradient(SpectralField(g, psi / np.max(np.abs(psi))))


@pytest.fixture(scope="module")
def sweep_references(ball_datum):
    """``u2_reference`` at each time of DEFAULT_T_GRID, by (refine, eps)."""
    return {
        (refine, eps): [u2_reference(ball_datum, t, eps, refine=refine)[0] for t in DEFAULT_T_GRID]
        for refine in (True, False)
        for eps in (2.0**-6, 0.0)
    }


def counting_rhs(monkeypatch, fail_at=None):
    """Record each vorticity_rhs call of the solvers module; raise on call ``fail_at``."""
    import invlab.solvers as solvers

    calls = []
    take = threading.Lock()

    def counted(*args):
        with take:
            calls.append(threading.get_ident())
            n = len(calls)
        if n == fail_at:
            raise FloatingPointError("injected")
        return vorticity_rhs(*args)

    monkeypatch.setattr(solvers, "vorticity_rhs", counted)
    return calls


class TestDuhamelSweep:
    """``u2_duhamel`` evaluates each distinct node once for all sample times."""

    @pytest.mark.parametrize("eps", [2.0**-6, 0.0], ids=["viscous", "ideal"])
    @pytest.mark.parametrize(
        "refine, distinct", [(True, 120), (False, 60)], ids=["strict", "relaxed"]
    )
    def test_equals_per_time_loop(
        self, ball_datum, sweep_references, monkeypatch, refine, distinct, eps
    ):
        # of 6 * 33 (strict) or 6 * 17 (relaxed) nodes of the default t_grid,
        # 120 and 60 are distinct: each is evaluated once, and each time's
        # field is the per-time loop's, bitwise
        calls = counting_rhs(monkeypatch)
        out = list(u2_duhamel(ball_datum, DEFAULT_T_GRID, eps, refine=refine))
        assert len(calls) == distinct
        refs = sweep_references[(refine, eps)]
        assert len(out) == len(refs) == len(DEFAULT_T_GRID)
        for a, b in zip(out, refs):
            assert np.array_equal(a.coeffs, b.coeffs)
            assert l2_norm_spectral(a) > 0.0

    def test_first_order_remainders_one_sweep(self, ball_datum, monkeypatch):
        # one evaluation for pa0 and 120 for the strict sweep of the six times
        u0, eps = ball_datum, 2.0**-6
        traj0, traj_eps = (evolve(u0, e, DEFAULT_T_GRID) for e in (0.0, eps))
        calls = counting_rhs(monkeypatch)
        rems = first_order_remainders(traj0, traj_eps, DEFAULT_T_GRID, refine=True)
        assert len(calls) == 1 + 120
        assert len(list(rems)) == len(DEFAULT_T_GRID)
        assert len(calls) == 1 + 120

    def test_rejected_inputs_leave_no_thread(self, ball_datum, monkeypatch):
        import invlab.solvers as solvers

        u0, eps = ball_datum, 2.0**-6
        g = u0.grid
        c = u0.coeffs.copy()
        c[0, 0, g.dealias_keep + 1] = 1e-300  # u1 at (0, keep + 1): xi1 = 0
        outside = SpectralField(g, c)
        before = threading.active_count()
        _, err = bounded(lambda: u2_duhamel(outside, DEFAULT_T_GRID, eps))
        assert isinstance(err, ResolutionError) and "outside the 2/3-rule ball" in str(err)
        assert threading.active_count() == before

        monkeypatch.setattr(solvers, "REFINE_TOL", 1e-30)
        _, err = bounded(lambda: u2_duhamel(u0, DEFAULT_T_GRID, eps, refine=True))
        assert isinstance(err, QuadratureError)
        assert threading.active_count() == before
        monkeypatch.setattr(solvers, "REFINE_TOL", REFINE_TOL)

        # a failing node: the sweep runs in node order on the thread that
        # calls it, so exactly the four evaluations up to the failing one
        # ran, and its error is the one raised
        calls = counting_rhs(monkeypatch, fail_at=4)
        _, err = bounded(lambda: u2_duhamel(u0, DEFAULT_T_GRID, eps, refine=True))
        assert isinstance(err, FloatingPointError)
        assert len(calls) == 4 and len(set(calls)) == 1
        assert threading.active_count() == before


def remainder_norms(traj0, traj_eps, times, bp):
    """Besov norms of the four remainder fields at each time, by field."""
    out = {}
    for rem in first_order_remainders(traj0, traj_eps, times):
        for name in rem._fields:
            out.setdefault(name, []).append(besov_norm(getattr(rem, name), bp))
    return out


@pytest.fixture(scope="module")
def shell_remainders(shell_setup, shell_trajectories):
    bp = shell_setup[0]
    times, eps, traj0, traj_eps = shell_trajectories
    return remainder_norms(traj0, traj_eps, times, bp)


class TestExpansionResiduals:
    def test_zero_time_residuals(self, shell_setup):
        # sampling only t = 0 takes no step, so the data pass through evolve
        bp, g, u0 = shell_setup
        traj0 = evolve(u0, 0.0, [0.0])
        traj_eps = evolve(u0, 2.0**-6, [0.0])
        norms = remainder_norms(traj0, traj_eps, [0.0], bp)
        assert set(norms) == {"euler", "navier_stokes", "drift", "heat_defect"}
        for name, (value,) in norms.items():
            assert value <= 1e-14, name

    def test_quadratic_decay_rates(self, shell_trajectories, shell_remainders):
        times = shell_trajectories[0]
        for name, vals in shell_remainders.items():
            slope = np.polyfit(np.log(times), np.log(vals), 1)[0]
            if name in ("euler", "navier_stokes"):
                assert 1.8 <= slope <= 2.3, name
            else:
                assert slope >= 1.8, name

    def test_fields_are_the_expansion_expressions_built_on_read(self, shell_trajectories):
        # each field is bitwise the expression of the first_order_remainders
        # docstring
        from invlab.solvers import _velocity

        times, eps, traj0, traj_eps = shell_trajectories
        t = times[1]
        u0 = traj0.u0
        g = u0.grid
        (rem,) = first_order_remainders(traj0, traj_eps, [t])
        (u2,) = u2_duhamel(u0, [t], eps)
        pa0 = -_velocity(g, full_rhs(g, curl(u0).coeffs, u0.coeffs[:, 0, 0])[g.slab])
        lin = heat_integral_multiplier(g.k_sq, t, eps)
        expected = {
            "euler": traj0.increment_at(t).coeffs + t * pa0,
            "navier_stokes": traj_eps.increment_at(t).coeffs - u2.coeffs,
            "drift": -u2.coeffs - lin * pa0,
            "heat_defect": (lin - t) * pa0,
        }
        assert rem._fields == tuple(expected)
        for name, ref in expected.items():
            assert np.array_equal(getattr(rem, name).coeffs, ref), name

    def test_wrong_viscosity_rejected(self, shell_trajectories):
        times, eps, traj0, traj_eps = shell_trajectories
        with pytest.raises(ValueError, match="ideal"):
            first_order_remainders(traj_eps, traj_eps, times)

    def test_mismatched_data_rejected(self, shell_setup, shell_trajectories):
        bp, g, u0 = shell_setup
        times, eps, traj0, traj_eps = shell_trajectories
        foreign = Trajectory(
            times=traj_eps.times,
            increments=traj_eps.increments,
            eps=traj_eps.eps,
            u0=SpectralField(g, 2.0 * u0.coeffs),
            diagnostics=traj_eps.diagnostics,
        )
        with pytest.raises(ValueError, match="different initial data"):
            first_order_remainders(traj0, foreign, times)

    def test_smallest_t_remainders_independent_of_step(self, shell_setup):
        # the Euler and NS remainders at t = 0.005 are about 1e-16 of |u0|;
        # formed from the increments they carry no rounding of |u0|, so 8
        # and 32 RK4 steps give the same norms
        bp, g, u0 = shell_setup
        t, eps = 0.005, 2.0**-6
        norms = []
        for steps in (8, 32):
            traj0, traj_eps = (
                evolve(u0, e, [t], dt_fixed=t / steps)
                for e in (0.0, eps)
            )
            assert len(traj_eps.diagnostics["dt"]) == steps
            (rem,) = first_order_remainders(traj0, traj_eps, [t])
            norms.append([besov_norm(rem.euler, bp), besov_norm(rem.navier_stokes, bp)])
        for coarse, fine in zip(*norms):
            assert coarse == pytest.approx(fine, rel=1e-8)

    def test_times_as_a_generator(self, shell_setup, shell_trajectories, shell_remainders):
        # the times are read once, before the sweep
        bp = shell_setup[0]
        times, eps, traj0, traj_eps = shell_trajectories
        again = remainder_norms(traj0, traj_eps, (t for t in times), bp)
        assert again == shell_remainders

    def test_replayed_datum_outside_the_ball_rejected(self, shell_trajectories, monkeypatch):
        # trajectories rebuilt around a datum with a 1e-300 coefficient just
        # outside the 2/3 ball: the admission of the sweep refuses it before
        # any right-hand side runs
        import invlab.solvers as solvers

        times, eps, traj0, traj_eps = shell_trajectories
        g = traj0.u0.grid
        c = traj0.u0.coeffs.copy()
        out = g.dealias_keep + 1
        c[1, out, 0] = c[1, -out, 0] = 1e-300
        bad = SpectralField(g, c)
        replays = [
            Trajectory(times=traj.times, increments=traj.increments, eps=traj.eps, u0=bad,
                       diagnostics=traj.diagnostics)
            for traj in (traj0, traj_eps)
        ]

        def no_rhs(*args, **kwargs):
            raise AssertionError("a right-hand side ran")

        monkeypatch.setattr(solvers, "vorticity_rhs", no_rhs)
        with pytest.raises(ResolutionError, match="outside the 2/3-rule ball") as exc:
            first_order_remainders(*replays, times)
        assert exc.value.required_n == 2 * g.N

    def test_replay_from_stored_snapshot(
        self, shell_setup, shell_trajectories, shell_remainders, tmp_path
    ):
        from invlab.io import read_field, write_field

        bp, g, u0 = shell_setup
        times, eps, traj0, traj_eps = shell_trajectories
        t = times[2]
        write_field(tmp_path / "u0.spf", u0)
        u0b = read_field(tmp_path / "u0.spf")
        replays = []
        for i, traj in enumerate((traj0, traj_eps)):
            # the stored vorticity increment at t, a slab, written as a scalar field
            inc = traj.increments[traj.times.index(t)]
            write_field(tmp_path / f"increment{i}.spf", SpectralField(g, _embed(inc, g)))
            inc = read_field(tmp_path / f"increment{i}.spf").coeffs[g.slab]
            replays.append(
                Trajectory(
                    times=(t,),
                    increments=(inc,),
                    eps=traj.eps,
                    u0=u0b,
                    diagnostics={"energy": traj.diagnostics["energy"]},
                )
            )
        again = remainder_norms(*replays, [t], bp)
        for name, (value,) in again.items():
            assert value == pytest.approx(shell_remainders[name][2], rel=1e-12), name


# ---------------------------------------------------------------------------
# harmonic envelopes


def shell_envelopes(n, N):
    """The shell datum n on Grid(2, N, 12), a half-spectrum, and its
    envelope layout."""
    from invlab.constructions import shell_layout

    g = Grid(2, N, 12.0)
    u0 = shell_velocity(ShellDatum(n, BesovParams(3.0, 2.0, 2.0, 2)), g)
    return u0, shell_layout(n, g)


def in_boxes(layout):
    """The entries of the slab of the layout's grid that lie in its boxes."""
    return layout.slab(layout.mask.astype(complex)) != 0


@pytest.fixture(scope="module")
def envelope_datum():
    return shell_envelopes(3, 512)


class TestEnvelopes:
    def test_layout_of_the_shell_grids(self):
        # boxes of W = 5 b = 10 on an M = 32 grid; one harmonic meets the
        # ball of each datum grid, two meet the ball of N = 1024 at n = 3
        # (2 c = 272 + 10 <= keep = 341)
        for n, N, H in ((3, 512, 1), (4, 1024, 1), (5, 2048, 1), (3, 1024, 2)):
            lay = shell_envelopes(n, N)[1]
            assert (lay.width, lay.M, lay.H) == (10, 32, H)
            assert lay.mask.sum() == (H + 1) * 21**2

    @pytest.mark.parametrize(
        "n, N, evolved",
        [(3, 512, False), (3, 512, True), (3, 1024, False)],
        ids=["datum", "evolved", "two-harmonics"],
    )
    def test_rhs_matches_vorticity_rhs_in_the_boxes(self, n, N, evolved):
        # the envelope right-hand side, scattered to the slab, is the ball's
        # inside the boxes to rounding (1.5-1.7e-14 of the peak measured at
        # H = 1) and exactly 0 outside them
        u0, lay = shell_envelopes(n, N)
        if evolved:
            u0 = evolve(gathered(lay, u0), 2.0**-6, [0.04]).state_at(0.04).spectral()
        g = u0.grid
        w, mean = lay.data(gathered(lay, u0))
        out = np.empty_like(w)
        lay.rhs(w, mean, lay.work(), out)
        got = lay.slab(out)
        ref = np.empty(g.slab_shape, dtype=np.complex128)
        vorticity_rhs(g, curl(u0).coeffs[g.slab], mean, RhsWork(g), ref)
        boxes = in_boxes(lay)
        peak = np.max(np.abs(ref))
        assert np.max(np.abs(got - ref)[boxes]) <= 1e-13 * peak
        assert not np.any(got[~boxes])

    @pytest.mark.parametrize("evolved", [False, True], ids=["datum", "evolved"])
    def test_data_is_the_gathered_curl(self, envelope_datum, evolved):
        # the vorticity taken on the boxes with the layout's multipliers has
        # the values of the half-spectrum's curl read at the entries, bit for
        # bit (a zero may differ in sign)
        u0, lay = envelope_datum
        if evolved:
            u0 = evolve(gathered(lay, u0), 2.0**-6, [0.04]).state_at(0.04).spectral()
        w, mean = lay.data(gathered(lay, u0))
        vorticity = curl(u0).coeffs
        pair = gathered(lay, SpectralField(u0.grid, np.stack((vorticity, vorticity))))
        assert np.array_equal(w, pair.coeffs[0])
        assert np.array_equal(mean, u0.coeffs[:, 0, 0])

    def test_evolution_matches_the_ball(self, envelope_datum, shell_trajectories):
        # the increments of one Galerkin system in two layouts: 1.5-7.4e-15
        # relative in L2 measured at n = 3
        u0, lay = envelope_datum
        times, eps, traj0, traj_eps = shell_trajectories
        for ball in (traj0, traj_eps):
            env = evolve(gathered(lay, u0), ball.eps, times)
            assert env.layout == lay and ball.layout == Ball(u0.grid)
            assert np.array_equal(env.diagnostics["dt"], ball.diagnostics["dt"])
            for t in times:
                assert vf_rel_diff(env.increment_at(t).spectral(), ball.increment_at(t)) <= 1e-13
            assert len(env.diagnostics["ring_share"]) == len(times)
            assert max(env.diagnostics["ring_share"]) <= RING_TOL
            assert len(ball.diagnostics["ring_share"]) == 0

    def test_duhamel_sums_match_the_ball(self, envelope_datum):
        u0, lay = envelope_datum
        times, eps = (0.01, 0.02), 2.0**-6
        ball = u2_duhamel(u0, times, eps, nodes=9)
        for a, b in zip(u2_duhamel(gathered(lay, u0), times, eps, nodes=9), ball):
            assert vf_rel_diff(a.spectral(), b) <= 1e-13

    def test_sweep_runs_on_the_calling_thread(self, envelope_datum, monkeypatch):
        # the strict sweep of the default times starts no thread: each of its
        # 120 right-hand sides runs on the caller's
        u0, lay = envelope_datum
        seen, rhs = [], Envelopes.rhs

        def recorded(self, *args):
            seen.append(threading.get_ident())
            return rhs(self, *args)

        monkeypatch.setattr(Envelopes, "rhs", recorded)
        started = thread_starts(monkeypatch)
        out = list(u2_duhamel(gathered(lay, u0), DEFAULT_T_GRID, 2.0**-6, refine=True))
        assert len(out) == len(DEFAULT_T_GRID)
        assert seen == [threading.get_ident()] * 120
        assert started == []

    def test_remainders_need_one_layout(self, envelope_datum, shell_trajectories):
        u0, lay = envelope_datum
        times, eps, traj0, _ = shell_trajectories
        env = evolve(gathered(lay, u0), eps, times)
        with pytest.raises(ValueError, match="different layouts"):
            first_order_remainders(traj0, env, times)
        with pytest.raises(ValueError, match="different layouts"):
            trajectory_gap(env, traj0, times[0])

    def test_carrier_must_exceed_three_widths(self):
        # at c <= 3W a product of two envelopes reaches a neighbouring box
        g = Grid(2, 512, 12.0)
        with pytest.raises(ResolutionError, match="not above 3W = 30"):
            Envelopes(g, 30, 10, 2)
        assert Envelopes(g, 31, 10, 2).H == 5

    @pytest.mark.parametrize("entry", ["evolve", "u2_duhamel"])
    @pytest.mark.parametrize("bad", ["nan", "divergent", "off-mask"])
    def test_box_data_admitted_on_the_entries(self, envelope_datum, monkeypatch, entry, bad):
        # a field of the boxes is the layout's data: the datum born there
        # runs, and one with a NaN entry, a divergence defect above 1e-10 or
        # a nonzero entry off the mask is refused before any right-hand side
        from invlab.constructions import shell_box_velocity

        lay = envelope_datum[1]
        run = {
            "evolve": lambda u: evolve(u, 0.0, [0.01]),
            "u2_duhamel": lambda u: list(u2_duhamel(u, [0.01], 0.0)),
        }[entry]
        good = shell_box_velocity(ShellDatum(3, BesovParams(3.0, 2.0, 2.0, 2)), lay.grid)
        coeffs = good.coeffs.copy()
        peak = np.max(np.abs(coeffs))
        # the mode (c, 0): xi is along the first axis, so a first component
        # there is a pure divergence, about 1e-6 of the field
        coeffs[0, 1, 0, 0] = np.nan if bad == "nan" else 1e-6 * peak
        if bad == "off-mask":  # offset m_1 = -M/2, beyond the half-width W
            coeffs[0, 1, 0, 0] = 0.0
            coeffs[0, 1, lay.M // 2, 0] = 1e-300
        field = BoxField(lay, coeffs)
        if bad == "divergent":
            assert lay.divergence_defect(field) > 1e-10

        def no_work(*args, **kwargs):
            raise AssertionError("a right-hand side ran")

        with monkeypatch.context() as m:
            m.setattr(Envelopes, "rhs", no_work)
            refusal = {"nan": NumericsError, "divergent": ValueError, "off-mask": ResolutionError}
            with pytest.raises(refusal[bad]):
                run(field)
        assert run(good)

    def test_box_data_evolve_in_their_own_layout(self, envelope_datum):
        # the datum born on the boxes runs as the half-spectrum datum read at
        # the entries does, bit for bit
        from invlab.constructions import shell_box_velocity

        u0, lay = envelope_datum
        box = shell_box_velocity(ShellDatum(3, BesovParams(3.0, 2.0, 2.0, 2)), lay.grid)
        traj = evolve(box, 2.0**-6, [0.01])
        ref = evolve(gathered(lay, u0), 2.0**-6, [0.01])
        assert traj.layout == lay and traj.u0 is box
        assert np.array_equal(traj.u0.coeffs, ref.u0.coeffs)
        assert np.array_equal(traj.increments[0], ref.increments[0])

    @pytest.mark.parametrize("share", [1e-12, 1e-15])
    def test_ring_guard(self, envelope_datum, share):
        # vorticity in the outer ring |m|_inf > W - b of box 1 at a share
        # above RING_TOL raises at the sample time, naming the envelope grid
        # of twice the width; below it, the share is reported
        u0, lay = envelope_datum
        g = u0.grid
        psi = np.zeros(g.spectral_shape, dtype=np.complex128)
        psi[lay.carrier, lay.width] = 1.0
        ring = perp_gradient(SpectralField(g, psi)).coeffs
        scale = share * l2_norm_spectral(curl(u0)) / l2_norm_spectral(curl(SpectralField(g, ring)))
        u = gathered(lay, SpectralField(g, u0.coeffs + scale * ring))
        if share > 1e-14:
            with pytest.raises(ResolutionError, match="M = 64"):
                evolve(u, 0.0, [0.0, 0.01])
        else:
            traj = evolve(u, 0.0, [0.0])
            assert traj.diagnostics["ring_share"][0] == pytest.approx(share, rel=1e-6)


class TestEnvelopeTransformCount:
    def test_transforms_per_evolution_and_step(self, envelope_datum, monkeypatch):
        # per RK4 step 4 right-hand sides, each one inverse call on the samples of w, u1
        # and u2 and one forward call on the two products, per harmonic: no
        # transform of the N = 512 grid
        u0, lay = envelope_datum
        passes = recording_backend(monkeypatch)
        traj = evolve(gathered(lay, u0), 2.0**-6, [0.04, 0.08])
        steps = len(traj.diagnostics["dt"])
        assert steps == 64
        shape = (lay.H + 1, lay.M, lay.M)
        counts = {}
        for kind, ax, in_shape, _ in passes:
            counts[(kind, ax, in_shape)] = counts.get((kind, ax, in_shape), 0) + 1
        assert counts == {
            ("inverse", -2, (3,) + shape): 4 * steps,
            ("inverse", -1, (3,) + shape): 4 * steps,
            ("forward", -2, (2,) + shape): 4 * steps,
            ("forward", -1, (2,) + shape): 4 * steps,
        }


# ---------------------------------------------------------------------------
# fields on the boxes


@pytest.fixture(scope="module", params=[(3, 512), (4, 1024)], ids=["n3", "n4"])
def envelope_pair(request):
    """The layout, sample times and ideal and viscous envelope runs of shell n."""
    n, N = request.param
    u0, lay = shell_envelopes(n, N)
    times = (0.01, 0.04)
    runs = [evolve(gathered(lay, u0), eps, times) for eps in (0.0, 2.0 ** (-2 * n))]
    return (lay, times, *runs)


def box_fields(lay, times, traj0, traj_eps):
    """The states, gaps and remainder fields of an envelope pair, by name."""
    out = {}
    for t in times:
        out[f"state0@{t}"] = traj0.state_at(t)
        out[f"state_eps@{t}"] = traj_eps.state_at(t)
        out[f"gap@{t}"] = trajectory_gap(traj_eps, traj0, t)
    for t, rem in zip(times, first_order_remainders(traj0, traj_eps, times, nodes=9)):
        for name in rem._fields:
            out[f"{name}@{t}"] = getattr(rem, name)
    return out


# The box and the half-spectrum sum the same non-negative terms, with the
# same weights, in another order.  numpy's pairwise summation bounds the
# relative error of a sum of K such terms by about (16 + log2(K / 128)) u,
# u = 2^-53 (its blocks of 128 terms are added 8 ways, 16 terms each): 21 u
# for the K <= 2 * 2 * 32^2 entries of the boxes and for the half-spectrum's
# boxes of the blocks alike.  A block norm is the root of such a sum, so the
# two differ by at most 21 u relative, as does the Besov norm, a weighted
# root-sum of squares of them; a divergence defect, a quotient of two L2
# norms, by at most twice that.  Measured: 2.5e-16 (2.3 u) and 3.4e-16.
BOX_BESOV_REL = 21 * 2.0**-53
BOX_DIV_REL = 42 * 2.0**-53


class TestBoxFields:
    def test_fields_of_the_layout(self, envelope_pair):
        lay, times, traj0, traj_eps = envelope_pair
        fields = box_fields(*envelope_pair)
        assert len(fields) == 7 * len(times)
        for name, F in fields.items():
            assert type(F) is BoxField and F.layout is lay, name
            assert F.coeffs.shape == (2, lay.H + 1, lay.M, lay.M)
            assert not np.any(F.coeffs[:, ~lay.mask]), name
        assert all(np.shape(inc) == lay.k_sq.shape for inc in traj0.increments)

    def test_norms_match_the_scattered_field(self, envelope_pair, bp):
        lay = envelope_pair[0]
        for name, F in box_fields(*envelope_pair).items():
            half = F.spectral()
            box, ref = besov_norm(F, bp), besov_norm(half, bp)
            assert abs(box - ref) <= BOX_BESOV_REL * ref, name
            box, ref = lay.divergence_defect(F), divergence_defect(half)
            assert abs(box - ref) <= BOX_DIV_REL * ref, name

    def test_exit_is_the_scattered_half_spectrum(self, envelope_pair):
        # the state on the half-spectrum is the heat flow of u0 plus the
        # ball's Biot-Savart image of the scattered increment
        lay, times, _, traj_eps = envelope_pair
        u0, g, t = traj_eps.u0.spectral(), lay.grid, times[-1]
        w = lay.slab(traj_eps.increments[-1])
        ref = heat_factor(g, t, traj_eps.eps) * u0.coeffs + Ball(g).velocity(w).coeffs
        assert np.array_equal(traj_eps.state_at(t).spectral().coeffs, ref)

    def test_truncation_warning_and_non_finite_errors(self, envelope_pair, bp, monkeypatch):
        # the box path warns and raises where the half-spectrum path does
        lay, times, _, traj_eps = envelope_pair
        F = traj_eps.state_at(times[-1])
        with monkeypatch.context() as m:
            m.setattr(DyadicPartition, "coverage_radius", property(lambda self: 0.0))
            for field in (F, F.spectral()):
                with pytest.warns(UserWarning, match="Besov blocks are truncated"):
                    besov_norm(field, bp)
        entry = tuple(ix[0] for ix in lay.direct[0])  # an entry the exit writes
        for bad, match in ((np.nan, "non-finite coefficient"), (1e300, "L\\^2 norm is non-finite")):
            coeffs = F.coeffs.copy()
            coeffs[(0,) + entry] = bad
            G = BoxField(lay, coeffs)
            for field in (G, G.spectral()):
                with np.errstate(over="ignore"), pytest.raises(NumericsError, match=match):
                    besov_norm(field, bp)

    def test_shape_checked(self, envelope_datum):
        from invlab.errors import ConfigError

        lay = envelope_datum[1]
        with pytest.raises(ConfigError, match="entries of the layout"):
            BoxField(lay, np.zeros(lay.k_sq.shape, dtype=complex))
