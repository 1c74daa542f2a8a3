import os
import sys
import threading
import time
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
from invlab.littlewood_paley import BesovParams, besov_norm
from invlab.solvers import (
    REFINE_TOL,
    RING_TOL,
    Ball,
    Envelopes,
    RhsWork,
    Trajectory,
    evolve,
    EXPONENT_LIMIT,
    first_order_remainders,
    threaded_map,
    trajectory_gap,
    u2_duhamel,
    vorticity_rhs,
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
    heat_integral_factor,
    heat_propagate,
    l2_norm_spectral,
    leray_project,
    perp_gradient,
    _embed,
    translate,
    zero_outside_ball,
)

from conftest import ball_mask, spectral_of


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


# the entry points of the Galerkin system, each given bad data and good data
BALL_ENTRY_POINTS = {
    "evolve": lambda bad, good: evolve(bad, 0.0, [0.1]),
    "u2_duhamel": lambda bad, good: u2_duhamel(bad, [0.1], 0.0),
    "advect-first": lambda bad, good: advect(bad, good),
    "advect-second": lambda bad, good: advect(good, bad),
}


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

    def test_heat_exponent_limit(self, monkeypatch):
        # eps * T * max|xi|^2 = 1 * 0.5 * 2048 on Grid(2, 64, 1): refused
        # before any step and before exp(+eps t |xi|^2) can overflow
        import invlab.solvers as solvers

        def no_step(*args, **kwargs):
            raise AssertionError("a step was taken")

        g = Grid(2, 64, 1.0)
        tg = taylor_green(g)
        monkeypatch.setattr(solvers, "vorticity_rhs", no_step)
        with pytest.raises(NumericsError, match="= 1024 exceeds 700"):
            evolve(tg, 1.0, [0.5])
        monkeypatch.undo()
        # at the limit itself the factors stay finite: no overflow warning
        T = EXPONENT_LIMIT / float(g.k_sq.max())
        traj = evolve(tg, 1.0, [T])
        decay = np.exp(-2.0 * T)
        ref = SpectralField(g, decay * tg.coeffs)
        assert vf_rel_diff(traj.state_at(T), ref) <= 1e-6

    @pytest.mark.parametrize("entry", list(BALL_ENTRY_POINTS))
    @pytest.mark.parametrize("defect", ["row", "column", "nan"])
    def test_data_outside_the_ball_rejected(self, monkeypatch, entry, defect):
        # one 1e-300 coefficient just outside the 2/3 ball, on a mode whose
        # divergence it leaves exactly zero, or a NaN inside the ball: the
        # admission rule refuses the data before any right-hand side or
        # transform runs
        import invlab.solvers as solvers
        import invlab.spectral as spectral

        def no_work(*args, **kwargs):
            raise AssertionError("a right-hand side or a transform ran")

        g = Grid(2, 64, 1.0)
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
        monkeypatch.setattr(solvers, "vorticity_rhs", no_work)
        no_fft = types.SimpleNamespace(rfftn=no_work, irfftn=no_work)
        monkeypatch.setattr(spectral, "_fft", no_fft)
        if defect == "nan":
            with pytest.raises(NumericsError, match="non-finite"):
                BALL_ENTRY_POINTS[entry](bad, good)
        else:
            assert divergence_defect(bad) <= 1e-10
            with pytest.raises(ResolutionError, match="outside the 2/3-rule ball") as exc:
                BALL_ENTRY_POINTS[entry](bad, good)
            assert exc.value.required_n == 2 * g.N

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
        ref = evolve(w, 0.0, [T], dt_fixed=T / 512).state_at(T)
        errs = []
        for M in (8, 16, 32):
            sol = evolve(w, 0.0, [T], dt_fixed=T / M).state_at(T)
            errs.append(np.sqrt(np.sum(np.abs(sol.coeffs - ref.coeffs) ** 2)))
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= 3.5


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
        # 2 inverse transforms for the initial speed guard; per RK4 step 4
        # vorticity right-hand sides, each 3 inverse (u1, u2, w) and 2
        # forward (u1 w, u2 w), and stage 1's u1, u2 also give the CFL speed:
        # 4 * 2 = 8 forward and 4 * 3 = 12 inverse per step.  Each transform
        # is a row pass and a column pass, the column pass over the keep + 1
        # columns of the 2/3 ball only.
        g = Grid(2, 32, 1.0)
        w = taylor_green_two_mode(g)
        passes = recording_backend(monkeypatch)
        traj = evolve(w, eps, [0.05, 0.1])
        steps = len(traj.diagnostics["dt"])
        assert steps == 64
        counts = {
            (kind, ax): sum(1 for p in passes if p[:2] == (kind, ax))
            for kind in ("forward", "inverse")
            for ax in (0, 1)
        }
        assert counts == {
            ("forward", 0): 8 * steps,
            ("forward", 1): 8 * steps,
            ("inverse", 0): 2 + 12 * steps,
            ("inverse", 1): 2 + 12 * steps,
        }
        assert {p[2] for p in passes if p[1] == 0} == {(g.N, g.dealias_keep + 1)}

    def test_stage_reuses_its_arrays(self, monkeypatch):
        # every pass writes into an array it is handed: the three sample
        # arrays, the column scratch and the row buffer of the right-hand
        # side, and the stage arrays k1, k2, k3 (k4 reuses k3's), the same
        # arrays after 8 steps as after 64
        g = Grid(2, 32, 1.0)
        w = taylor_green_two_mode(g)
        passes = recording_backend(monkeypatch)
        traj = evolve(w, 0.0, [0.1])
        assert len(traj.diagnostics["dt"]) == 64
        assert all(p[3] is not None for p in passes)
        written = [p[3].__array_interface__["data"][0] for p in passes]
        per_step = 2 * (8 + 12)
        assert len(written) == 4 + 64 * per_step
        assert set(written[: 4 + 8 * per_step]) == set(written)
        assert len(set(written)) <= 8


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
        # the samples are the work object's arrays
        assert all(any(a is p for p in work.phys) for a in samples)


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


def bounded(fn, timeout=120.0):
    """``fn()`` on its own thread, joined with a timeout: ``(result, error)``."""
    out = [None, None]

    def target():
        try:
            out[0] = fn()
        except Exception as err:
            out[1] = err

    th = threading.Thread(target=target)
    th.start()
    th.join(timeout)
    assert not th.is_alive(), "the sweep did not finish in time"
    return tuple(out)


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

    def test_more_threads_than_cores(self, ball_datum, sweep_references, monkeypatch):
        # six threads on any machine and a short switch interval: every
        # node is taken once and each sum adds its terms in node order
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(6)))
        calls = counting_rhs(monkeypatch)
        before = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            out, err = bounded(
                lambda: list(u2_duhamel(ball_datum, DEFAULT_T_GRID, 2.0**-6, refine=True))
            )
        finally:
            sys.setswitchinterval(interval)
        assert err is None
        assert threading.active_count() == before
        assert len(calls) == 120 and len(set(calls)) > 1
        for a, b in zip(out, sweep_references[(True, 2.0**-6)]):
            assert np.array_equal(a.coeffs, b.coeffs)

    def test_rejected_inputs_leave_no_thread(self, ball_datum, monkeypatch):
        import invlab.solvers as solvers

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(6)))
        u0, eps = ball_datum, 2.0**-6
        g = u0.grid
        c = u0.coeffs.copy()
        c[0, 0, g.dealias_keep + 1] = 1e-300  # u1 at (0, keep + 1): xi1 = 0
        outside = SpectralField(g, c)
        before = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            _, err = bounded(lambda: u2_duhamel(outside, DEFAULT_T_GRID, eps))
            assert isinstance(err, ResolutionError) and "outside the 2/3-rule ball" in str(err)
            assert threading.active_count() == before

            monkeypatch.setattr(solvers, "REFINE_TOL", 1e-30)
            _, err = bounded(lambda: u2_duhamel(u0, DEFAULT_T_GRID, eps, refine=True))
            assert isinstance(err, QuadratureError)
            assert threading.active_count() == before
            monkeypatch.setattr(solvers, "REFINE_TOL", REFINE_TOL)

            # a failing node: no node starts after it, so at most the two
            # before it and a window of 2 * 6 were taken, and its error is
            # the one raised
            calls = counting_rhs(monkeypatch, fail_at=3)
            _, err = bounded(lambda: u2_duhamel(u0, DEFAULT_T_GRID, eps, refine=True))
            assert isinstance(err, FloatingPointError)
            assert 3 <= len(calls) <= 2 + 2 * 6
            assert threading.active_count() == before
        finally:
            sys.setswitchinterval(interval)


class TestThreadedMap:
    def test_in_order_with_bounded_lead(self, monkeypatch):
        # three threads: when result k is handed over, at most 2 * 3 jobs
        # past it have started
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        started = []

        def job(i):
            started.append(i)
            return i * i

        for k, value in enumerate(threaded_map(job, range(40))):
            assert value == k * k
            time.sleep(1e-3)  # let the helpers run ahead as far as they may
            assert len(started) <= k + 1 + 2 * 3
        assert sorted(started) == list(range(40))

    def test_closing_early_joins_the_helpers(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        before = threading.active_count()
        results = threaded_map(lambda i: i, range(40))
        assert next(results) == 0
        results.close()
        assert threading.active_count() == before


def remainder_norms(traj0, traj_eps, times, bp):
    """Besov norms of the four remainder fields at each time, by field."""
    out = {}
    for rem in first_order_remainders(traj0, traj_eps, times):
        for name in rem.FIELDS:
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
        # each read builds a new array, bitwise the expression of the
        # first_order_remainders docstring
        from invlab.solvers import _velocity

        times, eps, traj0, traj_eps = shell_trajectories
        t = times[1]
        u0 = traj0.u0
        g = u0.grid
        (rem,) = first_order_remainders(traj0, traj_eps, [t])
        (u2,) = u2_duhamel(u0, [t], eps)
        pa0 = -_velocity(g, full_rhs(g, curl(u0).coeffs, u0.coeffs[:, 0, 0])[g.slab])
        lin = heat_integral_factor(g, t, eps)
        expected = {
            "euler": traj0.increment_at(t).coeffs + t * pa0,
            "navier_stokes": traj_eps.increment_at(t).coeffs - u2.coeffs,
            "drift": -u2.coeffs - lin * pa0,
            "heat_defect": (lin - t) * pa0,
        }
        assert rem.FIELDS == tuple(expected)
        for name, ref in expected.items():
            first, second = getattr(rem, name), getattr(rem, name)
            assert first.coeffs is not second.coeffs
            assert np.array_equal(first.coeffs, ref), name
            assert np.array_equal(second.coeffs, ref), name

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
    """The shell datum n on Grid(2, N, 12) and its envelope layout."""
    from invlab.constructions import bump_half_width, carrier_mode, envelope_half_width

    g = Grid(2, N, 12.0)
    u0 = shell_velocity(ShellDatum(n, BesovParams(3.0, 2.0, 2.0, 2)), g)
    return u0, Envelopes(g, carrier_mode(n, 12.0), envelope_half_width(12.0), bump_half_width(12.0))


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
            u0 = evolve(u0, 2.0**-6, [0.04], layout=lay).state_at(0.04)
        g = u0.grid
        w, mean = lay.data(u0)
        out = np.empty_like(w)
        lay.rhs(w, mean, lay.work(), out)
        got = lay.slab(out)
        ref = np.empty(g.slab_shape, dtype=np.complex128)
        vorticity_rhs(g, curl(u0).coeffs[g.slab], mean, RhsWork(g), ref)
        boxes = in_boxes(lay)
        peak = np.max(np.abs(ref))
        assert np.max(np.abs(got - ref)[boxes]) <= 1e-13 * peak
        assert not np.any(got[~boxes])

    def test_evolution_matches_the_ball(self, envelope_datum, shell_trajectories):
        # the increments of one Galerkin system in two layouts: 1.5-7.4e-15
        # relative in L2 measured at n = 3
        u0, lay = envelope_datum
        times, eps, traj0, traj_eps = shell_trajectories
        for ball in (traj0, traj_eps):
            env = evolve(u0, ball.eps, times, layout=lay)
            assert env.layout == lay and ball.layout == Ball(u0.grid)
            assert np.array_equal(env.diagnostics["dt"], ball.diagnostics["dt"])
            for t in times:
                assert vf_rel_diff(env.increment_at(t), ball.increment_at(t)) <= 1e-13
            assert len(env.diagnostics["ring_share"]) == len(times)
            assert max(env.diagnostics["ring_share"]) <= RING_TOL
            assert len(ball.diagnostics["ring_share"]) == 0

    def test_duhamel_sums_match_the_ball(self, envelope_datum):
        u0, lay = envelope_datum
        times, eps = (0.01, 0.02), 2.0**-6
        ball = u2_duhamel(u0, times, eps, nodes=9)
        for a, b in zip(u2_duhamel(u0, times, eps, nodes=9, layout=lay), ball):
            assert vf_rel_diff(a, b) <= 1e-13

    def test_remainders_need_one_layout(self, envelope_datum, shell_trajectories):
        u0, lay = envelope_datum
        times, eps, traj0, _ = shell_trajectories
        env = evolve(u0, eps, times, layout=lay)
        with pytest.raises(ValueError, match="different layouts"):
            first_order_remainders(traj0, env, times)

    def test_layout_of_another_grid_rejected(self, envelope_datum):
        u0, _ = envelope_datum
        other = shell_envelopes(3, 1024)[1]
        with pytest.raises(ValueError, match="the layout is of"):
            evolve(u0, 0.0, [0.01], layout=other)

    def test_carrier_must_exceed_three_widths(self):
        # at c <= 3W a product of two envelopes reaches a neighbouring box
        g = Grid(2, 512, 12.0)
        with pytest.raises(ResolutionError, match="not above 3W = 30"):
            Envelopes(g, 30, 10, 2)
        assert Envelopes(g, 31, 10, 2).H == 5

    @pytest.mark.parametrize("where", ["between-boxes", "beyond-box"])
    def test_data_outside_the_boxes_rejected(self, envelope_datum, monkeypatch, where):
        # one 1e-300 stream coefficient inside the ball but outside the boxes:
        # the admission refuses the data before any transform runs
        import invlab.spectral as spectral

        u0, lay = envelope_datum
        g = u0.grid
        psi = np.zeros(g.spectral_shape, dtype=np.complex128)
        c, W = lay.carrier, lay.width
        psi[(c // 2, 3) if where == "between-boxes" else (c + W + 1, 3)] = 1e-300
        bad = SpectralField(g, u0.coeffs + perp_gradient(SpectralField(g, psi)).coeffs)
        assert divergence_defect(bad) <= 1e-10

        def no_work(*args, **kwargs):
            raise AssertionError("a transform ran")

        monkeypatch.setattr(spectral, "_fft", types.SimpleNamespace(fftn=no_work, ifftn=no_work))
        with pytest.raises(ResolutionError, match="outside the harmonic boxes"):
            evolve(bad, 0.0, [0.01], layout=lay)
        with pytest.raises(ResolutionError, match="outside the harmonic boxes"):
            u2_duhamel(bad, [0.01], 0.0, layout=lay)

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
        u = SpectralField(g, u0.coeffs + scale * ring)
        if share > 1e-14:
            with pytest.raises(ResolutionError, match="M = 64"):
                evolve(u, 0.0, [0.0, 0.01], layout=lay)
        else:
            traj = evolve(u, 0.0, [0.0], layout=lay)
            assert traj.diagnostics["ring_share"][0] == pytest.approx(share, rel=1e-6)


class TestEnvelopeTransformCount:
    def test_transforms_per_evolution_and_step(self, envelope_datum, monkeypatch):
        # one complex M x M inverse call for the data's speed; per RK4 step 4
        # right-hand sides, each one inverse call on the samples of w, u1
        # and u2 and one forward call on the two products, per harmonic: no
        # transform of the N = 512 grid
        u0, lay = envelope_datum
        passes = recording_backend(monkeypatch)
        traj = evolve(u0, 2.0**-6, [0.04, 0.08], layout=lay)
        steps = len(traj.diagnostics["dt"])
        assert steps == 64
        shape = (lay.H + 1, lay.M, lay.M)
        counts = {}
        for kind, ax, in_shape, _ in passes:
            counts[(kind, ax, in_shape)] = counts.get((kind, ax, in_shape), 0) + 1
        assert counts == {
            ("inverse", -2, (3,) + shape): 1 + 4 * steps,
            ("inverse", -1, (3,) + shape): 1 + 4 * steps,
            ("forward", -2, (2,) + shape): 4 * steps,
            ("forward", -1, (2,) + shape): 4 * steps,
        }
