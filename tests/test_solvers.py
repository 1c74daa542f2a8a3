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
    SolverDivergenceError,
)
from invlab.littlewood_paley import BesovParams, besov_norm
from invlab.solvers import (
    SolverConfig,
    Trajectory,
    evolve,
    first_order_remainders,
    u2_duhamel,
)
from invlab.spectral import (
    Grid,
    SpectralField,
    VectorField,
    advect,
    heat_factor,
    heat_propagate,
    l2_norm_spectral,
    leray_project,
)


def vf_rel_diff(a, b):
    num = np.sqrt(
        sum(np.sum(np.abs(x.coeffs - y.coeffs) ** 2) for x, y in zip(a, b))
    )
    den = max(
        np.sqrt(sum(np.sum(np.abs(x.coeffs) ** 2) for x in a)),
        np.sqrt(sum(np.sum(np.abs(y.coeffs) ** 2) for y in b)),
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
    traj0 = evolve(u0, SolverConfig(eps=0.0, T=times[-1]), times)
    traj_eps = evolve(u0, SolverConfig(eps=eps, T=times[-1]), times)
    return times, eps, traj0, traj_eps


class TestSolverConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(eps=0.1, T=0.0)
        with pytest.raises(ValueError):
            SolverConfig(eps=1.5, T=1.0)

    def test_default_step_cap(self):
        assert SolverConfig(eps=0.0, T=0.64).dt_cap == pytest.approx(0.01)


class TestEvolve:
    def test_zero_data_stays_zero(self):
        g = Grid(2, 32, 1.0)
        zero = VectorField(
            tuple(
                SpectralField(g, np.zeros(g.spectral_shape, dtype=complex))
                for _ in range(2)
            )
        )
        traj = evolve(zero, SolverConfig(eps=0.1, T=0.5), [0.25, 0.5])
        for state in traj.states:
            assert l2_norm_spectral(state) == 0.0

    def test_taylor_green_viscous_decay(self):
        g = Grid(2, 64, 1.0)
        tg = taylor_green(g)
        traj = evolve(tg, SolverConfig(eps=0.01, T=1.0), [1.0])
        decay = np.exp(-2.0 * 0.01)
        ref = VectorField(tuple(SpectralField(g, decay * c.coeffs) for c in tg))
        assert vf_rel_diff(traj.state_at(1.0), ref) <= 1e-6

    def test_taylor_green_ideal_steady(self):
        g = Grid(2, 64, 1.0)
        tg = taylor_green(g)
        traj = evolve(tg, SolverConfig(eps=0.0, T=1.0), [1.0])
        assert vf_rel_diff(traj.state_at(1.0), tg) <= 1e-8

    def test_anchored_and_stepwise_agree(self):
        g = Grid(2, 64, 1.0)
        w = taylor_green_two_mode(g)
        samples = [0.05, 0.1]
        a = evolve(w, SolverConfig(eps=0.02, T=0.1), samples)
        b = evolve(
            w,
            SolverConfig(eps=0.02, T=0.1, anchor_exponent_limit=0.0),
            samples,
        )
        for t in samples:
            assert vf_rel_diff(a.state_at(t), b.state_at(t)) <= 1e-12

    def test_exact_hit_on_irregular_sample_times(self):
        g = Grid(2, 32, 1.0)
        tg = taylor_green(g)
        traj = evolve(tg, SolverConfig(eps=0.01, T=0.1), [0.013, 0.071, 0.1])
        assert traj.times == (0.013, 0.071, 0.1)
        assert np.isclose(traj.diagnostics["t"], 0.013, atol=1e-15).any()

    def test_rejects_non_divergence_free_data(self, rng):
        g = Grid(2, 32, 1.0)
        from invlab.spectral import gradient, to_spectral
        from invlab.spectral import RealField

        V = gradient(to_spectral(RealField(g, rng.standard_normal(g.shape))))
        with pytest.raises(ValueError):
            evolve(V, SolverConfig(eps=0.0, T=0.1), [0.1])

    def test_rejects_sample_times_outside_horizon(self):
        g = Grid(2, 32, 1.0)
        tg = taylor_green(g)
        with pytest.raises(ValueError):
            evolve(tg, SolverConfig(eps=0.0, T=0.1), [0.2])

    def test_blowup_guard_trips(self):
        g = Grid(2, 32, 1.0)
        w = taylor_green_two_mode(g)
        cfg = SolverConfig(eps=0.0, T=10.0, dt_fixed=0.8, blowup_factor=2.0)
        with pytest.raises((SolverDivergenceError, NumericsError)):
            evolve(w, cfg, [10.0])

    def test_energy_conservation_ideal(self):
        g = Grid(2, 64, 1.0)
        w = taylor_green_two_mode(g)
        traj = evolve(w, SolverConfig(eps=0.0, T=0.1), [0.1])
        e0 = l2_norm_spectral(w)
        assert np.max(np.abs(traj.diagnostics["energy"] - e0)) <= 1e-7 * e0

    def test_energy_monotone_viscous(self):
        g = Grid(2, 64, 1.0)
        w = taylor_green_two_mode(g)
        traj = evolve(w, SolverConfig(eps=0.05, T=0.1), [0.1])
        en = np.concatenate([[l2_norm_spectral(w)], traj.diagnostics["energy"]])
        assert np.max(np.diff(en)) <= 1e-12 * en[0]

    def test_divergence_preserved(self):
        g = Grid(2, 64, 1.0)
        w = taylor_green_two_mode(g)
        traj = evolve(w, SolverConfig(eps=0.01, T=0.1), [0.1])
        assert traj.diagnostics["div_rel"].max() <= 1e-9

    def test_self_convergence_order(self):
        g = Grid(2, 64, 1.0)
        w = taylor_green_two_mode(g)
        T = 0.5
        ref = evolve(w, SolverConfig(eps=0.0, T=T, dt_fixed=T / 512), [T]).state_at(T)
        errs = []
        for M in (8, 16, 32):
            sol = evolve(w, SolverConfig(eps=0.0, T=T, dt_fixed=T / M), [T]).state_at(T)
            errs.append(
                np.sqrt(
                    sum(
                        np.sum(np.abs(a.coeffs - b.coeffs) ** 2)
                        for a, b in zip(sol, ref)
                    )
                )
            )
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= 3.5


class TestTransformCount:
    @pytest.mark.parametrize("anchor_limit", [60.0, 0.0], ids=["anchored", "stepwise"])
    def test_transforms_per_evolution_and_step(self, monkeypatch, anchor_limit):
        # 2 inverse transforms for the initial speed guard; per RK4 step 4
        # advect calls of 2 forward and 6 inverse each, of which stage 1's
        # velocity pair also gives the CFL speed
        import invlab.spectral as spectral

        g = Grid(2, 32, 1.0)
        w = taylor_green_two_mode(g)
        counts = {"forward": 0, "inverse": 0}
        backend = spectral._fft

        def counted(kind, fn):
            def call(*args, **kwargs):
                counts[kind] += 1
                return fn(*args, **kwargs)

            return call

        monkeypatch.setattr(
            spectral,
            "_fft",
            types.SimpleNamespace(
                fftn=counted("forward", backend.fftn),
                rfftn=counted("forward", backend.rfftn),
                ifftn=counted("inverse", backend.ifftn),
                irfftn=counted("inverse", backend.irfftn),
            ),
        )
        cfg = SolverConfig(eps=0.02, T=0.1, anchor_exponent_limit=anchor_limit)
        traj = evolve(w, cfg, [0.05, 0.1])
        steps = len(traj.diagnostics["dt"])
        assert steps >= 64
        assert counts == {"forward": 8 * steps, "inverse": 2 + 24 * steps}


class TestTrajectory:
    def test_state_lookup(self):
        g = Grid(2, 32, 1.0)
        tg = taylor_green(g)
        traj = evolve(tg, SolverConfig(eps=0.0, T=0.1), [0.05, 0.1])
        assert traj.state_at(0.05) is traj.states[0]
        with pytest.raises(ValueError):
            traj.state_at(0.07)

    def test_invariant_enforced_at_construction(self, rng):
        g = Grid(2, 32, 1.0)
        from invlab.spectral import RealField, gradient, to_spectral

        bad = gradient(to_spectral(RealField(g, rng.standard_normal(g.shape))))
        with pytest.raises(NumericsError):
            Trajectory(
                times=(0.0,),
                states=(bad,),
                eps=0.0,
                u0=bad,
                diagnostics={"energy": np.array([1.0])},
            )


class TestFirstOrderApproximants:
    def test_u1_identity_cases(self, shell_setup):
        bp, g, u0 = shell_setup
        assert heat_propagate(u0, 0.0, 0.3) is u0
        assert heat_propagate(u0, 0.3, 0.0) is u0

    def test_u1_matches_heat_factor(self, shell_setup):
        bp, g, u0 = shell_setup
        out = heat_propagate(u0, 0.02, 2.0**-6)
        factor = heat_factor(g, 0.02, 2.0**-6)
        for a, b in zip(out, u0):
            assert np.array_equal(a.coeffs, factor * b.coeffs)

    def test_u2_zero_time(self, shell_setup):
        bp, g, u0 = shell_setup
        out = u2_duhamel(u0, 0.0, 2.0**-6)
        assert l2_norm_spectral(out) == 0.0

    def test_u2_node_validation(self, shell_setup):
        bp, g, u0 = shell_setup
        with pytest.raises(ValueError):
            u2_duhamel(u0, 0.01, 0.0, nodes=8)
        with pytest.raises(ValueError):
            u2_duhamel(u0, 0.01, 0.0, nodes=7)

    def test_u2_ideal_case_closed_form(self, shell_setup):
        # with eps = 0 the integrand is constant: u2 = -t P(u0.grad u0)
        bp, g, u0 = shell_setup
        t = 0.03
        out = u2_duhamel(u0, t, 0.0)
        ref = leray_project(advect(u0, u0))
        scale = max(np.max(np.abs(c.coeffs)) for c in ref) * t
        diff = max(
            np.max(np.abs(a.coeffs + t * b.coeffs)) for a, b in zip(out, ref)
        )
        assert diff <= 1e-10 * scale

    def test_u2_quadrature_refinement(self, shell_setup):
        bp, g, u0 = shell_setup
        eps = 2.0**-6
        a = u2_duhamel(u0, 0.02, eps, nodes=17)
        b = u2_duhamel(u0, 0.02, eps, nodes=33)
        assert vf_rel_diff(a, b) <= 1e-8

    def test_u2_refinement_failure_raises(self, shell_setup):
        bp, g, u0 = shell_setup
        with pytest.raises(QuadratureError):
            u2_duhamel(u0, 0.02, 2.0**-6, nodes=9, refine=True, refine_tol=1e-30)


def remainder_norms(u0, traj0, traj_eps, times, bp):
    """Besov norms of the four remainder fields at each time, by field."""
    out = {}
    for rem in first_order_remainders(u0, traj0, traj_eps, times):
        for name, vf in rem._asdict().items():
            out.setdefault(name, []).append(besov_norm(vf, bp))
    return out


@pytest.fixture(scope="module")
def shell_remainders(shell_setup, shell_trajectories):
    bp, g, u0 = shell_setup
    times, eps, traj0, traj_eps = shell_trajectories
    return remainder_norms(u0, traj0, traj_eps, times, bp)


class TestExpansionResiduals:
    def test_zero_time_residuals(self, shell_setup):
        # sampling only t = 0 takes no step, so the data pass through evolve
        bp, g, u0 = shell_setup
        traj0 = evolve(u0, SolverConfig(eps=0.0, T=0.01), [0.0])
        traj_eps = evolve(u0, SolverConfig(eps=2.0**-6, T=0.01), [0.0])
        norms = remainder_norms(u0, traj0, traj_eps, [0.0], bp)
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

    def test_wrong_viscosity_rejected(self, shell_setup, shell_trajectories):
        bp, g, u0 = shell_setup
        times, eps, traj0, traj_eps = shell_trajectories
        with pytest.raises(ValueError, match="ideal"):
            first_order_remainders(u0, traj_eps, traj_eps, times)

    def test_mismatched_data_rejected(self, shell_setup, shell_trajectories):
        bp, g, u0 = shell_setup
        times, eps, traj0, traj_eps = shell_trajectories
        other = VectorField(
            tuple(SpectralField(g, 2.0 * c.coeffs) for c in u0)
        )
        with pytest.raises(ValueError, match="different initial data"):
            first_order_remainders(other, traj0, traj_eps, times)
        foreign = Trajectory(
            times=traj_eps.times,
            states=traj_eps.states,
            eps=traj_eps.eps,
            u0=other,
            diagnostics=traj_eps.diagnostics,
        )
        with pytest.raises(ValueError, match="different initial data"):
            first_order_remainders(u0, traj0, foreign, times)

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
            write_field(tmp_path / f"state{i}.spf", traj.state_at(t))
            state = read_field(tmp_path / f"state{i}.spf")
            replays.append(
                Trajectory(
                    times=(t,),
                    states=(state,),
                    eps=traj.eps,
                    u0=u0b,
                    diagnostics={"energy": np.array([l2_norm_spectral(state)])},
                )
            )
        again = remainder_norms(u0b, *replays, [t], bp)
        for name, (value,) in again.items():
            assert value == pytest.approx(shell_remainders[name][2], rel=1e-12), name
