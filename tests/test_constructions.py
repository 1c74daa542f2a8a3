import numpy as np
import pytest

from invlab.constructions import (
    ProfileBump,
    ShellDatum,
    background_field,
    build_profile_bump,
    carrier_mode,
    oscillating_profile_spectral,
    shell_velocity,
    taylor_green,
    taylor_green_two_mode,
)
from invlab.errors import ConfigError, ResolutionError
from invlab.littlewood_paley import (
    BesovParams,
    besov_norm,
    build_partition,
    field_support_range,
)
from invlab.spectral import (
    Grid,
    divergence_defect,
    l2_norm_spectral,
    lp_norm,
    to_physical,
    translate,
)


class TestProfileBump:
    def test_plateau_and_support_on_lattice(self, lab_grid):
        bump = build_profile_bump(lab_grid)
        # d=2: equal to 1 up to 1/16, zero from 1/4 on
        assert bump.a_hat[0] == 1.0
        assert bump.a_hat[3] == 0.0  # xi = 3/12 = 1/4
        assert 0.0 < bump.a_hat[2] <= 1.0
        assert bump.max_mode == 2

    def test_even_profile(self, lab_grid):
        bump = build_profile_bump(lab_grid)
        assert np.array_equal(bump.a_hat, np.roll(bump.a_hat[::-1], 1))

    def test_sup_norm_attained_at_origin(self, lab_grid):
        bump = build_profile_bump(lab_grid)
        phi = bump.physical_profile()
        assert phi[0] > 0
        assert bump.lp_norm_1d(np.inf) == pytest.approx(phi[0], rel=1e-12)

    def test_lp_norms_bracketed(self, lab_grid):
        # lower bound from the half-height neighbourhood, upper from decay
        bump = build_profile_bump(lab_grid)
        phi = bump.physical_profile()
        x = lab_grid.x_1d
        dist = np.minimum(x, lab_grid.L - x)
        delta = float(dist[np.abs(phi) >= 0.5 * phi[0]].max())
        for p in (1.0, 2.0):
            val = bump.lp_norm_1d(p)
            assert val >= 0.5 * phi[0] * (2 * delta) ** (1.0 / p)
            assert val <= 10.0 * bump.lp_norm_1d(np.inf) * lab_grid.L ** (1.0 / p)

    def test_tail_fraction_reported_and_moderate(self, lab_grid):
        # periodization diagnostic: a few percent of the continuum L1 mass
        # sits beyond the half period at the default width
        bump = build_profile_bump(lab_grid)
        frac = bump.tail_fraction()
        assert 0.0 < frac < 0.1


class TestOscillatingProfile:
    def test_support_inside_dyadic_annulus(self, lab_grid):
        bump = build_profile_bump(lab_grid)
        F = oscillating_profile_spectral(bump, 3, lab_grid)
        lo, hi = field_support_range(F)
        carrier = 17.0 / 12.0 * 8
        assert carrier - 0.5 <= lo <= hi <= carrier + 0.5
        assert 4.0 / 3.0 * 8 <= lo and hi <= 1.5 * 8

    def test_real_and_even(self, lab_grid):
        bump = build_profile_bump(lab_grid)
        f = to_physical(oscillating_profile_spectral(bump, 3, lab_grid))
        s = f.samples
        for ax in range(2):
            flipped = np.roll(np.flip(s, axis=ax), 1, axis=ax)
            assert np.max(np.abs(s - flipped)) <= 1e-12 * np.max(np.abs(s))

    def test_matches_physical_product_construction(self, lab_grid):
        # the frequency-space field equals 2 * cos(carrier x1) times the
        # periodized profile in each coordinate
        bump = build_profile_bump(lab_grid)
        f = to_physical(oscillating_profile_spectral(bump, 3, lab_grid))
        phi = bump.physical_profile()
        x = lab_grid.x_1d
        carrier = 17.0 / 12.0 * 8
        expected = (
            2.0
            * (phi * np.cos(carrier * x))[:, None]
            * phi[None, :]
        )
        assert np.max(np.abs(f.samples - expected)) <= 1e-10 * np.max(np.abs(expected))

    def test_off_lattice_carrier_rejected(self):
        g = Grid(2, 128, 1.0)
        with pytest.raises(ConfigError):
            carrier_mode(3, g)

    def test_insufficient_resolution_names_requirement(self):
        g = Grid(2, 256, 12.0)
        bump = build_profile_bump(g)
        with pytest.raises(ResolutionError) as exc:
            oscillating_profile_spectral(bump, 3, g)
        assert exc.value.required_n == 512


class TestShellDatum:
    def test_parameters(self, bp):
        d = ShellDatum(4, bp)
        assert d.amplitude == 2.0 ** (-4 * 4)

    def test_small_shell_rejected(self, bp):
        with pytest.raises(ConfigError):
            ShellDatum(2, bp)

    def test_velocity_is_divergence_free(self, bp, lab_grid):
        u0 = shell_velocity(ShellDatum(3, bp), lab_grid)
        assert divergence_defect(u0) <= 1e-12

    def test_besov_norm_against_profile_norms(self, bp, lab_grid):
        # the B^s norm is comparable to the squared 1-D profile L^p norm
        bump = build_profile_bump(lab_grid)
        u0 = shell_velocity(ShellDatum(3, bp), lab_grid, bump)
        ratio = besov_norm(u0, bp) / bump.lp_norm_1d(bp.p) ** 2
        assert 1.0 / 3.0 <= ratio <= 3.0

    def test_translation_leaves_norms_invariant(self, bp, lab_grid):
        plain = shell_velocity(ShellDatum(3, bp), lab_grid)
        moved = shell_velocity(ShellDatum(3, bp, shift=lab_grid.L / 2), lab_grid)
        assert besov_norm(moved, bp) == pytest.approx(
            besov_norm(plain, bp), rel=1e-12
        )
        back = translate(moved, (-lab_grid.L / 2, 0.0))
        diff = max(
            np.max(np.abs(a.coeffs - b.coeffs)) for a, b in zip(back, plain)
        )
        assert diff <= 1e-12 * max(np.max(np.abs(c.coeffs)) for c in plain)


class TestBackgroundField:
    def test_divergence_free_and_normalized(self, bp):
        g = Grid(2, 256, 12.0)
        psi = background_field(g, seed=7, band=1, bp=bp)
        assert divergence_defect(psi) <= 1e-12
        assert besov_norm(psi, bp) == pytest.approx(1.0, abs=1e-10)

    def test_deterministic_replay(self, bp):
        g = Grid(2, 256, 12.0)
        a = background_field(g, seed=11, band=1, bp=bp)
        b = background_field(g, seed=11, band=1, bp=bp)
        assert all(np.array_equal(x.coeffs, y.coeffs) for x, y in zip(a, b))
        c = background_field(g, seed=12, band=1, bp=bp)
        assert any(not np.array_equal(x.coeffs, y.coeffs) for x, y in zip(a, c))

    def test_band_limit_enforced(self, bp):
        g = Grid(2, 256, 12.0)
        with pytest.raises(ConfigError):
            background_field(g, seed=7, band=3, bp=bp)

    def test_band_support(self, bp):
        g = Grid(2, 256, 12.0)
        psi = background_field(g, seed=7, band=1, bp=bp)
        _, hi = field_support_range(psi)
        assert hi <= 2.0


class TestVortexFields:
    def test_taylor_green_is_divergence_free(self):
        g = Grid(2, 64, 1.0)
        assert divergence_defect(taylor_green(g)) <= 1e-13

    def test_two_mode_variant_divergence_free(self):
        g = Grid(2, 64, 1.0)
        assert divergence_defect(taylor_green_two_mode(g)) <= 1e-13

    def test_two_mode_has_nontrivial_projected_advection(self):
        from invlab.spectral import advect, leray_project

        g = Grid(2, 64, 1.0)
        w = taylor_green_two_mode(g)
        proj = leray_project(advect(w, w))
        assert l2_norm_spectral(proj) > 1e-3 * l2_norm_spectral(w)

    def test_requires_two_dimensions(self):
        with pytest.raises(ConfigError):
            taylor_green(Grid(3, 16, 1.0))
