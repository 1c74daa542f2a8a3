import numpy as np
import pytest

from invlab.constructions import (
    ShellDatum,
    background_field,
    build_profile_bump,
    bump_half_width,
    carrier_mode,
    datum_mode_extent,
    oscillating_profile_spectral,
    shell_velocity,
    taylor_green,
    taylor_green_two_mode,
)
from invlab.errors import ConfigError, ResolutionError
from invlab.littlewood_paley import (
    besov_norm,
    field_support_range,
    radial_cutoff,
)
from invlab.spectral import (
    Grid,
    SpectralField,
    _inverse,
    divergence_defect,
    l2_norm_spectral,
    translate,
)

from conftest import ball_mask, spectral_of


class TestProfileBump:
    def test_plateau_and_support_on_lattice(self, lab_grid):
        bump = build_profile_bump(lab_grid)
        # d=2: equal to 1 up to 1/16, zero from 1/4 on
        assert bump.a_hat[0] == 1.0
        assert bump.a_hat[3] == 0.0  # xi = 3/12 = 1/4
        assert 0.0 < bump.a_hat[2] <= 1.0
        assert bump_half_width(lab_grid.R) == 2

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
        F = oscillating_profile_spectral(3, lab_grid)
        lo, hi = field_support_range(F)
        carrier = 17.0 / 12.0 * 8
        assert carrier - 0.5 <= lo <= hi <= carrier + 0.5
        assert 4.0 / 3.0 * 8 <= lo and hi <= 1.5 * 8

    def test_real_and_even(self, lab_grid):
        s = _inverse(oscillating_profile_spectral(3, lab_grid).coeffs, lab_grid)
        for ax in range(2):
            flipped = np.roll(np.flip(s, axis=ax), 1, axis=ax)
            assert np.max(np.abs(s - flipped)) <= 1e-12 * np.max(np.abs(s))

    def test_matches_physical_product_construction(self, lab_grid):
        # the frequency-space field equals 2 * cos(carrier x1) times the
        # periodized profile in each coordinate
        f = _inverse(oscillating_profile_spectral(3, lab_grid).coeffs, lab_grid)
        phi = build_profile_bump(lab_grid).physical_profile()
        x = lab_grid.x_1d
        carrier = 17.0 / 12.0 * 8
        expected = (
            2.0
            * (phi * np.cos(carrier * x))[:, None]
            * phi[None, :]
        )
        assert np.max(np.abs(f - expected)) <= 1e-10 * np.max(np.abs(expected))

    def test_off_lattice_carrier_rejected(self):
        with pytest.raises(ConfigError):
            carrier_mode(3, 1.0)

    def test_insufficient_resolution_names_requirement(self):
        g = Grid(2, 256, 12.0)
        with pytest.raises(ResolutionError) as exc:
            oscillating_profile_spectral(3, g)
        assert exc.value.required_n == 512


def _lattice_half_width(R: float) -> int:
    """The bump's half-width read on a lattice wide enough to hold it."""
    g = Grid(2, 2048, R)  # |m| up to 1024 > R/4: past the support
    return int(np.abs(g.modes_1d[build_profile_bump(g).a_hat > 0.0]).max())


class TestDatumExtent:
    @pytest.mark.parametrize("R, extent", [(12.0, 136 + 2), (48.0, 544 + 11), (60.0, 680 + 14)])
    def test_carrier_plus_lattice_half_width(self, R, extent):
        # a 16-point lattice stops at |m| = 8, short of the half-width 11 at
        # R = 48 and 14 at R = 60; the rule needs no lattice
        assert datum_mode_extent(3, R) == extent
        for n in (3, 4, 5):
            assert datum_mode_extent(n, R) == carrier_mode(n, R) + _lattice_half_width(R)

    def test_half_width_matches_the_lattice(self):
        # from R ~ 300 on the ramp rounds to 0 below the last mode under R/4
        for R in [0.25 * k for k in range(1, 400)] + [1 / 3, 12 + 1e-9, 299.9, 480.0, 4000.0]:
            assert bump_half_width(R) == _lattice_half_width(R), R

    def test_half_width_at_a_radius_no_lattice_holds(self):
        # no lattice this large is built: the half-width is where the profile
        # turns exactly 0, about 0.245 R, and is found at a cost in log R
        R = 12.0 * 2**40
        W = bump_half_width(R)
        edge = radial_cutoff([W / R, (W + 1) / R], 1 / 16, 1 / 4)
        assert edge[0] > 0.0 and edge[1] == 0.0
        assert 0.24 * R < W < 0.25 * R

    def test_outermost_mode_is_the_extent(self):
        # the n = 4 datum at R = 6 reaches 136 + 1, inside the ball of N = 512
        g = Grid(2, 512, 6.0)
        F = oscillating_profile_spectral(4, g)
        m = datum_mode_extent(4, g.R)
        assert F.coeffs[m, 0] != 0.0 and not F.coeffs[m + 1].any()


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
        u0 = shell_velocity(ShellDatum(3, bp), lab_grid)
        ratio = besov_norm(u0, bp) / build_profile_bump(lab_grid).lp_norm_1d(bp.p) ** 2
        assert 1.0 / 3.0 <= ratio <= 3.0

    def test_translation_leaves_norms_invariant(self, bp, lab_grid):
        plain = shell_velocity(ShellDatum(3, bp), lab_grid)
        moved = shell_velocity(ShellDatum(3, bp, shift=lab_grid.L / 2), lab_grid)
        assert besov_norm(moved, bp) == pytest.approx(
            besov_norm(plain, bp), rel=1e-12
        )
        back = translate(moved, (-lab_grid.L / 2, 0.0))
        diff = np.max(np.abs(back.coeffs - plain.coeffs))
        assert diff <= 1e-12 * np.max(np.abs(plain.coeffs))


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
        assert np.array_equal(a.coeffs, b.coeffs)
        c = background_field(g, seed=12, band=1, bp=bp)
        assert not np.array_equal(a.coeffs, c.coeffs)

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

    @pytest.mark.parametrize("N", [16, 64, 512])
    def test_exact_fields_match_sampled_reference(self, N):
        # the vortex formulas sampled on the lattice and transformed
        g = Grid(2, N, 1.0)
        x = g.x_1d / g.R

        def cell(k):
            c, s = np.cos(k * x), np.sin(k * x)
            return np.stack((-c[:, None] * s[None, :], s[:, None] * c[None, :]))

        for exact, samples in (
            (taylor_green(g, 0.7), 0.7 * cell(1)),
            (taylor_green_two_mode(g), cell(1) + 0.5 * cell(2)),
        ):
            ref = np.stack([spectral_of(g, u).coeffs for u in samples])
            peak = np.max(np.abs(ref))
            assert np.max(np.abs(exact.coeffs - ref)) <= 1e-15 * peak
            assert not np.any(exact.coeffs[:, ~ball_mask(g)])


_DATA = {
    "shell": lambda g, bp: shell_velocity(ShellDatum(3, bp), g),
    "shifted_shell": lambda g, bp: shell_velocity(ShellDatum(3, bp, shift=g.L / 2), g),
    "background": lambda g, bp: background_field(g, seed=7, band=3, bp=bp),
    "shell_plus_background": lambda g, bp: SpectralField(
        g,
        shell_velocity(ShellDatum(3, bp), g).coeffs
        + background_field(g, seed=7, band=3, bp=bp).coeffs,
    ),
    "taylor_green": lambda g, bp: taylor_green(g),
    "taylor_green_two_mode": lambda g, bp: taylor_green_two_mode(g),
}


class TestAdmissibility:
    @pytest.mark.parametrize("name", list(_DATA))
    def test_data_lie_in_the_dealias_ball(self, lab_grid, bp, name):
        # evolve and u2_duhamel refuse any nonzero coefficient outside the ball
        u0 = _DATA[name](lab_grid, bp)
        assert u0.coeffs.any()
        assert not np.any(u0.coeffs[:, ~ball_mask(lab_grid)])
