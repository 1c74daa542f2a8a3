import numpy as np
import pytest

from invlab.errors import ConfigError, NumericsError, ResolutionError
from invlab.spectral import (
    Grid,
    RealField,
    SpectralField,
    VectorField,
    advect,
    divergence,
    divergence_defect,
    gradient,
    heat_propagate,
    l2_norm_spectral,
    leray_complement,
    leray_project,
    lp_norm,
    perp_gradient,
    to_physical,
    to_spectral,
    translate,
)

from conftest import half_spectrum_weights, random_real_field, random_vector_field


def vf_diff_norm(a, b):
    return np.sqrt(
        sum(np.sum(np.abs(x.coeffs - y.coeffs) ** 2) for x, y in zip(a, b))
    )


def vf_norm(a):
    return np.sqrt(sum(np.sum(np.abs(x.coeffs) ** 2) for x in a))


class TestGrid:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigError):
            Grid(4, 32, 1.0)
        with pytest.raises(ConfigError):
            Grid(2, 48, 1.0)  # not a power of two
        with pytest.raises(ConfigError):
            Grid(2, 8, 1.0)  # too small
        with pytest.raises(ConfigError):
            Grid(2, 32, -1.0)

    def test_rejects_three_dimensions(self):
        with pytest.raises(ConfigError, match="dimension must be 2"):
            Grid(3, 16, 2.0)

    def test_frequency_lattice(self, grid):
        assert grid.freqs_1d[0] == 0.0
        assert grid.freqs_1d[1] == pytest.approx(1.0 / grid.R)
        assert grid.freqs_1d[grid.N // 2] == pytest.approx(-grid.N / 2 / grid.R)
        assert grid.nyquist == pytest.approx(grid.N / (2 * grid.R))


class TestTransforms:
    def test_constant_function_coefficient(self, grid):
        F = to_spectral(RealField(grid, np.ones(grid.shape)))
        assert F.coeffs[0, 0] == pytest.approx(grid.L**2, rel=1e-13)
        other = np.abs(F.coeffs).sum() - abs(F.coeffs[0, 0])
        assert other <= 1e-10 * grid.L**2

    def test_single_cosine_mode(self, grid):
        x = grid.x_1d
        f = RealField(grid, np.cos(x / grid.R)[:, None] + 0.0 * x[None, :])
        F = to_spectral(f)
        assert F.coeffs[1, 0] == pytest.approx(grid.L**2 / 2, rel=1e-12)
        assert F.coeffs[-1, 0] == pytest.approx(grid.L**2 / 2, rel=1e-12)

    def test_round_trip_random(self, grid, rng):
        f = random_real_field(grid, rng)
        back = to_physical(to_spectral(f))
        assert np.max(np.abs(back.samples - f.samples)) <= 1e-12 * np.max(
            np.abs(f.samples)
        )

    def test_parseval(self, grid, rng):
        f = random_real_field(grid, rng)
        F = to_spectral(f)
        phys = grid.dx**2 * np.sum(f.samples**2)
        spec = np.sum(half_spectrum_weights(grid) * np.abs(F.coeffs) ** 2) / grid.L**2
        assert phys == pytest.approx(spec, rel=1e-12)
        assert l2_norm_spectral(F) ** 2 == pytest.approx(phys, rel=1e-12)

    def test_shape_mismatch_rejected(self, grid):
        with pytest.raises(ConfigError):
            RealField(grid, np.zeros((grid.N, grid.N + 1)))

    def test_non_finite_rejected(self, grid):
        bad = np.zeros(grid.shape)
        bad[0, 0] = np.nan
        with pytest.raises(NumericsError):
            RealField(grid, bad)


class TestDerivatives:
    def test_gradient_of_constant(self, grid):
        F = to_spectral(RealField(grid, np.ones(grid.shape)))
        G = gradient(F)
        assert vf_norm(G) <= 1e-12

    def test_perp_gradient_is_divergence_free(self, grid, rng):
        F = to_spectral(random_real_field(grid, rng))
        V = perp_gradient(F)
        assert divergence_defect(V) <= 1e-12

    def test_divergence_matches_gradient_sum(self, grid, rng):
        V = random_vector_field(grid, rng)
        div = divergence(V)
        manual = sum(gradient(c)[i].coeffs for i, c in enumerate(V))
        assert np.max(np.abs(div.coeffs - manual)) <= 1e-12 * np.max(np.abs(manual))


class TestHeatPropagator:
    def test_zero_viscosity_is_identity(self, grid, rng):
        V = random_vector_field(grid, rng)
        W = heat_propagate(V, 0.7, 0.0)
        assert vf_diff_norm(V, W) == 0.0

    def test_single_mode_decay_factor(self, grid):
        # |xi| = 2 with t = 1, eps = 0.25 decays by exactly 1/e
        g = Grid(2, 32, 1.0)
        coeffs = np.zeros(g.spectral_shape, dtype=complex)
        coeffs[2, 0] = 1.0
        coeffs[-2, 0] = 1.0
        V = VectorField((SpectralField(g, coeffs), SpectralField(g, 0 * coeffs)))
        W = heat_propagate(V, 1.0, 0.25)
        assert W[0].coeffs[2, 0] == pytest.approx(np.exp(-1.0), rel=1e-14)

    def test_negative_time_rejected(self, grid, rng):
        V = random_vector_field(grid, rng)
        with pytest.raises(ValueError):
            heat_propagate(V, -0.1, 0.5)

    def test_semigroup_law(self, grid, rng):
        V = random_vector_field(grid, rng)
        a = heat_propagate(V, 0.9, 0.2)
        b = heat_propagate(heat_propagate(V, 0.5, 0.2), 0.4, 0.2)
        assert vf_diff_norm(a, b) <= 1e-13 * vf_norm(a)

    def test_plancherel_oracle_on_shell_datum(self, lab_grid):
        # || (heat - Id) u0 ||_L2 against the direct coefficient sum
        from invlab.constructions import ShellDatum, shell_velocity
        from invlab.littlewood_paley import BesovParams

        u0 = shell_velocity(ShellDatum(3, BesovParams(3.0)), lab_grid)
        t, eps = 0.05, 2.0**-6
        moved = heat_propagate(u0, t, eps)
        diff = VectorField(
            tuple(
                SpectralField(lab_grid, a.coeffs - b.coeffs)
                for a, b in zip(moved, u0)
            )
        )
        impl = l2_norm_spectral(diff)
        factor = np.exp(-t * eps * lab_grid.k_sq) - 1.0
        w = half_spectrum_weights(lab_grid)
        oracle = np.sqrt(
            sum(np.sum(w * np.abs(factor * c.coeffs) ** 2) for c in u0)
            / lab_grid.L**2
        )
        assert impl == pytest.approx(oracle, rel=1e-10)


class TestLerayProjection:
    def test_divergence_free_fixed(self, grid, rng):
        F = to_spectral(random_real_field(grid, rng))
        V = perp_gradient(F)
        P = leray_project(V)
        assert vf_diff_norm(P, V) <= 1e-12 * vf_norm(V)

    def test_gradient_killed(self, grid, rng):
        G = gradient(to_spectral(random_real_field(grid, rng)))
        P = leray_project(G)
        assert vf_norm(P) <= 1e-12 * vf_norm(G)

    def test_idempotency(self, grid, rng):
        V = random_vector_field(grid, rng)
        P = leray_project(V)
        PP = leray_project(P)
        assert vf_diff_norm(P, PP) <= 1e-13 * vf_norm(P)

    def test_sum_and_cross_identities(self, grid, rng):
        V = random_vector_field(grid, rng)
        P, Q = leray_project(V), leray_complement(V)
        total = VectorField(
            tuple(
                SpectralField(grid, a.coeffs + b.coeffs) for a, b in zip(P, Q)
            )
        )
        assert vf_diff_norm(total, V) <= 1e-13 * vf_norm(V)
        assert vf_norm(leray_complement(P)) <= 1e-13 * vf_norm(V)
        assert divergence_defect(P) <= 1e-12

    def test_mean_mode_passes_through_projection(self, grid):
        coeffs = np.zeros(grid.spectral_shape, dtype=complex)
        coeffs[0, 0] = 3.0
        V = VectorField(
            (SpectralField(grid, coeffs), SpectralField(grid, 2.0 * coeffs))
        )
        P = leray_project(V)
        Q = leray_complement(V)
        assert P[0].coeffs[0, 0] == 3.0 and P[1].coeffs[0, 0] == 6.0
        assert Q[0].coeffs[0, 0] == 0.0


class TestAdvection:
    def test_constant_advecting_field(self, grid, rng):
        c = (0.7, -1.3)
        const = []
        for ci in c:
            arr = np.zeros(grid.spectral_shape, dtype=complex)
            arr[0, 0] = ci * grid.L**2  # constant function
            const.append(SpectralField(grid, arr))
        u = VectorField(tuple(const))
        v = random_vector_field(grid, rng, band=grid.dealias_keep // 2)
        adv = advect(u, v)
        expected = [
            c[0] * gradient(v[i])[0].coeffs + c[1] * gradient(v[i])[1].coeffs
            for i in range(2)
        ]
        for a, e in zip(adv, expected):
            mask = grid.dealias_mask
            assert np.max(np.abs(a.coeffs - np.where(mask, e, 0.0))) <= 1e-10 * max(
                np.max(np.abs(e)), 1e-300
            )

    def test_cellular_vortex_nonlinearity_is_gradient(self):
        from invlab.constructions import taylor_green

        g = Grid(2, 64, 1.0)
        u = taylor_green(g)
        proj = leray_project(advect(u, u))
        assert vf_norm(proj) <= 1e-10 * vf_norm(u)

    def test_bilinearity_in_scaling(self, grid, rng):
        u = random_vector_field(grid, rng, band=grid.dealias_keep // 2)
        v = random_vector_field(grid, rng, band=grid.dealias_keep // 2)
        a = advect(
            VectorField(tuple(SpectralField(grid, 2.5 * c.coeffs) for c in u)), v
        )
        b = advect(u, v)
        scaled = VectorField(
            tuple(SpectralField(grid, 2.5 * c.coeffs) for c in b)
        )
        assert vf_diff_norm(a, scaled) <= 1e-12 * vf_norm(scaled)

    def test_support_violation_reports_required_resolution(self, grid, rng):
        v = random_vector_field(grid, rng)  # full-band field
        with pytest.raises(ResolutionError) as exc:
            advect(v, v)
        assert exc.value.required_n is not None
        assert exc.value.required_n > grid.N

    def test_matches_full_spectrum_reference(self, grid, rng):
        # u . grad v from full complex numpy transforms, independent of the
        # half-spectrum layout; only the stored half is compared
        N, d, h = grid.N, grid.d, grid.spectral_shape[-1]
        m = np.fft.fftfreq(N, d=1.0 / N)
        inside = (np.abs(m[:, None]) <= grid.dealias_keep) & (
            np.abs(m[None, :]) <= grid.dealias_keep
        )
        xi = (m[:, None] / grid.R, m[None, :] / grid.R)
        to_coeffs, to_samples = grid.dx**d, (N / grid.L) ** d

        def random_full():
            spec = np.fft.fftn(rng.standard_normal(grid.shape)) * to_coeffs
            return np.where(inside, spec, 0.0)

        u_full = [random_full() for _ in range(d)]
        v_full = [random_full() for _ in range(d)]
        u_phys = [np.fft.ifftn(c).real * to_samples for c in u_full]
        expected = []
        for vi in v_full:
            prod = sum(
                u_phys[j] * np.fft.ifftn(1j * xi[j] * vi).real * to_samples
                for j in range(d)
            )
            expected.append(np.where(inside, np.fft.fftn(prod) * to_coeffs, 0.0))

        def half(arrays):
            return VectorField(tuple(SpectralField(grid, a[..., :h]) for a in arrays))

        adv = advect(half(u_full), half(v_full))
        for a, e in zip(adv, expected):
            assert np.max(np.abs(a.coeffs - e[..., :h])) <= 1e-13 * np.max(np.abs(e))

    def test_grid_mismatch_rejected(self, grid, rng):
        other = Grid(2, 64, 1.5)
        u = random_vector_field(grid, rng, band=5)
        v = random_vector_field(other, rng, band=5)
        with pytest.raises(ConfigError):
            advect(u, v)


class TestLpNorms:
    def test_constant(self, grid):
        f = RealField(grid, np.ones(grid.shape))
        for p in (1.0, 2.0, 3.0):
            assert lp_norm(f, p) == pytest.approx(grid.L ** (2.0 / p), rel=1e-12)

    def test_cosine_closed_form(self, grid):
        x = grid.x_1d
        f = RealField(grid, np.cos(x / grid.R)[:, None] + 0.0 * x[None, :])
        assert lp_norm(f, 2.0) == pytest.approx(grid.L / np.sqrt(2.0), rel=1e-12)

    def test_sup_norm_of_cosine(self, grid):
        x = grid.x_1d
        f = RealField(grid, np.cos(x / grid.R)[:, None] + 0.0 * x[None, :])
        assert lp_norm(f, np.inf) == pytest.approx(1.0, rel=1e-12)

    def test_sup_norm_oversampling_reduces_underestimate(self):
        # a high-mode phase-shifted cosine peaks between samples; the
        # refined evaluation lattice must narrow the gap to the true sup 1
        g = Grid(2, 32, 1.0)
        x = g.x_1d
        # peak sits exactly halfway between coarse samples of the carrier
        f = RealField(g, np.cos(8 * x + np.pi / 4)[:, None] + 0.0 * x[None, :])
        grid_max = float(np.abs(f.samples).max())
        refined = lp_norm(f, np.inf)
        assert grid_max < 0.75
        assert refined == pytest.approx(1.0, rel=1e-12)

    def test_vector_uses_pointwise_magnitude(self, grid):
        a = RealField(grid, np.full(grid.shape, 3.0))
        b = RealField(grid, np.full(grid.shape, 4.0))
        assert lp_norm([a, b], np.inf) == pytest.approx(5.0, rel=1e-12)

    def test_invalid_exponent(self, grid):
        f = RealField(grid, np.ones(grid.shape))
        with pytest.raises(ValueError):
            lp_norm(f, 0.5)


class TestTranslate:
    def test_zero_shift_identity(self, grid, rng):
        F = to_spectral(random_real_field(grid, rng))
        G = translate(F, (0.0, 0.0))
        assert np.max(np.abs(G.coeffs - F.coeffs)) == 0.0

    def test_full_period_identity(self, grid, rng):
        F = to_spectral(random_real_field(grid, rng))
        G = translate(F, (grid.L, 0.0))
        assert np.max(np.abs(G.coeffs - F.coeffs)) <= 1e-12 * np.max(np.abs(F.coeffs))

    def test_isometry(self, grid, rng):
        F = to_spectral(random_real_field(grid, rng))
        G = translate(F, (0.3, -1.2))
        assert l2_norm_spectral(G) == pytest.approx(l2_norm_spectral(F), rel=1e-12)

    def test_matches_physical_shift_by_one_cell(self, grid, rng):
        f = random_real_field(grid, rng)
        F = to_spectral(f)
        G = translate(F, (grid.dx, 0.0))
        shifted = to_physical(G)
        assert np.max(
            np.abs(shifted.samples - np.roll(f.samples, 1, axis=0))
        ) <= 1e-11 * np.max(np.abs(f.samples))


class TestBernsteinBracket:
    def test_annulus_derivative_bracket(self, rng):
        g = Grid(2, 128, 1.0)
        lam = 16.0
        F = to_spectral(RealField(g, rng.standard_normal(g.shape)))
        inside = (g.k_mag >= 0.75 * lam) & (g.k_mag <= (8.0 / 3.0) * lam)
        F = SpectralField(g, np.where(inside, F.coeffs, 0.0))
        nf = l2_norm_spectral(F)
        ng = np.sqrt(sum(l2_norm_spectral(c) ** 2 for c in gradient(F)))
        assert (0.75 * lam) * (1 - 1e-12) <= ng / nf <= (8.0 / 3.0 * lam) * (1 + 1e-12)


class TestQSymmetry:
    def test_gradient_part_symmetric_in_arguments(self, rng):
        g = Grid(2, 128, 1.0)
        stream_band = g.dealias_keep // 2
        keep = np.abs(g.modes_1d) <= stream_band

        def stream():
            F = to_spectral(RealField(g, rng.standard_normal(g.shape)))
            mask = keep[:, None] & keep[None, : g.spectral_shape[-1]]
            return SpectralField(g, np.where(mask, F.coeffs, 0.0))

        u, v = perp_gradient(stream()), perp_gradient(stream())
        a, b = advect(u, v), advect(v, u)
        qa, qb = leray_complement(a), leray_complement(b)
        scale = max(vf_norm(a), vf_norm(b))
        assert vf_diff_norm(qa, qb) <= 1e-11 * scale
