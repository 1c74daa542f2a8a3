import types

import numpy as np
import pytest

from invlab.errors import ConfigError, NumericsError, ResolutionError
from invlab.littlewood_paley import (
    BesovParams,
    besov_from_blocks,
    besov_norm,
    block_lp_norms,
    build_partition,
    dyadic_block,
)
from invlab.spectral import (
    Grid,
    SpectralField,
    _forward,
    _inverse,
    advect,
    apply_multiplier,
    curl,
    divergence,
    divergence_defect,
    gradient,
    heat_propagate,
    l2_norm_spectral,
    leray_complement,
    leray_project,
    lp_norm,
    perp_gradient,
    translate,
)

from conftest import (
    ball_mask,
    half_spectrum_weights,
    random_real_field,
    random_vector_field,
    spectral_of,
)


def vf_diff_norm(a, b):
    return np.sqrt(np.sum(np.abs(a.coeffs - b.coeffs) ** 2))


def vf_norm(a):
    return np.sqrt(np.sum(np.abs(a.coeffs) ** 2))


class TestFieldLayout:
    def test_shapes_other_than_scalar_or_d_components_rejected(self, grid):
        ok = np.zeros(grid.spectral_shape, dtype=complex)
        assert SpectralField(grid, ok).coeffs.ndim == 2
        assert SpectralField(grid, np.stack([ok, ok])).coeffs.shape[0] == grid.d
        for shape in ((3,) + grid.spectral_shape, grid.shape):
            with pytest.raises(ConfigError, match="half-spectrum shape"):
                SpectralField(grid, np.zeros(shape, dtype=complex))

    def test_vector_operations_equal_their_components_bitwise(self, grid, rng, bp):
        V = random_vector_field(grid, rng, band=grid.dealias_keep)
        comps = [SpectralField(grid, c) for c in V.coeffs]
        factor = np.exp(-0.3 * grid.k_sq)
        for op in (lambda F: apply_multiplier(F, factor), lambda F: translate(F, (0.4, -1.1))):
            whole = op(V).coeffs
            for i, c in enumerate(comps):
                assert np.array_equal(whole[i], op(c).coeffs)
        # the Parseval sum runs one component after the other
        total = 0.0
        for c in V.coeffs:
            sq = np.abs(c) ** 2
            total += 2.0 * float(np.sum(sq[..., 1:-1])) + float(np.sum(sq[..., 0]))
            total += float(np.sum(sq[..., -1]))
        assert l2_norm_spectral(V) == float(np.sqrt(total / grid.L**2))
        # at p = 2 a block's norm is the Parseval sum over the block's box,
        # no samples; the box's columns keep their weights 1, 2 .. 2, 1
        part = build_partition(grid)
        js = range(-1, part.j_max + 1)
        h = grid.N // 2
        blocks = []
        for j in js:
            box, vals = part.block(j)
            total = 0.0
            for c in V.coeffs:
                sq = np.abs(c[box] * vals) ** 2
                total += (
                    2.0 * float(np.sum(sq[..., 1:h]))
                    + float(np.sum(sq[..., 0]))
                    + float(np.sum(sq[..., h:]))
                )
            blocks.append(float(np.sqrt(total / grid.L**2)))
        assert np.array_equal(block_lp_norms(V, 2.0), blocks)
        # the same norm as the block field's, up to the order of the sum
        whole = [l2_norm_spectral(dyadic_block(j, V)) for j in js]
        np.testing.assert_allclose(blocks, whole, rtol=1e-14, atol=0)
        # at any other p it takes the pointwise magnitude of the components,
        # their squares summed in component order
        bp3 = BesovParams(3.0, 3.0, 2.0, 2)
        blocks = []
        for j in js:
            sq = np.zeros(grid.shape)
            for c in comps:
                sq += _inverse(dyadic_block(j, c).coeffs, grid) ** 2
            blocks.append(float((grid.dx**2 * np.sum(np.sqrt(sq) ** bp3.p)) ** (1.0 / bp3.p)))
        assert besov_norm(V, bp3) == besov_from_blocks(np.array(blocks), bp3)


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
        c = _forward(np.ones(grid.shape), grid)
        assert c[0, 0] == pytest.approx(grid.L**2, rel=1e-13)
        other = np.abs(c).sum() - abs(c[0, 0])
        assert other <= 1e-10 * grid.L**2

    def test_single_cosine_mode(self, grid):
        x = grid.x_1d
        c = _forward(np.cos(x / grid.R)[:, None] + 0.0 * x[None, :], grid)
        assert c[1, 0] == pytest.approx(grid.L**2 / 2, rel=1e-12)
        assert c[-1, 0] == pytest.approx(grid.L**2 / 2, rel=1e-12)

    def test_round_trip_random(self, grid, rng):
        f = random_real_field(grid, rng)
        back = _inverse(_forward(f, grid), grid)
        assert np.max(np.abs(back - f)) <= 1e-12 * np.max(np.abs(f))

    def test_parseval(self, grid, rng):
        f = random_real_field(grid, rng)
        F = spectral_of(grid, f)
        phys = grid.dx**2 * np.sum(f**2)
        spec = np.sum(half_spectrum_weights(grid) * np.abs(F.coeffs) ** 2) / grid.L**2
        assert phys == pytest.approx(spec, rel=1e-12)
        assert l2_norm_spectral(F) ** 2 == pytest.approx(phys, rel=1e-12)


class TestDerivatives:
    def test_gradient_of_constant(self, grid):
        F = spectral_of(grid, np.ones(grid.shape))
        G = gradient(F)
        assert vf_norm(G) <= 1e-12

    def test_perp_gradient_is_divergence_free(self, grid, rng):
        F = spectral_of(grid, random_real_field(grid, rng))
        V = perp_gradient(F)
        assert divergence_defect(V) <= 1e-12

    def test_biot_savart_inverts_curl(self, grid, rng):
        # u = perp_grad psi has curl Lap psi and no mean: the multipliers give
        # u back from its curl, and vanish at xi = 0
        F = spectral_of(grid, random_real_field(grid, rng))
        u = perp_gradient(F)
        w = curl(u)
        assert np.max(np.abs(w.coeffs + grid.k_sq * F.coeffs)) <= 1e-12 * np.max(
            np.abs(w.coeffs)
        )
        for b, c in zip(grid.biot_savart, u.coeffs):
            assert b[0, 0] == 0.0
            assert np.max(np.abs(b * w.coeffs - c)) <= 1e-13 * np.max(np.abs(c))

    def test_divergence_matches_gradient_sum(self, grid, rng):
        V = random_vector_field(grid, rng)
        div = divergence(V)
        manual = sum(gradient(SpectralField(grid, c)).coeffs[i] for i, c in enumerate(V.coeffs))
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
        V = SpectralField(g, np.stack([coeffs, 0 * coeffs]))
        W = heat_propagate(V, 1.0, 0.25)
        assert W.coeffs[0, 2, 0] == pytest.approx(np.exp(-1.0), rel=1e-14)

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
        impl = l2_norm_spectral(SpectralField(lab_grid, moved.coeffs - u0.coeffs))
        factor = np.exp(-t * eps * lab_grid.k_sq) - 1.0
        w = half_spectrum_weights(lab_grid)
        oracle = np.sqrt(np.sum(w * np.abs(factor * u0.coeffs) ** 2) / lab_grid.L**2)
        assert impl == pytest.approx(oracle, rel=1e-10)


class TestLerayProjection:
    def test_divergence_free_fixed(self, grid, rng):
        F = spectral_of(grid, random_real_field(grid, rng))
        V = perp_gradient(F)
        P = leray_project(V)
        assert vf_diff_norm(P, V) <= 1e-12 * vf_norm(V)

    def test_gradient_killed(self, grid, rng):
        G = gradient(spectral_of(grid, random_real_field(grid, rng)))
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
        total = SpectralField(grid, P.coeffs + Q.coeffs)
        assert vf_diff_norm(total, V) <= 1e-13 * vf_norm(V)
        assert vf_norm(leray_complement(P)) <= 1e-13 * vf_norm(V)
        assert divergence_defect(P) <= 1e-12

    def test_mean_mode_passes_through_projection(self, grid):
        coeffs = np.zeros(grid.spectral_shape, dtype=complex)
        coeffs[0, 0] = 3.0
        V = SpectralField(grid, np.stack([coeffs, 2.0 * coeffs]))
        P = leray_project(V)
        Q = leray_complement(V)
        assert P.coeffs[0, 0, 0] == 3.0 and P.coeffs[1, 0, 0] == 6.0
        assert Q.coeffs[0, 0, 0] == 0.0


class TestAdvection:
    def test_constant_advecting_field(self, grid, rng):
        c = (0.7, -1.3)
        arr = np.zeros((2,) + grid.spectral_shape, dtype=complex)
        arr[:, 0, 0] = np.array(c) * grid.L**2  # constant functions
        u = SpectralField(grid, arr)
        v = random_vector_field(grid, rng, band=grid.dealias_keep // 2)
        adv = advect(u, v)
        grads = [gradient(SpectralField(grid, vi)).coeffs for vi in v.coeffs]
        expected = [c[0] * gi[0] + c[1] * gi[1] for gi in grads]
        mask = ball_mask(grid)
        for a, e in zip(adv.coeffs, expected):
            assert np.max(np.abs(a - np.where(mask, e, 0.0))) <= 1e-10 * max(
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
        a = advect(SpectralField(grid, 2.5 * u.coeffs), v)
        scaled = SpectralField(grid, 2.5 * advect(u, v).coeffs)
        assert vf_diff_norm(a, scaled) <= 1e-12 * vf_norm(scaled)

    def test_support_violation_reports_required_resolution(self, grid, rng):
        v = random_vector_field(grid, rng)  # full-band field
        with pytest.raises(ResolutionError) as exc:
            advect(v, v)
        assert exc.value.required_n is not None
        assert exc.value.required_n > grid.N

    @pytest.mark.parametrize("nan_in", [0, 1], ids=["nan-first", "nan-second"])
    def test_non_finite_coefficient_in_either_component_is_numeric_error(self, nan_in):
        # a mode far outside the 2/3 ball (|m| = 15 > 10 on N = 32) in one
        # component and a NaN in the other: the NaN is reported, whichever
        # component holds it
        g = Grid(2, 32, 1.0)
        c = np.zeros((2,) + g.spectral_shape, dtype=complex)
        c[1 - nan_in, 15, 15] = 1.0
        c[nan_in, 1, 1] = np.nan
        F = SpectralField(g, c)
        with pytest.raises(NumericsError, match="non-finite"):
            advect(F, F)

    def test_matches_full_spectrum_reference(self, grid, rng):
        # u . grad v from full complex numpy transforms, independent of the
        # half-spectrum layout; only the stored half is compared
        N, d, h = grid.N, grid.d, grid.spectral_shape[-1]
        m = np.fft.fftfreq(N, d=1.0 / N)
        inside = ball_mask(grid, full=True)
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
            return SpectralField(grid, np.stack([a[..., :h] for a in arrays]))

        adv = advect(half(u_full), half(v_full))
        for a, e in zip(adv.coeffs, expected):
            assert np.max(np.abs(a - e[..., :h])) <= 1e-13 * np.max(np.abs(e))

    def test_grid_mismatch_rejected(self, grid, rng):
        other = Grid(2, 64, 1.5)
        u = random_vector_field(grid, rng, band=5)
        v = random_vector_field(other, rng, band=5)
        with pytest.raises(ConfigError):
            advect(u, v)


class TestLpNorms:
    def test_constant(self, grid):
        F = spectral_of(grid, np.ones(grid.shape))
        for p in (1.0, 2.0, 3.0):
            assert lp_norm(F, p) == pytest.approx(grid.L ** (2.0 / p), rel=1e-12)

    def test_cosine_closed_form(self, grid):
        x = grid.x_1d
        F = spectral_of(grid, np.cos(x / grid.R)[:, None] + 0.0 * x[None, :])
        assert lp_norm(F, 2.0) == pytest.approx(grid.L / np.sqrt(2.0), rel=1e-12)

    def test_sup_norm_of_cosine(self, grid):
        x = grid.x_1d
        F = spectral_of(grid, np.cos(x / grid.R)[:, None] + 0.0 * x[None, :])
        assert lp_norm(F, np.inf) == pytest.approx(1.0, rel=1e-12)

    def test_sup_norm_oversampling_reduces_underestimate(self):
        # a high-mode phase-shifted cosine peaks between samples; the
        # refined evaluation lattice must narrow the gap to the true sup 1
        g = Grid(2, 32, 1.0)
        x = g.x_1d
        # peak sits exactly halfway between coarse samples of the carrier
        samples = np.cos(8 * x + np.pi / 4)[:, None] + 0.0 * x[None, :]
        grid_max = float(np.abs(samples).max())
        refined = lp_norm(spectral_of(g, samples), np.inf)
        assert grid_max < 0.75
        assert refined == pytest.approx(1.0, rel=1e-12)

    def test_vector_uses_pointwise_magnitude(self, grid):
        V = SpectralField(
            grid,
            np.stack([spectral_of(grid, np.full(grid.shape, v)).coeffs for v in (3.0, 4.0)]),
        )
        assert lp_norm(V, np.inf) == pytest.approx(5.0, rel=1e-12)

    @pytest.mark.parametrize("vector", [False, True], ids=["scalar", "vector"])
    def test_p2_equals_physical_quadrature(self, grid, rng, vector):
        # Parseval on the half-spectrum against the sampled sum of squares
        if vector:
            F = random_vector_field(grid, rng)
            comps = F.coeffs
        else:
            F = spectral_of(grid, rng.standard_normal(grid.shape))
            comps = [F.coeffs]
        sq = sum(_inverse(c, grid) ** 2 for c in comps)
        assert lp_norm(F, 2.0) == pytest.approx(np.sqrt(grid.dx**2 * np.sum(sq)), rel=1e-13)

    def test_invalid_exponent(self, grid):
        F = spectral_of(grid, np.ones(grid.shape))
        with pytest.raises(ValueError):
            lp_norm(F, 0.5)

    @pytest.mark.parametrize("p", [2.0, np.inf], ids=["p2", "sup"])
    def test_nan_coefficient_is_numeric_error(self, grid, rng, p):
        V = random_vector_field(grid, rng)
        V.coeffs[1, 2, 3] = np.nan
        with pytest.raises(NumericsError, match="non-finite"):
            lp_norm(V, p)

    @pytest.mark.parametrize("p", [2.0, 3.0, np.inf], ids=["p2", "p3", "sup"])
    def test_one_inverse_transform_per_component_and_no_forward(
        self, monkeypatch, grid, rng, p
    ):
        # p = 2 is a sum over the coefficients and transforms nothing; other
        # finite p sample each component once, and the sup norm pads the
        # coefficients and samples them on the 4x finer lattice; no path
        # transforms samples back to coefficients
        import invlab.spectral as spectral

        V = random_vector_field(grid, rng)
        calls = []
        backend = spectral._fft

        def counted(kind, fn):
            def call(*args, **kwargs):
                result = fn(*args, **kwargs)
                calls.append((kind, result.shape))
                return result

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
        lp_norm(V, p)
        N = grid.N * (spectral.OVERSAMPLING if np.isinf(p) else 1)
        assert calls == ([] if p == 2 else [("inverse", (N, N))] * grid.d)


class TestTranslate:
    def test_zero_shift_identity(self, grid, rng):
        F = spectral_of(grid, random_real_field(grid, rng))
        G = translate(F, (0.0, 0.0))
        assert np.max(np.abs(G.coeffs - F.coeffs)) == 0.0

    def test_full_period_identity(self, grid, rng):
        F = spectral_of(grid, random_real_field(grid, rng))
        G = translate(F, (grid.L, 0.0))
        assert np.max(np.abs(G.coeffs - F.coeffs)) <= 1e-12 * np.max(np.abs(F.coeffs))

    def test_isometry(self, grid, rng):
        F = spectral_of(grid, random_real_field(grid, rng))
        G = translate(F, (0.3, -1.2))
        assert l2_norm_spectral(G) == pytest.approx(l2_norm_spectral(F), rel=1e-12)

    def test_matches_physical_shift_by_one_cell(self, grid, rng):
        f = random_real_field(grid, rng)
        G = translate(spectral_of(grid, f), (grid.dx, 0.0))
        shifted = _inverse(G.coeffs, grid)
        assert np.max(np.abs(shifted - np.roll(f, 1, axis=0))) <= 1e-11 * np.max(np.abs(f))


class TestBernsteinBracket:
    def test_annulus_derivative_bracket(self, rng):
        g = Grid(2, 128, 1.0)
        lam = 16.0
        F = spectral_of(g, rng.standard_normal(g.shape))
        inside = (g.k_mag >= 0.75 * lam) & (g.k_mag <= (8.0 / 3.0) * lam)
        F = SpectralField(g, np.where(inside, F.coeffs, 0.0))
        nf = l2_norm_spectral(F)
        ng = l2_norm_spectral(gradient(F))
        assert (0.75 * lam) * (1 - 1e-12) <= ng / nf <= (8.0 / 3.0 * lam) * (1 + 1e-12)


class TestQSymmetry:
    def test_gradient_part_symmetric_in_arguments(self, rng):
        g = Grid(2, 128, 1.0)
        stream_band = g.dealias_keep // 2
        keep = np.abs(g.modes_1d) <= stream_band

        def stream():
            F = spectral_of(g, rng.standard_normal(g.shape))
            mask = keep[:, None] & keep[None, : g.spectral_shape[-1]]
            return SpectralField(g, np.where(mask, F.coeffs, 0.0))

        u, v = perp_gradient(stream()), perp_gradient(stream())
        a, b = advect(u, v), advect(v, u)
        qa, qb = leray_complement(a), leray_complement(b)
        scale = max(vf_norm(a), vf_norm(b))
        assert vf_diff_norm(qa, qb) <= 1e-11 * scale
