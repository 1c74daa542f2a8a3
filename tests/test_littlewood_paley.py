import numpy as np
import pytest

from invlab.constructions import ShellDatum, shell_velocity
from invlab.errors import ConfigError, NumericsError
from invlab.littlewood_paley import (
    BesovParams,
    besov_from_blocks,
    besov_norm,
    block_lp_norms,
    build_partition,
    dyadic_block,
    field_support_range,
    low_pass,
    radial_cutoff,
    smooth_ramp,
)
from invlab.spectral import (
    Grid,
    SpectralField,
    _inverse,
    l2_norm_spectral,
    lp_norm,
)

from conftest import (
    ball_mask,
    gathered,
    random_real_field,
    random_vector_field,
    spectral_of,
)


class TestCutoffs:
    def test_low_cutoff_plateau_and_support(self):
        part = build_partition(Grid(2, 32, 1.0))
        assert part.theta(np.array([0.5]))[0] == 1.0
        assert part.theta(np.array([0.75]))[0] == 1.0
        assert part.theta(np.array([1.5]))[0] == 0.0
        assert part.theta(np.array([4.0 / 3.0]))[0] == 0.0
        mid = part.theta(np.array([1.0]))[0]
        assert 0.0 < mid < 1.0

    def test_shell_cutoff_plateau(self):
        part = build_partition(Grid(2, 32, 1.0))
        assert part.phi(np.array([1.4]))[0] == 1.0
        for r in (4.0 / 3.0, 1.5):
            assert part.phi(np.array([r]))[0] == 1.0
        assert part.phi(np.array([0.7]))[0] == 0.0
        assert part.phi(np.array([2.7]))[0] == 0.0

    def test_partition_lives_as_long_as_its_grid(self):
        # built once per Grid instance, counted by cache_info, and freed with
        # the grid: an unbounded cache would keep the partition of every grid
        import gc
        import weakref

        g = Grid(2, 64, 1.0)
        before = build_partition.cache_info()
        part = build_partition(g)
        assert build_partition(g) is part
        assert build_partition(Grid(2, 64, 1.0)) is not part  # another instance
        after = build_partition.cache_info()
        assert (after.hits - before.hits, after.misses - before.misses) == (1, 2)
        part.block(0)  # a cached block multiplier goes with it
        ref = weakref.ref(part)
        del g, part
        gc.collect()
        assert ref() is None

    def test_ramp_is_monotone(self):
        u = np.linspace(-0.5, 1.5, 201)
        v = smooth_ramp(u)
        assert (np.diff(v) >= 0).all()
        assert v[0] == 0.0 and v[-1] == 1.0

    def test_ramp_matches_reference_bump_quotient_bitwise(self):
        # reference: both bumps over the whole array, the quotient on 0 < u < 1
        def bump(u):
            out = np.zeros_like(u)
            pos = u > 0
            with np.errstate(over="ignore", under="ignore"):
                out[pos] = np.exp(-1.0 / u[pos])
            return out

        edges = [0.0, 1.0, np.inf, -np.inf, 5e-324, 1.0 - 2.0**-53]
        edges += [np.nextafter(x, d) for x in (0.0, 1.0) for d in (-1.0, 2.0)]
        u = np.concatenate([np.linspace(-2.0, 3.0, 100_001), edges])
        b0, b1 = bump(u), bump(1.0 - u)
        ref = np.empty_like(u)
        lo, hi = u <= 0.0, u >= 1.0
        mid = ~(lo | hi)
        ref[lo], ref[hi] = 0.0, 1.0
        ref[mid] = b0[mid] / (b0[mid] + b1[mid])
        assert np.array_equal(smooth_ramp(u), ref)
        assert np.isnan(smooth_ramp(np.array([np.nan]))).all()

    @pytest.mark.parametrize("u", [0.3, -0.5, 0.0, 1.0, 2.5])
    def test_ramp_of_a_scalar(self, u):
        # a float, an np.float64 and a 0-d array give the value of the
        # one-element array
        (ref,) = smooth_ramp(np.array([u]))
        for form in (u, np.float64(u), np.array(u)):
            v = smooth_ramp(form)
            assert np.shape(v) == () and v == ref
        assert radial_cutoff(u) == radial_cutoff(np.array([u]))[0]

    def test_cutoff_general_bounds(self):
        r = np.linspace(0, 3, 301)
        v = radial_cutoff(r, 0.5, 2.0)
        assert ((v >= 0) & (v <= 1)).all()
        assert (v[r <= 0.5] == 1.0).all()
        assert (v[r >= 2.0] == 0.0).all()

    def test_telescoping_partition_of_unity(self, lab_grid):
        part = build_partition(lab_grid)
        k = lab_grid.k_mag
        total = part.theta(k).copy()
        for j in range(0, part.j_max + 1):
            total += part.phi(k / 2.0**j)
        covered = k <= part.coverage_radius
        assert np.max(np.abs(total[covered] - 1.0)) <= 1e-12
        tail = part.theta(k / 2.0 ** (part.j_max + 1))
        assert np.max(np.abs(total - tail)) <= 1e-12

    def test_j_max_covers_nyquist(self, lab_grid):
        part = build_partition(lab_grid)
        assert 0.75 * 2.0 ** (part.j_max + 1) >= lab_grid.nyquist
        assert 0.75 * 2.0**part.j_max < lab_grid.nyquist


class TestBlocks:
    def test_negative_index_rejected(self, grid, rng):
        F = spectral_of(grid, random_real_field(grid, rng))
        with pytest.raises(ValueError):
            dyadic_block(-2, F)

    def test_constant_lives_in_low_block(self, grid):
        coeffs = np.zeros(grid.spectral_shape, dtype=complex)
        coeffs[0, 0] = grid.L**2
        F = SpectralField(grid, coeffs)
        assert np.array_equal(dyadic_block(-1, F).coeffs, F.coeffs)
        assert l2_norm_spectral(dyadic_block(0, F)) == 0.0

    def test_single_block_property_of_shell_data(self, bp):
        for n, N in ((3, 512), (4, 1024)):
            g = Grid(2, N, 12.0)
            part = build_partition(g)
            u0 = shell_velocity(ShellDatum(n, bp), g)
            scale = l2_norm_spectral(u0)
            own = dyadic_block(n, u0)
            diff = np.sqrt(np.sum(np.abs(own.coeffs - u0.coeffs) ** 2)) / g.L
            assert diff <= 1e-12 * scale
            for j in range(-1, part.j_max + 1):
                if j != n:
                    assert (
                        l2_norm_spectral(dyadic_block(j, u0))
                        <= 1e-12 * scale
                    )

    def test_low_pass_annihilates_own_shell(self, bp, lab_grid):
        u0 = shell_velocity(ShellDatum(3, bp), lab_grid)
        out = low_pass(3, u0)
        assert l2_norm_spectral(out) <= 1e-12 * l2_norm_spectral(u0)

    def test_low_pass_keeps_low_frequencies(self, lab_grid, rng):
        F = spectral_of(lab_grid, random_real_field(lab_grid, rng))
        keep = lab_grid.k_mag <= 0.75 * 2.0**3
        F = SpectralField(lab_grid, np.where(keep, F.coeffs, 0.0))
        out = low_pass(3, F)
        assert np.max(np.abs(out.coeffs - F.coeffs)) <= 1e-14 * np.max(
            np.abs(F.coeffs)
        )

    def test_almost_orthogonality(self, grid, rng):
        part = build_partition(grid)
        F = spectral_of(grid, random_real_field(grid, rng))
        nf = l2_norm_spectral(F)
        for j in range(-1, part.j_max + 1):
            bj = dyadic_block(j, F)
            for j2 in range(-1, part.j_max + 1):
                if abs(j - j2) >= 2:
                    assert (
                        l2_norm_spectral(dyadic_block(j2, bj)) <= 1e-12 * nf
                    )

    def test_block_sum_reconstructs_band_limited_field(self, grid, rng):
        part = build_partition(grid)
        F = spectral_of(grid, random_real_field(grid, rng))
        keep = grid.k_mag <= part.coverage_radius
        F = SpectralField(grid, np.where(keep, F.coeffs, 0.0))
        total = np.zeros(grid.spectral_shape, dtype=complex)
        for j in range(-1, part.j_max + 1):
            total += dyadic_block(j, F).coeffs
        assert np.max(np.abs(total - F.coeffs)) <= 1e-12 * np.max(np.abs(F.coeffs))


BOX_GRIDS = [Grid(2, N, R) for N in (64, 512) for R in (1.0, 12.0)]


def _full_grid_multipliers(part):
    """(kind, order, cached (box, values), full-grid reference) of every block
    and of the low-pass orders -2 .. 5."""
    k = part.grid.k_mag
    for j in range(-1, part.j_max + 1):
        ref = part.theta(k) if j == -1 else part.phi(k / 2.0**j)
        yield "block", j, part.block(j), ref
    for n in range(-2, 6):
        yield "low", n, part.low_pass(n), part.theta(k / 2.0**n)


class TestMultiplierBoxes:
    """Each multiplier is cached on the smallest box that holds its support."""

    @pytest.mark.parametrize("g", BOX_GRIDS, ids=lambda g: f"N{g.N}-R{g.R:g}")
    def test_reference_vanishes_outside_box_and_matches_inside(self, g):
        for kind, order, (box, vals), ref in _full_grid_multipliers(build_partition(g)):
            inside = np.zeros(g.spectral_shape, dtype=bool)
            inside[box] = True
            assert not ref[~inside].any(), (kind, order)
            assert ref[box].tobytes() == vals.tobytes(), (kind, order)

    @pytest.mark.parametrize("g", BOX_GRIDS, ids=lambda g: f"N{g.N}-R{g.R:g}")
    def test_ball_box_is_the_ball(self, g):
        # the box of radius dealias_keep holds the 2/3-rule ball and nothing else
        inside = np.zeros(g.spectral_shape, dtype=bool)
        inside[g.box(g.dealias_keep)] = True
        assert np.array_equal(inside, ball_mask(g))

    @pytest.mark.parametrize("g", BOX_GRIDS, ids=lambda g: f"N{g.N}-R{g.R:g}")
    def test_block_and_low_pass_equal_reference_products(self, g, rng):
        V = random_vector_field(g, rng, band=g.dealias_keep)
        for kind, order, _, ref in _full_grid_multipliers(build_partition(g)):
            got = dyadic_block(order, V) if kind == "block" else low_pass(order, V)
            assert np.array_equal(got.coeffs, ref * V.coeffs), (kind, order)

    @pytest.mark.parametrize("g", BOX_GRIDS, ids=lambda g: f"N{g.N}-R{g.R:g}")
    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_block_norms_equal_norms_of_reference_blocks(self, g, p, rng):
        V = random_vector_field(g, rng, band=g.dealias_keep)
        part = build_partition(g)
        got = block_lp_norms(V, p)
        for kind, j, _, ref in _full_grid_multipliers(part):
            if kind == "block":
                want = lp_norm(SpectralField(g, ref * V.coeffs), p)
                assert got[j + 1] == pytest.approx(want, rel=1e-14, abs=0.0), j

    def test_cached_bytes_stay_small(self):
        # 28.1 MiB as full half-spectrum arrays
        part = build_partition(Grid(2, 1024, 12.0))
        cached = sum(vals.nbytes for _, vals in map(part.block, range(-1, part.j_max + 1)))
        assert cached <= 10 * 2**20

    @pytest.mark.parametrize("g", BOX_GRIDS, ids=lambda g: f"N{g.N}-R{g.R:g}")
    def test_stacked_multipliers_are_the_block_values(self, g):
        # one theta per scale, block j the difference of two: bitwise the
        # values of theta and phi that the boxes of the half-spectrum hold
        part = build_partition(g)
        stacked = part.multipliers(g.k_mag)
        assert stacked.shape == (part.j_max + 2,) + g.spectral_shape
        for j in range(-1, part.j_max + 1):
            box, vals = part.block(j)
            assert stacked[j + 1][box].tobytes() == vals.tobytes(), j

    def test_low_pass_is_computed_on_each_call(self):
        # the experiments ask for each low-pass about once: none is kept
        part = build_partition(Grid(2, 64, 12.0))
        first, again = part.low_pass(1)[1], part.low_pass(1)[1]
        assert first is not again and np.array_equal(first, again)


class TestBesovParams:
    def test_admissible_triples(self):
        BesovParams(3.0, 2.0, 2.0, 2).validate()
        BesovParams(2.0, 2.0, 1.0, 2).validate()  # borderline with r = 1

    def test_inadmissible_triples(self):
        with pytest.raises(ConfigError):
            BesovParams(2.0, 2.0, 2.0, 2).validate()  # needs s > 2
        with pytest.raises(ConfigError):
            BesovParams(3.0, 2.0, np.inf, 2).validate()  # r must be finite
        with pytest.raises(ConfigError):
            BesovParams(3.0, 0.5, 2.0, 2)  # p below 1


class TestBesovNorm:
    def test_zero_field(self, grid, bp):
        F = SpectralField(grid, np.zeros(grid.spectral_shape, dtype=complex))
        assert besov_norm(F, bp) == 0.0

    def test_single_shell_value(self, bp, lab_grid):
        # one active block makes the norm an exact power-weighted L^p norm
        u0 = shell_velocity(ShellDatum(3, bp), lab_grid)
        for sigma in (bp.s - 1, bp.s, bp.s + 1):
            expected = 2.0 ** (3 * sigma) * lp_norm(u0, bp.p)
            got = besov_norm(u0, BesovParams(sigma, bp.p, bp.r, bp.d))
            assert got == pytest.approx(expected, rel=1e-12)

    def test_scaling_across_family(self, bp):
        vals = {}
        for n, N in ((3, 512), (4, 1024), (5, 2048)):
            g = Grid(2, N, 12.0)
            u0 = shell_velocity(ShellDatum(n, bp), g)
            for sigma in (bp.s - 1.0, bp.s, bp.s + 1.0):
                v = besov_norm(u0, BesovParams(sigma, bp.p, bp.r, bp.d))
                vals[(n, sigma)] = v / 2.0 ** (n * (sigma - bp.s))
        for sigma in (bp.s - 1.0, bp.s, bp.s + 1.0):
            family = [vals[(n, sigma)] for n in (3, 4, 5)]
            assert max(family) / min(family) <= 1.05

    def test_translation_invariance(self, bp, lab_grid):
        from invlab.spectral import translate

        u0 = shell_velocity(ShellDatum(3, bp), lab_grid)
        moved = translate(u0, (lab_grid.L / 2, 0.0))
        assert besov_norm(moved, bp) == pytest.approx(
            besov_norm(u0, bp), rel=1e-12
        )

    def test_ell_infinity_summation(self, grid, rng):
        part = build_partition(grid)
        F = spectral_of(grid, random_real_field(grid, rng))
        keep = grid.k_mag <= part.coverage_radius
        F = SpectralField(grid, np.where(keep, F.coeffs, 0.0))
        blocks = block_lp_norms(F, 2.0)
        bp_inf = BesovParams(1.5, 2.0, np.inf, 2)
        j = np.arange(-1, len(blocks) - 1)
        assert besov_from_blocks(blocks, bp_inf) == pytest.approx(
            float(np.max(2.0 ** (1.5 * j) * blocks)), rel=1e-13
        )

    def test_unresolved_support_warns(self, grid, rng):
        F = spectral_of(grid, random_real_field(grid, rng))  # corners exceed coverage
        with pytest.warns(UserWarning, match="exceeds the exactly resolved"):
            besov_norm(F, BesovParams(1.5, 2.0, 2.0, 2))

    def test_non_finite_coefficient_is_numeric_error(self, bp):
        # a degenerate value, not a configuration problem (CLI exit 3, not 2)
        g = Grid(2, 32, 1.0)
        coeffs = np.zeros(g.spectral_shape, dtype=complex)
        coeffs[1, 0] = np.nan
        with pytest.raises(NumericsError, match="non-finite"):
            besov_norm(SpectralField(g, coeffs), bp)

    @pytest.mark.parametrize(
        "index, value",
        # outside every box the support reaches, in the component that sets
        # the support or in the other one; and a block sum that overflows
        [((0, 10, 5), np.nan), ((1, 10, 5), np.nan), ((1, 10, 5), np.inf), ((0, 1, 0), 1e200)],
    )
    def test_non_finite_anywhere_is_numeric_error(self, bp, index, value):
        g = Grid(2, 32, 1.0)
        coeffs = np.zeros((2,) + g.spectral_shape, dtype=complex)
        coeffs[0, 1, 0] = 1.0
        coeffs[index] = value
        with np.errstate(over="ignore"), pytest.raises(NumericsError, match="non-finite"):
            besov_norm(SpectralField(g, coeffs), bp)

    def test_plancherel_oracle_at_p2(self, bp, lab_grid):
        # the coefficient sums against the physical quadrature of each block
        u0 = shell_velocity(ShellDatum(3, bp), lab_grid)
        part = build_partition(lab_grid)
        impl = block_lp_norms(u0, 2.0)
        for j in range(-1, part.j_max + 1):
            blk = dyadic_block(j, u0)
            sq = sum(_inverse(c, lab_grid) ** 2 for c in blk.coeffs)
            oracle = np.sqrt(lab_grid.dx**2 * np.sum(sq))
            assert impl[j + 1] == pytest.approx(oracle, rel=1e-10, abs=1e-22)

    def test_support_range_helper(self, lab_grid, bp):
        u0 = shell_velocity(ShellDatum(3, bp), lab_grid)
        lo, hi = field_support_range(u0)
        assert 4.0 / 3.0 * 8 <= lo <= hi <= 1.5 * 8


class TestBlockSpectrumReport:
    """The block spectrum 2**(j s) ||Delta_j u||_p from block_lp_norms."""

    def test_single_shell_has_one_entry(self, bp, lab_grid):
        u0 = shell_velocity(ShellDatum(3, bp), lab_grid)
        blocks = block_lp_norms(u0, bp.p)
        assert list(np.flatnonzero(blocks) - 1) == [3]

    def test_power_sum_matches_norm(self, grid, rng, bp):
        part = build_partition(grid)
        F = spectral_of(grid, random_real_field(grid, rng))
        keep = grid.k_mag <= part.coverage_radius
        F = SpectralField(grid, np.where(keep, F.coeffs, 0.0))
        blocks = block_lp_norms(F, bp.p)
        j = np.arange(-1, len(blocks) - 1)
        total = np.sum((2.0 ** (j * bp.s) * blocks) ** bp.r) ** (1.0 / bp.r)
        assert total == pytest.approx(besov_norm(F, bp), rel=1e-12)

    def test_two_shell_field_has_two_entries(self, bp):
        g = Grid(2, 256, 1.0)
        coeffs = np.zeros(g.spectral_shape, dtype=complex)
        for m in (3, 12):  # |xi| = 3 in block 1, |xi| = 12 in block 3
            coeffs[m, 0] = 1.0
            coeffs[-m, 0] = 1.0
        F = SpectralField(g, coeffs)
        assert list(np.flatnonzero(block_lp_norms(F, bp.p)) - 1) == [1, 3]


class TestProductLawConstants:
    """validate's product laws take u0 . grad u0 and its gradient part on the
    envelopes of the datum of order 2 (``ExperimentContext.box_datum``, on
    the grid whose ball holds the product); on that grid's half-spectrum they are
    ``spectral.advect`` and ``leray_complement``."""

    @pytest.mark.parametrize("n, N", [(3, 1024), (4, 2048)])
    def test_layout_product_is_the_ball_product(self, bp, n, N):
        from invlab.experiments import ExperimentConfig, ExperimentContext
        from invlab.spectral import advect, leray_complement

        ctx = ExperimentContext(ExperimentConfig(n_list=(n,), N=N))
        u0 = ctx.box_datum(n, order=2)
        lay, g = u0.layout, u0.grid
        assert (g.N, lay.H, lay.M) == (N, 2, 32)
        ball = shell_velocity(ShellDatum(n, bp), g)
        # the datum born on the boxes is the ball's datum gathered to them
        assert np.array_equal(u0.coeffs, gathered(lay, ball).coeffs)
        pa = advect(ball, ball)
        # Each coefficient of u . grad v is a sum of terms u_j(k) (i xi_j)
        # v_i(m - k) / L^2 whose magnitudes add up to at most A below (the
        # half-spectrum holds half of each l1 norm, so twice its sum bounds
        # it).  The transforms of either route round each coefficient by at
        # most about eps log2(N^2) of the l1 mass they sum; the leray
        # complement is a contraction per mode.  So both routes lie within
        # eps log2(N^2) A of the exact product, which holds no mode outside
        # the boxes (the layout's entries are exactly 0 there).
        l1 = lambda c: 2.0 * float(np.sum(np.abs(c)))
        A = sum(
            l1(ball.coeffs[j]) * l1(g.freq_axis(j) * ball.coeffs[i])
            for i in range(2) for j in range(2)
        ) / g.L**2
        bound = np.finfo(float).eps * np.log2(N**2) * A
        got = lay.advect(u0, u0)
        assert np.max(np.abs(got.spectral().coeffs - pa.coeffs)) <= bound
        q = lay.gradient_part(got).spectral().coeffs
        assert np.max(np.abs(q - leray_complement(pa).coeffs)) <= 2.0 * bound
        # a wrong harmonic would miss by the size of the product itself
        assert 1e6 * bound < np.max(np.abs(pa.coeffs))
