"""Band-limited initial data: profile bump, oscillating profile, shell datum.

The velocity datum indexed by a shell number ``n`` is built directly in
frequency space so that its support sits exactly inside the dyadic annulus
``4/3 * 2**n <= |xi| <= 3/2 * 2**n`` on the lattice: a 1-D bump profile is
shifted to the carrier frequency ``17/12 * 2**n`` along the first axis,
multiplied by unshifted bumps along the other axes, and turned into a
divergence-free velocity through the perpendicular gradient.  The amplitude
``2**(-n (s+1))`` makes the B^s norm independent of ``n``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.fft as _fft

from .errors import ConfigError, ResolutionError
from .littlewood_paley import BesovParams, besov_norm, radial_cutoff
from .spectral import (
    Grid,
    SpectralField,
    _conj_mirror,
    dealias_grid_size,
    perp_gradient,
    translate,
)

CARRIER_RATIO = 17.0 / 12.0


@dataclass(frozen=True)
class ProfileBump:
    """Even nonnegative 1-D frequency profile restricted to the axis lattice.

    ``a_hat`` is 1 for |xi| <= inner, 0 for |xi| >= outer, and smooth in
    between (same ramp as the dyadic cutoffs).
    """

    grid: Grid
    inner: float
    outer: float

    @cached_property
    def a_hat(self) -> np.ndarray:
        return radial_cutoff(np.abs(self.grid.freqs_1d), self.inner, self.outer)

    @cached_property
    def max_mode(self) -> int:
        """Largest |m| on the 1-D lattice with a nonzero profile value."""
        nz = self.a_hat > 0.0
        return int(np.abs(self.grid.modes_1d[nz]).max())

    def physical_profile(self) -> np.ndarray:
        """Periodized physical profile on the 1-D sampling lattice."""
        g = self.grid
        return _fft.ifft(self.a_hat).real * (g.N / g.L)

    def lp_norm_1d(self, p: float) -> float:
        g = self.grid
        phi = self.physical_profile()
        if np.isinf(p):
            fine = np.zeros(4 * g.N, dtype=complex)
            half = g.N // 2
            fine[:half] = self.a_hat[:half]
            fine[-half:] = self.a_hat[-half:]
            vals = _fft.ifft(fine).real * (4 * g.N / g.L)
            return float(np.abs(vals).max())
        return float((g.dx * np.sum(np.abs(phi) ** p)) ** (1.0 / p))

    def tail_fraction(self) -> float:
        """Share of the profile's L1 mass outside |x| <= L/2.

        Evaluated on a four-times-larger torus (same sample spacing, same
        frequency profile), where the region beyond the original half period
        exists; small values mean periodizing onto the working torus is
        harmless.
        """
        g = self.grid
        xi = np.abs(np.fft.fftfreq(4 * g.N, d=1.0 / (4 * g.N)) / (4.0 * g.R))
        a_fine = radial_cutoff(xi, self.inner, self.outer)
        phi = np.abs(_fft.ifft(a_fine).real * (g.N / g.L))
        x = (g.L / g.N) * np.arange(4 * g.N)
        dist = np.minimum(x, 4 * g.L - x)
        far = dist > g.L / 2.0
        return float(phi[far].sum() / phi.sum())


def build_profile_bump(grid: Grid) -> ProfileBump:
    """Profile bump with outer support radius 2**-d = 1/4.

    The width keeps the shifted product inside a radius-1/2 ball around the
    carrier: sqrt(2) * 1/4 <= 1/2.
    """
    outer = 2.0**-grid.d
    inner = outer * 2.0**-grid.d
    return ProfileBump(grid=grid, inner=inner, outer=outer)


@dataclass(frozen=True)
class ShellDatum:
    """Parameters generating one frequency-shell velocity datum."""

    n: int
    bp: BesovParams
    shift: float = 0.0

    def __post_init__(self):
        # containment of the shifted bump in the dyadic annulus needs 2^n >= 6
        if self.n < 3:
            raise ConfigError(
                f"shell index must be >= 3 so the datum sits inside its dyadic "
                f"annulus, got n={self.n}"
            )

    @property
    def amplitude(self) -> float:
        return 2.0 ** (-self.n * (self.bp.s + 1.0))


def carrier_mode(n: int, grid: Grid) -> int:
    """Carrier frequency as an integer lattice mode; errors if off-lattice."""
    exact = CARRIER_RATIO * 2.0**n * grid.R
    m = int(round(exact))
    if abs(exact - m) > 1e-9:
        raise ConfigError(
            f"carrier frequency {CARRIER_RATIO}*2^{n} is not on the lattice for "
            f"R={grid.R}; choose R a multiple of 12"
        )
    return m


def oscillating_profile_spectral(
    bump: ProfileBump, n: int, grid: Grid
) -> SpectralField:
    """Frequency-space construction of the carrier-modulated profile.

    The first axis carries the bump shifted to +/- the carrier mode; the
    remaining axes carry the unshifted bump (the last one on its stored half).
    """
    if bump.grid != grid:
        raise ConfigError("bump was built for a different grid")
    cm = carrier_mode(n, grid)
    m_max = cm + bump.max_mode
    if m_max > grid.dealias_keep:
        n_req = dealias_grid_size(m_max)
        raise ResolutionError(
            f"carrier mode {cm} plus bump width {bump.max_mode} exceeds the "
            f"dealias-safe ball |m|<={grid.dealias_keep} of N={grid.N}; "
            f"need N>={n_req}",
            required_n=n_req,
        )
    a1 = bump.a_hat
    axis1 = np.roll(a1, cm) + np.roll(a1, -cm)
    out = axis1.astype(np.complex128)
    for n in grid.spectral_shape[1:]:
        out = np.multiply.outer(out, a1[:n])
    return SpectralField(grid, out)


def shell_velocity(
    datum: ShellDatum, grid: Grid, bump: ProfileBump | None = None
) -> SpectralField:
    """Divergence-free shell velocity for the datum, optionally translated."""
    bump = bump or build_profile_bump(grid)
    F = oscillating_profile_spectral(bump, datum.n, grid)
    if datum.shift != 0.0:
        shift_vec = np.zeros(grid.d)
        shift_vec[0] = datum.shift
        F = translate(F, shift_vec)
    return SpectralField(grid, datum.amplitude * perp_gradient(F).coeffs)


def _vortex_cell(grid: Grid, amplitude: float, k: int) -> np.ndarray:
    """Coefficients of amplitude * (-cos k x1 sin k x2, sin k x1 cos k x2), x/R.

    On the stored half the cell has modes (k, k) and (-k, k) only, each
    +/- i amplitude L^2/4; every other coefficient is exactly zero.
    """
    c = np.zeros((grid.d,) + grid.spectral_shape, dtype=np.complex128)
    a = 0.25j * amplitude * grid.L**grid.d
    c[0, k, k] = c[0, -k, k] = a
    c[1, k, k] = -a
    c[1, -k, k] = a
    return c


def taylor_green(grid: Grid, amplitude: float = 1.0) -> SpectralField:
    """Classical cellular vortex (-cos x1 sin x2, sin x1 cos x2) on the torus.

    Its advection term is a pure gradient, so the projected dynamics are
    linear: the exact solution decays by exp(-2 eps t / R^2).  The (+/-1,
    +/-1) coefficients are set exactly, so nothing lies outside the 2/3 ball.
    """
    return SpectralField(grid, _vortex_cell(grid, amplitude, 1))


def taylor_green_two_mode(grid: Grid, secondary: float = 0.5) -> SpectralField:
    """Two-harmonic vortex superposition with genuinely nonlinear dynamics.

    Each harmonic alone is a steady ideal flow; their cross-advection is not
    a gradient, which makes this the standard field for time-integration
    convergence measurements.  The (+/-1, +/-1) and (+/-2, +/-2)
    coefficients are set exactly, so nothing lies outside the 2/3 ball.
    """
    return SpectralField(grid, _vortex_cell(grid, 1.0, 1) + _vortex_cell(grid, secondary, 2))


def background_mode_extent(band: int, R: float) -> int:
    """Largest lattice mode |m| inside the background band |xi| <= 2**band."""
    return int(2.0**band * R)


def background_field(
    grid: Grid, seed: int, band: int, bp: BesovParams
) -> SpectralField:
    """Random smooth divergence-free field, unit B^s norm, deterministic in seed.

    The stream function gets independent Gaussian coefficients shaped by the
    radial envelope |xi|**-(s+2), band-limited to |xi| <= 2**band; in d=2
    this makes the Besov block profile of the velocity roughly flat.

    The band must lie inside the grid's 2/3 dealias ball: the largest band
    mode floor(2**band * R) may not exceed ``grid.dealias_keep``.  This is
    the rule the experiment harness sizes the background grid by.
    """
    m_band = background_mode_extent(band, grid.R)
    if m_band > grid.dealias_keep:
        raise ConfigError(
            f"background band {band} reaches lattice mode {m_band}, beyond the "
            f"dealias-safe ball |m|<={grid.dealias_keep} of N={grid.N}; "
            f"need floor(2**band * R) <= (N-1)//3"
        )
    rng = np.random.default_rng(seed)
    # drawn on the full lattice and symmetrized there, so the stored half is
    # the spectrum of a real field
    raw = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    raw = 0.5 * (raw + _conj_mirror(raw))[..., : grid.spectral_shape[-1]]
    kmag = grid.k_mag
    mask = (kmag > 0.0) & (kmag <= 2.0**band)
    envelope = np.zeros(grid.spectral_shape)
    envelope[mask] = kmag[mask] ** (-(bp.s + 2.0))
    stream = SpectralField(grid, raw * envelope)
    psi = perp_gradient(stream)
    norm = besov_norm(psi, bp)
    if norm == 0.0:
        raise ConfigError("background field is identically zero; widen the band")
    return SpectralField(grid, psi.coeffs / norm)
