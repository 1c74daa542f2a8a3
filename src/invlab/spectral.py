"""Periodic grid, transforms, Fourier multipliers and differential operators.

All fields live on the two-dimensional torus of period ``L = 2*pi*R`` per
axis, sampled on a uniform lattice of ``N`` points per axis.  Spectral coefficients
follow the continuum convention scaled to the torus: the coefficient of the
integer mode ``m`` equals ``(L/N)**d * sum_x f(x) exp(-i (m/R).x)``, so that
``f(x) = L**-d * sum_m coeff(m) exp(i (m/R).x)``.  The frequency attached to
mode ``m`` is ``xi = m/R``.

Every field is real, so its spectrum is Hermitian, coeff(-m) = conj(coeff(m)),
and only the real half-spectrum of ``scipy.fft.rfftn`` is stored: the leading
axes hold every mode in FFT layout (mode ``m`` at index ``m mod N``), the last
axis holds columns ``0 .. N/2`` (``Grid.spectral_shape``).  Column ``c`` with
``0 < c < N/2`` also stands for its conjugate mirror at column ``-c``, so a sum
of ``|coeff|**2`` over the stored half weights it by 2; columns 0 and N/2 are
their own mirrors and weigh 1 (``l2_norm_spectral`` is the one place that sums
this way).  The frequency arrays of ``Grid`` are the first ``N/2 + 1`` columns
of the full-lattice arrays, so column N/2 carries the mode ``-N/2``.  Fields
are treated as immutable values: every operation returns a new field.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np
import scipy.fft as _fft

from .errors import ConfigError, NumericsError, ResolutionError

_FFT_WORKERS = 1


def set_fft_workers(n: int) -> None:
    """Set the number of threads used by the FFT backend (pocketfft).

    Results are bit-identical for any worker count; this only affects speed.
    """
    global _FFT_WORKERS
    if n < 1:
        raise ValueError("worker count must be >= 1")
    _FFT_WORKERS = int(n)


def get_fft_workers() -> int:
    return _FFT_WORKERS


@dataclass(frozen=True)
class Grid:
    """Uniform periodic sampling lattice.

    Parameters
    ----------
    d : int
        Spatial dimension; only 2 is supported.
    N : int
        Samples per axis; power of two, at least 16.
    R : float
        Radius scale; the period is ``L = 2*pi*R`` and the frequency
        lattice is ``xi = m/R`` for integer ``m`` in ``[-N/2, N/2)``.
    """

    d: int
    N: int
    R: float

    def __post_init__(self):
        if self.d != 2:
            raise ConfigError(f"dimension must be 2, got {self.d}")
        if self.N < 16 or (self.N & (self.N - 1)) != 0:
            raise ConfigError(f"N must be a power of two >= 16, got {self.N}")
        if not (self.R > 0):
            raise ConfigError(f"R must be positive, got {self.R}")

    @property
    def L(self) -> float:
        return 2.0 * np.pi * self.R

    @property
    def dx(self) -> float:
        return self.L / self.N

    @property
    def nyquist(self) -> float:
        """Per-axis Nyquist frequency N/(2R)."""
        return self.N / (2.0 * self.R)

    @property
    def shape(self) -> tuple:
        return (self.N,) * self.d

    @property
    def spectral_shape(self) -> tuple:
        """Shape of a stored half-spectrum: the last axis keeps N/2 + 1 columns."""
        return (self.N,) * (self.d - 1) + (self.N // 2 + 1,)

    @cached_property
    def modes_1d(self) -> np.ndarray:
        """Integer mode numbers m in FFT layout."""
        return np.fft.fftfreq(self.N, d=1.0 / self.N).astype(np.int64)

    @cached_property
    def freqs_1d(self) -> np.ndarray:
        """Frequencies xi = m/R in FFT layout."""
        return self.modes_1d / self.R

    def freq_axis(self, axis: int) -> np.ndarray:
        """1-D frequency array broadcastable along the given spectral axis."""
        shape = [1] * self.d
        shape[axis] = self.spectral_shape[axis]
        return self.freqs_1d[: shape[axis]].reshape(shape)

    @cached_property
    def x_1d(self) -> np.ndarray:
        return (self.L / self.N) * np.arange(self.N)

    @cached_property
    def k_sq(self) -> np.ndarray:
        """|xi|^2 on the stored half lattice."""
        out = np.zeros(self.spectral_shape)
        for ax in range(self.d):
            out = out + self.freq_axis(ax) ** 2
        return out

    @cached_property
    def k_mag(self) -> np.ndarray:
        return np.sqrt(self.k_sq)

    @cached_property
    def dealias_keep(self) -> int:
        """Largest retained |m| under the 2/3 rule (modes |m_j| >= N/3 zeroed)."""
        return (self.N - 1) // 3

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        keep = np.abs(self.modes_1d) <= self.dealias_keep
        out = np.ones(self.spectral_shape, dtype=bool)
        for ax, n in enumerate(self.spectral_shape):
            shape = [1] * self.d
            shape[ax] = n
            out &= keep[:n].reshape(shape)
        return out


def dealias_grid_size(max_mode: int) -> int:
    """Smallest admissible N whose 2/3-rule ball holds modes |m| <= max_mode.

    Admissible means a power of two, at least 16; the ball is
    ``|m_j| <= (N - 1) // 3`` (``Grid.dealias_keep``), i.e. N >= 3*max_mode + 1.
    """
    N = 16
    while N < 3 * max_mode + 1:
        N *= 2
    return N


@dataclass(frozen=True)
class RealField:
    """Scalar field sampled on the grid (real-valued)."""

    grid: Grid
    samples: np.ndarray

    def __post_init__(self):
        if self.samples.shape != self.grid.shape:
            raise ConfigError(
                f"sample array shape {self.samples.shape} does not match grid {self.grid.shape}"
            )
        if not np.isfinite(self.samples).all():
            raise NumericsError("real field contains non-finite samples")


@dataclass(frozen=True)
class SpectralField:
    """Real scalar field given by its half-spectrum (``Grid.spectral_shape``)."""

    grid: Grid
    coeffs: np.ndarray

    def __post_init__(self):
        if self.coeffs.shape != self.grid.spectral_shape:
            raise ConfigError(
                f"coefficient array shape {self.coeffs.shape} does not match the "
                f"half-spectrum shape {self.grid.spectral_shape} of the grid"
            )


@dataclass(frozen=True)
class VectorField:
    """d spectral components sharing one grid."""

    components: tuple

    def __post_init__(self):
        grids = {c.grid for c in self.components}
        if len(grids) != 1:
            raise ConfigError("vector components must share one grid")
        if len(self.components) != self.grid.d:
            raise ConfigError(
                f"expected {self.grid.d} components, got {len(self.components)}"
            )

    @property
    def grid(self) -> Grid:
        return self.components[0].grid

    def __iter__(self):
        return iter(self.components)

    def __getitem__(self, i):
        return self.components[i]


def vector_field(grid: Grid, arrays) -> VectorField:
    """VectorField from one half-spectrum coefficient array per component."""
    return VectorField(tuple(SpectralField(grid, a) for a in arrays))


def _conj_mirror(full: np.ndarray) -> np.ndarray:
    """conj(c(-m)) at every mode m of a full-lattice (not half) FFT-layout array."""
    out = np.conj(full)
    for ax in range(full.ndim):
        out = np.roll(np.flip(out, axis=ax), 1, axis=ax)
    return out


# ---------------------------------------------------------------------------
# transforms


# The array pair is the only route to the FFT backend; the hot loops call it
# directly and skip the per-call sample check of RealField.


def _forward(samples: np.ndarray, grid: Grid) -> np.ndarray:
    return _fft.rfftn(samples, workers=_FFT_WORKERS) * (grid.dx**grid.d)


def _inverse(coeffs: np.ndarray, grid: Grid) -> np.ndarray:
    return _fft.irfftn(coeffs, s=grid.shape, workers=_FFT_WORKERS) * (
        (grid.N / grid.L) ** grid.d
    )


def to_spectral(f: RealField) -> SpectralField:
    """Forward transform; coefficient of mode m is (L/N)^d * DFT."""
    return SpectralField(f.grid, _forward(f.samples, f.grid))


def to_physical(F: SpectralField) -> RealField:
    """Inverse transform onto the sampling lattice."""
    return RealField(F.grid, _inverse(F.coeffs, F.grid))


# ---------------------------------------------------------------------------
# multipliers


def _apply_factor(V: VectorField, factor: np.ndarray) -> VectorField:
    return vector_field(V.grid, (c.coeffs * factor for c in V))


# ---------------------------------------------------------------------------
# differential operators


def gradient(F: SpectralField) -> VectorField:
    g = F.grid
    comps = [
        SpectralField(g, (1j * g.freq_axis(ax)) * F.coeffs) for ax in range(g.d)
    ]
    return VectorField(tuple(comps))


def divergence(V: VectorField) -> SpectralField:
    g = V.grid
    out = np.zeros(g.spectral_shape, dtype=np.complex128)
    for ax, comp in enumerate(V):
        out += (1j * g.freq_axis(ax)) * comp.coeffs
    return SpectralField(g, out)


def perp_gradient(F: SpectralField) -> VectorField:
    """(-d2 f, d1 f); divergence-free by construction."""
    g = F.grid
    c1 = SpectralField(g, -(1j * g.freq_axis(1)) * F.coeffs)
    c2 = SpectralField(g, (1j * g.freq_axis(0)) * F.coeffs)
    return VectorField((c1, c2))


def heat_factor(grid: Grid, t: float, eps: float) -> np.ndarray:
    if t < 0:
        raise ValueError(f"time must be non-negative, got {t}")
    if eps < 0:
        raise ValueError(f"viscosity must be non-negative, got {eps}")
    return np.exp(-t * eps * grid.k_sq)


def heat_integral_factor(grid: Grid, t: float, eps: float) -> np.ndarray:
    """int_0^t exp(-(t-tau) eps |xi|^2) dtau = t phi1(t eps |xi|^2).

    ``phi1(x) = -expm1(-x)/x`` (the first exponential-integrator function,
    as in Cox & Matthews 2002 and Kassam & Trefethen 2005) keeps every digit
    at small x, where ``1 - exp(-x)`` cancels.  The value is exactly t where
    x = 0, i.e. at xi = 0 or for eps = 0.
    """
    heat_factor(grid, t, eps)  # argument validation only
    x = t * eps * grid.k_sq
    out = np.full(grid.spectral_shape, float(t))
    pos = x > 0.0
    out[pos] = t * (-np.expm1(-x[pos]) / x[pos])
    return out


def heat_propagate(V: VectorField, t: float, eps: float) -> VectorField:
    """Apply the heat semigroup exp(t*eps*Laplacian) componentwise."""
    if t == 0.0 or eps == 0.0:
        heat_factor(V.grid, t, eps)  # argument validation only
        return V
    return _apply_factor(V, heat_factor(V.grid, t, eps))


# ---------------------------------------------------------------------------
# Leray projection


def _leray_parts(V: VectorField):
    g = V.grid
    ksq = g.k_sq.copy()
    ksq[(0,) * g.d] = 1.0  # mode 0 handled explicitly below
    div = np.zeros(g.spectral_shape, dtype=np.complex128)
    for ax, comp in enumerate(V):
        div += g.freq_axis(ax) * comp.coeffs
    div /= ksq
    return g, div


def leray_project(V: VectorField) -> VectorField:
    """Project onto divergence-free fields; the mean mode passes through."""
    g, div = _leray_parts(V)
    comps = []
    for ax, comp in enumerate(V):
        c = comp.coeffs - g.freq_axis(ax) * div
        c[(0,) * g.d] = comp.coeffs[(0,) * g.d]
        comps.append(SpectralField(g, c))
    return VectorField(tuple(comps))


def leray_complement(V: VectorField) -> VectorField:
    """Q = Id - P: the gradient part; kills the mean mode."""
    g, div = _leray_parts(V)
    comps = []
    for ax in range(g.d):
        c = g.freq_axis(ax) * div
        c[(0,) * g.d] = 0.0
        comps.append(SpectralField(g, c))
    return VectorField(tuple(comps))


# ---------------------------------------------------------------------------
# advection


def max_mode_index(V: VectorField, rel_tol: float = 1e-15) -> int:
    """Largest |m_j| carrying a coefficient above rel_tol * max|coeff|."""
    g = V.grid
    scale = max(np.max(np.abs(c.coeffs)) for c in V)
    if scale == 0.0:
        return 0
    absm = np.abs(g.modes_1d)
    worst = 0
    for c in V:
        nz = np.abs(c.coeffs) > rel_tol * scale
        for ax in range(g.d):
            axes = tuple(a for a in range(g.d) if a != ax)
            along = nz.any(axis=axes)
            if along.any():
                worst = max(worst, int(absm[: along.size][along].max()))
    return worst


def _require_dealias_safe(V: VectorField, name: str) -> None:
    g = V.grid
    mmax = max_mode_index(V)
    if mmax > g.dealias_keep:
        n_req = dealias_grid_size(mmax)
        raise ResolutionError(
            f"{name} has support up to |m|={mmax}, outside the 2/3-rule ball "
            f"|m|<={g.dealias_keep} of N={g.N}; need N>={n_req}",
            required_n=n_req,
        )


def advect(
    u: VectorField,
    v: VectorField,
    verify_support: bool = True,
    u_phys: Sequence[np.ndarray] | None = None,
) -> VectorField:
    """u . grad(v) via physical-space products of spectral derivatives.

    The inputs must be supported inside the 2/3-rule ball and the product is
    truncated back to it, which makes the quadratic term alias-free.
    ``verify_support=False`` skips the support scan for callers that
    maintain the invariant themselves (the time stepper).
    ``u_phys`` may hold the physical samples of ``u``'s components when the
    caller has them already (the time stepper takes its CFL speed from them).
    """
    if u.grid != v.grid:
        raise ConfigError("advect requires fields on the same grid")
    g = u.grid
    if verify_support:
        _require_dealias_safe(u, "advecting field")
        _require_dealias_safe(v, "advected field")
    if u_phys is None:
        u_phys = [_inverse(c.coeffs, g) for c in u]
    out = []
    for i in range(g.d):
        acc = np.zeros(g.shape)
        for j in range(g.d):
            acc += u_phys[j] * _inverse((1j * g.freq_axis(j)) * v[i].coeffs, g)
        out.append(SpectralField(g, np.where(g.dealias_mask, _forward(acc, g), 0.0)))
    return VectorField(tuple(out))


# ---------------------------------------------------------------------------
# norms and translations


def _magnitude_samples(fields) -> tuple:
    """(grid, pointwise l2 magnitude) for a scalar or sequence of scalars."""
    if isinstance(fields, RealField):
        return fields.grid, np.abs(fields.samples)
    parts = list(fields)
    grid = parts[0].grid
    acc = np.zeros(grid.shape)
    for p in parts:
        if p.grid != grid:
            raise ConfigError("vector samples must share one grid")
        acc += p.samples**2
    return grid, np.sqrt(acc)


def _oversampled_max(grid: Grid, parts, factor: int = 4) -> float:
    """Max of the pointwise magnitude on a spectrally refined lattice.

    The refined field is the symmetric trigonometric interpolant: a Nyquist
    mode -N/2 of the coarse lattice is split evenly between -N/2 and +N/2.
    """
    fine = Grid(grid.d, grid.N * factor, grid.R)
    half = grid.N // 2
    rows = np.concatenate([np.arange(half), np.arange(-half, 0)])
    acc = np.zeros(fine.shape)
    for p in parts:
        big = np.zeros(fine.spectral_shape, dtype=np.complex128)
        big[np.ix_(*([rows] * (grid.d - 1)), np.arange(half + 1))] = to_spectral(p).coeffs
        for ax in range(grid.d - 1):
            plane = np.moveaxis(big, ax, 0)  # a view: writes land in big
            plane[-half] *= 0.5
            plane[half] = plane[-half]
        big[..., half] *= 0.5  # its mirror at column -N/2 supplies the other half
        acc += to_physical(SpectralField(fine, big)).samples ** 2
    return float(np.sqrt(acc).max())


def lp_norm(f, p: float) -> float:
    """L^p norm by uniform-weight quadrature on the sampling lattice.

    ``f`` may be a RealField or a sequence of RealFields (a vector sampled
    in physical space); vectors use the pointwise l2 magnitude.  ``p`` may
    be ``numpy.inf``; the sup norm is evaluated on a 4x spectrally
    oversampled lattice to reduce the grid-max underestimate.
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    grid, mag = _magnitude_samples(f)
    if np.isinf(p):
        parts = [f] if isinstance(f, RealField) else list(f)
        return _oversampled_max(grid, parts)
    w = grid.dx**grid.d
    return float((w * np.sum(mag**p)) ** (1.0 / p))


def l2_norm_spectral(F) -> float:
    """L^2 norm from the stored half-spectrum (Parseval); scalar or vector.

    Columns 0 and N/2 weigh 1, every other column 2 (it also stands for its
    conjugate mirror).
    """
    comps = [F] if isinstance(F, SpectralField) else list(F)
    g = comps[0].grid
    total = 0.0
    for c in comps:
        sq = np.abs(c.coeffs) ** 2
        total += (
            2.0 * float(np.sum(sq[..., 1:-1]))
            + float(np.sum(sq[..., 0]))
            + float(np.sum(sq[..., -1]))
        )
    return float(np.sqrt(total / g.L**g.d))


def translate(F, shift) -> "SpectralField | VectorField":
    """Exact torus translation: coeff(m) -> exp(-i (m/R).shift) coeff(m)."""
    if isinstance(F, VectorField):
        return VectorField(tuple(translate(c, shift) for c in F))
    g = F.grid
    shift = np.asarray(shift, dtype=float)
    if shift.shape != (g.d,):
        raise ValueError(f"shift must have {g.d} components")
    phase = np.ones(g.spectral_shape, dtype=np.complex128)
    for ax in range(g.d):
        phase = phase * np.exp(-1j * g.freq_axis(ax) * shift[ax])
    return SpectralField(g, F.coeffs * phase)


def divergence_defect(V: VectorField) -> float:
    """||div u||_L2 / ||u||_L2 from spectral coefficients."""
    nu = l2_norm_spectral(V)
    if nu == 0.0:
        return 0.0
    return l2_norm_spectral(divergence(V)) / nu
