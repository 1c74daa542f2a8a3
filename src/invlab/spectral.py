"""Periodic grid, transforms, Fourier multipliers and differential operators.

All fields live on the two-dimensional torus of period ``L = 2*pi*R`` per
axis, sampled on a uniform lattice of ``N`` points per axis.  Spectral coefficients
follow the continuum convention scaled to the torus: the coefficient of the
integer mode ``m`` equals ``(L/N)**d * sum_x f(x) exp(-i (m/R).x)``, so that
``f(x) = L**-d * sum_m coeff(m) exp(i (m/R).x)``.  The frequency attached to
mode ``m`` is ``xi = m/R``.

Every field is real, so its spectrum is Hermitian, coeff(-m) = conj(coeff(m)),
and only the real half-spectrum of ``numpy.fft.rfftn`` is stored: the leading
axes hold every mode in FFT layout (mode ``m`` at index ``m mod N``), the last
axis holds columns ``0 .. N/2`` (``Grid.spectral_shape``).  Column ``c`` with
``0 < c < N/2`` also stands for its conjugate mirror at column ``-c``, so a sum
of ``|coeff|**2`` over the stored half weights it by 2; columns 0 and N/2 are
their own mirrors and weigh 1 (``half_spectrum_l2`` is the one place that sums
this way; ``l2_norm_spectral`` and the Besov blocks call it).  The frequency
arrays of ``Grid`` are the first ``N/2 + 1`` columns of the full-lattice
arrays, so column N/2 carries the mode ``-N/2``.  Fields are treated as
immutable values: every operation of the public API returns a new field.

One type, ``SpectralField``, holds scalar and vector fields alike.  A scalar's
``coeffs`` has shape ``Grid.spectral_shape``; a vector's has shape
``(d,) + Grid.spectral_shape``, the component axis first, component i at
``coeffs[i]``.  Multipliers broadcast over the component axis, so a sum or a
multiple of fields is one array expression.

The 2/3-rule ball is the set of modes ``|m_j| <= keep = (N - 1) // 3``
(``Grid.dealias_keep``); on the stored half-spectrum it fills the box
``Grid.box(keep)``.  A product of two fields in the ball, truncated back to it
(``zero_outside_ball``), is alias-free: a mode folded onto ``|m| <= keep``
comes from ``|m'| >= N - keep > 2 keep``, beyond the product's reach.
``require_in_ball`` admits a field, as ``advect`` (both arguments),
``solvers.evolve`` and ``solvers.u2_duhamel`` do: a non-finite coefficient
raises NumericsError, and one outside the ball that is not exactly 0 raises
ResolutionError with ``required_n = dealias_grid_size(largest nonzero |m_j|)``.
Every column of the ball lies in the **slab**, columns ``0 .. keep`` of the
stored half-spectrum over all N rows, indexed by ``Grid.slab`` (shape
``Grid.slab_shape``).  The one transform pair, ``_forward`` and ``_inverse``,
takes the leading columns it is given, so ball data (``advect``, the time
stepper's state) are transformed on the slab; ``zero_outside_ball`` works on
a slab as on a half-spectrum, and ``_embed`` puts a slab back into a
half-spectrum.

Norms read spectral fields, and ``lp_norm`` takes the norm of a field: at p = 2
by Parseval on the half-spectrum, sampling nothing, and at any other p from
samples.  The Besov blocks at p = 2 sum only the box of the half-spectrum that
holds their multiplier (``littlewood_paley``), through the same weighting
helper ``half_spectrum_l2``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import numpy.fft as _fft

from .errors import ConfigError, NumericsError, ResolutionError

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
        if not (0 < self.R < np.inf):
            raise ConfigError(f"R must be finite and positive, got {self.R}")

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
    def biot_savart(self) -> np.ndarray:
        """Stacked multipliers ``(i xi2, -i xi1)/|xi|^2``, 0 at xi = 0: the
        velocity of zero mean and zero divergence whose curl is a given
        vorticity."""
        inv = np.zeros(self.spectral_shape)
        np.divide(1.0, self.k_sq, out=inv, where=self.k_sq > 0)
        return np.stack((1j * self.freq_axis(1) * inv, -1j * self.freq_axis(0) * inv))

    @cached_property
    def dealias_keep(self) -> int:
        """Largest retained |m| under the 2/3 rule (modes |m_j| >= N/3 zeroed)."""
        return (self.N - 1) // 3

    @property
    def slab(self) -> tuple:
        """Index of the ball's slab in the last two axes: columns 0 .. keep, every row."""
        return slice(None), slice(0, self.dealias_keep + 1)

    @property
    def slab_shape(self) -> tuple:
        """Shape of the ball's column slab (``slab``)."""
        return (self.N,) * (self.d - 1) + (self.dealias_keep + 1,)

    def box(self, M: int) -> tuple:
        """Index of the smallest half-spectrum box holding the modes |m_j| <= M:
        rows |m_0| <= M (FFT layout) by columns 0 .. min(M, N/2)."""
        if 2 * M + 1 >= self.N:
            rows = slice(None)
        else:
            rows = np.concatenate((np.arange(M + 1), np.arange(self.N - M, self.N)))
        return rows, slice(0, min(M, self.N // 2) + 1)


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
class SpectralField:
    """Real scalar or vector field given by its half-spectrum.

    ``coeffs`` has shape ``grid.spectral_shape`` (scalar) or
    ``(grid.d,) + grid.spectral_shape`` (vector, component i at ``coeffs[i]``).
    """

    grid: Grid
    coeffs: np.ndarray

    def __post_init__(self):
        shape = self.grid.spectral_shape
        if self.coeffs.shape not in (shape, (self.grid.d,) + shape):
            raise ConfigError(
                f"coefficient array shape {self.coeffs.shape} is neither the "
                f"half-spectrum shape {shape} of the grid nor {self.grid.d} "
                f"stacked components of it"
            )


# ---------------------------------------------------------------------------
# the 2/3-rule ball


def _beyond_ball(grid: Grid) -> tuple:
    """Indices of the entries of a half-spectrum, or of a stack of them, outside
    the ball: rows ``keep+1 .. N-keep-1`` and columns from ``keep+1``."""
    keep = grid.dealias_keep
    rows, cols = slice(keep + 1, grid.N - keep), slice(keep + 1, None)
    return (..., rows, slice(None)), (..., cols)


def zero_outside_ball(coeffs: np.ndarray, grid: Grid) -> None:
    """Set every entry of a half-spectrum, or of a stack of them, outside the
    ball to 0, in place."""
    for idx in _beyond_ball(grid):
        coeffs[idx] = 0.0


def require_in_ball(F: SpectralField) -> None:
    """Raise unless ``F`` may enter the Galerkin system (module docstring)."""
    g = F.grid
    if not np.isfinite(F.coeffs).all():
        raise NumericsError("field has a non-finite coefficient")
    if not any(np.any(F.coeffs[idx]) for idx in _beyond_ball(g)):
        return
    nz = np.any(F.coeffs.reshape((-1,) + g.spectral_shape), axis=0)
    mmax = int(np.abs(g.modes_1d)[np.concatenate(np.nonzero(nz))].max())
    n_req = dealias_grid_size(mmax)
    raise ResolutionError(
        f"field has nonzero coefficients up to |m|={mmax}, outside the 2/3-rule "
        f"ball |m|<={g.dealias_keep} of N={g.N}; need N>={n_req}",
        required_n=n_req,
    )


def _conj_mirror(full: np.ndarray) -> np.ndarray:
    """conj(c(-m)) at every mode m of a full-lattice (not half) FFT-layout array."""
    out = np.conj(full)
    for ax in range(full.ndim):
        out = np.roll(np.flip(out, axis=ax), 1, axis=ax)
    return out


# ---------------------------------------------------------------------------
# transforms


# The one transform pair and the envelope pair below are the only routes to
# the FFT backend, numpy's pocketfft.  Each transform of the pair is two
# passes through the module-level ``_fft``, as numpy's rfftn and irfftn make
# them: a row pass (axis 1, real to half spectrum) and a column pass (axis
# 0), each transforming every column on its own.  The column pass covers the
# leading columns its caller hands over, the whole half-spectrum or the
# ball's slab (``Grid.slab``); the row pass of an inverse zero-pads each row
# to N/2 + 1 columns as irfftn does, so either way the values are those of
# rfftn and irfftn, bitwise.  Both scale in place, and write into ``out``
# (and ``rows``, ``scratch``) when handed.


def _forward(samples: np.ndarray, grid: Grid, out=None, rows=None) -> np.ndarray:
    """Coefficients of ``samples`` in the leading ``out.shape[-1]`` columns,
    into ``out``; the row pass fills ``rows`` (``Grid.spectral_shape``).
    Without ``out``, all N/2 + 1 columns, in place in ``rows``."""
    rows = _fft.rfftn(samples, axes=(1,), out=rows)
    if out is None:
        out = rows
    _fft.fftn(rows[:, : out.shape[-1]], axes=(0,), out=out)
    out *= grid.dx**grid.d
    return out


def _inverse(coeffs: np.ndarray, grid: Grid, out=None, scratch=None) -> np.ndarray:
    """Samples of the field whose half-spectrum holds ``coeffs`` in its
    leading columns and 0 in the rest, into ``out``; the column pass goes
    through ``scratch`` (the shape of ``coeffs``)."""
    cols = _fft.ifftn(coeffs, axes=(0,), out=scratch)
    out = _fft.irfftn(cols, s=(grid.N,), axes=(1,), out=out)
    out *= (grid.N / grid.L) ** grid.d
    return out


# The envelope pair transforms complex fields on a coarse M x M lattice of the
# same period L, over the last two axes of a stack (``solvers.Envelopes``),
# with the continuum convention above: one complex n-dimensional call each.


def _box_forward(samples: np.ndarray, L: float, out=None) -> np.ndarray:
    """Coefficients of a stack of complex M x M samples of period ``L``."""
    out = _fft.fftn(samples, axes=(-2, -1), out=out)
    out *= (L / samples.shape[-1]) ** 2
    return out


def _box_inverse(coeffs: np.ndarray, L: float, out=None) -> np.ndarray:
    """Complex samples of a stack of M x M coefficient arrays of period ``L``."""
    out = _fft.ifftn(coeffs, axes=(-2, -1), out=out)
    out *= (coeffs.shape[-1] / L) ** 2
    return out


def _embed(values: np.ndarray, grid: Grid) -> np.ndarray:
    """The half-spectrum, or stack of them, holding the slab ``values`` in its
    leading columns (``Grid.slab``) and 0 elsewhere."""
    out = np.zeros(values.shape[: -grid.d] + grid.spectral_shape, dtype=np.complex128)
    out[(...,) + grid.slab] = values
    return out


# ---------------------------------------------------------------------------
# multipliers


def apply_multiplier(F: SpectralField, factor) -> SpectralField:
    """``factor * F``, componentwise for a vector field."""
    return SpectralField(F.grid, F.coeffs * factor)


# ---------------------------------------------------------------------------
# differential operators


def gradient(F: SpectralField) -> SpectralField:
    """The vector field grad f of a scalar field f."""
    g = F.grid
    return SpectralField(g, np.stack([(1j * g.freq_axis(ax)) * F.coeffs for ax in range(g.d)]))


def divergence(V: SpectralField) -> SpectralField:
    g = V.grid
    out = np.zeros(g.spectral_shape, dtype=np.complex128)
    for ax in range(g.d):
        out += (1j * g.freq_axis(ax)) * V.coeffs[ax]
    return SpectralField(g, out)


def curl(V: SpectralField) -> SpectralField:
    """The scalar vorticity d1 u2 - d2 u1."""
    g, (u1, u2) = V.grid, V.coeffs
    return SpectralField(g, (1j * g.freq_axis(0)) * u2 - (1j * g.freq_axis(1)) * u1)


def perp_gradient(F: SpectralField) -> SpectralField:
    """(-d2 f, d1 f); divergence-free by construction."""
    g = F.grid
    return SpectralField(
        g, np.stack((-(1j * g.freq_axis(1)) * F.coeffs, (1j * g.freq_axis(0)) * F.coeffs))
    )


def _check_heat_arguments(t: float, eps: float) -> None:
    if t < 0:
        raise ValueError(f"time must be non-negative, got {t}")
    if eps < 0:
        raise ValueError(f"viscosity must be non-negative, got {eps}")


def heat_factor(grid: Grid, t: float, eps: float) -> np.ndarray:
    _check_heat_arguments(t, eps)
    return np.exp(-t * eps * grid.k_sq)


def heat_integral_factor(grid: Grid, t: float, eps: float) -> np.ndarray:
    """int_0^t exp(-(t-tau) eps |xi|^2) dtau = t phi1(t eps |xi|^2).

    ``phi1(x) = -expm1(-x)/x`` (the first exponential-integrator function,
    as in Cox & Matthews 2002 and Kassam & Trefethen 2005) keeps every digit
    at small x, where ``1 - exp(-x)`` cancels.  The value is exactly t where
    x = 0, i.e. at xi = 0 or for eps = 0.
    """
    _check_heat_arguments(t, eps)
    x = t * eps * grid.k_sq
    out = np.full(grid.spectral_shape, float(t))
    pos = x > 0.0
    out[pos] = t * (-np.expm1(-x[pos]) / x[pos])
    return out


def heat_propagate(V: SpectralField, t: float, eps: float) -> SpectralField:
    """Apply the heat semigroup exp(t*eps*Laplacian) componentwise."""
    return apply_multiplier(V, heat_factor(V.grid, t, eps))


# ---------------------------------------------------------------------------
# Leray projection


def leray_complement(V: SpectralField) -> SpectralField:
    """Q = Id - P: the gradient part; kills the mean mode."""
    g = V.grid
    ksq = g.k_sq.copy()
    ksq[(0,) * g.d] = 1.0  # mode 0 set explicitly below
    div = sum(g.freq_axis(ax) * V.coeffs[ax] for ax in range(g.d)) / ksq
    out = np.stack([g.freq_axis(ax) * div for ax in range(g.d)])
    out[(...,) + (0,) * g.d] = 0.0
    return SpectralField(g, out)


def leray_project(V: SpectralField) -> SpectralField:
    """Project onto divergence-free fields; the mean mode passes through."""
    return SpectralField(V.grid, V.coeffs - leray_complement(V).coeffs)


# ---------------------------------------------------------------------------
# advection

def advect(u: SpectralField, v: SpectralField) -> SpectralField:
    """u . grad(v) via physical-space products of spectral derivatives.

    Both inputs are admitted by ``require_in_ball`` and the product is
    truncated back to the ball, which makes it alias-free (module
    docstring).  Every entry of the inputs and of the result outside the
    slab is 0, so each transform covers the slab's keep + 1 columns only,
    and the result is the slab embedded in a half-spectrum.  The time
    stepper and the Duhamel integrand use the vorticity form
    (``solvers.vorticity_rhs``); this velocity form serves the checks of
    ``run_validation_suite`` and the measurements of ``run_nonlinear_drift``.
    """
    if u.grid != v.grid:
        raise ConfigError("advect requires fields on the same grid")
    g = u.grid
    require_in_ball(u)
    require_in_ball(v)
    # one component at a time: no stacked temporaries on the N = 2048 grids
    u_phys = [_inverse(c[g.slab], g) for c in u.coeffs]
    out = np.empty((g.d,) + g.slab_shape, dtype=np.complex128)
    for i in range(g.d):
        acc = np.zeros(g.shape)
        for j in range(g.d):
            acc += u_phys[j] * _inverse((1j * g.freq_axis(j)[g.slab]) * v.coeffs[i][g.slab], g)
        _forward(acc, g, out=out[i])
    zero_outside_ball(out, g)
    return SpectralField(g, _embed(out, g))


# ---------------------------------------------------------------------------
# norms and translations

# the sup norm is taken on a lattice this many times finer per axis
OVERSAMPLING = 4


def _magnitude(F: SpectralField, sample) -> np.ndarray:
    """Pointwise l2 magnitude of F, each component sampled on its own by
    ``sample``: |s| for a scalar, for a vector the root of the squares summed
    in component order."""
    if F.coeffs.shape == F.grid.spectral_shape:
        return np.abs(sample(F.coeffs))
    parts = (sample(c) for c in F.coeffs)
    acc = np.square(next(parts))
    for s in parts:
        acc += np.square(s, out=s)
    return np.sqrt(acc, out=acc)


def _oversampled_max(F: SpectralField) -> float:
    """Max of the pointwise magnitude on an OVERSAMPLING times finer lattice.

    The refined field is the symmetric trigonometric interpolant of the
    coefficients: a Nyquist mode -N/2 of the coarse lattice is split evenly
    between -N/2 and +N/2.
    """
    grid = F.grid
    fine = Grid(grid.d, grid.N * OVERSAMPLING, grid.R)
    half = grid.N // 2
    rows = np.concatenate([np.arange(half), np.arange(-half, 0)])

    def refined(c):
        # the fine half-spectrum's columns beyond N/2 are 0: only the first
        # N/2 + 1 are handed to the transform
        big = np.zeros((fine.N, half + 1), dtype=np.complex128)
        big[rows] = c
        big[-half] *= 0.5
        big[half] = big[-half]
        big[:, half] *= 0.5  # its mirror at column -N/2 supplies the other half
        return _inverse(big, fine)

    return float(_magnitude(F, refined).max())


def lp_norm(F: SpectralField, p: float) -> float:
    """L^p norm of a scalar or vector field (pointwise l2 magnitude for vectors).

    This is the one place where a field is sampled for a norm.  At p = 2 it is
    Parseval on the stored half-spectrum (``l2_norm_spectral``) and samples
    nothing.  Any other p samples one component at a time, so no stacked
    physical array is built: finite p by uniform-weight quadrature,
    ``numpy.inf`` on a 4x spectrally oversampled lattice to reduce the
    grid-max underestimate.  A non-finite value (a NaN or infinite
    coefficient) raises NumericsError.
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    g = F.grid
    if p == 2:
        val = l2_norm_spectral(F)
    elif np.isinf(p):
        val = _oversampled_max(F)
    else:
        mag = _magnitude(F, lambda c: _inverse(c, g))
        val = float((g.dx**g.d * np.sum(mag**p)) ** (1.0 / p))
    if not np.isfinite(val):
        raise NumericsError(f"L^{p:g} norm is non-finite: {val}")
    return val


def half_spectrum_l2(components, grid: Grid) -> float:
    """Parseval L^2 norm of the components of a field, each given on the
    leading columns ``0 .. C-1`` of the stored half-spectrum (any rows).

    Columns 0 and N/2 weigh 1, every other column 2 (it also stands for its
    conjugate mirror).  The squares are summed one component at a time, so
    an iterable of slabs builds no stacked array.
    """
    h = grid.N // 2
    total = 0.0
    for c in components:
        sq = np.abs(c) ** 2
        total += (
            2.0 * float(np.sum(sq[..., 1:h]))
            + float(np.sum(sq[..., 0]))
            + float(np.sum(sq[..., h:]))
        )
    return float(np.sqrt(total / grid.L**grid.d))


def l2_norm_spectral(F: SpectralField) -> float:
    """L^2 norm from the stored half-spectrum (Parseval); scalar or vector."""
    g = F.grid
    return half_spectrum_l2(F.coeffs.reshape((-1,) + g.spectral_shape), g)


def translate(F: SpectralField, shift) -> SpectralField:
    """Exact torus translation: coeff(m) -> exp(-i (m/R).shift) coeff(m)."""
    g = F.grid
    shift = np.asarray(shift, dtype=float)
    if shift.shape != (g.d,):
        raise ValueError(f"shift must have {g.d} components")
    phase = np.ones(g.spectral_shape, dtype=np.complex128)
    for ax in range(g.d):
        phase = phase * np.exp(-1j * g.freq_axis(ax) * shift[ax])
    return SpectralField(g, F.coeffs * phase)


def divergence_defect(V: SpectralField) -> float:
    """||div u||_L2 / ||u||_L2 from spectral coefficients."""
    nu = l2_norm_spectral(V)
    if nu == 0.0:
        return 0.0
    return l2_norm_spectral(divergence(V)) / nu
