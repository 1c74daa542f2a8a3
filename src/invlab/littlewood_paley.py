"""Dyadic frequency cutoffs, block operators and nonhomogeneous Besov norms.

The low-frequency cutoff ``theta`` is radial, equal to 1 on ``|xi| <= 3/4``
and 0 outside ``|xi| < 4/3``, with a C-infinity monotone transition.  The
shell profile is ``phi(xi) = theta(xi/2) - theta(xi)``, supported on the
annulus ``3/4 <= |xi| <= 8/3`` and equal to 1 on ``4/3 <= |xi| <= 3/2``.
Block ``j = -1`` applies ``theta``, block ``j >= 0`` applies
``phi(2**-j .)``; the cumulative low-pass of order ``n`` applies
``theta(2**-n .)``.

Each multiplier vanishes for ``|xi| >= r_out``: ``r_out = 4/3`` for block -1,
``(8/3) 2**j`` for block j and ``(4/3) 2**n`` for the low-pass of order n.
There the ramp argument is at least 1, ``smooth_ramp`` writes exactly 1 and
the multiplier is exactly 0.  So the partition keeps each multiplier only on
the smallest box of the stored half-spectrum that holds the modes
``|m_j| < r_out R``, ``Grid.box(M)`` with ``M = ceil(r_out R) - 1``.  Outside
the box some ``|m_j| >= r_out R``, so ``|xi| >= r_out``.  Blocks are applied,
and their L^2 norms summed, on the box alone.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import ConfigError, NumericsError
from .spectral import Grid, SpectralField, half_spectrum_l2, lp_norm

THETA_ONE = 0.75  # theta == 1 inside this radius
THETA_ZERO = 4.0 / 3.0  # theta == 0 outside this radius
RAMP_ID = "normalized-bump-quotient"


def smooth_ramp(u: np.ndarray) -> np.ndarray:
    """Monotone C-infinity ramp: 0 for u <= 0, 1 for u >= 1, b(u)/(b(u) + b(1-u))
    between, b(u) = exp(-1/u) evaluated only on 0 < u < 1; NaN stays NaN."""
    u = np.asarray(u, dtype=float)
    out = np.array(u >= 1.0, dtype=float)  # an array also for a 0-d u
    mid = ~((u <= 0.0) | (u >= 1.0))
    um = u[mid]
    with np.errstate(over="ignore", under="ignore"):
        b0, b1 = np.exp(-1.0 / um), np.exp(-1.0 / (1.0 - um))
    out[mid] = b0 / (b0 + b1)
    return out


def radial_cutoff(r, inner: float = THETA_ONE, outer: float = THETA_ZERO):
    """Radial profile equal to 1 for r <= inner, 0 for r >= outer, smooth between."""
    r = np.asarray(r, dtype=float)
    return 1.0 - smooth_ramp((r - inner) / (outer - inner))


def block_annulus(j: int) -> tuple:
    """``(inner, outer)``: block j's multiplier is 0 off ``inner < |xi| < outer``."""
    if j == -1:
        return 0.0, THETA_ZERO
    return THETA_ONE * 2.0**j, 2.0 * THETA_ZERO * 2.0**j


@dataclass
class DyadicPartition:
    """Dyadic cutoffs bound to one grid, with cached block multipliers.

    ``block(j)`` and ``low_pass(n)`` return ``(box, values)``: the index of
    the multiplier's box into a half-spectrum array (module docstring) and
    its values there, computed from ``theta``/``phi`` on ``grid.k_mag[box]``.
    Outside the box the multiplier is exactly 0.  Only the blocks, which every
    Besov norm reads, are cached.
    """

    grid: Grid
    j_max: int
    _blocks: dict = field(default_factory=dict, repr=False)

    def theta(self, r):
        return radial_cutoff(r)

    def phi(self, r):
        r = np.asarray(r, dtype=float)
        return radial_cutoff(r / 2.0) - radial_cutoff(r)

    @property
    def coverage_radius(self) -> float:
        """The partition sums to exactly 1 for |xi| up to this radius."""
        return THETA_ONE * 2.0 ** (self.j_max + 1)

    def block(self, j: int) -> tuple:
        """``(box, values)`` of the multiplier of Delta_j."""
        if j < -1:
            raise ValueError(f"block index must be >= -1, got {j}")
        if j not in self._blocks:
            g = self.grid
            box = g.box(math.ceil(block_annulus(j)[1] * g.R) - 1)
            k = g.k_mag[box]
            self._blocks[j] = (box, self.theta(k) if j == -1 else self.phi(k / 2.0**j))
        return self._blocks[j]

    def low_pass(self, n: int) -> tuple:
        """``(box, values)`` of the multiplier of S_n, computed on each call."""
        g = self.grid
        box = g.box(math.ceil(THETA_ZERO * 2.0**n * g.R) - 1)
        return box, self.theta(g.k_mag[box] / 2.0**n)


@lru_cache(maxsize=None)
def build_partition(grid: Grid) -> DyadicPartition:
    """Dyadic partition sized for the grid.

    ``j_max`` is the smallest J with ``(3/4) * 2**(J+1) >= xi_Nyquist``, so
    blocks above ``j_max`` vanish for every resolved field and the partition
    sums to 1 on the whole per-axis frequency range.
    """
    j = -1
    while THETA_ONE * 2.0 ** (j + 1) < grid.nyquist:
        j += 1
    return DyadicPartition(grid=grid, j_max=j)


def _on_box(F: SpectralField, box: tuple, values: np.ndarray) -> SpectralField:
    """``values * F`` on the box, exactly zero outside it."""
    idx = (Ellipsis,) + box
    out = np.zeros_like(F.coeffs)
    out[idx] = F.coeffs[idx] * values
    return SpectralField(F.grid, out)


def dyadic_block(j: int, F: SpectralField) -> SpectralField:
    """Frequency block Delta_j; j = -1 is the low ball, j >= 0 the shells."""
    return _on_box(F, *build_partition(F.grid).block(j))


def low_pass(n: int, F: SpectralField) -> SpectralField:
    """Cumulative low-pass S_n = theta(2**-n D)."""
    return _on_box(F, *build_partition(F.grid).low_pass(n))


@dataclass(frozen=True)
class BesovParams:
    """Regularity/integrability triple (s, p, r) in dimension d."""

    s: float
    p: float = 2.0
    r: float = 2.0
    d: int = 2

    def __post_init__(self):
        if not math.isfinite(self.s):
            raise ConfigError(f"s must be finite, got {self.s}")
        if not (1 <= self.p):
            raise ConfigError(f"p must lie in [1, inf], got {self.p}")
        if not (1 <= self.r):
            raise ConfigError(f"r must lie in [1, inf], got {self.r}")

    def validate(self) -> "BesovParams":
        """Check the well-posedness condition on (s, p, r).

        Requires s > d/p + 1 with r < infinity, or s = d/p + 1 with r = 1.
        """
        critical = self.d / self.p + 1.0
        ok = (self.s > critical and not math.isinf(self.r)) or (
            self.s == critical and self.r == 1
        )
        if not ok:
            raise ConfigError(
                f"(s, p, r) = ({self.s}, {self.p}, {self.r}) in d={self.d} is not "
                f"admissible: need s > d/p + 1 = {critical} with r < inf, "
                f"or s = d/p + 1 with r = 1"
            )
        return self

    def shifted(self, ds: float) -> "BesovParams":
        return BesovParams(self.s + ds, self.p, self.r, self.d)


# a coefficient counts as carried above this fraction of the largest one
MODE_REL_TOL = 1e-15


def support_mask(F: SpectralField):
    """Modes where a component carries more than MODE_REL_TOL * max|coeff|.

    The components are reduced one at a time.  None where no mode qualifies,
    i.e. for the zero field.  A non-finite coefficient, in any component,
    raises NumericsError: no scale can be taken from it.
    """
    comps = F.coeffs.reshape((-1,) + F.grid.spectral_shape)
    scale = 0.0
    for c in comps:
        m = float(np.max(np.abs(c)))
        if not np.isfinite(m):
            raise NumericsError(f"field has a non-finite coefficient ({m})")
        scale = max(scale, m)
    mask = np.zeros(F.grid.spectral_shape, dtype=bool)
    for c in comps:
        mask |= np.abs(c) > MODE_REL_TOL * scale
    return mask if mask.any() else None


def field_support_range(F: SpectralField) -> tuple:
    """(min, max) |xi| carrying nonzero coefficients (``support_mask``)."""
    nz = support_mask(F)
    if nz is None:
        return 0.0, 0.0
    vals = F.grid.k_mag[nz]
    lo, hi = float(vals.min()), float(vals.max())
    return (0.0, 0.0) if hi == 0.0 else (lo, hi)


def block_lp_norms(F: SpectralField, p: float) -> np.ndarray:
    """L^p norms of the dyadic blocks, indexed j = -1 .. j_max.

    A field whose support reaches beyond the radius where the partition is
    exact gets truncated blocks, and a UserWarning says so.  A non-finite
    coefficient (``support_mask``) or block norm raises NumericsError.
    """
    part = build_partition(F.grid)
    r_lo, r_hi = field_support_range(F)
    if r_hi > part.coverage_radius:
        warnings.warn(
            f"field support |xi| <= {r_hi:.3g} exceeds the exactly resolved "
            f"ball |xi| <= {part.coverage_radius:.3g}; Besov blocks are truncated",
            stacklevel=2,
        )
    comps = F.coeffs.reshape((-1,) + F.grid.spectral_shape)
    out = np.empty(part.j_max + 2)
    for j in range(-1, part.j_max + 1):
        # a block whose annulus misses the support is exactly zero
        blk_lo, blk_hi = block_annulus(j)
        if r_lo > blk_hi or r_hi < blk_lo:
            out[j + 1] = 0.0
            continue
        box, vals = part.block(j)
        if p == 2:
            # Parseval on the box: no block field is built
            val = half_spectrum_l2((c[box] * vals for c in comps), F.grid)
            if not np.isfinite(val):
                raise NumericsError(f"L^2 norm is non-finite: {val}")
        else:
            # lp_norm samples the block one component at a time
            val = lp_norm(_on_box(F, box, vals), p)
        out[j + 1] = val
    return out


def besov_from_blocks(block_norms: np.ndarray, bp: BesovParams) -> float:
    """Combine per-block L^p norms into the B^s_{p,r} norm."""
    j = np.arange(-1, len(block_norms) - 1)
    weighted = (2.0 ** (j * bp.s)) * block_norms
    if math.isinf(bp.r):
        return float(weighted.max()) if weighted.size else 0.0
    return float(np.sum(weighted**bp.r) ** (1.0 / bp.r))


def besov_norm(F: SpectralField, bp: BesovParams) -> float:
    """Nonhomogeneous Besov norm; exact for fields resolved by the grid."""
    return besov_from_blocks(block_lp_norms(F, bp.p), bp)
