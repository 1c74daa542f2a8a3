"""Dyadic frequency cutoffs, block operators and nonhomogeneous Besov norms.

The low-frequency cutoff ``theta`` is radial, equal to 1 on ``|xi| <= 3/4``
and 0 outside ``|xi| < 4/3``, with a C-infinity monotone transition.  The
shell profile is ``phi(xi) = theta(xi/2) - theta(xi)``, supported on the
annulus ``3/4 <= |xi| <= 8/3`` and equal to 1 on ``4/3 <= |xi| <= 3/2``.
Block ``j = -1`` applies ``theta``, block ``j >= 0`` applies
``phi(2**-j .)``; the cumulative low-pass of order ``n`` applies
``theta(2**-n .)``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import ConfigError
from .spectral import Grid, RealField, SpectralField, VectorField, _inverse, lp_norm

THETA_ONE = 0.75  # theta == 1 inside this radius
THETA_ZERO = 4.0 / 3.0  # theta == 0 outside this radius
RAMP_ID = "normalized-bump-quotient"


def _bump(u: np.ndarray) -> np.ndarray:
    """exp(-1/u) for u > 0, 0 otherwise (C-infinity at 0)."""
    out = np.zeros_like(u)
    pos = u > 0
    with np.errstate(over="ignore", under="ignore"):
        out[pos] = np.exp(-1.0 / u[pos])
    return out


def smooth_ramp(u: np.ndarray) -> np.ndarray:
    """Monotone C-infinity ramp with ramp(u)=0 for u<=0 and 1 for u>=1."""
    u = np.asarray(u, dtype=float)
    b0 = _bump(u)
    b1 = _bump(1.0 - u)
    out = np.empty_like(u)
    lo = u <= 0.0
    hi = u >= 1.0
    mid = ~(lo | hi)
    out[lo] = 0.0
    out[hi] = 1.0
    out[mid] = b0[mid] / (b0[mid] + b1[mid])
    return out


def radial_cutoff(r, inner: float = THETA_ONE, outer: float = THETA_ZERO):
    """Radial profile equal to 1 for r <= inner, 0 for r >= outer, smooth between."""
    r = np.asarray(r, dtype=float)
    return 1.0 - smooth_ramp((r - inner) / (outer - inner))


@dataclass
class DyadicPartition:
    """Dyadic cutoffs bound to one grid, with cached block multipliers."""

    grid: Grid
    j_max: int
    _cache: dict = field(default_factory=dict, repr=False)

    def theta(self, r):
        return radial_cutoff(r)

    def phi(self, r):
        r = np.asarray(r, dtype=float)
        return radial_cutoff(r / 2.0) - radial_cutoff(r)

    @property
    def coverage_radius(self) -> float:
        """The partition sums to exactly 1 for |xi| up to this radius."""
        return THETA_ONE * 2.0 ** (self.j_max + 1)

    def block_multiplier(self, j: int) -> np.ndarray:
        if j < -1:
            raise ValueError(f"block index must be >= -1, got {j}")
        key = ("block", j)
        if key not in self._cache:
            k = self.grid.k_mag
            if j == -1:
                vals = self.theta(k)
            else:
                vals = self.phi(k / 2.0**j)
            self._cache[key] = vals
        return self._cache[key]

    def low_pass_multiplier(self, n: int) -> np.ndarray:
        key = ("low", n)
        if key not in self._cache:
            self._cache[key] = self.theta(self.grid.k_mag / 2.0**n)
        return self._cache[key]


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


def _as_components(F) -> list:
    if isinstance(F, SpectralField):
        return [F]
    if isinstance(F, VectorField):
        return list(F)
    raise ConfigError(f"expected SpectralField or VectorField, got {type(F).__name__}")


def _apply_block(F, vals):
    comps = [SpectralField(c.grid, c.coeffs * vals) for c in _as_components(F)]
    if isinstance(F, SpectralField):
        return comps[0]
    return VectorField(tuple(comps))


def dyadic_block(j: int, F, partition: DyadicPartition | None = None):
    """Frequency block Delta_j; j = -1 is the low ball, j >= 0 the shells."""
    if j < -1:
        raise ValueError(f"block index must be >= -1, got {j}")
    grid = _as_components(F)[0].grid
    part = partition or build_partition(grid)
    return _apply_block(F, part.block_multiplier(j))


def low_pass(n: int, F, partition: DyadicPartition | None = None):
    """Cumulative low-pass S_n = theta(2**-n D)."""
    grid = _as_components(F)[0].grid
    part = partition or build_partition(grid)
    return _apply_block(F, part.low_pass_multiplier(n))


@dataclass(frozen=True)
class BesovParams:
    """Regularity/integrability triple (s, p, r) in dimension d."""

    s: float
    p: float = 2.0
    r: float = 2.0
    d: int = 2

    def __post_init__(self):
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


def field_support_range(F) -> tuple:
    """(min, max) |xi| carrying nonzero coefficients (relative 1e-15 floor)."""
    comps = _as_components(F)
    g = comps[0].grid
    scale = max(np.max(np.abs(c.coeffs)) for c in comps)
    if scale == 0.0:
        return 0.0, 0.0
    lo, hi = np.inf, 0.0
    for c in comps:
        nz = np.abs(c.coeffs) > 1e-15 * scale
        if nz.any():
            vals = g.k_mag[nz]
            lo = min(lo, float(vals.min()))
            hi = max(hi, float(vals.max()))
    return (0.0, 0.0) if hi == 0.0 else (lo, hi)


def field_support_radius(F) -> float:
    """Largest |xi| carrying a nonzero coefficient (relative 1e-15 floor)."""
    return field_support_range(F)[1]


def block_lp_norms(F, p: float, partition: DyadicPartition | None = None) -> np.ndarray:
    """L^p norms of the dyadic blocks, indexed j = -1 .. j_max.

    A field whose support reaches beyond the radius where the partition is
    exact gets truncated blocks, and a UserWarning says so.
    """
    comps = _as_components(F)
    g = comps[0].grid
    part = partition or build_partition(g)
    r_lo, r_hi = field_support_range(F)
    if r_hi > part.coverage_radius:
        warnings.warn(
            f"field support |xi| <= {r_hi:.3g} exceeds the exactly resolved "
            f"ball |xi| <= {part.coverage_radius:.3g}; Besov blocks are truncated",
            stacklevel=2,
        )
    out = np.empty(part.j_max + 2)
    for j in range(-1, part.j_max + 1):
        # a block whose annulus misses the support is exactly zero
        if j == -1:
            blk_lo, blk_hi = 0.0, THETA_ZERO
        else:
            blk_lo, blk_hi = THETA_ONE * 2.0**j, 2.0 * THETA_ZERO * 2.0**j
        if r_lo > blk_hi or r_hi < blk_lo:
            out[j + 1] = 0.0
            continue
        vals = part.block_multiplier(j)
        phys = [RealField(g, _inverse(c.coeffs * vals, g)) for c in comps]
        out[j + 1] = lp_norm(phys[0] if len(phys) == 1 else phys, p)
    return out


def besov_from_blocks(block_norms: np.ndarray, bp: BesovParams) -> float:
    """Combine per-block L^p norms into the B^s_{p,r} norm."""
    j = np.arange(-1, len(block_norms) - 1)
    weighted = (2.0 ** (j * bp.s)) * block_norms
    if math.isinf(bp.r):
        return float(weighted.max()) if weighted.size else 0.0
    return float(np.sum(weighted**bp.r) ** (1.0 / bp.r))


def besov_norm(F, bp: BesovParams, partition: DyadicPartition | None = None) -> float:
    """Nonhomogeneous Besov norm; exact for fields resolved by the grid."""
    return besov_from_blocks(block_lp_norms(F, bp.p, partition), bp)
