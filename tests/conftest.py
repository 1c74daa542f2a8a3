import numpy as np
import pytest

from invlab.littlewood_paley import BesovParams
from invlab.spectral import Grid, SpectralField, _forward


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def grid():
    return Grid(2, 32, 1.5)


@pytest.fixture(scope="session")
def lab_grid():
    """Small instance of the production lattice (R=12)."""
    return Grid(2, 512, 12.0)


@pytest.fixture(scope="session")
def bp():
    return BesovParams(3.0, 2.0, 2.0, 2)


def random_real_field(grid, rng):
    """White-noise samples on the grid's lattice."""
    return rng.standard_normal(grid.shape)


def spectral_of(grid, samples):
    """The spectral field of samples on the grid's lattice."""
    return SpectralField(grid, _forward(samples, grid))


def random_vector_field(grid, rng, band=None):
    """Random spectral vector field; band limits |m| per axis when given."""
    coeffs = np.stack(
        [_forward(random_real_field(grid, rng), grid) for _ in range(grid.d)]
    )
    if band is not None:
        keep = np.abs(grid.modes_1d) <= band
        mask = np.ones(grid.spectral_shape, dtype=bool)
        for ax, n in enumerate(grid.spectral_shape):
            shape = [1] * grid.d
            shape[ax] = n
            mask &= keep[:n].reshape(shape)
        coeffs = np.where(mask, coeffs, 0.0)
    return SpectralField(grid, coeffs)


def half_spectrum_weights(grid):
    """Parseval weights of the stored half-spectrum: 1 on columns 0 and N/2, else 2."""
    w = np.full(grid.spectral_shape, 2.0)
    w[..., 0] = 1.0
    w[..., -1] = 1.0
    return w
