import numpy as np
import pytest

from invlab.littlewood_paley import BesovParams
from invlab.spectral import Grid, RealField, SpectralField, VectorField, to_spectral


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
    return RealField(grid, rng.standard_normal(grid.shape))


def random_vector_field(grid, rng, band=None):
    """Random spectral vector field; band limits |m| per axis when given."""
    comps = []
    for _ in range(grid.d):
        F = to_spectral(random_real_field(grid, rng))
        if band is not None:
            keep = np.abs(grid.modes_1d) <= band
            mask = np.ones(grid.spectral_shape, dtype=bool)
            for ax, n in enumerate(grid.spectral_shape):
                shape = [1] * grid.d
                shape[ax] = n
                mask &= keep[:n].reshape(shape)
            F = SpectralField(grid, np.where(mask, F.coeffs, 0.0))
        comps.append(F)
    return VectorField(tuple(comps))


def half_spectrum_weights(grid):
    """Parseval weights of the stored half-spectrum: 1 on columns 0 and N/2, else 2."""
    w = np.full(grid.spectral_shape, 2.0)
    w[..., 0] = 1.0
    w[..., -1] = 1.0
    return w
