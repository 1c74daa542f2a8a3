import threading

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


def gathered(layout, F):
    """The half-spectrum velocity ``F`` read at the entries of the envelope
    layout, as a ``BoxField``: a mode whose column is not stored (m_2 < 0)
    from its conjugate mirror, 0 off the mask."""
    from invlab.solvers import BoxField

    t1, t2 = layout.modes
    below = t2 < 0
    vals = F.coeffs[:, np.where(below, -t1, t1) % F.grid.N, np.abs(t2)]
    vals = np.where(below, np.conj(vals), vals)
    return BoxField(layout, np.where(layout.mask, vals, 0.0))


def spectral_of(grid, samples):
    """The spectral field of samples on the grid's lattice."""
    return SpectralField(grid, _forward(samples, grid))


def ball_mask(grid, band=None, full=False):
    """The modes with |m_j| <= band on both axes, from ``grid.modes_1d`` alone.

    Without ``band`` it is the 2/3-rule ball, 3 |m_j| < N, i.e. |m_j| <=
    (N - 1) // 3.  The mask covers the stored half-spectrum, whose column c
    holds mode ``modes_1d[c]``, or with ``full`` the whole lattice.
    """
    m = np.abs(grid.modes_1d)
    inside = 3 * m < grid.N if band is None else m <= band
    mask = inside[:, None] & inside[None, :]
    return mask if full else mask[:, : grid.spectral_shape[-1]]


def random_vector_field(grid, rng, band=None):
    """Random spectral vector field; band limits |m| per axis when given."""
    coeffs = np.stack(
        [_forward(random_real_field(grid, rng), grid) for _ in range(grid.d)]
    )
    if band is not None:
        coeffs = np.where(ball_mask(grid, band), coeffs, 0.0)
    return SpectralField(grid, coeffs)


def half_spectrum_weights(grid):
    """Parseval weights of the stored half-spectrum: 1 on columns 0 and N/2, else 2."""
    w = np.full(grid.spectral_shape, 2.0)
    w[..., 0] = 1.0
    w[..., -1] = 1.0
    return w


def thread_starts(monkeypatch):
    """Record the name of each thread started from now on; each still starts."""
    started = []
    start = threading.Thread.start

    def recorded(self):
        started.append(self.name)
        start(self)

    monkeypatch.setattr(threading.Thread, "start", recorded)
    return started


def bounded(fn, timeout=120.0):
    """``fn()`` on its own thread, joined with a timeout: ``(result, error)``."""
    out = [None, None]

    def target():
        try:
            out[0] = fn()
        except Exception as err:
            out[1] = err

    th = threading.Thread(target=target)
    th.start()
    th.join(timeout)
    assert not th.is_alive(), "the call did not finish in time"
    return tuple(out)
