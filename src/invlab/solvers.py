"""Time integration of the Leray-projected system and first-order approximants.

The evolved system is ``d/dt u = eps*Lap(u) - P(u . grad u)``, Galerkin-
truncated to the 2/3-rule ball (``eps = 0`` gives the ideal case).  It is
advanced as the vorticity ``w = d1 u2 - d2 u1``, ``d/dt w = eps*Lap(w) -
div(u w)`` with ``u = perp_grad Lap^-1 w + u(0)`` (``Grid.biot_savart``):
the same Galerkin system in exact arithmetic, since curl is a multiplier
and commutes with the mask, ``curl(u . grad u) = u . grad w = div(u w)`` for
divergence-free u, and the kept modes of a product of two fields in the
ball are alias-free (``spectral`` module docstring).  The mean ``u(0)`` is
constant and carried on its own.

A **layout** holds the state and evaluates ``-div(u w)`` on it; ``evolve``
and ``u2_duhamel`` run in the layout of their data, and their RK4 and
integrating-factor loop and their Duhamel sweep are the same for both.
``Ball``, the default, is the slab of the 2/3 ball, indexed by
``Grid.slab``: ``vorticity_rhs`` takes one inverse transform of the stack of
the slabs of w, u1 and u2 and one forward transform of the stack of the
products u1 w and u2 w, and no Leray projection (velocity form: 6 inverse, 2
forward and a projection).  It hands the slabs to the one transform pair
(``spectral._inverse``, ``spectral._forward``), whose column pass then
covers the keep + 1 columns of the slab only, and truncates each product to
the ball (``spectral.zero_outside_ball``).  Each field of a stack gets the
values of its own call, bitwise, and the right-hand side takes 4 calls of
the FFT backend where one transform per field would take 10; at N = 64 the
fixed cost of a call is about that of its work.  Every array it writes is
handed in, its result and an ``RhsWork``.  The work arrays are allocated
once per evolution and once per Duhamel sweep; the velocity samples it
returns, views of them, are overwritten by the next call.  ``Envelopes`` is
the Galerkin system of the ball restricted to boxes of modes around the
harmonics ``h c`` of a carrier mode: a shell datum and its evolution live
there, so its cost does not rise with the grid.  Measured on the n = 3 shell
(N = 512, H = 1, t up to 0.08, eps = 0 and 2^-6), the two layouts give
increments 1.5-7.4e-15 apart relative in L2 and 3.1-5.1e-13 in the Besov
norm restricted to the boxes; outside the boxes the ball holds FFT noise,
about 1e-23 of the peak per mode, which the Besov weights of the high blocks
raise to an increment difference of 6.5e-12-4.2e-11 relative to the
increment's Besov norm, itself 4e-14-6e-13.  The states, which
``perturbed-gap``'s additivity defect subtracts, differ by 1.2-7.9e-24 in
that norm.  One envelope evolution took 0.2 s against 6.3-7.0 s on the ball.

The data of ``evolve`` and ``u2_duhamel`` decide their layout: a
``SpectralField`` runs on the ``Ball`` of its grid, a ``BoxField`` on its own
``Envelopes``.  Each layout owns the one admission of the data,
``data``, called once by ``evolve`` and by ``u2_duhamel`` and repeated by
nothing: a non-finite value raises NumericsError, a nonzero coefficient
outside the 2/3-rule ball ResolutionError with ``required_n``
(``spectral.require_in_ball``), and a divergence defect above 1e-10
ValueError; it returns the data's vorticity in the layout and mean velocity
(``state_of``).  ``Ball`` checks the half-spectrum.  ``Envelopes`` checks a
``BoxField`` on its entries alone, with its Parseval weights, and refuses a
nonzero entry off its mask with ResolutionError: nothing lies outside the
entries, so no array of the grid is read, and a shell datum born on the
layout of its grid (``constructions.shell_box_velocity``) runs at any n.

A run stays in its layout's arrays up to its records.  Each layout has its
own velocity fields (``velocity``, ``field_k_sq``): the ball's are
half-spectra (``SpectralField``, built from slab vorticity by
``_velocity``), the envelopes' are ``BoxField``: the two components on the
entries of the boxes.  The heat multipliers act on them at the layout's
|xi|^2 (``spectral.heat_multiplier``), the divergence defect and the L2 and
p = 2 Besov norms of a ``BoxField`` are Parseval sums over its entries,
weighted as the half-spectrum weighs the modes they stand for
(``Envelopes.weight``), and ``BoxField.spectral`` (``Envelopes.slab``, then
``spectral._embed``) is the one exit to the half-spectrum, for the norms at
p != 2 and any other consumer.  Measured at n = 3 and 4, the box and the
half-spectrum values of the Besov norm and the divergence defect of states,
gaps and remainders agree within 3.4e-16 relative; a p = 2 Besov norm of a
``BoxField`` took 0.2 ms against 4.2 ms (N = 512) and 17 ms (N = 1024) on
the half-spectrum.

``evolve`` keeps the increment ``delta(t) = u(t) - exp(t eps Lap) u0`` over
the exact heat flow of the data, so a gap between two solutions of one
datum (``trajectory_gap``) or a first-order remainder never subtracts two
arrays of the size of ``u0``.  A ``Trajectory`` stores each increment as
vorticity in the layout's array, and builds its Biot-Savart image, a field
of the layout, on request.
Classical RK4 advances the vorticity increment in Lawson's
integrating-factor form (Lawson 1967; Cox & Matthews 2002), anchored at the
start of each step, so stiffness from the viscous term never enters the
stability restriction.  With ``E = exp(eps Lap dt/2)`` and ``b`` the heat
flow of the data at the stage's time, the stages take the right-hand side at
``E(delta + dt/2 k1) + b``, ``E delta + dt/2 k2 + b`` and ``E(E delta + dt
k3) + b``, and the step ends at ``E(E(delta + dt/6 k1) + dt/3 (k2 + k3)) +
dt/6 k4``: in exact arithmetic the same scheme as the one anchored at t = 0,
whose factors ``exp(+t eps |xi|^2)`` can overflow.  Here every factor is a
decay, so no viscosity, horizon or grid makes one overflow.  The horizon T
is the last sample time; it caps the step at T/64.  The admission keeps the
data in the ball, so the projection drops nothing.  The state holds every
nonzero entry; a sample's vorticity increment is delta itself, in the
layout's array.  No step measures the divergence, zero up to rounding for a
Biot-Savart image: the admission checks the data's, and ``Trajectory`` the
state's once per sample time (``div_rel``), in the layout's fields; on
envelopes ``evolve`` also checks that the boxes still hold the state
(``Envelopes.guard``).

The first-order expansion ``S^eps_t(u0) = u1(t) + u2(t) + O(t^2)`` is
computed here once: ``u1`` is the heat flow of the data, ``u2`` the Duhamel
integral of the same right-hand side by composite Simpson (a strict-mode
refinement check reuses the integrand evaluations), and
``first_order_remainders`` builds the four remainder fields from the
increments, ``u2`` and the exact linear time integral ``t phi1(t eps |xi|^2)``.
``u2_duhamel`` takes all sample times at once and sweeps the sorted union of
their Simpson nodes, evaluating the integrand once per distinct node (the
dyadic sample times share nodes bitwise), in ascending order on the calling
thread.  Each time's sum still adds its own terms in its own node order, so
the result equals a per-time loop bitwise.  Nothing in this module starts a
thread: which evolutions run side by side is decided by their one batching
caller, ``experiments.ExperimentContext.trajectory``.  The sums live in the
layout, where its right-hand side puts every nonzero entry, and ``u2``,
``pa0`` and the remainder fields are fields of the layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import (
    ConfigError,
    NumericsError,
    QuadratureError,
    ResolutionError,
    SolverDivergenceError,
)
from .littlewood_paley import build_partition
from .spectral import (
    Grid,
    SpectralField,
    _box_forward,
    _box_inverse,
    _check_heat_arguments,
    _embed,
    _forward,
    _inverse,
    curl,
    dealias_grid_size,
    divergence_defect,
    half_spectrum_l2,
    heat_integral_multiplier,
    heat_multiplier,
    require_in_ball,
    zero_outside_ball,
)


# CFL number of the adaptive step dt = min(T/64, CFL dx / max|u|), T the
# last sample time
CFL = 0.5
# a step whose max speed exceeds this multiple of the initial one diverged
BLOWUP_FACTOR = 1e3
# largest relative change of u2_duhamel when its node count is doubled
REFINE_TOL = 1e-8
# largest L2 share of the vorticity in the outer rings of the envelope boxes
# of one harmonic at a sample time (Envelopes.guard).  The ball's own L2
# rounding is the relative L2 difference of two evolutions of one Galerkin
# system whose floating-point operations differ in order only: 1.5-7.4e-15
# between the ball's and the envelopes' increments of the n = 3 shell.  The
# spectrum of a shell state falls off faster than geometrically across a
# ring of width b (the bump half-width), so what lies beyond a box is a small
# fraction of what its ring holds.  A ring share under 1e-14 keeps the
# truncation of the boxes below that rounding; a larger one says the state
# has outgrown them.  The shell runs measure 9e-27-7e-25 (n = 3, 4, 5).
RING_TOL = 1e-14


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution of one evolution, with per-step diagnostics.

    ``u0`` is the data, a field of its layout, and ``layout`` the layout
    the solver evolved, read from ``u0`` on construction (module
    docstring); ``increments[i]`` is the vorticity
    increment ``w(t_i) - exp(t_i eps Lap) w0`` in the layout's own array
    (``layout.k_sq.shape``): the ball's slab of the grid of ``u0``, or the
    boxes of ``Envelopes``.  ``increment_at`` returns its Biot-Savart image
    (``layout.velocity``), the velocity increment ``u(t_i) - exp(t_i eps
    Lap) u0`` (of zero mean, since the mean velocity is constant), and
    ``state_at`` adds the heat flow of the data back; both are fields of the
    layout, a ``SpectralField`` on the ball and a ``BoxField`` on envelopes,
    built anew on every call.  ``diagnostics`` holds ``t``, ``dt``,
    ``energy`` and ``max_speed`` per step, and ``ring_share`` per sample
    time on envelopes (empty on the ball); ``div_rel[i]``, the divergence
    defect of the state at ``times[i]``, is measured on construction where
    the state lives (``layout.divergence_defect``) and may not exceed 1e-9.
    """

    times: tuple
    increments: tuple
    eps: float
    u0: SpectralField | BoxField
    diagnostics: dict = field(compare=False)
    layout: Ball | Envelopes = field(init=False, compare=False)
    div_rel: tuple = field(init=False, compare=False)

    def __post_init__(self):
        layout = _layout_of(self.u0)
        object.__setattr__(self, "layout", layout)
        for inc in self.increments:
            if np.shape(inc) != layout.k_sq.shape:
                raise ValueError(
                    "an increment is stored as vorticity in the array of the layout "
                    "(on the ball, the slab of the grid of u0)"
                )
        # checked on the solution: the velocity increment is divergence-free
        # to rounding by construction, the data need not be
        defects = tuple(layout.divergence_defect(self.state_at(t)) for t in self.times)
        for t, d in zip(self.times, defects):
            if d > 1e-9:
                raise NumericsError(
                    f"snapshot at t={t} violates the divergence-free invariant "
                    f"(relative defect {d:.3e})"
                )
        object.__setattr__(self, "div_rel", defects)
        if not np.isfinite(self.diagnostics["energy"]).all():
            raise NumericsError("trajectory diagnostics contain non-finite values")

    def increment_at(self, t: float) -> SpectralField | BoxField:
        for ti, inc in zip(self.times, self.increments):
            if abs(ti - t) <= 1e-12:
                return self.layout.velocity(inc)
        raise ValueError(f"time {t} is not among the sampled times {self.times}")

    def state_at(self, t: float) -> SpectralField | BoxField:
        fac = heat_multiplier(self.layout.field_k_sq, t, self.eps)
        return replace(self.u0, coeffs=fac * self.u0.coeffs + self.increment_at(t).coeffs)


def trajectory_gap(a: Trajectory, b: Trajectory, t: float) -> SpectralField | BoxField:
    """``S^{eps_a}_t u0 - S^{eps_b}_t u0`` for two trajectories of one datum
    and one layout, a field of that layout.

    Formed as ``(exp(t eps_a Lap) - exp(t eps_b Lap)) u0 + (inc_a - inc_b)``,
    which subtracts no two arrays of the size of ``u0``.
    """
    _check_same_run(a, b)
    k_sq = a.layout.field_k_sq
    fac = heat_multiplier(k_sq, t, a.eps) - heat_multiplier(k_sq, t, b.eps)
    inc = a.increment_at(t).coeffs - b.increment_at(t).coeffs
    return replace(a.u0, coeffs=fac * a.u0.coeffs + inc)


def _max_speed(u1, u2) -> float:
    """The largest speed of the velocity samples ``u1``, ``u2``, which it
    overwrites: ``u1`` ends as the squared speed."""
    np.square(u1, out=u1)
    u1 += np.square(u2, out=u2)
    return float(np.sqrt(np.max(u1)))


def _velocity(grid: Grid, w: np.ndarray) -> np.ndarray:
    """Stacked velocity half-spectra of zero mean of slab vorticity ``w``."""
    out = _embed(grid.biot_savart[(slice(None),) + grid.slab] * w, grid)
    out[:, 0, 0] = 0.0
    return out


def _velocity_slabs(grid: Grid, w: np.ndarray, mean, out: np.ndarray) -> np.ndarray:
    """The stacked velocity slabs of slab vorticity ``w`` with mean ``mean``,
    into ``out``."""
    np.multiply(grid.biot_savart[(slice(None),) + grid.slab], w, out=out)
    out[:, 0, 0] = mean
    return out


class RhsWork:
    """The work arrays of ``vorticity_rhs`` on one grid, as stacks.

    ``phys`` holds four sample arrays: the first product, then the samples
    of w (which take the second product), u1 and u2.  ``rows`` is the row
    pass of the two products, a half-spectrum each, whose column pass runs
    in place in the leading keep + 1 columns.  ``slabs`` stacks the slabs
    of w, u1 and u2 at the front of the same memory (3 (keep + 1) <= N + 2
    columns), free again once their column pass has run in place.  One
    holder serves one thread at a time."""

    def __init__(self, grid: Grid):
        self.phys = np.empty((4,) + grid.shape)
        self.rows = np.empty((2,) + grid.spectral_shape, dtype=np.complex128)
        size = 3 * np.prod(grid.slab_shape)
        self.slabs = self.rows.reshape(-1)[:size].reshape((3,) + grid.slab_shape)


def vorticity_rhs(
    grid: Grid, w: np.ndarray, mean, work: RhsWork, out: np.ndarray
) -> tuple:
    """``-div(u w)`` masked to the 2/3 ball, into ``out``; returns the samples
    of ``u``.

    ``w`` and ``out`` are distinct slabs (``Grid.slab_shape``) and ``u`` is
    the Biot-Savart velocity of the dealias-safe ``w`` plus ``mean``.  The
    result is ``-curl P(u . grad u)``; its Biot-Savart image is ``-P(u .
    grad u)`` less its mean, which is zero in exact arithmetic.  One inverse
    transforms the stack of w, u1 and u2, one forward the stack of u1 w and
    u2 w.  Every array the transforms write is ``out`` or one of ``work``,
    so the returned samples are overwritten by the next call with the same
    ``work``.
    """
    slabs = work.slabs
    np.copyto(slabs[0], w)
    _velocity_slabs(grid, w, mean, slabs[1:])
    _inverse(slabs, grid, work.phys[1:], slabs)
    prod, w_phys, u1, u2 = work.phys
    np.multiply(u1, w_phys, out=prod)
    np.multiply(u2, w_phys, out=w_phys)
    f = _forward(work.phys[:2], grid, work.rows[..., : grid.slab_shape[-1]], work.rows)
    zero_outside_ball(f, grid)
    np.multiply(f[0], -1j * grid.freq_axis(0), out=out)
    f[1] *= 1j * grid.freq_axis(1)[grid.slab]
    out -= f[1]
    return u1, u2


# ---------------------------------------------------------------------------
# layouts: the state of one Galerkin system and its right-hand side


def _require_divergence_free(defect: float) -> None:
    if defect > 1e-10:
        raise ValueError(f"initial data is not divergence-free (relative defect {defect:.3e})")


@dataclass(frozen=True)
class Ball:
    """The slab of the 2/3 ball of ``grid`` (``Grid.slab``), the default layout.

    A layout holds a state w and its right-hand side -div(u w) in its own
    arrays: ``k_sq`` is |xi|^2 at each entry, ``data`` admits a velocity and
    returns its vorticity state and mean velocity, as ``state_of`` does for
    a field of the layout (module docstring), ``rhs`` writes the
    right-hand side and returns samples for ``speed``, ``velocity_l2`` is the
    L2 norm of the velocity, and ``guard`` checks a state at a sample time.
    A layout also has its own velocity fields: ``velocity`` gives the
    Biot-Savart image of a state, ``field_k_sq`` is |xi|^2 at the entries
    of a component, where the heat multipliers act, and
    ``divergence_defect`` measures a field.  The ball's fields are the
    half-spectra of ``grid``.
    """

    grid: Grid

    @property
    def k_sq(self) -> np.ndarray:
        return self.grid.k_sq[self.grid.slab]

    def data(self, u0: SpectralField) -> tuple:
        """The admission (module docstring), on the half-spectrum."""
        _require_divergence_free(divergence_defect(u0))
        require_in_ball(u0)
        return self.state_of(u0)

    def state_of(self, F: SpectralField) -> tuple:
        return curl(F).coeffs[self.grid.slab].copy(), F.coeffs[:, 0, 0]

    def work(self) -> RhsWork:
        return RhsWork(self.grid)

    def rhs(self, w, mean, work, out):
        return vorticity_rhs(self.grid, w, mean, work, out)

    @staticmethod
    def speed(samples) -> float:
        return _max_speed(*samples)

    def velocity_l2(self, w, mean, work) -> float:
        # the velocity on the whole half-spectrum, in the row-pass buffers:
        # half_spectrum_l2 sums the same arrays as it would for the velocity
        # of the embedded state
        g = self.grid
        _velocity_slabs(g, w, mean, work.rows[(slice(None),) + g.slab])
        work.rows[..., g.slab_shape[-1] :] = 0.0
        return half_spectrum_l2(work.rows, g)

    def guard(self, w, t: float) -> None:
        return None

    @property
    def field_k_sq(self) -> np.ndarray:
        return self.grid.k_sq

    def velocity(self, w: np.ndarray) -> SpectralField:
        return SpectralField(self.grid, _velocity(self.grid, w))

    @staticmethod
    def divergence_defect(F: SpectralField) -> float:
        return divergence_defect(F)


def _harmonic_products(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The envelopes p = 0 .. H of products of two envelope sums, into ``out``.

    ``a`` and ``b`` hold the samples of the envelopes h = 0 .. H of their
    sums on axis -3, after any leading axes, which broadcast.  The envelope
    p of the product is ``sum_h a_h b_(p-h)`` over ``|h|, |p - h| <= H``,
    with ``a_-h = conj(a_h)`` and ``b_-h = conj(b_h)`` on the samples, as the
    sums are real.
    """
    H = a.shape[-3] - 1
    ext = np.concatenate((np.conj(a[..., :0:-1, :, :]), a), axis=-3)  # a_(i - H) at i
    rev = np.concatenate((np.conj(b[..., :0:-1, :, :]), b), axis=-3)[..., ::-1, :, :]
    for p in range(H + 1):  # rev holds b_(H - i) at i
        terms = ext[..., p:, :, :] * rev[..., : 2 * H + 1 - p, :, :]
        np.sum(terms, axis=-3, out=out[..., p, :, :])
    return out


class EnvelopeWork:
    """The work arrays of ``Envelopes.rhs``: coefficients and samples of w
    and u, and the products' samples and coefficients, per harmonic."""

    def __init__(self, layout: Envelopes):
        shape = (layout.H + 1, layout.M, layout.M)
        self.spec = np.empty((3,) + shape, dtype=np.complex128)
        self.phys = np.empty_like(self.spec)
        self.prod = np.empty((2,) + shape, dtype=np.complex128)
        self.coef = np.empty_like(self.prod)


@dataclass(frozen=True)
class Envelopes:
    """Harmonic envelopes: the ball of ``grid`` restricted to boxes around the
    harmonics of a carrier mode c (``carrier``).

    A state ``w = sum_{|h| <= H} exp(i h c x1 / R) A_h(x)`` is stored as the
    coefficients of A_0 .. A_H on the boxes ``|m_j| <= W`` (``width``), in FFT
    layout on an M x M array, M = ``dealias_grid_size(W)``; ``A_-h`` is the
    conjugate of ``A_h``, as w is real.  Entry ``(h, m)`` is the torus mode
    ``(h c + m_1, m_2)`` of ``grid``, so the Galerkin system is the ball's,
    restricted to the union S of the boxes: H counts the harmonics whose
    boxes meet the ball, and each box is clipped to it.  A product of two
    envelopes has modes ``|m| <= 2W``, which alias onto no kept mode on M >=
    3W + 1 points, and lands in the box of ``h + k`` alone when c > 3W (a
    mode of box p would need ``|(h + k - p) c + m| <= W``).  Biot-Savart and
    -div are multipliers at the true frequencies ``((h c + m_1)/R, m_2/R)``.

    A shell datum is born on the layout of its grid
    (``constructions.shell_box_velocity``), whose entries ``modes`` names:
    ``modes[j]`` is the torus mode m_j of each entry.  H is what the ball of
    that power-of-two grid holds, not the ``order`` it was sized for
    (``ExperimentContext.box_datum`` lists the radii where they differ); at
    R = 12 the grid of the datum has H = 1, and that of its quadratic terms
    H = 2, whose boxes of 0 and +/-2c hold the terms ``advect`` and
    ``gradient_part`` form in velocity form on the entries
    (``spectral.advect``, ``spectral.leray_complement``).

    ``data`` admits a field of the layout on its entries (module
    docstring); ``guard`` measures, at each
    sample time, the vorticity's L2 share in the outer ring ``|m|_inf > W -
    ring`` of the boxes of each harmonic and raises ResolutionError above
    ``RING_TOL``; ``slab`` scatters a state, or a stack of them, into the
    slab of ``grid``.  The fields of the layout
    are ``BoxField``: velocities on the same entries, whose L2 norms are
    Parseval sums over them (``l2``, the one weighting rule: ``weight``).
    """

    grid: Grid
    carrier: int
    width: int
    ring: int

    def __post_init__(self):
        g, c, W = self.grid, self.carrier, self.width
        if not c > 3 * W:
            raise ResolutionError(
                f"carrier mode {c} is not above 3W = {3 * W}: a product of "
                f"envelopes of half-width {W} could land in a neighbouring box"
            )
        keep, M = g.dealias_keep, dealias_grid_size(W)
        H = (keep + W) // c  # the largest h with h c - W <= keep
        m = np.fft.fftfreq(M, d=1.0 / M).astype(np.int64)
        h = np.arange(H + 1)[:, None, None]
        m1, m2 = m[None, :, None], m[None, None, :]
        t1 = np.broadcast_to(h * c + m1, (H + 1, M, M))  # the torus modes
        t2 = np.broadcast_to(m2, t1.shape)
        box = (np.abs(m1) <= W) & (np.abs(m2) <= W)
        mask = box & (np.abs(t1) <= keep) & (np.abs(t2) <= keep)
        xi1, xi2 = t1 / g.R, t2 / g.R
        k_sq = xi1**2 + xi2**2
        inv = np.zeros(k_sq.shape)
        np.divide(1.0, k_sq, out=inv, where=k_sq > 0)

        def at(sel, sign):
            # the entries ``sel`` and their slab index, of the mode or, with
            # sign -1, of its conjugate mirror
            return np.nonzero(sel), ((sign * t1[sel]) % g.N, sign * t2[sel])

        derived = dict(
            H=H,
            M=M,
            modes=np.stack((t1, t2)),
            mask=mask,
            k_sq=k_sq,
            k_mag=np.sqrt(k_sq),
            biot_savart=np.stack((1j * xi2 * inv, -1j * xi1 * inv)) * mask,
            minus_div=np.stack((-1j * xi1, -1j * xi2)) * mask,
            # Parseval weight of each entry, the half-spectrum's rule on the
            # modes ``slab`` writes: an entry of box h > 0 also stands for its
            # mirror in box -h (2); box 0 holds m and -m, so an entry with
            # m_2 > 0 weighs 2, with m_2 = 0 one, with m_2 < 0 none
            weight=np.where(h == 0, np.sign(m2) + 1.0, 2.0),
            outer=mask & (np.maximum(np.abs(m1), np.abs(m2)) > W - self.ring),
            direct=at(mask & (t2 >= 0), 1),  # stored as they are
            mirror=at(mask & (t2 <= 0) & (h >= 1), -1),  # the mirrors of box -h
        )
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    def data(self, u0: BoxField) -> tuple:
        """The admission (module docstring), on the entries."""
        if not np.isfinite(u0.coeffs).all():
            raise NumericsError("field has a non-finite entry")
        if np.any(u0.coeffs[:, ~self.mask]):
            raise ResolutionError(
                "field has nonzero entries off the layout's mask, beyond its "
                f"boxes |m - h c| <= {self.width} or the ball of N={self.grid.N}"
            )
        _require_divergence_free(self.divergence_defect(u0))
        return self.state_of(u0)

    def state_of(self, F: BoxField) -> tuple:
        # curl u = d1 u2 - d2 u1 on the entries: minus_div holds -i xi_j, so
        # each product is the negation of curl's, and the vorticity its bits
        u1, u2 = F.coeffs
        return self.minus_div[1] * u1 - self.minus_div[0] * u2, F.coeffs[:, 0, 0, 0]

    def slab(self, w: np.ndarray) -> np.ndarray:
        out = np.zeros(w.shape[:-3] + self.grid.slab_shape, dtype=np.complex128)
        (i, at), (j, mirrored) = self.direct, self.mirror
        out[(...,) + at] = w[(...,) + i]
        # + 0.0: the conjugate of a zero entry is -0.0j, and the half-spectrum
        # holds +0.0 there (``constructions.shell_velocity`` is pinned by bytes)
        out[(...,) + mirrored] = np.conj(w[(...,) + j]) + 0.0
        return out

    def work(self) -> EnvelopeWork:
        return EnvelopeWork(self)

    def _samples(self, w, mean, work) -> np.ndarray:
        # the samples of each envelope of w and of u = Biot-Savart(w) + mean
        np.copyto(work.spec[0], w)
        np.multiply(self.biot_savart, w, out=work.spec[1:])
        work.spec[1:, 0, 0, 0] = mean
        return _box_inverse(work.spec, self.grid.L, work.phys)

    def rhs(self, w, mean, work, out):
        """-div(u w) on the boxes into ``out``; returns the velocity samples."""
        samples = self._samples(w, mean, work)
        _harmonic_products(samples[1:], samples[0], work.prod)
        f = _box_forward(work.prod, self.grid.L, work.coef)
        np.multiply(self.minus_div[0], f[0], out=out)
        out += np.multiply(self.minus_div[1], f[1], out=f[1])
        return samples[1:]

    def advect(self, u: BoxField, v: BoxField) -> BoxField:
        """``u . grad v`` on the boxes, in velocity form (``spectral.advect``).

        One inverse transform of the stacked envelopes of u_j and of d_j v_i
        (d_j = -``minus_div[j]``), their harmonic products summed over j
        (``_harmonic_products``) and one forward transform, masked.  The
        entries are the ball's product where its modes lie in the boxes: for
        the shell datum and its heat flow, whose modes lie within b of +/-c,
        every mode of a product lies within 2b < W of 0 or +/-2c, so on a
        layout with H = 2 the entries hold the whole product.
        """
        shape = self.k_sq.shape
        grad = -self.minus_div[None] * v.coeffs[:, None]  # d_j v_i at [i, j]
        stack = np.concatenate((u.coeffs, grad.reshape((4,) + shape)))
        samples = _box_inverse(stack, self.grid.L)
        prod = np.empty((2, 2) + shape, dtype=np.complex128)
        _harmonic_products(samples[:2], samples[2:].reshape(prod.shape), prod)
        f = _box_forward(prod.sum(axis=1), self.grid.L)
        return BoxField(self, f * self.mask)

    def gradient_part(self, F: BoxField) -> BoxField:
        """The gradient part ``xi (xi . F) / |xi|^2`` of a field of the layout,
        0 at xi = 0 (``spectral.leray_complement``)."""
        div = self.minus_div[0] * F.coeffs[0] + self.minus_div[1] * F.coeffs[1]
        np.divide(div, self.k_sq, out=div, where=self.k_sq > 0)  # div is 0 at xi = 0
        return BoxField(self, -self.minus_div * div)

    @staticmethod
    def speed(samples) -> float:
        """An upper bound of the speed at the envelope lattice's points:
        ``|u| <= |U_0| + 2 sum_(h>0) |U_h|`` whatever the carrier's phase."""
        mag = np.sqrt(np.abs(samples[0]) ** 2 + np.abs(samples[1]) ** 2)
        return float(np.max(mag[0] + 2.0 * mag[1:].sum(axis=0)))

    def velocity_l2(self, w, mean, work) -> float:
        u = np.multiply(self.biot_savart, w, out=work.spec[1:])
        u[:, 0, 0, 0] = mean
        return self.l2(u)

    def l2(self, components) -> float:
        """Parseval L2 norm of a field given by its components' entries,
        each weighted by ``weight``."""
        sq = sum(np.abs(c) ** 2 for c in components)
        return float(np.sqrt(float(np.sum(self.weight * sq)) / self.grid.L**self.grid.d))

    @property
    def field_k_sq(self) -> np.ndarray:
        return self.k_sq

    def velocity(self, w: np.ndarray) -> BoxField:
        return BoxField(self, self.biot_savart * w)

    def divergence_defect(self, F: BoxField) -> float:
        """||div u||_L2 / ||u||_L2 of a field of the layout, on its entries."""
        nu = self.l2(F.coeffs)
        if nu == 0.0:
            return 0.0
        return self.l2([self.minus_div[0] * F.coeffs[0] + self.minus_div[1] * F.coeffs[1]]) / nu

    @cached_property
    def blocks(self) -> np.ndarray:
        """The Besov block multipliers at the entries, j = -1 .. j_max of the
        grid's partition (``DyadicPartition.multipliers``)."""
        return build_partition(self.grid).multipliers(self.k_mag)

    def guard(self, w, t: float) -> float:
        """The largest L2 share of the vorticity ``w`` in the outer rings of
        the boxes of one harmonic pair +/-h; above ``RING_TOL`` the boxes no
        longer hold the state."""
        sq = self.weight * np.abs(w) ** 2
        total = float(np.sum(sq))
        ring = np.sum(np.where(self.outer, sq, 0.0), axis=(1, 2))
        share = float(np.sqrt(ring.max() / total)) if total > 0 else 0.0
        if share > RING_TOL:
            wider = 2 * self.width
            raise ResolutionError(
                f"at t={t} the vorticity holds an L2 share {share:.3e} in the "
                f"outer ring of an envelope box (tolerance {RING_TOL:g}): the "
                f"state outgrows boxes of half-width {self.width}; it needs "
                f"wider boxes, W = {wider} on an envelope grid of "
                f"M = {dealias_grid_size(wider)}"
            )
        return share


@dataclass(frozen=True)
class BoxField:
    """A real velocity field on the entries of an ``Envelopes`` layout.

    ``coeffs`` has shape ``(2,) + layout.k_sq.shape``, component i at
    ``coeffs[i]``: the coefficient of the torus mode of each entry, 0 off
    ``layout.mask``.  The Besov norms take it as they take a
    ``SpectralField``: at p = 2 by Parseval on the entries, at any other p
    through ``spectral``, the one exit to the half-spectrum of ``grid``.
    """

    layout: Envelopes
    coeffs: np.ndarray

    def __post_init__(self):
        shape = (self.grid.d,) + self.layout.k_sq.shape
        if self.coeffs.shape != shape:
            raise ConfigError(
                f"coefficient array shape {self.coeffs.shape} is not {shape}, "
                f"the components on the entries of the layout"
            )

    @property
    def grid(self) -> Grid:
        return self.layout.grid

    def spectral(self) -> SpectralField:
        """The same field on the half-spectrum of ``grid``."""
        return SpectralField(self.grid, _embed(self.layout.slab(self.coeffs), self.grid))


def evolve(
    u0: SpectralField | BoxField,
    eps: float,
    sample_times: Sequence[float],
    dt_fixed: float | None = None,
) -> Trajectory:
    """Integrate the projected system, landing exactly on the sample times.

    The horizon T is the last sample time.  Steps are capped at T/64 and by
    the CFL condition on the grid of ``u0``; ``dt_fixed`` forces a constant
    step (for convergence studies) and bypasses both.  ``u0`` must pass the
    admission of its layout (``data``: finite, in the ball and in the
    layout, with a divergence defect of at most 1e-10); the states' defects
    are taken per sample time, by ``Trajectory``.  A half-spectrum runs on
    the ``Ball`` of its grid, a ``BoxField`` on its own ``Envelopes``.  Each
    step is RK4 in Lawson's form anchored at its start (module docstring),
    whose factors only decay, so any ``eps`` in [0, 1] runs to any horizon.
    The vorticity increment at a sample time is the state's delta, in the
    layout's array.  Each per-step diagnostic has one entry per step, none
    when only t = 0 is sampled.
    """
    if not (0.0 <= eps <= 1.0):
        raise ValueError(f"viscosity must lie in [0, 1], got {eps}")
    if dt_fixed is not None and not dt_fixed > 0:
        raise ValueError(f"a fixed step must be > 0, got {dt_fixed}")
    g = u0.grid
    layout = _layout_of(u0)
    b, mean = layout.data(u0)
    targets = sorted(set(float(t) for t in sample_times))
    if not targets or targets[0] < 0:
        raise ValueError(f"need one or more sample times >= 0, got {targets}")
    horizon = targets[-1]

    # every array of the state has the layout's shape, allocated once: the
    # data's heat flow b = exp(t eps Lap) w0 at the current stage time (the
    # layout's own copy; the mean velocity is constant), the increment delta
    # = w - b (0 at t = 0), a stage's state (between steps, w(t)), the decay
    # E = exp(-eps |xi|^2 dt/2) over half a step of the last step size, and
    # the stages' right-hand sides (k4 reuses k3's array)
    k_sq = layout.k_sq
    delta = np.zeros_like(b)
    s = b.copy()
    E = np.empty(k_sq.shape)
    k1, k2, k3 = (np.empty_like(b) for _ in range(3))
    work = layout.work()

    increments = []
    diag = {k: [] for k in ("t", "dt", "energy", "max_speed", "ring_share")}
    guard = None  # BLOWUP_FACTOR times the data's speed, set on the first step
    # a new step size recomputes E (the final step before each sample time
    # is shorter)
    step_dt = None

    def load(h, k):
        # a stage's state (h k + delta) + b, into s
        np.multiply(k, h, out=s)
        np.add(s, delta, out=s)
        np.add(s, b, out=s)

    # A step that would end within ``land`` of a sample time ends on it.
    # Each ``t + dt`` rounds by at most half an ulp, 2**-53 * horizon, so m
    # steps leave t within m * 1.1e-16 * horizon of the exact sum: 1e-12 *
    # horizon absorbs that drift for up to about 9,000 steps (64 under the
    # T/64 cap) and stretches a final step by at most 1e-12 * horizon.
    land = 1e-12 * horizon
    t = 0.0
    for target in targets:
        while t < target - land:
            # stage 1 of RK4 needs no dt: its velocity samples give the CFL
            # speed
            speed = layout.speed(layout.rhs(s, mean, work, k1))
            if not np.isfinite(speed):
                raise NumericsError(f"non-finite state at t={t}")
            if guard is None:  # the first step's stage 1 runs at s = b
                guard = BLOWUP_FACTOR * max(speed, 1e-300)
            if speed > guard:
                raise SolverDivergenceError(
                    f"max speed {speed:.3e} exceeded {BLOWUP_FACTOR:g} x initial "
                    f"at t={t}"
                )
            if dt_fixed is not None:
                dt = dt_fixed
            else:
                dt = horizon / 64.0
                if speed > 0:
                    dt = min(dt, CFL * g.dx / speed)
            remaining = target - t
            final_step = dt >= remaining - land
            if final_step:
                dt = remaining
            if dt != step_dt:
                step_dt = dt
                np.multiply(np.multiply(k_sq, eps, out=E), -dt / 2.0, out=E)
                np.exp(E, out=E)

            # classical RK4 in Lawson's form, anchored at the start of the
            # step: the stage states are E(delta + dt/2 k1) + b, E delta +
            # dt/2 k2 + b and E(E delta + dt k3) + b, with b moved on by
            # half a step at the midpoint and at the end
            k1 *= E
            delta *= E
            b *= E
            load(dt / 2.0, k1)
            layout.rhs(s, mean, work, k2)
            load(dt / 2.0, k2)
            layout.rhs(s, mean, work, k3)
            # the update needs only k2 + k3, so k3's array takes k4 once
            # stage 4 has its state
            k2 += k3
            np.multiply(k3, dt, out=s)
            s += delta
            s *= E
            b *= E
            s += b
            layout.rhs(s, mean, work, k3)
            # delta <- E(E(delta + dt/6 k1) + dt/3 (k2 + k3)) + dt/6 k4, as
            # E (E delta) + dt/6 (E (E k1 + 2 (k2 + k3)) + k4), then the
            # state after the step
            k2 *= 2.0
            k2 += k1
            k2 *= E
            k2 += k3
            k2 *= dt / 6.0
            delta *= E
            delta += k2
            np.add(delta, b, out=s)

            t = target if final_step else t + dt
            energy = layout.velocity_l2(s, mean, work)
            if not np.isfinite(energy):
                raise NumericsError(f"non-finite state after step to t={t}")
            diag["t"].append(t)
            diag["dt"].append(dt)
            diag["energy"].append(energy)
            diag["max_speed"].append(speed)
        share = layout.guard(s, target)  # s is the state w(target)
        if share is not None:
            diag["ring_share"].append(share)
        increments.append(delta.copy())

    # the work arrays are freed before Trajectory measures the sampled states
    del work, b, delta, s, k1, k2, k3, E
    return Trajectory(
        times=tuple(targets),
        increments=tuple(increments),
        eps=eps,
        u0=u0,
        diagnostics={k: np.asarray(v) for k, v in diag.items()},
    )


def _layout_of(u0: SpectralField | BoxField) -> Ball | Envelopes:
    """The layout of the data ``u0``: a ``BoxField``'s own, else the
    ``Ball`` of the grid of ``u0``."""
    return u0.layout if isinstance(u0, BoxField) else Ball(u0.grid)


def _simpson_weights(t: float, nodes: int) -> np.ndarray:
    h = t / (nodes - 1)
    w = np.full(nodes, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return w * (h / 3.0)


def u2_duhamel(
    u0: SpectralField | BoxField,
    times: Iterable[float],
    eps: float,
    nodes: int = 17,
    refine: bool = False,
) -> Iterator[SpectralField | BoxField]:
    """First-order nonlinear correction at each of ``times``, by composite Simpson.

    Solves ``d/dt u2 = eps*Lap(u2) - P(u1 . grad u1)`` from zero data, i.e.
    ``u2(t) = -int_0^t exp((t-tau) eps Lap) P(u1 . grad u1)(tau) dtau``, on
    ``nodes`` equispaced nodes of ``[0, t]``.  With ``refine`` set the
    integrand is evaluated on the doubled grid of ``2*(nodes-1)+1`` nodes:
    the fine sum is the result, the even-indexed nodes give the
    ``nodes``-point sum, and a relative change between the two above
    ``REFINE_TOL``, at any of the times, raises a QuadratureError, and a
    non-finite change or fine sum a NumericsError.  ``u0`` runs in its
    layout and must pass its admission, as for ``evolve``.

    The vorticity of the integrand, ``F(tau) = -div(u w)`` at ``w =
    exp(tau eps Lap) w0`` with ``w0 = curl u0``, is evaluated in the layout
    (``rhs``) once per distinct node of all the times, tau = 0 among them,
    in ascending order on the calling thread with one work object.  The
    experiments sweep envelopes only (``expansion-residuals``), whose
    right-hand sides on 32 x 32 boxes hold the interpreter lock for most of
    their time: with the sweep and the evolutions in order, a strict n = 3
    run fell from 0.31 to 0.20 s and from 47.5 to 43.0 MiB peak RSS
    (2 CPUs).  Each time's sum, an array of the layout, adds its terms
    ``w_i exp((t-tau_i) eps Lap) F(tau_i)`` in ascending node order, as a
    loop over its own nodes would.
    The sweep and every refinement check run on the call; the returned
    iterator yields one velocity field of the layout per time, the
    Biot-Savart image of its sum (``velocity``), built as it advances.
    """
    g = u0.grid
    if nodes < 9 or nodes % 2 == 0:
        raise ValueError(f"composite Simpson needs an odd node count >= 9, got {nodes}")
    layout = _layout_of(u0)
    w0, mean = layout.data(u0)
    times = tuple(times)
    for t in times:
        _check_heat_arguments(t, eps)
    fine_nodes = 2 * (nodes - 1) + 1 if refine else nodes
    # the (time, node) index pairs of each distinct node; tau_i of a time
    # equals tau_2i of twice that time bitwise, so dyadic times share nodes
    uses: dict = {}
    for k, t in enumerate(times):
        for i, tau in enumerate(np.linspace(0.0, t, fine_nodes)):
            uses.setdefault(float(tau), []).append((k, i))
    fine_w = [_simpson_weights(t, fine_nodes) for t in times]
    coarse_w = [_simpson_weights(t, nodes) for t in times]
    k_sq = layout.k_sq
    work = layout.work()
    F = np.empty_like(w0)
    fine = [np.zeros(k_sq.shape, dtype=np.complex128) for _ in times]
    coarse = [np.zeros_like(s) for s in fine] if refine else None
    for tau in sorted(uses):
        # F(tau) at the data's heat flow, then exp((t - tau) eps Lap) F(tau)
        # for each time with node tau
        layout.rhs(heat_multiplier(k_sq, tau, eps) * w0, mean, work, F)
        terms = {
            k: F * heat_multiplier(k_sq, times[k] - tau, eps)
            for k in dict.fromkeys(k for k, _ in uses[tau])
        }
        for k, i in uses[tau]:
            fine[k] += fine_w[k][i] * terms[k]
            if refine and i % 2 == 0:
                # tau_i on the fine grid equals tau_(i/2) on the coarse one
                coarse[k] += coarse_w[k][i // 2] * terms[k]
    if refine:
        # L2 norms of the velocities, of zero mean
        zero = np.zeros(2)
        for t, f, c in zip(times, fine, coarse):
            c -= f
            diff = layout.velocity_l2(c, zero, work)
            scale = layout.velocity_l2(f, zero, work)
            if not (np.isfinite(diff) and np.isfinite(scale)):
                raise NumericsError(f"Duhamel quadrature at t={t} is non-finite")
            if scale > 0 and diff / scale > REFINE_TOL:
                raise QuadratureError(
                    f"Duhamel quadrature not converged at t={t}: doubling {nodes} "
                    f"nodes moved the result by {diff / scale:.3e} "
                    f"(tolerance {REFINE_TOL})"
                )
    fine.reverse()
    return (layout.velocity(fine.pop()) for _ in times)


def _check_same_run(a: Trajectory, b: Trajectory) -> None:
    """Raise unless ``a`` and ``b`` evolved one layout from one datum, whose
    entries in the layout they compare."""
    if a.layout != b.layout:
        raise ValueError("the trajectories evolved different layouts")
    if a.u0 is b.u0:
        return
    fa, fb = a.u0.coeffs, b.u0.coeffs
    if np.max(np.abs(fa - fb)) > 1e-13 * max(np.max(np.abs(fa)), 1e-300):
        raise ValueError("trajectory was computed from different initial data")


class FirstOrderRemainders(NamedTuple):
    """The remainder fields at one time, of the trajectories' layout."""

    euler: SpectralField | BoxField
    navier_stokes: SpectralField | BoxField
    drift: SpectralField | BoxField
    heat_defect: SpectralField | BoxField


def first_order_remainders(
    traj0: Trajectory,
    traj_eps: Trajectory,
    times: Iterable[float],
    nodes: int = 17,
    refine: bool = False,
) -> Iterator[FirstOrderRemainders]:
    """Yield the FirstOrderRemainders at each of ``times``, one at a time.

    With ``u0`` the data of ``traj0``, ``pa0 = P(u0 . grad u0)``, ``F(tau) =
    P(u1 . grad u1)(tau)``, ``eps`` the viscosity of ``traj_eps`` and
    ``delta0``, ``delta_eps`` the increments of the two trajectories over the
    heat flow of ``u0``:

    - euler: ``S0_t(u0) - u0 + t pa0 = delta0(t) + t pa0`` (``traj0`` must
      be ideal);
    - navier_stokes: ``S^eps_t(u0) - u1(t) - u2(t) = delta_eps(t) - u2(t)``,
      since ``u1(t) = exp(t eps Lap) u0``, with ``u2`` from
      ``u2_duhamel(u0, times, eps, nodes, refine)``;
    - drift: ``int_0^t exp((t-tau) eps Lap) (F(tau) - pa0) dtau``.  Since
      ``u2 = -int_0^t exp((t-tau) eps Lap) F(tau) dtau``, this equals
      ``-u2 - int_0^t exp((t-tau) eps Lap) dtau . pa0``, and the linear
      integral is the exact multiplier ``t phi1(t eps |xi|^2)``
      (``spectral.heat_integral_multiplier``), so no further quadrature is
      needed;
    - heat_defect: ``int_0^t (exp((t-tau) eps Lap) - Id) pa0 dtau``
      ``= (t phi1 - t) pa0``.

    ``pa0``, ``u2`` and the remainder fields are fields of the layout of the
    trajectories (``SpectralField`` on the ball, ``BoxField`` on envelopes).  On
    the call the guards run first (ideal ``traj0``, ``traj_eps`` from the
    data and the layout of ``traj0``), then ``u2_duhamel``: its admission of
    ``u0`` is the only one, so it also covers trajectories rebuilt from
    stored increments, and its one sweep serves all the times.  ``pa0`` is
    taken from ``traj0.u0``.  A time's ``u2`` and its four remainder
    fields are built together as the iterator reaches it.
    """
    if traj0.eps != 0.0:
        raise ValueError(f"need an ideal (eps=0) trajectory, got eps={traj0.eps}")
    _check_same_run(traj0, traj_eps)
    times, layout, eps = tuple(times), traj0.layout, traj_eps.eps
    u2s = u2_duhamel(traj0.u0, times, eps, nodes, refine)
    w0, mean = layout.state_of(traj0.u0)
    r0 = np.empty_like(w0)
    layout.rhs(w0, mean, layout.work(), r0)
    pa0 = -layout.velocity(r0).coeffs  # coefficients of P(u0 . grad u0)

    def remainders(t, u2):
        # the expressions above, as fields of the layout
        lin = heat_integral_multiplier(layout.field_k_sq, t, eps)
        euler, ns = traj0.increment_at(t), traj_eps.increment_at(t)
        return FirstOrderRemainders(
            replace(euler, coeffs=euler.coeffs + t * pa0),
            replace(ns, coeffs=ns.coeffs - u2.coeffs),
            replace(u2, coeffs=-u2.coeffs - lin * pa0),
            replace(u2, coeffs=(lin - t) * pa0),
        )

    return (remainders(t, u2) for t, u2 in zip(times, u2s))
