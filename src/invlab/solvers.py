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
and ``u2_duhamel`` take one, and their RK4 and integrating-factor loop and
their Duhamel sweep are the same for both.  ``Ball``, the default, is the
slab of the 2/3 ball, indexed by ``Grid.slab``: ``vorticity_rhs`` takes 3
inverse and 2 forward transforms and no Leray projection (velocity form: 6,
2 and a projection), hands the slab to the one transform pair
(``spectral._inverse``, ``spectral._forward``), whose column pass then
covers the keep + 1 columns of the slab only, and truncates each product to
the ball (``spectral.zero_outside_ball``).  Every array it writes is handed
in, its result and an ``RhsWork``.  The work arrays are allocated once per
evolution and once per thread of a Duhamel sweep; the velocity samples it
returns are overwritten by the next call.  ``Envelopes`` is the Galerkin
system of the ball restricted to boxes of modes around the harmonics ``h c``
of a carrier mode: a shell datum and its evolution live there, so its cost
does not grow with the grid.  Measured on the n = 3 shell (N = 512, H = 1,
t up to 0.08, eps = 0 and 2^-6), the two layouts give increments 1.5-7.4e-15
apart relative in L2 and 3.1-5.1e-13 in the Besov norm restricted to the
boxes; outside the boxes the ball holds FFT noise, about 1e-23 of the peak
per mode, which the Besov weights of the high blocks raise to a raw Besov
difference of 6.5e-12-4.2e-11.  One envelope evolution took 0.2 s against
6.3-7.0 s on the ball.  Ball data stay on the slab inside this module: the
data enter as their vorticity in the layout and their mean velocity
(``_slab_data``, ``Envelopes.data``), every layout returns slab vorticity
(``slab``), and ``_velocity`` is the one exit from slab vorticity to a
velocity half-spectrum.

``evolve`` keeps the increment ``delta(t) = u(t) - exp(t eps Lap) u0`` over
the exact heat flow of the data, so a gap between two solutions of one
datum (``trajectory_gap``) or a first-order remainder never subtracts two
arrays of the size of ``u0``.  A ``Trajectory`` stores each increment as
vorticity on the slab, and builds its Biot-Savart image on request.
Classical RK4 advances the vorticity increment in the integrating-factor
variable anchored at t = 0 (Cox & Matthews 2002),
``E = exp(-t eps Lap)(w - exp(t eps Lap) w0)``, so stiffness
from the viscous term never enters the stability restriction, and
``exp(+t eps |xi|^2)`` must stay finite: ``eps T max|xi|^2`` <=
``EXPONENT_LIMIT``.  The horizon T is the last sample time; it also caps the
step at T/64.  The data are admitted by ``spectral.require_in_ball``, the
one admission rule of the 2/3-rule ball (``spectral`` module docstring), so
the projection drops nothing, and by the layout.  The state holds every
nonzero entry; a sample's vorticity increment is the decoded E, as slab
vorticity.  No step measures the divergence, zero up to rounding for a
Biot-Savart image: ``evolve`` checks the data's, and ``Trajectory`` the
state's once per sample time (``div_rel``); on envelopes ``evolve`` also
checks that the boxes still hold the state (``Envelopes.guard``).

The first-order expansion ``S^eps_t(u0) = u1(t) + u2(t) + O(t^2)`` is
computed here once: ``u1`` is the heat flow of the data, ``u2`` the Duhamel
integral of the same right-hand side by composite Simpson (a strict-mode
refinement check reuses the integrand evaluations), and
``first_order_remainders`` builds the four remainder fields from the
increments, ``u2`` and the exact linear time integral ``t phi1(t eps |xi|^2)``.
``u2_duhamel`` takes all sample times at once and sweeps the sorted union of
their Simpson nodes, evaluating the integrand once per distinct node (the
dyadic sample times share nodes bitwise), on every CPU through
``threaded_map``.  Each time's sum still adds its own terms in its own node
order, so the result equals a per-time loop bitwise.  The sums live in the
layout, where its right-hand side puts every nonzero entry.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    NumericsError,
    QuadratureError,
    ResolutionError,
    SolverDivergenceError,
)
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
    heat_factor,
    heat_integral_factor,
    require_in_ball,
    zero_outside_ball,
)


# CFL number of the adaptive step dt = min(T/64, CFL dx / max|u|), T the
# last sample time
CFL = 0.5
# a step whose max speed exceeds this multiple of the initial one diverged
BLOWUP_FACTOR = 1e3
# largest eps * T * max|xi|^2 (T the last sample time): exp(+eps t |xi|^2)
# stays below the largest double, about exp(709.78)
EXPONENT_LIMIT = 700.0
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


def threaded_map(fn: Callable, jobs: Iterable) -> Iterator:
    """Yield ``fn(job)`` for each of ``jobs``, in order.

    The calls run on min(len(jobs), CPUs) threads, the calling thread one of
    them, so a single job runs on the calling thread.  Its heap arena thus
    serves jobs too: with new threads only, the peak RSS of a strict n = 3
    ``expansion-residuals`` run rose from 168 to 191 MiB (2 CPUs, glibc,
    which keeps one arena per thread).  Jobs start in order, at most
    twice the thread count ahead of the next result to be yielded, so the
    results waiting for the caller stay bounded.  If a call raises, no
    further job starts, the running ones finish, and its error is raised
    when its turn comes: the results before it are yielded as in a
    sequence.  The helper threads are joined before the generator returns,
    raises or is closed.
    """
    jobs = list(jobs)
    width = min(len(jobs), len(os.sched_getaffinity(0)))
    window = 2 * width
    done: dict = {}  # job index -> (ok, result or error), until yielded
    cond = threading.Condition()
    # next job to start, next result to yield, and whether no job may start
    state = {"start": 0, "yield": 0, "stop": False}

    def take():
        # with cond held: the index of a job that may start now, or None
        i = state["start"]
        if state["stop"] or i >= len(jobs) or i >= state["yield"] + window:
            return None
        state["start"] = i + 1
        return i

    def run(i):
        try:
            out = (True, fn(jobs[i]))
        except Exception as err:
            out = (False, err)
        with cond:
            done[i] = out
            state["stop"] |= not out[0]
            cond.notify_all()

    def helper():
        while True:
            with cond:
                while (i := take()) is None:
                    if state["stop"] or state["start"] >= len(jobs):
                        return
                    cond.wait()
            run(i)

    helpers = [threading.Thread(target=helper) for _ in range(width - 1)]
    for h in helpers:
        h.start()
    try:
        for k in range(len(jobs)):
            # job k has started, or starts here: a failure before it was
            # raised at its own turn
            while True:
                with cond:
                    if k in done:
                        ok, out = done.pop(k)
                        state["yield"] = k + 1
                        cond.notify_all()
                        break
                    i = take()
                    if i is None:
                        cond.wait()
                        continue
                run(i)
            if not ok:
                raise out
            yield out
    finally:
        with cond:
            state["stop"] = True  # also when the caller is interrupted
            cond.notify_all()
        for h in helpers:
            h.join()


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution of one evolution, with per-step diagnostics.

    ``increments[i]`` is the vorticity increment ``w(t_i) - exp(t_i eps Lap)
    w0`` on the slab of the grid of ``u0``, an array of ``Grid.slab_shape``,
    the solver's own layout.  ``increment_at`` returns its Biot-Savart image
    (``_velocity``), the velocity increment ``u(t_i) - exp(t_i eps Lap) u0``
    (of zero mean, since the mean velocity is constant), and ``state_at``
    adds the heat flow of the data back; both build a new field on every
    call.  ``diagnostics`` holds ``t``, ``dt``, ``energy`` and ``max_speed``
    per step, and ``ring_share`` per sample time on envelopes (empty on the
    ball); ``div_rel[i]``, the divergence defect of the state at
    ``times[i]``, is measured on construction and may not exceed 1e-9.
    ``layout`` is the layout the solver evolved (``Ball`` of the grid of
    ``u0`` when none is given).
    """

    times: tuple
    increments: tuple
    eps: float
    u0: SpectralField
    diagnostics: dict = field(compare=False)
    layout: Ball | Envelopes | None = field(default=None, compare=False)
    div_rel: tuple = field(init=False, compare=False)

    def __post_init__(self):
        g = self.u0.grid
        if self.layout is None:
            object.__setattr__(self, "layout", Ball(g))
        for inc in self.increments:
            if np.shape(inc) != g.slab_shape:
                raise ValueError(
                    "an increment is stored as vorticity on the slab of the grid of u0"
                )
        # checked on the solution: the velocity increment is divergence-free
        # to rounding by construction, the data need not be
        defects = tuple(divergence_defect(self.state_at(t)) for t in self.times)
        for t, d in zip(self.times, defects):
            if d > 1e-9:
                raise NumericsError(
                    f"snapshot at t={t} violates the divergence-free invariant "
                    f"(relative defect {d:.3e})"
                )
        object.__setattr__(self, "div_rel", defects)
        if not np.isfinite(self.diagnostics["energy"]).all():
            raise NumericsError("trajectory diagnostics contain non-finite values")

    def increment_at(self, t: float) -> SpectralField:
        for ti, inc in zip(self.times, self.increments):
            if abs(ti - t) <= 1e-12:
                return SpectralField(self.u0.grid, _velocity(self.u0.grid, inc))
        raise ValueError(f"time {t} is not among the sampled times {self.times}")

    def state_at(self, t: float) -> SpectralField:
        g = self.u0.grid
        fac = heat_factor(g, t, self.eps)
        return SpectralField(g, fac * self.u0.coeffs + self.increment_at(t).coeffs)


def trajectory_gap(a: Trajectory, b: Trajectory, t: float) -> SpectralField:
    """``S^{eps_a}_t u0 - S^{eps_b}_t u0`` for two trajectories of one datum.

    Formed as ``(exp(t eps_a Lap) - exp(t eps_b Lap)) u0 + (inc_a - inc_b)``,
    which subtracts no two arrays of the size of ``u0``.
    """
    _check_same_data(a.u0, b)
    g = a.u0.grid
    fac = heat_factor(g, t, a.eps) - heat_factor(g, t, b.eps)
    inc = a.increment_at(t).coeffs - b.increment_at(t).coeffs
    return SpectralField(g, fac * a.u0.coeffs + inc)


def _max_speed(u1, u2) -> float:
    """The largest speed of the velocity samples ``u1``, ``u2``, which it
    overwrites: ``u1`` ends as the squared speed."""
    np.square(u1, out=u1)
    u1 += np.square(u2, out=u2)
    return float(np.sqrt(np.max(u1)))


def _slab_data(u0: SpectralField) -> tuple:
    """The data's vorticity on the slab, a copy, and its mean velocity."""
    return curl(u0).coeffs[u0.grid.slab].copy(), u0.coeffs[:, 0, 0]


def _velocity(grid: Grid, w: np.ndarray) -> np.ndarray:
    """Stacked velocity half-spectra of zero mean of slab vorticity ``w``."""
    out = _embed(grid.biot_savart[(slice(None),) + grid.slab] * w, grid)
    out[:, 0, 0] = 0.0
    return out


def _velocity_slab(grid: Grid, w: np.ndarray, mean, ax: int, out: np.ndarray) -> np.ndarray:
    """Component ``ax`` of the velocity of slab vorticity ``w`` with mean
    ``mean``, into ``out``."""
    np.multiply(grid.biot_savart[ax][grid.slab], w, out=out)
    out[0, 0] = mean[ax]
    return out


class RhsWork:
    """The work arrays of ``vorticity_rhs`` on one grid: three sample arrays,
    the column-pass scratch (``Grid.slab_shape``) and the row-pass buffer
    (``Grid.spectral_shape``).  One holder serves one thread at a time."""

    def __init__(self, grid: Grid):
        self.phys = tuple(np.empty(grid.shape) for _ in range(3))
        self.scratch = np.empty(grid.slab_shape, dtype=np.complex128)
        self.rows = np.empty(grid.spectral_shape, dtype=np.complex128)


def vorticity_rhs(
    grid: Grid, w: np.ndarray, mean, work: RhsWork, out: np.ndarray
) -> tuple:
    """``-div(u w)`` masked to the 2/3 ball, into ``out``; returns the samples
    of ``u``.

    ``w`` and ``out`` are distinct slabs (``Grid.slab_shape``) and ``u`` is
    the Biot-Savart velocity of the dealias-safe ``w`` plus ``mean``.  The
    result is ``-curl P(u . grad u)``; its Biot-Savart image is ``-P(u .
    grad u)`` less its mean, which is zero in exact arithmetic.  Every array
    the transforms write is ``out`` or one of ``work``, so the returned
    samples are overwritten by the next call with the same ``work``.
    """
    w_phys, u1, u2 = work.phys
    vel = work.rows[grid.slab]  # free between the transforms
    _inverse(w, grid, w_phys, work.scratch)
    _inverse(_velocity_slab(grid, w, mean, 0, vel), grid, u1, work.scratch)
    _forward(np.multiply(u1, w_phys, out=u2), grid, out, work.rows)
    zero_outside_ball(out, grid)
    out *= -1j * grid.freq_axis(0)
    _inverse(_velocity_slab(grid, w, mean, 1, vel), grid, u2, work.scratch)
    f = _forward(np.multiply(u2, w_phys, out=w_phys), grid, work.scratch, work.rows)
    zero_outside_ball(f, grid)
    f *= 1j * grid.freq_axis(1)[grid.slab]
    out -= f
    return u1, u2


# ---------------------------------------------------------------------------
# layouts: the state of one Galerkin system and its right-hand side


@dataclass(frozen=True)
class Ball:
    """The slab of the 2/3 ball of ``grid`` (``Grid.slab``), the default layout.

    A layout holds a state w and its right-hand side -div(u w) in its own
    arrays: ``k_sq`` is |xi|^2 at each entry, ``data`` admits a velocity and
    returns its vorticity state and mean velocity, ``rhs`` writes the
    right-hand side and returns samples for ``speed``, ``velocity_l2`` is the
    L2 norm of the velocity, ``guard`` checks a state at a sample time, and
    ``slab`` returns a state as slab vorticity of ``grid``.
    """

    grid: Grid

    @property
    def k_sq(self) -> np.ndarray:
        return self.grid.k_sq[self.grid.slab]

    @property
    def k_sq_max(self) -> float:
        return float(self.grid.k_sq.max())

    def data(self, u0: SpectralField) -> tuple:
        return _slab_data(u0)

    def work(self) -> RhsWork:
        return RhsWork(self.grid)

    def rhs(self, w, mean, work, out):
        return vorticity_rhs(self.grid, w, mean, work, out)

    @staticmethod
    def speed(samples) -> float:
        return _max_speed(*samples)

    def data_speed(self, u0: SpectralField, w, mean, work) -> float:
        """The largest speed of the samples of ``u0`` itself."""
        g = self.grid
        return _max_speed(
            *(_inverse(c[g.slab], g, p, work.scratch) for c, p in zip(u0.coeffs, work.phys))
        )

    def velocity_l2(self, w, mean, work) -> float:
        # each velocity component on the whole half-spectrum, in the row-pass
        # buffer: half_spectrum_l2 sums the same array as it would for the
        # velocity of the embedded state
        g = self.grid

        def components():
            for ax in range(g.d):
                _velocity_slab(g, w, mean, ax, work.rows[g.slab])
                work.rows[:, g.slab_shape[-1] :] = 0.0
                yield work.rows

        return half_spectrum_l2(components(), g)

    def guard(self, w, t: float) -> None:
        return None

    def slab(self, w: np.ndarray) -> np.ndarray:
        return w


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

    ``data`` admits a velocity only if every nonzero coefficient lies in S;
    ``guard`` measures, at each sample time, the vorticity's L2 share in the
    outer ring ``|m|_inf > W - ring`` of the boxes of each harmonic and
    raises ResolutionError above ``RING_TOL``; ``slab`` scatters a state into
    the slab of ``grid``.
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
            mask=mask,
            k_sq=k_sq,
            k_sq_max=float(k_sq[mask].max()),
            biot_savart=np.stack((1j * xi2 * inv, -1j * xi1 * inv)) * mask,
            minus_div=np.stack((-1j * xi1, -1j * xi2)) * mask,
            weight=np.where(h == 0, 1.0, 2.0),  # box h > 0 stands for -h too
            outer=mask & (np.maximum(np.abs(m1), np.abs(m2)) > W - self.ring),
            direct=at(mask & (t2 >= 0), 1),  # stored as they are
            below=at(mask & (t2 < 0), -1),  # read from their conjugate mirrors
            mirror=at(mask & (t2 <= 0) & (h >= 1), -1),  # the mirrors of box -h
        )
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    def data(self, u0: SpectralField) -> tuple:
        g = self.grid
        covered = np.zeros(g.spectral_shape, dtype=bool)
        for _, at in (self.direct, self.mirror):
            covered[at] = True
        if np.any(np.any(u0.coeffs != 0, axis=0) & ~covered):
            raise ResolutionError(
                f"field has nonzero coefficients outside the harmonic boxes "
                f"|m - h c| <= {self.width}, |h| <= {self.H}, c = {self.carrier}, "
                f"of the ball of N={g.N}"
            )
        w, mean = _slab_data(u0)
        out = np.zeros(self.k_sq.shape, dtype=np.complex128)
        (i, at), (j, mirrored) = self.direct, self.below
        out[i] = w[at]
        out[j] = np.conj(w[mirrored])
        return out, mean

    def slab(self, w: np.ndarray) -> np.ndarray:
        out = np.zeros(self.grid.slab_shape, dtype=np.complex128)
        (i, at), (j, mirrored) = self.direct, self.mirror
        out[at] = w[i]
        out[mirrored] = np.conj(w[j])
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
        """-div(u w) on the boxes into ``out``; returns the velocity samples.

        The envelope p of u w is ``sum_h U_h W_(p-h)`` over ``|h|, |p - h| <=
        H``, with ``U_-h = conj(U_h)`` and ``W_-h = conj(W_h)`` on the samples.
        """
        samples = self._samples(w, mean, work)
        H, wh, uh = self.H, samples[0], samples[1:]
        ws = np.concatenate((np.conj(wh[:0:-1]), wh))[::-1]  # W_(H - i) at i
        us = np.concatenate((np.conj(uh[:, :0:-1]), uh), axis=1)  # U_(i - H) at i
        for p in range(H + 1):
            np.sum(us[:, p:] * ws[: 2 * H + 1 - p], axis=1, out=work.prod[:, p])
        f = _box_forward(work.prod, self.grid.L, work.coef)
        np.multiply(self.minus_div[0], f[0], out=out)
        out += np.multiply(self.minus_div[1], f[1], out=f[1])
        return uh

    @staticmethod
    def speed(samples) -> float:
        """An upper bound of the speed at the envelope lattice's points:
        ``|u| <= |U_0| + 2 sum_(h>0) |U_h|`` whatever the carrier's phase."""
        mag = np.sqrt(np.abs(samples[0]) ** 2 + np.abs(samples[1]) ** 2)
        return float(np.max(mag[0] + 2.0 * mag[1:].sum(axis=0)))

    def data_speed(self, u0: SpectralField, w, mean, work) -> float:
        return self.speed(self._samples(w, mean, work)[1:])

    def velocity_l2(self, w, mean, work) -> float:
        # Parseval on the boxes: box h > 0 also stands for box -h
        u = np.multiply(self.biot_savart, w, out=work.spec[1:])
        u[:, 0, 0, 0] = mean
        total = float(np.sum(self.weight * (np.abs(u[0]) ** 2 + np.abs(u[1]) ** 2)))
        return float(np.sqrt(total / self.grid.L**self.grid.d))

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


def evolve(
    u0: SpectralField,
    eps: float,
    sample_times: Sequence[float],
    dt_fixed: float | None = None,
    layout: Ball | Envelopes | None = None,
) -> Trajectory:
    """Integrate the projected system, landing exactly on the sample times.

    The horizon T is the last sample time.  Steps are capped at T/64 and by
    the CFL condition on the grid of ``u0``; ``dt_fixed`` forces a constant
    step (for convergence studies) and bypasses both.  ``eps * T *
    max|xi|^2`` of the layout may not exceed ``EXPONENT_LIMIT``.  ``u0`` must
    be divergence-free (defect at most 1e-10) and pass ``require_in_ball``
    and the layout's admission; the states' defects are taken per sample
    time, by ``Trajectory``.  ``layout`` is the ``Ball`` of the grid of
    ``u0`` by default, or ``Envelopes`` of that grid.  The vorticity
    increment at a sample time is the decoded E, as slab vorticity.  Each
    per-step diagnostic has one entry per step, none when only t = 0 is
    sampled.
    """
    if not (0.0 <= eps <= 1.0):
        raise ValueError(f"viscosity must lie in [0, 1], got {eps}")
    if dt_fixed is not None and not dt_fixed > 0:
        raise ValueError(f"a fixed step must be > 0, got {dt_fixed}")
    g = u0.grid
    layout = _layout_for(g, layout)
    defect = divergence_defect(u0)
    if defect > 1e-10:
        raise ValueError(
            f"initial data is not divergence-free (relative defect {defect:.3e})"
        )
    require_in_ball(u0)
    base, mean = layout.data(u0)
    targets = sorted(set(float(t) for t in sample_times))
    if not targets or targets[0] < 0:
        raise ValueError(f"need one or more sample times >= 0, got {targets}")
    horizon = targets[-1]
    exponent = eps * horizon * layout.k_sq_max
    if exponent > EXPONENT_LIMIT:
        raise NumericsError(
            f"heat exponent eps*T*max|xi|^2 = {exponent:.6g} exceeds "
            f"{EXPONENT_LIMIT:g}: the integrating factor would overflow"
        )

    # every array of the state has the layout's shape, allocated once: the
    # data's vorticity (the mean velocity is constant), the encoded increment
    # E (0 at t = 0), a stage's state (between steps, w(t)), exp(-/+ eps t
    # |xi|^2) at the current stage time, the half-step factors of the last
    # step size, and the stages' right-hand sides (k4 reuses k3's array)
    k_sq = layout.k_sq
    enc = np.zeros_like(base)
    s = base.copy()
    dec, grow = np.ones(k_sq.shape), np.ones(k_sq.shape)
    E, G = np.empty(k_sq.shape), np.empty(k_sq.shape)
    k1, k2, k3 = (np.empty_like(base) for _ in range(3))
    work = layout.work()

    increments = []
    diag = {k: [] for k in ("t", "dt", "energy", "max_speed", "ring_share")}
    speed0 = layout.data_speed(u0, base, mean, work)
    guard = BLOWUP_FACTOR * max(speed0, 1e-300)
    # a new step size recomputes the half-step factors (the final step
    # before each sample time is shorter)
    step_dt = None

    def half_step_factors(dt):
        # E, G = exp(-/+ eps |xi|^2 dt/2): the decay and growth over half a step
        np.multiply(np.multiply(k_sq, eps, out=E), dt / 2.0, out=E)
        np.exp(E, out=G)
        np.exp(np.negative(E, out=E), out=E)

    def load(h, k):
        # a stage's state dec * ((enc + h k) + base), into s
        np.multiply(k, h, out=s)
        np.add(s, enc, out=s)
        np.add(s, base, out=s)
        np.multiply(s, dec, out=s)

    def rhs(k):
        # the encoded right-hand side at the state in s, into k
        layout.rhs(s, mean, work, k)
        k *= grow

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
            # speed; k1 is encoded after the step's factors are known
            speed = layout.speed(layout.rhs(s, mean, work, k1))
            if not np.isfinite(speed):
                raise NumericsError(f"non-finite state at t={t}")
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
                half_step_factors(dt)

            # classical RK4 on E; each stage decodes its state with the
            # accumulated decay factor and encodes the nonlinear term back,
            # both moved on by half a step at the midpoint and at the end
            k1 *= grow
            dec *= E
            grow *= G
            load(dt / 2.0, k1)
            rhs(k2)
            load(dt / 2.0, k2)
            rhs(k3)
            # the update needs only k2 + k3, so k3's array takes k4 once
            # stage 4 has its state
            k2 += k3
            dec *= E
            grow *= G
            load(dt, k3)
            rhs(k3)
            # enc += dt/6 (k1 + 2 (k2 + k3) + k4), then the state after the step
            k2 *= 2.0
            k2 += k1
            k2 += k3
            k2 *= dt / 6.0
            enc += k2
            np.add(enc, base, out=s)
            s *= dec

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
        # one exact heat factor from t = 0 decodes E, the vorticity increment
        increments.append(layout.slab(np.exp(-target * eps * k_sq) * enc))

    # the work arrays are freed before Trajectory measures the sampled states
    del work, base, enc, s, k1, k2, k3, E, G, dec, grow
    return Trajectory(
        times=tuple(targets),
        increments=tuple(increments),
        eps=eps,
        u0=u0,
        diagnostics={k: np.asarray(v) for k, v in diag.items()},
        layout=layout,
    )


def _layout_for(grid: Grid, layout) -> Ball | Envelopes:
    """``layout``, by default the ``Ball`` of ``grid``; it must be of ``grid``."""
    if layout is None:
        return Ball(grid)
    if layout.grid != grid:
        raise ValueError(f"the layout is of {layout.grid}, the data of {grid}")
    return layout


def _simpson_weights(t: float, nodes: int) -> np.ndarray:
    h = t / (nodes - 1)
    w = np.full(nodes, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return w * (h / 3.0)


def u2_duhamel(
    u0: SpectralField,
    times: Iterable[float],
    eps: float,
    nodes: int = 17,
    refine: bool = False,
    layout: Ball | Envelopes | None = None,
) -> Iterator[SpectralField]:
    """First-order nonlinear correction at each of ``times``, by composite Simpson.

    Solves ``d/dt u2 = eps*Lap(u2) - P(u1 . grad u1)`` from zero data, i.e.
    ``u2(t) = -int_0^t exp((t-tau) eps Lap) P(u1 . grad u1)(tau) dtau``, on
    ``nodes`` equispaced nodes of ``[0, t]``.  With ``refine`` set the
    integrand is evaluated on the doubled grid of ``2*(nodes-1)+1`` nodes:
    the fine sum is the result, the even-indexed nodes give the
    ``nodes``-point sum, and a relative change between the two above
    ``REFINE_TOL``, at any of the times, raises a QuadratureError, and a
    non-finite change or fine sum a NumericsError.  ``u0`` must pass
    ``require_in_ball`` and the admission of ``layout``, as for ``evolve``,
    whose default layout it shares.

    The vorticity of the integrand, ``F(tau) = -div(u w)`` at ``w =
    exp(tau eps Lap) w0`` with ``w0 = curl u0``, is evaluated in the layout
    (``rhs``) once per distinct node of all the times, tau = 0 among them
    (``threaded_map``, one work object per thread).  Each time's sum, an
    array of the layout, adds its terms ``w_i exp((t-tau_i) eps Lap)
    F(tau_i)`` in ascending node order, as a loop over its own nodes would.
    The sweep and every refinement check run on the call; the returned
    iterator yields one velocity field per time, the Biot-Savart image of
    its sum as slab vorticity, built as it advances.
    """
    g = u0.grid
    if nodes < 9 or nodes % 2 == 0:
        raise ValueError(f"composite Simpson needs an odd node count >= 9, got {nodes}")
    layout = _layout_for(g, layout)
    require_in_ball(u0)
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
    k_slab = layout.k_sq
    w0, mean = layout.data(u0)
    # one work object per thread of the sweep, dropped with it
    local = threading.local()

    def terms(tau):
        # exp((t - tau) eps Lap) F(tau) in the layout, for each time with node tau
        if not hasattr(local, "work"):
            local.work = layout.work()
        # the data's heat flow, by heat_factor(g, tau, eps)'s arithmetic
        w = np.exp(-tau * eps * k_slab) * w0
        f = np.empty_like(w)
        layout.rhs(w, mean, local.work, f)
        # the factor is heat_factor(g, t - tau, eps) at the layout's modes,
        # by the same arithmetic
        return {
            k: f * np.exp(-(times[k] - tau) * eps * k_slab)
            for k in dict.fromkeys(k for k, _ in uses[tau])
        }

    fine = [np.zeros(k_slab.shape, dtype=np.complex128) for _ in times]
    coarse = [np.zeros_like(s) for s in fine] if refine else None
    order = sorted(uses)
    for tau, term in zip(order, threaded_map(terms, order)):
        for k, i in uses[tau]:
            fine[k] += fine_w[k][i] * term[k]
            if refine and i % 2 == 0:
                # tau_i on the fine grid equals tau_(i/2) on the coarse one
                coarse[k] += coarse_w[k][i // 2] * term[k]
    if refine:
        # L2 norms of the velocities, of zero mean
        work, zero = layout.work(), np.zeros(2)
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
    return (SpectralField(g, _velocity(g, layout.slab(fine.pop()))) for _ in times)


def _check_same_data(u0: SpectralField, traj: Trajectory) -> None:
    scale = np.max(np.abs(traj.u0.coeffs))
    if np.max(np.abs(u0.coeffs - traj.u0.coeffs)) > 1e-13 * max(scale, 1e-300):
        raise ValueError("trajectory was computed from different initial data")


class FirstOrderRemainders:
    """The four remainder fields of the first-order expansion at one time.

    Each field (``FIELDS``) is built when its attribute is read and is not
    kept, so a caller that takes one norm at a time holds one field of the
    size of ``u0`` at a time; a second read builds the same field again.
    """

    FIELDS = ("euler", "navier_stokes", "drift", "heat_defect")

    def __init__(self, pa0: np.ndarray, traj0, traj_eps, t: float, u2: SpectralField):
        self.grid, self.t = traj0.u0.grid, t
        self._pa0, self._traj0, self._traj_eps, self._u2 = pa0, traj0, traj_eps, u2
        self._lin = heat_integral_factor(self.grid, t, traj_eps.eps)

    # each is the expression of first_order_remainders, updated in place
    @property
    def euler(self) -> SpectralField:
        c = self._traj0.increment_at(self.t).coeffs
        c += self.t * self._pa0
        return SpectralField(self.grid, c)

    @property
    def navier_stokes(self) -> SpectralField:
        c = self._traj_eps.increment_at(self.t).coeffs
        c -= self._u2.coeffs
        return SpectralField(self.grid, c)

    @property
    def drift(self) -> SpectralField:
        c = -self._u2.coeffs
        c -= self._lin * self._pa0
        return SpectralField(self.grid, c)

    @property
    def heat_defect(self) -> SpectralField:
        return SpectralField(self.grid, (self._lin - self.t) * self._pa0)


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
      (``heat_integral_factor``), so no further quadrature is needed;
    - heat_defect: ``int_0^t (exp((t-tau) eps Lap) - Id) pa0 dtau``
      ``= (t phi1 - t) pa0``.

    ``pa0`` and ``u2`` are evaluated in the layout of the trajectories.  On
    the call the guards run first (ideal ``traj0``, ``traj_eps`` from the
    data and the layout of ``traj0``), then one Duhamel sweep for all the
    times; the ``u2`` of each time is built as the iterator reaches it, and
    each remainder field when it is read.
    """
    if traj0.eps != 0.0:
        raise ValueError(f"need an ideal (eps=0) trajectory, got eps={traj0.eps}")
    u0, layout = traj0.u0, traj0.layout
    _check_same_data(u0, traj_eps)
    if traj_eps.layout != layout:
        raise ValueError("the trajectories evolved different layouts")
    times = tuple(times)
    g = u0.grid
    w0, mean = layout.data(u0)
    r0 = np.empty_like(w0)
    layout.rhs(w0, mean, layout.work(), r0)
    pa0 = -_velocity(g, layout.slab(r0))  # coefficients of P(u0 . grad u0)
    u2s = u2_duhamel(u0, times, traj_eps.eps, nodes, refine, layout)
    return (FirstOrderRemainders(pa0, traj0, traj_eps, t, u2) for t, u2 in zip(times, u2s))
