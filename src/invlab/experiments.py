"""Experiment harness: measured quantities, tolerance verdicts, records.

Each ``run_*`` function takes its ExperimentContext alone (which holds the
config, ``ctx.cfg``), measures one family of quantities on the configured
datum family and returns ResultRecords.  Every pass/fail verdict is
``check(value, lo, hi)`` on the value its record carries, so each verdict can
be rechecked from records.csv alone; a bound on a quotient is stated on that
quotient.  Mode-dependent bounds come from ``scaled``: ``relaxed`` uses the
stated acceptance windows, ``strict`` moves every bound a third of the way
toward its center.  An experiment asks its ExperimentContext for the
evolutions it needs together (the viscous and ideal runs of one datum, a
viscosity sweep).  The context is the one place that decides concurrency:
a batch on the ball runs side by side (``threaded_map``), a batch on
envelopes in order on the calling thread.  Each experiment holds its own
trajectories: the context keeps none, so an experiment that needs a run
twice keeps it.

Every evolution is the Galerkin system of the 2/3 ball of its grid.  A bare
shell datum, in ``family-gap``, ``expansion-residuals`` (with its Duhamel
sums and ``pa0``) and ``fixed-limit``, evolves on its envelopes: that ball
restricted to the boxes around the harmonics of the datum's carrier
(``constructions.shell_layout``), at a cost that does not rise with n.  The
layout follows from the datum, not from a setting: the datum is born on it
(``ctx.box_datum``, ``constructions.shell_box_velocity``), a
``solvers.BoxField`` in closed form on the entries, and the runs read their
layout from it.  The two layouts
agree because the ball's state holds, outside the boxes, only FFT rounding
(every mode above 1e-20 of the peak lies within 6 modes of a harmonic at
n = 3 and 4, t = 0.08): their increments differ by 1.5-7.4e-15 relative in
L2 at n = 3, and every verdict is the same.  ``perturbed-gap`` evolves on
the ball only the runs that carry its background, which fills a low box of
radius 2^psi_band R that no envelope holds; its bare shells run on their
boxes of the background grid, and its additivity defect subtracts their
states scattered to the half-spectrum.  A bare shell's ball and box states
differ by 7.4e-23 (n = 3) and 7.7e-25 (n = 4) in B^3_{2,2} at t0 = 0.05,
about 1e-19 of additivity defects near 4e-4, and their gaps agree in every
printed digit.  ``validate`` evolves Taylor-Green vortices on the ball of
N = 64.
A shell run stays on its boxes up to its records: its datum, states, gaps
and remainder fields are ``BoxField``, whose p = 2 Besov norms are Parseval
sums over the boxes, and only a norm at p != 2 scatters them to the
half-spectrum of their grid (``BoxField.spectral``).  ``heat-law`` and
validate's shell checks (derivative bracket, single blocks, borderline norm)
norm the datum on its boxes too; the ball runs of ``perturbed-gap`` take
a shell's half-spectrum (``BoxField.spectral``), and only the CLI's
``make-data`` and ``evolve`` build one by ``ctx.datum``.  The datum's quadratic
terms, in validate's product laws and in ``nonlinear-drift``, are formed on
the envelopes of the datum of order 2, ``ctx.box_datum(n, order=2)``: its
grid's ball holds twice the datum's extent, so the same boxes reach the
harmonics 0 and +/-2c, which hold u0 . grad u0 and its heat flow.
``box_datum`` is the one sizing rule of a shell layout's grid: the smallest
power of two whose ball holds ``order`` times the datum's extent.  No array
of that grid is built at p = 2, so there every shell runs, at any n.  The
budget ``N`` bounds the arrays of N x N grids: the ball's (``datum``,
``background_grid``), and at p != 2 those of the exit
(``littlewood_paley.normed_on_boxes``), where ``box_datum`` raises
ResolutionError with ``required_n``.  Each experiment builds every shell's
datum before its first evolution or norm, so a datum above the budget stops
it at once; a datum of order 2 above it is recorded as
``resolution_limited``, with ``required_n``, in ``nonlinear-drift`` and in
place of the shell's product laws in validate.
The expansion residuals take their four remainder fields from
``solvers.first_order_remainders``: one Duhamel sweep for all sample times,
which evaluates each distinct quadrature node once (refined in the same pass
in strict mode), with the linear time integrals in closed form.
"""

from __future__ import annotations

import math
import os
import threading
import time
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .constructions import (
    CARRIER_RATIO,
    ShellDatum,
    background_field,
    background_mode_extent,
    build_profile_bump,
    datum_mode_extent,
    shell_box_velocity,
    shell_velocity,
    taylor_green,
    taylor_green_two_mode,
)
from .errors import ConfigError, NumericsError, ResolutionError
from .littlewood_paley import (
    BesovParams,
    besov_from_blocks,
    besov_norm,
    block_annulus,
    block_lp_norms,
    build_partition,
    dyadic_block,
    field_support_range,
    low_pass,
    normed_on_boxes,
)
from .solvers import (
    BoxField,
    Envelopes,
    Trajectory,
    evolve,
    first_order_remainders,
    trajectory_gap,
)
from .spectral import (
    Grid,
    SpectralField,
    _forward,
    advect,
    dealias_grid_size,
    gradient,
    heat_multiplier,
    heat_propagate,
    l2_norm_spectral,
    leray_complement,
    leray_project,
    lp_norm,
    perp_gradient,
    translate,
)

DEFAULT_T_GRID = (0.005, 0.01, 0.02, 0.04, 0.05, 0.08)


@dataclass(frozen=True)
class ExperimentConfig:
    """Full parameter set for the experiment harness."""

    bp: BesovParams = BesovParams(3.0, 2.0, 2.0, 2)
    R: float = 12.0
    # budget per axis of the grids whose N x N arrays are built: the ball's,
    # and at p != 2 a shell datum's grid (ExperimentContext.box_datum); it
    # bounds arrays, not shells
    N: int = 2048
    n_list: tuple = (3, 4, 5)
    t_grid: tuple = DEFAULT_T_GRID
    T0: float = 0.1
    t0: float = 0.05
    eps_exponents: tuple = (3, 4, 5, 6, 7, 8)  # sweep eps = 2**-2m
    seed: int = 2024
    shift: float | None = None  # None resolves to the half period L/2
    psi_band: int = 3
    mode: str = "relaxed"
    quadrature_nodes: int = 17
    radius_bound: float = 1.0

    def __post_init__(self):
        self.bp.validate()
        if self.mode not in ("strict", "relaxed"):
            raise ConfigError(f"mode must be strict or relaxed, got {self.mode!r}")
        if not self.n_list or any(n < 3 for n in self.n_list):
            raise ConfigError("n_list needs one or more shell indices, each >= 3")
        if not all(0 < t <= self.T0 for t in self.t_grid):
            raise ConfigError("t_grid values must lie in (0, T0]")
        if len(self.t_grid) < 2 or list(self.t_grid) != sorted(set(self.t_grid)):
            raise ConfigError("t_grid needs two or more strictly ascending times (slopes)")
        if not self.eps_exponents or any(m < 0 for m in self.eps_exponents):
            raise ConfigError(
                "eps_exponents needs one or more exponents, each >= 0 (eps = 2**-2m <= 1)"
            )
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not (0 < self.t0 <= self.T0):
            raise ConfigError("t0 must lie in (0, T0]")
        if self.quadrature_nodes < 9 or self.quadrature_nodes % 2 == 0:
            raise ConfigError("quadrature_nodes must be odd and >= 9")
        Grid(2, self.N, self.R)  # the budget and the radius obey Grid's rules
        for name in ("n_list", "eps_exponents"):
            vals = getattr(self, name)
            if len(set(vals)) < len(vals):
                raise ConfigError(f"{name} repeats an entry: {list(vals)}")
        if self.psi_band < 0:
            raise ConfigError(f"psi_band must be >= 0, got {self.psi_band}")
        if not (self.radius_bound > 0):
            raise ConfigError(f"radius_bound must be positive, got {self.radius_bound}")

    def eps_n(self, n: int) -> float:
        return 2.0 ** (-2 * n)

    @property
    def half_period(self) -> float:
        return math.pi * self.R

    @property
    def shift_value(self) -> float:
        return self.half_period if self.shift is None else self.shift


@dataclass(frozen=True)
class ResultRecord:
    """One measured quantity with its tolerance verdict."""

    experiment: str
    quantity: str
    value: float
    n: int | None = None
    eps: float | None = None
    t: float | None = None
    verdict: str = "info"

    def __post_init__(self):
        if not np.isfinite(self.value):
            raise NumericsError(
                f"{self.experiment} record {self.quantity} (n={self.n}, t={self.t}) "
                f"has non-finite value {self.value}"
            )
        if self.verdict not in ("pass", "fail", "info"):
            raise ConfigError(f"unknown verdict {self.verdict!r}")

    def key(self):
        return (self.experiment, self.n, self.eps, self.t, self.quantity)


def scaled(nominal: float, mode: str, center: float = 1.0) -> float:
    """A nominal bound moved toward ``center`` by a third in strict mode."""
    return center + (nominal - center) * (1.0 if mode == "relaxed" else 2.0 / 3.0)


def check(value: float, lo: float = -math.inf, hi: float = math.inf) -> str:
    """The verdict of ``lo <= value <= hi``; NaN fails."""
    if lo <= value <= hi:
        return "pass"
    return "fail"


def lsq_slope(ts, vals) -> float:
    """Least-squares slope of log(vals) against log(ts)."""
    ts = np.asarray(ts, dtype=float)
    vals = np.asarray(vals, dtype=float)
    if (vals <= 0).any():
        return float("nan")
    x = np.log(ts)
    y = np.log(vals)
    x = x - x.mean()
    y = y - y.mean()
    return float((x * y).sum() / (x * x).sum())


def threaded_map(fn: Callable, jobs: Iterable) -> Iterator:
    """Yield ``fn(job)`` for each of ``jobs``, in order.

    The calls run on min(len(jobs), CPUs) threads, the calling thread one of
    them, so a single job runs on the calling thread.  Its heap arena thus
    serves jobs too: with new threads only, the peak RSS of ``perturbed-gap
    {"n_list":[3]}`` rose from 135.0 to 154.6-155.2 MiB (2 CPUs, glibc,
    which keeps one arena per thread).  Each thread takes the next job from
    one counter; once a call raises, no job starts.  Every thread is joined
    before the first result is yielded.  The results before the first
    failure in job order are yielded, then that failure is raised.
    """
    jobs = list(jobs)
    results: list = [None] * len(jobs)
    failed: dict = {}  # job index -> error
    take, stop = threading.Lock(), threading.Event()
    todo = iter(range(len(jobs)))

    def work():
        while True:
            with take:
                i = None if stop.is_set() else next(todo, None)
            if i is None:
                return
            try:
                results[i] = fn(jobs[i])
            except Exception as err:
                with take:
                    failed[i] = err
                    stop.set()

    width = min(len(jobs), len(os.sched_getaffinity(0)))
    helpers = [threading.Thread(target=work) for _ in range(width - 1)]
    for h in helpers:
        h.start()
    try:
        work()
    finally:
        stop.set()  # also when the calling thread is interrupted
        for h in helpers:
            h.join()
    first = min(failed, default=len(jobs))
    yield from results[:first]
    if failed:
        raise failed[first]


class ExperimentContext:
    """Grids, data and evolutions of one configuration: an experiment's one input.

    The context caches nothing: ``grid(N)`` builds a new ``Grid``, which
    builds its frequency arrays on first use.  ``trajectory`` evolves every
    request of a batch, and is the one place that decides whether they run
    side by side.  A batch on the ball runs on min(number of requests, CPUs
    this process may run on) threads (``threaded_map``): its evolutions
    spend most of their time in FFTs and array arithmetic that release the
    interpreter lock, and ``perturbed-gap {"n_list":[3]}`` took 9.4-11.0 s
    against 15.4-18.7 s in order (2 CPUs).  A batch on envelopes runs in order
    on the calling thread: on 32 x 32 boxes an evolution holds the lock for
    most of its time, and in order a strict n = 3 ``expansion-residuals``
    run fell from 0.31 to 0.20 s, from 0.72 to 0.52 s of CPU and from 47.5
    to 43.0 MiB peak RSS (medians of 10 runs each).
    """

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self.evolutions: list = []  # grid, eps and solver statistics per evolve call

    # -- grids -------------------------------------------------------------

    def grid(self, N: int) -> Grid:
        """A new grid of N points per axis at the configured radius."""
        return Grid(2, N, self.cfg.R)

    def _fit_grid(self, max_mode: int, what: str) -> int:
        N = dealias_grid_size(max_mode)
        if N > self.cfg.N:
            raise ResolutionError(
                f"{what} needs N>={N}, above the configured budget {self.cfg.N}",
                required_n=N,
            )
        return N

    def background_grid(self, n_max: int) -> Grid:
        extent = max(
            datum_mode_extent(n_max, self.cfg.R),
            background_mode_extent(self.cfg.psi_band, self.cfg.R),
        )
        return self.grid(self._fit_grid(extent, "background experiment"))

    # -- data --------------------------------------------------------------

    def datum(self, n: int, shift: float = 0.0) -> SpectralField:
        """The shell velocity of index n on the half-spectrum of the smallest
        power-of-two grid whose ball holds the datum, within the budget."""
        grid = self.grid(self._fit_grid(datum_mode_extent(n, self.cfg.R), f"datum n={n}"))
        return shell_velocity(ShellDatum(n, self.cfg.bp, shift), grid)

    def box_datum(self, n: int, order: int = 1) -> BoxField:
        """The shell datum n born on its envelopes (``shell_box_velocity``),
        on the smallest power-of-two grid whose ball holds ``order`` times
        its extent: order 1 holds the datum, order 2 its quadratic terms.

        The layout's H is the number of harmonics whose boxes meet the ball
        of that power-of-two grid, not ``order`` itself.  For n = 3 .. 12 it
        equals ``order`` at R = 12, 24, 48 and 96; order 2 gives H = 3 at
        R = 36, 72 and 144; at R = 60 and 120, for n = 3, 4 and 5, order 1
        gives H = 2 and order 2 gives H = 4.
        """
        extent = order * datum_mode_extent(n, self.cfg.R)
        # no array of the grid is built unless a norm leaves the boxes
        # through BoxField.spectral, at p != 2: only then the budget applies
        if normed_on_boxes(self.cfg.bp.p):
            N = dealias_grid_size(extent)
        else:
            N = self._fit_grid(extent, f"shell datum n={n} of order {order}")
        return shell_box_velocity(ShellDatum(n, self.cfg.bp), self.grid(N))

    # -- trajectories --------------------------------------------------------

    def trajectory(self, requests: Sequence[tuple], times: Iterable[float]) -> list[Trajectory]:
        """The trajectories of the requests, each sampled at ``times``.

        A request is ``(u0, eps)``, or ``(u0, eps, dt_fixed)`` for a fixed
        step: the arguments of ``evolve`` but the sample times.  Every request
        evolves in the layout of its data: a batch of ``BoxField`` in order
        on its envelopes, a batch of half-spectra side by side on the ball of
        their grid.  Returned in request order, with
        the per-evolution statistics appended to ``evolutions`` in that
        order.  If an evolution raises, the running ones finish, none is
        started, and the first error in request order is raised; the
        statistics of the requests before it are kept.
        """
        times = tuple(times)

        def timed(request):
            start = time.perf_counter()
            traj = evolve(*request[:2], times, *request[2:])
            return traj, time.perf_counter() - start

        batch = map if all(isinstance(r[0], BoxField) for r in requests) else threaded_map
        out = []
        for traj, wall_s in batch(timed, requests):
            self.evolutions.append(_evolution_stats(traj, wall_s))
            out.append(traj)
        return out


def _evolution_stats(traj: Trajectory, wall_s: float) -> dict:
    """Grid, layout, eps, wall time and solver statistics of one evolution."""
    d, lay = traj.diagnostics, traj.layout
    envelopes = isinstance(lay, Envelopes)
    # E(0) by the rule of the per-step energies (``velocity_l2``)
    e0 = lay.l2(traj.u0.coeffs) if envelopes else l2_norm_spectral(traj.u0)
    stats = {"N": traj.u0.grid.N, "layout": "ball"}
    if envelopes:  # and the largest ring share its guard measured
        stats.update(layout="envelopes", M=lay.M, W=lay.width, H=lay.H,
                     ring_share_max=float(d["ring_share"].max()))
    stats.update(eps=traj.eps, steps=len(d["dt"]), wall_s=wall_s,
                 div_rel_max=max(traj.div_rel))  # the states at the sample times
    if len(d["dt"]):  # none when only t = 0 is sampled; E is the L2 norm
        drift = np.abs(d["energy"] - e0).max() / e0 if e0 > 0 else 0.0
        stats.update(dt_min=float(d["dt"].min()), dt_max=float(d["dt"].max()),
                     energy_drift=float(drift))
    return stats


# ---------------------------------------------------------------------------
# heat-defect law (linear mechanism behind the t-linear lower bound)


def run_heat_law(ctx: ExperimentContext):
    cfg = ctx.cfg
    ex = "heat_law"
    bp = cfg.bp
    records = []
    q_values: dict = {}
    base_norm: dict = {}
    qhat = CARRIER_RATIO**2

    data = {n: ctx.box_datum(n) for n in cfg.n_list}
    for n, u0 in data.items():
        eps_n = cfg.eps_n(n)
        u0_blocks = block_lp_norms(u0, bp.p)
        for k in (-1, 0, 1):
            bnorm = besov_from_blocks(u0_blocks, bp.shifted(k))
            if n == cfg.n_list[0]:
                base_norm[k] = bnorm / 2.0 ** (k * n)
        for t in cfg.t_grid:
            fac = heat_multiplier(u0.layout.field_k_sq, t, eps_n) - 1.0
            blocks = block_lp_norms(replace(u0, coeffs=fac * u0.coeffs), bp.p)
            for k in (-1, 0, 1):
                q = besov_from_blocks(blocks, bp.shifted(k)) / (t * 2.0 ** (k * n))
                q_values[(n, k, t)] = q
                records.append(
                    ResultRecord(ex, f"heat_defect_ratio[s{k:+d}]", q, n, eps_n, t)
                )

    # small-t plateau after removing the first-order-in-t shape
    t1, t2 = cfg.t_grid[0], cfg.t_grid[1]

    def shape(t):
        return (1.0 - math.exp(-qhat * t)) / t

    for n in cfg.n_list:
        r = (q_values[(n, 0, t1)] / shape(t1)) / (q_values[(n, 0, t2)] / shape(t2))
        verdict = check(r, scaled(0.99, cfg.mode), scaled(1.01, cfg.mode))
        records.append(
            ResultRecord(ex, "heat_defect_plateau", r, n, cfg.eps_n(n), t1, verdict)
        )
        for k in (-1, 0, 1):
            limit = q_values[(n, k, t1)] / shape(t1) * qhat
            records.append(
                ResultRecord(
                    ex, f"heat_defect_small_t_limit[s{k:+d}]", limit, n, cfg.eps_n(n)
                )
            )

    # stability of Q across the family at fixed (k, t); over one shell the
    # spread is max/min of a single value, so it is reported, not checked
    cap = scaled(1.10, cfg.mode)
    for k in (-1, 0, 1):
        for t in cfg.t_grid:
            vals = [q_values[(n, k, t)] for n in cfg.n_list]
            spread = max(vals) / min(vals)
            records.append(
                ResultRecord(
                    ex, f"heat_defect_n_spread[s{k:+d}]", spread, None, None, t,
                    check(spread, hi=cap) if len(vals) > 1 else "info",
                )
            )

    # two-sided bracket from the annulus bounds, scaled by the first-index
    # norm: lo <= Q <= hi with lo/hi = (1 - e^(-16t/9)) / (1 - e^(-9t/4)),
    # stated on the recorded Q/hi with margins of 15% (10% strict)
    lo_m, hi_m = scaled(0.85, cfg.mode), scaled(1.15, cfg.mode)
    for n in cfg.n_list:
        for k in (-1, 0, 1):
            for t in cfg.t_grid:
                hi = base_norm[k] * (1.0 - math.exp(-9.0 * t / 4.0)) / t
                ratio = q_values[(n, k, t)] / hi
                floor = (1.0 - math.exp(-16.0 * t / 9.0)) / (1.0 - math.exp(-9.0 * t / 4.0))
                records.append(
                    ResultRecord(
                        ex, f"heat_defect_bracket[s{k:+d}]", ratio, n, cfg.eps_n(n), t,
                        check(ratio, floor * lo_m, hi_m),
                    )
                )
    return records


# ---------------------------------------------------------------------------
# drift of the advection term under the heat flow


def run_nonlinear_drift(ctx: ExperimentContext):
    cfg = ctx.cfg
    ex = "nonlinear_drift"
    bp = cfg.bp
    records = []
    over_t: dict = {}
    resolvable = []

    for n in cfg.n_list:
        try:
            u0 = ctx.box_datum(n, order=2)
        except ResolutionError as err:  # above the budget, at p != 2 only
            records.append(
                ResultRecord(
                    ex, "resolution_limited", float(err.required_n or 0), n
                )
            )
            continue
        resolvable.append(n)
        lay = u0.layout
        eps_n = cfg.eps_n(n)
        pa = lay.advect(u0, u0)

        reach = field_support_range(pa)[1]
        records.append(
            ResultRecord(
                ex, "advection_support_radius", reach, n, None, None,
                check(reach, hi=3.0 * 2.0**n),
            )
        )

        a1 = {k: [] for k in (-1, 0, 1)}
        a2 = []
        for t in cfg.t_grid:
            hf = heat_multiplier(lay.k_sq, t, eps_n)
            ut = replace(u0, coeffs=hf * u0.coeffs)
            drift = replace(pa, coeffs=lay.advect(ut, ut).coeffs - pa.coeffs)
            blocks = block_lp_norms(drift, bp.p)
            for k in (-1, 0, 1):
                v = besov_from_blocks(blocks, bp.shifted(k))
                a1[k].append(v)
                records.append(
                    ResultRecord(ex, f"advection_drift[s{k:+d}]", v, n, eps_n, t)
                )
            v2 = besov_norm(replace(pa, coeffs=(hf - 1.0) * pa.coeffs), bp)
            a2.append(v2)
            records.append(
                ResultRecord(ex, "heat_defect_of_advection", v2, n, eps_n, t)
            )
            over_t[("A2", n, t)] = v2 / t
            over_t[("A1", n, t)] = a1[0][-1] / t

        lo, hi = scaled(0.9, cfg.mode), scaled(1.2, cfg.mode)
        for quantity, series in (
            *((f"advection_drift_slope[s{k:+d}]", a1[k]) for k in (-1, 0, 1)),
            ("heat_defect_of_advection_slope", a2),
        ):
            sl = lsq_slope(cfg.t_grid, series)
            records.append(
                ResultRecord(ex, quantity, sl, n, eps_n, None, check(sl, lo, hi))
            )

    # The paper bounds A_i(t) <~ t uniformly in n, from above only.  The
    # measured A_i(t)/t falls like 2^(-n(s+1)) (a factor 16.00 from n = 3 to
    # n = 4 at s = 3), so a two-sided spread fails on correct data; what can
    # falsify the bound is growth between consecutive resolvable shells.
    cap = scaled(3.0, cfg.mode)
    for name, quantity in (
        ("A1", "advection_drift_over_t_n_growth"),
        ("A2", "heat_defect_of_advection_over_t_n_growth"),
    ):
        for a, b in zip(resolvable, resolvable[1:]):
            for t in cfg.t_grid:
                growth = over_t[(name, b, t)] / over_t[(name, a, t)]
                records.append(
                    ResultRecord(ex, quantity, growth, b, None, t, check(growth, hi=cap))
                )
    return records


# ---------------------------------------------------------------------------
# first-order expansion residuals (quadratic-in-time remainders)


_REMAINDER_LABELS = {
    "euler": "euler_expansion_residual",
    "navier_stokes": "ns_duhamel_residual",
    "drift": "nonlinearity_drift_integral",
    "heat_defect": "heat_defect_integral",
}


def run_expansion_residuals(ctx: ExperimentContext):
    cfg = ctx.cfg
    ex = "expansion_residuals"
    bp = cfg.bp
    nodes = cfg.quadrature_nodes
    records = []

    data = {n: ctx.box_datum(n) for n in cfg.n_list}
    for n, u0 in data.items():
        eps_n = cfg.eps_n(n)
        traj0, traj_eps = ctx.trajectory([(u0, 0.0), (u0, eps_n)], cfg.t_grid)

        series: dict = {field: [] for field in _REMAINDER_LABELS}
        for rem in first_order_remainders(
            traj0, traj_eps, cfg.t_grid, nodes, refine=(cfg.mode == "strict")
        ):
            for field in _REMAINDER_LABELS:
                series[field].append(besov_norm(getattr(rem, field), bp))

        for key, label in _REMAINDER_LABELS.items():
            for t, v in zip(cfg.t_grid, series[key]):
                records.append(ResultRecord(ex, label, v, n, eps_n, t))
            sl = lsq_slope(cfg.t_grid, series[key])
            lo = scaled(1.8, cfg.mode, center=2.0)
            hi = scaled(2.3, cfg.mode, center=2.0)
            if key in ("drift", "heat_defect"):  # the integrals: a floor only
                hi = math.inf
            records.append(
                ResultRecord(ex, f"{label}_slope", sl, n, eps_n, None, check(sl, lo, hi))
            )
    return records


# ---------------------------------------------------------------------------
# viscous-vs-ideal gap across the datum family


def run_family_gap(ctx: ExperimentContext):
    cfg = ctx.cfg
    if cfg.t0 not in cfg.t_grid:
        raise ConfigError(f"family-gap checks its gap at t0={cfg.t0}, not in t_grid {cfg.t_grid}")
    ex = "family_gap"
    bp = cfg.bp
    records = []
    gap_at_t0: dict = {}
    init_norms: dict = {}
    sup_besov: dict = {}

    data = {n: ctx.box_datum(n) for n in cfg.n_list}
    for n, u0 in data.items():
        eps_n = cfg.eps_n(n)
        traj0, traj_eps = ctx.trajectory([(u0, 0.0), (u0, eps_n)], cfg.t_grid)
        b0 = besov_norm(u0, bp)
        init_norms[n] = b0
        records.append(ResultRecord(ex, "initial_besov", b0, n, eps_n))
        within = b0 / cfg.radius_bound
        records.append(
            ResultRecord(
                ex, "radius_bound_check", within, n, eps_n, None, check(within, hi=1.0)
            )
        )

        gaps = []
        for t in cfg.t_grid:
            d = besov_norm(trajectory_gap(traj_eps, traj0, t), bp)
            gaps.append(d)
            records.append(ResultRecord(ex, "solution_gap", d, n, eps_n, t))
        gap_at_t0[n] = gaps[cfg.t_grid.index(cfg.t0)]

        sup = 0.0
        for traj in (traj0, traj_eps):
            for t in traj.times:
                sup = max(sup, besov_norm(traj.state_at(t), bp))
        sup_besov[n] = sup
        records.append(ResultRecord(ex, "trajectory_besov_sup", sup, n, eps_n))

        # the linear heat defect is the gap's leading term
        heat = heat_multiplier(traj0.layout.field_k_sq, cfg.t0, eps_n)
        main = besov_norm(replace(u0, coeffs=(heat - 1.0) * u0.coeffs), bp)
        records.append(
            ResultRecord(ex, "heat_defect_main_term", main, n, eps_n, cfg.t0)
        )
        d0 = gap_at_t0[n]
        # lo = the smallest positive double: the gap must be > 0
        records.append(
            ResultRecord(ex, "gap_positive", d0, n, eps_n, cfg.t0, check(d0, lo=math.ulp(0.0)))
        )
        floor = scaled(0.5, cfg.mode)
        dominance = d0 / main
        records.append(
            ResultRecord(
                ex, "gap_dominance", dominance, n, eps_n, cfg.t0,
                check(dominance, lo=floor),
            )
        )
        rel = [(d / t) / (gaps[0] / cfg.t_grid[0]) for d, t in zip(gaps, cfg.t_grid)]
        worst = min(rel)
        records.append(
            ResultRecord(ex, "gap_linear_floor", worst, n, eps_n, None, check(worst, lo=floor))
        )

    # over one shell the spread is 1 by construction: reported, not checked
    rates = [gap_at_t0[n] / cfg.t0 for n in cfg.n_list]
    spread = max(rates) / min(rates)
    records.append(
        ResultRecord(
            ex, "gap_rate_n_spread", spread, None, None, cfg.t0,
            check(spread, hi=scaled(2.0, cfg.mode)) if len(rates) > 1 else "info",
        )
    )
    records.append(
        ResultRecord(ex, "c0_proxy", min(rates), None, None, cfg.t0)
    )

    # sup over trajectories of the Besov norm against 4 x the largest datum norm
    bound = max(sup_besov.values()) / (4.0 * max(init_norms.values()))
    records.append(
        ResultRecord(ex, "uniform_bound", bound, None, None, None, check(bound, hi=1.0))
    )
    return records


# ---------------------------------------------------------------------------
# fixed-datum limit along a viscosity sweep


def run_fixed_datum_limit(ctx: ExperimentContext):
    cfg = ctx.cfg
    ex = "fixed_datum_limit"
    bp = cfg.bp
    records = []
    n = cfg.n_list[0]
    u0 = ctx.box_datum(n)
    sweep = [2.0 ** (-2 * m) for m in cfg.eps_exponents]
    traj0, *trajs = ctx.trajectory([(u0, eps) for eps in [0.0, *sweep]], [cfg.t0])
    records.append(ResultRecord(ex, "solution_gap_vs_eps", 0.0, n, 0.0, cfg.t0))

    gaps = []
    for eps, traj in zip(sweep, trajs):
        d = besov_norm(trajectory_gap(traj, traj0, cfg.t0), bp)
        gaps.append(d)
        records.append(ResultRecord(ex, "solution_gap_vs_eps", d, n, eps, cfg.t0))

    monotone = float(all(a > b for a, b in zip(gaps, gaps[1:])))
    records.append(
        ResultRecord(
            ex, "gap_monotone_in_eps", monotone, n, None, cfg.t0, check(monotone, lo=1.0)
        )
    )
    pairs = list(zip(sweep, gaps))
    for (ea, da), (eb, db) in zip(pairs, pairs[1:]):
        records.append(
            ResultRecord(ex, "gap_reduction_factor", db / da, n, eb, cfg.t0)
        )
    final_ratio = gaps[-1] / gaps[0]
    records.append(
        ResultRecord(
            ex, "gap_total_reduction", final_ratio, n, sweep[-1], cfg.t0,
            check(final_ratio, hi=scaled(0.1, cfg.mode, center=0.0)),
        )
    )
    return records


# ---------------------------------------------------------------------------
# background-perturbed gap (translated datum on top of a smooth field)


def _additivity_defect(t_sum, t_psi, t_u, t, bp) -> float:
    """Besov norm of S(psi + u) - S(psi) - S(u) at t, from two ball runs and
    the shell's run on its boxes, scattered to their half-spectrum."""
    s_sum, s_psi = t_sum.state_at(t), t_psi.state_at(t)
    s_u = t_u.state_at(t).spectral()
    return besov_norm(SpectralField(s_sum.grid, s_sum.coeffs - s_psi.coeffs - s_u.coeffs), bp)


def run_perturbed_gap(ctx: ExperimentContext):
    """Perturbed viscous-vs-ideal gap with truncation and additivity terms.

    The background is the seeded random field (``background_field``).  A
    shell whose low-pass S_n keeps the whole background
    (``high_pass_background`` = 0), or whose truncation bound would scale a
    zero constant, gets a ``truncation_not_evaluated`` record (value: the
    vanishing factor) in place of the truncation constant or bound.  Each
    shell is built once on its boxes of the background grid; the runs that
    carry the background evolve its half-spectrum on the ball, four of them,
    three when S_n keeps the whole background, and the bare shell's two runs
    evolve on its boxes.  The shift comparison evolves one more of each.
    Only shells n <= 4 are evolved, on a ball that holds the largest
    (N = 1024 at n = 4, R = 12); a shell above 4 gets a
    ``shell_not_evaluated`` record of value 4.
    """
    cfg = ctx.cfg
    ex = "perturbed_gap"
    bp = cfg.bp
    records = [ResultRecord(ex, "shell_not_evaluated", 4.0, n) for n in cfg.n_list if n > 4]
    ns = [n for n in cfg.n_list if n <= 4]
    if not ns:
        raise ConfigError("the background experiment needs shell indices <= 4")
    g = ctx.background_grid(max(ns))
    psi = background_field(g, cfg.seed, cfg.psi_band, bp)
    trunc_constant = None
    for n in ns:
        rows, trunc_constant, shell = _perturbed_shell(ctx, g, psi, n, trunc_constant)
        records += rows
        if n == ns[0]:
            first_shell = shell  # (S_n psi, its viscous run, defect), for the shift comparison
    del shell  # the last shell's fields die before the shift comparison's runs

    # shift comparison at the smallest shell: defect with and without the
    # half-period translation (reported only; the torus has no far-field decay)
    n = ns[0]
    eps_n = cfg.eps_n(n)
    t0 = cfg.t0
    s_n_psi, t_psi, shifted = first_shell
    u0_0 = shell_box_velocity(ShellDatum(n, bp), g)
    w0 = SpectralField(g, s_n_psi.coeffs + u0_0.spectral().coeffs)
    (t_trunc0,) = ctx.trajectory([(w0, eps_n)], [t0])
    (t_u00,) = ctx.trajectory([(u0_0, eps_n)], [t0])
    defect0 = _additivity_defect(t_trunc0, t_psi, t_u00, t0, bp)
    records.append(ResultRecord(ex, "additivity_defect_unshifted", defect0, n, eps_n, t0))
    if defect0 > 0:
        records.append(
            ResultRecord(
                ex, "additivity_defect_shift_ratio", shifted / defect0, n, eps_n, t0
            )
        )
    return records


def _perturbed_shell(ctx: ExperimentContext, g: Grid, psi, n: int, trunc_constant):
    """The records of shell n of ``run_perturbed_gap``, the truncation
    constant for the next shell, and what the shift comparison reads.  The
    shell's runs and half-spectra die when it returns."""
    cfg = ctx.cfg
    ex = "perturbed_gap"
    bp = cfg.bp
    t0 = cfg.t0
    times = [t0 / 2.0, t0]
    records = []
    eps_n = cfg.eps_n(n)
    u0k = shell_box_velocity(ShellDatum(n, bp, cfg.shift_value), g)
    u0k_ball = u0k.spectral()
    s_n_psi = low_pass(n, psi)
    hp = besov_norm(SpectralField(g, psi.coeffs - s_n_psi.coeffs), bp)
    w_full = SpectralField(g, psi.coeffs + u0k_ball.coeffs)
    # where S_n keeps the whole background (hp = 0), the truncated datum
    # is the full one, and its run is the full viscous run
    truncated = [] if hp == 0.0 else [(SpectralField(g, s_n_psi.coeffs + u0k_ball.coeffs), eps_n)]
    runs = ctx.trajectory([(w_full, eps_n), (w_full, 0.0), *truncated, (s_n_psi, eps_n)], times)
    if hp == 0.0:
        runs.insert(2, runs[0])
    t_full_eps, t_full_0, t_trunc, t_psi = runs
    t_u0, base0 = ctx.trajectory([(u0k, eps_n), (u0k, 0.0)], times)

    pert = besov_norm(trajectory_gap(t_full_eps, t_full_0, t0), bp)
    records.append(ResultRecord(ex, "perturbed_gap", pert, n, eps_n, t0))

    ref = besov_norm(trajectory_gap(t_u0, base0, t0), bp)
    records.append(ResultRecord(ex, "unperturbed_gap_reference", ref, n, eps_n, t0))
    kept = pert / ref
    records.append(
        ResultRecord(
            ex, "perturbed_gap_floor", kept, n, eps_n, t0,
            check(kept, lo=scaled(0.25, cfg.mode)),
        )
    )

    # additivity defect and its growth-rate proxy
    defect = _additivity_defect(t_trunc, t_psi, t_u0, t0, bp)
    records.append(ResultRecord(ex, "additivity_defect", defect, n, eps_n, t0))
    shell_norms = [besov_norm(t_u0.state_at(t), bp) for t in times]
    integral = t0 / 4.0 * (besov_norm(u0k, bp) + 2.0 * shell_norms[0] + shell_norms[1])
    bound_scale = 2.0 ** (n / 2.0) * math.sqrt(integral)
    records.append(
        ResultRecord(ex, "additivity_defect_constant", defect / bound_scale, n, eps_n, t0)
    )

    # sensitivity to truncating the background above the shell
    i1 = besov_norm(
        SpectralField(g, t_full_eps.state_at(t0).coeffs - t_trunc.state_at(t0).coeffs), bp
    )
    records.append(ResultRecord(ex, "truncation_sensitivity", i1, n, eps_n, t0))
    records.append(ResultRecord(ex, "high_pass_background", hp, n, eps_n, t0))
    if hp == 0.0 or trunc_constant == 0.0:
        # S_n passes the whole background (psi - S_n psi = 0, so the
        # constant i1/hp is 0/0), or the constant of an earlier shell is
        # 0: either way the bound i1 <= 2*C*hp has a zero scale
        vanishing = hp if hp == 0.0 else trunc_constant
        records.append(ResultRecord(ex, "truncation_not_evaluated", vanishing, n, eps_n, t0))
    elif trunc_constant is None:
        trunc_constant = i1 / hp
        records.append(ResultRecord(ex, "truncation_constant", trunc_constant, n, eps_n, t0))
    else:
        bound = i1 / (2.0 * trunc_constant * hp)
        records.append(
            ResultRecord(ex, "truncation_bound", bound, n, eps_n, t0, check(bound, hi=1.0))
        )
    return records, trunc_constant, (s_n_psi, t_psi, defect)


# ---------------------------------------------------------------------------
# validation suite

_SUITE = "validation"


def _rel_l2(a: SpectralField, b: SpectralField) -> float:
    num = l2_norm_spectral(SpectralField(a.grid, a.coeffs - b.coeffs))
    den = max(l2_norm_spectral(a), l2_norm_spectral(b), 1e-300)
    return num / den


def _noise(grid: Grid, rng) -> np.ndarray:
    """Half-spectrum of fresh white-noise samples."""
    return _forward(rng.standard_normal(grid.shape), grid)


def _random_stream(grid: Grid, rng, band_modes: int) -> SpectralField:
    keep = (grid.k_mag * grid.R <= band_modes) & (grid.k_sq > 0)
    return SpectralField(grid, np.where(keep, _noise(grid, rng), 0.0))


def run_validation_suite(ctx: ExperimentContext):
    """The lab's own checks, one section function each: a section's N = 256
    fields die when it returns.  The sections draw from one seeded generator
    and run in the order of their records."""
    cfg = ctx.cfg
    rng = np.random.default_rng(cfg.seed)
    data = {n: ctx.box_datum(n) for n in cfg.n_list}
    g = ctx.grid(256)
    n0 = cfg.n_list[0]
    return [
        *_partition_checks(g, build_partition(g), rng),
        *_derivative_bracket_check(data[n0], n0),
        *_projector_checks(g, rng),
        *_gradient_part_symmetry_check(g, rng),
        *_transform_checks(g, rng),
        *_datum_family_checks(data),
        *_norm_equivalence_check(g, rng, cfg.bp),
        *_product_law_checks(ctx),
        *_vortex_checks(ctx),
        *_bump_and_borderline_checks(data[n0], n0, cfg.bp),
        *_replay_check(g, cfg),
    ]


def _partition_checks(g: Grid, part, rng) -> list:
    """Partition of unity and telescoping on the lattice, and block
    almost-orthogonality on a random band-limited field."""
    k = g.k_mag
    total = part.theta(k).copy()
    for j in range(0, part.j_max + 1):
        total += part.phi(k / 2.0**j)
    tele = np.max(np.abs(total - part.theta(k / 2.0 ** (part.j_max + 1))))
    covered = k <= part.coverage_radius
    unity = np.max(np.abs(total[covered] - 1.0))

    f = _random_stream(g, rng, g.dealias_keep)
    nf = l2_norm_spectral(f)
    worst = 0.0
    for j in range(-1, part.j_max + 1):
        bj = dyadic_block(j, f)
        for j2 in range(j + 2, part.j_max + 1):
            worst = max(worst, l2_norm_spectral(dyadic_block(j2, bj)) / nf)
    return [
        ResultRecord(_SUITE, "partition_unity_defect", unity, verdict=check(unity, hi=1e-12)),
        ResultRecord(_SUITE, "partition_telescoping_defect", tele, verdict=check(tele, hi=1e-12)),
        ResultRecord(_SUITE, "block_orthogonality_defect", worst, verdict=check(worst, hi=1e-12)),
    ]


def _derivative_bracket_check(u0: BoxField, n0: int) -> list:
    """Frequency-localized derivative bracket on the first datum shell, on its
    boxes: |grad u|^2 = sum_j |d_j u|^2, and d_j u has the entries i xi_j u."""
    lay = u0.layout
    xi = lay.modes / lay.grid.R
    gnorm = math.hypot(*(lay.l2(xi[j] * u0.coeffs) for j in range(lay.grid.d)))
    ratio = gnorm / lay.l2(u0.coeffs)
    lo, hi = (r * slack for r, slack in zip(block_annulus(n0), (1 - 1e-12, 1 + 1e-12)))
    verdict = check(ratio, lo, hi)
    return [ResultRecord(_SUITE, "derivative_bracket_ratio", ratio, n0, verdict=verdict)]


def _projector_checks(g: Grid, rng) -> list:
    """Projector identities on random fields, drawn as V, a gradient and a
    solenoidal field; each is dropped once its checks are done."""
    V = SpectralField(g, np.stack([_noise(g, rng) for _ in range(g.d)]))
    P = leray_project(V)
    p_idem = _rel_l2(leray_project(P), P)
    cross = l2_norm_spectral(leray_complement(P)) / l2_norm_spectral(V)
    Q = leray_complement(V)
    sum_identity = _rel_l2(SpectralField(g, P.coeffs + Q.coeffs), V)
    del V, P
    q_idem = _rel_l2(leray_complement(Q), Q)
    del Q
    grad = gradient(SpectralField(g, _noise(g, rng)))
    kills = l2_norm_spectral(leray_project(grad)) / l2_norm_spectral(grad)
    del grad
    sol = perp_gradient(_random_stream(g, rng, 40))
    checks = {
        "projector_idempotency": p_idem,
        "complement_idempotency": q_idem,
        "projector_sum_identity": sum_identity,
        "projector_cross_vanishing": cross,
        "projector_kills_gradient": kills,
        "projector_fixes_solenoidal": _rel_l2(leray_project(sol), sol),
    }
    return [ResultRecord(_SUITE, k, v, verdict=check(v, hi=1e-13)) for k, v in checks.items()]


def _gradient_part_symmetry_check(g: Grid, rng) -> list:
    """Symmetry of the gradient part of the advection bracket; each product
    is dropped once its norm and gradient part are taken."""
    u = perp_gradient(_random_stream(g, rng, g.dealias_keep // 2))
    v = perp_gradient(_random_stream(g, rng, g.dealias_keep // 2))
    auv = advect(u, v)
    norm_uv, quv = l2_norm_spectral(auv), leray_complement(auv)
    del auv
    avu = advect(v, u)
    scale = max(norm_uv, l2_norm_spectral(avu))
    qvu = leray_complement(avu)
    qsym = l2_norm_spectral(SpectralField(g, quv.coeffs - qvu.coeffs)) / scale
    return [ResultRecord(_SUITE, "gradient_part_symmetry", qsym, verdict=check(qsym, hi=1e-11))]


def _transform_checks(g: Grid, rng) -> list:
    """Parseval, the translation isometries and the heat semigroup law."""
    samples = rng.standard_normal(g.shape)
    F = SpectralField(g, _forward(samples, g))
    phys = (g.dx**g.d) * np.sum(samples**2)
    spec = l2_norm_spectral(F) ** 2
    pars = abs(phys - spec) / phys
    shift = np.full(g.d, 0.37 * g.L)
    iso = abs(l2_norm_spectral(translate(F, shift)) - l2_norm_spectral(F)) / l2_norm_spectral(F)
    per = l2_norm_spectral(
        SpectralField(g, translate(F, np.full(g.d, g.L)).coeffs - F.coeffs)
    ) / l2_norm_spectral(F)
    W = SpectralField(g, np.stack([F.coeffs, _noise(g, rng)]))
    one = heat_propagate(W, 0.7, 0.3)
    two = heat_propagate(heat_propagate(W, 0.3, 0.3), 0.4, 0.3)
    semi = _rel_l2(one, two)
    return [
        ResultRecord(_SUITE, "parseval_defect", pars, verdict=check(pars, hi=1e-12)),
        ResultRecord(_SUITE, "translation_isometry_defect", iso, verdict=check(iso, hi=1e-12)),
        ResultRecord(_SUITE, "translation_periodicity_defect", per, verdict=check(per, hi=1e-12)),
        ResultRecord(_SUITE, "heat_semigroup_defect", semi, verdict=check(semi, hi=1e-13)),
    ]


def _datum_family_checks(data: dict) -> list:
    """Single-block property and cumulative low-pass on the datum family, on
    the datum's boxes: Delta_n and S_n are their multipliers at the entries."""
    records = []
    for n, u0n in data.items():
        lay = u0n.layout
        scale = lay.l2(u0n.coeffs)
        block = lay.blocks[n + 1] * u0n.coeffs  # lay.blocks is indexed j = -1 .. j_max
        own = lay.l2(block - u0n.coeffs) / max(lay.l2(block), scale, 1e-300)
        blocks = block_lp_norms(u0n, 2.0)
        others = max(b / scale for j, b in enumerate(blocks, start=-1) if j != n)
        low = build_partition(lay.grid).theta(lay.k_mag / 2.0**n)
        lp_val = lay.l2(low * u0n.coeffs) / scale
        div = lay.divergence_defect(u0n)
        records += [
            ResultRecord(_SUITE, "single_block_defect", own, n, verdict=check(own, hi=1e-12)),
            ResultRecord(_SUITE, "other_block_mass", others, n, verdict=check(others, hi=1e-12)),
            ResultRecord(_SUITE, "low_pass_leakage", lp_val, n, verdict=check(lp_val, hi=1e-12)),
            ResultRecord(_SUITE, "datum_divergence_defect", div, n, verdict=check(div, hi=1e-12)),
        ]
    return records


def _norm_equivalence_check(g: Grid, rng, bp: BesovParams) -> list:
    """Norm-equivalence sanity (logged, asserted finite and positive)."""
    zf = _random_stream(g, rng, g.dealias_keep)
    ratio_eq = besov_norm(zf, bp) / max(lp_norm(zf, bp.p), 1e-300)
    verdict = check(ratio_eq, lo=math.ulp(0.0))
    return [ResultRecord(_SUITE, "norm_equivalence_ratio", ratio_eq, verdict=verdict)]


def _product_law_checks(ctx: ExperimentContext) -> list:
    """Product and gradient-part norm ratios over the family: the measured
    constants must not rise with n (see the decisions ledger on why the raw
    values decay)."""
    bp = ctx.cfg.bp
    records = []
    ratios_prod = {}
    ratios_q = {}
    for n in ctx.cfg.n_list:
        try:
            u0p = ctx.box_datum(n, order=2)
        except ResolutionError as err:  # above the budget, at p != 2 only
            records.append(
                ResultRecord(_SUITE, "resolution_limited", float(err.required_n or 0), n)
            )
            continue
        lay = u0p.layout
        pa = lay.advect(u0p, u0p)
        bu_s = besov_norm(u0p, bp)
        bu_sm1 = besov_norm(u0p, bp.shifted(-1))
        ratios_prod[n] = besov_norm(pa, bp.shifted(-1)) / (bu_sm1 * bu_s)
        ratios_q[n] = besov_norm(lay.gradient_part(pa), bp) / (bu_s * bu_s)
        records.append(ResultRecord(_SUITE, "product_law_constant", ratios_prod[n], n))
        records.append(ResultRecord(_SUITE, "gradient_part_law_constant", ratios_q[n], n))
    for name, ratios in (
        ("product_law_growth", ratios_prod),
        ("gradient_part_law_growth", ratios_q),
    ):
        keys = sorted(ratios)
        for a, b in zip(keys, keys[1:]):
            growth = ratios[b] / ratios[a]
            records.append(
                ResultRecord(_SUITE, name, growth, b, verdict=check(growth, hi=2.0))
            )
    return records


def _vortex_checks(ctx: ExperimentContext) -> list:
    """Cellular-vortex solver checks, and RK4's observed order."""
    records = []
    gt = Grid(2, 64, 1.0)
    tg = taylor_green(gt)
    (traj,) = ctx.trajectory([(tg, 0.01)], [1.0])
    decay = math.exp(-2.0 * 0.01 * 1.0)
    ref = SpectralField(gt, decay * tg.coeffs)
    tg_err = _rel_l2(traj.state_at(1.0), ref)
    records.append(
        ResultRecord(_SUITE, "vortex_analytic_error", tg_err, verdict=check(tg_err, hi=1e-6))
    )
    (traj0,) = ctx.trajectory([(tg, 0.0)], [1.0])
    steady = _rel_l2(traj0.state_at(1.0), tg)
    records.append(
        ResultRecord(_SUITE, "vortex_steady_error", steady, verdict=check(steady, hi=1e-8))
    )

    w0 = taylor_green_two_mode(gt)
    (trajE,) = ctx.trajectory([(w0, 0.0)], [0.1])
    en = trajE.diagnostics["energy"]
    e0 = l2_norm_spectral(w0)
    drift = float(np.max(np.abs(en - e0)) / e0)
    records.append(
        ResultRecord(_SUITE, "ideal_energy_drift", drift, verdict=check(drift, hi=1e-7))
    )
    divmax = max(trajE.div_rel)
    records.append(
        ResultRecord(_SUITE, "divergence_preservation", divmax, verdict=check(divmax, hi=1e-9))
    )
    (trajV,) = ctx.trajectory([(w0, 0.05)], [0.1])
    env = np.concatenate([[l2_norm_spectral(w0)], trajV.diagnostics["energy"]])
    increase = float(np.max(np.diff(env)) / env[0])
    records.append(
        ResultRecord(
            _SUITE, "viscous_energy_max_increase", increase, verdict=check(increase, hi=1e-12)
        )
    )

    # RK4's observed order from Cauchy differences of its runs at fixed steps
    # T/M, with no reference run (Roache, Verification and Validation in
    # Computational Science and Engineering, 1998).  With u_M = u* + C (T/M)^4
    # + O(M^-5), d_M = |u_M - u_2M| = (1 - 2^-4) |C| (T/M)^4 + O(M^-5), so
    # each log2(d_M / d_2M) tends to 4, as the error against a reference does.
    # At T = 0.5 the differences d_16 and d_32 are 3.7e-8 and 2.3e-9 of |w0|,
    # far above the states' rounding spread of 7e-18 of |w0|; at T = 0.1 the
    # finest would shrink to 8.0e-13 of |w0| and rounding would move the order.
    T = 0.5
    # one request per call: at N = 64 side-by-side runs contend for the GIL
    runs = [ctx.trajectory([(w0, 0.0, T / M)], [T])[0] for M in (8, 16, 32, 64)]
    sols = [traj.state_at(T).coeffs for traj in runs]
    diffs = [l2_norm_spectral(SpectralField(gt, a - b)) for a, b in zip(sols, sols[1:])]
    order = min(math.log2(a / b) for a, b in zip(diffs, diffs[1:]))
    records.append(
        ResultRecord(_SUITE, "stepper_convergence_order", order, verdict=check(order, lo=3.5))
    )
    return records


def _bump_and_borderline_checks(u0: BoxField, n0: int, bp: BesovParams) -> list:
    """Profile bump diagnostics, and the borderline admissible triple on the
    first datum shell, reported info-only."""
    bump = build_profile_bump(u0.grid)
    a0 = float(bump.a_hat[0])
    records = [ResultRecord(_SUITE, "bump_center_value", a0, verdict=check(a0, 1.0, 1.0))]
    phi = bump.physical_profile()
    sup = bump.lp_norm_1d(np.inf)
    attained = abs(sup - phi[0]) / sup
    verdict = check(attained, hi=1e-12)
    records.append(ResultRecord(_SUITE, "bump_max_at_origin_defect", attained, verdict=verdict))
    phi0 = phi[0]
    x = bump.grid.x_1d
    dist = np.minimum(x, bump.grid.L - x)
    delta = float(dist[np.abs(phi) >= 0.5 * phi0].max())
    for p in (1.0, 2.0, np.inf):
        val = bump.lp_norm_1d(p)
        label = "inf" if np.isinf(p) else f"{p:g}"
        c1 = 0.5 * phi0 * (2.0 * delta) ** (0.0 if np.isinf(p) else 1.0 / p)
        # a non-positive lower constant certifies nothing
        records.append(
            ResultRecord(
                _SUITE, f"bump_lp_norm[p={label}]", val,
                verdict=check(val, lo=c1 if c1 > 0 else math.inf),
            )
        )
    records.append(ResultRecord(_SUITE, "bump_tail_fraction", bump.tail_fraction()))

    borderline = BesovParams(bp.d / bp.p + 1.0, bp.p, 1.0, bp.d)
    bl = besov_norm(u0, borderline)
    records.append(ResultRecord(_SUITE, "borderline_besov", bl, n0))
    unorm = u0.layout.l2(u0.coeffs)
    lp_u0 = unorm if normed_on_boxes(borderline.p) else lp_norm(u0.spectral(), borderline.p)
    ratio = bl / (2.0 ** (n0 * borderline.s) * lp_u0)
    records.append(ResultRecord(_SUITE, "borderline_single_shell_ratio", ratio, n0))
    return records


def _replay_check(g: Grid, cfg: ExperimentConfig) -> list:
    """Deterministic replay of the seeded background field."""
    psi_a = background_field(g, cfg.seed, 1, cfg.bp)
    psi_b = background_field(g, cfg.seed, 1, cfg.bp)
    identical = float(np.array_equal(psi_a.coeffs, psi_b.coeffs))
    verdict = check(identical, lo=1.0)
    return [ResultRecord(_SUITE, "background_replay_identical", identical, verdict=verdict)]
