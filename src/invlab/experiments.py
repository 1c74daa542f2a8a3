"""Experiment harness: measured quantities, tolerance verdicts, records.

Each ``run_*`` function measures one family of quantities on the configured
datum family and returns a list of ResultRecords.  Every pass/fail verdict is
``check(value, lo, hi)`` on the value its record carries, so each verdict can
be rechecked from records.csv alone; a bound on a quotient is stated on that
quotient.  Mode-dependent bounds come from ``scaled``: ``relaxed`` uses the
stated acceptance windows, ``strict`` moves every bound a third of the way
toward its center.  An experiment asks its ExperimentContext for the
evolutions it needs together (the viscous and ideal runs of one datum, a
viscosity sweep), and the context evolves them side by side
(``solvers.threaded_map``).  Each experiment holds its own trajectories:
the context keeps none, so an experiment that needs a run twice keeps it.

Every evolution is the Galerkin system of the 2/3 ball of its grid.  A bare
shell datum, in ``family-gap``, ``expansion-residuals`` (with its Duhamel
sums and ``pa0``) and ``fixed-limit``, evolves on ``ctx.envelopes(n)``: that
ball restricted to the boxes around the harmonics of the datum's carrier,
at a cost that does not grow with n.  The layout follows from the datum, not
from a setting.  The two layouts agree because the ball's state holds,
outside the boxes, only FFT rounding (every mode above 1e-20 of the peak
lies within 6 modes of a harmonic at n = 3 and 4, t = 0.08): their
increments differ by 1.5-7.4e-15 relative in L2 at n = 3, and every verdict
is the same.  ``perturbed-gap`` stays on the ball: its additivity defect
subtracts the bare-shell run from runs with a background, which fills a low
box of radius 2^psi_band R, so all of them must be one Galerkin system.
``validate`` evolves Taylor-Green vortices on the ball of N = 64.
The expansion residuals take their four remainder fields from
``solvers.first_order_remainders``: one Duhamel sweep for all sample times,
which evaluates each distinct quadrature node once (refined in the same pass
in strict mode), with the linear time integrals in closed form.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .constructions import (
    CARRIER_RATIO,
    ShellDatum,
    background_field,
    background_mode_extent,
    build_profile_bump,
    bump_half_width,
    carrier_mode,
    datum_mode_extent,
    envelope_half_width,
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
)
from .solvers import (
    Envelopes,
    Trajectory,
    evolve,
    first_order_remainders,
    threaded_map,
    trajectory_gap,
)
from .spectral import (
    Grid,
    SpectralField,
    _forward,
    advect,
    apply_multiplier,
    dealias_grid_size,
    divergence_defect,
    gradient,
    heat_factor,
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
    N: int = 2048  # resolution budget per axis; per-datum grids stay within it
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


class ExperimentContext:
    """Grids, data and evolutions for one configuration.

    The context caches only its grids, since a ``Grid`` caches its frequency
    arrays per instance.  ``trajectory`` evolves every request of a batch,
    side by side on min(number of requests, CPUs this process may run on)
    threads, the calling thread one of them; a single request runs on the
    calling thread alone.  The evolutions are independent and spend most of
    their time in FFTs and array arithmetic that release the GIL.
    """

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self._grids: dict = {}
        self.evolutions: list = []  # grid, eps and solver statistics per evolve call

    # -- grids -------------------------------------------------------------

    def grid(self, N: int) -> Grid:
        if N not in self._grids:
            self._grids[N] = Grid(2, N, self.cfg.R)
        return self._grids[N]

    def _fit_grid(self, max_mode: int, what: str) -> int:
        N = dealias_grid_size(max_mode)
        if N > self.cfg.N:
            raise ResolutionError(
                f"{what} needs N>={N}, above the configured budget {self.cfg.N}",
                required_n=N,
            )
        return N

    def datum_grid(self, n: int) -> Grid:
        """Smallest power-of-two grid with the datum inside the 2/3 ball."""
        return self.grid(self._fit_grid(datum_mode_extent(n, self.cfg.R), f"datum n={n}"))

    def product_grid(self, n: int) -> Grid:
        """Smallest grid resolving the exact quadratic product of the datum."""
        extent = 2 * datum_mode_extent(n, self.cfg.R)
        return self.grid(self._fit_grid(extent, f"datum product n={n}"))

    def background_grid(self, n_max: int) -> Grid:
        extent = max(
            datum_mode_extent(n_max, self.cfg.R),
            background_mode_extent(self.cfg.psi_band, self.cfg.R),
        )
        return self.grid(self._fit_grid(extent, "background experiment"))

    # -- data --------------------------------------------------------------

    def datum(self, n: int, grid: Grid | None = None, shift: float = 0.0):
        """The shell velocity of index n on the grid (default ``datum_grid``)."""
        grid = grid or self.datum_grid(n)
        return shell_velocity(ShellDatum(n, self.cfg.bp, shift), grid)

    def envelopes(self, n: int) -> Envelopes:
        """The layout of the bare shell datum n on ``datum_grid(n)``: boxes of
        ``envelope_half_width`` around the harmonics of its carrier mode."""
        R = self.cfg.R
        return Envelopes(
            self.datum_grid(n), carrier_mode(n, R), envelope_half_width(R), bump_half_width(R)
        )

    # -- trajectories --------------------------------------------------------

    def trajectory(
        self, requests: Sequence[tuple], times: Iterable[float], layout: Envelopes | None = None
    ) -> list[Trajectory]:
        """The trajectories of the requests, each sampled at ``times``.

        A request is ``(u0, eps)``, or ``(u0, eps, dt_fixed)`` for a fixed
        step: the arguments of ``evolve`` but the sample times.  Every request
        evolves in ``layout``, by default the ball of its grid.  Returned in
        request order, with the per-evolution statistics appended to
        ``evolutions`` in that order.  If an evolution raises, the running
        ones finish, none is started, and the first error in request order
        is raised; the statistics of the requests before it are kept.
        """
        times = tuple(times)
        on = {} if layout is None else {"layout": layout}

        def timed(request):
            start = time.perf_counter()
            traj = evolve(*request[:2], times, *request[2:], **on)
            return traj, time.perf_counter() - start

        out = []
        for traj, wall_s in threaded_map(timed, requests):
            self.evolutions.append(_evolution_stats(traj, wall_s))
            out.append(traj)
        return out


def _evolution_stats(traj: Trajectory, wall_s: float) -> dict:
    """Grid, layout, eps, wall time and solver statistics of one evolution."""
    d, e0, lay = traj.diagnostics, l2_norm_spectral(traj.u0), traj.layout
    stats = {"N": traj.u0.grid.N, "layout": "ball"}
    if isinstance(lay, Envelopes):  # and the largest ring share its guard measured
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


def run_heat_law(cfg: ExperimentConfig, ctx: ExperimentContext | None = None):
    ctx = ctx or ExperimentContext(cfg)
    ex = "heat_law"
    bp = cfg.bp
    records = []
    q_values: dict = {}
    base_norm: dict = {}
    qhat = CARRIER_RATIO**2

    for n in cfg.n_list:
        g = ctx.datum_grid(n)
        u0 = ctx.datum(n)
        eps_n = cfg.eps_n(n)
        u0_blocks = block_lp_norms(u0, bp.p)
        for k in (-1, 0, 1):
            bnorm = besov_from_blocks(u0_blocks, bp.shifted(k))
            if n == cfg.n_list[0]:
                base_norm[k] = bnorm / 2.0 ** (k * n)
        for t in cfg.t_grid:
            fac = heat_factor(g, t, eps_n) - 1.0
            blocks = block_lp_norms(apply_multiplier(u0, fac), bp.p)
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


def run_nonlinear_drift(cfg: ExperimentConfig, ctx: ExperimentContext | None = None):
    ctx = ctx or ExperimentContext(cfg)
    ex = "nonlinear_drift"
    bp = cfg.bp
    records = []
    over_t: dict = {}
    resolvable = []

    for n in cfg.n_list:
        try:
            g = ctx.product_grid(n)
        except ResolutionError as err:
            records.append(
                ResultRecord(
                    ex, "resolution_limited", float(err.required_n or 0), n
                )
            )
            continue
        resolvable.append(n)
        u0 = ctx.datum(n, grid=g)
        eps_n = cfg.eps_n(n)
        pa = advect(u0, u0)

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
            hf = heat_factor(g, t, eps_n)
            ut = apply_multiplier(u0, hf)
            drift = SpectralField(g, advect(ut, ut).coeffs - pa.coeffs)
            blocks = block_lp_norms(drift, bp.p)
            for k in (-1, 0, 1):
                v = besov_from_blocks(blocks, bp.shifted(k))
                a1[k].append(v)
                records.append(
                    ResultRecord(ex, f"advection_drift[s{k:+d}]", v, n, eps_n, t)
                )
            v2 = besov_norm(apply_multiplier(pa, hf - 1.0), bp)
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


def run_expansion_residuals(cfg: ExperimentConfig, ctx: ExperimentContext | None = None):
    ctx = ctx or ExperimentContext(cfg)
    ex = "expansion_residuals"
    bp = cfg.bp
    nodes = cfg.quadrature_nodes
    records = []

    for n in cfg.n_list:
        u0 = ctx.datum(n)
        eps_n = cfg.eps_n(n)
        traj0, traj_eps = ctx.trajectory(
            [(u0, 0.0), (u0, eps_n)], cfg.t_grid, ctx.envelopes(n)
        )

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


def run_family_gap(cfg: ExperimentConfig, ctx: ExperimentContext | None = None):
    if cfg.t0 not in cfg.t_grid:
        raise ConfigError(f"family-gap checks its gap at t0={cfg.t0}, not in t_grid {cfg.t_grid}")
    ctx = ctx or ExperimentContext(cfg)
    ex = "family_gap"
    bp = cfg.bp
    records = []
    gap_at_t0: dict = {}
    init_norms: dict = {}
    sup_besov: dict = {}

    for n in cfg.n_list:
        g = ctx.datum_grid(n)
        u0 = ctx.datum(n)
        eps_n = cfg.eps_n(n)
        b0 = besov_norm(u0, bp)
        init_norms[n] = b0
        records.append(ResultRecord(ex, "initial_besov", b0, n, eps_n))
        within = b0 / cfg.radius_bound
        records.append(
            ResultRecord(
                ex, "radius_bound_check", within, n, eps_n, None, check(within, hi=1.0)
            )
        )

        traj0, traj_eps = ctx.trajectory(
            [(u0, 0.0), (u0, eps_n)], cfg.t_grid, ctx.envelopes(n)
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
        main = besov_norm(
            apply_multiplier(u0, heat_factor(g, cfg.t0, eps_n) - 1.0), bp
        )
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


def run_fixed_datum_limit(cfg: ExperimentConfig, ctx: ExperimentContext | None = None):
    ctx = ctx or ExperimentContext(cfg)
    ex = "fixed_datum_limit"
    bp = cfg.bp
    records = []
    n = cfg.n_list[0]
    u0 = ctx.datum(n)
    sweep = [2.0 ** (-2 * m) for m in cfg.eps_exponents]
    traj0, *trajs = ctx.trajectory(
        [(u0, eps) for eps in [0.0, *sweep]], [cfg.t0], ctx.envelopes(n)
    )
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
    """Besov norm of S(psi + u) - S(psi) - S(u) at t, from three evolutions."""
    s_sum, s_psi, s_u = (tr.state_at(t) for tr in (t_sum, t_psi, t_u))
    return besov_norm(SpectralField(s_sum.grid, s_sum.coeffs - s_psi.coeffs - s_u.coeffs), bp)


def run_perturbed_gap(
    cfg: ExperimentConfig,
    ctx: ExperimentContext | None = None,
    background: SpectralField | None = None,
):
    """Perturbed viscous-vs-ideal gap with truncation and additivity terms.

    ``background`` overrides the seeded random field (used by degenerate-case
    tests).  A shell whose low-pass S_n keeps the whole background
    (``high_pass_background`` = 0), or whose truncation bound would scale a
    zero constant, gets a ``truncation_not_evaluated`` record (value: the
    vanishing factor) in place of the truncation constant or bound.  Each
    shell evolves six runs, five when S_n keeps the whole background; the
    shift comparison evolves two more.
    """
    ctx = ctx or ExperimentContext(cfg)
    ex = "perturbed_gap"
    bp = cfg.bp
    records = []
    ns = [n for n in cfg.n_list if n <= 4]
    if not ns:
        raise ConfigError("the background experiment needs shell indices <= 4")
    g = ctx.background_grid(max(ns))
    psi = background if background is not None else background_field(
        g, cfg.seed, cfg.psi_band, bp
    )
    k_shift = cfg.shift_value
    t0 = cfg.t0
    times = [t0 / 2.0, t0]
    trunc_constant = None

    for n in ns:
        eps_n = cfg.eps_n(n)
        u0k = ctx.datum(n, grid=g, shift=k_shift)
        s_n_psi = low_pass(n, psi)
        hp = besov_norm(SpectralField(g, psi.coeffs - s_n_psi.coeffs), bp)
        w_full = SpectralField(g, psi.coeffs + u0k.coeffs)
        # where S_n keeps the whole background (hp = 0), the truncated datum
        # is the full one, and its run is the full viscous run
        truncated = [] if hp == 0.0 else [(SpectralField(g, s_n_psi.coeffs + u0k.coeffs), eps_n)]

        runs = ctx.trajectory(
            [
                (w_full, eps_n),
                (w_full, 0.0),
                *truncated,
                (s_n_psi, eps_n),
                (u0k, eps_n),
                (u0k, 0.0),
            ],
            times,
        )
        if hp == 0.0:
            runs.insert(2, runs[0])
        t_full_eps, t_full_0, t_trunc, t_psi, t_u0, base0 = runs

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
        if n == ns[0]:
            first_shell = s_n_psi, t_psi, defect  # for the shift comparison
        shell_norms = [besov_norm(t_u0.state_at(t), bp) for t in times]
        integral = t0 / 4.0 * (
            besov_norm(u0k, bp) + 2.0 * shell_norms[0] + shell_norms[1]
        )
        bound_scale = 2.0 ** (n / 2.0) * math.sqrt(integral)
        records.append(
            ResultRecord(
                ex,
                "additivity_defect_constant",
                defect / bound_scale,
                n,
                eps_n,
                t0,
            )
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
            records.append(
                ResultRecord(ex, "truncation_not_evaluated", vanishing, n, eps_n, t0)
            )
        elif trunc_constant is None:
            trunc_constant = i1 / hp
            records.append(
                ResultRecord(ex, "truncation_constant", trunc_constant, n, eps_n, t0)
            )
        else:
            bound = i1 / (2.0 * trunc_constant * hp)
            records.append(
                ResultRecord(ex, "truncation_bound", bound, n, eps_n, t0, check(bound, hi=1.0))
            )

    # shift comparison at the smallest shell: defect with and without the
    # half-period translation (reported only; the torus has no far-field decay)
    n = ns[0]
    eps_n = cfg.eps_n(n)
    s_n_psi, t_psi, shifted = first_shell
    u0_0 = ctx.datum(n, grid=g, shift=0.0)
    w0 = SpectralField(g, s_n_psi.coeffs + u0_0.coeffs)
    t_trunc0, t_u00 = ctx.trajectory([(w0, eps_n), (u0_0, eps_n)], [t0])
    defect0 = _additivity_defect(t_trunc0, t_psi, t_u00, t0, bp)
    records.append(ResultRecord(ex, "additivity_defect_unshifted", defect0, n, eps_n, t0))
    if defect0 > 0:
        records.append(
            ResultRecord(
                ex, "additivity_defect_shift_ratio", shifted / defect0, n, eps_n, t0
            )
        )
    return records


# ---------------------------------------------------------------------------
# validation suite


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


def run_validation_suite(cfg: ExperimentConfig, ctx: ExperimentContext | None = None):
    ctx = ctx or ExperimentContext(cfg)
    ex = "validation"
    bp = cfg.bp
    records = []
    rng = np.random.default_rng(cfg.seed)
    g = ctx.grid(256)
    part = build_partition(g)

    # partition of unity and telescoping on the lattice
    k = g.k_mag
    total = part.theta(k).copy()
    for j in range(0, part.j_max + 1):
        total += part.phi(k / 2.0**j)
    tele = np.max(np.abs(total - part.theta(k / 2.0 ** (part.j_max + 1))))
    covered = k <= part.coverage_radius
    unity = np.max(np.abs(total[covered] - 1.0))
    records.append(
        ResultRecord(ex, "partition_unity_defect", unity, verdict=check(unity, hi=1e-12))
    )
    records.append(
        ResultRecord(ex, "partition_telescoping_defect", tele, verdict=check(tele, hi=1e-12))
    )

    # block almost-orthogonality on a random band-limited field
    f = _random_stream(g, rng, g.dealias_keep)
    nf = l2_norm_spectral(f)
    worst = 0.0
    for j in range(-1, part.j_max + 1):
        bj = dyadic_block(j, f)
        for j2 in range(j + 2, part.j_max + 1):
            worst = max(worst, l2_norm_spectral(dyadic_block(j2, bj)) / nf)
    records.append(
        ResultRecord(
            ex, "block_orthogonality_defect", worst, verdict=check(worst, hi=1e-12)
        )
    )

    # frequency-localized derivative bracket on the first datum shell
    n0 = cfg.n_list[0]
    u0 = ctx.datum(n0)
    gd = u0.grid
    # |grad u|^2 = sum_j |d_j u|^2, and d_j u is a vector field
    gnorm = math.hypot(
        *(lp_norm(apply_multiplier(u0, 1j * gd.freq_axis(j)), 2.0) for j in range(gd.d))
    )
    unorm = lp_norm(u0, 2.0)
    ratio = gnorm / unorm
    lo, hi = (r * slack for r, slack in zip(block_annulus(n0), (1 - 1e-12, 1 + 1e-12)))
    records.append(
        ResultRecord(ex, "derivative_bracket_ratio", ratio, n0, verdict=check(ratio, lo, hi))
    )

    # projector identities on a random field
    V = SpectralField(g, np.stack([_noise(g, rng) for _ in range(g.d)]))
    P = leray_project(V)
    Q = leray_complement(V)
    grad = gradient(SpectralField(g, _noise(g, rng)))
    checks = {
        "projector_idempotency": _rel_l2(leray_project(P), P),
        "complement_idempotency": _rel_l2(leray_complement(Q), Q),
        "projector_sum_identity": _rel_l2(SpectralField(g, P.coeffs + Q.coeffs), V),
        "projector_cross_vanishing": l2_norm_spectral(leray_complement(P))
        / l2_norm_spectral(V),
        "projector_kills_gradient": l2_norm_spectral(leray_project(grad))
        / l2_norm_spectral(grad),
    }
    sol = perp_gradient(_random_stream(g, rng, 40))
    checks["projector_fixes_solenoidal"] = _rel_l2(leray_project(sol), sol)
    for name, val in checks.items():
        records.append(ResultRecord(ex, name, val, verdict=check(val, hi=1e-13)))

    # symmetry of the gradient part of the advection bracket
    u = perp_gradient(_random_stream(g, rng, g.dealias_keep // 2))
    v = perp_gradient(_random_stream(g, rng, g.dealias_keep // 2))
    auv, avu = advect(u, v), advect(v, u)
    quv, qvu = leray_complement(auv), leray_complement(avu)
    scale = max(l2_norm_spectral(auv), l2_norm_spectral(avu))
    qsym = l2_norm_spectral(SpectralField(g, quv.coeffs - qvu.coeffs)) / scale
    records.append(
        ResultRecord(ex, "gradient_part_symmetry", qsym, verdict=check(qsym, hi=1e-11))
    )

    # Parseval and transform isometries
    samples = rng.standard_normal(g.shape)
    F = SpectralField(g, _forward(samples, g))
    phys = (g.dx**g.d) * np.sum(samples**2)
    spec = l2_norm_spectral(F) ** 2
    pars = abs(phys - spec) / phys
    records.append(ResultRecord(ex, "parseval_defect", pars, verdict=check(pars, hi=1e-12)))

    shift = np.full(g.d, 0.37 * g.L)
    iso = abs(l2_norm_spectral(translate(F, shift)) - l2_norm_spectral(F)) / l2_norm_spectral(F)
    records.append(ResultRecord(ex, "translation_isometry_defect", iso, verdict=check(iso, hi=1e-12)))
    per = l2_norm_spectral(
        SpectralField(g, translate(F, np.full(g.d, g.L)).coeffs - F.coeffs)
    ) / l2_norm_spectral(F)
    records.append(ResultRecord(ex, "translation_periodicity_defect", per, verdict=check(per, hi=1e-12)))

    # heat semigroup law
    W = SpectralField(g, np.stack([F.coeffs, _noise(g, rng)]))
    one = heat_propagate(W, 0.7, 0.3)
    two = heat_propagate(heat_propagate(W, 0.3, 0.3), 0.4, 0.3)
    semi = _rel_l2(one, two)
    records.append(ResultRecord(ex, "heat_semigroup_defect", semi, verdict=check(semi, hi=1e-13)))

    # single-block property and cumulative low-pass on the datum family
    for n in cfg.n_list:
        u0n = ctx.datum(n)
        scale = l2_norm_spectral(u0n)
        own = _rel_l2(dyadic_block(n, u0n), u0n)
        # block_lp_norms(., 2) is indexed j = -1 .. j_max
        blocks = block_lp_norms(u0n, 2.0)
        others = max(b / scale for j, b in enumerate(blocks, start=-1) if j != n)
        lp_val = l2_norm_spectral(low_pass(n, u0n)) / scale
        records.append(
            ResultRecord(ex, "single_block_defect", own, n, verdict=check(own, hi=1e-12))
        )
        records.append(
            ResultRecord(ex, "other_block_mass", others, n, verdict=check(others, hi=1e-12))
        )
        records.append(
            ResultRecord(ex, "low_pass_leakage", lp_val, n, verdict=check(lp_val, hi=1e-12))
        )
        div = divergence_defect(u0n)
        records.append(
            ResultRecord(ex, "datum_divergence_defect", div, n, verdict=check(div, hi=1e-12))
        )
    del u0n  # the last shell's datum, the largest, is not needed below

    # norm-equivalence sanity (logged, asserted finite and positive)
    zf = _random_stream(g, rng, g.dealias_keep)
    bz = besov_norm(zf, bp)
    low = lp_norm(zf, bp.p)
    ratio_eq = bz / max(low, 1e-300)
    records.append(
        ResultRecord(
            ex, "norm_equivalence_ratio", ratio_eq, verdict=check(ratio_eq, lo=math.ulp(0.0))
        )
    )

    # product and gradient-part norm ratios over the family: the measured
    # constants must not grow with n (see the decisions ledger on why the
    # raw values decay)
    ratios_prod = {}
    ratios_q = {}
    for n in cfg.n_list:
        try:
            gp = ctx.product_grid(n)
        except ResolutionError:
            continue
        u0p = ctx.datum(n, grid=gp)
        pa = advect(u0p, u0p)
        bu_s = besov_norm(u0p, bp)
        bu_sm1 = besov_norm(u0p, bp.shifted(-1))
        ratios_prod[n] = besov_norm(pa, bp.shifted(-1)) / (bu_sm1 * bu_s)
        ratios_q[n] = besov_norm(leray_complement(pa), bp) / (bu_s * bu_s)
        records.append(ResultRecord(ex, "product_law_constant", ratios_prod[n], n))
        records.append(ResultRecord(ex, "gradient_part_law_constant", ratios_q[n], n))
    for name, ratios in (
        ("product_law_growth", ratios_prod),
        ("gradient_part_law_growth", ratios_q),
    ):
        keys = sorted(ratios)
        for a, b in zip(keys, keys[1:]):
            growth = ratios[b] / ratios[a]
            records.append(
                ResultRecord(ex, name, growth, b, verdict=check(growth, hi=2.0))
            )

    # cellular-vortex solver checks
    gt = Grid(2, 64, 1.0)
    tg = taylor_green(gt)
    (traj,) = ctx.trajectory([(tg, 0.01)], [1.0])
    decay = math.exp(-2.0 * 0.01 * 1.0)
    ref = SpectralField(gt, decay * tg.coeffs)
    tg_err = _rel_l2(traj.state_at(1.0), ref)
    records.append(
        ResultRecord(ex, "vortex_analytic_error", tg_err, verdict=check(tg_err, hi=1e-6))
    )
    (traj0,) = ctx.trajectory([(tg, 0.0)], [1.0])
    steady = _rel_l2(traj0.state_at(1.0), tg)
    records.append(
        ResultRecord(ex, "vortex_steady_error", steady, verdict=check(steady, hi=1e-8))
    )

    w0 = taylor_green_two_mode(gt)
    (trajE,) = ctx.trajectory([(w0, 0.0)], [0.1])
    en = trajE.diagnostics["energy"]
    e0 = l2_norm_spectral(w0)
    drift = float(np.max(np.abs(en - e0)) / e0)
    records.append(
        ResultRecord(ex, "ideal_energy_drift", drift, verdict=check(drift, hi=1e-7))
    )
    divmax = max(trajE.div_rel)
    records.append(
        ResultRecord(ex, "divergence_preservation", divmax, verdict=check(divmax, hi=1e-9))
    )
    (trajV,) = ctx.trajectory([(w0, 0.05)], [0.1])
    env = np.concatenate([[l2_norm_spectral(w0)], trajV.diagnostics["energy"]])
    increase = float(np.max(np.diff(env)) / env[0])
    records.append(
        ResultRecord(
            ex, "viscous_energy_max_increase", increase, verdict=check(increase, hi=1e-12)
        )
    )

    T = 0.5
    # one request per call: at N = 64 side-by-side runs contend for the GIL
    runs = [ctx.trajectory([(w0, 0.0, T / M)], [T])[0] for M in (512, 8, 16, 32)]
    ref, *sols = (traj.state_at(T).coeffs for traj in runs)
    errs = [l2_norm_spectral(SpectralField(gt, sol - ref)) for sol in sols]
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    order = min(orders)
    records.append(
        ResultRecord(ex, "stepper_convergence_order", order, verdict=check(order, lo=3.5))
    )

    # profile bump diagnostics
    bump = build_profile_bump(ctx.datum_grid(cfg.n_list[0]))
    a0 = float(bump.a_hat[0])
    records.append(ResultRecord(ex, "bump_center_value", a0, verdict=check(a0, 1.0, 1.0)))
    phi = bump.physical_profile()
    sup = bump.lp_norm_1d(np.inf)
    attained = abs(sup - phi[0]) / sup
    records.append(
        ResultRecord(ex, "bump_max_at_origin_defect", attained, verdict=check(attained, hi=1e-12))
    )
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
                ex, f"bump_lp_norm[p={label}]", val,
                verdict=check(val, lo=c1 if c1 > 0 else math.inf),
            )
        )
    records.append(ResultRecord(ex, "bump_tail_fraction", bump.tail_fraction()))

    # borderline admissible triple, reported info-only
    borderline = BesovParams(bp.d / bp.p + 1.0, bp.p, 1.0, bp.d)
    bl = besov_norm(u0, borderline)
    records.append(ResultRecord(ex, "borderline_besov", bl, n0))
    lp_u0 = lp_norm(u0, borderline.p)
    records.append(
        ResultRecord(ex, "borderline_single_shell_ratio", bl / (2.0 ** (n0 * borderline.s) * lp_u0), n0)
    )

    # deterministic replay of the seeded background field
    psi_a = background_field(g, cfg.seed, 1, bp)
    psi_b = background_field(g, cfg.seed, 1, bp)
    identical = float(np.array_equal(psi_a.coeffs, psi_b.coeffs))
    records.append(
        ResultRecord(
            ex, "background_replay_identical", identical, verdict=check(identical, lo=1.0)
        )
    )
    return records
