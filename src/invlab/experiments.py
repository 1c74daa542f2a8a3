"""Experiment harness: measured quantities, tolerance verdicts, records.

Each ``run_*`` function measures one family of quantities on the configured
datum family and returns a list of ResultRecords.  Every pass/fail verdict is
``check(value, lo, hi)`` on the value its record carries, so each verdict can
be rechecked from records.csv alone; a bound on a quotient is stated on that
quotient.  Mode-dependent bounds come from ``scaled``: ``relaxed`` uses the
stated acceptance windows, ``strict`` moves every bound a third of the way
toward its center.  Experiments sharing evolutions (the expansion residuals
and the viscous/ideal gap) reuse trajectories through a shared
ExperimentContext, which returns a cached trajectory only for an identical
request.  The expansion residuals
take their four remainder fields from ``solvers.first_order_remainders``:
one Duhamel quadrature per sample time (refined in a single pass in strict
mode), with the linear time integrals in closed form.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .constructions import (
    CARRIER_RATIO,
    ShellDatum,
    background_field,
    background_mode_extent,
    build_profile_bump,
    shell_velocity,
    taylor_green,
    taylor_green_two_mode,
)
from .errors import ConfigError, NumericsError, ResolutionError
from .littlewood_paley import (
    BesovParams,
    besov_from_blocks,
    besov_norm,
    block_lp_norms,
    build_partition,
    dyadic_block,
    field_support_radius,
    low_pass,
)
from .solvers import SolverConfig, Trajectory, evolve, first_order_remainders
from .spectral import (
    Grid,
    RealField,
    SpectralField,
    VectorField,
    _apply_factor,
    advect,
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
    to_physical,
    to_spectral,
    translate,
    vector_field,
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
        if any(n < 3 for n in self.n_list):
            raise ConfigError("shell indices must be >= 3")
        if not all(0 < t <= self.T0 for t in self.t_grid):
            raise ConfigError("t_grid values must lie in (0, T0]")
        if not (0 < self.t0 <= self.T0):
            raise ConfigError("t0 must lie in (0, T0]")
        if self.quadrature_nodes < 9 or self.quadrature_nodes % 2 == 0:
            raise ConfigError("quadrature_nodes must be odd and >= 9")

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


def _vf_lincomb(grid: Grid, terms) -> VectorField:
    """Sum of coefficient * VectorField pairs."""
    acc = [np.zeros(grid.spectral_shape, dtype=np.complex128) for _ in range(grid.d)]
    for coef, vf in terms:
        for a, c in zip(acc, vf):
            a += coef * c.coeffs
    return vector_field(grid, acc)


class ExperimentContext:
    """Shared grids, data and trajectories for one configuration."""

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self._grids: dict = {}
        self._bumps: dict = {}
        self._data: dict = {}
        self._trajectories: dict = {}
        self.cache_hits = 0
        self.evolutions: list = []  # {"N", "eps", "steps"} per evolve call

    # -- grids -------------------------------------------------------------

    def grid(self, N: int) -> Grid:
        if N not in self._grids:
            self._grids[N] = Grid(2, N, self.cfg.R)
        return self._grids[N]

    def bump(self, grid: Grid):
        if grid.N not in self._bumps:
            self._bumps[grid.N] = build_profile_bump(grid)
        return self._bumps[grid.N]

    def _fit_grid(self, max_mode: int, what: str) -> int:
        N = dealias_grid_size(max_mode)
        if N > self.cfg.N:
            raise ResolutionError(
                f"{what} needs N>={N}, above the configured budget {self.cfg.N}",
                required_n=N,
            )
        return N

    def _datum_mode_extent(self, n: int) -> int:
        # the bump's lattice extent is grid-independent (fixed frequency width)
        bump_m = self.bump(self.grid(16)).max_mode
        carrier_m = int(round(CARRIER_RATIO * 2**n * self.cfg.R))
        return carrier_m + bump_m

    def datum_grid(self, n: int) -> Grid:
        """Smallest power-of-two grid with the datum inside the 2/3 ball."""
        return self.grid(self._fit_grid(self._datum_mode_extent(n), f"datum n={n}"))

    def product_grid(self, n: int) -> Grid:
        """Smallest grid resolving the exact quadratic product of the datum."""
        return self.grid(
            self._fit_grid(2 * self._datum_mode_extent(n), f"datum product n={n}")
        )

    def background_grid(self, n_max: int) -> Grid:
        extent = max(
            self._datum_mode_extent(n_max),
            background_mode_extent(self.cfg.psi_band, self.cfg.R),
        )
        return self.grid(self._fit_grid(extent, "background experiment"))

    # -- data --------------------------------------------------------------

    def datum(self, n: int, grid: Grid | None = None, shift: float = 0.0):
        """The shell velocity of index n on the grid (default ``datum_grid``)."""
        grid = grid or self.datum_grid(n)
        key = (n, shift, grid.N)
        if key not in self._data:
            d = ShellDatum(n, self.cfg.bp, shift)
            self._data[key] = shell_velocity(d, grid, self.bump(grid))
        return self._data[key]

    # -- trajectories --------------------------------------------------------

    def trajectory(
        self, label: str, u0: VectorField, eps: float, times: Iterable[float]
    ) -> Trajectory:
        """Evolve (or reuse) the datum, sampling the given times.

        The cache is keyed by the datum's grid, a digest of its coefficients,
        eps and the sample times, so it returns a trajectory only for an
        identical request: the step cap T/64 depends on the horizon, so a
        longer run sampled at the same time differs in the last bits.
        ``label`` only groups entries for ``drop_trajectories``.
        """
        times = tuple(sorted(set(float(t) for t in times)))
        key = (u0.grid, _coeff_digest(u0), eps, times)
        labels, cached = self._trajectories.get(key, (set(), None))
        labels.add(label)
        if cached is not None:
            self.cache_hits += 1
            return cached
        cfg = SolverConfig(eps=eps, T=times[-1])
        traj = evolve(u0, cfg, times)
        self.evolutions.append(
            {"N": u0.grid.N, "eps": eps, "steps": len(traj.diagnostics["dt"])}
        )
        self._trajectories[key] = (labels, traj)
        return traj

    def telemetry(self) -> dict:
        """Trajectory-cache hits and misses and one entry per evolution."""
        return {
            "trajectory_cache": {"hits": self.cache_hits, "misses": len(self.evolutions)},
            "trajectories": list(self.evolutions),
        }

    def drop_trajectories(self, prefix: str) -> None:
        """Forget every trajectory requested under a label with this prefix."""
        for key in [
            k
            for k, (labels, _) in self._trajectories.items()
            if any(lab.startswith(prefix) for lab in labels)
        ]:
            del self._trajectories[key]


def _coeff_digest(vf: VectorField) -> str:
    """Fingerprint of a field's coefficient dtypes and values."""
    h = hashlib.blake2b(digest_size=16)
    for c in vf:
        h.update(c.coeffs.dtype.str.encode())
        # + 0.0 turns -0.0 into 0.0, so fields with equal values share a key
        h.update((c.coeffs + 0.0).tobytes())
    return h.hexdigest()


def _gap_field(a: VectorField, b: VectorField) -> VectorField:
    return _vf_lincomb(a.grid, [(1.0, a), (-1.0, b)])


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
        part = build_partition(g)
        u0 = ctx.datum(n)
        eps_n = cfg.eps_n(n)
        u0_blocks = block_lp_norms(u0, bp.p, part)
        for k in (-1, 0, 1):
            bnorm = besov_from_blocks(u0_blocks, bp.shifted(k))
            if n == cfg.n_list[0]:
                base_norm[k] = bnorm / 2.0 ** (k * n)
        for t in cfg.t_grid:
            fac = heat_factor(g, t, eps_n) - 1.0
            blocks = block_lp_norms(_apply_factor(u0, fac), bp.p, part)
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

    # stability of Q across the family at fixed (k, t)
    cap = scaled(1.10, cfg.mode)
    for k in (-1, 0, 1):
        for t in cfg.t_grid:
            vals = [q_values[(n, k, t)] for n in cfg.n_list]
            spread = max(vals) / min(vals)
            records.append(
                ResultRecord(
                    ex, f"heat_defect_n_spread[s{k:+d}]", spread, None, None, t,
                    check(spread, hi=cap),
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
        part = build_partition(g)
        u0 = ctx.datum(n, grid=g)
        eps_n = cfg.eps_n(n)
        pa = advect(u0, u0)

        reach = field_support_radius(pa)
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
            ut = _apply_factor(u0, hf)
            drift = _gap_field(advect(ut, ut), pa)
            blocks = block_lp_norms(drift, bp.p, part)
            for k in (-1, 0, 1):
                v = besov_from_blocks(blocks, bp.shifted(k))
                a1[k].append(v)
                records.append(
                    ResultRecord(ex, f"advection_drift[s{k:+d}]", v, n, eps_n, t)
                )
            v2 = besov_norm(_apply_factor(pa, hf - 1.0), bp, part)
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


def run_expansion_residuals(
    cfg: ExperimentConfig,
    ctx: ExperimentContext | None = None,
    n_sel: tuple | None = None,
):
    ctx = ctx or ExperimentContext(cfg)
    ex = "expansion_residuals"
    bp = cfg.bp
    nodes = cfg.quadrature_nodes
    records = []

    for n in n_sel or cfg.n_list:
        g = ctx.datum_grid(n)
        part = build_partition(g)
        u0 = ctx.datum(n)
        eps_n = cfg.eps_n(n)
        traj0 = ctx.trajectory(f"u0n{n}", u0, 0.0, cfg.t_grid)
        traj_eps = ctx.trajectory(f"u0n{n}", u0, eps_n, cfg.t_grid)

        series: dict = {field: [] for field in _REMAINDER_LABELS}
        for rem in first_order_remainders(
            u0, traj0, traj_eps, cfg.t_grid, nodes, refine=(cfg.mode == "strict")
        ):
            for field in _REMAINDER_LABELS:
                series[field].append(besov_norm(getattr(rem, field), bp, part))

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
    ctx = ctx or ExperimentContext(cfg)
    ex = "family_gap"
    bp = cfg.bp
    records = []
    gap_at_t0: dict = {}
    init_norms: dict = {}
    sup_besov: dict = {}

    for n in cfg.n_list:
        g = ctx.datum_grid(n)
        part = build_partition(g)
        u0 = ctx.datum(n)
        eps_n = cfg.eps_n(n)
        b0 = besov_norm(u0, bp, part)
        init_norms[n] = b0
        records.append(ResultRecord(ex, "initial_besov", b0, n, eps_n))
        within = b0 / cfg.radius_bound
        records.append(
            ResultRecord(
                ex, "radius_bound_check", within, n, eps_n, None, check(within, hi=1.0)
            )
        )

        traj0 = ctx.trajectory(f"u0n{n}", u0, 0.0, cfg.t_grid)
        traj_eps = ctx.trajectory(f"u0n{n}", u0, eps_n, cfg.t_grid)
        gaps = []
        for t in cfg.t_grid:
            d = besov_norm(
                _gap_field(traj_eps.state_at(t), traj0.state_at(t)), bp, part
            )
            gaps.append(d)
            records.append(ResultRecord(ex, "solution_gap", d, n, eps_n, t))
        gap_at_t0[n] = gaps[cfg.t_grid.index(cfg.t0)]

        sup = 0.0
        for traj in (traj0, traj_eps):
            for state in traj.states:
                sup = max(sup, besov_norm(state, bp, part))
        sup_besov[n] = sup
        records.append(ResultRecord(ex, "trajectory_besov_sup", sup, n, eps_n))

        # the linear heat defect is the gap's leading term
        main = besov_norm(
            _apply_factor(u0, heat_factor(g, cfg.t0, eps_n) - 1.0), bp, part
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
        if n >= 5:
            ctx.drop_trajectories(f"u0n{n}")

    rates = [gap_at_t0[n] / cfg.t0 for n in cfg.n_list]
    spread = max(rates) / min(rates)
    records.append(
        ResultRecord(
            ex, "gap_rate_n_spread", spread, None, None, cfg.t0,
            check(spread, hi=scaled(2.0, cfg.mode)),
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
    g = ctx.datum_grid(n)
    part = build_partition(g)
    u0 = ctx.datum(n)
    traj0 = ctx.trajectory(f"u0n{n}", u0, 0.0, [cfg.t0])
    s0 = traj0.state_at(cfg.t0)
    records.append(ResultRecord(ex, "solution_gap_vs_eps", 0.0, n, 0.0, cfg.t0))

    sweep = [2.0 ** (-2 * m) for m in cfg.eps_exponents]
    gaps = []
    for eps in sweep:
        traj = ctx.trajectory(f"u0n{n}", u0, eps, [cfg.t0])
        d = besov_norm(_gap_field(traj.state_at(cfg.t0), s0), bp, part)
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


def run_perturbed_gap(
    cfg: ExperimentConfig,
    ctx: ExperimentContext | None = None,
    background: VectorField | None = None,
    gap_reference: dict | None = None,
):
    """Perturbed viscous-vs-ideal gap with truncation and additivity terms.

    ``background`` overrides the seeded random field (used by degenerate-case
    tests); ``gap_reference`` maps n to the unperturbed gap at t0 (computed
    here when absent).  A shell whose low-pass S_n keeps the whole
    background (``high_pass_background`` = 0), or whose truncation bound
    would scale a zero constant, gets a ``truncation_not_evaluated`` record
    (value: the vanishing factor) in place of the truncation constant or
    bound.
    """
    ctx = ctx or ExperimentContext(cfg)
    ex = "perturbed_gap"
    bp = cfg.bp
    records = []
    ns = [n for n in cfg.n_list if n <= 4]
    if not ns:
        raise ConfigError("the background experiment needs shell indices <= 4")
    g = ctx.background_grid(max(ns))
    part = build_partition(g)
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
        s_n_psi = low_pass(n, psi, part)
        w_full = _vf_lincomb(g, [(1.0, psi), (1.0, u0k)])
        w_trunc = _vf_lincomb(g, [(1.0, s_n_psi), (1.0, u0k)])

        tag = f"bg_n{n}"
        t_full_eps = ctx.trajectory(f"{tag}_full", w_full, eps_n, times)
        t_full_0 = ctx.trajectory(f"{tag}_full", w_full, 0.0, times)
        t_trunc = ctx.trajectory(f"{tag}_trunc", w_trunc, eps_n, times)
        t_psi = ctx.trajectory(f"{tag}_snpsi", s_n_psi, eps_n, times)
        t_u0 = ctx.trajectory(f"{tag}_shell", u0k, eps_n, times)

        pert = besov_norm(
            _gap_field(t_full_eps.state_at(t0), t_full_0.state_at(t0)), bp, part
        )
        records.append(ResultRecord(ex, "perturbed_gap", pert, n, eps_n, t0))

        if gap_reference and n in gap_reference:
            ref = gap_reference[n]
        else:
            base0 = ctx.trajectory(f"{tag}_shell", u0k, 0.0, times)
            ref = besov_norm(
                _gap_field(t_u0.state_at(t0), base0.state_at(t0)), bp, part
            )
        records.append(ResultRecord(ex, "unperturbed_gap_reference", ref, n, eps_n, t0))
        kept = pert / ref
        records.append(
            ResultRecord(
                ex, "perturbed_gap_floor", kept, n, eps_n, t0,
                check(kept, lo=scaled(0.25, cfg.mode)),
            )
        )

        # additivity defect and its growth-rate proxy
        defect = besov_norm(
            _vf_lincomb(
                g,
                [
                    (1.0, t_trunc.state_at(t0)),
                    (-1.0, t_psi.state_at(t0)),
                    (-1.0, t_u0.state_at(t0)),
                ],
            ),
            bp,
            part,
        )
        records.append(ResultRecord(ex, "additivity_defect", defect, n, eps_n, t0))
        shell_norms = [besov_norm(t_u0.state_at(t), bp, part) for t in times]
        integral = t0 / 4.0 * (
            besov_norm(u0k, bp, part) + 2.0 * shell_norms[0] + shell_norms[1]
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
            _gap_field(t_full_eps.state_at(t0), t_trunc.state_at(t0)), bp, part
        )
        hp = besov_norm(_gap_field(psi, s_n_psi), bp, part)
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
    u0_0 = ctx.datum(n, grid=g, shift=0.0)
    s_n_psi = low_pass(n, psi, part)
    w0 = _vf_lincomb(g, [(1.0, s_n_psi), (1.0, u0_0)])
    t_trunc0 = ctx.trajectory(f"bg_n{n}_trunc_k0", w0, eps_n, [t0])
    t_psi = ctx.trajectory(f"bg_n{n}_snpsi", s_n_psi, eps_n, times)
    t_u00 = ctx.trajectory(f"bg_n{n}_shell_k0", u0_0, eps_n, [t0])
    defect0 = besov_norm(
        _vf_lincomb(
            g,
            [
                (1.0, t_trunc0.state_at(t0)),
                (-1.0, t_psi.state_at(t0)),
                (-1.0, t_u00.state_at(t0)),
            ],
        ),
        bp,
        part,
    )
    shifted = next(
        r.value for r in records if r.quantity == "additivity_defect" and r.n == n
    )
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


def _rel_l2(a: VectorField, b: VectorField) -> float:
    num = l2_norm_spectral(_gap_field(a, b))
    den = max(l2_norm_spectral(a), l2_norm_spectral(b), 1e-300)
    return num / den


def _random_stream(grid: Grid, rng, band_modes: int) -> SpectralField:
    raw = rng.standard_normal(grid.shape)
    F = to_spectral(RealField(grid, raw))
    keep = (grid.k_mag * grid.R <= band_modes) & (grid.k_sq > 0)
    return SpectralField(grid, np.where(keep, F.coeffs, 0.0))


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
        bj = dyadic_block(j, f, part)
        for j2 in range(j + 2, part.j_max + 1):
            worst = max(worst, l2_norm_spectral(dyadic_block(j2, bj, part)) / nf)
    records.append(
        ResultRecord(
            ex, "block_orthogonality_defect", worst, verdict=check(worst, hi=1e-12)
        )
    )

    # frequency-localized derivative bracket on the first datum shell
    n0 = cfg.n_list[0]
    gd = ctx.datum_grid(n0)
    u0 = ctx.datum(n0)
    lam = 2.0**n0
    grads = []
    for c in u0:
        grads.extend(to_physical(ci) for ci in gradient(c))
    gnorm = lp_norm(grads, 2.0)
    unorm = lp_norm([to_physical(c) for c in u0], 2.0)
    ratio = gnorm / unorm
    lo, hi = (0.75 * lam) * (1 - 1e-12), (8.0 / 3.0 * lam) * (1 + 1e-12)
    records.append(
        ResultRecord(ex, "derivative_bracket_ratio", ratio, n0, verdict=check(ratio, lo, hi))
    )

    # projector identities on a random field
    comps = tuple(
        to_spectral(RealField(g, rng.standard_normal(g.shape))) for _ in range(g.d)
    )
    V = VectorField(comps)
    P = leray_project(V)
    Q = leray_complement(V)
    grad = gradient(to_spectral(RealField(g, rng.standard_normal(g.shape))))
    checks = {
        "projector_idempotency": _rel_l2(leray_project(P), P),
        "complement_idempotency": _rel_l2(leray_complement(Q), Q),
        "projector_sum_identity": _rel_l2(_vf_lincomb(g, [(1.0, P), (1.0, Q)]), V),
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
    quv = leray_complement(advect(u, v))
    qvu = leray_complement(advect(v, u))
    scale = max(l2_norm_spectral(advect(u, v)), l2_norm_spectral(advect(v, u)))
    qsym = l2_norm_spectral(_gap_field(quv, qvu)) / scale
    records.append(
        ResultRecord(ex, "gradient_part_symmetry", qsym, verdict=check(qsym, hi=1e-11))
    )

    # Parseval and transform isometries
    fr = RealField(g, rng.standard_normal(g.shape))
    F = to_spectral(fr)
    phys = (g.dx**g.d) * np.sum(fr.samples**2)
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
    W = VectorField((F, to_spectral(RealField(g, rng.standard_normal(g.shape)))))
    one = heat_propagate(W, 0.7, 0.3)
    two = heat_propagate(heat_propagate(W, 0.3, 0.3), 0.4, 0.3)
    semi = _rel_l2(one, two)
    records.append(ResultRecord(ex, "heat_semigroup_defect", semi, verdict=check(semi, hi=1e-13)))

    # single-block property and cumulative low-pass on the datum family
    for n in cfg.n_list:
        gd_n = ctx.datum_grid(n)
        part_n = build_partition(gd_n)
        u0n = ctx.datum(n)
        scale = l2_norm_spectral(u0n)
        own = _rel_l2(dyadic_block(n, u0n, part_n), u0n)
        others = max(
            l2_norm_spectral(dyadic_block(j, u0n, part_n)) / scale
            for j in range(-1, part_n.j_max + 1)
            if j != n
        )
        lp_val = l2_norm_spectral(low_pass(n, u0n, part_n)) / scale
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

    # norm-equivalence sanity (logged, asserted finite and positive)
    zf = _random_stream(g, rng, g.dealias_keep)
    bz = besov_norm(zf, bp, part)
    low = lp_norm(to_physical(zf), bp.p)
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
        part_p = build_partition(gp)
        u0p = ctx.datum(n, grid=gp)
        pa = advect(u0p, u0p)
        bu_s = besov_norm(u0p, bp, part_p)
        bu_sm1 = besov_norm(u0p, bp.shifted(-1), part_p)
        ratios_prod[n] = besov_norm(pa, bp.shifted(-1), part_p) / (bu_sm1 * bu_s)
        ratios_q[n] = besov_norm(leray_complement(pa), bp, part_p) / (bu_s * bu_s)
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
    traj = ctx.trajectory("vortex", tg, 0.01, [1.0])
    decay = math.exp(-2.0 * 0.01 * 1.0)
    ref = vector_field(gt, (decay * c.coeffs for c in tg))
    tg_err = _rel_l2(traj.state_at(1.0), ref)
    records.append(
        ResultRecord(ex, "vortex_analytic_error", tg_err, verdict=check(tg_err, hi=1e-6))
    )
    traj0 = ctx.trajectory("vortex", tg, 0.0, [1.0])
    steady = _rel_l2(traj0.state_at(1.0), tg)
    records.append(
        ResultRecord(ex, "vortex_steady_error", steady, verdict=check(steady, hi=1e-8))
    )

    w0 = taylor_green_two_mode(gt)
    trajE = ctx.trajectory("vortex_two_mode", w0, 0.0, [0.1])
    en = trajE.diagnostics["energy"]
    e0 = l2_norm_spectral(w0)
    drift = float(np.max(np.abs(en - e0)) / e0)
    records.append(
        ResultRecord(ex, "ideal_energy_drift", drift, verdict=check(drift, hi=1e-7))
    )
    divmax = float(trajE.diagnostics["div_rel"].max())
    records.append(
        ResultRecord(ex, "divergence_preservation", divmax, verdict=check(divmax, hi=1e-9))
    )
    trajV = ctx.trajectory("vortex_two_mode", w0, 0.05, [0.1])
    env = np.concatenate([[l2_norm_spectral(w0)], trajV.diagnostics["energy"]])
    increase = float(np.max(np.diff(env)) / env[0])
    records.append(
        ResultRecord(
            ex, "viscous_energy_max_increase", increase, verdict=check(increase, hi=1e-12)
        )
    )

    T = 0.5
    ref_state = evolve(w0, SolverConfig(eps=0.0, T=T, dt_fixed=T / 512), [T]).state_at(T)
    errs = []
    for M in (8, 16, 32):
        sol = evolve(w0, SolverConfig(eps=0.0, T=T, dt_fixed=T / M), [T]).state_at(T)
        errs.append(l2_norm_spectral(_gap_field(sol, ref_state)))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    order = min(orders)
    records.append(
        ResultRecord(ex, "stepper_convergence_order", order, verdict=check(order, lo=3.5))
    )

    # profile bump diagnostics
    bump = ctx.bump(ctx.datum_grid(cfg.n_list[0]))
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
    bl = besov_norm(u0, borderline, build_partition(gd))
    records.append(ResultRecord(ex, "borderline_besov", bl, n0))
    lp_u0 = lp_norm([to_physical(c) for c in u0], borderline.p)
    records.append(
        ResultRecord(ex, "borderline_single_shell_ratio", bl / (2.0 ** (n0 * borderline.s) * lp_u0), n0)
    )

    # deterministic replay of the seeded background field
    psi_a = background_field(g, cfg.seed, 1, bp)
    psi_b = background_field(g, cfg.seed, 1, bp)
    identical = float(
        all(np.array_equal(a.coeffs, b.coeffs) for a, b in zip(psi_a, psi_b))
    )
    records.append(
        ResultRecord(
            ex, "background_replay_identical", identical, verdict=check(identical, lo=1.0)
        )
    )
    return records
