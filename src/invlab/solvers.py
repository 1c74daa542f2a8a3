"""Time integration of the Leray-projected system and first-order approximants.

The evolved system is ``d/dt u = eps*Lap(u) - P(u . grad u)`` in spectral
variables (``eps = 0`` gives the ideal case).  The linear heat part is applied
exactly through its multiplier; the nonlinear part advances with classical
RK4 on the integrating-factor transformed state, so stiffness from the
viscous term never enters the stability restriction.

The first-order expansion ``S^eps_t(u0) = u1(t) + u2(t) + O(t^2)`` is
computed here once: ``u1`` is the heat flow of the data, ``u2`` the Duhamel
integral of the projected advection by composite Simpson (a strict-mode
refinement check reuses the same integrand evaluations), and
``first_order_remainders`` builds the four remainder fields from ``u2`` and
the exact linear time integral ``t phi1(t eps |xi|^2)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .errors import (
    NumericsError,
    QuadratureError,
    SolverDivergenceError,
)
from .spectral import (
    Grid,
    VectorField,
    _inverse,
    advect,
    divergence_defect,
    heat_factor,
    heat_integral_factor,
    heat_propagate,
    l2_norm_spectral,
    leray_project,
    vector_field,
)


# CFL number of the adaptive step dt = min(T/64, CFL dx / max|u|)
CFL = 0.5


@dataclass(frozen=True)
class SolverConfig:
    """Time-integration parameters.

    Steps are capped at T/64 and by the CFL condition; ``dt_fixed`` forces a
    constant step (used by convergence studies) and bypasses both.

    The heat part is always applied through exact multipliers.  When the
    total exponent ``eps * T * max|xi|^2`` is moderate, the integrating
    factor is anchored at t = 0, which makes the linear part of every
    snapshot a single exponential of the initial data; first-order expansion
    residuals then cancel their linear parts to the last bit.  For stiffer
    exponents the factor is applied stepwise instead (same scheme, linear
    part exact per step).
    """

    eps: float
    T: float
    dt_fixed: float | None = None
    blowup_factor: float = 1e3
    anchor_exponent_limit: float = 60.0

    def __post_init__(self):
        if not (self.T > 0):
            raise ValueError(f"final time must be positive, got {self.T}")
        if not (0.0 <= self.eps <= 1.0):
            raise ValueError(f"viscosity must lie in [0, 1], got {self.eps}")

    @property
    def dt_cap(self) -> float:
        return self.T / 64.0


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution of one evolution, with per-step diagnostics."""

    times: tuple
    states: tuple
    eps: float
    u0: VectorField
    diagnostics: dict = field(compare=False)

    def __post_init__(self):
        for t, v in zip(self.times, self.states):
            d = divergence_defect(v)
            if d > 1e-9:
                raise NumericsError(
                    f"snapshot at t={t} violates the divergence-free invariant "
                    f"(relative defect {d:.3e})"
                )
        if not np.isfinite(self.diagnostics["energy"]).all():
            raise NumericsError("trajectory diagnostics contain non-finite values")

    @property
    def grid(self) -> Grid:
        return self.u0.grid

    def state_at(self, t: float) -> VectorField:
        for ti, v in zip(self.times, self.states):
            if abs(ti - t) <= 1e-12:
                return v
        raise ValueError(f"time {t} is not among the sampled times {self.times}")


def _max_speed(u_phys) -> float:
    acc = None
    for p in u_phys:
        acc = p**2 if acc is None else acc + p**2
    return float(np.sqrt(acc.max()))


def _nonlinear_rhs(grid: Grid, arrays, u_phys=None):
    """-P(u . grad u) as coefficient arrays; inputs assumed dealias-safe."""
    V = vector_field(grid, arrays)
    adv = advect(V, V, verify_support=False, u_phys=u_phys)
    proj = leray_project(adv)
    return [-c.coeffs for c in proj]


def evolve(
    u0: VectorField, cfg: SolverConfig, sample_times: Sequence[float]
) -> Trajectory:
    """Integrate the projected system, landing exactly on the sample times."""
    g = u0.grid
    defect = divergence_defect(u0)
    if defect > 1e-10:
        raise ValueError(
            f"initial data is not divergence-free (relative defect {defect:.3e})"
        )
    targets = sorted(set(float(t) for t in sample_times)) or [cfg.T]
    if targets[0] < 0 or targets[-1] > cfg.T + 1e-15:
        raise ValueError(f"sample times {targets} must lie in [0, {cfg.T}]")

    # Galerkin projection of the data; identity for admissible inputs
    state = [np.where(g.dealias_mask, c.coeffs, 0.0) for c in u0]

    anchored = (
        cfg.eps > 0.0
        and cfg.eps * cfg.T * float(g.k_sq.max()) <= cfg.anchor_exponent_limit
    )
    # anchored: the state variable is exp(+eps t Lap^)-encoded, so the heat
    # flow of the data never passes through per-step multipliers; stepwise:
    # the plain state is kept and per-step half/full factors are applied.
    grow_acc = np.ones(g.spectral_shape) if anchored else None
    decay_acc = np.ones(g.spectral_shape) if anchored else None

    snapshots = []
    snap_times = []
    diag = {k: [] for k in ("t", "dt", "energy", "div_rel", "max_speed")}
    speed0 = _max_speed([_inverse(c.coeffs, g) for c in u0])
    guard = cfg.blowup_factor * max(speed0, 1e-300)

    factor_cache = {}

    def factors(dt):
        if dt not in factor_cache:
            e_half = np.exp(-cfg.eps * g.k_sq * (dt / 2.0))
            g_half = np.exp(cfg.eps * g.k_sq * (dt / 2.0)) if anchored else None
            factor_cache[dt] = (e_half, e_half**2, g_half)
        return factor_cache[dt]

    def plain_state():
        return [decay_acc * a for a in state] if anchored else state

    t = 0.0
    for target in targets:
        while t < target - 1e-15 * cfg.T:
            # stage 1 of RK4 needs no dt: its physical velocity gives the
            # CFL speed and is handed on to advect
            plain = plain_state()
            u_phys = [_inverse(a, g) for a in plain]
            speed = _max_speed(u_phys)
            if not np.isfinite(speed):
                raise NumericsError(f"non-finite state at t={t}")
            if speed > guard:
                raise SolverDivergenceError(
                    f"max speed {speed:.3e} exceeded {cfg.blowup_factor} x initial "
                    f"at t={t}"
                )
            if cfg.dt_fixed is not None:
                dt = cfg.dt_fixed
            else:
                dt = cfg.dt_cap
                if speed > 0:
                    dt = min(dt, CFL * g.dx / speed)
            remaining = target - t
            final_step = dt >= remaining - 1e-15 * cfg.T
            if final_step:
                dt = remaining
            E, E2, G = factors(dt)

            if anchored:
                # classical RK4 on the encoded variable; the nonlinear term
                # is decoded/encoded with the accumulated stage factors
                d0 = decay_acc
                d1 = d0 * E
                d2 = d0 * E2
                g0 = grow_acc
                g1 = g0 * G
                g2 = g1 * G

                def rhs(arrays, dec, enc):
                    out = _nonlinear_rhs(g, [dec * a for a in arrays])
                    return [enc * k for k in out]

                k1 = [g0 * k for k in _nonlinear_rhs(g, plain, u_phys)]
                k2 = rhs([u + (dt / 2.0) * k for u, k in zip(state, k1)], d1, g1)
                k3 = rhs([u + (dt / 2.0) * k for u, k in zip(state, k2)], d1, g1)
                k4 = rhs([u + dt * k for u, k in zip(state, k3)], d2, g2)
                state = [
                    u + (dt / 6.0) * (a + 2.0 * (b + c) + d)
                    for u, a, b, c, d in zip(state, k1, k2, k3, k4)
                ]
                grow_acc = g2
                decay_acc = d2
            else:
                k1 = _nonlinear_rhs(g, plain, u_phys)
                s1 = [E * (u + (dt / 2.0) * k) for u, k in zip(state, k1)]
                k2 = _nonlinear_rhs(g, s1)
                s2 = [E * u + (dt / 2.0) * k for u, k in zip(state, k2)]
                k3 = _nonlinear_rhs(g, s2)
                s3 = [E2 * u + dt * E * k for u, k in zip(state, k3)]
                k4 = _nonlinear_rhs(g, s3)
                state = [
                    E2 * u + (dt / 6.0) * (E2 * a + 2.0 * E * (b + c) + d)
                    for u, a, b, c, d in zip(state, k1, k2, k3, k4)
                ]

            t = target if final_step else t + dt
            vf_new = vector_field(g, plain_state())
            energy = l2_norm_spectral(vf_new)
            if not np.isfinite(energy):
                raise NumericsError(f"non-finite state after step to t={t}")
            diag["t"].append(t)
            diag["dt"].append(dt)
            diag["energy"].append(energy)
            diag["div_rel"].append(divergence_defect(vf_new))
            diag["max_speed"].append(speed)
        snap_times.append(target)
        if anchored:
            # one exact heat factor from t = 0; matches heat_propagate to the bit
            decay_exact = heat_factor(g, target, cfg.eps)
            snapshots.append(vector_field(g, (decay_exact * a for a in state)))
        else:
            snapshots.append(vector_field(g, (a.copy() for a in state)))

    diagnostics = {k: np.asarray(v) for k, v in diag.items()}
    if diagnostics["energy"].size == 0:
        diagnostics["energy"] = np.asarray([l2_norm_spectral(u0)])
    return Trajectory(
        times=tuple(snap_times),
        states=tuple(snapshots),
        eps=cfg.eps,
        u0=u0,
        diagnostics=diagnostics,
    )


def _simpson_weights(t: float, nodes: int) -> np.ndarray:
    h = t / (nodes - 1)
    w = np.full(nodes, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return w * (h / 3.0)


def u2_duhamel(
    u0: VectorField,
    t: float,
    eps: float,
    nodes: int = 17,
    refine: bool = False,
    refine_tol: float = 1e-8,
) -> VectorField:
    """First-order nonlinear correction by composite-Simpson quadrature.

    Solves ``d/dt u2 = eps*Lap(u2) - P(u1 . grad u1)`` from zero data, i.e.
    ``u2(t) = -int_0^t exp((t-tau) eps Lap) P(u1 . grad u1)(tau) dtau``.
    With ``refine`` set the integrand is evaluated once on the doubled grid
    of ``2*(nodes-1)+1`` nodes: the fine sum is the result, the even-indexed
    nodes give the ``nodes``-point sum, and a relative change between the
    two above ``refine_tol`` raises a QuadratureError.
    """
    g = u0.grid
    if nodes < 9 or nodes % 2 == 0:
        raise ValueError(f"composite Simpson needs an odd node count >= 9, got {nodes}")
    if t == 0.0:
        return vector_field(
            g, (np.zeros(g.spectral_shape, dtype=np.complex128) for _ in range(g.d))
        )
    fine_nodes = 2 * (nodes - 1) + 1 if refine else nodes
    w = _simpson_weights(t, fine_nodes)
    w_coarse = _simpson_weights(t, nodes)
    acc = [np.zeros(g.spectral_shape, dtype=np.complex128) for _ in range(g.d)]
    coarse = (
        [np.zeros(g.spectral_shape, dtype=np.complex128) for _ in range(g.d)]
        if refine
        else None
    )
    for i, (wi, tau) in enumerate(zip(w, np.linspace(0.0, t, fine_nodes))):
        u1 = heat_propagate(u0, tau, eps)
        term = leray_project(advect(u1, u1, verify_support=False))
        back = heat_factor(g, t - tau, eps)
        for a, c in zip(acc, term):
            a += wi * back * c.coeffs
        if refine and i % 2 == 0:
            # tau_i on the fine grid equals tau_(i/2) on the coarse one
            for a, c in zip(coarse, term):
                a += w_coarse[i // 2] * back * c.coeffs
    if refine:
        diff = l2_norm_spectral(vector_field(g, (a - b for a, b in zip(coarse, acc))))
        scale = l2_norm_spectral(vector_field(g, acc))
        if scale > 0 and diff / scale > refine_tol:
            raise QuadratureError(
                f"Duhamel quadrature not converged: doubling {nodes} nodes moved "
                f"the result by {diff / scale:.3e} (tolerance {refine_tol})"
            )
    return vector_field(g, (-a for a in acc))


def _check_same_data(u0: VectorField, traj: Trajectory) -> None:
    scale = max(np.max(np.abs(c.coeffs)) for c in traj.u0)
    for a, b in zip(u0, traj.u0):
        if np.max(np.abs(a.coeffs - b.coeffs)) > 1e-13 * max(scale, 1e-300):
            raise ValueError("trajectory was computed from different initial data")


class FirstOrderRemainders(NamedTuple):
    """The four remainder fields of the first-order expansion at one time."""

    euler: VectorField
    navier_stokes: VectorField
    drift: VectorField
    heat_defect: VectorField


def first_order_remainders(
    u0: VectorField,
    traj0: Trajectory,
    traj_eps: Trajectory,
    times: Sequence[float],
    nodes: int = 17,
    refine: bool = False,
) -> Iterator[FirstOrderRemainders]:
    """Yield the FirstOrderRemainders at each of ``times``, one at a time.

    With ``pa0 = P(u0 . grad u0)``, ``F(tau) = P(u1 . grad u1)(tau)`` and
    ``eps`` the viscosity of ``traj_eps``:

    - euler: ``S0_t(u0) - u0 + t pa0`` (``traj0`` must be ideal);
    - navier_stokes: ``S^eps_t(u0) - u1(t) - u2(t)``, with ``u2`` from
      ``u2_duhamel(u0, t, eps, nodes, refine)``;
    - drift: ``int_0^t exp((t-tau) eps Lap) (F(tau) - pa0) dtau``.  Since
      ``u2 = -int_0^t exp((t-tau) eps Lap) F(tau) dtau``, this equals
      ``-u2 - int_0^t exp((t-tau) eps Lap) dtau . pa0``, and the linear
      integral is the exact multiplier ``t phi1(t eps |xi|^2)``
      (``heat_integral_factor``), so no further quadrature is needed;
    - heat_defect: ``int_0^t (exp((t-tau) eps Lap) - Id) pa0 dtau``
      ``= (t phi1 - t) pa0``.

    The guards (ideal ``traj0``, both trajectories from ``u0``) run on the
    call; the fields are computed as the iterator advances.
    """
    if traj0.eps != 0.0:
        raise ValueError(f"need an ideal (eps=0) trajectory, got eps={traj0.eps}")
    _check_same_data(u0, traj0)
    _check_same_data(u0, traj_eps)
    pa0 = leray_project(advect(u0, u0, verify_support=False))
    return (_remainders_at(u0, pa0, traj0, traj_eps, t, nodes, refine) for t in times)


def _remainders_at(u0, pa0, traj0, traj_eps, t, nodes, refine):
    g = u0.grid
    eps = traj_eps.eps
    u1 = heat_propagate(u0, t, eps)  # the first-order linear approximant
    u2 = u2_duhamel(u0, t, eps, nodes, refine=refine)
    lin = heat_integral_factor(g, t, eps)
    s0, s_eps, comps = traj0.state_at(t), traj_eps.state_at(t), range(g.d)
    return FirstOrderRemainders(
        euler=vector_field(g, [s0[i].coeffs - u0[i].coeffs + t * pa0[i].coeffs for i in comps]),
        navier_stokes=vector_field(
            g, [s_eps[i].coeffs - u1[i].coeffs - u2[i].coeffs for i in comps]
        ),
        drift=vector_field(g, [-u2[i].coeffs - lin * pa0[i].coeffs for i in comps]),
        heat_defect=vector_field(g, [(lin - t) * pa0[i].coeffs for i in comps]),
    )
