"""Command-line surface: batch experiments writing CSV/JSON reports.

Each command writes ``config.echo.json``, ``records.csv`` and ``summary.json``
(verdict counts, constants, wall time, the process's peak resident set in
MiB, and one entry per evolution: N, eps, steps, dt range, energy drift and
the largest divergence defect of its sampled states) under ``--out``.
``make-data`` adds ``fields/shell_n{n}.spf``; ``evolve`` adds, under
``traj/<run>/``, the state at each sample time as ``t{i:03d}.spf`` and
``steps.csv``, one row per RK4 step with the columns ``t,dt,energy,max_speed``.

Exit codes: 0 when every verdict passed (or was informational), 1 when fail
verdicts are present, 2 for configuration problems, 3 for numeric or solver
failures.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from dataclasses import replace
from pathlib import Path

from .errors import (
    ConfigError,
    FormatError,
    NumericsError,
    QuadratureError,
    ResolutionError,
    SolverDivergenceError,
)
from .experiments import (
    ExperimentContext,
    ResultRecord,
    run_expansion_residuals,
    run_family_gap,
    run_fixed_datum_limit,
    run_heat_law,
    run_nonlinear_drift,
    run_perturbed_gap,
    run_validation_suite,
)
from .io import (
    collect_constants,
    echo_config,
    parse_config,
    verdict_counts,
    write_field,
    write_report,
)
from .littlewood_paley import besov_norm
from .spectral import divergence_defect, l2_norm_spectral

_EXPERIMENTS = {
    "heat-law": run_heat_law,
    "nonlinear-drift": run_nonlinear_drift,
    "expansion-residuals": run_expansion_residuals,
    "family-gap": run_family_gap,
    "fixed-limit": run_fixed_datum_limit,
    "perturbed-gap": run_perturbed_gap,
    "validate": run_validation_suite,
}

_CONSTANT_NAMES = (
    "c0_proxy",
    "gap_rate_n_spread",
    "gap_total_reduction",
    "truncation_constant",
    "stepper_convergence_order",
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="invlab",
        description="Pseudo-spectral experiments on the viscous-vs-ideal gap "
        "for band-limited shell data on a periodic torus.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = ["make-data", "evolve", *sorted(_EXPERIMENTS)]
    for name in commands:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override seed")
    return parser


def _run_make_data(ctx, out_dir: Path):
    cfg = ctx.cfg
    records = []
    fields_dir = out_dir / "fields"
    for n in cfg.n_list:
        u0 = ctx.datum(n)
        write_field(fields_dir / f"shell_n{n}.spf", u0)
        for k in (-1, 0, 1):
            records.append(
                ResultRecord(
                    "make_data",
                    f"initial_besov[s{k:+d}]",
                    besov_norm(u0, cfg.bp.shifted(k)),
                    n,
                    cfg.eps_n(n),
                )
            )
        records.append(
            ResultRecord(
                "make_data", "divergence_defect", divergence_defect(u0), n
            )
        )
    return records


def _run_evolve(ctx, out_dir: Path, raw_cfg: dict):
    cfg = ctx.cfg
    opts = raw_cfg.get("evolve", {})
    n = int(opts.get("n", cfg.n_list[0]))
    eps = opts.get("eps")
    eps = cfg.eps_n(n) if eps is None else float(eps)
    shift = float(opts.get("shift", 0.0))
    u0 = ctx.datum(n, shift=shift)
    run_id = f"n{n}_eps{eps:g}_k{shift:g}"
    traj_dir = out_dir / "traj" / run_id
    (traj,) = ctx.trajectory([(u0, eps)], cfg.t_grid)
    records = []
    for i, t in enumerate(traj.times):
        state = traj.state_at(t)
        write_field(traj_dir / f"t{i:03d}.spf", state)
        records.append(
            ResultRecord("evolve", "energy", l2_norm_spectral(state), n, eps, t)
        )
        records.append(
            ResultRecord("evolve", "besov_norm", besov_norm(state, cfg.bp), n, eps, t)
        )
    diag = traj.diagnostics
    with open(traj_dir / "steps.csv", "w") as fh:
        fh.write("t,dt,energy,max_speed\n")
        for row in zip(*(diag[k] for k in ("t", "dt", "energy", "max_speed"))):
            fh.write(",".join(repr(float(x)) for x in row) + "\n")
    return records


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    out_dir = Path(args.out)
    try:
        cfg = parse_config(args.config)
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        echo_config(cfg, out_dir, {"command": args.command})
    except (ConfigError, OSError) as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2

    ctx = ExperimentContext(cfg)
    start = time.perf_counter()
    try:
        if args.command == "make-data":
            records = _run_make_data(ctx, out_dir)
        elif args.command == "evolve":
            raw_cfg = json.loads(Path(args.config).read_text())
            records = _run_evolve(ctx, out_dir, raw_cfg)
        else:
            records = _EXPERIMENTS[args.command](ctx)
        wall_s = time.perf_counter() - start  # the experiment alone, without the report
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
        constants = collect_constants(records, _CONSTANT_NAMES)
        meta = {"seed": cfg.seed, "mode": cfg.mode, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb}
        write_report(records, out_dir, constants, meta={**meta, "trajectories": ctx.evolutions})
    except ConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2
    except (
        NumericsError,
        SolverDivergenceError,
        QuadratureError,
        ResolutionError,
        FormatError,
        FloatingPointError,
    ) as err:
        print(f"numeric error: {err}", file=sys.stderr)
        return 3

    counts = verdict_counts(records)
    print(
        f"{args.command}: {counts['pass']} pass, {counts['fail']} fail, "
        f"{counts['info']} info -> {out_dir}"
    )
    return 0 if counts["fail"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
