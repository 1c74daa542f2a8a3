"""Command-line surface: batch experiments writing CSV/JSON reports.

Exit codes: 0 when every verdict passed (or was informational), 1 when fail
verdicts are present, 2 for configuration problems, 3 for numeric or solver
failures.
"""

from __future__ import annotations

import argparse
import json
import sys
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
from .littlewood_paley import besov_norm, build_partition
from .spectral import divergence_defect, l2_norm_spectral, set_fft_workers

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
        p.add_argument("--threads", type=int, default=1, help="FFT worker threads")
        p.add_argument(
            "--mode", choices=("strict", "relaxed"), default=None, help="override mode"
        )
    return parser


def _run_make_data(cfg, ctx, out_dir: Path):
    records = []
    fields_dir = out_dir / "fields"
    for n in cfg.n_list:
        grid = ctx.datum_grid(n)
        part = build_partition(grid)
        u0 = ctx.datum(n)
        write_field(fields_dir / f"shell_n{n}.spf", u0)
        for k in (-1, 0, 1):
            records.append(
                ResultRecord(
                    "make_data",
                    f"initial_besov[s{k:+d}]",
                    besov_norm(u0, cfg.bp.shifted(k), part),
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


def _run_evolve(cfg, ctx, out_dir: Path, raw_cfg: dict):
    opts = raw_cfg.get("evolve", {})
    n = int(opts.get("n", cfg.n_list[0]))
    eps = opts.get("eps")
    eps = cfg.eps_n(n) if eps is None else float(eps)
    shift = float(opts.get("shift", 0.0))
    grid = ctx.datum_grid(n)
    part = build_partition(grid)
    u0 = ctx.datum(n, shift=shift)
    run_id = f"n{n}_eps{eps:g}_k{shift:g}"
    traj_dir = out_dir / "traj" / run_id
    traj = ctx.trajectory(run_id, u0, eps, cfg.t_grid)
    records = []
    for i, (t, state) in enumerate(zip(traj.times, traj.states)):
        write_field(traj_dir / f"t{i:03d}.spf", state)
        records.append(
            ResultRecord("evolve", "energy", l2_norm_spectral(state), n, eps, t)
        )
        records.append(
            ResultRecord(
                "evolve", "besov_norm", besov_norm(state, cfg.bp, part), n, eps, t
            )
        )
    diag = traj.diagnostics
    with open(traj_dir / "steps.csv", "w") as fh:
        fh.write("t,dt,energy,div_rel,max_speed\n")
        for row in zip(*(diag[k] for k in ("t", "dt", "energy", "div_rel", "max_speed"))):
            fh.write(",".join(repr(float(x)) for x in row) + "\n")
    return records


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    out_dir = Path(args.out)
    try:
        cfg = parse_config(args.config)
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        if args.mode is not None:
            cfg = replace(cfg, mode=args.mode)
        if args.threads < 1:
            raise ConfigError("--threads must be at least 1")
        set_fft_workers(args.threads)
        echo_config(cfg, out_dir, {"threads": args.threads, "command": args.command})
    except (ConfigError, OSError) as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2

    ctx = ExperimentContext(cfg)
    try:
        if args.command == "make-data":
            records = _run_make_data(cfg, ctx, out_dir)
        elif args.command == "evolve":
            raw_cfg = json.loads(Path(args.config).read_text())
            records = _run_evolve(cfg, ctx, out_dir, raw_cfg)
        else:
            records = _EXPERIMENTS[args.command](cfg, ctx)
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

    constants = collect_constants(records, _CONSTANT_NAMES)
    write_report(
        records,
        out_dir,
        constants,
        meta={"seed": cfg.seed, "mode": cfg.mode, "threads": args.threads, **ctx.telemetry()},
    )
    counts = verdict_counts(records)
    print(
        f"{args.command}: {counts['pass']} pass, {counts['fail']} fail, "
        f"{counts['info']} info -> {out_dir}"
    )
    return 0 if counts["fail"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
