"""Spans around the public functions of each invlab layer.

A span is ``[name, parent, start, end, info]``: ``parent`` is the index of
the enclosing span in ``Tracer.spans`` (-1 at top level) and ``info`` is an
optional dict a target adds from the call's arguments and result (bytes
moved, steps taken, cache hit).  Spans stay in memory; the caller writes
them out when the run ends.  ``layer_metrics`` turns them into the
per-layer metrics of BENCHMARK.json.
"""

from __future__ import annotations

import functools
import importlib
import time
import types

MODULES = (
    "invlab",
    "invlab.cli",
    "invlab.constructions",
    "invlab.experiments",
    "invlab.io",
    "invlab.littlewood_paley",
    "invlab.solvers",
    "invlab.spectral",
)

FFT_FORWARD = ("fftn", "rfftn")
FFT_INVERSE = ("ifftn", "irfftn")

SPECTRAL_OPS = (
    "advect",
    "leray_project",
    "heat_propagate",
    "l2_norm_spectral",
    "divergence_defect",
)


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []

    def wrap(self, name, fn, annotate=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, clock(), 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[3] = clock()
            if annotate is not None:
                span[4] = annotate(args, result)
            return result

        return traced


def _fft_bytes(args, result):
    return {"bytes": int(args[0].nbytes) + int(result.nbytes)}


def _evolve_steps(args, result):
    return {"steps": len(result.diagnostics["dt"])}


def _report_bytes(args, result):
    return {"bytes": sum(path.stat().st_size for path in result)}


def _partition_hits(original):
    """Annotation telling whether a call hit the lru cache of build_partition."""
    seen = [original.cache_info().misses]

    def note(args, result):
        misses = original.cache_info().misses
        hit = misses == seen[0]
        seen[0] = misses
        return {"hit": hit}

    return note


def _rebind(modules, original, wrapped, restore):
    """Point every module-level binding of ``original`` at ``wrapped``."""
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapped)
                restore.append((mod, attr, original))


def install(tracer: Tracer):
    """Wrap the traced functions in every invlab module that binds them.

    Returns a callable that puts the original bindings back.
    """
    mods = [importlib.import_module(m) for m in MODULES]
    by_name = {m.__name__: m for m in mods}
    restore: list = []

    def target(module, attr, span, annotate=None):
        original = getattr(by_name[module], attr)
        _rebind(mods, original, tracer.wrap(span, original, annotate), restore)

    for op in SPECTRAL_OPS:
        target("invlab.spectral", op, f"spectral.{op}")
    target("invlab.solvers", "evolve", "solvers.evolve", _evolve_steps)
    target("invlab.solvers", "u2_duhamel", "solvers.u2_duhamel")
    for fn in ("besov_norm", "block_lp_norms", "radial_cutoff"):
        target("invlab.littlewood_paley", fn, f"littlewood_paley.{fn}")
    target(
        "invlab.littlewood_paley",
        "build_partition",
        "littlewood_paley.build_partition",
        _partition_hits(by_name["invlab.littlewood_paley"].build_partition),
    )
    for fn in ("shell_velocity", "build_profile_bump"):
        target("invlab.constructions", fn, f"constructions.{fn}")
    target("invlab.io", "parse_config", "io.parse_config")
    target("invlab.io", "write_report", "io.write_report", _report_bytes)

    experiments = by_name["invlab.experiments"]
    cli = by_name["invlab.cli"]
    for attr in [a for a in vars(experiments) if a.startswith("run_")]:
        original = getattr(experiments, attr)
        wrapped = tracer.wrap("experiments.run", original)
        _rebind(mods, original, wrapped, restore)
        for key, fn in list(cli._EXPERIMENTS.items()):
            if fn is original:
                cli._EXPERIMENTS[key] = wrapped
                restore.append((cli._EXPERIMENTS, key, original))
    context = experiments.ExperimentContext
    restore.append((context, "trajectory", context.trajectory))
    context.trajectory = tracer.wrap("experiments.trajectory", context.trajectory)

    # the transforms are counted at the scipy.fft entry points that
    # invlab.spectral reaches through its module-level ``_fft`` binding
    spectral = by_name["invlab.spectral"]
    backend = spectral._fft
    proxy = types.SimpleNamespace(
        **{
            fn: tracer.wrap(f"spectral.fft_{kind}", getattr(backend, fn), _fft_bytes)
            for kind, names in (("forward", FFT_FORWARD), ("inverse", FFT_INVERSE))
            for fn in names
        }
    )
    restore.append((spectral, "_fft", backend))
    spectral._fft = proxy

    def uninstall():
        for holder, attr, original in reversed(restore):
            if isinstance(holder, dict):
                holder[attr] = original
            else:
                setattr(holder, attr, original)

    return uninstall


# ---------------------------------------------------------------------------
# span arithmetic


def self_times(spans) -> list:
    """Each span's duration minus the part of it its direct children cover."""
    children: dict = {}
    for i, (_, parent, start, end, _) in enumerate(spans):
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (_, _, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def inside(spans, name) -> list:
    """For each span, whether a span called ``name`` encloses it."""
    flags = []
    for _, parent, _, _, _ in spans:
        flags.append(parent >= 0 and (flags[parent] or spans[parent][0] == name))
    return flags


def layer_metrics(spans, run_s: float) -> dict:
    """Per-layer metrics, name -> (value, unit), from one traced run."""
    calls: dict = {}
    total: dict = {}
    own: dict = {}
    for span, self_s in zip(spans, self_times(spans)):
        name = span[0]
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + (span[3] - span[2])
        own[name] = own.get(name, 0.0) + self_s

    def under(enclosing, name):
        return sum(1 for s, f in zip(spans, inside(spans, enclosing)) if f and s[0] == name)

    def noted(name, key):
        return sum(s[4][key] for s in spans if s[0] == name)

    m = {}
    for name in (
        "spectral.fft_inverse",
        "spectral.fft_forward",
        "littlewood_paley.besov_norm",
        "littlewood_paley.radial_cutoff",
        "constructions.shell_velocity",
        "solvers.u2_duhamel",
        "solvers.evolve",
        "experiments.trajectory",
    ):
        m[f"{name}.calls"] = (calls.get(name, 0), "count")
    for name in (
        "spectral.fft_inverse",
        "spectral.fft_forward",
        "littlewood_paley.besov_norm",
        "littlewood_paley.radial_cutoff",
        "constructions.shell_velocity",
        "constructions.build_profile_bump",
        "io.parse_config",
        "io.write_report",
    ):
        m[f"{name}.s"] = (total.get(name, 0.0), "s")
    for name in (
        "solvers.evolve",
        "littlewood_paley.block_lp_norms",
        "experiments.run",
    ):
        m[f"{name}.self_s"] = (own.get(name, 0.0), "s")
    for op in SPECTRAL_OPS:
        m[f"spectral.{op}.calls"] = (calls.get(f"spectral.{op}", 0), "count")
        m[f"spectral.{op}.self_s"] = (own.get(f"spectral.{op}", 0.0), "s")

    ffts = ("spectral.fft_forward", "spectral.fft_inverse")
    m["spectral.fft.bytes"] = (sum(noted(n, "bytes") for n in ffts), "bytes_computed")

    steps = noted("solvers.evolve", "steps")
    per_step = 1.0 / steps if steps else 0.0
    m["solvers.evolve.steps"] = (steps, "count")
    m["solvers.evolve.s_per_step"] = (total.get("solvers.evolve", 0.0) * per_step, "s")
    m["solvers.evolve.fft_per_step"] = (
        sum(under("solvers.evolve", n) for n in ffts) * per_step,
        "count",
    )
    m["solvers.evolve.advect_per_step"] = (
        under("solvers.evolve", "spectral.advect") * per_step,
        "count",
    )
    # u2_duhamel and the trajectory cache are absent from some workloads, so
    # their times are shares of the run, not seconds that read 0.0 every run
    m["solvers.u2_duhamel.run_share"] = (
        100.0 * total.get("solvers.u2_duhamel", 0.0) / run_s,
        "%",
    )
    m["solvers.u2_duhamel.advect_calls"] = (
        under("solvers.u2_duhamel", "spectral.advect"),
        "count",
    )
    m["experiments.trajectory.self_share"] = (
        100.0 * own.get("experiments.trajectory", 0.0) / run_s,
        "%",
    )
    m["experiments.trajectory.misses"] = (
        sum(
            1
            for s in spans
            if s[0] == "solvers.evolve"
            and s[1] >= 0
            and spans[s[1]][0] == "experiments.trajectory"
        ),
        "count",
    )
    in_run = inside(spans, "experiments.run")
    in_evolve = inside(spans, "solvers.evolve")
    m["experiments.quadrature_advect_calls"] = (
        sum(
            1
            for s, r, e in zip(spans, in_run, in_evolve)
            if s[0] == "spectral.advect" and r and not e
        ),
        "count",
    )

    m["littlewood_paley.block_transforms"] = (
        under("littlewood_paley.block_lp_norms", "spectral.fft_inverse"),
        "count",
    )
    builds = [s[4]["hit"] for s in spans if s[0] == "littlewood_paley.build_partition"]
    m["littlewood_paley.build_partition.hits"] = (sum(builds), "count")
    m["littlewood_paley.build_partition.misses"] = (len(builds) - sum(builds), "count")

    m["io.bytes_written"] = (noted("io.write_report", "bytes"), "bytes")
    m["trace.run_s"] = (run_s, "s")
    m["trace.spans"] = (len(spans), "count")
    return m
