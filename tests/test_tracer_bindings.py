"""The benchmark's tracer (bench/tracer.py) against the current package.

The traced benchmark rebinds invlab functions by name; a renamed or deleted
one would otherwise fail only when the benchmark runs.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from invlab import cli, experiments, solvers, spectral
from invlab.constructions import taylor_green

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"

TRACED = {
    "invlab.spectral": (
        "advect",
        "leray_project",
        "heat_propagate",
        "l2_norm_spectral",
        "divergence_defect",
        "_fft",
    ),
    "invlab.solvers": ("evolve", "u2_duhamel"),
    "invlab.littlewood_paley": (
        "besov_norm",
        "block_lp_norms",
        "radial_cutoff",
        "build_partition",
    ),
    "invlab.constructions": ("shell_velocity", "build_profile_bump"),
    "invlab.io": ("parse_config", "write_report"),
}


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bindings(tracer) -> dict:
    out = {
        (name, attr): value
        for name in tracer.MODULES
        for attr, value in vars(importlib.import_module(name)).items()
    }
    out.update({("cli._EXPERIMENTS", k): v for k, v in cli._EXPERIMENTS.items()})
    out[("ExperimentContext", "trajectory")] = experiments.ExperimentContext.trajectory
    return out


def test_install_wraps_every_traced_name_and_uninstall_restores_all():
    tracer = load_tracer()
    before = bindings(tracer)
    t = tracer.Tracer()
    uninstall = tracer.install(t)
    try:
        during = bindings(tracer)
        for name, attrs in TRACED.items():
            for attr in attrs:
                assert during[(name, attr)] is not before[(name, attr)], (name, attr)
        assert during[("ExperimentContext", "trajectory")] is not before[
            ("ExperimentContext", "trajectory")
        ]
        traj = solvers.evolve(taylor_green(spectral.Grid(2, 16, 1.0)), 0.0, [0.02, 0.04])
    finally:
        uninstall()
    after = bindings(tracer)
    assert set(after) == set(before)
    assert all(after[k] is v for k, v in before.items())

    # inside evolve: the data's divergence check and one per sample in
    # Trajectory, each two L2 norms, and per step the norm of the
    # divergence; the energy is summed from the velocity components
    # (spectral.half_spectrum_l2) without a stacked field
    steps = len(traj.diagnostics["dt"])
    under = tracer.inside(t.spans, "solvers.evolve")
    calls = {}
    for span, inside in zip(t.spans, under):
        if inside:
            calls[span[0]] = calls.get(span[0], 0) + 1
    assert steps == 64
    assert calls["spectral.divergence_defect"] == 1 + 2
    assert calls["spectral.l2_norm_spectral"] == 2 * (1 + 2) + steps


def test_each_transform_records_one_span():
    # the proxy of spectral._fft sees numpy.fft's n-dimensional entry
    # points: one call of _forward or _inverse is one transform span
    tracer = load_tracer()
    t = tracer.Tracer()
    g = spectral.Grid(2, 16, 1.0)
    samples = np.cos(g.x_1d)[:, None] * np.sin(2.0 * g.x_1d)[None, :]
    uninstall = tracer.install(t)
    try:
        coeffs = spectral._forward(samples, g)
        forward = [span[0] for span in t.spans]
        back = spectral._inverse(coeffs, g)
        inverse = [span[0] for span in t.spans[len(forward):]]
    finally:
        uninstall()
    assert forward == ["spectral.fft_forward"]
    assert inverse == ["spectral.fft_inverse"]
    assert np.allclose(back, samples, rtol=0, atol=1e-14)
