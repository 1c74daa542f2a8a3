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
    # Trajectory, each two L2 norms, whatever the step count; no step
    # measures the divergence, and a step's energy is summed from the
    # velocity components (spectral.half_spectrum_l2) without a stacked field
    steps, samples = len(traj.diagnostics["dt"]), len(traj.times)
    under = tracer.inside(t.spans, "solvers.evolve")
    calls = {}
    for span, inside in zip(t.spans, under):
        if inside:
            calls[span[0]] = calls.get(span[0], 0) + 1
    assert (steps, samples) == (64, 2)
    assert calls["spectral.divergence_defect"] == 1 + samples
    assert calls["spectral.l2_norm_spectral"] == 2 * (1 + samples)


def test_envelope_evolve_records_no_half_spectrum_norm():
    # an envelope evolution admits its datum and measures its states on the
    # boxes (Envelopes.data, Envelopes.divergence_defect): no span of the
    # half-spectrum's divergence defect or L2 norm is recorded, while the
    # ball's evolution above records 1 + samples and 2 * (1 + samples)
    ctx = experiments.ExperimentContext(experiments.ExperimentConfig(n_list=(3,)))
    u0 = ctx.box_datum(3)
    tracer = load_tracer()
    t = tracer.Tracer()
    uninstall = tracer.install(t)
    try:
        traj = solvers.evolve(u0, 2.0**-6, [0.01, 0.02])
    finally:
        uninstall()
    names = [span[0] for span in t.spans]
    assert names.count("solvers.evolve") == 1 and len(traj.div_rel) == 2
    assert "spectral.fft_forward" in names  # the tracer saw the run's transforms
    assert names.count("spectral.divergence_defect") == 0
    assert names.count("spectral.l2_norm_spectral") == 0


def test_envelope_batch_spans_nest_in_the_batch(monkeypatch):
    # an envelope batch runs in order on the calling thread, so both of its
    # evolve spans are children of the batch's trajectory span, whatever
    # the CPU count
    import os

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    ctx = experiments.ExperimentContext(experiments.ExperimentConfig(n_list=(3,)))
    u0 = ctx.box_datum(3)
    tracer = load_tracer()
    t = tracer.Tracer()
    uninstall = tracer.install(t)
    try:
        ctx.trajectory([(u0, 0.0), (u0, 2.0**-6)], [0.01])
    finally:
        uninstall()
    names = [span[0] for span in t.spans]
    batch = names.index("experiments.trajectory")
    evolves = [span for span in t.spans if span[0] == "solvers.evolve"]
    assert len(evolves) == 2
    assert all(span[1] == batch for span in evolves)


def test_each_transform_records_a_row_and_a_column_span():
    # the proxy of spectral._fft sees numpy.fft's n-dimensional entry
    # points, and a transform calls one per axis: a row pass and a column
    # pass, each one span, whether it covers the whole half-spectrum or the
    # leading keep + 1 columns of the slab
    tracer = load_tracer()
    t = tracer.Tracer()
    g = spectral.Grid(2, 16, 1.0)
    K = g.dealias_keep + 1
    samples = np.cos(g.x_1d)[:, None] * np.sin(2.0 * g.x_1d)[None, :]
    slab = np.empty(g.slab_shape, dtype=np.complex128)
    rows = np.empty(g.spectral_shape, dtype=np.complex128)
    uninstall = tracer.install(t)
    try:
        coeffs = spectral._forward(samples, g)
        back = spectral._inverse(coeffs, g)
        spectral._forward(samples, g, slab, rows)
        slab_back = spectral._inverse(slab, g, np.empty(g.shape), np.empty_like(slab))
    finally:
        uninstall()
    forward, inverse = ["spectral.fft_forward"] * 2, ["spectral.fft_inverse"] * 2
    assert [span[0] for span in t.spans] == forward + inverse + forward + inverse
    assert np.array_equal(slab, coeffs[:, :K])
    for b in (back, slab_back):
        assert np.allclose(b, samples, rtol=0, atol=1e-14)


def test_traced_validate_advects_only_for_the_gradient_part_symmetry():
    # validate's product laws form u0 . grad u0 on the boxes of the shells'
    # data of order 2 (Envelopes.advect), building no N x N array: the two
    # spectral.advect spans are those of gradient_part_symmetry, on N = 256
    cfg = experiments.ExperimentConfig(n_list=(3, 4))
    tracer = load_tracer()
    t = tracer.Tracer()
    uninstall = tracer.install(t)
    try:
        records = experiments.run_validation_suite(experiments.ExperimentContext(cfg))
    finally:
        uninstall()
    assert [span[0] for span in t.spans].count("spectral.advect") == 2
    assert [r.n for r in records if r.quantity == "product_law_constant"] == [3, 4]
