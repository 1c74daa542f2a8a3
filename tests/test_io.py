import hashlib
import json
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import invlab
from invlab.cli import main
from invlab.constructions import taylor_green
from invlab.errors import ConfigError, FormatError
from invlab.experiments import ExperimentConfig, ResultRecord
from invlab.io import (
    collect_constants,
    config_from_dict,
    config_to_dict,
    echo_config,
    parse_config,
    read_field,
    write_field,
    write_report,
)
from invlab.spectral import SpectralField

from conftest import random_real_field, random_vector_field, spectral_of


class TestFieldSnapshots:
    def test_vector_round_trip_bit_exact(self, grid, rng, tmp_path):
        V = random_vector_field(grid, rng)
        path = write_field(tmp_path / "v.spf", V)
        back = read_field(path)
        assert back.coeffs.shape == (grid.d,) + grid.spectral_shape
        assert np.array_equal(back.coeffs, V.coeffs)
        assert back.grid == V.grid

    def test_scalar_spectral_round_trip(self, grid, rng, tmp_path):
        F = spectral_of(grid, random_real_field(grid, rng))
        back = read_field(write_field(tmp_path / "F.spf", F))
        assert back.coeffs.shape == grid.spectral_shape
        assert np.array_equal(back.coeffs, F.coeffs)

    def test_three_dimensional_file_rejected(self, tmp_path):
        # header of a 16^3 physical field; the grid is two-dimensional only
        p = tmp_path / "f3.spf"
        header = b"SPF1" + struct.pack("<IIIIdBB", 3, 16, 16, 16, 2.0, 0, 1)
        p.write_bytes(header + b"\x00" * (8 * 16**3))
        with pytest.raises(FormatError, match="unsupported dimension 3"):
            read_field(p)

    @pytest.mark.parametrize("ncomp", [0, 1, 3])
    def test_physical_file_rejected(self, grid, tmp_path, ncomp):
        # kind 0 keeps its place in the SPF1 header, but no such file is read
        p = tmp_path / "f.spf"
        header = b"SPF1" + struct.pack("<IIIdBB", 2, grid.N, grid.N, grid.R, 0, ncomp)
        p.write_bytes(header + b"\x00" * (8 * ncomp * grid.N**2))
        with pytest.raises(FormatError, match=r"physical snapshots \(kind 0\) are not read"):
            read_field(p)

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "bad.spf"
        p.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(FormatError, match="magic"):
            read_field(p)

    def test_truncated_payload_rejected(self, grid, rng, tmp_path):
        p = write_field(tmp_path / "v.spf", random_vector_field(grid, rng))
        data = p.read_bytes()
        p.write_bytes(data[:-16])
        with pytest.raises(FormatError, match="payload"):
            read_field(p)

    def test_shell_datum_bytes_unchanged(self, lab_grid, bp, tmp_path):
        # the SPF1 payload stays the full spectrum in mode order
        from invlab.constructions import ShellDatum, shell_velocity

        ref = json.loads((Path(__file__).parent / "data" / "shell_n3_spf1.json").read_text())
        u0 = shell_velocity(ShellDatum(3, bp), lab_grid)
        raw = write_field(tmp_path / "u0.spf", u0).read_bytes()
        assert hashlib.blake2b(raw).hexdigest() == ref["blake2b"]

    @pytest.mark.parametrize(
        "pin",
        json.loads((Path(__file__).parent / "data" / "shell_velocity_blake2b.json").read_text())["pins"],
        ids=lambda pin: f"n{pin['n']}-N{pin['N']}-shift{pin['shift']:g}",
    )
    def test_shell_velocity_bytes_pinned(self, bp, pin):
        # the half-spectrum datum, unshifted and at the shift pi R of
        # perturbed-gap, keeps its bits, the signs of its zeros included
        from invlab.constructions import ShellDatum, shell_velocity
        from invlab.spectral import Grid

        u0 = shell_velocity(ShellDatum(pin["n"], bp, pin["shift"]), Grid(2, pin["N"], 12.0))
        assert hashlib.blake2b(u0.coeffs.tobytes()).hexdigest() == pin["blake2b"]

    def test_non_hermitian_payload_rejected(self, grid, rng, tmp_path):
        p = write_field(tmp_path / "v.spf", random_vector_field(grid, rng))
        raw = bytearray(p.read_bytes())
        header = 4 + 4 * (1 + grid.d) + 8 + 2
        payload = np.frombuffer(raw, dtype="<c16", offset=header).copy()
        # in mode order index i holds mode i - N/2; (1, -3) lives in the
        # mirrored half that the reader does not keep
        N = grid.N
        payload[(1 + N // 2) * N + (-3 + N // 2)] += 1.0
        raw[header:] = payload.tobytes()
        p.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="Hermitian"):
            read_field(p)

    def test_non_finite_payload_rejected(self, grid, tmp_path):
        # a NaN defect compares False against any bound, so the Hermitian
        # check alone lets it through; the last value lies in the kept half
        p = write_field(tmp_path / "tg.spf", taylor_green(grid))
        raw = bytearray(p.read_bytes())
        raw[-8:] = struct.pack("<d", math.nan)
        p.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match=r"tg\.spf.*not finite"):
            read_field(p)

    @pytest.mark.parametrize(
        "N, R",
        [(15, 1.5), (16, -1.0), (16, math.nan), (16, math.inf)],
        ids=["N-15", "R-negative", "R-nan", "R-inf"],
    )
    def test_header_grid_rejected(self, tmp_path, N, R):
        # a grid that Grid refuses makes the snapshot malformed
        p = tmp_path / "g.spf"
        header = b"SPF1" + struct.pack("<IIIdBB", 2, N, N, R, 1, 1)
        p.write_bytes(header + b"\x00" * (16 * N**2))
        with pytest.raises(FormatError, match=r"g\.spf: bad grid"):
            read_field(p)

    def test_kind_flag_respected(self, grid, rng, tmp_path):
        F = spectral_of(grid, random_real_field(grid, rng))
        path = write_field(tmp_path / "b.spf", F)
        assert path.read_bytes()[4 + 4 * (1 + grid.d) + 8] == 1  # kind: spectral
        assert isinstance(read_field(path), SpectralField)


class TestReports:
    def test_empty_records(self, tmp_path):
        csv_path, summary_path = write_report([], tmp_path)
        assert csv_path.read_text() == "experiment,n,eps,t,quantity,value,verdict\n"
        summary = json.loads(summary_path.read_text())
        assert summary["counts"] == {"pass": 0, "fail": 0, "info": 0}

    def test_duplicate_keys_rejected(self, tmp_path):
        r = ResultRecord("x", "q", 1.0, 3, 0.5, 0.1)
        with pytest.raises(ConfigError, match="duplicate"):
            write_report([r, r], tmp_path)

    def test_counts_match_csv(self, tmp_path):
        records = [
            ResultRecord("x", "a", 1.0, verdict="pass"),
            ResultRecord("x", "b", 2.0, verdict="fail"),
            ResultRecord("x", "c", 3.0),
        ]
        csv_path, summary_path = write_report(records, tmp_path)
        rows = csv_path.read_text().strip().split("\n")[1:]
        verdicts = [row.split(",")[-1] for row in rows]
        summary = json.loads(summary_path.read_text())
        for v in ("pass", "fail", "info"):
            assert summary["counts"][v] == verdicts.count(v)

    def test_summary_constants_must_exist_in_csv(self, tmp_path):
        records = [ResultRecord("x", "a", 1.5)]
        write_report(records, tmp_path, constants={"a": 1.5})
        with pytest.raises(ConfigError, match="does not match"):
            write_report(records, tmp_path, constants={"a": 2.5})
        with pytest.raises(ConfigError, match="does not match"):
            write_report(records, tmp_path, constants={"other": 1.5})

    def test_byte_identical_rewrite(self, tmp_path):
        records = [
            ResultRecord("x", "a", 1.0 / 3.0, 3, 2.0**-6, 0.05, "pass"),
            ResultRecord("x", "b", np.pi, verdict="info"),
        ]
        p1, s1 = write_report(records, tmp_path / "one")
        p2, s2 = write_report(records, tmp_path / "two")
        assert p1.read_bytes() == p2.read_bytes()
        assert s1.read_bytes() == s2.read_bytes()

    def test_numpy_floats_read_back(self, tmp_path):
        # numpy 2 spells repr(np.float64(x)) "np.float64(x)"; the CSV must not
        value = np.float64(1.0) / 3.0
        eps, t = np.float64(2.0**-6), np.float64(0.05)
        records = [ResultRecord("x", "a", value, 3, eps, t)]
        csv_path, _ = write_report(records, tmp_path)
        row = csv_path.read_text().strip().split("\n")[1].split(",")
        assert float(row[5]) == value
        assert float(row[2]) == 2.0**-6 and float(row[3]) == 0.05

    def test_collect_constants_picks_first(self):
        records = [
            ResultRecord("x", "a", 1.0, 3),
            ResultRecord("x", "a", 2.0, 4),
        ]
        assert collect_constants(records, ["a", "missing"]) == {"a": 1.0}


class TestConfigParsing:
    def test_empty_config_gives_defaults(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text("{}")
        cfg = parse_config(p)
        assert cfg.bp.d == 2 and cfg.bp.s == 3.0
        assert cfg.bp.p == 2.0 and cfg.bp.r == 2.0
        assert cfg.R == 12.0 and cfg.N == 2048
        assert cfg.n_list == (3, 4, 5)
        assert cfg.mode == "relaxed"

    def test_inadmissible_triple_rejected(self):
        with pytest.raises(ConfigError, match="not admissible"):
            config_from_dict({"s": 2, "p": 2, "r": 2})

    def test_borderline_triple_accepted(self):
        cfg = config_from_dict({"s": 2, "p": 2, "r": 1})
        assert cfg.bp.s == 2.0 and cfg.bp.r == 1.0

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            config_from_dict({"spam": 1})

    def test_infinite_exponent_spelled_out(self):
        cfg = config_from_dict({"s": 4, "p": "inf", "r": 1})
        assert np.isinf(cfg.bp.p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="does not exist"):
            parse_config(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            parse_config(p)

    def test_dimension_restricted(self):
        with pytest.raises(ConfigError, match="dimension 2"):
            config_from_dict({"d": 3})

    def test_round_trip_through_dict(self):
        cfg = ExperimentConfig()
        data = config_to_dict(cfg)
        assert data["N"] == 2048
        assert data["eps_rule"] == "eps_n = 2**(-2n)"
        assert data["shift"] == pytest.approx(np.pi * 12.0)

    def test_echo_written(self, tmp_path):
        cfg = ExperimentConfig()
        path = echo_config(cfg, tmp_path, {"command": "validate"})
        payload = json.loads(path.read_text())
        assert payload["command"] == "validate"
        assert payload["seed"] == cfg.seed


class TestCli:
    def _config(self, tmp_path, **overrides):
        data = {
            "n_list": [3],
            "t_grid": [0.01, 0.02],
            "t0": 0.02,
            "N": 512,
            "psi_band": 2,
        }
        data.update(overrides)
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(data))
        return p

    def test_validate_command_passes(self, tmp_path, capsys):
        cfg = self._config(tmp_path)
        code = main(["validate", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "records.csv").exists()
        assert (tmp_path / "out" / "summary.json").exists()
        assert (tmp_path / "out" / "config.echo.json").exists()
        assert "0 fail" in capsys.readouterr().out
        # every evolution goes through the context: the four default-config
        # vortex evolutions, each 64 steps of T/64 with no sliver step to
        # land on T, then the stepper-order runs at fixed steps T/8, T/16,
        # T/32 and T/64, with no reference run: 376 steps in all
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert "trajectory_cache" not in summary and "threads" not in summary
        runs, fixed = summary["trajectories"][:4], summary["trajectories"][4:]
        assert [r["steps"] for r in fixed] == [8, 16, 32, 64]
        assert sum(r["steps"] for r in runs + fixed) == 376
        assert all(r["N"] == 64 and r["eps"] == 0.0 for r in fixed)
        assert sorted(r["eps"] for r in runs) == [0.0, 0.0, 0.01, 0.05]
        assert all(r["N"] == 64 and r["steps"] == 64 for r in runs)
        # the solver statistics of each evolution, read back: steps are
        # capped at T/64 (T = 1 for the single-mode vortex, 0.1 otherwise)
        for r in runs:
            assert 0 < r["dt_min"] <= r["dt_max"] <= 1.0 / 64
            assert r["dt_max"] / r["dt_min"] <= 1.0 + 1e-12
            assert 0.0 <= r["div_rel_max"] <= 1e-9
            if r["eps"] == 0.0:
                assert r["energy_drift"] <= 1e-7
        # the vortex at eps = 0.01 decays as exp(-2 eps t): the L2 norm loses
        # 1 - exp(-0.02) by t = 1
        (decay,) = [r["energy_drift"] for r in runs if r["eps"] == 0.01]
        assert decay == pytest.approx(-math.expm1(-0.02), rel=1e-6)
        assert summary["wall_s"] > 0.0
        assert summary["peak_rss_mb"] > 0.0  # the process's peak resident set
        # each evolution's own wall time; validate requests them one at a
        # time, so they do not overlap and fit inside the experiment's
        assert all(r["wall_s"] > 0.0 for r in runs + fixed)
        assert sum(r["wall_s"] for r in runs + fixed) < summary["wall_s"]

    def test_import_loads_no_scipy(self):
        # every transform goes through numpy.fft; a fresh interpreter that
        # imports the CLI holds no scipy module
        src = str(Path(invlab.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        probe = (
            "import sys, invlab.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]"

    def test_bad_config_exits_2(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text('{"s": 2, "p": 2, "r": 2}')
        code = main(["validate", "--config", str(p), "--out", str(tmp_path / "out")])
        assert code == 2

    @pytest.mark.parametrize(
        "command, overrides, flags",
        [
            ("evolve", {"evolve": {"eps": 2}}, []),
            ("evolve", {"evolve": {"n": "x"}}, []),
            ("fixed-limit", {"eps_exponents": [-1]}, []),
            ("family-gap", {"t0": 0.015}, []),
            ("heat-law", {"t_grid": [0.01]}, []),
            ("expansion-residuals", {"t_grid": [0.01]}, []),
            ("validate", {"s": "x"}, []),
            ("validate", {"d": "x"}, []),
            ("validate", {"n_list": ["x"]}, []),
            ("validate", {"n_list": 5}, []),
            ("validate", {"t_grid": "ab"}, []),
            ("validate", {"shift": "x"}, []),
            ("heat-law", {"n_list": []}, []),
            ("validate", {"n_list": []}, []),
            ("fixed-limit", {"eps_exponents": [], "n_list": [3]}, []),
            ("fixed-limit", {"eps_exponents": [1.5]}, []),
            ("validate", {"seed": -1}, []),
            ("validate", {}, ["--seed", "-1"]),
            ("heat-law", {"n_list": [3, 3], "t_grid": [0.01, 0.02]}, []),
            ("fixed-limit", {"eps_exponents": [3, 3], "n_list": [3]}, []),
            ("heat-law", {"N": -5, "n_list": [3]}, []),
            ("heat-law", {"N": 768}, []),
            ("family-gap", {"radius_bound": -1, "t_grid": [0.02, 0.05]}, []),
            ("perturbed-gap", {"psi_band": -1, "n_list": [3]}, []),
            ("family-gap", {"t_grid": [0.01, 0.01, 0.02]}, []),
            ("family-gap", {"t_grid": [0.02, 0.01]}, []),
            ("family-gap", {"R": math.inf}, []),
            ("family-gap", {"s": math.inf}, []),
        ],
        ids=["evolve-eps", "evolve-n", "negative-exponent", "t0-off-grid",
             "heat-law-one-time", "residuals-one-time", "s-text", "d-text",
             "n-text", "n_list-number", "t_grid-text", "shift-text",
             "heat-law-no-shell", "validate-no-shell", "no-exponent",
             "fractional-exponent", "negative-seed", "negative-seed-flag",
             "repeated-shell", "repeated-exponent", "negative-N", "N-not-power-of-two",
             "negative-radius-bound", "negative-psi-band", "repeated-time",
             "descending-time", "R-inf", "s-inf"],
    )
    def test_invalid_input_exits_2_before_evolving(
        self, tmp_path, capsys, monkeypatch, command, overrides, flags
    ):
        import invlab.experiments as experiments

        def no_evolution(*args, **kwargs):
            raise AssertionError("evolved before the configuration was checked")

        monkeypatch.setattr(experiments, "evolve", no_evolution)
        cfg = self._config(tmp_path, **overrides)
        code = main([command, "--config", str(cfg), "--out", str(tmp_path / "out"), *flags])
        assert code == 2
        assert "configuration error" in capsys.readouterr().err

    def test_missing_config_exits_2(self, tmp_path):
        code = main(
            ["validate", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]
        )
        assert code == 2

    def test_make_data_writes_fields(self, tmp_path):
        cfg = self._config(tmp_path)
        out = tmp_path / "out"
        code = main(["make-data", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        assert (out / "fields" / "shell_n3.spf").exists()
        u0 = read_field(out / "fields" / "shell_n3.spf")
        assert isinstance(u0, SpectralField) and u0.coeffs.ndim == 3

    def test_heat_law_command(self, tmp_path):
        cfg = self._config(tmp_path)
        out = tmp_path / "out"
        code = main(["heat-law", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        header = (out / "records.csv").read_text().split("\n")[0]
        assert header == "experiment,n,eps,t,quantity,value,verdict"

    def test_benchmark_child_hooks_are_called(self, tmp_path, monkeypatch):
        # the benchmark's child process (bench/child.py) times a run by
        # rebinding cli.write_report and one entry of cli._EXPERIMENTS, so
        # main must reach both through the module at call time
        import invlab.cli as cli

        calls = []
        run, write = cli._EXPERIMENTS["heat-law"], cli.write_report

        def recorded_run(*args, **kwargs):
            calls.append("heat-law")
            return run(*args, **kwargs)

        def recorded_write(*args, **kwargs):
            calls.append("write_report")
            return write(*args, **kwargs)

        monkeypatch.setitem(cli._EXPERIMENTS, "heat-law", recorded_run)
        monkeypatch.setattr(cli, "write_report", recorded_write)
        cfg = self._config(tmp_path)
        assert main(["heat-law", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert calls == ["heat-law", "write_report"]
        # the benchmark's workloads run these two commands
        assert {"expansion-residuals", "validate"} <= set(cli._EXPERIMENTS)

    def test_seed_override_reaches_echo(self, tmp_path):
        cfg = self._config(tmp_path)
        out = tmp_path / "out"
        main(["heat-law", "--config", str(cfg), "--out", str(out), "--seed", "99"])
        payload = json.loads((out / "config.echo.json").read_text())
        assert payload["seed"] == 99

    def test_evolve_command_writes_each_sample_state(self, tmp_path):
        from invlab.experiments import ExperimentContext
        from invlab.solvers import evolve

        cfg = self._config(tmp_path, evolve={"n": 3})
        out = tmp_path / "out"
        assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 0
        eps = 2.0**-6
        u0 = ExperimentContext(parse_config(cfg)).datum(3)
        traj = evolve(u0, eps, [0.01, 0.02])
        (run,) = json.loads((out / "summary.json").read_text())["trajectories"]
        assert (run["eps"], run["steps"]) == (eps, len(traj.diagnostics["dt"]))
        run_dir = out / "traj" / f"n3_eps{eps:g}_k0"
        assert sorted(p.name for p in run_dir.glob("*.spf")) == ["t000.spf", "t001.spf"]
        for i, t in enumerate(traj.times):
            written = read_field(run_dir / f"t{i:03d}.spf")
            assert np.array_equal(written.coeffs, traj.state_at(t).coeffs)
        rows = (out / "records.csv").read_text().strip().split("\n")[1:]
        assert len(rows) == 4  # energy and Besov norm at each sample time
        # one row per step; the divergence is measured per sample, into
        # summary.json's div_rel_max
        header, *steps = (run_dir / "steps.csv").read_text().strip().split("\n")
        assert header == "t,dt,energy,max_speed"
        energies = [float(row.split(",")[2]) for row in steps]
        assert energies == list(traj.diagnostics["energy"])
        assert run["div_rel_max"] == max(traj.div_rel)

    def test_evolve_at_large_heat_exponent_exits_0(self, tmp_path, capsys):
        # eps * T * max|xi|^2 = 1 * 1 * 910.2 on the N = 512 datum grid: the
        # integrating factors only decay, so the run completes
        cfg = self._config(tmp_path, t_grid=[0.5, 1.0], T0=1.0, t0=1.0, evolve={"eps": 1.0})
        code = main(["evolve", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 0
        assert "0 fail" in capsys.readouterr().out
