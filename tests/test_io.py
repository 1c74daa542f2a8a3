import hashlib
import json
import struct
from pathlib import Path

import numpy as np
import pytest

from invlab.cli import main
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
from invlab.spectral import (
    Grid,
    RealField,
    SpectralField,
    VectorField,
    to_spectral,
)

from conftest import random_real_field, random_vector_field


class TestFieldSnapshots:
    def test_vector_round_trip_bit_exact(self, grid, rng, tmp_path):
        V = random_vector_field(grid, rng)
        path = write_field(tmp_path / "v.spf", V)
        back = read_field(path)
        assert isinstance(back, VectorField)
        for a, b in zip(back, V):
            assert np.array_equal(a.coeffs, b.coeffs)
            assert a.grid == b.grid

    def test_real_round_trip_bit_exact(self, grid, rng, tmp_path):
        f = random_real_field(grid, rng)
        back = read_field(write_field(tmp_path / "f.spf", f))
        assert isinstance(back, RealField)
        assert np.array_equal(back.samples, f.samples)

    def test_scalar_spectral_round_trip(self, grid, rng, tmp_path):
        F = to_spectral(random_real_field(grid, rng))
        back = read_field(write_field(tmp_path / "F.spf", F))
        assert isinstance(back, SpectralField)
        assert np.array_equal(back.coeffs, F.coeffs)

    def test_three_dimensional_file_rejected(self, tmp_path):
        # header of a 16^3 physical field; the grid is two-dimensional only
        p = tmp_path / "f3.spf"
        header = b"SPF1" + struct.pack("<IIIIdBB", 3, 16, 16, 16, 2.0, 0, 1)
        p.write_bytes(header + b"\x00" * (8 * 16**3))
        with pytest.raises(FormatError, match="unsupported dimension 3"):
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

    def test_kind_flag_respected(self, grid, rng, tmp_path):
        f = random_real_field(grid, rng)
        F = to_spectral(f)
        real_back = read_field(write_field(tmp_path / "a.spf", f))
        spec_back = read_field(write_field(tmp_path / "b.spf", F))
        assert isinstance(real_back, RealField)
        assert isinstance(spec_back, SpectralField)


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
        path = echo_config(cfg, tmp_path, {"threads": 2})
        payload = json.loads(path.read_text())
        assert payload["threads"] == 2
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
        # the four default-config vortex evolutions go through the context
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["trajectory_cache"] == {"hits": 0, "misses": 4}
        runs = summary["trajectories"]
        assert sorted(r["eps"] for r in runs) == [0.0, 0.0, 0.01, 0.05]
        assert all(r["N"] == 64 and r["steps"] >= 64 for r in runs)

    def test_bad_config_exits_2(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text('{"s": 2, "p": 2, "r": 2}')
        code = main(["validate", "--config", str(p), "--out", str(tmp_path / "out")])
        assert code == 2

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
        assert isinstance(u0, VectorField)

    def test_heat_law_command(self, tmp_path):
        cfg = self._config(tmp_path)
        out = tmp_path / "out"
        code = main(["heat-law", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        header = (out / "records.csv").read_text().split("\n")[0]
        assert header == "experiment,n,eps,t,quantity,value,verdict"

    def test_seed_override_reaches_echo(self, tmp_path):
        cfg = self._config(tmp_path)
        out = tmp_path / "out"
        main(["heat-law", "--config", str(cfg), "--out", str(out), "--seed", "99"])
        payload = json.loads((out / "config.echo.json").read_text())
        assert payload["seed"] == 99
