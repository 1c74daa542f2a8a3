"""Field snapshot files, experiment reports, and configuration parsing.

Snapshot format (SPF1): magic ``SPF1``, little-endian u32 dimension, u32 N
per axis, f64 R, u8 kind (0 = physical samples, 1 = spectral coefficients),
u8 component count, then one payload array per component: f64 samples in
row-major order for physical fields, interleaved f64 (re, im) pairs in
row-major ascending-mode order for spectral fields.  A spectral payload is
the full spectrum: the writer expands the stored half-spectrum by its
Hermitian mirror, and the reader checks that mirror and keeps the half.
"""

from __future__ import annotations

import csv
import io as _io
import json
import math
import struct
from pathlib import Path

import numpy as np

from .errors import ConfigError, FormatError
from .experiments import ExperimentConfig
from .littlewood_paley import RAMP_ID, BesovParams
from .spectral import Grid, RealField, SpectralField, VectorField, _conj_mirror

_MAGIC = b"SPF1"


def _to_mode_order(coeffs: np.ndarray, grid: Grid) -> np.ndarray:
    """Stored half-spectrum -> full spectrum in ascending mode order."""
    cols = grid.spectral_shape[-1]
    full = np.zeros(grid.shape, dtype=np.complex128)
    full[..., :cols] = coeffs
    # conj turns the +0.0 imaginary part of an exact zero into -0.0; + 0.0
    # writes +0.0 there, as the former full-lattice spectra held
    full[..., cols:] = _conj_mirror(full)[..., cols:] + 0.0
    return np.fft.fftshift(full)


def _from_mode_order(arr: np.ndarray, grid: Grid, where: str) -> np.ndarray:
    """Full spectrum in ascending mode order -> stored half-spectrum."""
    full = np.fft.ifftshift(arr)
    scale = np.max(np.abs(full))
    defect = np.max(np.abs(full - _conj_mirror(full)))
    if defect > 1e-12 * scale:
        raise FormatError(
            f"{where}: spectral payload is not Hermitian (defect {defect:.3e} "
            f"against max |coeff| {scale:.3e}), so it is not a real field"
        )
    return np.ascontiguousarray(full[..., : grid.spectral_shape[-1]])


def write_field(path, field) -> Path:
    """Write a RealField, SpectralField or VectorField as an SPF1 snapshot."""
    path = Path(path)
    if isinstance(field, (VectorField, SpectralField)):
        grid = field.grid
        kind = 1
        comps = field if isinstance(field, VectorField) else [field]
        payloads = [_to_mode_order(c.coeffs, grid).astype("<c16", copy=False) for c in comps]
    elif isinstance(field, RealField):
        grid = field.grid
        kind = 0
        payloads = [field.samples.astype("<f8", copy=False)]
    else:
        raise ConfigError(f"cannot serialize {type(field).__name__}")
    buf = _io.BytesIO()
    buf.write(_MAGIC)
    buf.write(struct.pack("<I", grid.d))
    for _ in range(grid.d):
        buf.write(struct.pack("<I", grid.N))
    buf.write(struct.pack("<d", grid.R))
    buf.write(struct.pack("<BB", kind, len(payloads)))
    for p in payloads:
        buf.write(np.ascontiguousarray(p).tobytes())
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(buf.getvalue())
    return path


def read_field(path):
    """Read an SPF1 snapshot; the kind flag selects the returned type."""
    raw = Path(path).read_bytes()
    if raw[:4] != _MAGIC:
        raise FormatError(f"{path}: bad magic {raw[:4]!r}")
    off = 4

    def take(fmt):
        nonlocal off
        size = struct.calcsize(fmt)
        if off + size > len(raw):
            raise FormatError(f"{path}: truncated header")
        vals = struct.unpack_from(fmt, raw, off)
        off += size
        return vals

    (d,) = take("<I")
    if d != 2:
        raise FormatError(f"{path}: unsupported dimension {d}")
    ns = [take("<I")[0] for _ in range(d)]
    if len(set(ns)) != 1:
        raise FormatError(f"{path}: anisotropic grids are not supported: {ns}")
    (R,) = take("<d")
    kind, ncomp = take("<BB")
    if kind not in (0, 1):
        raise FormatError(f"{path}: unknown field kind {kind}")
    grid = Grid(d, ns[0], R)
    count = grid.N**d
    itemsize = 8 if kind == 0 else 16
    expected = off + ncomp * count * itemsize
    if len(raw) != expected:
        raise FormatError(
            f"{path}: payload size {len(raw) - off} does not match "
            f"{ncomp} components of {count} values"
        )
    fields = []
    for i in range(ncomp):
        chunk = raw[off : off + count * itemsize]
        off += count * itemsize
        if kind == 0:
            arr = np.frombuffer(chunk, dtype="<f8").reshape(grid.shape)
            fields.append(RealField(grid, arr.astype(np.float64)))
        else:
            arr = np.frombuffer(chunk, dtype="<c16").reshape(grid.shape)
            half = _from_mode_order(arr.astype(np.complex128), grid, f"{path}: component {i}")
            fields.append(SpectralField(grid, half))
    if kind == 0:
        return fields[0] if ncomp == 1 else fields
    if ncomp == 1:
        return fields[0]
    return VectorField(tuple(fields))


# ---------------------------------------------------------------------------
# reports

CSV_COLUMNS = ("experiment", "n", "eps", "t", "quantity", "value", "verdict")


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, (float, np.floating)):
        # repr of np.float64 is "np.float64(...)", which float() cannot read
        return repr(float(x))
    return str(x)


def write_report(records, out_dir, constants=None, meta=None):
    """Write records.csv and summary.json; returns both paths.

    Record keys (experiment, n, eps, t, quantity) must be unique.  Every
    value in ``constants`` must equal the value of some record, so the
    summary never carries numbers absent from the CSV.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    seen = set()
    for r in records:
        k = r.key()
        if k in seen:
            raise ConfigError(f"duplicate record key {k}")
        seen.add(k)
    constants = dict(constants or {})
    values = {}
    for r in records:
        values.setdefault(r.quantity, set()).add(r.value)
    for name, val in constants.items():
        base = name.split("[")[0]
        if base not in values or val not in values[base]:
            raise ConfigError(
                f"summary constant {name}={val} does not match any CSV record"
            )

    csv_path = out_dir / "records.csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for r in records:
            writer.writerow(
                [
                    r.experiment,
                    _fmt(r.n),
                    _fmt(r.eps),
                    _fmt(r.t),
                    r.quantity,
                    _fmt(r.value),
                    r.verdict,
                ]
            )

    summary = {
        "counts": verdict_counts(records),
        "constants": constants,
        **(meta or {}),
    }
    summary_path = out_dir / "summary.json"
    with open(summary_path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return csv_path, summary_path


def collect_constants(records, names):
    """Pick the first record value for each named quantity."""
    out = {}
    for name in names:
        for r in records:
            if r.quantity == name:
                out[name] = r.value
                break
    return out


def verdict_counts(records):
    counts = {"pass": 0, "fail": 0, "info": 0}
    for r in records:
        counts[r.verdict] += 1
    return counts


# ---------------------------------------------------------------------------
# configuration

_SCALAR_KEYS = {
    "d": int,
    "N": int,
    "s": float,
    "R": float,
    "T0": float,
    "t0": float,
    "seed": int,
    "psi_band": int,
    "quadrature_nodes": int,
    "radius_bound": float,
    "mode": str,
}
_KNOWN_KEYS = set(_SCALAR_KEYS) | {
    "p",
    "r",
    "n_list",
    "t_grid",
    "eps_exponents",
    "shift",
    "evolve",
}
_EVOLVE_KEYS = {"n", "eps", "shift"}


def _exponent(value, key):
    if value == "inf":
        return math.inf
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    raise ConfigError(f"config key {key!r} must be a number or \"inf\"")


def config_from_dict(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(data) - _KNOWN_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if "evolve" in data:
        if not isinstance(data["evolve"], dict):
            raise ConfigError("config key 'evolve' must be an object")
        bad = set(data["evolve"]) - _EVOLVE_KEYS
        if bad:
            raise ConfigError(f"unknown evolve keys: {sorted(bad)}")

    kwargs = {}
    for key, cast in _SCALAR_KEYS.items():
        if key in data and key not in ("d", "s"):
            try:
                kwargs[key] = cast(data[key])
            except (TypeError, ValueError) as err:
                raise ConfigError(f"config key {key!r}: {err}") from None
    d = int(data.get("d", 2))
    if d != 2:
        raise ConfigError("the experiment harness runs in dimension 2")
    s = float(data.get("s", 3.0))
    p = _exponent(data.get("p", 2.0), "p")
    r = _exponent(data.get("r", 2.0), "r")
    bp = BesovParams(s, p, r, d).validate()
    if "n_list" in data:
        kwargs["n_list"] = tuple(int(n) for n in data["n_list"])
    if "t_grid" in data:
        kwargs["t_grid"] = tuple(float(t) for t in data["t_grid"])
    if "eps_exponents" in data:
        kwargs["eps_exponents"] = tuple(int(m) for m in data["eps_exponents"])
    if "shift" in data and data["shift"] is not None:
        kwargs["shift"] = float(data["shift"])
    return ExperimentConfig(bp=bp, **kwargs)


def parse_config(path) -> ExperimentConfig:
    """Load and validate a JSON config file; missing keys take defaults."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as err:
        raise ConfigError(f"config file {path} is not valid JSON: {err}") from None
    return config_from_dict(data)


def config_to_dict(cfg: ExperimentConfig) -> dict:
    def enc(x):
        return "inf" if isinstance(x, float) and math.isinf(x) else x

    return {
        "d": cfg.bp.d,
        "s": cfg.bp.s,
        "p": enc(cfg.bp.p),
        "r": enc(cfg.bp.r),
        "R": cfg.R,
        "N": cfg.N,
        "n_list": list(cfg.n_list),
        "t_grid": list(cfg.t_grid),
        "T0": cfg.T0,
        "t0": cfg.t0,
        "eps_exponents": list(cfg.eps_exponents),
        "eps_rule": "eps_n = 2**(-2n)",
        "seed": cfg.seed,
        "shift": cfg.shift_value,
        "psi_band": cfg.psi_band,
        "mode": cfg.mode,
        "quadrature_nodes": cfg.quadrature_nodes,
        "radius_bound": cfg.radius_bound,
        "partition_ramp": RAMP_ID,
    }


def echo_config(cfg: ExperimentConfig, out_dir, extra=None) -> Path:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = config_to_dict(cfg)
    payload.update(extra or {})
    path = out_dir / "config.echo.json"
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
