"""Field snapshot files, experiment reports, and configuration parsing.

Snapshot format (SPF1): magic ``SPF1``, little-endian u32 dimension, u32 N
per axis, f64 R, u8 kind (0 = physical samples, 1 = spectral coefficients),
u8 component count, then one payload array per component: f64 samples in
row-major order for physical fields, interleaved f64 (re, im) pairs in
row-major ascending-mode order for spectral fields.  Only spectral snapshots
are written and read; a physical one (kind 0) is a FormatError.  A spectral
payload is the full spectrum: the writer expands the stored half-spectrum by
its Hermitian mirror, and the reader checks that mirror and keeps the half.
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
from .spectral import Grid, SpectralField, _conj_mirror

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
    if not defect <= 1e-12 * scale:  # a non-finite value makes the defect NaN
        raise FormatError(
            f"{where}: spectral payload is not finite and Hermitian (defect {defect:.3e} "
            f"against max |coeff| {scale:.3e}), so it is not a real field"
        )
    return np.ascontiguousarray(full[..., : grid.spectral_shape[-1]])


def write_field(path, field) -> Path:
    """Write a scalar or vector SpectralField as an SPF1 snapshot."""
    path = Path(path)
    if not isinstance(field, SpectralField):
        raise ConfigError(f"cannot serialize {type(field).__name__}")
    grid = field.grid
    comps = field.coeffs.reshape((-1,) + grid.spectral_shape)
    payloads = [_to_mode_order(c, grid).astype("<c16", copy=False) for c in comps]
    buf = _io.BytesIO()
    buf.write(_MAGIC)
    buf.write(struct.pack("<I", grid.d))
    for _ in range(grid.d):
        buf.write(struct.pack("<I", grid.N))
    buf.write(struct.pack("<d", grid.R))
    buf.write(struct.pack("<BB", 1, len(payloads)))
    for p in payloads:
        buf.write(np.ascontiguousarray(p).tobytes())
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(buf.getvalue())
    return path


def read_field(path):
    """Read a spectral SPF1 snapshot.

    A file of one component gives a scalar SpectralField, of d components a
    vector one.  Any other component count is a FormatError, and so is a
    physical snapshot (kind 0), an N or R that Grid rejects or a non-finite payload.
    """
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
    if kind == 0:
        raise FormatError(f"{path}: physical snapshots (kind 0) are not read")
    if kind != 1:
        raise FormatError(f"{path}: unknown field kind {kind}")
    if ncomp not in (1, d):
        raise FormatError(f"{path}: a spectral field has 1 or {d} components, got {ncomp}")
    try:
        grid = Grid(d, ns[0], R)
    except ConfigError as err:
        raise FormatError(f"{path}: bad grid in header: {err}") from None
    count = grid.N**d
    size = 16 * count  # bytes of one component: complex128 values
    if len(raw) != off + ncomp * size:
        raise FormatError(
            f"{path}: payload size {len(raw) - off} does not match "
            f"{ncomp} components of {count} values"
        )
    halves = []
    for i in range(ncomp):
        chunk = raw[off : off + size]
        off += size
        arr = np.frombuffer(chunk, dtype="<c16").reshape(grid.shape)
        halves.append(_from_mode_order(arr.astype(np.complex128), grid, f"{path}: component {i}"))
    return SpectralField(grid, halves[0] if ncomp == 1 else np.stack(halves))


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
_LIST_KEYS = {"n_list": int, "t_grid": float, "eps_exponents": int}
_KNOWN_KEYS = set(_SCALAR_KEYS) | set(_LIST_KEYS) | {"p", "r", "shift", "evolve"}
_EVOLVE_KEYS = {"n", "eps", "shift"}


def _is_number(value, kind=(int, float)) -> bool:
    return isinstance(value, kind) and not isinstance(value, bool)


# the JSON types each cast accepts; a bool is none of them
_ACCEPTED = {int: (int, "an integer"), float: ((int, float), "a number"), str: (str, "a string")}


def _typed(value, kind, key):
    types, want = _ACCEPTED[kind]
    if isinstance(value, bool) or not isinstance(value, types):
        raise ConfigError(f"config key {key!r} must be {want}, got {value!r}")
    return kind(value)


def _exponent(value, key):
    if value == "inf":
        return math.inf
    if _is_number(value):
        return float(value)
    raise ConfigError(f"config key {key!r} must be a number or \"inf\"")


def _check_evolve_options(opts) -> None:
    """An integer ``n``, a number ``shift`` and ``eps`` in [0, 1] (null: eps_n)."""
    if not isinstance(opts, dict):
        raise ConfigError("config key 'evolve' must be an object")
    bad = set(opts) - _EVOLVE_KEYS
    if bad:
        raise ConfigError(f"unknown evolve keys: {sorted(bad)}")
    eps = opts.get("eps")
    for key, ok, want in (
        ("n", _is_number(opts.get("n", 0), int), "an integer"),
        ("shift", _is_number(opts.get("shift", 0.0)), "a number"),
        ("eps", eps is None or (_is_number(eps) and 0.0 <= eps <= 1.0), "a number in [0, 1]"),
    ):
        if not ok:
            raise ConfigError(f"evolve key {key!r} must be {want}, got {opts[key]!r}")


def config_from_dict(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(data) - _KNOWN_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if "evolve" in data:
        _check_evolve_options(data["evolve"])

    kwargs = {k: _typed(data[k], kind, k) for k, kind in _SCALAR_KEYS.items() if k in data}
    for key, kind in _LIST_KEYS.items():
        if key in data:
            if not isinstance(data[key], list):
                raise ConfigError(f"config key {key!r} must be a list, got {data[key]!r}")
            kwargs[key] = tuple(_typed(v, kind, key) for v in data[key])
    if data.get("shift") is not None:
        kwargs["shift"] = _typed(data["shift"], float, "shift")
    d = kwargs.pop("d", 2)
    if d != 2:
        raise ConfigError("the experiment harness runs in dimension 2")
    p = _exponent(data.get("p", 2.0), "p")
    r = _exponent(data.get("r", 2.0), "r")
    return ExperimentConfig(bp=BesovParams(kwargs.pop("s", 3.0), p, r, d), **kwargs)


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
