"""File formats: CSV datasets with JSON metadata sidecars, fit reports.

Floats are written with ``repr`` so every emitted file re-parses to
bit-identical values, and nothing carries a timestamp: re-running a
command with the same config and seed reproduces the files byte for
byte.  Units are part of the header names (nm, W, Hz, s).
"""

from __future__ import annotations

import csv
import hashlib
import json
import sys
from dataclasses import replace
from operator import itemgetter
from pathlib import Path

import numpy as np

from .converter import ConverterParams
from .counting import SweepCounts
from .errors import DataFormatError
from .fitting import FitResult, PowerSweep
from .spectra import SpectralScan

__all__ = [
    "write_scan_csv",
    "read_scan_csv",
    "write_sweep_csv",
    "read_sweep_csv",
    "write_counts_csv",
    "read_counts_csv",
    "write_fit_json",
    "read_fit_json",
    "apply_efficiency_fit",
    "efficiency_fit_covariance",
    "noise_fit_coefficients",
    "fit_sigmas",
    "write_residual_csv",
    "sha256_digest",
    "sidecar_path",
    "sidecar_number",
]


def _floats(column) -> list[float]:
    """A float column as Python floats, whose ``repr`` re-parses bit for bit."""
    return np.asarray(column, dtype=float).tolist()


def _write_rows(path: Path, header: str, *columns) -> None:
    """Write a CSV of a header line and one row per position of the
    (equally long) columns of Python numbers, each written with ``repr``."""
    rows = (",".join(map(repr, row)) for row in zip(*columns))
    path.write_text("\n".join([header, *rows]) + "\n")


def sidecar_path(path: str | Path) -> Path:
    return Path(path).with_suffix(".meta.json")


def sha256_digest(path: str | Path) -> str:
    h = hashlib.sha256()
    h.update(Path(path).read_bytes())
    return h.hexdigest()


def _is_finite(value) -> bool:
    """A JSON number that is finite as a float."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _finite_or_null(value):
    """``value`` with every non-finite float replaced by None (JSON null)."""
    if isinstance(value, float):
        return value if _is_finite(value) else None
    if isinstance(value, dict):
        return {key: _finite_or_null(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(item) for item in value]
    return value


def _write_json(path: Path, payload: dict) -> None:
    """Strict RFC 8259 JSON: NaN and infinities are written as null."""
    text = json.dumps(_finite_or_null(payload), indent=2, sort_keys=True, allow_nan=False)
    path.write_text(text + "\n")


def _read_json(path: Path) -> dict:
    try:
        payload = json.loads(path.read_text())
    except OSError as exc:
        raise DataFormatError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # also covers undecodable bytes
        raise DataFormatError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise DataFormatError(f"{path}: expected a JSON object, got {type(payload).__name__}")
    return payload


def _read_sidecar(path: Path) -> dict:
    """Metadata sidecar of a data file; empty when there is none."""
    meta_file = sidecar_path(path)
    return _read_json(meta_file) if meta_file.exists() else {}


def sidecar_number(path: Path, meta: dict, key: str, default: float) -> float:
    """The number under ``key`` in the parsed sidecar ``meta`` of the data
    file ``path``; ``default`` when the key is absent."""
    value = meta.get(key, default)
    if not _is_finite(value):
        raise DataFormatError(f"{sidecar_path(path)}: {key} is not a finite number: {value!r}")
    return float(value)


def _parse_float(row_value: str, path: Path, line_no: int, column: str) -> float:
    try:
        return float(row_value)
    except (TypeError, ValueError):
        raise DataFormatError(
            f"{path}:{line_no}: column '{column}' is not a number: {row_value!r}"
        ) from None


def _check_row(row: list[str], columns, path: Path, line_no: int) -> None:
    """Raise the error of the first cell of ``row``, in column order, that
    does not convert; the integer cells are checked together, as one rule."""
    int_cells = [cell for (_, kind), cell in zip(columns, row) if kind is int]
    for (name, kind), cell in zip(columns, row):
        if kind is float:
            _parse_float(cell, path, line_no, name)
            continue
        try:
            list(map(int, int_cells))
        except ValueError:
            names = " and ".join(name for name, kind in columns if kind is int)
            raise DataFormatError(f"{path}:{line_no}: {names} must be integers") from None


def _read_columns(path: Path, columns) -> list[list]:
    """The columns of a CSV with the header and types of ``columns``, a
    sequence of (name, ``float`` or ``int``), each converted whole to a
    list of Python numbers.

    The text is split by ``csv.reader`` once, so quoted cells parse.  When
    a row has the wrong length or a cell does not convert, the rows are
    walked again in order, so the error names the first bad line and cell.
    """
    try:
        text = path.read_text()
    except OSError as exc:
        raise DataFormatError(f"cannot read {path}: {exc}") from exc
    rows = list(csv.reader(text.splitlines()))
    header = [name for name, _ in columns]
    if not rows:
        raise DataFormatError(f"{path}:1: file is empty")
    if rows[0] != header:
        raise DataFormatError(
            f"{path}:1: expected header {','.join(header)!r}, got {','.join(rows[0])!r}"
        )
    body = rows[1:]
    if all(len(row) == len(header) for row in body):
        try:
            return [list(map(kind, map(itemgetter(j), body)))
                    for j, (_, kind) in enumerate(columns)]
        except ValueError:
            pass
    for line_no, row in enumerate(body, start=2):
        if len(row) != len(header):
            raise DataFormatError(
                f"{path}:{line_no}: expected {len(header)} columns, got {len(row)}"
            )
        _check_row(row, columns, path, line_no)
    raise AssertionError(f"{path}: a column failed to convert, but no row did")


# ---------------------------------------------------------------- scans

def write_scan_csv(scan: SpectralScan, path: str | Path, metadata: dict | None = None) -> Path:
    """Write a spectral scan as CSV plus a JSON metadata sidecar."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    _write_rows(path, "wavelength_nm,rate_hz", _floats(scan.wavelength_nm), _floats(scan.rate_hz))
    payload = {
        "filter_fwhm_nm": scan.filter_fwhm_nm,
        "step_nm": scan.step_nm,
        "integration_time_s": scan.integration_time_s,
    }
    if metadata:
        payload.update(metadata)
    _write_json(sidecar_path(path), payload)
    return path


def read_scan_csv(path: str | Path) -> tuple[SpectralScan, dict]:
    """Read a scan CSV and its sidecar (empty dict when absent)."""
    path = Path(path)
    wl, rate = _read_columns(path, (("wavelength_nm", float), ("rate_hz", float)))
    meta = _read_sidecar(path)
    scan = SpectralScan(
        wavelength_nm=np.array(wl),
        rate_hz=np.array(rate),
        filter_fwhm_nm=sidecar_number(path, meta, "filter_fwhm_nm", 0.0),
        step_nm=sidecar_number(path, meta, "step_nm", 0.0),
        integration_time_s=sidecar_number(path, meta, "integration_time_s", 0.0),
    )
    return scan, meta


# ---------------------------------------------------------------- sweeps

def write_sweep_csv(sweep: PowerSweep, path: str | Path, metadata: dict | None = None) -> Path:
    """Write a value-vs-power dataset (``pump_w,value,sigma``) plus sidecar."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    _write_rows(path, "pump_w,value,sigma",
                _floats(sweep.pump_w), _floats(sweep.value), _floats(sweep.sigma))
    payload = {"kind": sweep.kind}
    if metadata:
        payload.update(metadata)
    _write_json(sidecar_path(path), payload)
    return path


def read_sweep_csv(path: str | Path, kind: str) -> PowerSweep:
    """Read a ``pump_w,value,sigma`` dataset of the given sweep ``kind``; a
    sidecar, when there is one, must not name another kind."""
    path = Path(path)
    p, y, s = _read_columns(path, (("pump_w", float), ("value", float), ("sigma", float)))
    recorded = _read_sidecar(path).get("kind", kind)
    if recorded != kind:
        raise DataFormatError(f"{sidecar_path(path)}: kind is {recorded!r}, expected {kind!r}")
    return PowerSweep(pump_w=np.array(p), value=np.array(y), sigma=np.array(s), kind=kind)


# ---------------------------------------------------------------- counts

def write_counts_csv(
    pump_w, sweep: SweepCounts, path: str | Path, metadata: dict | None = None
) -> Path:
    """Write raw counting data (``pump_w,counts,duration_s,seed``) plus sidecar."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    _write_rows(path, "pump_w,counts,duration_s,seed", _floats(pump_w),
                sweep.counts.tolist(), [float(sweep.duration_s)] * len(sweep),
                sweep.seeds.tolist())
    if metadata is None:
        metadata = {}
    _write_json(sidecar_path(path), metadata)
    return path


def read_counts_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[int], dict]:
    """Read counting data; returns (pump_w, counts, duration_s, seeds, metadata).

    Once every cell converts, the first row with a negative count or a
    duration that is not a positive finite number is an error.
    """
    path = Path(path)
    p, c, d, seeds = _read_columns(
        path, (("pump_w", float), ("counts", int), ("duration_s", float), ("seed", int)))
    counts, durations = np.array(c), np.array(d)
    bad = (counts < 0) | (durations <= 0) | ~np.isfinite(durations)
    if bad.any():
        i = int(np.argmax(bad))
        if counts[i] < 0:
            message = f"column 'counts' must be non-negative, got {c[i]!r}"
        else:
            message = f"column 'duration_s' must be positive and finite, got {d[i]!r}"
        raise DataFormatError(f"{path}:{i + 2}: {message}")
    return np.array(p), counts, durations, seeds, _read_sidecar(path)


# ---------------------------------------------------------------- fits

def write_fit_json(
    result: FitResult,
    path: str | Path,
    fit_name: str,
    input_digests: dict[str, str] | None = None,
    extras: dict | None = None,
) -> Path:
    """Serialize a fit result; deterministic (sorted keys, no timestamps)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "fit": fit_name,
        "parameter_order": result.names,
        "parameters": result.values,
        "sigmas": result.sigmas,
        "covariance": [[float(v) for v in row] for row in np.atleast_2d(result.covariance)],
        "chi2_reduced": result.chi2_reduced,
        "n_iterations": result.n_iterations,
        "n_points": result.n_points,
        "converged": result.converged,
        "message": result.message,
        "inputs": input_digests or {},
    }
    if extras:
        payload.update(extras)
    _write_json(path, payload)
    return path


def read_fit_json(path: str | Path) -> dict:
    return _read_json(Path(path))


# parameters of the shared efficiency fit, in its covariance order
_EFFICIENCY_PARAMETERS = ["eta_max_int", "eta_max_ext", "eta_n"]


def apply_efficiency_fit(params: ConverterParams, fit: dict) -> ConverterParams:
    """``params`` with the efficiencies and conversion parameter of a parsed
    efficiency-fit payload (see :func:`write_fit_json`) swapped in."""
    fitted = fit.get("parameters")
    if not isinstance(fitted, dict):
        fitted = {}
    values = {}
    for key in _EFFICIENCY_PARAMETERS:
        if key not in fitted:
            raise DataFormatError(f"efficiency fit lacks the key parameters.{key}")
        if not _is_finite(fitted[key]):
            raise DataFormatError(
                f"efficiency fit: parameters.{key} is not a finite number: {fitted[key]!r}")
        values[key] = fitted[key]
    return replace(params, **values)


def efficiency_fit_covariance(fit: dict) -> np.ndarray | None:
    """The 3x3 covariance of a parsed efficiency-fit payload, ordered
    (eta_max_int, eta_max_ext, eta_n); None when the payload orders its
    parameters differently."""
    if fit.get("parameter_order") != _EFFICIENCY_PARAMETERS:
        return None
    rows = fit.get("covariance")
    if not (isinstance(rows, list) and len(rows) == 3
            and all(isinstance(row, list) and len(row) == 3 and all(map(_is_finite, row))
                    for row in rows)):
        raise DataFormatError("efficiency fit: covariance must be a finite 3x3 matrix")
    return np.array(rows, dtype=float)


def noise_fit_coefficients(fit: dict) -> dict[str, float]:
    """The noise coefficients (``alpha_n_tele``, ``alpha_n_vis``) a parsed
    noise-fit payload holds; either may be absent."""
    fitted = fit.get("parameters", {})
    if not isinstance(fitted, dict):
        raise DataFormatError(f"noise fit: parameters is not an object: {fitted!r}")
    values = {}
    for key in ("alpha_n_tele", "alpha_n_vis"):
        if key in fitted:
            if not _is_finite(fitted[key]):
                raise DataFormatError(
                    f"noise fit: parameters.{key} is not a finite number: {fitted[key]!r}")
            values[key] = fitted[key]
    return values


def fit_sigmas(fit: dict, label: str, keys) -> dict[str, float | None]:
    """The uncertainties of ``keys`` in a parsed fit payload (see
    :func:`write_fit_json`), labelled ``label`` in messages; an absent or
    null sigma (a non-finite one is written as null) maps to None."""
    sigmas = fit.get("sigmas", {})
    if not isinstance(sigmas, dict):
        raise DataFormatError(f"{label}: sigmas is not an object: {sigmas!r}")
    values = {}
    for key in keys:
        value = sigmas.get(key)
        if value is not None and not _is_finite(value):
            raise DataFormatError(f"{label}: sigmas.{key} is not a finite number: {value!r}")
        values[key] = value
    return values


def write_residual_csv(path: str | Path, pump_w, value, model, sigma) -> Path:
    """Residual table accompanying a fit."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    value, model = np.asarray(value, dtype=float), np.asarray(model, dtype=float)
    _write_rows(path, "pump_w,value,model,residual,sigma", _floats(pump_w),
                _floats(value), _floats(model), _floats(value - model), _floats(sigma))
    return path
