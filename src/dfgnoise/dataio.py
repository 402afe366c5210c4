"""File formats: CSV datasets with JSON metadata sidecars, fit reports.

Floats are written with ``repr`` so every emitted file re-parses to
bit-identical values, and nothing carries a timestamp: re-running a
command with the same config and seed reproduces the files byte for
byte.  Units are part of the header names (nm, W, Hz, s).

Every table's first column is a grid (``pump_w`` or ``wavelength_nm``)
that the other files of a run share, so its cells are kept, per process,
for the last few distinct grids and formatted once; the key is the
grid's float64 bytes, so 0.0 and -0.0 are different grids.  The other
columns are data and are formatted on every write.
"""

from __future__ import annotations

import csv
import json
import sys
import threading
from dataclasses import replace
from itertools import repeat
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
    "write_fit",
    "read_fit_json",
    "apply_efficiency_fit",
    "efficiency_fit_covariance",
    "fitted_values",
    "sha256_digest",
    "sidecar_path",
    "sidecar_number",
]


def _cells(column, dtype=float) -> list[str]:
    """A column as CSV cells: the ``repr`` of each value as a Python number
    of ``dtype``, which re-parses bit for bit."""
    return list(map(repr, np.asarray(column, dtype=dtype).tolist()))


# the cells of the last few grids written, by their float64 bytes, least
# recently written first; the lock lets writers in several threads share it
_GRID_CELLS: dict[bytes, tuple[str, ...]] = {}
_GRID_CELLS_KEPT = 4
_GRID_CELLS_LOCK = threading.Lock()


def _grid_cells(grid) -> tuple[str, ...]:
    """The cells of a float ``grid`` column, formatted once per process
    while it is among the last ``_GRID_CELLS_KEPT`` distinct grids."""
    grid = np.asarray(grid, dtype=float)
    key = grid.tobytes()
    with _GRID_CELLS_LOCK:
        cells = _GRID_CELLS.pop(key, None)
    if cells is None:
        cells = tuple(map(repr, grid.tolist()))
    with _GRID_CELLS_LOCK:
        _GRID_CELLS[key] = cells
        while len(_GRID_CELLS) > _GRID_CELLS_KEPT:
            del _GRID_CELLS[next(iter(_GRID_CELLS))]
    return cells


def _write_table(path: str | Path, header: str, grid, columns, sidecar: dict | None = None) -> Path:
    """Write a CSV of a header line and one row per point of the float
    ``grid``: its cell, then the cell at the same position of each of
    ``columns`` (lists of cells); plus the JSON ``sidecar`` when one is
    given."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    rows = map(",".join, zip(_grid_cells(grid), *columns))
    path.write_text("\n".join([header, *rows]) + "\n")
    if sidecar is not None:
        _write_json(sidecar_path(path), sidecar)
    return path


def sidecar_path(path: str | Path) -> Path:
    return Path(path).with_suffix(".meta.json")


def sha256_digest(path: str | Path) -> str:
    # imported here: report loads this module but digests nothing, and
    # OpenSSL would add about 5 ms and 2.7 MB to it
    import hashlib

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


# marks a required key that is absent from a JSON object
_MISSING = object()


def _object(label: str, payload: dict, key: str) -> dict:
    """The JSON object under ``key`` of ``payload`` (read from ``label``);
    empty when the key is absent."""
    value = payload.get(key, {})
    if not isinstance(value, dict):
        raise DataFormatError(f"{label}: {key} is not an object: {value!r}")
    return value


def _number(label: str, name: str, value) -> float:
    """``value``, the JSON value ``name`` read from ``label``, as a float;
    it must be a finite number, and ``_MISSING`` means it is absent."""
    if value is _MISSING:
        raise DataFormatError(f"{label} lacks the key {name}")
    if not _is_finite(value):
        raise DataFormatError(f"{label}: {name} is not a finite number: {value!r}")
    return float(value)


def sidecar_number(path: Path, meta: dict, key: str, default: float) -> float:
    """The number under ``key`` in the parsed sidecar ``meta`` of the data
    file ``path``; ``default`` when the key is absent."""
    return _number(str(sidecar_path(path)), key, meta.get(key, default))


def _check_row(row: list[str], columns, path: Path, line_no: int) -> None:
    """Raise the error of the first cell of ``row``, in column order, that
    does not convert; the integer cells are checked together, as one rule."""
    int_cells = [cell for (_, kind), cell in zip(columns, row) if kind is int]
    for (name, kind), cell in zip(columns, row):
        if kind is float:
            try:
                float(cell)
            except ValueError:
                raise DataFormatError(
                    f"{path}:{line_no}: column '{name}' is not a number: {cell!r}") from None
            continue
        try:
            list(map(int, int_cells))
        except ValueError:
            names = " and ".join(name for name, kind in columns if kind is int)
            raise DataFormatError(f"{path}:{line_no}: {names} must be integers") from None


def _split_columns(text: str, columns) -> list[list] | None:
    """The columns of the CSV ``text`` as :func:`_read_columns` returns
    them, split with ``str.split``; None when ``csv.reader`` might split
    the text otherwise or it holds an error to name: a wrong header, no
    data line, a line without one comma fewer than ``columns`` (a blank
    one too), a line over csv's field size limit or a cell that does not
    convert.  A quote needs no check: a cell that holds one never
    converts."""
    lines = text.splitlines()
    k = len(columns)
    if (len(lines) < 2 or lines[0] != ",".join(name for name, _ in columns)
            or set(map(str.count, lines, repeat(","))) != {k - 1}
            or max(map(len, lines)) >= csv.field_size_limit()):
        return None
    cells = ",".join(lines[1:]).split(",")
    try:
        return [list(map(kind, cells[j::k])) for j, (_, kind) in enumerate(columns)]
    except ValueError:
        return None


def _read_columns(path: Path, columns) -> list[list]:
    """The columns of a CSV with the header and types of ``columns``, a
    sequence of (name, ``float`` or ``int``), each converted whole to a
    list of Python numbers.

    A plain file is split by :func:`_split_columns`.  Any other is split
    by ``csv.reader`` once, so quoted cells parse.  When a row has the
    wrong length or a cell does not convert, the rows are walked again in
    order, so the error names the first bad line and cell.
    """
    try:
        text = path.read_text()
    except OSError as exc:
        raise DataFormatError(f"cannot read {path}: {exc}") from exc
    split = _split_columns(text, columns)
    if split is not None:
        return split
    reader = csv.reader(text.splitlines())
    try:
        rows = list(reader)
    except csv.Error as exc:  # such as a field over csv's size limit
        raise DataFormatError(f"{path}:{reader.line_num}: {exc}") from None
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


def _check_ranges(path: Path, checks) -> None:
    """Raise the error of the first row, and within it of the first of
    ``checks`` in order, whose cell breaks its rule; each check is (column
    name, Python values, mask of the good cells, the rule in words)."""
    bad = ~np.all([ok for _, _, ok, _ in checks], axis=0)
    if bad.any():
        i = int(np.argmax(bad))
        name, values, _, rule = next(check for check in checks if not check[2][i])
        raise DataFormatError(f"{path}:{i + 2}: column '{name}' must be {rule}, got {values[i]!r}")


# ---------------------------------------------------------------- scans

def write_scan_csv(scan: SpectralScan, path: str | Path, metadata: dict | None = None) -> Path:
    """Write a spectral scan as CSV plus a JSON metadata sidecar."""
    return _write_table(
        path, "wavelength_nm,rate_hz", scan.wavelength_nm, [_cells(scan.rate_hz)],
        {"filter_fwhm_nm": scan.filter_fwhm_nm, "step_nm": scan.step_nm,
         "integration_time_s": scan.integration_time_s, **(metadata or {})})


def read_scan_csv(path: str | Path) -> tuple[SpectralScan, dict]:
    """Read a scan CSV and its sidecar (empty dict when absent)."""
    path = Path(path)
    wl, rate = _read_columns(path, (("wavelength_nm", float), ("rate_hz", float)))
    wavelength_nm = np.array(wl)
    _check_ranges(path, (("wavelength_nm", wl,
                          wavelength_nm > np.r_[-np.inf, wavelength_nm[:-1]],
                          "strictly increasing"),))
    meta = _read_sidecar(path)
    scan = SpectralScan(
        wavelength_nm=wavelength_nm,
        rate_hz=np.array(rate),
        filter_fwhm_nm=sidecar_number(path, meta, "filter_fwhm_nm", 0.0),
        step_nm=sidecar_number(path, meta, "step_nm", 0.0),
        integration_time_s=sidecar_number(path, meta, "integration_time_s", 0.0),
    )
    return scan, meta


# ---------------------------------------------------------------- sweeps

def write_sweep_csv(sweep: PowerSweep, path: str | Path, metadata: dict | None = None) -> Path:
    """Write a value-vs-power dataset (``pump_w,value,sigma``) plus sidecar."""
    return _write_table(
        path, "pump_w,value,sigma", sweep.pump_w, [_cells(sweep.value), _cells(sweep.sigma)],
        {"kind": sweep.kind, **(metadata or {})})


def read_sweep_csv(path: str | Path, kind: str) -> PowerSweep:
    """Read a ``pump_w,value,sigma`` dataset of the given sweep ``kind``; a
    sidecar, when there is one, must not name another kind.

    Once every cell converts, the first row with a pump power that is not
    a non-negative finite number or not above the row before's, a value
    that is not finite or a sigma that is not a positive finite number is
    an error.
    """
    path = Path(path)
    p, y, s = _read_columns(path, (("pump_w", float), ("value", float), ("sigma", float)))
    pump_w, value, sigma = np.array(p), np.array(y), np.array(s)
    _check_ranges(path, (
        ("pump_w", p, (pump_w >= 0) & (pump_w < np.inf), "finite and non-negative"),
        ("pump_w", p, pump_w > np.r_[-np.inf, pump_w[:-1]], "strictly increasing"),
        ("value", y, np.isfinite(value), "finite"),
        ("sigma", s, (sigma > 0) & (sigma < np.inf), "finite and positive"),
    ))
    recorded = _read_sidecar(path).get("kind", kind)
    if recorded != kind:
        raise DataFormatError(f"{sidecar_path(path)}: kind is {recorded!r}, expected {kind!r}")
    return PowerSweep(pump_w=pump_w, value=value, sigma=sigma, kind=kind)


# ---------------------------------------------------------------- counts

def write_counts_csv(
    pump_w, sweep: SweepCounts, path: str | Path, metadata: dict | None = None
) -> Path:
    """Write raw counting data (``pump_w,counts,duration_s,seed``) plus sidecar."""
    return _write_table(
        path, "pump_w,counts,duration_s,seed", pump_w,
        [_cells(sweep.counts, int), [repr(float(sweep.duration_s))] * len(sweep),
         _cells(sweep.seeds, int)],
        metadata or {})


def read_counts_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[int], dict]:
    """Read counting data; returns (pump_w, counts, duration_s, seeds, metadata).

    Once every cell converts, the first row with a pump power that is not
    a non-negative finite number or not above the row before's, a negative
    count or a duration that is not a positive finite number is an error.
    """
    path = Path(path)
    p, c, d, seeds = _read_columns(
        path, (("pump_w", float), ("counts", int), ("duration_s", float), ("seed", int)))
    pump_w, counts, durations = np.array(p), np.array(c), np.array(d)
    _check_ranges(path, (
        ("pump_w", p, (pump_w >= 0) & (pump_w < np.inf), "finite and non-negative"),
        ("pump_w", p, pump_w > np.r_[-np.inf, pump_w[:-1]], "strictly increasing"),
        ("counts", c, counts >= 0, "non-negative"),
        ("duration_s", d, (durations > 0) & (durations < np.inf), "positive and finite"),
    ))
    return pump_w, counts, durations, seeds, _read_sidecar(path)


# ---------------------------------------------------------------- fits

def write_fit(result: FitResult, path: str | Path, fit_name: str, inputs, residuals,
              extras: dict) -> Path:
    """Write what a fit puts out: at ``path``, the result as JSON with the
    sha256 of each file of ``inputs`` and the keys of ``extras``; beside
    it, one ``residuals_<tag>.csv`` per (tag, sweep, model at the fitted
    parameters) of ``residuals``.  Deterministic: sorted keys, no
    timestamps."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    for tag, sweep, model in residuals:
        _write_table(path.parent / f"residuals_{tag}.csv", "pump_w,value,model,residual,sigma",
                     sweep.pump_w, [_cells(sweep.value), _cells(model),
                                    _cells(sweep.value - model), _cells(sweep.sigma)])
    _write_json(path, {
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
        "inputs": {str(p): sha256_digest(p) for p in inputs},
        **extras,
    })
    return path


def read_fit_json(path: str | Path) -> dict:
    return _read_json(Path(path))


# parameters of the shared efficiency fit, in its covariance order
_EFFICIENCY_PARAMETERS = ["eta_max_int", "eta_max_ext", "eta_n"]


def apply_efficiency_fit(params: ConverterParams, fit: dict) -> ConverterParams:
    """``params`` with the efficiencies and conversion parameter of a parsed
    efficiency-fit payload (see :func:`write_fit`) swapped in.

    The fit does not bound eta_max_ext by eta_max_int, so a device with
    lossless coupling may fit with eta_max_ext just above eta_max_int.
    eta_max_ext is capped at eta_max_int here, as :class:`ConverterParams`
    requires; no noise model reads it."""
    fitted = _object("efficiency fit", fit, "parameters")
    values = {key: _number("efficiency fit", f"parameters.{key}", fitted.get(key, _MISSING))
              for key in _EFFICIENCY_PARAMETERS}
    values["eta_max_ext"] = min(values["eta_max_ext"], values["eta_max_int"])
    return replace(params, **values)


def efficiency_fit_covariance(fit: dict) -> np.ndarray:
    """The 3x3 covariance of a parsed efficiency-fit payload, whose
    ``parameter_order`` must be (eta_max_int, eta_max_ext, eta_n)."""
    order = fit.get("parameter_order")
    if order != _EFFICIENCY_PARAMETERS:
        raise DataFormatError(
            f"efficiency fit: parameter_order must be {', '.join(_EFFICIENCY_PARAMETERS)}, "
            f"got {order!r}")
    rows = fit.get("covariance")
    if not (isinstance(rows, list) and len(rows) == 3
            and all(isinstance(row, list) and len(row) == 3 and all(map(_is_finite, row))
                    for row in rows)):
        raise DataFormatError("efficiency fit: covariance must be a finite 3x3 matrix")
    return np.array(rows, dtype=float)


def fitted_values(fit: dict, label: str, keys) -> tuple[dict[str, float], dict[str, float | None]]:
    """The fitted values of those ``keys`` that a parsed fit payload (see
    :func:`write_fit`, labelled ``label`` in messages) holds under
    ``parameters``, and their uncertainties; an absent or null sigma (a
    non-finite one is written as null) maps to None."""
    fitted = _object(label, fit, "parameters")
    values = {key: _number(label, f"parameters.{key}", fitted[key])
              for key in keys if key in fitted}
    sigmas = _object(label, fit, "sigmas")
    return values, {
        key: None if sigmas.get(key) is None else _number(label, f"sigmas.{key}", sigmas[key])
        for key in values}

