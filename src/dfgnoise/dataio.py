"""File formats: CSV datasets with JSON metadata sidecars, fit reports.

Floats are written with ``repr`` so every emitted file re-parses to
bit-identical values, and nothing carries a timestamp: re-running a
command with the same config and seed reproduces the files byte for
byte.  Units are part of the header names (nm, W, Hz, s).  Each table's
columns, their names and types, are declared once, for its writer's
header and its reader's parse.

A table is parsed one way: ``csv.reader`` splits it, so quoted cells
read, and each column converts whole.  Only a file whose rows or cells
do not fit is walked row by row, to name its first bad line.

Two things are kept per process, and no output depends on either:

- the cells of a grid column.  Every table's first column is a grid
  (``pump_w`` or ``wavelength_nm``) that the other files of a run share,
  so its cells are formatted once and kept for the last few distinct
  grids; the key is the grid's float64 bytes, so 0.0 and -0.0 are
  different grids.  The other columns are formatted on every write.
- the columns of the last few tables written that have a reader (scan,
  sweep and counts), as the reader returns them, keyed by the table's
  declaration and the exact text written.  The next read of a file that
  holds that text takes them instead of parsing it, and drops them; a
  second read parses.  ``repr`` round-trips every value but a NaN's
  sign, so a table that holds a NaN is not kept.  The file and its
  sidecar are still read and every row rule still runs, so a file
  changed after it was written reads, and fails, as a fresh process
  reads it.
"""

from __future__ import annotations

import csv
import functools
import json
import sys
from dataclasses import replace
from itertools import repeat
from operator import itemgetter
from pathlib import Path

import numpy as np

from .converter import ConverterParams
from .counting import SweepCounts
from .errors import DataFormatError, ParameterError, RowError
from .fitting import EFFICIENCY_PARAMETERS, FitResult, PowerSweep, check_rows, pump_rules
from .spectra import _STEP_RTOL, SpectralScan

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


# each table's columns, (name, type), for its writer and its reader
_SCAN = (("wavelength_nm", float), ("rate_hz", float))
_SWEEP = (("pump_w", float), ("value", float), ("sigma", float))
_COUNTS = (("pump_w", float), ("counts", int), ("duration_s", float), ("seed", int))
_RESIDUALS = (("pump_w", float), ("value", float), ("model", float), ("residual", float),
              ("sigma", float))
# the tables that have a reader; only theirs are kept for it
_READ = (_SCAN, _SWEEP, _COUNTS)

# distinct grids whose cells are kept per process
_GRID_CELLS_KEPT = 4


@functools.lru_cache(maxsize=_GRID_CELLS_KEPT)
def _grid_cells(key: bytes) -> tuple[str, ...]:
    """The cells of the float64 grid column whose bytes are ``key``,
    formatted once per process while it is among the last
    ``_GRID_CELLS_KEPT`` distinct grids."""
    return tuple(map(repr, np.frombuffer(key).tolist()))


# tables written whose columns are kept for their next read, per process:
# a run writes five before its fits read four
_TABLES_KEPT = 6
# (table declaration, text written) -> its columns as _read_columns returns
# them, oldest first.  Each step on it is one dict operation whose hashing
# and comparing run in C, so threads share it without a lock
_handoff: dict[tuple, list[list]] = {}


def _write_table(path: str | Path, table, columns, sidecar: dict | None = None) -> Path:
    """Write a CSV with the header of ``table`` and one row per point of
    the first of ``columns``, a float grid: the ``repr`` of each value as
    a Python number of its column's type, where a column of one number
    holds it in every row; plus the JSON ``sidecar`` when one is given.

    A column that is neither one number nor as long as the grid is a
    :class:`ParameterError`, and nothing is written.  The columns of a
    table that has a reader are kept for the next read of the same text,
    unless one holds a NaN: ``repr`` writes a NaN of either sign as
    ``nan``, which parses as positive."""
    path = Path(path)
    n = len(columns[0])
    values, cells = [], []
    for column, (name, kind) in zip(columns, table):
        column = np.asarray(column, dtype=kind)
        if column.ndim:
            if len(column) != n:
                raise ParameterError(f"{path}: column '{name}' has {len(column)} values, "
                                     f"but the grid has {n}")
            values.append(column.tolist())
            cells.append(map(repr, values[-1]))
        else:
            values.append([column.item()] * n)
            cells.append(repeat(repr(column.item())))
    cells[0] = _grid_cells(np.asarray(columns[0], dtype=float).tobytes())
    header = ",".join(name for name, _ in table)
    text = "\n".join([header, *map(",".join, zip(*cells))]) + "\n"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    if sidecar is not None:
        _write_json(sidecar_path(path), sidecar)
    if table in _READ and "nan" not in text:  # no NaN cell, as no header holds "nan"
        key = (table, text)
        _handoff.pop(key, None)  # a table written again is the newest
        _handoff[key] = values
        for stale in list(_handoff)[:-_TABLES_KEPT]:
            _handoff.pop(stale, None)
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


def _read_text(path: Path) -> str:
    """The text of the data file ``path``, which must be UTF-8."""
    try:
        return path.read_text(encoding="utf-8")
    except OSError as exc:
        raise DataFormatError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path} is not UTF-8 text: {exc}") from None


def _read_json(path: Path) -> dict:
    try:
        payload = json.loads(_read_text(path))
    except ValueError as exc:
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
    """Raise the error of ``row`` if it is not as long as ``columns``, else
    that of its first cell, in column order, that does not convert; the
    integer cells are checked together, as one rule."""
    if len(row) != len(columns):
        raise DataFormatError(f"{path}:{line_no}: expected {len(columns)} columns, got {len(row)}")
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


def _read_columns(path: Path, columns) -> list[list]:
    """The columns of a CSV with the header and types of ``columns``, a
    table's declaration of (name, ``float`` or ``int``), each converted
    whole to a list of Python numbers.

    A file that holds the text of a table whose columns a writer of this
    process kept takes those columns, once.  Any other is split by
    ``csv.reader``, so quoted cells parse, and once its header and the
    length of every row check, each column converts whole.  Only when a
    length or a conversion fails are its rows walked in order, by
    :func:`_check_row`, so the error names the first bad line and cell.
    """
    text = _read_text(path)
    kept = _handoff.pop((columns, text), None)
    if kept is not None:
        return kept
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
    if set(map(len, body)) <= {len(header)}:
        try:
            return [list(map(kind, map(itemgetter(j), body)))
                    for j, (_, kind) in enumerate(columns)]
        except ValueError:
            pass  # the walk below names the first bad line
    for line_no, row in enumerate(body, start=2):
        _check_row(row, columns, path, line_no)
    raise AssertionError(f"{path}: a column did not convert, but each of its cells did")


def _from_rows(path: Path, make, *args):
    """``make(*args)``, built from the rows of ``path``: a row's
    error is named by its line there, any other error of ``make`` by file."""
    try:
        return make(*args)
    except RowError as exc:
        raise DataFormatError(f"{path}:{exc.row + 2}: {exc.rule}") from None
    except ParameterError as exc:
        raise DataFormatError(f"{path}: {exc}") from None


# ---------------------------------------------------------------- scans

def write_scan_csv(scan: SpectralScan, path: str | Path, metadata: dict | None = None) -> Path:
    """Write a spectral scan as CSV plus a JSON metadata sidecar."""
    return _write_table(
        path, _SCAN, [scan.wavelength_nm, scan.rate_hz],
        {"filter_fwhm_nm": scan.filter_fwhm_nm, "step_nm": scan.step_nm,
         "integration_time_s": scan.integration_time_s, **(metadata or {})})


def read_scan_csv(path: str | Path) -> tuple[SpectralScan, dict]:
    """Read a scan CSV and its sidecar (empty dict when absent).

    Once every cell converts, the rows are checked, as
    :class:`SpectralScan` does, before the sidecar is read.  The
    sidecar's filter width and integration time must not be negative,
    and its step, unless 0, must be the grid's, as even as the grid's
    own steps are; the scan's step is always the grid's.
    """
    path = Path(path)
    wl, rate = _read_columns(path, _SCAN)
    scan = _from_rows(path, SpectralScan, np.array(wl), np.array(rate))
    meta = _read_sidecar(path)
    for key in ("filter_fwhm_nm", "step_nm", "integration_time_s"):
        value = sidecar_number(path, meta, key, 0.0)
        if key == "step_nm":  # 0 is the grid's own step
            if value and abs(value - scan.step_nm) > _STEP_RTOL * scan.step_nm:
                raise DataFormatError(f"{sidecar_path(path)}: step_nm is {value!r}, but the "
                                      f"grid's step is {scan.step_nm!r}")
        elif value < 0:
            raise DataFormatError(f"{sidecar_path(path)}: {key} must be non-negative, "
                                  f"got {value!r}")
        else:
            setattr(scan, key, value)
    return scan, meta


# ---------------------------------------------------------------- sweeps

def write_sweep_csv(sweep: PowerSweep, path: str | Path, metadata: dict | None = None) -> Path:
    """Write a value-vs-power dataset (``pump_w,value,sigma``) plus sidecar."""
    return _write_table(
        path, _SWEEP, [sweep.pump_w, sweep.value, sweep.sigma],
        {"kind": sweep.kind, **(metadata or {})})


def read_sweep_csv(path: str | Path, kind: str) -> PowerSweep:
    """Read a ``pump_w,value,sigma`` dataset of the given sweep ``kind``; a
    sidecar, when there is one, must not name another kind.

    Once every cell converts, the rows are checked, as :class:`PowerSweep`
    does, before the sidecar is read.
    """
    path = Path(path)
    p, y, s = _read_columns(path, _SWEEP)
    sweep = _from_rows(path, PowerSweep, np.array(p), np.array(y), np.array(s), kind)
    recorded = _read_sidecar(path).get("kind", kind)
    if recorded != kind:
        raise DataFormatError(f"{sidecar_path(path)}: kind is {recorded!r}, expected {kind!r}")
    return sweep


# ---------------------------------------------------------------- counts

def write_counts_csv(
    pump_w, sweep: SweepCounts, path: str | Path, metadata: dict | None = None
) -> Path:
    """Write raw counting data (``pump_w,counts,duration_s,seed``) plus sidecar."""
    return _write_table(
        path, _COUNTS, [pump_w, sweep.counts, sweep.duration_s, sweep.seeds],
        metadata or {})


def read_counts_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[int], dict]:
    """Read counting data; returns (pump_w, counts, duration_s, seeds, metadata).

    Once every cell converts, each row's pump power is checked by
    :func:`pump_rules`, then its count and duration.
    """
    path = Path(path)
    p, c, d, seeds = _read_columns(path, _COUNTS)
    pump_w, durations = np.array(p), np.array(d)
    try:
        counts = np.array(c, dtype=np.int64)
    except OverflowError:  # a count beyond int64, which its rule names
        counts = np.array(c, dtype=object)
    top = np.iinfo(np.int64).max
    _from_rows(path, check_rows, *pump_rules(pump_w),
               ("counts", counts, counts >= 0, "non-negative"),
               ("counts", counts, counts <= top, f"at most {top}"),
               ("duration_s", durations, (durations > 0) & (durations < np.inf),
                "positive and finite"))
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
        _write_table(path.parent / f"residuals_{tag}.csv", _RESIDUALS,
                     [sweep.pump_w, sweep.value, model, sweep.value - model, sweep.sigma])
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


def apply_efficiency_fit(params: ConverterParams, fit: dict) -> ConverterParams:
    """``params`` with the efficiencies and conversion parameter of a parsed
    efficiency-fit payload (see :func:`write_fit`) swapped in.

    The fit does not bound eta_max_ext by eta_max_int, so a device with
    lossless coupling may fit with eta_max_ext just above eta_max_int.
    eta_max_ext is capped at eta_max_int here, as :class:`ConverterParams`
    requires; no noise model reads it.  An eta_max_ext outside [0, 1], or
    values that :class:`ConverterParams` still rejects, are a
    :class:`DataFormatError` that shows them as the payload holds them."""
    fitted = _object("efficiency fit", fit, "parameters")
    values = {key: _number("efficiency fit", f"parameters.{key}", fitted.get(key, _MISSING))
              for key in EFFICIENCY_PARAMETERS}
    ext = values["eta_max_ext"]
    capped = min(ext, values["eta_max_int"]) if ext <= 1.0 else ext  # above 1 it is rejected
    try:
        return replace(params, **{**values, "eta_max_ext": capped})
    except ParameterError:
        held = ", ".join(f"{key}={value!r}" for key, value in values.items())
        raise DataFormatError(f"efficiency fit: {held} describe no converter: eta_max_int and "
                              "eta_max_ext must lie in [0, 1], eta_n be non-negative") from None


def efficiency_fit_covariance(fit: dict) -> np.ndarray:
    """The 3x3 covariance of a parsed efficiency-fit payload, whose
    ``parameter_order`` must be (eta_max_int, eta_max_ext, eta_n)."""
    order = fit.get("parameter_order")
    if order != list(EFFICIENCY_PARAMETERS):
        raise DataFormatError(
            f"efficiency fit: parameter_order must be {', '.join(EFFICIENCY_PARAMETERS)}, "
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
    non-finite one is written as null) maps to None, and a negative one is
    a :class:`DataFormatError`."""
    fitted = _object(label, fit, "parameters")
    values = {key: _number(label, f"parameters.{key}", fitted[key])
              for key in keys if key in fitted}
    sigmas = _object(label, fit, "sigmas")
    held = {key: None if sigmas.get(key) is None else _number(label, f"sigmas.{key}", sigmas[key])
            for key in values}
    for key, sigma in held.items():
        if sigma is not None and sigma < 0:
            raise DataFormatError(f"{label}: sigmas.{key} must be non-negative, got {sigma!r}")
    return values, held

