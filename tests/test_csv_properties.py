"""Property tests: mutated scan, sweep and counts CSVs read the same through
the column reader as through a row-by-row reference reader, and a mutated
counts file never makes ``fit noise`` raise."""

import contextlib
import csv
import io
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dfgnoise import cli, dataio
from dfgnoise.counting import SweepCounts
from dfgnoise.errors import DataFormatError, ParameterError
from dfgnoise.fitting import PowerSweep
from dfgnoise.spectra import SpectralScan

HEADERS = {
    "scan": ["wavelength_nm", "rate_hz"],
    "sweep": ["pump_w", "value", "sigma"],
    "counts": ["pump_w", "counts", "duration_s", "seed"],
}
CELLS = ["x", "", "1e", "1.5", "-1", "nan", "inf", "--1", " 7 ", "0x10", "1_000", "1,5", '"1,5"']

# what a converted cell must be, by kind and column
RANGE_RULES = {
    "sweep": {"pump_w": (lambda v: 0 <= v < math.inf, "finite and non-negative"),
              "value": (math.isfinite, "finite"),
              "sigma": (lambda v: 0 < v < math.inf, "finite and positive")},
    "counts": {"pump_w": (lambda v: 0 <= v < math.inf, "finite and non-negative"),
               "counts": (lambda v: v >= 0, "non-negative"),
               "duration_s": (lambda v: 0 < v < math.inf, "positive and finite")},
}


def _parse_float(cell, path, line_no, column):
    try:
        return float(cell)
    except ValueError:
        raise DataFormatError(
            f"{path}:{line_no}: column '{column}' is not a number: {cell!r}") from None


def _reference_columns(path: Path, kind: str) -> list[list]:
    """The readers' rules applied row by row, cell by cell."""
    reader = csv.reader(path.read_text().splitlines())
    try:
        rows = list(reader)
    except csv.Error as exc:
        raise DataFormatError(f"{path}:{reader.line_num}: {exc}") from None
    header = HEADERS[kind]
    if not rows:
        raise DataFormatError(f"{path}:1: file is empty")
    if rows[0] != header:
        raise DataFormatError(
            f"{path}:1: expected header {','.join(header)!r}, got {','.join(rows[0])!r}")
    columns = [[] for _ in header]
    for line_no, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise DataFormatError(
                f"{path}:{line_no}: expected {len(header)} columns, got {len(row)}")
        if kind == "counts":
            pump = _parse_float(row[0], path, line_no, "pump_w")
            try:
                counts, seed = int(row[1]), int(row[3])
            except ValueError:
                raise DataFormatError(
                    f"{path}:{line_no}: counts and seed must be integers") from None
            values = [pump, counts, _parse_float(row[2], path, line_no, "duration_s"), seed]
        else:
            values = [_parse_float(cell, path, line_no, name) for cell, name in zip(row, header)]
        for column, value in zip(columns, values):
            column.append(value)
    # once every cell converts: each row's cells in column order, by the
    # rule of their column; a pump power or a wavelength must also be above
    # the one in the row before, checked right after its own rule
    rules = RANGE_RULES.get(kind, {})
    previous = -math.inf
    for line_no, row in enumerate(zip(*columns), start=2):
        for name, cell in zip(header, row):
            if name in rules and not rules[name][0](cell):
                raise DataFormatError(f"{path}:{line_no}: column '{name}' must be "
                                      f"{rules[name][1]}, got {cell!r}")
            if name == header[0] and not cell > previous:
                raise DataFormatError(f"{path}:{line_no}: column '{name}' must be "
                                      f"strictly increasing, got {cell!r}")
        previous = row[0]
    return columns


def _write_reference_files(root: Path) -> dict[str, Path]:
    """One valid file of each kind, with its sidecar."""
    grid = np.linspace(1540.0, 1541.0, 6)
    scan = SpectralScan(grid, np.linspace(2e3, 3e3, 6), filter_fwhm_nm=0.2,
                        integration_time_s=1.0)
    sweep = PowerSweep(np.linspace(0.0, 0.44, 6), np.linspace(0.0, 0.6, 6),
                       np.full(6, 0.01), "efficiency_int")
    counts = SweepCounts(np.arange(100, 106), 10.0, np.arange(6, dtype=np.uint32))
    code = cli.main(["simulate", "power-sweep", "--kind", "noise_tele_detuned",
                     "--out", str(root / "cli")])
    assert code == 0
    return {
        "scan": dataio.write_scan_csv(scan, root / "scan.csv"),
        "sweep": dataio.write_sweep_csv(sweep, root / "sweep.csv"),
        "counts": dataio.write_counts_csv(np.linspace(0.0, 0.44, 6), counts, root / "counts.csv"),
        "detuned": root / "cli" / "sweep_noise_tele_detuned.csv",
    }


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    with contextlib.redirect_stdout(io.StringIO()):
        return _write_reference_files(tmp_path_factory.mktemp("csv"))


@st.composite
def mutations(draw, text: str) -> str:
    """``text`` with one to three edits: a cell dropped, added, replaced by
    a non-number or quoted; a blank line added; or the header broken."""
    lines = text.splitlines()
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["drop", "add", "replace", "quote", "blank", "header"]))
        if kind == "blank" or not lines:
            lines.insert(draw(st.integers(0, len(lines))), "")
            continue
        if kind == "header":
            header = lines[0].split(",")
            edit = draw(st.sampled_from(["rename", "drop", "swap", "remove"]))
            j = draw(st.integers(0, len(header) - 1))
            if edit == "rename":
                header[j] += "_x"
            elif edit == "drop":
                del header[j]
            elif edit == "swap":
                header[0], header[-1] = header[-1], header[0]
            else:
                lines.pop(0)
                continue
            lines[0] = ",".join(header)
            continue
        i = draw(st.integers(1, len(lines) - 1)) if len(lines) > 1 else 0
        cells = lines[i].split(",")
        j = draw(st.integers(0, len(cells) - 1))
        if kind == "drop":
            del cells[j]
        elif kind == "add":
            cells.insert(j, draw(st.sampled_from(CELLS)))
        elif kind == "replace":
            cells[j] = draw(st.sampled_from(CELLS))
        else:
            cells[j] = f'"{cells[j]}"'
        lines[i] = ",".join(cells)
    return "\n".join(lines) + "\n"


READERS = {
    "scan": lambda path: dataio.read_scan_csv(path)[0],
    "sweep": lambda path: dataio.read_sweep_csv(path, kind="efficiency_int"),
    "counts": lambda path: dataio.read_counts_csv(path)[:4],
}


def _from_reference(path: Path, kind: str):
    """What the reader should return, built from the reference columns."""
    columns = _reference_columns(path, kind)
    arrays = [np.array(column) for column in columns]
    if kind == "scan":
        meta = dataio.read_fit_json(dataio.sidecar_path(path))
        return SpectralScan(*arrays, filter_fwhm_nm=meta["filter_fwhm_nm"],
                            step_nm=meta["step_nm"],
                            integration_time_s=meta["integration_time_s"])
    if kind == "sweep":
        return PowerSweep(*arrays, kind="efficiency_int")
    return (*arrays[:3], columns[3])


def _outcome(read):
    """A reader's result as comparable text: each array's dtype and the
    repr of every value, or the error's type and message."""
    try:
        result = read()
    except (DataFormatError, ParameterError) as exc:
        return type(exc).__name__, str(exc)
    if isinstance(result, SpectralScan):
        result = (result.wavelength_nm, result.rate_hz)
    elif isinstance(result, PowerSweep):
        result = (result.pump_w, result.value, result.sigma)
    return [(np.asarray(a).dtype.str, list(map(repr, np.asarray(a).tolist()))) for a in result]


@pytest.mark.parametrize("kind", ["scan", "sweep", "counts"])
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_csv_reads_like_row_reference(files, kind, data):
    original = files[kind]
    text = data.draw(mutations(original.read_text()))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / original.name
        path.write_text(text)
        meta = dataio.sidecar_path(original)
        if meta.exists():
            dataio.sidecar_path(path).write_text(meta.read_text())
        assert _outcome(lambda: READERS[kind](path)) == _outcome(
            lambda: _from_reference(path, kind))


@pytest.mark.parametrize("kind, body", [
    ("counts", "0.1,5,x,y"),      # a bad seed is reported before a bad duration
    ("counts", "0.1,5.5,10.0,1\n0.2"),
    ("counts", "0.1,5,10.0,1\n0.2,6,10.0\n0.3,x,10.0,3"),
    ("sweep", "0.1,x,y\n0.2"),
    ("counts", "0.1,5,10.0,1\n0.1,6,10.0,2"),     # a repeated pump power
    ("counts", "0.2,5,10.0,1\n0.1,6,-1.0,2"),    # a falling one, before a bad duration
    ("sweep", "0.2,1,1\n-0.1,1,1"),               # a negative one, before the order rule
    ("sweep", "0.2,1,1\n0.1,1,1"),
    ("scan", "1540.0,1\n\n1541.0,2"),
    ("scan", '"1540.0"," 1 "\n1541.0,2.5e3'),
    ("scan", "1540.0,1\n1541.0,2\n1541.0,2\n1542.0,3"),     # a repeated wavelength
    ("scan", "1541.0,1\n1540.0,-2"),             # a falling one, before a negative rate
    ("scan", "nan,1\n1541.0,2"),
])
def test_csv_reads_like_row_reference(tmp_path, files, kind, body):
    path = tmp_path / files[kind].name
    path.write_text(",".join(HEADERS[kind]) + "\n" + body + "\n")
    meta = dataio.sidecar_path(files[kind])
    if meta.exists():
        dataio.sidecar_path(path).write_text(meta.read_text())
    assert _outcome(lambda: READERS[kind](path)) == _outcome(lambda: _from_reference(path, kind))


@pytest.mark.parametrize("kind", ["scan", "sweep", "counts"])
@pytest.mark.parametrize("cell", [
    "1" * 140_000,                      # would convert, to inf, if split without csv
    '"' + "1," * 70_000 + '"',
], ids=["digits", "quoted"])
def test_a_field_over_the_csv_limit_is_a_data_error(tmp_path, files, kind, cell):
    path = tmp_path / files[kind].name
    row = ",".join(["1"] * len(HEADERS[kind]))
    path.write_text("\n".join([",".join(HEADERS[kind]), row, cell + row[1:]]) + "\n")
    outcome = _outcome(lambda: READERS[kind](path))
    assert outcome == ("DataFormatError", f"{path}:3: field larger than field limit (131072)")
    assert outcome == _outcome(lambda: _from_reference(path, kind))


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_counts_file_never_breaks_fit_noise(files, data):
    original = files["detuned"]
    text = data.draw(mutations(original.read_text()))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / original.name
        path.write_text(text)
        dataio.sidecar_path(path).write_text(dataio.sidecar_path(original).read_text())
        try:
            _reference_columns(path, "counts")
            malformed = False
        except DataFormatError:
            malformed = True
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["fit", "noise", "--detuned", str(path), "--out", tmp])
    if malformed:
        assert code == cli.EXIT_DATA
    else:
        assert code in (cli.EXIT_OK, cli.EXIT_DATA, cli.EXIT_NO_CONVERGENCE)
