"""The handoff from table writer to reader: a scan, sweep or counts table
written by this process reads back, once, from the columns its writer
kept, and that read returns what parsing the file returns."""

import sys
import threading
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dfgnoise import dataio
from dfgnoise.counting import SweepCounts
from dfgnoise.errors import DataFormatError, ParameterError
from dfgnoise.fitting import FitResult, PowerSweep
from dfgnoise.spectra import SpectralScan

TINY = 5e-324                       # the smallest subnormal
HUGE = 1e308
SPECIAL_FLOATS = [0.0, -0.0, TINY, -TINY, 2.2250738585072014e-308, HUGE, -HUGE,
                  np.inf, -np.inf, 1e-5, 1e16]
INT64_EXTREMES = [-2**63, -2**63 + 1, -1, 0, 1, 2**63 - 2, 2**63 - 1]


@pytest.fixture(autouse=True)
def empty_handoff():
    dataio._handoff.clear()
    yield
    dataio._handoff.clear()


def _floats(draw, n: int) -> np.ndarray:
    """``n`` finite floats from subnormal to 1e308 in magnitude, with a
    few special values, infinities among them, at drawn rows."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.uniform(-9.9, 9.9, n) * 10.0 ** rng.integers(-330, 308, n)
    for value in draw(st.lists(st.sampled_from(SPECIAL_FLOATS), max_size=4)):
        values[draw(st.integers(0, n - 1))] = value
    return values


def _ints(draw, n: int, low: int, high: int) -> np.ndarray:
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.integers(low, high, n, endpoint=True, dtype=np.int64)
    for value in draw(st.lists(st.sampled_from(INT64_EXTREMES), max_size=4)):
        values[draw(st.integers(0, n - 1))] = value
    return values


def _grid(draw, n: int) -> np.ndarray:
    """A grid, mostly evenly spaced and rising."""
    start, step = draw(st.sampled_from([
        (0.0, TINY), (-0.0, 1e-3), (TINY, TINY), (0.44, 0.1), (1540.0, 0.1), (1540.0, 7.5),
        (-HUGE, 1e304), (1e300, 1e304), (0.0, 1e304), (1540.0, TINY)]))
    grid = start + step * np.arange(n)
    if draw(st.integers(0, 3)) == 0:
        grid = np.sort(np.abs(_floats(draw, n)))
    return grid


def _write(draw, kind: str, path: Path) -> Path:
    n = draw(st.integers(1, 2000))
    grid = _grid(draw, n)
    if kind == "scan":
        # any columns, valid or not, so a stand-in for a scan, whose step
        # a grid of one point does not give
        scan = SimpleNamespace(wavelength_nm=grid, rate_hz=np.abs(_floats(draw, n)),
                               filter_fwhm_nm=0.2, step_nm=0.0, integration_time_s=1.0)
        return dataio.write_scan_csv(scan, path)
    if kind == "sweep":
        sweep = PowerSweep.__new__(PowerSweep)
        sweep.pump_w, sweep.value = grid, _floats(draw, n)
        sweep.sigma = np.abs(_floats(draw, n))
        sweep.kind = "noise_vis"
        return dataio.write_sweep_csv(sweep, path)
    duration = draw(st.sampled_from([TINY, 1e-3, 10.0, HUGE, np.inf, -1.0]))
    counts = SweepCounts(_ints(draw, n, 0, 10**6), 1.0, _ints(draw, n, 0, 2**32 - 1))
    object.__setattr__(counts, "duration_s", duration)   # valid or not
    return dataio.write_counts_csv(grid, counts, path)


def _read(kind: str, path: Path):
    """What the reader of ``kind`` returns, as comparable values: each
    array's dtype and bytes, each other value with its type; or the
    error's type and message."""
    try:
        if kind == "scan":
            scan, meta = dataio.read_scan_csv(path)
            arrays = [scan.wavelength_nm, scan.rate_hz]
            rest = [scan.filter_fwhm_nm, scan.step_nm, scan.integration_time_s, meta]
        elif kind == "sweep":
            sweep = dataio.read_sweep_csv(path, "noise_vis")
            arrays, rest = [sweep.pump_w, sweep.value, sweep.sigma], [sweep.kind]
        else:
            pump_w, counts, durations, seeds, meta = dataio.read_counts_csv(path)
            arrays, rest = [pump_w, counts, durations], [[(type(s), s) for s in seeds], meta]
    except (DataFormatError, ParameterError) as exc:
        return type(exc).__name__, str(exc)
    return [(a.dtype.str, a.tobytes()) for a in arrays], [(type(v), repr(v)) for v in rest]


@pytest.mark.parametrize("kind", ["scan", "sweep", "counts"])
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_a_read_from_the_handoff_equals_a_parsed_read(tmp_path, kind, data):
    path = _write(data.draw, kind, tmp_path / f"{kind}.csv")
    assert len(dataio._handoff) == 1
    kept = _read(kind, path)
    assert not dataio._handoff        # taken, so the read did not parse
    dataio._handoff.clear()
    assert _read(kind, path) == kept


def _scan_file(root: Path) -> Path:
    grid = 1540.0 + 0.5 * np.arange(5)
    return dataio.write_scan_csv(SpectralScan(grid, [1.0, 2.0, 3.0, 4.0, 5.0]),
                                 root / "scan.csv")


def _sweep_file(root: Path) -> Path:
    sweep = PowerSweep(np.array([0.1, 0.2, 0.3]), np.array([1.0, 2.0, 3.0]),
                       np.array([0.5, 0.5, 0.5]), "noise_vis")
    return dataio.write_sweep_csv(sweep, root / "sweep.csv")


def _counts_file(root: Path) -> Path:
    counts = SweepCounts(np.array([5, 6, 7]), 10.0, np.array([11, 12, 13], dtype=np.uint32))
    return dataio.write_counts_csv(np.array([0.1, 0.2, 0.3]), counts, root / "counts.csv")


WRITERS = {"scan": _scan_file, "sweep": _sweep_file, "counts": _counts_file}


def _edit_cell(lines):
    lines[2] = lines[2].replace(",", ",x", 1)


def _duplicate_row(lines):
    lines.insert(2, lines[2])


def _drop_line(lines):
    del lines[2]


# the parent's message for each edit, after the file name
EDITED = [
    ("scan", _edit_cell, ":3: column 'rate_hz' is not a number: 'x2.0'"),
    ("scan", _duplicate_row, ":4: column 'wavelength_nm' must be strictly increasing, "
                             "got 1540.5"),
    ("scan", _drop_line, ":4: column 'wavelength_nm' must be evenly spaced, got 1541.5"),
    ("sweep", _edit_cell, ":3: column 'value' is not a number: 'x2.0'"),
    ("sweep", _duplicate_row, ":4: column 'pump_w' must be strictly increasing, got 0.2"),
    ("sweep", _drop_line, None),
    ("counts", _edit_cell, ":3: counts and seed must be integers"),
    ("counts", _duplicate_row, ":4: column 'pump_w' must be strictly increasing, got 0.2"),
    ("counts", _drop_line, None),
]


@pytest.mark.parametrize("kind, edit, error", EDITED,
                         ids=[f"{kind}-{edit.__name__}" for kind, edit, _ in EDITED])
def test_a_file_changed_after_writing_is_parsed(tmp_path, kind, edit, error):
    path = WRITERS[kind](tmp_path)
    lines = path.read_text().splitlines()
    edit(lines)
    path.write_text("\n".join(lines) + "\n")
    read = _read(kind, path)
    assert len(dataio._handoff) == 1          # the written text is still kept
    dataio._handoff.clear()
    assert read == _read(kind, path)
    if error is None:                         # a valid table of two rows
        assert len(read[0][0][1]) == 2 * 8
    else:
        assert read == ("DataFormatError", f"{path}{error}")


@pytest.fixture
def parses(monkeypatch):
    """The lines of each file that the readers parsed with ``csv.reader``."""
    reader, seen = dataio.csv.reader, []
    monkeypatch.setattr(dataio.csv, "reader", lambda lines: seen.append(lines) or reader(lines))
    return seen


@pytest.mark.parametrize("kind", ["scan", "sweep", "counts"])
def test_a_second_read_parses(tmp_path, kind, parses):
    path = WRITERS[kind](tmp_path)
    first = _read(kind, path)
    assert parses == []
    assert _read(kind, path) == first
    assert parses == [path.read_text().splitlines()]


def test_the_oldest_table_goes_first(tmp_path, parses):
    sweeps = [PowerSweep(np.array([0.1, 0.2]), np.array([1.0, k]), np.array([0.5, 0.5]),
                         "noise_vis") for k in range(dataio._TABLES_KEPT + 1)]
    paths = [tmp_path / f"sweep{k}.csv" for k in range(len(sweeps))]
    # the first is written again after the second, so the second is the oldest
    for k in [0, 1, 0, *range(2, len(sweeps))]:
        dataio.write_sweep_csv(sweeps[k], paths[k])
    assert len(dataio._handoff) == dataio._TABLES_KEPT
    for k, path in enumerate(paths):
        assert np.array_equal(dataio.read_sweep_csv(path, "noise_vis").value, sweeps[k].value)
    assert parses == [paths[1].read_text().splitlines()]
    assert not dataio._handoff


def test_tables_that_do_not_read_back_as_written_are_not_kept(tmp_path):
    # -nan is written as nan, which parses as positive
    nan = PowerSweep.__new__(PowerSweep)
    nan.pump_w, nan.value, nan.sigma, nan.kind = (
        np.array([0.1]), np.array([-np.nan]), np.array([1.0]), "noise_vis")
    dataio.write_sweep_csv(nan, tmp_path / "nan.csv")
    assert (tmp_path / "nan.csv").read_text().splitlines()[1] == "0.1,nan,1.0"
    # no reader reads a residual table
    result = FitResult(names=["a"], values={"a": 1.0},
                       covariance=np.array([[0.01]]), chi2_reduced=1.0, n_iterations=1,
                       converged=True, message="ok", n_points=1)
    sweep = PowerSweep(np.array([0.1]), np.array([1.0]), np.array([0.5]), "noise_vis")
    dataio.write_fit(result, tmp_path / "fit.json", "test", [], [("a", sweep, np.ones(1))], {})
    assert (tmp_path / "residuals_a.csv").exists()
    assert not dataio._handoff


def test_threads_share_the_handoff(tmp_path):
    # more threads than cores, each writing and reading back more tables
    # than are kept, with thread switches as often as the interpreter allows
    failures = []

    def write_and_read(t):
        try:
            for r in range(150):
                k = r % (dataio._TABLES_KEPT + 1)
                value = np.array([t, r, k], dtype=float)
                sweep = PowerSweep(np.array([0.1, 0.2, 0.3]), value, np.ones(3), "noise_vis")
                path = dataio.write_sweep_csv(sweep, tmp_path / f"t{t}k{k}.csv")
                if r % 3:   # leave some tables unread, to be evicted
                    read = dataio.read_sweep_csv(path, "noise_vis")
                    if read.value.tobytes() != value.tobytes():
                        failures.append((t, r))
        except Exception as exc:  # reported by the assertion below
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=write_and_read, args=(t,)) for t in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert 0 < len(dataio._handoff) <= dataio._TABLES_KEPT
