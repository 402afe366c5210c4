"""The table writers: every table equals one written row by row with
``repr``, whatever grids the process wrote before it, and a process that
has already formatted a run's grids writes the same bytes as a fresh one."""

import contextlib
import hashlib
import io
import operator
import os
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from dfgnoise import cli, dataio
from dfgnoise.counting import SweepCounts
from dfgnoise.errors import ParameterError
from dfgnoise.fitting import FitResult, PowerSweep
from dfgnoise.spectra import SpectralScan

TINY = 2.2250738585072014e-308     # the smallest normal float
# finite floats from the ranges where repr changes form: subnormals, the
# switch to exponent notation below 1e-4 and from 1e16 on, and any other
# (bounded so that a difference of two stays finite)
MAGNITUDES = st.one_of(
    st.floats(0.0, TINY, exclude_max=True),
    st.floats(1e-6, 1e-4),
    st.floats(1e15, 1e17),
    st.floats(0.0, 1e300),
)
FLOATS = st.one_of(MAGNITUDES, MAGNITUDES.map(operator.neg))
INT64 = st.one_of(st.integers(-2**63, 2**63 - 1), st.sampled_from([-2**63, 2**63 - 1, 0]))
SEEDS = st.integers(0, 2**32 - 1)
PUMP_GRIDS = st.lists(MAGNITUDES, min_size=1, max_size=40, unique=True).map(sorted)


def _reference_table(header: str, *columns) -> str:
    """A table written row by row: each row's Python numbers joined by
    commas, each written with ``repr``."""
    rows = [",".join(map(repr, row)) for row in zip(*columns)]
    return "".join(line + "\n" for line in [header, *rows])


def _floats(values) -> list[float]:
    return np.asarray(values, dtype=float).tolist()


@st.composite
def scans(draw) -> SpectralScan:
    start, step = draw(FLOATS), draw(MAGNITUDES)
    n = draw(st.integers(2, 40))
    rates = draw(st.lists(MAGNITUDES, min_size=n, max_size=n))
    try:
        return SpectralScan(start + step * np.arange(n), rates)
    except ParameterError:
        assume(False)


def _sweep(draw, grid: list[float]) -> PowerSweep:
    n = len(grid)
    return PowerSweep(grid, draw(st.lists(FLOATS, min_size=n, max_size=n)),
                      draw(st.lists(MAGNITUDES.filter(bool), min_size=n, max_size=n)),
                      "noise_vis")


def _fit(n_points: int) -> FitResult:
    return FitResult(names=["a"], values={"a": 1.0}, sigmas={"a": 0.1},
                     covariance=np.array([[0.01]]), chi2_reduced=1.0, n_iterations=3,
                     converged=True, message="ok", n_points=n_points)


def _write_and_expect(draw, kind: str, root: Path, grid=None) -> list[tuple[Path, str]]:
    """Write one random table (or, for a fit, its two residual tables) of
    ``kind`` under ``root``, on ``grid`` when one is given; returns each
    file written with the text the reference writer gives for it."""
    if kind == "scan":
        scan = draw(scans())
        path = dataio.write_scan_csv(scan, root / "scan.csv")
        return [(path, _reference_table("wavelength_nm,rate_hz", _floats(scan.wavelength_nm),
                                        _floats(scan.rate_hz)))]
    grid = grid if grid is not None else draw(PUMP_GRIDS)
    n = len(grid)
    if kind == "counts":
        counts = draw(st.lists(INT64, min_size=n, max_size=n))
        seeds = draw(st.lists(SEEDS, min_size=n, max_size=n))
        duration = draw(MAGNITUDES.filter(bool))
        sweep = SweepCounts(np.array(counts, dtype=np.int64), duration,
                            np.array(seeds, dtype=np.uint32))
        path = dataio.write_counts_csv(np.array(grid), sweep, root / "counts.csv")
        return [(path, _reference_table("pump_w,counts,duration_s,seed", _floats(grid),
                                        counts, [duration] * n, seeds))]
    sweep = _sweep(draw, grid)
    if kind == "sweep":
        path = dataio.write_sweep_csv(sweep, root / "sweep.csv")
        return [(path, _reference_table("pump_w,value,sigma", _floats(sweep.pump_w),
                                        _floats(sweep.value), _floats(sweep.sigma)))]
    models = [np.array(draw(st.lists(FLOATS, min_size=n, max_size=n))) for _ in range(2)]
    dataio.write_fit(_fit(n), root / "fit.json", "test", [],
                     [(tag, sweep, model) for tag, model in zip("ab", models)], {})
    value, sigma = _floats(sweep.value), _floats(sweep.sigma)
    return [(root / f"residuals_{tag}.csv", _reference_table(
        "pump_w,value,model,residual,sigma", _floats(sweep.pump_w), value, _floats(model),
        [v - m for v, m in zip(value, _floats(model))], sigma))
        for tag, model in zip("ab", models)]


@pytest.mark.parametrize("kind", ["scan", "sweep", "counts", "fit"])
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_tables_equal_the_row_by_row_reference(kind, data):
    with tempfile.TemporaryDirectory() as tmp:
        for path, expected in _write_and_expect(data.draw, kind, Path(tmp)):
            assert path.read_text() == expected


@pytest.mark.parametrize("kind", ["sweep", "counts", "fit"])
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_a_signed_zero_grid_is_its_own_grid(kind, data):
    # 0.0 and -0.0 are equal floats but are written differently
    grid = sorted(data.draw(st.lists(st.floats(1e-3, 1.0), max_size=5, unique=True)))
    with tempfile.TemporaryDirectory() as tmp:
        for first in (0.0, -0.0, 0.0):
            for path, expected in _write_and_expect(data.draw, kind, Path(tmp), [first, *grid]):
                assert path.read_text() == expected
                assert path.read_text().splitlines()[1].startswith(repr(first) + ",")


def test_grid_memo_keeps_only_the_last_grids(tmp_path, monkeypatch):
    monkeypatch.setattr(dataio, "_GRID_CELLS", {})
    grids = [np.linspace(0.0, 0.1 * k, 7) for k in range(1, 7)]
    sweeps = [PowerSweep(grid, np.arange(7.0) + k, np.full(7, 0.5), "noise_vis")
              for k, grid in enumerate(grids)]
    # the fourth write touches the first grid, so it outlives the next two
    order = [0, 1, 2, 0, 3, 4, 5]
    for grid, sweep in [(grids[k], sweeps[k]) for k in order]:
        path = dataio.write_sweep_csv(sweep, tmp_path / "sweep.csv")
        assert path.read_text() == _reference_table(
            "pump_w,value,sigma", grid.tolist(), sweep.value.tolist(), sweep.sigma.tolist())
        # at most the last few grids are kept, and never a data column
        assert len(dataio._GRID_CELLS) <= dataio._GRID_CELLS_KEPT
        assert set(dataio._GRID_CELLS) <= {g.tobytes() for g in grids}
        assert grid.tobytes() in dataio._GRID_CELLS
    assert dataio._GRID_CELLS_KEPT == 4
    assert list(dataio._GRID_CELLS) == [grids[k].tobytes() for k in (0, 3, 4, 5)]


def test_threads_share_the_grid_memo(monkeypatch):
    # more threads than cores, each formatting more grids than are kept,
    # with thread switches as often as the interpreter allows
    monkeypatch.setattr(dataio, "_GRID_CELLS", {})
    grids = [np.linspace(0.0, 0.1 * k, 3) for k in range(1, 7)]
    expected = [tuple(map(repr, grid.tolist())) for grid in grids]
    failures = []

    def format_grids(t):
        try:
            for r in range(20_000):
                k = (t + r) % len(grids)
                if dataio._grid_cells(grids[k]) != expected[k]:
                    failures.append((t, r))
        except Exception as exc:  # reported by the assertion below
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=format_grids, args=(t,)) for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert len(dataio._GRID_CELLS) == dataio._GRID_CELLS_KEPT


# the commands that write counts, residual and scan files, on 2000 points
COMMANDS = [
    ["simulate", "power-sweep", "--kind", "noise_tele_detuned", "--config", "run.yaml",
     "--out", "out"],
    ["simulate", "power-sweep", "--kind", "noise_vis", "--config", "run.yaml", "--out", "out"],
    ["simulate", "telecom-spectrum", "--config", "run.yaml", "--out", "out"],
    ["fit", "noise", "--config", "run.yaml", "--out", "out",
     "--detuned", "out/sweep_noise_tele_detuned.csv", "--visible", "out/sweep_noise_vis.csv"],
]


def _digests(root: Path) -> dict[str, str]:
    return {str(path.relative_to(root)): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(root.rglob("*")) if path.is_file()}


def _write_config(root: Path) -> None:
    root.mkdir()
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["validate-config", "--write-template", str(root / "run.yaml")]) == 0
    config = root / "run.yaml"
    config.write_text(config.read_text().replace("n_points: 12", "n_points: 2000", 1))


def test_warm_grids_write_the_same_bytes_as_a_fresh_process(tmp_path, monkeypatch, capsys):
    fresh = tmp_path / "fresh"
    _write_config(fresh)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        src, os.environ.get("PYTHONPATH")]))}
    for argv in COMMANDS:
        proc = subprocess.run([sys.executable, "-m", "dfgnoise.cli", *argv], cwd=fresh,
                              env=env, capture_output=True, text=True)
        assert proc.returncode == cli.EXIT_OK, (argv, proc.stderr)
    written = _digests(fresh)
    assert sum(name.endswith(".csv") for name in written) == 5
    assert "2000" in (fresh / "run.yaml").read_text()
    for run in ("first", "warm"):
        _write_config(tmp_path / run)
        monkeypatch.chdir(tmp_path / run)
        for argv in COMMANDS:
            assert cli.main(argv) == cli.EXIT_OK, (argv, capsys.readouterr().err)
        assert _digests(tmp_path / run) == written
    assert len((tmp_path / "warm" / "out" / "residuals_noise_visible.csv").read_text().splitlines()) == 2001
