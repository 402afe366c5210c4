"""Tests for configuration validation and file round trips."""

from dataclasses import replace

import numpy as np
import pytest
import yaml

from dfgnoise import cli, config, dataio, pipelines
from dfgnoise.config import DEFAULT_CONFIG_YAML, default_config, load_config, parse_config, write_template
from dfgnoise.counting import SweepCounts
from dfgnoise.errors import ConfigError, DataFormatError
from dfgnoise.fitting import FitResult, PowerSweep
from dfgnoise.spectra import SpectralScan


def _raw():
    return yaml.safe_load(DEFAULT_CONFIG_YAML)


# ------------------------------------------------------------------ config

def test_default_config_is_valid():
    cfg = default_config()
    assert cfg.converter.length_cm == 4.0
    assert cfg.converter.alpha_n == pytest.approx(129e3)
    assert cfg.converter.bandwidth_ref_hz == pytest.approx(25e9)
    assert cfg.alpha_n_visible == pytest.approx(391e3)
    assert [m.label for m in cfg.modes] == ["TEM00", "TEM01", "TEM02"]
    assert cfg.modes[0].lambda_vis_nm == pytest.approx(579.9798, abs=1e-3)
    assert cfg.chains["telecom"].dark_rate_hz == 340.0
    assert cfg.chains["visible"].detector_efficiency == 0.56


def test_unknown_key_is_named():
    raw = _raw()
    raw["device"]["lenght_cm"] = 4.0
    with pytest.raises(ConfigError, match="unknown key 'device.lenght_cm'"):
        parse_config(raw)


def test_unknown_toplevel_key_is_named():
    raw = _raw()
    raw["outputs"] = "here"
    with pytest.raises(ConfigError, match="unknown key 'outputs'"):
        parse_config(raw)


def test_missing_key_reported():
    raw = _raw()
    del raw["device"]["length_cm"]
    with pytest.raises(ConfigError, match="device.length_cm"):
        parse_config(raw)


def test_wrong_type_reported():
    raw = _raw()
    raw["device"]["eta_max_int"] = "most of it"
    with pytest.raises(ConfigError, match="device.eta_max_int"):
        parse_config(raw)


def test_multiple_errors_collected():
    raw = _raw()
    raw["device"]["eta_max_int"] = 1.4
    raw["sweeps"]["n_points"] = 1
    with pytest.raises(ConfigError) as excinfo:
        parse_config(raw)
    text = str(excinfo.value)
    assert "device" in text and "sweeps" in text


def test_schema_version_checked():
    raw = _raw()
    raw["schema_version"] = 99
    with pytest.raises(ConfigError, match="schema_version"):
        parse_config(raw)


def test_explicit_visible_center_checked():
    raw = _raw()
    raw["modes"][0]["lambda_vis_nm"] = 579.98  # consistent
    parse_config(raw)
    raw["modes"][0]["lambda_vis_nm"] = 580.50  # 0.5 nm off
    with pytest.raises(ConfigError, match="energy-conservation"):
        parse_config(raw)


def test_collection_must_reference_known_modes():
    raw = _raw()
    raw["collection"]["smf"]["TEM99"] = 0.5
    with pytest.raises(ConfigError, match="TEM99"):
        parse_config(raw)


def test_template_round_trip(tmp_path):
    path = write_template(tmp_path / "sub" / "run.yaml")
    cfg = load_config(path)
    assert cfg.source.endswith("run.yaml")
    assert cfg.converter.eta_n == pytest.approx(0.63)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "nope.yaml")


def test_load_config_bad_yaml(tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("seed: [unclosed")
    with pytest.raises(ConfigError, match="not valid YAML"):
        load_config(path)


def test_duplicate_key_rejected(tmp_path, capsys):
    path = tmp_path / "dup.yaml"
    path.write_text(DEFAULT_CONFIG_YAML.replace("seed: 20210412", "seed: 1\nseed: 2"))
    with pytest.raises(ConfigError, match="duplicate key 'seed' on line"):
        load_config(path)
    assert cli.main(["validate-config", "--config", str(path)]) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert "duplicate key 'seed'" in err and err.count("\n") == 1


def test_scan_grid_generation():
    cfg = default_config()
    grid = pipelines._scan_grid(cfg.telecom_scan)
    assert len(grid) == cfg.telecom_scan.n_points == 551
    assert grid[0] == pytest.approx(1520.0)
    assert grid[-1] == pytest.approx(1575.0)
    assert np.allclose(np.diff(grid), 0.1)


def _mutated(path, value):
    """The template with the key at ``path`` (a tuple) set to ``value``, or
    deleted when ``value`` is ``...``."""
    raw = _raw()
    parent = raw
    for key in path[:-1]:
        parent = parent[key]
    if value is ...:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return raw


# Each single mutation yields exactly one message, about the mutated key:
# objects are only built from sections that parsed cleanly, so no
# placeholder value adds a second, false message.
@pytest.mark.parametrize("path, value, message", [
    (("device", "eta_max_int"), "most of it",
     "device.eta_max_int: expected a number, got str ('most of it')"),
    (("device", "length_cm"), ..., "device.length_cm: missing required key"),
    (("device", "lenght_cm"), 4.0, "unknown key 'device.lenght_cm'"),
    (("device", "eta_max_int"), 1.4,
     "device/noise: efficiencies must satisfy 0 <= eta_max_ext <= eta_max_int <= 1, "
     "got ext=0.46, int=1.4"),
    (("schema_version",), "1", "schema_version: expected an integer, got '1'"),
    (("schema_version",), 99,
     "schema_version: expected 1, got 99 (this toolkit only reads schema version 1)"),
    (("seed",), -3, "seed: must be non-negative"),
    (("pump_wavelength_nm",), 0.0, "pump_wavelength_nm: must be positive"),
    (("noise", "alpha_n_vis_hz_per_w_cm"), -1.0,
     "noise.alpha_n_vis_hz_per_w_cm: must be non-negative"),
    (("modes",), [], "modes: expected a non-empty list"),
    (("modes", 1, "label"), 5, "modes[1].label: expected a string, got 5"),
    (("modes", 2), "TEM02", "modes[2]: expected a mapping, got str"),
    (("chains", "telecom", "transmissions", 1), ["tg_filter"],
     "chains.telecom.transmissions[1]: expected a [label, factor] pair"),
    (("chains", "visible", "transmissions", 0), ["fiber_coupling", "high"],
     "chains.visible.transmissions[0]: factor must be a number, got 'high'"),
    (("chains", "visible", "transmissions", 0), ["fiber_coupling", float("nan")],
     "chains.visible.transmissions[0]: expected a finite number"),
    (("collection", "smf", "TEM99"), 0.5, "collection.smf.TEM99: no such mode in 'modes'"),
    (("collection", "mmf", "TEM00"), 1.5,
     "collection.mmf.TEM00: efficiency must be a number in [0, 1]"),
    (("filters",), 5, "filters: expected a mapping, got int"),
    (("filters", "tg", "shape"), "triangular",
     "filters.tg: shape must be gaussian or rectangular, got 'triangular'"),
    (("scans", "telecom", "stop_nm"), ..., "scans.telecom.stop_nm: missing required key"),
    (("scans", "telecom", "step_nm"), float("nan"),
     "scans.telecom.step_nm: expected a finite number"),
    (("sweeps", "n_points"), 1, "sweeps: sweep n_points must be at least 2"),
    (("scans", "telecom", "stop_nm"), 1520.05,
     "scans.telecom: scan from 1520.0 to 1520.05 nm in 0.1 nm steps has a single point; "
     "it needs at least two"),
])
def test_config_message_table(path, value, message):
    with pytest.raises(ConfigError) as excinfo:
        parse_config(_mutated(path, value))
    assert str(excinfo.value).splitlines() == ["invalid configuration (<dict>):", f"  - {message}"]


def test_optional_keys_may_be_left_out():
    raw = _raw()
    del raw["filters"]["tg"]["center_nm"]
    del raw["filters"]["tg"]["peak_transmission"]
    cfg = parse_config(raw)
    assert (cfg.tg_filter.center_nm, cfg.tg_filter.peak_transmission) == (0.0, 1.0)


@pytest.mark.parametrize("path", [
    ("scans", "telecom", "step_nm"),
    ("device", "eta_n_per_w_cm2"),
    ("chains", "telecom", "dark_rate_hz"),
])
@pytest.mark.parametrize("value, spelling", [
    (float("nan"), ".nan"), (float("inf"), ".inf"), (float("-inf"), "-.inf")])
def test_validate_config_rejects_non_finite(tmp_path, capsys, path, value, spelling):
    config = tmp_path / "run.yaml"
    config.write_text(yaml.safe_dump(_mutated(path, value)))
    assert spelling in config.read_text()
    assert cli.main(["validate-config", "--config", str(config)]) == cli.EXIT_DATA
    assert f"{'.'.join(path)}: expected a finite number" in capsys.readouterr().err


def test_validate_config_rejects_negative_seed(tmp_path, capsys):
    config = tmp_path / "run.yaml"
    config.write_text(DEFAULT_CONFIG_YAML.replace("seed: 20210412", "seed: -3"))
    assert cli.main(["validate-config", "--config", str(config)]) == cli.EXIT_DATA
    assert "seed: must be non-negative" in capsys.readouterr().err


@pytest.mark.parametrize("old, new", [
    ("step_nm: 0.10}", "step_nm: 1e-1}"),
    ("bandwidth_ref_hz: 25.0e+09", "bandwidth_ref_hz: 25e9"),
    ("bandwidth_ref_hz: 25.0e+09", "bandwidth_ref_hz: 2.5E10"),
    ("alpha_n_vis_hz_per_w_cm: 391.0e+03", "alpha_n_vis_hz_per_w_cm: +.391e+6"),
])
def test_exponent_form_numbers_are_floats(tmp_path, old, new):
    # YAML 1.1 reads an exponent without a dot or a sign as a string;
    # configs are read with the YAML 1.2 float syntax
    config = tmp_path / "run.yaml"
    config.write_text(DEFAULT_CONFIG_YAML.replace(old, new))
    assert new in config.read_text()
    assert repr(replace(load_config(config), source="")) == repr(replace(default_config(), source=""))
    assert cli.main(["validate-config", "--config", str(config)]) == 0


@pytest.mark.parametrize("spelling", ["1e-1x", "e-1", "1e", "0.1 nm", "0x1p-3"])
def test_non_numeric_strings_still_rejected(tmp_path, capsys, spelling):
    config = tmp_path / "run.yaml"
    config.write_text(DEFAULT_CONFIG_YAML.replace("step_nm: 0.10}", f"step_nm: {spelling}}}"))
    assert cli.main(["validate-config", "--config", str(config)]) == cli.EXIT_DATA
    assert (f"scans.telecom.step_nm: expected a number, got str ('{spelling}')"
            in capsys.readouterr().err)


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML was built without libyaml")
@pytest.mark.parametrize("text", [
    DEFAULT_CONFIG_YAML,
    "seed: [unclosed",
    DEFAULT_CONFIG_YAML.replace("seed: 20210412", "seed: 1\nseed: 2"),
    DEFAULT_CONFIG_YAML.replace("step_nm: 0.10}", "step_nm: 1e-1}"),
    DEFAULT_CONFIG_YAML.replace("bandwidth_ref_hz: 25.0e+09", "bandwidth_ref_hz: 25e9"),
    DEFAULT_CONFIG_YAML.replace("step_nm: 0.10}", "step_nm: 1e-1x}"),
    DEFAULT_CONFIG_YAML.replace("step_nm: 0.10}", "step_nm: .nan}"),
    DEFAULT_CONFIG_YAML.replace("seed: 20210412", "seed: -3"),
], ids=["template", "unclosed", "duplicate", "1e-1", "25e9", "1e-1x", "nan", "seed-3"])
def test_loader_bases_read_alike(tmp_path, monkeypatch, text):
    # libyaml's parser and PyYAML's own give the same config or the same error;
    # errors are compared by their first line, as the parsers word the
    # position lines that follow differently
    path = tmp_path / "run.yaml"
    path.write_text(text)
    outcomes = []
    for base in (yaml.SafeLoader, yaml.CSafeLoader):
        monkeypatch.setattr(config, "_Loader", config._loader(base))
        try:
            outcomes.append(repr(replace(load_config(path), source="")))
        except ConfigError as exc:
            outcomes.append(f"ConfigError: {str(exc).splitlines()[0]}")
    assert outcomes[0] == outcomes[1]
    if text == DEFAULT_CONFIG_YAML:
        assert outcomes[0] == repr(replace(default_config(), source=""))


# --------------------------------------------------------------- round trips

def test_scan_csv_round_trip(tmp_path):
    grid = np.arange(1540.0, 1542.0, 0.04)
    scan = SpectralScan(grid, 12345.6789 * np.exp(-((grid - 1541.0) ** 2)), 0.2, 0.04, 10.0)
    path = dataio.write_scan_csv(scan, tmp_path / "scan.csv", metadata={"pump_w": 0.44})
    loaded, meta = dataio.read_scan_csv(path)
    assert np.array_equal(loaded.wavelength_nm, scan.wavelength_nm)
    assert np.array_equal(loaded.rate_hz, scan.rate_hz)
    assert loaded.filter_fwhm_nm == scan.filter_fwhm_nm
    assert loaded.integration_time_s == scan.integration_time_s
    assert meta["pump_w"] == 0.44


def test_sweep_csv_round_trip(tmp_path):
    sweep = PowerSweep(
        np.array([0.1, 0.2, 0.3]),
        np.array([1.0 / 3.0, 2.0 / 7.0, 0.661234567891234]),
        np.array([0.01, 0.01, 0.02]),
        "efficiency_int",
    )
    path = dataio.write_sweep_csv(sweep, tmp_path / "sweep.csv")
    loaded = dataio.read_sweep_csv(path, "efficiency_int")
    assert loaded.kind == "efficiency_int"
    assert np.array_equal(loaded.pump_w, sweep.pump_w)
    assert np.array_equal(loaded.value, sweep.value)
    assert np.array_equal(loaded.sigma, sweep.sigma)


def test_counts_csv_round_trip(tmp_path):
    sweep = SweepCounts(np.array([123, 456]), 10.0, np.array([42, 43], dtype=np.uint32))
    path = dataio.write_counts_csv([0.1, 0.2], sweep, tmp_path / "counts.csv",
                                   metadata={"kind": "noise_vis"})
    pump, counts, durations, seeds, meta = dataio.read_counts_csv(path)
    assert np.array_equal(pump, [0.1, 0.2])
    assert np.array_equal(counts, [123, 456])
    assert np.array_equal(durations, [10.0, 10.0])
    assert seeds == [42, 43]
    assert meta["kind"] == "noise_vis"


def test_fit_json_round_trip(tmp_path):
    result = FitResult(
        names=["a", "b"],
        values={"a": 1.2345678901234567, "b": 0.3333333333333333},
        sigmas={"a": 0.01, "b": 0.02},
        covariance=np.array([[1e-4, 0.0], [0.0, 4e-4]]),
        chi2_reduced=0.97,
        n_iterations=7,
        converged=True,
        message="relative cost change below ftol",
        n_points=15,
    )
    path = dataio.write_fit_json(result, tmp_path / "fit.json", "demo",
                                 input_digests={"x.csv": "abc123"})
    payload = dataio.read_fit_json(path)
    assert payload["fit"] == "demo"
    assert payload["parameters"] == result.values
    assert payload["sigmas"] == result.sigmas
    assert payload["covariance"] == [[1e-4, 0.0], [0.0, 4e-4]]
    assert payload["converged"] is True
    assert payload["inputs"] == {"x.csv": "abc123"}


# ---------------------------------------------------------- malformed files

def test_malformed_csv_line_numbered(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("pump_w,value,sigma\n0.1,0.2,0.01\n0.2,oops,0.01\n")
    with pytest.raises(DataFormatError, match=r"bad\.csv:3"):
        dataio.read_sweep_csv(path, kind="efficiency_int")


def test_wrong_header_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("power,rate\n0.1,0.2\n")
    with pytest.raises(DataFormatError, match=r"bad\.csv:1"):
        dataio.read_sweep_csv(path, kind="efficiency_int")


def test_wrong_column_count_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("pump_w,value,sigma\n0.1,0.2\n")
    with pytest.raises(DataFormatError, match="columns"):
        dataio.read_sweep_csv(path, kind="efficiency_int")


@pytest.mark.parametrize("row, message", [
    ("0.2,-1,10.0,8", "counts.csv:3: column 'counts' must be non-negative, got -1"),
    ("0.2,5,0.0,8", "counts.csv:3: column 'duration_s' must be positive and finite, got 0.0"),
    ("0.2,5,-2.5,8", "counts.csv:3: column 'duration_s' must be positive and finite, got -2.5"),
    ("0.2,5,nan,8", "counts.csv:3: column 'duration_s' must be positive and finite, got nan"),
    ("0.2,5,inf,8", "counts.csv:3: column 'duration_s' must be positive and finite, got inf"),
    ("nan,5,10.0,8", "counts.csv:3: column 'pump_w' must be finite and non-negative, got nan"),
    ("-0.5,5,10.0,8", "counts.csv:3: column 'pump_w' must be finite and non-negative, got -0.5"),
    ("inf,5,10.0,8", "counts.csv:3: column 'pump_w' must be finite and non-negative, got inf"),
    # within a row, the pump power is checked before the count and duration
    ("-0.5,-1,0.0,8", "counts.csv:3: column 'pump_w' must be finite and non-negative, got -0.5"),
])
def test_bad_counts_row_rejected(tmp_path, capsys, row, message):
    path = tmp_path / "counts.csv"
    path.write_text(f"pump_w,counts,duration_s,seed\n0.1,4,10.0,7\n{row}\n0.3,-6,-1.0,9\n")
    with pytest.raises(DataFormatError, match=message):
        dataio.read_counts_csv(path)
    dataio.sidecar_path(path).write_text('{"kind": "noise_tele_detuned"}')
    code = cli.main(["fit", "noise", "--detuned", str(path), "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_DATA
    assert capsys.readouterr().err == f"error: {message.replace('counts.csv', str(path))}\n"


@pytest.mark.parametrize("row, message", [
    ("nan,0.3,0.01", "column 'pump_w' must be finite and non-negative, got nan"),
    ("-0.5,0.3,0.01", "column 'pump_w' must be finite and non-negative, got -0.5"),
    ("inf,0.3,0.01", "column 'pump_w' must be finite and non-negative, got inf"),
    ("0.2,nan,0.01", "column 'value' must be finite, got nan"),
    ("0.2,-inf,0.01", "column 'value' must be finite, got -inf"),
    ("0.2,0.3,0", "column 'sigma' must be finite and positive, got 0.0"),
    ("0.2,0.3,-1", "column 'sigma' must be finite and positive, got -1.0"),
    ("0.2,0.3,nan", "column 'sigma' must be finite and positive, got nan"),
    ("0.2,0.3,inf", "column 'sigma' must be finite and positive, got inf"),
    # within a row, the columns are checked in order
    ("-0.5,nan,0", "column 'pump_w' must be finite and non-negative, got -0.5"),
    ("0.2,nan,0", "column 'value' must be finite, got nan"),
])
def test_bad_sweep_row_rejected(tmp_path, capsys, row, message):
    path = tmp_path / "efficiency_int.csv"
    path.write_text(f"pump_w,value,sigma\n0.1,0.2,0.01\n{row}\n0.3,nan,-1.0\n")
    with pytest.raises(DataFormatError, match=f"efficiency_int.csv:3: {message}"):
        dataio.read_sweep_csv(path, "efficiency_int")
    code = cli.main(["fit", "efficiency", "--internal", str(path), "--external", str(path),
                     "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_DATA
    assert capsys.readouterr().err == f"error: {path}:3: {message}\n"


def test_sweep_sidecar_of_another_kind_rejected(tmp_path):
    sweep = PowerSweep([0.1, 0.2], [0.3, 0.4], [0.01, 0.01], "efficiency_ext")
    path = dataio.write_sweep_csv(sweep, tmp_path / "sweep.csv")
    with pytest.raises(DataFormatError, match="kind is 'efficiency_ext', expected 'efficiency_int'"):
        dataio.read_sweep_csv(path, "efficiency_int")


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(DataFormatError, match="empty"):
        dataio.read_scan_csv(path)
