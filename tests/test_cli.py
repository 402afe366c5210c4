"""End-to-end tests of the command-line interface."""

import contextlib
import importlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dfgnoise
from dfgnoise import cli, converter, dataio
from dfgnoise.config import default_config, write_template
from dfgnoise.errors import DataFormatError


def run(*argv):
    return cli.main(list(argv))


@pytest.fixture
def outdir(tmp_path):
    return tmp_path / "out"


def usage_error(outdir, *argv) -> str:
    """Run a bad invocation: argparse must exit 2 before ``outdir`` is
    created; returns what it printed to stderr."""
    with pytest.raises(SystemExit) as excinfo, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        run(*argv)
    assert excinfo.value.code == cli.EXIT_USAGE
    assert not outdir.exists()
    return err.getvalue()


# ----------------------------------------------------------------- simulate

def test_simulate_efficiency_peak_location(tmp_path, outdir):
    # fine noiseless grid: the sampled maximum must sit at the analytic peak
    cfg_path = write_template(tmp_path / "cfg.yaml")
    text = cfg_path.read_text().replace("n_points: 12", "n_points: 89")
    cfg_path.write_text(text.replace("efficiency_noise_rel: 0.02", "efficiency_noise_rel: 0.0"))
    assert run("simulate", "efficiency", "--config", str(cfg_path), "--out", str(outdir)) == 0
    sweep = dataio.read_sweep_csv(outdir / "efficiency_int.csv", "efficiency_int")
    p_at_max = sweep.pump_w[np.argmax(sweep.value)]
    assert abs(p_at_max - 0.2448) <= 0.005


def test_simulate_telecom_spectrum_minimum_at_fundamental(outdir):
    assert run("simulate", "telecom-spectrum", "--out", str(outdir)) == 0
    scan, meta = dataio.read_scan_csv(outdir / "telecom_spectrum.csv")
    assert meta["pump_w"] == pytest.approx(0.44)
    minimum = scan.wavelength_nm[np.argmin(scan.rate_hz)]
    assert abs(minimum - 1541.0) <= 0.1


def test_simulate_visible_spectrum_peak_at_partner(outdir):
    assert run("simulate", "visible-spectrum", "--collection", "mmf", "--out", str(outdir)) == 0
    scan, _ = dataio.read_scan_csv(outdir / "visible_spectrum_mmf.csv")
    peak = scan.wavelength_nm[np.argmax(scan.rate_hz)]
    assert abs(peak - 579.98) <= 0.05


def test_simulate_power_sweep_zero_power_is_dark_only(outdir):
    assert run("simulate", "power-sweep", "--kind", "noise_vis", "--out", str(outdir)) == 0
    pump, counts, durations, seeds, meta = dataio.read_counts_csv(outdir / "sweep_noise_vis.csv")
    assert pump[0] == 0.0
    dark_mean = 70.0 * durations[0]
    assert abs(counts[0] - dark_mean) < 5.0 * np.sqrt(dark_mean)
    assert meta["kind"] == "noise_vis"
    assert 0.7 < meta["in_band_fraction"] < 0.85


def test_noise_vis_sweep_without_visible_noise_names_the_key(tmp_path, outdir, capsys):
    # eta_n = 0 leaves no SFG, so no visible noise to sweep
    config = tmp_path / "run.yaml"
    config.write_text(write_template(tmp_path / "base.yaml").read_text().replace(
        "eta_n_per_w_cm2: 0.63", "eta_n_per_w_cm2: 0.0"))
    assert run("simulate", "power-sweep", "--kind", "noise_vis", "--config", str(config),
               "--out", str(outdir)) == cli.EXIT_DATA
    assert capsys.readouterr().err == (
        "error: no visible noise in the TEM00 peak to sweep: device.eta_n_per_w_cm2 is 0\n")


def test_noise_vis_sweep_with_bandpass_off_the_peaks_names_the_keys(tmp_path, outdir, capsys):
    # center_nm may be left out; it then defaults to 0 nm, far from every peak
    config = tmp_path / "run.yaml"
    config.write_text(write_template(tmp_path / "base.yaml").read_text().replace(
        "bp: {shape: gaussian, fwhm_nm: 10.0, center_nm: 580.0, peak_transmission: 0.90}",
        "bp: {shape: gaussian, fwhm_nm: 10.0}"))
    assert run("validate-config", "--config", str(config)) == cli.EXIT_OK
    assert run("simulate", "power-sweep", "--kind", "noise_vis", "--config", str(config),
               "--out", str(outdir)) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "filters.bp.center_nm is 0.0 nm" in err and "filters.bp.fwhm_nm is 10.0 nm" in err


def test_simulate_power_sweep_requires_kind(outdir):
    err = usage_error(outdir, "simulate", "power-sweep", "--out", str(outdir))
    assert "the following arguments are required: --kind" in err


def test_simulate_deterministic_reruns(outdir, tmp_path):
    other = tmp_path / "other"
    for target in (outdir, other):
        assert run("simulate", "power-sweep", "--kind", "noise_tele_onpeak",
                   "--seed", "7", "--out", str(target)) == 0
    a = (outdir / "sweep_noise_tele_onpeak.csv").read_bytes()
    b = (other / "sweep_noise_tele_onpeak.csv").read_bytes()
    assert a == b


def test_emitted_files_reparse_to_identical_bytes(outdir):
    # read back an emitted dataset and re-serialize: floats carry full
    # round-trip precision, so the bytes must match
    assert run("simulate", "efficiency", "--out", str(outdir)) == 0
    path = outdir / "efficiency_int.csv"
    sweep = dataio.read_sweep_csv(path, "efficiency_int")
    rewritten = dataio.write_sweep_csv(sweep, outdir / "rewritten.csv")
    assert rewritten.read_bytes() == path.read_bytes()


def test_simulate_seed_changes_data(outdir, tmp_path):
    other = tmp_path / "other"
    assert run("simulate", "power-sweep", "--kind", "noise_tele_onpeak",
               "--seed", "7", "--out", str(outdir)) == 0
    assert run("simulate", "power-sweep", "--kind", "noise_tele_onpeak",
               "--seed", "8", "--out", str(other)) == 0
    a = (outdir / "sweep_noise_tele_onpeak.csv").read_bytes()
    b = (other / "sweep_noise_tele_onpeak.csv").read_bytes()
    assert a != b


# ---------------------------------------------------------------------- fit

def test_fit_efficiency_from_simulated_data(outdir):
    assert run("simulate", "efficiency", "--out", str(outdir)) == 0
    assert run("fit", "efficiency", "--internal", str(outdir / "efficiency_int.csv"),
               "--external", str(outdir / "efficiency_ext.csv"), "--out", str(outdir)) == 0
    payload = dataio.read_fit_json(outdir / "fit_efficiency.json")
    assert payload["parameters"]["eta_n"] == pytest.approx(0.63, abs=0.03)
    assert payload["parameters"]["eta_max_int"] == pytest.approx(0.67, abs=0.03)
    assert payload["converged"] is True
    assert (outdir / "residuals_efficiency_int.csv").exists()
    assert (outdir / "residuals_efficiency_ext.csv").exists()
    digests = payload["inputs"]
    assert digests[str(outdir / "efficiency_int.csv")] == dataio.sha256_digest(
        outdir / "efficiency_int.csv"
    )


def test_fit_efficiency_of_a_converter_that_converts_nothing(tmp_path):
    # a valid config with eta_n = 0, in a cold process as a user runs it:
    # a fit, or one line saying which parameter the data leave open
    config = tmp_path / "run.yaml"
    write_template(config)
    config.write_text(config.read_text().replace("eta_n_per_w_cm2: 0.63", "eta_n_per_w_cm2: 0.0"))
    assert run("simulate", "efficiency", "--config", str(config), "--seed", "12",
               "--out", str(tmp_path)) == 0
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "dfgnoise.cli", "fit", "efficiency", "--config", str(config),
         "--internal", str(tmp_path / "efficiency_int.csv"),
         "--external", str(tmp_path / "efficiency_ext.csv"), "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (cli.EXIT_OK, "") or (
        proc.returncode == cli.EXIT_NO_CONVERGENCE and len(proc.stderr.splitlines()) == 1), \
        proc.stderr


def test_fit_efficiency_insufficient_data(outdir, tmp_path, capsys):
    short = tmp_path / "short.csv"
    short.write_text("pump_w,value,sigma\n0.1,0.2,0.01\n0.2,0.5,0.01\n")
    assert run("simulate", "efficiency", "--out", str(outdir)) == 0
    code = run("fit", "efficiency", "--internal", str(short),
               "--external", str(outdir / "efficiency_ext.csv"), "--out", str(outdir))
    assert code == cli.EXIT_DATA
    assert capsys.readouterr().err == (
        f"error: {short} has 2 points, fewer than the 3 that the efficiency fit needs\n")


def test_fit_efficiency_missing_flags(outdir):
    err = usage_error(outdir, "fit", "efficiency", "--out", str(outdir))
    assert "the following arguments are required: --internal, --external" in err


def test_fit_noise_pipeline(outdir):
    assert run("simulate", "power-sweep", "--kind", "noise_tele_detuned", "--out", str(outdir)) == 0
    assert run("simulate", "power-sweep", "--kind", "noise_vis", "--out", str(outdir)) == 0
    assert run("fit", "noise",
               "--detuned", str(outdir / "sweep_noise_tele_detuned.csv"),
               "--visible", str(outdir / "sweep_noise_vis.csv"),
               "--out", str(outdir)) == 0
    payload = dataio.read_fit_json(outdir / "fit_noise.json")
    alpha_tele = payload["parameters"]["alpha_n_tele"]
    alpha_vis = payload["parameters"]["alpha_n_vis"]
    assert alpha_tele == pytest.approx(129e3, rel=0.05)
    assert alpha_vis == pytest.approx(391e3, rel=0.05)
    assert (outdir / "residuals_noise_detuned.csv").exists()
    assert (outdir / "residuals_noise_visible.csv").exists()


@pytest.mark.parametrize("option, kind, suffix, tag", [
    ("--detuned", "noise_tele_detuned", "tele", "detuned"),
    ("--visible", "noise_vis", "vis", "visible"),
])
def test_fit_noise_with_one_input(outdir, option, kind, suffix, tag):
    assert run("simulate", "power-sweep", "--kind", kind, "--out", str(outdir)) == 0
    fit_dir = outdir / "fit"
    assert run("fit", "noise", option, str(outdir / f"sweep_{kind}.csv"),
               "--out", str(fit_dir)) == 0
    payload = dataio.read_fit_json(fit_dir / "fit_noise.json")
    pump = dataio.read_counts_csv(outdir / f"sweep_{kind}.csv")[0]
    assert payload["parameter_order"] == [f"alpha_n_{suffix}"]
    assert payload["n_points"] == len(pump)
    present = {"chi2_reduced_tele", "chi2_reduced_vis", "n_points_tele"} & set(payload)
    assert present == ({"chi2_reduced_tele", "n_points_tele"} if suffix == "tele"
                       else {"chi2_reduced_vis"})
    assert payload.get("n_points_tele", 4) == 4
    assert [p.name for p in fit_dir.glob("residuals_*")] == [f"residuals_noise_{tag}.csv"]
    # the model column is the fitted coefficient times the basis, P*L on
    # detuned data and P*L*dip_depth at the configured shape on visible data
    table = np.loadtxt(fit_dir / f"residuals_noise_{tag}.csv", delimiter=",", skiprows=1)
    assert np.array_equal(table[:, 0], pump)
    params = default_config().converter
    alpha = payload["parameters"][f"alpha_n_{suffix}"]
    if suffix == "tele":
        model = alpha * pump * params.length_cm
    else:
        model = alpha * (pump * params.length_cm * converter.dip_depth(params, pump))
    assert np.array_equal(table[:, 2], model)


def test_fit_noise_requires_some_input(outdir):
    # the one rule argparse cannot declare still leaves through argparse
    err = usage_error(outdir, "fit", "noise", "--out", str(outdir))
    assert "dfgnoise fit noise: error: one of the arguments --detuned --visible is required" in err


def test_fit_noise_rejects_onpeak_as_detuned(outdir):
    # on-peak data would bias the linear fit low; the kind check refuses it
    assert run("simulate", "power-sweep", "--kind", "noise_tele_onpeak", "--out", str(outdir)) == 0
    code = run("fit", "noise", "--detuned", str(outdir / "sweep_noise_tele_onpeak.csv"),
               "--out", str(outdir))
    assert code == cli.EXIT_DATA


def test_fit_malformed_csv_exit_code(outdir, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("pump_w,value,sigma\n0.1,x,0.01\n")
    code = run("fit", "efficiency", "--internal", str(bad), "--external", str(bad),
               "--out", str(outdir))
    assert code == cli.EXIT_DATA


def test_fit_reproducible_json(outdir, tmp_path):
    assert run("simulate", "efficiency", "--out", str(outdir)) == 0
    first = tmp_path / "a"
    second = tmp_path / "b"
    for target in (first, second):
        assert run("fit", "efficiency", "--internal", str(outdir / "efficiency_int.csv"),
                   "--external", str(outdir / "efficiency_ext.csv"), "--out", str(target)) == 0
    assert (first / "fit_efficiency.json").read_bytes() == (second / "fit_efficiency.json").read_bytes()


def test_fit_efficiency_nan_row_is_bad_data(outdir, capsys):
    # a NaN sigma used to pass the positivity check and surface as exit 4
    assert run("simulate", "efficiency", "--out", str(outdir)) == 0
    path = outdir / "efficiency_int.csv"
    lines = path.read_text().splitlines()
    pump, value, _ = lines[3].split(",")
    lines[3] = f"{pump},{value},nan"
    path.write_text("\n".join(lines) + "\n")
    code = run("fit", "efficiency", "--internal", str(path),
               "--external", str(outdir / "efficiency_ext.csv"), "--out", str(outdir))
    assert code == cli.EXIT_DATA
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("corrupt", ['{"kind": "noise_vis",',
                                     '{"kind": "noise_vis", "in_band_fraction": "most"}',
                                     '{"kind": "noise_vis", "in_band_fraction": 0.0}',
                                     '{"kind": "noise_vis", "in_band_fraction": 1.5}'])
def test_corrupt_counts_sidecar_exit_code(outdir, corrupt, capsys):
    assert run("simulate", "power-sweep", "--kind", "noise_vis", "--out", str(outdir)) == 0
    dataio.sidecar_path(outdir / "sweep_noise_vis.csv").write_text(corrupt)
    code = run("fit", "noise", "--visible", str(outdir / "sweep_noise_vis.csv"),
               "--out", str(outdir))
    assert code == cli.EXIT_DATA
    assert "sweep_noise_vis.meta.json" in capsys.readouterr().err


@pytest.mark.parametrize("what, csv_name", [
    ("telecom-spectrum", "telecom_spectrum.csv"),
    ("efficiency", "efficiency_int.csv"),
])
@pytest.mark.parametrize("corrupt", [b'{"seed": 1', b"[1, 2]", b"\xff\xfe"])
def test_corrupt_scan_and_sweep_sidecars_are_data_errors(outdir, what, csv_name, corrupt):
    # the readers raise the error the CLI maps to exit code 3
    assert run("simulate", what, "--out", str(outdir)) == 0
    dataio.sidecar_path(outdir / csv_name).write_bytes(corrupt)
    reader = {"telecom-spectrum": dataio.read_scan_csv,
              "efficiency": lambda path: dataio.read_sweep_csv(path, "efficiency_int")}[what]
    with pytest.raises(DataFormatError):
        reader(outdir / csv_name)


@pytest.mark.parametrize("key", ["filter_fwhm_nm", "step_nm", "integration_time_s"])
@pytest.mark.parametrize("value", ["wide", [1], None, True, float("nan")])
def test_scan_sidecar_number_is_data_error(outdir, key, value):
    assert run("simulate", "telecom-spectrum", "--out", str(outdir)) == 0
    path = outdir / "telecom_spectrum.csv"
    meta = json.loads(dataio.sidecar_path(path).read_text())
    dataio.sidecar_path(path).write_text(json.dumps({**meta, key: value}))
    with pytest.raises(DataFormatError, match=f"telecom_spectrum.meta.json: {key} is not a finite number"):
        dataio.read_scan_csv(path)


@pytest.mark.parametrize("key, value, error", [
    ("step_nm", 5.0, "step_nm is 5.0, but the grid's step is 0.09999999999990905"),
    ("step_nm", -0.1, "step_nm is -0.1, but the grid's step is 0.09999999999990905"),
    ("step_nm", 0.1 * (1 + 2e-9), "step_nm is 0.1000000002, but the grid's step is "
                                  "0.09999999999990905"),
    ("filter_fwhm_nm", -0.5, "filter_fwhm_nm must be non-negative, got -0.5"),
    ("integration_time_s", -1.0, "integration_time_s must be non-negative, got -1.0"),
])
def test_scan_sidecar_that_contradicts_the_scan_is_data_error(outdir, key, value, error):
    # a step of 5 nm read with the template's 0.1 nm grid would put the
    # fitted dip at 12,261,585 nm
    assert run("simulate", "telecom-spectrum", "--out", str(outdir)) == 0
    path = outdir / "telecom_spectrum.csv"
    meta = json.loads(dataio.sidecar_path(path).read_text())
    dataio.sidecar_path(path).write_text(json.dumps({**meta, key: value}))
    with pytest.raises(DataFormatError) as excinfo:
        dataio.read_scan_csv(path)
    assert str(excinfo.value) == f"{dataio.sidecar_path(path)}: {error}"


@pytest.mark.parametrize("step", [0.0, 0.1, 0.09999999999990905, 0.1 * (1 + 5e-10)])
def test_scan_sidecar_step_of_the_grid_reads(outdir, step):
    # 0 means the grid's own step; the template writes 0.09999999999990905,
    # and the scan's step is the grid's whatever step the sidecar holds
    assert run("simulate", "telecom-spectrum", "--out", str(outdir)) == 0
    path = outdir / "telecom_spectrum.csv"
    meta = json.loads(dataio.sidecar_path(path).read_text())
    assert meta["step_nm"] == 0.09999999999990905
    dataio.sidecar_path(path).write_text(json.dumps({**meta, "step_nm": step}))
    scan, _ = dataio.read_scan_csv(path)
    assert scan.step_nm == 0.09999999999990905


@pytest.mark.parametrize("broken", ["missing", "string"])
@pytest.mark.parametrize("command", ["fit-noise", "report"])
def test_efficiency_fit_missing_key_exit_code(outdir, command, broken, capsys):
    assert run("simulate", "efficiency", "--out", str(outdir)) == 0
    assert run("fit", "efficiency", "--internal", str(outdir / "efficiency_int.csv"),
               "--external", str(outdir / "efficiency_ext.csv"), "--out", str(outdir)) == 0
    fit_path = outdir / "fit_efficiency.json"
    payload = json.loads(fit_path.read_text())
    if broken == "missing":
        del payload["parameters"]["eta_max_int"]
    else:
        payload["parameters"]["eta_max_int"] = "0.67"
    fit_path.write_text(json.dumps(payload))
    if command == "report":
        code = run("report", "--efficiency-fit", str(fit_path), "--out", str(outdir))
    else:
        assert run("simulate", "power-sweep", "--kind", "noise_vis", "--out", str(outdir)) == 0
        code = run("fit", "noise", "--visible", str(outdir / "sweep_noise_vis.csv"),
                   "--efficiency-fit", str(fit_path), "--out", str(outdir))
    assert code == cli.EXIT_DATA
    assert "parameters.eta_max_int" in capsys.readouterr().err


@pytest.mark.parametrize("covariance", [
    None,                                           # missing
    "diag(1e-4, 1e-4, 4e-4)",                       # string
    [[1e-4, 0, 0], [0, 1e-4], [0, 0, 4e-4]],        # ragged
    [[1e-4, 0], [0, 1e-4]],                         # not 3x3
])
def test_efficiency_fit_malformed_covariance_exit_code(outdir, covariance, capsys):
    fit = {
        "parameter_order": ["eta_max_int", "eta_max_ext", "eta_n"],
        "parameters": {"eta_max_int": 0.67, "eta_max_ext": 0.46, "eta_n": 0.63},
    }
    if covariance is not None:
        fit["covariance"] = covariance
    assert run("simulate", "power-sweep", "--kind", "noise_vis", "--out", str(outdir)) == 0
    fit_path = outdir / "eff.json"
    fit_path.write_text(json.dumps(fit))
    code = run("fit", "noise", "--visible", str(outdir / "sweep_noise_vis.csv"),
               "--efficiency-fit", str(fit_path), "--out", str(outdir))
    assert code == cli.EXIT_DATA
    assert "covariance must be a finite 3x3 matrix" in capsys.readouterr().err


@pytest.mark.parametrize("order", [None, ["eta_n", "eta_max_int", "eta_max_ext"]],
                         ids=["missing", "reordered"])
def test_efficiency_fit_parameter_order_exit_code(outdir, order, capsys):
    # without the order the covariance cannot be placed; dropping it would
    # understate the visible coefficient's uncertainty
    assert run("simulate", "efficiency", "--out", str(outdir)) == 0
    assert run("fit", "efficiency", "--internal", str(outdir / "efficiency_int.csv"),
               "--external", str(outdir / "efficiency_ext.csv"), "--out", str(outdir)) == 0
    assert run("simulate", "power-sweep", "--kind", "noise_vis", "--out", str(outdir)) == 0
    fit_path = outdir / "fit_efficiency.json"
    payload = json.loads(fit_path.read_text())
    if order is None:
        del payload["parameter_order"]
    else:
        payload["parameter_order"] = order
    fit_path.write_text(json.dumps(payload))
    capsys.readouterr()
    code = run("fit", "noise", "--visible", str(outdir / "sweep_noise_vis.csv"),
               "--efficiency-fit", str(fit_path), "--out", str(outdir))
    assert code == cli.EXIT_DATA
    assert capsys.readouterr().err.startswith("error: efficiency fit: parameter_order must be ")
    assert not (outdir / "fit_noise.json").exists()


@pytest.mark.parametrize("key, value", [("eta_max_int", 1.5), ("eta_max_int", -0.2),
                                        ("eta_max_ext", 1.5), ("eta_n", -0.1)])
@pytest.mark.parametrize("command", ["fit-noise", "report"])
def test_efficiency_fit_that_describes_no_converter_exit_code(outdir, command, key, value,
                                                              capsys):
    # eta_max_ext is capped at eta_max_int before the device is built, so
    # one above 1 is rejected before the cap hides it; the message shows the
    # values the file holds, not the capped ones
    fitted = {"eta_max_int": 0.67, "eta_max_ext": 0.461, "eta_n": 0.63, key: value}
    outdir.mkdir()
    fit_path = outdir / "eff.json"
    fit_path.write_text(json.dumps({
        "parameter_order": ["eta_max_int", "eta_max_ext", "eta_n"], "parameters": fitted,
        "covariance": [[1e-4, 0, 0], [0, 1e-4, 0], [0, 0, 4e-4]]}))
    if command == "report":
        code = run("report", "--efficiency-fit", str(fit_path), "--out", str(outdir))
    else:
        assert run("simulate", "power-sweep", "--kind", "noise_vis", "--out", str(outdir)) == 0
        capsys.readouterr()
        code = run("fit", "noise", "--visible", str(outdir / "sweep_noise_vis.csv"),
                   "--efficiency-fit", str(fit_path), "--out", str(outdir))
    assert code == cli.EXIT_DATA
    err = capsys.readouterr().err
    held = ", ".join(f"{name}={number!r}" for name, number in fitted.items())
    assert err.startswith(f"error: efficiency fit: {held} ") and err.count("\n") == 1


def test_fit_nonconvergence_exit_code(outdir, monkeypatch):
    from dfgnoise import pipelines
    from dfgnoise.fitting import FitResult

    def fake_fit(cfg, a, b, out):
        result = FitResult(names=["x"], values={"x": 1.0}, covariance=np.eye(1),
                           chi2_reduced=1.0, n_iterations=200, converged=False,
                           message="iteration cap of 200 reached", n_points=1)
        return result, out / "fit_efficiency.json"

    monkeypatch.setattr(pipelines, "run_fit_efficiency", fake_fit)
    (outdir / "x.csv").parent.mkdir(parents=True, exist_ok=True)
    code = run("fit", "efficiency", "--internal", "x.csv", "--external", "y.csv",
               "--out", str(outdir))
    assert code == cli.EXIT_NO_CONVERGENCE


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_chain_writes_strict_json(outdir):
    # every emitted .json must be RFC 8259 JSON: no NaN or Infinity
    assert run("simulate", "efficiency", "--out", str(outdir)) == 0
    assert run("simulate", "telecom-spectrum", "--out", str(outdir)) == 0
    for collection in ("smf", "mmf"):
        assert run("simulate", "visible-spectrum", "--collection", collection,
                   "--out", str(outdir)) == 0
    for kind in ("noise_tele_detuned", "noise_tele_onpeak", "noise_vis"):
        assert run("simulate", "power-sweep", "--kind", kind, "--out", str(outdir)) == 0
    assert run("fit", "efficiency", "--internal", str(outdir / "efficiency_int.csv"),
               "--external", str(outdir / "efficiency_ext.csv"), "--out", str(outdir)) == 0
    assert run("fit", "noise", "--detuned", str(outdir / "sweep_noise_tele_detuned.csv"),
               "--visible", str(outdir / "sweep_noise_vis.csv"),
               "--efficiency-fit", str(outdir / "fit_efficiency.json"), "--out", str(outdir)) == 0
    emitted = sorted(outdir.glob("*.json"))
    assert len(emitted) == 10
    for path in emitted:
        json.loads(path.read_text(), parse_constant=_reject_constant)
    assert json.loads((outdir / "fit_noise.json").read_text())["chi2_reduced"] is None


# ------------------------------------------------------------------- report

def test_report_default_parameters(outdir, capsys):
    assert run("report", "--out", str(outdir)) == 0
    text = (outdir / "report.txt").read_text()
    assert "5.16e-06 /(W cm)" in text
    assert "5.16 Hz/(W cm)" in text
    assert "129.0 x 2.50 = 322.5 kHz/(W cm)" in text
    assert "0.2448 W" in text
    assert "dip depth at 0.44 W: 0.405" in text
    assert "visible coefficient: 391.0 kHz/(W cm)" in text


def test_report_custom_bandwidth(outdir):
    assert run("report", "--bandwidth-hz", "2e6", "--out", str(outdir)) == 0
    assert "10.3 Hz/(W cm)" in (outdir / "report.txt").read_text()


def test_report_uses_fit_results(outdir):
    fit = {
        "fit": "efficiency_shared",
        "parameter_order": ["eta_max_int", "eta_max_ext", "eta_n"],
        "parameters": {"eta_max_int": 0.68, "eta_max_ext": 0.47, "eta_n": 0.60},
        "sigmas": {"eta_max_int": 0.01, "eta_max_ext": 0.01, "eta_n": 0.02},
        "covariance": [[1e-4, 0, 0], [0, 1e-4, 0], [0, 0, 4e-4]],
    }
    outdir.mkdir(parents=True, exist_ok=True)
    fit_path = outdir / "eff.json"
    fit_path.write_text(json.dumps(fit))
    assert run("report", "--efficiency-fit", str(fit_path), "--out", str(outdir)) == 0
    text = (outdir / "report.txt").read_text()
    assert "0.68" in text and "(fitted)" in text


@pytest.mark.parametrize("text, key", [
    ('{"parameters": {"alpha_n_tele": "129e3"}}', "alpha_n_tele"),
    ('{"parameters": {"alpha_n_vis": null}}', "alpha_n_vis"),
    ('{"parameters": {"alpha_n_tele": 1e999}}', "alpha_n_tele"),
    ('{"parameters": [129e3]}', "parameters"),
])
def test_report_malformed_noise_fit_exit_code(outdir, text, key, capsys):
    outdir.mkdir(parents=True)
    fit_path = outdir / "noise.json"
    fit_path.write_text(text)
    assert run("report", "--noise-fit", str(fit_path), "--out", str(outdir)) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error: noise fit: ") and key in err


def test_report_uses_noise_fit(outdir):
    outdir.mkdir(parents=True)
    fit_path = outdir / "noise.json"
    fit_path.write_text('{"parameters": {"alpha_n_tele": 150e3, "alpha_n_vis": 400e3}}')
    assert run("report", "--noise-fit", str(fit_path), "--out", str(outdir)) == 0
    text = (outdir / "report.txt").read_text()
    assert "telecom coefficient 150.0 kHz/(W cm)" in text
    assert "visible coefficient: 400.0 kHz/(W cm)" in text


_EFFICIENCY_FIT = {
    "parameter_order": ["eta_max_int", "eta_max_ext", "eta_n"],
    "parameters": {"eta_max_int": 0.68, "eta_max_ext": 0.47, "eta_n": 0.60},
    "sigmas": {"eta_max_int": 0.01, "eta_max_ext": 0.01, "eta_n": 0.02},
}
_NOISE_FIT = {
    "parameters": {"alpha_n_tele": 150e3, "alpha_n_vis": 400e3},
    "sigmas": {"alpha_n_tele": 2e3, "alpha_n_vis": 5e3},
}


@pytest.mark.parametrize("option, fit, sigmas, key", [
    ("--noise-fit", _NOISE_FIT, {"alpha_n_tele": "1e3"}, "sigmas.alpha_n_tele"),
    ("--noise-fit", _NOISE_FIT, {"alpha_n_vis": [5e3]}, "sigmas.alpha_n_vis"),
    ("--noise-fit", _NOISE_FIT, "x", "sigmas"),
    ("--efficiency-fit", _EFFICIENCY_FIT, "x", "sigmas"),
    ("--efficiency-fit", _EFFICIENCY_FIT, {"eta_n": True}, "sigmas.eta_n"),
    ("--efficiency-fit", _EFFICIENCY_FIT, {"eta_max_ext": 1e999}, "sigmas.eta_max_ext"),
    ("--noise-fit", _NOISE_FIT, {"alpha_n_tele": -2e3}, "sigmas.alpha_n_tele"),
    ("--efficiency-fit", _EFFICIENCY_FIT, {"eta_max_int": -0.01}, "sigmas.eta_max_int"),
])
def test_report_malformed_sigmas_exit_code(outdir, option, fit, sigmas, key, capsys):
    outdir.mkdir(parents=True)
    fit_path = outdir / "fit.json"
    fit_path.write_text(json.dumps({**fit, "sigmas": sigmas}))
    assert run("report", option, str(fit_path), "--out", str(outdir)) == cli.EXIT_DATA
    err = capsys.readouterr().err
    label = "noise fit" if option == "--noise-fit" else "efficiency fit"
    assert err.startswith(f"error: {label}: {key} ")


def test_report_labels_fitted_sigmas(outdir):
    # a null sigma (non-finite when written) or a missing one is still a
    # fitted value, never "(configured)"
    outdir.mkdir(parents=True)
    eff_path, noise_path = outdir / "eff.json", outdir / "noise.json"
    eff_path.write_text(json.dumps({**_EFFICIENCY_FIT, "sigmas": {"eta_max_int": None}}))
    noise_path.write_text(json.dumps({"parameters": {"alpha_n_tele": 150e3},
                                      "sigmas": {"alpha_n_tele": 2e3}}))
    assert run("report", "--efficiency-fit", str(eff_path), "--noise-fit", str(noise_path),
               "--out", str(outdir)) == 0
    lines = {line.split()[0]: line for line in
             (outdir / "report.txt").read_text().splitlines()[4:9]}
    assert lines["eta_max_int"].endswith("0.68   (fitted, no uncertainty)")
    assert lines["eta_max_ext"].endswith("0.47   (fitted, no uncertainty)")
    assert lines["alpha_n_tele"].endswith("150 +/- 2 kHz/(W cm)  (fitted)")
    assert lines["alpha_n_vis"].endswith("391 kHz/(W cm)  (configured)")


_DEFAULT_CHAIN_REPORT = """\
converter characterization report
=================================

device parameters
  eta_max_int    0.6715 +/- 0.004   (fitted)
  eta_max_ext    0.461 +/- 0.0028   (fitted)
  eta_n          0.6279 +/- 0.0041 /(W cm^2)  (fitted)
  alpha_n_tele   129.3 +/- 0.75 kHz/(W cm)  (fitted)
  alpha_n_vis    390.6 +/- 2.6 kHz/(W cm)  (fitted)
  length         4 cm
  alpha_n bandwidth 2.5e+10 Hz

derived figures
  peak pump power: 0.2456 W
  dip depth at 0.44 W: 0.406
  noise per spectro-temporal mode at 2.5e+10 Hz: 5.17e-06 /(W cm)
  noise rate in a 1e+06 Hz bandwidth: 5.17 Hz/(W cm)

telecom vs visible bandwidth reconciliation
  telecom coefficient 129.3 kHz/(W cm) in the 200 pm filter bandwidth
  dip bandwidth 500 pm -> ratio 2.50
  extrapolated to the full dip: 129.3 x 2.50 = 323.2 kHz/(W cm)
  visible coefficient: 390.6 kHz/(W cm)
  extrapolated/visible ratio: 0.83  (consistent within the flat-noise picture)
"""


def test_report_of_the_default_chain_and_of_a_negative_alpha_n(outdir):
    assert run("simulate", "efficiency", "--out", str(outdir)) == 0
    for kind in ("noise_tele_detuned", "noise_vis"):
        assert run("simulate", "power-sweep", "--kind", kind, "--out", str(outdir)) == 0
    assert run("fit", "efficiency", "--internal", str(outdir / "efficiency_int.csv"),
               "--external", str(outdir / "efficiency_ext.csv"), "--out", str(outdir)) == 0
    assert run("fit", "noise", "--detuned", str(outdir / "sweep_noise_tele_detuned.csv"),
               "--visible", str(outdir / "sweep_noise_vis.csv"),
               "--efficiency-fit", str(outdir / "fit_efficiency.json"), "--out", str(outdir)) == 0
    fits = ["--efficiency-fit", str(outdir / "fit_efficiency.json"), "--out", str(outdir)]
    assert run("report", "--noise-fit", str(outdir / "fit_noise.json"), *fits) == 0
    assert (outdir / "report.txt").read_text() == _DEFAULT_CHAIN_REPORT

    # the telecom estimator is unbiased and may fall below zero (a short
    # integration time): the report prints it and says which figures need
    # a non-negative value
    noise = json.loads((outdir / "fit_noise.json").read_text())
    noise["parameters"]["alpha_n_tele"] = -3e4
    (outdir / "negative.json").write_text(json.dumps(noise))
    assert run("report", "--noise-fit", str(outdir / "negative.json"), *fits) == 0
    changed = [(old, new) for old, new in zip(_DEFAULT_CHAIN_REPORT.splitlines(),
                                              (outdir / "report.txt").read_text().splitlines())
               if old != new]
    assert [new for _, new in changed] == [
        "  alpha_n_tele   -30 +/- 0.75 kHz/(W cm)  (fitted)",
        "  noise per spectro-temporal mode at 2.5e+10 Hz: none (needs alpha_n_tele >= 0)",
        "  noise rate in a 1e+06 Hz bandwidth: none (needs alpha_n_tele >= 0)",
        "  telecom coefficient -30.0 kHz/(W cm) in the 200 pm filter bandwidth",
        "  extrapolated to the full dip: -30.0 x 2.50 = -75.0 kHz/(W cm)",
        "  extrapolated/visible ratio: -0.19  (check model assumptions)",
    ]


def test_fitted_eta_max_ext_above_eta_max_int_is_accepted(tmp_path, capsys):
    # eta_max_ext equal to eta_max_int is a device with lossless coupling;
    # the fit does not bound ext by int, so it lands above int on some seeds
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(write_template(tmp_path / "base.yaml").read_text().replace(
        "eta_max_ext: 0.46", "eta_max_ext: 0.67"))
    above = 0
    for seed in range(1, 11):
        out = tmp_path / str(seed)
        common = ["--config", str(cfg), "--out", str(out)]
        assert run("simulate", "efficiency", *common, "--seed", str(seed)) == 0
        for kind in ("noise_tele_detuned", "noise_vis"):
            assert run("simulate", "power-sweep", "--kind", kind, *common, "--seed", str(seed)) == 0
        assert run("fit", "efficiency", *common, "--internal", str(out / "efficiency_int.csv"),
                   "--external", str(out / "efficiency_ext.csv")) == 0
        fitted = dataio.read_fit_json(out / "fit_efficiency.json")["parameters"]
        above += fitted["eta_max_ext"] > fitted["eta_max_int"]
        eff = ["--efficiency-fit", str(out / "fit_efficiency.json")]
        assert run("fit", "noise", *common, *eff,
                   "--detuned", str(out / "sweep_noise_tele_detuned.csv"),
                   "--visible", str(out / "sweep_noise_vis.csv")) == 0, capsys.readouterr().err
        assert run("report", *common, *eff, "--noise-fit", str(out / "fit_noise.json")) == 0
        # the report shows the fitted external efficiency, not a capped one
        assert f"eta_max_ext    {fitted['eta_max_ext']:.4g} +/-" in (out / "report.txt").read_text()
    assert above > 0


def test_fit_noise_with_fewer_points_than_asked_names_the_file(tmp_path, outdir, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(write_template(tmp_path / "base.yaml").read_text().replace(
        "n_points: 12", "n_points: 3"))
    common = ["--config", str(cfg), "--out", str(outdir)]
    assert run("simulate", "power-sweep", "--kind", "noise_tele_detuned", *common) == 0
    capsys.readouterr()
    counts = outdir / "sweep_noise_tele_detuned.csv"
    assert run("fit", "noise", "--detuned", str(counts), *common) == cli.EXIT_DATA
    assert capsys.readouterr().err == (
        f"error: {counts} has 3 points, fewer than the 4 that --points asks the linear "
        "fit to use\n")
    assert run("fit", "noise", "--detuned", str(counts), "--points", "3", *common) == 0


def _rewrite_rows(path: Path, rows) -> Path:
    """``path`` rewritten with its header and the data rows ``rows`` of it
    (0 is the first data row)."""
    lines = path.read_text().splitlines()
    path.write_text("\n".join([lines[0], *(lines[1 + i] for i in rows)]) + "\n")
    return path


def test_fit_input_errors_name_the_file(outdir, capsys):
    for kind in ("noise_tele_detuned", "noise_vis"):
        assert run("simulate", "power-sweep", "--kind", kind, "--out", str(outdir)) == 0
    assert run("simulate", "efficiency", "--out", str(outdir)) == 0
    capsys.readouterr()
    detuned = _rewrite_rows(outdir / "sweep_noise_tele_detuned.csv", [0, 1, 1, 2])
    internal = _rewrite_rows(outdir / "efficiency_int.csv", [0, 2, 1, 3])
    visible = _rewrite_rows(outdir / "sweep_noise_vis.csv", [0])
    cases = [
        (["fit", "noise", "--detuned", str(detuned)],
         f"{detuned}:4: column 'pump_w' must be strictly increasing, got 0.04"),
        (["fit", "efficiency", "--internal", str(internal),
          "--external", str(outdir / "efficiency_ext.csv")],
         f"{internal}:4: column 'pump_w' must be strictly increasing, got 0.04"),
        (["fit", "noise", "--visible", str(visible)],
         f"{visible} has 1 point, fewer than the 2 that the visible fit needs"),
    ]
    for argv, message in cases:
        assert run(*argv, "--out", str(outdir / "fit")) == cli.EXIT_DATA
        assert capsys.readouterr().err == f"error: {message}\n"


def test_undecodable_data_files_are_data_errors(outdir, capsys):
    # a byte that is not UTF-8 at the end of an efficiency sweep and of a counts file
    assert run("simulate", "efficiency", "--out", str(outdir)) == 0
    assert run("simulate", "power-sweep", "--kind", "noise_tele_detuned", "--out",
               str(outdir)) == 0
    capsys.readouterr()
    internal, counts = outdir / "efficiency_int.csv", outdir / "sweep_noise_tele_detuned.csv"
    for path in (internal, counts):
        path.write_bytes(path.read_bytes() + b"\xff")
    cases = [(["fit", "efficiency", "--internal", str(internal),
               "--external", str(outdir / "efficiency_ext.csv")], internal),
             (["fit", "noise", "--detuned", str(counts)], counts)]
    for argv, path in cases:
        assert run(*argv, "--out", str(outdir / "fit")) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path} is not UTF-8 text: ") and err.count("\n") == 1


# ----------------------------------------------------------- validate-config

def test_validate_config_ok(tmp_path):
    path = write_template(tmp_path / "cfg.yaml")
    assert run("validate-config", "--config", str(path)) == 0


def test_validate_config_bad_key(tmp_path, capsys):
    path = tmp_path / "cfg.yaml"
    path.write_text(write_template(tmp_path / "base.yaml").read_text().replace(
        "eta_max_int", "eta_max_internal"))
    assert run("validate-config", "--config", str(path)) == cli.EXIT_DATA
    assert "eta_max_internal" in capsys.readouterr().err


def test_undecodable_config_is_config_error(tmp_path, capsys):
    path = tmp_path / "run.yaml"
    path.write_bytes(write_template(tmp_path / "base.yaml").read_bytes() + b"# \xff\n")
    assert run("validate-config", "--config", str(path)) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith(f"error: config file {path} is not UTF-8 text: ")
    assert err.count("\n") == 1
    # and still without numpy
    probe = ("from dfgnoise import cli; code = cli.main(sys.argv[2:]); "
             "print(code, 'numpy' in sys.modules)")
    out = _fresh_process(probe, "validate-config", "--config", str(path))
    assert out.splitlines()[-1] == f"{cli.EXIT_DATA} False"


def test_validate_config_rejects_sweeps_too_short_to_fit(tmp_path, capsys):
    # the efficiency fit needs three points per sweep
    path = tmp_path / "cfg.yaml"
    path.write_text(write_template(tmp_path / "base.yaml").read_text().replace(
        "n_points: 12", "n_points: 2"))
    assert run("validate-config", "--config", str(path)) == cli.EXIT_DATA
    assert ("sweeps: n_points must be at least 3, the efficiency fit's minimum per sweep, "
            "got 2") in capsys.readouterr().err


def test_validate_config_write_template(tmp_path):
    target = tmp_path / "new.yaml"
    assert run("validate-config", "--write-template", str(target)) == 0
    assert target.exists()


@pytest.mark.parametrize("argv, product", [
    (["simulate", "power-sweep", "--kind", "noise_tele_detuned"], "sweep_noise_tele_detuned.csv"),
    (["simulate", "telecom-spectrum"], "telecom_spectrum.csv"),
], ids=["power-sweep", "telecom-spectrum"])
def test_poisson_mean_over_numpy_limit_is_data_error(tmp_path, outdir, capsys, argv, product):
    # a valid config whose counts numpy cannot draw
    path = tmp_path / "cfg.yaml"
    path.write_text(write_template(tmp_path / "base.yaml").read_text().replace(
        "alpha_n_tele_hz_per_w_cm: 129.0e+03", "alpha_n_tele_hz_per_w_cm: 1.0e+25"))
    assert run("validate-config", "--config", str(path)) == 0
    capsys.readouterr()
    assert run(*argv, "--config", str(path), "--out", str(outdir)) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith(f"error: {product}: a Poisson mean must be at most numpy's limit of "
                          "9.22337e+18 counts, got ")
    assert err.count("\n") == 1
    assert not list(outdir.iterdir())


@pytest.mark.parametrize("scan, start, stop, step, command, product", [
    ("telecom", 1520.0, 1577.6, 5.0, "telecom-spectrum", "telecom_spectrum.csv"),
    ("visible", 578.0, 585.1, 2.0, "visible-spectrum", "visible_spectrum_smf.csv"),
])
def test_scan_whose_last_point_overshoots_stop_is_simulated(tmp_path, outdir, scan, start, stop,
                                                           step, command, product):
    # n_points rounds, so the last point lies 2.4 nm (telecom) or 0.9 nm
    # (visible) past stop_nm, beyond the instrument padding of the stop
    text = write_template(tmp_path / "base.yaml").read_text()
    line = next(line for line in text.splitlines() if line.startswith(f"  {scan}: {{start_nm"))
    path = tmp_path / "cfg.yaml"
    path.write_text(text.replace(
        line, f"  {scan}: {{start_nm: {start}, stop_nm: {stop}, step_nm: {step}}}"))
    assert run("validate-config", "--config", str(path)) == 0
    assert run("simulate", command, "--config", str(path), "--out", str(outdir)) == 0
    written, _ = dataio.read_scan_csv(outdir / product)
    assert len(written) == round((stop - start) / step) + 1
    assert written.wavelength_nm[-1] > stop


def test_negative_seed_option_is_usage_error(outdir, capsys):
    with pytest.raises(SystemExit) as excinfo:
        run("simulate", "efficiency", "--seed", "-1", "--out", str(outdir))
    assert excinfo.value.code == cli.EXIT_USAGE
    assert "--seed: must be non-negative" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["report", "--bandwidth-hz", "nan"], "--bandwidth-hz: must be positive and finite, got nan"),
    (["fit", "noise", "--detuned", "x.csv", "--points", "0"],
     "--points: must be a positive integer, got 0"),
    (["simulate", "power-sweep", "--kind", "bogus"], "--kind: invalid choice: 'bogus'"),
    (["simulate", "telecom-spectrum", "--pump-w", "nan"],
     "--pump-w: must be finite and non-negative, got nan"),
    (["simulate", "visible-spectrum", "--pump-w", "-1"],
     "--pump-w: must be finite and non-negative, got -1.0"),
    (["simulate", "telecom-spectrum", "--pump-w", "inf"],
     "--pump-w: must be finite and non-negative, got inf"),
], ids=["bandwidth-hz", "points", "kind", "pump-w-nan", "pump-w-negative", "pump-w-inf"])
def test_bad_option_value_is_usage_error(outdir, capsys, argv, message):
    with pytest.raises(SystemExit) as excinfo:
        run(*argv, "--out", str(outdir))
    assert excinfo.value.code == cli.EXIT_USAGE
    assert message in capsys.readouterr().err
    assert not outdir.exists()


@pytest.mark.parametrize("argv, message", [
    (["simulate", "efficiency", "--seed", "abc"], "--seed: invalid int value: 'abc'"),
    (["fit", "noise", "--detuned", "x.csv", "--points", "2.5"],
     "--points: invalid int value: '2.5'"),
    (["report", "--bandwidth-hz", "wide"], "--bandwidth-hz: invalid float value: 'wide'"),
    (["simulate", "telecom-spectrum", "--pump-w", "1W"], "--pump-w: invalid float value: '1W'"),
], ids=["seed", "points", "bandwidth-hz", "pump-w"])
def test_non_number_option_is_usage_error(outdir, argv, message):
    assert message in usage_error(outdir, *argv, "--out", str(outdir))


def test_report_without_efficiency_maximum(tmp_path, outdir):
    # eta_n = 0 is a valid device whose efficiency curve has no peak
    path = tmp_path / "cfg.yaml"
    path.write_text(write_template(tmp_path / "base.yaml").read_text().replace(
        "eta_n_per_w_cm2: 0.63", "eta_n_per_w_cm2: 0.0"))
    assert run("validate-config", "--config", str(path)) == 0
    assert run("report", "--config", str(path), "--out", str(outdir)) == 0
    text = (outdir / "report.txt").read_text()
    assert "peak pump power: none (eta_n is zero)" in text
    assert "dip depth at 0.44 W: 0.000" in text


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as excinfo:
        run("simulate", "warp-drive")
    assert excinfo.value.code == cli.EXIT_USAGE


# options that some command reads, each given to a command that does not
# read it; required options get a value so that only the stray one is wrong
_STRAY_OPTIONS = {
    ("simulate", "efficiency"): ["--kind", "--pump-w", "--collection"],
    ("simulate", "telecom-spectrum"): ["--kind", "--collection"],
    ("simulate", "visible-spectrum"): ["--kind"],
    ("simulate", "power-sweep", "--kind", "noise_vis"): ["--pump-w", "--collection"],
    ("fit", "efficiency", "--internal", "i.csv", "--external", "e.csv"):
        ["--seed", "--detuned", "--visible", "--points", "--efficiency-fit"],
    ("fit", "noise", "--detuned", "d.csv"): ["--seed", "--internal", "--external"],
    ("report",): ["--seed"],
}
_OPTION_VALUES = {"--kind": "noise_vis", "--pump-w": "0.1", "--collection": "mmf",
                  "--seed": "5", "--points": "4", "--efficiency-fit": "fit.json"}


@pytest.mark.parametrize("command, option", [
    pytest.param(command, option,
                 id=" ".join(word for word in command[:2] if not word.startswith("-"))
                 + f" {option}")
    for command, options in _STRAY_OPTIONS.items() for option in options
])
def test_option_of_another_command_is_usage_error(outdir, command, option):
    value = _OPTION_VALUES.get(option, "x.csv")
    err = usage_error(outdir, *command, option, value, "--out", str(outdir))
    assert f"unrecognized arguments: {option} {value}" in err


def test_option_before_subcommand_is_usage_error(outdir):
    # options belong to the subcommand, so they follow its name
    err = usage_error(outdir, "simulate", "--out", str(outdir), "efficiency")
    assert "option --out is misplaced: options follow 'simulate <what>'" in err
    err = usage_error(outdir, "fit", f"--out={outdir}", "noise", "--detuned", "d.csv")
    assert "option --out is misplaced: options follow 'fit <what>'" in err


SRC = str(Path(dfgnoise.__file__).resolve().parents[1])


def _fresh_process(code: str, *args: str, env: dict | None = None) -> str:
    """Standard output of ``code`` run by a new interpreter that imports the
    package from this checkout; ``args`` follow in ``sys.argv[2:]``."""
    proc = subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); "
                           + code, SRC, *args], capture_output=True, text=True, timeout=120,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_cli_import_does_not_load_scipy():
    # neither scipy nor numpy.random: both would slow every cold command
    probe = ("import dfgnoise.cli; print(sorted(m for m in sys.modules "
             "if m.split('.')[0] == 'scipy' or m.startswith('numpy.random')))")
    assert _fresh_process(probe) == "[]"


def test_import_dfgnoise_does_not_load_numpy():
    assert _fresh_process("import dfgnoise; print('numpy' in sys.modules)") == "False"


def test_importing_the_cli_leaves_the_environment_alone():
    probe = "import os; before = dict(os.environ); import dfgnoise.cli; print(os.environ == before)"
    assert _fresh_process(probe) == "True"


@pytest.mark.parametrize("chosen, seen", [
    ({}, "1 None None"),
    ({"OPENBLAS_NUM_THREADS": "3"}, "3 None None"),
    ({"GOTO_NUM_THREADS": "2"}, "None 2 None"),
    ({"OMP_NUM_THREADS": "4"}, "None None 4"),
])
def test_the_program_gives_blas_one_thread_unless_the_user_chose(chosen, seen):
    # OpenBLAS reads the variables once, as numpy loads, so the command must
    # see them before numpy is loaded
    env = {k: v for k, v in os.environ.items() if k not in cli.BLAS_THREAD_VARS}
    probe = ("import os; from dfgnoise import cli; cli.main = lambda: print(*map("
             "os.environ.get, cli.BLAS_THREAD_VARS), 'numpy' in sys.modules) or 0; cli.run()")
    assert _fresh_process(probe, env={**env, **chosen}) == f"{seen} False"


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
@pytest.mark.parametrize("redirect, config, code, err", [
    (">/dev/full", "run.yaml", cli.EXIT_DATA, "error: [Errno 28] No space left on device\n"),
    ("2>/dev/full", "missing.yaml", cli.EXIT_DATA, ""),   # the error line itself fails
    (">&-", "run.yaml", cli.EXIT_OK, ""),                  # no stdout at all
])
def test_failed_or_closed_standard_streams(tmp_path, redirect, config, code, err):
    # stdout to a file is block-buffered unless PYTHONUNBUFFERED is set, so
    # its write fails only when the program flushes it, after main returns
    write_template(tmp_path / "run.yaml")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(["sh", "-c", f'exec "$0" -m dfgnoise.cli "$@" {redirect}',
                           sys.executable, "validate-config", "--config", config],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (code, err)


@pytest.mark.parametrize("option", ["--config", "--write-template"])
def test_validate_config_runs_without_numpy(tmp_path, option):
    # writing the template reads no YAML, so it does not import PyYAML either
    path = write_template(tmp_path / "run.yaml")
    probe = ("from dfgnoise import cli; code = cli.main(sys.argv[2:]); "
             "print(code, 'numpy' in sys.modules, 'yaml' in sys.modules)")
    out = _fresh_process(probe, "validate-config", option, str(path))
    assert out.splitlines()[-1] == f"0 False {option == '--config'}"


LAYERS = ("cli", "config", "converter", "counting", "dataio", "errors", "fitting", "params",
          "pipelines", "report", "spectra")


def test_every_public_name_resolves():
    # each name is reached through the module that exports it, none
    # through the package
    exported = {}
    for layer in LAYERS:
        module = importlib.import_module(f"dfgnoise.{layer}")
        for name in getattr(module, "__all__", ()):
            exported[layer, name] = getattr(module, name)
    assert not hasattr(dfgnoise, "__all__")
    assert not hasattr(dfgnoise, "dfg_efficiency")
    # of the types moved to params, only the three old import paths that
    # the acceptance suite uses are still exported
    params = importlib.import_module("dfgnoise.params")
    old_paths = [key for key, value in exported.items() if key[0] != "params"
                 and any(value is getattr(params, name) for name in params.__all__)]
    assert sorted(old_paths) == [("converter", "ConverterParams"),
                                 ("converter", "sfg_partner_wavelength"),
                                 ("counting", "MeasurementChain")]
    spectra = importlib.import_module("dfgnoise.spectra")
    assert not hasattr(spectra, "SfgMode") and not hasattr(spectra, "FilterProfile")
