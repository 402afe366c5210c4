"""End-to-end tests of the command-line interface."""

import contextlib
import importlib
import io
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dfgnoise
from dfgnoise import cli, dataio
from dfgnoise.config import write_template
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


def test_fit_efficiency_insufficient_data(outdir, tmp_path):
    short = tmp_path / "short.csv"
    short.write_text("pump_w,value,sigma\n0.1,0.2,0.01\n0.2,0.5,0.01\n")
    assert run("simulate", "efficiency", "--out", str(outdir)) == 0
    code = run("fit", "efficiency", "--internal", str(short),
               "--external", str(outdir / "efficiency_ext.csv"), "--out", str(outdir))
    assert code == cli.EXIT_DATA


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
                                     '{"kind": "noise_vis", "in_band_fraction": "most"}'])
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


def test_fit_nonconvergence_exit_code(outdir, monkeypatch):
    from dfgnoise import pipelines
    from dfgnoise.fitting import FitResult

    def fake_fit(cfg, a, b, out):
        result = FitResult(names=["x"], values={"x": 1.0}, sigmas={"x": 1.0},
                           covariance=np.eye(1), chi2_reduced=1.0, n_iterations=200,
                           converged=False, message="iteration cap of 200 reached")
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


def test_validate_config_write_template(tmp_path):
    target = tmp_path / "new.yaml"
    assert run("validate-config", "--write-template", str(target)) == 0
    assert target.exists()


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


def _fresh_process(code: str, *args: str) -> str:
    """Standard output of ``code`` run by a new interpreter that imports the
    package from this checkout; ``args`` follow in ``sys.argv[2:]``."""
    src = str(Path(dfgnoise.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); "
                           + code, src, *args], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_cli_import_does_not_load_scipy():
    # neither scipy nor numpy.random: both would slow every cold command
    probe = ("import dfgnoise.cli; print(sorted(m for m in sys.modules "
             "if m.split('.')[0] == 'scipy' or m.startswith('numpy.random')))")
    assert _fresh_process(probe) == "[]"


def test_import_dfgnoise_does_not_load_numpy():
    assert _fresh_process("import dfgnoise; print('numpy' in sys.modules)") == "False"


@pytest.mark.parametrize("option", ["--config", "--write-template"])
def test_validate_config_runs_without_numpy(tmp_path, option):
    path = write_template(tmp_path / "run.yaml")
    probe = ("from dfgnoise import cli; code = cli.main(sys.argv[2:]); "
             "print(code, 'numpy' in sys.modules)")
    out = _fresh_process(probe, "validate-config", option, str(path))
    assert out.splitlines()[-1] == "0 False"


def test_every_public_name_resolves():
    for name in dfgnoise.__all__:
        module = importlib.import_module(f"dfgnoise.{dfgnoise._MODULES[name]}")
        assert getattr(dfgnoise, name) is getattr(module, name), name
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        dfgnoise.no_such_name
    # the plain types moved to params stay reachable under their old modules
    params = importlib.import_module("dfgnoise.params")
    for module, name in [("converter", "ConverterParams"), ("converter", "sfg_partner_wavelength"),
                         ("spectra", "SfgMode"), ("spectra", "FilterProfile"),
                         ("spectra", "sfg_mode_from_telecom"),
                         ("spectra", "check_mode_energy_conservation"),
                         ("counting", "MeasurementChain"), ("pipelines", "NOISE_SWEEP_KINDS")]:
        old = importlib.import_module(f"dfgnoise.{module}")
        assert getattr(old, name) is getattr(params, name), f"{module}.{name}"
