"""The per-process memo of each configuration's noiseless expectation:
warm runs write what a fresh process writes, whatever ran before."""

import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from dfgnoise import pipelines
from dfgnoise.config import default_config
from dfgnoise.errors import ModelViolationError, ParameterError

SEED = 7
MEMOS = (pipelines._expected_scan, pipelines._in_band_fraction)


def _clear():
    for memo in MEMOS:
        memo.cache_clear()


def _outputs(cfg, out):
    """The bytes of every file that the memoised expectations feed: both
    spectra (both collection presets) and the visible noise sweep."""
    pipelines.simulate_telecom_spectrum(cfg, SEED, out)
    for collection in ("smf", "mmf"):
        pipelines.simulate_visible_spectrum(cfg, SEED, out, collection=collection)
    pipelines.simulate_power_sweep(cfg, SEED, out, "noise_vis")
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


def _device(**changes):
    return lambda cfg: replace(cfg, converter=replace(cfg.converter, **changes))


def _mode(i, **changes):
    def perturb(cfg):
        modes = list(cfg.modes)
        modes[i] = replace(modes[i], **changes)
        return replace(cfg, modes=modes)
    return perturb


def _part(field, **changes):
    return lambda cfg: replace(cfg, **{field: replace(getattr(cfg, field), **changes)})


def _chain(name, **changes):
    return lambda cfg: replace(cfg, chains={**cfg.chains,
                                            name: replace(cfg.chains[name], **changes)})


def _collection(name, label, value):
    return lambda cfg: replace(cfg, collection={
        **cfg.collection, name: {**cfg.collection[name], label: value}})


# every config value the expectations read, each changed so that some
# output changes
PERTURBATIONS = {
    "device.length_cm": _device(length_cm=3.5),
    "device.eta_max_int": _device(eta_max_int=0.6),
    "device.eta_n_per_w_cm2": _device(eta_n=0.5),
    "noise.alpha_n_tele_hz_per_w_cm": _device(alpha_n=150e3),
    "noise.alpha_n_vis_hz_per_w_cm": lambda cfg: replace(cfg, alpha_n_visible=300e3),
    "modes[0].lambda_tele_nm": _mode(0, lambda_tele_nm=1541.3),
    "modes[0].lambda_vis_nm": _mode(0, lambda_vis_nm=580.55),
    "modes[0].fwhm_dip_nm": _mode(0, fwhm_dip_nm=0.45),
    "modes[1].relative_strength": _mode(1, relative_strength=0.3),
    "modes[1].label": _mode(1, label="TEM10"),
    "sweeps.pump_max_w": _part("sweep", pump_max_w=0.4),
    "scans.telecom.start_nm": _part("telecom_scan", start_nm=1521.0),
    "scans.telecom.stop_nm": _part("telecom_scan", stop_nm=1574.0),
    "scans.telecom.step_nm": _part("telecom_scan", step_nm=0.05),
    "scans.visible.start_nm": _part("visible_scan", start_nm=578.5),
    "scans.visible.stop_nm": _part("visible_scan", stop_nm=583.0),
    "scans.visible.step_nm": _part("visible_scan", step_nm=0.01),
    "filters.tg.fwhm_nm": _part("tg_filter", fwhm_nm=0.25),
    "filters.tg.shape": _part("tg_filter", shape="rectangular"),
    "filters.spectrometer_fwhm_nm": lambda cfg: replace(cfg, spectrometer_fwhm_nm=0.15),
    "filters.bp.center_nm": _part("bp_filter", center_nm=581.0),
    "filters.bp.fwhm_nm": _part("bp_filter", fwhm_nm=8.0),
    "filters.bp.shape": _part("bp_filter", shape="rectangular"),
    "chains.telecom.transmissions": _chain("telecom", transmissions=(("all", 0.2),)),
    "chains.telecom.detector_efficiency": _chain("telecom", detector_efficiency=0.2),
    "chains.telecom.dark_rate_hz": _chain("telecom", dark_rate_hz=1000.0),
    "chains.telecom.integration_time_s": _chain("telecom", integration_time_s=5.0),
    "chains.visible.transmissions": _chain("visible", transmissions=(("all", 0.5),)),
    "chains.visible.detector_efficiency": _chain("visible", detector_efficiency=0.4),
    "chains.visible.dark_rate_hz": _chain("visible", dark_rate_hz=1000.0),
    "chains.visible.integration_time_s": _chain("visible", integration_time_s=5.0),
    "collection.smf.TEM01": _collection("smf", "TEM01", 0.45),
    "collection.mmf.TEM02": _collection("mmf", "TEM02", 0.8),
}


@pytest.mark.parametrize("name", sorted(PERTURBATIONS))
def test_memo_key_holds_every_value_the_expectation_reads(tmp_path, name):
    base = default_config()
    changed = PERTURBATIONS[name](base)
    fresh = {}
    for label, cfg in (("base", base), ("changed", changed)):
        _clear()
        fresh[label] = _outputs(cfg, tmp_path / f"fresh_{label}")
    assert fresh["changed"] != fresh["base"]
    # one RunConfig, changed in place between runs: the key is its values
    cfg = default_config()
    _clear()
    for i, label in enumerate(("base", "changed", "base")):
        vars(cfg).update(vars(base if label == "base" else changed))
        assert _outputs(cfg, tmp_path / f"warm{i}") == fresh[label], label


# values a config may hold as 0.0 or -0.0; keys compare them as equal
SIGNED_ZEROS = {
    "device.eta_max_ext": lambda z: _device(eta_max_ext=z),
    "noise.alpha_n_tele_hz_per_w_cm": lambda z: _device(alpha_n=z),
    "modes[1].relative_strength": lambda z: _mode(1, relative_strength=z),
    "filters.tg.center_nm": lambda z: _part("tg_filter", center_nm=z),
    "chains.telecom.dark_rate_hz": lambda z: _chain("telecom", dark_rate_hz=z),
    "chains.visible.dark_rate_hz": lambda z: _chain("visible", dark_rate_hz=z),
    "collection.smf.TEM01": lambda z: _collection("smf", "TEM01", z),
    "collection.mmf.TEM02": lambda z: _collection("mmf", "TEM02", z),
    "chains.telecom.dark_rate_hz, noise.alpha_n_tele_hz_per_w_cm": lambda z: (
        lambda cfg: _chain("telecom", dark_rate_hz=z)(_device(alpha_n=z)(cfg))),
}


@pytest.mark.parametrize("name", sorted(SIGNED_ZEROS))
@pytest.mark.parametrize("first, second", [(0.0, -0.0), (-0.0, 0.0)])
def test_signed_zeros_share_a_key_and_every_byte(tmp_path, name, first, second):
    cfgs = [SIGNED_ZEROS[name](z)(default_config()) for z in (first, second)]
    _clear()
    fresh = _outputs(cfgs[1], tmp_path / "fresh")
    _clear()
    _outputs(cfgs[0], tmp_path / "first")
    hits = pipelines._expected_scan.cache_info().hits
    assert _outputs(cfgs[1], tmp_path / "second") == fresh
    assert pipelines._expected_scan.cache_info().hits == hits + 3


@pytest.mark.parametrize("first, second", [(0.0, -0.0), (-0.0, 0.0)])
def test_signed_zero_pump_shares_a_key_and_every_byte(tmp_path, first, second):
    cfg = default_config()

    def scans(pump_w, out):
        paths = [pipelines.simulate_telecom_spectrum(cfg, SEED, out, pump_w=pump_w),
                 pipelines.simulate_visible_spectrum(cfg, SEED, out, pump_w=pump_w)]
        return [path.read_bytes() for path in paths]

    _clear()
    fresh = scans(second, tmp_path / "fresh")
    _clear()
    scans(first, tmp_path / "first")
    assert scans(second, tmp_path / "second") == fresh
    assert pipelines._expected_scan.cache_info().hits == 2


def test_cached_arrays_are_read_only(tmp_path):
    cfg = default_config()
    _clear()
    pipelines.simulate_telecom_spectrum(cfg, SEED, tmp_path)
    assert pipelines._expected_scan.cache_info().currsize == 1
    scan, means = pipelines._expected_scan(
        cfg.converter, tuple(cfg.modes), cfg.sweep.pump_max_w, cfg.telecom_scan, cfg.tg_filter,
        cfg.chains["telecom"], None)
    assert pipelines._expected_scan.cache_info().hits == 1
    for array in (scan.wavelength_nm, scan.rate_hz, means):
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0
    assert np.all(means > 0)


def test_model_violation_is_raised_on_every_call(tmp_path):
    # three equal-strength modes at one wavelength: the dips sum past 1
    cfg = default_config()
    cfg.modes = [replace(mode, lambda_tele_nm=1541.0, lambda_vis_nm=cfg.modes[0].lambda_vis_nm,
                         relative_strength=1.0) for mode in cfg.modes]
    _clear()
    for _ in range(2):
        with pytest.raises(ModelViolationError, match="overlapping dips"):
            pipelines.simulate_telecom_spectrum(cfg, SEED, tmp_path)
    info = pipelines._expected_scan.cache_info()
    assert (info.misses, info.currsize) == (2, 0)
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("huge, simulate, product", [
    (_device(alpha_n=1.0e25), pipelines.simulate_telecom_spectrum, "telecom_spectrum.csv"),
    (lambda cfg: replace(cfg, alpha_n_visible=1.0e25), pipelines.simulate_visible_spectrum,
     "visible_spectrum_smf.csv"),
], ids=["telecom", "visible"])
def test_poisson_limit_is_raised_on_every_call_naming_the_file(tmp_path, huge, simulate, product):
    cfg = huge(default_config())
    _clear()
    for _ in range(2):
        with pytest.raises(ParameterError, match=f"^{product}: a Poisson mean must be at most"):
            simulate(cfg, SEED, tmp_path)
    # the expectation itself is sound and kept; the check runs on each call
    info = pipelines._expected_scan.cache_info()
    assert (info.hits, info.misses) == (1, 1)
    assert not list(tmp_path.iterdir())


def test_bandpass_miss_is_raised_on_every_call(tmp_path):
    cfg = default_config()
    cfg.bp_filter = replace(cfg.bp_filter, center_nm=0.0)
    _clear()
    for _ in range(2):
        with pytest.raises(ParameterError, match="passes none of the peaks"):
            pipelines.simulate_power_sweep(cfg, SEED, tmp_path, "noise_vis")
    info = pipelines._in_band_fraction.cache_info()
    assert (info.misses, info.currsize) == (2, 0)


def test_threads_share_the_expectation_memo(tmp_path):
    # more threads than cores, each cycling through more scans than the
    # memo keeps, with thread switches as often as the interpreter allows
    cfgs = [PERTURBATIONS[name](default_config()) for name in
            ("sweeps.pump_max_w", "chains.telecom.dark_rate_hz", "chains.visible.dark_rate_hz")]
    simulate = (pipelines.simulate_telecom_spectrum, pipelines.simulate_visible_spectrum)
    _clear()
    expected = [[f(cfg, SEED, tmp_path / f"fresh{c}").read_bytes() for f in simulate]
                for c, cfg in enumerate(cfgs)]
    failures = []

    def run(t):
        try:
            for r in range(30):
                c, k = (t + r) % len(cfgs), r % len(simulate)
                path = simulate[k](cfgs[c], SEED, tmp_path / f"thread{t}")
                if path.read_bytes() != expected[c][k]:
                    failures.append((t, r))
        except Exception as exc:  # reported by the assertion below
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(t,)) for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert pipelines._expected_scan.cache_info().currsize == pipelines._EXPECTATIONS_KEPT
