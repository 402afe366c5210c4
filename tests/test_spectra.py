"""Tests for spectral synthesis, convolution and Gaussian feature fitting."""

from dataclasses import replace

import numpy as np
import pytest

from dfgnoise import dataio, pipelines, spectra
from dfgnoise.config import default_config
from dfgnoise.converter import ConverterParams
from dfgnoise.errors import (
    FitFailureError,
    InsufficientDataError,
    ModelViolationError,
    NonPhysicalWidthError,
    ParameterError,
    ResolutionError,
)
from dfgnoise.fitting import lsq_minimize
from dfgnoise.params import (
    FilterProfile,
    SfgMode,
    check_mode_energy_conservation,
    sfg_mode_from_telecom,
)
from dfgnoise.spectra import SpectralScan

PARAMS = ConverterParams(4.0, 0.67, 0.46, 0.63, 129e3, 25e9)
BACKGROUND_044 = 129e3 * 0.44 * 4.0
DEPTH_044 = 0.40478302665


def _modes():
    return [
        sfg_mode_from_telecom("TEM00", 1541.0, 930.0, 0.23, 0.50, 1.0),
        sfg_mode_from_telecom("TEM01", 1546.0, 930.0, 0.23, 0.50, 0.35),
        sfg_mode_from_telecom("TEM02", 1554.6, 930.0, 0.23, 0.50, 0.20),
    ]


# ------------------------------------------------------------ mode table

@pytest.mark.parametrize("grid, rate, row, rule", [
    ([1540.0, np.inf, 1542.0], [1, 2, 3], 1, "column 'wavelength_nm' must be finite, got inf"),
    ([1540.0, 1541.0, 1541.0], [1, 2, 3], 2,
     "column 'wavelength_nm' must be strictly increasing, got 1541.0"),
    ([1540.0, 1541.0, 1541.5], [1, 2, -3], 2,
     "column 'wavelength_nm' must be evenly spaced, got 1541.5"),
    ([1540.0, 1541.0, 1542.0], [1, np.nan, -3], 1,
     "column 'rate_hz' must be finite and non-negative, got nan"),
    ([1540.0, 1541.0, 1542.0], [1, 2, np.inf], 2,
     "column 'rate_hz' must be finite and non-negative, got inf"),
])
def test_scan_names_bad_row_and_column(grid, rate, row, rule):
    with pytest.raises(ParameterError) as excinfo:
        SpectralScan(grid, rate)
    assert str(excinfo.value) == f"row {row}: {rule}"
    assert (excinfo.value.row, excinfo.value.rule) == (row, rule)


def test_mode_partner_wavelengths_derived():
    modes = _modes()
    assert modes[0].lambda_vis_nm == pytest.approx(579.9798, abs=1e-3)
    assert modes[1].lambda_vis_nm == pytest.approx(580.6866, abs=1e-3)
    assert modes[2].lambda_vis_nm == pytest.approx(581.8957, abs=1e-3)


def test_mode_energy_conservation_check():
    good = _modes()[0]
    check_mode_energy_conservation(good, 930.0)
    bad = SfgMode("TEM00", 1541.0, 580.5, 0.23, 0.5, 1.0)
    with pytest.raises(ParameterError):
        check_mode_energy_conservation(bad, 930.0)


def test_mode_validation():
    with pytest.raises(ParameterError):
        SfgMode("x", 1541.0, 580.0, -0.1, 0.5, 1.0)
    with pytest.raises(ParameterError):
        SfgMode("x", 1541.0, 580.0, 0.2, 0.5, 1.5)


# ------------------------------------------------------- telecom spectrum

def test_telecom_spectrum_dip_floor_at_full_power():
    grid = np.arange(1538.0, 1544.0, 0.005)
    scan = spectra.telecom_spectrum(PARAMS, _modes(), 0.44, grid)
    floor = scan.rate_hz[np.argmin(np.abs(grid - 1541.0))]
    assert floor / BACKGROUND_044 == pytest.approx(1.0 - DEPTH_044, abs=1e-6)


def test_telecom_spectrum_zero_pump_is_zero():
    grid = np.arange(1538.0, 1544.0, 0.01)
    scan = spectra.telecom_spectrum(PARAMS, _modes(), 0.0, grid)
    assert np.all(scan.rate_hz == 0.0)


def test_telecom_spectrum_flat_far_from_modes():
    mode = [_modes()[0]]
    grid = np.arange(1530.0, 1560.0, 0.01)
    scan = spectra.telecom_spectrum(PARAMS, mode, 0.44, grid)
    far = np.abs(grid - 1541.0) > 5 * 0.5
    assert np.all(np.abs(scan.rate_hz[far] - BACKGROUND_044) <= 1e-6 * BACKGROUND_044)


def test_telecom_spectrum_overlapping_dips_rejected():
    deep = ConverterParams(4.0, 1.0, 0.46, 0.63, 129e3, 25e9)
    doubled = [
        SfgMode("a", 1541.0, 579.98, 0.23, 0.5, 1.0),
        SfgMode("b", 1541.1, 580.0, 0.23, 0.5, 1.0),
    ]
    with pytest.raises(ModelViolationError):
        spectra.telecom_spectrum(deep, doubled, 0.44, np.arange(1540.0, 1542.0, 0.01))


# ------------------------------------------------------- visible spectrum

def test_visible_spectrum_three_peaks_multimode():
    grid = np.arange(578.0, 584.0, 0.001)
    modes = _modes()
    scan = spectra.visible_spectrum(PARAMS, modes, 0.44, grid)
    # local maxima at the three partner wavelengths, strengths preserved
    heights = []
    for mode in modes:
        i = np.argmin(np.abs(grid - mode.lambda_vis_nm))
        window = scan.rate_hz[i - 60 : i + 60]
        assert scan.rate_hz[i] == pytest.approx(window.max(), rel=1e-4)
        heights.append(scan.rate_hz[i])
    assert heights[1] / heights[0] == pytest.approx(0.35, rel=0.02)
    assert heights[2] / heights[0] == pytest.approx(0.20, rel=0.02)


def test_visible_spectrum_smf_dominated_by_fundamental():
    grid = np.arange(578.0, 584.0, 0.001)
    smf = {"TEM00": 1.0, "TEM01": 0.1, "TEM02": 0.1}
    scan = spectra.visible_spectrum(PARAMS, _modes(), 0.44, grid, collection=smf)
    i0 = np.argmin(np.abs(grid - 579.98))
    i1 = np.argmin(np.abs(grid - 580.69))
    i2 = np.argmin(np.abs(grid - 581.90))
    assert scan.rate_hz[i0] > 10.0 * scan.rate_hz[i1]
    assert scan.rate_hz[i0] > 10.0 * scan.rate_hz[i2]


def test_visible_spectrum_zero_pump():
    grid = np.arange(578.0, 584.0, 0.01)
    scan = spectra.visible_spectrum(PARAMS, _modes(), 0.0, grid)
    assert np.all(scan.rate_hz == 0.0)


def test_photon_conservation_dip_vs_peak():
    for mode in _modes():
        tele_grid = np.arange(mode.lambda_tele_nm - 3.0, mode.lambda_tele_nm + 3.0, 0.002)
        tele = spectra.telecom_spectrum(PARAMS, [mode], 0.44, tele_grid)
        removed = BACKGROUND_044 * (tele_grid[-1] - tele_grid[0]) - tele.area()
        vis_grid = np.arange(mode.lambda_vis_nm - 1.0, mode.lambda_vis_nm + 1.0, 0.0005)
        vis = spectra.visible_spectrum(PARAMS, [mode], 0.44, vis_grid)
        assert vis.area() == pytest.approx(removed, rel=1e-6)


def test_spectral_level_identity():
    # telecom band integral plus total visible flux equals the flat
    # background integrated over the band
    modes = _modes()
    tele_grid = np.arange(1520.0, 1575.0, 0.002)
    tele = spectra.telecom_spectrum(PARAMS, modes, 0.44, tele_grid)
    vis_grid = np.arange(576.0, 586.0, 0.0005)
    vis = spectra.visible_spectrum(PARAMS, modes, 0.44, vis_grid)
    band = BACKGROUND_044 * (tele_grid[-1] - tele_grid[0])
    assert tele.area() + vis.area() == pytest.approx(band, rel=1e-6)


def test_visible_collection_scaling():
    grid = np.arange(580.3, 581.1, 0.0005)
    mode = _modes()[1]
    full = spectra.visible_spectrum(PARAMS, [mode], 0.44, grid)
    half = spectra.visible_spectrum(PARAMS, [mode], 0.44, grid, collection={"TEM01": 0.5})
    assert np.allclose(half.rate_hz, 0.5 * full.rate_hz, rtol=1e-12)


# ------------------------------------------------------------ convolution

def test_convolution_widths_add_in_quadrature():
    grid = np.arange(1538.0, 1544.0, 0.002)
    dip = SpectralScan(grid, BACKGROUND_044 * (1 - 0.4 * spectra.gaussian_profile(grid, 1541.0, 0.5)))
    out = spectra.convolve_with_filter(dip, FilterProfile("gaussian", 0.2, peak_transmission=0.4))
    feature = spectra.fit_gaussian_feature(out, (1539.5, 1542.5), "dip")
    assert feature.fwhm_nm == pytest.approx(np.sqrt(0.5**2 + 0.2**2), abs=1e-6)
    assert feature.baseline_hz == pytest.approx(0.4 * BACKGROUND_044, rel=1e-9)


def test_convolution_preserves_area_times_transmission():
    grid = np.arange(580.0, 582.0, 0.0005)
    peak = SpectralScan(grid, 1e4 * spectra.gaussian_profile(grid, 581.0, 0.05))
    out = spectra.convolve_with_filter(peak, FilterProfile("gaussian", 0.13, peak_transmission=0.8))
    assert out.area() == pytest.approx(0.8 * peak.area(), rel=1e-6)


def test_convolution_flat_scales_by_transmission():
    grid = np.arange(1540.0, 1542.0, 0.002)
    flat = SpectralScan(grid, np.full_like(grid, 5e4))
    out = spectra.convolve_with_filter(flat, FilterProfile("gaussian", 0.2, peak_transmission=0.4))
    assert np.allclose(out.rate_hz, 2e4, rtol=1e-12)


def test_convolution_delta_like_feature_gets_filter_width():
    grid = np.arange(1540.0, 1542.0, 0.0004)
    narrow = SpectralScan(grid, 1e5 * spectra.gaussian_profile(grid, 1541.0, 0.004))
    out = spectra.convolve_with_filter(narrow, FilterProfile("gaussian", 0.2))
    feature = spectra.fit_gaussian_feature(out, (1540.4, 1541.6), "peak")
    assert feature.fwhm_nm == pytest.approx(0.2, rel=1e-3)


def test_convolution_rectangular_filter():
    grid = np.arange(1540.0, 1542.0, 0.002)
    flat = SpectralScan(grid, np.full_like(grid, 1e4))
    out = spectra.convolve_with_filter(flat, FilterProfile("rectangular", 0.2, peak_transmission=0.5))
    mid = (grid > 1540.5) & (grid < 1541.5)
    assert np.allclose(out.rate_hz[mid], 5e3, rtol=1e-9)


def test_convolution_grid_too_coarse():
    grid = np.arange(1540.0, 1542.0, 0.05)
    flat = SpectralScan(grid, np.full_like(grid, 1e4))
    with pytest.raises(ResolutionError):
        spectra.convolve_with_filter(flat, FilterProfile("gaussian", 0.2))


# ---------------------------------------------------------- deconvolution

def test_deconvolve_reference_values():
    assert spectra.deconvolve_gaussian(540.0, 200.0) == pytest.approx(501.597448159, abs=1e-6)
    assert spectra.deconvolve_gaussian(42.0, 0.0) == 42.0


def test_deconvolve_round_trip_identity():
    intrinsic = spectra.deconvolve_gaussian(540.0, 200.0)
    assert np.hypot(intrinsic, 200.0) == pytest.approx(540.0, abs=1e-9)
    rng = np.random.default_rng(1)
    for _ in range(50):
        a, b = rng.uniform(0.05, 2.0, 2)
        observed = np.hypot(a, b)
        assert spectra.deconvolve_gaussian(observed, b) == pytest.approx(a, rel=1e-12)


def test_deconvolve_degenerate_rejected():
    with pytest.raises(NonPhysicalWidthError):
        spectra.deconvolve_gaussian(200.0, 200.0)
    with pytest.raises(NonPhysicalWidthError):
        spectra.deconvolve_gaussian(150.0, 200.0)


# ----------------------------------------------------- feature extraction

def test_fit_gaussian_feature_noiseless_exact():
    grid = np.arange(1539.0, 1543.0, 0.04)
    rate = BACKGROUND_044 * (1 - 0.4 * spectra.gaussian_profile(grid, 1541.0, 0.54))
    feature = spectra.fit_gaussian_feature(SpectralScan(grid, rate), (1539.0, 1543.0), "dip")
    assert feature.center_nm == pytest.approx(1541.0, abs=1e-6)
    assert feature.fwhm_nm == pytest.approx(0.54, rel=1e-6)
    assert feature.amplitude_hz == pytest.approx(-0.4 * BACKGROUND_044, rel=1e-6)
    assert feature.baseline_hz == pytest.approx(BACKGROUND_044, rel=1e-6)
    assert feature.significant


def test_fit_gaussian_feature_poisson_statistics():
    # counting statistics comparable to a 10 s scan through a 3% chain
    grid = np.arange(1539.0, 1543.0, 0.04)
    true = BACKGROUND_044 * (1 - 0.376 * spectra.gaussian_profile(grid, 1541.0, 0.5385))
    transmission, t_int = 0.03, 10.0
    fwhms, sigmas = [], []
    for seed in range(100):
        rng = np.random.default_rng(seed)
        counts = rng.poisson(true * transmission * t_int)
        scan = SpectralScan(grid, counts / t_int / transmission)
        feature = spectra.fit_gaussian_feature(scan, (1539.0, 1543.0), "dip")
        fwhms.append(feature.fwhm_nm)
        sigmas.append(feature.sigma_fwhm_nm)
    fwhms = np.array(fwhms)
    sigmas = np.array(sigmas)
    # unbiased within the replicate scatter, and the reported uncertainty
    # is calibrated: ~95% of replicates fall within 2 reported sigma
    assert abs(fwhms.mean() - 0.5385) < 3.0 * fwhms.std() / np.sqrt(len(fwhms))
    assert np.mean(np.abs(fwhms - 0.5385) < 2.0 * sigmas) > 0.85


def test_fit_gaussian_feature_flat_scan_reports_no_feature():
    grid = np.arange(1539.0, 1543.0, 0.04)
    rng = np.random.default_rng(5)
    scan = SpectralScan(grid, BACKGROUND_044 + 20.0 * rng.standard_normal(len(grid)))
    feature = spectra.fit_gaussian_feature(scan, (1539.0, 1543.0), "dip")
    assert not feature.significant


# windows of the template scans that hold no mode
MODE_FREE_TELECOM_NM = (1535.0, 1560.0, 1570.0)
MODE_FREE_VISIBLE_NM = (578.7, 583.0, 583.6)


def _significant(scan, center: float, half: float, kind: str) -> bool:
    """Whether a significant feature is fitted in the window; a fit that
    does not converge finds none."""
    try:
        return spectra.fit_gaussian_feature(scan, (center - half, center + half), kind).significant
    except FitFailureError:
        return False


def _template_features(cfg, seed: int, root) -> dict:
    """Whether each mode's dip and peak, and each mode-free window, of the
    template scans of ``seed`` holds a significant feature."""
    tele, _ = dataio.read_scan_csv(pipelines.simulate_telecom_spectrum(cfg, seed, root))
    vis, _ = dataio.read_scan_csv(
        pipelines.simulate_visible_spectrum(cfg, seed, root, collection="mmf"))
    found = {}
    for mode in cfg.modes:
        found[mode.label, "dip"] = _significant(tele, mode.lambda_tele_nm, 1.5, "dip")
        found[mode.label, "peak"] = _significant(vis, mode.lambda_vis_nm, 0.35, "peak")
    for center in MODE_FREE_TELECOM_NM:
        found[center, "dip"] = _significant(tele, center, 1.5, "dip")
    for center in MODE_FREE_VISIBLE_NM:
        found[center, "peak"] = _significant(vis, center, 0.35, "peak")
    return found


@pytest.mark.parametrize("seed", [default_config().seed, *range(1, 11)])
def test_fit_gaussian_feature_finds_the_modes_and_invents_none(tmp_path, seed):
    # on the template's own seed, 3 sigma alone called a dip significant in
    # each mode-free telecom window, at 1135.8 nm for the one at 1560 nm
    found = _template_features(default_config(), seed, tmp_path)
    assert {key for key, significant in found.items() if significant} == {
        (label, kind) for label in ("TEM00", "TEM01", "TEM02") for kind in ("dip", "peak")}


@pytest.mark.parametrize("seed", range(1, 11))
def test_a_mode_of_zero_strength_is_missing(tmp_path, seed):
    cfg = default_config()
    cfg = replace(cfg, modes=[replace(mode, relative_strength=0.0) if mode.label == "TEM01"
                              else mode for mode in cfg.modes])
    found = _template_features(cfg, seed, tmp_path)
    assert {key for key, significant in found.items() if significant} == {
        (label, kind) for label in ("TEM00", "TEM02") for kind in ("dip", "peak")}


@pytest.mark.parametrize("kind", ["dip", "peak"])
def test_gaussian_model_jacobian_matches_central_differences(tmp_path, monkeypatch, kind):
    # the model fit_gaussian_feature hands to lsq_minimize, at its start
    # and at its optimum, in the TEM00 dip or peak window of a template scan
    cfg = default_config()
    mode = cfg.modes[0]
    if kind == "dip":
        scan, _ = dataio.read_scan_csv(pipelines.simulate_telecom_spectrum(cfg, 1, tmp_path))
        window = (mode.lambda_tele_nm - 1.5, mode.lambda_tele_nm + 1.5)
    else:
        scan, _ = dataio.read_scan_csv(
            pipelines.simulate_visible_spectrum(cfg, 1, tmp_path, collection="mmf"))
        window = (mode.lambda_vis_nm - 0.35, mode.lambda_vis_nm + 0.35)
    calls = []

    def capture(model, initial, **kwargs):
        calls.append((model, np.array(initial, dtype=float)))
        return lsq_minimize(model, initial, **kwargs)

    monkeypatch.setattr(spectra, "lsq_minimize", capture)
    feature = spectra.fit_gaussian_feature(scan, window, kind)
    assert feature.significant
    [(model, start)] = calls
    for theta in (start, feature.fit.as_vector()):
        _, jac = model(theta)
        # steps on each parameter's own scale: the width, or the amplitude
        for j, h in enumerate(1e-4 * np.abs(theta[[1, 1, 2, 2]])):
            up, dn = theta.copy(), theta.copy()
            up[j] += h
            dn[j] -= h
            fd = (model(up)[0] - model(dn)[0]) / (2 * h)
            assert np.allclose(jac[:, j], fd, rtol=1e-5, atol=1e-6 * np.abs(jac[:, j]).max())


def test_fit_gaussian_feature_window_too_small():
    grid = np.arange(1539.0, 1543.0, 0.04)
    scan = SpectralScan(grid, np.full_like(grid, 100.0))
    with pytest.raises(InsufficientDataError):
        spectra.fit_gaussian_feature(scan, (1540.0, 1540.2), "dip")


# ------------------------------------------------------------- scan type

def test_scan_validation():
    with pytest.raises(ParameterError):
        SpectralScan(np.array([1.0, 0.5]), np.array([1.0, 1.0]))
    with pytest.raises(ParameterError):
        SpectralScan(np.array([1.0, 2.0]), np.array([1.0, -1.0]))
    with pytest.raises(ParameterError):
        SpectralScan(np.array([1.0, 2.0, 4.0]), np.array([1.0, 1.0, 1.0]))


def test_scan_step_is_the_grids():
    grid = 1540.0 + 0.1 * np.arange(5)
    scan = SpectralScan(grid, np.ones(5))
    assert scan.step_nm == float(grid[1] - grid[0])
    assert spectra.resample_scan(scan, grid[1:4:2]).step_nm == float(grid[3] - grid[1])
    with pytest.raises(AttributeError):
        scan.step_nm = 0.2


def test_band_fraction_requires_shared_grid():
    a = SpectralScan(np.arange(578.0, 584.0, 0.01), np.ones(600))
    b = SpectralScan(np.arange(578.0, 590.0, 0.02), np.ones(600))
    with pytest.raises(ParameterError):
        spectra.band_fraction(a, b, FilterProfile("gaussian", 10.0, center_nm=580.0))

