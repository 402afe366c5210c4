"""Tests for the closed-form converter models.

Frozen expected values were computed independently with 30-digit
arithmetic on the defining expressions (and, for the noise rates, by
high-order quadrature of the integral form), not by running the code
under test.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from dfgnoise import converter
from dfgnoise.converter import ConverterParams
from dfgnoise.errors import ParameterError


@pytest.fixture
def params():
    return ConverterParams(
        length_cm=4.0, eta_max_int=0.67, eta_max_ext=0.46,
        eta_n=0.63, alpha_n=129e3, bandwidth_ref_hz=25e9,
    )


@pytest.fixture
def params_vis():
    return ConverterParams(
        length_cm=4.0, eta_max_int=0.67, eta_max_ext=0.46,
        eta_n=0.63, alpha_n=391e3, bandwidth_ref_hz=63e9,
    )


# ------------------------------------------------------ quadrature oracle

def test_quadrature_zero_pump_is_zero(params):
    assert converter.telecom_noise_rate_quadrature(params, 0.0) == 0.0


def test_quadrature_reduces_to_linear_when_suppression_off(params):
    # zero efficiencies make the integrand constant: alpha * P * L exactly
    dark = replace(params, eta_max_int=0.0, eta_max_ext=0.0)
    rate = converter.telecom_noise_rate_quadrature(dark, 0.2)
    assert rate == pytest.approx(129e3 * 0.2 * 4.0, rel=1e-14)


def test_closed_form_matches_quadrature(params):
    for p in (0.01, 0.1, 0.44):
        closed = converter.telecom_noise_rate(params, p)
        quad = converter.telecom_noise_rate_quadrature(params, p, n_steps=100_000)
        assert closed == pytest.approx(quad, rel=1e-9)


def test_quadrature_rejects_too_few_steps(params):
    with pytest.raises(ParameterError):
        converter.telecom_noise_rate_quadrature(params, 0.1, n_steps=1)


def test_quadrature_rejects_odd_steps(params):
    # composite Simpson needs an even number of intervals
    with pytest.raises(ParameterError):
        converter.telecom_noise_rate_quadrature(params, 0.1, n_steps=1001)


# ------------------------------------------------------ efficiency curve

def efficiency(params, pump_w, eta_max):
    """The sin^2 efficiency curve of ``params`` saturating at ``eta_max``."""
    return converter.efficiency_curve(pump_w, eta_max, params.eta_n, params.length_cm)


def test_efficiency_zero_pump(params):
    assert efficiency(params, 0.0, params.eta_max_int) == 0.0


def test_efficiency_reaches_maxima_near_quarter_watt(params):
    # sin argument is within 1e-3 of its peak at 245 mW
    assert efficiency(params, 0.245, params.eta_max_int) == pytest.approx(0.67, abs=1e-3)
    assert efficiency(params, 0.245, params.eta_max_ext) == pytest.approx(0.46, abs=1e-3)


def test_efficiency_exact_at_peak_power(params):
    p_star = converter.peak_pump_power(params)
    assert efficiency(params, p_star, params.eta_max_int) == pytest.approx(0.67, rel=1e-15)
    assert efficiency(params, p_star, params.eta_max_ext) == pytest.approx(0.46, rel=1e-15)


def test_efficiency_periodic_in_sqrt_power(params):
    # maxima repeat at odd-squared multiples of the first peak power
    p_star = converter.peak_pump_power(params)
    assert efficiency(params, 9.0 * p_star, params.eta_max_int) == pytest.approx(0.67, rel=1e-12)
    assert efficiency(params, 4.0 * p_star, params.eta_max_int) == pytest.approx(0.0, abs=1e-25)


def test_efficiency_bounded(params):
    grid = np.linspace(0.0, 2.0, 400)
    eff = efficiency(params, grid, params.eta_max_int)
    assert np.all(eff >= 0.0)
    assert np.all(eff <= 0.67 + 1e-15)


def test_negative_pump_rejected(params):
    with pytest.raises(ParameterError):
        efficiency(params, -0.1, params.eta_max_int)


# ------------------------------------------------------ peak pump power

def test_peak_pump_power_reference_device(params):
    assert converter.peak_pump_power(params) == pytest.approx(0.244781855186, rel=1e-10)


def test_peak_pump_power_scalings(params):
    quad_eta = ConverterParams(4.0, 0.67, 0.46, 2.52, 129e3, 25e9)
    double_l = ConverterParams(8.0, 0.67, 0.46, 0.63, 129e3, 25e9)
    assert converter.peak_pump_power(quad_eta) == pytest.approx(0.0611954637964, rel=1e-10)
    assert converter.peak_pump_power(double_l) == pytest.approx(0.0611954637964, rel=1e-10)


def test_peak_pump_power_no_maximum():
    flat = ConverterParams(4.0, 0.67, 0.46, 0.0, 129e3, 25e9)
    with pytest.raises(ParameterError):
        converter.peak_pump_power(flat)


# ------------------------------------------------------ noise rates

def test_telecom_noise_zero_pump(params):
    assert converter.telecom_noise_rate(params, 0.0) == 0.0


def test_telecom_noise_frozen_value(params):
    # 30-digit arithmetic on the closed form and quadrature both give this
    assert converter.telecom_noise_rate(params, 0.1) == pytest.approx(42112.9570549, rel=1e-10)


def test_telecom_noise_linear_regime(params):
    # at 0.1 mW the suppression term contributes 2.25e-4 of the rate
    rate = converter.telecom_noise_rate(params, 1e-4)
    assert rate == pytest.approx(51.5883861496, rel=1e-10)
    assert rate == pytest.approx(129e3 * 1e-4 * 4.0, rel=3e-4)


def test_visible_noise_zero_pump(params_vis):
    assert converter.visible_noise_rate(params_vis, 0.0) == 0.0


def test_visible_noise_frozen_values(params_vis):
    assert converter.visible_noise_rate(params_vis, 0.01) == pytest.approx(345.057353814, rel=1e-10)
    assert converter.visible_noise_rate(params_vis, 0.1) == pytest.approx(28755.3007096, rel=1e-10)


def visible_noise_rate_lowpower(params, pump_w):
    """Quadratic low-power approximation of the visible noise rate,
    (1/3) * alpha_n * eta_n * eta_max_int * L^3 * P^2: the check of
    :func:`converter.visible_noise_rate` at low power.

    Overestimates the exact rate by about x^2/20 with
    x = 2L*sqrt(eta_n*P): below 2% for x <= 0.63, about 2.5% at x = 0.7.
    """
    return (params.alpha_n * params.eta_n * params.eta_max_int * params.length_cm**3
            * pump_w * pump_w / 3.0)


def test_lowpower_frozen_value(params_vis):
    # (1/3) * alpha * eta_n * eta_max * L^3 * P^2
    assert visible_noise_rate_lowpower(params_vis, 0.01) == pytest.approx(
        352.08768, rel=1e-12
    )


def test_lowpower_ratio_approaches_one(params_vis):
    ratios = [
        visible_noise_rate_lowpower(params_vis, p)
        / converter.visible_noise_rate(params_vis, p)
        for p in (1e-2, 1e-4, 1e-6)
    ]
    assert ratios[0] > ratios[1] > ratios[2] > 1.0
    assert ratios[2] == pytest.approx(1.0, abs=1e-5)


def test_lowpower_monotone_overestimate(params_vis):
    # overestimates everywhere below the first sinc zero, increasingly so
    l, eta_n = params_vis.length_cm, params_vis.eta_n
    x = np.linspace(0.05, np.pi - 0.05, 50)
    p = (x / (2 * l)) ** 2 / eta_n
    ratio = visible_noise_rate_lowpower(params_vis, p) / converter.visible_noise_rate(
        params_vis, p
    )
    assert np.all(ratio > 1.0)
    assert np.all(np.diff(ratio) > 0)


def test_quadratic_overestimates_far_outside_validity(params_vis):
    ratio = visible_noise_rate_lowpower(params_vis, 0.44) / converter.visible_noise_rate(
        params_vis, 0.44
    )
    assert ratio > 1.25


def test_noise_identity_random_points():
    rng = np.random.default_rng(7)
    for _ in range(100):
        p = ConverterParams(
            length_cm=rng.uniform(0.5, 10.0),
            eta_max_int=rng.uniform(0.3, 1.0),
            eta_max_ext=0.1,
            eta_n=rng.uniform(0.01, 3.0),
            alpha_n=rng.uniform(1e3, 1e6),
            bandwidth_ref_hz=25e9,
        )
        pump = rng.uniform(0.0, 1.0)
        total = converter.telecom_noise_rate(p, pump) + converter.visible_noise_rate(p, pump)
        expected = p.alpha_n * pump * p.length_cm
        assert total == pytest.approx(expected, rel=1e-12)


def test_telecom_noise_sublinear(params):
    p_star = converter.peak_pump_power(params)
    grid = np.linspace(1e-4, p_star, 200)
    ratio = converter.telecom_noise_rate(params, grid) / grid
    assert np.all(np.diff(ratio) <= 1e-9)


def test_telecom_noise_floor(params):
    grid = np.linspace(0.0, 1.0, 50)
    rate = np.asarray(converter.telecom_noise_rate(params, grid))
    floor = params.alpha_n * grid * params.length_cm * (1 - params.eta_max_int)
    assert np.all(rate >= floor - 1e-9)


def test_dip_depth_full_power(params):
    assert converter.dip_depth(params, 0.44) == pytest.approx(0.40478302665, rel=1e-9)


def test_dip_depth_eta_override(params):
    shallow = converter.dip_depth(replace(params, eta_max_int=0.46), 0.44)
    assert shallow == pytest.approx(0.40478302665 * 0.46 / 0.67, rel=1e-9)


# ------------------------------------------------------ wavelength bookkeeping

def test_partner_wavelengths():
    expected = {1541.0: 579.979765277, 1546.0: 580.686591276, 1554.6: 581.895677373}
    for tele, vis in expected.items():
        assert converter.sfg_partner_wavelength(930.0, tele) == pytest.approx(vis, abs=1e-6)


def test_partner_wavelength_rejects_nonpositive():
    with pytest.raises(ParameterError):
        converter.sfg_partner_wavelength(-930.0, 1541.0)


# ------------------------------------------------------ bandwidth bookkeeping

def test_photons_per_mode():
    assert converter.photons_per_mode(129e3, 25e9) == pytest.approx(5.16e-6, rel=1e-12)
    assert converter.photons_per_mode(129e3, 1e6) == pytest.approx(0.129, rel=1e-12)
    assert converter.photons_per_mode(0.0, 25e9) == 0.0
    with pytest.raises(ParameterError):
        converter.photons_per_mode(129e3, 0.0)


def test_rescale_alpha():
    assert converter.rescale_alpha_to_bandwidth(129e3, 200.0, 500.0) == pytest.approx(322.5e3)
    assert converter.rescale_alpha_to_bandwidth(1.7, 42.0, 42.0) == pytest.approx(1.7)
    assert converter.rescale_alpha_to_bandwidth(391e3, 500.0, 200.0) == pytest.approx(156.4e3)


# ------------------------------------------------------ parameter validation

@pytest.mark.parametrize(
    "kwargs",
    [
        {"length_cm": 0.0},
        {"length_cm": -1.0},
        {"eta_max_int": 1.2},
        {"eta_max_ext": 0.8},  # exceeds internal
        {"eta_n": -0.1},
        {"alpha_n": -1.0},
        {"bandwidth_ref_hz": 0.0},
    ],
)
def test_params_validation(kwargs):
    base = dict(length_cm=4.0, eta_max_int=0.67, eta_max_ext=0.46,
                eta_n=0.63, alpha_n=129e3, bandwidth_ref_hz=25e9)
    base.update(kwargs)
    with pytest.raises(ParameterError):
        ConverterParams(**base)


def test_vectorized_over_pump(params):
    grid = np.linspace(0.0, 0.5, 11)
    eff = efficiency(params, grid, params.eta_max_int)
    rate = converter.telecom_noise_rate(params, grid)
    assert isinstance(eff, np.ndarray) and eff.shape == grid.shape
    assert isinstance(rate, np.ndarray) and rate.shape == grid.shape
    assert isinstance(efficiency(params, 0.1, params.eta_max_int), float)


def test_sinc_series_branch_continuity():
    # values straddling the series cutoff must agree smoothly
    from dfgnoise.converter import _sinc
    for x in (9.9e-5, 1.01e-4):
        assert float(_sinc(x)) == pytest.approx(math.sin(x) / x, rel=1e-14)
    assert float(_sinc(0.0)) == 1.0
