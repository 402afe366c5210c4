"""Closed-form models of a quasi-phase-matched DFG frequency converter.

A strong pump at ``lambda_pump`` converts visible photons to the telecom
band (difference frequency generation) inside a waveguide of length
``length_cm``.  The same pump produces broadband SPDC noise at the telecom
wavelength, part of which is converted back to the visible by
phase-matched sum frequency generation (SFG).  This module collects the
closed-form expressions for the conversion efficiency and the two noise
rates, plus the small wavelength/bandwidth bookkeeping helpers the rest
of the toolkit builds on.

Conventions
-----------
* pump powers are in W, coupled into the waveguide (coupling losses live
  in the measurement chain, not here),
* rates are in Hz at the output of the waveguide,
* ``alpha_n`` is the noise coefficient in Hz/(W cm) within the filter
  bandwidth ``bandwidth_ref_hz`` at which it was measured.

All functions are pure and accept either scalars or numpy arrays for the
pump power.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError
from .params import ConverterParams, sfg_partner_wavelength

__all__ = [
    "ConverterParams",
    "dfg_efficiency",
    "efficiency_curve",
    "peak_pump_power",
    "dip_depth",
    "suppression_depth",
    "telecom_noise_rate",
    "telecom_noise_rate_quadrature",
    "visible_noise_rate",
    "visible_noise_rate_lowpower",
    "sfg_partner_wavelength",
    "photons_per_mode",
    "rescale_alpha_to_bandwidth",
]

# below this |x| the direct sin(x)/x quotient is replaced by its series
_SINC_SERIES_CUTOFF = 1e-4


def _sinc(x):
    """sin(x)/x with the removable singularity handled by series expansion."""
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < _SINC_SERIES_CUTOFF
    xs = np.where(small, 1.0, x)  # dummy argument where the series is used
    x2 = x * x
    return np.where(small, 1.0 - x2 / 6.0 + x2 * x2 / 120.0, np.sin(xs) / xs)


def _check_pump(pump_w):
    p = np.asarray(pump_w, dtype=float)
    if np.any(p < 0) or not np.all(np.isfinite(p)):
        raise ParameterError("pump power must be finite and non-negative")
    return p


def _scalar_or_array(x):
    return float(x) if np.ndim(x) == 0 else x


def efficiency_curve(pump_w, eta_max: float, eta_n: float, length_cm: float):
    """Raw sin^2 conversion-efficiency curve, eta_max * sin^2(L*sqrt(eta_n*P))."""
    p = _check_pump(pump_w)
    arg = length_cm * np.sqrt(eta_n * p)
    return _scalar_or_array(eta_max * np.sin(arg) ** 2)


def dfg_efficiency(params: ConverterParams, pump_w, which: str = "internal"):
    """DFG conversion efficiency at the given coupled pump power.

    ``which`` selects the internal or external saturation efficiency; the
    pump-power dependence is shared.  Result lies in [0, eta_max].
    """
    return efficiency_curve(pump_w, params.eta_max(which), params.eta_n, params.length_cm)


def peak_pump_power(params: ConverterParams) -> float:
    """Pump power of the first efficiency maximum, (pi/(2L))^2 / eta_n, in W."""
    if params.eta_n == 0:
        raise ParameterError("eta_n is zero: the efficiency curve has no maximum")
    return (np.pi / (2.0 * params.length_cm)) ** 2 / params.eta_n


def suppression_depth(pump_w, eta_max: float, eta_n: float, length_cm: float):
    """Fractional SFG suppression of the telecom noise,
    (eta_max/2) * (1 - sinc(2L*sqrt(eta_n*P))).

    Grows from 0 at zero pump to a maximum near the efficiency peak; this
    is the depth of the noise dip at a phase-matching wavelength.
    """
    p = _check_pump(pump_w)
    x = 2.0 * length_cm * np.sqrt(eta_n * p)
    return _scalar_or_array(0.5 * eta_max * (1.0 - _sinc(x)))


def dip_depth(params: ConverterParams, pump_w):
    """Noise-dip depth as a fraction of the flat background.

    Uses the internal saturation efficiency: noise photons are generated
    throughout the waveguide and their back-conversion is an internal
    process.
    """
    return suppression_depth(pump_w, params.eta_max_int, params.eta_n, params.length_cm)


def telecom_noise_rate(params: ConverterParams, pump_w):
    """Pump-induced noise rate at the telecom wavelength, in Hz.

    SPDC alone would give the linear rate alpha_n * P * L; phase-matched
    SFG removes the dip-depth fraction, making the power dependence
    sub-linear.  The rate refers to the bandwidth at which ``alpha_n``
    was measured.
    """
    p = _check_pump(pump_w)
    base = params.alpha_n * p * params.length_cm
    depth = dip_depth(params, p)
    return _scalar_or_array(base * (1.0 - depth))


def telecom_noise_rate_quadrature(
    params: ConverterParams, pump_w: float, n_steps: int = 100_000
):
    """Telecom noise rate by direct numerical integration along the waveguide.

    Integrates alpha_n * P * (1 - eta_max_int * sin^2(x*sqrt(eta_n*P))) over
    x in [0, L] with a composite Simpson rule on ``n_steps`` intervals
    (an even number).  Serves as an independent oracle for
    :func:`telecom_noise_rate`; it never calls the closed form.
    """
    if n_steps < 2 or n_steps % 2:
        raise ParameterError(f"n_steps must be even and at least 2, got {n_steps}")
    p = float(_check_pump(pump_w))
    eta, eta_n = params.eta_max_int, params.eta_n
    x = np.linspace(0.0, params.length_cm, n_steps + 1)
    integrand = params.alpha_n * p * (1.0 - eta * np.sin(x * np.sqrt(eta_n * p)) ** 2)
    weights = np.ones(n_steps + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return float(weights @ integrand) * (x[1] - x[0]) / 3.0


def visible_noise_rate(params: ConverterParams, pump_w):
    """Noise rate converted back to the visible by SFG, in Hz.

    Exactly the photons missing from the telecom rate:
    ``visible + telecom == alpha_n * P * L`` holds identically.
    """
    p = _check_pump(pump_w)
    base = params.alpha_n * p * params.length_cm
    return _scalar_or_array(base * dip_depth(params, p))


def visible_noise_rate_lowpower(params: ConverterParams, pump_w):
    """Quadratic low-power approximation of the visible noise rate,
    (1/3) * alpha_n * eta_n * eta_max_int * L^3 * P^2.

    Overestimates the exact rate by about x^2/20 with
    x = 2L*sqrt(eta_n*P): below 2% for x <= 0.63, about 2.5% at x = 0.7.
    """
    p = _check_pump(pump_w)
    rate = (params.alpha_n * params.eta_n * params.eta_max_int * params.length_cm**3
            * p * p / 3.0)
    return _scalar_or_array(rate)


def photons_per_mode(alpha_n: float, bandwidth_hz: float) -> float:
    """Noise probability per spectro-temporal mode, alpha_n / bandwidth.

    Dividing the noise coefficient by the measurement bandwidth gives the
    probability (per W of pump, per cm of waveguide) of finding a noise
    photon in one time-bandwidth-limited mode.
    """
    if bandwidth_hz <= 0:
        raise ParameterError("bandwidth must be positive")
    if alpha_n < 0:
        raise ParameterError("alpha_n must be non-negative")
    return alpha_n / bandwidth_hz


def rescale_alpha_to_bandwidth(alpha_n: float, from_bw: float, to_bw: float) -> float:
    """Rescale a noise coefficient between measurement bandwidths.

    Assumes spectrally flat noise, so only the bandwidth ratio matters;
    both bandwidths must be in the same unit (Hz, pm, ...).  When
    comparing to the visible noise, cap ``to_bw`` at the SFG dip
    bandwidth: photons outside the dip are never converted.
    """
    if from_bw <= 0 or to_bw <= 0:
        raise ParameterError("bandwidths must be positive")
    return alpha_n * to_bw / from_bw
