"""Synthesis and analysis of converter noise spectra.

The telecom noise background is spectrally flat (non-phase-matched SPDC)
with Gaussian dips burnt in at the SFG phase-matching wavelength of each
spatial waveguide mode.  Every photon missing from a dip reappears in a
visible peak at the energy-conservation partner wavelength, so the two
spectra are tied together by photon-number conservation.  This module
builds both, convolves them with instrument filter profiles, and fits
Gaussian features back out of sampled scans.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from . import converter
from .errors import (
    FitFailureError,
    InsufficientDataError,
    ModelViolationError,
    NonPhysicalWidthError,
    ParameterError,
    ResolutionError,
)
from .fitting import FitResult, check_rows, lsq_minimize

if TYPE_CHECKING:  # annotations only
    from .params import FilterProfile, SfgMode

__all__ = [
    "SpectralScan",
    "GaussianFeature",
    "filter_transmission",
    "gaussian_profile",
    "telecom_spectrum",
    "visible_spectrum",
    "convolve_with_filter",
    "deconvolve_gaussian",
    "fit_gaussian_feature",
    "band_fraction",
    "GAUSSIAN_AREA_FACTOR",
]

# area of a unit-peak Gaussian of given FWHM: area = peak * fwhm * this
GAUSSIAN_AREA_FACTOR = math.sqrt(math.pi / (4.0 * math.log(2.0)))

# kernel support and "far from the feature" cutoff, in units of FWHM
_KERNEL_CUTOFF_FWHM = 5.0

# relative difference within which two steps of a scan grid are equal
_STEP_RTOL = 1e-9

# amplitude, in standard deviations, of a significant feature: a window
# offers a fit some thirty centers and many widths to choose from, so on
# mode-free template scans 3 sigma finds a feature in about 2% of windows
_SIGNIFICANT_SIGMAS = 5.0


@dataclass
class SpectralScan:
    """A sampled spectrum on a uniform wavelength grid.

    ``filter_fwhm_nm`` records the bandwidth of the filter that produced
    the scan; 0 marks an unfiltered (intrinsic) model spectrum.  The grid's
    step, :attr:`step_nm`, is worked out from its first two wavelengths.
    A row that breaks a rule of its columns is a ``RowError``.
    """

    wavelength_nm: np.ndarray
    rate_hz: np.ndarray
    filter_fwhm_nm: float = 0.0
    integration_time_s: float = 0.0

    def __post_init__(self):
        self.wavelength_nm = wl = np.asarray(self.wavelength_nm, dtype=float)
        self.rate_hz = rate = np.asarray(self.rate_hz, dtype=float)
        if wl.ndim != 1 or len(wl) != len(rate):
            raise ParameterError("wavelength and rate arrays must be 1-d and equal length")
        rising, even = np.ones((2, len(wl)), dtype=bool)
        with np.errstate(invalid="ignore", over="ignore"):  # a step from or to inf
            steps = wl[1:] - wl[:-1]
            rising[1:] = steps > 0
            even[1:] = ~(np.abs(steps - steps[:1]) > _STEP_RTOL * steps[:1])
        check_rows(("wavelength_nm", wl, np.isfinite(wl), "finite"),
                   ("wavelength_nm", wl, rising, "strictly increasing"),
                   ("wavelength_nm", wl, even, "evenly spaced"),
                   ("rate_hz", rate, (rate >= 0) & (rate < np.inf), "finite and non-negative"))
        if len(wl) < 2:
            raise ParameterError("a scan needs at least two samples")

    @property
    def step_nm(self) -> float:
        """The grid's step in nm, its first two wavelengths apart."""
        return float(self.wavelength_nm[1] - self.wavelength_nm[0])

    def __len__(self) -> int:
        return len(self.wavelength_nm)

    def area(self) -> float:
        """Trapezoid integral of the scan in Hz*nm."""
        return float(np.trapezoid(self.rate_hz, self.wavelength_nm))


def filter_transmission(profile: FilterProfile, wavelength_nm):
    """Transmission of ``profile`` at the given wavelengths, peak value at
    its center."""
    if profile.shape == "gaussian":
        t = gaussian_profile(wavelength_nm, profile.center_nm, profile.fwhm_nm)
    else:
        d = np.asarray(wavelength_nm, dtype=float) - profile.center_nm
        t = (np.abs(d) <= profile.fwhm_nm / 2.0).astype(float)
    return profile.peak_transmission * t


def gaussian_profile(x, center: float, fwhm: float):
    """Unit-peak Gaussian parameterized by its FWHM."""
    x = np.asarray(x, dtype=float)
    return np.exp(-4.0 * math.log(2.0) * ((x - center) / fwhm) ** 2)


def telecom_spectrum(
    params: converter.ConverterParams, modes: list[SfgMode], pump_w: float, grid_nm
) -> SpectralScan:
    """Intrinsic telecom noise spectrum: flat SPDC background with one
    Gaussian dip per phase-matched mode.

    The background level is alpha_n * P * L, in the bandwidth alpha_n was
    measured in.  Each mode removes the fraction
    ``dip_depth * relative_strength`` at its center.
    """
    grid = np.asarray(grid_nm, dtype=float)
    depth = converter.dip_depth(params, pump_w)
    total_dip = np.zeros_like(grid)
    for mode in modes:
        total_dip += (
            depth
            * mode.relative_strength
            * gaussian_profile(grid, mode.lambda_tele_nm, mode.fwhm_dip_nm)
        )
    if np.any(total_dip > 1.0 + 1e-12):
        worst = grid[int(np.argmax(total_dip))]
        raise ModelViolationError(
            f"overlapping dips drive the spectrum negative near {worst:.2f} nm "
            f"(total depth {np.max(total_dip):.3f} > 1)"
        )
    background = params.alpha_n * pump_w * params.length_cm
    rate = background * (1.0 - total_dip)
    return SpectralScan(wavelength_nm=grid, rate_hz=np.clip(rate, 0.0, None))


def visible_spectrum(
    params: converter.ConverterParams,
    modes: list[SfgMode],
    pump_w: float,
    grid_nm,
    collection: dict[str, float] | None = None,
) -> SpectralScan:
    """Visible noise spectrum: one Gaussian peak per mode at the partner
    wavelength.

    Each peak carries exactly the spectral area its dip removes from the
    telecom background (photon-number conservation), with the width
    mapped through energy conservation.  ``collection`` optionally scales
    each peak by the per-mode collection efficiency of the output fiber
    (a single-mode fiber couples higher-order modes poorly).
    """
    grid = np.asarray(grid_nm, dtype=float)
    depth = converter.dip_depth(params, pump_w)
    background = params.alpha_n * pump_w * params.length_cm
    rate = np.zeros_like(grid)
    for mode in modes:
        removed_area = (
            background
            * depth
            * mode.relative_strength
            * mode.fwhm_dip_nm
            * GAUSSIAN_AREA_FACTOR
        )
        fwhm_vis = mode.fwhm_peak_nm
        amplitude = removed_area / (fwhm_vis * GAUSSIAN_AREA_FACTOR)
        if collection is not None:
            amplitude *= collection.get(mode.label, 1.0)
        rate += amplitude * gaussian_profile(grid, mode.lambda_vis_nm, fwhm_vis)
    return SpectralScan(wavelength_nm=grid, rate_hz=rate)


def _filter_kernel(profile: FilterProfile, step_nm: float) -> np.ndarray:
    half = int(math.ceil(_KERNEL_CUTOFF_FWHM * profile.fwhm_nm / step_nm))
    offsets = np.arange(-half, half + 1) * step_nm
    k = filter_transmission(replace(profile, center_nm=0.0, peak_transmission=1.0), offsets)
    k /= k.sum() * step_nm  # unit area
    return k * profile.peak_transmission


def convolve_with_filter(scan: SpectralScan, profile: FilterProfile) -> SpectralScan:
    """Convolve a scan with a filter profile (kernel area = peak transmission).

    The kernel is centered, truncated at +/-5 FWHM, and the scan is
    edge-padded, so a flat spectrum stays flat (times the transmission)
    and Gaussian features widen in quadrature.  The scan grid must
    resolve the filter: step <= FWHM/5.
    """
    if scan.step_nm > profile.fwhm_nm / 5.0:
        raise ResolutionError(
            f"scan step {scan.step_nm} nm too coarse for a {profile.fwhm_nm} nm "
            "filter (need step <= FWHM/5)"
        )
    kernel = _filter_kernel(profile, scan.step_nm)
    half = (len(kernel) - 1) // 2
    padded = np.pad(scan.rate_hz, half, mode="edge")
    out = np.convolve(padded, kernel, mode="valid") * scan.step_nm
    return replace(scan, rate_hz=np.clip(out, 0.0, None), filter_fwhm_nm=profile.fwhm_nm)


def deconvolve_gaussian(observed_fwhm: float, filter_fwhm: float) -> float:
    """Intrinsic FWHM of a Gaussian feature seen through a Gaussian filter,
    sqrt(observed^2 - filter^2).  Units are whatever the inputs share."""
    if observed_fwhm <= 0 or filter_fwhm < 0:
        raise ParameterError("widths must be positive (filter may be zero)")
    if observed_fwhm <= filter_fwhm:
        raise NonPhysicalWidthError(
            f"observed width {observed_fwhm} does not exceed the filter width "
            f"{filter_fwhm}; nothing intrinsic remains"
        )
    return math.sqrt(observed_fwhm**2 - filter_fwhm**2)


@dataclass
class GaussianFeature:
    """A fitted Gaussian dip or peak on a constant baseline.

    ``amplitude_hz`` is signed (negative for dips).  ``significant`` is
    False, i.e. no feature of the kind was found, unless the amplitude
    has the kind's sign and exceeds five standard deviations, the center
    lies inside the window, the width is at least one scan step and the
    width of the filter that produced the scan and at most the window's,
    and the covariance has full rank.
    """

    center_nm: float
    fwhm_nm: float
    amplitude_hz: float
    baseline_hz: float
    sigma_center_nm: float
    sigma_fwhm_nm: float
    sigma_amplitude_hz: float
    sigma_baseline_hz: float
    significant: bool
    fit: FitResult


def fit_gaussian_feature(
    scan: SpectralScan,
    window_nm: tuple[float, float],
    kind: str,
) -> GaussianFeature:
    """Least-squares Gaussian-plus-baseline fit inside a wavelength window.

    ``kind`` ('dip' or 'peak') fixes the sign of the starting amplitude.
    Parameter uncertainties are scaled by the root reduced chi-square, as
    appropriate for a scan without per-point error bars.
    """
    if kind not in ("dip", "peak"):
        raise ParameterError(f"kind must be 'dip' or 'peak', got {kind!r}")
    lo, hi = window_nm
    mask = (scan.wavelength_nm >= lo) & (scan.wavelength_nm <= hi)
    if int(mask.sum()) < 8:
        raise InsufficientDataError(
            f"window [{lo}, {hi}] nm contains {int(mask.sum())} samples, need >= 8"
        )
    x = scan.wavelength_nm[mask]
    y = scan.rate_hz[mask]

    baseline0 = float(np.median(y))
    if kind == "dip":
        idx = int(np.argmin(y))
    else:
        idx = int(np.argmax(y))
    amp0 = float(y[idx] - baseline0)
    center0 = float(x[idx])
    fwhm0 = max((hi - lo) / 6.0, 3.0 * scan.step_nm)

    ln16 = 4.0 * math.log(2.0)

    def model(theta):
        c, w, a, b = theta
        u = (x - c) / w
        g = gaussian_profile(x, c, w)
        jac = np.empty((len(x), 4))
        jac[:, 0] = -a * g * 2.0 * ln16 * u / w
        jac[:, 1] = -a * g * 2.0 * ln16 * u * u / w
        jac[:, 2] = -g
        jac[:, 3] = -1.0
        return y - (b + a * g), jac

    result = lsq_minimize(model, [center0, fwhm0, amp0, baseline0],
                          names=["center_nm", "fwhm_nm", "amplitude_hz", "baseline_hz"])
    if not result.converged:
        raise FitFailureError(
            f"gaussian feature fit did not converge: {result.message} "
            f"(after {result.n_iterations} iterations, "
            f"chi2_reduced={result.chi2_reduced:.3g})"
        )

    # scale covariance by reduced chi2: the scan carries no error bars
    scale = result.chi2_reduced if np.isfinite(result.chi2_reduced) else 0.0
    cov = result.covariance * scale
    sig = np.sqrt(np.maximum(np.diag(cov), 0.0))
    values = result.as_vector()
    center, fwhm = float(values[0]), abs(float(values[1]))
    amp, s_amp = float(values[2]), float(sig[2])
    significant = ((-amp if kind == "dip" else amp) > _SIGNIFICANT_SIGMAS * s_amp
                   and lo <= center <= hi
                   and max(scan.step_nm, scan.filter_fwhm_nm) <= fwhm <= hi - lo
                   and np.linalg.matrix_rank(result.covariance) == len(values))
    return GaussianFeature(
        center_nm=center,
        fwhm_nm=fwhm,
        amplitude_hz=amp,
        baseline_hz=float(values[3]),
        sigma_center_nm=float(sig[0]),
        sigma_fwhm_nm=float(sig[1]),
        sigma_amplitude_hz=s_amp,
        sigma_baseline_hz=float(sig[3]),
        significant=bool(significant),
        fit=result,
    )


def band_fraction(
    target_scan: SpectralScan,
    total_scan: SpectralScan,
    bandpass: FilterProfile,
) -> float:
    """Fraction of detected counts originating from the target component.

    Integrates the target and total spectra against the bandpass
    transmission; both scans must share a grid.  This is the correction
    factor that isolates one noise peak from its neighbors leaking
    through the filter tails.
    """
    if len(target_scan) != len(total_scan) or not np.allclose(
        target_scan.wavelength_nm, total_scan.wavelength_nm
    ):
        raise ParameterError("target and total scans must share a wavelength grid")
    t = filter_transmission(bandpass, total_scan.wavelength_nm)
    num = np.trapezoid(target_scan.rate_hz * t, total_scan.wavelength_nm)
    den = np.trapezoid(total_scan.rate_hz * t, total_scan.wavelength_nm)
    if den <= 0:
        raise ParameterError("total spectrum has no transmitted flux")
    return float(num / den)


def resample_scan(scan: SpectralScan, grid_nm) -> SpectralScan:
    """Linear interpolation of a scan onto a new uniform grid inside its span."""
    grid = np.asarray(grid_nm, dtype=float)
    if grid[0] < scan.wavelength_nm[0] - 1e-12 or grid[-1] > scan.wavelength_nm[-1] + 1e-12:
        raise ParameterError("target grid extends beyond the scan")
    rate = np.interp(grid, scan.wavelength_nm, scan.rate_hz)
    return replace(scan, wavelength_nm=grid, rate_hz=rate)
