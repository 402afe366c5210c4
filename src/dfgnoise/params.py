"""Plain parameter types of the toolkit and their scalar checks.

The device ledger (:class:`ConverterParams`), the phase-matched modes
(:class:`SfgMode`), the filter profiles (:class:`FilterProfile`) and the
detection chains (:class:`MeasurementChain`) are what a validated run
configuration holds.  This module needs only the standard library, so
reading and checking a configuration does not load numpy; the layers
that compute with these types (:mod:`dfgnoise.converter`,
:mod:`dfgnoise.spectra`, :mod:`dfgnoise.counting`) import them from here.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ParameterError

__all__ = [
    "NOISE_SWEEP_KINDS",
    "ConverterParams",
    "SfgMode",
    "FilterProfile",
    "MeasurementChain",
    "sfg_partner_wavelength",
    "sfg_mode_from_telecom",
    "check_mode_energy_conservation",
]

# the noise power sweeps the simulator writes
NOISE_SWEEP_KINDS = ("noise_tele_onpeak", "noise_tele_detuned", "noise_vis")


@dataclass(frozen=True)
class ConverterParams:
    """Device ledger for one frequency converter.

    Parameters
    ----------
    length_cm : float
        Waveguide length in cm.
    eta_max_int : float
        Peak internal conversion efficiency (inside the waveguide).
    eta_max_ext : float
        Peak external device efficiency, including in/out coupling and
        propagation losses; never exceeds the internal value.
    eta_n : float
        Conversion parameter in 1/(W cm^2).  Sets the pump power scale of
        the sin^2 efficiency curve.
    alpha_n : float
        Noise coefficient in Hz/(W cm), tied to ``bandwidth_ref_hz``.
    bandwidth_ref_hz : float
        Measurement bandwidth at which ``alpha_n`` was determined.
    """

    length_cm: float
    eta_max_int: float
    eta_max_ext: float
    eta_n: float
    alpha_n: float
    bandwidth_ref_hz: float

    def __post_init__(self):
        if not self.length_cm > 0:
            raise ParameterError(f"length_cm must be positive, got {self.length_cm}")
        if not 0.0 <= self.eta_max_ext <= self.eta_max_int <= 1.0:
            raise ParameterError(
                "efficiencies must satisfy 0 <= eta_max_ext <= eta_max_int <= 1, "
                f"got ext={self.eta_max_ext}, int={self.eta_max_int}"
            )
        if self.eta_n < 0:
            raise ParameterError(f"eta_n must be non-negative, got {self.eta_n}")
        if self.alpha_n < 0:
            raise ParameterError(f"alpha_n must be non-negative, got {self.alpha_n}")
        if not self.bandwidth_ref_hz > 0:
            raise ParameterError(
                f"bandwidth_ref_hz must be positive, got {self.bandwidth_ref_hz}"
            )


def sfg_partner_wavelength(lambda_pump_nm: float, lambda_tele_nm: float) -> float:
    """Visible wavelength produced by SFG of a telecom photon with the pump,
    1/lambda_vis = 1/lambda_pump + 1/lambda_tele.  All values in nm."""
    if lambda_pump_nm <= 0 or lambda_tele_nm <= 0:
        raise ParameterError("wavelengths must be positive")
    return 1.0 / (1.0 / lambda_pump_nm + 1.0 / lambda_tele_nm)


@dataclass(frozen=True)
class SfgMode:
    """One phase-matched spatial mode of the waveguide.

    ``relative_strength`` is the peak SFG efficiency relative to the
    fundamental mode.  ``fwhm_dip_nm``, the width of the noise dip this
    mode carves into the telecom spectrum, is a free calibration input;
    measured dips run wider than the SFG acceptance width
    ``fwhm_sfg_nm``, so the two are kept separate.
    """

    label: str
    lambda_tele_nm: float
    lambda_vis_nm: float
    fwhm_sfg_nm: float
    fwhm_dip_nm: float
    relative_strength: float

    def __post_init__(self):
        if self.lambda_tele_nm <= 0 or self.lambda_vis_nm <= 0:
            raise ParameterError(f"mode {self.label}: wavelengths must be positive")
        if self.fwhm_sfg_nm <= 0 or self.fwhm_dip_nm <= 0:
            raise ParameterError(f"mode {self.label}: FWHM values must be positive")
        if not 0.0 <= self.relative_strength <= 1.0:
            raise ParameterError(
                f"mode {self.label}: relative_strength must be in [0, 1]"
            )

    @property
    def fwhm_peak_nm(self) -> float:
        """Width of the visible peak partnering the dip: energy conservation
        maps the telecom width by (lambda_vis / lambda_tele)^2."""
        return self.fwhm_dip_nm * (self.lambda_vis_nm / self.lambda_tele_nm) ** 2


def sfg_mode_from_telecom(
    label: str,
    lambda_tele_nm: float,
    lambda_pump_nm: float,
    fwhm_sfg_nm: float,
    fwhm_dip_nm: float,
    relative_strength: float,
) -> SfgMode:
    """Build an :class:`SfgMode` with the visible center derived from energy
    conservation against the pump wavelength."""
    return SfgMode(
        label=label,
        lambda_tele_nm=lambda_tele_nm,
        lambda_vis_nm=sfg_partner_wavelength(lambda_pump_nm, lambda_tele_nm),
        fwhm_sfg_nm=fwhm_sfg_nm,
        fwhm_dip_nm=fwhm_dip_nm,
        relative_strength=relative_strength,
    )


def check_mode_energy_conservation(mode: SfgMode, lambda_pump_nm: float) -> None:
    """Raise if the mode's visible center disagrees with the partner of its
    telecom center by more than 0.05 nm."""
    expected = sfg_partner_wavelength(lambda_pump_nm, mode.lambda_tele_nm)
    if abs(expected - mode.lambda_vis_nm) > 0.05:
        raise ParameterError(
            f"mode {mode.label}: visible center {mode.lambda_vis_nm} nm is "
            f"{abs(expected - mode.lambda_vis_nm):.3f} nm away from the "
            f"energy-conservation partner {expected:.3f} nm (tolerance 0.05 nm)"
        )


@dataclass(frozen=True)
class FilterProfile:
    """Transmission profile of a bandpass filter or instrument response;
    :func:`dfgnoise.spectra.filter_transmission` evaluates it."""

    shape: str
    fwhm_nm: float
    center_nm: float = 0.0
    peak_transmission: float = 1.0

    def __post_init__(self):
        if self.shape not in ("gaussian", "rectangular"):
            raise ParameterError(f"shape must be gaussian or rectangular, got {self.shape!r}")
        if self.fwhm_nm <= 0:
            raise ParameterError("filter FWHM must be positive")
        if not 0.0 < self.peak_transmission <= 1.0:
            raise ParameterError("peak_transmission must be in (0, 1]")


@dataclass(frozen=True)
class MeasurementChain:
    """Detection chain: labelled transmission factors, detector efficiency,
    dark count rate and default integration time."""

    transmissions: tuple[tuple[str, float], ...]
    detector_efficiency: float
    dark_rate_hz: float
    integration_time_s: float

    def __post_init__(self):
        object.__setattr__(
            self, "transmissions", tuple((str(k), float(v)) for k, v in self.transmissions)
        )
        for label, factor in self.transmissions:
            if not 0.0 < factor <= 1.0:
                raise ParameterError(
                    f"transmission {label!r} must be in (0, 1], got {factor}"
                )
        if not 0.0 < self.detector_efficiency <= 1.0:
            raise ParameterError(
                f"detector_efficiency must be in (0, 1], got {self.detector_efficiency}"
            )
        if self.dark_rate_hz < 0:
            raise ParameterError(f"dark_rate_hz must be non-negative, got {self.dark_rate_hz}")
        if not self.integration_time_s > 0:
            raise ParameterError(
                f"integration_time_s must be positive, got {self.integration_time_s}"
            )
