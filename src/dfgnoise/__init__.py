"""dfgnoise: efficiency and pump-noise modeling for visible-to-telecom
DFG quantum frequency converters.

The package splits into a pure physics core (:mod:`dfgnoise.converter`),
noise-spectrum synthesis and analysis (:mod:`dfgnoise.spectra`), a Monte
Carlo detection-chain model (:mod:`dfgnoise.counting`), least-squares
parameter estimation (:mod:`dfgnoise.fitting`), and the configuration /
file-format / CLI layer (:mod:`dfgnoise.config`, :mod:`dfgnoise.dataio`,
:mod:`dfgnoise.pipelines`, :mod:`dfgnoise.cli`).
"""

from .converter import (
    ConverterParams,
    dfg_efficiency,
    dip_depth,
    peak_pump_power,
    photons_per_mode,
    rescale_alpha_to_bandwidth,
    sfg_partner_wavelength,
    telecom_noise_rate,
    telecom_noise_rate_quadrature,
    visible_noise_rate,
    visible_noise_rate_lowpower,
)
from .counting import (
    CountRecord,
    MeasurementChain,
    SweepCounts,
    chain_transmission,
    expected_counts,
    normalize_counts,
    normalize_to_waveguide,
    simulate_counts,
    simulate_sweep,
)
from .fitting import (
    FitResult,
    PowerSweep,
    fit_alpha_linear,
    fit_alpha_visible,
    fit_efficiency_shared,
    lsq_minimize,
    predict_noise_curves,
)
from .spectra import (
    FilterProfile,
    SfgMode,
    SpectralScan,
    band_fraction,
    convolve_with_filter,
    deconvolve_gaussian,
    fit_gaussian_feature,
    telecom_spectrum,
    visible_spectrum,
)

__version__ = "0.1.0"

__all__ = [
    "ConverterParams", "dfg_efficiency", "dip_depth",
    "peak_pump_power", "photons_per_mode", "rescale_alpha_to_bandwidth",
    "sfg_partner_wavelength", "telecom_noise_rate", "telecom_noise_rate_quadrature",
    "visible_noise_rate", "visible_noise_rate_lowpower",
    "CountRecord", "MeasurementChain", "SweepCounts", "chain_transmission", "expected_counts",
    "normalize_counts", "normalize_to_waveguide", "simulate_counts", "simulate_sweep",
    "FitResult", "PowerSweep", "fit_alpha_linear", "fit_alpha_visible",
    "fit_efficiency_shared", "lsq_minimize", "predict_noise_curves",
    "FilterProfile", "SfgMode", "SpectralScan", "band_fraction",
    "convolve_with_filter", "deconvolve_gaussian", "fit_gaussian_feature",
    "telecom_spectrum", "visible_spectrum",
]
