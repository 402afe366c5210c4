"""dfgnoise: efficiency and pump-noise modeling for visible-to-telecom
DFG quantum frequency converters.

The package splits into a pure physics core (:mod:`dfgnoise.converter`),
noise-spectrum synthesis and analysis (:mod:`dfgnoise.spectra`), a Monte
Carlo detection-chain model (:mod:`dfgnoise.counting`), least-squares
parameter estimation (:mod:`dfgnoise.fitting`), the plain parameter
types they share (:mod:`dfgnoise.params`), and the configuration /
file-format / CLI layer (:mod:`dfgnoise.config`, :mod:`dfgnoise.dataio`,
:mod:`dfgnoise.pipelines`, :mod:`dfgnoise.cli`).

The names below are imported from their module on first use, so
``import dfgnoise`` and the commands that only read a configuration do
not load numpy.
"""

import importlib

__version__ = "0.1.0"

# public name -> the module that defines it
_MODULES = {
    name: module
    for module, names in {
        "params": ("ConverterParams", "MeasurementChain", "FilterProfile", "SfgMode",
                   "sfg_partner_wavelength"),
        "converter": ("dfg_efficiency", "dip_depth", "peak_pump_power", "photons_per_mode",
                      "rescale_alpha_to_bandwidth", "telecom_noise_rate",
                      "telecom_noise_rate_quadrature", "visible_noise_rate",
                      "visible_noise_rate_lowpower"),
        "counting": ("CountRecord", "SweepCounts", "chain_transmission", "expected_counts",
                     "normalize_counts", "normalize_to_waveguide", "simulate_counts",
                     "simulate_sweep"),
        "fitting": ("FitResult", "PowerSweep", "fit_alpha_linear", "fit_alpha_visible",
                    "fit_efficiency_shared", "lsq_minimize", "predict_noise_curves"),
        "spectra": ("SpectralScan", "band_fraction", "convolve_with_filter",
                    "deconvolve_gaussian", "fit_gaussian_feature", "telecom_spectrum",
                    "visible_spectrum"),
    }.items()
    for name in names
}

__all__ = list(_MODULES)


def __getattr__(name):
    # not cached in the package's globals, so vars(dfgnoise) stays as imported
    # (bench/test_smoke.py compares it around the tracer)
    if name not in _MODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_MODULES[name]}", __name__), name)
