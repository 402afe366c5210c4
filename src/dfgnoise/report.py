"""Plain-text summary report of a characterized converter.

Collects the fitted (or configured) device parameters and derives the
headline figures: peak pump power, noise-dip depth at full power, noise
probability per spectro-temporal mode, and the bandwidth reconciliation
between the telecom and visible noise coefficients.
"""

from __future__ import annotations

from dataclasses import replace

from . import converter
from .config import RunConfig
from .dataio import apply_efficiency_fit, fitted_values

__all__ = ["build_report"]


def _param_line(name: str, value: float, unit: str, fitted: dict, scale: float = 1.0) -> str:
    """One parameter; ``fitted`` maps each fitted name to its sigma or None,
    and ``value`` is shown divided by ``scale``."""
    if name not in fitted:
        return f"  {name:<14} {value / scale:.4g} {unit}  (configured)"
    if fitted[name] is None:
        return f"  {name:<14} {value / scale:.4g} {unit}  (fitted, no uncertainty)"
    return f"  {name:<14} {value / scale:.4g} +/- {fitted[name] / scale:.2g} {unit}  (fitted)"


def build_report(
    cfg: RunConfig,
    efficiency_fit: dict | None = None,
    noise_fit: dict | None = None,
    mode_bandwidth_hz: float = 1e6,
) -> str:
    """Assemble the summary report.

    ``efficiency_fit`` and ``noise_fit`` are parsed fit-result payloads
    (see :func:`dfgnoise.dataio.read_fit_json`); configured values are
    used for anything not fitted.  ``mode_bandwidth_hz`` selects the
    bandwidth for the rescaled noise-rate figure.
    """
    params = cfg.converter
    alpha_vis = cfg.alpha_n_visible
    fitted = {}  # sigma (or None) of each fitted parameter
    if efficiency_fit is not None:
        params = apply_efficiency_fit(params, efficiency_fit)
        _, sigmas = fitted_values(efficiency_fit, "efficiency fit",
                                  ("eta_max_int", "eta_max_ext", "eta_n"))
        fitted.update(sigmas)
    if noise_fit is not None:
        alphas, sigmas = fitted_values(noise_fit, "noise fit", ("alpha_n_tele", "alpha_n_vis"))
        params = replace(params, alpha_n=alphas.get("alpha_n_tele", params.alpha_n))
        alpha_vis = alphas.get("alpha_n_vis", alpha_vis)
        fitted.update(sigmas)

    # a device with eta_n = 0 converts nothing: its efficiency has no peak
    peak = (f"{converter.peak_pump_power(params):.4f} W" if params.eta_n > 0
            else "none (eta_n is zero)")
    p_max = cfg.sweep.pump_max_w
    depth = converter.dip_depth(params, p_max)
    per_mode = converter.photons_per_mode(params.alpha_n, params.bandwidth_ref_hz)
    rescaled = converter.rescale_alpha_to_bandwidth(
        params.alpha_n, params.bandwidth_ref_hz, mode_bandwidth_hz
    )

    # telecom coefficient extrapolated from the filter bandwidth to the
    # full dip bandwidth, to compare against the visible coefficient
    tg_fwhm = cfg.tg_filter.fwhm_nm
    dip_fwhm = cfg.modes[0].fwhm_dip_nm
    bw_ratio = dip_fwhm / tg_fwhm
    alpha_tele_full = converter.rescale_alpha_to_bandwidth(params.alpha_n, 1.0, bw_ratio)
    ratio = alpha_tele_full / alpha_vis if alpha_vis > 0 else float("nan")

    lines = [
        "converter characterization report",
        "=================================",
        "",
        "device parameters",
        _param_line("eta_max_int", params.eta_max_int, "", fitted),
        _param_line("eta_max_ext", params.eta_max_ext, "", fitted),
        _param_line("eta_n", params.eta_n, "/(W cm^2)", fitted),
        _param_line("alpha_n_tele", params.alpha_n, "kHz/(W cm)", fitted, scale=1e3),
        _param_line("alpha_n_vis", alpha_vis, "kHz/(W cm)", fitted, scale=1e3),
        f"  length         {params.length_cm:.4g} cm",
        f"  alpha_n bandwidth {params.bandwidth_ref_hz:.4g} Hz",
        "",
        "derived figures",
        f"  peak pump power: {peak}",
        f"  dip depth at {p_max:.2f} W: {depth:.3f}",
        f"  noise per spectro-temporal mode at {params.bandwidth_ref_hz:.3g} Hz: "
        f"{per_mode:.3g} /(W cm)",
        f"  noise rate in a {mode_bandwidth_hz:.3g} Hz bandwidth: {rescaled:.3g} Hz/(W cm)",
        "",
        "telecom vs visible bandwidth reconciliation",
        f"  telecom coefficient {params.alpha_n / 1e3:.1f} kHz/(W cm) in the "
        f"{tg_fwhm * 1e3:.0f} pm filter bandwidth",
        f"  dip bandwidth {dip_fwhm * 1e3:.0f} pm -> ratio {bw_ratio:.2f}",
        f"  extrapolated to the full dip: {params.alpha_n / 1e3:.1f} x {bw_ratio:.2f} "
        f"= {alpha_tele_full / 1e3:.1f} kHz/(W cm)",
        f"  visible coefficient: {alpha_vis / 1e3:.1f} kHz/(W cm)",
        f"  extrapolated/visible ratio: {ratio:.2f}"
        + ("  (consistent within the flat-noise picture)" if 0.7 <= ratio <= 1.3 else "  (check model assumptions)"),
        "",
    ]
    return "\n".join(lines)
