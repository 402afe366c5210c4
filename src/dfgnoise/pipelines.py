"""End-to-end command pipelines: synthetic data generation, fitting runs
and normalization, shared between the CLI and the test suite.

Every pipeline is deterministic given (config, seed): sub-streams of the
run seed are derived per data product, and per-point seeds within a
sweep are derived from the product stream, so outputs never depend on
evaluation order.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import numpy as np

from . import converter, counting, dataio, spectra
from .config import RunConfig, ScanGrid, SweepSettings
from .errors import DataFormatError, ParameterError
from .fitting import (
    FitResult,
    PowerSweep,
    fit_alpha_linear,
    fit_alpha_visible,
    fit_efficiency_shared,
    predict_noise_curves,
)
from .params import NOISE_SWEEP_KINDS

__all__ = [
    "simulate_efficiency",
    "simulate_telecom_spectrum",
    "simulate_visible_spectrum",
    "simulate_power_sweep",
    "visible_in_band_fraction",
    "sweep_from_counts",
    "run_fit_efficiency",
    "run_fit_noise",
    "NOISE_SWEEP_KINDS",
]

# sub-stream indices of the run seed, one per data product
_STREAM_EFF_INT = 0
_STREAM_EFF_EXT = 1
_STREAM_TELE_SPECTRUM = 2
_STREAM_VIS_SPECTRUM = 3
# noise sweeps, in NOISE_SWEEP_KINDS order: sub-stream index, detection
# chain, forward-model curve
_SWEEPS = dict(zip(NOISE_SWEEP_KINDS, (
    (4, "telecom", "telecom_onpeak"),
    (5, "telecom", "telecom_detuned"),
    (6, "visible", "visible"),
)))

# minimum believable efficiency uncertainty, as a fraction of eta_max
_EFF_SIGMA_FLOOR = 0.01


def _pump_grid(sweep: SweepSettings) -> np.ndarray:
    """The pump powers of a power sweep, evenly spaced from min to max."""
    return np.linspace(sweep.pump_min_w, sweep.pump_max_w, sweep.n_points)


def _scan_grid(scan: ScanGrid) -> np.ndarray:
    """The wavelengths of a scan, ``start_nm + i * step_nm``."""
    return scan.start_nm + scan.step_nm * np.arange(scan.n_points)


def _vis_params(cfg: RunConfig) -> converter.ConverterParams:
    """Converter parameters with the visible noise coefficient swapped in."""
    return replace(cfg.converter, alpha_n=cfg.alpha_n_visible)


def simulate_efficiency(cfg: RunConfig, seed: int, out_dir: Path) -> list[Path]:
    """Synthetic internal/external efficiency sweeps with relative Gaussian
    noise, written as two ``pump_w,value,sigma`` files."""
    grid = _pump_grid(cfg.sweep)
    rel = cfg.sweep.efficiency_noise_rel
    paths = []
    for kind, which, stream in (
        ("efficiency_int", "internal", _STREAM_EFF_INT),
        ("efficiency_ext", "external", _STREAM_EFF_EXT),
    ):
        model = np.asarray(converter.dfg_efficiency(cfg.converter, grid, which=which))
        floor = _EFF_SIGMA_FLOOR * rel * cfg.converter.eta_max(which)
        sigma = np.maximum(rel * model, max(floor, 1e-12))
        rng = np.random.default_rng(counting.derive_seed(seed, stream))
        value = model + sigma * rng.standard_normal(len(grid))
        sweep = PowerSweep(pump_w=grid, value=value, sigma=sigma, kind=kind)
        path = dataio.write_sweep_csv(
            sweep, out_dir / f"{kind}.csv",
            metadata={"seed": seed, "units": {"pump_w": "W", "value": "1", "sigma": "1"},
                      "noise_rel": rel},
        )
        paths.append(path)
    return paths


def _simulate_scan(
    seed: int, stream: int, scan_cfg: ScanGrid, instrument: spectra.FilterProfile, widths,
    intrinsic, chain, path: Path, metadata: dict,
) -> Path:
    """Synthetic scan: the spectrum ``intrinsic(grid_nm)`` on a grid fine
    enough for the instrument and the feature ``widths``, broadened by the
    instrument's shape, resampled onto the scan grid, Poisson-counted
    through ``chain`` and normalized back (clipping the rare negative
    dark-subtracted rates at zero), then written to ``path``."""
    step = min(scan_cfg.step_nm, min(instrument.fwhm_nm, *widths) / 10.0)
    pad = 6.0 * instrument.fwhm_nm
    fine = np.arange(scan_cfg.start_nm - pad, scan_cfg.stop_nm + pad + step / 2, step)
    # shape-only instrument response: insertion loss already sits in the chain
    response = replace(instrument, peak_transmission=1.0)
    observed = spectra.convolve_with_filter(intrinsic(fine), response)
    sampled = spectra.resample_scan(observed, _scan_grid(scan_cfg))
    t = chain.integration_time_s
    rng = np.random.default_rng(counting.derive_seed(seed, stream))
    counts = rng.poisson(counting.expected_counts(sampled.rate_hz, chain, t))
    rate = counting.normalize_counts(counts, t, chain).rate_hz
    scan = replace(sampled, rate_hz=np.clip(rate, 0.0, None), integration_time_s=t)
    return dataio.write_scan_csv(scan, path, metadata=metadata)


def simulate_telecom_spectrum(
    cfg: RunConfig, seed: int, out_dir: Path, pump_w: float | None = None
) -> Path:
    """Synthetic telecom noise scan: intrinsic dips, grating-filter
    broadening, Poisson counting, normalization back to waveguide rates."""
    p = cfg.sweep.pump_max_w if pump_w is None else pump_w
    return _simulate_scan(
        seed, _STREAM_TELE_SPECTRUM, cfg.telecom_scan, cfg.tg_filter,
        [m.fwhm_dip_nm for m in cfg.modes],
        lambda grid: spectra.telecom_spectrum(cfg.converter, cfg.modes, p, grid),
        cfg.chains["telecom"], out_dir / "telecom_spectrum.csv",
        {"seed": seed, "pump_w": p, "kind": "telecom-spectrum",
         "bandwidth_ref_hz": cfg.converter.bandwidth_ref_hz},
    )


def simulate_visible_spectrum(
    cfg: RunConfig, seed: int, out_dir: Path,
    pump_w: float | None = None, collection: str = "smf",
) -> Path:
    """Synthetic visible noise scan through the spectrometer, for either
    fiber collection preset."""
    if collection not in cfg.collection:
        raise ParameterError(f"unknown collection preset {collection!r}")
    p = cfg.sweep.pump_max_w if pump_w is None else pump_w
    return _simulate_scan(
        seed, _STREAM_VIS_SPECTRUM, cfg.visible_scan,
        spectra.FilterProfile(shape="gaussian", fwhm_nm=cfg.spectrometer_fwhm_nm),
        [m.fwhm_peak_nm for m in cfg.modes],
        lambda grid: spectra.visible_spectrum(_vis_params(cfg), cfg.modes, p, grid,
                                              collection=cfg.collection[collection]),
        cfg.chains["visible"], out_dir / f"visible_spectrum_{collection}.csv",
        {"seed": seed, "pump_w": p, "kind": "visible-spectrum", "collection": collection},
    )


def visible_in_band_fraction(cfg: RunConfig) -> float:
    """Fraction of bandpass-filtered visible counts that belong to the
    fundamental-mode peak, computed from the synthetic spectra as collected
    by the single-mode fiber."""
    label = cfg.modes[0].label
    smf = cfg.collection["smf"]
    # each of these scales the fundamental's visible peak: at zero the
    # fraction is 0 or 0/0
    scales = {"noise.alpha_n_vis_hz_per_w_cm": cfg.alpha_n_visible,
              "device.eta_max_int": cfg.converter.eta_max_int,
              "device.eta_n_per_w_cm2": cfg.converter.eta_n,
              "modes[0].relative_strength": cfg.modes[0].relative_strength,
              f"collection.smf.{label}": smf.get(label, 1.0)}
    zero = [key for key, value in scales.items() if value == 0]
    if zero:
        raise ParameterError(f"no visible noise in the {label} peak to sweep: "
                             f"{' and '.join(zero)} {'is' if len(zero) == 1 else 'are'} 0")
    vis_params = _vis_params(cfg)
    fundamental = [cfg.modes[0]]
    step = min(m.fwhm_peak_nm for m in cfg.modes) / 20.0
    lo = min(m.lambda_vis_nm for m in cfg.modes) - 2.0
    hi = max(m.lambda_vis_nm for m in cfg.modes) + 2.0
    grid = np.arange(lo, hi, step)
    # the fraction is pump-independent: every dip shares the same depth factor
    p_ref = cfg.sweep.pump_max_w
    total = spectra.visible_spectrum(vis_params, cfg.modes, p_ref, grid, collection=smf)
    target = spectra.visible_spectrum(vis_params, fundamental, p_ref, grid, collection=smf)
    return spectra.band_fraction(target, total, cfg.bp_filter)


def simulate_power_sweep(cfg: RunConfig, seed: int, out_dir: Path, kind: str) -> Path:
    """Synthetic counting run of one noise sweep, written as raw counts."""
    if kind not in _SWEEPS:
        raise ParameterError(
            f"power-sweep kind must be one of {sorted(_SWEEPS)}, got {kind!r}"
        )
    stream, chain_name, curve = _SWEEPS[kind]
    grid = _pump_grid(cfg.sweep)
    curves = predict_noise_curves(cfg.converter, alpha_n_visible=cfg.alpha_n_visible)
    rates = np.asarray(getattr(curves, curve)(grid))
    fraction = 1.0
    if kind == "noise_vis":
        fraction = visible_in_band_fraction(cfg)
        rates = rates / fraction  # neighbors leak through the bandpass
    base = counting.derive_seed(seed, stream)
    counts = counting.simulate_sweep(rates, cfg.chains[chain_name], base)
    return dataio.write_counts_csv(
        grid, counts, out_dir / f"sweep_{kind}.csv",
        metadata={"seed": seed, "kind": kind, "in_band_fraction": fraction,
                  "units": {"pump_w": "W", "duration_s": "s"}},
    )


def sweep_from_counts(path: Path, cfg: RunConfig) -> PowerSweep:
    """Normalize a raw counts file back to waveguide-output rates, keeping
    the in-band fraction recorded in its sidecar."""
    pump_w, counts, durations, _, meta = dataio.read_counts_csv(path)
    kind = meta.get("kind")
    if kind not in _SWEEPS:
        raise DataFormatError(
            f"{path}: sidecar does not identify a noise sweep kind (got {kind!r})"
        )
    chain = cfg.chains[_SWEEPS[kind][1]]
    fraction = dataio.sidecar_number(path, meta, "in_band_fraction", 1.0)
    rate, sigma = counting.normalize_counts(counts, durations, chain, in_band_fraction=fraction)
    return PowerSweep(pump_w=pump_w, value=rate, sigma=sigma, kind=kind)


def run_fit_efficiency(
    cfg: RunConfig, internal_path: Path, external_path: Path, out_dir: Path
) -> tuple[FitResult, Path]:
    """Shared-parameter efficiency fit from two sweep files."""
    sweep_int = dataio.read_sweep_csv(internal_path, kind="efficiency_int")
    sweep_ext = dataio.read_sweep_csv(external_path, kind="efficiency_ext")
    result = fit_efficiency_shared(sweep_int, sweep_ext, cfg.converter.length_cm)
    digests = {
        str(internal_path): dataio.sha256_digest(internal_path),
        str(external_path): dataio.sha256_digest(external_path),
    }
    out = dataio.write_fit_json(
        result, out_dir / "fit_efficiency.json", "efficiency_shared",
        input_digests=digests, extras={"length_cm": cfg.converter.length_cm},
    )
    for sweep, tag in ((sweep_int, "int"), (sweep_ext, "ext")):
        model = converter.efficiency_curve(
            sweep.pump_w, result.values[f"eta_max_{tag}"],
            result.values["eta_n"], cfg.converter.length_cm,
        )
        dataio.write_residual_csv(
            out_dir / f"residuals_efficiency_{tag}.csv",
            sweep.pump_w, sweep.value, model, sweep.sigma,
        )
    return result, out


def run_fit_noise(
    cfg: RunConfig,
    out_dir: Path,
    detuned_path: Path | None = None,
    visible_path: Path | None = None,
    n_points: int = 4,
    efficiency_fit: dict | None = None,
) -> tuple[FitResult, Path]:
    """Noise-coefficient fits: linear on detuned telecom data, fixed-shape
    on visible data.  At least one input file is required."""
    if detuned_path is None and visible_path is None:
        raise ParameterError("fit noise needs a detuned and/or a visible counts file")

    params = cfg.converter
    shape_covariance = None
    if efficiency_fit is not None:
        params = dataio.apply_efficiency_fit(params, efficiency_fit)
        shape_covariance = dataio.efficiency_fit_covariance(efficiency_fit)
    length = params.length_cm

    # one row per input: name suffix, message label, residual file tag,
    # path, required sweep kind, fit, model at the fitted coefficient.
    # On-peak telecom data carries SFG suppression, so the linear fit
    # refuses it rather than silently underestimate the coefficient.
    blocks = (
        ("tele", "telecom", "detuned", detuned_path, "noise_tele_detuned",
         lambda sweep: fit_alpha_linear(sweep, length, n_points=n_points),
         lambda sweep, a: a * sweep.pump_w * length),
        ("vis", "visible", "visible", visible_path, "noise_vis",
         lambda sweep: fit_alpha_visible(sweep, params, shape_covariance=shape_covariance),
         lambda sweep, a: a * (sweep.pump_w * length
                               * np.asarray(converter.dip_depth(params, sweep.pump_w)))),
    )
    names, values, sigmas, variances = [], {}, {}, []
    digests = {}
    extras: dict = {"length_cm": length}
    messages = []
    converged, iterations, points = True, 0, 0
    for suffix, label, tag, path, expected, fit_sweep, model in blocks:
        if path is None:
            continue
        sweep = sweep_from_counts(Path(path), cfg)
        if sweep.kind != expected:
            raise DataFormatError(f"{path}: expected a {expected} sweep, got {sweep.kind!r}")
        fit = fit_sweep(sweep)
        name = f"alpha_n_{suffix}"
        names.append(name)
        values[name] = fit.values["alpha_n"]
        sigmas[name] = fit.sigmas["alpha_n"]
        variances.append(fit.covariance[0, 0])
        digests[str(path)] = dataio.sha256_digest(path)
        extras[f"chi2_reduced_{suffix}"] = fit.chi2_reduced
        converged &= fit.converged
        messages.append(f"{label}: {fit.message}")
        iterations += fit.n_iterations
        points += len(sweep)
        dataio.write_residual_csv(out_dir / f"residuals_noise_{tag}.csv", sweep.pump_w,
                                  sweep.value, model(sweep, values[name]), sweep.sigma)
    if detuned_path is not None:
        extras["n_points_tele"] = n_points

    result = FitResult(
        names=names,
        values=values,
        sigmas=sigmas,
        covariance=np.diag(variances),
        chi2_reduced=float("nan"),
        n_iterations=iterations,
        converged=converged,
        message="; ".join(messages),
        n_points=points,
    )
    out = dataio.write_fit_json(result, out_dir / "fit_noise.json", "noise_coefficients",
                                input_digests=digests, extras=extras)
    return result, out
