"""End-to-end command pipelines: synthetic data generation, fitting runs
and normalization, shared between the CLI and the test suite.

Every pipeline is deterministic given (config, seed): sub-streams of the
run seed are derived per data product, and per-point seeds within a
sweep are derived from the product stream, so outputs never depend on
evaluation order.

What depends only on the configuration is computed once per
configuration per process, for the last few configurations: each
spectrum's noiseless scan on its scan grid with its Poisson means, and
the visible in-band fraction.  Each is a pure function of frozen config
values (never of a ``RunConfig``, which is mutable), its arrays are
read-only, an error is never kept, and every call still derives its own
seed and draws its own noise, so no output depends on what ran before it
in the process.
"""

from __future__ import annotations

import functools
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import converter, counting, dataio, spectra
from .config import RunConfig, ScanGrid, SweepSettings
from .errors import DataFormatError, InsufficientDataError, ParameterError
from .fitting import (
    FitResult,
    PowerSweep,
    fit_alpha_linear,
    fit_alpha_visible,
    fit_efficiency_shared,
    predict_noise_curves,
)
from .params import NOISE_SWEEP_KINDS, FilterProfile, MeasurementChain

__all__ = [
    "simulate_efficiency",
    "simulate_telecom_spectrum",
    "simulate_visible_spectrum",
    "simulate_power_sweep",
    "visible_in_band_fraction",
    "sweep_from_counts",
    "run_fit_efficiency",
    "run_fit_noise",
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

# distinct configurations whose noiseless scans and in-band fraction are
# kept per process.  Keys compare floats with ==, so a config value of
# -0.0 shares the entry of 0.0; no written byte can tell them apart.  A
# signed zero in a key changes at most the sign of a zero rate or Poisson
# mean (the scan grid starts at start_nm + 0.0, never at -0.0); numpy
# draws 0 for a mean of either sign without using the stream, and the
# normalization, the pump power and the metadata come from each call.
_EXPECTATIONS_KEPT = 4


def _pump_grid(sweep: SweepSettings) -> np.ndarray:
    """The pump powers of a power sweep, evenly spaced from min to max."""
    return np.linspace(sweep.pump_min_w, sweep.pump_max_w, sweep.n_points)


def _scan_grid(scan: ScanGrid) -> np.ndarray:
    """The wavelengths of a scan, ``start_nm + i * step_nm``."""
    return scan.start_nm + scan.step_nm * np.arange(scan.n_points)


def _vis_params(cfg: RunConfig) -> converter.ConverterParams:
    """Converter parameters with the visible noise coefficient swapped in."""
    return replace(cfg.converter, alpha_n=cfg.alpha_n_visible)


def _poisson_means(means: np.ndarray, product: str) -> np.ndarray:
    """``means``, the Poisson means of ``product``'s counts; one above the
    largest that numpy draws from is an error naming ``product``."""
    if not np.all(means <= counting._POISSON_LAM_MAX):
        raise ParameterError(f"{product}: a Poisson mean must be at most numpy's limit of "
                             f"{counting._POISSON_LAM_MAX:.6g} counts, got {np.max(means):.6g}")
    return means


def simulate_efficiency(cfg: RunConfig, seed: int, out_dir: Path) -> list[Path]:
    """Synthetic internal/external efficiency sweeps with relative Gaussian
    noise, written as two ``pump_w,value,sigma`` files."""
    grid = _pump_grid(cfg.sweep)
    rel = cfg.sweep.efficiency_noise_rel
    paths = []
    params = cfg.converter
    for kind, eta_max, stream in (
        ("efficiency_int", params.eta_max_int, _STREAM_EFF_INT),
        ("efficiency_ext", params.eta_max_ext, _STREAM_EFF_EXT),
    ):
        model = np.asarray(converter.efficiency_curve(grid, eta_max, params.eta_n,
                                                      params.length_cm))
        floor = _EFF_SIGMA_FLOOR * rel * eta_max
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


@functools.lru_cache(maxsize=_EXPECTATIONS_KEPT)
def _expected_scan(
    params: converter.ConverterParams, modes: tuple, pump_w: float, scan_cfg: ScanGrid,
    instrument: FilterProfile, chain: MeasurementChain, collection: tuple | None,
) -> tuple[spectra.SpectralScan, np.ndarray]:
    """The noiseless scan and its Poisson means through ``chain``, both
    read-only: the telecom dips of ``modes`` or, given ``collection`` (per
    mode efficiencies as sorted items), their visible peaks, on a grid fine
    enough for the instrument and the feature widths, broadened by the
    instrument's shape and resampled onto the scan grid."""
    if collection is None:
        widths = [m.fwhm_dip_nm for m in modes]
        intrinsic = functools.partial(spectra.telecom_spectrum, params, modes, pump_w)
    else:
        widths = [m.fwhm_peak_nm for m in modes]
        intrinsic = functools.partial(spectra.visible_spectrum, params, modes, pump_w,
                                      collection=dict(collection))
    grid = _scan_grid(scan_cfg)
    step = min(scan_cfg.step_nm, min(instrument.fwhm_nm, *widths) / 10.0)
    pad = 6.0 * instrument.fwhm_nm
    # n_points rounds, so the last scan point may lie up to half a step past stop_nm
    end = max(scan_cfg.stop_nm, grid[-1])
    fine = np.arange(scan_cfg.start_nm - pad, end + pad + step / 2, step)
    # shape-only instrument response: insertion loss already sits in the chain
    response = replace(instrument, peak_transmission=1.0)
    observed = spectra.convolve_with_filter(intrinsic(fine), response)
    sampled = spectra.resample_scan(observed, grid)
    means = counting.expected_counts(sampled.rate_hz, chain, chain.integration_time_s)
    for array in (sampled.wavelength_nm, sampled.rate_hz, means):
        array.flags.writeable = False
    return sampled, means


def _simulate_scan(seed: int, stream: int, expected, chain, path: Path, metadata: dict) -> Path:
    """Synthetic scan: the ``expected`` noiseless scan and its Poisson
    means, counted with the product stream's seed and normalized back
    through ``chain`` (clipping the rare negative dark-subtracted rates at
    zero), then written to ``path``."""
    sampled, means = expected
    t = chain.integration_time_s
    rng = np.random.default_rng(counting.derive_seed(seed, stream))
    counts = rng.poisson(_poisson_means(means, path.name))
    rate = counting.normalize_counts(counts, t, chain).rate_hz
    scan = replace(sampled, rate_hz=np.clip(rate, 0.0, None), integration_time_s=t)
    return dataio.write_scan_csv(scan, path, metadata=metadata)


def simulate_telecom_spectrum(
    cfg: RunConfig, seed: int, out_dir: Path, pump_w: float | None = None
) -> Path:
    """Synthetic telecom noise scan: intrinsic dips, grating-filter
    broadening, Poisson counting, normalization back to waveguide rates."""
    p = cfg.sweep.pump_max_w if pump_w is None else pump_w
    chain = cfg.chains["telecom"]
    expected = _expected_scan(cfg.converter, tuple(cfg.modes), p, cfg.telecom_scan,
                              cfg.tg_filter, chain, None)
    return _simulate_scan(
        seed, _STREAM_TELE_SPECTRUM, expected, chain, out_dir / "telecom_spectrum.csv",
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
    chain = cfg.chains["visible"]
    expected = _expected_scan(
        _vis_params(cfg), tuple(cfg.modes), p, cfg.visible_scan,
        FilterProfile(shape="gaussian", fwhm_nm=cfg.spectrometer_fwhm_nm), chain,
        tuple(sorted(cfg.collection[collection].items())))
    return _simulate_scan(
        seed, _STREAM_VIS_SPECTRUM, expected, chain,
        out_dir / f"visible_spectrum_{collection}.csv",
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
    return _in_band_fraction(_vis_params(cfg), tuple(cfg.modes), tuple(sorted(smf.items())),
                             cfg.bp_filter, cfg.sweep.pump_max_w)


@functools.lru_cache(maxsize=_EXPECTATIONS_KEPT)
def _in_band_fraction(vis_params: converter.ConverterParams, modes: tuple, smf: tuple,
                      bp: FilterProfile, p_ref: float) -> float:
    """:func:`visible_in_band_fraction` of a configuration's parts, ``smf``
    as sorted items; ``p_ref`` is any pump power, as every peak shares the
    same depth factor."""
    smf = dict(smf)
    step = min(m.fwhm_peak_nm for m in modes) / 20.0
    peaks = [m.lambda_vis_nm for m in modes]
    lo = min(peaks) - 2.0
    hi = max(peaks) + 2.0
    grid = np.arange(lo, hi, step)
    total = spectra.visible_spectrum(vis_params, modes, p_ref, grid, collection=smf)
    target = spectra.visible_spectrum(vis_params, modes[:1], p_ref, grid, collection=smf)
    try:
        return spectra.band_fraction(target, total, bp)
    except ParameterError as exc:
        # the two spectra share one grid, so the bandpass misses every peak
        raise ParameterError(
            f"the visible bandpass passes none of the peaks at "
            f"{min(peaks):.1f}-{max(peaks):.1f} nm: "
            f"filters.bp.center_nm is {bp.center_nm} nm (0 when left out), "
            f"filters.bp.fwhm_nm is {bp.fwhm_nm} nm") from exc


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
    chain, path = cfg.chains[chain_name], out_dir / f"sweep_{kind}.csv"
    _poisson_means(counting.expected_counts(rates, chain, chain.integration_time_s), path.name)
    counts = counting.simulate_sweep(rates, chain, counting.derive_seed(seed, stream))
    return dataio.write_counts_csv(
        grid, counts, path,
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
    try:
        rate, sigma = counting.normalize_counts(counts, durations, chain, in_band_fraction=fraction)
    except ParameterError as exc:  # an in_band_fraction out of its range
        raise DataFormatError(f"{dataio.sidecar_path(path)}: {exc}") from None
    return PowerSweep(pump_w=pump_w, value=rate, sigma=sigma, kind=kind)


def _checked(path, sweep: PowerSweep, kind: str, need: int, why: str) -> PowerSweep:
    """``sweep``, read from ``path``, once it is of ``kind`` and has ``need`` points."""
    if sweep.kind != kind:
        raise DataFormatError(f"{path}: expected a {kind} sweep, got {sweep.kind!r}")
    n = len(sweep)
    if n < need:
        raise InsufficientDataError(
            f"{path} has {n} point{'s' * (n != 1)}, fewer than the {need} that {why}")
    return sweep


def run_fit_efficiency(
    cfg: RunConfig, internal_path: Path, external_path: Path, out_dir: Path
) -> tuple[FitResult, Path]:
    """Shared-parameter efficiency fit from two sweep files."""
    sweep_int, sweep_ext = (
        _checked(path, dataio.read_sweep_csv(path, kind=kind), kind, 3, "the efficiency fit needs")
        for path, kind in ((internal_path, "efficiency_int"), (external_path, "efficiency_ext")))
    length = cfg.converter.length_cm
    result = fit_efficiency_shared(sweep_int, sweep_ext, length)
    residuals = [(f"efficiency_{tag}", sweep, converter.efficiency_curve(
        sweep.pump_w, result.values[f"eta_max_{tag}"], result.values["eta_n"], length))
        for tag, sweep in (("int", sweep_int), ("ext", sweep_ext))]
    out = dataio.write_fit(result, out_dir / "fit_efficiency.json", "efficiency_shared",
                           [internal_path, external_path], residuals, {"length_cm": length})
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

    # one (name suffix, message label, fit, residual table) per given input
    steps = []
    extras: dict = {"length_cm": length}
    if detuned_path is not None:
        # on-peak telecom data carries SFG suppression: the linear fit
        # refuses it rather than silently underestimate the coefficient
        sweep = _checked(detuned_path, sweep_from_counts(Path(detuned_path), cfg),
                         "noise_tele_detuned", n_points, "--points asks the linear fit to use")
        fit = fit_alpha_linear(sweep, length, n_points=n_points)
        model = fit.values["alpha_n"] * sweep.pump_w * length
        steps.append(("tele", "telecom", fit, ("noise_detuned", sweep, model)))
        extras["n_points_tele"] = n_points
    if visible_path is not None:
        sweep = _checked(visible_path, sweep_from_counts(Path(visible_path), cfg), "noise_vis",
                         2, "the visible fit needs")
        fit = fit_alpha_visible(sweep, params, shape_covariance=shape_covariance)
        depth = np.asarray(converter.dip_depth(params, sweep.pump_w))
        model = fit.values["alpha_n"] * (sweep.pump_w * length * depth)
        steps.append(("vis", "visible", fit, ("noise_visible", sweep, model)))

    suffixes, labels, fits, tables = zip(*steps)
    names = [f"alpha_n_{suffix}" for suffix in suffixes]
    extras.update({f"chi2_reduced_{s}": fit.chi2_reduced for s, fit in zip(suffixes, fits)})
    result = FitResult(
        names=names,
        values={name: fit.values["alpha_n"] for name, fit in zip(names, fits)},
        covariance=np.diag([fit.covariance[0, 0] for fit in fits]),
        chi2_reduced=float("nan"),
        n_iterations=sum(fit.n_iterations for fit in fits),
        converged=all(fit.converged for fit in fits),
        message="; ".join(f"{label}: {fit.message}" for label, fit in zip(labels, fits)),
        n_points=sum(len(sweep) for _, sweep, _ in tables),
    )
    out = dataio.write_fit(result, out_dir / "fit_noise.json", "noise_coefficients",
                           [p for p in (detuned_path, visible_path) if p is not None],
                           tables, extras)
    return result, out
