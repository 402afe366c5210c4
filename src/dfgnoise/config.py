"""Run configuration: schema, validation and the reference device preset.

A run is described by one YAML file.  Validation is strict: unknown keys
are rejected by name, every numeric field is range-checked, and all
problems found are reported together.  :data:`DEFAULT_CONFIG_YAML` holds
the preset for the characterized reference device and doubles as the
template emitted by ``validate-config --write-template``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
import yaml

from . import converter
from .counting import MeasurementChain
from .errors import ConfigError, DfgNoiseError
from .spectra import FilterProfile, SfgMode, check_mode_energy_conservation, sfg_mode_from_telecom

__all__ = [
    "SCHEMA_VERSION",
    "DEFAULT_CONFIG_YAML",
    "RunConfig",
    "ScanGrid",
    "SweepSettings",
    "load_config",
    "parse_config",
    "default_config",
    "write_template",
]

SCHEMA_VERSION = 1

# Reference device preset.  Values are the characterization of the
# 40 mm PPLN ridge waveguide converter this toolkit models: 930 nm pump,
# 580 nm input, 1541 nm target.  Mode strengths and the collection /
# bandpass entries are calibration data read off measured spectra.
DEFAULT_CONFIG_YAML = """\
schema_version: 1
seed: 20210412
output_dir: runs

# pump laser driving both the conversion and the noise processes
pump_wavelength_nm: 930.0

device:
  length_cm: 4.0          # waveguide length
  eta_max_int: 0.67       # peak conversion efficiency inside the waveguide
  eta_max_ext: 0.46       # peak device efficiency incl. coupling losses
  eta_n_per_w_cm2: 0.63   # conversion parameter: pump-power scale of the sin^2 curve

noise:
  alpha_n_tele_hz_per_w_cm: 129.0e+03  # telecom noise coefficient within bandwidth_ref_hz
  bandwidth_ref_hz: 25.0e+09           # tunable-grating filter bandwidth (200 pm at 1541 nm)
  alpha_n_vis_hz_per_w_cm: 391.0e+03   # visible noise coefficient, full dip bandwidth

# phase-matched spatial modes: telecom center, SFG acceptance width,
# noise-dip width and peak SFG strength relative to the fundamental mode.
# Strengths for the higher-order modes are calibration placeholders.
modes:
  - {label: TEM00, lambda_tele_nm: 1541.0, fwhm_sfg_nm: 0.23, fwhm_dip_nm: 0.50, relative_strength: 1.0}
  - {label: TEM01, lambda_tele_nm: 1546.0, fwhm_sfg_nm: 0.23, fwhm_dip_nm: 0.50, relative_strength: 0.35}
  - {label: TEM02, lambda_tele_nm: 1554.6, fwhm_sfg_nm: 0.23, fwhm_dip_nm: 0.50, relative_strength: 0.20}

chains:
  telecom:
    transmissions: [[fiber_coupling, 0.75], [tg_filter, 0.40]]
    detector_efficiency: 0.10   # InGaAs single-photon detector
    dark_rate_hz: 340.0
    integration_time_s: 10.0
  visible:
    transmissions: [[fiber_coupling, 0.70], [bp_filter, 0.90]]
    detector_efficiency: 0.56   # silicon single-photon detector at 580 nm
    dark_rate_hz: 70.0
    integration_time_s: 10.0    # assumed equal to the telecom scans

# per-mode collection efficiency into the spectrometer fiber.  The
# single-mode values are calibrated so that the synthetic spectrum
# reproduces the measured in-band fraction of the 580 nm peak.
collection:
  smf: {TEM00: 1.0, TEM01: 0.55, TEM02: 0.60}
  mmf: {TEM00: 1.0, TEM01: 1.0, TEM02: 1.0}

filters:
  tg: {shape: gaussian, fwhm_nm: 0.20, center_nm: 1541.0, peak_transmission: 0.40}
  bp: {shape: gaussian, fwhm_nm: 10.0, center_nm: 580.0, peak_transmission: 0.90}
  spectrometer_fwhm_nm: 0.13   # visible spectrometer instrumental response

scans:
  telecom: {start_nm: 1520.0, stop_nm: 1575.0, step_nm: 0.10}
  visible: {start_nm: 578.0, stop_nm: 584.0, step_nm: 0.02}

sweeps:
  pump_min_w: 0.0
  pump_max_w: 0.44
  n_points: 12
  efficiency_noise_rel: 0.02   # relative noise applied to synthetic efficiency data
"""


@dataclass(frozen=True)
class ScanGrid:
    start_nm: float
    stop_nm: float
    step_nm: float

    def __post_init__(self):
        if self.step_nm <= 0:
            raise ConfigError("scan step_nm must be positive")
        if self.stop_nm <= self.start_nm:
            raise ConfigError("scan stop_nm must exceed start_nm")

    def grid(self) -> np.ndarray:
        n = int(round((self.stop_nm - self.start_nm) / self.step_nm))
        return self.start_nm + self.step_nm * np.arange(n + 1)


@dataclass(frozen=True)
class SweepSettings:
    pump_min_w: float
    pump_max_w: float
    n_points: int
    efficiency_noise_rel: float

    def __post_init__(self):
        if self.pump_min_w < 0 or self.pump_max_w <= self.pump_min_w:
            raise ConfigError("sweep powers must satisfy 0 <= pump_min_w < pump_max_w")
        if self.n_points < 2:
            raise ConfigError("sweep n_points must be at least 2")
        if self.efficiency_noise_rel < 0:
            raise ConfigError("efficiency_noise_rel must be non-negative")

    def grid(self) -> np.ndarray:
        return np.linspace(self.pump_min_w, self.pump_max_w, self.n_points)


@dataclass
class RunConfig:
    """Validated configuration for every CLI command."""

    schema_version: int
    seed: int
    output_dir: str
    pump_wavelength_nm: float
    converter: converter.ConverterParams
    alpha_n_visible: float
    modes: list[SfgMode]
    chains: dict[str, MeasurementChain]
    collection: dict[str, dict[str, float]]
    tg_filter: FilterProfile
    bp_filter: FilterProfile
    spectrometer_fwhm_nm: float
    telecom_scan: ScanGrid
    visible_scan: ScanGrid
    sweep: SweepSettings
    source: str = field(default="<builtin>")


class _Validator:
    """Accumulates field-level problems so they can be reported together."""

    def __init__(self):
        self.errors: list[str] = []

    def fail(self, msg: str) -> None:
        self.errors.append(msg)

    def mapping(self, obj, path: str, allowed: set[str], required: set[str]) -> dict:
        if not isinstance(obj, dict):
            self.fail(f"{path}: expected a mapping, got {type(obj).__name__}")
            return {}
        for key in obj:
            if key not in allowed:
                self.fail(f"unknown key '{path}.{key}'" if path else f"unknown key '{key}'")
        for key in required:
            if key not in obj:
                self.fail(f"{self._at(path, key)}: missing required key")
        return obj

    @staticmethod
    def _at(path: str, key: str) -> str:
        return f"{path}.{key}" if path else key

    def number(self, obj: dict, key: str, path: str, default=None) -> float:
        if key not in obj:
            return default
        value = obj[key]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            self.fail(
                f"{self._at(path, key)}: expected a number, got "
                f"{type(value).__name__} ({value!r})"
            )
            return default if default is not None else 0.0
        return float(value)

    def integer(self, obj: dict, key: str, path: str, default=None) -> int:
        if key not in obj:
            return default
        value = obj[key]
        if isinstance(value, bool) or not isinstance(value, int):
            self.fail(f"{self._at(path, key)}: expected an integer, got {value!r}")
            return default if default is not None else 0
        return value

    def text(self, obj: dict, key: str, path: str, default=None) -> str:
        if key not in obj:
            return default
        value = obj[key]
        if not isinstance(value, str):
            self.fail(f"{self._at(path, key)}: expected a string, got {value!r}")
            return default if default is not None else ""
        return value


def _parse_chain(v: _Validator, obj, path: str) -> MeasurementChain | None:
    obj = v.mapping(
        obj, path,
        allowed={"transmissions", "detector_efficiency", "dark_rate_hz", "integration_time_s"},
        required={"transmissions", "detector_efficiency", "dark_rate_hz", "integration_time_s"},
    )
    factors: list[tuple[str, float]] = []
    raw = obj.get("transmissions", [])
    if not isinstance(raw, list):
        v.fail(f"{path}.transmissions: expected a list of [label, factor] pairs")
        raw = []
    for i, entry in enumerate(raw):
        if (not isinstance(entry, (list, tuple))) or len(entry) != 2:
            v.fail(f"{path}.transmissions[{i}]: expected a [label, factor] pair")
            continue
        label, factor = entry
        if isinstance(factor, bool) or not isinstance(factor, (int, float)):
            v.fail(f"{path}.transmissions[{i}]: factor must be a number, got {factor!r}")
            continue
        factors.append((str(label), float(factor)))
    try:
        return MeasurementChain(
            transmissions=tuple(factors),
            detector_efficiency=v.number(obj, "detector_efficiency", path, 1.0),
            dark_rate_hz=v.number(obj, "dark_rate_hz", path, 0.0),
            integration_time_s=v.number(obj, "integration_time_s", path, 1.0),
        )
    except DfgNoiseError as exc:
        v.fail(f"{path}: {exc}")
        return None


def _parse_filter(v: _Validator, obj, path: str) -> FilterProfile | None:
    obj = v.mapping(
        obj, path,
        allowed={"shape", "fwhm_nm", "center_nm", "peak_transmission"},
        required={"shape", "fwhm_nm"},
    )
    try:
        return FilterProfile(
            shape=v.text(obj, "shape", path, "gaussian"),
            fwhm_nm=v.number(obj, "fwhm_nm", path, 1.0),
            center_nm=v.number(obj, "center_nm", path, 0.0),
            peak_transmission=v.number(obj, "peak_transmission", path, 1.0),
        )
    except DfgNoiseError as exc:
        v.fail(f"{path}: {exc}")
        return None


def _parse_scan(v: _Validator, obj, path: str) -> ScanGrid | None:
    obj = v.mapping(
        obj, path,
        allowed={"start_nm", "stop_nm", "step_nm"},
        required={"start_nm", "stop_nm", "step_nm"},
    )
    try:
        return ScanGrid(
            start_nm=v.number(obj, "start_nm", path, 0.0),
            stop_nm=v.number(obj, "stop_nm", path, 1.0),
            step_nm=v.number(obj, "step_nm", path, 0.1),
        )
    except DfgNoiseError as exc:
        v.fail(f"{path}: {exc}")
        return None


def parse_config(raw: dict, source: str = "<dict>") -> RunConfig:
    """Validate a parsed YAML mapping and build a :class:`RunConfig`.

    Raises :class:`ConfigError` listing every problem found, each with
    the dotted path of the offending key.
    """
    v = _Validator()
    if not isinstance(raw, dict):
        raise ConfigError(f"{source}: top level must be a mapping")

    top_allowed = {
        "schema_version", "seed", "output_dir", "pump_wavelength_nm", "device",
        "noise", "modes", "chains", "collection", "filters", "scans", "sweeps",
    }
    v.mapping(raw, "", allowed=top_allowed, required=top_allowed)

    schema_version = v.integer(raw, "schema_version", "", 0)
    if schema_version not in (None, SCHEMA_VERSION):
        v.fail(
            f"schema_version: expected {SCHEMA_VERSION}, got {schema_version} "
            "(this toolkit only reads schema version 1)"
        )
    seed = v.integer(raw, "seed", "", 0)
    output_dir = v.text(raw, "output_dir", "", "runs")
    pump_nm = v.number(raw, "pump_wavelength_nm", "", 930.0)

    device = v.mapping(
        raw.get("device", {}), "device",
        allowed={"length_cm", "eta_max_int", "eta_max_ext", "eta_n_per_w_cm2"},
        required={"length_cm", "eta_max_int", "eta_max_ext", "eta_n_per_w_cm2"},
    )
    noise = v.mapping(
        raw.get("noise", {}), "noise",
        allowed={"alpha_n_tele_hz_per_w_cm", "bandwidth_ref_hz", "alpha_n_vis_hz_per_w_cm"},
        required={"alpha_n_tele_hz_per_w_cm", "bandwidth_ref_hz", "alpha_n_vis_hz_per_w_cm"},
    )
    params = None
    try:
        params = converter.ConverterParams(
            length_cm=v.number(device, "length_cm", "device", 1.0),
            eta_max_int=v.number(device, "eta_max_int", "device", 0.0),
            eta_max_ext=v.number(device, "eta_max_ext", "device", 0.0),
            eta_n=v.number(device, "eta_n_per_w_cm2", "device", 0.0),
            alpha_n=v.number(noise, "alpha_n_tele_hz_per_w_cm", "noise", 0.0),
            bandwidth_ref_hz=v.number(noise, "bandwidth_ref_hz", "noise", 1.0),
        )
    except DfgNoiseError as exc:
        v.fail(f"device/noise: {exc}")
    alpha_vis = v.number(noise, "alpha_n_vis_hz_per_w_cm", "noise", 0.0)
    if alpha_vis is not None and alpha_vis < 0:
        v.fail("noise.alpha_n_vis_hz_per_w_cm: must be non-negative")

    modes: list[SfgMode] = []
    raw_modes = raw.get("modes", [])
    if not isinstance(raw_modes, list) or not raw_modes:
        v.fail("modes: expected a non-empty list")
        raw_modes = []
    for i, entry in enumerate(raw_modes):
        path = f"modes[{i}]"
        entry = v.mapping(
            entry, path,
            allowed={"label", "lambda_tele_nm", "lambda_vis_nm", "fwhm_sfg_nm",
                     "fwhm_dip_nm", "relative_strength"},
            required={"label", "lambda_tele_nm", "fwhm_sfg_nm", "fwhm_dip_nm",
                      "relative_strength"},
        )
        try:
            mode = sfg_mode_from_telecom(
                label=v.text(entry, "label", path, f"mode{i}"),
                lambda_tele_nm=v.number(entry, "lambda_tele_nm", path, 1.0),
                lambda_pump_nm=pump_nm,
                fwhm_sfg_nm=v.number(entry, "fwhm_sfg_nm", path, 0.1),
                fwhm_dip_nm=v.number(entry, "fwhm_dip_nm", path, 0.1),
                relative_strength=v.number(entry, "relative_strength", path, 1.0),
            )
            explicit_vis = v.number(entry, "lambda_vis_nm", path, None)
            if explicit_vis is not None:
                mode = replace(mode, lambda_vis_nm=explicit_vis)
                check_mode_energy_conservation(mode, pump_nm)
            modes.append(mode)
        except DfgNoiseError as exc:
            v.fail(f"{path}: {exc}")

    chains: dict[str, MeasurementChain] = {}
    raw_chains = v.mapping(
        raw.get("chains", {}), "chains",
        allowed={"telecom", "visible"}, required={"telecom", "visible"},
    )
    for name in ("telecom", "visible"):
        if name in raw_chains:
            chain = _parse_chain(v, raw_chains[name], f"chains.{name}")
            if chain is not None:
                chains[name] = chain

    collection: dict[str, dict[str, float]] = {}
    raw_coll = v.mapping(
        raw.get("collection", {}), "collection",
        allowed={"smf", "mmf"}, required={"smf", "mmf"},
    )
    mode_labels = {m.label for m in modes}
    for name in ("smf", "mmf"):
        entry = raw_coll.get(name, {})
        if not isinstance(entry, dict):
            v.fail(f"collection.{name}: expected a mapping of mode label to efficiency")
            continue
        table: dict[str, float] = {}
        for label, eff in entry.items():
            if label not in mode_labels:
                v.fail(f"collection.{name}.{label}: no such mode in 'modes'")
            if isinstance(eff, bool) or not isinstance(eff, (int, float)) or not 0 <= eff <= 1:
                v.fail(f"collection.{name}.{label}: efficiency must be a number in [0, 1]")
                continue
            table[str(label)] = float(eff)
        collection[name] = table

    raw_filters = v.mapping(
        raw.get("filters", {}), "filters",
        allowed={"tg", "bp", "spectrometer_fwhm_nm"},
        required={"tg", "bp", "spectrometer_fwhm_nm"},
    )
    tg = _parse_filter(v, raw_filters.get("tg", {}), "filters.tg")
    bp = _parse_filter(v, raw_filters.get("bp", {}), "filters.bp")
    spectrometer_fwhm = v.number(raw_filters, "spectrometer_fwhm_nm", "filters", 0.13)
    if spectrometer_fwhm is not None and spectrometer_fwhm <= 0:
        v.fail("filters.spectrometer_fwhm_nm: must be positive")

    raw_scans = v.mapping(
        raw.get("scans", {}), "scans",
        allowed={"telecom", "visible"}, required={"telecom", "visible"},
    )
    telecom_scan = _parse_scan(v, raw_scans.get("telecom", {}), "scans.telecom")
    visible_scan = _parse_scan(v, raw_scans.get("visible", {}), "scans.visible")

    raw_sweeps = v.mapping(
        raw.get("sweeps", {}), "sweeps",
        allowed={"pump_min_w", "pump_max_w", "n_points", "efficiency_noise_rel"},
        required={"pump_min_w", "pump_max_w", "n_points", "efficiency_noise_rel"},
    )
    sweep = None
    try:
        sweep = SweepSettings(
            pump_min_w=v.number(raw_sweeps, "pump_min_w", "sweeps", 0.0),
            pump_max_w=v.number(raw_sweeps, "pump_max_w", "sweeps", 0.44),
            n_points=v.integer(raw_sweeps, "n_points", "sweeps", 12),
            efficiency_noise_rel=v.number(raw_sweeps, "efficiency_noise_rel", "sweeps", 0.0),
        )
    except DfgNoiseError as exc:
        v.fail(f"sweeps: {exc}")

    if v.errors:
        listing = "\n".join(f"  - {e}" for e in v.errors)
        raise ConfigError(f"invalid configuration ({source}):\n{listing}")

    return RunConfig(
        schema_version=schema_version,
        seed=seed,
        output_dir=output_dir,
        pump_wavelength_nm=pump_nm,
        converter=params,
        alpha_n_visible=alpha_vis,
        modes=modes,
        chains=chains,
        collection=collection,
        tg_filter=tg,
        bp_filter=bp,
        spectrometer_fwhm_nm=spectrometer_fwhm,
        telecom_scan=telecom_scan,
        visible_scan=visible_scan,
        sweep=sweep,
        source=source,
    )


def load_config(path: str | Path | None) -> RunConfig:
    """Load and validate a YAML config file; ``None`` gives the built-in
    reference device preset."""
    if path is None:
        return default_config()
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config file {path} is not valid YAML: {exc}") from exc
    return parse_config(raw, source=str(path))


def default_config() -> RunConfig:
    """The built-in reference device preset."""
    return parse_config(yaml.safe_load(DEFAULT_CONFIG_YAML), source="<builtin>")


def write_template(path: str | Path) -> Path:
    """Write the commented reference configuration to ``path``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(DEFAULT_CONFIG_YAML)
    return path
