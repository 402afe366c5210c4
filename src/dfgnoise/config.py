"""Run configuration: schema, validation and the reference device preset.

A run is described by one YAML file whose layout is declared once, in
the schema table :data:`_SCHEMA`.  Validation is strict: unknown keys
are rejected by name, numbers must be finite, every numeric field is
range-checked, and all problems found are reported together.
:data:`DEFAULT_CONFIG_YAML` holds the preset for the characterized
reference device and doubles as the template emitted by
``validate-config --write-template``.
"""

from __future__ import annotations

import re
import sys
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from pathlib import Path

from .errors import ConfigError, DfgNoiseError
from .params import (
    ConverterParams,
    FilterProfile,
    MeasurementChain,
    SfgMode,
    check_mode_energy_conservation,
    sfg_mode_from_telecom,
)

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
        if self.n_points < 2:
            raise ConfigError(
                f"scan from {self.start_nm} to {self.stop_nm} nm in {self.step_nm} nm "
                "steps has a single point; it needs at least two")

    @property
    def n_points(self) -> int:
        """Number of grid points, ``start_nm + i * step_nm``, from start to stop."""
        return int(round((self.stop_nm - self.start_nm) / self.step_nm)) + 1


@dataclass(frozen=True)
class SweepSettings:
    pump_min_w: float
    pump_max_w: float
    n_points: int
    efficiency_noise_rel: float

    def __post_init__(self):
        if self.pump_min_w < 0 or self.pump_max_w <= self.pump_min_w:
            raise ConfigError("sweep powers must satisfy 0 <= pump_min_w < pump_max_w")
        if self.n_points < 3:
            raise ConfigError(f"n_points must be at least 3, the efficiency fit's minimum "
                              f"per sweep, got {self.n_points}")
        if self.efficiency_noise_rel < 0:
            raise ConfigError("efficiency_noise_rel must be non-negative")


@dataclass
class RunConfig:
    """Validated configuration for every CLI command."""

    schema_version: int
    seed: int
    output_dir: str
    pump_wavelength_nm: float
    converter: ConverterParams
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


@dataclass(frozen=True)
class _Optional:
    """Schema marker: the key may be left out."""

    spec: object


@dataclass(frozen=True)
class _Section:
    """Schema node: a mapping whose values, once all parsed, build ``make(**values)``."""

    make: Callable
    fields: dict


def _fail(errors: list[str], message: str) -> None:
    errors.append(message)
    return None


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _clean(values) -> bool:
    """True for a walked mapping in which every value parsed."""
    return values is not None and None not in values.values()


def _build(errors: list[str], path: str, make: Callable, values, *args):
    """``make(*args, **values)`` from cleanly parsed values, else None; the
    object's own error is reported under ``path``."""
    if not _clean(values) or None in args:
        return None
    try:
        return make(*args, **values)
    except DfgNoiseError as exc:
        return _fail(errors, f"{path}: {exc}")


def _walk(value, spec, path: str, errors: list[str]):
    """``value`` checked against the schema node ``spec`` and returned typed.

    Every problem goes to ``errors`` under its dotted path, and a part that
    failed comes back as None.  A mapping comes back with the schema's keys
    in schema order (absent optional keys left out), so a section parsed
    cleanly when none of its values is None.
    """
    if isinstance(spec, _Section):
        return _build(errors, path, spec.make, _walk(value, spec.fields, path, errors))
    if isinstance(spec, dict):
        if not isinstance(value, dict):
            return _fail(errors, f"{path}: expected a mapping, got {type(value).__name__}")
        at = (lambda key: f"{path}.{key}") if path else str
        errors.extend(f"unknown key '{at(key)}'" for key in value if key not in spec)
        out = {}
        for key, sub in spec.items():
            if key in value:
                sub = sub.spec if isinstance(sub, _Optional) else sub
                out[key] = _walk(value[key], sub, at(key), errors)
            elif not isinstance(sub, _Optional):
                out[key] = _fail(errors, f"{at(key)}: missing required key")
        return out
    if isinstance(spec, list):  # one entry: the schema of every list item
        if not isinstance(value, list) or not value:
            return _fail(errors, f"{path}: expected a non-empty list")
        return [_walk(item, spec[0], f"{path}[{i}]", errors) for i, item in enumerate(value)]
    if spec is float:
        if not _is_number(value):
            return _fail(errors, f"{path}: expected a number, got {type(value).__name__} ({value!r})")
        if not abs(value) <= sys.float_info.max:  # NaN, +-inf and ints beyond float range
            return _fail(errors, f"{path}: expected a finite number")
        return float(value)
    if spec in (int, str):
        if isinstance(value, bool) or not isinstance(value, spec):
            noun = "an integer" if spec is int else "a string"
            return _fail(errors, f"{path}: expected {noun}, got {value!r}")
        return value
    return spec(value, path, errors)


def _checked(kind: type, test: Callable, reason: str) -> Callable:
    """Schema leaf: a ``kind`` value that must also pass ``test``; ``reason``,
    formatted with the value, says why it did not."""
    def check(value, path, errors):
        value = _walk(value, kind, path, errors)
        if value is None or test(value):
            return value
        return _fail(errors, f"{path}: {reason.format(value)}")
    return check


def _transmissions(value, path: str, errors: list[str]):
    """The ``[label, factor]`` pairs of a detection chain."""
    if not isinstance(value, list):
        return _fail(errors, f"{path}: expected a list of [label, factor] pairs")
    pairs, before = [], len(errors)
    for i, entry in enumerate(value):
        item = f"{path}[{i}]"
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            errors.append(f"{item}: expected a [label, factor] pair")
        elif not _is_number(entry[1]):
            errors.append(f"{item}: factor must be a number, got {entry[1]!r}")
        else:
            pairs.append((str(entry[0]), _walk(entry[1], float, item, errors)))
    return pairs if len(errors) == before else None


def _collection(value, path: str, errors: list[str]):
    """A mode label -> collection efficiency table."""
    if not isinstance(value, dict):
        return _fail(errors, f"{path}: expected a mapping of mode label to efficiency")
    bad = [label for label, eff in value.items() if not (_is_number(eff) and 0 <= eff <= 1)]
    errors.extend(f"{path}.{label}: efficiency must be a number in [0, 1]" for label in bad)
    return None if bad else {str(label): float(eff) for label, eff in value.items()}


def _mode(pump_nm: float, lambda_vis_nm: float | None = None, **fields) -> SfgMode:
    """A phase-matched mode; an explicit visible center must agree with the pump."""
    mode = sfg_mode_from_telecom(lambda_pump_nm=pump_nm, **fields)
    if lambda_vis_nm is not None:
        mode = replace(mode, lambda_vis_nm=lambda_vis_nm)
        check_mode_energy_conservation(mode, pump_nm)
    return mode


_SCAN = _Section(ScanGrid, {"start_nm": float, "stop_nm": float, "step_nm": float})
_CHAIN = _Section(MeasurementChain, {"transmissions": _transmissions, "detector_efficiency": float,
                                     "dark_rate_hz": float, "integration_time_s": float})
_FILTER = _Section(FilterProfile, {"shape": str, "fwhm_nm": float, "center_nm": _Optional(float),
                                   "peak_transmission": _Optional(float)})

# The YAML layout, the one reference for every key: each maps to a type,
# a nested section, a one-entry list or a checker.  Keys are required
# unless marked _Optional.  device then noise list their keys in
# ConverterParams field order, followed by the visible coefficient.
_SCHEMA = {
    "schema_version": _checked(
        int, lambda version: version == SCHEMA_VERSION,
        f"expected {SCHEMA_VERSION}, got {{}} "
        f"(this toolkit only reads schema version {SCHEMA_VERSION})"),
    "seed": _checked(int, lambda seed: seed >= 0, "must be non-negative"),
    "output_dir": str,
    "pump_wavelength_nm": _checked(float, lambda nm: nm > 0, "must be positive"),
    "device": {"length_cm": float, "eta_max_int": float, "eta_max_ext": float,
               "eta_n_per_w_cm2": float},
    "noise": {"alpha_n_tele_hz_per_w_cm": float, "bandwidth_ref_hz": float,
              "alpha_n_vis_hz_per_w_cm": _checked(float, lambda a: a >= 0, "must be non-negative")},
    "modes": [{"label": str, "lambda_tele_nm": float, "lambda_vis_nm": _Optional(float),
               "fwhm_sfg_nm": float, "fwhm_dip_nm": float, "relative_strength": float}],
    "chains": {"telecom": _CHAIN, "visible": _CHAIN},
    "collection": {"smf": _collection, "mmf": _collection},
    "filters": {"tg": _FILTER, "bp": _FILTER,
                "spectrometer_fwhm_nm": _checked(float, lambda w: w > 0, "must be positive")},
    "scans": {"telecom": _SCAN, "visible": _SCAN},
    "sweeps": _Section(SweepSettings, {"pump_min_w": float, "pump_max_w": float,
                                       "n_points": int, "efficiency_noise_rel": float}),
}


def parse_config(raw: dict, source: str = "<dict>") -> RunConfig:
    """Validate a parsed YAML mapping and build a :class:`RunConfig`.

    Raises :class:`ConfigError` listing every problem found, each with
    the dotted path of the offending key.  Objects are built only from
    sections that parsed cleanly, so each problem is reported once.
    """
    if not isinstance(raw, dict):
        raise ConfigError(f"{source}: top level must be a mapping")
    errors: list[str] = []
    (version, seed, output_dir, pump_nm, device, noise, modes, chains,
     collection, filters, scans, sweep) = _walk(raw, _SCHEMA, "", errors).values()

    params = alpha_vis = None
    if device is not None and noise is not None:
        *tele, alpha_vis = noise.values()
        params = _build(errors, "device/noise", ConverterParams, {},
                        *device.values(), *tele)
    if modes is not None:
        modes = [_build(errors, f"modes[{i}]", _mode, entry, pump_nm)
                 for i, entry in enumerate(modes)]
        if None not in modes and _clean(collection):
            known = {mode.label for mode in modes}
            errors.extend(f"collection.{name}.{label}: no such mode in 'modes'"
                          for name, table in collection.items()
                          for label in table if label not in known)

    if errors:
        listing = "\n".join(f"  - {e}" for e in errors)
        raise ConfigError(f"invalid configuration ({source}):\n{listing}")
    # filters and scans list their keys in RunConfig field order
    return RunConfig(version, seed, output_dir, pump_nm, params, alpha_vis, modes, chains,
                     collection, *filters.values(), *scans.values(), sweep, source)


def _loader(base: type) -> type:
    """The PyYAML safe loader ``base``, extended to read YAML 1.2 floats:
    an exponent without a dot or without a sign (``1e-1``, ``25e9``,
    ``1.0e9``) is a string under YAML 1.1.  A key given twice in one
    mapping is an error (a merged-in ``<<`` key may still be overridden)."""
    import yaml

    class Loader(base):
        def construct_mapping(self, node, deep=False):
            key_nodes = [key for key, _ in node.value if key.tag != "tag:yaml.org,2002:merge"]
            mapping = super().construct_mapping(node, deep=deep)
            seen = set()
            for key_node in key_nodes:
                key = self.construct_object(key_node)
                if key in seen:
                    raise yaml.constructor.ConstructorError(
                        problem=f"duplicate key {key!r} on line {key_node.start_mark.line + 1}")
                seen.add(key)
            return mapping

    Loader.add_implicit_resolver(
        "tag:yaml.org,2002:float",
        re.compile(r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)(?:[eE][-+]?[0-9]+)?$"),
        list("-+.0123456789"),
    )
    return Loader


# Built by _load_yaml on first use, so that commands which read no YAML
# (``validate-config --write-template``) never import PyYAML.  It uses
# libyaml's parser where PyYAML was built with it: it loads the template
# about seven times faster.  The resolver and the constructor are PyYAML's
# own with either base.
_Loader = None


def _load_yaml(text: str, source: str):
    """Parse YAML ``text``; a syntax error becomes a one-line ConfigError
    ``source:line:column: problem (context)``."""
    global _Loader
    import yaml

    if _Loader is None:
        _Loader = _loader(getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    try:
        return yaml.load(text, Loader=_Loader)
    except yaml.MarkedYAMLError as exc:
        mark = exc.problem_mark
        where = f"{source}:{mark.line + 1}:{mark.column + 1}" if mark else source
        context = f" ({exc.context})" if exc.context else ""
        raise ConfigError(f"{where}: {exc.problem}{context}") from exc
    except yaml.reader.ReaderError as exc:
        # a character YAML does not allow; its second line names "<unicode string>"
        raise ConfigError(f"{source}: character {exc.position + 1}: "
                          f"{str(exc).splitlines()[0]}") from exc


def load_config(path: str | Path | None) -> RunConfig:
    """Load and validate a YAML config file; ``None`` gives the built-in
    reference device preset."""
    if path is None:
        return default_config()
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8 text: {exc}") from None
    return parse_config(_load_yaml(text, str(path)), source=str(path))


def default_config() -> RunConfig:
    """The built-in reference device preset."""
    return parse_config(_load_yaml(DEFAULT_CONFIG_YAML, "<builtin>"), source="<builtin>")


def write_template(path: str | Path) -> Path:
    """Write the commented reference configuration to ``path``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(DEFAULT_CONFIG_YAML)
    return path
