"""Benchmark inputs: the YAML run configuration and per-op seeds.

Everything the package sees is derived here from the workload seed, so
the same seed always produces the same inputs.  The device values are
the reference device; the correctness checks compare fits against the
values in :data:`TRUTH`, which are written into every generated config.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import yaml

# configured device values the fits must recover
TRUTH = {
    "eta_max_int": 0.67,
    "eta_max_ext": 0.46,
    "eta_n": 0.63,
    "alpha_n_tele": 129.0e3,
    "alpha_n_vis": 391.0e3,
}
PUMP_NM = 930.0
TG_FWHM_NM = 0.20
DIP_FWHM_NM = 0.50
DIP_CENTER_NM = 1541.0


def derive_seed(seed: int, *keys) -> int:
    """A 63-bit seed derived from the workload seed and a key path."""
    digest = hashlib.sha256(repr((int(seed),) + keys).encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def run_config(seed: int, n_points: int = 12, output_dir: str = "out") -> dict:
    """The run configuration as a mapping, ready for ``yaml.safe_dump``."""
    mode = {"fwhm_sfg_nm": 0.23, "fwhm_dip_nm": DIP_FWHM_NM}
    return {
        "schema_version": 1,
        "seed": derive_seed(seed, "config") % 2**31,
        "output_dir": output_dir,
        "pump_wavelength_nm": PUMP_NM,
        "device": {
            "length_cm": 4.0,
            "eta_max_int": TRUTH["eta_max_int"],
            "eta_max_ext": TRUTH["eta_max_ext"],
            "eta_n_per_w_cm2": TRUTH["eta_n"],
        },
        "noise": {
            "alpha_n_tele_hz_per_w_cm": TRUTH["alpha_n_tele"],
            "bandwidth_ref_hz": 25.0e9,
            "alpha_n_vis_hz_per_w_cm": TRUTH["alpha_n_vis"],
        },
        "modes": [
            {"label": "TEM00", "lambda_tele_nm": DIP_CENTER_NM, **mode, "relative_strength": 1.0},
            {"label": "TEM01", "lambda_tele_nm": 1546.0, **mode, "relative_strength": 0.35},
            {"label": "TEM02", "lambda_tele_nm": 1554.6, **mode, "relative_strength": 0.20},
        ],
        "chains": {
            "telecom": {
                "transmissions": [["fiber_coupling", 0.75], ["tg_filter", 0.40]],
                "detector_efficiency": 0.10,
                "dark_rate_hz": 340.0,
                "integration_time_s": 10.0,
            },
            "visible": {
                "transmissions": [["fiber_coupling", 0.70], ["bp_filter", 0.90]],
                "detector_efficiency": 0.56,
                "dark_rate_hz": 70.0,
                "integration_time_s": 10.0,
            },
        },
        "collection": {
            "smf": {"TEM00": 1.0, "TEM01": 0.55, "TEM02": 0.60},
            "mmf": {"TEM00": 1.0, "TEM01": 1.0, "TEM02": 1.0},
        },
        "filters": {
            "tg": {"shape": "gaussian", "fwhm_nm": TG_FWHM_NM, "center_nm": DIP_CENTER_NM,
                   "peak_transmission": 0.40},
            "bp": {"shape": "gaussian", "fwhm_nm": 10.0, "center_nm": 580.0,
                   "peak_transmission": 0.90},
            "spectrometer_fwhm_nm": 0.13,
        },
        "scans": {
            "telecom": {"start_nm": 1520.0, "stop_nm": 1575.0, "step_nm": 0.10},
            "visible": {"start_nm": 578.0, "stop_nm": 584.0, "step_nm": 0.02},
        },
        "sweeps": {
            "pump_min_w": 0.0,
            "pump_max_w": 0.44,
            "n_points": n_points,
            "efficiency_noise_rel": 0.02,
        },
    }


def write_config(path: Path, seed: int, n_points: int = 12) -> Path:
    """Write the generated run configuration as YAML."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(yaml.safe_dump(run_config(seed, n_points), sort_keys=False))
    return path


def partner_wavelength_nm(lambda_tele_nm: float) -> float:
    """Visible SFG partner of a telecom wavelength, by energy conservation."""
    return 1.0 / (1.0 / PUMP_NM + 1.0 / lambda_tele_nm)
