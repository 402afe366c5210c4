"""Monte Carlo model of the photon detection chain.

The chain applies a stack of transmission factors and a detector
efficiency to the rate at the waveguide output, adds dark counts, and
draws Poisson counts over the integration time.  The inverse direction
(:func:`normalize_counts`) undoes the same bookkeeping on measured
counts.  Both directions work on scalars and arrays alike.  Dead time
and afterpulsing are deliberately not modeled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ParameterError

__all__ = [
    "MeasurementChain",
    "CountRecord",
    "NormalizedRate",
    "chain_transmission",
    "expected_counts",
    "simulate_counts",
    "simulate_sweep",
    "normalize_counts",
    "normalize_to_waveguide",
    "derive_seed",
]


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


@dataclass(frozen=True)
class CountRecord:
    """One Poisson counting result, with the seed that produced it."""

    counts: int
    duration_s: float
    seed: int

    def __post_init__(self):
        if self.counts < 0:
            raise ParameterError("counts must be non-negative")
        if not self.duration_s > 0:
            raise ParameterError("duration must be positive")


class NormalizedRate(NamedTuple):
    """Rate at the waveguide output inferred from counts, with 1-sigma
    Poisson uncertainty (scalars or arrays).  Negative central values are
    possible when the signal is below the dark rate."""

    rate_hz: float
    sigma_hz: float


def chain_transmission(chain: MeasurementChain) -> float:
    """Total photon survival probability: product of all transmissions times
    the detector efficiency."""
    total = chain.detector_efficiency
    for _, factor in chain.transmissions:
        total *= factor
    return total


def derive_seed(base_seed: int, index: int) -> int:
    """Deterministic per-point seed for sweeps, independent across indices.

    The derived value is an ordinary integer, so it can be stored in a
    CSV column and replayed through :func:`simulate_counts`.
    """
    return int(np.random.SeedSequence((int(base_seed), int(index))).generate_state(1)[0])


def expected_counts(true_rate_hz, chain: MeasurementChain, duration_s: float):
    """Poisson mean of the detected counts, (rate * chain transmission +
    dark rate) * time, for a scalar or an array of waveguide-output rates."""
    if np.any(np.asarray(true_rate_hz) < 0):
        raise ParameterError("true rate must be non-negative")
    return (true_rate_hz * chain_transmission(chain) + chain.dark_rate_hz) * duration_s


def _draw(mean, seed: int, duration_s: float) -> CountRecord:
    counts = np.random.default_rng(seed).poisson(mean)
    return CountRecord(counts=int(counts), duration_s=duration_s, seed=int(seed))


def simulate_counts(
    true_rate_hz: float,
    chain: MeasurementChain,
    seed: int,
    duration_s: float | None = None,
) -> CountRecord:
    """Draw detected counts for a given waveguide-output rate.  Identical
    seeds give identical counts."""
    t = chain.integration_time_s if duration_s is None else duration_s
    return _draw(expected_counts(true_rate_hz, chain, t), seed, t)


def simulate_sweep(
    true_rates_hz,
    chain: MeasurementChain,
    base_seed: int,
    duration_s: float | None = None,
) -> list[CountRecord]:
    """Counting results for a list of rates, one derived seed per point, so
    the outcome is independent of evaluation order."""
    t = chain.integration_time_s if duration_s is None else duration_s
    means = expected_counts(np.asarray(true_rates_hz, dtype=float), chain, t)
    return [_draw(mean, derive_seed(base_seed, i), t) for i, mean in enumerate(means)]


def normalize_counts(
    counts, duration_s, chain: MeasurementChain, in_band_fraction: float = 1.0
) -> NormalizedRate:
    """Invert the detection chain for scalar or array counts: rate at the
    waveguide output and its Poisson uncertainty.

    rate = (counts/duration - dark) / transmission * in_band_fraction,
    sigma = sqrt(counts) / duration / transmission * in_band_fraction,
    with sigma floored at one count (in_band_fraction / duration /
    transmission) so an empty bin keeps a finite weight.
    ``in_band_fraction`` keeps only the part of the rate that belongs to
    the target spectral peak.
    """
    if not 0.0 < in_band_fraction <= 1.0:
        raise ParameterError(f"in_band_fraction must be in (0, 1], got {in_band_fraction}")
    transmission = chain_transmission(chain)
    rate = (counts / duration_s - chain.dark_rate_hz) / transmission * in_band_fraction
    sigma = np.sqrt(counts) / duration_s / transmission * in_band_fraction
    floor = in_band_fraction / duration_s / transmission
    return NormalizedRate(rate_hz=rate, sigma_hz=np.maximum(sigma, floor))


def normalize_to_waveguide(record: CountRecord, chain: MeasurementChain) -> NormalizedRate:
    """:func:`normalize_counts` of one counting result."""
    return normalize_counts(record.counts, record.duration_s, chain)
