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
    "SweepCounts",
    "NormalizedRate",
    "chain_transmission",
    "expected_counts",
    "simulate_counts",
    "simulate_sweep",
    "normalize_counts",
    "normalize_to_waveguide",
    "derive_seed",
    "derive_seeds",
]

# constants of numpy's SeedSequence (numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
# for each pool word, the indices of the other three
_OTHER_WORDS = [np.delete(np.arange(_POOL_SIZE), i) for i in range(_POOL_SIZE)]

# PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64), as uint64 halves
_PCG_MULT_HI, _PCG_MULT_LO = 2549297995355413924, 4865540595714422341
# numpy.random's POISSON_LAM_MAX: larger means raise ValueError
_POISSON_LAM_MAX = np.iinfo("l").max - np.sqrt(np.iinfo("l").max) * 10
# Below this many points a sweep draws every point from its own Generator:
# the array pass has a fixed cost of about 0.2 ms, which per-point draws
# (about 4 us each) only pass in longer sweeps.
_ARRAY_DRAW_MIN_POINTS = 64


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


@dataclass(frozen=True, eq=False)
class SweepCounts:
    """Counting results of a sweep: an int64 array of counts and the uint32
    array of per-point seeds that produced them, over one duration.  Its
    length is the number of points."""

    counts: np.ndarray
    duration_s: float
    seeds: np.ndarray

    def __post_init__(self):
        if not self.duration_s > 0:
            raise ParameterError("duration must be positive")

    def __len__(self) -> int:
        return len(self.counts)


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


def _int_words(value: int) -> list[int]:
    """The little-endian 32-bit words SeedSequence splits an entropy integer into."""
    if value < 0:
        raise ParameterError(f"seeds must be non-negative, got {value}")
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """The first ``count`` values of a SeedSequence hash constant, which
    is multiplied by ``mult`` after each use, as a uint32 column."""
    values = [init]
    for _ in range(count - 1):
        values.append(values[-1] * mult & _MASK32)
    return np.array(values, dtype=np.uint32)[:, None]


def _seed_sequence_state(entropy: np.ndarray, n_words: int) -> np.ndarray:
    """``SeedSequence(entropy[:, j]).generate_state(n_words)`` for every
    column j of an (L, n) uint32 array of entropy words, as an
    (n_words, n) uint32 array.

    This is numpy's documented algorithm: hash the words into a pool of
    four, mix every pool word into every other, then hash the pool out.
    The hash constants do not depend on the data, so the calls that read
    the same pool word run as one array operation over their constants.
    """
    extra = max(len(entropy) - _POOL_SIZE, 0)
    consts = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE ** 2 + _POOL_SIZE * extra + 1)
    used = 0

    def hashmix(value, calls):
        # the next ``calls`` hashmix calls of SeedSequence, one output row each
        nonlocal used
        value = value ^ consts[used:used + calls]
        value *= consts[used + 1:used + calls + 1]
        used += calls
        return value ^ (value >> _XSHIFT)

    def mix(x, y):
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ (result >> _XSHIFT)

    pool = np.zeros((_POOL_SIZE, entropy.shape[1]), dtype=np.uint32)
    pool[:len(entropy)] = entropy[:_POOL_SIZE]
    pool = hashmix(pool, _POOL_SIZE)
    for src, dst in enumerate(_OTHER_WORDS):
        pool[dst] = mix(pool[dst], hashmix(pool[src], len(dst)))
    for word in entropy[_POOL_SIZE:]:
        pool = mix(pool, hashmix(word, _POOL_SIZE))

    consts = _hash_constants(_INIT_B, _MULT_B, n_words + 1)
    state = pool[np.arange(n_words) % _POOL_SIZE] ^ consts[:-1]
    state *= consts[1:]
    return state ^ (state >> _XSHIFT)


def derive_seeds(base_seed: int, n: int) -> np.ndarray:
    """``derive_seed(base_seed, i)`` for ``i`` in ``range(n)``, as one uint32
    array computed in a single pass."""
    base = _int_words(int(base_seed))
    entropy = np.empty((len(base) + 1, n), dtype=np.uint32)
    entropy[:-1] = np.array(base, dtype=np.uint32)[:, None]
    entropy[-1] = np.arange(n)
    return _seed_sequence_state(entropy, 1)[0]


class _SeedWords:
    """A seed sequence that hands a bit generator precomputed seeding words."""

    __slots__ = ("words",)

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _pcg64_words(seeds: np.ndarray) -> np.ndarray:
    """``SeedSequence(seed).generate_state(4, uint64)`` for every seed, as
    an (n, 4) uint64 array: the words that seed each point's PCG64."""
    # pairs of uint32 words read as little-endian uint64, as SeedSequence does
    state = _seed_sequence_state(seeds[None], 8)
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64)


def _mulhi64(a: np.ndarray, b: int) -> np.ndarray:
    """High 64 bits of the 128-bit product of a uint64 array and a 64-bit
    constant, from 32-bit limbs."""
    a_lo, a_hi = a & _MASK32, a >> 32
    b_lo, b_hi = b & _MASK32, b >> 32
    cross_a, cross_b = a_hi * b_lo, a_lo * b_hi
    mid = ((a_lo * b_lo) >> 32) + (cross_a & _MASK32) + (cross_b & _MASK32)
    return a_hi * b_hi + (cross_a >> 32) + (cross_b >> 32) + (mid >> 32)


def _pcg_step(high, low, inc_high, inc_low):
    """One step of PCG64's 128-bit LCG, ``state * multiplier + inc``, on
    uint64 (high, low) halves."""
    product_high = _mulhi64(low, _PCG_MULT_LO) + low * _PCG_MULT_HI + high * _PCG_MULT_LO
    low = low * _PCG_MULT_LO + inc_low
    return product_high + inc_high + (low < inc_low), low


def _pcg_doubles(words: np.ndarray, count: int) -> list[np.ndarray]:
    """The first ``count`` ``next_double`` outputs of ``PCG64`` seeded with
    each row of an (n, 4) uint64 array of seeding words, one array each.

    Seeding is ``pcg_setseq_128_srandom_r``: the increment is
    ``(initseq << 1) | 1``; step from zero, add ``initstate``, step.  Each
    output steps, then applies XSL-RR, and keeps the top 53 bits.
    """
    init_high, init_low, seq_high, seq_low = words.T
    inc_high = (seq_high << 1) | (seq_low >> 63)
    inc_low = (seq_low << 1) | 1
    low = inc_low + init_low  # the first step from a zero state gives inc
    high = inc_high + init_high + (low < init_low)
    high, low = _pcg_step(high, low, inc_high, inc_low)
    doubles = []
    for _ in range(count):
        high, low = _pcg_step(high, low, inc_high, inc_low)
        xored, rot = high ^ low, high >> 58
        out = (xored >> rot) | (xored << ((64 - rot) & 63))
        doubles.append((out >> 11) * 2.0 ** -53)
    return doubles


def _ptrs_first_try(means: np.ndarray, words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first try of numpy's PTRS Poisson sampler (Hoermann 1993,
    ``random_poisson_ptrs``) at each mean, from each point's first two
    doubles: (accepted mask, counts of the accepted points).

    Only the quick acceptance test is evaluated; a point whose first try
    is rejected or needs the log test is left unaccepted.
    """
    first, v = _pcg_doubles(words, 2)
    u = first - 0.5
    us = 0.5 - np.abs(u)
    b = 0.931 + 2.53 * np.sqrt(means)
    vr = 0.9277 - 3.6224 / (b - 2)
    accepted = (us >= 0.07) & (v <= vr)
    a = -0.059 + 0.02483 * b[accepted]
    counts = np.floor((2 * a / us[accepted] + b[accepted]) * u[accepted]
                      + means[accepted] + 0.43)
    return accepted, counts.astype(np.int64)


def _poisson_draws(means: np.ndarray, seeds: np.ndarray) -> np.ndarray:
    """``default_rng(seed).poisson(mean)`` for each pair, as an int64 array.

    The PCG64 seeding words of every seed are one array pass.  In a long
    sweep, points whose mean takes numpy's PTRS branch and is
    accepted on the first try are drawn as one array pass too; every
    other point (small, zero, NaN or too-large means, and later tries)
    draws from its own ``Generator`` seeded with the same words, so numpy
    keeps its rare branches and its errors.
    """
    from numpy.random import PCG64, Generator  # loaded on first draw, not at CLI start-up
    from numpy.random.bit_generator import ISeedSequence

    ISeedSequence.register(_SeedWords)  # bit generators take any registered seed sequence
    words = _pcg64_words(seeds)
    counts = np.zeros(len(means), dtype=np.int64)
    per_point = np.ones(len(means), dtype=bool)
    if len(means) >= _ARRAY_DRAW_MIN_POINTS:
        ptrs = np.flatnonzero((means >= 10) & (means <= _POISSON_LAM_MAX))
        accepted, drawn = _ptrs_first_try(means[ptrs], words[ptrs])
        counts[ptrs[accepted]] = drawn
        per_point[ptrs[accepted]] = False
    rest = np.flatnonzero(per_point)
    counts[rest] = [Generator(PCG64(_SeedWords(words[i]))).poisson(means[i])
                    for i in rest.tolist()]
    return counts


def expected_counts(true_rate_hz, chain: MeasurementChain, duration_s: float):
    """Poisson mean of the detected counts, (rate * chain transmission +
    dark rate) * time, for a scalar or an array of waveguide-output rates."""
    if np.any(np.asarray(true_rate_hz) < 0):
        raise ParameterError("true rate must be non-negative")
    return (true_rate_hz * chain_transmission(chain) + chain.dark_rate_hz) * duration_s


def simulate_counts(
    true_rate_hz: float,
    chain: MeasurementChain,
    seed: int,
    duration_s: float | None = None,
) -> CountRecord:
    """Draw detected counts for a given waveguide-output rate.  Identical
    seeds give identical counts."""
    t = chain.integration_time_s if duration_s is None else duration_s
    counts = np.random.default_rng(seed).poisson(expected_counts(true_rate_hz, chain, t))
    return CountRecord(counts=int(counts), duration_s=t, seed=int(seed))


def simulate_sweep(true_rates_hz, chain: MeasurementChain, base_seed: int) -> SweepCounts:
    """Counting results for a list of rates over the chain's integration
    time, one derived seed per point, so the outcome is independent of
    evaluation order.  Point ``i`` equals
    ``simulate_counts(rate_i, chain, derive_seed(base_seed, i))``."""
    t = chain.integration_time_s
    means = expected_counts(np.asarray(true_rates_hz, dtype=float), chain, t)
    seeds = derive_seeds(base_seed, len(means))
    return SweepCounts(_poisson_draws(means, seeds), t, seeds)


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
