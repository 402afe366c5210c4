"""Tests for the detection-chain Monte Carlo and its inverse."""

import math
import random
import re

import numpy as np
import pytest

from dfgnoise import counting, dataio
from dfgnoise.counting import CountRecord, MeasurementChain
from dfgnoise.errors import ParameterError

TELECOM = MeasurementChain(
    transmissions=(("fiber", 0.75), ("tg_filter", 0.40)),
    detector_efficiency=0.10,
    dark_rate_hz=340.0,
    integration_time_s=10.0,
)


def test_chain_transmission_reference_chain():
    assert counting.chain_transmission(TELECOM) == pytest.approx(0.030, rel=1e-12)


def test_chain_transmission_trivial_cases():
    bare = MeasurementChain((), 1.0, 0.0, 1.0)
    assert counting.chain_transmission(bare) == 1.0
    single = MeasurementChain((("x", 0.37),), 1.0, 0.0, 1.0)
    assert counting.chain_transmission(single) == pytest.approx(0.37)


def test_chain_validation():
    with pytest.raises(ParameterError):
        MeasurementChain((("x", 0.0),), 1.0, 0.0, 1.0)
    with pytest.raises(ParameterError):
        MeasurementChain((), 1.2, 0.0, 1.0)
    with pytest.raises(ParameterError):
        MeasurementChain((), 1.0, -1.0, 1.0)
    with pytest.raises(ParameterError):
        MeasurementChain((), 1.0, 0.0, 0.0)


def test_simulate_counts_deterministic_per_seed():
    a = counting.simulate_counts(5000.0, TELECOM, seed=123)
    b = counting.simulate_counts(5000.0, TELECOM, seed=123)
    c = counting.simulate_counts(5000.0, TELECOM, seed=124)
    assert a.counts == b.counts
    assert a.seed == 123
    assert a.counts != c.counts  # these seeds happen to differ


def test_simulate_counts_dark_only_mean():
    # zero signal: mean over many seeds must match dark * time within 3 sigma
    n = 10_000
    total = sum(
        counting.simulate_counts(0.0, TELECOM, seed=counting.derive_seed(9, i)).counts
        for i in range(n)
    )
    mean = total / n
    expected = 340.0 * 10.0
    assert abs(mean - expected) < 3.0 * np.sqrt(expected / n)


def test_simulate_counts_expected_rate():
    # 5 kHz through 3% transmission plus 340 Hz dark: 490 counts/s
    n = 4000
    counts = [
        counting.simulate_counts(5000.0, TELECOM, counting.derive_seed(3, i), duration_s=1.0).counts
        for i in range(n)
    ]
    assert np.mean(counts) == pytest.approx(490.0, abs=3.0 * np.sqrt(490.0 / n))


def test_monotonicity_of_mean_counts():
    def mean_counts(rate, dark, t):
        chain = MeasurementChain(TELECOM.transmissions, 0.10, dark, t)
        return np.mean(counting.simulate_sweep([rate] * 500, chain, base_seed=11).counts)

    by_rate = [mean_counts(r, 340.0, 10.0) for r in (1e3, 1e4, 1e5)]
    by_dark = [mean_counts(1e4, d, 10.0) for d in (10.0, 340.0, 5000.0)]
    by_time = [mean_counts(1e4, 340.0, t) for t in (1.0, 10.0, 100.0)]
    for series in (by_rate, by_dark, by_time):
        assert series[0] < series[1] < series[2]


def test_normalize_reference_example():
    record = CountRecord(counts=4900, duration_s=10.0, seed=0)
    normalized = counting.normalize_to_waveguide(record, TELECOM)
    assert normalized.rate_hz == pytest.approx(5000.0, rel=1e-12)
    assert normalized.sigma_hz == pytest.approx(np.sqrt(4900.0) / 10.0 / 0.03, rel=1e-12)


def test_normalize_dark_only_gives_zero():
    record = CountRecord(counts=3400, duration_s=10.0, seed=0)
    assert counting.normalize_to_waveguide(record, TELECOM).rate_hz == pytest.approx(0.0, abs=1e-9)


def test_normalize_flags_negative():
    # below the dark level the central value goes negative rather than clipping
    record = CountRecord(counts=3000, duration_s=10.0, seed=0)
    normalized = counting.normalize_to_waveguide(record, TELECOM)
    assert normalized.rate_hz == pytest.approx((300.0 - 340.0) / 0.03, rel=1e-12)


def test_normalize_counts_matches_per_point_arithmetic():
    # the array path must reproduce the per-point formulas bit for bit
    counts = np.array([0, 1, 3000, 4900, 123456])
    durations = np.array([10.0, 10.0, 10.0, 10.0, 1.0])
    fraction = 0.77
    batch = counting.normalize_counts(counts, durations, TELECOM, in_band_fraction=fraction)
    transmission = counting.chain_transmission(TELECOM)
    for i, (c, t) in enumerate(zip(counts.tolist(), durations.tolist())):
        rate = (c / t - 340.0) / transmission * fraction
        sigma = max(math.sqrt(c) / t / transmission * fraction, fraction / t / transmission)
        assert batch.rate_hz[i] == rate
        assert batch.sigma_hz[i] == sigma


def _per_point(rates, chain, base):
    """``simulate_sweep`` the reference way: one ``simulate_counts`` per point."""
    return [counting.simulate_counts(r, chain, counting.derive_seed(base, i))
            for i, r in enumerate(rates)]


def _assert_sweep_equals(sweep, records):
    assert len(sweep) == len(records)
    assert sweep.counts.tolist() == [rec.counts for rec in records]
    assert sweep.seeds.tolist() == [rec.seed for rec in records]
    assert all(rec.duration_s == sweep.duration_s for rec in records)


def test_simulate_sweep_matches_per_point_draws():
    rates = [0.0, 1.0e3, 2.0e4, 5.0e5]
    _assert_sweep_equals(counting.simulate_sweep(rates, TELECOM, base_seed=5),
                         _per_point(rates, TELECOM, 5))
    # numpy draws a Poisson mean below 10 by inversion and one at or above
    # 10 by rejection; the sweep must reproduce scalar draws in both
    chain = MeasurementChain(TELECOM.transmissions, 0.10, 0.5, 1.0)
    rates = np.linspace(0.0, 1.0e3, 400)
    means = counting.expected_counts(rates, chain, 1.0)
    assert means.min() < 10.0 <= means.max()
    base = counting.derive_seed(20210412, 5)
    _assert_sweep_equals(counting.simulate_sweep(rates, chain, base),
                         _per_point(rates, chain, base))
    _assert_sweep_equals(counting.simulate_sweep([], chain, base), [])


# a bare chain: the Poisson mean of each point is its rate
BARE = MeasurementChain((), 1.0, 0.0, 1.0)


def _log_uniform(rng, lo, hi, n):
    return [10 ** rng.uniform(math.log10(lo), math.log10(hi)) for _ in range(n)]


# n means of each range, edge values first
_MEAN_RANGES = {
    "below-10": lambda rng, n: ([0.0, 1e-300, 9.999999][:n]
                                + [rng.uniform(0.0, 10.0) for _ in range(n - 3)]),
    "10-to-1e3": lambda rng, n: [10.0][:n] + _log_uniform(rng, 10.0, 1e3, n - 1),
    "700-to-1e7": lambda rng, n: [1e7][:n] + _log_uniform(rng, 700.0, 2e5, n - 1),
    "mixed": lambda rng, n: [rng.choice([0.0, 0.3, 5.0, 12.0, 3e4, 1e7]) for _ in range(n)],
}


# 4 mean ranges x 4 lengths x 13 bases: 104,052 points
@pytest.mark.parametrize("n", [0, 1, 12, 2000])
@pytest.mark.parametrize("kind", list(_MEAN_RANGES))
def test_sweep_draws_equal_numpy_point_by_point(kind, n):
    # simulate_counts, one Generator per point, is the reference for every
    # point, whichever way the sweep draws it
    rng = random.Random(f"{kind}-{n}")
    for base in range(13):
        rates = np.array(_MEAN_RANGES[kind](rng, n))
        assert len(rates) == n
        _assert_sweep_equals(counting.simulate_sweep(rates, BARE, base),
                             _per_point(rates, BARE, base))


@pytest.mark.parametrize("bad", [float("nan"), 1e19])
def test_sweep_draw_raises_like_numpy(bad):
    with pytest.raises(ValueError) as expected:
        np.random.default_rng(0).poisson(bad)
    rates = np.full(2000, 500.0)
    rates[1234] = bad
    with pytest.raises(ValueError, match=re.escape(str(expected.value))):
        counting.simulate_sweep(rates, BARE, 3)


def test_most_points_take_the_array_pass():
    # the first PTRS try, evaluated as arrays, accepts most points at the
    # means of a noise sweep, each with numpy's count
    means = np.linspace(700.0, 2e5, 2000)
    seeds = counting.derive_seeds(29, len(means))
    accepted, counts = counting._ptrs_first_try(means, counting._pcg64_words(seeds))
    assert 0.7 < accepted.mean() < 0.85
    reference = [int(np.random.default_rng(s).poisson(m))
                 for s, m in zip(seeds[accepted].tolist(), means[accepted])]
    assert counts.tolist() == reference


@pytest.mark.parametrize("n, fewest, most", [(12, 12, 12), (2000, 200, 600)])
def test_long_sweeps_draw_most_points_as_arrays(monkeypatch, n, fewest, most):
    # a short sweep draws every point from its own Generator; a long one
    # only the points its array pass leaves (about a fifth at these means)
    made = []

    class CountedSeedWords(counting._SeedWords):
        def __init__(self, words):
            made.append(words)
            super().__init__(words)

    monkeypatch.setattr(counting, "_SeedWords", CountedSeedWords)
    rates = np.linspace(700.0, 2e5, n)
    _assert_sweep_equals(counting.simulate_sweep(rates, BARE, 8), _per_point(rates, BARE, 8))
    assert fewest <= len(made) <= most


# a fixed draw of random bases: one word above 32 bits, one above the
# four-word SeedSequence pool
_RANDOM = random.Random(20210412)
_BASES = [0, 1, 2**31, 2**32 - 1, _RANDOM.getrandbits(64), _RANDOM.getrandbits(160)]


@pytest.mark.parametrize("n", [0, 1, 2000])
@pytest.mark.parametrize("base", _BASES)
def test_derive_seeds_match_derive_seed(base, n):
    seeds = counting.derive_seeds(base, n)
    assert seeds.dtype == np.uint32
    assert seeds.tolist() == [counting.derive_seed(base, i) for i in range(n)]


def test_derive_seeds_rejects_negative_base():
    with pytest.raises(ParameterError):
        counting.derive_seeds(-1, 3)


def test_written_seed_column_replays(tmp_path):
    rates = np.linspace(0.0, 5.0e4, 50)
    pump = np.linspace(0.0, 0.44, 50)
    sweep = counting.simulate_sweep(rates, TELECOM, base_seed=17)
    path = dataio.write_counts_csv(pump, sweep, tmp_path / "counts.csv")
    _, counts, durations, seeds, _ = dataio.read_counts_csv(path)
    assert seeds == counting.derive_seeds(17, 50).tolist()
    replayed = [counting.simulate_counts(r, TELECOM, s, duration_s=t).counts
                for r, s, t in zip(rates, seeds, durations)]
    assert replayed == counts.tolist()


def test_normalize_sigma_floor_is_one_count():
    # an empty bin keeps the uncertainty of a single count, never zero
    empty = counting.normalize_to_waveguide(CountRecord(0, 10.0, 0), TELECOM)
    single = counting.normalize_to_waveguide(CountRecord(1, 10.0, 0), TELECOM)
    assert empty.sigma_hz == single.sigma_hz == pytest.approx(1.0 / 10.0 / 0.03)


def test_expected_counts_array_matches_scalar():
    rates = np.array([0.0, 5000.0, 2.0e4])
    batch = counting.expected_counts(rates, TELECOM, 10.0)
    assert [counting.expected_counts(float(r), TELECOM, 10.0) for r in rates] == list(batch)
    assert batch[1] == pytest.approx(4900.0)
    with pytest.raises(ParameterError):
        counting.expected_counts(np.array([1.0, -1.0]), TELECOM, 10.0)


def test_round_trip_unbiased():
    true_rate = 2.0e4
    n = 10_000
    rates = np.array([
        counting.normalize_to_waveguide(
            counting.simulate_counts(true_rate, TELECOM, counting.derive_seed(21, i)), TELECOM
        ).rate_hz
        for i in range(n)
    ])
    sem = rates.std(ddof=1) / np.sqrt(n)
    assert abs(rates.mean() - true_rate) < 3.0 * sem


def test_reported_sigma_matches_spread():
    true_rate = 5.0e4
    n = 10_000
    rates = np.empty(n)
    sigmas = np.empty(n)
    for i in range(n):
        rec = counting.simulate_counts(true_rate, TELECOM, counting.derive_seed(31, i))
        rates[i], sigmas[i] = counting.normalize_to_waveguide(rec, TELECOM)
    assert sigmas.mean() == pytest.approx(rates.std(ddof=1), rel=0.1)


def test_band_fraction_correction():
    # 4900 counts in 10 s through 3% with 340 Hz dark: 5 kHz at the waveguide
    full = counting.normalize_counts(4900, 10.0, TELECOM)
    part = counting.normalize_counts(4900, 10.0, TELECOM, in_band_fraction=0.77)
    assert part.rate_hz == pytest.approx(0.77 * full.rate_hz, rel=1e-12)
    assert part.sigma_hz == pytest.approx(0.77 * full.sigma_hz, rel=1e-12)
    with pytest.raises(ParameterError):
        counting.normalize_counts(4900, 10.0, TELECOM, in_band_fraction=0.0)
    with pytest.raises(ParameterError):
        counting.normalize_counts(4900, 10.0, TELECOM, in_band_fraction=1.5)


def test_derive_seed_stable_and_distinct():
    a = counting.derive_seed(42, 0)
    assert a == counting.derive_seed(42, 0)
    seeds = {counting.derive_seed(42, i) for i in range(1000)}
    assert len(seeds) == 1000


def test_in_band_fraction_from_synthetic_spectra():
    # integrating the synthetic single-mode-fiber spectrum against the
    # bandpass reproduces the calibrated in-band fraction of the target peak
    from dfgnoise.config import default_config
    from dfgnoise.pipelines import visible_in_band_fraction

    fraction = visible_in_band_fraction(default_config())
    assert fraction == pytest.approx(0.77, abs=0.05)
