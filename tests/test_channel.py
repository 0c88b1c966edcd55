from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest

from qsagms.channel import DepolarizingChannel, prior_llr, sample_error


def _ln_hp(x: str) -> float:
    """High-precision natural log, rounded to float64."""
    with mpmath.workdps(50):
        return float(mpmath.log(mpmath.mpf(x)))


def test_prior_llr_examples():
    assert prior_llr(0.10).llr == pytest.approx(_ln_hp("27"), abs=1e-15)
    assert prior_llr(0.10).llr == pytest.approx(3.2958, abs=5e-4)
    assert prior_llr(0.75).llr == pytest.approx(0.0, abs=1e-15)
    assert prior_llr(0.01).llr == pytest.approx(_ln_hp("297"), abs=1e-15)
    assert prior_llr(0.01).llr == pytest.approx(5.6937, abs=5e-4)


def test_prior_llr_domain():
    for bad in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            prior_llr(bad)


def test_prior_llr_strictly_decreasing():
    values = [prior_llr(e).llr for e in np.linspace(0.001, 0.999, 200)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_prior_sign_flips_at_three_quarters():
    assert prior_llr(0.74).llr > 0
    assert prior_llr(0.76).llr < 0


def test_channel_epsilon_range():
    DepolarizingChannel(0.0, 1)  # degenerate noiseless limit allowed
    with pytest.raises(ValueError):
        DepolarizingChannel(1.0, 1)
    with pytest.raises(ValueError):
        DepolarizingChannel(-0.1, 1)


def test_channel_rejects_aliasing_seeds():
    # each is one 64-bit Philox key word; outside [0, 2**64) it would alias
    for seed in (-1, 2**64, 2**64 + 7):
        with pytest.raises(ValueError, match="rng_seed"):
            DepolarizingChannel(0.1, seed)
    ch = DepolarizingChannel(0.1, 2**64 - 1)
    for stream_id in (-1, 2**64):
        with pytest.raises(ValueError, match="stream_id"):
            sample_error(ch, 8, stream_id=stream_id)
    assert sample_error(ch, 8, stream_id=2**64 - 1).shape == (8,)


def test_sample_error_noiseless_limit():
    ch = DepolarizingChannel(0.0, 99)
    assert not sample_error(ch, 1000, stream_id=0).any()


def test_sample_error_uniform_at_three_quarters():
    ch = DepolarizingChannel(0.75, 7)
    draws = sample_error(ch, 1_000_000, stream_id=0)
    counts = np.bincount(draws, minlength=4)
    # each symbol has p = 1/4; 3 sigma of Binomial(1e6, 1/4)
    sigma = math.sqrt(1_000_000 * 0.25 * 0.75)
    for c in counts:
        assert abs(c - 250_000) <= 3 * sigma


def test_sample_error_marginal_rate():
    ch = DepolarizingChannel(0.1, 7)
    draws = sample_error(ch, 1_000_000, stream_id=3)
    flips = int((draws != 0).sum())
    sigma = math.sqrt(1_000_000 * 0.1 * 0.9)  # binomial concentration
    assert abs(flips - 100_000) <= 3 * sigma


def test_sample_error_reproducible():
    ch = DepolarizingChannel(0.2, 1234)
    a = sample_error(ch, 4096, stream_id=17)
    b = sample_error(ch, 4096, stream_id=17)
    assert np.array_equal(a, b)
    c = sample_error(ch, 4096, stream_id=18)
    assert not np.array_equal(a, c)


def test_sample_error_regression_pin():
    # the sampled stream is part of the package's compatibility contract
    ch = DepolarizingChannel(0.2, 1234)
    head = sample_error(ch, 16, stream_id=0).tolist()
    assert head == [0, 0, 0, 0, 0, 1, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0]


def test_sample_error_streams_uncorrelated():
    ch = DepolarizingChannel(0.3, 55)
    a = (sample_error(ch, 100_000, stream_id=0) != 0).astype(float)
    b = (sample_error(ch, 100_000, stream_id=1) != 0).astype(float)
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 0.01


def test_sample_error_rejects_bad_n():
    with pytest.raises(ValueError):
        sample_error(DepolarizingChannel(0.1, 1), 0, stream_id=0)
