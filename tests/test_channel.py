from __future__ import annotations

import hashlib
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qsagms import channel
from qsagms.channel import _CHUNK_FRAMES, _thresholds, prior_llr, sample_error
from qsagms.pauli import PAULI_X, PAULI_Y, PAULI_Z


def _ln_hp(x: str) -> float:
    """High-precision natural log, rounded to float64."""
    with mpmath.workdps(50):
        return float(mpmath.log(mpmath.mpf(x)))


def test_prior_llr_examples():
    assert prior_llr(0.10) == pytest.approx(_ln_hp("27"), abs=1e-15)
    assert prior_llr(0.10) == pytest.approx(3.2958, abs=5e-4)
    assert prior_llr(0.75) == pytest.approx(0.0, abs=1e-15)
    assert prior_llr(0.01) == pytest.approx(_ln_hp("297"), abs=1e-15)
    assert prior_llr(0.01) == pytest.approx(5.6937, abs=5e-4)


def test_prior_llr_domain():
    for bad in (0.0, 1.0, -0.1, 1.5, float("nan")):
        with pytest.raises(ValueError):
            prior_llr(bad)
    # below about 1.67e-308, 3 (1 - e0) / e0 overflows and the LLR is +inf
    for tiny in (1e-310, 5e-324, 1.6e-308):
        with pytest.raises(ValueError, match="overflows"):
            prior_llr(tiny)
    assert type(prior_llr(1.7e-308)) is float
    assert math.isfinite(prior_llr(1.7e-308))


def test_prior_llr_strictly_decreasing():
    values = [prior_llr(e) for e in np.linspace(0.001, 0.999, 200)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_prior_sign_flips_at_three_quarters():
    assert prior_llr(0.74) > 0
    assert prior_llr(0.76) < 0


def test_channel_epsilon_range():
    assert sample_error(0.0, 1, 8, 0, count=1).shape == (1, 8)  # noiseless limit allowed
    for bad in (1.0, -0.1, float("nan")):
        with pytest.raises(ValueError, match="epsilon must lie in"):
            sample_error(bad, 1, 8, 0, count=1)


def test_channel_rejects_aliasing_seeds():
    # each is one 64-bit Philox key word; outside [0, 2**64) it would alias
    for seed in (-1, 2**64, 2**64 + 7):
        with pytest.raises(ValueError, match="rng_seed"):
            sample_error(0.1, seed, 8, 0, count=1)
    seed = 2**64 - 1
    for stream_id in (-1, 2**64):
        with pytest.raises(ValueError, match="stream_id"):
            sample_error(0.1, seed, 8, stream_id=stream_id, count=1)
    assert sample_error(0.1, seed, 8, stream_id=2**64 - 1, count=1).shape == (1, 8)
    # a batch of frames stream_id .. stream_id + count - 1 must not wrap
    for stream_id, count in ((2**64 - 3, 4), (2**64 - 1, 2), (0, 2**64 + 1), (2**64, 0)):
        with pytest.raises(ValueError, match="stream_id"):
            sample_error(0.1, seed, 8, stream_id, count=count)
    with pytest.raises(ValueError, match="count"):
        sample_error(0.1, seed, 8, 0, count=-1)
    assert sample_error(0.1, seed, 8, 2**64 - 3, count=3).shape == (3, 8)
    assert sample_error(0.1, seed, 8, 2**64 - 1, count=0).shape == (0, 8)
    assert sample_error(0.1, seed, 8, 5, count=0).shape == (0, 8)
    noiseless = sample_error(0.0, 3, 8, 2**64 - 9, count=9)
    assert noiseless.shape == (9, 8) and not noiseless.any()


@pytest.mark.parametrize(
    "args",
    [(float("nan"), 1, 8, 0, 1), (1.0, 1, 8, 0, 1), (0.1, 2**64, 8, 0, 1), (0.1, True, 8, 0, 1),
     (0.1, 1.0, 8, 0, 1), (0.1, 1, 0, 0, 1), (0.1, 1, 8, 2**64 - 1, 2), (0.1, 1, 8, 0, -1)],
    ids=["nan-rate", "rate-1", "seed-2**64", "bool-seed", "float-seed", "n-0", "wrapping-range",
         "negative-count"],
)
def test_sample_error_checks_before_philox(monkeypatch, args):
    def philox(*_):
        raise AssertionError("Philox ran on arguments that sample_error rejects")

    monkeypatch.setattr(channel, "_philox", philox)
    with pytest.raises(ValueError):
        sample_error(*args)


def test_sample_error_noiseless_limit():
    assert not sample_error(0.0, 99, 1000, stream_id=0, count=1).any()


def test_sample_error_uniform_at_three_quarters():
    draws = sample_error(0.75, 7, 1_000_000, stream_id=0, count=1)[0]
    counts = np.bincount(draws, minlength=4)
    # each symbol has p = 1/4; 3 sigma of Binomial(1e6, 1/4)
    sigma = math.sqrt(1_000_000 * 0.25 * 0.75)
    for c in counts:
        assert abs(c - 250_000) <= 3 * sigma


def test_sample_error_marginal_rate():
    draws = sample_error(0.1, 7, 1_000_000, stream_id=3, count=1)[0]
    flips = int((draws != 0).sum())
    sigma = math.sqrt(1_000_000 * 0.1 * 0.9)  # binomial concentration
    assert abs(flips - 100_000) <= 3 * sigma


def test_sample_error_reproducible():
    a = sample_error(0.2, 1234, 4096, stream_id=17, count=1)
    b = sample_error(0.2, 1234, 4096, stream_id=17, count=1)
    assert np.array_equal(a, b)
    c = sample_error(0.2, 1234, 4096, stream_id=18, count=1)
    assert not np.array_equal(a, c)


def test_sample_error_regression_pin():
    # the sampled stream is part of the package's compatibility contract
    head = sample_error(0.2, 1234, 16, stream_id=0, count=1)[0].tolist()
    assert head == [0, 0, 0, 0, 0, 1, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0]


def test_sample_error_streams_uncorrelated():
    a = (sample_error(0.3, 55, 100_000, stream_id=0, count=1)[0] != 0).astype(float)
    b = (sample_error(0.3, 55, 100_000, stream_id=1, count=1)[0] != 0).astype(float)
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 0.01


@pytest.mark.parametrize("value", [1.5, 1.0, True, "1"])
def test_seed_and_stream_id_must_be_ints(value):
    # each is truncated into a Philox key word: seed 1.5 would draw seed 1's frames
    with pytest.raises(ValueError, match="rng_seed"):
        sample_error(0.1, value, 8, 0, count=1)
    with pytest.raises(ValueError, match="stream_id"):
        sample_error(0.1, 1, 8, value, count=1)


@pytest.mark.parametrize(
    "name, kw",
    [("count", {"count": True}), ("count", {"count": 2.5}), ("count", {"count": 2.0}),
     ("n", {"n": 8.0}), ("n", {"n": True})],
)
def test_sample_error_counts_must_be_ints(name, kw):
    # a float or bool count or n would otherwise reach np.empty as a TypeError
    args = {"n": 8, "stream_id": 0, "count": 1, **kw}
    with pytest.raises(ValueError, match=f"{name} must be an int"):
        sample_error(0.1, 1, **args)


def test_sample_error_rejects_bad_n():
    with pytest.raises(ValueError):
        sample_error(0.1, 1, 0, stream_id=0, count=1)


#: SHA-256 of ``sample_error(..., count=4096)`` on n = 126, recorded from
#: the one-frame ``np.random.Generator`` loop that the batch call replaced.
BATCH_PINS = {
    (0.01, 20260810, 0): "97be4d30e79c466071b5cef0649595b086f3d52692a81a79d89b615f2c51d1d9",
    (0.05, 271828, 10**6): "9a74c6413c4dd175e8c04cec77b7eacb4fe606084be03fe00eed106cba0c0b2d",
    (0.3, 1, 2**40): "96402b326170146152a73651c9a1ed4e9aae36c64ca4084bbf3286259b01057f",
    (0.2, 2**64 - 1, 2**64 - 4096):
        "bececb8d0e4f0acba4044d864f77732df1ff1e9cf58a4087246ee47131c7f320",
}


@pytest.mark.parametrize("eps,seed,start", list(BATCH_PINS), ids=str)
def test_sample_error_batch_pins(eps, seed, start):
    errors = sample_error(eps, seed, 126, start, count=4096)
    assert errors.shape == (4096, 126) and errors.dtype == np.uint8
    assert hashlib.sha256(errors.tobytes()).hexdigest() == BATCH_PINS[eps, seed, start]


def _float_rule(eps: float, seed: int, n: int, stream_id: int) -> np.ndarray:
    """One frame from numpy's own Philox generator and the float inverse CDF."""
    key = np.array([seed, stream_id], dtype=np.uint64)
    u = np.random.Generator(np.random.Philox(key=key)).random(n)
    out = np.zeros(n, dtype=np.uint8)
    if eps == 0.0:
        return out
    t_x, t_y, t_z = 1.0 - eps, 1.0 - eps + eps / 3.0, 1.0 - eps / 3.0
    out[(u >= t_x) & (u < t_y)] = PAULI_X
    out[(u >= t_y) & (u < t_z)] = PAULI_Y
    out[u >= t_z] = PAULI_Z
    return out


@settings(max_examples=25, deadline=None)
@given(
    eps=st.sampled_from([0.0, 1e-9, 0.01, 0.75, 0.999]),
    seed=st.integers(0, 2**64 - 1),
    start=st.one_of(st.integers(0, 2**64 - 1), st.integers(2**32 - 600, 2**32 + 600)),
    n=st.sampled_from([1, 2, 3, 5, 126, 127]),
    count=st.sampled_from([0, 1, _CHUNK_FRAMES - 1, _CHUNK_FRAMES + 1]),
)
@example(eps=0.75, seed=2**64 - 1, start=2**32 - 3, n=5, count=_CHUNK_FRAMES + 1)
@example(eps=0.999, seed=0, start=2**64 - 1, n=127, count=1)
@example(eps=0.01, seed=2**63 + 5, start=2**64, n=126, count=_CHUNK_FRAMES - 1)
def test_batch_matches_one_frame_calls(eps, seed, start, n, count):
    start = min(start, 2**64 - count)  # the last frame is at most 2**64 - 1
    batch = sample_error(eps, seed, n, start, count=count)
    assert batch.shape == (count, n) and batch.dtype == np.uint8
    for row, frame in enumerate(range(start, start + count)):
        one = sample_error(eps, seed, n, frame, count=1)[0]
        assert one.shape == (n,)
        assert np.array_equal(batch[row], one)
        assert np.array_equal(one, _float_rule(eps, seed, n, frame))


#: Rates whose thresholds t * 2**53 are exact integers, rates at and beside
#: the rounding ties of 1 - eps near 2**-54, where t_y and t_z meet, and
#: random rates over [0, 1) and over twenty decades below 1e-2.
_THRESHOLD_EPS = (
    [2.0**-k for k in range(1, 54)] + [3 * 2.0**-k for k in range(2, 54)]
    + [math.nextafter(k * 2.0**-54, to) for k in range(1, 8) for to in (0.0, 1.0)]
    + [k * 2.0**-54 for k in range(1, 8)] + [0.0, 5e-324, 1e-300, 1e-9, 0.01, 0.75, 0.999]
    + np.random.default_rng(53).random(2000).tolist()
    + (10.0 ** np.random.default_rng(54).uniform(-22, -2, 2000)).tolist()
)


def test_integer_thresholds_match_float_comparison():
    for eps in _THRESHOLD_EPS:
        # u = m * 2**-53 for the 53-bit draw m: u >= t must equal m >= T
        floats = (1.0 - eps, 1.0 - eps + eps / 3.0, 1.0 - eps / 3.0)
        assert floats[0] <= floats[1] <= floats[2]  # ordered, as the rank count needs
        for t, threshold in zip(floats, _thresholds(eps)):
            assert 0 <= threshold <= 2**53
            for m in (threshold - 1, threshold, threshold + 1):
                if 0 <= m < 2**53:
                    assert (m * 2.0**-53 >= t) == (m >= threshold), (eps, t, m)
