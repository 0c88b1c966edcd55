from __future__ import annotations

import itertools
import json
import logging
import math
import os
import sys
import threading
from dataclasses import astuple, replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qsagms import decoder, harness
from qsagms.channel import prior_llr, sample_error
from qsagms.code import SparseCheckMatrix, tanner_graph
from qsagms.decoder import DecoderConfig, GainParams, decode_batch
from qsagms.harness import (
    BATCH_FRAMES,
    MIN_BATCH,
    FerPoint,
    SweepConfig,
    _batch_size,
    _outcomes,
    _syndromes,
    _Tally,
    _write_text,
    canonical_json,
    config_digest,
    run_point,
    run_sweep,
    wilson_interval,
)
from qsagms.pauli import PAULI_Z

from .oracles import orbit_key, orbit_keys, stop_rule_counts


@pytest.fixture(autouse=True)
def no_thread_left_behind():
    """Fail a test that leaves a thread running it did not start with."""
    before = set(threading.enumerate())
    yield
    left = [t.name for t in threading.enumerate() if t not in before]
    assert left == [], f"threads left running: {left}"


def _pool_threads() -> list[str]:
    """Names of the live threads of any ``ThreadPoolExecutor``."""
    return [t.name for t in threading.enumerate() if t.name.startswith("ThreadPoolExecutor")]


def _wilson_oracle(failures: int, frames: int, z: float = 1.959964) -> tuple[float, float]:
    """Textbook form: endpoints solve (p - phat)^2 = z^2 p(1-p)/n."""
    phat = failures / frames
    a = 1 + z * z / frames
    b = -(2 * phat + z * z / frames)
    c = phat * phat
    roots = np.roots([a, b, c])
    lo, hi = sorted(float(r.real) for r in roots)
    return max(0.0, lo), min(1.0, hi)


def _sweep(code_id="toy", variant="ms", eps=(0.5,), seed=99, **kw):
    decoder_kw = {}
    if variant == "sms":
        decoder_kw["alpha"] = 0.5
    if variant == "sagms":
        decoder_kw["gain"] = GainParams(0.3, 0.5, 1.1)
    defaults = dict(
        code_id=code_id,
        decoder=DecoderConfig(variant, l_max=kw.pop("l_max", 4), **decoder_kw),
        epsilon_list=tuple(eps),
        seed=seed,
        target_failures=50,
        max_frames=100_000,
    )
    defaults.update(kw)
    return SweepConfig(**defaults)


# -- Wilson interval -------------------------------------------------------------


def test_wilson_examples():
    lo, hi = wilson_interval(500, 1_000_000)
    fer = 500 / 1_000_000
    rel_half = (hi - lo) / 2 / fer
    assert rel_half == pytest.approx(1.959964 / math.sqrt(500), rel=1e-2)
    assert rel_half <= 0.09
    assert wilson_interval(0, 100)[0] == 0.0
    assert wilson_interval(100, 100)[1] == 1.0


def test_wilson_matches_textbook_oracle():
    for failures, frames in [(500, 10**6), (1, 2), (0, 100), (100, 100), (7, 31)]:
        got = wilson_interval(failures, frames)
        want = _wilson_oracle(failures, frames)
        assert got[0] == pytest.approx(want[0], abs=1e-9)
        assert got[1] == pytest.approx(want[1], abs=1e-9)


@settings(max_examples=100)
@given(st.integers(1, 10_000).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n))))
def test_wilson_contains_point_estimate(args):
    frames, failures = args
    lo, hi = wilson_interval(failures, frames)
    assert 0.0 <= lo <= failures / frames <= hi <= 1.0


def test_wilson_width_shrinks_with_frames():
    widths = []
    for frames in (100, 1000, 10_000, 100_000):
        failures = frames // 10  # fixed ratio
        lo, hi = wilson_interval(failures, frames)
        widths.append(hi - lo)
    assert all(a > b for a, b in zip(widths, widths[1:]))


def test_wilson_rejects_bad_counts():
    with pytest.raises(ValueError):
        wilson_interval(1, 0)
    with pytest.raises(ValueError):
        wilson_interval(5, 4)


# -- canonical JSON and digests ----------------------------------------------------


def test_canonical_json_is_deterministic_and_17g():
    obj = {"b": 0.1, "a": [1, 2.5, None, True], "c": {"y": "s", "x": 2}}
    text = canonical_json(obj)
    assert text == canonical_json(json.loads(text))
    assert '"a"' in text and text.index('"a"') < text.index('"b"')
    assert "0.10000000000000001" in text  # 17 significant digits


def test_config_digest_ignores_workers():
    a = _sweep(workers=1)
    b = _sweep(workers=8)
    assert config_digest(a) == config_digest(b)
    c = _sweep(seed=100)
    assert config_digest(a) != config_digest(c)


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        _sweep(eps=())
    with pytest.raises(ValueError):
        _sweep(eps=(1.5,))
    with pytest.raises(ValueError):
        _sweep(target_failures=0)
    with pytest.raises(ValueError):
        _sweep(epsilon0_mode="fixed")  # epsilon0 missing
    for eps0 in (0.0, 1.0, 1.5, float("nan")):
        with pytest.raises(ValueError):
            _sweep(epsilon0_mode="fixed", epsilon0=eps0)
    with pytest.raises(ValueError):
        _sweep(epsilon0_mode="adaptive")
    # matched mode ignores epsilon0, which the digest would still hash
    for mode in ({}, {"epsilon0_mode": "matched"}):
        with pytest.raises(ValueError):
            _sweep(epsilon0=0.1, **mode)
    # the seed is one 64-bit Philox key word: -1 would draw the frames of
    # 2**64 - 1, and 2**64 + 7 those of 7, under other digests
    for seed in (-1, 2**64, 2**64 + 7):
        with pytest.raises(ValueError, match="seed"):
            _sweep(seed=seed)
    _sweep(seed=0)
    _sweep(seed=2**64 - 1)


def test_sweep_config_rejects_a_decoding_rate_whose_prior_overflows():
    # below about 1.67e-308 the prior LLR is +inf: the decoder would see it
    with pytest.raises(ValueError, match="overflows"):
        _sweep(epsilon0_mode="fixed", epsilon0=1e-310)
    with pytest.raises(ValueError, match="overflows"):
        _sweep(eps=(0.05, 1e-310))  # matched mode decodes at each true rate
    # in fixed mode a true rate only drives the channel, which needs no LLR
    _sweep(eps=(1e-310,), epsilon0_mode="fixed", epsilon0=0.1)


@pytest.mark.parametrize("value", [1.5, 2.0, True, "3"])
@pytest.mark.parametrize("field", ["seed", "target_failures", "max_frames", "workers"])
def test_sweep_config_integer_fields_must_be_ints(field, value):
    # a float seed would draw the frames of its truncation under another
    # digest, and a float target the frames of its ceiling
    with pytest.raises(ValueError, match=field):
        _sweep(**{field: value})


# -- run_point ----------------------------------------------------------------------


def test_run_point_toy_high_noise_regression(toy_code, toy_graph):
    # seed-pinned fixture: high noise, one iteration, min-sum
    cfg = _sweep(variant="ms", l_max=1, target_failures=50, seed=2718)
    point = run_point(toy_code, toy_graph, cfg, epsilon=0.5)
    assert point.failures == 50
    assert not point.cap_hit
    assert point.fer > 0.5
    assert point.wilson_low <= point.fer <= point.wilson_high
    # frozen outcome for this exact configuration
    assert (point.frames, point.failures) == (56, 50)
    assert point.mean_iterations == 1.0


def test_run_point_stops_on_first_failure(toy_code, toy_graph):
    cfg = _sweep(variant="ms", l_max=1, target_failures=1, seed=2718)
    point = run_point(toy_code, toy_graph, cfg, epsilon=0.5)
    assert point.failures == 1
    assert point.frames >= 1
    # every frame before the stopping frame succeeded
    assert point.fer == 1.0 / point.frames


def test_run_point_zero_failures_at_cap(small_code, small_graph):
    cfg = _sweep(variant="ms", l_max=8, target_failures=500, max_frames=64, seed=5)
    point = run_point(small_code, small_graph, cfg, epsilon=0.001)
    assert point.frames == 64
    assert point.cap_hit
    assert point.fer == point.wilson_low == 0.0
    assert point.wilson_high > 0.0  # one-sided upper bound stays informative


@pytest.mark.parametrize("workers", [1, 2], ids=["1w", "2w"])
@pytest.mark.parametrize(
    "batch_frames, min_batch",
    [(BATCH_FRAMES, MIN_BATCH), (7, 1), (64, 3)],
    ids=["default", "batch7-min1", "batch64-min3"],
)
def test_run_point_worker_count_independent(
    small_code, small_graph, monkeypatch, batch_frames, min_batch, workers
):
    cfg = _sweep(variant="sagms", l_max=4, target_failures=40, seed=31, workers=1)
    want = run_point(small_code, small_graph, cfg, epsilon=0.25)
    monkeypatch.setattr(harness, "BATCH_FRAMES", batch_frames)
    monkeypatch.setattr(harness, "MIN_BATCH", min_batch)
    got = run_point(small_code, small_graph, replace(cfg, workers=workers), epsilon=0.25)
    assert got == want  # bit-identical dataclasses


# -- batch sizes ----------------------------------------------------------------------


BATCH_SIZE_CASES = [
    (100_000, 0, 0, MIN_BATCH),  # first batch
    (100_000, 512, 0, BATCH_FRAMES),  # no failure yet
    (100_000, 1000, 30, 667),  # to the predicted stop, ceil(1000 * 50 / 30)
    (100_000, 512, 49, MIN_BATCH),  # predicted stop 523 is too close
    (100_000, 4000, 49, MIN_BATCH),  # predicted stop 4082 is too close
    (100_000, 512, 1, BATCH_FRAMES),  # predicted stop 25,600 is too far
    (100, 0, 0, 100),  # the frame cap
    (1000, 512, 0, 488),
    (1000, 512, 20, 488),
]


# ids read max_frames-start-frames-failures-size, where the batch starts at frames
@pytest.mark.parametrize(
    "max_frames, frames, failures, size",
    BATCH_SIZE_CASES,
    ids=[f"{m}-{f}-{f}-{k}-{s}" for m, f, k, s in BATCH_SIZE_CASES],
)
def test_batch_size_rule(max_frames, frames, failures, size):
    cfg = _sweep(target_failures=50, max_frames=max_frames)
    assert _batch_size(cfg, _Tally(frames, failures)) == size


def _batch_rows(monkeypatch) -> tuple[list[int], list[int]]:
    """Record, for every batch, the frames it samples (the ``count`` reaching
    ``_syndromes``, its last argument), and the rows each
    ``decode_batch`` call sees."""
    sampled, decoded = [], []

    def sampling(*args):
        sampled.append(args[-1])
        return _syndromes(*args)

    def decoding(graph, syndromes, *args):
        decoded.append(len(syndromes))
        return decode_batch(graph, syndromes, *args)

    monkeypatch.setattr(harness, "_syndromes", sampling)
    monkeypatch.setattr(harness, "decode_batch", decoding)
    return sampled, decoded


def _scored(monkeypatch) -> list[tuple]:
    """Record the (fails, iterations, decoded) that ``_outcomes`` returns for
    every batch, the batch whole, before ``run_point`` cuts it."""
    scored = []

    def scoring(*args):
        scored.append(_outcomes(*args))
        return scored[-1]

    monkeypatch.setattr(harness, "_outcomes", scoring)
    return scored


def test_converging_point_decodes_one_small_batch(toy_code, toy_graph, monkeypatch):
    sampled, decoded = _batch_rows(monkeypatch)
    cfg = _sweep(variant="ms", l_max=1, target_failures=50, seed=2718)
    point = run_point(toy_code, toy_graph, cfg, epsilon=0.5)
    assert point.frames == 56  # as in the high-noise regression above
    assert sampled == [MIN_BATCH]
    assert len(decoded) == 1 and decoded[0] <= MIN_BATCH


def test_capped_point_decodes_only_its_frames(small_code, small_graph, monkeypatch):
    sampled, decoded = _batch_rows(monkeypatch)
    cfg = _sweep(variant="ms", l_max=8, target_failures=500, max_frames=100, seed=5)
    point = run_point(small_code, small_graph, cfg, epsilon=0.001)
    assert point.frames == 100
    assert sampled == [100]
    assert len(decoded) == 1 and decoded[0] <= 100


# -- the batch plan and the pool -------------------------------------------------------


def _converging_sweep(**kw):
    """sagms at eps 0.03 on the [[10,2]] code, to 100 failures: it stops at
    frame 4122, inside its last batch."""
    return _sweep(
        variant="sagms", l_max=4, eps=(0.03,), seed=31, target_failures=100, **kw
    )


#: Every (frames, size) that ``_batch_size`` returned at 1 worker, in call
#: order, recorded before the 1-worker and the N-worker paths shared one
#: scheduling loop.  Every worker count now schedules this plan.
BATCH_PLANS = {
    ("memo", 1): [(0, 512), (512, 2488)],
    ("converging", 1): [(0, 512), (512, 3146), (3658, 750)],
}


@pytest.mark.parametrize("workers", [1, 2, 3], ids=["1w", "2w", "3w"])
@pytest.mark.parametrize("point", ["memo", "converging"])
def test_batch_plan_pins(small_code, small_graph, monkeypatch, point, workers):
    monkeypatch.setattr(harness, "_usable_cpus", lambda: workers)  # N threads on any host
    plan = []

    def recording(cfg, tally):
        size = _batch_size(cfg, tally)
        plan.append((tally.frames, size))
        return size

    monkeypatch.setattr(harness, "_batch_size", recording)
    make, eps = {"memo": (_memo_sweep, 0.1), "converging": (_converging_sweep, 0.03)}[point]
    got = run_point(small_code, small_graph, make(workers=workers), epsilon=eps)
    assert (got.frames, got.failures) == {"memo": (3000, 621), "converging": (4122, 100)}[point]
    assert plan == BATCH_PLANS[point, 1]


@pytest.mark.parametrize("parts, total", [(1, 5), (2, 5), (3, 2), (2, 0), (3, 4096)])
def test_spread_makes_ordered_non_empty_ranges(parts, total):
    ranges = harness._spread(None, parts, lambda part: (part.start, part.stop), total)
    assert len(ranges) == min(parts, total)  # no call at all for no rows
    assert all(lo < hi for lo, hi in ranges)
    assert [hi for _, hi in ranges[:-1]] == [lo for lo, _ in ranges[1:]]  # contiguous
    assert ranges == [] or (ranges[0][0], ranges[-1][1]) == (0, total)
    dealt = harness._spread(None, parts, lambda part: list(range(total)[part]), total, dealt=True)
    assert dealt == [list(range(k, total, len(ranges))) for k in range(len(ranges))]


@pytest.mark.parametrize("point", ["memo", "converging"])
def test_two_workers_deal_the_rows_to_decode(small_code, small_graph, monkeypatch, point):
    # later memo keys carry more decoder work, so each of 2 workers takes
    # every other row of the one call a batch makes at 1 worker, not a half
    make, eps = {"memo": (_memo_sweep, 0.1), "converging": (_converging_sweep, 0.03)}[point]
    batches = []

    def scoring(*args):
        batches.append([])  # the rows of each decode_batch call of this batch
        return _outcomes(*args)

    def decoding(graph, syndromes, *args):
        batches[-1].append(syndromes)
        return decode_batch(graph, syndromes, *args)

    monkeypatch.setattr(harness, "_outcomes", scoring)
    monkeypatch.setattr(harness, "decode_batch", decoding)
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)  # two threads on any host
    run_point(small_code, small_graph, make(workers=1), epsilon=eps)
    one = batches[:]
    batches.clear()
    run_point(small_code, small_graph, make(workers=2), epsilon=eps)
    assert len(batches) == len(one) >= 2
    for (rows,), parts in zip(one, batches):
        assert len(rows) >= 2
        want = sorted([rows[0::2].tobytes(), rows[1::2].tobytes()])
        assert sorted(part.tobytes() for part in parts) == want


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_tally_matches_the_frame_by_frame_stop_rule(data):
    target = data.draw(st.integers(1, 12), label="target_failures")
    max_frames = data.draw(st.integers(1, 80), label="max_frames")
    cap = data.draw(st.integers(1, 30), label="batch cap")
    cfg = _sweep(target_failures=target, max_frames=max_frames)
    tally, batches = _Tally(), []
    while tally.frames < max_frames and tally.failures < target:
        size = data.draw(st.integers(1, min(cap, max_frames - tally.frames)), label="size")
        fails = data.draw(st.lists(st.booleans(), min_size=size, max_size=size))
        iters = data.draw(st.lists(st.integers(0, 8), min_size=size, max_size=size))
        batch = (np.array(fails), np.array(iters, dtype=np.int64), data.draw(st.integers(0, size)))
        batches.append(batch)
        tally = tally.add(cfg, *batch)
    assert astuple(tally) == stop_rule_counts(target, max_frames, batches)


def test_no_worker_outlives_an_early_stop(small_code, small_graph):
    point = run_point(small_code, small_graph, _converging_sweep(workers=2), epsilon=0.03)
    assert point.frames < sum(BATCH_PLANS["converging", 1][-1])  # it stopped early
    assert _pool_threads() == []


@pytest.mark.parametrize("workers", [1, 2], ids=["1w", "2w"])
def test_batches_end_at_the_stopping_frame(small_code, small_graph, monkeypatch, workers):
    sampled, _ = _batch_rows(monkeypatch)
    scored = _scored(monkeypatch)
    point = run_point(small_code, small_graph, _converging_sweep(workers=workers), epsilon=0.03)
    fails = np.concatenate([f for f, _, _ in scored])
    iters = np.concatenate([i for _, i, _ in scored])
    assert (point.frames, point.failures) == (4122, 100)
    assert int(fails[:4122].sum()) == 100
    assert fails[4121]  # the 100th failure is the last frame counted
    assert len(iters) == len(fails)
    assert point.mean_iterations == int(iters[:4122].sum()) / 4122
    # every batch is sampled whole, the last past frame 4122, at any worker count
    assert sum(sampled) == len(fails) == 4408
    assert _pool_threads() == []


def test_pool_starts_at_most_one_thread_per_usable_cpu(
    small_code, small_graph, monkeypatch
):
    started = []

    class RecordingPool(harness.ThreadPoolExecutor):
        def __init__(self, max_workers=None, **kw):
            started.append(max_workers)
            super().__init__(max_workers, **kw)

    cfg = _sweep(variant="sagms", l_max=4, target_failures=40, seed=31, workers=1)
    want = run_point(small_code, small_graph, cfg, epsilon=0.25)
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(harness, "ThreadPoolExecutor", RecordingPool)
    got = run_point(small_code, small_graph, replace(cfg, workers=3), epsilon=0.25)
    assert started == [2]
    assert got == want


def test_one_usable_cpu_starts_no_pool(small_code, small_graph, monkeypatch):
    def no_pool(*args, **kw):
        raise AssertionError("a pool of one thread")

    cfg = _sweep(variant="sagms", l_max=4, target_failures=40, seed=31, workers=1)
    want = run_point(small_code, small_graph, cfg, epsilon=0.25)
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 1)
    monkeypatch.setattr(harness, "ThreadPoolExecutor", no_pool)
    got = run_point(small_code, small_graph, replace(cfg, workers=3), epsilon=0.25)
    assert got == want


def test_worker_error_reaches_caller_and_no_worker_outlives_it():
    H = SparseCheckMatrix(n=3, rows=[[(0, PAULI_Z), (1, PAULI_Z)], [(1, PAULI_Z)]])
    cfg = _sweep(variant="ms", l_max=2, eps=(0.1,), workers=2)
    with pytest.raises(ValueError, match="isolated"):
        run_point(H, tanner_graph(H), cfg, epsilon=0.1)
    assert _pool_threads() == []


# -- the per-point syndrome memo ---------------------------------------------------------


def _memo_sweep(**kw):
    """sagms at eps 0.1 on the [[10,2]] code, capped at 3000 frames: batches
    (512 + 2488 at 1 worker) with failures, repeated syndromes and memo hits
    across the batches."""
    return _sweep(
        variant="sagms", l_max=4, eps=(0.1,), seed=31,
        target_failures=10**6, max_frames=3000, **kw,
    )


def _memo_keys(graph, rows) -> set:
    """The memo keys of syndrome ``rows``: orbits on a graph with ``ell``,
    else the distinct syndromes."""
    return {orbit_key(row, graph.ell) if graph.ell else tuple(row.tolist()) for row in rows}


@pytest.mark.parametrize("workers", [1, 2], ids=["1w", "2w"])
def test_memoized_frames_match_plain_decode(
    small_code, small_graph, monkeypatch, caplog, workers
):
    cfg = _memo_sweep(workers=workers)
    keys = {}
    # the memo is keyed by orbit on the GB graph, by packed syndrome without ell
    for graph, kind in [(small_graph, "orbits"), (replace(small_graph, ell=None), "distinct")]:
        sampled, _ = _batch_rows(monkeypatch)
        scored = _scored(monkeypatch)
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="qsagms.harness"):
            point = run_point(small_code, graph, cfg, epsilon=0.1)
        sizes = [len(f) for f, _, _ in scored]
        assert len(sizes) >= 2
        assert sampled == sizes and sum(sizes) == point.frames  # a capped point cuts no batch
        fails = np.concatenate([f for f, _, _ in scored])
        iters = np.concatenate([i for _, i, _ in scored])
        decoded = sum(d for _, _, d in scored)

        syndromes = graph.syndromes(sample_error(0.1, cfg.seed, graph.n, 0, count=3000))
        plain = decode_batch(graph, syndromes, prior_llr(0.1), cfg.decoder)
        assert np.array_equal(fails, ~plain.success)
        assert np.array_equal(iters, plain.iterations)
        assert fails.dtype == bool and 0 < fails.sum() < len(fails)
        keys[kind] = len(_memo_keys(graph, syndromes))
        assert decoded == keys[kind]  # one memo: each key decoded once
        bounds = np.cumsum([0] + sizes)
        per_batch = [_memo_keys(graph, syndromes[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
        assert decoded < sum(map(len, per_batch))  # later batches hit keys earlier ones decoded
        ends = [r.getMessage() for r in caplog.records if r.getMessage().startswith("point ")]
        assert len(ends) == 1 and f"decoded {decoded} {kind} of 3000" in ends[0]
    assert keys["orbits"] < keys["distinct"]


def test_memo_cap_does_not_change_points(small_code, small_graph, monkeypatch):
    _, decoded = _batch_rows(monkeypatch)
    cfg = _memo_sweep()
    want = run_point(small_code, small_graph, cfg, epsilon=0.1)
    rows = [sum(decoded)]
    for entries in (5, 1, 0):
        monkeypatch.setattr(harness, "MEMO_ENTRIES", entries)
        decoded.clear()
        assert run_point(small_code, small_graph, cfg, epsilon=0.1) == want
        rows.append(sum(decoded))
    assert rows[0] < rows[-1]  # a smaller memo decodes more rows, to the same point


@pytest.mark.parametrize("workers", [2, 4], ids=["2w", "4w"])
def test_shared_memo_stays_within_its_bound(small_code, small_graph, monkeypatch, workers):
    # small batches, more threads than this host may have cores and a short
    # switch interval: the pool's threads sample and decode, but only the
    # calling thread stores, so the memo stops at MEMO_ENTRIES exactly
    want = run_point(small_code, small_graph, _memo_sweep(), epsilon=0.1)
    sizes = []

    def recording(*args):
        result = _outcomes(*args)
        sizes.append(len(args[3]))  # the point's memo, after this batch
        return result

    for name, value in [("MEMO_ENTRIES", 5), ("BATCH_FRAMES", 64), ("MIN_BATCH", 8)]:
        monkeypatch.setattr(harness, name, value)
    monkeypatch.setattr(harness, "_usable_cpus", lambda: workers)
    monkeypatch.setattr(harness, "_outcomes", recording)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = run_point(small_code, small_graph, _memo_sweep(workers=workers), epsilon=0.1)
    finally:
        sys.setswitchinterval(interval)
    assert got == want
    assert len(sizes) >= 3000 // 64
    assert max(sizes) == 5


def test_memo_past_its_cap_stops_growing(small_graph, monkeypatch):
    # a memo above MEMO_ENTRIES (here filled before the cap was lowered)
    # must store nothing more rather than wrap the room negative
    monkeypatch.setattr(harness, "MEMO_ENTRIES", 5)
    cfg = _memo_sweep()
    memo = {f"filler {i}": 0 for i in range(7)}
    spread = partial(harness._spread, None, 1)
    syndromes = _syndromes(small_graph, 0.1, cfg.seed, spread, 0, 512)
    prior = prior_llr(0.1)
    fails, _, decoded = _outcomes(small_graph, cfg.decoder, prior, memo, spread, syndromes)
    assert decoded > 2 and fails.any()
    assert list(memo) == [f"filler {i}" for i in range(7)]


def test_memo_lives_for_one_point(small_code, small_graph, monkeypatch, caplog):
    _, decoded = _batch_rows(monkeypatch)
    cfg = _memo_sweep()
    with caplog.at_level(logging.INFO, logger="qsagms.harness"):
        first = run_point(small_code, small_graph, cfg, epsilon=0.1)
        rows = sum(decoded)
        again = run_point(small_code, small_graph, cfg, epsilon=0.1)
    assert again == first
    assert sum(decoded) == 2 * rows  # the second point hit no memo of the first
    ends = [r.getMessage() for r in caplog.records if r.getMessage().startswith("point ")]
    assert len(ends) == 2
    assert all(f"decoded {rows} orbits of 3000" in line for line in ends)


@pytest.mark.parametrize("point", ["memo", "converging"])
def test_memo_and_point_line_do_not_depend_on_workers(
    small_code, small_graph, monkeypatch, caplog, point
):
    make, eps = {"memo": (_memo_sweep, 0.1), "converging": (_converging_sweep, 0.03)}[point]
    memos, lines = [], []

    def recording(*args):
        if not memos or memos[-1] is not args[3]:
            memos.append(args[3])  # the point's memo, filled as its batches run
        return _outcomes(*args)

    monkeypatch.setattr(harness, "_outcomes", recording)
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)  # two threads on any host
    for workers in (1, 2):
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="qsagms.harness"):
            run_point(small_code, small_graph, make(workers=workers), epsilon=eps)
        lines += [r.getMessage() for r in caplog.records if r.getMessage().startswith("point ")]
    assert len(memos) == 2 and len(memos[0]) > 0
    assert list(memos[1].items()) == list(memos[0].items())  # same keys, same order
    assert len(lines) == 2 and lines[0] == lines[1] and " orbits of " in lines[0]


@st.composite
def syndrome_rows(draw):
    """(ell, rows): syndromes of a graph on ell, periodic in each half with a
    period that divides ell, so that short orbits and equal rows occur.  An
    ell above 64 spans more than one uint64 word of key per half."""
    ell = draw(st.sampled_from([3, 5, 63, 64, 65, 127]))
    period = draw(st.sampled_from([d for d in range(1, ell + 1) if ell % d == 0]))
    bits = st.lists(st.integers(0, 1), min_size=2 * period, max_size=2 * period)
    patterns = draw(st.lists(bits, min_size=1, max_size=6))
    rows = [np.tile(np.reshape(p, (2, period)), ell // period).ravel() for p in patterns]
    return ell, np.array(rows, dtype=np.uint8)


@settings(max_examples=120, deadline=None)
@given(syndrome_rows())
def test_orbit_keys_match_brute_force_oracle(args):
    ell, rows = args
    halves = rows.reshape(len(rows), 2, ell)
    rotations = np.stack([np.roll(halves, t, axis=2) for t in range(ell)], axis=1)
    keys = np.array(harness._orbit_keys(rotations.reshape(-1, 2 * ell), ell).tolist())
    keys = keys.reshape(len(rows), ell)
    assert (keys == keys[:, :1]).all()  # the same key at every joint rotation
    want = [orbit_key(row, ell) for row in rows]
    for a, b in itertools.product(range(len(rows)), repeat=2):
        assert (keys[a, 0] == keys[b, 0]) == (want[a] == want[b])


@pytest.mark.parametrize("ell", [3, 63, 64, 65, 127, 128])
def test_chunked_orbit_keys_match_one_rotation_at_a_time(ell):
    # all rotations of a chunk of rows at once, against the per-rotation form;
    # the row counts end each call in a partial chunk
    chunk = harness._ORBIT_CHUNK_WORDS // (2 * -(-ell // 64) * ell)
    rng = np.random.default_rng(ell)
    for rows in (1, 7, chunk - 1, chunk + 1, 2 * chunk + 5):
        for syndromes in (
            np.zeros((rows, 2 * ell), dtype=np.uint8),
            np.ones((rows, 2 * ell), dtype=np.uint8),
            rng.integers(0, 2, size=(rows, 2 * ell), dtype=np.uint8),
            (rng.random((rows, 2 * ell)) < 0.03).astype(np.uint8),
        ):
            got, want = harness._orbit_keys(syndromes, ell), orbit_keys(syndromes, ell)
            assert got.shape == want.shape == (rows,) and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
    assert harness._orbit_keys(np.zeros((0, 2 * ell), dtype=np.uint8), ell).shape == (0,)


@pytest.mark.parametrize("workers", [1, 2], ids=["1w", "2w"])
def test_orbit_memo_does_not_change_points(gb126_code, gb126_graph, monkeypatch, workers):
    # at eps 0.01 most frames of [[126,28]] carry weight-2 errors, whose
    # syndromes share orbits
    _, decoded = _batch_rows(monkeypatch)
    cfg = _sweep(
        code_id="gb-126-28", variant="sagms", l_max=8, eps=(0.01,), seed=4,
        target_failures=10**6, max_frames=4096, workers=workers,
    )
    got = run_point(gb126_code, gb126_graph, cfg, epsilon=0.01)
    orbit_rows = sum(decoded)
    # no memo, and without ell no orbits: each batch decodes its distinct syndromes
    monkeypatch.setattr(harness, "MEMO_ENTRIES", 0)
    decoded.clear()
    plain = replace(gb126_graph, ell=None)
    want = run_point(gb126_code, plain, replace(cfg, workers=1), epsilon=0.01)
    assert got == want
    assert orbit_rows < 0.8 * sum(decoded)


# -- decode slabs -------------------------------------------------------------------


@pytest.mark.parametrize("workers", [1, 2], ids=["1w", "2w"])
@pytest.mark.parametrize("point", ["memo", "converging"])
def test_slabs_do_not_change_points(small_code, small_graph, monkeypatch, point, workers):
    make, eps = {"memo": (_memo_sweep, 0.1), "converging": (_converging_sweep, 0.03)}[point]
    cfg = make(workers=workers)
    want = run_point(small_code, small_graph, cfg, epsilon=eps)
    sampled, decoded = _batch_rows(monkeypatch)
    monkeypatch.setattr(decoder, "SLAB_ROWS", 7)
    monkeypatch.setattr(harness, "_usable_cpus", lambda: workers)
    assert run_point(small_code, small_graph, cfg, epsilon=eps) == want
    # one decode_batch call per worker and batch, each on a non-empty part
    assert len(decoded) == workers * len(sampled) and min(decoded) > 0


def test_run_point_matched_vs_fixed_prior(small_code, small_graph):
    matched = _sweep(variant="ms", l_max=4, target_failures=30, seed=8)
    fixed = _sweep(
        variant="ms", l_max=4, target_failures=30, seed=8,
        epsilon0_mode="fixed", epsilon0=0.1,
    )
    pm = run_point(small_code, small_graph, matched, epsilon=0.2)
    pf = run_point(small_code, small_graph, fixed, epsilon=0.2)
    assert pm.epsilon0 == 0.2
    assert pf.epsilon0 == 0.1
    assert pm != pf


# -- run_sweep ------------------------------------------------------------------------


def test_run_sweep_persists_and_resumes(tmp_path, small_code, small_graph):
    cfg = _sweep(
        variant="ms", l_max=4, eps=(0.3, 0.2), target_failures=25, seed=77
    )
    out = tmp_path / "sweep"
    first = run_sweep(small_code, small_graph, cfg, out_dir=out)
    assert len(first) == 2

    results = json.loads((out / "results.json").read_text())
    assert len(results) == 2
    assert results[0]["version"]
    assert results[0]["config"]["seed"] == 77
    assert "workers" not in results[0]["config"]

    tsv = (out / "fer.tsv").read_text().strip().split("\n")
    eps_col = [float(line.split("\t")[0]) for line in tsv]
    assert eps_col == sorted(eps_col)  # ascending regardless of run order

    point_files = sorted((out / "points").glob("*.json"))
    assert len(point_files) == 2

    # delete one point; rerun recomputes only that point, identically
    point_files[0].unlink()
    keep_bytes = point_files[1].read_bytes()
    second = run_sweep(small_code, small_graph, cfg, out_dir=out)
    assert second == first
    assert point_files[1].read_bytes() == keep_bytes


def test_run_sweep_reruns_are_byte_identical(tmp_path, small_code, small_graph):
    cfg = _sweep(variant="sms", l_max=4, eps=(0.25,), target_failures=20, seed=13)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_sweep(small_code, small_graph, cfg, out_dir=out1)
    run_sweep(small_code, small_graph, cfg, out_dir=out2)
    assert (out1 / "results.json").read_bytes() == (out2 / "results.json").read_bytes()
    assert (out1 / "fer.tsv").read_bytes() == (out2 / "fer.tsv").read_bytes()


def test_run_sweep_refuses_a_corrupted_point_file(tmp_path, small_code, small_graph):
    cfg = _sweep(variant="ms", l_max=4, eps=(0.3,), target_failures=25, seed=77)
    out = tmp_path / "sweep"
    run_sweep(small_code, small_graph, cfg, out_dir=out)
    (pfile,) = (out / "points").glob("*.json")
    truncated = pfile.read_bytes()[:40]
    pfile.write_bytes(truncated)
    with pytest.raises(OSError) as err:
        run_sweep(small_code, small_graph, cfg, out_dir=out)
    assert str(err.value).startswith(f"unreadable point file {pfile}: ")
    assert pfile.read_bytes() == truncated


def test_run_sweep_recomputes_a_point_of_another_digest(tmp_path, small_code, small_graph):
    cfg = _sweep(variant="ms", l_max=4, eps=(0.3,), target_failures=25, seed=77)
    out = tmp_path / "sweep"
    first = run_sweep(small_code, small_graph, cfg, out_dir=out)
    (pfile,) = (out / "points").glob("*.json")
    good = pfile.read_bytes()
    payload = json.loads(good)
    payload["point"]["config_digest"] = "0" * 64
    pfile.write_text(canonical_json(payload) + "\n")
    assert run_sweep(small_code, small_graph, cfg, out_dir=out) == first  # not loaded
    assert pfile.read_bytes() == good  # rewritten


def test_run_sweep_recomputes_a_point_of_other_numerics(tmp_path, small_code, small_graph):
    cfg = _sweep(variant="ms", l_max=4, eps=(0.3, 0.2), target_failures=25, seed=77)
    out = tmp_path / "sweep"
    first = run_sweep(small_code, small_graph, cfg, out_dir=out)
    results = (out / "results.json").read_bytes()
    pfile = sorted((out / "points").glob("*.json"))[0]
    good = pfile.read_bytes()
    assert json.loads(good)["numerics"] == harness.NUMERICS
    # a tagless file, one of other numerics, one of the pairwise slot sums
    # that came before the left-to-right ones, and one of the marginal
    # message taken per edge
    old = ("gb-slots-by-circulant-offset", "gb-slots-by-circulant-offset/slot-sums-left-to-right")
    for numerics in (None, "other", *old):
        payload = json.loads(good)
        payload["point"]["frames"] += 1  # what a stale file would claim
        if numerics is None:
            del payload["numerics"]
        else:
            payload["numerics"] = numerics
        pfile.write_text(canonical_json(payload) + "\n")
        assert run_sweep(small_code, small_graph, cfg, out_dir=out) == first  # not loaded
        assert pfile.read_bytes() == good  # rewritten
        assert (out / "results.json").read_bytes() == results


def test_interrupted_write_keeps_previous_file(tmp_path, monkeypatch):
    target = tmp_path / "point.json"
    _write_text(target, "old\n")

    def killed(src, dst):
        raise OSError("interrupted")

    monkeypatch.setattr(os, "replace", killed)
    with pytest.raises(OSError):
        _write_text(target, "new\n")
    assert target.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["point.json"]


def test_fer_point_fields_consistent(toy_code, toy_graph):
    cfg = _sweep(variant="ms", l_max=2, target_failures=10, seed=3)
    p = run_point(toy_code, toy_graph, cfg, epsilon=0.4)
    assert isinstance(p, FerPoint)
    assert p.fer == p.failures / p.frames
    assert p.config_digest == config_digest(cfg)
    assert p.seed == 3
    assert p.frames <= cfg.max_frames
