from __future__ import annotations

import json
import math
import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qsagms import harness
from qsagms.decoder import DecoderConfig, GainParams, decode_batch
from qsagms.harness import (
    BATCH_FRAMES,
    MIN_BATCH,
    FerPoint,
    SweepConfig,
    _batch_size,
    _write_text,
    canonical_json,
    config_digest,
    run_point,
    run_sweep,
    wilson_interval,
)


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


@pytest.mark.parametrize(
    "max_frames, start, frames, failures, size",
    [
        (100_000, 0, 0, 0, MIN_BATCH),  # first batch
        (100_000, 512, 512, 0, BATCH_FRAMES),  # no failure yet
        (100_000, 1000, 1000, 30, 667),  # to the predicted stop, ceil(1000 * 50 / 30)
        (100_000, 512, 512, 49, MIN_BATCH),  # predicted stop 523 is too close
        (100_000, 2048, 512, 20, MIN_BATCH),  # a batch in flight passed it already
        (100_000, 512, 512, 1, BATCH_FRAMES),  # predicted stop 25,600 is too far
        (100, 0, 0, 0, 100),  # the frame cap
        (1000, 512, 512, 0, 488),
        (1000, 512, 512, 20, 488),
    ],
)
def test_batch_size_rule(max_frames, start, frames, failures, size):
    cfg = _sweep(target_failures=50, max_frames=max_frames)
    assert _batch_size(cfg, start, frames, failures) == size


def _decoded_batches(monkeypatch) -> list[int]:
    """Record the frame count of every batch the harness decodes in-process."""
    sizes = []

    def counting(graph, syndromes, *args):
        sizes.append(len(syndromes))
        return decode_batch(graph, syndromes, *args)

    monkeypatch.setattr(harness, "decode_batch", counting)
    return sizes


def test_converging_point_decodes_one_small_batch(toy_code, toy_graph, monkeypatch):
    sizes = _decoded_batches(monkeypatch)
    cfg = _sweep(variant="ms", l_max=1, target_failures=50, seed=2718)
    point = run_point(toy_code, toy_graph, cfg, epsilon=0.5)
    assert point.frames == 56  # as in the high-noise regression above
    assert sizes == [MIN_BATCH]


def test_capped_point_decodes_only_its_frames(small_code, small_graph, monkeypatch):
    sizes = _decoded_batches(monkeypatch)
    cfg = _sweep(variant="ms", l_max=8, target_failures=500, max_frames=100, seed=5)
    point = run_point(small_code, small_graph, cfg, epsilon=0.001)
    assert point.frames == 100
    assert sizes == [100]


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
