"""Monte Carlo frame-error-rate estimation with a deterministic stop rule.

Frames are numbered 0, 1, 2, ...; frame f draws its error pattern from the
channel stream keyed by (master seed, f), so the sequence of frames is a
pure function of the configuration.  A noise point stops at the smallest
frame index at which the cumulative failure count reaches the target (or at
the frame cap), and every started frame up to that index is counted exactly
once.  Workers decode disjoint, contiguous frame batches and the
coordinator consumes batch results in frame order, discarding speculative
batches beyond the stopping frame, so the resulting estimate is
bit-identical for any worker count.  Each batch is sized from the stop
rule: it ends where the failure rate seen so far predicts the target, so a
converging point decodes few frames past its stopping frame.

Failure means the decoder did not reach an all-zero residual syndrome
within its iteration budget.  Each estimate carries a 95% Wilson score
interval and the full configuration digest; per-point JSON artifacts make
sweeps resumable (a completed point with a matching digest is not
recomputed).
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .channel import DepolarizingChannel, prior_llr, sample_error
from .code import SparseCheckMatrix, TannerGraph, tanner_graph
from .decoder import DecoderConfig, decode_batch

log = logging.getLogger("qsagms.harness")

#: Largest and smallest batch in frames; sizes affect scheduling, never
#: results.  A point's first batch (MIN_BATCH) probes its failure rate for an
#: eighth of a full batch; a smaller batch would pay the per-iteration
#: overhead of tiny active sets.  ``_batch_size`` holds the rule.
BATCH_FRAMES = 4096
MIN_BATCH = 512


@dataclass(frozen=True)
class SweepConfig:
    """One frame-error-rate sweep: code, decoder, noise grid and protocol.

    ``epsilon0_mode`` is "matched" (decoder prior recomputed from each true
    epsilon) or "fixed" (one assumed epsilon0 for the whole sweep).
    ``workers`` is runtime provenance only: it never influences results and
    is excluded from the configuration digest and persisted artifacts.
    """

    code_id: str
    decoder: DecoderConfig
    epsilon_list: tuple[float, ...]
    seed: int
    epsilon0_mode: str = "matched"
    epsilon0: float | None = None
    target_failures: int = 500
    max_frames: int = 20_000_000
    workers: int = 1

    def __post_init__(self):
        if self.epsilon0_mode not in ("matched", "fixed"):
            raise ValueError("epsilon0_mode must be 'matched' or 'fixed'")
        if self.epsilon0_mode == "fixed" and not 0.0 < (self.epsilon0 or 0.0) < 1.0:
            raise ValueError(f"fixed mode needs epsilon0 in (0, 1): {self.epsilon0}")
        if self.epsilon0_mode == "matched" and self.epsilon0 is not None:
            raise ValueError(f"matched mode takes no epsilon0, got {self.epsilon0}")
        if not self.epsilon_list:
            raise ValueError("epsilon_list is empty")
        if any(not 0.0 < e < 1.0 for e in self.epsilon_list):
            raise ValueError("epsilon values must lie in (0, 1)")
        if self.target_failures < 1:
            raise ValueError("target_failures must be at least 1")
        if self.max_frames < 1:
            raise ValueError("max_frames must be at least 1")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")


@dataclass(frozen=True)
class FerPoint:
    """One (epsilon, FER) estimate with its provenance."""

    epsilon: float
    epsilon0: float
    frames: int
    failures: int
    fer: float
    wilson_low: float
    wilson_high: float
    mean_iterations: float
    cap_hit: bool
    config_digest: str
    seed: int


#: Two-sided 95% normal quantile used for the score interval.
WILSON_Z_95 = 1.959964


def wilson_interval(failures: int, frames: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion.

    The interval always contains failures/frames; endpoints are clamped to
    [0, 1].
    """
    if frames < 1:
        raise ValueError("frames must be at least 1")
    if not 0 <= failures <= frames:
        raise ValueError("failures must lie in [0, frames]")
    z = WILSON_Z_95
    n = float(frames)
    p = failures / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2.0 * n)) / denom
    half = z * math.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n)) / denom
    low = max(0.0, min(float(center - half), p))
    high = min(1.0, max(float(center + half), p))
    return low, high


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, floats at 17 significant digits."""

    def encode(value) -> str:
        if isinstance(value, dict):
            items = ", ".join(
                f"{json.dumps(k)}: {encode(v)}" for k, v in sorted(value.items())
            )
            return "{" + items + "}"
        if isinstance(value, (list, tuple)):
            return "[" + ", ".join(encode(v) for v in value) + "]"
        if isinstance(value, bool) or value is None:
            return json.dumps(value)
        if isinstance(value, float):
            return format(value, ".17g")
        if isinstance(value, (int, str)):
            return json.dumps(value)
        raise TypeError(f"cannot serialize {type(value)!r}")

    return encode(obj)


def _config_dict(cfg: SweepConfig) -> dict:
    d = asdict(cfg)
    d.pop("workers")
    return d


def config_digest(cfg: SweepConfig) -> str:
    """SHA-256 of the canonical configuration (worker count excluded)."""
    return hashlib.sha256(canonical_json(_config_dict(cfg)).encode()).hexdigest()


# ---------------------------------------------------------------------------
# Worker side: one process decodes contiguous frame ranges.

_WORKER: dict = {}


def _init_worker(H: SparseCheckMatrix, decoder_cfg: DecoderConfig):
    _WORKER["graph"] = tanner_graph(H)
    _WORKER["decoder"] = decoder_cfg


def _decode_frames(graph: TannerGraph, decoder_cfg, epsilon, epsilon0, seed, start, count):
    """Sample, decode and summarize frames [start, start+count)."""
    ch = DepolarizingChannel(epsilon=epsilon, rng_seed=seed)
    errors = np.empty((count, graph.n), dtype=np.uint8)
    for row, frame in enumerate(range(start, start + count)):
        errors[row] = sample_error(ch, graph.n, stream_id=frame)
    syndromes = graph.syndromes(errors)
    res = decode_batch(graph, syndromes, prior_llr(epsilon0), decoder_cfg)
    return ~res.success, res.iterations


def _worker_task(args):
    epsilon, epsilon0, seed, start, count = args
    fails, iters = _decode_frames(
        _WORKER["graph"], _WORKER["decoder"], epsilon, epsilon0, seed, start, count
    )
    return start, fails, iters


def _batch_size(cfg: SweepConfig, start, frames, failures) -> int:
    """Frames of the batch at ``start``, given ``failures`` in frames [0, frames).

    The batch runs to the frame where the observed failure rate predicts
    the target, clamped to [MIN_BATCH, BATCH_FRAMES]; with no observation it
    is MIN_BATCH, with no failure yet BATCH_FRAMES.
    """
    if frames == 0:
        size = MIN_BATCH
    elif failures == 0:
        size = BATCH_FRAMES
    else:
        predicted = -(-frames * cfg.target_failures // failures)
        size = min(max(predicted - start, MIN_BATCH), BATCH_FRAMES)
    return min(size, cfg.max_frames - start)


def _batches(H, graph, cfg: SweepConfig, epsilon, epsilon0):
    """Yield (start, fails, iters) in frame order from 1..N workers, each
    batch sized by ``_batch_size`` from the results yielded before it."""
    frames = failures = 0
    if cfg.workers == 1:
        while frames < cfg.max_frames:
            count = _batch_size(cfg, frames, frames, failures)
            fails, iters = _decode_frames(
                graph, cfg.decoder, epsilon, epsilon0, cfg.seed, frames, count
            )
            yield frames, fails, iters
            frames += count
            failures += int(fails.sum())
        return
    with ProcessPoolExecutor(
        max_workers=cfg.workers,
        initializer=_init_worker,
        initargs=(H, cfg.decoder),
    ) as pool:
        pending = {}
        start = 0
        try:
            while True:
                # keep a small window of speculative batches in flight
                while len(pending) < cfg.workers + 2 and start < cfg.max_frames:
                    count = _batch_size(cfg, start, frames, failures)
                    pending[start] = pool.submit(
                        _worker_task, (epsilon, epsilon0, cfg.seed, start, count)
                    )
                    start += count
                if not pending:
                    return
                s, fails, iters = pending.pop(min(pending)).result()
                yield s, fails, iters
                frames += len(fails)
                failures += int(fails.sum())
        finally:
            for fut in pending.values():
                fut.cancel()


def run_point(
    H: SparseCheckMatrix, graph: TannerGraph, cfg: SweepConfig, epsilon: float
) -> FerPoint:
    """Estimate the FER at one noise level under the stop rule.

    Stops at the smallest frame index where cumulative failures reach
    ``cfg.target_failures``, else at ``cfg.max_frames`` (recorded as a cap
    hit so partial points are never mistaken for converged estimates).
    """
    epsilon0 = epsilon if cfg.epsilon0_mode == "matched" else float(cfg.epsilon0)
    digest = config_digest(cfg)
    frames = 0
    failures = 0
    iter_sum = 0
    for start, fails, iters in _batches(H, graph, cfg, epsilon, epsilon0):
        cum = np.cumsum(fails)
        hit = np.nonzero(failures + cum >= cfg.target_failures)[0]
        if hit.size:
            stop = int(hit[0]) + 1  # count through the stopping frame
            frames = start + stop
            failures += int(cum[stop - 1])
            iter_sum += int(iters[:stop].sum())
            break
        frames = start + len(fails)
        failures += int(cum[-1]) if len(fails) else 0
        iter_sum += int(iters.sum())
    low, high = wilson_interval(failures, frames)
    point = FerPoint(
        epsilon=epsilon,
        epsilon0=epsilon0,
        frames=frames,
        failures=failures,
        fer=failures / frames,
        wilson_low=low,
        wilson_high=high,
        mean_iterations=iter_sum / frames,
        cap_hit=failures < cfg.target_failures,
        config_digest=digest,
        seed=cfg.seed,
    )
    log.info(
        "point eps=%g fer=%g (%d/%d frames) CI=[%g, %g]%s",
        epsilon, point.fer, failures, frames, low, high,
        " cap-hit" if point.cap_hit else "",
    )
    return point


def _point_payload(point: FerPoint, cfg: SweepConfig) -> dict:
    return {
        "point": asdict(point),
        "config": _config_dict(cfg),
        "version": __version__,
    }


def _point_path(out_dir: Path, digest: str, index: int) -> Path:
    return out_dir / "points" / f"point_{digest[:12]}_{index:03d}.json"


def run_sweep(
    H: SparseCheckMatrix,
    graph: TannerGraph,
    cfg: SweepConfig,
    out_dir=None,
) -> list[FerPoint]:
    """Run every noise point of ``cfg``, persisting and reusing results.

    With ``out_dir`` set, each completed point is written to
    ``points/point_<digest12>_<k>.json``; on rerun a point whose file exists
    with a matching digest is loaded instead of recomputed.  The aggregate
    ``results.json`` (all points, config echo, software version) and the
    plot-ready ``fer.tsv`` (epsilon and FER, ascending epsilon) are
    rewritten at the end.
    """
    digest = config_digest(cfg)
    out_path = Path(out_dir) if out_dir is not None else None
    points: list[FerPoint] = []
    for k, epsilon in enumerate(cfg.epsilon_list):
        cached = None
        if out_path is not None:
            pfile = _point_path(out_path, digest, k)
            if pfile.exists():
                try:
                    payload = json.loads(pfile.read_text(encoding="utf-8"))
                    if payload["point"]["config_digest"] == digest:
                        cached = FerPoint(**payload["point"])
                except (KeyError, TypeError, ValueError) as exc:
                    raise OSError(f"unreadable point file {pfile}: {exc}") from exc
        if cached is not None:
            log.info("point eps=%g loaded from %s", epsilon, pfile)
            points.append(cached)
            continue
        point = run_point(H, graph, cfg, epsilon)
        points.append(point)
        if out_path is not None:
            pfile = _point_path(out_path, digest, k)
            pfile.parent.mkdir(parents=True, exist_ok=True)
            _write_text(pfile, canonical_json(_point_payload(point, cfg)) + "\n")
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)
        results = [_point_payload(p, cfg) for p in points]
        _write_text(out_path / "results.json", canonical_json(results) + "\n")
        tsv = "".join(
            f"{p.epsilon:.17g}\t{p.fer:.17g}\n"
            for p in sorted(points, key=lambda p: p.epsilon)
        )
        _write_text(out_path / "fer.tsv", tsv)
    return points


def _write_text(path: Path, text: str) -> None:
    """Replace ``path`` atomically, so a killed run never leaves it truncated."""
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8", newline="\n")
        os.replace(tmp, path)
    except OSError as exc:
        tmp.unlink(missing_ok=True)
        raise OSError(f"cannot write {path}: {exc}") from exc
