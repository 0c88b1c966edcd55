"""Monte Carlo frame-error-rate estimation with a deterministic stop rule.

Frames are numbered 0, 1, 2, ...; frame f draws its error pattern from the
channel stream keyed by (master seed, f), so the sequence of frames is a
pure function of the configuration.  A noise point stops at the smallest
frame index at which the cumulative failure count reaches the target (or
at the frame cap), and every started frame up to that index is counted
exactly once.  One loop, ``run_point``, applies that rule: it runs one
batch of contiguous frames at a time, each sized from the stop rule (it
ends where the failure rate seen so far predicts the target), sampled by
``_syndromes`` and scored by ``_outcomes``; one value, ``_Tally``, owns the
counts and counts each batch through the stopping frame.  The batch plan
is the same for any worker count, and N workers only decode: the calling
thread samples each batch in one ``sample_error`` call (Philox in chunks
of ``channel._CHUNK_FRAMES`` frames, so a frame's bits never depend on the
batch) and deals the rows the memo lacks into N parts, decoded on a pool
of threads and on the caller's Tanner graph.  So the estimate is
bit-identical for any worker count.

The decoder is a deterministic function of (syndrome, prior, config), and
the harness needs only its (fail, iterations) per frame.  So each point
keeps one memo keyed by packed syndrome, read and written by the calling
thread only: a batch decodes each distinct syndrome the point has not
decoded before, once, in ``decode_batch`` calls that each own their
workspace.  On a generalized bicycle graph (``graph.ell`` set)
the memo is keyed by syndrome orbit instead: the graph's circulant-offset
slot layout makes the decoder exactly equivariant under joint rotations
of the two syndrome halves, so every syndrome of an orbit decodes to the
same (fail, iterations), and a batch decodes one representative per
orbit.  A hit returns what decoding returns, so the memo never changes an
estimate.  At low noise, where few syndromes are distinct and fewer
orbits, the memo removes most of the decoding.

Failure means the decoder did not reach an all-zero residual syndrome
within its iteration budget.  Each estimate carries a 95% Wilson score
interval and the full configuration digest; per-point JSON artifacts make
sweeps resumable (a completed point with a matching digest and numerics
tag is not recomputed).
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .channel import SEED_LIMIT, check_int, prior_llr, sample_error
from .code import SparseCheckMatrix, TannerGraph
from .decoder import DecoderConfig, decode_batch

log = logging.getLogger("qsagms.harness")

#: Largest and smallest batch in frames; sizes affect scheduling, never
#: results.  A point's first batch (MIN_BATCH) probes its failure rate for an
#: eighth of a full batch; a smaller batch would pay the per-iteration
#: overhead of tiny active sets.  ``_batch_size`` holds the rule.
BATCH_FRAMES = 4096
MIN_BATCH = 512

#: Memo size at which a point stops storing syndromes (see ``_outcomes``).
MEMO_ENTRIES = 1 << 17

#: Names the arithmetic behind a point file's estimate, here the slot
#: layout of generalized bicycle graphs, the left-to-right order of every
#: sum over a node's slots and the marginal message taken from one term per
#: qubit and symbol.  It stays out of the config digest; a sweep
#: recomputes a point file whose tag is missing or differs, so a point
#: decoded under other numerics never joins a sweep.
NUMERICS = "gb-slots-by-circulant-offset/slot-sums-left-to-right/marginal-per-qubit-term"


@dataclass(frozen=True)
class SweepConfig:
    """One frame-error-rate sweep: code, decoder, noise grid and protocol.

    ``epsilon0_mode`` is "matched" (decoder prior recomputed from each true
    epsilon) or "fixed" (one assumed epsilon0 for the whole sweep).
    ``workers`` is runtime provenance only: it never influences results and
    is excluded from the configuration digest and persisted artifacts.  A
    point samples each batch on the calling thread and deals its decoding
    to ``workers`` threads, but starts at most as many as this process may
    use CPUs (``_usable_cpus``).
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
        for rate in self.epsilon_list if self.epsilon0_mode == "matched" else [self.epsilon0]:
            prior_llr(rate)  # each decoding rate needs a finite prior LLR
        for name in ("seed", "target_failures", "max_frames", "workers"):
            check_int(name, getattr(self, name))
        if self.target_failures < 1:
            raise ValueError("target_failures must be at least 1")
        if self.max_frames < 1:
            raise ValueError("max_frames must be at least 1")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if not 0 <= self.seed < SEED_LIMIT:
            raise ValueError(f"seed must lie in [0, 2**64), got {self.seed}")


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


#: Words of rotated halves ``_orbit_keys`` holds at once: its row chunks
#: keep that array near 256 KB (260 rows on ell = 63).  Keys do not depend on it.
_ORBIT_CHUNK_WORDS = 1 << 15


def _orbit_keys(syndromes: np.ndarray, ell: int) -> np.ndarray:
    """One key per syndrome row of a graph on ``ell``, equal for two rows
    exactly when a joint rotation of both ell-bit halves maps one onto the
    other: the lexicographic minimum of the halves' bits over the ell
    rotations, held as big-endian uint64 words, ceil(ell / 64) per half,
    and returned as a (rows,) array of void scalars.

    Each half is packed twice over, so rotation t is the ell bits from bit
    t on: word by word, two source words shifted together, the bits past
    ell masked off.  All ell rotations of a chunk of rows are formed at
    once, and the minimum is found word by word, narrowing each row's
    candidate rotations to those that hold the least word so far.
    """
    rows, width = len(syndromes), -(-ell // 64)
    doubled = np.zeros((rows, 2, 128 * width), dtype=np.uint8)
    doubled[..., :ell] = doubled[..., ell : 2 * ell] = syndromes.reshape(rows, 2, ell)
    words = np.packbits(doubled, axis=-1).view(">u8").astype(np.uint64).transpose(1, 2, 0)
    in_ell = ~np.uint64(0) << np.uint64(64 * width - ell)  # of the last word
    best = np.empty((2 * width, rows), dtype=np.uint64)
    chunk = max(_ORBIT_CHUNK_WORDS // (2 * width * ell), 1)
    # word k of half h of rotation t, for the rows of a chunk: [h, k, row, t]
    rotated = np.empty((2, width, min(chunk, rows), ell), dtype=np.uint64)
    for lo in range(0, rows, chunk):
        r = min(chunk, rows - lo)
        w = words[..., lo : lo + r, None]
        for q in range(width):  # the rotations t = 64 q + s
            s = np.arange(min(64, ell - 64 * q), dtype=np.uint64)
            for k in range(width):
                out = rotated[:, k, :r, 64 * q : 64 * q + s.size]
                np.left_shift(w[:, q + k], s, out=out)
                out |= w[:, q + k + 1] >> (np.uint64(64) - s)
        rotated[:, -1, :r] &= in_ell
        least = np.ones((r, ell), dtype=bool)  # rotations tied so far
        for k, word in enumerate(rotated[..., :r, :].reshape(2 * width, r, ell)):
            low = np.where(least, word, ~np.uint64(0)).min(axis=1) if k else word.min(axis=1)
            best[k, lo : lo + r] = low
            least &= word == low[:, None]
    return np.ascontiguousarray(best.T).view(f"V{16 * width}").ravel()


def _syndromes(graph: TannerGraph, epsilon, seed, start, count) -> np.ndarray:
    """Syndromes of frames [start, start+count) at ``epsilon`` and ``seed``, one
    row a frame, from one ``sample_error`` call on the calling thread."""
    return graph.syndromes(sample_error(epsilon, seed, graph.n, start, count=count))


def _outcomes(graph: TannerGraph, decoder_cfg, l0, memo: dict, threads, pool, syndromes):
    """(fails, iterations, decoded) of decoding each row of ``syndromes`` at prior ``l0``.

    The decoder is a deterministic function of the syndrome, so each
    distinct syndrome is decoded once, and only if ``memo`` (packed
    syndrome -> ``2 * iterations + fail``) lacks it.  The misses are dealt
    into at most ``threads`` parts, part k holding misses k, k + threads,
    ... in key order (later keys carry more decoder work), one
    ``decode_batch`` call each, on ``pool`` or on the calling thread.  On a
    graph with ``ell`` the distinct syndromes are grouped by orbit
    (``_orbit_keys``), the memo is keyed by orbit and one syndrome of each
    orbit is decoded.  ``decoded`` counts the rows decoded.  Only the
    calling thread touches ``memo``, and it stores at most the room left
    below MEMO_ENTRIES.
    """
    packed = np.packbits(syndromes, axis=1)
    rows, first, inverse = np.unique(
        packed.view(f"V{packed.shape[1]}").ravel(), return_index=True, return_inverse=True
    )
    if graph.ell is not None:
        rows, rep, orbit = np.unique(
            _orbit_keys(syndromes[first], graph.ell), return_index=True, return_inverse=True
        )
        first, inverse = first[rep], orbit[inverse]
    keys = rows.tolist()
    outcome = np.array([memo.get(key, -1) for key in keys], dtype=np.int64)
    miss = np.flatnonzero(outcome < 0)

    def decode(part):
        res = decode_batch(graph, syndromes[first[part]], l0, decoder_cfg)
        return 2 * res.iterations + ~res.success

    parts = [miss[k::threads] for k in range(min(threads, miss.size))]
    for part, out in zip(parts, (pool.map if pool else map)(decode, parts)):
        outcome[part] = out
    stored = miss[: max(MEMO_ENTRIES - len(memo), 0)]
    memo.update(zip([keys[i] for i in stored], outcome[stored].tolist()))
    outcome = outcome[inverse]
    return outcome % 2 == 1, outcome // 2, int(miss.size)


@dataclass(frozen=True)
class _Tally:
    """Frames counted, their failures and iterations, frames sampled, rows decoded."""

    frames: int = 0
    failures: int = 0
    iterations: int = 0
    sampled: int = 0
    decoded: int = 0

    def add(self, cfg: SweepConfig, fails, iters, decoded: int) -> _Tally:
        """The tally after the next batch, whose frames count through the stopping frame."""
        stop = np.searchsorted(np.cumsum(fails), cfg.target_failures - self.failures) + 1
        return _Tally(
            self.frames + len(fails[:stop]), self.failures + int(fails[:stop].sum()),
            self.iterations + int(iters[:stop].sum()),
            self.sampled + len(fails), self.decoded + decoded,
        )


def _batch_size(cfg: SweepConfig, tally: _Tally) -> int:
    """Frames of the batch after the frames ``tally`` counted: it runs to the
    frame where the observed failure rate predicts the target, clamped to
    [MIN_BATCH, BATCH_FRAMES]; with no observation it is MIN_BATCH, with no
    failure yet BATCH_FRAMES."""
    if tally.frames == 0:
        size = MIN_BATCH
    elif tally.failures == 0:
        size = BATCH_FRAMES
    else:
        predicted = -(-tally.frames * cfg.target_failures // tally.failures)
        size = min(max(predicted - tally.frames, MIN_BATCH), BATCH_FRAMES)
    return min(size, cfg.max_frames - tally.frames)


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity set, where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_point(
    H: SparseCheckMatrix, graph: TannerGraph, cfg: SweepConfig, epsilon: float
) -> FerPoint:
    """Estimate the FER at one noise level under the stop rule.

    Stops at the smallest frame index where cumulative failures reach
    ``cfg.target_failures``, else at ``cfg.max_frames`` (recorded as a cap
    hit so partial points are never mistaken for converged estimates).
    Each batch is sized by ``_batch_size`` and counted by ``_Tally.add``
    from the tally of the batches before it.  The calling thread samples
    it; at N workers its decoding is dealt to a pool of at most N threads
    (fewer with fewer usable CPUs; none for one), shut down when the point
    ends.  ``H`` is the matrix ``graph`` was built from; the harness no
    longer reads it.
    """
    epsilon0 = epsilon if cfg.epsilon0_mode == "matched" else float(cfg.epsilon0)
    l0, memo, tally = prior_llr(epsilon0), {}, _Tally()
    threads = min(cfg.workers, _usable_cpus())
    pool = None if threads == 1 else ThreadPoolExecutor(threads)
    try:
        while tally.frames < cfg.max_frames and tally.failures < cfg.target_failures:
            batch = _batch_size(cfg, tally)
            syndromes = _syndromes(graph, epsilon, cfg.seed, tally.frames, batch)
            scored = _outcomes(graph, cfg.decoder, l0, memo, threads, pool, syndromes)
            tally = tally.add(cfg, *scored)
            del syndromes  # not held while the next batch is sampled (peak RSS)
    finally:
        if pool:
            pool.shutdown(cancel_futures=True)
    low, high = wilson_interval(tally.failures, tally.frames)
    point = FerPoint(
        epsilon=epsilon,
        epsilon0=epsilon0,
        frames=tally.frames,
        failures=tally.failures,
        fer=tally.failures / tally.frames,
        wilson_low=low,
        wilson_high=high,
        mean_iterations=tally.iterations / tally.frames,
        cap_hit=tally.failures < cfg.target_failures,
        config_digest=config_digest(cfg),
        seed=cfg.seed,
    )
    log.info(
        "point eps=%g fer=%g (%d/%d frames) CI=[%g, %g], decoded %d %s of %d%s",
        epsilon, point.fer, tally.failures, tally.frames, low, high, tally.decoded,
        "distinct" if graph.ell is None else "orbits", tally.sampled,
        " cap-hit" if point.cap_hit else "",
    )
    return point


def _point_payload(point: FerPoint, cfg: SweepConfig) -> dict:
    return {
        "point": asdict(point),
        "config": _config_dict(cfg),
        "numerics": NUMERICS,
        "version": __version__,
    }


def _point_path(out_dir: Path, digest: str, index: int) -> Path:
    return out_dir / "points" / f"point_{digest[:12]}_{index:03d}.json"


def run_sweep(
    H: SparseCheckMatrix,
    graph: TannerGraph,
    cfg: SweepConfig,
    out_dir: str | os.PathLike,
) -> list[FerPoint]:
    """Run every noise point of ``cfg``, persisting and reusing results.

    Each completed point is written to
    ``out_dir/points/point_<digest12>_<k>.json``; on rerun a point whose
    file exists with a matching digest and ``NUMERICS`` tag is loaded
    instead of recomputed.  The aggregate ``results.json`` (all points,
    config echo, numerics tag, software version) and the plot-ready
    ``fer.tsv`` (epsilon and FER, ascending epsilon) are rewritten at the
    end.  ``H`` is the matrix ``graph`` was built from; the harness no
    longer reads it.
    """
    digest = config_digest(cfg)
    out_path = Path(out_dir)
    points: list[FerPoint] = []
    for k, epsilon in enumerate(cfg.epsilon_list):
        pfile = _point_path(out_path, digest, k)
        point = None
        if pfile.exists():
            try:
                payload = json.loads(pfile.read_text(encoding="utf-8"))
                if (
                    payload["point"]["config_digest"] == digest
                    and payload.get("numerics") == NUMERICS
                ):
                    point = FerPoint(**payload["point"])
            except (KeyError, TypeError, ValueError) as exc:
                raise OSError(f"unreadable point file {pfile}: {exc}") from exc
        if point is not None:
            log.info("point eps=%g loaded from %s", epsilon, pfile)
        else:
            point = run_point(H, graph, cfg, epsilon)
            pfile.parent.mkdir(parents=True, exist_ok=True)
            _write_text(pfile, canonical_json(_point_payload(point, cfg)) + "\n")
        points.append(point)
    out_path.mkdir(parents=True, exist_ok=True)
    results = [_point_payload(p, cfg) for p in points]
    _write_text(out_path / "results.json", canonical_json(results) + "\n")
    tsv = "".join(
        f"{p.epsilon:.17g}\t{p.fer:.17g}\n" for p in sorted(points, key=lambda p: p.epsilon)
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
