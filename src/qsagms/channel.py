"""Depolarizing channel sampling and channel-prior LLR.

A channel is its rate epsilon and master seed, which ``sample_error`` takes
and checks with its other arguments.  Each qubit independently suffers I
with probability 1 - epsilon and each of X, Y, Z with probability
epsilon/3.  Sampling is counter-based: a Philox generator keyed by
``(seed, stream_id)`` draws one uniform per qubit, mapped through the
inverse CDF in the fixed order (I, X, Y, Z).  Identical ``(seed,
stream_id, n, epsilon)`` therefore reproduce the same error pattern on any
platform, and distinct stream ids give independent streams; the sampled
values are part of the regression-test contract.

The Philox4x64-10 rounds are integer arithmetic on (key, counter), so they
run in numpy over many frames at once: ``sample_error`` samples a range of
consecutive stream ids in one call, word for word what numpy's
``np.random.Philox`` gives for each key; one frame is a one-row range.
"""

from __future__ import annotations

import math

import numpy as np

from .pauli import PAULI_I, PAULI_X, PAULI_Y, PAULI_Z

#: Seeds and stream ids lie in [0, SEED_LIMIT): each is one 64-bit word of
#: the Philox key, so a value outside would alias one inside.
SEED_LIMIT = 1 << 64


def check_int(name: str, value) -> None:
    """Reject a non-``int``, or a bool, where an integer field enters."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an int, got {value!r}")


def prior_llr(epsilon0: float) -> float:
    """Prior LLR ln((1-e0)/(e0/3)) of an assumed rate; positive iff epsilon0 < 3/4.

    Rejects a rate so small (below about 1.67e-308) that the LLR is +inf.
    """
    if not 0.0 < epsilon0 < 1.0:
        raise ValueError(f"epsilon0 must lie in (0, 1), got {epsilon0}")
    llr = math.log(3.0 * (1.0 - epsilon0) / epsilon0)
    if math.isinf(llr):
        raise ValueError(f"epsilon0 {epsilon0} is so small that its prior LLR overflows")
    return llr


#: Frames per Philox evaluation in ``sample_error``: keeps each (2, frames,
#: blocks) temporary near cache size, 128 KB at n = 126.  Results do not
#: depend on it.
_CHUNK_FRAMES = 256

# Philox4x64-10 (Salmon et al., SC 2011) as numpy's ``np.random.Philox`` runs
# it: the round multipliers of counter words 0 and 2, and the Weyl
# increments of the two key words, each shaped (2, 1, 1) to broadcast over
# (word, frame, block).
_PHILOX_ROUNDS = 10
_LO32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_PHILOX_M = np.array([0xD2E7470EE14C6C93, 0xCA5A826395121157], dtype=np.uint64)[:, None, None]
_PHILOX_M_LO, _PHILOX_M_HI = _PHILOX_M & _LO32, _PHILOX_M >> _SHIFT32
_PHILOX_W = np.array([0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B], dtype=np.uint64)[:, None, None]

#: Pauli of each inverse-CDF rank: I, X, Y, Z in that order.
_PAULI_OF_RANK = np.array([PAULI_I, PAULI_X, PAULI_Y, PAULI_Z], dtype=np.uint8)


def sample_error(epsilon: float, rng_seed: int, n: int, stream_id: int, count: int) -> np.ndarray:
    """Draw ``count`` i.i.d. depolarizing error patterns as a ``(count, n)`` batch.

    ``epsilon`` is the true rate; 0, the noiseless limit, is accepted (useful
    in tests), although decoding priors need a positive rate.  ``stream_id``
    addresses the first frame: row i is the frame ``stream_id + i``, whose
    Philox key is (rng_seed, stream_id + i), and the draw index within a
    stream is the qubit index.  So a row equals the one-row batch of its own
    stream id.  Every argument is checked before any Philox work.
    """
    if not 0.0 <= epsilon < 1.0:
        raise ValueError(f"epsilon must lie in [0, 1), got {epsilon}")
    for name, value in (
        ("rng_seed", rng_seed), ("stream_id", stream_id), ("n", n), ("count", count)
    ):
        check_int(name, value)
    if not 0 <= rng_seed < SEED_LIMIT:
        raise ValueError(f"rng_seed must lie in [0, 2**64), got {rng_seed}")
    if n < 1:
        raise ValueError("n must be at least 1")
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if not 0 <= stream_id < SEED_LIMIT or stream_id + count > SEED_LIMIT:
        raise ValueError(
            f"stream_id range [{stream_id}, {stream_id + count}) must lie in [0, 2**64)"
        )
    out = np.empty((count, n), dtype=np.uint8)
    # t_x <= t_y <= t_z (tested), so a draw's rank in (I, X, Y, Z) is the
    # number of thresholds at or below it; at epsilon 0 all three are 2**53
    t_x, t_y, t_z = (np.uint64(t) for t in _thresholds(epsilon))
    blocks = -(-n // 4)
    for lo in range(0, count, _CHUNK_FRAMES):
        hi = min(lo + _CHUNK_FRAMES, count)
        draws = _philox(rng_seed, stream_id + lo, hi - lo, blocks)[:, :n]
        draws >>= np.uint64(11)  # the 53-bit integer m of u = m * 2**-53
        rank = (draws >= t_x).view(np.uint8) + (draws >= t_y).view(np.uint8)
        rank += (draws >= t_z).view(np.uint8)
        out[lo:hi] = _PAULI_OF_RANK[rank]
    return out


def _thresholds(epsilon: float) -> tuple[int, int, int]:
    """Integer inverse-CDF thresholds (T_x, T_y, T_z) for 53-bit draws.

    The float thresholds are t = 1 - e, 1 - e + e/3 and 1 - e/3.  A draw m
    gives the uniform u = m * 2**-53, and u >= t exactly when m >= T =
    ceil(t * 2**53): both sides scale by a power of two, which is exact.
    """
    t = (1.0 - epsilon, 1.0 - epsilon + epsilon / 3.0, 1.0 - epsilon / 3.0)
    return tuple(math.ceil(math.ldexp(v, 53)) for v in t)


def _philox(seed: int, stream_id: int, frames: int, blocks: int) -> np.ndarray:
    """First ``4 * blocks`` Philox4x64-10 words of ``frames`` consecutive streams.

    Row i equals ``np.random.Philox(key=[seed, stream_id + i]).random_raw(4 *
    blocks)``: block j encrypts the counter (j + 1, 0, 0, 0).  The rounds run
    over all (frame, block) pairs at once, on counter words 0 and 2 stacked
    as ``even`` and words 1 and 3 as ``odd``.  uint64 arrays wrap silently.
    """
    key = np.empty((2, frames, 1), dtype=np.uint64)
    key[0] = seed
    key[1] = np.uint64(stream_id) + np.arange(frames, dtype=np.uint64)[:, None]
    even = np.zeros((2, 1, blocks), dtype=np.uint64)
    even[0] = np.arange(1, blocks + 1, dtype=np.uint64)
    odd = np.zeros((2, 1, 1), dtype=np.uint64)
    for r in range(_PHILOX_ROUNDS):
        if r:
            key += _PHILOX_W
        hi, lo = _mulhilo(even)
        # (x0, x1, x2, x3) <- (hi(M1 x2) ^ x1 ^ k0, lo(M1 x2), hi(M0 x0) ^ x3 ^ k1, lo(M0 x0))
        even = hi[::-1] ^ odd ^ key
        odd = lo[::-1]
    return np.stack([even[0], odd[0], even[1], odd[1]], axis=-1).reshape(frames, 4 * blocks)


def _mulhilo(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of the 128-bit products ``_PHILOX_M * x``.

    The low word is the wrapping uint64 product.  The high word is summed
    from the four 32x32-bit partial products, none of which overflows.
    """
    x_lo = x & _LO32
    x_hi = x >> _SHIFT32
    carry = x_lo * _PHILOX_M_LO
    carry >>= _SHIFT32
    mid = x_hi * _PHILOX_M_LO
    mid += carry  # x_hi*m_lo + (x_lo*m_lo >> 32)
    np.bitwise_and(mid, _LO32, out=carry)
    x_lo *= _PHILOX_M_HI
    x_lo += carry  # x_lo*m_hi + low half of mid
    mid >>= _SHIFT32
    x_hi *= _PHILOX_M_HI
    x_hi += mid
    x_lo >>= _SHIFT32
    x_hi += x_lo
    return x_hi, x * _PHILOX_M
