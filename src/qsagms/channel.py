"""Depolarizing channel sampling and channel-prior LLR.

Each qubit independently suffers I with probability 1 - epsilon and each of
X, Y, Z with probability epsilon/3.  Sampling is counter-based: a Philox
generator keyed by ``(seed, stream_id)`` draws one uniform per qubit, mapped
through the inverse CDF in the fixed order (I, X, Y, Z).  Identical
``(seed, stream_id, n, epsilon)`` therefore reproduce the same error pattern
on any platform, and distinct stream ids give independent streams; the
sampled values are part of the regression-test contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .pauli import PAULI_X, PAULI_Y, PAULI_Z

#: Seeds and stream ids lie in [0, SEED_LIMIT): each is one 64-bit word of
#: the Philox key, so a value outside would alias one inside.
SEED_LIMIT = 1 << 64


@dataclass(frozen=True)
class DepolarizingChannel:
    """True channel: depolarization probability and master seed.

    ``epsilon = 0`` is accepted as the degenerate noiseless limit (useful in
    tests); decoding priors require strictly positive rates.
    """

    epsilon: float
    rng_seed: int

    def __post_init__(self):
        if not 0.0 <= self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in [0, 1), got {self.epsilon}")
        if not 0 <= self.rng_seed < SEED_LIMIT:
            raise ValueError(f"rng_seed must lie in [0, 2**64), got {self.rng_seed}")


@dataclass(frozen=True)
class ChannelPrior:
    """Assumed depolarization rate and its prior LLR ln((1-e0)/(e0/3))."""

    epsilon0: float
    llr: float


def prior_llr(epsilon0: float) -> ChannelPrior:
    """Channel prior for an assumed rate; positive iff epsilon0 < 3/4."""
    if not 0.0 < epsilon0 < 1.0:
        raise ValueError(f"epsilon0 must lie in (0, 1), got {epsilon0}")
    return ChannelPrior(epsilon0=epsilon0, llr=math.log(3.0 * (1.0 - epsilon0) / epsilon0))


def sample_error(ch: DepolarizingChannel, n: int, stream_id: int) -> np.ndarray:
    """Draw an i.i.d. depolarizing error pattern for one frame.

    ``stream_id`` addresses the frame: the Philox key is (seed, stream_id)
    and the draw index within the stream is the qubit index.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 0 <= stream_id < SEED_LIMIT:
        raise ValueError(f"stream_id must lie in [0, 2**64), got {stream_id}")
    key = np.array([ch.rng_seed, stream_id], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    u = rng.random(n)
    eps = ch.epsilon
    out = np.zeros(n, dtype=np.uint8)
    if eps == 0.0:
        return out
    t_x = 1.0 - eps
    t_y = 1.0 - eps + eps / 3.0
    t_z = 1.0 - eps / 3.0
    out[(u >= t_x) & (u < t_y)] = PAULI_X
    out[(u >= t_y) & (u < t_z)] = PAULI_Y
    out[u >= t_z] = PAULI_Z
    return out
