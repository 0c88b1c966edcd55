"""Analytical toolkit for min-sum gain selection.

Covers the check-node transfer functions of the four decoder variants, the
scaling factor that matches a scaled min-sum output to the exact phi-domain
output under the uniform-message approximation (all extrinsic inputs
equal), the penalty from applying a scaling tuned for one check degree to
another, expected-minimum statistics for gain optimization at a given mean
magnitude, and weighted operation counts per check-node update.

Operation counts use cost weights (add, mul, cmp, transcendental)
= (1, 1, 1, 10).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

OP_WEIGHTS = (1, 1, 1, 10)

#: Sampling distributions accepted by ``expected_min_g`` (an explicit array
#: of empirical magnitudes is also accepted).
SAMPLE_SOURCES = ("point", "exponential")

MIN_SAMPLES = 10_000


def phi_llr(x):
    """Unchecked Gallager phi, -ln tanh(x/2), for the decoder's clamped arrays.

    log1p(2/expm1(x)) stays accurate for small x (where the naive form loses
    digits) and large x (where tanh rounds to 1); phi(inf) = 0.
    """
    return np.log1p(2.0 / np.expm1(x))


def phi(x):
    """Gallager phi: -ln tanh(x/2) for x > 0; self-inverse and decreasing."""
    arr = np.asarray(x, dtype=np.float64)
    if np.any(arr <= 0.0):
        raise ValueError("phi requires strictly positive arguments")
    out = phi_llr(arr)
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def transfer(variant: str, kappa, d_c: int | None = None, gain: float | None = None):
    """Check-node output magnitude versus the minimum input ``kappa``.

    Under the uniform-message approximation all d_c - 1 extrinsic inputs
    equal kappa, so:

        bp4    phi^-1((d_c - 1) * phi(kappa))   (needs d_c >= 2)
        ms     kappa
        sms    gain * kappa
        sagms  gain * kappa   (gain = effective alpha)
    """
    kappa_arr = np.asarray(kappa, dtype=np.float64)
    if np.any(kappa_arr <= 0.0):
        raise ValueError("kappa must be positive")
    if variant == "ms":
        out = kappa_arr.copy()
    elif variant in ("sms", "sagms"):
        if gain is None:
            raise ValueError(f"{variant} transfer needs a gain value")
        out = gain * kappa_arr
    elif variant == "bp4":
        if d_c is None or d_c < 2:
            raise ValueError("bp4 transfer needs d_c >= 2")
        out = phi((d_c - 1) * phi(kappa_arr))
        out = np.asarray(out)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return float(out) if np.isscalar(kappa) else out


def _log_alpha_star_exact(l0: float, d_c: int) -> float:
    """ln of the exact matching ratio, stable for any positive l0.

    Works from w = (d_c - 1) * ln tanh(l0/2), so extreme degrees and priors
    never underflow before the logarithm is formed.
    """
    if l0 <= 0.0:
        raise ValueError("l0 must be positive")
    if d_c < 2:
        raise ValueError("d_c must be at least 2")
    delta = 2.0 * math.exp(-l0) / (1.0 + math.exp(-l0))  # 1 - tanh(l0/2)
    w = (d_c - 1) * math.log1p(-delta)
    if w < -700.0:
        # atanh(p) ~ p: ln alpha = ln 2 + w - ln l0
        return math.log(2.0) + w - math.log(l0)
    p = math.exp(w)
    if p > 0.9:
        u = -math.expm1(w)  # 1 - p without cancellation
        u = max(u, 1e-300)
        return math.log((math.log(2.0 - u) - math.log(u)) / l0)
    return math.log(2.0 * math.atanh(p) / l0)


def alpha_star_exact(l0: float, d_c: int) -> float:
    """Scaling that equates the min-sum and phi-domain check outputs when
    all d_c - 1 inputs equal l0: (2/l0) * atanh(tanh(l0/2)^(d_c-1))."""
    return math.exp(_log_alpha_star_exact(l0, d_c))


def alpha_star_approx(l0: float, d_c: int) -> float:
    """First-order form 1 - ln(d_c - 1)/l0 (from phi(x) ~ 2e^-x for large x)."""
    if l0 <= 0.0:
        raise ValueError("l0 must be positive")
    if d_c < 2:
        raise ValueError("d_c must be at least 2")
    return 1.0 - math.log(d_c - 1) / l0


def delta_alpha(l0: float, d_c_ref: int, d_c_new: int) -> float:
    """Matching-ratio penalty when a scaling tuned for ``d_c_ref`` is used
    at ``d_c_new``: ln((d_c_new - 1)/(d_c_ref - 1)) / l0."""
    if l0 <= 0.0:
        raise ValueError("l0 must be positive")
    if d_c_ref < 2 or d_c_new < 2:
        raise ValueError("check degrees must be at least 2")
    return math.log((d_c_new - 1) / (d_c_ref - 1)) / l0


def check_monotonicity(l0: float, d_c_range: tuple[int, int]) -> bool:
    """True iff the exact matching ratio strictly decreases over the range.

    Compared in the log domain so that extreme degrees (ratios far below
    the smallest normal float) still order correctly.
    """
    lo, hi = d_c_range
    if lo < 2 or hi > 10_000 or lo > hi:
        raise ValueError("degree range must satisfy 2 <= lo <= hi <= 10000")
    prev = _log_alpha_star_exact(l0, lo)
    for d in range(lo + 1, hi + 1):
        cur = _log_alpha_star_exact(l0, d)
        if not cur < prev:
            return False
        prev = cur
    return True


@dataclass(frozen=True)
class OpCount:
    """Operation tally for one check-node update (all outgoing edges)."""

    adds: int
    muls: int
    cmps: int
    transcendentals: int

    @property
    def weighted_total(self) -> int:
        a, b, c, d = OP_WEIGHTS
        return (
            a * self.adds
            + b * self.muls
            + c * self.cmps
            + d * self.transcendentals
        )


def op_count(variant: str, d_c: int) -> OpCount:
    """Per-check-node operation counts at degree ``d_c``.

    Weighted totals reduce to 22*d_c - 13 (bp4), 2*d_c - 3 (ms),
    2*d_c - 2 (sms, one extra multiply over ms) and 2*d_c + 3 (sagms:
    three adds, one precomputed multiply and one comparison over sms).
    """
    if d_c < 2:
        raise ValueError("d_c must be at least 2")
    if variant == "bp4":
        return OpCount(adds=d_c - 2, muls=d_c - 1, cmps=0, transcendentals=2 * d_c - 1)
    if variant == "ms":
        return OpCount(adds=0, muls=d_c - 1, cmps=d_c - 2, transcendentals=0)
    if variant == "sms":
        return OpCount(adds=0, muls=d_c, cmps=d_c - 2, transcendentals=0)
    if variant == "sagms":
        return OpCount(adds=3, muls=d_c + 1, cmps=d_c - 1, transcendentals=0)
    raise ValueError(f"unknown variant {variant!r}")


def expected_min_g(
    mu: float,
    d_c: int,
    sample_source="point",
    n_samples: int = 20_000,
    seed: int = 0,
) -> float:
    """Expected minimum of d_c - 1 i.i.d. magnitudes with mean ``mu``.

    ``sample_source`` selects the magnitude distribution: "point" (all
    mass at mu; the expected minimum is mu exactly, no sampling),
    "exponential" (mean mu), or an array of empirical magnitudes captured
    from a decoder trace, which is resampled with replacement.
    """
    if mu <= 0.0:
        raise ValueError("mu must be positive")
    if d_c < 2:
        raise ValueError("d_c must be at least 2")
    if isinstance(sample_source, str):
        if sample_source not in SAMPLE_SOURCES:
            raise ValueError(f"unknown sample source {sample_source!r}")
        if sample_source == "point":
            return mu
        draw = lambda rng, size: rng.exponential(scale=mu, size=size)
    else:
        samples = np.abs(np.asarray(sample_source, dtype=np.float64)).ravel()
        if samples.size < MIN_SAMPLES:
            raise ValueError(
                f"need at least {MIN_SAMPLES} empirical samples, got {samples.size}"
            )
        draw = lambda rng, size: rng.choice(samples, size=size, replace=True)
    if n_samples < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples, got {n_samples}")
    draws = draw(np.random.default_rng(seed), (n_samples, d_c - 1))
    return float(draws.min(axis=1).mean())


def alpha_opt(
    mu: float,
    d_c: int,
    sample_source="point",
    n_samples: int = 20_000,
    seed: int = 0,
) -> float:
    """Gain making the scaled-min-sum output match the phi-domain output at
    mean magnitude ``mu``: transfer_bp4(mu) / expected_min."""
    g = expected_min_g(mu, d_c, sample_source, n_samples=n_samples, seed=seed)
    return transfer("bp4", mu, d_c=d_c) / g


def linear_gain_fit(alpha_max: float, alpha_min: float, gamma):
    """Linear gain ramp alpha_max - (alpha_max - alpha_min)*gamma.

    This is the satisfied-check effective gain of the adaptive decoder,
    which evaluates it elementwise over a batch of syndrome ratios.
    """
    g = np.asarray(gamma)
    if not np.all((g >= 0.0) & (g <= 1.0)):
        raise ValueError(f"gamma must lie in [0, 1], got {gamma}")
    return alpha_max - (alpha_max - alpha_min) * gamma


@dataclass
class TransferCurve:
    """Sampled transfer function of one variant at one gain/degree."""

    variant: str
    d_c: int | None
    gain: float | None
    samples: list[tuple[float, float]]


def sample_transfer_curve(
    variant: str, kappas, d_c: int | None = None, gain: float | None = None
) -> TransferCurve:
    """Evaluate one variant's transfer function on a kappa grid."""
    kappas = np.asarray(kappas, dtype=np.float64)
    values = transfer(variant, kappas, d_c=d_c, gain=gain)
    samples = [(float(k), float(v)) for k, v in zip(kappas, np.atleast_1d(values))]
    return TransferCurve(variant=variant, d_c=d_c, gain=gain, samples=samples)


def write_curve(samples, stream) -> None:
    """Emit (x, y) pairs as two whitespace-separated columns, one per line."""
    for x, y in samples:
        stream.write(f"{x:.17g} {y:.17g}\n")
