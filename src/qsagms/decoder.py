"""Scalarized GF(4) message-passing decoders: BP4, MS, SMS and SAGMS.

All four variants share one flooding-schedule skeleton; they differ only in
the check-node magnitude rule, and the three min-sum forms only in a gain:

    bp4    phi^-1( sum of phi(|L|) over the extrinsic set ),
           phi(x) = -ln tanh(x/2)
    ms     1 * minimum extrinsic magnitude
    sms    alpha * minimum (fixed scaling)
    sagms  alpha_eff * minimum, with alpha_eff recomputed per check and
           iteration from the residual-syndrome ratio

One scalar LLR flows per edge.  The sign of every check-node output is
(-1)^(s_i) times the product of the extrinsic message signs, where s_i is
the *observed* syndrome bit; the residual bit enters only the sagms gain
boost.  Each iteration runs: residual syndrome of the hard decision, early
exit on all-zero, syndrome ratio, gains, check-node update, qubit-node
update.  The qubit-node update's per-Pauli sums are also the metrics of
the next hard decision; the first decision is taken from zero sums.  An
optional trace records each iteration's syndrome ratios and messages, and
is the one inspection path: ``decode`` builds its traces from it.

Two qubit-node scalarizations are provided.  ``marginal`` (the default)
keeps per-Pauli log-beliefs and emits the commute/anticommute LLR relative
to each edge's own symbol; it is exact on cycle-free graphs, propagates
joint beliefs over all four Paulis, and is the mode that reproduces the
published frame-error-rate anchors.  ``additive`` adds scalar messages to
the prior, ignoring per-edge symbol differences (the textbook shorthand;
noticeably weaker on quantum codes).  In marginal mode the initial
qubit-to-check message is the marginal of the bare prior (the same rule
applied to an empty incoming set); in additive mode it is the prior LLR
itself.

Numerical policy (identical across variants): message magnitudes of exactly
zero propagate zero with positive sign; phi is evaluated at max(|x|, 1e-12)
and phi-domain sums are clamped to [1e-12, 50]; every updated LLR is
saturated to [-64, 64].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import linear_gain_fit, phi_llr
from .channel import ChannelPrior
from .code import TannerGraph, check_decodable
from .pauli import trace_inner

VARIANTS = ("bp4", "ms", "sms", "sagms")
VN_MODES = ("marginal", "additive")

#: LLR saturation bound applied after every update.
LLR_CLIP = 64.0
#: phi-domain clamps: argument floor and sum range before inversion.
PHI_ARG_FLOOR = 1e-12
PHI_SUM_MIN = 1e-12
PHI_SUM_MAX = 50.0

@dataclass(frozen=True)
class GainParams:
    """Adaptive-gain parameters: ramp endpoints and unsatisfied-check boost.

    The stability constraint alpha_max * eta_unsat <= 1 keeps the effective
    gain at or below plain min-sum.  ``eta_unsat = 1`` (no boost) is allowed
    so that the degenerate configuration reduces exactly to fixed scaling.
    """

    alpha_min: float
    alpha_max: float
    eta_unsat: float

    def __post_init__(self):
        a_min, a_max, eta = self.alpha_min, self.alpha_max, self.eta_unsat
        if not 0.0 < a_min <= a_max <= 1.0:
            raise ValueError(f"need 0 < alpha_min <= alpha_max <= 1: ({a_min}, {a_max})")
        if not eta >= 1.0:
            raise ValueError(f"eta_unsat must be >= 1, got {eta}")
        if not a_max * eta <= 1.0:
            raise ValueError(
                f"stability constraint alpha_max*eta_unsat <= 1 violated: "
                f"{a_max}*{eta} = {a_max * eta}"
            )


@dataclass(frozen=True)
class DecoderConfig:
    """Variant selection plus iteration budget and qubit-update mode."""

    variant: str
    l_max: int = 8
    alpha: float | None = None
    gain: GainParams | None = None
    vn_mode: str = "marginal"

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.vn_mode not in VN_MODES:
            raise ValueError(f"vn_mode must be one of {VN_MODES}, got {self.vn_mode!r}")
        if self.l_max < 1:
            raise ValueError("l_max must be at least 1")
        # a value decoding ignores would still enter the config digest
        if self.variant == "sms":
            if self.alpha is None or not 0.0 < self.alpha <= 1.0:
                raise ValueError(f"sms requires alpha in (0, 1], got {self.alpha}")
        elif self.alpha is not None:
            raise ValueError(f"alpha is used by sms only, not {self.variant}")
        if (self.gain is not None) != (self.variant == "sagms"):
            raise ValueError("GainParams are required by sagms and used by it only")


@dataclass
class EdgeMessageState:
    """Per-edge message snapshot (canonical row-major edge order)."""

    vn_to_cn: np.ndarray
    cn_to_vn: np.ndarray
    iteration: int


@dataclass
class DecodeResult:
    """Outcome of one decode: estimate, convergence and per-iteration ratios."""

    success: bool
    e_hat: np.ndarray
    iterations_used: int
    gamma_trace: np.ndarray
    message_trace: list[EdgeMessageState]


@dataclass
class BatchDecodeResult:
    """Per-frame arrays for a batch decode (see ``decode_batch``)."""

    success: np.ndarray
    e_hat: np.ndarray
    iterations: np.ndarray


@dataclass
class IterationRecord:
    """One executed iteration of ``decode_batch``: the batch ``rows`` decoded
    in it, their syndrome ratios ``gamma``, and the messages after its update
    (``vmsg`` check-major, ``cv`` qubit-major) of those rows still active
    after early exit, None when no row is left."""

    iteration: int
    rows: np.ndarray
    gamma: np.ndarray
    vmsg: np.ndarray | None = None
    cv: np.ndarray | None = None


def _marginal_init(prior_llr_value: float) -> float:
    """Initial qubit-to-check message in marginal mode: the marginal rule on an
    empty incoming set, whatever the edge symbol (the commuting set is {I, S})."""
    return math.log1p(math.exp(-prior_llr_value)) + prior_llr_value - math.log(2.0)


def _degree_groups(degrees: np.ndarray):
    """(degree, rows) pairs of a padded layout; None when no row is padded."""
    if (degrees == degrees.max()).all():
        return None
    return [(int(d), np.flatnonzero(degrees == d)) for d in np.unique(degrees)]


def _segment_sum(x, groups):
    """Sum of each row's own slots (last axis), kept as a length-1 axis.

    head + rest reproduces the summation order of the pinned results;
    sum() alone pairs differently.  Rows of a padded layout are summed per
    degree over their own slots only: numpy's pairwise sum groups terms
    differently once padding makes a row 9 or more slots wide.
    """
    if groups is None:
        return x[..., :1] + x[..., 1:].sum(axis=-1, keepdims=True)
    out = np.empty((*x.shape[:-1], 1))
    for d, rows in groups:
        xs = np.take(x, rows, axis=-2)[..., :d]
        out[..., rows, :] = xs[..., :1] + xs[..., 1:].sum(axis=-1, keepdims=True)
    return out


def _decide(l0: float, sums: np.ndarray) -> np.ndarray:
    """(B, n) Pauli codes minimizing 0 for I and l0 + sums[:, e - 1] for
    e = X, Z, Y, where ``sums`` (B, 3, n) adds each qubit's incoming messages
    that anticommute with e; argmin keeps the first minimum on ties."""
    metrics = np.zeros((sums.shape[0], 4, sums.shape[2]))
    metrics[:, 1:] = l0 + sums
    return np.argmin(metrics, axis=1).astype(np.uint8)


def _gain(cfg: DecoderConfig, gamma: np.ndarray, residual: np.ndarray):
    """Min-sum gain: 1 for ms (bp4 ignores it), alpha for sms; for sagms the
    ramp at each frame's ratio ``gamma`` (B,), times eta_unsat on the
    unsatisfied checks of ``residual`` (B, m), shaped (B, m, 1)."""
    if cfg.variant == "sagms":
        p = cfg.gain
        base = linear_gain_fit(p.alpha_max, p.alpha_min, gamma)
        return (base[:, None] * np.where(residual == 1, p.eta_unsat, 1.0))[..., None]
    return cfg.alpha if cfg.variant == "sms" else 1.0


class _Kernel:
    """Vectorized batch decoder over the dense layouts of one Tanner graph.

    Qubit-to-check messages are held check-major as (frames, m, d_c) and
    check-to-qubit messages qubit-major as (frames, n, d_v).  Padding slots
    hold the neutral element of every reduction over them: magnitude +inf
    with sign + (min-sum; phi(inf) = 0 for bp4) in the check view, 0 in the
    qubit view.  Every reduction runs along the last axis within one frame,
    so each frame's arithmetic is independent of the batch composition and
    of any worker partitioning.
    """

    def __init__(self, graph: TannerGraph):
        check_decodable(graph)
        self.g = graph
        self.cn_pad = graph.cn_sym == 0
        self.vn_pad = graph.vn_sym == 0
        self.cn_groups = _degree_groups(graph.cn_degrees)
        self.vn_groups = _degree_groups(graph.vn_degrees)
        # anticommutation masks of candidate errors X, Z, Y vs edge symbols
        self.anti = {e: trace_inner(e, graph.vn_sym).astype(np.float64) for e in (1, 2, 3)}

    def to_qubits(self, cmsg: np.ndarray) -> np.ndarray:
        """Check-major (B, m, d_c) messages gathered qubit-major (B, n, d_v)."""
        flat = cmsg.reshape(len(cmsg), self.g.cn_sym.size)
        cv = np.take(flat, self.g.vn_gather, axis=1)
        cv[:, self.vn_pad] = 0.0
        return cv

    def cn_step(self, vmsg, syn, cfg, gain):
        """Check-node update; min-sum magnitudes are scaled by ``gain``."""
        sgn = np.where(vmsg < 0.0, -1.0, 1.0)
        syn_sign = 1.0 - 2.0 * syn.astype(np.float64)
        ext_sign = (syn_sign * sgn.prod(axis=-1))[..., None] * sgn
        mags = np.abs(vmsg)
        if cfg.variant == "bp4":
            ph = phi_llr(np.maximum(mags, PHI_ARG_FLOOR))
            ext = _segment_sum(ph, self.cn_groups) - ph
            np.clip(ext, PHI_SUM_MIN, PHI_SUM_MAX, out=ext)
            mag = phi_llr(ext)
        else:
            # the first minimum sends the second minimum, the others the first
            first = mags.argmin(axis=-1)[..., None]
            is_first = np.arange(mags.shape[-1]) == first
            min1 = np.take_along_axis(mags, first, axis=-1)
            min2 = np.where(is_first, np.inf, mags).min(axis=-1, keepdims=True)
            mag = gain * np.where(is_first, min2, min1)
        return np.clip(ext_sign * mag, -LLR_CLIP, LLR_CLIP)

    def vn_step(self, cv, l0, cfg):
        """Qubit-node update from qubit-major messages; returns check-major
        messages and the next hard decision, from one pass of per-Pauli sums."""
        sums = np.empty((len(cv), 3, self.g.n))
        b = {}
        for e in (1, 2, 3):
            x = cv * self.anti[e]
            total = _segment_sum(x, self.vn_groups)
            sums[:, e - 1] = total[..., 0]
            if cfg.vn_mode == "marginal":  # in place, to hold one buffer less
                b[e] = np.add(l0, np.subtract(total, x, out=x), out=x)
        if cfg.vn_mode == "additive":
            out = l0 + (_segment_sum(cv, self.vn_groups) - cv)
        else:
            m_x = self.g.vn_sym == 1
            m_y = self.g.vn_sym == 3
            b_self = np.where(m_x, b[1], np.where(m_y, b[3], b[2]))
            b_a1 = np.where(m_x, b[2], b[1])
            b_a2 = np.where(m_y, b[2], b[3])
            out = np.logaddexp(0.0, -b_self) - np.logaddexp(-b_a1, -b_a2)
        np.clip(out, -LLR_CLIP, LLR_CLIP, out=out)
        flat = out.reshape(len(out), self.g.vn_sym.size)
        vmsg = np.take(flat, self.g.cn_gather, axis=1)
        vmsg[:, self.cn_pad] = np.inf
        return vmsg, _decide(l0, sums)


def decode_batch(
    graph: TannerGraph,
    syndromes: np.ndarray,
    prior: ChannelPrior,
    cfg: DecoderConfig,
    *,
    early_stop: bool = True,
    trace: list[IterationRecord] | None = None,
) -> BatchDecodeResult:
    """Decode a batch of syndromes against one shared graph.

    Frames are mutually independent: results are bit-identical for any
    partitioning of the same frames into batches.  ``early_stop=False``
    keeps iterating converged frames to ``l_max`` (reported success,
    iteration count and estimate still reflect the first all-zero
    residual); it exists for fixed-point inspection and the cycle-free
    oracle tests.  A ``trace`` list receives one ``IterationRecord`` per
    executed iteration, and makes the otherwise-skipped final update run so
    that the last record holds the final messages; it never changes a result.
    """
    ker = _Kernel(graph)
    syndromes = np.asarray(syndromes)
    if syndromes.ndim != 2 or syndromes.shape[1] != graph.m:
        raise ValueError(f"syndromes must have shape (B, {graph.m})")
    if not ((syndromes == 0) | (syndromes == 1)).all():
        raise ValueError("syndrome bits must be 0 or 1")
    b_total = syndromes.shape[0]
    l0 = prior.llr

    v0 = _marginal_init(l0) if cfg.vn_mode == "marginal" else l0
    v0 = float(np.clip(v0, -LLR_CLIP, LLR_CLIP))
    vmsg = np.full((b_total, *graph.cn_sym.shape), v0, dtype=np.float64)
    vmsg[:, ker.cn_pad] = np.inf
    e_hat = _decide(l0, np.zeros((b_total, 3, graph.n)))
    syn = syndromes.astype(np.uint8)

    success = np.zeros(b_total, dtype=bool)
    iterations = np.full(b_total, cfg.l_max, dtype=np.int64)
    e_hat_out = np.zeros((b_total, graph.n), dtype=np.uint8)

    active = np.arange(b_total)
    for ell in range(1, cfg.l_max + 1):
        residual = syn ^ graph.syndromes(e_hat)
        unsat = residual.sum(axis=1)
        gamma = unsat / graph.m
        if trace is not None:
            trace.append(IterationRecord(ell, active, gamma))

        zero = unsat == 0
        newly = zero & ~success[active]
        if newly.any():
            idx = active[newly]
            success[idx] = True
            iterations[idx] = ell
            e_hat_out[idx] = e_hat[newly]

        if early_stop and zero.any():
            keep = ~zero
            active = active[keep]
            if active.size == 0:
                break
            vmsg = vmsg[keep]
            syn = syn[keep]
            e_hat = e_hat[keep]
            residual = residual[keep]
            gamma = gamma[keep]

        if ell == cfg.l_max:
            # failure estimate is the hard decision of the final iteration
            pending = ~success[active]
            e_hat_out[active[pending]] = e_hat[pending]
            if trace is None:
                break

        cv = ker.to_qubits(ker.cn_step(vmsg, syn, cfg, _gain(cfg, gamma, residual)))
        vmsg, e_hat = ker.vn_step(cv, l0, cfg)
        if trace is not None:
            trace[-1].vmsg, trace[-1].cv = vmsg, cv

    return BatchDecodeResult(success=success, e_hat=e_hat_out, iterations=iterations)


def decode(
    graph: TannerGraph,
    s,
    prior: ChannelPrior,
    cfg: DecoderConfig,
    *,
    early_stop: bool = True,
) -> DecodeResult:
    """Run the decoder on one syndrome, traced: ``gamma_trace`` holds the
    syndrome ratio of every executed iteration and ``message_trace`` the
    messages (canonical edge order) after every executed update, the final
    one included.  A reported success is re-verified on ``graph``."""
    s = np.asarray(s)
    if s.shape != (graph.m,):
        raise ValueError(f"syndrome must have length m={graph.m}")
    trace: list[IterationRecord] = []
    batch = decode_batch(graph, s[None, :], prior, cfg, early_stop=early_stop, trace=trace)
    success, e_hat = bool(batch.success[0]), batch.e_hat[0]
    if success and (graph.syndromes(e_hat) != s).any():
        raise RuntimeError("internal inconsistency: reported success with nonzero residual")
    edges = graph.cn_sym != 0
    gather = graph.cn_gather[edges]
    return DecodeResult(
        success, e_hat, int(batch.iterations[0]),
        gamma_trace=np.array([r.gamma[0] for r in trace]),
        message_trace=[
            EdgeMessageState(r.vmsg[0][edges], r.cv[0].ravel()[gather], r.iteration)
            for r in trace if r.vmsg is not None
        ],
    )
