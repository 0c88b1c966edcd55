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

A batch is decoded in slabs of at most SLAB_ROWS rows through one
workspace that ``decode_batch`` allocates once: every step writes into it
in place, so the iteration loop allocates no message-sized array, and
peak memory does not grow with the batch.

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

#: Most rows one pass of the kernel decodes: ``decode_batch`` runs a batch in
#: slabs of this many rows through one workspace.  At 128 rows a message
#: array of the [[126,28]] code (1.3 MB) fits a 2 MB per-core L2 cache.
#: Slabs never change a result.
SLAB_ROWS = 128


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
    """One executed iteration of one slab of ``decode_batch``: the batch
    ``rows`` decoded in it, their syndrome ratios ``gamma``, and copies of
    the messages after its update (``vmsg`` check-major, ``cv`` qubit-major)
    of those rows still active after early exit, None when no row is left."""

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
    """(degree, rows mask) pairs of a padded layout, each mask shaped (k, 1)
    to select rows of a (..., k, 1) array; None when no row is padded."""
    if (degrees == degrees.max()).all():
        return None
    return [(int(d), (degrees == d)[:, None]) for d in np.unique(degrees)]


def _pad_mask(sym: np.ndarray):
    """Padding slots of a dense layout; None when it has none."""
    pad = sym == 0
    return pad if pad.any() else None


def _segment_sum(x, groups, out, scratch):
    """Sum of each row's own slots (last axis) into ``out``, shaped (..., 1).

    head + rest reproduces the summation order of the pinned results;
    sum() alone pairs differently.  Rows of a padded layout are summed per
    degree over their own slots only: numpy's pairwise sum groups terms
    differently once padding makes a row 9 or more slots wide.  Each degree
    sums every row into ``scratch`` and keeps the rows of that degree.
    """
    if groups is None:
        np.sum(x[..., 1:], axis=-1, keepdims=True, out=out)
        return np.add(x[..., :1], out, out=out)
    for d, rows in groups:
        np.sum(x[..., 1:d], axis=-1, keepdims=True, out=scratch)
        np.add(x[..., :1], scratch, out=scratch)
        np.copyto(out, scratch, where=rows)
    return out


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
    """Vectorized batch decoder over the dense layouts of one Tanner graph,
    with a workspace for up to ``rows`` frames.

    Qubit-to-check messages are held check-major as (frames, m, d_c) and
    check-to-qubit messages qubit-major as (frames, n, d_v).  Padding slots
    hold the neutral element of every reduction over them: magnitude +inf
    with sign + (min-sum; phi(inf) = 0 for bp4) in the check view, 0 in the
    qubit view.  Every reduction runs along the last axis within one frame,
    so each frame's arithmetic is independent of the batch composition and
    of any worker partitioning.

    Every step writes into the workspace, allocated here once, and returns
    views of its leading rows: a step's result stays valid until the same
    step runs again.  So one kernel serves one thread.
    """

    def __init__(self, graph: TannerGraph, rows: int):
        check_decodable(graph)
        self.g = graph
        n, m = graph.n, graph.m
        self.cn_pad = _pad_mask(graph.cn_sym)
        self.vn_pad = _pad_mask(graph.vn_sym)
        self.cn_groups = _degree_groups(graph.cn_degrees)
        self.vn_groups = _degree_groups(graph.vn_degrees)
        self.slots = np.arange(graph.cn_sym.shape[1])
        # anticommutation masks of candidate errors X, Z, Y vs edge symbols
        self.anti = [trace_inner(e, graph.vn_sym).astype(np.float64) for e in (1, 2, 3)]
        # per edge of symbol s, the flat (Pauli, qubit) position of s in the
        # (rows, 4, n) metrics and of the two Paulis anticommuting with s in
        # the (rows, 3, n) sums; padding slots read entries never used
        sym = graph.vn_sym.astype(np.intp)
        qubit = np.arange(n)[:, None]
        self.own_at = sym * n + qubit
        self.other_at = (
            np.where(sym == 1, 1, 0) * n + qubit,
            np.where(sym == 3, 1, 2) * n + qubit,
        )
        # the workspace: message-shaped buffers in each view, then per-row
        # scratch ((rows, m, 1) and (rows, n, 1)), sums and metrics
        check, qubit_view = (rows, *graph.cn_sym.shape), (rows, *graph.vn_sym.shape)
        self.vmsg, self.spare, self.cmsg = (np.empty(check) for _ in range(3))
        self.neg, self.is_first = (np.empty(check, dtype=bool) for _ in range(2))
        self.cv, self.qmsg, self.b1, self.b2 = (np.empty(qubit_view) for _ in range(4))
        self.c1, self.c2 = np.empty((rows, m, 1)), np.empty((rows, m, 1))
        self.first = np.empty((rows, m, 1), dtype=np.intp)
        self.parity = np.empty((rows, m), dtype=bool)
        self.v1, self.v2 = np.empty((rows, n, 1)), np.empty((rows, n, 1))
        self.sums = np.empty((rows, 3, n))
        self.metrics = np.zeros((rows, 4, n))  # column 0, for I, stays 0
        self.choice = np.empty((rows, n), dtype=np.intp)
        self.e_hat = np.empty((rows, n), dtype=np.uint8)

    def start(self, rows: int, v0: float, l0: float):
        """Initial messages ``v0`` and the hard decision of zero sums."""
        vmsg = self.vmsg[:rows]
        vmsg.fill(v0)
        if self.cn_pad is not None:
            np.copyto(vmsg, np.inf, where=self.cn_pad)
        sums = self.sums[:rows]
        sums.fill(0.0)
        return vmsg, self.decide(sums, l0)

    def decide(self, sums: np.ndarray, l0: float) -> np.ndarray:
        """(r, n) Pauli codes minimizing 0 for I and l0 + sums[:, e - 1] for
        e = X, Z, Y, where ``sums`` (r, 3, n) adds each qubit's incoming
        messages that anticommute with e; argmin keeps the first minimum on
        ties.  The metrics stay in ``self.metrics``."""
        r = len(sums)
        metrics, choice, e_hat = self.metrics[:r], self.choice[:r], self.e_hat[:r]
        np.add(l0, sums, out=metrics[:, 1:])
        np.argmin(metrics, axis=1, out=choice)
        np.copyto(e_hat, choice, casting="unsafe")
        return e_hat

    def compact(self, vmsg: np.ndarray, keep: np.ndarray) -> np.ndarray:
        """The ``keep`` rows of ``vmsg``, moved into the spare buffer, which
        then becomes the message buffer."""
        out = self.spare[: np.count_nonzero(keep)]
        np.take(vmsg, np.flatnonzero(keep), axis=0, out=out, mode="clip")
        self.vmsg, self.spare = self.spare, self.vmsg
        return out

    def to_qubits(self, cmsg: np.ndarray) -> np.ndarray:
        """Check-major (r, m, d_c) messages gathered qubit-major (r, n, d_v)."""
        r = len(cmsg)
        cv = self.cv[:r]
        np.take(cmsg.reshape(r, -1), self.g.vn_gather, axis=1, out=cv, mode="clip")
        if self.vn_pad is not None:
            np.copyto(cv, 0.0, where=self.vn_pad)
        return cv

    def cn_step(self, vmsg, syn, cfg, gain):
        """Check-node update; min-sum magnitudes are scaled by ``gain``.

        The output is negative where the observed syndrome bit and the signs
        of the other messages of the check hold an odd number of minuses."""
        r = len(vmsg)
        mag, neg, parity = self.cmsg[:r], self.neg[:r], self.parity[:r]
        np.less(vmsg, 0.0, out=neg)
        np.logical_xor.reduce(neg, axis=-1, out=parity)
        np.logical_xor(parity, syn, out=parity)
        np.not_equal(neg, parity[..., None], out=neg)
        np.abs(vmsg, out=mag)
        if cfg.variant == "bp4":
            total = self.c1[:r]
            phi_llr(np.maximum(mag, PHI_ARG_FLOOR, out=mag), out=mag)
            _segment_sum(mag, self.cn_groups, total, self.c2[:r])
            np.subtract(total, mag, out=mag)
            np.clip(mag, PHI_SUM_MIN, PHI_SUM_MAX, out=mag)
            phi_llr(mag, out=mag)
        else:
            # the first minimum sends the second minimum, the others the first
            first, is_first = self.first[:r], self.is_first[:r]
            min1, min2 = self.c1[:r], self.c2[:r]
            np.argmin(mag, axis=-1, out=first, keepdims=True)
            np.min(mag, axis=-1, out=min1, keepdims=True)
            np.equal(self.slots, first, out=is_first)
            np.copyto(mag, np.inf, where=is_first)
            np.min(mag, axis=-1, out=min2, keepdims=True)
            np.copyto(mag, np.multiply(gain, min1, out=min1))
            np.copyto(mag, np.multiply(gain, min2, out=min2), where=is_first)
        np.negative(mag, out=mag, where=neg)
        return np.clip(mag, -LLR_CLIP, LLR_CLIP, out=mag)

    def vn_step(self, cv, l0, cfg):
        """Qubit-node update from qubit-major messages; returns check-major
        messages and the next hard decision, from one pass of per-Pauli sums.

        In marginal mode the belief in an edge's own symbol s leaves out no
        message (the edge's own commutes with s), so it is its qubit's
        decision metric for s, and its log-add-exp is taken once per qubit."""
        r = len(cv)
        sums, out, v1 = self.sums[:r], self.qmsg[:r], self.v1[:r]
        for e in range(3):
            np.multiply(cv, self.anti[e], out=out)
            _segment_sum(out, self.vn_groups, sums[:, e, :, None], v1)
        e_hat = self.decide(sums, l0)
        if cfg.vn_mode == "additive":
            total = _segment_sum(cv, self.vn_groups, self.v2[:r], v1)
            np.add(l0, np.subtract(total, cv, out=out), out=out)
        else:
            metrics = self.metrics[:r, 1:]
            np.logaddexp(0.0, np.negative(metrics, out=metrics), out=metrics)
            np.take(self.metrics[:r].reshape(r, -1), self.own_at, axis=1, out=out, mode="clip")
            # -(l0 + (sum - cv)) of the other two Paulis, as (cv - sum) - l0
            flat = sums.reshape(r, -1)
            b1, b2 = self.b1[:r], self.b2[:r]
            for b, at in zip((b1, b2), self.other_at):
                np.take(flat, at, axis=1, out=b, mode="clip")
                np.subtract(np.subtract(cv, b, out=b), l0, out=b)
            np.subtract(out, np.logaddexp(b1, b2, out=b1), out=out)
        np.clip(out, -LLR_CLIP, LLR_CLIP, out=out)
        vmsg = self.vmsg[:r]
        np.take(out.reshape(r, -1), self.g.cn_gather, axis=1, out=vmsg, mode="clip")
        if self.cn_pad is not None:
            np.copyto(vmsg, np.inf, where=self.cn_pad)
        return vmsg, e_hat


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
    partitioning of the same frames into batches.  The batch runs in slabs
    of at most SLAB_ROWS rows through one workspace, allocated once per
    call.  ``early_stop=False`` keeps iterating converged frames to
    ``l_max`` (reported success, iteration count and estimate still reflect
    the first all-zero residual); it exists for fixed-point inspection and
    the cycle-free oracle tests.  A ``trace`` list receives one
    ``IterationRecord`` per executed iteration of each slab, slab after
    slab, and makes the otherwise-skipped final update run so that the last
    record of a slab holds its final messages; it never changes a result.
    """
    syndromes = np.asarray(syndromes)
    if syndromes.ndim != 2 or syndromes.shape[1] != graph.m:
        raise ValueError(f"syndromes must have shape (B, {graph.m})")
    b_total = syndromes.shape[0]
    ker = _Kernel(graph, min(b_total, SLAB_ROWS))
    if not ((syndromes == 0) | (syndromes == 1)).all():
        raise ValueError("syndrome bits must be 0 or 1")
    l0 = prior.llr
    v0 = _marginal_init(l0) if cfg.vn_mode == "marginal" else l0
    v0 = float(np.clip(v0, -LLR_CLIP, LLR_CLIP))

    success = np.zeros(b_total, dtype=bool)
    iterations = np.full(b_total, cfg.l_max, dtype=np.int64)
    e_hat_out = np.zeros((b_total, graph.n), dtype=np.uint8)

    for at in range(0, b_total, SLAB_ROWS):
        syn = syndromes[at : at + SLAB_ROWS].astype(np.uint8)
        active = np.arange(at, at + len(syn))
        vmsg, e_hat = ker.start(len(syn), v0, l0)
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
                vmsg = ker.compact(vmsg, keep)
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
            if trace is not None:  # copies: the workspace is rewritten
                trace[-1].vmsg, trace[-1].cv = vmsg.copy(), cv.copy()

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
