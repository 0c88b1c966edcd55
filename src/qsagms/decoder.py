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
exit on all-zero, syndrome ratio, gains, then, for the frames that go on,
the qubit-node messages of the last update, the check-node update and the
per-Pauli sums that are the metrics of the next hard decision.  The first
iteration shares all but its syndrome bits between frames, so its shared
part runs once per call: the decision of zero sums, which depends only on
the prior, and the check-node rule on the prior's messages, whose signed
outputs each frame scales by its gain and syndrome signs.  An optional
trace records each iteration's syndrome ratios, messages and the decision
they give, and is the one inspection path: ``decode_batch`` is the one
entry point, and one syndrome is inspected as a one-row batch.

A batch is decoded in slabs of at most SLAB_ROWS rows through one
workspace that ``decode_batch`` allocates once: every step writes into it
in place, so the iteration loop allocates no message-sized array, and
peak memory does not grow with the batch.  Messages are held batch-last,
slot by slot, so every reduction over a node's slots is elementwise
arithmetic on (nodes, rows) planes: no masked or short-axis numpy call.

Two qubit-node scalarizations are provided.  ``marginal`` (the default)
keeps per-Pauli log-beliefs and emits the commute/anticommute LLR relative
to each edge's own symbol (the refined-BP message of Kuo and Lai, IEEE JSAIT
1, 487 (2020)), taken as one term per qubit and symbol less the edge's own
incoming message; it is exact on cycle-free graphs, propagates joint
beliefs over all four Paulis, and reproduces the published FER anchors.
``additive`` adds scalar messages to the prior, ignoring per-edge symbol
differences (the textbook shorthand; noticeably weaker on quantum codes).
In marginal mode the initial qubit-to-check message is the marginal of the
bare prior (the same rule applied to an empty incoming set); in additive
mode it is the prior LLR itself.

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
from .channel import check_int
from .code import TannerGraph, check_decodable
from .pauli import PAULI_I, PAULI_X, trace_inner

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
        check_int("l_max", self.l_max)
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
class BatchDecodeResult:
    """Per-frame arrays for a batch decode (see ``decode_batch``)."""

    success: np.ndarray
    e_hat: np.ndarray
    iterations: np.ndarray


@dataclass
class IterationRecord:
    """One executed iteration of one slab of ``decode_batch``: the batch
    ``rows`` decoded in it and their syndrome ratios ``gamma``; then, for
    the rows still active after early exit, ``kept`` (None, like the rest,
    when no row is left), copies of the messages after its update,
    ``vmsg`` (kept, m, d_c) and ``cv`` (kept, n, d_v), with each node's
    slots last, and the hard decision ``e_hat`` (kept, n) they give, which
    the next iteration tests (built for the record: untraced, ``vmsg`` is
    built only for rows that go on)."""

    iteration: int
    rows: np.ndarray
    gamma: np.ndarray
    kept: np.ndarray | None = None
    vmsg: np.ndarray | None = None
    cv: np.ndarray | None = None
    e_hat: np.ndarray | None = None


def _marginal_init(prior_llr_value: float) -> float:
    """Initial qubit-to-check message in marginal mode: the marginal rule on an
    empty incoming set, whatever the edge symbol (the commuting set is {I, S})."""
    return math.log1p(math.exp(-prior_llr_value)) + prior_llr_value - math.log(2.0)


def _view(flat: np.ndarray, r: int, *shape: int) -> np.ndarray:
    """The leading part of a flat buffer as a contiguous (*shape, r) array."""
    return flat[: math.prod(shape) * r].reshape(*shape, r)


def _sentinel(flat: np.ndarray, r: int, rows: int, value: float) -> np.ndarray:
    """The leading part of a flat buffer as a (rows + 1, r) gather source,
    its last row set to ``value``: the row padding slots read."""
    x = _view(flat, r, rows + 1)
    x[-1] = value
    return x


def _slot_sum(x, out):
    """Each node's sum over its slots, the planes of ``x``, into the plane
    ``out``: left to right, head first, in an explicit loop, since numpy
    documents no order for ``np.add.reduce`` over an outer axis.  Padding
    slots add exactly 0."""
    np.copyto(out, x[0])
    for p in x[1:]:
        np.add(out, p, out=out)
    return out


def _extrinsic_min(mag, out):
    """out[k] = the minimum of mag[j] over the other slots j != k (+inf for
    a lone slot): suffix minima into ``out``, then a prefix pass over ``mag``
    in place.  Exact, and no argmin: where the minimum is tied, the second
    minimum equals the first."""
    out[-1].fill(np.inf)
    for k in range(len(mag) - 2, -1, -1):  # out[k] = min(mag[k + 1:])
        np.minimum(mag[k + 1], out[k + 1], out=out[k])
    for k in range(1, len(mag)):  # mag[k - 1] = min(mag[:k])
        np.minimum(mag[k - 1], out[k], out=out[k])
        np.minimum(mag[k - 1], mag[k], out=mag[k])
    return out


def _minus_signs(vmsg, syn, neg, parity):
    """Into ``neg``, where each check-node output of the (d_c, m, r) messages
    ``vmsg`` is negative: the observed syndrome bit (``syn``, (m, r)) and
    the other slots' signs hold an odd number of minuses; ``parity`` (m, r)
    is scratch."""
    np.less(vmsg, 0.0, out=neg)
    np.logical_xor.reduce(neg, axis=0, out=parity)
    np.logical_xor(parity, syn, out=parity)
    return np.not_equal(neg, parity, out=neg)


def _cn_magnitudes(mag, out, variant: str, total):
    """Into ``out``, the check-node output magnitudes of the incoming
    magnitudes ``mag`` (d_c, m, r), which it overwrites: bp4's phi rule,
    with ``total`` (m, r) as scratch, else the extrinsic minimum, before
    any gain."""
    if variant != "bp4":
        return _extrinsic_min(mag, out)
    phi_llr(np.maximum(mag, PHI_ARG_FLOOR, out=mag), out=mag)
    np.subtract(_slot_sum(mag, total), mag, out=out)
    np.clip(out, PHI_SUM_MIN, PHI_SUM_MAX, out=out)
    return phi_llr(out, out=out)


def _gain(cfg: DecoderConfig, gamma: np.ndarray, residual: np.ndarray):
    """Min-sum gain: 1 for ms (bp4 ignores it), alpha for sms; for sagms the
    ramp at each frame's ratio ``gamma`` (r,), times eta_unsat on the
    unsatisfied checks of ``residual`` (r, m), as an (m, r) plane."""
    if cfg.variant == "sagms":
        p = cfg.gain
        base = linear_gain_fit(p.alpha_max, p.alpha_min, gamma)
        return np.multiply(base, np.where(residual.T == 1, p.eta_unsat, 1.0), order="C")
    return cfg.alpha if cfg.variant == "sms" else 1.0


class _Kernel:
    """Vectorized batch decoder over the dense layouts of one Tanner graph,
    with a workspace for up to ``rows`` frames.

    Messages are held batch-last in the graph's slot planes: qubit-to-check
    as (d_c, m, r) and check-to-qubit as (d_v, n, r), for r active frames.
    Each slot of every node is a contiguous (m, r) or (n, r) plane, so a
    reduction over a node's slots is elementwise arithmetic on planes, one
    frame per column: a frame's arithmetic is independent of the batch
    composition and of any worker partitioning.  Padding slots hold the
    neutral element of every reduction over them: magnitude +inf with sign
    + in the check view (phi(inf) = 0 for bp4), 0 in the qubit view.  Layout
    gathers are row takes of r-vectors by the graph's tables, and a padding
    slot reads a sentinel row after the source view.  The per-Pauli sums
    read the qubit view's slot planes as views where every slot of a plane
    anticommutes with the Pauli, and gather only the mixed planes.

    The workspace is flat buffers allocated here once.  Every step writes
    into and returns contiguous views of them sized for the current r,
    valid until the same step runs again, so one kernel serves one thread.
    Between iterations it holds the qubit view and the per-Pauli sums of
    the last decision, and builds messages from them for rows that go on.
    """

    def __init__(self, graph: TannerGraph, rows: int):
        check_decodable(graph)
        self.g = graph
        n, m = graph.n, graph.m
        self.check, self.qubit = graph.cn_sym.shape, graph.vn_sym.shape
        sym = graph.vn_sym.astype(np.intp)
        # the slot planes each candidate error X, Z, Y sums, in slot order:
        # (t, None) for a plane whose every slot anticommutes with it, read
        # as a view, and (t, rows) for a mixed plane, gathered from the qubit
        # view with the zero row after it where a slot commutes; a plane
        # where no slot anticommutes adds only zeros and is left out
        slots = np.arange(sym.size).reshape(sym.shape)
        self.terms = []
        for e in (1, 2, 3):
            anti = trace_inner(e, sym) == 1
            self.terms.append([
                (t, None if anti[t].all() else np.where(anti[t], slots[t], sym.size))
                for t in range(len(sym)) if anti[t].any()
            ])
        # per edge of symbol s, the row of s in the (4n, r) metrics; padding
        # slots read a row never used
        self.own_at = sym * n + np.arange(n)
        self.sym_max = int(graph.vn_sym.max())  # own_at reads no metrics row above it
        # the qubit view's own zero row reads the check view's sentinel row
        self.to_qubit = np.append(graph.to_qubit, graph.cn_sym.size)
        # the workspace: message buffers in each view, with room for a
        # sentinel row, then planes
        check, qubit_view = (graph.cn_sym.size + 1) * rows, (sym.size + 1) * rows
        self.vmsg, self.sign, self.cmsg = (np.empty(check) for _ in range(3))
        self.neg = np.empty(check, dtype=bool)
        self.cv, self.qmsg = np.empty(qubit_view), np.empty(qubit_view)
        self.parity = np.empty(m * rows, dtype=bool)
        self.sums, self.metrics = (np.empty(4 * n * rows) for _ in range(2))  # compact swaps them
        self.planes = np.empty(3 * n * rows)
        self.best, self.later = np.empty(n * rows), np.empty(3 * n * rows, dtype=bool)
        self.e_hat = np.empty(n * rows, dtype=np.uint8)

    def start(self, l0: float, v0: float, variant: str) -> tuple[np.ndarray, np.ndarray]:
        """The part of the first iteration every row shares, once per call.

        Its decision is that of zero sums, X on every qubit where l0 < 0
        and else I, as ``decide`` gives; returned as an (n, 1) column with
        its (m,) syndrome.  Its update sends v0 on every real check slot
        (+inf on padding), so ``cn_step``'s rules on that one column give
        each check slot's output magnitude and its sign under syndrome bit
        0, kept as their unsaturated product ``out0``, which ``first_cn``
        scales by each row's gain and syndrome sign.
        """
        g = self.g
        e0 = np.full(g.n, PAULI_X if l0 < 0 else PAULI_I, dtype=np.uint8)
        vmsg = np.where(g.cn_sym > 0, v0, np.inf)[..., None]
        neg = _minus_signs(vmsg, 0, np.empty(vmsg.shape, bool), np.empty((g.m, 1), bool))
        mag = _cn_magnitudes(np.abs(vmsg), np.empty_like(vmsg), variant, np.empty((g.m, 1)))
        self.out0 = np.multiply(mag, np.where(neg, -1.0, 1.0))
        self.top0 = np.abs(self.out0).max()  # +inf where a check has one slot
        return e0[:, None], g.syndromes(e0)

    def decide(self, sums: np.ndarray, l0: float) -> np.ndarray:
        """(n, r) Pauli codes minimizing 0 for I and l0 + sums[e - 1] for
        e = X, Z, Y, where ``sums`` (3, n, r) adds each qubit's incoming
        messages that anticommute with e; the first minimum wins ties, as
        argmin's would.  The metrics stay in ``self.metrics``."""
        r, n = sums.shape[-1], self.g.n
        metrics, best = _view(self.metrics, r, 4, n), _view(self.best, r, n)
        metrics[0].fill(0.0)
        np.add(l0, sums, out=metrics[1:])
        np.minimum.reduce(metrics, axis=0, out=best)
        # later[e]: none of metrics[:e + 1] is the minimum; the code counts them
        later = _view(self.later, r, 3, n)
        np.not_equal(metrics[:3], best, out=later)
        np.logical_and(later[0], later[1], out=later[1])
        np.logical_and(later[1], later[2], out=later[2])
        return np.add.reduce(later.view(np.uint8), axis=0, out=_view(self.e_hat, r, n))

    def compact(self, cv: np.ndarray, sums: np.ndarray, keep: np.ndarray):
        """The ``keep`` columns of ``cv``, with its zero row, and ``sums``,
        moved into the qmsg and metrics buffers, dead until the next message
        step, which then become the cv and sums buffers."""
        at, q, n = np.flatnonzero(keep), self.to_qubit.size, self.g.n
        out = _view(self.qmsg, at.size, q)
        np.take(_view(self.cv, cv.shape[-1], q), at, axis=-1, out=out, mode="clip")
        sums = np.take(sums, at, axis=-1, out=_view(self.metrics, at.size, 3, n), mode="clip")
        self.cv, self.qmsg, self.sums, self.metrics = self.qmsg, self.cv, self.metrics, self.sums
        return out[:-1].reshape(*self.qubit, at.size), sums

    def to_qubits(self, cmsg: np.ndarray) -> np.ndarray:
        """The (d_c, m, r) messages ``cn_step`` returned, read from its
        buffer with a zero row after them, gathered into the (d_v, n, r)
        qubit view, which has a zero row after it too."""
        r = cmsg.shape[-1]
        src = _sentinel(self.cmsg, r, math.prod(self.check), 0.0)  # cmsg, then 0
        cv = _view(self.cv, r, self.to_qubit.size)
        np.take(src, self.to_qubit, axis=0, out=cv, mode="clip")
        return cv[:-1].reshape(*self.qubit, r)

    def cn_step(self, vmsg, syn, cfg, gain):
        """Check-node update of ``vmsg``, which it overwrites; min-sum
        magnitudes are scaled by ``gain`` (a scalar or an (m, r) plane).
        The output is negative where the observed syndrome bit (``syn``,
        (m, r)) and the other messages' signs hold an odd number of minuses."""
        r = vmsg.shape[-1]
        neg = _view(self.neg, r, *self.check)
        _minus_signs(vmsg, syn, neg, _view(self.parity, r, self.g.m))
        out, sign = _view(self.cmsg, r, *self.check), _view(self.sign, r, *self.check)
        _cn_magnitudes(np.abs(vmsg, out=vmsg), out, cfg.variant, sign[0])
        if cfg.variant != "bp4":
            np.multiply(out, gain, out=out)
        # x * -1.0 is -x, zeros and infinities included
        np.add(np.multiply(neg, -2.0, out=sign), 1.0, out=sign)
        np.multiply(out, sign, out=out)
        return np.clip(out, -LLR_CLIP, LLR_CLIP, out=out)

    def first_cn(self, syn, gain):
        """The first check-node update, of the v0 messages ``start`` took:
        ``out0`` times ``gain`` (1 for bp4), negated where the observed
        syndrome bit (``syn``, (m, r)) is 1, then saturated.  That is
        ``cn_step``'s (magnitude * gain) * (-1 or 1) bit for bit: a product
        is rounded on its factors' magnitudes and signed by their signs."""
        r = syn.shape[-1]
        signed = np.multiply(np.subtract(1.0, np.multiply(syn, 2.0)), gain)  # (m, r)
        out = np.multiply(self.out0, signed, out=_view(self.cmsg, r, *self.check))
        if not self.top0 * np.max(gain) <= LLR_CLIP:  # else no product reaches the clip
            np.clip(out, -LLR_CLIP, LLR_CLIP, out=out)
        return out

    def vn_decide(self, cv: np.ndarray, l0: float):
        """The decision step of the qubit-node update: the per-Pauli sums of
        the qubit view ``to_qubits`` returned and their hard decision."""
        r, n = cv.shape[-1], self.g.n
        sums, out = _view(self.sums, r, 3, n), _view(self.qmsg, r, *self.qubit)
        products = _view(self.cv, r, self.to_qubit.size)  # cv and its zero row
        for e, terms in enumerate(self.terms):
            planes = [
                cv[t] if at is None else np.take(products, at, axis=0, out=out[t], mode="clip")
                for t, at in terms
            ]
            if planes:
                _slot_sum(planes, sums[e])
            else:
                sums[e].fill(0.0)
        return sums, self.decide(sums, l0)

    def vn_messages(self, cv: np.ndarray, sums: np.ndarray, l0: float, cfg) -> np.ndarray:
        """The message step of the qubit-node update: check-view messages
        from the qubit view ``cv`` and the ``sums`` of its decision.

        In marginal mode an edge of symbol s with incoming message cv sends
        ln(1 + exp(-(l0 + S_s))) - ln(exp(cv - l0 - S_a) + exp(cv - l0 - S_b)),
        S_a and S_b its qubit's sums of the two Paulis anticommuting with s.
        That is K[s] - cv, K[s] = (ln(1 + exp(-(l0 + S_s))) - ln(exp(-S_a) +
        exp(-S_b))) + l0, whose log-add-exps run once per qubit and symbol."""
        r, n = cv.shape[-1], self.g.n
        out, planes = _view(self.qmsg, r, *self.qubit), _view(self.planes, r, 3, n)
        if cfg.vn_mode == "additive":
            total = _slot_sum(cv, planes[0])
            np.add(l0, np.subtract(total, cv, out=out), out=out)
        else:
            metrics = _view(self.metrics, r, 4, n)
            k = metrics[1 : self.sym_max + 1]  # K of X, Z, Y at rows 1-3, as own_at reads
            neg = np.negative(sums, out=planes)
            for s in range(self.sym_max):
                np.logaddexp(*(neg[e] for e in range(3) if e != s), out=k[s])
            own = np.add(l0, sums[: self.sym_max], out=planes[: self.sym_max])
            np.logaddexp(0.0, np.negative(own, out=own), out=own)
            np.add(np.subtract(own, k, out=k), l0, out=k)
            np.take(metrics.reshape(-1, r), self.own_at, axis=0, out=out, mode="clip")
            np.subtract(out, cv, out=out)
        np.clip(out, -LLR_CLIP, LLR_CLIP, out=out)
        return self.to_checks(r)

    def to_checks(self, r: int) -> np.ndarray:
        """The (d_v, n, r) messages in the qmsg buffer gathered into the
        (d_c, m, r) check view; padding slots read a +inf sentinel row."""
        qmsg = _sentinel(self.qmsg, r, math.prod(self.qubit), np.inf)
        vmsg = _view(self.vmsg, r, *self.check)
        return np.take(qmsg, self.g.to_check, axis=0, out=vmsg, mode="clip")


def decode_batch(
    graph: TannerGraph,
    syndromes: np.ndarray,
    l0: float,
    cfg: DecoderConfig,
    *,
    early_stop: bool = True,
    trace: list[IterationRecord] | None = None,
) -> BatchDecodeResult:
    """Decode a batch of syndromes against one shared graph.

    ``l0`` is the finite channel prior LLR, as ``prior_llr(epsilon0)``
    returns it.  Frames are mutually independent: results are bit-identical
    for any partitioning of the same frames into batches.  The batch runs in
    slabs of at most SLAB_ROWS rows through one workspace, allocated once
    per call.  Qubit-to-check messages are built only for the frames whose
    decision was tested and goes on.  ``early_stop=False`` keeps iterating
    converged frames to ``l_max`` (reported success, iteration count and
    estimate still reflect the first all-zero residual); it exists for
    fixed-point inspection and the cycle-free oracle tests.  A ``trace``
    list receives one ``IterationRecord`` per executed iteration of each
    slab, slab after slab, with the messages of every update built for it,
    and makes the otherwise-skipped final update run so that the last
    record of a slab holds its final messages; it never changes a result.
    """
    if not math.isfinite(l0):
        raise ValueError(f"l0 must be finite, got {l0}")
    syndromes = np.asarray(syndromes)
    if syndromes.ndim != 2 or syndromes.shape[1] != graph.m:
        raise ValueError(f"syndromes must have shape (B, {graph.m})")
    if not ((syndromes == 0) | (syndromes == 1)).all():
        raise ValueError("syndrome bits must be 0 or 1")
    b_total = syndromes.shape[0]
    ker = _Kernel(graph, min(b_total, SLAB_ROWS))
    v0 = _marginal_init(l0) if cfg.vn_mode == "marginal" else l0
    e0, s0 = ker.start(l0, float(np.clip(v0, -LLR_CLIP, LLR_CLIP)), cfg.variant)

    success = np.zeros(b_total, dtype=bool)
    iterations = np.full(b_total, cfg.l_max, dtype=np.int64)
    e_hat_out = np.zeros((b_total, graph.n), dtype=np.uint8)

    for at in range(0, b_total, SLAB_ROWS):
        syn = syndromes[at : at + SLAB_ROWS].astype(np.uint8)
        active = np.arange(at, at + len(syn))
        e_hat, cv, sums = np.broadcast_to(e0, (graph.n, len(syn))), None, None
        for ell in range(1, cfg.l_max + 1):
            residual = syn ^ (s0 if ell == 1 else graph.syndromes(e_hat.T))
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
                e_hat_out[idx] = e_hat[:, newly].T

            if early_stop and zero.any():
                keep = ~zero
                active = active[keep]
                if active.size == 0:
                    break
                if cv is not None:
                    cv, sums = ker.compact(cv, sums, keep)
                syn, e_hat, residual = syn[keep], e_hat[:, keep], residual[keep]
                gamma = gamma[keep]

            if ell == cfg.l_max:
                # failure estimate is the hard decision of the final iteration
                pending = ~success[active]
                e_hat_out[active[pending]] = e_hat[:, pending].T
                if trace is None:
                    break

            gain = _gain(cfg, gamma, residual)
            if cv is None:
                cmsg = ker.first_cn(syn.T, gain)
            else:
                cmsg = ker.cn_step(ker.vn_messages(cv, sums, l0, cfg), syn.T, cfg, gain)
            cv = ker.to_qubits(cmsg)
            sums, e_hat = ker.vn_decide(cv, l0)
            if trace is not None:  # (rows, node, slot) copies: the workspace is rewritten
                rec, vmsg = trace[-1], ker.vn_messages(cv, sums, l0, cfg)
                rec.kept = active
                rec.vmsg, rec.cv, rec.e_hat = (a.T.copy() for a in (vmsg, cv, e_hat))

    return BatchDecodeResult(success=success, e_hat=e_hat_out, iterations=iterations)
