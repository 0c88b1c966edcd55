"""Independent oracles used to cross-check the production code paths.

Everything here is deliberately written against dense representations and
brute-force enumeration, sharing no machinery with the package internals:
single-Pauli composition and the symplectic pair -> code map,
dense GF(2) bit-plane syndrome/orthogonality/rank, a pairwise
row-intersection commutation check, polynomial-gcd dimension
counting for generalized bicycle codes, orbit keys taken one rotation
at a time, a frame-by-frame stop rule,
exhaustive 4^n posterior enumeration for small codes, and a scalar
reference decoder composed from the per-node update rules below (to
cross-check the vectorized kernel; it takes only each node's slot order
from the Tanner graph).
"""

from __future__ import annotations

import itertools

import numpy as np

from qsagms.analysis import phi_llr
from qsagms.code import tanner_graph
from qsagms.decoder import (
    LLR_CLIP,
    PHI_ARG_FLOOR,
    PHI_SUM_MAX,
    PHI_SUM_MIN,
    VARIANTS,
    VN_MODES,
    DecoderConfig,
    GainParams,
    _marginal_init,
)
from qsagms.pauli import trace_inner


# -- single-Pauli arithmetic ------------------------------------------------


def from_bits(x, z):
    """Pauli code from a symplectic pair (inverse of x_bit/z_bit)."""
    return (x & 1) | ((z & 1) << 1)


def pauli_compose(a, b):
    """Group composition modulo global phase: XOR of symplectic pairs."""
    return a ^ b


# -- dense GF(2) bit-plane oracles ------------------------------------------


def dense_planes(H) -> tuple[np.ndarray, np.ndarray]:
    """(m, n) X and Z bit planes of a sparse check matrix."""
    hx = np.zeros((H.m, H.n), dtype=np.uint8)
    hz = np.zeros((H.m, H.n), dtype=np.uint8)
    for i, row in enumerate(H.rows):
        for j, sym in row:
            hx[i, j] = sym & 1
            hz[i, j] = sym >> 1
    return hx, hz


def syndrome_dense(H, e) -> np.ndarray:
    """Syndrome via dense symplectic matrix-vector product over GF(2)."""
    hx, hz = dense_planes(H)
    e = np.asarray(e, dtype=np.uint8)
    ex, ez = e & 1, e >> 1
    return ((hx @ ez + hz @ ex) % 2).astype(np.uint8)


def orthogonal_dense(H) -> bool:
    """Row commutation via the dense symplectic Gram matrix."""
    hx, hz = dense_planes(H)
    gram = (hx.astype(np.int64) @ hz.T + hz.astype(np.int64) @ hx.T) % 2
    return not gram.any()


def orthogonal_pairs(H) -> bool:
    """Row commutation by sparse column intersection of every row pair:
    the XOR over shared columns of the symbol trace inner products."""
    maps = [dict(row) for row in H.rows]
    for i, row_i in enumerate(maps):
        for row_k in maps[i + 1 :]:
            acc = 0
            for j, sym in row_i.items():
                other = row_k.get(j)
                if other is not None:
                    acc ^= trace_inner(sym, other)
            if acc:
                return False
    return True


def gf2_rank_dense(M: np.ndarray) -> int:
    """GF(2) rank by dense Gaussian elimination (independent of the packed
    integer elimination used in production)."""
    M = (np.asarray(M) % 2).astype(np.uint8).copy()
    rows, cols = M.shape
    r = 0
    for c in range(cols):
        pivots = np.nonzero(M[r:, c])[0]
        if pivots.size == 0:
            continue
        p = r + int(pivots[0])
        M[[r, p]] = M[[p, r]]
        elim = np.nonzero(M[:, c])[0]
        for i in elim:
            if i != r:
                M[i] ^= M[r]
        r += 1
        if r == rows:
            break
    return r


def code_dimension_dense(H) -> int:
    """k = n - rank of the dense [X | Z] expansion."""
    hx, hz = dense_planes(H)
    return H.n - gf2_rank_dense(np.hstack([hx, hz]))


# -- polynomial oracle for generalized bicycle dimensions --------------------


def _gf2_poly_mod(a: int, b: int) -> int:
    db = b.bit_length()
    while a and a.bit_length() >= db:
        a ^= b << (a.bit_length() - db)
    return a


def _gf2_poly_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, _gf2_poly_mod(a, b)
    return a


def gb_dimension_from_gcd(ell: int, a_exps, b_exps) -> int:
    """k = 2 * deg gcd(a(x), b(x), x^ell - 1) over GF(2)."""
    a = sum(1 << e for e in a_exps)
    b = sum(1 << e for e in b_exps)
    ring = (1 << ell) | 1
    g = _gf2_poly_gcd(_gf2_poly_gcd(a, b), ring)
    return 2 * (g.bit_length() - 1)


def orbit_key(syndrome, ell: int) -> tuple[int, ...]:
    """Canonical form of a syndrome of a generalized bicycle code on ``ell``
    under joint rotations of its two ell-bit halves: the least of its ell
    rotations, each a tuple of bits."""
    halves = np.asarray(syndrome).reshape(2, ell)
    return min(tuple(np.roll(halves, t, axis=1).ravel().tolist()) for t in range(ell))


def orbit_keys(syndromes: np.ndarray, ell: int) -> np.ndarray:
    """The orbit keys of ``harness._orbit_keys``, one rotation at a time:
    for each t, the rows' rotation t as big-endian uint64 words (two source
    words shifted together, the bits past ell masked off) replaces the best
    so far where it is lexicographically smaller.  A (rows,) array of void
    scalars, byte for byte the package's."""
    rows, width = len(syndromes), -(-ell // 64)
    doubled = np.zeros((rows, 2, 128 * width), dtype=np.uint8)
    doubled[..., :ell] = doubled[..., ell : 2 * ell] = syndromes.reshape(rows, 2, ell)
    words = np.packbits(doubled, axis=-1).view(">u8").astype(np.uint64)
    in_ell = ~np.uint64(0) << np.uint64(64 * width - ell)  # of the last word
    best = np.full((rows, 2 * width), ~np.uint64(0))
    for t in range(ell):
        q, s = divmod(t, 64)
        head, tail = words[..., q : q + width], words[..., q + 1 : q + width + 1]
        rotated = (head << s) | (tail >> (64 - s))
        rotated[..., -1] &= in_ell
        rotated = rotated.reshape(rows, 2 * width)
        less = np.zeros(rows, dtype=bool)  # (half 0 words, half 1 words) < best
        for a, b in zip(rotated.T[::-1], best.T[::-1]):
            less = (a < b) | ((a == b) & less)
        np.copyto(best, rotated, where=less[:, None])
    return best.view(f"V{16 * width}").ravel()


def stop_rule_counts(target: int, max_frames: int, batches) -> tuple[int, ...]:
    """(frames, failures, iterations, sampled, decoded) of a point fed
    ``batches`` of (fails, iterations, decoded rows), frame by frame: a
    frame is counted while fewer than ``target`` failures and ``max_frames``
    frames are, and a batch is sampled and decoded whole if it is started."""
    frames = failures = iterations = sampled = decoded = 0
    for fails, iters, rows in batches:
        if failures >= target or frames >= max_frames:
            break
        sampled += len(fails)
        decoded += rows
        for fail, its in zip(fails, iters):
            if failures >= target or frames >= max_frames:
                break
            frames += 1
            failures += int(fail)
            iterations += int(its)
    return frames, failures, iterations, sampled, decoded


# -- exhaustive posterior enumeration (small n) -------------------------------


def _all_patterns(n: int) -> np.ndarray:
    """(4^n, n) array of all Pauli code patterns."""
    return np.array(list(itertools.product(range(4), repeat=n)), dtype=np.uint8)


def _pattern_weights(patterns: np.ndarray, eps0: float) -> np.ndarray:
    wt = (patterns != 0).sum(axis=1)
    n = patterns.shape[1]
    return (1.0 - eps0) ** (n - wt) * (eps0 / 3.0) ** wt


def _pattern_syndromes(H, patterns: np.ndarray) -> np.ndarray:
    hx, hz = dense_planes(H)
    ex, ez = patterns & 1, patterns >> 1
    return ((ez @ hx.T.astype(np.int64) + ex @ hz.T.astype(np.int64)) % 2).astype(
        np.uint8
    )


def posterior_marginals(H, s, eps0: float) -> np.ndarray:
    """(n, 4) per-qubit posterior over {I, X, Z, Y} given the syndrome."""
    patterns = _all_patterns(H.n)
    match = (_pattern_syndromes(H, patterns) == np.asarray(s, dtype=np.uint8)).all(
        axis=1
    )
    pats = patterns[match]
    w = _pattern_weights(pats, eps0)
    marg = np.zeros((H.n, 4))
    for j in range(H.n):
        np.add.at(marg[j], pats[:, j], w)
    return marg / w.sum()


def map_decisions(H, s, eps0: float) -> np.ndarray:
    """Per-qubit maximum-posterior Pauli, ties toward the smaller code."""
    marg = posterior_marginals(H, s, eps0)
    return np.argmax(marg, axis=1).astype(np.uint8)


def brute_vn_message(H, s, eps0: float, check: int, qubit: int) -> float:
    """Exact qubit-to-check message on a cycle-free code.

    LLR that the qubit's error commutes with its symbol on edge
    (check, qubit), under the prior conditioned on every *other* check's
    syndrome bit.
    """
    sym = dict(H.rows[check])[qubit]
    patterns = _all_patterns(H.n)
    syndromes = _pattern_syndromes(H, patterns)
    others = [i for i in range(H.m) if i != check]
    s = np.asarray(s, dtype=np.uint8)
    match = (syndromes[:, others] == s[others]).all(axis=1)
    pats = patterns[match]
    w = _pattern_weights(pats, eps0)
    anti = np.array([trace_inner(int(e), sym) for e in range(4)])[pats[:, qubit]]
    num = w[anti == 0].sum()
    den = w[anti == 1].sum()
    return float(np.log(num) - np.log(den))


# -- scalar node update rules ---------------------------------------------------


def edges_of(H) -> list[tuple[int, int, int]]:
    """(check, qubit, symbol) of every edge, row by row in the order of H."""
    return [(i, j, sym) for i, row in enumerate(H.rows) for j, sym in row]


def syndrome_ratio(residual) -> float:
    """Fraction of unsatisfied checks in a residual syndrome."""
    residual = np.asarray(residual)
    if residual.size < 1:
        raise ValueError("residual syndrome must have at least one bit")
    return float(np.count_nonzero(residual)) / residual.size


def effective_gain(gamma: float, s_tilde_bit: int, p: GainParams) -> float:
    """Per-check adaptive gain: linear ramp in gamma plus unsatisfied boost."""
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must lie in [0, 1], got {gamma}")
    base = p.alpha_max - (p.alpha_max - p.alpha_min) * gamma
    return base * p.eta_unsat if s_tilde_bit else base


def cn_update(variant: str, incoming, s_bit: int, gain: float = 1.0) -> float:
    """One check-node output from the extrinsic incoming messages.

    ``incoming`` excludes the target edge.  ``gain`` is the fixed alpha for
    sms or the effective alpha for sagms; bp4 and ms ignore it.  The lone
    edge of a degree-1 check has no incoming message: its sign is +, its
    min-sum magnitude +inf (so +-LLR_CLIP at the clip) and its phi-domain
    sum 0 (so PHI_SUM_MIN at the clamp).
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    incoming = np.asarray(incoming, dtype=np.float64)
    sign = -1.0 if s_bit else 1.0
    sign *= float(np.prod(np.where(incoming < 0.0, -1.0, 1.0)))
    mags = np.abs(incoming)
    if variant == "bp4":
        total = float(np.sum(phi_llr(np.maximum(mags, PHI_ARG_FLOOR))))
        total = min(max(total, PHI_SUM_MIN), PHI_SUM_MAX)
        mag = float(phi_llr(total))
    else:
        mag = float(np.min(mags, initial=np.inf))
        if variant in ("sms", "sagms"):
            mag *= gain
    return float(np.clip(sign * mag, -LLR_CLIP, LLR_CLIP))


def _beliefs(prior_llr_value, incoming, incoming_symbols) -> list[float]:
    """Per-Pauli log-beliefs b(e) = [e != I]*L0 + sum of anticommuting
    incoming messages, for e in (I, X, Z, Y): L0 plus the messages summed
    left to right, the association of the kernel's sums."""
    sums = [0.0, 0.0, 0.0]
    for msg, sym in zip(incoming, incoming_symbols):
        for e in (1, 2, 3):
            if trace_inner(e, int(sym)):
                sums[e - 1] += float(msg)
    return [0.0] + [prior_llr_value + total for total in sums]


def _marginal_message(prior_llr_value, incoming, incoming_symbols, out_symbol):
    """Commute/anticommute LLR of one qubit relative to ``out_symbol``:
    ln( sum_{e commutes} exp(-b(e)) / sum_{e anticommutes} exp(-b(e)) )."""
    b = _beliefs(prior_llr_value, incoming, incoming_symbols)
    commute = [0, int(out_symbol)]
    anti = [e for e in (1, 2, 3) if e not in commute]
    num = np.logaddexp(-b[commute[0]], -b[commute[1]])
    den = np.logaddexp(-b[anti[0]], -b[anti[1]])
    return float(num - den)


def vn_update(
    mode: str,
    l0: float,
    incoming,
    incoming_symbols=None,
    out_symbol: int | None = None,
) -> float:
    """One qubit-node output toward an edge, from the extrinsic incoming set.

    ``additive`` sums scalar messages onto the prior LLR ``l0``.
    ``marginal`` needs the symbols of the incoming edges and of the outgoing
    edge.
    """
    if mode not in VN_MODES:
        raise ValueError(f"unknown vn mode {mode!r}")
    incoming = np.asarray(incoming, dtype=np.float64)
    if mode == "additive":
        out = l0 + float(np.sum(incoming))
    else:
        if incoming_symbols is None or out_symbol is None:
            raise ValueError("marginal mode needs incoming and outgoing symbols")
        out = _marginal_message(l0, incoming, incoming_symbols, out_symbol)
    return float(np.clip(out, -LLR_CLIP, LLR_CLIP))


def hard_decision(l0: float, incoming, incoming_symbols) -> int:
    """Most plausible Pauli at one qubit from all its incoming messages.

    Minimizes m(e) = [e != I]*L0 + sum of anticommuting messages over
    e in {I, X, Z, Y}; ties break toward the smaller code (I < X < Z < Y).
    """
    return int(np.argmin(_beliefs(l0, incoming, incoming_symbols)))


# -- scalar reference decoder --------------------------------------------------


def reference_decode(
    H, s, l0: float, cfg: DecoderConfig, record=None, early_stop: bool = True
):
    """Flooding decoder written as plain loops over the spec's node updates.

    Each node takes its messages in the slot order of ``tanner_graph(H)``,
    read through the maps ``edge_messages`` uses, so that its sums run in
    the order of the kernel's.  Returns (success, e_hat, iterations,
    gamma_trace).  ``early_stop=False`` iterates on to ``l_max`` past the
    first all-zero residual, as ``decode_batch`` can; the returned success,
    estimate and iteration count are still that residual's, and
    ``gamma_trace`` holds every iteration run.  If ``record`` is a list,
    (vn_to_cn, cn_to_vn) message dictionaries keyed by (check, qubit) are
    appended after each iteration's updates.
    """
    graph = tanner_graph(H)
    symbol = {(i, j): sym for i, row in enumerate(H.rows) for j, sym in row}
    cn_members = [
        [(i, int(graph.to_check[k, i]) % H.n) for k in np.flatnonzero(graph.cn_sym[:, i])]
        for i in range(H.m)
    ]
    vn_members = [
        [(int(graph.to_qubit[t, j]) % H.m, j) for t in np.flatnonzero(graph.vn_sym[:, j])]
        for j in range(H.n)
    ]
    # the graph gives only the order; the edges themselves come from H
    pairs = sorted((i, j) for i, j, _ in edges_of(H))
    assert sorted(e for members in cn_members for e in members) == pairs
    assert sorted(e for members in vn_members for e in members) == pairs

    v0 = _marginal_init(l0) if cfg.vn_mode == "marginal" else l0
    vmsg = {edge: v0 for edge in symbol}
    cmsg = {edge: 0.0 for edge in symbol}
    s = np.asarray(s, dtype=np.uint8)

    gamma_trace = []
    converged = None
    for ell in range(1, cfg.l_max + 1):
        e_hat = np.array([
            hard_decision(l0, [cmsg[edge] for edge in vn_members[j]],
                          [symbol[edge] for edge in vn_members[j]])
            for j in range(H.n)
        ], dtype=np.uint8)
        residual = s ^ syndrome_dense(H, e_hat)
        gamma = syndrome_ratio(residual)
        gamma_trace.append(gamma)
        if not residual.any() and converged is None:
            converged = (True, e_hat, ell)
            if early_stop:
                break

        new_cmsg = {}
        for i in range(H.m):
            for edge in cn_members[i]:
                incoming = [vmsg[other] for other in cn_members[i] if other != edge]
                if cfg.variant == "sagms":
                    gain = effective_gain(gamma, int(residual[i]), cfg.gain)
                elif cfg.variant == "sms":
                    gain = cfg.alpha
                else:
                    gain = 1.0
                new_cmsg[edge] = cn_update(cfg.variant, incoming, int(s[i]), gain)
        cmsg = new_cmsg

        new_vmsg = {}
        for j in range(H.n):
            for edge in vn_members[j]:
                others = [other for other in vn_members[j] if other != edge]
                new_vmsg[edge] = vn_update(
                    cfg.vn_mode, l0, [cmsg[other] for other in others],
                    [symbol[other] for other in others], symbol[edge],
                )
        vmsg = new_vmsg
        if record is not None:
            record.append((dict(vmsg), dict(cmsg)))

    # failure: the estimate is the hard decision made in the final iteration
    success, e_hat, iterations = converged or (False, e_hat, cfg.l_max)
    return success, e_hat, iterations, gamma_trace


def edge_messages(graph, record, row: int = 0):
    """(vn_to_cn, cn_to_vn) messages of one row of a traced
    ``IterationRecord``, as dictionaries keyed by (check, qubit) like those
    of ``reference_decode``'s record.  The graph's own slot maps name the
    edges: slot k of check i reaches qubit ``to_check[k, i] % n``, and slot
    t of qubit j comes from check ``to_qubit[t, j] % m``, the check of row
    k * m + i of the check planes; padding slots (symbol 0) are left out."""
    vn_to_cn = {
        (int(i), int(graph.to_check[k, i]) % graph.n): float(record.vmsg[row, i, k])
        for i, k in zip(*np.nonzero(graph.cn_sym.T))
    }
    cn_to_vn = {
        (int(graph.to_qubit[t, j]) % graph.m, int(j)): float(record.cv[row, j, t])
        for j, t in zip(*np.nonzero(graph.vn_sym.T))
    }
    return vn_to_cn, cn_to_vn
