from __future__ import annotations

import hashlib
import math
import tracemalloc
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qsagms.channel import prior_llr, sample_error
from qsagms.code import GbSpec, SparseCheckMatrix, build_gb, tanner_graph
from qsagms import decoder
from qsagms.analysis import phi_llr
from qsagms.decoder import (
    LLR_CLIP,
    SLAB_ROWS,
    VN_MODES,
    DecoderConfig,
    GainParams,
    _extrinsic_min,
    _marginal_init,
    _slot_sum,
    _view,
    decode_batch,
)
from qsagms.pauli import PAULI_X, PAULI_Y, PAULI_Z, trace_inner

from .conftest import make_tree_code
from .oracles import (
    brute_vn_message,
    cn_update,
    edge_messages,
    edges_of,
    effective_gain,
    hard_decision,
    map_decisions,
    posterior_marginals,
    reference_decode,
    syndrome_dense,
    syndrome_ratio,
    vn_update,
)

GAIN = GainParams(alpha_min=0.30, alpha_max=0.50, eta_unsat=1.10)
#: (variant, DecoderConfig keywords) for tests run over all four variants.
VARIANT_CASES = [
    ("bp4", {}),
    ("ms", {}),
    ("sms", {"alpha": 0.5}),
    ("sagms", {"gain": GAIN}),
]

finite_llrs = st.floats(
    min_value=1e-6, max_value=64.0, allow_nan=False, allow_infinity=False
).flatmap(lambda m: st.sampled_from([m, -m]))


# -- config validation ---------------------------------------------------------


def test_gain_params_validation():
    GainParams(0.3, 0.5, 1.1)
    GainParams(0.5, 0.5, 1.0)  # degenerate boost allowed
    with pytest.raises(ValueError):
        GainParams(0.6, 0.5, 1.1)  # min > max
    with pytest.raises(ValueError):
        GainParams(0.3, 0.5, 0.9)  # boost below 1
    with pytest.raises(ValueError):
        GainParams(0.3, 0.95, 1.10)  # stability: 0.95 * 1.10 > 1
    with pytest.raises(ValueError):
        GainParams(0.3, 0.5, float("nan"))  # NaN boost


def test_decoder_config_validation():
    with pytest.raises(ValueError):
        DecoderConfig("nms")
    with pytest.raises(ValueError):
        DecoderConfig("bp4", l_max=0)
    with pytest.raises(ValueError):
        DecoderConfig("sms")  # alpha missing
    with pytest.raises(ValueError):
        DecoderConfig("sms", alpha=1.5)
    with pytest.raises(ValueError):
        DecoderConfig("sagms")  # gain missing
    with pytest.raises(ValueError):
        DecoderConfig("bp4", vn_mode="joint")
    # a value decoding would ignore is rejected, since the digest hashes it
    for variant in ("bp4", "ms", "sagms"):
        with pytest.raises(ValueError):
            DecoderConfig(variant, alpha=0.5, gain=GAIN if variant == "sagms" else None)
    for variant, kw in (("bp4", {}), ("ms", {}), ("sms", {"alpha": 0.5})):
        with pytest.raises(ValueError):
            DecoderConfig(variant, gain=GAIN, **kw)
    for variant, kw in VARIANT_CASES:
        DecoderConfig(variant, **kw)


@pytest.mark.parametrize("l_max", [2.5, 2.0, True, "8"])
def test_decoder_config_l_max_must_be_an_int(l_max):
    # a float l_max would fail later, inside decoding, not here
    with pytest.raises(ValueError, match="l_max"):
        DecoderConfig("ms", l_max=l_max)


# -- syndrome ratio and effective gain ------------------------------------------


def test_syndrome_ratio_examples():
    assert syndrome_ratio(np.zeros(10, dtype=np.uint8)) == 0.0
    assert syndrome_ratio(np.ones(126, dtype=np.uint8)) == 1.0
    r = np.zeros(126, dtype=np.uint8)
    r[:63] = 1
    assert syndrome_ratio(r) == 0.5
    with pytest.raises(ValueError):
        syndrome_ratio(np.zeros(0, dtype=np.uint8))


def test_effective_gain_examples():
    assert effective_gain(0.0, 0, GAIN) == pytest.approx(0.50)
    assert effective_gain(1.0, 0, GAIN) == pytest.approx(0.30)
    assert effective_gain(0.5, 1, GAIN) == pytest.approx(0.44)
    # gamma -> 0 with an unsatisfied check saturates at alpha_max * eta
    assert effective_gain(0.0, 1, GAIN) == pytest.approx(0.55)
    assert effective_gain(0.0, 1, GAIN) <= 1.0
    with pytest.raises(ValueError):
        effective_gain(1.5, 0, GAIN)


@given(st.floats(min_value=0.0, max_value=1.0))
def test_effective_gain_bounded_by_one(gamma):
    assert effective_gain(gamma, 0, GAIN) <= 1.0
    assert effective_gain(gamma, 1, GAIN) <= 1.0


# -- check-node update -----------------------------------------------------------


def test_cn_update_bp4_closed_form():
    # two inputs of ln 3: phi(ln 3) = ln 2, so the output is phi(2 ln 2)
    with mpmath.workdps(40):
        expected = float(2 * mpmath.atanh(mpmath.mpf(1) / 4))
    out = cn_update("bp4", [math.log(3), math.log(3)], s_bit=0)
    assert out == pytest.approx(expected, abs=1e-12)
    assert out == pytest.approx(0.5108, abs=5e-4)
    assert out > 0


def test_cn_update_ms_example():
    # sign: (-1)^1 * (+ * - * +) = +; magnitude: min = 1.5
    assert cn_update("ms", [2.0, -3.0, 1.5], s_bit=1) == pytest.approx(1.5)


def test_cn_update_sagms_example():
    out = cn_update("sagms", [2.0, -3.0, 1.5], s_bit=1, gain=0.44)
    assert out == pytest.approx(0.66)


def test_cn_update_sign_conventions():
    assert cn_update("ms", [1.0, 2.0], s_bit=0) > 0
    assert cn_update("ms", [1.0, 2.0], s_bit=1) < 0
    assert cn_update("ms", [-1.0, 2.0], s_bit=0) < 0
    # magnitude zero propagates zero
    assert cn_update("ms", [0.0, 2.0], s_bit=1) == 0.0
    assert cn_update("bp4", [0.0, 2.0], s_bit=0) == pytest.approx(0.0, abs=1e-11)


@settings(max_examples=200)
@given(st.lists(finite_llrs, min_size=1, max_size=12))
def test_cn_update_bp4_bounded_by_minimum(incoming):
    bp4 = cn_update("bp4", incoming, s_bit=0)
    ms = cn_update("ms", incoming, s_bit=0)
    assert abs(bp4) <= abs(ms) + 1e-12
    assert abs(ms) == pytest.approx(min(abs(v) for v in incoming))


@settings(max_examples=100)
@given(st.lists(finite_llrs, min_size=1, max_size=12), st.integers(0, 1))
def test_cn_update_sagms_scales_ms(incoming, s_bit):
    ms = cn_update("ms", incoming, s_bit)
    for gain in (0.3, 0.44, 0.55, 1.0):
        scaled = cn_update("sagms", incoming, s_bit, gain=gain)
        assert scaled == pytest.approx(gain * ms)
        assert abs(scaled) <= abs(ms) + 1e-12


# messages with repeated minima and zeros among them
tied_llrs = st.lists(
    st.one_of(finite_llrs, st.sampled_from([0.0, 1.5, -1.5])), min_size=2, max_size=12
).flatmap(lambda m: st.permutations(m + m[: len(m) // 2]))


@settings(max_examples=200)
@given(tied_llrs, st.integers(0, 3), st.sampled_from([0.3, 0.44, 0.5, 0.55, 1.0]))
def test_extrinsic_min_matches_cn_update(incoming, padding, gain):
    # one check: its slots as (slot, 1) planes, padded with +inf magnitudes
    mag = np.abs(np.array(incoming + [np.inf] * padding))[:, None]
    ext = _extrinsic_min(mag.copy(), np.empty_like(mag))[:, 0]
    for variant in ("ms", "sms", "sagms"):
        g = 1.0 if variant == "ms" else gain
        for k in range(len(incoming)):
            others = incoming[:k] + incoming[k + 1 :]
            want = abs(cn_update(variant, others, 0, gain=g))
            assert np.clip(ext[k] * g, -LLR_CLIP, LLR_CLIP) == want, (variant, k)


def test_slot_sum_adds_planes_left_to_right():
    # signed zeros, ties and magnitudes 1e-8..1e8, where summation order
    # shows in the low bits, over 1..130 planes
    rng = np.random.default_rng(15)
    for d in range(1, 131):
        x = rng.choice([0.0, -0.0, 1.0, -1.0, 1.0, -1.0], size=(d, 96))
        x[:, :48] *= rng.uniform(1.0, 10.0, size=(d, 48)) * 10.0 ** rng.integers(-8, 8, (d, 48))
        x[:, 48:64] *= 10.0 ** rng.integers(-8, 8, (d, 16))  # ties
        x[:, 64:72] = rng.choice([0.0, -0.0], size=(d, 8))
        x[:, 72] = -0.0
        want = []
        for column in x.T:
            total = column[0]
            for term in column[1:]:
                total = total + term
            want.append(total)
        got = _slot_sum(x, np.empty(96))
        assert got.tobytes() == np.array(want).tobytes(), d


# -- qubit-node update ----------------------------------------------------------


def test_vn_update_additive_examples():
    assert vn_update("additive", 5.69, []) == pytest.approx(5.69)
    assert vn_update("additive", 5.69, [-1.0, 0.5]) == pytest.approx(5.19)


def test_vn_update_additive_clips():
    assert vn_update("additive", 5.69, [60.0, 60.0]) == 64.0


def test_vn_update_marginal_empty_set_matches_prior_marginal():
    prior = prior_llr(0.1)
    out = vn_update("marginal", prior, [], [], PAULI_X)
    # commuting mass (1 - eps) + eps/3, anticommuting 2 eps/3
    expected = math.log((0.9 + 0.1 / 3) / (2 * 0.1 / 3))
    assert out == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("epsilon0", [0.1, 0.75, 0.9], ids=["L0>0", "L0=0", "L0<0"])
@pytest.mark.parametrize("symbol", [PAULI_X, PAULI_Z, PAULI_Y], ids=["X", "Z", "Y"])
def test_marginal_init_is_the_marginal_rule_on_no_messages(epsilon0, symbol):
    prior = prior_llr(epsilon0)
    assert (prior > 0, prior == 0) == (epsilon0 < 0.75, epsilon0 == 0.75)
    want = vn_update("marginal", prior, [], [], symbol)
    assert _marginal_init(prior) == pytest.approx(want, abs=1e-12)


def test_vn_update_marginal_needs_symbols():
    prior = prior_llr(0.1)
    with pytest.raises(ValueError):
        vn_update("marginal", prior, [1.0])


# -- hard decision ---------------------------------------------------------------


def test_hard_decision_prior_dominates():
    assert hard_decision(4.0, [], []) == 0  # identity


def test_hard_decision_single_edge_tie_break():
    # one X-symbol edge with message -10, prior 3.3:
    # m(I)=0, m(X)=3.3, m(Z)=m(Y)=-6.7 -> Z wins the tie (Z before Y)
    assert hard_decision(3.3, [-10.0], [PAULI_X]) == PAULI_Z


def test_hard_decision_metric_enumeration():
    prior = 3.3
    incoming = [-10.0, 2.0]
    syms = [PAULI_X, PAULI_Z]
    from qsagms.pauli import trace_inner

    metrics = []
    for e in range(4):
        m = 0.0 if e == 0 else prior
        for msg, sym in zip(incoming, syms):
            if trace_inner(e, sym):
                m += msg
        metrics.append(m)
    assert hard_decision(prior, incoming, syms) == int(np.argmin(metrics))


def test_decode_batch_checks_syndromes(small_graph):
    prior = prior_llr(0.05)
    cfg = DecoderConfig("ms")
    good = np.zeros((2, small_graph.m), dtype=np.int64)
    for bad in (good + 2, good - 1, good[:, 1:]):
        with pytest.raises(ValueError):
            decode_batch(small_graph, bad, prior, cfg)
    # an empty batch is valid and runs every iteration on zero frames
    res = decode_batch(small_graph, good[:0], prior, cfg)
    assert res.success.shape == res.iterations.shape == (0,)
    assert res.e_hat.shape == (0, small_graph.n)


def test_decode_batch_checks_bits_before_allocating(small_graph, monkeypatch):
    def workspace(*args):
        raise AssertionError("workspace allocated for an invalid batch")

    monkeypatch.setattr(decoder, "_Kernel", workspace)
    bad = np.full((2, small_graph.m), 2)
    with pytest.raises(ValueError, match="syndrome bits must be 0 or 1"):
        decode_batch(small_graph, bad, prior_llr(0.05), DecoderConfig("ms"))


@pytest.mark.parametrize("l0", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("vn_mode", VN_MODES)
@pytest.mark.parametrize("variant,kw", VARIANT_CASES)
def test_decode_batch_checks_l0_before_allocating(
    small_graph, monkeypatch, variant, kw, vn_mode, l0
):
    # a non-finite prior would otherwise decode every frame into garbage
    def workspace(*args):
        raise AssertionError("workspace allocated for a non-finite prior")

    monkeypatch.setattr(decoder, "_Kernel", workspace)
    good = np.zeros((2, small_graph.m), dtype=np.uint8)
    with pytest.raises(ValueError, match="l0 must be finite"):
        decode_batch(small_graph, good, l0, DecoderConfig(variant, vn_mode=vn_mode, **kw))


# -- decode: trivial and structural cases ----------------------------------------


def _row_gammas(trace, rows: int) -> list:
    """Each batch row's syndrome ratios, one per iteration it ran, from a trace."""
    per_row = [[] for _ in range(rows)]
    for rec in trace:
        for row, gamma in zip(rec.rows, rec.gamma):
            per_row[row].append(gamma)
    return per_row


def _weight_one_errors(n: int) -> np.ndarray:
    """The 3n single-qubit errors, qubit by qubit, each as X, Z and Y."""
    errors = np.zeros((3 * n, n), dtype=np.uint8)
    errors[np.arange(3 * n), np.arange(3 * n) // 3] = np.tile([PAULI_X, PAULI_Z, PAULI_Y], n)
    return errors


@pytest.mark.parametrize("variant,kw", VARIANT_CASES)
def test_decode_zero_syndrome(toy_graph, variant, kw):
    prior = prior_llr(0.05)
    cfg = DecoderConfig(variant, l_max=8, **kw)
    trace = []
    r = decode_batch(toy_graph, np.zeros((1, 6), dtype=np.uint8), prior, cfg, trace=trace)
    assert r.success[0] and r.iterations[0] == 1
    assert not r.e_hat.any()
    assert _row_gammas(trace, 1) == [[0.0]]


def test_weight1_regression_twinned_toy_code(toy_graph):
    """Frozen outcome: the [[6,2]] fixture's twin columns (0/5, 1/3, 2/4)
    make every weight-1 syndrome invariant under a column swap, so no
    symmetric flooding decoder can zero it; all 18 cases fail."""
    prior = prior_llr(0.05)
    syndromes = toy_graph.syndromes(_weight_one_errors(6))
    for vn_mode in ("marginal", "additive"):
        cfg = DecoderConfig("bp4", l_max=8, vn_mode=vn_mode)
        r = decode_batch(toy_graph, syndromes, prior, cfg)
        assert r.success.tolist() == [False] * 18


def test_weight1_all_converge_on_twin_free_code(small_graph):
    prior = prior_llr(0.05)
    syndromes = small_graph.syndromes(_weight_one_errors(small_graph.n))
    for variant, kw in VARIANT_CASES:
        r = decode_batch(small_graph, syndromes, prior, DecoderConfig(variant, l_max=8, **kw))
        assert r.success.all(), (variant, np.flatnonzero(~r.success))
        assert np.array_equal(small_graph.syndromes(r.e_hat), syndromes)


def test_decode_success_implies_zero_residual(small_code, small_graph):
    prior = prior_llr(0.08)
    errors = sample_error(0.08, 42, small_code.n, 0, count=200)
    syndromes = small_graph.syndromes(errors)
    for vn_mode in VN_MODES:
        for variant, kw in VARIANT_CASES:
            cfg = DecoderConfig(variant, l_max=8, vn_mode=vn_mode, **kw)
            trace = []
            r = decode_batch(small_graph, syndromes, prior, cfg, trace=trace)
            assert r.success.any(), (variant, vn_mode)
            ok = r.success
            assert np.array_equal(small_graph.syndromes(r.e_hat[ok]), syndromes[ok])
            for row, gammas in enumerate(_row_gammas(trace, len(syndromes))):
                gammas = np.array(gammas)
                assert np.all((gammas >= 0) & (gammas <= 1))
                # early termination at the first zero ratio, never later
                zeros = np.flatnonzero(gammas == 0.0)
                if ok[row]:
                    assert zeros.size and zeros[0] == r.iterations[row] - 1


# -- degenerate-parameter equivalences -------------------------------------------


def _frame_outcomes(H, graph, cfg, epsilon, n_frames, seed):
    prior = prior_llr(epsilon)
    errors = sample_error(epsilon, seed, H.n, 0, count=n_frames)
    return decode_batch(graph, graph.syndromes(errors), prior, cfg)


@pytest.mark.parametrize("vn_mode", ["marginal", "additive"])
def test_sagms_degenerates_to_sms_bit_identical(toy_code, toy_graph, vn_mode):
    sagms = DecoderConfig(
        "sagms", l_max=8, gain=GainParams(0.50, 0.50, 1.0), vn_mode=vn_mode
    )
    sms = DecoderConfig("sms", l_max=8, alpha=0.50, vn_mode=vn_mode)
    a = _frame_outcomes(toy_code, toy_graph, sagms, 0.1, 1000, seed=11)
    b = _frame_outcomes(toy_code, toy_graph, sms, 0.1, 1000, seed=11)
    assert np.array_equal(a.success, b.success)
    assert np.array_equal(a.e_hat, b.e_hat)
    assert np.array_equal(a.iterations, b.iterations)


def test_sms_alpha_one_is_ms_bit_identical(toy_code, toy_graph):
    sms = DecoderConfig("sms", l_max=8, alpha=1.0)
    ms = DecoderConfig("ms", l_max=8)
    a = _frame_outcomes(toy_code, toy_graph, sms, 0.1, 1000, seed=12)
    b = _frame_outcomes(toy_code, toy_graph, ms, 0.1, 1000, seed=12)
    assert np.array_equal(a.success, b.success)
    assert np.array_equal(a.e_hat, b.e_hat)
    assert np.array_equal(a.iterations, b.iterations)


def _traced(graph, syndromes, prior, cfg, **kw) -> list:
    """The IterationRecords of one decode_batch call."""
    trace = []
    decode_batch(graph, np.atleast_2d(syndromes), prior, cfg, trace=trace, **kw)
    return trace


def _assert_same_messages(t1, t2) -> None:
    assert len(t1) == len(t2)
    for a, b in zip(t1, t2):
        assert np.array_equal(a.vmsg, b.vmsg) and np.array_equal(a.cv, b.cv)


def test_degenerate_equivalence_message_trajectories(small_code, small_graph):
    prior = prior_llr(0.1)
    e = np.zeros(small_code.n, dtype=np.uint8)
    e[2] = PAULI_X
    e[7] = PAULI_Z
    s = small_graph.syndromes(e)
    sagms = DecoderConfig("sagms", l_max=6, gain=GainParams(0.5, 0.5, 1.0))
    sms = DecoderConfig("sms", l_max=6, alpha=0.5)
    _assert_same_messages(
        _traced(small_graph, s, prior, sagms, early_stop=False),
        _traced(small_graph, s, prior, sms, early_stop=False),
    )


# -- engine vs scalar reference ---------------------------------------------------


@pytest.mark.parametrize("variant,kw", VARIANT_CASES)
@pytest.mark.parametrize("vn_mode", ["marginal", "additive"])
def test_engine_matches_reference_decoder(
    small_code, small_graph, tree_code, tree_graph, variant, kw, vn_mode
):
    # the tree's irregular degrees exercise the padded slots of the kernel
    prior = prior_llr(0.12)
    cfg = DecoderConfig(variant, l_max=6, vn_mode=vn_mode, **kw)
    for H, graph in ((small_code, small_graph), (tree_code, tree_graph)):
        syndromes = graph.syndromes(sample_error(0.12, 77, H.n, 0, count=25))
        trace = []
        got = decode_batch(graph, syndromes, prior, cfg, trace=trace)
        for row, gammas in enumerate(_row_gammas(trace, len(syndromes))):
            ok, e_hat, iters, ref_gammas = reference_decode(H, syndromes[row], prior, cfg)
            assert got.success[row] == ok
            assert got.iterations[row] == iters
            assert np.array_equal(got.e_hat[row], e_hat)
            assert np.allclose(gammas, ref_gammas, atol=1e-12)


@pytest.mark.slow
def test_engine_ms_failures_match_reference_decoder(gb126_code, gb126_graph):
    # The frames of acceptance criterion 6: the min-sum failures there are
    # the stated rule's own, not an engine artifact.
    prior = prior_llr(0.01)
    cfg = DecoderConfig("ms", l_max=8)
    errors = sample_error(0.01, 20260810, gb126_code.n, 0, count=4096)
    syndromes = gb126_graph.syndromes(errors)
    got = decode_batch(gb126_graph, syndromes, prior, cfg)
    failed = np.flatnonzero(~got.success)[:16]
    assert len(failed) == 16
    for frame in failed:
        ok, e_hat, iters, _ = reference_decode(gb126_code, syndromes[frame], prior, cfg)
        assert not ok
        assert got.iterations[frame] == iters
        assert np.array_equal(got.e_hat[frame], e_hat)


def _messages_match_reference(H, graphs, s, prior, cfg) -> list:
    """Every traced message of ``decode_batch`` on each of ``graphs``, built
    from ``H``, against ``reference_decode``'s at 1e-9, iterating on past
    convergence; the traces of the last graph."""
    record = []
    reference_decode(H, s, prior, cfg, record=record, early_stop=False)
    for graph in graphs:
        trace = _traced(graph, s, prior, cfg, early_stop=False)
        assert len(record) == len(trace) == cfg.l_max
        for rec, (ref_v, ref_c) in zip(trace, record):
            vn_to_cn, cn_to_vn = edge_messages(graph, rec)
            assert vn_to_cn.keys() == ref_v.keys() and cn_to_vn.keys() == ref_c.keys()
            for edge, value in ref_v.items():
                assert vn_to_cn[edge] == pytest.approx(value, abs=1e-9)
            for edge, value in ref_c.items():
                assert cn_to_vn[edge] == pytest.approx(value, abs=1e-9)
    return trace


def test_engine_messages_match_reference(small_code, small_graph):
    # the kernel's per-qubit marginal rule against the per-edge oracle
    prior = prior_llr(0.1)
    e = np.zeros(small_code.n, dtype=np.uint8)
    e[0] = PAULI_Y
    s = small_graph.syndromes(e)
    cfg = DecoderConfig("sagms", l_max=5, gain=GAIN)
    ok, _, iters, _ = reference_decode(small_code, s, prior, cfg)
    assert (ok, iters) == (True, 2)  # the records run on past the convergence
    # with each row reversed, tanner_graph (which keeps a row's order) runs
    # the check slots in descending column order
    reversed_rows = SparseCheckMatrix(small_code.n, [row[::-1] for row in small_code.rows])
    reversed_graph = tanner_graph(reversed_rows)
    assert (np.diff(reversed_graph.to_check % reversed_graph.n, axis=0) < 0).all()
    _messages_match_reference(small_code, (small_graph, reversed_graph), s, prior, cfg)
    # edges of symbol Y, whose anticommuting Paulis are X and Z, and a prior
    # below zero (eps0 0.8), where the channel favours an error
    H, graph = _irregular_graph()
    assert graph.vn_sym.max() == PAULI_Y
    s = graph.syndromes(sample_error(0.08, 20260810, H.n, 0, count=1))[0]
    assert prior_llr(0.8) < 0
    for eps0 in (0.08, 0.8):
        _messages_match_reference(H, (graph,), s, prior_llr(eps0), cfg)
    # a prior past the clip: messages both ways saturate at +-LLR_CLIP
    trace = _messages_match_reference(H, (graph,), s, prior_llr(1e-29), DecoderConfig("ms"))
    assert all((np.abs(rec.vmsg) == LLR_CLIP).any() for rec in trace)
    assert (np.abs(trace[0].cv) == LLR_CLIP).any()


# -- the first iteration, once per call -----------------------------------------


def _degree_one_code():
    """A 5-qubit matrix whose check 0 has a lone slot, so its extrinsic
    minimum is +inf, and whose other checks have 2-4 slots of X, Z and Y.
    Each qubit's third slot, where it has one, holds X."""
    rows = [
        [(0, PAULI_X)],
        [(0, PAULI_Z), (1, PAULI_Y)],
        [(1, PAULI_X), (2, PAULI_Z), (3, PAULI_Y)],
        [(0, PAULI_X), (2, PAULI_X), (3, PAULI_Z), (4, PAULI_X)],
        [(3, PAULI_X), (4, PAULI_Y)],
    ]
    H = SparseCheckMatrix(n=5, rows=rows)
    return H, tanner_graph(H)


def _every_syndrome(m: int) -> np.ndarray:
    return ((np.arange(2**m)[:, None] >> np.arange(m)) & 1).astype(np.uint8)


#: bp4 and a min-sum variant at a prior above zero (eps0 0.1) and below it
#: (eps0 0.8), where v0 < 0 and the first decision is X on every qubit.
FIRST_CASES = [
    (variant, kw, eps0)
    for variant, kw in (VARIANT_CASES[0], VARIANT_CASES[3])
    for eps0 in (0.1, 0.8)
]


@pytest.mark.parametrize("early_stop", [True, False])
@pytest.mark.parametrize("vn_mode", VN_MODES)
@pytest.mark.parametrize("variant,kw,eps0", FIRST_CASES)
def test_first_iteration_matches_reference_on_a_degree_one_check(
    variant, kw, eps0, vn_mode, early_stop
):
    H, graph = _degree_one_code()
    assert (graph.cn_sym > 0).sum(axis=0).min() == 1
    # two iterations: the first tests e0, the second the decision of the
    # first update, whose messages are compared alone (later bp4 messages
    # of the additive rule grow past where the kernel's total-less-own phi
    # sum keeps 1e-9 of the oracle's)
    l0 = prior_llr(eps0)
    cfg = DecoderConfig(variant, l_max=2, vn_mode=vn_mode, **kw)
    syndromes = _every_syndrome(H.m)
    trace = []
    got = decode_batch(graph, syndromes, l0, cfg, early_stop=early_stop, trace=trace)
    for row, gammas in enumerate(_row_gammas(trace, len(syndromes))):
        ok, e_hat, iters, ref_gammas = reference_decode(
            H, syndromes[row], l0, cfg, early_stop=early_stop
        )
        assert (got.success[row], got.iterations[row]) == (ok, iters)
        assert np.array_equal(got.e_hat[row], e_hat)
        assert gammas == pytest.approx(ref_gammas, abs=1e-12)
    # the first decision, X everywhere below zero, converges on its own syndrome
    first = graph.syndromes(np.full(H.n, PAULI_X if l0 < 0 else 0, dtype=np.uint8))
    hits = (syndromes == first).all(axis=1)
    assert hits.sum() == 1 and got.iterations[hits] == 1
    for s in syndromes[::3]:
        _messages_match_reference(H, (graph,), s, l0, replace(cfg, l_max=1))


@pytest.mark.parametrize("vn_mode", VN_MODES)
@pytest.mark.parametrize("variant,kw", VARIANT_CASES)
def test_first_update_is_the_check_step_of_v0(gb126_code, gb126_graph, variant, kw, vn_mode):
    # bit for bit, the lone slot's +inf included, at priors above and below
    # zero and past the clip
    cfg = DecoderConfig(variant, vn_mode=vn_mode, **kw)
    for H, graph in (_degree_one_code(), _irregular_graph(), (gb126_code, gb126_graph)):
        syndromes = np.random.default_rng(graph.n).integers(0, 2, size=(9, graph.m))
        syn = syndromes.astype(np.uint8).T
        for eps0 in (0.1, 0.8, 1e-29):
            l0 = prior_llr(eps0)
            v0 = _marginal_init(l0) if vn_mode == "marginal" else l0
            v0 = float(np.clip(v0, -LLR_CLIP, LLR_CLIP))
            ker = decoder._Kernel(graph, len(syndromes))
            e0, s0 = ker.start(l0, v0, variant)
            assert e0.shape == (graph.n, 1) and (e0 == (PAULI_X if l0 < 0 else 0)).all()
            assert np.array_equal(s0, syndrome_dense(H, e0[:, 0]))
            residual = syndromes ^ s0
            gain = decoder._gain(cfg, residual.sum(axis=1) / graph.m, residual)
            first = ker.first_cn(syn, gain).copy()
            vmsg = np.where(graph.cn_sym > 0, v0, np.inf)[..., None].repeat(len(syndromes), -1)
            want = ker.cn_step(vmsg, syn, cfg, gain)
            assert first.tobytes() == want.tobytes(), (graph.n, eps0)


@pytest.mark.parametrize("variant,kw", [VARIANT_CASES[0], VARIANT_CASES[3]])
def test_empty_batch_skips_the_first_iteration(small_graph, variant, kw):
    for early_stop in (True, False):
        trace = []
        res = decode_batch(
            small_graph, np.zeros((0, small_graph.m), dtype=np.uint8), prior_llr(0.8),
            DecoderConfig(variant, **kw), early_stop=early_stop, trace=trace,
        )
        assert res.success.shape == res.iterations.shape == (0,)
        assert res.e_hat.shape == (0, small_graph.n) and trace == []


# -- the per-Pauli sums --------------------------------------------------------


def _gathered_sums(ker, cv) -> np.ndarray:
    """The per-Pauli sums as every slot plane gathered: each slot's message
    where it anticommutes with e, else the zero row, summed by _slot_sum."""
    sym = ker.g.vn_sym.astype(np.intp)
    slots = np.arange(sym.size).reshape(sym.shape)
    products = np.concatenate([cv.reshape(sym.size, -1), np.zeros((1, cv.shape[-1]))])
    sums = np.empty((3,) + cv.shape[1:])
    for e in (1, 2, 3):
        at = np.where(trace_inner(e, sym) == 1, slots, sym.size)
        _slot_sum(products[at], sums[e - 1])
    return sums


def test_pauli_sums_classify_the_slot_planes(gb126_graph):
    # [[126,28]]: each qubit's first five slots hold X, its last five Z, so
    # X sums the Z planes, Z the X planes and Y all ten, each as a view
    terms = decoder._Kernel(gb126_graph, 4).terms
    assert [[t for t, at in e if at is None] for e in terms] == [
        list(range(5, 10)), list(range(5)), list(range(10))
    ]
    assert [len(e) for e in terms] == [5, 5, 10]
    # irregular degrees and Y symbols: the 60-qubit graph's planes are all
    # mixed, so gathered; the third plane of the degree-one code holds only
    # X and padding, so X skips it, and Z and Y gather it
    for e in decoder._Kernel(_irregular_graph()[1], 4).terms:
        assert len(e) == 10 and all(at is not None for _, at in e)
    terms = decoder._Kernel(_degree_one_code()[1], 4).terms
    assert [[t for t, _ in e] for e in terms] == [[0, 1], [0, 1, 2], [0, 1, 2]]
    assert terms[1][2][1] is not None and terms[2][2][1] is not None


@pytest.mark.parametrize("vn_mode", VN_MODES)
@pytest.mark.parametrize("variant,kw", VARIANT_CASES)
def test_pauli_sums_match_the_gathered_slot_sums(gb126_graph, variant, kw, vn_mode):
    # gathered, skipped and whole planes, and zeros of either sign
    cfg = DecoderConfig(variant, vn_mode=vn_mode, **kw)
    for g in (_irregular_graph()[1], _degree_one_code()[1], gb126_graph):
        ker = decoder._Kernel(g, 16)
        rng = np.random.default_rng(g.n)
        cv = rng.normal(0.0, 3.0, size=ker.qubit + (16,))
        cv[g.vn_sym == 0] = 0.0  # padding slots hold 0, as to_qubits gives
        cv[rng.random(cv.shape) < 0.05] = -0.0
        l0 = prior_llr(0.08)
        src = _view(ker.cv, 16, ker.to_qubit.size)  # the qubit view, then its zero row
        src[:-1], src[-1] = cv.reshape(-1, 16), 0.0
        view = src[:-1].reshape(cv.shape)
        sums, e_hat = (a.copy() for a in ker.vn_decide(view, l0))
        want = _gathered_sums(ker, cv)
        assert np.array_equal(sums, want)  # equal up to the signs of zeros
        assert np.array_equal(e_hat, ker.decide(want, l0))
        got = ker.vn_messages(view, sums, l0, cfg).copy()
        assert got.tobytes() == ker.vn_messages(view, want, l0, cfg).tobytes()


#: SHA-256 over (success, iterations, e_hat) of frames 0-511 of
#: ``sample_error`` at rate 0.05 and seed 20260810 on [[126,28]], l_max 8.
PINNED_126_HASHES = {
    "bp4": "f8e9050ece62c018e45ae2fc75742ed99eb18a8f50ff3559d0d86a9b7dbab421",
    "ms": "603792c9d85e565fa9a889fb30c30f4ed3c4af498fcbbc3d53eb03a9c9701ce1",
    "sms": "53ce41c9497a7a3a4c8c86a4c6cf5e6207f8f276e46aaf4b5420cf2b846afe98",
    "sagms": "d7114992f567267f5ea623c8489732a1ca5221371d8062ba97690a6b0ddeb46e",
    "sagms-additive": "3b1a02cb8c3b377e02b842ac385a9da28393c4a1b380df59c75ae69749d622cc",
}


def test_engine_output_pinned_on_126(gb126_code, gb126_graph):
    errors = sample_error(0.05, 20260810, gb126_code.n, 0, count=512)
    syndromes = np.stack([syndrome_dense(gb126_code, e) for e in errors])
    configs = {
        "bp4": DecoderConfig("bp4"),
        "ms": DecoderConfig("ms"),
        "sms": DecoderConfig("sms", alpha=0.5),
        "sagms": DecoderConfig("sagms", gain=GAIN),
        "sagms-additive": DecoderConfig("sagms", gain=GAIN, vn_mode="additive"),
    }
    got = {
        name: _outcome_hash(decode_batch(gb126_graph, syndromes, prior_llr(0.05), cfg))
        for name, cfg in configs.items()
    }
    assert got == PINNED_126_HASHES


#: As above for frames 0-511 at rate 0.08 and seed 20260810 on the
#: irregular matrix below, every variant in both qubit-node modes.
PINNED_IRREGULAR_HASHES = {
    "bp4-marginal": "e2a8c6ee7ef0eadc9da345f029c57868bc159dfc56b19372c31471e15f447f51",
    "ms-marginal": "520ef0ca990ef3f8e84c068f7402cd34dd0dbc011dce538302a11e07bb3f22ea",
    "sms-marginal": "3a061fe933b2c1f8916652e3e548946dcdd838d8c1ec9107b802835a9982878e",
    "sagms-marginal": "321ca67d12b1fa18cb178e5a5a6c781cc112081fc96ea97281e3e2ece6774d21",
    "bp4-additive": "b85a318c6940011ab129c7fde9b1de14465e3701fd2372599e75ba70bee330e5",
    "ms-additive": "3a54929196117f3b9a4441799aa4ebfc93dd405c662255a37dbd3cac9acd9c7e",
    "sms-additive": "13b06455369908b9be416135822039a474f33b274076bef75e02cc22a8418034",
    "sagms-additive": "861a5dd4f8531008eb8f9e00ec9b9446b34e9d4e09a9f0deb7db7edcee2416fb",
}


def _irregular_graph():
    """A 60-qubit matrix with check degrees 2-14: most checks are padded to
    14 slots, and their padding slots enter every slot sum, where each must
    add exactly 0."""
    rng = np.random.default_rng(5)
    while True:
        rows = [
            [(int(j), int(rng.integers(1, 4)))
             for j in sorted(rng.choice(60, int(rng.integers(2, 15)), replace=False))]
            for _ in range(40)
        ]
        if len({j for row in rows for j, _ in row}) == 60:
            break
    H = SparseCheckMatrix(n=60, rows=rows)
    graph = tanner_graph(H)
    assert len(graph.cn_sym) >= 10 and np.count_nonzero(graph.cn_sym, axis=0).min() < 9
    return H, graph


def _irregular_cases():
    """(name, DecoderConfig) of every variant in both qubit-node modes."""
    for mode in VN_MODES:
        for variant, kw in VARIANT_CASES:
            yield f"{variant}-{mode}", DecoderConfig(variant, vn_mode=mode, **kw)


def test_engine_output_pinned_on_irregular_graph():
    H, graph = _irregular_graph()
    errors = sample_error(0.08, 20260810, H.n, 0, count=512)
    syndromes = np.stack([syndrome_dense(H, e) for e in errors])
    got = {
        name: _outcome_hash(decode_batch(graph, syndromes, prior_llr(0.08), cfg))
        for name, cfg in _irregular_cases()
    }
    assert got == PINNED_IRREGULAR_HASHES


#: SHA-256 over the gamma, vmsg and cv bytes of every IterationRecord of
#: decode_batch(..., early_stop=False, trace=...): frames 0-63 of the
#: irregular channel above in every variant and mode, and frames 0-63 of
#: the [[126,28]] channel of PINNED_126_HASHES for sagms and bp4, whose
#: messages are held and summed in the circulant-offset slot order.
PINNED_MESSAGE_HASHES = {
    "bp4-marginal": "156e6b79844bda0e4e8718121cdb95d9acd43f0a5f5767e211d09310c44f69a3",
    "ms-marginal": "15db96a7b123d8d3732efb670e58ecc635727fc0b5041328faf07a38c0416452",
    "sms-marginal": "afe5b2e9a935b8077bf6c01fc97f5f8955aeccbf1c6898d44b3b409c070ad82e",
    "sagms-marginal": "178cc475090b32cb3518d16121ddc3ad87e2071d1c0dafe4f6c4bd4b3c4f845e",
    "bp4-additive": "7be2175409ef1bcd388cd01f381ce26afc74d0e5d30ff16fb418e072c8387223",
    "ms-additive": "c9f1ed3c7d7a84113847ad5bfcccc87135d628e396f4fe6f1d09b835a7b207b8",
    "sms-additive": "9623e1042809a48a4058d47efac0f8fb870016148fb91c8e6fb61fab84428850",
    "sagms-additive": "c427a6a52157752963a5d84ffa1e96ab4c7102792d1476012ab7b644a54add51",
    "126-sagms": "169c92136a51d0310abe14e3f864f093bbed3749f1590385e1498ff29e2d2779",
    "126-bp4": "ecd68e815e3b988bc26da2a8f6687bbb9863c0a47073c2f0a54ebcc0b711cfcc",
}


def test_engine_messages_pinned(gb126_code, gb126_graph):
    H, graph = _irregular_graph()
    errors = sample_error(0.08, 20260810, H.n, 0, count=64)
    irregular = np.stack([syndrome_dense(H, e) for e in errors])
    errors = sample_error(0.05, 20260810, gb126_code.n, 0, count=64)
    gb126 = np.stack([syndrome_dense(gb126_code, e) for e in errors])
    runs = [(name, graph, irregular, 0.08, cfg) for name, cfg in _irregular_cases()]
    runs += [
        ("126-sagms", gb126_graph, gb126, 0.05, DecoderConfig("sagms", gain=GAIN)),
        ("126-bp4", gb126_graph, gb126, 0.05, DecoderConfig("bp4")),
    ]
    got = {}
    for name, g, syndromes, eps, cfg in runs:
        trace = []
        decode_batch(g, syndromes, prior_llr(eps), cfg, early_stop=False, trace=trace)
        h = hashlib.sha256()
        for rec in trace:
            h.update(rec.gamma.tobytes())
            h.update(rec.vmsg.tobytes())
            h.update(rec.cv.tobytes())
        got[name] = h.hexdigest()
    assert got == PINNED_MESSAGE_HASHES


#: SHA-256 over the rows, gamma, vmsg, cv and e_hat bytes of every
#: IterationRecord of decode_batch(..., trace=...) with early stop on, where
#: converged rows leave the slab: the channels of PINNED_MESSAGE_HASHES.
PINNED_EARLY_STOP_HASHES = {
    "sagms-additive": "d1684495802a5dd81bbb73690ae7c8b60adfff506fd4c1a55c068a9e67255587",
    "126-sagms": "99e925790feadcd42845e540aa1ebd5bfa5983fc1877e54fdeafba9314a97149",
    "126-bp4": "7241164159fec8edeb50dd37a10548a387845eb9f3ec185c68ecd8392a35f1d5",
}


def test_engine_messages_pinned_with_early_stop(gb126_code, gb126_graph):
    H, graph = _irregular_graph()
    errors = sample_error(0.08, 20260810, H.n, 0, count=64)
    irregular = np.stack([syndrome_dense(H, e) for e in errors])
    errors = sample_error(0.05, 20260810, gb126_code.n, 0, count=64)
    gb126 = np.stack([syndrome_dense(gb126_code, e) for e in errors])
    runs = [
        ("sagms-additive", graph, irregular, 0.08,
         DecoderConfig("sagms", gain=GAIN, vn_mode="additive")),
        ("126-sagms", gb126_graph, gb126, 0.05, DecoderConfig("sagms", gain=GAIN)),
        ("126-bp4", gb126_graph, gb126, 0.05, DecoderConfig("bp4")),
    ]
    got = {}
    for name, g, syndromes, eps, cfg in runs:
        trace = _traced(g, syndromes, prior_llr(eps), cfg)
        assert len({r.rows.size for r in trace}) > 2  # rows leave at several iterations
        h = hashlib.sha256()
        for rec in trace:
            for a in (rec.rows, rec.gamma, rec.vmsg, rec.cv, rec.e_hat):
                if a is not None:
                    h.update(a.tobytes())
        got[name] = h.hexdigest()
    assert got == PINNED_EARLY_STOP_HASHES


def _shift(ell: int, t: int) -> np.ndarray:
    """Where a joint shift by ``t`` moves each node of a generalized
    bicycle graph on ``ell``: qubits and checks alike, 2 * ell of them, stay
    in their half or block and move by t within it."""
    node = np.arange(2 * ell)
    return node // ell * ell + (node + t) % ell


@pytest.mark.parametrize("variant,kw", VARIANT_CASES)
@pytest.mark.parametrize("vn_mode", VN_MODES)
def test_decoder_is_shift_equivariant_on_gb_graphs(
    small_graph, gb126_graph, variant, kw, vn_mode
):
    # with early stop off every row runs every iteration; a jointly shifted
    # syndrome gives the shifted messages and decisions, bit for bit
    cfg = DecoderConfig(variant, vn_mode=vn_mode, **kw)
    for graph, eps, shifts in ((small_graph, 0.1, range(1, 5)), (gb126_graph, 0.06, (1, 17, 40))):
        prior = prior_llr(eps)
        errors = sample_error(eps, 20260810, graph.n, 0, count=64)
        syndromes = graph.syndromes(errors)
        want = _traced(graph, syndromes, prior, cfg, early_stop=False)
        assert len(want) == cfg.l_max
        for t in shifts:
            node = _shift(graph.ell, t)
            moved = np.empty_like(errors)
            moved[:, node] = errors
            shifted = graph.syndromes(moved)
            assert np.array_equal(shifted[:, node], syndromes)
            got = _traced(graph, shifted, prior, cfg, early_stop=False)
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert a.gamma.tobytes() == b.gamma.tobytes()
                assert a.vmsg[:, node].tobytes() == b.vmsg.tobytes()
                assert a.cv[:, node].tobytes() == b.cv.tobytes()
                assert a.e_hat[:, node].tobytes() == b.e_hat.tobytes()


def _outcome_hash(r) -> str:
    h = hashlib.sha256()
    h.update(r.success.astype(np.uint8).tobytes())
    h.update(r.iterations.astype(np.int64).tobytes())
    h.update(r.e_hat.astype(np.uint8).tobytes())
    return h.hexdigest()


# -- batching and schedule invariances --------------------------------------------


@pytest.mark.parametrize("variant,kw", VARIANT_CASES)
@pytest.mark.parametrize("vn_mode", ["marginal", "additive"])
def test_batch_partition_invariance(
    small_code, small_graph, tree_code, tree_graph, variant, kw, vn_mode, monkeypatch
):
    prior = prior_llr(0.15)
    cfg = DecoderConfig(variant, l_max=8, vn_mode=vn_mode, **kw)
    for H, graph in ((small_code, small_graph), (tree_code, tree_graph)):
        errors = sample_error(0.15, 5, H.n, 0, count=64)
        syndromes = graph.syndromes(errors)
        whole = decode_batch(graph, syndromes, prior, cfg)
        # 7-row slabs, the last one short, must agree bitwise with one slab
        with monkeypatch.context() as patch:
            patch.setattr(decoder, "SLAB_ROWS", 7)
            slabs = decode_batch(graph, syndromes, prior, cfg)
        assert _outcome_hash(slabs) == _outcome_hash(whole)
        # per-frame decodes must agree bitwise with the batched run
        for f in range(64):
            single = decode_batch(graph, syndromes[f : f + 1], prior, cfg)
            assert single.success[0] == whole.success[f]
            assert single.iterations[0] == whole.iterations[f]
            assert np.array_equal(single.e_hat[0], whole.e_hat[f])


@pytest.mark.parametrize("variant,kw", VARIANT_CASES)
@pytest.mark.parametrize("vn_mode", VN_MODES)
def test_trace_never_changes_a_result(tree_graph, variant, kw, vn_mode):
    # a trace adds the final update of every frame still active at l_max
    prior = prior_llr(0.2)
    cfg = DecoderConfig(variant, l_max=3, vn_mode=vn_mode, **kw)
    syndromes = np.random.default_rng(3).integers(0, 2, size=(64, tree_graph.m))
    for early_stop in (True, False):
        plain = decode_batch(tree_graph, syndromes, prior, cfg, early_stop=early_stop)
        assert plain.success.any() and not plain.success.all()
        trace = []
        traced = decode_batch(
            tree_graph, syndromes, prior, cfg, early_stop=early_stop, trace=trace
        )
        assert np.array_equal(traced.success, plain.success)
        assert np.array_equal(traced.iterations, plain.iterations)
        assert np.array_equal(traced.e_hat, plain.e_hat)
        assert [r.iteration for r in trace] == list(range(1, cfg.l_max + 1))


def test_trace_gammas_match_single_frame_decodes(small_code, small_graph, monkeypatch):
    prior = prior_llr(0.1)
    cfg = DecoderConfig("sagms", l_max=8, gain=GAIN)
    errors = sample_error(0.1, 21, small_code.n, 0, count=48)
    syndromes = small_graph.syndromes(errors)
    trace = []
    monkeypatch.setattr(decoder, "SLAB_ROWS", 7)
    res = decode_batch(small_graph, syndromes, prior, cfg, trace=trace)
    # frames leave the active set at different iterations, and some fail
    assert len(set(res.iterations[res.success].tolist())) >= 3
    assert not res.success.all()
    # each slab appends its own records, numbered by batch row
    firsts = [r.rows.tolist() for r in trace if r.iteration == 1]
    assert firsts == [list(range(at, min(at + 7, 48))) for at in range(0, 48, 7)]
    # and each row's ratios are those of its own one-row batch
    for s, gammas in zip(syndromes, _row_gammas(trace, len(syndromes))):
        assert gammas == _row_gammas(_traced(small_graph, s, prior, cfg), 1)[0]


def test_trace_records_copy_the_reused_workspace(small_code, small_graph, monkeypatch):
    prior = prior_llr(0.1)
    cfg = DecoderConfig("bp4", l_max=8)
    errors = sample_error(0.1, 21, small_code.n, 0, count=48)
    syndromes = small_graph.syndromes(errors)
    monkeypatch.setattr(decoder, "SLAB_ROWS", 7)
    trace = []
    decode_batch(small_graph, syndromes, prior, cfg, trace=trace)
    # later slabs of the same call rewrote the workspace after these records
    alone = []
    for at in range(0, 48, 7):
        records = []
        decode_batch(small_graph, syndromes[at : at + 7], prior, cfg, trace=records)
        alone += [(r.rows + at, r.vmsg, r.cv) for r in records]
    assert len(alone) == len(trace)
    for rec, (rows, vmsg, cv) in zip(trace, alone):
        assert np.array_equal(rec.rows, rows)
        assert np.array_equal(rec.vmsg, vmsg) and np.array_equal(rec.cv, cv)
    # and a later call leaves them as they are
    held = [r for r in trace if r.vmsg is not None]
    kept = [(r.vmsg.copy(), r.cv.copy()) for r in held]
    decode_batch(small_graph, syndromes[::-1], prior, cfg, trace=[])
    for rec, (vmsg, cv) in zip(held, kept):
        assert np.array_equal(rec.vmsg, vmsg) and np.array_equal(rec.cv, cv)


@pytest.mark.parametrize("early_stop", [True, False])
def test_trace_decision_is_the_one_the_next_iteration_tests(
    small_code, small_graph, early_stop, monkeypatch
):
    prior = prior_llr(0.1)
    cfg = DecoderConfig("sagms", l_max=8, gain=GAIN)
    errors = sample_error(0.1, 21, small_code.n, 0, count=48)
    syndromes = small_graph.syndromes(errors)
    monkeypatch.setattr(decoder, "SLAB_ROWS", 7)
    trace = []
    res = decode_batch(small_graph, syndromes, prior, cfg, early_stop=early_stop, trace=trace)
    # a record's messages and decision are for the rows left after early
    # exit, ``kept``, which the slab's next record decodes
    for rec in trace:
        left = rec.rows[rec.gamma > 0] if early_stop else rec.rows
        if left.size == 0:
            assert rec.kept is rec.vmsg is rec.cv is rec.e_hat is None
        else:
            assert np.array_equal(rec.kept, left)
            assert rec.e_hat.shape == (left.size, small_code.n)
            assert len(rec.vmsg) == len(rec.cv) == left.size
    nexts = [(a, b) for a, b in zip(trace, trace[1:]) if b.iteration > 1]
    assert len(nexts) == len(trace) - sum(r.iteration == 1 for r in trace)
    for rec, nxt in nexts:
        assert np.array_equal(nxt.rows, rec.kept)
        # its residual syndrome ratios are the next record's gammas
        residual = syndromes[nxt.rows] ^ small_graph.syndromes(rec.e_hat)
        assert nxt.gamma.tolist() == [syndrome_ratio(r) for r in residual]
        # a row that first converges there reports that decision
        first = res.iterations[nxt.rows] == nxt.iteration
        assert np.array_equal(res.e_hat[nxt.rows[first]], rec.e_hat[first])


def test_decode_batch_memory_does_not_grow_with_rows(gb126_code, gb126_graph):
    # one workspace of SLAB_ROWS rows serves every slab of a batch
    prior = prior_llr(0.05)
    cfg = DecoderConfig("sagms", l_max=8, gain=GAIN)
    errors = sample_error(0.05, 3, gb126_code.n, 0, count=8 * SLAB_ROWS)
    syndromes = gb126_graph.syndromes(errors)
    peaks = []
    for rows in (SLAB_ROWS, 8 * SLAB_ROWS):
        tracemalloc.start()
        try:
            decode_batch(gb126_graph, syndromes[:rows], prior, cfg)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.25 * peaks[0], peaks
    # and no message-sized array is allocated beside it: one (d_c, m, r)
    # float64 array of the kernel's layout
    ker = decoder._Kernel(gb126_graph, SLAB_ROWS)
    workspace = sum(a.nbytes for a in vars(ker).values() if isinstance(a, np.ndarray))
    message = gb126_graph.cn_sym.size * SLAB_ROWS * np.dtype(np.float64).itemsize
    assert peaks[0] < workspace + message, (peaks, workspace)


def _message_rows(monkeypatch) -> list:
    """The row counts every message step of the kernel is called with."""
    seen, step = [], decoder._Kernel.vn_messages

    def spy(ker, cv, *args):
        seen.append(cv.shape[-1])
        return step(ker, cv, *args)

    monkeypatch.setattr(decoder._Kernel, "vn_messages", spy)
    return seen


@pytest.mark.parametrize("eps", [0.01, 0.05])
def test_weight_one_syndromes_never_build_messages(gb126_graph, eps, monkeypatch):
    # every single-qubit error converges at iteration 2: the first update
    # sends v0, and the decision after it is tested before any message
    syndromes = gb126_graph.syndromes(_weight_one_errors(gb126_graph.n))
    seen = _message_rows(monkeypatch)
    for mode in VN_MODES:
        for variant, kw in VARIANT_CASES:
            cfg = DecoderConfig(variant, vn_mode=mode, **kw)
            res = decode_batch(gb126_graph, syndromes, prior_llr(eps), cfg)
            assert res.success.all() and (res.iterations == 2).all(), (variant, mode)
    assert seen == []


@pytest.mark.parametrize("variant,kw", VARIANT_CASES)
def test_message_steps_run_only_for_rows_that_go_on(gb126_graph, variant, kw, monkeypatch):
    # a row tested at iterations 1..k (k = l_max on failure) is updated
    # k - 1 times; the first update sends v0, each later one runs the
    # message step: max(k - 2, 0) passes
    errors = sample_error(0.05, 20260810, gb126_graph.n, 0, count=512)
    syndromes = gb126_graph.syndromes(errors)
    seen = _message_rows(monkeypatch)
    res = decode_batch(gb126_graph, syndromes, prior_llr(0.05), DecoderConfig(variant, **kw))
    assert not res.success.all() and len(set(res.iterations.tolist())) > 3
    assert sum(seen) == np.maximum(res.iterations - 2, 0).sum()


def test_decode_deterministic_across_runs(small_code, small_graph):
    prior = prior_llr(0.2)
    e = sample_error(0.2, 9, small_code.n, 0, count=1)
    s = small_graph.syndromes(e)
    cfg = DecoderConfig("bp4", l_max=8)
    _assert_same_messages(
        _traced(small_graph, s, prior, cfg), _traced(small_graph, s, prior, cfg)
    )


# -- cycle-free exactness ----------------------------------------------------------


def test_marginal_bp4_exact_on_trees():
    # Below eps0 0.25 every MAP decision of these trials is the identity,
    # which a decision rule with the X and Z sums swapped also returns;
    # the trials at eps0 0.3-0.6 decide X on some qubits and Z on others.
    decided = set()
    for seed, eps_low, eps_high in ((2024, 0.03, 0.25), (2036, 0.3, 0.6)):
        rng = np.random.default_rng(seed)
        for trial in range(6):
            H = make_tree_code(rng, n_target=int(rng.integers(5, 9)))
            graph = tanner_graph(H)
            eps0 = float(rng.uniform(eps_low, eps_high))
            prior = prior_llr(eps0)
            truth = np.array([rng.choice(4, p=[1 - eps0] + [eps0 / 3] * 3)
                              for _ in range(H.n)], dtype=np.uint8)
            s = syndrome_dense(H, truth)
            cfg = DecoderConfig("bp4", l_max=2 * H.n, vn_mode="marginal")
            final = _traced(graph, s, prior, cfg, early_stop=False)[-1]

            # converged qubit-to-check messages equal brute-force subtree LLRs
            vn_to_cn, _ = edge_messages(graph, final)
            for i, j, _ in edges_of(H):
                expected = brute_vn_message(H, s, eps0, check=i, qubit=j)
                got = vn_to_cn[i, j]
                assert got == pytest.approx(expected, abs=1e-9), (seed, trial, i, j)

            # the decisions the final messages give equal per-qubit posterior
            # maximizers
            hd = final.e_hat[0]
            want = map_decisions(H, s, eps0)
            assert np.array_equal(hd, want), (seed, trial)
            decided.update(want.tolist())
    assert {PAULI_X, PAULI_Z} <= decided


def test_marginal_bp4_beliefs_match_posteriors_on_tree():
    rng = np.random.default_rng(7)
    H = make_tree_code(rng, n_target=7)
    graph = tanner_graph(H)
    eps0 = 0.1
    prior = prior_llr(eps0)
    truth = np.array([0, 1, 0, 0, 2, 0, 3][: H.n], dtype=np.uint8)
    s = syndrome_dense(H, truth)
    cfg = DecoderConfig("bp4", l_max=2 * H.n, vn_mode="marginal")
    _, cn_to_vn = edge_messages(graph, _traced(graph, s, prior, cfg, early_stop=False)[-1])

    marg = posterior_marginals(H, s, eps0)
    from qsagms.pauli import trace_inner

    edges = edges_of(H)
    for j in range(H.n):
        adjacent = [(i, sym) for i, qubit, sym in edges if qubit == j]
        incoming = [cn_to_vn[i, j] for i, _ in adjacent]
        syms = [sym for _, sym in adjacent]
        metrics = []
        for e in range(4):
            m = 0.0 if e == 0 else prior
            for msg, sym in zip(incoming, syms):
                if trace_inner(e, sym):
                    m += msg
            metrics.append(m)
        # decision metrics are shifted negative log posteriors
        for e in range(1, 4):
            if marg[j, e] > 1e-12 and marg[j, 0] > 1e-12:
                expected = math.log(marg[j, 0] / marg[j, e])
                assert metrics[e] - metrics[0] == pytest.approx(expected, abs=1e-9)


def test_phi_function_is_self_inverse():
    for x in (0.1, 1.0, 5.0, 20.0):
        assert phi_llr(phi_llr(x)) == pytest.approx(x, abs=1e-10)
