from __future__ import annotations

import hashlib
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qsagms.channel import ChannelPrior, DepolarizingChannel, prior_llr, sample_error
from qsagms.code import GbSpec, SparseCheckMatrix, build_gb, tanner_graph
from qsagms.analysis import phi_llr
from qsagms.decoder import (
    VN_MODES,
    DecoderConfig,
    GainParams,
    _Kernel,
    decode,
    decode_batch,
)
from qsagms.pauli import PAULI_X, PAULI_Y, PAULI_Z

from .conftest import make_tree_code
from .oracles import (
    brute_vn_message,
    cn_update,
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


# -- qubit-node update ----------------------------------------------------------


def test_vn_update_additive_examples():
    prior = ChannelPrior(epsilon0=0.01, llr=5.69)
    assert vn_update("additive", prior, []) == pytest.approx(5.69)
    assert vn_update("additive", prior, [-1.0, 0.5]) == pytest.approx(5.19)


def test_vn_update_additive_clips():
    prior = ChannelPrior(epsilon0=0.01, llr=5.69)
    assert vn_update("additive", prior, [60.0, 60.0]) == 64.0


def test_vn_update_marginal_empty_set_matches_prior_marginal():
    prior = prior_llr(0.1)
    out = vn_update("marginal", prior, [], [], PAULI_X)
    # commuting mass (1 - eps) + eps/3, anticommuting 2 eps/3
    expected = math.log((0.9 + 0.1 / 3) / (2 * 0.1 / 3))
    assert out == pytest.approx(expected, abs=1e-12)


def test_vn_update_marginal_needs_symbols():
    prior = prior_llr(0.1)
    with pytest.raises(ValueError):
        vn_update("marginal", prior, [1.0])


# -- hard decision ---------------------------------------------------------------


def test_hard_decision_prior_dominates():
    prior = ChannelPrior(epsilon0=0.05, llr=4.0)
    assert hard_decision(prior, [], []) == 0  # identity


def test_hard_decision_single_edge_tie_break():
    # one X-symbol edge with message -10, prior 3.3:
    # m(I)=0, m(X)=3.3, m(Z)=m(Y)=-6.7 -> Z wins the tie (Z before Y)
    prior = ChannelPrior(epsilon0=0.1, llr=3.3)
    assert hard_decision(prior, [-10.0], [PAULI_X]) == PAULI_Z


def test_hard_decision_metric_enumeration():
    prior = ChannelPrior(epsilon0=0.1, llr=3.3)
    incoming = [-10.0, 2.0]
    syms = [PAULI_X, PAULI_Z]
    from qsagms.pauli import trace_inner

    metrics = []
    for e in range(4):
        m = 0.0 if e == 0 else prior.llr
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


# -- decode: trivial and structural cases ----------------------------------------


@pytest.mark.parametrize("variant,kw", VARIANT_CASES)
def test_decode_zero_syndrome(toy_graph, variant, kw):
    prior = prior_llr(0.05)
    cfg = DecoderConfig(variant, l_max=8, **kw)
    r = decode(toy_graph, np.zeros(6, dtype=np.uint8), prior, cfg)
    assert r.success and r.iterations_used == 1
    assert not r.e_hat.any()
    assert r.gamma_trace.tolist() == [0.0]


def test_weight1_regression_twinned_toy_code(toy_graph):
    """Frozen outcome: the [[6,2]] fixture's twin columns (0/5, 1/3, 2/4)
    make every weight-1 syndrome invariant under a column swap, so no
    symmetric flooding decoder can zero it; all 18 cases fail."""
    prior = prior_llr(0.05)
    for vn_mode in ("marginal", "additive"):
        cfg = DecoderConfig("bp4", l_max=8, vn_mode=vn_mode)
        outcomes = []
        for j in range(6):
            for p in (1, 2, 3):
                e = np.zeros(6, dtype=np.uint8)
                e[j] = p
                r = decode(toy_graph, toy_graph.syndromes(e), prior, cfg)
                outcomes.append(r.success)
        assert outcomes == [False] * 18


def test_weight1_all_converge_on_twin_free_code(small_code, small_graph):
    prior = prior_llr(0.05)
    for variant, kw in [
        ("bp4", {}), ("ms", {}), ("sms", {"alpha": 0.5}), ("sagms", {"gain": GAIN}),
    ]:
        cfg = DecoderConfig(variant, l_max=8, **kw)
        for j in range(small_code.n):
            for p in (1, 2, 3):
                e = np.zeros(small_code.n, dtype=np.uint8)
                e[j] = p
                s = small_graph.syndromes(e)
                r = decode(small_graph, s, prior, cfg)
                assert r.success, (variant, j, p)
                assert np.array_equal(small_graph.syndromes(r.e_hat), s)


def test_decode_success_implies_zero_residual(small_code, small_graph):
    prior = prior_llr(0.08)
    ch = DepolarizingChannel(0.08, 42)
    cfg = DecoderConfig("sagms", l_max=8, gain=GAIN)
    for e in sample_error(ch, small_code.n, 0, count=200):
        s = small_graph.syndromes(e)
        r = decode(small_graph, s, prior, cfg)
        if r.success:
            assert np.array_equal(small_graph.syndromes(r.e_hat), s)
        assert np.all((r.gamma_trace >= 0) & (r.gamma_trace <= 1))
        # early termination at the first zero ratio, never later
        zeros = np.nonzero(r.gamma_trace == 0.0)[0]
        if r.success:
            assert zeros.size and zeros[0] == r.iterations_used - 1


# -- degenerate-parameter equivalences -------------------------------------------


def _frame_outcomes(H, graph, cfg, epsilon, n_frames, seed):
    prior = prior_llr(epsilon)
    ch = DepolarizingChannel(epsilon, seed)
    errors = sample_error(ch, H.n, 0, count=n_frames)
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


def test_degenerate_equivalence_message_trajectories(small_code, small_graph):
    prior = prior_llr(0.1)
    e = np.zeros(small_code.n, dtype=np.uint8)
    e[2] = PAULI_X
    e[7] = PAULI_Z
    s = small_graph.syndromes(e)
    r1 = decode(
        small_graph, s, prior,
        DecoderConfig("sagms", l_max=6, gain=GainParams(0.5, 0.5, 1.0)),
        early_stop=False,
    )
    r2 = decode(
        small_graph, s, prior,
        DecoderConfig("sms", l_max=6, alpha=0.5), early_stop=False,
    )
    for st1, st2 in zip(r1.message_trace, r2.message_trace):
        assert np.array_equal(st1.vn_to_cn, st2.vn_to_cn)
        assert np.array_equal(st1.cn_to_vn, st2.cn_to_vn)


# -- engine vs scalar reference ---------------------------------------------------


@pytest.mark.parametrize("variant,kw", VARIANT_CASES)
@pytest.mark.parametrize("vn_mode", ["marginal", "additive"])
def test_engine_matches_reference_decoder(
    small_code, small_graph, tree_code, tree_graph, variant, kw, vn_mode
):
    # the tree's irregular degrees exercise the padded slots of the kernel
    prior = prior_llr(0.12)
    ch = DepolarizingChannel(0.12, 77)
    cfg = DecoderConfig(variant, l_max=6, vn_mode=vn_mode, **kw)
    for H, graph in ((small_code, small_graph), (tree_code, tree_graph)):
        for e in sample_error(ch, H.n, 0, count=25):
            s = graph.syndromes(e)
            got = decode(graph, s, prior, cfg)
            ok, e_hat, iters, gammas = reference_decode(H, s, prior, cfg)
            assert got.success == ok
            assert got.iterations_used == iters
            assert np.array_equal(got.e_hat, e_hat)
            assert np.allclose(got.gamma_trace, gammas, atol=1e-12)


@pytest.mark.slow
def test_engine_ms_failures_match_reference_decoder(gb126_code, gb126_graph):
    # The frames of acceptance criterion 6: the min-sum failures there are
    # the stated rule's own, not an engine artifact.
    prior = prior_llr(0.01)
    ch = DepolarizingChannel(0.01, 20260810)
    cfg = DecoderConfig("ms", l_max=8)
    errors = sample_error(ch, gb126_code.n, 0, count=4096)
    syndromes = gb126_graph.syndromes(errors)
    got = decode_batch(gb126_graph, syndromes, prior, cfg)
    failed = np.flatnonzero(~got.success)[:16]
    assert len(failed) == 16
    for frame in failed:
        ok, e_hat, iters, _ = reference_decode(gb126_code, syndromes[frame], prior, cfg)
        assert not ok
        assert got.iterations[frame] == iters
        assert np.array_equal(got.e_hat[frame], e_hat)


def test_engine_messages_match_reference(small_code, small_graph):
    prior = prior_llr(0.1)
    e = np.zeros(small_code.n, dtype=np.uint8)
    e[0] = PAULI_Y
    s = small_graph.syndromes(e)
    cfg = DecoderConfig("sagms", l_max=5, gain=GAIN)
    got = decode(small_graph, s, prior, cfg, early_stop=False)
    record = []
    reference_decode(small_code, s, prior, cfg, record=record)
    edges = edges_of(small_code)
    for state, (ref_v, ref_c) in zip(got.message_trace, record):
        for idx, (i, j, _) in enumerate(edges):
            assert state.vn_to_cn[idx] == pytest.approx(ref_v[(i, j)], abs=1e-9)
            assert state.cn_to_vn[idx] == pytest.approx(ref_c[(i, j)], abs=1e-9)


#: SHA-256 over (success, iterations, e_hat) of frames 0-511 of
#: DepolarizingChannel(0.05, 20260810) on [[126,28]], l_max 8.
PINNED_126_HASHES = {
    "bp4": "f8e9050ece62c018e45ae2fc75742ed99eb18a8f50ff3559d0d86a9b7dbab421",
    "ms": "603792c9d85e565fa9a889fb30c30f4ed3c4af498fcbbc3d53eb03a9c9701ce1",
    "sms": "53ce41c9497a7a3a4c8c86a4c6cf5e6207f8f276e46aaf4b5420cf2b846afe98",
    "sagms": "d7114992f567267f5ea623c8489732a1ca5221371d8062ba97690a6b0ddeb46e",
    "sagms-additive": "3b1a02cb8c3b377e02b842ac385a9da28393c4a1b380df59c75ae69749d622cc",
}


def test_engine_output_pinned_on_126(gb126_code, gb126_graph):
    ch = DepolarizingChannel(0.05, 20260810)
    syndromes = np.stack([
        syndrome_dense(gb126_code, e) for e in sample_error(ch, gb126_code.n, 0, count=512)
    ])
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


#: As above for frames 0-511 of DepolarizingChannel(0.08, 20260810) on the
#: irregular matrix below, every variant in both qubit-node modes.
PINNED_IRREGULAR_HASHES = {
    "bp4-marginal": "e2a8c6ee7ef0eadc9da345f029c57868bc159dfc56b19372c31471e15f447f51",
    "ms-marginal": "520ef0ca990ef3f8e84c068f7402cd34dd0dbc011dce538302a11e07bb3f22ea",
    "sms-marginal": "3a061fe933b2c1f8916652e3e548946dcdd838d8c1ec9107b802835a9982878e",
    "sagms-marginal": "df6fda54f2cf0625999214942f83104f3cead3f0276905b644f13502f7692e6a",
    "bp4-additive": "b85a318c6940011ab129c7fde9b1de14465e3701fd2372599e75ba70bee330e5",
    "ms-additive": "5b171742eeb01a13e78fb764765ad27fb570bc0bcc1a159dd800cb40ce131356",
    "sms-additive": "c2a4fb4db4e84772d93bc37d58cdba0d4cf16ab89e9afbfa49683a0a392e44a8",
    "sagms-additive": "861a5dd4f8531008eb8f9e00ec9b9446b34e9d4e09a9f0deb7db7edcee2416fb",
}


def test_engine_output_pinned_on_irregular_graph():
    # check degrees 2-14: padded rows are 9 or more slots wide, where numpy's
    # pairwise sums would regroup real terms if padding entered them
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
    assert graph.cn_sym.shape[1] >= 10 and graph.cn_degrees.min() < 9
    ch = DepolarizingChannel(0.08, 20260810)
    syndromes = np.stack([syndrome_dense(H, e) for e in sample_error(ch, H.n, 0, count=512)])
    got = {}
    for mode in VN_MODES:
        for variant, kw in (("bp4", {}), ("ms", {}), ("sms", {"alpha": 0.5}),
                            ("sagms", {"gain": GAIN})):
            cfg = DecoderConfig(variant, vn_mode=mode, **kw)
            r = decode_batch(graph, syndromes, prior_llr(0.08), cfg)
            got[f"{variant}-{mode}"] = _outcome_hash(r)
    assert got == PINNED_IRREGULAR_HASHES


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
    small_code, small_graph, tree_code, tree_graph, variant, kw, vn_mode
):
    prior = prior_llr(0.15)
    ch = DepolarizingChannel(0.15, 5)
    cfg = DecoderConfig(variant, l_max=8, vn_mode=vn_mode, **kw)
    for H, graph in ((small_code, small_graph), (tree_code, tree_graph)):
        errors = sample_error(ch, H.n, 0, count=64)
        syndromes = graph.syndromes(errors)
        whole = decode_batch(graph, syndromes, prior, cfg)
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


def test_trace_gammas_match_single_frame_decodes(small_code, small_graph):
    prior = prior_llr(0.1)
    ch = DepolarizingChannel(0.1, 21)
    cfg = DecoderConfig("sagms", l_max=8, gain=GAIN)
    errors = sample_error(ch, small_code.n, 0, count=48)
    syndromes = small_graph.syndromes(errors)
    trace = []
    res = decode_batch(small_graph, syndromes, prior, cfg, trace=trace)
    # frames leave the active set at different iterations, and some fail
    assert len(set(res.iterations[res.success].tolist())) >= 3
    assert not res.success.all()
    per_row = [[] for _ in syndromes]
    for rec in trace:
        for row, gamma in zip(rec.rows, rec.gamma):
            per_row[row].append(gamma)
    for row, s in enumerate(syndromes):
        single = decode(small_graph, s, prior, cfg)
        assert per_row[row] == single.gamma_trace.tolist()


def test_decode_deterministic_across_runs(small_code, small_graph):
    prior = prior_llr(0.2)
    e = sample_error(DepolarizingChannel(0.2, 9), small_code.n, 0)
    s = small_graph.syndromes(e)
    cfg = DecoderConfig("bp4", l_max=8)
    r1 = decode(small_graph, s, prior, cfg)
    r2 = decode(small_graph, s, prior, cfg)
    for st1, st2 in zip(r1.message_trace, r2.message_trace):
        assert np.array_equal(st1.vn_to_cn, st2.vn_to_cn)


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
            result = decode(graph, s, prior, cfg, early_stop=False)
            final = result.message_trace[-1]

            # converged qubit-to-check messages equal brute-force subtree LLRs
            for idx, (i, j, _) in enumerate(edges_of(H)):
                expected = brute_vn_message(H, s, eps0, check=i, qubit=j)
                got = float(final.vn_to_cn[idx])
                assert got == pytest.approx(expected, abs=1e-9), (seed, trial, i, j)

            # final hard decisions equal per-qubit posterior maximizers
            cmsg = np.zeros(graph.cn_sym.shape)
            cmsg[graph.cn_sym != 0] = final.cn_to_vn
            ker = _Kernel(graph)
            hd = ker.vn_step(ker.to_qubits(cmsg[None]), prior.llr, cfg)[1][0]
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
    result = decode(graph, s, prior, cfg, early_stop=False)
    final = result.message_trace[-1]

    marg = posterior_marginals(H, s, eps0)
    from qsagms.pauli import trace_inner

    edges = edges_of(H)
    for j in range(H.n):
        adjacent = [k for k, edge in enumerate(edges) if edge[1] == j]
        incoming = [float(final.cn_to_vn[k]) for k in adjacent]
        syms = [edges[k][2] for k in adjacent]
        metrics = []
        for e in range(4):
            m = 0.0 if e == 0 else prior.llr
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
