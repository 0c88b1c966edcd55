"""Acceptance criteria, one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines for
passing criteria too.  Criteria 6-8 decode millions of message-passing
iterations and carry the ``slow`` marker (a few minutes in total); deselect
with ``-m 'not slow'`` for a quick pass over the analytical criteria.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
import pytest

from qsagms.analysis import (
    alpha_star_approx,
    check_monotonicity,
    delta_alpha,
    op_count,
    transfer,
)
from qsagms.channel import DepolarizingChannel, prior_llr, sample_error
from qsagms.code import SparseCheckMatrix, GbSpec, build_gb, tanner_graph
from qsagms.decoder import DecoderConfig, GainParams, decode_batch
from qsagms.harness import SweepConfig, run_sweep, wilson_interval

from .conftest import make_tree_code
from .oracles import (
    brute_vn_message,
    edge_messages,
    edges_of,
    map_decisions,
    syndrome_dense,
)

LN27 = math.log(27.0)
GAIN = GainParams(0.30, 0.50, 1.10)


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"\nACCEPTANCE {num} [{name}]: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def _fer(graph, variant, eps, n_frames, seed=20260810, l_max=8, **kw):
    """FER over a fixed frame count; matched prior; frames keyed by index."""
    cfg = DecoderConfig(variant, l_max=l_max, **kw)
    prior = prior_llr(eps)
    ch = DepolarizingChannel(eps, seed)
    batch = 4096
    failures = 0
    for start in range(0, n_frames, batch):
        count = min(batch, n_frames - start)
        syndromes = graph.syndromes(sample_error(ch, graph.n, start, count=count))
        res = decode_batch(graph, syndromes, prior, cfg)
        failures += int((~res.success).sum())
    lo, hi = wilson_interval(failures, n_frames)
    return failures / n_frames, lo, hi, failures


def test_criterion_1_analytical_golden_values():
    checks = {
        "alpha*_approx(ln27,16)": abs(alpha_star_approx(LN27, 16) - 0.179) <= 0.005,
        "alpha*_approx(ln27,10)": abs(alpha_star_approx(LN27, 10) - 0.333) <= 0.005,
        "delta_alpha(ln27,10,16)": abs(delta_alpha(LN27, 10, 16) - 0.155) <= 0.005,
        "C_bp4(10)=207": op_count("bp4", 10).weighted_total == 207,
        "C_sms(10)=18": op_count("sms", 10).weighted_total == 18,
        "C_sagms(10)=23": op_count("sagms", 10).weighted_total == 23,
    }
    bad = [k for k, ok in checks.items() if not ok]
    _report(1, "analytical golden values", not bad, f"violations={bad or 'none'}")


def test_criterion_2_matching_ratio_monotone_in_degree():
    violations = [
        l0 for l0 in (1.0, 2.0, 3.2958, 5.69, 10.0)
        if not check_monotonicity(l0, (2, 64))
    ]
    _report(2, "matching ratio strictly decreasing", not violations,
            f"violating priors={violations or 'none'}")


def test_criterion_3_transfer_never_exceeds_input():
    kappas = np.linspace(0.05, 3.0, 200)
    worst = -math.inf
    ok = True
    for d_c in range(3, 11):
        out = transfer("bp4", kappas, d_c=d_c)
        ok &= bool(np.all(out < kappas))
        worst = max(worst, float(np.max(out - kappas)))
    _report(3, "bp4 transfer bounded by minimum input", ok,
            f"max(T-kappa)={worst:.3e} over 200x8 grid (strict)")


def _equivalence_frames(H, graph, cfg_a, cfg_b, n_frames, eps, seed, n_traj):
    prior = prior_llr(eps)
    ch = DepolarizingChannel(eps, seed)
    syndromes = graph.syndromes(sample_error(ch, H.n, 0, count=n_frames))
    ra = decode_batch(graph, syndromes, prior, cfg_a)
    rb = decode_batch(graph, syndromes, prior, cfg_b)
    results_equal = (
        np.array_equal(ra.success, rb.success)
        and np.array_equal(ra.e_hat, rb.e_hat)
        and np.array_equal(ra.iterations, rb.iterations)
    )
    # every message of the first n_traj frames, traced in one batch each
    ta, tb = [], []
    decode_batch(graph, syndromes[:n_traj], prior, cfg_a, early_stop=False, trace=ta)
    decode_batch(graph, syndromes[:n_traj], prior, cfg_b, early_stop=False, trace=tb)
    traj_equal = len(ta) == len(tb) and all(
        np.array_equal(a.vmsg, b.vmsg) and np.array_equal(a.cv, b.cv) for a, b in zip(ta, tb)
    )
    return results_equal, traj_equal


def test_criterion_4_degenerate_parameter_equivalence(
    toy_code, toy_graph, gb126_code, gb126_graph
):
    pairs = [
        ("sagms(.5,.5,1)=sms(.5)",
         DecoderConfig("sagms", l_max=8, gain=GainParams(0.5, 0.5, 1.0)),
         DecoderConfig("sms", l_max=8, alpha=0.5)),
        ("sms(1)=ms",
         DecoderConfig("sms", l_max=8, alpha=1.0),
         DecoderConfig("ms", l_max=8)),
    ]
    failures = []
    for name, cfg_a, cfg_b in pairs:
        for label, H, graph, n_traj in (
            ("toy", toy_code, toy_graph, 1000),
            ("126-28", gb126_code, gb126_graph, 200),
        ):
            res_eq, traj_eq = _equivalence_frames(
                H, graph, cfg_a, cfg_b, n_frames=1000, eps=0.08,
                seed=314, n_traj=n_traj,
            )
            if not (res_eq and traj_eq):
                failures.append(f"{name}@{label}")
    _report(4, "degenerate parameters are bit-identical", not failures,
            f"1000 frames/code, violations={failures or 'none'}")


def test_criterion_5_cycle_free_enumeration_oracle():
    rng = np.random.default_rng(99)
    worst = 0.0
    decisions_ok = True
    for _ in range(5):
        H = make_tree_code(rng, n_target=int(rng.integers(5, 9)))
        graph = tanner_graph(H)
        eps0 = float(rng.uniform(0.05, 0.2))
        prior = prior_llr(eps0)
        truth = np.array(
            [rng.choice(4, p=[1 - eps0] + [eps0 / 3] * 3) for _ in range(H.n)],
            dtype=np.uint8,
        )
        s = syndrome_dense(H, truth)
        cfg = DecoderConfig("bp4", l_max=2 * H.n, vn_mode="marginal")
        trace = []
        decode_batch(graph, s[None, :], prior, cfg, early_stop=False, trace=trace)
        vn_to_cn, _ = edge_messages(graph, trace[-1])
        for i, j, _ in edges_of(H):
            expected = brute_vn_message(H, s, eps0, check=i, qubit=j)
            worst = max(worst, abs(vn_to_cn[i, j] - expected))
        # the decision the final messages give
        hd = trace[-1].e_hat[0]
        decisions_ok &= bool(np.array_equal(hd, map_decisions(H, s, eps0)))
    ok = worst <= 1e-9 and decisions_ok
    _report(5, "tree oracle (4^n enumeration)", ok,
            f"max message error={worst:.2e} (tol 1e-9), decisions match={decisions_ok}")


@pytest.mark.slow
def test_criterion_6_published_ms_anchor(gb126_graph):
    # Unscaled min-sum overestimates check-node magnitudes and pays for it in
    # FER; scaling (sms, sagms) and exact bp4 win it back on the same frames.
    ms = _fer(gb126_graph, "ms", eps=0.01, n_frames=10_000)
    others = {
        "sms(0.50)": _fer(gb126_graph, "sms", 0.01, 10_000, alpha=0.5),
        "sagms(0.30,0.50,1.10)": _fer(gb126_graph, "sagms", 0.01, 10_000, gain=GAIN),
        "bp4": _fer(gb126_graph, "bp4", 0.01, 10_000),
    }
    # the ms interval must lie wholly above each other interval
    not_above = [name for name, other in others.items() if ms[1] <= other[2]]
    counts = ", ".join(
        f"{name}={other[3]}/10000 (CI upper {other[2]:.4g})"
        for name, other in others.items()
    )
    _report(
        6, "min-sum penalty at eps=0.01", not not_above,
        f"ms FER={ms[0]:.4g} CI=[{ms[1]:.4g},{ms[2]:.4g}] ({ms[3]}/10000); "
        f"{counts}; ms CI not above={not_above or 'none'}; "
        f"published ms FER >12%: not reproduced, see README Reproduction notes",
    )


@pytest.mark.slow
def test_criterion_7_qualitative_orderings(gb126_graph):
    verdicts = []
    ok = True

    # (i) eps=0.06: bp4 beats sms and sagms
    bp4 = _fer(gb126_graph, "bp4", 0.06, 10_000)
    sms = _fer(gb126_graph, "sms", 0.06, 10_000, alpha=0.5)
    sagms = _fer(gb126_graph, "sagms", 0.06, 10_000, gain=GAIN)
    for name, other in (("sms", sms), ("sagms", sagms)):
        separated = bp4[2] < other[1]  # bp4 upper CI below the other's lower CI
        if separated:
            verdicts.append(f"eps=0.06 bp4<{name}: CONFIRMED "
                            f"({bp4[0]:.3g} vs {other[0]:.3g})")
        elif bp4[0] < other[0]:
            verdicts.append(f"eps=0.06 bp4<{name}: INCONCLUSIVE overlapping CIs "
                            f"([{bp4[1]:.3g},{bp4[2]:.3g}] vs [{other[1]:.3g},{other[2]:.3g}])")
        else:
            verdicts.append(f"eps=0.06 bp4<{name}: VIOLATED")
            ok = False

    # (ii) eps=0.02: sagms crosses below bp4
    bp4_low = _fer(gb126_graph, "bp4", 0.02, 30_000)
    sagms_low = _fer(gb126_graph, "sagms", 0.02, 30_000, gain=GAIN)
    separated = sagms_low[2] < bp4_low[1]
    if separated:
        verdicts.append(f"eps=0.02 sagms<bp4: CONFIRMED "
                        f"({sagms_low[0]:.3g} vs {bp4_low[0]:.3g})")
    elif sagms_low[0] < bp4_low[0]:
        verdicts.append("eps=0.02 sagms<bp4: INCONCLUSIVE overlapping CIs")
    else:
        verdicts.append("eps=0.02 sagms<bp4: VIOLATED")
        ok = False

    _report(7, "published orderings", ok, "; ".join(verdicts))


@pytest.mark.slow
def test_criterion_8_protocol_determinism_and_precision(tmp_path, small_code, small_graph):
    # byte-identical artifacts for worker counts 1 and 8
    def run(workers, out):
        cfg = SweepConfig(
            code_id="gb-10-2", decoder=DecoderConfig("sagms", l_max=8, gain=GAIN),
            epsilon_list=(0.25, 0.2), seed=777, target_failures=120,
            max_frames=50_000, workers=workers,
        )
        return run_sweep(small_code, small_graph, cfg, out_dir=out)

    p1 = run(1, tmp_path / "w1")
    p8 = run(8, tmp_path / "w8")
    identical_points = p1 == p8
    identical_bytes = (
        (tmp_path / "w1" / "results.json").read_bytes()
        == (tmp_path / "w8" / "results.json").read_bytes()
        and (tmp_path / "w1" / "fer.tsv").read_bytes()
        == (tmp_path / "w8" / "fer.tsv").read_bytes()
    )

    # Wilson relative half-width at the 500-failure stop is at most 9%
    widths = []
    for frames in (600, 1_000, 5_000, 10_000, 1_000_000, 20_000_000):
        lo, hi = wilson_interval(500, frames)
        widths.append((hi - lo) / 2.0 / (500 / frames))
    width_ok = max(widths) <= 0.09

    script = Path(__file__).resolve().parent.parent / "scripts" / "reproduce_fer_curves.sh"
    text = script.read_text() if script.exists() else ""
    script_ok = "--target-failures 500" in text and "--max-frames 20000000" in text

    ok = identical_points and identical_bytes and width_ok and script_ok
    _report(8, "deterministic protocol and precision", ok,
            f"workers 1 vs 8 identical={identical_points and identical_bytes}, "
            f"max rel half-width at 500 failures={max(widths):.4f} (<=0.09), "
            f"long-run script={script_ok}")


def test_criterion_9_safety_under_fuzzing():
    rng = np.random.default_rng(4242)
    total = 0
    gamma_ok = True
    success_ok = True
    finite_ok = True
    while total < 10_000:
        # random code: generalized bicycle or random tree fixture
        if rng.random() < 0.7:
            ell = int(rng.integers(2, 9))
            a = tuple(sorted(rng.choice(ell, size=int(rng.integers(1, min(4, ell) + 1)),
                                        replace=False).tolist()))
            b = tuple(sorted(rng.choice(ell, size=int(rng.integers(1, min(4, ell) + 1)),
                                        replace=False).tolist()))
            H = build_gb(GbSpec(ell, a, b))
        else:
            H = make_tree_code(rng, n_target=int(rng.integers(4, 12)))
        graph = tanner_graph(H)
        variant = ("bp4", "ms", "sms", "sagms")[int(rng.integers(0, 4))]
        kw = {}
        if variant == "sms":
            kw["alpha"] = float(rng.uniform(0.05, 1.0))
        if variant == "sagms":
            amax = float(rng.uniform(0.2, 0.9))
            amin = float(rng.uniform(0.05, amax))
            eta = float(rng.uniform(1.0, 1.0 / amax))
            kw["gain"] = GainParams(amin, amax, eta)
        cfg = DecoderConfig(
            variant,
            l_max=int(rng.integers(1, 12)),
            vn_mode=("marginal", "additive")[int(rng.integers(0, 2))],
            **kw,
        )
        prior = prior_llr(float(rng.uniform(0.005, 0.6)))
        count = 170
        syndromes = rng.integers(0, 2, size=(count, H.m)).astype(np.uint8)
        trace = []
        res = decode_batch(graph, syndromes, prior, cfg, trace=trace)
        total += count
        # every active frame of every iteration; check-side padding holds +inf
        for rec in trace:
            g = rec.gamma
            if not (np.isfinite(g).all() and (g >= 0).all() and (g <= 1).all()):
                gamma_ok = False
            if rec.vmsg is not None and not (
                np.isfinite(rec.vmsg[:, graph.cn_sym.T != 0]).all()
                and np.isfinite(rec.cv).all()
            ):
                finite_ok = False
        resid = graph.syndromes(res.e_hat) ^ syndromes
        if resid[res.success].any():
            success_ok = False
    ok = gamma_ok and success_ok and finite_ok
    _report(9, "fuzzing safety invariants", ok,
            f"{total} decodes: gamma in [0,1]={gamma_ok}, "
            f"success=>zero residual={success_ok}, finite messages={finite_ok}")
