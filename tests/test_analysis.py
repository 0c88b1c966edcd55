from __future__ import annotations

import io
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qsagms.analysis import (
    OpCount,
    alpha_opt,
    alpha_star_approx,
    alpha_star_exact,
    check_monotonicity,
    delta_alpha,
    expected_min_g,
    linear_gain_fit,
    op_count,
    phi,
    transfer,
    write_curve,
)
from qsagms.decoder import GainParams

from .oracles import effective_gain

LN27 = math.log(27.0)


def _hp_alpha_star(l0: float, d_c: int) -> float:
    with mpmath.workdps(60):
        t = mpmath.tanh(mpmath.mpf(l0) / 2)
        return float(2 * mpmath.atanh(t ** (d_c - 1)) / l0)


def test_phi_closed_form_value():
    with mpmath.workdps(40):
        expected = float(-mpmath.log(mpmath.tanh(mpmath.log(3) / 2)))
    assert phi(math.log(3)) == pytest.approx(expected, abs=1e-15)
    assert phi(math.log(3)) == pytest.approx(math.log(2), abs=1e-12)


def test_phi_involution():
    for x in (0.1, 1.0, 5.0):
        assert phi(phi(x)) == pytest.approx(x, abs=1e-10)


def test_phi_strictly_decreasing():
    assert phi(1.0) > phi(2.0)
    xs = np.linspace(0.05, 30, 500)
    vals = phi(xs)
    assert np.all(np.diff(vals) < 0)


def test_phi_domain_error():
    with pytest.raises(ValueError):
        phi(0.0)
    with pytest.raises(ValueError):
        phi(-1.0)


def test_transfer_examples():
    for kappa in (0.3, 1.0, 2.5):
        assert transfer("ms", kappa) == kappa
        assert transfer("bp4", kappa, d_c=2) == pytest.approx(kappa, abs=1e-12)
    assert transfer("sagms", 2.0, gain=0.65) == pytest.approx(1.30)
    assert transfer("sms", 2.0, gain=0.85) == pytest.approx(1.70)
    assert transfer("sms", 2.0, gain=1.0) == 2.0
    with pytest.raises(ValueError):
        transfer("sms", 1.0)  # gain missing
    for variant in ("sms", "sagms"):
        for gain in (math.nan, -1.0, 0.0, 1.5, math.inf):
            with pytest.raises(ValueError, match=rf"^{variant} transfer needs a gain in \(0, 1\]"):
                transfer(variant, 1.0, gain=gain)
    with pytest.raises(ValueError):
        transfer("bp4", 1.0)  # degree missing
    with pytest.raises(ValueError):
        transfer("bp4", -1.0, d_c=4)


def test_transfer_bp4_never_exceeds_input():
    kappas = np.linspace(0.05, 3.0, 200)
    for d_c in range(3, 11):
        out = transfer("bp4", kappas, d_c=d_c)
        assert np.all(out < kappas)  # strict for d_c >= 3
    out2 = transfer("bp4", kappas, d_c=2)
    assert np.allclose(out2, kappas, atol=1e-9)


def test_alpha_star_approx_published_values():
    assert alpha_star_approx(LN27, 16) == pytest.approx(0.179, abs=0.005)
    assert alpha_star_approx(LN27, 10) == pytest.approx(0.333, abs=0.005)
    # d_c = 10 at this prior is exactly 1/3: ln 9 / ln 27 = 2/3
    assert alpha_star_approx(LN27, 10) == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_alpha_star_exact_degree_two_is_one():
    for l0 in (0.5, 1.0, 3.2958, 10.0):
        assert alpha_star_exact(l0, 2) == pytest.approx(1.0, abs=1e-12)


def test_alpha_star_exact_matches_high_precision():
    for l0 in (1.0, 2.0, LN27, 5.69, 10.0, 20.0):
        for d_c in (3, 10, 16, 64):
            assert alpha_star_exact(l0, d_c) == pytest.approx(
                _hp_alpha_star(l0, d_c), rel=1e-12
            )


def test_alpha_star_exact_large_prior_limit():
    # approaches 1 from below as the prior grows; no numerical blowup at 50
    val = alpha_star_exact(50.0, 10)
    assert 0.9 < val < 1.0
    assert val == pytest.approx(_hp_alpha_star(50.0, 10), rel=1e-9)
    assert alpha_star_exact(50.0, 10) > alpha_star_exact(20.0, 10)


def test_alpha_star_exact_approx_converge():
    gap_small = abs(alpha_star_exact(3.3, 10) - alpha_star_approx(3.3, 10))
    gap_large = abs(alpha_star_exact(20.0, 10) - alpha_star_approx(20.0, 10))
    assert gap_large < 0.01
    assert gap_large < gap_small  # error shrinks as the prior grows


def test_alpha_star_exact_in_unit_interval():
    for l0 in (0.5, 1.0, 3.3, 5.7, 12.0):
        for d_c in (3, 5, 10, 16, 40):
            val = alpha_star_exact(l0, d_c)
            assert 0.0 < val < 1.0


def test_delta_alpha_published_value():
    assert delta_alpha(LN27, 10, 16) == pytest.approx(0.155, abs=0.005)


def test_delta_alpha_properties():
    assert delta_alpha(2.0, 7, 7) == 0.0
    assert delta_alpha(2.0, 4, 9) == pytest.approx(-delta_alpha(2.0, 9, 4))
    with pytest.raises(ValueError):
        delta_alpha(0.0, 4, 9)
    with pytest.raises(ValueError):
        delta_alpha(2.0, 1, 9)


def test_check_monotonicity_examples():
    assert check_monotonicity(LN27, (2, 64))
    assert check_monotonicity(1.0, (2, 64))
    assert check_monotonicity(1.0, (2, 2))  # vacuous
    with pytest.raises(ValueError):
        check_monotonicity(1.0, (1, 64))
    with pytest.raises(ValueError):
        check_monotonicity(1.0, (2, 20_000))


#: Calls whose positivity check must also reject NaN, and whose prior LLR
#: must be finite, with the prefix of the error each raises.
NON_FINITE = {
    "alpha-star-exact-nan": (lambda: alpha_star_exact(math.nan, 10), "l0 must be positive"),
    "alpha-star-exact-inf": (lambda: alpha_star_exact(math.inf, 10), "l0 must be positive"),
    "alpha-star-approx-nan": (lambda: alpha_star_approx(math.nan, 10), "l0 must be positive"),
    "alpha-star-approx-inf": (lambda: alpha_star_approx(math.inf, 10), "l0 must be positive"),
    "delta-alpha-nan": (lambda: delta_alpha(math.nan, 10, 16), "l0 must be positive"),
    "delta-alpha-inf": (lambda: delta_alpha(math.inf, 10, 16), "l0 must be positive"),
    "monotonicity-nan": (lambda: check_monotonicity(math.nan, (2, 10)), "l0 must be positive"),
    "monotonicity-inf": (lambda: check_monotonicity(math.inf, (2, 10)), "l0 must be positive"),
    "transfer-nan": (lambda: transfer("ms", [math.nan, 1.0]), "kappa must be positive"),
    "transfer-gain-nan": (
        lambda: transfer("sagms", 1.0, gain=math.nan), "sagms transfer needs a gain in"
    ),
    "phi-nan": (lambda: phi(math.nan), "phi requires strictly positive"),
    "expected-min-nan": (lambda: expected_min_g(math.nan, 4), "mu must be positive"),
}


@pytest.mark.parametrize("call, prefix", NON_FINITE.values(), ids=NON_FINITE.keys())
def test_nan_and_infinite_inputs_are_rejected(call, prefix):
    with pytest.raises(ValueError, match=f"^{prefix}"):
        call()


def test_check_monotonicity_spot_values_against_oracle():
    # the sweep's claim matches direct high-precision evaluation
    for d in (2, 3, 17, 63):
        a = _hp_alpha_star(LN27, d)
        b = _hp_alpha_star(LN27, d + 1)
        assert b < a
    assert check_monotonicity(LN27, (2, 64))


def test_check_monotonicity_extreme_degrees():
    # far beyond float underflow of the linear-space ratio
    assert check_monotonicity(1.0, (2, 10_000))


def test_op_count_table():
    assert op_count("bp4", 10) == OpCount(8, 9, 0, 19)
    assert op_count("ms", 10) == OpCount(0, 9, 8, 0)
    assert op_count("sms", 10) == OpCount(0, 10, 8, 0)
    assert op_count("sagms", 10) == OpCount(3, 11, 9, 0)


def test_op_count_weighted_totals_published_values():
    assert op_count("bp4", 10).weighted_total == 207
    assert op_count("sms", 10).weighted_total == 18
    assert op_count("sagms", 10).weighted_total == 23
    assert op_count("ms", 10).weighted_total == 17


def test_op_count_closed_forms():
    for d_c in range(2, 65):
        assert op_count("bp4", d_c).weighted_total == 22 * d_c - 13
        assert op_count("ms", d_c).weighted_total == 2 * d_c - 3
        assert op_count("sms", d_c).weighted_total == 2 * d_c - 2
        assert op_count("sagms", d_c).weighted_total == 2 * d_c + 3
        # constant adaptive overhead, linearly growing gap to bp4
        assert op_count("sagms", d_c).weighted_total - op_count("sms", d_c).weighted_total == 5
        gap = op_count("bp4", d_c).weighted_total - op_count("sagms", d_c).weighted_total
        assert gap == 20 * d_c - 16
    with pytest.raises(ValueError):
        op_count("bp4", 1)
    with pytest.raises(ValueError):
        op_count("bp", 4)


def test_expected_min_g_point_mass():
    assert expected_min_g(2.5, 10, "point") == 2.5
    assert alpha_opt(2.5, 2, "point") == pytest.approx(1.0, abs=1e-12)


def test_alpha_opt_point_mass_is_matching_ratio():
    for l0 in (1.0, 3.3, 5.7):
        for d_c in (3, 10):
            assert alpha_opt(l0, d_c, "point") == pytest.approx(
                alpha_star_exact(l0, d_c), rel=1e-10
            )


def test_expected_min_g_exponential_closed_form():
    # the minimum of d_c - 1 iid exponentials with mean mu is exponential
    # with mean mu/(d_c - 1)
    mu, d_c, n = 2.0, 10, 40_000
    g = expected_min_g(mu, d_c, "exponential", n_samples=n, seed=1)
    expected = mu / (d_c - 1)
    se = expected / math.sqrt(n)  # std of an exponential equals its mean
    assert abs(g - expected) <= 2 * se


def test_expected_min_g_empirical_source():
    rng = np.random.default_rng(0)
    samples = rng.gamma(shape=2.0, scale=1.0, size=20_000)
    g = expected_min_g(float(samples.mean()), 6, samples, seed=1)
    assert 0 < g < samples.mean()


def test_expected_min_g_sample_floor():
    with pytest.raises(ValueError):
        expected_min_g(1.0, 4, "exponential", n_samples=100)
    with pytest.raises(ValueError):
        expected_min_g(1.0, 4, np.ones(50))
    with pytest.raises(ValueError):
        expected_min_g(1.0, 4, "gaussian")
    with pytest.raises(ValueError):
        expected_min_g(-1.0, 4)


def test_linear_gain_fit_examples():
    assert linear_gain_fit(0.5, 0.3, 0.0) == 0.5
    assert linear_gain_fit(0.5, 0.3, 1.0) == pytest.approx(0.3)
    with pytest.raises(ValueError):
        linear_gain_fit(0.5, 0.3, 1.2)


def test_linear_gain_fit_list_matches_array():
    gammas = [0.0, 0.25, 1.0]
    expected = linear_gain_fit(0.5, 0.3, np.array(gammas))
    assert np.array_equal(linear_gain_fit(0.5, 0.3, gammas), expected)


@settings(max_examples=100)
@given(st.floats(min_value=0.0, max_value=1.0))
def test_linear_gain_fit_bit_identical_to_effective_gain(gamma):
    p = GainParams(0.3, 0.5, 1.1)
    assert linear_gain_fit(0.5, 0.3, gamma) == effective_gain(gamma, 0, p)


def test_sample_transfer_curve_and_emission():
    kappas = [0.5, 1.0, 2.0]
    values = transfer("bp4", kappas, d_c=4)
    assert values.shape == (3,)
    buf = io.StringIO()
    write_curve(zip(kappas, values), buf)
    lines = buf.getvalue().strip().split("\n")
    assert len(lines) == 3
    x, y = lines[0].split()
    assert float(x) == 0.5 and float(y) == pytest.approx(values[0])
