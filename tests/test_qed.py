import math

import numpy as np
import pytest
from scipy import integrate

from qedq import (
    DomainError,
    InstabilityError,
    QedPoint,
    QedqError,
    corrected_delay_prob,
    delay_correction_coeff,
    erlang_a_qed_limits,
    erlang_c,
    finite_buffer_delay_limit,
    hw_stationary,
    infinite_server_delay,
    normal_dist,
    qed_bounds,
    qed_delay_prob,
    qed_loss_coefficient,
    qed_mean_delay,
    scaled_servers,
)

from oracles import normal_cdf_quad

# the beta = 1 ladder: lam solves s = lam + sqrt(lam)
LADDER = [1, 2, 5, 10, 20, 50, 100, 200, 500, 1000]


def ladder_lam(s):
    return ((-1.0 + math.sqrt(1.0 + 4.0 * s)) / 2.0) ** 2


def test_delay_prob_limit_values():
    assert qed_delay_prob(1.0) == pytest.approx(0.22336, abs=1e-5)
    assert qed_delay_prob(0.5) == pytest.approx(0.504539, abs=1e-6)
    assert qed_delay_prob(0.1) == pytest.approx(0.880287, abs=1e-6)


def test_delay_prob_vs_quadrature_oracle():
    for beta in (0.25, 1.0, 2.5):
        phi = math.exp(-beta * beta / 2) / math.sqrt(2 * math.pi)
        expected = 1.0 / (1.0 + beta * normal_cdf_quad(beta) / phi)
        assert qed_delay_prob(beta) == pytest.approx(expected, rel=1e-10)


def test_delay_prob_limits_and_monotonicity():
    grid = np.linspace(1e-3, 12.0, 600)
    vals = [qed_delay_prob(b) for b in grid]
    assert all(x > y for x, y in zip(vals, vals[1:]))
    assert qed_delay_prob(1e-9) > 1 - 1e-6
    assert qed_delay_prob(40.0) < 1e-200


def test_mean_delay_limit():
    assert qed_mean_delay(1.0) == pytest.approx(0.22336, abs=1e-5)
    assert qed_mean_delay(0.5) == pytest.approx(1.009078, abs=1e-6)
    assert qed_mean_delay(50.0) < 1e-100
    # h ~ 1/beta for small beta
    assert qed_mean_delay(1e-4) == pytest.approx(1e4, rel=1e-3)


def test_loss_coefficient():
    assert qed_loss_coefficient(1.0) == pytest.approx(0.2876000, abs=1e-6)
    assert qed_loss_coefficient(2.0) == pytest.approx(0.055248, abs=1e-6)
    assert qed_loss_coefficient(1e-9) == pytest.approx(
        2.0 * normal_dist(0.0).pdf, rel=1e-6)
    grid = np.linspace(0.01, 6.0, 300)
    vals = [qed_loss_coefficient(b) for b in grid]
    assert all(x > y for x, y in zip(vals, vals[1:]))


def test_infinite_server_delay():
    assert infinite_server_delay(100.0, 100.0) == 0.5
    assert infinite_server_delay(110.0, 100.0) == pytest.approx(0.158655, abs=1e-6)
    # systematically underestimates the exact delay probability
    for lam in (2.0, 25.0, 400.0):
        for s in range(int(lam) + 1, int(lam + 3 * math.sqrt(lam)) + 1):
            assert infinite_server_delay(s, lam) <= erlang_c(s, lam) + 1e-12


def test_corrected_delay_table_values():
    for s, expect in [(1, 0.45085), (10, 0.27540), (100, 0.23814)]:
        assert corrected_delay_prob(s, ladder_lam(s)) == pytest.approx(expect, abs=1e-5)


def test_corrected_delay_beats_plain_limit():
    for s in LADDER:
        lam = ladder_lam(s)
        c = erlang_c(s, lam)
        beta = (s - lam) / math.sqrt(lam)
        assert abs(corrected_delay_prob(s, lam) - c) < abs(qed_delay_prob(beta) - c)


def test_qed_bounds_table_rows():
    b10 = qed_bounds(10, ladder_lam(10))
    assert b10.alpha == pytest.approx(0.946, abs=5e-4)
    assert b10.lower == pytest.approx(0.26937, abs=1e-5)
    assert b10.upper == pytest.approx(0.27142, abs=1e-5)
    assert qed_bounds(20, ladder_lam(20)).alpha == pytest.approx(0.962, abs=5e-4)
    b1000 = qed_bounds(1000, ladder_lam(1000))
    assert b1000.lower == pytest.approx(0.22783, abs=1e-5)
    assert b1000.upper == pytest.approx(0.22784, abs=1e-5)


def test_sandwich_on_ladder_and_random_grid():
    for s in LADDER:
        lam = ladder_lam(s)
        b = qed_bounds(s, lam)
        c = erlang_c(s, lam)
        assert b.lower <= c <= b.upper
    rng = np.random.default_rng(20240817)
    for _ in range(200):
        lam = float(rng.uniform(1.0, 2000.0))
        beta = float(rng.uniform(0.25, 2.0))
        s = int(math.ceil(lam + beta * math.sqrt(lam)))
        if s <= lam:
            continue
        b = qed_bounds(s, lam)
        c = erlang_c(s, lam)
        assert b.lower <= c + 1e-14
        assert c <= b.upper + 1e-14


def test_bounds_parameter_ordering():
    # gamma_s < alpha < beta wherever the bounds are defined
    for s in LADDER:
        lam = ladder_lam(s)
        b = qed_bounds(s, lam)
        beta = (s - lam) / math.sqrt(lam)
        assert b.gamma_s < b.alpha < beta


def test_bounds_gap_decays_down_ladder():
    gaps = []
    for s in LADDER:
        lam = ladder_lam(s)
        b = qed_bounds(s, lam)
        gaps.append((b.upper - b.lower) / erlang_c(s, lam))
    assert all(x > y for x, y in zip(gaps, gaps[1:]))


def test_bounds_domain():
    with pytest.raises(InstabilityError):
        qed_bounds(5, 5.0)


def test_hw_stationary_law():
    st = hw_stationary(1.0)
    assert st.p_positive == pytest.approx(0.22336, abs=1e-5)
    assert st.tail_above(0.0) == 1.0
    assert st.cdf_below(0.0) == 1.0
    assert st.mean_above == pytest.approx(st.p_positive / 1.0, rel=1e-12)
    with pytest.raises(DomainError):
        st.tail_above(-0.5)
    with pytest.raises(DomainError):
        st.cdf_below(0.5)


def test_hw_stationary_normalization_by_quadrature():
    for beta in (0.5, 1.0, 2.0):
        st = hw_stationary(beta)
        # conditional density above zero integrates to one
        above, _ = integrate.quad(lambda x: beta * math.exp(-beta * x), 0, np.inf)
        assert above == pytest.approx(1.0, abs=1e-10)
        # conditional law below zero: Phi(beta+x)/Phi(beta) spans (0, 1]
        below, _ = integrate.quad(
            lambda x: normal_dist(beta + x).pdf / normal_dist(beta).cdf, -np.inf, 0)
        assert below == pytest.approx(1.0, abs=1e-10)
        assert st.p_positive + (1 - st.p_positive) == 1.0


def test_erlang_a_qed_limits():
    settled = erlang_a_qed_limits(0.0, 1.0)
    assert settled.delay_prob == pytest.approx(0.5, rel=1e-12)
    assert settled.abandon_coef == pytest.approx(normal_dist(0.0).pdf, rel=1e-12)
    with pytest.raises(DomainError):
        erlang_a_qed_limits(1.0, 0.0)
    # deviation from 1/2 grows with |beta| at theta = 1
    devs = [abs(erlang_a_qed_limits(b, 1.0).delay_prob - 0.5)
            for b in np.linspace(0.0, 3.0, 40)]
    assert all(x < y for x, y in zip(devs, devs[1:]))
    # abandonment coefficient stays nonnegative on the tested range
    for b in np.linspace(-2.0, 3.0, 60):
        assert erlang_a_qed_limits(b, 0.7).abandon_coef >= -1e-12


def _finite_or_qedq_error(f, *args):
    try:
        values = f(*args)
    except QedqError:
        return True
    return all(math.isfinite(v) for v in np.atleast_1d(values))


def test_mills_ratios_finite_for_extreme_beta():
    for beta in np.linspace(-60.0, 60.0, 241):
        assert _finite_or_qedq_error(delay_correction_coeff, float(beta))
        for theta in (0.01, 1.0, 100.0):
            assert _finite_or_qedq_error(erlang_a_qed_limits, float(beta), theta)
    assert delay_correction_coeff(40.0) == 0.0
    for beta in (math.inf, -math.inf, math.nan):
        assert _finite_or_qedq_error(delay_correction_coeff, beta)
        assert _finite_or_qedq_error(erlang_a_qed_limits, beta, 1.0)
    lim = erlang_a_qed_limits(-40.0, 1.0)
    assert lim.delay_prob == 1.0 and lim.abandon_coef == pytest.approx(40.0, rel=1e-12)
    b = qed_bounds(1000, 1.0)  # alpha ~ 109: the normal density underflows
    assert b.lower == 0.0 and b.upper == 0.0


def test_finite_buffer_delay_limit():
    assert finite_buffer_delay_limit(0.5, 1e9) == pytest.approx(0.504539, abs=1e-6)
    assert finite_buffer_delay_limit(0.5, 1.0) == pytest.approx(0.286060, abs=1e-5)
    for beta in (0.1, 0.5, 1.0, 2.0):
        for gamma in (0.2, 1.0, 3.0):
            assert finite_buffer_delay_limit(beta, gamma) < qed_delay_prob(beta)
    with pytest.raises(DomainError):
        finite_buffer_delay_limit(-1.0, 1.0)


def test_scaled_servers():
    assert scaled_servers(100.0, 0.5, "QED") == 105
    assert scaled_servers(100.0, 0.5, "ED") == 101
    assert scaled_servers(100.0, 0.5, "QD") == 150
    assert scaled_servers(4.0, 0.01, "ED") == 5  # bumped above the load
    with pytest.raises(DomainError):
        scaled_servers(10.0, 1.0, "XX")


def test_qed_point_validation():
    QedPoint(beta=1.0, gamma=2.0, theta=0.0)
    with pytest.raises(DomainError):
        QedPoint(beta=0.0)
    with pytest.raises(DomainError):
        QedPoint(beta=1.0, gamma=0.0)
    with pytest.raises(DomainError):
        QedPoint(beta=1.0, theta=-1.0)
