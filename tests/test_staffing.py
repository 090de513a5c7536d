import math

import mpmath
import numpy as np
import pytest

from qedq import (
    DomainError,
    InstabilityError,
    StaffingProblem,
    beta_for_delay_target,
    cost_beta_star,
    cost_exhaustive,
    cost_qed,
    cost_refined,
    erlang_c,
    mms_measures,
    normal_dist,
    qed_delay_prob,
    staff_exact,
    staff_qed,
    staff_uncertain,
    staffing_cost,
    staffing_cost_real,
    QueueModel,
)
from qedq.staffing import refined_server_shift


def test_staff_exact_examples():
    assert staff_exact(1.0, 0.4).s == 2
    assert staff_exact(3.2, 0.6).s == 4
    # any stable server count has delay probability below one
    assert staff_exact(7.3, 0.999999).s == 8


def test_staff_exact_minimality():
    for lam in (1.0, 3.2, 27.0, 311.0, 1e5, 1e6):
        for eps in (1e-12, 1e-8, 0.05, 0.3, 0.8):
            s = staff_exact(lam, eps).s
            assert erlang_c(s, lam) <= eps
            if s - 1 > lam:
                assert erlang_c(s - 1, lam) > eps


@pytest.mark.parametrize("lam", [math.inf, math.nan, -1.0, 0.0])
def test_staffing_rejects_bad_load(lam):
    calls = (lambda: staff_exact(lam, 0.3), lambda: staff_qed(lam, 0.3),
             lambda: cost_qed(lam, 1.0), lambda: cost_refined(lam, 1.0),
             lambda: cost_exhaustive(lam, 1.0), lambda: StaffingProblem(lam, epsilon=0.3))
    for call in calls:
        with pytest.raises(DomainError):
            call()


def test_beta_for_delay_target():
    assert beta_for_delay_target(0.22336) == pytest.approx(1.0, abs=1e-4)
    assert beta_for_delay_target(0.5) == pytest.approx(0.506, abs=1e-3)
    assert beta_for_delay_target(0.880287) == pytest.approx(0.1, abs=1e-4)
    for eps in (0.01, 0.37, 0.93):
        assert qed_delay_prob(beta_for_delay_target(eps)) == pytest.approx(eps, abs=1e-10)
    with pytest.raises(DomainError):
        beta_for_delay_target(1.0)


@pytest.mark.parametrize("eps", [1e-300, 1e-12, 0.01, 0.2, 0.5, 0.9, 1.0 - 1e-9])
def test_beta_for_delay_target_vs_mpmath(eps):
    with mpmath.workdps(40):
        g = lambda b: mpmath.npdf(b) / (mpmath.npdf(b) + b * mpmath.ncdf(b)) - eps
        ref = float(mpmath.findroot(g, beta_for_delay_target(eps)))
    assert beta_for_delay_target(eps) == pytest.approx(ref, abs=1e-12)
    assert beta_for_delay_target(eps) == beta_for_delay_target(eps)


def test_staff_qed_examples():
    assert staff_qed(100.0, qed_delay_prob(1.0)).s == 110
    assert staff_qed(100.0, 0.5).s == math.ceil(100.0 + beta_for_delay_target(0.5) * 10.0)


def test_staff_qed_within_one_server():
    for lam in (10.0, 100.0, 500.0):
        for eps in np.arange(0.05, 0.951, 0.05):
            dq = staff_qed(lam, float(eps))
            de = staff_exact(lam, float(eps))
            assert abs(dq.s - de.s) <= 1
            assert dq.achieved == erlang_c(dq.s, lam)


def test_staff_qed_achieved_overshoot():
    # ceiling rounding plus the one-server gap keeps the achieved delay
    # close to the target; the margin is wider at the smallest scale
    for lam, margin in ((10.0, 0.04), (20.0, 0.03), (100.0, 0.03), (500.0, 0.03)):
        for eps in np.arange(0.05, 0.951, 0.05):
            assert staff_qed(lam, float(eps)).achieved <= eps + margin


def test_cost_consistency_with_mean_delay():
    lam, r, s = 100.0, 1.0, 110
    m = mms_measures(QueueModel(lam=lam, s=s))
    assert staffing_cost(s, lam, r) == pytest.approx(
        r * (s - lam) + lam * m.mean_delay, rel=1e-12)
    with pytest.raises(InstabilityError):
        staffing_cost(100, 100.0, 1.0)


def test_staffing_cost_underflowed_delay():
    assert staffing_cost(1000, 1.0, 1.0) == 999.0


@pytest.mark.parametrize("lam", [0.4, 10.0, 37.7, 100.0, 512.3])
@pytest.mark.parametrize("r", [0.05, 1.0, 10.0])
def test_cost_exhaustive_matches_scalar_scan(lam, r):
    lo = int(math.floor(lam)) + 1
    hi = int(math.ceil(lam + 10.0 * math.sqrt(lam) + 10.0))
    costs = [staffing_cost(s, lam, r) for s in range(lo, hi + 1)]
    assert cost_exhaustive(lam, r) == lo + costs.index(min(costs))


def test_cost_unimodal_in_s():
    # the cost first decreases, then increases: one sign change at most
    for r in (0.1, 1.0, 10.0):
        lam = 100.0
        ss = np.arange(101, 101 + int(10 * math.sqrt(lam)))
        ks = np.array([staffing_cost(int(s), lam, r) for s in ss])
        rising = np.diff(ks) > 0
        changes = np.count_nonzero(np.diff(rising.astype(int)))
        assert changes <= 1
        if rising.any():
            first_rise = int(np.argmax(rising))
            assert rising[first_rise:].all()


def test_cost_beta_star_r1():
    bs = cost_beta_star(1.0)
    assert bs == pytest.approx(0.85, abs=2e-2)
    assert bs + qed_delay_prob(bs) / bs == pytest.approx(1.191, abs=2e-3)


@pytest.mark.parametrize("r", [1e-4, 1e-2, 0.3, 1.0, 4.0, 1e2, 1e3])
def test_cost_beta_star_vs_mpmath(r):
    # the root of dK/dbeta, differentiated numerically at 40 digits
    def k(b):
        pdf, cdf = mpmath.npdf(b), mpmath.ncdf(b)
        return r * b + pdf / (pdf + b * cdf) / b

    with mpmath.workdps(40):
        ref = mpmath.findroot(lambda b: mpmath.diff(k, b), 1.0 / math.sqrt(r + 1.0))
    assert cost_beta_star(r) == pytest.approx(float(ref), rel=1e-12)


@pytest.mark.parametrize("r", [1e-12, 1e-4, 1e-2, 0.1, 1.0, 10.0, 1e3, 1e5, 1e8])
def test_refined_server_shift_vs_mpmath(r):
    # -beta* G'(beta*) / (K''(beta*) + 2r), differentiated numerically at 45 digits
    def g(b):
        pdf, cdf = mpmath.npdf(b), mpmath.ncdf(b)
        return pdf / (pdf + b * cdf)

    def corr(b):  # delay_correction_coeff(b) / b
        mills = mpmath.ncdf(b) / mpmath.npdf(b)
        return g(b) ** 2 * (mpmath.mpf(1) / 3 + b * b / 6 + mills * (b / 2 + b ** 3 / 6)) / b

    with mpmath.workdps(45):
        rr = mpmath.mpf(r)
        k = lambda b: rr * b + g(b) / b
        beta = mpmath.findroot(lambda b: mpmath.diff(k, b), mpmath.mpf(cost_beta_star(r)))
        ref = -beta * mpmath.diff(corr, beta) / (mpmath.diff(k, beta, 2) + 2 * rr)
    assert refined_server_shift(r) == pytest.approx(float(ref), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("r", [2e4, 1e6])
def test_cost_refined_expensive_capacity(r):
    # beta* is near zero here; the rule lands on the smallest stable count
    sol = cost_refined(100.0, r)
    assert sol.s == 101 == cost_exhaustive(100.0, r)


def test_cost_beta_star_limits():
    # expensive capacity pushes the slack toward zero
    assert cost_beta_star(1000.0) < 0.05
    assert cost_beta_star(1e-4) > 3.0


def test_kstar_convexity():
    for r in (0.1, 1.0, 10.0):
        grid = np.linspace(0.05, 4.0, 200)
        vals = np.array([r * b + qed_delay_prob(b) / b for b in grid])
        second = np.diff(vals, 2)
        assert np.all(second > 0.0)


def test_cost_qed_within_one_server():
    for lam in (10.0, 100.0, 500.0):
        for r in (0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0):
            sq = cost_qed(lam, r).s
            ss = cost_exhaustive(lam, r)
            assert abs(sq - ss) <= 1


def test_cost_qed_large_r_bumps_to_stability():
    sol = cost_qed(3.2, 1e6)
    assert sol.s == 4


def test_refined_improves_or_matches():
    for lam in (50.0, 100.0, 500.0):
        for r in (0.1, 1.0, 10.0):
            s_ref = cost_refined(lam, r).s
            s_qed = cost_qed(lam, r).s
            s_opt = cost_exhaustive(lam, r)
            k_ref = staffing_cost(s_ref, lam, r)
            k_qed = staffing_cost(s_qed, lam, r)
            assert (k_ref <= k_qed + 1e-12) or (abs(s_ref - s_opt) <= abs(s_qed - s_opt))


def test_refined_gap_decays_with_scale():
    # pre-rounding (real-valued) optimality gap shrinks with the load
    from scipy.optimize import minimize_scalar
    for r in (0.1, 1.0, 10.0):
        beta = cost_beta_star(r)
        shift = refined_server_shift(r)
        gaps = []
        for lam in (50.0, 500.0):
            s_rule = lam + beta * math.sqrt(lam) + shift
            res = minimize_scalar(lambda s: staffing_cost_real(float(s), lam, r),
                                  bounds=(lam + 1e-3, lam + 10.0 * math.sqrt(lam)),
                                  method="bounded", options={"xatol": 1e-10})
            gap = staffing_cost_real(s_rule, lam, r) - res.fun
            assert gap >= -1e-12
            gaps.append(gap)
        assert gaps[1] < gaps[0]


def test_refined_rule_structure():
    # the correction enters the rule purely as an additive server shift
    from qedq.special import round_half_up
    for lam in (50.0, 100.0, 500.0):
        for r in (0.1, 1.0, 10.0):
            beta = cost_beta_star(r)
            shift = refined_server_shift(r)
            assert cost_refined(lam, r).s == max(
                round_half_up(lam + beta * math.sqrt(lam) + shift),
                int(math.floor(lam)) + 1)
            assert cost_qed(lam, r).s == max(
                round_half_up(lam + beta * math.sqrt(lam)),
                int(math.floor(lam)) + 1)


def test_staff_uncertain():
    eps = 1.0 - normal_dist(1.0).cdf
    assert staff_uncertain(100.0, 0.0, eps) == 110
    assert staff_uncertain(100.0, 10.0, eps) == 115
    with pytest.raises(DomainError):
        staff_uncertain(100.0, -1.0, 0.1)


def test_staff_uncertain_monte_carlo():
    # demand Pois(lambda) with lambda ~ Normal(100, 10^2) truncated at zero:
    # the unrounded rule's exceedance frequency is near the target
    rng = np.random.default_rng(987654321)
    lam_hat, sigma = 100.0, 10.0
    eps = 1.0 - normal_dist(1.0).cdf
    s_real = lam_hat + 1.0 * math.sqrt(sigma ** 2 + lam_hat)
    n = 4000
    lams = np.maximum(rng.normal(lam_hat, sigma, n), 0.0)
    demand = rng.poisson(lams)
    frac = float(np.mean(demand > s_real))
    se = math.sqrt(eps * (1 - eps) / n)
    assert abs(frac - eps) < 3.0 * se
    # integer ceiling is conservative
    s_int = staff_uncertain(lam_hat, sigma, eps)
    assert float(np.mean(demand > s_int)) <= eps + 3.0 * se


def test_staffing_problem_validation():
    StaffingProblem(lam=1.0, epsilon=0.2)
    StaffingProblem(lam=1.0, cost_ratio=2.0)
    with pytest.raises(DomainError):
        StaffingProblem(lam=1.0)
    with pytest.raises(DomainError):
        StaffingProblem(lam=1.0, epsilon=0.2, cost_ratio=1.0)
    with pytest.raises(DomainError):
        StaffingProblem(lam=1.0, epsilon=1.5)
