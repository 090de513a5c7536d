import math
import subprocess
import sys
import tracemalloc

import mpmath
import numpy as np
import pytest

from qedq import (
    DomainError,
    InstabilityError,
    NumericalError,
    QueueModel,
    SeriesControl,
    erlang_a_measures,
    erlang_b,
    erlang_c,
    erlang_c_real,
    mms_measures,
    mmsn_measures,
    qed_delay_prob,
    solve_birth_death,
)
from scipy.stats import poisson

from oracles import erlang_b_direct, erlang_c_direct


def test_erlang_b_examples():
    assert erlang_b(1, 1.0) == pytest.approx(0.5, rel=1e-15)
    assert erlang_b(2, 1.0) == pytest.approx(0.2, rel=1e-14)


@pytest.mark.parametrize("s,a", [(1, 0.3), (3, 2.0), (7, 6.5), (12, 9.0)])
def test_erlang_b_matches_direct_sum(s, a):
    assert erlang_b(s, a) == pytest.approx(erlang_b_direct(s, a), rel=1e-13)


def test_erlang_b_qed_loss_limit():
    # sqrt(load) * B approaches the normal hazard ratio at beta = 1
    lam = 10_000.0
    s = int(round(lam + math.sqrt(lam)))
    target = math.exp(-0.5) / math.sqrt(2 * math.pi) / 0.8413447460685429
    assert math.sqrt(lam) * erlang_b(s, lam) == pytest.approx(target, abs=5e-3)


def test_erlang_c_examples():
    assert erlang_c(1, 0.6) == pytest.approx(0.6, rel=1e-14)
    assert erlang_c(4, 3.2) == pytest.approx(0.596432, abs=1e-6)
    assert erlang_c(10, 7.29844) == pytest.approx(0.27030, abs=1e-5)


@pytest.mark.parametrize("s,a", [(2, 1.0), (5, 4.2), (9, 8.0)])
def test_erlang_c_matches_direct_sum(s, a):
    assert erlang_c(s, a) == pytest.approx(erlang_c_direct(s, a), rel=1e-13)


def test_erlang_bc_identity_grid():
    # C = (rho + (1-rho)/B)^(-1) reproduced to near machine precision
    for s in range(1, 201, 3):
        a = 0.83 * s
        b = erlang_b(s, a)
        rho = a / s
        assert erlang_c(s, a) == pytest.approx(1.0 / (rho + (1 - rho) / b), abs=1e-12)


def _load_for(s, beta):
    """Offered load a with s = a + beta sqrt(a)."""
    return ((-beta + math.sqrt(beta * beta + 4.0 * s)) / 2.0) ** 2


def _erlang_b_mp(s, a):
    """Erlang B as Poisson pmf over cdf, at 50 digits."""
    with mpmath.workdps(50):
        a = mpmath.mpf(a)
        pmf = mpmath.exp(s * mpmath.log(a) - a - mpmath.loggamma(s + 1))
        return pmf / mpmath.gammainc(s + 1, a, mpmath.inf, regularized=True)


@pytest.mark.parametrize("s", [41, 10**2, 10**3, 10**4, 10**5, 10**6])
@pytest.mark.parametrize("beta", [-3.0, -1.0, 0.3, 1.0, 4.0, 8.0])
def test_erlang_bc_closed_form_vs_mpmath(s, beta):
    a = _load_for(s, beta)
    b_ref = _erlang_b_mp(s, a)
    assert erlang_b(s, a) == pytest.approx(float(b_ref), rel=1e-11)
    if a < s:
        rho = mpmath.mpf(a) / s
        c_ref = b_ref / (1 - rho * (1 - b_ref))
        assert erlang_c(s, a) == pytest.approx(float(c_ref), rel=1e-11)


@pytest.mark.parametrize("a", [5.0, 30.0, 38.5, 60.0, 400.0])
def test_erlang_b_continuous_across_recursion_switch(a):
    # s = 40 is the last recursion value, s = 41 the first closed-form one;
    # one more recursion step from B(40) must land on the closed form
    b40 = erlang_b(40, a)
    assert erlang_b(41, a) == pytest.approx(a * b40 / (41 + a * b40), rel=1e-13)
    assert erlang_b(41, a) == pytest.approx(float(_erlang_b_mp(41, a)), rel=1e-13)


def test_erlang_b_large_load_falls_back_to_recursion():
    # the Poisson cdf underflows for load >> s; B tends to 1 - s/load
    b = erlang_b(50, 2000.0)
    assert b == pytest.approx(float(_erlang_b_mp(50, 2000.0)), rel=1e-13)


def test_erlang_bc_accept_arrays():
    s = np.arange(2, 160)
    a = 37.25
    b = erlang_b(s, a)
    assert b.shape == s.shape
    # vectorized exp/log may differ from the scalar ones in the last ulps
    assert b == pytest.approx([erlang_b(int(k), a) for k in s], rel=1e-14)
    c = erlang_c(s[s > a], a)
    assert c == pytest.approx([erlang_c(int(k), a) for k in s[s > a]], rel=1e-14)
    assert erlang_b(np.array([[50, 60]]), 2000.0).shape == (1, 2)
    with pytest.raises(DomainError):
        erlang_b(np.array([3, 4.5]), 1.0)
    with pytest.raises(InstabilityError):
        erlang_c(np.array([40, 30]), 37.25)


def test_erlang_c_underflowed_blocking():
    # B(1000, 1) underflows to 0; C must follow it instead of dividing by it
    assert erlang_b(1000, 1.0) == 0.0
    assert erlang_c(1000, 1.0) == 0.0


def test_erlang_c_instability():
    with pytest.raises(InstabilityError):
        erlang_c(3, 3.0)


def test_erlang_monotonicity():
    for a in (0.7, 3.3, 26.0):
        smin = int(a) + 1
        bs = [erlang_b(s, a) for s in range(smin, smin + 12)]
        cs = [erlang_c(s, a) for s in range(smin, smin + 12)]
        assert all(x > y for x, y in zip(bs, bs[1:]))
        assert all(x > y for x, y in zip(cs, cs[1:]))
    # increasing in load at fixed s
    cs = [erlang_c(10, a) for a in np.linspace(2.0, 9.5, 40)]
    assert all(x < y for x, y in zip(cs, cs[1:]))


def test_dauria_lower_bound():
    # Erlang C dominates its QED limit everywhere on the grid
    for lam in (0.25, 1.0, 5.0, 40.0, 300.0, 1200.0, 5000.0):
        smax = int(math.ceil(lam + 3.0 * math.sqrt(lam)))
        for s in range(int(math.floor(lam)) + 1, smax + 1):
            beta = (s - lam) / math.sqrt(lam)
            if not (0.1 <= beta <= 3.0):
                continue
            assert erlang_c(s, lam) >= qed_delay_prob(beta) - 1e-12


def test_erlang_c_real_matches_integer():
    for s, a in [(4, 3.2), (2, 1.0), (10, 7.29844), (1, 0.5), (200, 186.34903)]:
        assert erlang_c_real(float(s), a) == pytest.approx(erlang_c(s, a), abs=1e-9)


def test_erlang_c_real_examples():
    assert erlang_c_real(4.0, 3.2) == pytest.approx(0.596432, abs=1e-6)
    assert erlang_c_real(2.0, 1.0) == pytest.approx(1.0 / 3.0, abs=1e-9)
    val = erlang_c_real(10.5, 7.29844)
    assert erlang_c(11, 7.29844) < val < erlang_c(10, 7.29844)


def test_erlang_c_real_instability():
    with pytest.raises(InstabilityError):
        erlang_c_real(3.0, 3.5)
    with pytest.raises(DomainError):
        erlang_c_real(math.inf, 3.5)


def _erlang_c_real_mp(s, a):
    """Continuous Erlang C at 50 digits: B = e^-a a^s / Gamma(s+1, a)."""
    with mpmath.workdps(50):
        s, a = mpmath.mpf(s), mpmath.mpf(a)
        b = mpmath.exp(s * mpmath.log(a) - a) / mpmath.gammainc(s + 1, a, mpmath.inf)
        rho = a / s
        return b / (1 - rho * (1 - b))


# 40.5 and 41.2 sit on either side of the switch between the log-gamma
# and the saddle-point pmf
@pytest.mark.parametrize("s", [0.5, 10.5, 40.5, 41.2, 1000.25, 10**6 + 0.7])
@pytest.mark.parametrize("beta", [0.05, 0.3, 1.0, 2.5, 4.0, 8.0])
def test_erlang_c_real_vs_mpmath(s, beta):
    a = _load_for(s, beta)
    assert erlang_c_real(s, a) == pytest.approx(float(_erlang_c_real_mp(s, a)), rel=1e-11)


def test_import_leaves_out_scipy_integrate():
    code = "import sys, qedq; print('scipy.integrate' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == "False"


def test_mms_measures_basic():
    m = mms_measures(QueueModel(lam=0.6, s=1))
    assert m.mean_delay == pytest.approx(1.5, rel=1e-12)
    m = mms_measures(QueueModel(lam=9.5, s=10))
    assert m.mean_delay == pytest.approx(1.65117, abs=1e-5)
    assert m.delay_prob == pytest.approx(0.825586, abs=1e-6)


def test_mms_geometric_law():
    m = mms_measures(QueueModel(lam=0.5, s=1))
    k = np.arange(12)
    assert np.allclose(m.pi[:12], 0.5 * 0.5 ** k, atol=1e-13)
    assert m.pi.sum() + m.tail_mass == pytest.approx(1.0, abs=1e-10)


def test_mms_littles_law():
    # (10, 10**6): above the state ceiling the weights are zero-filled
    for lam, s in [(0.6, 1), (3.2, 4), (9.5, 10), (43.41128, 50), (10.0, 10**6)]:
        m = mms_measures(QueueModel(lam=lam, s=s))
        assert m.mean_queue == pytest.approx(lam * m.mean_delay, abs=1e-9)
        assert m.pi.sum() + m.tail_mass == pytest.approx(1.0, abs=1e-10)


def test_mms_near_saturation_is_capped():
    # rho = 1 - 1e-9 would need ~2.8e10 geometric states at abs_tol 1e-12
    model = QueueModel(lam=100.0 * (1.0 - 1e-9), s=100)
    tracemalloc.start()
    try:
        m = mms_measures(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50e6
    assert len(m.pi) == 101 + SeriesControl().max_terms
    assert m.pi.sum() + m.tail_mass == pytest.approx(1.0, abs=1e-12)
    rho = model.rho
    assert m.mean_queue == pytest.approx(
        erlang_c(100, model.load) * rho / (1.0 - rho), rel=1e-14)


def test_mms_requires_stability():
    with pytest.raises(InstabilityError):
        mms_measures(QueueModel(lam=2.0, s=2))


def test_solve_birth_death_infinite_server():
    # constant birth, death k mu: Poisson law
    res = solve_birth_death(lambda k: 1.0, lambda k: float(k))
    k = np.arange(len(res.pi))
    assert np.allclose(res.pi, poisson.pmf(k, 1.0), atol=1e-12)
    assert res.converged


def test_solve_birth_death_two_state():
    res = solve_birth_death([1.0], [1.0])
    assert res.pi == pytest.approx([0.5, 0.5])
    assert res.pi[1] == pytest.approx(erlang_b(1, 1.0), rel=1e-14)


def test_solve_birth_death_theta_equals_mu():
    # death min(k,s) + (k-s)^+ collapses to k: Poisson law again
    s = 2
    res = solve_birth_death(lambda k: 1.0,
                            lambda k: min(k, s) + max(k - s, 0))
    k = np.arange(len(res.pi))
    assert np.allclose(res.pi, poisson.pmf(k, 1.0), atol=1e-12)


def test_solve_birth_death_divergence():
    with pytest.raises(InstabilityError):
        solve_birth_death(lambda k: 2.0, lambda k: 1.0,
                          SeriesControl(max_terms=500))


def test_mmsn_loss_equivalence():
    m = mmsn_measures(QueueModel(lam=1.0, s=1, n=1))
    assert m.block_prob == pytest.approx(erlang_b(1, 1.0), abs=1e-12)
    for s, a in [(3, 2.0), (6, 5.0)]:
        m = mmsn_measures(QueueModel(lam=a, s=s, n=s))
        assert m.block_prob == pytest.approx(erlang_b(s, a), abs=1e-12)


def test_mmsn_large_buffer_limit():
    lam, s = 3.2, 4
    n = s + int(40 * math.sqrt(s))
    m_fin = mmsn_measures(QueueModel(lam=lam, s=s, n=n))
    m_inf = mms_measures(QueueModel(lam=lam, s=s))
    assert m_fin.delay_prob == pytest.approx(m_inf.delay_prob, abs=1e-8)
    assert m_fin.mean_queue == pytest.approx(m_inf.mean_queue, abs=1e-6)


def test_mmsn_two_fold_scaling_limit():
    lam = 10_000.0
    beta, gamma = 0.5, 1.0
    s = int(round(lam + beta * math.sqrt(lam)))
    n = int(round(s + gamma * math.sqrt(s)))
    m = mmsn_measures(QueueModel(lam=lam, s=s, n=n))
    # limit value computed from the closed form via the normal cdf
    from qedq import finite_buffer_delay_limit
    assert m.delay_prob == pytest.approx(finite_buffer_delay_limit(beta, gamma), abs=5e-3)


@pytest.mark.parametrize("lam,s,n", [(1.0, 1, 1), (2.0, 3, 3), (5.0, 6, 6), (3.2, 4, 84),
                                     (50.0, 40, 60), (1e4, 10050, 10150),
                                     (1e5, 100316, 100949)])
def test_mmsn_matches_birth_death_solver(lam, s, n):
    # the closed-form weights, zero-filled below the state floor, against
    # the generic solver's cumulative sum of log rate ratios
    ref = solve_birth_death(np.full(n, lam), np.minimum(np.arange(1, n + 1), s).astype(float))
    m = mmsn_measures(QueueModel(lam=lam, s=s, n=n))
    assert len(m.pi) == len(ref.pi)
    assert np.max(np.abs(m.pi - ref.pi)) < 1e-12


def _erlang_a_gmr(lam, s, theta):
    """M/M/s+M (mu = 1) in the incomplete-gamma form of Garnett, Mandelbaum
    and Reiman (2002), at 40 digits: with a = s/theta, x = lam/theta and
    S = 1F1(1; a+1; x), P(wait) = p(s; lam) S / (Q(s, lam) + p(s; lam) S)
    and E[queue] = P(wait) ((x - a) + a/S)."""
    with mpmath.workdps(40):
        lam, s, theta = mpmath.mpf(lam), mpmath.mpf(s), mpmath.mpf(theta)
        a, x = s / theta, lam / theta
        big_s = mpmath.hyp1f1(1, a + 1, x)
        p_s = mpmath.exp(s * mpmath.log(lam) - lam - mpmath.loggamma(s + 1))
        q = mpmath.gammainc(s, lam, mpmath.inf, regularized=True)
        wait = p_s * big_s / (q + p_s * big_s)
        queue = wait * ((x - a) + a / big_s)
        return float(wait), float(queue), float(theta * queue / lam)


@pytest.mark.parametrize("lam,s,theta", [(1.0, 2, 1.0), (100.0, 100, 0.001),
                                         (1000.0, 1000, 0.001), (90.0, 100, 0.5),
                                         (1e5, 100000, 1.0)])
def test_erlang_a_vs_incomplete_gamma_form(lam, s, theta):
    wait, queue, abandon = _erlang_a_gmr(lam, s, theta)
    m = erlang_a_measures(QueueModel(lam=lam, s=s, theta=theta))
    assert m.delay_prob == pytest.approx(wait, rel=1e-9)
    assert m.mean_queue == pytest.approx(queue, rel=1e-9)
    assert m.abandon_prob == pytest.approx(abandon, rel=1e-9)
    assert m.mean_delay == pytest.approx(queue / lam, rel=1e-9)


def test_mmsn_domain():
    with pytest.raises(DomainError):
        QueueModel(lam=1.0, s=3, n=2)


def test_erlang_a_poisson_reduction():
    m = erlang_a_measures(QueueModel(lam=1.0, s=2, theta=1.0))
    assert m.delay_prob == pytest.approx(1 - 2 * math.exp(-1), abs=1e-10)
    # fraction abandoning = theta E[(Q-s)^+]/lam, by direct Poisson summation
    k = np.arange(0, 80)
    expect = float(np.sum(np.maximum(k - 2, 0) * poisson.pmf(k, 1.0)))
    assert m.abandon_prob == pytest.approx(expect, abs=1e-10)
    assert m.abandon_prob == pytest.approx(0.103638, abs=1e-6)


def test_erlang_a_theta_to_zero():
    base = mms_measures(QueueModel(lam=3.2, s=4))
    small = erlang_a_measures(QueueModel(lam=3.2, s=4, theta=1e-9))
    assert small.delay_prob == pytest.approx(base.delay_prob, abs=1e-6)
    zero = erlang_a_measures(QueueModel(lam=3.2, s=4, theta=0.0))
    assert zero.delay_prob == pytest.approx(base.delay_prob, abs=1e-12)


def test_erlang_a_littles_law():
    for lam, s, th in [(1.0, 2, 1.0), (8.0, 6, 0.5), (20.0, 18, 2.0)]:
        m = erlang_a_measures(QueueModel(lam=lam, s=s, theta=th))
        assert m.mean_queue == pytest.approx(lam * m.mean_delay, abs=1e-9)
        assert m.pi.sum() + m.tail_mass == pytest.approx(1.0, abs=1e-10)


def _erlang_a_reference(lam, s, theta, control):
    """The generic callable birth-death path for M/M/s+M."""
    return solve_birth_death(lambda k: lam, lambda k: min(k, s) + theta * max(k - s, 0),
                             control)


@pytest.mark.parametrize("lam,s,theta", [(1.0, 2, 1.0), (3.2, 4, 1e-9), (50.0, 55, 0.3),
                                         (100.0, 90, 5.0), (10.0, 1000, 1.0),
                                         (1000.0, 1030, 1.0), (100.0, 1, 0.01),
                                         (100.0, 100, 0.001), (1000.0, 1000, 0.001),
                                         (1e5, 100316, 1.0)])
def test_erlang_a_matches_birth_death_solver(lam, s, theta):
    # the reference cap follows the default rule: the mode plus 200 spreads
    # sqrt(max(mode, lam/theta)), the second capped at 1e7
    mode = s + int(math.ceil(max(lam - s, 0.0) / theta))
    spread = math.sqrt(max(mode, min(lam / theta, 1e7)))
    cap = mode + int(math.ceil(200.0 * spread)) + 200
    control = SeriesControl(abs_tol=1e-12, max_terms=cap)
    ref = _erlang_a_reference(lam, s, theta, control)
    m = erlang_a_measures(QueueModel(lam=lam, s=s, theta=theta))
    assert len(m.pi) == len(ref.pi)
    # over 1e5 states the reference's running sum of log rate ratios
    # drifts by about 1e-9 relative: at lam = 1e5 its pi is 1.2e-12 off a
    # 40-digit Poisson pmf (theta = mu), the closed form 2e-18
    tol = 1e-12 if len(ref.pi) < 50_000 else 5e-12
    assert np.max(np.abs(m.pi - ref.pi)) < tol
    assert m.tail_mass == pytest.approx(ref.tail_mass, rel=1e-6)
    assert m.pi.sum() + m.tail_mass == pytest.approx(1.0, abs=1e-12)


def test_erlang_a_state_budget_exhausted():
    # too few states for the stopping rule: both paths report non-convergence
    control = SeriesControl(abs_tol=1e-12, max_terms=5)
    with pytest.raises(NumericalError):
        _erlang_a_reference(1.0, 2, 1.0, control)
    with pytest.raises(NumericalError):
        erlang_a_measures(QueueModel(lam=1.0, s=2, theta=1.0), control)
    # a mode of 1e12 states would exhaust memory before the default cap
    with pytest.raises(NumericalError):
        erlang_a_measures(QueueModel(lam=5.0, s=4, theta=1e-12))


def test_erlang_a_unstable_without_abandonment():
    with pytest.raises(InstabilityError):
        erlang_a_measures(QueueModel(lam=5.0, s=4, theta=0.0))
