import math

import numpy as np
import pytest

from qedq import (
    ConstantRate,
    DomainError,
    PiecewiseConstantRate,
    SampledRate,
    SinusoidRate,
    beta_for_delay_target,
    mol_schedule,
    offered_load,
    parse_rate,
    psa_schedule,
    staff_exact,
)


def test_parse_rate_formats(tmp_path):
    r = parse_rate("constant:5")
    assert isinstance(r, ConstantRate) and r.level == 5.0
    r = parse_rate("sinusoid:30,20,24")
    assert isinstance(r, SinusoidRate) and r.period == 24.0
    r = parse_rate("sinusoid:30,20,24,1.5")
    assert r.phase == 1.5
    r = parse_rate("pwc:0,5;10,2;20,8")
    assert isinstance(r, PiecewiseConstantRate)
    assert float(r.rate(15.0)) == 2.0
    csv_file = tmp_path / "rate.csv"
    csv_file.write_text("time,rate\n0,1.0\n10,3.0\n20,2.0\n")
    r = parse_rate("csv:%s" % csv_file)
    assert isinstance(r, SampledRate)
    assert float(r.rate(5.0)) == pytest.approx(2.0)
    with pytest.raises(DomainError):
        parse_rate("triangle:1,2")


def test_rate_validation():
    with pytest.raises(DomainError):
        SinusoidRate(10.0, 20.0, 24.0)  # would go negative
    with pytest.raises(DomainError):
        ConstantRate(-1.0)
    with pytest.raises(DomainError):
        PiecewiseConstantRate((0.0, 0.0), (1.0, 2.0))


def test_rate_majorants():
    r = SinusoidRate(30.0, 20.0, 24.0)
    assert r.max_on(0.0, 24.0) == pytest.approx(50.0)
    assert r.max_on(12.0, 18.0) == pytest.approx(float(r.rate(12.0)))
    p = PiecewiseConstantRate((0.0, 10.0), (5.0, 2.0))
    assert p.max_on(0.0, 20.0) == 5.0
    assert p.max_on(11.0, 12.0) == 2.0


def test_offered_load_constant():
    R = offered_load(ConstantRate(4.0), mu=2.0, horizon=10.0, grid_step=0.01,
                     initial=0.0)
    t = np.array([0.5, 1.0, 3.0, 9.0])
    expect = 2.0 * (1.0 - np.exp(-2.0 * t))
    assert np.allclose(R(t), expect, atol=1e-8)
    # stationary initialization sits at the fixed point
    R = offered_load(ConstantRate(4.0), mu=2.0, horizon=5.0, grid_step=0.01)
    assert np.allclose(R(np.linspace(0, 5, 20)), 2.0, atol=1e-10)


def test_offered_load_sinusoid_closed_form():
    a, b, period, mu = 30.0, 20.0, 24.0, 0.5
    w = 2 * math.pi / period
    rate = SinusoidRate(a, b, period)
    R = offered_load(rate, mu, horizon=48.0, grid_step=0.02)
    t = np.linspace(0.0, 48.0, 97)
    expect = a / mu + b * (mu * np.sin(w * t) - w * np.cos(w * t)) / (mu * mu + w * w)
    assert np.max(np.abs(R(t) - expect)) < 1e-7
    assert R.values.min() > 0.0


def test_offered_load_step_halving():
    rate = SinusoidRate(30.0, 20.0, 24.0)
    r1 = offered_load(rate, 0.5, horizon=24.0, grid_step=0.05)
    r2 = offered_load(rate, 0.5, horizon=24.0, grid_step=0.025)
    t = np.linspace(0.0, 24.0, 49)
    assert np.max(np.abs(r1(t) - r2(t)) / np.abs(r2(t))) < 1e-8


def test_offered_load_requires_initial_without_past():
    rate = PiecewiseConstantRate((0.0, 5.0), (3.0, 6.0))
    with pytest.raises(DomainError):
        offered_load(rate, 1.0, horizon=10.0, grid_step=0.1)
    R = offered_load(rate, 1.0, horizon=10.0, grid_step=0.1, initial=3.0)
    assert R(0.0) == 3.0


def test_mol_constant_rate_matches_stationary_rule():
    grid = np.arange(0.0, 12.0, 0.5)
    eps = 0.5
    sched = mol_schedule(ConstantRate(100.0), 1.0, eps, grid)
    beta = beta_for_delay_target(eps)
    expect = math.ceil(100.0 + beta * 10.0 - 1e-9)
    assert np.all(sched.levels == expect)


def test_psa_constant_rate_matches_staff_exact():
    grid = np.arange(0.0, 12.0, 0.5)
    sched = psa_schedule(ConstantRate(50.0), 2.0, 0.3, grid)
    assert np.all(sched.levels == staff_exact(25.0, 0.3).s)


@pytest.mark.parametrize("eps", [1e-12, 1e-8, 1e-4, 0.05, 0.3, 0.8, 0.99])
def test_psa_levels_equal_staff_exact(eps):
    # zero-rate cells, loads below 40 (the Erlang B recursion) and loads up
    # to 1e5, all in one schedule; at eps = 1e-8 and 1e-12 every busy cell
    # sits three to nine servers above the square-root guess
    mu = 2.0
    rate = SampledRate((0.0, 2.0, 4.0, 10.0, 16.0, 20.0), (0.0, 0.0, 80.0, 2e5, 1.0, 0.0))
    grid = np.arange(0.0, 20.0, 0.125)
    sched = psa_schedule(rate, mu, eps, grid)
    want = [1 if x <= 0.0 else staff_exact(x / mu, eps).s for x in rate.rate(grid + 0.0625)]
    assert list(sched.levels) == want


def test_psa_schedule_rejects_bad_load():
    grid = np.arange(3.0)
    for mu in (0.0, -1.0, math.inf):
        with pytest.raises(DomainError):
            psa_schedule(ConstantRate(10.0), mu, 0.3, grid)
    with pytest.raises(DomainError):
        psa_schedule(ConstantRate(math.inf), 1.0, 0.3, grid)


def _plateau_mid(levels, grid):
    top = levels.max()
    idx = np.where(levels == top)[0]
    return float(grid[idx].mean())


def test_psa_tracks_rate_mol_lags():
    # PSA peaks with the arrival rate; MOL peaks later (service memory)
    rate = SinusoidRate(30.0, 20.0, 24.0)
    mu = 0.5
    grid = np.arange(0.0, 24.0, 0.25)
    psa = psa_schedule(rate, mu, 0.3, grid)
    mol = mol_schedule(rate, mu, 0.3, grid)
    lam_peak = 6.0  # argmax of the sinusoid
    psa_mid = _plateau_mid(psa.levels, grid)
    mol_mid = _plateau_mid(mol.levels, grid)
    assert abs(psa_mid - lam_peak) <= 0.5
    assert mol_mid > lam_peak + 1.0
    # analytic lag of the offered load: atan(w/mu)/w
    w = 2 * math.pi / 24.0
    assert mol_mid == pytest.approx(lam_peak + math.atan(w / mu) / w, abs=0.75)


def test_schedules_decrease_with_epsilon():
    rate = SinusoidRate(30.0, 20.0, 24.0)
    grid = np.arange(0.0, 24.0, 0.5)
    for build in (psa_schedule, mol_schedule):
        prev = None
        for eps in (0.1, 0.3, 0.5, 0.8):
            lev = build(rate, 0.5, eps, grid).levels
            if prev is not None:
                assert np.all(lev <= prev)
            prev = lev


def test_schedule_level_lookup():
    grid = np.array([0.0, 1.0, 2.0])
    sched = psa_schedule(ConstantRate(3.0), 1.0, 0.5, grid)
    assert sched.level_at(0.5) == sched.levels[0]
    assert sched.level_at(1.5) == sched.levels[1]
    assert sched.level_at(99.0) == sched.levels[2]
