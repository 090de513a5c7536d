import math

import mpmath
import numpy as np
import pytest

from qedq import (
    DomainError,
    SeriesControl,
    normal_dist,
    normal_quantile,
    poisson_tail,
    zeta_half,
)
from qedq.special import _poisson_log_pmf, poisson_log_pmf

from oracles import normal_cdf_quad, poisson_tail_brute


def test_normal_dist_at_zero():
    nd = normal_dist(0.0)
    assert nd.pdf == pytest.approx(1.0 / math.sqrt(2 * math.pi), abs=1e-15)
    assert nd.cdf == 0.5


def test_normal_dist_at_one_vs_quadrature():
    nd = normal_dist(1.0)
    assert nd.cdf == pytest.approx(normal_cdf_quad(1.0), abs=1e-12)
    assert nd.cdf == pytest.approx(0.8413447, abs=5e-8)
    assert nd.pdf == pytest.approx(math.exp(-0.5) / math.sqrt(2 * math.pi), rel=1e-15)
    assert nd.pdf == pytest.approx(0.2419707, abs=5e-8)


def test_normal_symmetry():
    for x in np.linspace(-8.0, 8.0, 161):
        assert abs(normal_dist(x).cdf + normal_dist(-x).cdf - 1.0) < 1e-14


def test_normal_dist_rejects_nonfinite():
    with pytest.raises(DomainError):
        normal_dist(float("nan"))
    with pytest.raises(DomainError):
        normal_dist(float("inf"))


def test_normal_quantile_examples():
    assert normal_quantile(0.5) == 0.0
    assert normal_quantile(0.8413447) == pytest.approx(1.0, abs=1e-6)
    assert normal_quantile(0.975) == pytest.approx(1.959964, abs=1e-6)


def test_normal_quantile_roundtrip():
    for x in np.linspace(-6.0, 6.0, 121):
        p = normal_dist(x).cdf
        assert normal_quantile(p) == pytest.approx(x, abs=1e-8)


def test_normal_quantile_consistency():
    for p in (1e-10, 1e-4, 0.2, 0.5, 0.9, 1 - 1e-6):
        x = normal_quantile(p)
        assert normal_dist(x).cdf == pytest.approx(p, abs=1e-10)


def test_normal_quantile_monotone():
    grid = np.linspace(0.001, 0.999, 499)
    vals = [normal_quantile(p) for p in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_normal_quantile_domain():
    for p in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(DomainError):
            normal_quantile(p)


def test_poisson_tail_examples():
    assert poisson_tail(1.0, 0).p_geq == 1.0
    assert poisson_tail(1.0, 1).p_geq == pytest.approx(1 - math.exp(-1), rel=1e-14)
    assert poisson_tail(1.0, 2).p_geq == pytest.approx(1 - 2 * math.exp(-1), rel=1e-13)


def test_poisson_tail_ordering_and_domain():
    t = poisson_tail(3.7, 4)
    assert 0.0 <= t.p_gt <= t.p_geq <= 1.0
    with pytest.raises(DomainError):
        poisson_tail(0.0, 1)
    with pytest.raises(DomainError):
        poisson_tail(2.0, -1)


@pytest.mark.parametrize("mean", [0.5, 1.0, 4.0, 20.0, 50.0])
def test_poisson_term_identity(mean):
    # p_geq - p_gt equals the single pmf term, across a wide c range
    for c in range(0, 201, 7):
        t = poisson_tail(mean, c)
        assert t.p_geq - t.p_gt == pytest.approx(
            math.exp(poisson_log_pmf(mean, c)), abs=1e-12)


def test_poisson_log_pmf_vs_mpmath():
    # scalar and array evaluation of the one pmf, on both sides of k = 40;
    # near the mode the log-gamma form would be about 1e-10 off
    mean = 3.3e5
    ks = [0.0, 0.5, 7.0, 40.0, 40.5, 41.0, 41.2, 1e3, 3.2e5, 330000.0, 3.3e5 + 0.7, 1e6]
    with mpmath.workdps(50):
        m = mpmath.mpf(mean)
        ref = [float(k * mpmath.log(m) - m - mpmath.loggamma(k + 1)) for k in ks]
    arr = _poisson_log_pmf(np.array(ks), mean)
    for k, want, got in zip(ks, ref, arr):
        assert _poisson_log_pmf(k, mean) == pytest.approx(want, rel=1e-14)
        assert got == pytest.approx(want, rel=1e-14)
    assert poisson_log_pmf(mean, 330000) == pytest.approx(ref[ks.index(330000.0)], rel=1e-14)
    # array k with array mean, on both sides of k = 40
    ks, means = np.array([5.0, 50.0, 0.0, 39.5, 1e4]), np.array([4.0, 60.0, 2.5, 1e3, 9.9e3])
    with mpmath.workdps(50):
        ref = [float(k * mpmath.log(m) - m - mpmath.loggamma(k + 1))
               for k, m in zip(ks, map(mpmath.mpf, means))]
    assert _poisson_log_pmf(ks, means) == pytest.approx(ref, rel=1e-14)


@pytest.mark.parametrize("mean", [0.5, 1.0, 4.0, 20.0])
def test_poisson_tail_vs_bruteforce(mean):
    for c in range(0, 101, 3):
        assert poisson_tail(mean, c).p_geq == pytest.approx(
            poisson_tail_brute(mean, c), abs=1e-12)


def test_poisson_tail_large_mean_stable():
    t = poisson_tail(1e6, 10 ** 6 + 1000)
    assert 0.0 < t.p_geq < 1.0
    assert np.isfinite(t.p_gt)


def test_zeta_half_table_against_mpmath():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    for l in range(0, 200, 1):
        exact_p = float(mp.zeta(mp.mpf(1) / 2 - l))
        exact_m = float(mp.zeta(-mp.mpf(1) / 2 - l))
        assert zeta_half(l, "plus") == pytest.approx(exact_p, rel=1e-13)
        assert zeta_half(l, "minus") == pytest.approx(exact_m, rel=1e-13)


def test_zeta_half_examples():
    assert zeta_half(0, "plus") == pytest.approx(-1.4603545088, abs=1e-10)
    assert zeta_half(0, "minus") == pytest.approx(-0.2078862250, abs=1e-10)
    assert zeta_half(1, "minus") == pytest.approx(-0.0254852019, abs=1e-10)


def test_zeta_half_domain():
    with pytest.raises(DomainError):
        zeta_half(-1)
    with pytest.raises(DomainError):
        zeta_half(0, "middle")
    with pytest.raises(DomainError):
        zeta_half(10_000)


def test_series_control_validation():
    with pytest.raises(DomainError):
        SeriesControl(abs_tol=0.0)
    with pytest.raises(DomainError):
        SeriesControl(max_terms=0)
    c = SeriesControl()
    assert c.abs_tol == 1e-12 and c.max_terms == 10_000
