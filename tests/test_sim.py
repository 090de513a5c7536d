import math

import numpy as np
import pytest

import qedq
from qedq import (
    BulkModel,
    ConfigurationError,
    DiffusionModel,
    QueueModel,
    SimConfig,
    SinusoidRate,
    StaffingSchedule,
    TimeVaryingModel,
    bulk_stationary,
    diffusion_samples,
    erlang_a_measures,
    mms_measures,
    mmsn_measures,
    nhpp_arrivals,
    qed_delay_prob,
    sample_path,
    scaled_servers,
    simulate,
)
from qedq.sim import _stream, estimates_csv, estimates_json, path_csv

Z99 = 2.5758293035489004


def _covers(est, target, z=Z99):
    lo, hi = est.ci(z)
    return lo <= target <= hi


def test_nhpp_constant_rate_counts():
    rate = qedq.ConstantRate(5.0)
    counts = [len(nhpp_arrivals(rate, 100.0, _stream(3, r, 0))) for r in range(400)]
    mean = np.mean(counts)
    se = np.std(counts, ddof=1) / math.sqrt(len(counts))
    assert abs(mean - 500.0) < 3.0 * se


def test_nhpp_sinusoid_counts():
    rate = SinusoidRate(30.0, 20.0, 24.0)
    counts = [len(nhpp_arrivals(rate, 24.0, _stream(4, r, 0))) for r in range(1000)]
    mean = np.mean(counts)
    se = np.std(counts, ddof=1) / math.sqrt(len(counts))
    assert abs(mean - 720.0) < 3.0 * se
    # interval counts: first quarter period carries integral of lam over [0,6]
    target = 30.0 * 6.0 + 20.0 * 24.0 / (2 * math.pi) * (1 - math.cos(2 * math.pi / 4))
    sub = [np.count_nonzero(nhpp_arrivals(rate, 24.0, _stream(5, r, 0)) < 6.0)
           for r in range(1000)]
    se = np.std(sub, ddof=1) / math.sqrt(len(sub))
    assert abs(np.mean(sub) - target) < 3.0 * se


def test_nhpp_zero_rate():
    rate = qedq.PiecewiseConstantRate((0.0, 5.0), (0.0, 3.0))
    times = nhpp_arrivals(rate, 5.0, _stream(6, 0, 0))
    assert len(times) == 0


def test_simulate_deterministic():
    cfg = SimConfig(model=QueueModel(lam=3.2, s=4), horizon=300.0, warmup=20.0,
                    replications=4, seed=42)
    a = simulate(cfg, ["delay_prob", "mean_queue"])
    b = simulate(cfg, ["mean_queue", "delay_prob"])
    assert a["delay_prob"] == b["delay_prob"]
    assert a["mean_queue"] == b["mean_queue"]
    c = simulate(SimConfig(model=QueueModel(lam=3.2, s=4), horizon=300.0,
                           warmup=20.0, replications=4, seed=43),
                 ["delay_prob"])
    assert c["delay_prob"] != a["delay_prob"]


def test_metric_validation():
    cfg = SimConfig(model=QueueModel(lam=1.0, s=2), horizon=10.0)
    with pytest.raises(ConfigurationError):
        simulate(cfg, ["block_prob"])
    with pytest.raises(ConfigurationError):
        simulate(cfg, [])
    cfg = SimConfig(model=BulkModel(lam=1.0, s=2), horizon=100.0)
    with pytest.raises(ConfigurationError):
        simulate(cfg, ["delay_prob"])


def test_unstable_model_flagged():
    cfg = SimConfig(model=QueueModel(lam=5.0, s=4), horizon=50.0,
                    replications=2, seed=1)
    with pytest.warns(UserWarning):
        simulate(cfg, ["mean_queue"])


def test_mt_initial_load_clamp_warns():
    # an initial load at or above s(0) has no stationary M/M/s law to draw from
    schedule = StaffingSchedule(grid=np.array([0.0, 2.0]), levels=np.array([6, 12]),
                                method="PSA", epsilon=0.3, mu=1.0)
    model = TimeVaryingModel(rate=qedq.ConstantRate(8.0), schedule=schedule)
    cfg = SimConfig(model=model, horizon=5.0, replications=2, seed=3)
    with pytest.warns(UserWarning, match="initial offered load 8 >= s\\(0\\) = 6"):
        est = simulate(cfg, ["mean_queue"])
    assert math.isfinite(est["mean_queue"].point)


def test_mms_simulation_covers_analytics():
    model = QueueModel(lam=3.2, s=4)
    cfg = SimConfig(model=model, horizon=4000.0, warmup=200.0,
                    replications=12, seed=2024)
    est = simulate(cfg, ["delay_prob", "mean_delay", "mean_queue", "p_empty"])
    m = mms_measures(model)
    assert _covers(est["delay_prob"], m.delay_prob)
    assert _covers(est["mean_delay"], m.mean_delay)
    assert _covers(est["mean_queue"], m.mean_queue)
    assert _covers(est["p_empty"], float(m.pi[0]))


def test_erlang_a_simulation_covers_analytics():
    model = QueueModel(lam=1.0, s=2, theta=1.0)
    cfg = SimConfig(model=model, horizon=8000.0, warmup=200.0,
                    replications=12, seed=77)
    est = simulate(cfg, ["delay_prob", "abandon_prob", "mean_queue", "mean_delay"])
    m = erlang_a_measures(model)
    assert _covers(est["delay_prob"], m.delay_prob)
    assert _covers(est["abandon_prob"], m.abandon_prob)
    assert _covers(est["mean_queue"], m.mean_queue)
    assert _covers(est["mean_delay"], m.mean_delay)


def test_mmsn_simulation_covers_analytics():
    model = QueueModel(lam=10.0, s=12, n=16)
    cfg = SimConfig(model=model, horizon=1500.0, warmup=100.0,
                    replications=12, seed=123)
    est = simulate(cfg, ["delay_prob", "block_prob"])
    m = mmsn_measures(model)
    assert _covers(est["delay_prob"], m.delay_prob)
    assert _covers(est["block_prob"], m.block_prob)


def test_bulk_simulation_covers_analytics():
    model = BulkModel(lam=4.0, s=5)
    cfg = SimConfig(model=model, horizon=100_000, warmup=1000, replications=12,
                    seed=5)
    est = simulate(cfg, ["p_empty", "mean_queue"])
    st = bulk_stationary(model)
    assert _covers(est["p_empty"], st.p_empty)
    assert _covers(est["mean_queue"], st.mean_queue)


def test_meta_calibration_coverage():
    """99% CIs cover analytic values in at least 95% of 40 meta-runs.

    The CI for a mean of R replication values uses the t quantile (the
    normal quantile undercovers at small R).
    """
    from scipy.stats import t as tdist
    reps = 12
    z99 = float(tdist.ppf(0.995, reps - 1))
    cases = []
    m1 = QueueModel(lam=2.0, s=3)
    cases.append((m1, "delay_prob", mms_measures(m1).delay_prob, 800.0))
    m2 = QueueModel(lam=1.0, s=2, theta=1.0)
    cases.append((m2, "abandon_prob", erlang_a_measures(m2).abandon_prob, 800.0))
    m3 = QueueModel(lam=6.0, s=7, n=10)
    cases.append((m3, "block_prob", mmsn_measures(m3).block_prob, 400.0))
    for model, metric, target, horizon in cases:
        hits = 0
        for meta in range(40):
            cfg = SimConfig(model=model, horizon=horizon, warmup=50.0,
                            replications=reps, seed=9000 + meta)
            if _covers(simulate(cfg, [metric])[metric], target, z=z99):
                hits += 1
        assert hits >= 38, "%s coverage %d/40" % (metric, hits)
    # bulk: cheap, use many periods
    mb = BulkModel(lam=4.0, s=5)
    target = bulk_stationary(mb).p_empty
    hits = 0
    for meta in range(40):
        cfg = SimConfig(model=mb, horizon=20_000, warmup=500, replications=reps,
                        seed=41000 + meta)
        if _covers(simulate(cfg, ["p_empty"])["p_empty"], target, z=z99):
            hits += 1
    assert hits >= 38


def test_diffusion_frac_above_zero():
    model = DiffusionModel(beta=1.0, step=1e-3)
    cfg = SimConfig(model=model, horizon=400.0, warmup=20.0,
                    replications=24, seed=31)
    est = simulate(cfg, ["frac_above_zero"])
    assert abs(est["frac_above_zero"].point - qed_delay_prob(1.0)) < 0.02


def test_diffusion_exponential_tail_ks():
    beta = 0.5
    model = DiffusionModel(beta=beta, step=1e-3)
    samples = diffusion_samples(model, horizon=600.0, warmup=40.0,
                                sample_dt=0.5, replications=90, seed=8)
    pos = samples[samples > 0.0]
    assert len(pos) > 45_000
    from scipy.stats import kstest
    stat = kstest(pos, lambda x: 1.0 - np.exp(-beta * x)).statistic
    assert stat < 0.02


def test_diffusion_below_zero_mean_reverts():
    model = DiffusionModel(beta=0.5, step=1e-3)
    samples = diffusion_samples(model, horizon=400.0, warmup=20.0,
                                sample_dt=0.1, replications=20, seed=15)
    n_per = len(samples) // 20
    x = samples.reshape(-1, 20)  # rows: time order per sample epoch
    xt = x[:-1].ravel()
    dx = (x[1:] - x[:-1]).ravel()
    below = xt < 0.0
    slope = np.polyfit(xt[below], dx[below], 1)[0]
    # OU segment: drift -(beta + x), so increments regress on state with
    # slope about -(1 - exp(-dt)) for dt = 0.1
    assert slope < -0.02
    assert slope > -0.3


def _path_time_weighted_var(path):
    dt = np.diff(path.times)
    vals = path.values[:-1]
    w = dt / dt.sum()
    mean = np.sum(w * vals)
    return float(np.sum(w * (vals - mean) ** 2))


def test_sample_path_regression_and_excursions():
    lam = 100.0
    s = scaled_servers(lam, 0.5, "QED")
    assert s == 105
    cfg = SimConfig(model=QueueModel(lam=lam, s=s), horizon=50.0, seed=1234,
                    replications=1)
    path = sample_path(cfg)
    bound = 6.0 * math.sqrt(s)
    assert path.values.max() - s < bound
    assert s - path.values.min() < bound
    # identical seed: identical path (regression pin)
    again = sample_path(cfg)
    assert np.array_equal(path.values, again.values)


def test_sample_path_mmsn_hard_cap():
    lam = 100.0
    s = scaled_servers(lam, 0.5, "QED")
    gamma = 1.0
    n = int(round(s + gamma * math.sqrt(s)))
    cfg = SimConfig(model=QueueModel(lam=lam, s=s, n=n), horizon=200.0,
                    seed=77, replications=1)
    path = sample_path(cfg, centered=True)
    assert path.scaling == "centered_scaled"
    assert path.values.max() <= gamma + 1e-12


def test_sample_path_diffusion_rejects_centering():
    cfg = SimConfig(model=DiffusionModel(beta=1.0), horizon=1.0, replications=1)
    assert sample_path(cfg).scaling == "raw"
    with pytest.raises(ConfigurationError):
        sample_path(cfg, centered=True)


def test_qed_ladder_variance_and_regime_ordering():
    # centered-scaled path variance stays O(1) along the square-root rule
    variances = {}
    for lam in (10.0, 50.0, 100.0):
        s = scaled_servers(lam, 0.5, "QED")
        cfg = SimConfig(model=QueueModel(lam=lam, s=s), horizon=1500.0,
                        seed=33, replications=1)
        path = sample_path(cfg, centered=True)
        keep = path.times > 100.0
        sub = type(path)(times=path.times[keep], values=path.values[keep],
                         scaling=path.scaling)
        variances[lam] = _path_time_weighted_var(sub)
    ratio = variances[10.0] / variances[100.0]
    assert 1.0 / 3.0 <= ratio <= 3.0
    # at lam=100 the fraction of time spent above s orders the regimes
    fracs = {}
    for rule in ("ED", "QED", "QD"):
        s = scaled_servers(100.0, 0.5, rule)
        cfg = SimConfig(model=QueueModel(lam=100.0, s=s), horizon=1200.0,
                        warmup=100.0, replications=4, seed=55)
        fracs[rule] = simulate(cfg, ["frac_above_zero"])["frac_above_zero"].point
    assert fracs["ED"] > fracs["QED"] > fracs["QD"]


def test_export_roundtrip():
    import json
    cfg = SimConfig(model=QueueModel(lam=1.0, s=2), horizon=200.0, warmup=10.0,
                    replications=4, seed=9)
    est = simulate(cfg, ["delay_prob", "mean_queue"])
    csv_text = estimates_csv(est, precision=8)
    assert csv_text.splitlines()[0] == "metric,point,stderr,lo,hi"
    assert estimates_csv(est, precision=8) == csv_text  # byte-identical
    js = estimates_json(est, cfg, precision=8)
    payload = json.loads(js)
    assert payload["config"]["seed"] == 9
    assert json.dumps(payload, sort_keys=True, indent=2) + "\n" == js
    path = sample_path(SimConfig(model=QueueModel(lam=1.0, s=2), horizon=5.0,
                                 replications=1, seed=3))
    lines = path_csv(path).splitlines()
    assert lines[0] == "time,value"
    assert len(lines) == len(path.times) + 1
